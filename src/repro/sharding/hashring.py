"""Consistent-hash placement: which worker owns which predicate or module.

The routing unit is a *name* — a predicate (``edge``) or a module (``tc``)
— mirroring the querytorque lesson (PAPERS.md) that routing decisions
belong at node/predicate granularity, not whole-program.  Placement must be
deterministic across processes and across router restarts (a router reboot
must route ``edge`` to the worker that already holds the edge facts), so
the hash is :mod:`hashlib` blake2b, never Python's salted ``hash()``.

Two layers:

* :class:`HashRing` — classic consistent hashing: each worker contributes
  :data:`VNODES` virtual points on a 64-bit ring; a key is owned by the first
  point at or clockwise of its hash.  Changing the worker count moves only
  ``~keys/n`` of the keyspace, which is what makes re-sharding a fleet with
  persistent per-worker data directories survivable.
* :class:`ShardMap` — the operator's override file: explicit pins
  (``name = 2``) for co-locating predicates that must share a worker, and
  partitioned relations (``name = *``) whose *facts* are spread across all
  workers by tuple hash and whose queries scatter-gather (docs/SHARDING.md).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set, Tuple as PyTuple, Union

from ..errors import ShardRoutingError

#: virtual points per worker; 64 keeps the max/min keyspace imbalance
#: under ~30% for small fleets while the ring stays tiny
VNODES = 64


def stable_hash(key: str) -> int:
    """A process-stable 64-bit hash (Python's ``hash()`` is salted)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing of string keys onto ``workers`` integer slots."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ShardRoutingError(f"a ring needs >= 1 worker, got {workers}")
        self.workers = workers
        points: List[PyTuple[int, int]] = []
        for index in range(workers):
            for v in range(VNODES):
                points.append((stable_hash(f"worker-{index}#{v}"), index))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    def owner(self, key: str) -> int:
        """The worker index owning ``key``."""
        position = bisect_left(self._hashes, stable_hash(key))
        if position == len(self._hashes):
            position = 0  # wrap around the ring
        return self._owners[position]

    def spread(self, keys: Iterable[str]) -> Dict[int, int]:
        """Keys per worker — balance diagnostics for tests and @workers."""
        out: Dict[int, int] = {index: 0 for index in range(self.workers)}
        for key in keys:
            out[self.owner(key)] += 1
        return out

    def __repr__(self) -> str:
        return f"<HashRing workers={self.workers} vnodes={VNODES}>"


def partition_key(values: Iterable[object]) -> str:
    """The canonical text a partitioned relation's tuple is hashed by.

    Both routes into a worker must agree — an ``INSERT edge(1, 2)`` and the
    consulted fact ``edge(1, 2).`` land on the same shard, so the later
    ``DELETE edge(1, 2)`` finds the fact.  ``values`` are term objects (or
    anything whose ``str`` matches the parsed term's), joined with a
    separator no term rendering contains bare.
    """
    return "\x1f".join(str(value) for value in values)


class ShardMap:
    """Routing policy: explicit pins and partitioned relations over a ring.

    ``pins`` maps a predicate/module name to a fixed worker index;
    ``partitioned`` names base relations whose facts are hash-spread across
    *all* workers by tuple (queries on them scatter-gather).  Everything
    else falls through to the consistent-hash ring.
    """

    def __init__(
        self,
        workers: int,
        pins: Optional[Dict[str, int]] = None,
        partitioned: Optional[Iterable[str]] = None,
    ) -> None:
        self.ring = HashRing(workers)
        self.workers = workers
        self.pins: Dict[str, int] = dict(pins or {})
        self.partitioned: Set[str] = set(partitioned or ())
        for name, index in self.pins.items():
            if not 0 <= index < workers:
                raise ShardRoutingError(
                    f"shard map pins {name!r} to worker {index}, but the "
                    f"fleet has workers 0..{workers - 1}"
                )
        clash = self.partitioned & set(self.pins)
        if clash:
            raise ShardRoutingError(
                f"shard map both pins and partitions {sorted(clash)}"
            )

    # -- routing -------------------------------------------------------------

    def is_partitioned(self, name: str) -> bool:
        return name in self.partitioned

    def owner(self, name: str) -> int:
        """The single worker owning ``name`` (pin first, ring otherwise).
        Partitioned names have no single owner — callers must check
        :meth:`is_partitioned` first; asking anyway is a routing bug."""
        if name in self.partitioned:
            raise ShardRoutingError(
                f"{name!r} is partitioned across all workers; it has no "
                f"single owner"
            )
        pinned = self.pins.get(name)
        if pinned is not None:
            return pinned
        return self.ring.owner(name)

    def tuple_owner(self, name: str, key: str) -> int:
        """The worker holding one tuple of a partitioned relation."""
        return stable_hash(f"{name}\x1f{key}") % self.workers

    # -- the operator file ---------------------------------------------------

    @classmethod
    def parse(cls, text: str, workers: int) -> "ShardMap":
        """A shard map from its file form: one ``name = N`` or ``name = *``
        per line, ``#`` comments, blank lines ignored."""
        pins: Dict[str, int] = {}
        partitioned: Set[str] = set()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, sep, target = line.partition("=")
            name = name.strip()
            target = target.strip()
            if not sep or not name or not target:
                raise ShardRoutingError(
                    f"shard map line {lineno}: expected 'name = N' or "
                    f"'name = *', got {raw.strip()!r}"
                )
            if name in pins or name in partitioned:
                raise ShardRoutingError(
                    f"shard map line {lineno}: {name!r} mapped twice"
                )
            if target == "*":
                partitioned.add(name)
            else:
                try:
                    pins[name] = int(target)
                except ValueError:
                    raise ShardRoutingError(
                        f"shard map line {lineno}: worker index must be an "
                        f"integer or '*', got {target!r}"
                    ) from None
        return cls(workers, pins=pins, partitioned=partitioned)

    @classmethod
    def load(
        cls,
        path_or_map: Union[None, str, Dict[str, object], "ShardMap"],
        workers: int,
    ) -> "ShardMap":
        """Coerce whatever the caller has — nothing, a file path, a dict of
        ``{name: index_or_"*"}``, or a prebuilt map — into a ShardMap."""
        if isinstance(path_or_map, ShardMap):
            if path_or_map.workers != workers:
                raise ShardRoutingError(
                    f"shard map was built for {path_or_map.workers} workers, "
                    f"fleet has {workers}"
                )
            return path_or_map
        if path_or_map is None:
            return cls(workers)
        if isinstance(path_or_map, dict):
            pins = {
                name: int(target)
                for name, target in path_or_map.items()
                if target != "*"
            }
            partitioned = {
                name for name, target in path_or_map.items() if target == "*"
            }
            return cls(workers, pins=pins, partitioned=partitioned)
        with open(path_or_map, "r", encoding="utf-8") as handle:
            return cls.parse(handle.read(), workers)

    def describe(self) -> Dict[str, object]:
        """The STATS/``@workers`` summary of the routing policy."""
        return {
            "workers": self.workers,
            "pins": dict(sorted(self.pins.items())),
            "partitioned": sorted(self.partitioned),
        }

    def __repr__(self) -> str:
        return (
            f"<ShardMap workers={self.workers} pins={len(self.pins)} "
            f"partitioned={len(self.partitioned)}>"
        )
