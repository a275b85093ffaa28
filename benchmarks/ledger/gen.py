"""Seeded input generators: graphs, toggle pools and op lists.

Everything the program under test receives is made here from ``--seed``;
the same seed gives byte-identical inputs (``op_list_bytes``), and the sizes
are frozen in ``SPECS`` so that counts repeat exactly from run to run.

Every workload runs the same kind of op list: a *step* toggles one edge of a
small pool (insert if absent, delete if present) and then issues one read.
One *pass* shuffles the pool twice per repeat, so every pool edge is toggled
an even number of times and the database is back in its initial state when
the pass ends — passes are the unit the harness repeats.  Half the pool
starts absent, so inserts and deletes interleave from the first step on.

What the seed decides is every node label, the pool, the read keys and the
op order.  What it does not decide is the *shape* of the graph: every seed
gets the same layered DAG up to relabelling (node ``(g, i)`` points straight
down and ``2 ** (g % log2 width)`` columns across, so reach sets double per
layer until they saturate), with weights that depend on position only.  All
nodes of a layer are therefore equivalent, the work per query depends on the
source's layer alone, and medians are comparable across seeds — a random
graph per seed moved ``query_p50_ms`` by 17 % between seeds before any code
changed.  Read keys are dealt evenly over an odd number of source layers, so
p50 and p95 each sit inside one mode of the latency distribution rather than
on the boundary between two.  On the read workloads the pool edges hang from
roof nodes *above* layer 0: the toggles are real commits to the relation the
reads scan, but no read can reach them, so reads cost the same whatever the
pool's state.  On live_update the pool is cut from one middle gap, below
every view's source, because there the toggles are the point.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field
from typing import List, Tuple

Edge = Tuple[int, ...]  # (src, dst) or (src, dst, weight)


@dataclass(frozen=True)
class Spec:
    """Frozen sizes of one workload (tuned once to >= 300 steps per 10 s)."""

    name: str
    layers: int = 0
    width: int = 0  # a power of two
    weighted: bool = False
    #: read keys come from this many top layers, dealt evenly
    source_layers: int = 0
    #: live_update: reads alternate strictly over this many layer-0 keys,
    #: and the pool is cut from the middle gap, where every view sees it;
    #: elsewhere the pool hangs above layer 0 and no read can reach it
    read_keys: int = 0
    #: pool edges per client; a pass is ``2 * pool * repeats`` steps
    pool: int = 16
    repeats: int = 1
    clients: int = 1
    #: wire_lookup only: base-relation keys and answers per key
    keys: int = 0
    fanout: int = 0

    @property
    def steps_per_pass(self) -> int:
        return 2 * self.pool * self.repeats


SPECS = {
    spec.name: spec
    for spec in (
        Spec("tc_reach", layers=9, width=32, source_layers=3, pool=8, repeats=2),
        Spec("sp_agg", layers=6, width=8, weighted=True, source_layers=3,
             pool=4, repeats=4),
        Spec("wire_lookup", clients=2, repeats=32, keys=500, fanout=8),
        Spec("live_update", layers=6, width=8, read_keys=2, pool=4, repeats=4),
    )
}


@dataclass
class ClientOps:
    """What one closed-loop client does in one pass."""

    pool: List[Edge]
    #: (pool index to toggle, key to read) per step
    steps: List[Tuple[int, int]]
    #: the read that warms the query form up during set-up
    warm_key: int


@dataclass
class Inputs:
    spec: Spec
    seed: int
    #: the base facts present at the start (the absent half of every pool
    #: is not among them)
    edges: List[Edge]
    clients: List[ClientOps]
    #: live_update only: the subscribed goals' keys (two identical)
    views: List[int] = field(default_factory=list)


def _rng(seed: int, *salt: object) -> random.Random:
    # str seeds hash through sha512: stable across runs and interpreters
    return random.Random(":".join(str(part) for part in (seed, *salt)))


def layered_dag(layers: int, width: int, weighted: bool) -> List[Edge]:
    """The fixed shape, on canonical ids ``g * width + i``: two edges per
    node, straight down and ``skew`` columns across; in gap order."""
    bits = width.bit_length() - 1
    if width != 1 << bits:
        raise ValueError(f"width must be a power of two, got {width}")
    edges: List[Edge] = []
    for gap in range(layers - 1):
        skew = 1 << (gap % bits)
        for i in range(width):
            for which, j in enumerate((i, (i + skew) % width)):
                edge = (gap * width + i, (gap + 1) * width + j)
                if weighted:
                    edge += (1 + (5 * gap + 4 * which) % 9,)
                edges.append(edge)
    return edges


def pool_order(rng: random.Random, spec: Spec) -> List[int]:
    order: List[int] = []
    for _ in range(2 * spec.repeats):
        indices = list(range(spec.pool))
        rng.shuffle(indices)
        order.extend(indices)
    return order


def generate(workload: str, seed: int) -> Inputs:
    spec = SPECS[workload]
    if spec.keys:
        return _lookup_inputs(spec, seed)
    width = spec.width
    shape = layered_dag(spec.layers, width, spec.weighted)
    nodes = spec.layers * width
    # labels for the DAG's nodes, then for one roof node per pool edge
    label = _rng(seed, workload, "labels").sample(
        range(nodes + spec.pool), nodes + spec.pool
    )
    edges = [(label[e[0]], label[e[1]], *e[2:]) for e in shape]

    # the pool; its second half starts absent
    rng = _rng(seed, workload, "pool")
    if spec.read_keys:
        # both in-edges of a few nodes below the middle gap (first all the
        # straight ones, then all the skewed ones): every view sees each
        # toggle, and a node's second in-edge going or coming changes answers
        gap = spec.layers // 2
        skew = 1 << (gap % (width.bit_length() - 1))
        columns = rng.sample(range(width), spec.pool // 2)
        pool = [
            (label[gap * width + (j - back) % width], label[(gap + 1) * width + j])
            for back in (0, skew) for j in columns
        ]
    else:
        pool = [
            (label[nodes + i], label[rng.randrange(width)], *shape[0][2:])
            for i in range(spec.pool)
        ]
    absent = set(pool[spec.pool // 2:])
    edges = [edge for edge in edges + pool if edge not in absent]

    rng = _rng(seed, workload, "steps")
    order = pool_order(rng, spec)
    views: List[int] = []
    if spec.read_keys:
        tops = rng.sample(label[:width], 3)
        views = [tops[0], tops[0], tops[1], tops[2]]
        keys = [tops[n % spec.read_keys] for n in range(len(order))]
        warm_key = tops[0]
    else:
        # dealt evenly over the source layers, then shuffled
        keys = [
            label[(n % spec.source_layers) * width + rng.randrange(width)]
            for n in range(len(order))
        ]
        rng.shuffle(keys)
        warm_key = label[rng.randrange(width)]
    return Inputs(
        spec, seed, edges, [ClientOps(pool, list(zip(order, keys)), warm_key)],
        views,
    )


def _lookup_inputs(spec: Spec, seed: int) -> Inputs:
    """A keyed base relation; client ``c`` owns the keys ``k % clients == c``
    for both its toggles and its reads, so every answer is determined by
    that client's own op order however the two threads interleave."""
    rng = _rng(seed, spec.name, "table")
    label = rng.sample(range(10 * spec.keys), spec.keys)
    values = rng.sample(range(10_000, 1_000_000), spec.keys * spec.fanout)
    edges = [
        (label[key], values[key * spec.fanout + j])
        for key in range(spec.keys)
        for j in range(spec.fanout)
    ]
    clients = []
    for client in range(spec.clients):
        own = label[client::spec.clients]
        crng = _rng(seed, spec.name, "client", client)
        # fresh values no generated edge uses; the first half starts present
        pool = [(crng.choice(own), 2_000_000 + i) for i in range(spec.pool)]
        edges.extend(pool[:spec.pool // 2])
        order = pool_order(crng, spec)
        steps = [(index, crng.choice(own)) for index in order]
        clients.append(ClientOps(pool, steps, crng.choice(own)))
    return Inputs(spec, seed, edges, clients)


def op_list_bytes(inputs: Inputs) -> bytes:
    """The canonical serialization the determinism tests compare."""
    return json.dumps(
        {
            "workload": inputs.spec.name,
            "seed": inputs.seed,
            "edges": inputs.edges,
            "views": inputs.views,
            "clients": [
                {"pool": c.pool, "steps": c.steps, "warm_key": c.warm_key}
                for c in inputs.clients
            ],
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="print a workload's op list")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.stdout.write(op_list_bytes(generate(args.workload, args.seed)).decode())
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
