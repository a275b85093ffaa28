"""Oracles and failure accounting — independent of the system under test.

Expected answers come from BFS, Dijkstra and plain adjacency lookups over
the harness's own copy of the edge set (``EdgeState``), never from a second
run of the program.  Every op the harness attempts is counted in a
``Failures`` ledger; an op that raised, was refused, or disagreed with its
oracle is a failed op, and any failed op makes the command exit non-zero.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

Edge = Tuple[int, ...]


class Failures:
    """Ops attempted vs ops that raised, were refused, or were wrong."""

    KEEP = 10  # reasons kept verbatim; the rest are only counted

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < self.KEEP:
            self.reasons.append(reason)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def merge(self, other: "Failures") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: self.KEEP - len(self.reasons)])


class EdgeState:
    """The harness's own view of the base relation: which edges are present
    right now.  ``toggle`` is the op the workloads apply to the database."""

    def __init__(self, edges: Iterable[Edge]) -> None:
        self.adjacency: Dict[int, Set[Tuple[int, ...]]] = {}
        for edge in edges:
            self.adjacency.setdefault(edge[0], set()).add(edge[1:])

    def present(self, edge: Edge) -> bool:
        return edge[1:] in self.adjacency.get(edge[0], ())

    def toggle(self, edge: Edge) -> str:
        """Flip ``edge``; returns what the database must do to follow."""
        out = self.adjacency.setdefault(edge[0], set())
        if edge[1:] in out:
            out.discard(edge[1:])
            return "delete"
        out.add(edge[1:])
        return "insert"

    # -- the three oracles ---------------------------------------------------

    def successors(self, key: int) -> Set[int]:
        """Adjacency oracle: the answers of ``edge(key, Y)``."""
        return {rest[0] for rest in self.adjacency.get(key, ())}

    def reachable(self, source: int) -> Set[int]:
        """BFS oracle: the answers of ``path(source, Y)``."""
        seen: Set[int] = set()
        frontier = deque([source])
        while frontier:
            node = frontier.popleft()
            for rest in self.adjacency.get(node, ()):
                if rest[0] not in seen:
                    seen.add(rest[0])
                    frontier.append(rest[0])
        return seen

    def distances(self, source: int) -> Dict[int, int]:
        """Dijkstra oracle: cheapest cost of a non-empty path to each node."""
        best: Dict[int, int] = {}
        heap = [(w, dst) for dst, w in self.adjacency.get(source, ())]
        heapq.heapify(heap)
        while heap:
            cost, node = heapq.heappop(heap)
            if node in best:
                continue
            best[node] = cost
            for dst, w in self.adjacency.get(node, ()):
                if dst not in best:
                    heapq.heappush(heap, (cost + w, dst))
        return best


# -- per-answer checks: each returns None or the reason it is wrong -----------


def check_set(got: Sequence[int], expected: Set[int]) -> Optional[str]:
    if len(got) != len(set(got)):
        return f"duplicate answers in {sorted(got)[:8]}..."
    if set(got) != expected:
        missing = sorted(expected - set(got))[:4]
        extra = sorted(set(got) - expected)[:4]
        return f"missing {missing} extra {extra} (of {len(expected)} expected)"
    return None


def check_shortest(
    got: Sequence[Tuple[int, List[Tuple[int, int]], int]],
    state: EdgeState,
    source: int,
) -> Optional[str]:
    """``got`` is ``(Y, path, cost)`` per answer with ``path`` the edge list,
    newest edge first (Figure 3 prepends).  The witness path may be any
    cheapest one (``any(P)``), but it must exist, connect and add up."""
    expected = state.distances(source)
    wrong = check_set([target for target, _, _ in got], set(expected))
    if wrong is not None:
        return wrong
    for target, path, cost in got:
        if cost != expected[target]:
            return f"cost {cost} to {target}, expected {expected[target]}"
        at, total = source, 0
        for a, b in reversed(path):
            weights = [w for dst, w in state.adjacency.get(a, ()) if dst == b]
            if a != at or not weights:
                return f"witness path to {target} breaks at edge({a}, {b})"
            at, total = b, total + weights[0]
        if at != target or total != cost:
            return f"witness path to {target} ends at {at} costing {total}"
    return None
