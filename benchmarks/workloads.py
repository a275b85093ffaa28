"""Shared workload generators and reporting helpers for the benchmark
harness.

The paper (SIGMOD '93) contains no evaluation tables — Section 9 concedes
only "performance measurements of a preliminary nature have been made" — so
each ``bench_e*.py`` file regenerates the *comparative claim* the paper
makes in prose (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
the claim-vs-measured record).  Every benchmark prints a small table of the
quantities that support or refute its claim, in addition to the
pytest-benchmark timing.
"""

from __future__ import annotations

import random
import time
from typing import Iterable, List, Sequence, Tuple

from repro import Session

# ---------------------------------------------------------------------------
# graph generators
# ---------------------------------------------------------------------------


def chain_edges(length: int) -> List[Tuple[int, int]]:
    """0 -> 1 -> ... -> length."""
    return [(i, i + 1) for i in range(length)]


def cycle_edges(length: int) -> List[Tuple[int, int]]:
    return chain_edges(length - 1) + [(length - 1, 0)]


def grid_edges(side: int) -> List[Tuple[int, int]]:
    """A side x side grid, edges right and down (a DAG with many paths)."""
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    return edges


def random_edges(
    nodes: int, count: int, seed: int = 42
) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < count:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            edges.add((a, b))
    return sorted(edges)


def weighted_random_edges(
    nodes: int, count: int, max_weight: int = 20, seed: int = 42
) -> List[Tuple[int, int, int]]:
    rng = random.Random(seed)
    return [(a, b, rng.randint(1, max_weight)) for a, b in random_edges(nodes, count, seed)]


def layered_dag_edges(layers: int, width: int = 2) -> List[Tuple[int, int]]:
    """A layered DAG, ``width`` nodes per layer, complete bipartite edges
    between consecutive layers: the number of distinct source-to-sink paths
    is width**layers, making path *enumeration* exponential while
    shortest-path search stays linear — the workload separating Figure 3
    with and without aggregate selections.  Node ids: layer*width + slot."""
    edges = []
    for layer in range(layers):
        for slot_a in range(width):
            for slot_b in range(width):
                edges.append(
                    (layer * width + slot_a, (layer + 1) * width + slot_b)
                )
    return edges


# ---------------------------------------------------------------------------
# program fragments
# ---------------------------------------------------------------------------


def edge_facts(edges: Iterable[Tuple[int, int]]) -> str:
    return " ".join(f"edge({a}, {b})." for a, b in edges)


def weighted_edge_facts(edges: Iterable[Tuple[int, int, int]]) -> str:
    return " ".join(f"edge({a}, {b}, {w})." for a, b, w in edges)


TC_LEFT = """
module tc.
export path(bf, fb, ff).
{flags}
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
end_module.
"""

TC_RIGHT = """
module tc.
export path(bf, fb, ff).
{flags}
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

SHORTEST_PATH_FIGURE_3 = """
module s_p.
export s_p(bfff, ffff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"""

#: Figure 3 WITHOUT the aggregate selections: enumerates every simple and
#: cyclic path — divergent on cyclic graphs, exponential on layered DAGs.
SHORTEST_PATH_UNPRUNED = """
module s_p.
export s_p(bfff, ffff).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), edge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
"""


def session_with(*sources: str) -> Session:
    session = Session()
    session.consult_string("\n".join(sources))
    return session


def mutual_recursion_module(predicates: int) -> str:
    """p0 ... p(k-1) in one big recursive cycle over edge/2: the workload
    where Predicate Semi-Naive beats Basic Semi-Naive (Section 4.2)."""
    rules = ["p0(X, Y) :- edge(X, Y)."]
    for index in range(predicates):
        nxt = (index + 1) % predicates
        rules.append(f"p{nxt}(X, Y) :- p{index}(X, Z), edge(Z, Y).")
        rules.append(f"p{nxt}(X, Y) :- p{index}(X, Y).")
    exports = "\n".join(f"export p{i}(bf, ff)." for i in range(predicates))
    body = "\n".join(rules)
    return f"module mutual.\n{exports}\n{{flags}}\n{body}\nend_module."


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def report(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print one claim-supporting table (captured into bench output)."""
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


class timed:
    """Context manager measuring one wall-clock interval::

        with timed() as t:
            run_workload()
        print(t.seconds)
    """

    def __enter__(self) -> "timed":
        self.seconds = 0.0
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
