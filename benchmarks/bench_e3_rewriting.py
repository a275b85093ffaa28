"""E3 — Section 4.1: selection-propagating rewritings.

Paper claims: *"Supplementary Magic is a good choice as a default, although
each technique is superior to the rest for some programs"* — here the
optimizer picks per query form (context factoring where its structural
precondition holds, supplementary magic elsewhere) and the annotations are
overrides; bound query forms propagate bindings ("binding propagation similar to Prolog"), all-free
forms "are ignored, except for a final selection".

Measured, on a bound-first-argument transitive-closure query over a graph
with a large irrelevant component:

* facts computed: any magic variant ≪ no rewriting (selectivity);
* supplementary magic does not repeat rule-prefix work that plain Magic
  re-derives (rule applications / inferences);
* context factoring wins on the right-linear form (it avoids materializing
  per-subgoal answer copies), and is what the optimizer chooses there —
  while left-linear and nonlinear programs get supplementary magic;
* each variant returns identical answers.
"""

import pytest

from repro import Session
from workloads import (
    TC_LEFT,
    TC_RIGHT,
    chain_edges,
    edge_facts,
    report,
    session_with,
)

TC_NONLINEAR = """
module tc.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), path(Z, Y).
end_module.
"""

#: reachable component: a binary in-tree reaching few nodes from the source;
#: irrelevant component: a long chain elsewhere
def _graph():
    edges = [(a + 100, b + 100) for a, b in chain_edges(120)]  # irrelevant
    for i in range(30):  # reachable component: a chain from 0
        edges.append((i, i + 1))
    return edges


TECHNIQUES = [
    ("no rewriting", "@no_rewriting."),
    ("magic", "@magic."),
    ("sup. magic", "@supplementary_magic."),
    ("sup. magic + goal ids", "@supplementary_magic_goalid."),
    ("context factoring", "@context_factoring."),
    ("optimizer's choice", ""),
]


def _run(flags: str):
    session = session_with(
        edge_facts(_graph()), TC_RIGHT.format(flags=flags)
    )
    answers = sorted(a["Y"] for a in session.query("path(0, Y)"))
    return session, answers


class TestE3Rewriting:
    def test_selectivity_and_agreement(self):
        rows = []
        baseline = None
        for label, flags in TECHNIQUES:
            session, answers = _run(flags)
            if baseline is None:
                baseline = answers
            assert answers == baseline, f"{label} disagrees"
            stats = session.stats
            rows.append(
                (
                    label,
                    stats.facts_inserted,
                    stats.inferences,
                    stats.rule_applications,
                )
            )
        report(
            "E3: bound-source TC with a large irrelevant component",
            ["technique", "facts", "inferences", "rule applications"],
            rows,
        )
        by_label = {row[0]: row for row in rows}
        unrewritten_facts = by_label["no rewriting"][1]
        for label in ("magic", "sup. magic", "context factoring"):
            assert by_label[label][1] < unrewritten_facts / 2, label
        # factoring's context relation is the smallest representation of the
        # subgoal structure for right-linear rules
        assert by_label["context factoring"][1] <= by_label["sup. magic"][1]
        # ... and on this program it is what the optimizer picks
        assert by_label["optimizer's choice"][1:] == (
            by_label["context factoring"][1:]
        )

    def test_all_free_form_skips_rewriting(self):
        """Section 4.1: with every argument free, bindings are only a final
        selection — the optimizer compiles the unrewritten program."""
        session = session_with(
            edge_facts(chain_edges(5)), TC_RIGHT.format(flags="")
        )
        session.query("path(X, Y)").all()
        compiled = session.modules.compiled_form("tc", "path", "ff")
        assert compiled.rewritten.technique == "none"

    @pytest.mark.parametrize(
        "module,technique",
        [
            (TC_RIGHT, "factoring"),
            (TC_LEFT, "supplementary_magic"),
            (TC_NONLINEAR, "supplementary_magic"),
        ],
        ids=["right-linear", "left-linear", "nonlinear"],
    )
    def test_bound_form_gets_the_optimizers_choice(self, module, technique):
        """"Each technique is superior to the rest for some programs", and
        the optimizer picks: factoring where the recursion is linear with
        the free arguments passed through, supplementary magic elsewhere."""
        session = session_with(
            edge_facts(chain_edges(5)), module.format(flags="")
        )
        assert len(session.query("path(1, Y)").all()) == 4
        compiled = session.modules.compiled_form("tc", "path", "bf")
        assert compiled.rewritten.technique == technique
        assert compiled.choice[-1] == (technique, "chosen")

    @pytest.mark.parametrize(
        "label,flags", TECHNIQUES, ids=[t[0] for t in TECHNIQUES]
    )
    def test_technique_speed(self, benchmark, label, flags):
        benchmark.pedantic(lambda: _run(flags), rounds=3, iterations=1)
