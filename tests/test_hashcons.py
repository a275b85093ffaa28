"""Unit + property tests for lazy hash-consing (paper Section 3.1)."""

import gc
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.terms import Atom, Functor, Int, Str, Var, hc_id, make_list


def f(*args):
    return Functor("f", args)


class TestHashCons:
    def test_equal_terms_same_id(self):
        assert hc_id(f(Int(1), Atom("a"))) == hc_id(f(Int(1), Atom("a")))

    def test_unequal_terms_different_id(self):
        assert hc_id(f(Int(1))) != hc_id(f(Int(2)))

    def test_id_distinguishes_functor_name(self):
        assert hc_id(Functor("g", (Int(1),))) != hc_id(f(Int(1)))

    def test_id_distinguishes_nested_structure(self):
        assert hc_id(f(f(Int(1)))) != hc_id(f(Int(1)))

    def test_nonground_rejected(self):
        with pytest.raises(ValueError):
            hc_id(f(Var("X")))

    def test_laziness_no_id_until_demanded(self):
        term = f(Int(1), Int(2), Int(3))
        assert term._hc_id is None
        hc_id(term)
        assert term._hc_id is not None

    def test_id_cached_on_term(self):
        term = f(Str("abc"))
        first = hc_id(term)
        assert hc_id(term) == first

    def test_interning_adds_no_reference(self):
        term = f(Int(7), make_list([Int(1), Int(2)]))
        before = sys.getrefcount(term)
        hash(term)
        assert term._hc_id is not None
        assert sys.getrefcount(term) == before

    def test_a_collected_terms_equal_gets_the_same_id(self):
        """Ids are never reused: the map keeps keys, not terms, so an equal
        term built after the first one is collected meets the same id —
        and a surviving copy that cached it still compares equal."""
        first = Functor("collected", (Int(1), make_list([Int(2)])))
        copy = Functor("collected", (Int(1), make_list([Int(2)])))
        ident = hc_id(first)
        assert hc_id(copy) == ident
        del first
        gc.collect()
        fresh = Functor("collected", (Int(1), make_list([Int(2)])))
        assert hc_id(fresh) == ident
        assert fresh == copy
        assert hc_id(Functor("collected", (Int(2),))) != ident

    def test_threads_interning_at_once_get_unique_ids(self):
        """Four threads intern overlapping new terms: equal terms share one
        id, distinct terms never do."""
        results = [None] * 4
        start = threading.Barrier(4)

        def work(slot):
            start.wait()
            results[slot] = [
                hc_id(Functor("race", (Int(n),))) for n in range(2_000)
            ]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(ids == results[0] for ids in results)
        assert len(set(results[0])) == 2_000

    def test_type_orthogonality_mixed_children(self):
        """Identifiers compose across types without integration work."""
        mixed1 = f(Int(1), Str("1"), Atom("one"), make_list([Int(1)]))
        mixed2 = f(Int(1), Str("1"), Atom("one"), make_list([Int(1)]))
        assert hc_id(mixed1) == hc_id(mixed2)


ground_terms = st.recursive(
    st.one_of(
        st.integers(-50, 50).map(Int),
        st.sampled_from("abcde").map(Atom),
        st.text("xyz", max_size=3).map(Str),
    ),
    lambda children: st.lists(children, min_size=1, max_size=3).map(
        lambda args: Functor("g", args)
    ),
    max_leaves=10,
)


class TestHashConsProperties:
    @given(ground_terms, ground_terms)
    def test_id_equality_iff_term_equality(self, left, right):
        if not isinstance(left, Functor):
            left = Functor("wrap", (left,))
        if not isinstance(right, Functor):
            right = Functor("wrap", (right,))
        assert (hc_id(left) == hc_id(right)) == (left == right)

    @given(ground_terms)
    def test_ground_key_stable(self, term):
        assert term.ground_key() == term.ground_key()


class TestDeepTerms:
    """Equality and hashing of long lists must not be bounded by the host
    recursion limit: ground terms compare and hash by identifier, and a
    non-ground comparison walks iteratively."""

    N = 5_000

    def long_list(self, tail=None):
        items = [Int(i) for i in range(self.N)]
        return make_list(items) if tail is None else make_list(items, tail)

    def test_equal_ground_lists(self):
        a, b = self.long_list(), self.long_list()
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != make_list([Int(i) for i in range(self.N - 1)] + [Int(-1)])

    def test_equal_non_ground_lists(self):
        tail = Var("T")
        a, b = self.long_list(tail), self.long_list(tail)
        assert a == b
        assert hash(a) == hash(b)
        assert a != self.long_list(Var("T"))
        assert a != self.long_list()

    @pytest.mark.parametrize("compiled", ["push", None])
    @pytest.mark.parametrize(
        "tail", ["", " | T", " | T/subsumed"], ids=["ground", "open", "subsumed"]
    )
    def test_query_with_a_long_ground_list(self, tail, compiled):
        # an open list's fact is keyed, renamed and walked for variables
        # on every insert and read, and a fact it subsumes is matched
        # against it: none of those may recurse per cell
        from repro import Session

        tail, _, subsumed = tail.partition("/")
        items = ", ".join(str(i) for i in range(3_000))
        text = f"[{items}{tail}]"
        session = Session(compiled=compiled)
        session.consult_string(
            f"big(1, {text}).\nmodule m.\nexport via(bf).\n"
            "via(K, L) :- big(K, L).\nend_module.\n"
        )
        if subsumed:
            session.consult_string(
                f"big(1, [{items}, 7 | U]).\nbig(2, [{items}, 7 | U]).\n"
            )
            assert len(session.query("big(2, L)").all()) == 1
        assert len(session.query("big(1, L)").all()) == 1
        assert len(session.query(f"big(1, {text})").all()) == 1
        assert len(session.query("via(1, L)").all()) == 1
