"""Unit + property tests for lazy hash-consing (paper Section 3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.terms import (
    Atom,
    Functor,
    HashConsTable,
    Int,
    Str,
    Var,
    hc_id,
    make_list,
)
from repro.terms.hashcons import GLOBAL_TABLE, canonical


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

    def test_canonical_representative_is_shared(self):
        a = f(Int(1))
        b = f(Int(1))
        assert canonical(a) is canonical(b)

    def test_fresh_table_isolated(self):
        table = HashConsTable()
        term = Functor("isolated", (Int(1),))
        ident = table.hc_id(term)
        assert table.term_for(ident) is term
        assert len(table) == 1

    def test_table_clear(self):
        table = HashConsTable()
        table.hc_id(Functor("x", (Int(1),)))
        table.clear()
        assert len(table) == 0

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
    @pytest.mark.parametrize("tail", ["", " | T"], ids=["ground", "open"])
    def test_query_with_a_long_ground_list(self, tail, compiled):
        # an open list's fact is keyed, renamed and walked for variables
        # on every insert and read: none of those may recurse per cell
        from repro import Session

        text = "[" + ", ".join(str(i) for i in range(3_000)) + tail + "]"
        session = Session(compiled=compiled)
        session.consult_string(
            f"big(1, {text}).\nmodule m.\nexport via(bf).\n"
            "via(K, L) :- big(K, L).\nend_module.\n"
        )
        assert len(session.query("big(1, L)").all()) == 1
        assert len(session.query(f"big(1, {text})").all()) == 1
        assert len(session.query("via(1, L)").all()) == 1

    def test_private_table_ids_stay_private(self):
        table = HashConsTable()
        term = Functor("private_only", (Int(1),))
        table.hc_id(term)
        assert term._hc_id is None
        assert hc_id(term) == hc_id(Functor("private_only", (Int(1),)))
