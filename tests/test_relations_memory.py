"""Unit tests for in-memory relations: duplicates, subsumption, marks,
indexes, deletion (paper Sections 3.2, 3.3)."""

import pytest

from repro.errors import CoralError
from repro.relations import (
    ArgumentIndexSpec,
    DuplicatePolicy,
    HashRelation,
    ListRelation,
    PatternIndexSpec,
    Tuple,
)
from repro.terms import Atom, Functor, Int, Var


def t(*values):
    return Tuple(tuple(Int(v) if isinstance(v, int) else Atom(v) for v in values))


class TestHashRelationBasics:
    def test_insert_and_len(self):
        rel = HashRelation("p", 2)
        assert rel.insert(t(1, 2))
        assert len(rel) == 1

    def test_duplicate_rejected(self):
        rel = HashRelation("p", 2)
        rel.insert(t(1, 2))
        assert not rel.insert(t(1, 2))
        assert len(rel) == 1
        assert rel.duplicates_rejected == 1

    def test_multiset_keeps_duplicates(self):
        rel = HashRelation("p", 2, policy=DuplicatePolicy.MULTISET)
        rel.insert(t(1, 2))
        assert rel.insert(t(1, 2))
        assert len(rel) == 2

    def test_arity_mismatch_raises(self):
        rel = HashRelation("p", 2)
        with pytest.raises(CoralError):
            rel.insert(t(1))

    def test_scan_all(self):
        rel = HashRelation("p", 1)
        for i in range(5):
            rel.insert(t(i))
        assert sorted(tup[0].value for tup in rel.scan()) == [0, 1, 2, 3, 4]

    def test_contains(self):
        rel = HashRelation("p", 2)
        rel.insert(t(1, 2))
        assert rel.contains(t(1, 2))
        assert not rel.contains(t(2, 1))

    def test_delete(self):
        rel = HashRelation("p", 2)
        rel.insert(t(1, 2))
        rel.insert(t(3, 4))
        assert rel.delete(t(1, 2))
        assert len(rel) == 1
        assert not rel.contains(t(1, 2))
        assert not rel.delete(t(1, 2))

    def test_reinsert_after_delete(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        rel.delete(t(1))
        assert rel.insert(t(1))
        assert len(rel) == 1

    def test_insert_values_convenience(self):
        rel = HashRelation("emp", 2)
        assert rel.insert_values("john", 30)
        assert rel.contains(Tuple((Atom("john"), Int(30))))


class TestNonGroundFacts:
    def test_variant_is_duplicate(self):
        rel = HashRelation("p", 2)
        rel.insert(Tuple((Var("X"), Int(1))))
        assert not rel.insert(Tuple((Var("Y"), Int(1))))

    def test_subsumed_fact_rejected(self):
        rel = HashRelation("p", 2)
        rel.insert(Tuple((Var("X"), Int(1))))  # p(X, 1) — universal in X
        assert not rel.insert(Tuple((Atom("a"), Int(1))))
        assert rel.insert(Tuple((Atom("a"), Int(2))))

    def test_repeated_var_subsumption_is_consistent(self):
        rel = HashRelation("p", 2)
        x = Var("X")
        rel.insert(Tuple((x, x)))  # p(X, X)
        assert not rel.insert(Tuple((Int(3), Int(3))))
        assert rel.insert(Tuple((Int(3), Int(4))))

    def test_more_general_fact_is_stored_alongside(self):
        rel = HashRelation("p", 1)
        rel.insert(Tuple((Int(1),)))
        assert rel.insert(Tuple((Var("X"),)))  # more general: still inserted
        assert len(rel) == 2


class TestMarks:
    def test_marks_partition_insertions(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        first = rel.mark()
        rel.insert(t(2))
        rel.insert(t(3))
        second = rel.mark()
        rel.insert(t(4))

        full = {tup[0].value for tup in rel.scan()}
        before_first = {tup[0].value for tup in rel.scan(until=first)}
        between = {tup[0].value for tup in rel.scan(since=first, until=second)}
        after_second = {tup[0].value for tup in rel.scan(since=second)}

        assert full == {1, 2, 3, 4}
        assert before_first == {1}
        assert between == {2, 3}
        assert after_second == {4}

    def test_count_since(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        mark = rel.mark()
        assert rel.count_since(mark) == 0
        rel.insert(t(2))
        assert rel.count_since(mark) == 1

    def test_mark_on_empty_segment_is_stable(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        first = rel.mark()
        second = rel.mark()
        assert first == second

    def test_duplicates_checked_across_segments(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        rel.mark()
        assert not rel.insert(t(1))

    def test_marks_are_ids_that_survive_dropping_an_emptied_segment(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        first = rel.mark()
        rel.insert(t(2))
        second = rel.mark()
        rel.insert(t(3))
        third = rel.mark()
        assert 0 < first < second < third
        assert rel.segment_count() == 4
        rel.delete(t(2))  # empties a closed segment: dropped
        assert rel.segment_count() == 3
        values = lambda **window: sorted(  # noqa: E731
            tup[0].value for tup in rel.scan(**window)
        )
        assert values() == [1, 3]
        assert values(since=first) == [3]
        assert values(since=second) == [3]
        assert values(since=third) == []
        assert values(until=second) == [1]
        assert values(since=first, until=third) == [3]
        assert rel.count_since(first) == 1
        # marks keep growing past the gap, and new facts land after them
        rel.insert(t(4))
        assert rel.mark() > third
        assert values(since=third) == [4]

    def test_emptied_open_segment_stays_and_is_reused(self):
        rel = HashRelation("p", 1)
        rel.insert(t(1))
        mark = rel.mark()
        rel.insert(t(2))
        rel.delete(t(2))  # the open segment: kept, so the mark is reissued
        assert rel.segment_count() == 2
        assert rel.mark() == mark
        rel.insert(t(3))
        assert [tup[0].value for tup in rel.scan(since=mark)] == [3]

    def test_toggling_one_tuple_keeps_the_segment_count_bounded(self):
        rel = HashRelation("p", 1)
        rel.insert(t(0))
        for _ in range(200):
            rel.mark()
            rel.insert(t(1))
            rel.mark()
            rel.delete(t(1))
        assert rel.segment_count() <= 3
        assert [tup[0].value for tup in rel.scan()] == [0]

    def test_list_relation_marks(self):
        rel = ListRelation("p", 1)
        rel.insert(t(1))
        mark = rel.mark()
        rel.insert(t(2))
        assert {tup[0].value for tup in rel.scan(since=mark)} == {2}
        assert rel.count_since(mark) == 1


class TestArgumentIndex:
    def test_indexed_lookup_finds_matches(self):
        rel = HashRelation("edge", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            rel.insert(t(a, b))
        hits = list(rel.scan([Int(1), Var("Y")], None))
        assert {tup[1].value for tup in hits} == {2, 3}

    def test_unusable_probe_falls_back_to_scan(self):
        rel = HashRelation("edge", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))
        rel.insert(t(1, 2))
        hits = list(rel.scan([Var("X"), Int(2)], None))
        assert len(hits) == 1

    def test_index_added_after_inserts_covers_existing(self):
        rel = HashRelation("edge", 2)
        rel.insert(t(1, 2))
        rel.add_index(ArgumentIndexSpec(2, [1]))
        hits = list(rel.scan([Var("X"), Int(2)], None))
        assert len(hits) == 1

    def test_nonground_tuple_in_var_bucket_always_found(self):
        rel = HashRelation("p", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))
        rel.insert(Tuple((Var("X"), Int(9))))  # var at indexed position
        hits = list(rel.scan([Int(5), Var("Y")], None))
        assert len(hits) == 1  # candidate; caller re-unifies

    def test_index_maintained_under_delete(self):
        rel = HashRelation("p", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))
        rel.insert(t(1, 2))
        rel.delete(t(1, 2))
        assert list(rel.scan([Int(1), Var("Y")], None)) == []

    def test_probe_uses_the_widest_usable_index_not_the_first(self):
        rel = HashRelation("edge", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))  # registered first
        rel.add_index(ArgumentIndexSpec(2, [0, 1]))
        for b in range(50):
            rel.insert(t(1, b))
        # fully bound: one candidate, not the whole first-argument bucket
        assert len(list(rel.scan([Int(1), Int(7)], None))) == 1
        # only the first argument bound: the narrower index still serves
        assert len(list(rel.scan([Int(1), Var("Y")], None))) == 50

    def test_equally_wide_indexes_are_tried_in_registration_order(self):
        rel = HashRelation("p", 2)
        rel.add_index(ArgumentIndexSpec(2, [1]))
        rel.add_index(ArgumentIndexSpec(2, [0]))
        for a, b in [(1, 9), (2, 9), (3, 9), (1, 8)]:
            rel.insert(t(a, b))
        # both usable, same width: args(2) was registered first, so the
        # probe sees its bucket of three, not args(1)'s bucket of two
        assert len(list(rel.scan([Int(1), Int(9)], None))) == 3

    def test_index_spans_segments(self):
        rel = HashRelation("p", 2)
        rel.add_index(ArgumentIndexSpec(2, [0]))
        rel.insert(t(1, 2))
        mark = rel.mark()
        rel.insert(t(1, 3))
        all_hits = list(rel.scan([Int(1), Var("Y")], None))
        delta_hits = list(rel.scan([Int(1), Var("Y")], None, since=mark))
        assert len(all_hits) == 2
        assert len(delta_hits) == 1


class TestPatternIndex:
    def _emp(self):
        """The paper's example: @make_index emp(Name, addr(Street, City))(Name, City)."""
        name, street, city = Var("Name"), Var("Street"), Var("City")
        rel = HashRelation("emp", 2)
        rel.add_index(
            PatternIndexSpec(
                [name, Functor("addr", (street, city))], [name, city]
            )
        )
        return rel

    @staticmethod
    def _emp_tuple(name, street, city):
        return Tuple((Atom(name), Functor("addr", (Atom(street), Atom(city)))))

    def test_lookup_by_nested_subterm(self):
        rel = self._emp()
        rel.insert(self._emp_tuple("john", "main_st", "madison"))
        rel.insert(self._emp_tuple("john", "oak_st", "chicago"))
        rel.insert(self._emp_tuple("mary", "elm_st", "madison"))
        probe = [Atom("john"), Functor("addr", (Var("S"), Atom("madison")))]
        hits = list(rel.scan(probe, None))
        assert len(hits) == 1
        assert hits[0][1].args[0] == Atom("main_st")

    def test_probe_without_structure_falls_back(self):
        rel = self._emp()
        rel.insert(self._emp_tuple("john", "main_st", "madison"))
        hits = list(rel.scan([Atom("john"), Var("A")], None))
        assert len(hits) == 1

    def test_tuple_not_matching_pattern_still_retrievable(self):
        rel = self._emp()
        rel.insert(Tuple((Atom("ghost"), Var("Anywhere"))))
        probe = [Atom("ghost"), Functor("addr", (Var("S"), Atom("madison")))]
        assert len(list(rel.scan(probe, None))) == 1

    def test_key_var_must_occur_in_pattern(self):
        with pytest.raises(CoralError):
            PatternIndexSpec([Var("A")], [Var("B")])


class TestListPatternIndex:
    def test_paper_append_example(self):
        """Section 3.3: retrieve tuples of `append` whose first argument
        matches [X|[1,2,3]] — a pattern index over list structure."""
        from repro.terms import cons, make_list

        x = Var("X")
        pattern_list = cons(x, make_list([Int(1), Int(2), Int(3)]))
        rel = HashRelation("append", 3)
        rel.add_index(PatternIndexSpec([pattern_list, Var("B"), Var("W")], [x]))

        matching = Tuple(
            (
                make_list([Int(5), Int(1), Int(2), Int(3)]),
                make_list([Int(4)]),
                make_list([Int(5), Int(1), Int(2), Int(3), Int(4)]),
            )
        )
        other = Tuple(
            (
                make_list([Int(9), Int(9)]),
                make_list([]),
                make_list([Int(9), Int(9)]),
            )
        )
        rel.insert(matching)
        rel.insert(other)

        probe = [
            cons(Int(5), make_list([Int(1), Int(2), Int(3)])),
            Var("B"),
            Var("W"),
        ]
        hits = list(rel.scan(probe, None))
        assert matching in hits
        # the paper's example tuple ([5|[1,2,3]], [4], [5,1,2,3,4]) is found
        assert all(h != other for h in hits)

    def test_list_pattern_annotation_through_session(self):
        from repro import Session

        session = Session()
        session.consult_string(
            """
            @make_index stock([H | T], Q) (H).
            stock([widget, small], 4).
            stock([widget, large], 9).
            stock([gadget, small], 2).
            """
        )
        answers = session.query("stock([widget, S], Q)").all()
        assert len(answers) == 2


class TestAddIndexDeduplicates:
    """An index equal to one the relation already has is not filed again:
    every later insert would maintain both (ISSUE 20)."""

    def test_repeated_argument_index_is_one_spec(self):
        rel = HashRelation("p", 4)
        for _ in range(3):
            rel.add_index(ArgumentIndexSpec(4, [3, 1]))
        assert [spec.describe() for spec in rel.index_specs] == ["args(2,4)"]

    def test_a_different_position_set_is_a_second_spec(self):
        rel = HashRelation("p", 4)
        rel.add_index(ArgumentIndexSpec(4, [1, 3]))
        rel.add_index(ArgumentIndexSpec(4, [1]))
        assert len(rel.index_specs) == 2

    def test_pattern_specs_compare_up_to_variable_renaming(self):
        def emp(name, street, city, keys):
            pattern = [name, Functor("addr", (street, city))]
            return PatternIndexSpec(pattern, keys(name, street, city))

        first = emp(Var("Name"), Var("Street"), Var("City"), lambda n, s, c: [n, c])
        again = emp(Var("N"), Var("S"), Var("C"), lambda n, s, c: [n, c])
        other_keys = emp(Var("N"), Var("S"), Var("C"), lambda n, s, c: [n, s])
        assert first == again and hash(first) == hash(again)
        assert first != other_keys
        assert first != ArgumentIndexSpec(2, [0])

        rel = HashRelation("emp", 2)
        for spec in (first, again, other_keys):
            rel.add_index(spec)
        assert rel.index_specs == (first, other_keys)

    def test_make_index_consulted_twice_files_one_index(self):
        from repro import Session

        session = Session()
        text = "@make_index emp(Name, addr(Street, City)) (Name, City).\n"
        session.consult_string(text + "emp(john, addr(main, madison)).\n")
        session.consult_string(text)
        relation = session.relation("emp", 2)
        assert len(relation.index_specs) == 1
        assert len(session.query("emp(john, addr(S, madison))").all()) == 1
