import pytest

from hurwitz.core import (
    KLEIN,
    PROJECTIVE,
    SPHERE,
    TORUS,
    BranchDatum,
    DatumParseError,
    Partition,
    Surface,
    check_compatibility,
    format_datum,
    infer_cover,
    parse_datum,
    partitions_of,
    refines_two_halves,
    surface_from_euler,
    surface_from_token,
)
from hurwitz.catalog import enumerate_compatible
from conftest import partition_count_oracle


class TestPartition:
    def test_normalizes_order(self):
        assert Partition((1, 3, 2)).parts == (3, 2, 1)

    def test_degree_and_len(self):
        p = Partition((3, 1))
        assert p.degree == 4
        assert len(p) == 2

    def test_trivial_flag(self):
        assert Partition((1, 1, 1)).is_trivial
        assert not Partition((2, 1)).is_trivial

    def test_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Partition(())
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_str(self):
        assert str(Partition((2, 1, 1))) == "2,1,1"
        for d in range(1, 13):
            for p in partitions_of(d):
                assert str(p) == ",".join(str(x) for x in p.parts)


class TestSurface:
    def test_euler_characteristic(self):
        assert SPHERE.euler_characteristic == 2
        assert TORUS.euler_characteristic == 0
        assert PROJECTIVE.euler_characteristic == 1
        assert KLEIN.euler_characteristic == 0
        assert Surface(True, 3).euler_characteristic == -4
        assert Surface(False, 5).euler_characteristic == -3

    def test_nonorientable_needs_genus(self):
        with pytest.raises(ValueError):
            Surface(False, 0)

    def test_tokens(self):
        assert SPHERE.token == "O0"
        assert surface_from_token("N1") == PROJECTIVE
        with pytest.raises(DatumParseError):
            surface_from_token("X2")

    def test_from_euler(self):
        assert surface_from_euler(2, True) == SPHERE
        assert surface_from_euler(1, True) is None
        assert surface_from_euler(4, True) is None
        assert surface_from_euler(1, False) == PROJECTIVE
        assert surface_from_euler(2, False) is None
        assert surface_from_euler(-1, False) == Surface(False, 3)


class TestBranchDatum:
    def test_canonical_partition_order(self):
        a = BranchDatum(SPHERE, SPHERE, 4, (Partition((2, 2)), Partition((3, 1)), Partition((2, 2))))
        b = BranchDatum(SPHERE, SPHERE, 4, (Partition((3, 1)), Partition((2, 2)), Partition((2, 2))))
        assert a == b
        assert a.partitions[0].parts == (3, 1)

    def test_rejects_trivial_partition(self):
        with pytest.raises(ValueError):
            BranchDatum(SPHERE, SPHERE, 3, (Partition((1, 1, 1)),))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            BranchDatum(SPHERE, SPHERE, 4, (Partition((2, 1)),))

    def test_counts(self):
        d = parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert d.n == 3
        assert d.n_tilde == 6


class TestCompatibility:
    def test_easiest_example_compatible(self):
        d = parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        report = check_compatibility(d)
        assert report.compatible and not report.violated

    def test_count_and_parity_violations(self):
        d = BranchDatum(SPHERE, SPHERE, 3, (Partition((2, 1)),))
        assert check_compatibility(d).violated == frozenset({1, 2})

    def test_wrong_cover_violates_count(self):
        d = parse_datum("d=4 cover=O1 base=O0 parts=[4|3,1|2,1,1]")
        assert check_compatibility(d).violated == frozenset({1})
        ok = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        assert check_compatibility(ok).compatible

    def test_orientable_base_needs_orientable_cover(self):
        d = BranchDatum(KLEIN, TORUS, 2, (Partition((2,)), Partition((2,))))
        assert 3 in check_compatibility(d).violated

    def test_odd_degree_over_nonorientable_base(self):
        # chi and parity identify the violations jointly with condition 4
        d = BranchDatum(SPHERE, PROJECTIVE, 3, (Partition((2, 1)),))
        violated = check_compatibility(d).violated
        assert 4 in violated and 5 not in violated

    def test_halves_refinement_condition(self):
        d = BranchDatum(SPHERE, PROJECTIVE, 4, (Partition((3, 1)),))
        assert check_compatibility(d).violated == frozenset({5})
        ok = BranchDatum(SPHERE, PROJECTIVE, 4, (Partition((2, 2)),))
        assert check_compatibility(ok).compatible

    def test_invariant_under_partition_permutation(self):
        lines = [
            "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]",
            "d=4 cover=O0 base=O0 parts=[2,2|3,1|2,2]",
            "d=4 cover=O0 base=O0 parts=[2,2|2,2|3,1]",
        ]
        reports = {check_compatibility(parse_datum(s)) for s in lines}
        assert len(reports) == 1


class TestInferCover:
    def test_sphere_examples(self):
        assert infer_cover(SPHERE, 3, 4, [(3, 1), (2, 2), (2, 2)]) == [SPHERE]
        assert infer_cover(SPHERE, 3, 4, [(4,), (3, 1), (2, 1, 1)]) == [SPHERE]
        assert infer_cover(SPHERE, 3, 9, [(3, 3, 3)] * 3) == [TORUS]

    def test_no_candidate(self):
        # n~ + d(chi - n) > 2 leaves nothing
        assert infer_cover(SPHERE, 1, 4, [(2, 2)]) == []

    def test_two_candidates_over_nonorientable_base(self):
        got = infer_cover(PROJECTIVE, 2, 4, [(2, 2), (2, 2)])
        assert got == [TORUS, KLEIN]

    def test_odd_degree_forces_nonorientable(self):
        # chi = 3 + 3*(1-2) = 0; the torus is blocked by odd degree
        got = infer_cover(PROJECTIVE, 2, 3, [(2, 1), (3,)])
        assert got == [KLEIN]

    def test_condition_five_not_filtered(self):
        # (3,1) does not refine (2,2); the candidate is still returned
        assert infer_cover(PROJECTIVE, 1, 4, [(3, 1)]) == [SPHERE]

    def test_by_construction_condition_one_holds(self):
        for parts in ([(4,), (2, 2)], [(3, 1), (3, 1), (2, 2)]):
            for cover in infer_cover(SPHERE, len(parts), 4, parts):
                datum = BranchDatum(cover, SPHERE, 4, tuple(Partition(p) for p in parts))
                assert 1 not in check_compatibility(datum).violated


class TestRefinesTwoHalves:
    def test_examples(self):
        assert refines_two_halves(Partition((2, 1, 1)))
        assert not refines_two_halves(Partition((3, 1)))
        assert not refines_two_halves(Partition((2, 2, 2)))

    def test_odd_degree_is_error(self):
        with pytest.raises(ValueError):
            refines_two_halves(Partition((3, 2)))

    def test_half_part_always_refines(self):
        for parts in ((4, 3, 1), (4, 4), (4, 2, 1, 1)):
            assert refines_two_halves(Partition(parts))

    def test_oversized_part_never_refines(self):
        for parts in ((5, 3), (7, 1), (6, 1, 1)):
            assert not refines_two_halves(Partition(parts))


class TestPartitionsOf:
    def test_reverse_lexicographic_order(self):
        got = [p.parts for p in partitions_of(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_base_case(self):
        assert [p.parts for p in partitions_of(1)] == [(1,)]

    def test_counts_match_oracle(self):
        for d in range(1, 31):
            assert sum(1 for _ in partitions_of(d)) == partition_count_oracle(d)

    def test_all_distinct_and_valid(self):
        seen = set()
        for p in partitions_of(9):
            assert p.degree == 9
            assert p.parts not in seen
            seen.add(p.parts)


class TestGrammar:
    def test_roundtrip(self):
        line = "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"
        assert format_datum(parse_datum(line)) == line

    def test_text_of_every_small_datum(self):
        for d in (2, 5, 8):
            for datum in enumerate_compatible(d, range(0, 4)):
                body = "|".join(",".join(str(x) for x in p.parts) for p in datum.partitions)
                text = f"d={d} cover={datum.cover.token} base=O0 parts=[{body}]"
                assert format_datum(datum) == text
                assert parse_datum(text) == datum

    def test_normalizes_partition_order(self):
        d = parse_datum("d=4 cover=O0 base=O0 parts=[2,2|1,2,1|3,1]")
        assert format_datum(d) == "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,1,1]"

    def test_empty_parts(self):
        d = parse_datum("d=2 cover=O0 base=N1 parts=[]")
        assert d.n == 0

    def test_parse_errors(self):
        for bad in ("", "d=x cover=O0 base=O0 parts=[2]",
                    "d=4 cover=O0 base=O0 parts=[3,1",
                    "d=4 cover=Q0 base=O0 parts=[2,2]",
                    "d=4 cover=O0 base=O0 parts=[1,1,1,1]"):
            with pytest.raises(DatumParseError):
                parse_datum(bad)
