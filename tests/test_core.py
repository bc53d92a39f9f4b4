import hashlib
import pickle

import numpy as np
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

    def test_rejects_non_integer_parts(self):
        for parts in ((2.5, 1.5), (2.0, 1), ("2", "1"), (2, None)):
            with pytest.raises(ValueError):
                Partition(parts)

    def test_numpy_integer_parts_become_ints(self):
        p = Partition((np.int64(1), np.uint8(3)))
        assert p == Partition((3, 1)) and p.degree == 4
        assert all(type(x) is int for x in p.parts)
        assert str(p) == "3,1"

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

    def test_rejects_non_integer_genus(self):
        for genus in (2.0, 1.5, "2", None):
            with pytest.raises(ValueError):
                Surface(True, genus)
        s = Surface(True, np.int64(2))
        assert type(s.genus) is int and s.token == "O2" and s == Surface(True, 2)

    def test_equality_and_hash_as_tuples(self):
        surfaces = [Surface(o, g) for o in (True, False) for g in range(6) if o or g]
        for a in surfaces:
            for b in surfaces + [Surface(b.orientable, b.genus) for b in surfaces]:
                same = (a.orientable, a.genus) == (b.orientable, b.genus)
                assert (a == b) is same and (a != b) is not same
                if same:
                    assert hash(a) == hash(b) == hash((a.orientable, a.genus))

    def test_not_equal_to_other_types(self):
        for other in ((True, 0), "O0", 0, None, Partition((2,))):
            assert SPHERE != other and not SPHERE == other

    def test_inferred_and_parsed_surfaces_are_shared(self):
        named = {"O0": SPHERE, "O1": TORUS, "N1": PROJECTIVE, "N2": KLEIN}
        for token, surface in named.items():
            assert surface_from_token(token) is surface
            chi = surface.euler_characteristic
            assert surface_from_euler(chi, surface.orientable) is surface
        assert surface_from_euler(-4, True) is surface_from_token("O3")
        assert surface_from_euler(-3, False) is surface_from_token("N5")
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert datum.cover is SPHERE and datum.base is SPHERE
        assert parse_datum("d=2 cover=N2 base=N1 parts=[2]").cover is KLEIN
        assert infer_cover(SPHERE, 3, 9, [(3, 3, 3)] * 3)[0] is TORUS
        built = BranchDatum(Surface(True, 1), Surface(False, 1), 2, [(2,), (2,)])
        assert built.cover == TORUS and hash(built.cover) == hash(TORUS)
        assert built.base == PROJECTIVE and hash(built.base) == hash(PROJECTIVE)
        assert Surface(True, 1) is not TORUS and Surface(True, 1) == TORUS

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

    def test_stored_counts_of_every_small_datum(self):
        checked = 0
        for datum in enumerate_compatible(7, range(5)):
            assert datum.n == len(datum.partitions)
            assert datum.n_tilde == sum(len(p.parts) for p in datum.partitions)
            assert all(p.degree == sum(p.parts) == 7 for p in datum.partitions)
            checked += 1
        assert checked > 100

    def test_stored_counts_stay_out_of_equality_and_text(self):
        d = parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert "n_tilde" not in repr(d) and "degree=4" not in repr(d.partitions[0])
        assert hash(d) == hash((d.cover, d.base, d.degree, d.partitions))

    def test_pickle_round_trip(self):
        for line in ("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]",
                     "d=4 cover=O1 base=N1 parts=[2,2|2,2]",
                     "d=6 cover=O3 base=O0 parts=[6|6|6|6]"):
            datum = parse_datum(line)
            back = pickle.loads(pickle.dumps(datum))
            assert back == datum and hash(back) == hash(datum)
            assert back.base == datum.base and hash(back.base) == hash(datum.base)
            assert back.cover == datum.cover and hash(back.cover) == hash(datum.cover)
            assert (back.n, back.n_tilde) == (datum.n, datum.n_tilde)
            assert [p.degree for p in back.partitions] == [datum.degree] * datum.n
            assert format_datum(back) == line

    def test_rejects_non_integer_input(self):
        with pytest.raises(ValueError):
            BranchDatum(SPHERE, SPHERE, 4, [(2.5, 1.5), (2, 2), (3, 1)])
        with pytest.raises(ValueError):
            BranchDatum(SPHERE, SPHERE, 4.0, [(3, 1), (2, 2), (2, 2)])
        datum = BranchDatum(SPHERE, SPHERE, np.int64(4), [np.array([3, 1]), (2, 2), (2, 2)])
        assert datum == parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert type(datum.degree) is int


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
        for d in (0, -3):
            with pytest.raises(ValueError, match="d must be positive"):
                next(partitions_of(d))

    def test_order_is_pinned(self):
        # every partition of d = 1..30 (28,628), in the order they come
        got = [[p.parts for p in partitions_of(d)] for d in range(1, 31)]
        assert sum(map(len, got)) == 28628
        assert hashlib.md5(repr(got).encode()).hexdigest() == "697d64f73d83108e26ffd79c186ece1e"

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
