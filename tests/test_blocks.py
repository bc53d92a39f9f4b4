import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from hurwitz import blocks
from hurwitz.blocks import (
    BlockDecomposition,
    all_block_systems,
    block_grouping_of,
    cycle_type_block_groupings,
    factor_covering,
    find_block_decomposition,
    induced_cycle_type,
    induced_permutation,
    reduce_projective,
    verify_filtration,
)
from hurwitz.core import (
    PROJECTIVE,
    SPHERE,
    BranchDatum,
    check_compatibility,
    format_datum,
    parse_datum,
    partitions_of,
    refines_two_halves,
)
from hurwitz.perms import cycle_type, is_transitive, parse_cycles
from hurwitz.realizer import FOUND, search
from conftest import (
    block_groupings_reference,
    brute_block_systems,
    closure_reference,
    half_splits_reference,
    witness_element,
    witness_tuples,
)


class TestGroupings:
    def test_two_part_example(self):
        got = list(cycle_type_block_groupings((4, 2), 3))
        assert got == [(((4, 2), 2),)]
        assert induced_cycle_type(got[0]) == (2,)

    def test_single_cycle(self):
        got = list(cycle_type_block_groupings((6,), 3))
        assert got == [(((6,), 2),)]
        assert induced_cycle_type(got[0]) == (2,)

    def test_no_grouping(self):
        assert list(cycle_type_block_groupings((3, 1), 2)) == []

    def test_precondition(self):
        with pytest.raises(ValueError):
            list(cycle_type_block_groupings((2, 2), 3))
        with pytest.raises(ValueError):
            list(cycle_type_block_groupings((2, 2), 4))

    def test_multiset_groupings_unique(self):
        got = list(cycle_type_block_groupings((2, 2, 2, 2), 4))
        assert len(got) == len(set(got))
        # every grouping's blocks add up to the degree
        for grouping in got:
            assert sum(sum(g) for g, _ in grouping) == 8

    def test_equals_reference_to_degree_twelve(self):
        cases = 0
        for d in range(4, 13):
            for p in partitions_of(d):
                for k in range(2, d):
                    if d % k:
                        continue
                    got = list(cycle_type_block_groupings(p.parts, k))
                    assert len(got) == len(set(got)), (p, k)
                    assert set(got) == set(block_groupings_reference(p.parts, k)), (p, k)
                    # the stated order: descending, groups read largest first
                    assert got == sorted(got, key=lambda g: g[::-1], reverse=True), (p, k)
                    cases += 1
        assert cases == 493

    def test_many_equal_parts(self):
        # fourteen equal parts: companions are counted per value, so
        # the 2^14 index subsets of the ones are never visited
        assert list(cycle_type_block_groupings((2,) + (1,) * 14, 8)) == [
            (((1,) * 8, 1), ((2,) + (1,) * 6, 1))
        ]


class TestReduceProjectiveHalves:
    def test_halves_equal_reference_to_degree_sixteen(self):
        # one partition per datum, so the reduced data list its halves,
        # larger first, trivial halves dropped, in the order of the splits
        checked = 0
        for d in range(4, 17, 2):
            for p in partitions_of(d):
                if p.is_trivial or not refines_two_halves(p):
                    continue
                datum = BranchDatum(SPHERE, PROJECTIVE, d, (p,))
                got = [tuple(q.parts for q in r.partitions) for r in reduce_projective(datum)]
                want = [
                    tuple(h for h in pair if any(x > 1 for x in h))
                    for pair in half_splits_reference(p)
                ]
                assert got == want, p
                checked += 1
        assert checked == 350


class TestFindDecomposition:
    def test_cyclic_four(self):
        g = parse_cycles("(1 2 3 4)", 4)
        bd = find_block_decomposition([g], 2)
        assert bd is not None
        assert bd.blocks() == ((0, 2), (1, 3))
        assert str(bd) == "k=2 blocks={1,3}{2,4}"

    def test_symmetric_group_primitive(self):
        gens = [parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)]
        assert find_block_decomposition(gens, 2) is None
        gens5 = [parse_cycles("(1 2)", 5), parse_cycles("(1 2 3 4 5)", 5)]
        assert all_block_systems(gens5) == []

    def test_requires_transitive(self):
        with pytest.raises(ValueError):
            find_block_decomposition([parse_cycles("(1 2 3 4)(5 6)", 6)], 2)

    @pytest.mark.parametrize(
        "gens",
        [[], [(1, 0, 2, 3), (1, 2, 3, 0, 4)], [(1, 2, 3, 0), (0, 0, 0, 0)], [(1, 2, 3, 0), (4, 1, 2, 3)]],
        ids=["empty", "ragged", "repeat", "outside"],
    )
    def test_requires_generators_of_one_degree(self, gens):
        with pytest.raises(ValueError, match="generators of one degree"):
            all_block_systems(gens)
        with pytest.raises(ValueError, match="generators of one degree"):
            find_block_decomposition(gens, 2)

    def test_requires_proper_divisor(self):
        g = parse_cycles("(1 2 3 4)", 4)
        for bad in (1, 3, 4):
            with pytest.raises(ValueError):
                find_block_decomposition([g], bad)

    def test_join_closure_finds_coarse_systems(self):
        # elementary abelian group of order 8 acting on itself: all the
        # pairwise closures have blocks of size 2, yet size-4 systems exist
        gens = [
            parse_cycles("(1 2)(3 4)(5 6)(7 8)", 8),
            parse_cycles("(1 3)(2 4)(5 7)(6 8)", 8),
            parse_cycles("(1 5)(2 6)(3 7)(4 8)", 8),
        ]
        bd = find_block_decomposition(gens, 4)
        assert bd is not None
        assert sorted(len(b) for b in bd.blocks()) == [4, 4]
        ours = {b.blocks() for b in
                (BlockDecomposition(4, a) for a in all_block_systems(gens)
                 if len(set(a)) == 2)}
        brute = set(brute_block_systems(gens, 4))
        assert ours == brute

    def test_agrees_with_brute_force_on_cyclic_eight(self):
        g = parse_cycles("(1 2 3 4 5 6 7 8)", 8)
        for k in (2, 4):
            bd = find_block_decomposition([g], k)
            brute = brute_block_systems([g], k)
            assert (bd is not None) == bool(brute)
            if bd is not None:
                assert bd.blocks() in brute


class TestBlockLattice:
    # the regular action of C_2^4 on itself: the block systems are the coset
    # partitions of its subgroups, so blocks of size 8 need joins of joins
    gens = [tuple(x ^ (1 << b) for x in range(16)) for b in range(4)]

    def test_systems_are_the_subgroup_cosets(self):
        systems = all_block_systems(self.gens)
        assert len(systems) == 65
        by_count = {}
        for a in systems:
            by_count[max(a) + 1] = by_count.get(max(a) + 1, 0) + 1
            bd = BlockDecomposition(16 // (max(a) + 1), a)
            for g in self.gens:
                induced_permutation(bd, g)  # raises unless preserved
        assert by_count == {8: 15, 4: 35, 2: 15}
        subgroups = set()
        for r in (1, 2, 3):
            for basis in combinations(range(1, 16), r):
                span = {0}
                for v in basis:
                    span |= {x ^ v for x in span}
                if len(span) == 1 << r:
                    subgroups.add(tuple(sorted(span)))
        assert {tuple(x for x in range(16) if a[x] == 0) for a in systems} == subgroups

    def test_one_lattice_for_every_block_size(self, monkeypatch):
        gens = [(1, 0, 3, 2, 5, 4, 7, 6), (2, 3, 4, 5, 6, 7, 0, 1)]
        calls = []
        closure = blocks._closure
        monkeypatch.setattr(blocks, "_closure", lambda *args: calls.append(1) or closure(*args))

        def closures(ks):
            blocks._lattice.cache_clear()
            calls.clear()
            assert all(find_block_decomposition(gens, k) for k in ks)
            return len(calls)

        assert closures([2, 4]) == closures([2]) > 0
        # the kept lattice is not the caller's list
        all_block_systems(gens).clear()
        assert all_block_systems(gens)

    def test_every_proper_order_found(self):
        for k in (2, 4, 8):
            bd = find_block_decomposition(self.gens, k)
            assert bd is not None
            assert all(len(b) == k for b in bd.blocks())
            for g in self.gens:
                induced_permutation(bd, g)


@st.composite
def transitive_tuples(draw):
    """Transitive tuples of degree 4..12, half of them (for composite
    degrees) inside a relabelled S_k wr S_{d/k}, so they keep blocks."""
    d = draw(st.integers(4, 12))
    ks = [k for k in range(2, d) if d % k == 0]
    k = draw(st.sampled_from(ks)) if ks and draw(st.booleans()) else None
    rng = random.Random(draw(st.integers(0, 2**32)))
    gens = [witness_element(rng, d, k) for _ in range(draw(st.integers(1, 3)))]
    relabel = list(range(d))
    rng.shuffle(relabel)
    gens = [tuple(relabel[g[relabel.index(x)]] for x in range(d)) for g in gens]
    assume(is_transitive(gens, d))
    return gens


@settings(derandomize=True, max_examples=400, deadline=None)
@given(transitive_tuples())
def test_closure_equals_closure_run_to_the_end(gens):
    """Stopping once a class outgrows d/2 changes no closure the lattice
    asks for: every seed set {0, x} and every join of two systems."""
    d = len(gens[0])
    systems = all_block_systems(gens)
    seed_sets = [[x] for x in range(1, d)] + [
        [x for x in range(1, d) if a[x] == 0 or b[x] == 0] for a in systems for b in systems
    ]
    for seeds in seed_sets:
        assert blocks._closure(d, seeds, gens) == closure_reference(d, seeds, gens), seeds


def test_witness_lattices_are_pinned():
    # every block system of the witness tuples of seeds 1-4, as the
    # closures run to the end found them
    lattices = [all_block_systems(list(taus)) for seed in (1, 2, 3, 4) for taus in witness_tuples(seed)]
    assert len(lattices) == 8_400
    assert sum(map(len, lattices)) == 3_212
    assert hashlib.md5(repr(lattices).encode()).hexdigest() == "521e67254e509229fad79e3069cbbc18"


class TestBlockDecomposition:
    @pytest.mark.parametrize("size, assignment", [
        (3, (0, 0, 1, 1)),  # size does not divide the degree
        (2, (0, 0, 0, 1)),  # unequal blocks
        (2, (0, 0, 2, 2)),  # ids beyond the block count
        (0, (0, 0)),
    ])
    def test_rejects_inconsistent_assignment(self, size, assignment):
        with pytest.raises(ValueError):
            BlockDecomposition(size, assignment)

    def test_accepts_relabelled_blocks(self):
        assert BlockDecomposition(2, (1, 0, 1, 0)).blocks() == ((1, 3), (0, 2))


class TestInduced:
    def test_not_preserved_raises(self):
        bd = BlockDecomposition(2, (0, 0, 1, 1))
        with pytest.raises(ValueError):
            induced_permutation(bd, parse_cycles("(2 3)", 4))

    def test_grouping_matches_prediction(self):
        g = parse_cycles("(1 2 3 4)(5 6)", 6)
        h = parse_cycles("(1 5)(2 6)(3 4)", 6)
        systems = all_block_systems([g, h])
        for assignment in systems:
            k = 6 // len(set(assignment))
            bd = BlockDecomposition(k, assignment)
            for tau in (g, h):
                grouping = block_grouping_of(bd, tau)
                assert grouping in set(cycle_type_block_groupings(cycle_type(tau), k))
                assert induced_cycle_type(grouping) == cycle_type(
                    induced_permutation(bd, tau)
                )


class TestFactorCovering:
    def test_worked_example(self):
        datum = parse_datum("d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]")
        res = search(datum)
        assert res.status == FOUND
        bd = find_block_decomposition(list(res.realization.taus), 3)
        assert bd is not None
        inner, outer = factor_covering(datum, res.realization, bd)
        assert format_datum(outer) == "d=2 cover=O0 base=O0 parts=[2|2]"
        assert format_datum(inner) == "d=3 cover=O0 base=O0 parts=[3|3]"
        assert check_compatibility(inner).compatible
        assert check_compatibility(outer).compatible

    def test_non_orientable_base_refused(self):
        datum = parse_datum("d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]")
        res = search(datum)
        bd = find_block_decomposition(list(res.realization.taus), 3)
        projective = BranchDatum(datum.cover, PROJECTIVE, 6, datum.partitions)
        with pytest.raises(ValueError, match="does not induce a closed intermediate surface"):
            factor_covering(projective, res.realization, bd)

    def test_factored_data_compatible_across_witnesses(self):
        from hurwitz import enumerate_compatible
        from hurwitz.core import SPHERE

        seen = 0
        for datum in enumerate_compatible(8, [3], SPHERE, SPHERE):
            res = search(datum)
            if res.status != FOUND:
                continue
            gens = list(res.realization.taus)
            for assignment in all_block_systems(gens):
                k = 8 // len(set(assignment))
                bd = BlockDecomposition(k, assignment)
                inner, outer = factor_covering(datum, res.realization, bd)
                assert check_compatibility(inner).compatible
                assert check_compatibility(outer).compatible
                assert inner.degree * outer.degree == 8
                seen += 1
        assert seen > 5


class TestFiltration:
    def test_worked_examples(self):
        for line in (
            "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]",
            "d=8 cover=O0 base=O0 parts=[4,4|2,2,2,2|2,2,2,2]",
            "d=8 cover=O0 base=O0 parts=[4,4|4,2,1,1|2,2,2,2]",
        ):
            datum = parse_datum(line)
            res = search(datum)
            assert res.status == FOUND
            assert verify_filtration(datum, res.realization)

    def test_helper_rejects_non_very_even(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        res = search(datum)
        with pytest.raises(ValueError):
            verify_filtration(datum, res.realization)

    def test_degree_two_has_no_system(self):
        datum = parse_datum("d=2 cover=O0 base=O0 parts=[2|2]")
        res = search(datum)
        assert res.status == FOUND
        assert verify_filtration(datum, res.realization) is False

    def test_rejects_foreign_witness(self):
        good = parse_datum("d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]")
        other = parse_datum("d=6 cover=O0 base=O0 parts=[6|2,2,2|2,2,1,1]")
        res = search(other)
        assert res.status == FOUND
        with pytest.raises(ValueError):
            verify_filtration(good, res.realization)
