from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from hurwitz.core import (
    KLEIN,
    PROJECTIVE,
    SPHERE,
    TORUS,
    BranchDatum,
    Partition,
    Surface,
    check_compatibility,
    format_datum,
    parse_datum,
)
from hurwitz.criteria import (
    EXCEPTIONAL,
    INCOMPATIBLE,
    REALIZABLE,
    UNKNOWN,
    Verdict,
    classify,
    cor_mixed,
    lemma_transpos,
    prop_23,
    prop_53,
    prop_baranski,
    prop_eks_222,
    run_predicates,
    thm_chi_nonpositive,
    thm_eks_large,
    thm_even_deg,
    thm_fixpoints,
    thm_full_cycle,
    thm_odd_divisible,
    thm_projective,
)
from hurwitz.blocks import reduce_projective
from hurwitz.realizer import EXHAUSTED, FOUND, search
from conftest import (
    cor_mixed_reference,
    fixpoints_reference,
    lemma_transpos_reference,
    m_sum_reference,
    make_datum,
    sphere_datum,
)


def fired_tags(datum):
    return [t for v in run_predicates(datum) for t in v.tags]


class TestChiNonpositive:
    def test_torus_base(self):
        datum = make_datum(Surface(True, 3), TORUS, 4, [(3, 1), (2, 2)])
        v = thm_chi_nonpositive(datum)
        assert v.kind == REALIZABLE and v.tags == ("Thm-OO",)

    def test_klein_base_nonorientable_cover(self):
        datum = make_datum(Surface(False, 6), KLEIN, 4, [(2, 2), (2, 2)])
        assert check_compatibility(datum).compatible
        v = thm_chi_nonpositive(datum)
        assert v.kind == REALIZABLE and v.tags == ("Thm-NN",)

    def test_klein_base_orientable_cover(self):
        datum = make_datum(Surface(True, 2), KLEIN, 4, [(2, 2)])
        assert check_compatibility(datum).compatible
        v = thm_chi_nonpositive(datum)
        assert v.kind == REALIZABLE and v.tags == ("Thm-ON",)

    def test_sphere_base_silent(self):
        assert thm_chi_nonpositive(sphere_datum(4, [(4,), (4,)])) is None


class TestProjective:
    def test_nonorientable_cover_fires(self):
        datum = make_datum(KLEIN, PROJECTIVE, 2, [(2,), (2,)])
        assert check_compatibility(datum).compatible
        v = thm_projective(datum)
        assert v.kind == REALIZABLE and v.tags == ("Thm-NP",)

    def test_orientable_cover_silent(self):
        datum = make_datum(SPHERE, PROJECTIVE, 4, [(2, 2)])
        assert thm_projective(datum) is None

    def test_sphere_base_silent(self):
        assert thm_projective(sphere_datum(4, [(4,), (4,)])) is None


class TestFullCycle:
    def test_fires(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        assert thm_full_cycle(datum).kind == REALIZABLE

    def test_silent_without_full_cycle(self):
        assert thm_full_cycle(sphere_datum(4, [(3, 1), (2, 2), (2, 2)])) is None

    def test_higher_genus_cover(self):
        datum = parse_datum("d=9 cover=O2 base=O0 parts=[9|3,3,3|3,3,3]")
        assert check_compatibility(datum).compatible
        assert thm_full_cycle(datum).kind == REALIZABLE


class TestEksLarge:
    def test_bound_fires(self):
        datum = sphere_datum(5, [(5,), (5,), (5,)], cover=Surface(True, 2))
        assert check_compatibility(datum).compatible
        assert 5 * 3 - datum.n_tilde >= 3 * 4
        assert thm_eks_large(datum).kind == REALIZABLE

    def test_degree_four_exceptional_shape(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]")
        assert thm_eks_large(datum).kind == EXCEPTIONAL

    def test_degree_four_other_shapes_realizable(self):
        datum = sphere_datum(4, [(2, 2), (2, 2), (2, 2)])
        v = thm_eks_large(datum)
        assert v.kind == REALIZABLE
        assert search(datum).status == FOUND

    def test_degree_four_shape_with_more_points(self):
        datum = parse_datum("d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2|2,2]")
        assert thm_eks_large(datum).kind == EXCEPTIONAL


class TestEks222:
    @pytest.mark.parametrize(
        "d,x,kind",
        [(6, 3, REALIZABLE), (6, 2, EXCEPTIONAL), (8, 4, REALIZABLE), (8, 3, EXCEPTIONAL)],
    )
    def test_clauses(self, d, x, kind):
        parts = [(x, d - x) if x != d - x else (x, x), (2,) * (d // 2), (2,) * (d // 2)]
        datum = sphere_datum(d, parts)
        assert check_compatibility(datum).compatible
        assert prop_eks_222(datum).kind == kind


class TestBaranski:
    def test_n_ge_d(self):
        datum = sphere_datum(3, [(2, 1), (2, 1), (3,)])
        tags = fired_tags(datum)
        assert "Prop-n-ge-d" in tags
        assert "Thm-full-cycle" in tags

    def test_subset_sum_beats_prefix(self):
        # m values 4,3,3,2: the equality 6 = (2-1)*5 + 1 needs the subset
        # {4, 2}, not a descending prefix
        datum = sphere_datum(5, [(2, 1, 1, 1), (3, 1, 1), (2, 2, 1), (4, 1)])
        assert check_compatibility(datum).compatible
        v = prop_baranski(datum)
        assert v is not None and v.tags == ("Prop-m-sum",)

    def test_all_small_parts(self):
        datum = sphere_datum(2, [(2,), (2,)])
        v = prop_baranski(datum)
        assert v is not None and v.kind == REALIZABLE

    def test_silent_for_other_covers(self):
        datum = parse_datum("d=9 cover=O1 base=O0 parts=[3,3,3|3,3,3|3,3,3]")
        assert prop_baranski(datum) is None


class TestProp53:
    @pytest.mark.parametrize(
        "line,kind",
        [
            ("d=8 cover=O1 base=O0 parts=[2,2,2,2|5,3|4,4]", EXCEPTIONAL),
            ("d=8 cover=O1 base=O0 parts=[2,2,2,2|5,3|5,3]", REALIZABLE),
            ("d=8 cover=O1 base=O0 parts=[2,2,2,2|5,3|7,1]", REALIZABLE),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|5,3|3,3,1,1]", EXCEPTIONAL),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|5,3|2,2,2,2]", EXCEPTIONAL),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|5,3|4,2,1,1]", REALIZABLE),
            ("d=12 cover=O1 base=O0 parts=[2,2,2,2,2,2|5,3,2,2|6,6]", EXCEPTIONAL),
            ("d=12 cover=O0 base=O0 parts=[2,2,2,2,2,2|5,3,2,2|6,2,2,2]", EXCEPTIONAL),
            ("d=12 cover=O0 base=O0 parts=[2,2,2,2,2,2|5,3,2,2|5,5,1,1]", EXCEPTIONAL),
            ("d=12 cover=O0 base=O0 parts=[2,2,2,2,2,2|5,3,2,2|6,4,1,1]", REALIZABLE),
        ],
    )
    def test_clauses(self, line, kind):
        datum = parse_datum(line)
        assert check_compatibility(datum).compatible
        assert prop_53(datum).kind == kind

    def test_silent_on_odd_or_small_degree(self):
        assert prop_53(sphere_datum(6, [(2, 2, 2), (3, 3), (3, 2, 1)])) is None


class TestProp23:
    @pytest.mark.parametrize(
        "line,kind",
        [
            ("d=6 cover=O0 base=O0 parts=[2,2,2|3,3|3,2,1]", EXCEPTIONAL),
            ("d=6 cover=O0 base=O0 parts=[2,2,2|3,3|4,1,1]", REALIZABLE),
            ("d=6 cover=O0 base=O0 parts=[2,2,2|3,2,1|3,3]", EXCEPTIONAL),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|3,3,2|5,2,1]", REALIZABLE),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|3,3,2|4,3,1]", EXCEPTIONAL),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|3,2,2,1|5,3]", REALIZABLE),
            ("d=8 cover=O0 base=O0 parts=[2,2,2,2|3,2,2,1|4,4]", EXCEPTIONAL),
        ],
    )
    def test_clauses(self, line, kind):
        datum = parse_datum(line)
        assert check_compatibility(datum).compatible
        assert prop_23(datum).kind == kind

    def test_no_fire_on_odd_degree(self):
        datum = sphere_datum(5, [(2, 2, 1), (3, 2), (2, 2, 1), (2, 1, 1, 1)])
        assert prop_23(datum) is None


class TestFixpoints:
    def test_series_instance(self):
        datum = sphere_datum(6, [(2, 2, 2), (2, 2, 2), (4, 1, 1), (2, 1, 1, 1, 1)])
        assert check_compatibility(datum).compatible
        assert thm_fixpoints(datum).kind == EXCEPTIONAL

    def test_degree_four_shape(self):
        datum = sphere_datum(4, [(2, 2), (2, 2), (3, 1)])
        assert thm_fixpoints(datum).kind == EXCEPTIONAL

    def test_no_fire_when_bound_respected(self):
        datum = sphere_datum(4, [(2, 2), (2, 2), (2, 2)])
        assert thm_fixpoints(datum) is None

    def test_all_divisors_scanned(self):
        # parts are odd, so k=2 never applies; k=3 catches the oversized 4
        datum = sphere_datum(9, [(3, 3, 3), (3, 3, 3), (4, 2, 1, 1, 1)])
        assert check_compatibility(datum).compatible
        assert thm_fixpoints(datum).kind == EXCEPTIONAL
        assert search(datum).status == EXHAUSTED

    def test_gated_to_sphere_cover(self):
        datum = sphere_datum(9, [(3, 3, 3), (3, 3, 3), (4, 4, 1)], cover=TORUS)
        assert check_compatibility(datum).compatible
        assert thm_fixpoints(datum) is None


class TestEvenDeg:
    def test_series_instance(self):
        datum = sphere_datum(6, [(2, 2, 2)] * 3 + [(2, 1, 1, 1, 1)])
        assert check_compatibility(datum).compatible
        assert thm_even_deg(datum).kind == EXCEPTIONAL

    def test_even_pair_with_bad_third(self):
        datum = sphere_datum(8, [(2, 2, 2, 2), (4, 4), (5, 1, 1, 1)])
        assert check_compatibility(datum).compatible
        assert thm_even_deg(datum).kind == EXCEPTIONAL
        assert search(datum).status == EXHAUSTED

    def test_torus_cover_variant_is_another_rules_business(self):
        # with the third partition (4,4) the Euler count forces the torus
        # cover, where the (5,3)-shape rule decides instead
        datum = sphere_datum(8, [(2, 2, 2, 2), (4, 4), (5, 3)], cover=TORUS)
        assert check_compatibility(datum).compatible
        assert thm_even_deg(datum) is None
        assert prop_53(datum).kind == EXCEPTIONAL

    def test_no_fire_when_everything_refines(self):
        datum = sphere_datum(6, [(2, 2, 2), (2, 2, 2), (3, 3)])
        assert thm_even_deg(datum) is None


class TestCorMixed:
    def test_series_instance(self):
        datum = sphere_datum(
            8, [(2, 2, 2, 2), (2, 2, 2, 2), (2, 2, 2, 2), (3, 1, 1, 1, 1, 1)]
        )
        assert check_compatibility(datum).compatible
        assert cor_mixed(datum).kind == EXCEPTIONAL
        # this instance is seen by the mixed rule alone
        assert thm_even_deg(datum) is None
        assert thm_fixpoints(datum) is None

    def test_no_fire_when_bounds_hold(self):
        datum = sphere_datum(8, [(2, 2, 2, 2), (2, 2, 2, 2), (4, 4)])
        assert cor_mixed(datum) is None

    def test_no_admissible_k(self):
        datum = sphere_datum(6, [(2, 2, 2), (3, 2, 1), (3, 3)])
        assert cor_mixed(datum) is None


class TestOddDivisible:
    def test_fires_for_three(self):
        datum = parse_datum("d=9 cover=O1 base=O0 parts=[3,3,3|3,3,3|3,3,3]")
        assert thm_odd_divisible(datum).kind == REALIZABLE

    def test_fires_for_five(self):
        datum = parse_datum("d=15 cover=O6 base=O0 parts=[15|10,5|10,5]")
        assert thm_odd_divisible(datum).kind == REALIZABLE

    def test_power_of_two_gcd_silent(self):
        datum = sphere_datum(4, [(2, 2), (2, 2), (2, 2)])
        assert thm_odd_divisible(datum) is None

    def test_gated_to_three_points(self):
        datum = sphere_datum(6, [(3, 3), (3, 3), (3, 3), (3, 3)], cover=Surface(True, 3))
        assert check_compatibility(datum).compatible
        assert thm_odd_divisible(datum) is None


class TestLemmaTranspos:
    def test_three_point_parameters_must_align(self):
        # k=2, h=3 matches the first three roles, but the point-count
        # equation demands n=4; the three-point datum stays silent
        datum = sphere_datum(6, [(2, 2, 2), (2, 2, 2), (4, 1, 1)])
        assert lemma_transpos(datum) is None

    def test_four_point_instance_fires(self):
        datum = sphere_datum(6, [(2, 2, 2), (2, 2, 2), (4, 1, 1), (2, 1, 1, 1, 1)])
        assert lemma_transpos(datum).kind == EXCEPTIONAL

    def test_claim_instance(self):
        datum = sphere_datum(4, [(2, 2), (2, 2), (3, 1)])
        assert lemma_transpos(datum).kind == EXCEPTIONAL

    def test_no_matching_factorization(self):
        datum = sphere_datum(6, [(3, 3), (2, 2, 2), (2, 2, 2)])
        assert check_compatibility(datum).compatible
        assert lemma_transpos(datum) is None


CLOSED_FORMS = (
    (thm_fixpoints, fixpoints_reference, "Thm-divisible-pair"),
    (cor_mixed, cor_mixed_reference, "Cor-mixed-pair"),
    (lemma_transpos, lemma_transpos_reference, "Lemma-transpos"),
)


def closed_forms_fired(datum):
    """The tags among the closed-form rules and Prop-m-sum that fire on
    datum, after checking each against its divisor-scan reference."""
    fired = []
    for rule, reference, tag in CLOSED_FORMS:
        expected = Verdict(EXCEPTIONAL, (tag,)) if reference(datum) else None
        assert rule(datum) == expected, (tag, format_datum(datum))
        fired += [tag] if expected else []
    baranski = prop_baranski(datum)
    m_sum = baranski is not None and "Prop-m-sum" in baranski.tags
    assert m_sum == m_sum_reference(datum), format_datum(datum)
    return fired + (["Prop-m-sum"] if m_sum else [])


class TestClosedForms:
    def test_sweep_matches_the_divisor_scans(self):
        # every compatible sphere datum of d <= 8, n <= 5 and d = 9..12, n = 3
        from hurwitz import enumerate_compatible

        fired: Counter = Counter()
        count = 0
        for d in range(2, 13):
            for datum in enumerate_compatible(d, range(0, 6) if d <= 8 else (3,)):
                fired.update(closed_forms_fired(datum))
                count += 1
        assert count == 68_511
        assert fired == {
            "Cor-mixed-pair": 6,
            "Lemma-transpos": 53,
            "Thm-divisible-pair": 98,
            "Prop-m-sum": 2_118,
        }


def partition_of(draw, d, length):
    """A partition of d into length parts, all multiples of a drawn
    divisor of d when that leaves room for them."""
    k = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0 and d // k >= length]))
    cuts = draw(st.lists(st.integers(1, d // k - 1), min_size=length - 1,
                         max_size=length - 1, unique=True)) if length > 1 else []
    bounds = [0, *sorted(cuts), d // k]
    return tuple(k * (hi - lo) for lo, hi in zip(bounds, bounds[1:]))


@st.composite
def sphere_over_sphere(draw):
    """A compatible datum of a sphere over the sphere, d <= 24: lengths
    drawn to meet Riemann-Hurwitz, n~ = 2 + d(n-2), then parts."""
    d = draw(st.integers(2, 24))
    n = draw(st.integers(2, min(6, 2 * d - 2)))
    left = 2 + d * (n - 2)
    lengths = []
    for i in range(n):
        rest = n - i - 1
        m = draw(st.integers(max(1, left - rest * (d - 1)), min(d - 1, left - rest)))
        lengths.append(m)
        left -= m
    return sphere_datum(d, [partition_of(draw, d, m) for m in lengths])


@st.composite
def transpos_family(draw):
    """The lemma's shape (k*s_j), (k*t_j), (ell, 1, ..., 1) plus padding,
    with the point count n = p + q - ell + 2 that keeps it compatible:
    ell runs from 2 to d - 1 wherever n stays in 3..8, so both sides of
    h < ell occur, and p or q may be 1."""
    k = draw(st.integers(2, 6))
    h = draw(st.integers(2, 24 // k))
    a = partition_of(draw, h, draw(st.integers(1, h - 1 if h > 2 else 1)))
    b = partition_of(draw, h, draw(st.integers(1, h - 1 if h > 2 else 1)))
    d = k * h
    lo, hi = max(2, len(a) + len(b) - 6), min(d - 1, len(a) + len(b) - 1)
    assume(lo <= hi)
    ell = draw(st.integers(lo, hi))
    n = len(a) + len(b) - ell + 2
    padding = (2,) + (1,) * (d - 2)
    return sphere_datum(
        d,
        [tuple(k * x for x in a), tuple(k * x for x in b), (ell,) + (1,) * (d - ell)]
        + [padding] * (n - 3),
    )


@st.composite
def half_halves(draw):
    """(d/2, d/2) beside two (2,...,2): the partition whose gcd with d/2
    is d/2 itself, for every even d from 4 to 24."""
    half = draw(st.integers(2, 12))
    return sphere_datum(2 * half, [(half, half), (2,) * half, (2,) * half])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(sphere_over_sphere(), transpos_family(), half_halves()))
def test_closed_forms_on_random_data(datum):
    assert check_compatibility(datum).compatible
    closed_forms_fired(datum)
    d = datum.degree
    if d < 8:
        assert prop_53(datum) is None
    if d < 6:
        # only (3,1) of the two Prop-332 shapes is a partition of d < 6
        parts = {p.parts for p in datum.partitions}
        shaped = datum.n == 3 and {(2, 2), (3, 1)} <= parts
        assert (prop_23(datum) is not None) == shaped


class TestClassify:
    def test_incompatible(self):
        v = classify(parse_datum("d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2]"))
        assert v.kind == INCOMPATIBLE
        assert v.violations == frozenset({1})
        assert v.provenance == "violated:1"

    def test_multiple_agreeing_tags(self):
        v = classify(parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"))
        assert v.kind == EXCEPTIONAL
        assert v.provenance.startswith("Thm-EKS-d4+")
        assert len(v.tags) >= 3

    def test_torus_base_needs_no_search(self):
        v = classify(parse_datum("d=4 cover=O3 base=O1 parts=[3,1|2,2]"))
        assert v.kind == REALIZABLE and v.tags == ("Thm-OO",)
        assert v.nodes == 0

    def test_search_fallback(self):
        datum = sphere_datum(6, [(3, 3), (3, 3), (2, 2, 1, 1)])
        assert not run_predicates(datum)
        v = classify(datum)
        assert v.kind == REALIZABLE and v.tags == ("search-found",)
        assert v.witness is not None

    def test_search_fallback_exceptional(self):
        datum = sphere_datum(9, [(5, 2, 2), (3, 3, 3), (2, 2, 2, 2, 1)])
        assert not run_predicates(datum)
        v = classify(datum)
        assert v.kind == EXCEPTIONAL and v.tags == ("search-exhausted",)

    def test_attach_witness_out_of_budget(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        v = classify(datum, budget=0, attach_witness=True)
        assert v.kind == REALIZABLE and v.witness is None

    def test_unknown_on_budget(self):
        datum = sphere_datum(6, [(3, 3), (3, 3), (2, 2, 1, 1)])
        v = classify(datum, budget=0)
        assert v.kind == UNKNOWN and v.provenance == "budget-exceeded"

    @pytest.mark.parametrize(
        "line",
        [
            "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]",  # settled by the rules
            "d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2]",  # incompatible
        ],
    )
    def test_negative_budget_is_refused(self, line):
        with pytest.raises(ValueError, match="budget must be at least 0, got -5"):
            classify(parse_datum(line), -5)

    def test_attach_witness(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        v = classify(datum, attach_witness=True)
        assert v.kind == REALIZABLE and v.witness is not None

    def test_partition_order_invariance(self):
        a = classify(parse_datum("d=6 cover=O0 base=O0 parts=[2,2,2|3,3|3,2,1]"))
        b = classify(parse_datum("d=6 cover=O0 base=O0 parts=[3,2,1|2,2,2|3,3]"))
        assert a == b

    def test_projective_reduction_realizable(self):
        datum = BranchDatum(SPHERE, PROJECTIVE, 4, (Partition((2, 2)),))
        v = classify(datum)
        assert v.kind == REALIZABLE
        assert v.tags[0].startswith("reduction:")

    def test_projective_reduction_exceptional(self):
        # each partition splits uniquely and the single reduced datum is
        # the classic degree-4 exception over the sphere
        datum = BranchDatum(
            TORUS, PROJECTIVE, 8, (Partition((2, 2, 2, 2)), Partition((3, 2, 2, 1)))
        )
        assert check_compatibility(datum).compatible
        v = classify(datum)
        assert v.kind == EXCEPTIONAL and v.tags == ("reduction-exhausted",)

    def test_projective_reduction_realizable_through_search(self):
        datum = BranchDatum(
            TORUS, PROJECTIVE, 8, (Partition((2, 2, 2, 2)), Partition((4, 2, 1, 1)))
        )
        assert check_compatibility(datum).compatible
        v = classify(datum)
        assert v.kind == REALIZABLE
        assert v.tags[0].startswith("reduction:")

    def test_orientation_double_cover(self):
        v = classify(parse_datum("d=2 cover=O0 base=N1 parts=[]"))
        assert v.kind == REALIZABLE
        assert v.tags == ("reduction:orientation-cover",)

    def test_projective_nonorientable_cover(self):
        datum = make_datum(KLEIN, PROJECTIVE, 2, [(2,), (2,)])
        v = classify(datum)
        assert v.kind == REALIZABLE and v.tags == ("Thm-NP",)


class TestNoConflict:
    def test_all_covers_small_degrees(self):
        from hurwitz import enumerate_compatible

        for d in range(2, 7):
            for datum in enumerate_compatible(d, range(0, 6), SPHERE):
                verdicts = run_predicates(datum)
                kinds = {v.kind for v in verdicts}
                assert not (REALIZABLE in kinds and EXCEPTIONAL in kinds), datum

    def test_sphere_over_sphere_up_to_degree_ten(self):
        from conftest import all_sphere_over_sphere_data

        checked = 0
        for d in range(2, 11):
            for datum in all_sphere_over_sphere_data(d):
                kinds = {v.kind for v in run_predicates(datum)}
                assert not (REALIZABLE in kinds and EXCEPTIONAL in kinds), datum
                checked += 1
        assert checked > 50_000


class TestRuleOrder:
    @staticmethod
    def fired_digest(degrees, ns):
        # every rule that fires, in firing order, with its kind and all its
        # tags: a reordered battery or a changed tag moves the digest
        import hashlib

        from hurwitz import enumerate_compatible

        h = hashlib.md5()
        count = 0
        for d in degrees:
            for datum in enumerate_compatible(d, ns):
                fired = [(v.kind, v.tags) for v in run_predicates(datum)]
                h.update(f"{format_datum(datum)}\t{fired!r}\n".encode())
                count += 1
        return count, h.hexdigest()

    def test_fired_tags_of_small_sphere_data_are_pinned(self):
        assert self.fired_digest(range(2, 8), range(0, 5)) == (
            1718, "6ebbd5689a74013d703e23f6086c803a"
        )

    def test_fired_tags_of_shaped_three_point_data_are_pinned(self):
        # d = 8 and 10 hold the first (5,3,2,...,2) shapes of Prop-53
        assert self.fired_digest((8, 10), (3,)) == (3429, "5815735acd0dfdff98dc99a73e93af12")


class TestProjectiveSweep:
    def test_orientable_covers_of_the_plane(self):
        # every compatible datum over N1 with orientable cover, d <= 10, n <= 3
        from collections import Counter

        from hurwitz import enumerate_compatible

        tags: Counter = Counter()
        exceptional = []
        nodes = reduced = 0
        for d in range(2, 11, 2):
            for datum in enumerate_compatible(d, range(0, 4), PROJECTIVE):
                if not datum.cover.orientable:
                    continue
                v = classify(datum)
                tags[v.kind, v.tags] += 1
                nodes += v.nodes
                if v.kind == EXCEPTIONAL:
                    exceptional.append(format_datum(datum))
                if d >= 4:
                    reduced += sum(1 for _ in reduce_projective(datum))
        assert sum(tags.values()) == 1732
        assert sum(c for (kind, _), c in tags.items() if kind == REALIZABLE) == 1728
        assert tags[EXCEPTIONAL, ("reduction-exhausted",)] == 4
        assert tags[REALIZABLE, ("reduction:search-found",)] == 144
        assert tags[REALIZABLE, ("reduction:orientation-cover",)] == 1
        assert nodes == 1029
        assert reduced == 2340
        assert exceptional == [
            "d=8 cover=O1 base=N1 parts=[3,2,2,1|2,2,2,2]",
            "d=8 cover=O0 base=N1 parts=[3,1,1,1,1,1|2,2,2,2]",
            "d=8 cover=O3 base=N1 parts=[3,2,2,1|2,2,2,2|2,2,2,2]",
            "d=8 cover=O2 base=N1 parts=[3,1,1,1,1,1|2,2,2,2|2,2,2,2]",
        ]

    def test_budget_bounds_the_reductions_together(self):
        # each of the six reductions needs more than 5 nodes; the budget
        # is what is left after the reductions before, not 5 for each
        datum = parse_datum(
            "d=10 cover=O1 base=N1 parts=[3,2,2,1,1,1|3,2,2,1,1,1|2,2,1,1,1,1,1,1]"
        )
        assert len(list(reduce_projective(datum))) == 6
        v = classify(datum, budget=5)
        assert v.kind == UNKNOWN and v.provenance == "budget-exceeded"
        assert v.nodes <= 5
