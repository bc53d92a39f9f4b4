import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from hurwitz.perms import (
    centralizer_generators,
    class_iterator,
    class_representative,
    class_rows,
    class_size,
    compose,
    conjugate,
    cycle_type,
    cycles,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    orbit_count,
    parse_cycles,
    product,
    random_permutation,
)
from conftest import cycle_type_reference, format_cycles_reference, orbit_count_reference


def all_of_degree(d):
    return (tuple(p) for p in itertools.permutations(range(d)))


class TestCompose:
    def test_four_cycle_times_three_cycle(self):
        # element by element: 1->4, 2->2, 3->3, 4->1
        a = parse_cycles("(1 2 3 4)", 4)
        b = parse_cycles("(1 3 2)", 4)
        expected = tuple({0: 3, 1: 1, 2: 2, 3: 0}[x] for x in range(4))
        assert compose(a, b) == expected
        assert cycle_type(compose(a, b)) == (2, 1, 1)

    def test_identity_neutral(self):
        b = parse_cycles("(1 3 2)", 4)
        assert compose(identity(4), b) == b

    def test_involution_squares_to_identity(self):
        a = parse_cycles("(1 2)", 2)
        assert compose(a, a) == identity(2)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity(3), identity(4))


class TestCycleType:
    def test_identity(self):
        assert cycle_type(identity(5)) == (1, 1, 1, 1, 1)

    def test_mixed(self):
        p = parse_cycles("(1 2 3 4)(5 6)", 6)
        assert cycle_type(p) == (4, 2)

    def test_composition_example(self):
        p = compose(parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3 2)", 4))
        assert cycle_type(p) == (2, 1, 1)

    def test_orbit_count_of_one_permutation_is_its_cycle_count(self):
        for d in range(6):
            for p in all_of_degree(d):
                assert orbit_count((p,), d) == len(cycle_type(p))

    def test_cycles_cover_ground_set(self):
        p = parse_cycles("(1 2)(4 5)", 6)
        got = cycles(p)
        assert sorted(x for c in got for x in c) == list(range(6))
        assert got == ((0, 1), (2,), (3, 4), (5,))

    def test_empty_permutation(self):
        assert cycle_type(()) == cycle_type_reference(()) == ()

    def test_every_permutation_up_to_degree_seven_as_the_reference(self):
        for d in range(1, 8):
            for p in all_of_degree(d):
                assert cycle_type(p) == cycle_type_reference(p)

    def test_random_permutations_of_degree_8_to_300_as_the_reference(self):
        rng = random.Random(2025)
        for d in range(8, 301):
            for _ in range(3):
                p = random_permutation(d, rng)
                images = list(p)
                assert cycle_type(images) == cycle_type_reference(p)
                assert images == list(p)  # a list argument is read, not marked
            assert cycle_type(identity(d)) == (1,) * d


class TestTransitivity:
    def test_single_full_cycle(self):
        assert is_transitive([parse_cycles("(1 2 3 4)", 4)], 4)

    def test_disjoint_transpositions(self):
        assert not is_transitive(
            [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)], 4
        )

    def test_klein_pair(self):
        gens = [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)]
        assert is_transitive(gens, 4)

    def test_empty_generators(self):
        assert not is_transitive([], 2)
        assert is_transitive([], 1)
        assert [orbit_count((), d) for d in range(3)] == [0, 1, 2]


class TestClassRepresentative:
    def test_examples(self):
        assert format_cycles(class_representative((4, 2))) == "(1 2 3 4)(5 6)"
        assert class_representative((1, 1, 1)) == identity(3)
        assert format_cycles(class_representative((3, 2, 1))) == "(1 2 3)(4 5)"

    def test_has_requested_type(self):
        for t in ((5,), (3, 2, 2), (2, 2, 1, 1, 1)):
            assert cycle_type(class_representative(t)) == t


class TestClassIterator:
    def test_spec_counts(self):
        assert sum(1 for _ in class_iterator((2, 1, 1))) == 6
        assert sum(1 for _ in class_iterator((4,))) == 6
        assert sum(1 for _ in class_iterator((2, 2))) == 3
        assert list(class_iterator(())) == [()]  # the empty permutation

    def test_exact_set_for_double_transposition(self):
        got = {format_cycles(p) for p in class_iterator((2, 2))}
        assert got == {"(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"}

    def test_matches_full_enumeration(self):
        for d in range(1, 7):
            by_type = {}
            for p in all_of_degree(d):
                by_type.setdefault(cycle_type(p), set()).add(p)
            for t, expected in by_type.items():
                got = list(class_iterator(t))
                assert len(got) == len(set(got)) == len(expected)
                assert set(got) == expected
                assert len(got) == class_size(t)

    def test_count_formula_up_to_degree_eight(self):
        from hurwitz.core import partitions_of

        for d in range(2, 9):
            for part in partitions_of(d):
                t = part.parts
                assert sum(1 for _ in class_iterator(t)) == class_size(t)

    @pytest.mark.parametrize(
        "top, rows, md5",
        [
            (8, 46_233, "da34aa7cd858653fae21cfa64fd455e0"),
            (9, 409_113, "010b9e27306e22843950c7d769aaafb8"),
        ],
    )
    def test_class_order_pinned(self, top, rows, md5):
        # every class of degree up to top, in partitions_of order, its rows
        # as image bytes: the class order, whatever enumerates it
        from hurwitz.core import partitions_of

        h = hashlib.md5()
        count = 0
        for d in range(1, top + 1):
            for part in partitions_of(d):
                for p in class_iterator(part.parts):
                    h.update(bytes(p))
                    count += 1
        assert (count, h.hexdigest()) == (rows, md5)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_class_rows_chunks(self, chunk):
        from hurwitz.core import partitions_of

        for d in range(1, 7):
            for t in (p.parts for p in partitions_of(d)):
                chunks = list(class_rows(t, None, chunk))
                assert all(type(c) is bytearray and 0 < len(c) <= chunk * d for c in chunks)
                assert all(len(c) == chunk * d for c in chunks[:-1]), t
                assert b"".join(chunks) == b"".join(map(bytes, class_iterator(t))), t


class TestCentralizer:
    def test_generators_commute_with_representative(self):
        from hurwitz.core import partitions_of

        for d in range(1, 9):
            for t in (p.parts for p in partitions_of(d)):
                rep = class_representative(t)
                for z in centralizer_generators(t):
                    assert conjugate(rep, z) == rep, (t, z)

    def test_generators_give_the_whole_centralizer(self):
        from hurwitz.core import partitions_of

        for d in range(1, 8):
            group = list(itertools.permutations(range(d)))
            for t in (p.parts for p in partitions_of(d)):
                rep = class_representative(t)
                brute = {g for g in group if conjugate(rep, g) == rep}
                zgens = centralizer_generators(t)
                closure = {identity(d)}
                frontier = [identity(d)]
                while frontier:
                    nxt = []
                    for g in frontier:
                        for z in zgens:
                            h = compose(z, g)
                            if h not in closure:
                                closure.add(h)
                                nxt.append(h)
                    frontier = nxt
                assert closure == brute, t
                order = 1
                for ln in set(t):
                    k = t.count(ln)
                    order *= ln ** k * math.factorial(k)
                assert len(closure) == order, t

    def test_orbit_size_divides_centralizer_order(self):
        # the class of the representative under its own centralizer is itself
        t = (2, 2)
        rep = class_representative(t)
        zgens = centralizer_generators(t)
        seen = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for s in frontier:
                for z in zgens:
                    c = conjugate(s, z)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        assert seen == {rep}


class TestNotation:
    def test_format_examples(self):
        assert format_cycles(identity(4)) == "()"
        assert format_cycles(parse_cycles("(1 2 3 4)(5 6)", 6)) == "(1 2 3 4)(5 6)"

    def test_roundtrip_all_s4(self):
        for p in all_of_degree(4):
            assert parse_cycles(format_cycles(p), 4) == p

    def test_every_permutation_up_to_degree_seven_as_the_reference(self):
        for d in range(1, 8):
            assert format_cycles(identity(d)) == "()"
            for p in all_of_degree(d):
                text = format_cycles(p)
                assert text == format_cycles_reference(p)
                assert parse_cycles(text, d) == p

    def test_random_permutations_of_degree_8_to_300_as_the_reference(self):
        rng = random.Random(2024)
        for d in range(8, 301):
            assert format_cycles(identity(d)) == "()"
            for _ in range(3):
                p = random_permutation(d, rng)
                text = format_cycles(p)
                assert text == format_cycles_reference(p)
                assert parse_cycles(text, d) == p

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)", 4)
        with pytest.raises(ValueError):
            parse_cycles("(1 9)", 4)
        with pytest.raises(ValueError):
            parse_cycles("1 2 3", 4)


perm_of = lambda d: st.permutations(tuple(range(d)))
degrees = st.integers(min_value=1, max_value=7)


@given(degrees.flatmap(lambda d: st.tuples(perm_of(d), perm_of(d))))
def test_conjugation_preserves_cycle_type(pair):
    p, g = tuple(pair[0]), tuple(pair[1])
    assert cycle_type(conjugate(p, g)) == cycle_type(p)


@given(degrees.flatmap(lambda d: perm_of(d)))
def test_inverse_has_same_type_and_cancels(p):
    p = tuple(p)
    assert cycle_type(inverse(p)) == cycle_type(p)
    assert compose(p, inverse(p)) == identity(len(p))


@given(degrees.flatmap(lambda d: st.tuples(perm_of(d), perm_of(d), perm_of(d))))
def test_compose_is_associative(triple):
    a, b, c = (tuple(x) for x in triple)
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(degrees.flatmap(lambda d: st.lists(perm_of(d), min_size=1, max_size=4)))
def test_product_folds_right_factor_first(ps):
    ps = [tuple(p) for p in ps]
    d = len(ps[0])
    expected = identity(d)
    for p in ps:
        expected = compose(expected, p)
    assert product(ps, d) == expected


@given(
    st.integers(min_value=0, max_value=7).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(perm_of(d), max_size=4))
    )
)
@example((0, []))
@example((1, []))
@example((2, []))
def test_orbit_count_as_the_union_find_reference(drawn):
    d, gens = drawn
    gens = [tuple(g) for g in gens]
    assert orbit_count(gens, d) == orbit_count_reference(gens, d)
    # degrees 0 and 1 are transitive whatever the generators, none included
    assert is_transitive(gens, d) == (d <= 1 or orbit_count_reference(gens, d) == 1)
