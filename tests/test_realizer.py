import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from math import prod

import numpy as np
import pytest

import hurwitz
from hurwitz import enumerate_compatible, realizer
from hurwitz.blocks import reduce_projective
from hurwitz.core import (
    PROJECTIVE,
    SPHERE,
    TORUS,
    BranchDatum,
    Partition,
    check_compatibility,
    covers_from_count,
    format_datum,
    parse_datum,
    partitions_of,
)
from hurwitz.criteria import REALIZABLE, UNKNOWN, classify
from hurwitz.perms import (
    centralizer_generators,
    class_iterator,
    class_representative,
    class_rows,
    class_size,
    conjugate,
    parse_cycles,
    random_permutation,
)
from hurwitz.realizer import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    Realization,
    WitnessCheckError,
    search,
    verify_witness,
)
from conftest import (
    centralizer_generators_reference,
    cycle_type_reference,
    naive_search_n3,
    naive_search_n3_unanchored,
    reference_hunt,
    sphere_datum,
)


class TestSearchExamples:
    def test_easiest_exceptional(self):
        res = search(parse_datum("d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"))
        assert res.status == EXHAUSTED

    def test_full_cycle_found(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        res = search(datum)
        assert res.status == FOUND
        assert verify_witness(datum, res.realization)

    def test_half_split_found(self):
        datum = parse_datum("d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]")
        res = search(datum)
        assert res.status == FOUND
        assert verify_witness(datum, res.realization)

    def test_off_half_exhausted(self):
        res = search(parse_datum("d=6 cover=O0 base=O0 parts=[4,2|2,2,2|2,2,2]"))
        assert res.status == EXHAUSTED

    def test_requires_sphere_base(self):
        datum = parse_datum("d=4 cover=O3 base=O1 parts=[3,1|2,2]")
        with pytest.raises(ValueError):
            search(datum)

    def test_degree_beyond_one_byte_fails_clearly(self):
        parts = (Partition((257,)), Partition((256, 1)), Partition((2,) + (1,) * 255))
        datum = BranchDatum(SPHERE, SPHERE, 257, parts)
        assert check_compatibility(datum).compatible
        with pytest.raises(ValueError, match="256"):
            search(datum)

    def test_requires_compatible_datum(self):
        datum = parse_datum("d=4 cover=O1 base=O0 parts=[3,1|2,2|2,2]")
        with pytest.raises(ValueError):
            search(datum)


class TestSmallBranchCounts:
    def test_two_full_cycles(self):
        datum = sphere_datum(4, [(4,), (4,)])
        res = search(datum)
        assert res.status == FOUND
        assert verify_witness(datum, res.realization)

    def test_two_points_without_full_cycles(self):
        # two-point sphere data are compatible only with two full cycles;
        # anything else fails the Euler count before search is reached
        datum = BranchDatum(TORUS, SPHERE, 4, (Partition((2, 2)), Partition((2, 2))))
        assert not check_compatibility(datum).compatible

    def test_at_most_two_points_only_full_cycles(self):
        # search answers n = 2 without looking at the classes, so it
        # relies on [d|d] being the only compatible datum with n <= 2
        for d in range(2, 13):
            found = [[p.parts for p in x.partitions] for x in enumerate_compatible(d, range(3))]
            assert found == [[(d,), (d,)]]


class TestVerifyWitness:
    def test_good_witness(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        taus = (
            parse_cycles("(1 2 3 4)", 4),
            parse_cycles("(1 3 2)", 4),
            parse_cycles("(1 4)", 4),
        )
        assert verify_witness(datum, Realization(4, taus))

    def test_product_must_be_identity(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        taus = (
            parse_cycles("(1 2 3 4)", 4),
            parse_cycles("(1 3 2)", 4),
            parse_cycles("()", 4),
        )
        assert not verify_witness(datum, Realization(4, taus))

    def test_transitivity_required(self):
        datum = BranchDatum(
            TORUS, SPHERE, 4, (Partition((2, 1, 1)), Partition((2, 1, 1)))
        )
        taus = (parse_cycles("(1 2)", 4), parse_cycles("(1 2)", 4))
        assert not verify_witness(datum, Realization(4, taus))

    def test_types_must_match(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|4|2,2]")
        taus = (
            parse_cycles("(1 2 3 4)", 4),
            parse_cycles("(4 3 2 1)", 4),
            parse_cycles("()", 4),
        )
        assert not verify_witness(datum, Realization(4, taus))

    def test_point_outside_the_degree(self):
        datum = parse_datum("d=3 cover=O0 base=O0 parts=[3|3|3]")
        assert verify_witness(datum, Realization(3, ((1, 2, 0), (1, 2, 0), (1, 2, 0))))
        assert not verify_witness(datum, Realization(3, ((1, 2, 0), (1, 2, 0), (1, 2, 5))))

    def test_degree_arity_and_length_must_match(self):
        datum = parse_datum("d=3 cover=O0 base=O0 parts=[3|3|3]")
        cyc = (1, 2, 0)
        assert not verify_witness(datum, Realization(4, (cyc, cyc, cyc)))  # degree
        assert not verify_witness(datum, Realization(3, (cyc, cyc)))  # arity
        assert not verify_witness(datum, Realization(3, (cyc, cyc, (1, 2, 0, 3))))  # length


class TestAgainstNaiveOracle:
    def test_three_point_data_up_to_degree_eight(self):
        checked = 0
        for d in range(3, 9):
            for datum in enumerate_compatible(d, [3], SPHERE, SPHERE):
                res = search(datum)
                assert res.status in (FOUND, EXHAUSTED)
                assert (res.status == FOUND) == naive_search_n3(datum), format_datum(datum)
                checked += 1
        assert checked > 200

    def test_anchoring_loses_nothing_up_to_degree_six(self):
        for d in range(3, 7):
            for datum in enumerate_compatible(d, [3], SPHERE, SPHERE):
                res = search(datum)
                assert (res.status == FOUND) == naive_search_n3_unanchored(datum), (
                    format_datum(datum)
                )


class TestDeterminism:
    def test_same_witness_twice(self):
        for line in (
            "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]",
            "d=8 cover=O0 base=O0 parts=[4,4|3,3,2|2,2,2,1,1]",
            "d=5 cover=O0 base=O0 parts=[2,2,1|2,2,1|2,2,1|2,2,1]",
        ):
            datum = parse_datum(line)
            first = search(datum)
            second = search(datum)
            assert first.status == second.status
            assert first.nodes == second.nodes
            if first.status == FOUND:
                assert first.realization == second.realization


class TestBudget:
    def test_zero_budget_exceeds(self):
        datum = parse_datum("d=6 cover=O0 base=O0 parts=[4,2|2,2,2|2,2,2]")
        res = search(datum, budget=0)
        assert res.status == BUDGET_EXCEEDED
        assert res.realization is None

    def test_negative_budget_is_refused(self):
        datum = parse_datum("d=6 cover=O0 base=O0 parts=[4,2|2,2,2|2,2,2]")
        with pytest.raises(ValueError, match="budget"):
            search(datum, -5)

    def test_budget_never_claims_exhausted_falsely(self):
        datum = parse_datum("d=6 cover=O2 base=O0 parts=[3,3|3,3|3,3|2,2,1,1]")
        full = search(datum)
        tiny = search(datum, budget=1)
        assert tiny.status in (FOUND, BUDGET_EXCEEDED)
        if full.status == EXHAUSTED:
            assert tiny.status == BUDGET_EXCEEDED

    def test_own_nodes_reproduce_the_result(self):
        # every candidate is charged as it is visited and nothing is
        # refused up front, so a search that reports N nodes returns the
        # same result with budget N and runs out with N - 1
        data = [x for d in range(2, 8) for x in enumerate_compatible(d, range(2, 6))]
        assert len(data) == 7_066
        for datum in data:
            full = search(datum)
            assert search(datum, full.nodes) == full, format_datum(datum)
            if full.nodes >= 1:
                short = search(datum, full.nodes - 1)
                assert short.status == BUDGET_EXCEEDED, format_datum(datum)

    @pytest.mark.parametrize(
        "line",
        [
            "d=3 cover=O1 base=O0 parts=[3|3|3]",  # level 0 a table of one row
            "d=4 cover=O0 base=O0 parts=[4|4]",  # two points, one candidate
        ],
    )
    def test_one_candidate_costs_one_node(self, line):
        datum = parse_datum(line)
        assert search(datum, 0) == realizer.SearchResult(BUDGET_EXCEEDED, None, 0)
        found = search(datum, 1)
        assert (found.status, found.nodes) == (FOUND, 1)
        assert verify_witness(datum, found.realization)

    def test_reduction_found_at_its_own_nodes(self):
        datum = parse_datum("d=10 cover=O1 base=N1 parts=[4,4,1,1|3,2,2,1,1,1]")
        full = classify(datum)
        assert (full.kind, full.provenance, full.nodes) == (REALIZABLE, "reduction:search-found", 2)
        assert classify(datum, 2) == full
        assert classify(datum, 1).kind == UNKNOWN


class TestTranspositionPrune:
    def test_pruned_walk_pinned(self, monkeypatch):
        # with the hunt off, the walk prunes 216 partial products that
        # need more transpositions than the remaining classes hold
        monkeypatch.setattr(realizer, "_RANDOM_TRIGGER", 10**30)
        datum = parse_datum(
            "d=7 cover=O0 base=O0 parts=[3,1,1,1,1|2,2,1,1,1|2,2,1,1,1|2,2,1,1,1|2,2,1,1,1|2,2,1,1,1]"
        )
        res = search(datum)
        assert (res.status, res.nodes) == (FOUND, 101_404)
        assert res.realization.taus == (
            (1, 2, 0, 3, 4, 5, 6),
            (1, 0, 3, 2, 4, 5, 6),
            (2, 4, 0, 3, 1, 5, 6),
            (3, 4, 2, 0, 1, 5, 6),
            (5, 6, 2, 3, 4, 0, 1),
            (5, 6, 2, 3, 4, 0, 1),
        )


class TestReduceProjective:
    def test_split_counts(self):
        datum = BranchDatum(SPHERE, PROJECTIVE, 4, (Partition((2, 1, 1)),))
        reduced = list(reduce_projective(datum))
        # (2,1,1) splits only as (2)+(1,1); the trivial half is dropped
        assert len(reduced) == 1
        assert reduced[0].base == SPHERE
        assert reduced[0].degree == 2
        assert [p.parts for p in reduced[0].partitions] == [(2,)]

    def test_all_reduced_data_compatible(self):
        datum = BranchDatum(
            TORUS,
            PROJECTIVE,
            8,
            (Partition((2, 2, 2, 2)), Partition((4, 2, 1, 1))),
        )
        reduced = list(reduce_projective(datum))
        assert reduced
        for sub in reduced:
            assert sub.degree == 4
            assert sub.n <= 4
            assert check_compatibility(sub).compatible

    def test_multiple_splits_enumerated_once(self):
        datum = BranchDatum(
            TORUS,
            PROJECTIVE,
            8,
            (Partition((2, 2, 1, 1, 1, 1)), Partition((2, 2, 2, 2))),
        )
        reduced = list(reduce_projective(datum))
        # (2,2,1,1,1,1) splits as {2,2}+{1,1,1,1} or {2,1,1}+{2,1,1}
        assert len(reduced) == len(set(reduced)) == 2

    def test_rejects_wrong_base_or_cover(self):
        with pytest.raises(ValueError):
            next(reduce_projective(parse_datum("d=4 cover=O0 base=O0 parts=[2,2|2,2]")))
        bad_cover = BranchDatum(PROJECTIVE, PROJECTIVE, 3, (Partition((3,)),))
        with pytest.raises(ValueError):
            next(reduce_projective(bad_cover))


class TestWitnessCheck:
    @pytest.mark.parametrize(
        "line",
        [
            "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]",  # found by the walk
            "d=7 cover=O0 base=O0 parts=[7|4,1,1,1|2,2,1,1,1|2,1,1,1,1,1]",  # by the hunt
            "d=3 cover=O0 base=O0 parts=[3|3]",  # two points, no search
        ],
    )
    def test_rejected_witness_raises_named_error(self, monkeypatch, line):
        datum = parse_datum(line)
        assert search(datum).status == FOUND
        monkeypatch.setattr(realizer, "verify_witness", lambda datum, realization: False)
        with pytest.raises(WitnessCheckError):
            search(datum)

    @pytest.mark.parametrize(
        "line, cache_bytes",
        [
            ("d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]", realizer._CACHE_BYTES),
            # no class cached: the last level streams its class in chunks
            ("d=5 cover=O0 base=O0 parts=[2,2,1|2,2,1|2,2,1|2,2,1]", 0),
        ],
    )
    def test_rejected_witness_raises_under_optimize(self, line, cache_bytes):
        code = (
            "import sys\n"
            "from hurwitz import realizer\n"
            "from hurwitz.core import parse_datum\n"
            "streamed = []\n"
            "chunks = realizer._row_chunks\n"
            "realizer._row_chunks = lambda s: streamed.append(callable(s)) or chunks(s)\n"
            "realizer._CACHE_BYTES = int(sys.argv[2])\n"
            "datum = parse_datum(sys.argv[1])\n"
            "assert realizer.search(datum).status == realizer.FOUND\n"
            "realizer.verify_witness = lambda datum, realization: False\n"
            "try:\n"
            "    realizer.search(datum)\n"
            "except realizer.WitnessCheckError:\n"
            "    print(sys.flags.optimize, any(streamed))\n"
        )
        src = os.path.dirname(os.path.dirname(hurwitz.__file__))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code, line, str(cache_bytes)], check=True,
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        assert out == ["1", str(cache_bytes == 0)]


@functools.cache
def _reference_rows(t):
    """Class t in class order from the Python enumerator, built once per
    session and read-only, since the tests share it."""
    rows = np.array(list(class_iterator(t)), dtype=np.uint8).reshape(-1, sum(t))
    rows.flags.writeable = False
    return rows


TYPES_TO_9 = [p.parts for d in range(1, 10) for p in partitions_of(d)]


class TestClassTable:
    def test_rows_follow_class_iterator(self):
        for t in TYPES_TO_9 + [(3, 3, 3, 3), (4, 2, 2, 2, 2)]:
            table = np.asarray(realizer._build_class_list(t))
            assert table.dtype == np.uint8
            assert len(table) == class_size(t)
            assert np.array_equal(table, _reference_rows(t)), t
            assert max(map(len, realizer._class_chunks(t))) <= realizer._CHUNK

    @pytest.mark.parametrize("chunk", [7, 37])
    def test_small_chunks_follow_class_iterator(self, monkeypatch, chunk):
        monkeypatch.setattr(realizer, "_CHUNK", chunk)
        # at 7 rows a chunk the two d=12 classes take 10 s, so they run
        # at 37 only
        wide = [(3, 3, 3, 3), (4, 2, 2, 2, 2)] if chunk > 7 else []
        for t in TYPES_TO_9 + wide:
            chunks = list(realizer._class_chunks(t))
            assert max(map(len, chunks)) <= chunk, t
            assert np.array_equal(np.concatenate(chunks), _reference_rows(t)), t

    @pytest.mark.parametrize("chunk", [45, 44])
    def test_rest_class_at_the_chunk_bound(self, monkeypatch, chunk):
        # the rest (2,2,1,1) beside a 3-cycle has 45 rows: at 45 it is
        # built once and serves one choice a chunk, at 44 it is streamed
        monkeypatch.setattr(realizer, "_CHUNK", chunk)
        t = (3, 2, 2, 1, 1)
        assert class_size((2, 2, 1, 1)) == 45
        chunks = list(realizer._class_chunks(t))
        assert max(map(len, chunks)) <= chunk
        assert np.array_equal(np.concatenate(chunks), _reference_rows(t))

    @pytest.mark.parametrize("chunk", [7, realizer._CHUNK])
    def test_stabilizer_least_rows(self, monkeypatch, chunk):
        # for every anchor and type of degree up to 7, the rows kept are a
        # subsequence of the class in class order that holds every orbit's
        # first row
        monkeypatch.setattr(realizer, "_CHUNK", chunk)
        pairs = kept_rows = 0
        for types in ([p.parts for p in partitions_of(d)] for d in range(1, 8)):
            for t in types:
                reference = _reference_rows(t)
                index = {row.tobytes(): i for i, row in enumerate(reference)}
                for anchor in types:
                    chunks = list(realizer._stabilizer_least(t, anchor))
                    assert max(map(len, chunks)) <= chunk, (anchor, t)
                    kept = [index[row.tobytes()] for row in np.concatenate(chunks)]
                    assert kept == sorted(set(kept)), (anchor, t)
                    firsts = realizer._orbit_firsts_hashed(reference, centralizer_generators(anchor))
                    assert set(firsts) <= set(kept), (anchor, t)
                    pairs += 1
                    kept_rows += len(kept)
        # of the 84,503 rows of the 434 classes
        assert (pairs, kept_rows) == (434, 30_913)

    STREAM_PINS = [
        ((3, 3, 3, 3), (4, 2, 2, 2, 2), 2175, "26a244977108b92fd9e48ec45e945255"),
        ((3, 3, 3, 3), (3, 3, 3, 3), 2144, "2ef025bdb75416ec968e8e9dc27ff647"),
        ((2,) * 6, (3, 3, 3, 3), 85, "95c3641cc3b44921939189a9f0c1b359"),
        ((2,) * 7, (3, 3, 3, 3, 2), 815, "ef51686fe6f42a4cdfff9103d65e6d78"),
        ((2,) * 8, (2,) * 8, 128, "4926bdf9010cbd27be447a1ea4d0967b"),
    ]

    @pytest.mark.parametrize("chunk", [7, realizer._CHUNK])
    def test_stabilizer_least_streams_pinned(self, monkeypatch, chunk):
        # kept rows of (anchor, type) pairs of d = 12..16, above the
        # degrees test_stabilizer_least_rows checks against the orbits;
        # (5,5,2) under (3,3,3,2,1) crosses default chunks, and at 7 rows
        # a chunk it would only repeat that check slowly
        pins = self.STREAM_PINS
        if chunk == realizer._CHUNK:
            pins = pins + [((3, 3, 3, 2, 1), (5, 5, 2), 144_144, "4e2e73e302363168c82512fb5557ea3d")]
        monkeypatch.setattr(realizer, "_CHUNK", chunk)
        for anchor, t, count, md5 in pins:
            chunks = list(realizer._stabilizer_least(t, anchor))
            assert max(map(len, chunks)) <= chunk, (anchor, t)
            rows = np.concatenate(chunks)
            assert rows.dtype == np.uint8 and rows.shape == (count, sum(t)), (anchor, t)
            assert hashlib.md5(rows.tobytes()).hexdigest() == md5, (anchor, t)

    def test_orbit_firsts_agree_with_hashed_reduction(self):
        pairs = [
            (anchor, t)
            for d in range(2, 8)
            for anchor in (p.parts for p in partitions_of(d))
            for t in (p.parts for p in partitions_of(d))
        ]
        # and the classes of at most 20,000 rows at d = 16, 17
        for d in (16, 17):
            anchors = [(d,), (d - d // 2, d // 2), (4, 4, 4, 4) + (1,) * (d - 16),
                       (7, 3, 2, 2) + (1,) * (d - 14)]
            small = [p.parts for p in partitions_of(d) if class_size(p.parts) <= 20_000]
            pairs += [(anchor, t) for anchor in anchors for t in small]
        checked = 0
        for anchor, t in pairs:
            zgens = centralizer_generators(anchor)
            if not zgens:
                continue
            table = realizer._class_table(t)
            firsts = realizer._orbit_firsts_vectorized(table, zgens, sum(t))
            assert firsts == realizer._orbit_firsts_hashed(table, zgens), (anchor, t)
            # the orbits depend on the group alone, not on its generators
            wider = centralizer_generators_reference(anchor)
            assert firsts == realizer._orbit_firsts_vectorized(table, wider, sum(t)), (anchor, t)
            checked += 1
        assert checked == 473

    def test_generator_outside_the_centralizer_is_refused(self, monkeypatch):
        anchor, t = (2, 2, 1, 1), (3, 1, 1, 1)
        rogue = (1, 2, 0, 3, 4, 5)  # does not commute with the anchor
        zgens = centralizer_generators(anchor)
        table = realizer._class_table(t)
        # the orbit reduction alone cannot tell: the rogue merges orbits
        assert len(realizer._orbit_firsts_vectorized(table, zgens, 6)) == 4
        assert len(realizer._orbit_firsts_vectorized(table, zgens + [rogue], 6)) == 3
        realizer._anchored_reps.cache_clear()
        monkeypatch.setattr(realizer, "centralizer_generators", lambda a: zgens + [rogue])
        with pytest.raises(RuntimeError, match="centralizer"):
            realizer._anchored_reps(anchor, t)

    def test_conjugate_keys_read_off_the_table(self):
        # the conjugates' sort keys are read off the table's columns:
        # orbits under one arbitrary z, not a centralizer element, at
        # every degree
        rng = random.Random(5)
        types = [t for t in TYPES_TO_9 if sum(t) >= 2]
        types += [p.parts for d in (16, 17) for p in partitions_of(d)
                  if class_size(p.parts) <= 20_000]
        types.append((2,) + (1,) * 38)
        for t in types:
            d = sum(t)
            table = realizer._class_table(t)
            for _ in range(3):
                z = random_permutation(d, rng)
                firsts = realizer._orbit_firsts_vectorized(table, [z], d)
                assert firsts == realizer._orbit_firsts_hashed(table, [z]), (t, z)


def _last_level(line):
    """What search hands the last-level scan of a three-point datum."""
    datum = parse_datum(line)
    d = datum.degree
    anchor, middle, target = sorted(
        (p.parts for p in datum.partitions), key=lambda t: (class_size(t), t)
    )
    tau1 = class_representative(anchor)
    return d, tau1, middle, target, (tau1,)


def _scan_outcome(scan, source, line, limit):
    d, tau1, _, target, gens = _last_level(line)
    budget = realizer._Budget(limit)
    try:
        scan(source, tau1, target, gens, budget, d)
    except realizer._Witness as w:
        return "witness", w.taus, budget.nodes
    except realizer._OutOfBudget:
        return "out of budget", None, budget.nodes
    return "exhausted", None, budget.nodes


class TestScans:
    LINES = [
        "d=6 cover=O0 base=O0 parts=[3,3|2,2,2|2,2,2]",
        "d=6 cover=O0 base=O0 parts=[4,2|2,2,2|2,2,2]",
        "d=8 cover=O0 base=O0 parts=[4,4|3,3,2|2,2,2,1,1]",
        "d=8 cover=O0 base=O0 parts=[5,3|2,2,2,2|2,2,2,2]",
        "d=9 cover=O1 base=O0 parts=[5,2,2|3,3,3|3,3,3]",
    ]

    def outcomes(self, line, limit):
        t = _last_level(line)[2]
        table = np.asarray(realizer._build_class_list(t))
        # a cached table, and the stream of the class's chunks
        stream = functools.partial(realizer._class_chunks, t)
        return [
            _scan_outcome(realizer._scan_numpy, table, line, limit),
            _scan_outcome(realizer._scan_numpy, stream, line, limit),
            _scan_outcome(realizer._scan_python, table, line, limit),
            _scan_outcome(realizer._scan_python, stream, line, limit),
        ]

    @pytest.fixture(autouse=True, params=[7, realizer._CHUNK])
    def chunk(self, request, monkeypatch):
        # with 7, every class spans many small chunks; with the default,
        # the growing chunks of a table are crossed
        monkeypatch.setattr(realizer, "_CHUNK", request.param)

    def test_same_witness_and_nodes(self):
        kinds = set()
        for line in self.LINES:
            first, *others = self.outcomes(line, 10**9)
            assert all(o == first for o in others), line
            kinds.add(first[0])
        assert kinds == {"witness", "exhausted"}

    def test_budget_running_out_inside_a_chunk(self):
        # a hit at row h of a chunk costs h + 1 nodes, a chunk without one
        # its length, so each scan's own nodes reproduce its outcome
        for line in self.LINES:
            full = self.outcomes(line, 10**9)
            kind, _, nodes = full[0]
            assert self.outcomes(line, nodes) == full, line
            for limit in {0, nodes // 2, nodes - 1} - {-1}:
                got = self.outcomes(line, limit)
                assert got == [("out of budget", None, limit)] * 4, (line, limit)


class TestFixCountSurvivors:
    """_fix_count_survivors(rows, _target_fix_counts(t, d), d) against
    its definition: the indices of the rows of cycle type t."""

    @staticmethod
    def check(rows, d, types):
        row_types = [cycle_type_reference(r) for r in map(tuple, rows.tolist())]
        for t in types:
            got = realizer._fix_count_survivors(rows, realizer._target_fix_counts(t, d), d)
            want = [i for i, u in enumerate(row_types) if u == t]
            assert got.tolist() == want, (d, t)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_every_row_of_the_symmetric_group(self, d):
        rows = np.array(list(itertools.permutations(range(d))), dtype=np.uint8)
        self.check(rows, d, [p.parts for p in partitions_of(d)])

    @pytest.mark.parametrize("d", range(8, 17))
    def test_seeded_random_rows(self, d):
        rng = random.Random(d)
        rows = np.array([random_permutation(d, rng) for _ in range(2_000)], dtype=np.uint8)
        types = {cycle_type_reference(r) for r in map(tuple, rows.tolist())}
        assert len(types) > 1
        self.check(rows, d, types)

    def test_empty_input(self):
        rows = np.empty((0, 6), dtype=np.uint8)
        got = realizer._fix_count_survivors(rows, realizer._target_fix_counts((3, 3), 6), 6)
        assert got.tolist() == []


def _watch_streaming(monkeypatch):
    """A list that gets, for each plan entry the search reads rows of,
    whether it is a chunk stream rather than a table."""
    streamed = []
    chunks = realizer._row_chunks
    monkeypatch.setattr(
        realizer, "_row_chunks", lambda s: streamed.append(callable(s)) or chunks(s)
    )
    return streamed


class TestStreamedClasses:
    @pytest.fixture(autouse=True)
    def no_class_iterator(self, monkeypatch):
        # the search never reads a whole class in Python: only the
        # stabilizer-least rows of an anchor; and it filters every last
        # level in numpy
        def refuse(t):
            raise AssertionError("the search called class_iterator")

        def refuse_scan(*args):
            raise AssertionError("the search called _scan_python")

        def anchored_only(t, anchor, chunk):
            if anchor is None:
                raise AssertionError("the search read a whole class with class_rows")
            return class_rows(t, anchor, chunk)

        monkeypatch.setattr(realizer, "class_iterator", refuse)
        monkeypatch.setattr(realizer, "class_rows", anchored_only)
        monkeypatch.setattr(realizer, "_scan_python", refuse_scan)

    def test_every_last_level_in_numpy(self):
        # tables of every length, the short ones included
        data = [datum for d in range(2, 8) for datum in enumerate_compatible(d, range(5))]
        assert all(search(datum).status in (FOUND, EXHAUSTED) for datum in data)

    @pytest.mark.parametrize(
        "line, nodes",
        [
            ("d=12 cover=O0 base=O0 parts=[5,5,2|3,3,3,2,1|2,2,2,2,2,2]", 30_368),
            ("d=12 cover=O0 base=O0 parts=[6,3,3|5,2,2,2,1|2,2,2,2,2,2]", 41_212),
            ("d=14 cover=O0 base=O0 parts=[6,3,3,2|3,3,3,3,2|2,2,2,2,2,2,2]", 40_815),
        ],
    )
    def test_class_above_the_cache_bound(self, monkeypatch, line, nodes):
        # the middle class is above _REDUCTION_LIMIT and takes more than
        # _CACHE_BYTES, so after the hunt misses the walk streams its
        # stabilizer-least rows under the centralizer of the (2^k) anchor
        streamed = _watch_streaming(monkeypatch)
        assert search(parse_datum(line)) == realizer.SearchResult(EXHAUSTED, None, nodes)
        assert streamed == [True]

    @pytest.mark.parametrize(
        "line, nodes",
        [
            ("d=12 cover=O0 base=O0 parts=[5,2,2,2,1|4,2,2,2,2|3,3,3,3]", 8_412),
            ("d=12 cover=O1 base=O0 parts=[4,3,3,2|3,3,3,3|3,3,3,3]", 7_072),
            ("d=12 cover=O0 base=O0 parts=[4,3,3,1,1|4,2,2,2,2|3,3,3,3]", 8_412),
            ("d=12 cover=O0 base=O0 parts=[4,2,2,2,2|3,3,3,3|3,3,2,2,2]", 8_412),
            ("d=12 cover=O0 base=O0 parts=[3,3,3,3|3,3,3,3|3,2,2,2,2,1]", 7_072),
        ],
    )
    def test_anchor_above_the_reduction_limit(self, monkeypatch, line, nodes):
        # anchor (3,3,3,3) has 246,400 elements, so every class is above
        # _REDUCTION_LIMIT; the last level streams the stabilizer-least rows
        # of its class, after the hunt's 6,237 or 4,928 nodes, and builds no
        # table
        built = []
        build = realizer._build_class_list
        monkeypatch.setattr(realizer, "_build_class_list", lambda t: built.append(t) or build(t))
        realizer._class_table.cache_clear()
        streamed = _watch_streaming(monkeypatch)
        assert search(parse_datum(line)) == realizer.SearchResult(EXHAUSTED, None, nodes)
        assert streamed == [True]
        assert not {(3, 3, 3, 3), (4, 2, 2, 2, 2)} & set(built)

    def test_streamed_outcomes_equal_cached_ones(self, monkeypatch):
        data = [datum for d in range(2, 7) for datum in enumerate_compatible(d, range(5))]
        want = [search(datum) for datum in data]
        streamed = _watch_streaming(monkeypatch)
        monkeypatch.setattr(realizer, "_CACHE_BYTES", 0)
        assert [search(datum) for datum in data] == want
        assert any(streamed)

    def test_budget_one_short_is_never_exhausted(self):
        # level 0 streams stabilizer-least rows, a number not known up
        # front; like a table's rows, they are charged one by one as the
        # walk visits them, so the budget never runs out unnoticed
        datum = parse_datum("d=12 cover=O1 base=O0 parts=[7,5|3,3,3,3|2,2,2,2,2,2]")
        full = search(datum)
        assert full == realizer.SearchResult(EXHAUSTED, None, 5_013)
        assert search(datum, budget=full.nodes).status == EXHAUSTED
        for limit in (0, 4_928, full.nodes - 1):  # 4,928 nodes: the hunt's
            assert search(datum, budget=limit).status == BUDGET_EXCEEDED, limit

    # a lower limit moves level 0 from the orbit representatives to the
    # stabilizer-least rows on most data
    @pytest.mark.parametrize(
        "n, top, limit, runs",
        [
            (3, 8, 20, 651),
            (3, 8, 400, 547),
            (4, 6, 20, 280),
        ],
    )
    def test_agrees_with_orbit_reps(self, monkeypatch, n, top, limit, runs):
        # n-point data of degree 3..top: same status and same first
        # witness as the orbit representatives; only the nodes may differ
        data = [x for d in range(3, top + 1) for x in enumerate_compatible(d, [n])]
        want = [search(datum) for datum in data]
        monkeypatch.setattr(realizer, "_REDUCTION_LIMIT", limit)
        calls = []
        stabilizer_least = realizer._stabilizer_least
        monkeypatch.setattr(
            realizer, "_stabilizer_least", lambda *args: calls.append(args) or stabilizer_least(*args)
        )
        for datum, ref in zip(data, want):
            res = search(datum)
            assert (res.status, res.realization) == (ref.status, ref.realization), format_datum(datum)
        assert len(calls) == runs


def _hunt_args(line):
    """What search hands the random hunt of a datum."""
    datum = parse_datum(line)
    types = sorted((p.parts for p in datum.partitions), key=lambda t: (class_size(t), t))
    middle = types[1:-1]
    estimate = prod(class_size(t) for t in middle)
    attempts = min(realizer._HUNT_MAX, max(2_000, estimate // 50))
    return datum.degree, class_representative(types[0]), middle, types[-1], attempts


def _hunt_outcome(hunt, args, limit):
    budget = realizer._Budget(limit)
    try:
        taus = hunt(*args[:4], budget, args[4])
    except realizer._OutOfBudget:
        return "out of budget", budget.nodes
    return taus, budget.nodes


# data whose search starts with a hunt, and the attempts that hunt makes
# up to and including its hit (None: every attempt misses)
HUNTED = [
    ("d=7 cover=O0 base=O0 parts=[7|4,1,1,1|2,2,1,1,1|2,1,1,1,1,1]", 9),
    ("d=10 cover=O0 base=O0 parts=[8,1,1|7,1,1,1|6,1,1,1,1]", 1_159),
    ("d=8 cover=O0 base=O0 parts=[4,1,1,1,1|4,1,1,1,1|4,1,1,1,1|4,1,1,1,1|3,1,1,1,1,1]", 2_183),
    ("d=10 cover=O0 base=O0 parts=[7,1,1,1|7,1,1,1|7,1,1,1]", None),
    # the latest hit of the walks of d = 12 data with a (3,3,3,3) point
    ("d=12 cover=O1 base=O0 parts=[6,2,2,2|3,3,3,3|3,3,3,3]", 1_148),
    ("d=11 cover=O0 base=O0 parts=[10,1|8,1,1,1|5,1,1,1,1,1,1]", 366),
    ("d=9 cover=O0 base=O0 parts=[7,1,1|5,1,1,1,1|5,1,1,1,1|3,1,1,1,1,1,1]", 242),
]


def _targets(args):
    """Every target type that makes a compatible datum with the anchor
    and middle classes of a hunt, in partitions_of order."""
    d, tau1, middle = args[:3]
    out = []
    for p in partitions_of(d):
        if p.is_trivial:
            continue
        parts = [cycle_type_reference(tau1), *middle, p.parts]
        covers = covers_from_count(SPHERE, len(parts), d, sum(map(len, parts)))
        if any(check_compatibility(BranchDatum(c, SPHERE, d, parts)).compatible for c in covers):
            out.append(p.parts)
    return out


@functools.cache
def _reference_outcome(d, tau1, middle, target, attempts):
    """reference_hunt's outcome without a budget limit."""
    return _hunt_outcome(reference_hunt, (d, tau1, list(middle), target, attempts), 10**9)


def _limited_reference(args, limit):
    """reference_hunt's outcome at a budget limit, read off the unlimited
    one: the reference spends an attempt's nodes before making it, so any
    limit short of what the unlimited hunt spent runs out with the whole
    limit spent."""
    taus, nodes = _reference_outcome(args[0], args[1], tuple(args[2]), *args[3:])
    return (taus, nodes) if limit >= nodes else ("out of budget", limit)


def _charged(ledger):
    """What the ledger should count: sys.getsizeof of each key, of an
    empty bytearray per key and of each memoised conjugate, and the bytes
    held."""
    keys = sum(sys.getsizeof(k) + sys.getsizeof(bytearray()) + len(v) for k, v in ledger.items())
    return keys + sum(map(sys.getsizeof, _memoised(ledger)))


def _memoised(ledger):
    return [s for memo in ledger.conjugates.values() for s in memo.values()]


def _held_attempts(ledger):
    """The attempts the ledger holds, summed over its keys."""
    d, py = ledger.part[0], realizer._HUNT_PY
    return sum(len(b) if len(b) <= py else py + (len(b) - py) // d for b in ledger.values())


class TestHunt:
    @pytest.fixture(autouse=True, params=[0, 32, 10**6])
    def python_attempts(self, request, monkeypatch):
        # all attempts in numpy, the split of search, all in Python; a
        # ledger is laid out for one _HUNT_PY, so each case starts afresh
        monkeypatch.setattr(realizer, "_HUNT_PY", request.param)
        monkeypatch.setattr(realizer, "_ledgers", realizer._Ledger())

    @pytest.mark.parametrize("line, hit", HUNTED)
    def test_same_tuple_and_nodes_as_reference(self, line, hit):
        args = _hunt_args(line)
        m = len(args[2])
        full = args[4] * m
        spent = full if hit is None else hit * m
        taus, nodes = _hunt_outcome(reference_hunt, args, 10**9)
        assert nodes == spent and (taus is None) == (hit is None)
        for limit in (0, spent - 1, spent, full - 1, 10**9):
            want = _hunt_outcome(reference_hunt, args, limit)
            assert _hunt_outcome(realizer._random_hunt, args, limit) == want, limit

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_ledger_changes_no_outcome(self, order):
        # two keys of the slice (10, 1), each hunted at every target, the
        # two keys' hunts interleaved, at the budget limits of the test above
        keys = [_hunt_args(HUNTED[1][0]), _hunt_args(HUNTED[3][0])]
        runs = []
        for args in keys:
            targets = _targets(args)
            if order == "descending":
                targets.reverse()
            elif order == "shuffled":
                random.Random(7).shuffle(targets)
            runs.append([(*args[:3], t, args[4]) for t in targets])
        assert [len(r) for r in runs] == [9, 14]
        for hunt in itertools.chain.from_iterable(itertools.zip_longest(*runs)):
            if hunt is None:
                continue
            spent = _limited_reference(hunt, 10**9)[1]
            for limit in (0, spent - 1, spent, hunt[4] * len(hunt[2]) - 1, 10**9):
                want = _limited_reference(hunt, limit)
                assert _hunt_outcome(realizer._random_hunt, hunt, limit) == want, (hunt[3], limit)
        assert realizer._ledgers.part == (10, 1) and len(realizer._ledgers) == 2


class TestLedger:
    @pytest.fixture(autouse=True)
    def fresh_ledger(self, monkeypatch):
        monkeypatch.setattr(realizer, "_ledgers", realizer._Ledger())

    def test_another_slice_leaves_only_its_own_key(self):
        first, other = _hunt_args(HUNTED[1][0]), _hunt_args(HUNTED[6][0])
        for args in (first, _hunt_args(HUNTED[3][0])):
            realizer._random_hunt(*args[:4], realizer._Budget(10**9), args[4])
        assert len(realizer._ledgers) == 2
        realizer._random_hunt(*other[:4], realizer._Budget(10**9), other[4])
        ledger = realizer._ledgers
        assert ledger.part == (9, 2) and list(ledger) == [(other[1], *other[2])]
        # the conjugates went with the slice too
        assert list(ledger.conjugates) == [(5, 1, 1, 1, 1)]
        assert ledger.nbytes == _charged(ledger) == 9_336

    @pytest.mark.parametrize(
        "cap, full",
        [
            (0, ((0, 0), (0, 0))),
            (20, ((0, 0), (0, 0))),
            (4_000, ((4_000, 1), (3_960, 1))),
            (16_000, ((13_984, 1), (11_640, 1))),
        ],
    )
    def test_bytes_stay_under_the_cap(self, cap, full, monkeypatch):
        # cap 20 holds not even a key; 4,000 stops inside the Python
        # attempts, most of it taken by their conjugates; 16,000 inside the
        # numpy ones of the first key, where the chunk that would pass it is
        # not stored, and above all of the second (full: the bytes counted
        # and the keys held after each key's hunts); every hunt still
        # returns the reference outcome
        monkeypatch.setattr(realizer, "_CACHE_BYTES", cap)
        for line, kept in zip((HUNTED[2][0], HUNTED[6][0]), full):
            args = _hunt_args(line)
            for t in _targets(args):
                hunt = (*args[:3], t, args[4])
                want = _limited_reference(hunt, 10**9)
                assert _hunt_outcome(realizer._random_hunt, hunt, 10**9) == want, t
                ledger = realizer._ledgers
                assert ledger.nbytes == _charged(ledger) <= cap
            assert (ledger.nbytes, len(ledger)) == kept

    def test_many_short_keys_count_their_objects(self, monkeypatch):
        # every key of the slice (8, 2), hunted three attempts deep, so that
        # each holds at most three bytes: the objects, not the bytes, fill the cap
        monkeypatch.setattr(realizer, "_CACHE_BYTES", 20_000)
        keys = {}
        for datum in enumerate_compatible(8, [4]):
            args = _hunt_args(format_datum(datum))
            keys.setdefault((args[1], *args[2]), (*args[:4], 3))
        for hunt in keys.values():
            want = _hunt_outcome(reference_hunt, hunt, 10**9)
            assert _hunt_outcome(realizer._random_hunt, hunt, 10**9) == want
        ledger = realizer._ledgers
        assert ledger.part == (8, 2) and 0 < len(ledger) < len(keys)
        assert all(len(held) <= 3 for held in ledger.values())
        objects = sum(sys.getsizeof(k) + len(v) for k, v in ledger.items())
        assert objects + sum(map(sys.getsizeof, _memoised(ledger))) <= ledger.nbytes <= 20_000

    def test_walks_of_degree_twelve_hold_few_attempts(self, monkeypatch):
        # every compatible d = 12, n = 3 datum with a (3,3,3,3) point, one
        # slice: the ledger ends holding each key's attempts up to the last
        # one any of its hunts computed, whatever the order of the data
        data = [
            x for x in enumerate_compatible(12, [3])
            if any(p.parts == (3, 3, 3, 3) for p in x.partitions)
        ]
        hunts, charged = [], []
        hunt = realizer._random_hunt

        def recorded(*args):
            hunts.append(args[:4] + args[5:])
            nodes = args[4].nodes
            try:
                return hunt(*args)
            finally:
                charged.append((args[4].nodes - nodes) // len(args[2]))

        monkeypatch.setattr(realizer, "_random_hunt", recorded)
        for datum in data:
            classify(datum)
        monkeypatch.setattr(realizer, "_random_hunt", hunt)
        assert (len(data), len(hunts), sum(charged)) == (937, 884, 104_061)
        ledger = realizer._ledgers
        assert ledger.part == (12, 1) and len(ledger) == 69
        assert _held_attempts(ledger) == 28_794
        for order in (hunts[::-1], sorted(hunts, key=lambda h: (h[3], h[1]))):
            monkeypatch.setattr(realizer, "_ledgers", realizer._Ledger())
            for args in order:
                realizer._random_hunt(*args[:4], realizer._Budget(10**9), args[4])
            assert _held_attempts(realizer._ledgers) == 28_794


class TestDrawTable:
    def test_rows_are_the_seeded_draws(self):
        args = _hunt_args(HUNTED[2][0])
        realizer._random_hunt(*args[:4], realizer._Budget(10**9), args[4])
        _, rows = realizer._draws[8]
        assert rows.dtype == np.uint8 and len(rows) >= 3 * 2_183
        rng = random.Random(realizer._SEED)
        assert list(map(tuple, rows.tolist())) == [random_permutation(8, rng) for _ in rows]

    def test_table_stops_at_the_longest_hunt(self, monkeypatch):
        monkeypatch.setattr(realizer, "_draws", {})
        d, tau1, middle, _, _ = _hunt_args(HUNTED[3][0])
        # both classes are even and a 10-cycle is odd: every attempt misses
        budget = realizer._Budget(10**9)
        assert realizer._random_hunt(d, tau1, middle, (10,), budget, realizer._HUNT_MAX) is None
        assert budget.nodes == realizer._HUNT_MAX * len(middle)
        # exactly the rows the hunt read, none drawn ahead of it
        assert len(realizer._draws[d][1]) == realizer._HUNT_MAX * len(middle)

    def test_outcome_does_not_depend_on_cache_state(self, monkeypatch):
        lines = [line for line, hit in HUNTED if hit is not None]
        code = (
            "import sys\n"
            "from hurwitz.core import parse_datum\n"
            "from hurwitz.realizer import search\n"
            "for line in sys.argv[1:]:\n"
            "    res = search(parse_datum(line))\n"
            "    print(res.status, res.nodes, res.realization.taus)\n"
        )
        src = os.path.dirname(os.path.dirname(hurwitz.__file__))
        fresh = subprocess.run(
            [sys.executable, "-c", code, *lines], check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.splitlines()
        # every degree's table grown by other data first, past these hunts
        monkeypatch.setattr(realizer, "_draws", {})
        monkeypatch.setattr(realizer, "_ledgers", realizer._Ledger())
        search(parse_datum(HUNTED[3][0]))
        for d in (7, 8, 9, 10, 11, 12):
            realizer._draw_rows(d, 10_000)
        grown = []
        for line in lines:
            # the slice's conjugate memo filled by the hunt of another key,
            # the identity's, with the middle types at other places in the
            # attempts, and the ledger by hunts of the same key at its other
            # targets (the d = 7 key has none)
            d, tau1, middle, target, attempts = _hunt_args(line)
            turned = middle[1:] + middle[:1]
            realizer._random_hunt(d, tuple(range(d)), turned, target, realizer._Budget(10**9), 50)
            assert all(realizer._ledgers.conjugates[t] for t in middle)
            others = [t for t in _targets((d, tau1, middle)) if t != target]
            for t in others:
                realizer._random_hunt(d, tau1, middle, t, realizer._Budget(10**9), attempts)
            assert bool(others) == ((tau1, *middle) in realizer._ledgers)
            res = search(parse_datum(line))
            grown.append(f"{res.status} {res.nodes} {res.realization.taus}")
        assert grown == fresh

    def test_memo_holds_the_python_attempts_only(self, monkeypatch):
        # hunts whose attempts the ledger holds fill no memo
        monkeypatch.setattr(realizer, "_ledgers", realizer._Ledger())
        for line, _ in HUNTED:
            d, tau1, middle, target, attempts = _hunt_args(line)
            realizer._random_hunt(d, tau1, middle, target, realizer._Budget(10**9), attempts)
            # consecutive lines are of different slices, so the memo holds
            # this hunt's types only, at the rows its Python attempts read
            m = len(middle)
            assert realizer._ledgers.part == (d, m)
            rows: dict[tuple[int, ...], set[int]] = {}
            for j, t in enumerate(middle):
                rows.setdefault(t, set()).update(range(j, realizer._HUNT_PY * m, m))
            memo = realizer._ledgers.conjugates
            assert memo.keys() == rows.keys()
            table = realizer._draws[d][1]
            for t, sigmas in memo.items():
                assert sigmas.keys() <= rows[t]
                for i, sigma in sigmas.items():
                    assert sigma == conjugate(class_representative(t), tuple(table[i].tolist()))


def test_catalog_does_not_import_scipy():
    code = (
        "import sys\n"
        "from hurwitz.catalog import run_catalog\n"
        "run_catalog(7, 4)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(hurwitz.__file__))
    subprocess.run(
        [sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src}
    )
