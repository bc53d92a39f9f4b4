"""Tests of the benchmark itself: seeded inputs, the tuple generator, the
correctness checker and the tracer's metric names."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import checks
import hostclock
import tracer
import workloads
from child import tail
from hostclock import HostClock

EXCEPTIONAL = "d=4 cover=O0 base=O0 parts=[3,1|2,2|2,2]"
REALIZABLE = "d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]"
WITNESS = "(1 2);(1 2 3 4);(2 4 3)"


def small_reference():
    return checks.build_reference("unit", {
        EXCEPTIONAL: ("exceptional", "Thm-EKS-d4+1", ""),
        REALIZABLE: ("realizable", "search-found", WITNESS),
    })


def outcomes(**changes):
    base = {
        EXCEPTIONAL: ("exceptional", "Thm-EKS-d4+1", None),
        REALIZABLE: ("realizable", "search-found", WITNESS),
    }
    base.update(changes)
    return base


def judge(outs, items=None):
    """check_verdicts for outcomes the program produced once each, unless
    items says how many it produced."""
    return checks.check_verdicts(small_reference(), outs, len(outs) if items is None else items)


class TestInputs:
    def test_witness_inputs_repeat_per_seed(self):
        a = workloads.witness_inputs(5)
        assert a == workloads.witness_inputs(5)
        assert a != workloads.witness_inputs(6)

    def test_walks_order_repeats_per_seed(self):
        walks = workloads.WORKLOADS["walks-d12"]
        a = walks.setup(3, "")
        assert a == walks.setup(3, "")
        assert a != walks.setup(4, "")
        assert sorted(map(str, a)) == sorted(map(str, walks.setup(4, "")))
        assert len(a) == checks.load_reference("walks-d12")["records"]

    def test_tuples_are_transitive_with_trivial_product(self):
        for taus, k, datum in workloads.witness_inputs(1):
            d = len(taus[0])
            assert all(checks.is_permutation(t, d) for t in taus)
            assert checks.product_is_identity(taus, d)
            assert checks.transitive(taus, d)
            assert tuple(range(d)) not in taus
            assert checks.witness_problem(str(datum), taus) is None
            assert k is None or d % k == 0

    def test_imprimitive_tuples_have_their_block_system(self):
        from hurwitz import blocks

        for taus, k, _ in workloads.witness_inputs(2)[::7]:
            if k is not None:
                bd = blocks.find_block_decomposition(list(taus), k)
                assert bd is not None
                assert workloads.preserved(bd.assignment, taus, k)


class TestChecker:
    def test_reference_outcomes_pass(self):
        result = judge(outcomes())
        assert result == {"failures": [], "tags_changed": 0, "witnesses_changed": 0}

    def test_corrupted_witness_fails(self):
        bad = "(1 3);(1 2 3 4);(2 4 3)"
        result = judge(
            outcomes(**{REALIZABLE: ("realizable", "search-found", bad)})
        )
        assert len(result["failures"]) == 1
        assert "witness" in result["failures"][0]

    def test_corrupted_witness_tuple_fails(self):
        taus = checks.parse_witness(WITNESS, 4)
        taus[0] = taus[1]
        result = judge(
            outcomes(**{REALIZABLE: ("realizable", "search-found", tuple(taus))})
        )
        assert len(result["failures"]) == 1

    @pytest.mark.parametrize("kind", ["realizable", "unknown"])
    def test_flipped_verdict_fails(self, kind):
        result = judge(
            outcomes(**{EXCEPTIONAL: (kind, "search-found", None)})
        )
        assert len(result["failures"]) == 1
        assert "verdict" in result["failures"][0]

    def test_changed_tag_and_witness_are_counted_not_failed(self):
        g = (1, 2, 3, 0)  # a simultaneous conjugate is another valid witness
        taus = [checks.compose(g, checks.compose(t, checks.inverse(g))) for t in checks.parse_witness(WITNESS, 4)]
        other = checks.format_witness(taus)
        assert other != WITNESS and checks.witness_problem(REALIZABLE, taus) is None
        result = judge(
            outcomes(**{REALIZABLE: ("realizable", "Thm-full-cycle", other)})
        )
        assert result == {"failures": [], "tags_changed": 1, "witnesses_changed": 1}

    def test_missing_datum_fails(self):
        result = judge({REALIZABLE: outcomes()[REALIZABLE]})
        assert len(result["failures"]) == 2

    def test_repeated_datum_fails(self):
        # the program returned the realizable datum twice; the mapping holds it once
        result = judge(outcomes(), items=3)
        assert len(result["failures"]) == 1
        assert "repeats" in result["failures"][0]

    def test_witness_text_round_trip(self):
        assert checks.format_witness(checks.parse_witness(WITNESS, 4)) == WITNESS


class TestTracer:
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        assert set(tracer.Tracer().metrics()) | {"trace.overhead_s"} == names

    def test_missing_hook_is_absent_not_fatal(self, monkeypatch):
        monkeypatch.setattr(tracer, "HOOKS", [*tracer.HOOKS, ("hurwitz.realizer", "_gone", "x", None)])
        t = tracer.Tracer()
        t.install()
        try:
            workloads.WORKLOADS["witness"].run(workloads.witness_inputs(2)[::100], HostClock())
        finally:
            t.uninstall()
        m = t.metrics()
        assert t.absent == ["hurwitz.realizer._gone"]
        assert m["trace.absent"] == 1
        assert m["dessin.canonical.s"] > 0 and m["dessin.darts"] > 0

    def test_uninstall_restores_attributes(self):
        from hurwitz import dessin

        before = dessin.canonical_form
        t = tracer.Tracer()
        t.install()
        assert dessin.canonical_form is not before
        t.uninstall()
        assert dessin.canonical_form is before


class TestHostClock:
    def test_stretches_scale_by_the_samples_around_them(self):
        ref = hostclock.REF_S
        h = HostClock()
        # (start, loop seconds, items done), one sample and one item a
        # second: the host runs at reference speed, then at half speed
        loops = [ref] * 4 + [2 * ref] * 4
        h.marks = [(float(k), c, k) for k, c in enumerate(loops)]
        factors = [1, 1, 1, 2 / 3, 1 / 2, 1 / 2, 1 / 2]
        raw, scaled = h.wall()
        # calibration time is not workload time
        assert raw == pytest.approx(7 - sum(loops[:-1]))
        assert scaled == pytest.approx(sum(f * (1 - c) for f, c in zip(factors, loops)))
        assert h.scale_items([1.0] * 7) == pytest.approx(factors)
        assert h.scale_before(1.0) == pytest.approx(1.0)

    def test_one_disturbed_sample_changes_nothing(self):
        ref = hostclock.REF_S
        h = HostClock()
        h.marks = [(float(k), 3 * ref if k == 4 else ref, k) for k in range(9)]
        assert h.scale_items([1.0] * 8) == pytest.approx([1.0] * 8)

    def test_items_not_ticked_take_the_mean_factor(self):
        ref = hostclock.REF_S
        h = HostClock()
        h.marks = [(0.0, 2 * ref, 0), (1.0, 2 * ref, 0)]
        assert h.scale_items([1.0, 2.0, 3.0]) == pytest.approx([0.5, 1.0, 1.5])

    def test_calibration_loop_leaves_gc_as_it_was(self):
        import gc

        assert gc.isenabled()
        assert hostclock.calibration_loop() == hostclock.calibration_loop()
        assert gc.isenabled()


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail(values) == (99.0, 990)
    assert tail(values[:937]) == (98.0, 919)
    assert tail(values[:15])[0] == 50.0


def test_witness_checks_flag_tampered_analysis():
    taus, k, datum = next(
        item for item in workloads.witness_inputs(3) if item[1] is not None
    )
    res = workloads.analyse(taus, datum)
    assert workloads.analysis_problems(taus, k, datum, res) == []
    bd, factors = res["blocks"][k]
    shifted = bd.assignment[1:] + bd.assignment[:1]
    res["blocks"][k] = (type(bd)(k, shifted), factors)
    res["forms_equal"] = False
    res["back"] = (taus[1], taus[0], *taus[2:-1])
    problems = workloads.analysis_problems(taus, k, datum, res)
    assert "canonical form changed over the round trip" in problems
    assert "round trip is not a relabelling of the tuple" in problems
    assert f"block system of order {k} is not preserved" in problems


def test_canonical_tuple_classes_are_conjugacy_classes():
    taus = workloads.witness_inputs(4)[50][0]
    g = tuple(reversed(range(len(taus[0]))))
    conj = tuple(checks.compose(g, checks.compose(t, checks.inverse(g))) for t in taus)
    assert checks.canonical_tuple(conj) == checks.canonical_tuple(taus)
    assert checks.canonical_tuple(taus[1:] + taus[:1]) != checks.canonical_tuple(taus)
    assert checks.canonical_tuple(((1, 0, 2, 3), (0, 1, 3, 2))) is None


def test_collapsed_or_label_dependent_canonical_form_fails():
    items = workloads.witness_inputs(5)[:30]
    taus, k, datum = items[0]
    g = tuple(reversed(range(len(taus[0]))))
    conj = tuple(checks.compose(g, checks.compose(t, checks.inverse(g))) for t in taus)
    items.append((conj, k, datum))
    results = [workloads.analyse(t, x) for t, _, x in items]
    assert workloads.form_class_problems(items, results) == []
    collapsed = [dict(r, form=()) for r in results]
    assert "share a form" in workloads.form_class_problems(items, collapsed)[0]
    by_label = [dict(r, form=t) for (t, _, _), r in zip(items, results)]
    assert "different forms" in workloads.form_class_problems(items, by_label)[0]
