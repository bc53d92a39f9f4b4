"""Run the benchmark over several seeds and summarise its steadiness.

    python3 bench/steady.py [--workloads W ...] [--trace]
                            [--out bench/trajectory/NAME.json] [--label TEXT]

For every workload and each of the seeds 1..10, bench/run.py runs once
with the run length from BENCHMARK.json.  For each end-to-end metric the
summary gives the median, the quartiles (statistics.quantiles, n=4) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound; the exit code is 1 when a spread exceeds its
bound.  The exact counts must repeat between the repetitions of every
run; for the search workloads (nodes and verdicts) they must also be the
same for every seed, while the witness workload's counts depend on the
tuples drawn and are listed per seed.  With --trace one traced run per
workload adds the per-layer metrics.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med, "bound": bound, "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    all_ok = True
    for wl in args.workloads:
        per_metric: dict[str, list[float]] = {}
        counts, correct, within = [], True, True
        for seed in SEEDS:
            details, result = run_once(wl, seed, spec["run_seconds"], 0)
            correct &= result["correct"] and result["failed"] == 0
            within &= details["counts_repeat"]
            counts.append(details["counts"])
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(wl, seed, {k: round(v[-1], 4) for k, v in per_metric.items()}, flush=True)
        same = all(c == counts[0] for c in counts)
        entry = {
            "correct": correct,
            "counts_repeat_within_runs": within,
            "counts_same_across_seeds": same,
            "counts": counts[0] if same else counts,
            "metrics": {k: summarise(v, bounds[k]) for k, v in per_metric.items()},
        }
        if args.trace:
            details, result = run_once(wl, SEEDS[0], spec["run_seconds"], 1)
            entry["layers"] = {k: m["value"] for k, m in result["metrics"].items()}
            entry["absent_hooks"] = details.get("absent_hooks", [])
        report["workloads"][wl] = entry
        for name, s in entry["metrics"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else ("within bound" if s["spread"] <= s["bound"] else "TOO WIDE")
            all_ok &= s["spread"] <= s["bound"]
            print(f"  {wl} {name}: median {s['median']:.4g} spread {s['spread']:.3f} bound {s['bound']} {flag}")
        print(f"  {wl}: correct={correct} counts repeat within runs={within}, across seeds={same}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
