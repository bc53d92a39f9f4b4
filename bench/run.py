"""The realizability benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the repository root.  Every repetition of the workload runs in a
fresh single-threaded interpreter (bench/child.py) with the package taken
from ./src, so module caches start empty as in a user's invocation.
Repetitions follow one another while one more, as long as the last, still
ends within S seconds (at least one runs); before each, SETUP_PER_REP
set-up-only interpreters run, so that setup_s is a median of samples
spread over the whole run.  All times are seconds at the reference host
speed (bench/hostclock.py); the details line gives the raw ones as well.
Every output is checked; the last line of standard output is the JSON
result, the line before it the run's details (exact counts, tail
percentile, changed tags and witnesses, first failures).

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 plain
and traced repetitions alternate; the metrics are the per-layer ones from
the traced repetitions, plus trace.overhead_s, the traced wall time minus
the plain one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalog-d8n5", "catalog-d10n3", "walks-d12", "witness")
SETUP_PER_REP = 2
DEADLINE_S = 170.0  # the whole run, children included, must end before this


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args, mode: str, workdir: str, env: dict, deadline: float) -> dict:
    now = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--spawned", repr(now), "--workdir", workdir,
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - now)
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} {mode} repetition did not finish before the deadline")
    if proc.returncode != 0:
        fail(f"{args.workload} {mode} repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind like on an error: subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = Path("src").resolve()
    if not (src / "hurwitz" / "__init__.py").is_file():
        fail("run from the repository root: src/hurwitz is missing")
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    deadline = started + DEADLINE_S
    Path(".bench_build").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="bench-", dir=".bench_build")
    try:
        setups: list[dict] = []
        plain: list[dict] = []
        traced: list[dict] = []
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        while True:
            r0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            setups.extend(spawn(args, "setup", workdir, env, deadline) for _ in range(SETUP_PER_REP))
            want_trace = args.trace and len(traced) < len(plain)
            rep = spawn(args, "trace" if want_trace else "run", workdir, env, deadline)
            (traced if want_trace else plain).append(rep)
            now = time.clock_gettime(time.CLOCK_MONOTONIC)
            done = (now - t0) + (now - r0) > args.seconds
            if done and (not args.trace or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    counts = [json.dumps(r["counts"], sort_keys=True) for r in reps]
    repeat = len(set(counts)) == 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "wall_s_per_repetition": [round(r["wall_s"], 4) for r in plain],
        "raw_wall_s_per_repetition": [round(r["raw_wall_s"], 4) for r in plain],
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setups + reps),
        "items_per_repetition": reps[0]["items"],
        "tail_percentile": reps[0]["tail_percentile"],
        "counts": reps[0]["counts"],
        "counts_repeat": repeat,
        "fail_frac": failed / attempted,
        "tags_changed": reps[0]["tags_changed"],
        "witnesses_changed": reps[0]["witnesses_changed"],
        "failures": [f for r in reps for f in r["failures"]][:5],
    }
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
            for name, unit in per_layer_units().items()
            if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": median_of(traced, "wall_s") - median_of(plain, "wall_s"), "unit": "s"
        }
        details["absent_hooks"] = traced[0]["absent"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups + reps), "unit": "s"},
            "wall_s": {"value": median_of(plain, "wall_s"), "unit": "s"},
            "item_ms_p50": {"value": median_of(plain, "item_ms_p50"), "unit": "ms"},
            "item_ms_tail": {"value": median_of(plain, "item_ms_tail"), "unit": "ms"},
            "peak_rss_mb": {"value": median_of(plain, "peak_rss_mb"), "unit": "MB"},
        }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed if repeat else max(failed, 1),
        "metrics": metrics,
    }))


def per_layer_units() -> dict[str, str]:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    main()
