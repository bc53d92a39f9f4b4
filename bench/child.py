"""One repetition of one workload, in a fresh interpreter.

Started by run.py with the parent's CLOCK_MONOTONIC reading at spawn time,
so setup_s covers interpreter start, imports and input generation.  All
times are scaled to the reference host speed by hostclock.HostClock;
raw_setup_s and raw_wall_s are the unscaled ones.  Module caches of the
package (class lists, orbit representatives, class sizes) start empty, as
in a user's own invocation.  Prints one JSON line.

    python3 bench/child.py --workload W --seed N --mode {setup,run,trace}
                           --spawned T --workdir DIR
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import time

import workloads
from hostclock import HostClock
from tracer import Tracer

TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder with at
    least ten samples beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
    return 50.0, statistics.median(ordered)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.workdir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    tracer = Tracer()
    host = HostClock()
    if args.mode == "trace":
        tracer.install()
        host.loop = tracer.outside(host.loop)
    host.begin()
    out = {"setup_s": host.scale_before(setup_s), "raw_setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return

    try:
        produced, items_ms = wl.run(inputs, host)
        host.end(len(items_ms))
    finally:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = wl.check(inputs, produced)
    raw_s, wall_s = host.wall()
    items_ms = host.scale_items(items_ms)
    pct, tail_ms = tail(items_ms)
    out.update(
        wall_s=wall_s,
        raw_wall_s=raw_s,
        item_ms_p50=statistics.median(items_ms),
        item_ms_tail=tail_ms,
        tail_percentile=pct,
        items=len(items_ms),
        peak_rss_mb=peak_kb / 1024.0,
        attempted=result["attempted"],
        failed=len(result["failures"]),
        failures=result["failures"][:5],
        tags_changed=result["tags_changed"],
        witnesses_changed=result["witnesses_changed"],
        counts=result["counts"],
    )
    if args.mode == "trace":
        # layer seconds take the repetition's mean factor, like wall_s
        factor = wall_s / raw_s if raw_s > 0 else 1.0
        out["layers"] = {
            name: value * factor if name.endswith((".s", "_s")) else value
            for name, value in tracer.metrics().items()
        }
        out["absent"] = tracer.absent
    print(json.dumps(out))


if __name__ == "__main__":
    main()
