"""Write bench/reference/<workload>.json from the current engine.

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

The references are the verdict contract the benchmark checks against:
which data are exceptional, plus the provenance tag and a one-character
witness code per datum.  Regenerate one only when a change to the verdict
contract is intended and reviewed; never to make a failing run pass.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from hostclock import HostClock
from hurwitz.core import format_datum

SEARCH_WORKLOADS = ("catalog-d8n5", "catalog-d10n3", "walks-d12")


def outcomes_of(name: str) -> dict[str, tuple[str, str, str]]:
    wl = workloads.WORKLOADS[name]
    if name == "walks-d12":
        data = wl.setup(0, "")
        verdicts, _ = wl.run(data, HostClock())
        return {
            format_datum(x): (v.kind, v.provenance, checks.format_witness(v.witness.taus) if v.witness else "")
            for x, v in zip(data, verdicts)
        }
    Path(".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_build") as tmp:
        records, _ = wl.run(wl.setup(0, tmp), HostClock())
    return {format_datum(r.datum): (r.verdict, r.tag, r.witness) for r in records}


def main() -> None:
    for name in sys.argv[1:] or SEARCH_WORKLOADS:
        doc = checks.build_reference(name, outcomes_of(name))
        path = checks.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"{path}: {doc['records']} records, {doc['verdicts']}")


if __name__ == "__main__":
    main()
