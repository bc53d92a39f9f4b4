"""Batch enumeration and classification with a resumable flat-file catalog.

The catalog is a tab-separated text file, one record per line, with a
``#`` header naming the columns and the tool version.  Records are
written sorted by degree, branching count and datum text; the wall-time
column is the only non-deterministic field.  A summary footer counts
verdicts and provenance tags, including the exceptional counts per tag
and the number of prime-degree exceptional data (reported, never
assumed to be zero).  A resumed run rewrites the whole file, old and new
records in that order under one footer, so it ends up as an
uninterrupted run's file.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .core import (
    SPHERE,
    BranchDatum,
    Surface,
    format_datum,
    infer_cover,
    parse_datum,
    partitions_of,
    check_compatibility,
)
from .criteria import DEFAULT_BUDGET, classify
from .perms import format_cycles


CATALOG_COLUMNS = ("datum", "verdict", "tag", "witness", "nodes", "ms")


@dataclass(frozen=True, slots=True)
class CatalogRecord:
    datum: BranchDatum
    verdict: str
    tag: str
    witness: str
    nodes: int
    millis: float

    def line(self) -> str:
        return "\t".join(
            (
                format_datum(self.datum),
                self.verdict.upper(),
                self.tag,
                self.witness or "-",
                str(self.nodes),
                f"{self.millis:.1f}",
            )
        )


def enumerate_compatible(
    d: int,
    n_values: Iterable[int],
    base: Surface = SPHERE,
    cover: Surface | None = None,
) -> Iterator[BranchDatum]:
    """Stream every compatible datum of degree d, branching counts from
    n_values, over the given base, canonically ordered and each exactly
    once.  Cover surfaces are inferred; pass ``cover`` to keep only one.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    from itertools import combinations_with_replacement

    menu = [p for p in partitions_of(d) if not p.is_trivial]
    for n in sorted(set(n_values)):
        if n < 0:
            continue
        for combo in combinations_with_replacement(menu, n):
            for cand in infer_cover(base, n, d, combo):
                if cover is not None and cand != cover:
                    continue
                datum = BranchDatum(cand, base, d, combo)
                if check_compatibility(datum).compatible:
                    yield datum


def _classify_record(args: tuple[str, int]) -> tuple[str, str, str, str, int, float]:
    line, budget = args
    datum = parse_datum(line)
    t0 = time.perf_counter()
    verdict = classify(datum, budget)
    ms = (time.perf_counter() - t0) * 1000.0
    witness = ""
    if verdict.witness is not None:
        witness = ";".join(format_cycles(t) for t in verdict.witness.taus)
    return (line, verdict.kind, verdict.provenance, witness, verdict.nodes, ms)


def _load_existing(path: str) -> dict[str, str]:
    done: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw or raw.startswith("#"):
                continue
            cols = raw.split("\t")
            if len(cols) != len(CATALOG_COLUMNS):
                raise ValueError(f"corrupt catalog line {lineno}: wrong column count")
            try:
                parse_datum(cols[0])
            except ValueError as exc:
                raise ValueError(f"corrupt catalog line {lineno}: {exc}") from exc
            done[cols[0]] = raw
        return done


def _record(cols: list[str]) -> CatalogRecord:
    return CatalogRecord(
        parse_datum(cols[0]),
        cols[1].lower(),
        cols[2],
        "" if cols[3] == "-" else cols[3],
        int(cols[4]),
        float(cols[5]),
    )


def summary_lines(records: Sequence[CatalogRecord]) -> list[str]:
    verdict_counts: dict[str, int] = {}
    tag_counts: dict[str, int] = {}
    exc_tag_counts: dict[str, int] = {}
    prime_exceptional = 0
    for rec in records:
        verdict_counts[rec.verdict] = verdict_counts.get(rec.verdict, 0) + 1
        base_tag = rec.tag.split("+")[0]
        tag_counts[base_tag] = tag_counts.get(base_tag, 0) + 1
        if rec.verdict == "exceptional":
            exc_tag_counts[base_tag] = exc_tag_counts.get(base_tag, 0) + 1
            d = rec.datum.degree
            if d >= 2 and all(d % f for f in range(2, d)):
                prime_exceptional += 1
    lines = [f"# total={len(records)}"]
    for kind in sorted(verdict_counts):
        lines.append(f"# verdict {kind}={verdict_counts[kind]}")
    for tag in sorted(tag_counts):
        lines.append(f"# tag {tag}={tag_counts[tag]}")
    exc_total = verdict_counts.get("exceptional", 0)
    for tag in sorted(exc_tag_counts):
        lines.append(f"# exceptional-coverage {tag}={exc_tag_counts[tag]}/{exc_total}")
    lines.append(f"# prime-degree-exceptional={prime_exceptional}")
    return lines


def run_catalog(
    d_max: int,
    n_max: int = 6,
    budget: int = DEFAULT_BUDGET,
    out_path: str | None = None,
    resume: bool = False,
    workers: int = 1,
    base: Surface = SPHERE,
) -> list[CatalogRecord]:
    """Classify every compatible datum with 2 <= d <= d_max, n <= n_max.

    Writes one record line per datum to out_path (when given); with
    ``resume`` the file is read first, already-recorded data are
    skipped, and the file is rewritten with old and new records.  The
    sorted record order keeps two runs with identical parameters, resumed
    or not, byte-identical except for the wall-time column.
    """
    todo: list[str] = []
    done: dict[str, str] = {}
    if resume and out_path is not None:
        try:
            done = _load_existing(out_path)
        except FileNotFoundError:
            done = {}
    for d in range(2, d_max + 1):
        for datum in enumerate_compatible(d, range(0, n_max + 1), base):
            line = format_datum(datum)
            if line not in done:
                todo.append(line)

    jobs = [(line, budget) for line in todo]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_classify_record, jobs, chunksize=8))
    else:
        results = [_classify_record(job) for job in jobs]

    # datum text -> (record, its file line)
    rows = {line: (_record(raw.split("\t")), raw) for line, raw in done.items()}
    for line, kind, tag, witness, nodes, ms in results:
        raw = "\t".join((line, kind.upper(), tag, witness or "-", str(nodes), f"{ms:.1f}"))
        rows[line] = (CatalogRecord(parse_datum(line), kind, tag, witness, nodes, ms), raw)
    order = sorted(rows, key=lambda line: (rows[line][0].datum.degree, rows[line][0].datum.n, line))
    records = [rows[line][0] for line in order]

    if out_path is not None:
        from . import __version__

        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f"# hurwitz-catalog v{__version__}\n")
            fh.write("# columns: " + "\t".join(CATALOG_COLUMNS) + "\n")
            for line in order:
                fh.write(rows[line][1] + "\n")
            for s in summary_lines(records):
                fh.write(s + "\n")
    return records


def read_catalog(path: str) -> list[CatalogRecord]:
    return [_record(line.split("\t")) for line in _load_existing(path).values()]
