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

import math
import time
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .core import (
    SPHERE,
    BranchDatum,
    Surface,
    covers_from_count,
    format_datum,
    parse_datum,
    partitions_of,
    check_compatibility,
)
from .criteria import (
    DEFAULT_BUDGET, EXCEPTIONAL, INCOMPATIBLE, REALIZABLE, SEARCH_VERDICTS, UNKNOWN, classify,
)
from .perms import Perm, format_cycles, parse_cycles
from .realizer import Realization, verify_witness


CATALOG_COLUMNS = ("datum", "verdict", "tag", "witness", "nodes", "ms")
_VERDICTS = frozenset((REALIZABLE, EXCEPTIONAL, INCOMPATIBLE, UNKNOWN))
# (verdict, tag, has a witness) of each outcome of the search
_SEARCH_OUTCOMES = frozenset(
    (kind, tag, kind == REALIZABLE) for kind, tag in SEARCH_VERDICTS.values()
)


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

    The partition multisets come in combinations_with_replacement order,
    and a partial multiset is dropped when even its cheapest completion,
    with the fewest parts the remaining menu offers, has too many
    preimages for any cover: chi(cover) = n~ + d (chi(base) - n) is at
    most 2, and at most 1 when the cover cannot be orientable.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    menu = [p for p in partitions_of(d) if not p.is_trivial]
    lengths = [len(p.parts) for p in menu]
    fewest = lengths + [math.inf]  # fewest[i]: the fewest parts among menu[i:]
    for i in range(len(menu) - 1, -1, -1):
        fewest[i] = min(fewest[i], fewest[i + 1])
    chi_max = 2 if base.orientable or d % 2 == 0 else 1

    def combos(start: int, k: int, n_tilde: int, head: tuple) -> Iterator[tuple[tuple, int]]:
        # head completed by k >= 1 partitions of menu[start:] to at most
        # cap preimages, with the preimage totals.  Each call places every
        # copy of a first menu[i], most copies first, so the depth is at
        # most the menu's length, whatever k is.
        for i in range(start, len(menu)):
            if n_tilde + k * fewest[i] > cap:
                break  # fewest[i] only grows with i
            total = n_tilde + k * lengths[i]
            if total <= cap:
                yield head + (menu[i],) * k, total
            for c in range(k - 1, 0, -1):  # c copies, then k - c of menu[i + 1:]
                total = n_tilde + c * lengths[i]
                if total + (k - c) * fewest[i + 1] <= cap:
                    yield from combos(i + 1, k - c, total, head + (menu[i],) * c)

    for n in sorted(set(n_values)):
        if n < 0:
            continue
        cap = chi_max - d * (base.euler_characteristic - n)
        for combo, n_tilde in combos(0, n, 0, ()) if n else [((), 0)]:
            for cand in covers_from_count(base, n, d, n_tilde):
                if cover is not None and cand != cover:
                    continue
                datum = BranchDatum(cand, base, d, combo)
                if check_compatibility(datum).compatible:
                    yield datum


def format_witness(taus: Sequence[Perm]) -> str:
    """The witness column text: the cycle notations of the taus, joined by
    semicolons."""
    return ";".join(format_cycles(t) for t in taus)


def _classify_record(datum: BranchDatum, budget: int) -> CatalogRecord:
    t0 = time.perf_counter()
    verdict = classify(datum, budget)
    ms = (time.perf_counter() - t0) * 1000.0
    witness = ""
    if verdict.witness is not None:
        witness = format_witness(verdict.witness.taus)
    return CatalogRecord(datum, verdict.kind, verdict.provenance, witness, verdict.nodes, ms)


def _parse_record(raw: str, lineno: int) -> CatalogRecord:
    """The record of one file line, the inverse of CatalogRecord.line;
    every column is checked.  A witness, which only a REALIZABLE record
    may carry, must parse at the datum's degree and pass verify_witness.
    Where classify(datum, 0) is decided, the verdict and tag must be its
    kind and provenance, with no witness and 0 nodes; elsewhere they
    must be an outcome of the search (_SEARCH_OUTCOMES), and a definite
    one took at least 1 node."""
    cols = raw.split("\t")
    try:
        if len(cols) != len(CATALOG_COLUMNS):
            raise ValueError("wrong column count")
        text, verdict, tag, witness, nodes, ms = cols
        kind = verdict.lower()
        if kind not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        datum = parse_datum(text)
        witness = "" if witness == "-" else witness
        if witness:
            if kind != REALIZABLE:
                raise ValueError(f"only a REALIZABLE record carries a witness, not {verdict}")
            taus = tuple(parse_cycles(s, datum.degree) for s in witness.split(";"))
            if not verify_witness(datum, Realization(datum.degree, taus)):
                raise ValueError("the witness does not realize the datum")
        if not (nodes.isascii() and nodes.isdigit()):
            raise ValueError(f"nodes {nodes!r} are not decimal digits")
        count = int(nodes)
        ruled = classify(datum, 0)
        if ruled.kind != UNKNOWN:
            if (kind, tag, witness, count) != (ruled.kind, ruled.provenance, "", 0):
                raise ValueError(
                    f"the datum is {ruled.kind.upper()} {ruled.provenance}, no witness, 0 nodes"
                )
        elif (kind, tag, bool(witness)) not in _SEARCH_OUTCOMES:
            has = "with" if witness else "without"
            raise ValueError(f"{verdict} {tag} {has} a witness is not an outcome of the search")
        elif kind != UNKNOWN and count == 0:
            raise ValueError(f"{verdict} {tag} is decided by at least 1 search node, not 0")
        millis = float(ms)
        if not 0 <= millis < math.inf:  # nan compares false
            raise ValueError(f"ms {ms!r} is not a finite non-negative number")
        return CatalogRecord(datum, kind, tag, witness, count, millis)
    except ValueError as exc:
        raise ValueError(f"corrupt catalog line {lineno}: {exc}") from exc


def _load_existing(path: str) -> dict[BranchDatum, CatalogRecord]:
    """The records of a catalog file by datum; a datum on two lines is
    refused, since no run writes one twice."""
    done: dict[BranchDatum, CatalogRecord] = {}
    first_line: dict[BranchDatum, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if raw and not raw.startswith("#"):
                record = _parse_record(raw, lineno)
                seen = first_line.setdefault(record.datum, lineno)
                if seen != lineno:
                    raise ValueError(
                        f"corrupt catalog line {lineno}: the datum is already on line {seen}"
                    )
                done[record.datum] = record
    return done


def summary_lines(records: Sequence[CatalogRecord]) -> list[str]:
    verdict_counts = Counter(rec.verdict for rec in records)
    tag_counts = Counter(rec.tag.split("+")[0] for rec in records)
    exceptional = [rec for rec in records if rec.verdict == EXCEPTIONAL]
    exc_tag_counts = Counter(rec.tag.split("+")[0] for rec in exceptional)
    prime_exceptional = sum(
        all(rec.datum.degree % f for f in range(2, rec.datum.degree)) for rec in exceptional
    )
    lines = [f"# total={len(records)}"]
    for kind in sorted(verdict_counts):
        lines.append(f"# verdict {kind}={verdict_counts[kind]}")
    for tag in sorted(tag_counts):
        lines.append(f"# tag {tag}={tag_counts[tag]}")
    exc_total = verdict_counts[EXCEPTIONAL]
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
) -> list[CatalogRecord]:
    """Classify every compatible sphere-base datum with 2 <= d <= d_max,
    n <= n_max.

    Writes one record line per datum to out_path (when given); with
    ``resume`` the file is read first, already-recorded data are
    skipped, and the file is rewritten with old and new records;
    ``resume`` without out_path raises ValueError.  The sorted record
    order keeps two runs with identical parameters, resumed or not,
    byte-identical except for the wall-time column.  An out_path
    that cannot be opened for writing raises OSError before any datum is
    classified.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if resume and out_path is None:
        raise ValueError("resume needs an output file to read and rewrite")
    done: dict[BranchDatum, CatalogRecord] = {}
    if resume:
        try:
            done = _load_existing(out_path)
        except FileNotFoundError:
            pass
    if out_path is not None:
        open(out_path, "a", encoding="utf-8").close()
    todo = [
        datum
        for d in range(2, d_max + 1)
        for datum in enumerate_compatible(d, range(0, n_max + 1))
        if datum not in done
    ]
    if workers > 1:
        # imported here: concurrent.futures.process would add about 30 ms
        # to every import of the package
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            fresh = list(pool.map(_classify_record, todo, repeat(budget), chunksize=8))
    else:
        fresh = [_classify_record(datum, budget) for datum in todo]

    unsorted = [*done.values(), *fresh]
    lines = [record.line() for record in unsorted]
    # a line starts with its datum text, and no datum text is a prefix of
    # another (each ends in its only "]"), so this orders by datum text
    order = sorted(
        range(len(unsorted)),
        key=lambda i: (unsorted[i].datum.degree, unsorted[i].datum.n, lines[i]),
    )
    records = [unsorted[i] for i in order]

    if out_path is not None:
        from . import __version__

        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f"# hurwitz-catalog v{__version__}\n")
            fh.write("# columns: " + "\t".join(CATALOG_COLUMNS) + "\n")
            for i in order:
                fh.write(lines[i] + "\n")
            for s in summary_lines(records):
                fh.write(s + "\n")
    return records


def read_catalog(path: str) -> list[CatalogRecord]:
    return list(_load_existing(path).values())
