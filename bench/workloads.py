"""The benchmark's workloads: seeded inputs, the timed call, the checks.

Each workload is closed-loop from one process: the next call starts when
the previous one returns.  ``setup`` builds the inputs from the seed (the
program sees only those), ``run`` is the timed part and returns what the
program produced, ticking the host clock (hostclock.py) after each item,
and ``check`` judges it afterwards.  Only public entry points are called,
always through their module attribute, so a traced run can wrap them.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter

from hurwitz import blocks, catalog, criteria, dessin
from hurwitz.core import SPHERE, BranchDatum, Partition, Surface, format_datum
from hurwitz.realizer import Realization

import checks

WITNESS_DEGREES = range(6, 13)
WITNESS_POINTS = range(3, 6)
WITNESS_PER_CELL = 100  # tuples per (degree, point count); odd slots are imprimitive


def proper_divisors(d: int) -> list[int]:
    return [k for k in range(2, d) if d % k == 0]


# -- catalog workloads ----------------------------------------------------

class Catalog:
    """run_catalog into a fresh TSV, then every record and every file line
    is checked against the reference verdicts.  Each record's latency is
    timed here, around the catalog's call of ``classify``, not read from
    the record's own ``ms`` column."""

    def __init__(self, name: str, d_max: int, n_max: int):
        self.name, self.d_max, self.n_max = name, d_max, n_max

    def setup(self, seed: int, workdir: str):
        # the catalog takes no seeded input: its data set is the workload
        return os.path.join(workdir, f"{self.name}.tsv")

    def run(self, path, host):
        ms = []
        inner = catalog.classify
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                ms.append((clock() - t0) * 1000.0)
                host.tick(len(ms))

        catalog.classify = timed
        try:
            records = catalog.run_catalog(self.d_max, self.n_max, out_path=path, workers=1)
        finally:
            catalog.classify = inner
        if len(ms) != len(records):  # the catalog no longer calls catalog.classify
            ms = [r.millis for r in records]
        return records, ms

    def check(self, path, records) -> dict:
        outcomes = {
            format_datum(r.datum): (r.verdict, r.tag, r.witness or None) for r in records
        }
        result = checks.check_verdicts(checks.load_reference(self.name), outcomes, len(records))
        result["failures"].extend(_tsv_problems(path, records))
        result["attempted"] = len(records)
        result["counts"] = _counts(
            (r.verdict, r.tag, r.nodes) for r in records
        )
        return result


def _tsv_problems(path: str, records) -> list[str]:
    """The file must hold exactly one line per record, agreeing with it,
    and the footer total."""
    want = {
        format_datum(r.datum): (r.verdict.upper(), r.tag, r.witness or checks.NO_WITNESS, str(r.nodes))
        for r in records
    }
    problems = []
    seen = 0
    footer = False
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.rstrip("\n")
            if raw.startswith("#"):
                footer |= raw == f"# total={len(records)}"
                continue
            cols = raw.split("\t")
            seen += 1
            if len(cols) != 6 or want.get(cols[0]) != tuple(cols[1:5]):
                problems.append(f"catalog line disagrees with its record: {raw[:80]}")
    if seen != len(records):
        problems.append(f"catalog file has {seen} record lines for {len(records)} records")
    if not footer:
        problems.append("catalog footer total missing or wrong")
    return problems


def _counts(rows) -> dict:
    """Exact counts that must repeat run to run: nodes and verdicts."""
    verdicts: Counter = Counter()
    nodes = 0
    for kind, tag, n in rows:
        verdicts[kind] += 1
        if tag.startswith("search-"):
            verdicts[tag.split("+")[0]] += 1
        nodes += n
    return {"nodes": nodes, "verdicts": dict(sorted(verdicts.items()))}


# -- hard single data -----------------------------------------------------

class Walks:
    """classify once per compatible d=12, n=3 sphere datum with a
    (3,3,3,3) point, in seed-shuffled order."""

    name = "walks-d12"

    def setup(self, seed: int, workdir: str):
        data = [
            x for x in catalog.enumerate_compatible(12, [3])
            if any(p.parts == (3, 3, 3, 3) for p in x.partitions)
        ]
        random.Random(seed).shuffle(data)
        return data

    def run(self, data, host):
        out, ms = [], []
        clock = time.perf_counter
        for datum in data:
            t0 = clock()
            verdict = criteria.classify(datum)
            ms.append((clock() - t0) * 1000.0)
            out.append(verdict)
            host.tick(len(ms))
        return out, ms

    def check(self, data, verdicts) -> dict:
        outcomes = {
            format_datum(x): (v.kind, v.provenance, v.witness.taus if v.witness else None)
            for x, v in zip(data, verdicts)
        }
        result = checks.check_verdicts(checks.load_reference(self.name), outcomes, len(data))
        result["attempted"] = len(data)
        result["counts"] = _counts((v.kind, v.provenance, v.nodes) for v in verdicts)
        return result


# -- witness analysis -----------------------------------------------------

def random_tuple(rng: random.Random, d: int, n: int, k: int | None):
    """n permutations of {0..d-1} with identity product, no identity
    entry and transitive action.  With k, all lie in a conjugate of the
    wreath product S_k wr S_{d/k}, so a block system of order k exists."""
    ident = tuple(range(d))
    while True:
        gens = [_random_element(rng, d, k) for _ in range(n - 1)]
        taus = (*gens, checks.inverse(checks.product(gens, d)))
        if ident in taus or not checks.transitive(taus, d):
            continue
        relabel = list(range(d))
        rng.shuffle(relabel)
        back = checks.inverse(relabel)
        return tuple(checks.compose(relabel, checks.compose(t, back)) for t in taus)


def _random_element(rng: random.Random, d: int, k: int | None):
    if k is None:
        images = list(range(d))
        rng.shuffle(images)
        return tuple(images)
    m = d // k
    sigma = list(range(m))
    rng.shuffle(sigma)
    images = [0] * d
    for b in range(m):
        inner = list(range(k))
        rng.shuffle(inner)
        for a in range(k):
            images[b * k + a] = sigma[b] * k + inner[a]
    return tuple(images)


def datum_of(taus) -> BranchDatum:
    """The sphere datum a tuple witnesses; the cover's genus follows from
    the Riemann-Hurwitz count."""
    d = len(taus[0])
    types = [checks.cycle_type(t) for t in taus]
    chi = 2 * d - sum(d - len(t) for t in types)
    return BranchDatum(Surface(True, (2 - chi) // 2), SPHERE, d, tuple(Partition(t) for t in types))


def witness_inputs(seed: int):
    """A fixed number of tuples per (degree, point count) cell, so seeds
    differ only in the permutations drawn; in every cell of composite
    degree half the tuples are imprimitive, cycling through the
    divisors."""
    rng = random.Random(seed)
    items = []
    for d in WITNESS_DEGREES:
        ks = proper_divisors(d)
        for n in WITNESS_POINTS:
            for slot in range(WITNESS_PER_CELL):
                k = ks[(slot // 2) % len(ks)] if ks and slot % 2 else None
                taus = random_tuple(rng, d, n, k)
                items.append((taus, k, datum_of(taus)))
    return items


class Witness:
    """Dessin round trip, canonical forms, coloring and block systems on
    seeded witness tuples; the search is never called."""

    name = "witness"

    def setup(self, seed: int, workdir: str):
        return witness_inputs(seed)

    def run(self, items, host):
        out, ms = [], []
        clock = time.perf_counter
        for taus, _, datum in items:
            t0 = clock()
            try:
                res = analyse(taus, datum)
            except Exception as exc:  # a crash on one tuple is that tuple's failure
                res = exc
            ms.append((clock() - t0) * 1000.0)
            out.append(res)
            host.tick(len(ms))
        return out, ms

    def check(self, items, results) -> dict:
        failures = []
        found = tried = 0
        for (taus, k, datum), res in zip(items, results):
            problems = (
                [f"raised {res!r}"] if isinstance(res, Exception)
                else analysis_problems(taus, k, datum, res)
            )
            if problems:
                failures.append(
                    f"{format_datum(datum)} {checks.format_witness(taus)}: " + "; ".join(problems)
                )
            if not isinstance(res, Exception):
                tried += len(res["blocks"])
                found += sum(1 for b in res["blocks"].values() if b is not None)
        failures.extend(form_class_problems(items, results))
        return {
            "failures": failures,
            "attempted": len(items),
            "tags_changed": 0,
            "witnesses_changed": 0,
            "counts": {"tuples": len(items), "block_systems_found": found, "block_queries": tried},
        }


def analyse(taus, datum) -> dict:
    d = len(taus[0])
    dsn = dessin.dessin_from_permutations(taus[:-1])
    valid = dessin.validate_against_datum(dsn, datum)
    back = dessin.permutations_from_dessin(dsn)
    again = dessin.dessin_from_permutations(back)
    form = dessin.canonical_form(dsn)
    forms_equal = form == dessin.canonical_form(again)
    coloring = None
    if datum.cover == SPHERE:
        coloring = dessin.checkerboard_coloring(dsn)
    found = {}
    for k in proper_divisors(d):
        bd = blocks.find_block_decomposition(list(taus), k)
        if bd is not None:
            found[k] = (bd, blocks.factor_covering(datum, Realization(d, taus), bd))
        else:
            found[k] = None
    return {
        "dessin": dsn, "valid": valid, "back": back,
        "form": form, "forms_equal": forms_equal, "coloring": coloring, "blocks": found,
    }


def analysis_problems(taus, k, datum, res) -> list[str]:
    d = len(taus[0])
    dsn, back = res["dessin"], res["back"]
    problems = []
    if not res["valid"]:
        problems.append("dessin does not validate against its datum")
    if len(back) != len(taus) - 1 or not all(checks.is_permutation(t, d) for t in back):
        problems.append("round trip did not return n-1 permutations")
    elif checks.canonical_tuple(back) != checks.canonical_tuple(taus[:-1]):
        # a simultaneous conjugate keeps every cycle type; anything else is wrong
        problems.append("round trip is not a relabelling of the tuple")
    if not res["forms_equal"]:
        problems.append("canonical form changed over the round trip")
    if datum.cover == SPHERE:
        problems.extend(_coloring_problems(dsn, res["coloring"]))
    for size, entry in res["blocks"].items():
        if entry is None:
            if size == k:
                problems.append(f"no block system of order {k} in an imprimitive group")
            continue
        bd, (inner, outer) = entry
        if bd.size != size or not preserved(bd.assignment, taus, size):
            problems.append(f"block system of order {size} is not preserved")
        if inner.degree != size or outer.degree != d // size or inner.base != outer.cover:
            problems.append(f"factorization through order {size} is inconsistent")
    return problems


def form_class_problems(items, results) -> list[str]:
    """Across all tuples of the run, two dessins must get the same
    canonical form exactly when their tuples are simultaneous conjugates,
    judged by checks.canonical_tuple; a form that loses information, or
    one that depends on labels, fails here."""
    classes: dict[object, set] = {}
    forms_of: dict[object, set] = {}
    for (taus, _, _), res in zip(items, results):
        if isinstance(res, Exception):
            continue
        ours = checks.canonical_tuple(taus[:-1])
        classes.setdefault(res["form"], set()).add(ours)
        forms_of.setdefault(ours, set()).add(res["form"])
    merged = sum(len(c) - 1 for c in classes.values())
    split = sum(len(f) - 1 for f in forms_of.values())
    problems = []
    if merged:
        problems.append(f"canonical form: {merged} non-conjugate tuples share a form")
    if split:
        problems.append(f"canonical form: {split} conjugate tuples got different forms")
    return problems


def preserved(assignment, taus, size) -> bool:
    d = len(assignment)
    if sorted(Counter(assignment).values()) != [size] * (d // size):
        return False
    for t in taus:
        image_of_block = {}
        for x in range(d):
            b, c = assignment[x], assignment[t[x]]
            if image_of_block.setdefault(b, c) != c:
                return False
    return True


def _coloring_problems(dsn, coloring) -> list[str]:
    if any(len(rot) % 2 for rot in dsn.rotations):
        return [] if coloring is None else ["coloring returned despite an odd valence"]
    if coloring is None:
        return ["no coloring for an even-valence sphere dessin"]
    face_of = {dart: f for f, walk in enumerate(dsn.faces) for dart in walk}
    if any(coloring[face_of[x]] == coloring[face_of[x ^ 1]] for x in face_of):
        return ["an edge does not separate the two colors"]
    return []


WORKLOADS = {
    "catalog-d8n5": Catalog("catalog-d8n5", 8, 5),
    "catalog-d10n3": Catalog("catalog-d10n3", 10, 3),
    "walks-d12": Walks(),
    "witness": Witness(),
}
