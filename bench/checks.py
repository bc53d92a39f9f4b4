"""Correctness checks for benchmark outputs, written apart from the package.

Nothing here calls ``verify_witness`` or the package's permutation
helpers: a witness is re-verified from its tuple (or its 1-based cycle
text) with the small routines below, so a bug shared by the engine and
its own verifier cannot pass unnoticed.

Verdict kinds are judged against a committed reference
(``bench/reference/<workload>.json``): a datum is exceptional exactly when
the reference lists it, and any other kind, ``unknown`` included, is a
failure.  Provenance tags and witnesses are compared too, but a changed tag
or a different valid witness is only counted, never a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
import zlib
from collections import Counter
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_DATUM_RE = re.compile(r"d=(\d+) cover=\S+ base=\S+ parts=\[([0-9,|]*)\]")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
NO_WITNESS = "-"


# -- permutations: 0-indexed image tuples, compose(a, b)(x) = a(b(x)) -----

def compose(a, b):
    return tuple(a[x] for x in b)


def inverse(p):
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def cycle_type(p):
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            ln, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                ln += 1
            out.append(ln)
    return tuple(sorted(out, reverse=True))


def transitive(gens, d):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return len(seen) == d


def canonical_tuple(gens):
    """The tuple relabelled by breadth-first numbering from each start
    point, minimised over the starts; None for an intransitive tuple.  Two
    transitive tuples get the same value exactly when they are
    simultaneous conjugates."""
    d = len(gens[0])
    best = None
    for s in range(d):
        num = {s: 0}
        order = [s]
        for x in order:
            for g in gens:
                if g[x] not in num:
                    num[g[x]] = len(order)
                    order.append(g[x])
        if len(order) < d:
            return None
        form = tuple(tuple(num[g[order[i]]] for i in range(d)) for g in gens)
        if best is None or form < best:
            best = form
    return best


def is_permutation(p, d):
    return len(p) == d and sorted(p) == list(range(d))


def product(taus, d):
    """taus[0] o taus[1] o ...: the last factor acts first."""
    acc = tuple(range(d))
    for t in taus:
        acc = compose(acc, t)
    return acc


def product_is_identity(taus, d):
    return product(taus, d) == tuple(range(d))


def format_witness(taus) -> str:
    """1-based cycles, each from its smallest point, ordered by it;
    tuples joined by ';' -- the catalog's witness column."""
    out = []
    for p in taus:
        seen = [False] * len(p)
        cycs = []
        for i in range(len(p)):
            if seen[i]:
                continue
            cyc, j = [], i
            while not seen[j]:
                seen[j] = True
                cyc.append(j + 1)
                j = p[j]
            if len(cyc) > 1:
                cycs.append("(" + " ".join(map(str, cyc)) + ")")
        out.append("".join(cycs) or "()")
    return ";".join(out)


def parse_witness(text: str, d: int):
    """Inverse of format_witness; raises ValueError on malformed text."""
    taus = []
    for chunk in text.split(";"):
        if not re.fullmatch(r"(\([0-9 ]*\))+", chunk):
            raise ValueError(f"bad cycle text {chunk!r}")
        images = list(range(d))
        for grp in _CYCLE_RE.findall(chunk):
            pts = [int(x) - 1 for x in grp.split()]
            for i, x in enumerate(pts):
                if not 0 <= x < d:
                    raise ValueError(f"point {x + 1} out of range")
                images[x] = pts[(i + 1) % len(pts)]
        taus.append(tuple(images))
    return taus


def datum_shape(line: str):
    """(degree, sorted partitions) read straight from a datum line."""
    m = _DATUM_RE.fullmatch(line)
    if m is None:
        raise ValueError(f"bad datum line {line!r}")
    parts = [tuple(int(x) for x in grp.split(",")) for grp in m.group(2).split("|")]
    return int(m.group(1)), sorted(tuple(sorted(p, reverse=True)) for p in parts)


def witness_problem(line: str, taus) -> str | None:
    """Why taus fails to witness the datum line, or None when it does:
    permutations of the right degree, one per branching point, product
    the identity, transitive action, cycle types matching the datum."""
    d, want = datum_shape(line)
    if len(taus) != len(want):
        return "wrong number of permutations"
    if not all(is_permutation(t, d) for t in taus):
        return "entry is not a permutation of the right degree"
    if not product_is_identity(taus, d):
        return "product is not the identity"
    if not transitive(taus, d):
        return "action is not transitive"
    if sorted(cycle_type(t) for t in taus) != want:
        return "cycle types do not match the datum"
    return None


def witness_crc(text: str) -> str:
    """One character standing for a witness text ('-' for none); equal
    witnesses give equal characters, different ones differ 63 times in 64."""
    if not text:
        return NO_WITNESS
    return _B64[zlib.crc32(text.encode()) & 63]


# -- reference verdicts ---------------------------------------------------

def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def data_digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def build_reference(workload: str, outcomes: dict[str, tuple[str, str, str]]) -> dict:
    """Reference document from {datum line: (kind, tag, witness text)}."""
    lines = sorted(outcomes)
    vocab = sorted({outcomes[x][1] for x in lines})
    if len(vocab) > len(_B64):
        raise ValueError("too many distinct tags for one-character codes")
    tags = "".join(_B64[vocab.index(outcomes[x][1])] for x in lines)
    crcs = "".join(witness_crc(outcomes[x][2]) for x in lines)
    verdicts = Counter(kind for kind, _, _ in outcomes.values())
    return {
        "workload": workload,
        "records": len(lines),
        "data_sha256": data_digest(lines),
        "verdicts": dict(sorted(verdicts.items())),
        "exceptional": [x for x in lines if outcomes[x][0] == "exceptional"],
        "tag_vocab": vocab,
        "tags": [tags[i : i + 100] for i in range(0, len(tags), 100)],
        "witness_crc": [crcs[i : i + 100] for i in range(0, len(crcs), 100)],
    }


def check_verdicts(ref: dict, outcomes: dict[str, tuple[str, str, object]], items: int) -> dict:
    """Judge one run's outcomes against a reference document.

    outcomes maps datum line -> (kind, tag, witness), the witness being a
    tuple of permutations, a cycle text, or None; items is the number of
    outcomes the program produced, so a datum it produced twice, which
    the mapping holds once, fails the run.  A datum fails when its kind
    differs from the reference or its witness does not verify.  A data set
    that differs from the reference's fails once for that, and once more
    per reference-exceptional datum it lacks.  Tags and witnesses are
    compared by their reference codes and only counted.
    """
    exceptional = set(ref["exceptional"])
    failures: list[str] = []
    for line, (kind, _, witness) in outcomes.items():
        want = "exceptional" if line in exceptional else "realizable"
        problem = None
        if kind != want:
            problem = f"verdict {kind}, reference {want}"
        elif witness:
            try:
                taus = parse_witness(witness, datum_shape(line)[0]) if isinstance(witness, str) else witness
                problem = witness_problem(line, list(taus))
            except ValueError as exc:
                problem = str(exc)
            if problem:
                problem = "witness: " + problem
        if problem:
            failures.append(f"{line}: {problem}")
    if items != len(outcomes):
        failures.append(f"{items} outcomes for {len(outcomes)} distinct data: a datum repeats")
    tags_changed = witnesses_changed = 0
    if data_digest(outcomes) == ref["data_sha256"]:
        tags = "".join(ref["tags"])
        crcs = "".join(ref["witness_crc"])
        for i, line in enumerate(sorted(outcomes)):
            _, tag, witness = outcomes[line]
            if ref["tag_vocab"][_B64.index(tags[i])] != tag:
                tags_changed += 1
            text = witness if isinstance(witness, str) or not witness else format_witness(witness)
            if witness_crc(text) != crcs[i]:
                witnesses_changed += 1
    else:
        failures.append(
            f"data set differs from the reference: {len(outcomes)} records, "
            f"reference {ref['records']}"
        )
        failures.extend(f"{x}: missing" for x in sorted(exceptional - outcomes.keys()))
    return {
        "failures": failures,
        "tags_changed": tags_changed,
        "witnesses_changed": witnesses_changed,
    }
