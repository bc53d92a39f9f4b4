"""Permutations of {1..d} stored as 0-indexed image tuples.

Composition convention, fixed once for the whole package: the right
factor acts first, ``compose(a, b)(x) == a(b(x))``.  Cycle notation for
I/O is 1-based, e.g. ``(1 2 3 4)(5 6)``, fixed points omitted, ``()``
for the identity.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Sequence

Perm = tuple[int, ...]


def identity(d: int) -> Perm:
    return tuple(range(d))


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: result(x) = a(b(x))."""
    if len(a) != len(b):
        raise ValueError("degree mismatch")
    return tuple(a[x] for x in b)


def inverse(p: Perm) -> Perm:
    q = [0] * len(p)
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


def conjugate(p: Perm, g: Perm) -> Perm:
    """g o p o g^-1, i.e. p relabelled through g."""
    q = [0] * len(p)
    for i, gi in enumerate(g):
        q[gi] = g[p[i]]
    return tuple(q)


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles, fixed points included, each starting at its
    smallest element, ordered by that element."""
    seen = bytearray(len(p))
    out = []
    for i in range(len(p)):
        if not seen[i]:
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = 1
                cyc.append(j)
                j = p[j]
            out.append(tuple(cyc))
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """The cycle lengths of p, non-increasing, in one pass over a copy of
    p: each cycle is walked from its first point, and the points the walk
    reaches are marked with -1 so that the pass skips them."""
    q = list(p)
    out = []
    for i, j in enumerate(q):  # the iterator sees the -1 marks
        if j < 0:
            continue
        ln = 1
        while j != i:
            q[j], j = -1, q[j]
            ln += 1
        out.append(ln)
    out.sort(reverse=True)
    return tuple(out)


def cycle_count(p: Perm) -> int:
    seen = bytearray(len(p))
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = p[j]
    return count


def is_transitive(gens: Sequence[Perm], degree: int) -> bool:
    """Orbit closure of 0 under the generated group covers {0..d-1}."""
    if degree <= 1:
        return True
    if not gens:
        return False
    seen = bytearray(degree)
    seen[0] = 1
    stack = [0]
    found = 1
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not seen[y]:
                seen[y] = 1
                found += 1
                stack.append(y)
    return found == degree


@lru_cache(maxsize=None)
def class_size(t: tuple[int, ...]) -> int:
    """Size of the conjugacy class with cycle type t."""
    d = sum(t)
    denom = 1
    for ln, c in Counter(t).items():
        denom *= (ln ** c) * factorial(c)
    return factorial(d) // denom


@lru_cache(maxsize=None)
def class_representative(t: tuple[int, ...]) -> Perm:
    """The permutation whose cycles are consecutive blocks (1..t1)(..)..."""
    images = []
    start = 0
    for ln in sorted(t, reverse=True):
        images.extend(range(start + 1, start + ln))
        images.append(start)
        start += ln
    return tuple(images)


def class_iterator(t: tuple[int, ...]) -> Iterator[Perm]:
    """Stream every permutation of cycle type t exactly once.

    Cycles are assigned by backtracking, always anchoring the next cycle
    at the smallest unused point; equal cycle lengths are tried once per
    anchor, which dedups without hashing.
    """
    d = sum(t)
    counts = Counter(t)
    lengths = sorted(counts, reverse=True)
    images = [0] * d
    used = bytearray(d)

    def rec(remaining: int) -> Iterator[Perm]:
        if remaining == 0:
            yield tuple(images)
            return
        a = used.index(0)
        used[a] = 1
        for ln in lengths:
            if counts[ln] == 0:
                continue
            counts[ln] -= 1
            pool = [i for i in range(d) if not used[i]]
            for rest in itertools.permutations(pool, ln - 1):
                prev = a
                for x in rest:
                    images[prev] = x
                    used[x] = 1
                    prev = x
                images[prev] = a
                yield from rec(remaining - ln)
                for x in rest:
                    used[x] = 0
            counts[ln] += 1
        used[a] = 0

    return rec(d)


def centralizer_generators(t: tuple[int, ...]) -> list[Perm]:
    """Generators of the centralizer of class_representative(t), the
    product over cycle lengths l of C_l wr S_k, k the number of l-cycles:
    per length a rotation of its first cycle (l > 1), a swap of its first
    two cycles (k >= 2) and a cyclic shift of all k cycles (k >= 3)."""
    d = sum(t)
    gens: list[Perm] = []
    start = 0
    for ln, k in sorted(Counter(t).items(), reverse=True):
        end = start + k * ln
        pts = list(range(start, end))  # the k cycles of length ln, in turn
        moved = []
        if ln > 1:
            moved.append(pts[1:ln] + pts[:1] + pts[ln:])
        if k >= 2:
            moved.append(pts[ln:2 * ln] + pts[:ln] + pts[2 * ln:])
        if k >= 3:
            moved.append(pts[ln:] + pts[:ln])
        gens += [(*range(start), *images, *range(end, d)) for images in moved]
        start = end
    return gens


def random_permutation(d: int, rng) -> Perm:
    images = list(range(d))
    rng.shuffle(images)
    return tuple(images)


def format_cycles(p: Perm) -> str:
    """The 1-based cycle notation of p, cycles in the order of cycles(p),
    fixed points left out, each cycle's string built in one pass."""
    seen = bytearray(len(p))
    parts = []
    for i, j in enumerate(p):
        if j == i or seen[i]:
            continue
        cyc = [i + 1]
        while j != i:
            seen[j] = 1
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) or "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(s: str, degree: int) -> Perm:
    """Parse 1-based cycle notation into an image tuple of given degree."""
    s = s.strip()
    if not re.fullmatch(r"(\([^()]*\))*", s):
        raise ValueError(f"bad cycle notation: {s!r}")
    images = list(range(degree))
    touched = bytearray(degree)
    for grp in _CYCLE_RE.findall(s):
        entries = [int(x) - 1 for x in grp.split()] if grp.strip() else []
        for x in entries:
            if not 0 <= x < degree:
                raise ValueError(f"point {x + 1} out of range 1..{degree}")
            if touched[x]:
                raise ValueError(f"point {x + 1} appears twice")
            touched[x] = 1
        for i, x in enumerate(entries):
            images[x] = entries[(i + 1) % len(entries)]
    return tuple(images)


def product(perms: Iterable[Perm], d: int) -> Perm:
    """compose(p1, compose(p2, ...)): the last factor acts first."""
    out = identity(d)
    for p in perms:
        out = compose(out, p)
    return out
