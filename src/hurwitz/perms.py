"""Permutations of {1..d} stored as 0-indexed image tuples.

Composition convention, fixed once for the whole package: the right
factor acts first, ``compose(a, b)(x) == a(b(x))``.  Cycle notation for
I/O is 1-based, e.g. ``(1 2 3 4)(5 6)``, fixed points omitted, ``()``
for the identity.
"""

from __future__ import annotations

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


def is_transitive(gens: Sequence[Perm], degree: int) -> bool:
    """Orbit closure of 0 under the generated group covers {0..d-1}."""
    return degree <= 1 or orbit_count(gens, degree) == 1


def orbit_count(gens: Sequence[Perm], degree: int) -> int:
    """The number of orbits of the group gens generate on {0..d-1}; of
    one permutation, its number of cycles."""
    seen = bytearray(degree)
    count = 0
    for s in range(degree):
        if seen[s]:
            continue
        count += 1
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for g in gens:
                y = g[x]
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return count


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


def class_rows(
    t: tuple[int, ...], anchor: tuple[int, ...] | None, chunk: int
) -> Iterator[bytearray]:
    """The permutations of cycle type t, 1 <= d = sum(t) <= 256, in class
    order, as bytearrays of at most ``chunk`` rows of d image bytes; with
    an anchor cycle type, only the rows that pass its stabilizer rule.

    Class order reads a row cycle by cycle, each from its opening point
    a, the least point not yet read, through sigma(a), sigma^2(a), ...:
    a's cycle length is chosen longest first, and each point read in
    increasing order.  With the anchor's cycles laid out as in
    class_representative, a point q read passes the rule when it is at
    most the first point of the lowest untouched anchor cycle of its
    length (bound); touching that cycle moves the bound on by the
    length.  An opening point always passes, and without an anchor so
    does every point.  The realizer docstring proves that the rule keeps
    every orbit's first row under the anchor's centralizer.
    """
    d = sum(t)
    group, bound, step = [0] * d, [d], [0]  # group: per point, its length's index
    if anchor is not None:
        group, bound, step = [], [], []
        for ln, k in sorted(Counter(anchor).items(), reverse=True):
            bound.append(len(group))
            group += [len(step)] * (k * ln)
            step.append(ln)
    counts = Counter(t)
    lengths = sorted(counts, reverse=True)
    images = [0] * d  # of the points read, all but the last one's
    rows = bytearray()  # rows read, not yet yielded

    def read(a: int, p: int, r: int, left: int, unused: list[int]) -> Iterator[bytearray]:
        # a: the open cycle's opening point, p: its last point read, r: its
        # points left to read, left: the points of the cycles not yet opened
        nonlocal rows
        if r:
            for i, q in enumerate(unused):
                g = group[q]
                if q > bound[g]:
                    continue
                fresh = q == bound[g]  # q touches the next anchor cycle
                if fresh:
                    bound[g] += step[g]
                images[p] = q
                yield from read(a, q, r - 1, left, unused[:i] + unused[i + 1 :])
                if fresh:
                    bound[g] -= step[g]
            return
        images[p] = a  # the cycle closes
        if not left:
            rows.extend(images)
            if len(rows) == chunk * d:
                yield rows
                rows = bytearray()
            return
        a = unused[0]
        g = group[a]
        fresh = a == bound[g]
        if fresh:
            bound[g] += step[g]
        for ln in lengths:
            if counts[ln]:
                counts[ln] -= 1
                yield from read(a, a, ln - 1, left - ln, unused[1:])
                counts[ln] += 1
        if fresh:
            bound[g] -= step[g]

    # a closed cycle through 0, rewritten when 0 opens the first cycle
    yield from read(0, 0, 0, d, list(range(d)))
    if rows:
        yield rows


def class_iterator(t: tuple[int, ...]) -> Iterator[Perm]:
    """Every permutation of cycle type t exactly once, in class order
    (class_rows); for t = () the empty permutation, once."""
    if not t:
        yield ()
        return
    for rows in class_rows(t, None, 4096):
        yield from zip(*[iter(rows)] * sum(t))


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
