"""Exhaustive realizability search over the sphere as base surface.

The sphere is the only base searched here: data over the projective
plane with orientable cover reach it through blocks.reduce_projective,
and every other base is settled by the rules in criteria.

A datum is realizable iff there are permutations tau_1..tau_n, one per
branching partition, with the prescribed cycle types, product equal to
the identity (right factor acting first), and transitive joint action.
The search anchors tau_1 to the canonical representative of the class
with the fewest elements -- simultaneous conjugation of a whole tuple
preserves every constraint, so nothing is lost -- and walks the other
classes depth-first, smallest first, with the last class never
enumerated: the product's cycle type is compared against it directly.

Pruning, all of it certificate-preserving:

* the second permutation ranges over orbit representatives of its class
  under conjugation by the centralizer C of the anchored tau_1 when the
  class has at most _REDUCTION_LIMIT elements, and over the class's
  stabilizer-least rows (below) when it has more;
* a partial product pi must stay within transposition distance of what
  the remaining classes can still contribute; sign is a homomorphism
  and compatibility condition 2 makes the parity always match;
* the orbit partition of the placed generators must be mergeable into
  one orbit by the cycles the remaining enumerated classes can offer.

Stabilizer-least rows.  A row sigma is read in class order (see
perms.class_rows): from each cycle's opening point a, the least point
not yet read, to the cycle's close.  sigma is kept when every point
q read that is not an opening point is the least of its orbit under
the pointwise stabilizer, in C, of the points read before it.  C is
the product over the anchor's cycle lengths l of C_l wr S_k, so that
stabilizer fixes each anchor cycle holding a read point and moves the
other cycles of each length among themselves freely: q passes exactly
when its anchor cycle already holds a read point, or q is the first
point of the lowest-numbered anchor cycle of its length that holds
none.  If sigma fails at q, take g in that stabilizer with g(q) < q.
g sigma g^-1 agrees with sigma on the points read before q, but for
the last of them, which it maps to g(q) in place of q; its earlier
cycles are sigma's, and its cycle through the open cycle's opening
point is as long as sigma's.  So it comes earlier in class order, and
sigma is not the first row of its orbit.  Hence every orbit's first
row is kept, and the kept rows are a class-order superset of the
orbit representatives.  Conjugating a whole tuple by an element of C
keeps tau_1 and every condition of the walk, so the first row with a
witness below it is its orbit's first: the walk finds the same first
witness, and a walk without one still certifies exhaustion, at far
fewer nodes (the (3,3,3,3)-anchored d = 12 data: 251,328-318,087 nodes
down to 7,072-8,412).

Budgets count visited candidates, each charged as it is visited, so a
search that reports N nodes returns the same result with budget N and
BUDGET_EXCEEDED with N - 1.  Only a completed walk certifies
exceptionality; a randomized witness hunt runs first whenever the
remaining classes are too large to walk cheaply, so oversized realizable
data still produce witnesses.  The hunt's relabellings come from one
uint8 draw table per degree, drawn from one Random(_SEED) kept per
degree and grown to exactly the rows a hunt asks for, at most the
_HUNT_MAX x len(middle) rows of the longest hunt.  Attempt a always
reads the same rows, so outcomes, witnesses and node counts do not
depend on call order or on how far a table has grown.  The first
_HUNT_PY (32) attempts are checked in Python, where most hunts hit;
later ones in numpy chunks that conjugate and compose the whole chunk,
drop rows by the fixed points of the product's powers, and test
transitivity on the survivors in attempt order.  Since the table is
fixed, the Python attempts memoize their conjugates per cycle type t and
row index i (_conjugates): a datum's hunt reuses what the hunts of other
data with a class of type t built at row i.  Only the rows of the Python
attempts, at most _HUNT_PY x len(middle) per hunt, are ever stored, so
the memo holds at most that many entries per type.

Classes come from one vectorised numpy enumerator, _class_chunks, as
uint8 image rows in class order, at most _CHUNK rows at a time, and
the stabilizer-least rows from perms.class_rows, read point by point in
Python, in chunks of the same bound.  A class is
cached per cycle type as one array when it takes at most _CACHE_BYTES
(16 MiB, that is class size times degree bytes); orbit reduction, at
every degree up to 256, selects rows of that array.  Both tables, per
type and per (anchor, type), are unbounded lru_caches.  A larger class,
and the stabilizer-least rows of a second class above _REDUCTION_LIMIT,
are streamed chunk by chunk on every visit.  A witness is checked by
verify_witness before it is returned, also under ``python -O``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache, partial
from math import prod
from typing import Iterator

import numpy as np

from .core import SPHERE, BranchDatum, check_compatibility
# class_iterator is not called here; it stays bound in this module only
# because bench/tracer.py hooks hurwitz.realizer.class_iterator
from .perms import (
    Perm,
    class_iterator,  # noqa: F401
    class_rows,
    class_representative,
    class_size,
    centralizer_generators,
    compose,
    conjugate,
    cycle_count,
    cycle_type,
    identity,
    inverse,
    is_transitive,
    product,
    random_permutation,
)

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10**9

_REDUCTION_LIMIT = 200_000  # max class size for centralizer-orbit reduction
_CACHE_BYTES = 16 << 20     # max bytes (size x degree) of a cached class table
_RANDOM_TRIGGER = 20_000    # remaining-space size that switches the hunt on
# Below this scan length the Python scan is faster, above it numpy: numpy
# alone took the traced scan time from 0.07 to 0.12 s on catalog-d8n5 and
# from 0.14 to 0.28 s on catalog-d10n3, Python alone from 0.42 to 12.1 s
# on walks-d12 (bench/run.py --trace 1, 2-vCPU host).
_NUMPY_MIN = 20_000
_CHUNK = 50_000
_SEED = 0x5EED
_HUNT_MAX = 40_000  # attempts of the longest hunt
# Hunt attempts checked in Python before the numpy chunks: 94% of the
# hunts in the catalogs d<=8, n<=5 and d<=10, n=3 hit within them, and
# numpy from the first attempt made catalog-d8n5 slower.
_HUNT_PY = 32
_HUNT_CHUNK = 4096  # most attempts per numpy chunk, so its arrays stay small


@dataclass(frozen=True, slots=True)
class Realization:
    """A witness tuple: permutations with trivial product, one per
    branching point, generating a transitive group."""

    degree: int
    taus: tuple[Perm, ...]

    @property
    def n(self) -> int:
        return len(self.taus)


@dataclass(frozen=True, slots=True)
class SearchResult:
    status: str
    realization: Realization | None
    nodes: int


class WitnessCheckError(RuntimeError):
    """The search produced a tuple that verify_witness rejects."""


class _OutOfBudget(Exception):
    pass


class _Witness(Exception):
    def __init__(self, taus):
        self.taus = taus


def verify_witness(datum: BranchDatum, realization: Realization) -> bool:
    """Every tau permutes 0..d-1, product is the identity, action
    transitive, cycle types match the datum's partitions as multisets."""
    d = datum.degree
    if realization.degree != d or realization.n != datum.n:
        return False
    taus = realization.taus
    if any(sorted(t) != list(range(d)) for t in taus):
        return False
    if product(taus, d) != identity(d):
        return False
    if not is_transitive(taus, d):
        return False
    got = sorted(cycle_type(t) for t in taus)
    want = sorted(p.parts for p in datum.partitions)
    return got == want


# per degree d: the Random(_SEED) the hunt draws its relabellings from,
# and the uint8 table of the draws so far, row i its i-th
# random_permutation(d, rng)
_draws: dict[int, tuple[random.Random, np.ndarray]] = {}
# per cycle type t, so within one degree's draw table: row index i to
# conjugate(class_representative(t), row i), for the rows that the
# Python attempts read
_conjugates: dict[tuple[int, ...], dict[int, Perm]] = {}


def _class_chunks(t: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Every permutation of cycle type t as uint8 rows, in class order
    (perms.class_rows), in chunks of at most _CHUNK rows.

    Class order closes a first cycle through point 0 for each length,
    longest first, and each ordered choice of its other points, and then
    reads the rest of the class on the unused points, which is the class
    of the remaining type relabelled in increasing order.  So the class
    is the blocks of _cycle_rows, one per length.
    """
    if not t:
        yield np.empty((1, 0), dtype=np.uint8)  # the empty permutation
        return
    for ln in sorted(set(t), reverse=True):
        yield from _cycle_rows(ln, _without(t, ln))


def _without(t: tuple[int, ...], ln: int) -> tuple[int, ...]:
    k = t.index(ln)
    return t[:k] + t[k + 1 :]


def _cycle_rows(ln: int, rest: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The rows of class (ln, *rest) whose cycle through 0 has length ln,
    in class order (perms.class_rows), in chunks of at most _CHUNK rows.

    Each block (choice of the cycle's other points) is class rest
    conjugated by the relabelling g with g(0) = 0, g(1..ln-1) = the
    choice and g(ln..) = the unused points in increasing order.  A rest
    class that fits in one chunk is built once and conjugated by as many
    choices at a time as the chunk holds; a larger one is streamed again
    for each choice.
    """
    d = ln + sum(rest)
    cycle = np.roll(np.arange(ln, dtype=np.uint8), -1)  # (0 1 .. ln-1)
    if class_size(rest) <= _CHUNK:
        es = [_beside_cycle(cycle, np.concatenate(list(_class_chunks(rest))))]
        step = _CHUNK // class_size(rest)
    else:
        es, step = None, 1
    choices = itertools.permutations(range(1, d), ln - 1)
    while batch := list(itertools.islice(choices, step)):
        a = len(batch)
        g = np.zeros((a, d), dtype=np.uint8)
        g[:, 1:ln] = np.array(batch, dtype=np.uint8).reshape(a, ln - 1)
        free = np.ones((a, d), dtype=bool)
        free[np.arange(a)[:, None], g[:, :ln]] = False
        g[:, ln:] = np.nonzero(free)[1].reshape(a, d - ln)
        ginv = np.argsort(g, axis=1).astype(np.uint8)
        for e in es or (_beside_cycle(cycle, sub) for sub in _class_chunks(rest)):
            # row (i, s) is g_i o e_s o g_i^-1, looping over the shorter axis
            block = np.empty((a, len(e), d), dtype=np.uint8)
            if a <= len(e):
                for i in range(a):
                    block[i] = g[i][e[:, ginv[i]]]
            else:
                for s in range(len(e)):
                    block[:, s] = np.take_along_axis(g, e[s][ginv], axis=1)
            yield block.reshape(-1, d)


def _stabilizer_least(t: tuple[int, ...], anchor: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The rows of class t that pass the stabilizer rule of the anchor
    (see the module docstring), in class order, in chunks of at most
    _CHUNK rows: perms.class_rows reads them, and each chunk is one
    array over its bytes."""
    d = sum(t)
    for rows in class_rows(t, anchor, _CHUNK):
        yield np.frombuffer(rows, dtype=np.uint8).reshape(-1, d)


def _beside_cycle(cycle: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Rows of the cycle on 0..ln-1 beside each row of sub moved to ln..d-1."""
    return np.hstack([np.broadcast_to(cycle, (len(sub), len(cycle))), sub + np.uint8(len(cycle))])


def _build_class_list(t: tuple[int, ...]) -> memoryview:
    """Class t as one uint8 table filled from _class_chunks; a memoryview,
    since bench/tracer.py takes the truth value of what this returns."""
    out = np.empty((class_size(t), sum(t)), dtype=np.uint8)
    off = 0
    for chunk in _class_chunks(t):
        out[off : off + len(chunk)] = chunk
        off += len(chunk)
    return memoryview(out)


@lru_cache(maxsize=None)
def _class_table(t: tuple[int, ...]) -> np.ndarray:
    return np.asarray(_build_class_list(t))


@lru_cache(maxsize=None)
def _anchored_reps(anchor: tuple[int, ...], t: tuple[int, ...]) -> np.ndarray:
    """Orbit representatives of class t under conjugation by the
    centralizer of class_representative(anchor): one per orbit, the
    first in canonical class order.  Raises RuntimeError when a
    generator does not commute with that representative: it would merge
    orbits and drop representatives the walk needs."""
    rep = class_representative(anchor)
    zgens = centralizer_generators(anchor)
    if any(conjugate(rep, z) != rep for z in zgens):
        raise RuntimeError("a generator is outside the anchor's centralizer")
    cls = _class_table(t)
    return cls[_orbit_firsts_vectorized(cls, zgens, sum(t))]


def _orbit_firsts_vectorized(cls: np.ndarray, zgens: list[Perm], d: int) -> list[int]:
    """Row indices of the first element of each orbit, ascending.

    Rows are packed into int64 keys of one or more words (_row_keys),
    so each conjugation becomes an index map on the class.  Every row's
    label starts as its own index and takes the minimum with the labels
    of its images under the maps, with pointer jumping, until nothing
    changes.  Each map permutes the rows of an orbit in cycles, so the
    labels are then constant on orbits, and a row keeps its own index
    exactly when it is its orbit's first."""
    n = len(cls)
    keys = _row_keys(cls, d)
    order = _key_order(keys)
    maps = []
    for z in zgens:
        # conjugation permutes the class, so the conjugates' keys sort
        # into the same sequence as the rows' own
        conj_order = _key_order(_row_keys(cls, d, z))
        m = np.empty(n, dtype=np.intp)
        m[conj_order] = order
        maps.append(m)
    label = np.arange(n)
    while True:
        prev = label
        for m in maps:
            label = np.minimum(label, label[m])
        label = label[label]
        if np.array_equal(label, prev):
            break
    return np.flatnonzero(label == np.arange(n)).tolist()


def _row_keys(rows: np.ndarray, d: int, z: Perm | None = None) -> np.ndarray:
    """The base-d digits of each row packed into int64 words, shape
    (words, rows); with z, those of z o row o z^-1, whose digit at z[x]
    is z[row[x]], read off the rows without building the conjugates.  A
    digit is below 2^b, b = (d - 1).bit_length(), so a word of 63 // b
    digits stays non-negative: one word up to d = 15."""
    per_word = 63 // (d - 1).bit_length()
    keys = np.zeros((-(-d // per_word), len(rows)), dtype=np.int64)
    digits = np.array(range(d) if z is None else z, dtype=np.int64)
    for x, c in enumerate(digits.tolist()):
        keys[c // per_word] += (digits * d ** (c % per_word)).take(rows[:, x])
    return keys


def _key_order(keys: np.ndarray) -> np.ndarray:
    # on one word argsort is faster: 5.7 against 15.9 ms on 151,200 keys
    return np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys)


def _orbit_firsts_hashed(cls: np.ndarray, zgens: list[Perm]) -> list[int]:
    """What _orbit_firsts_vectorized returns, by breadth-first search over
    a set of seen tuples: the tests' reference; search does not call it."""
    firsts = []
    seen: set[Perm] = set()
    for i, sigma in enumerate(map(tuple, cls.tolist())):
        if sigma in seen:
            continue
        firsts.append(i)
        seen.add(sigma)
        frontier = [sigma]
        while frontier:
            nxt = []
            for s in frontier:
                for z in zgens:
                    c = conjugate(s, z)
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
    return firsts


def _target_fix_counts(t: tuple[int, ...], d: int) -> list[int]:
    # fix(sigma^j) for j=1..d determines the cycle type and vice versa
    return [sum(ln for ln in t if j % ln == 0) for j in range(1, d + 1)]


class _Budget:
    __slots__ = ("limit", "nodes")

    def __init__(self, limit: int):
        self.limit = limit
        self.nodes = 0

    def spend(self, k: int = 1) -> None:
        if self.nodes + k > self.limit:
            self.nodes = self.limit
            raise _OutOfBudget
        self.nodes += k


def _merge_cycles(parent: list[int], sigma: Perm) -> tuple[list[int], int]:
    """Union the cycles of sigma into a copy of the orbit partition;
    returns (new partition, orbit count)."""
    par = parent[:]

    def find(x: int) -> int:
        while par[x] != x:
            par[x] = par[par[x]]
            x = par[x]
        return x

    for i, v in enumerate(sigma):
        ri, rv = find(i), find(v)
        if ri != rv:
            par[rv] = ri
    count = sum(1 for i in range(len(par)) if find(i) == i)
    return par, count


def _draw_rows(d: int, need: int) -> np.ndarray:
    """The degree-d draw table, grown to at least ``need`` rows: the rows
    it lacks are drawn, in order, into a larger copy."""
    rng, rows = _draws.get(d) or (random.Random(_SEED), np.empty((0, d), dtype=np.uint8))
    if len(rows) < need:
        have = len(rows)
        rows = np.concatenate([rows, np.empty((need - have, d), dtype=np.uint8)])
        for i in range(have, need):
            rows[i] = random_permutation(d, rng)
        _draws[d] = (rng, rows)
    return rows


def _random_hunt(
    d: int,
    tau1: Perm,
    middle: list[tuple[int, ...]],
    target: tuple[int, ...],
    budget: _Budget,
    attempts: int,
) -> tuple[Perm, ...] | None:
    """Attempt a conjugates the class representatives of middle by rows
    a*m .. a*m+m-1 of the degree's draw table (m = len(middle)), composes
    them into tau1 and returns the first tuple whose product closes with
    the target type and acts transitively.  Each attempt costs m nodes,
    up to and including the hit; the first _HUNT_PY attempts are checked
    in Python, the rest in numpy chunks that start small and double."""
    m = len(middle)
    reps = [class_representative(t) for t in middle]
    run = min(attempts, (budget.limit - budget.nodes) // m)  # what the budget affords
    py_end = min(run, _HUNT_PY)
    draws = _draw_rows(d, py_end * m)
    memos = [_conjugates.setdefault(t, {}) for t in middle]
    for a in range(py_end):
        sigmas = []
        pi = tau1
        for j, (rep, memo) in enumerate(zip(reps, memos)):
            i = a * m + j
            s = memo.get(i)
            if s is None:
                s = memo[i] = conjugate(rep, draws[i].tolist())
            sigmas.append(s)
            pi = tuple(map(pi.__getitem__, s))  # compose(pi, s)
        if cycle_type(pi) == target and is_transitive([tau1, *sigmas], d):
            budget.spend((a + 1) * m)
            return (tau1, *sigmas, inverse(pi))
    tau_arr = np.array(tau1, dtype=np.uint8)
    tfix = _target_fix_counts(target, d)
    start = py_end
    while start < run:
        stop = min(run, start + min(max(start, 16), _HUNT_CHUNK))
        g = _draw_rows(d, stop * m)[start * m : stop * m].reshape(stop - start, m, d)
        # sigma = g o rep o g^-1, that is sigma[g[x]] = g[rep[x]]
        sig = np.empty_like(g)
        np.put_along_axis(sig, g, g[:, np.arange(m)[:, None], reps], axis=2)
        pi = tau_arr[sig[:, 0]]
        for j in range(1, m):
            pi = np.take_along_axis(pi, sig[:, j], axis=1)
        for k in _fix_count_survivors(pi, tfix, d).tolist():
            sigmas = list(map(tuple, sig[k].tolist()))
            if is_transitive([tau1, *sigmas], d):
                budget.spend((start + k + 1) * m)
                return (tau1, *sigmas, inverse(tuple(pi[k].tolist())))
        start = stop
    budget.spend(attempts * m)  # raises when the budget ran out first
    return None


def _fix_count_survivors(comp: np.ndarray, tfix: list[int], d: int) -> np.ndarray:
    """Indices, ascending, of the rows of comp whose powers comp^j have
    tfix[j-1] fixed points for j = 1..d, that is the rows of the target
    cycle type; rows that fail a power are dropped before the next one."""
    idx = np.arange(d, dtype=np.uint8)
    cur = comp
    alive = np.arange(len(comp))
    for j in range(1, d + 1):
        if j > 1:
            cur = np.take_along_axis(comp, cur, axis=1)
        keep = np.count_nonzero(cur == idx, axis=1) == tfix[j - 1]
        if not keep.all():
            alive, comp, cur = alive[keep], comp[keep], cur[keep]
            if not len(alive):
                break
    return alive


def _scan_python(source, pi, target, parent, budget, gens_for_transitivity, d):
    for sigma in _perms(source):
        budget.spend(1)
        prod_images = tuple(map(pi.__getitem__, sigma))
        if cycle_type(prod_images) != target:
            continue
        _, orbit_count = _merge_cycles(parent, sigma)
        if orbit_count != 1:
            continue
        raise _Witness((*gens_for_transitivity, sigma, inverse(prod_images)))


def _row_chunks(source) -> Iterator[np.ndarray]:
    """The rows of a plan entry, at most _CHUNK at a time.  A table is
    sliced in chunks that start small and double, so a scan that stops
    early touches few rows; any other entry is a chunk stream (a class
    by _class_chunks, or stabilizer-least rows by _stabilizer_least),
    called afresh on each visit."""
    if not isinstance(source, np.ndarray):
        yield from source()
        return
    start, size = 0, 16
    while start < len(source):
        size = min(size, _CHUNK)
        yield source[start : start + size]
        start += size
        size *= 2


def _perms(source) -> Iterator[Perm]:
    """The rows of a plan entry as Perm tuples, for the Python levels."""
    for chunk in _row_chunks(source):
        yield from map(tuple, chunk.tolist())


def _scan_numpy(source, pi, target, parent, budget, gens_for_transitivity, d):
    pi_arr = np.array(pi, dtype=np.uint8)
    tfix = _target_fix_counts(target, d)
    for chunk in _row_chunks(source):
        alive = _fix_count_survivors(pi_arr[chunk], tfix, d)  # pi o sigma of the target type
        remaining = budget.limit - budget.nodes
        for h in alive.tolist():
            if h + 1 > remaining:
                budget.spend(h + 1)  # raises
            sigma = tuple(chunk[h].tolist())
            _, orbit_count = _merge_cycles(parent, sigma)
            if orbit_count != 1:
                continue
            budget.spend(h + 1)
            prod_images = tuple(map(pi.__getitem__, sigma))
            raise _Witness((*gens_for_transitivity, sigma, inverse(prod_images)))
        budget.spend(len(chunk))


def search(datum: BranchDatum, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Decide realizability of a compatible datum over the sphere base.

    Returns FOUND with a verified witness, EXHAUSTED when the whole
    anchored space has been covered (certifying exceptionality), or
    BUDGET_EXCEEDED.  The budget is counted in visited candidates.
    Deterministic: same datum, same outcome.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if datum.base != SPHERE:
        raise ValueError("search runs over base = sphere only")
    if not check_compatibility(datum).compatible:
        raise ValueError("datum is not compatible")
    d = datum.degree
    types = sorted((p.parts for p in datum.partitions), key=lambda t: (class_size(t), t))
    anchor, middle, target = types[0], types[1:-1], types[-1]
    if d > 256 and datum.n > 2:
        raise ValueError("search handles degrees up to 256 (one byte per image)")
    tau1 = class_representative(anchor)
    bud = _Budget(budget)

    try:
        if datum.n == 2:
            # Riemann-Hurwitz over the sphere: n <= 2 is compatible only
            # as [d|d], whose one candidate is tau1 and its inverse
            bud.spend(1)
            return SearchResult(FOUND, _checked(datum, (tau1, inverse(tau1))), bud.nodes)
        estimate = prod(class_size(t) for t in middle)
        if estimate > _RANDOM_TRIGGER:
            attempts = min(_HUNT_MAX, max(2_000, estimate // 50))
            taus = _random_hunt(d, tau1, middle, target, bud, attempts)
            if taus is not None:
                return SearchResult(FOUND, _checked(datum, taus), bud.nodes)

        # candidate plan per enumerated level: a table, or a chunk stream
        # called on each visit
        plan: list[np.ndarray | partial] = []
        for j, t in enumerate(middle):
            size = class_size(t)
            if j == 0:
                # the orbit representatives, or the stabilizer-least rows,
                # a class-order superset of them with the same first
                # witness (see the module docstring)
                if size <= _REDUCTION_LIMIT:
                    plan.append(_anchored_reps(anchor, t))
                else:
                    plan.append(partial(_stabilizer_least, t, anchor))
            elif size * d <= _CACHE_BYTES:
                plan.append(_class_table(t))
            else:
                plan.append(partial(_class_chunks, t))

        # merge capacity of the classes still to be placed (the forced
        # last permutation lies in the generated group, so it adds none)
        merge_left = [d - len(t) for t in middle]
        suffix_merge = [0] * (len(middle) + 1)
        for j in range(len(middle) - 1, -1, -1):
            suffix_merge[j] = suffix_merge[j + 1] + merge_left[j]
        # transposition capacity includes the forced last permutation
        suffix_trans = [x + (d - len(target)) for x in suffix_merge]

        parent0, _ = _merge_cycles(list(range(d)), tau1)

        last = len(middle) - 1

        def walk(j: int, pi: Perm, parent: list[int], gens: tuple[Perm, ...]) -> None:
            source = plan[j]
            if j == last:
                # streamed entries exceed _NUMPY_MIN rows: _REDUCTION_LIMIT
                # at level 0, _CACHE_BYTES / d >= 65,536 at a later level
                short = isinstance(source, np.ndarray) and len(source) < _NUMPY_MIN
                scan = _scan_python if short else _scan_numpy
                scan(source, pi, target, parent, bud, gens, d)
                return
            for sigma in _perms(source):
                bud.spend(1)
                pi2 = compose(pi, sigma)
                if d - cycle_count(pi2) > suffix_trans[j + 1]:
                    continue
                parent2, orb2 = _merge_cycles(parent, sigma)
                if orb2 - 1 > suffix_merge[j + 1]:
                    continue
                walk(j + 1, pi2, parent2, (*gens, sigma))

        walk(0, tau1, parent0, (tau1,))
    except _OutOfBudget:
        return SearchResult(BUDGET_EXCEEDED, None, bud.nodes)
    except _Witness as w:
        return SearchResult(FOUND, _checked(datum, w.taus), bud.nodes)
    return SearchResult(EXHAUSTED, None, bud.nodes)


def _checked(datum: BranchDatum, taus: tuple[Perm, ...]) -> Realization:
    realization = Realization(datum.degree, taus)
    if not verify_witness(datum, realization):
        raise WitnessCheckError(f"search produced an invalid witness for {datum}")
    return realization
