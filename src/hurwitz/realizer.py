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
* the orbits of the placed generators, counted on the generators
  themselves with no partition carried from node to node, must be
  mergeable into one orbit by the cycles the remaining enumerated
  classes can offer.

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

Budgets count visited candidates, each charged as it is visited (the
last level's chunk by chunk, up to the hit), so a search that reports N
nodes returns the same result with budget N and BUDGET_EXCEEDED with
N - 1; a zero budget returns BUDGET_EXCEEDED before anything is built.
Only a completed walk certifies exceptionality; a randomized witness
hunt runs first whenever the remaining classes are too large to walk
cheaply, so oversized realizable data still produce witnesses.  The
hunt's relabellings come from one uint8 draw table per degree, drawn
from one Random(_SEED) kept per degree and grown to exactly the rows a
hunt asks for, at most the _HUNT_MAX x len(middle) rows of the longest
hunt.  Attempt a always reads the same rows, so outcomes, witnesses and
node counts do not depend on call order or on how far a table has
grown.  The first _HUNT_PY (32) attempts are checked in Python, where
most hunts hit; later ones in numpy chunks that conjugate and compose
the whole chunk by flat gathers, drop rows by the fixed points of the
product's powers 1..d//2 (they give the number of cycles of every
length up to d/2, and at most one cycle is longer), and test
transitivity on the survivors in attempt order.

The hunt's ledger.  Attempt a's product tau1 o sigma_1 o .. o sigma_m
depends on the key (tau1, *middle) and the table, not on the target, so
the hunts of one key at different targets share it: _ledgers holds, per
key, attempts 0..n-1 as one bytearray, a cycle-type id per Python
attempt and the product row per numpy attempt.  A hunt reads its
attempts in the order and chunks it would compute them.  A chunk the
ledger holds whole skips conjugation and composition; any other is
computed whole, and its part past the ledger's end is appended.  A held
Python attempt is compared by its id, the cycle-type filter still runs
chunk by chunk, and transitivity is tested only on attempts of the
target type, on sigmas rebuilt from the table, and never stored: a
catalog hunts each (key, target) once.  Since the table is fixed, the
ledger also memoizes the Python attempts' conjugates per cycle type t
and row index i, so a hunt reuses what the hunts of other keys with a
class of type t built at row i.  The ledger holds one (d, len(middle))
slice at a time, so a hunt of another slice starts it afresh, and at
most 256 cycle types and _CACHE_BYTES bytes: sys.getsizeof of each key,
of its bytearray when added and of each conjugate, and one per byte
held.  What would pass that bound is computed and not stored.
Classifying the 937 sphere d = 12, n = 3 data with a (3,3,3,3) point
runs 884 hunts that charge 104,061 attempts, and the ledger ends holding
28,794.

Classes come from one numpy builder, _class_chunks, as uint8 image rows
in class order, at most _CHUNK rows at a time, each block written
directly from its first cycle and the rows of a smaller class; the
stabilizer-least rows come from perms.class_rows, read point by point
in Python, in chunks of the same bound.  A class is cached per cycle
type as one array when it takes at most _CACHE_BYTES (16 MiB, that is
class size times degree bytes); orbit reduction, at every degree up to
256, sorts that array's rows by their bytes and selects rows of it.
Both tables, per type and per (anchor, type), are unbounded lru_caches.
A larger class, and the stabilizer-least rows of a second class above
_REDUCTION_LIMIT, are streamed chunk by chunk on every visit.  The last
level reads every table or stream in numpy chunks, keeps the rows whose
product with pi has the target type by the fixed points of its powers,
as the hunt's chunks do, and tests transitivity on them in row order.
A witness is checked by verify_witness before it is returned, also
under ``python -O``.
"""

from __future__ import annotations

import itertools
import random
import sys
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
    cycle_type,
    identity,
    inverse,
    is_transitive,
    orbit_count,
    product,
    random_permutation,
)

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget-exceeded"

DEFAULT_BUDGET = 10**9

_REDUCTION_LIMIT = 200_000  # max class size for centralizer-orbit reduction
_CACHE_BYTES = 16 << 20     # max bytes of a cached class table, and of the hunt's ledger
_RANDOM_TRIGGER = 20_000    # remaining-space size that switches the hunt on
_CHUNK = 50_000
_SEED = 0x5EED
_HUNT_MAX = 40_000  # attempts of the longest hunt
# Hunt attempts checked in Python before the numpy chunks: 94% of the
# hunts in the catalogs d<=8, n<=5 and d<=10, n=3 hit within them.  At 0
# (bench/run.py --seconds 10, one pair a workload, nodes identical)
# catalog-d8n5 wall_s went 2.30/2.75 -> 3.33/3.47 s, item_ms_p50 0.076 ->
# 0.118 ms on catalog-d10n3 and 0.117 -> 0.169 ms on walks-d12.  Without
# the ledger's conjugate memo catalog-d8n5 wall_s went 2.80 -> 2.97 s
# (medians of 4 alternating pairs, 4 worse).
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


class _Ledger(dict):
    """What the hunts of one (d, len(middle)) slice have learnt: per key
    (tau1, *middle), one bytearray of its attempts 0..n-1.  Byte a <
    _HUNT_PY is the id of Python attempt a's product cycle type, and
    each d bytes from _HUNT_PY on are a numpy attempt's product row.
    type_ids numbers the cycle types met, at most 256 of them;
    conjugates maps cycle type t and draw row i to
    conjugate(class_representative(t), row i), for rows the Python
    attempts read; nbytes counts what the ledger holds (see the module
    docstring)."""

    def __init__(self, part: tuple[int, int] | None = None):
        super().__init__()
        self.part = part
        self.type_ids: dict[tuple[int, ...], int] = {}
        self.conjugates: dict[tuple[int, ...], dict[int, Perm]] = {}
        self.nbytes = 0

    def charge(self, k: int) -> bool:
        """Whether k more bytes fit under _CACHE_BYTES; counts them if so."""
        if self.nbytes + k > _CACHE_BYTES:
            return False
        self.nbytes += k
        return True


# the hunt's ledger (see the module docstring)
_ledgers = _Ledger()


def _class_chunks(t: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Every permutation of cycle type t as uint8 rows, in class order
    (perms.class_rows), in chunks of at most _CHUNK rows.

    For each length ln, longest first, and each ordered choice
    c_1..c_{ln-1} of the other points of the cycle through 0, class
    order reads one block: its rows map 0 -> c_1 -> .. -> c_{ln-1} -> 0
    and, with u_0 < u_1 < .. the unused points, u_k -> u_s[k] for each
    row s of class rest (t less one ln), so two assignments write it.  A
    rest class that fits in one chunk is built once and serves
    _CHUNK // size choices at a time; a larger one is streamed again for
    each choice.
    """
    if not t:
        yield np.empty((1, 0), dtype=np.uint8)  # the empty permutation
        return
    d = sum(t)
    for ln in sorted(set(t), reverse=True):
        k = t.index(ln)
        rest = t[:k] + t[k + 1 :]
        size = class_size(rest)
        subs = [np.concatenate(list(_class_chunks(rest)))] if size <= _CHUNK else None
        step = max(1, _CHUNK // size)
        choices = itertools.permutations(range(1, d), ln - 1)
        while batch := list(itertools.islice(choices, step)):
            a = len(batch)
            choice = np.arange(a)[:, None]
            cyc = np.zeros((a, ln + 1), dtype=np.uint8)  # 0, c_1, .., c_{ln-1}, 0
            cyc[:, 1:ln] = np.array(batch, dtype=np.uint8).reshape(a, ln - 1)
            free = np.ones((a, d), dtype=bool)
            free[choice, cyc[:, :ln]] = False
            unused = np.nonzero(free)[1].astype(np.uint8).reshape(a, d - ln)
            for sub in subs or _class_chunks(rest):
                block = np.empty((a, len(sub), d), dtype=np.uint8)
                block[choice, :, cyc[:, :ln]] = cyc[:, 1:, None]
                block[choice[:, :, None], np.arange(len(sub))[:, None], unused[:, None]] = unused[:, sub]
                yield block.reshape(-1, d)


def _stabilizer_least(t: tuple[int, ...], anchor: tuple[int, ...]) -> Iterator[np.ndarray]:
    """The rows of class t that pass the stabilizer rule of the anchor
    (see the module docstring), in class order, in chunks of at most
    _CHUNK rows: perms.class_rows reads them, and each chunk is one
    array over its bytes."""
    d = sum(t)
    for rows in class_rows(t, anchor, _CHUNK):
        yield np.frombuffer(rows, dtype=np.uint8).reshape(-1, d)


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
    return cls[_orbit_firsts_vectorized(cls, zgens)]


def _orbit_firsts_vectorized(cls: np.ndarray, zgens: list[Perm]) -> list[int]:
    """Row indices of the first element of each orbit, ascending.

    Rows are sorted by their own bytes (lexsort over one contiguous copy
    of the table's columns), and so are their conjugates by each
    generator z, whose column z[x] is z applied to column x; since
    conjugation permutes the class, both sorts give the same sequence,
    and each conjugation becomes an index map on the class.  Every row's
    label starts as its own index and takes the minimum with the labels
    of its images under the maps, with pointer jumping, until nothing
    changes.  Each map permutes the rows of an orbit in cycles, so the
    labels are then constant on orbits, and a row keeps its own index
    exactly when it is its orbit's first."""
    n = len(cls)
    cols = np.ascontiguousarray(cls.T)
    order = np.lexsort(cols[::-1])
    maps = []
    for z in zgens:
        z_arr = np.array(z, dtype=np.uint8)
        # column y of the conjugates is z applied to column z^-1(y)
        conj_order = np.lexsort([z_arr.take(cols[x]) for x in reversed(inverse(z))])
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
    # fix(sigma^j) for j = 1..d//2 determines the cycle type (see
    # _fix_count_survivors)
    return [sum(ln for ln in t if j % ln == 0) for j in range(1, d // 2 + 1)]


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
    in Python, the rest in numpy chunks that start small and double.
    What the ledger holds of the key (tau1, *middle) is read, not
    recomputed, and what it lacks is appended while it has room."""
    global _ledgers
    m = len(middle)
    if _ledgers.part != (d, m):
        _ledgers = _Ledger((d, m))
    ledger, key = _ledgers, (tau1, *middle)
    reps = [class_representative(t) for t in middle]
    run = min(attempts, (budget.limit - budget.nodes) // m)  # what the budget affords
    held = ledger.get(key)
    if held is None:
        held = bytearray()
        if run and ledger.charge(sys.getsizeof(key) + sys.getsizeof(held)):
            ledger[key] = held
    keep = key in ledger  # whether what this hunt computes may be appended
    py_end = min(run, _HUNT_PY)
    draws = _draw_rows(d, py_end * m)
    memos = [ledger.conjugates.setdefault(t, {}) for t in middle]
    type_ids = ledger.type_ids
    want = type_ids.get(target)
    for a in range(py_end):
        known = a < len(held)
        if known and held[a] != want:
            continue
        sigmas = []
        pi = tau1
        for j, (rep, memo) in enumerate(zip(reps, memos)):
            i = a * m + j
            s = memo.get(i)
            if s is None:
                s = conjugate(rep, draws[i].tolist())
                if ledger.charge(sys.getsizeof(s)):
                    memo[i] = s
            sigmas.append(s)
            pi = tuple(map(pi.__getitem__, s))  # compose(pi, s)
        if not known:
            t = cycle_type(pi)
            tid = type_ids.get(t)
            if tid is None and len(type_ids) < 256:
                tid = type_ids[t] = len(type_ids)
            if keep and tid is not None and a == len(held) and ledger.charge(1):
                held.append(tid)
            if t != target:
                continue
        if is_transitive([tau1, *sigmas], d):
            budget.spend((a + 1) * m)
            return (tau1, *sigmas, inverse(pi))
    tau_arr = np.array(tau1, dtype=np.uint8)
    rep_arr = np.array(reps)[:, None]
    tfix = _target_fix_counts(target, d)
    off = _HUNT_PY * (1 - d)  # numpy attempt a's row starts at byte off + a*d
    start = py_end
    while start < run:
        stop = min(run, start + min(max(start, 16), _HUNT_CHUNK))
        draws = _draw_rows(d, stop * m)
        # numpy attempts _HUNT_PY..end-1 are held (none when end < _HUNT_PY)
        end = (len(held) - off) // d
        if stop <= end:
            # a copy of the bytes, so that held can still grow
            pi = np.frombuffer(held[off + start * d : off + stop * d], dtype=np.uint8)
            pi = pi.reshape(-1, d)
        else:
            pi = _hunt_products(draws[start * m : stop * m], tau_arr, rep_arr)
            if keep and start <= end and ledger.charge((stop - end) * d):
                held += pi[end - start :].tobytes()
        for a in _fix_count_survivors(pi, tfix, d).tolist():
            i = (start + a) * m
            sigmas = [conjugate(rep, draws[i + j].tolist()) for j, rep in enumerate(reps)]
            if is_transitive([tau1, *sigmas], d):
                budget.spend((start + a + 1) * m)
                return (tau1, *sigmas, inverse(tuple(pi[a].tolist())))
        start = stop
    budget.spend(attempts * m)  # raises when the budget ran out first
    return None


def _hunt_products(g: np.ndarray, tau_arr: np.ndarray, rep_arr: np.ndarray) -> np.ndarray:
    """The products tau1 o sigma_1 o .. o sigma_m, as uint8 rows, of the
    attempts whose relabellings are g, m consecutive draw rows each;
    sigma_j = g_j o rep_j o g_j^-1, with rep_arr the representatives,
    shape (m, 1, d)."""
    m, d = len(rep_arr), g.shape[1]
    k = len(g) // m
    # the relabellings by middle class, row (j, a) the one of class j in
    # attempt a, at flat position (j*k + a)*d
    g = g.reshape(k, m, d).transpose(1, 0, 2)
    base = np.arange(0, m * k * d, d).reshape(m, k, 1)
    # sigma = g o rep o g^-1, that is sigma[g[x]] = g[rep[x]], kept as
    # positions a*d + sigma(x) within the attempt's flat block
    sig = np.empty(m * k * d, dtype=np.intp)
    sig[base + g] = g.take(base + rep_arr)
    sig = sig.reshape(m, k, d)
    sig += base[0]
    # pi = tau1 o sigma_0 o .. o sigma_{m-1}, composed from the right;
    # tau1 last, at the points (positions mod d) the sigmas reach
    pi = sig[m - 1]
    for j in range(m - 2, -1, -1):
        pi = sig[j].take(pi)
    return tau_arr.take(pi % d)


def _fix_count_survivors(comp: np.ndarray, tfix: list[int], d: int) -> np.ndarray:
    """Indices, ascending, of the rows of comp whose powers comp^j have
    tfix[j-1] fixed points for j = 1..h, h = d // 2, that is the rows of
    the target cycle type; rows that fail a power are dropped before the
    next one.

    h powers suffice.  With c_l the number of l-cycles of a row,
    fix(comp^j) = sum of l c_l over the l dividing j, so the counts for
    j = 1..h give l c_l for every l <= h by Moebius inversion.  The other
    points lie in cycles longer than h, that is longer than d/2; there is
    at most one such cycle, so its length is the number of those points.

    Power 1 is read off comp's own images.  Point x of the i-th row it
    keeps sits at flat position i*d + x, and cur holds the flat positions
    of comp^j, so each later power is one take over the flat rows, and
    dropping rows needs no re-basing."""
    alive = np.flatnonzero((comp == np.arange(d, dtype=comp.dtype)).sum(axis=1) == tfix[0])
    n = len(alive)
    pos = np.arange(n * d).reshape(n, d)
    flat = (comp[alive] + pos[:, :1]).ravel()
    cur = flat.reshape(n, d)
    for want in tfix[1:]:
        if not len(alive):
            break
        cur = flat.take(cur)
        keep = (cur == pos).sum(axis=1) == want
        if not keep.all():
            alive, cur, pos = alive[keep], cur[keep], pos[keep]
    return alive


def _row_chunks(source) -> Iterator[np.ndarray]:
    """The rows of a plan entry, at most _CHUNK at a time: a table is
    sliced, and any other entry is a chunk stream (a class by
    _class_chunks, or stabilizer-least rows by _stabilizer_least),
    called afresh on each visit."""
    if not isinstance(source, np.ndarray):
        yield from source()
        return
    for start in range(0, len(source), _CHUNK):
        yield source[start : start + _CHUNK]


def _scan_python(source, pi, target, gens, budget, d):
    """What _scan_numpy does, with each row's product type read in
    Python: the tests' reference; search does not call it."""

    def survivors(chunk):  # pi o sigma of the target type, row by row
        for h, sigma in enumerate(chunk.tolist()):
            if cycle_type(tuple(map(pi.__getitem__, sigma))) == target:
                yield h

    _scan(source, pi, gens, budget, d, survivors)


def _scan_numpy(source, pi, target, gens, budget, d):
    pi_arr = np.array(pi, dtype=np.uint8)
    tfix = _target_fix_counts(target, d)

    def survivors(chunk):  # pi o sigma of the target type, chunk at once
        return _fix_count_survivors(pi_arr[chunk], tfix, d).tolist()

    _scan(source, pi, gens, budget, d, survivors)


def _scan(source, pi, gens, budget, d, survivors) -> None:
    """The last level: raises the witness (*gens, sigma, (pi o sigma)^-1)
    for the first row sigma of source such that pi o sigma has the target
    type and gens with sigma act transitively; survivors(chunk) yields,
    ascending, the indices of a chunk's rows of that type.  A hit at row
    h of a chunk costs h + 1 nodes, a chunk without one its length."""
    for chunk in _row_chunks(source):
        remaining = budget.limit - budget.nodes
        for h in survivors(chunk):
            if h + 1 > remaining:
                budget.spend(h + 1)  # raises
            sigma = tuple(chunk[h].tolist())
            if is_transitive((*gens, sigma), d):
                budget.spend(h + 1)
                raise _Witness((*gens, sigma, inverse(compose(pi, sigma))))
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
    if budget == 0:
        # every candidate costs a node, so none can be visited
        return SearchResult(BUDGET_EXCEEDED, None, 0)
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

        last = len(middle) - 1

        def walk(j: int, pi: Perm, gens: tuple[Perm, ...]) -> None:
            source = plan[j]
            if j == last:
                _scan_numpy(source, pi, target, gens, bud, d)
                return
            for chunk in _row_chunks(source):
                for sigma in map(tuple, chunk.tolist()):
                    bud.spend(1)
                    if orbit_count((*gens, sigma), d) - 1 > suffix_merge[j + 1]:
                        continue
                    walk(j + 1, compose(pi, sigma), (*gens, sigma))

        walk(0, tau1, (tau1,))
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
