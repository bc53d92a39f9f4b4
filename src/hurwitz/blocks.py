"""Imprimitivity block systems of witness tuples and covering factorization.

A block decomposition of order k partitions {1..d} into d/k blocks of k
elements each, permuted coherently by every generator.  Finding one shows
the witnessed covering decomposes as an inner covering of degree k over
an intermediate surface followed by an outer covering of degree d/k.

An orientable cover of the projective plane factors through the
orientation double cover S^2 -> RP^2, which is a block system of order
d/2 whose two blocks every local monodromy keeps.  So reduce_projective
splits each branching partition by its order-d/2 groupings with induced
cycles of length 1, and decides the datum by the sphere data of halved
degree that the splits give (Edmonds-Kulkarni-Stong).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .core import PROJECTIVE, SPHERE, BranchDatum, Partition, infer_cover
from .perms import Perm, cycles, cycle_type, is_transitive
from .realizer import Realization, verify_witness


@dataclass(frozen=True, slots=True)
class BlockDecomposition:
    """A block system: block size, and a block id per point (ids numbered
    by first occurrence)."""

    size: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        d, k = len(self.assignment), self.size
        if k < 1 or d % k or sorted(self.assignment) != [
            b for b in range(d // k) for _ in range(k)
        ]:
            raise ValueError("assignment must give block ids 0..d/k-1 to k points each")

    @property
    def degree(self) -> int:
        return len(self.assignment)

    @property
    def block_count(self) -> int:
        return self.degree // self.size

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for x, b in enumerate(self.assignment):
            out[b].append(x)
        return tuple(tuple(b) for b in out)

    def __str__(self) -> str:
        body = "".join(
            "{" + ",".join(str(x + 1) for x in blk) + "}" for blk in self.blocks()
        )
        return f"k={self.size} blocks={body}"


def cycle_type_block_groupings(
    t: tuple[int, ...], k: int
) -> Iterator[tuple[tuple[tuple[int, ...], int], ...]]:
    """All groupings of the parts of t compatible with blocks of size k.

    A grouping collects the parts into groups D_1..D_t; the group with
    part sum s contributes an induced cycle of length p = s/k, and every
    part in it must be a multiple of p.  Yields each grouping once, as a
    sorted tuple of (group parts, p) pairs.

    The largest part left opens the next group, and its companions are
    chosen as a count per part value, so each distinct group is tried
    once; groups are taken largest first, no group above the one before
    it, so each grouping is reached once.  Groupings come in descending
    lexicographic order of their groups read largest first, that is of
    the reversed yielded tuples.
    """
    d = sum(t)
    if d % k or not 1 < k < d:
        raise ValueError("block size must properly divide the degree")
    values = sorted(set(t), reverse=True)

    def rec(counts: list[int], cap: tuple[int, ...], groups: list):
        if not any(counts):
            yield tuple(sorted(groups))
            return
        i = next(j for j, c in enumerate(counts) if c)  # the anchor's value
        rest = counts.copy()
        rest[i] -= 1
        # companion counts run downwards, so groups come largest first
        for take in product(*(range(c, -1, -1) for c in rest)):
            group = (values[i],) + tuple(v for v, c in zip(values, take) for _ in range(c))
            s = sum(group)
            if group > cap or s % k or any(x % (s // k) for x in group):
                continue
            left = [c - x for c, x in zip(rest, take)]
            yield from rec(left, group, groups + [(group, s // k)])

    yield from rec([t.count(v) for v in values], (d,), [])  # no group exceeds (d,)


def induced_cycle_type(grouping: tuple[tuple[tuple[int, ...], int], ...]) -> tuple[int, ...]:
    return tuple(sorted((p for _, p in grouping), reverse=True))


def _closure(d: int, seeds: Sequence[int], gens: Sequence[Perm]) -> tuple[int, ...]:
    """Finest generator-invariant partition putting point 0 in one block
    with every seed, as an assignment with ids numbered by first
    occurrence (so the block of 0 is block 0).  The generators must act
    transitively.

    Whenever two classes merge, the images of the merging pair under
    every generator are merged as well, and the propagation repeats
    until stable.  It stops early with the one-block assignment once a
    class holds more than d/2 points: the blocks of a transitive group
    are equal and their size divides d, so such a class only grows into
    the whole set.
    """
    parent = list(range(d))
    size = [1] * d

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []

    def union(a: int, b: int) -> bool:
        """Merge the classes of a and b; whether the merged class holds
        more than half the points."""
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
        size[ra] += size[rb]
        pending.append((a, b))
        return 2 * size[ra] > d

    for x in seeds:
        if union(0, x):
            return (0,) * d
    while pending:
        a, b = pending.pop()
        for g in gens:
            if union(g[a], g[b]):
                return (0,) * d
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(d))


def all_block_systems(gens: Sequence[Perm]) -> list[tuple[int, ...]]:
    """Every proper block system of the generated transitive group, sorted."""
    return list(_lattice(tuple(map(tuple, gens))))


@lru_cache(maxsize=1)
def _lattice(gens: tuple[Perm, ...]) -> tuple[tuple[int, ...], ...]:
    """all_block_systems of the last generator tuple, kept for its other block sizes.

    Transitivity makes a system the closure of its block of 0, so the
    minimal systems are the closures of single points x, and the join of
    two systems is the closure of the union of their blocks of 0.  The
    collection is closed under joins until stable; transitivity also
    makes all classes of an invariant partition equal-sized blocks, so a
    closure stops as soon as a class outgrows d/2 and returns the one
    block, which is dropped here as trivial.
    """
    d = len(gens[0]) if gens else 0
    if not gens or any(sorted(g) != list(range(d)) for g in gens):
        raise ValueError(
            "block systems need one or more generators of one degree, each a permutation of 0..d-1"
        )
    if not is_transitive(gens, d):
        raise ValueError("block systems are defined for transitive actions")
    systems: set[tuple[int, ...]] = set()
    fresh = [_closure(d, [x], gens) for x in range(1, d)]
    while fresh:
        frontier = []
        for a in fresh:
            if 1 < max(a) + 1 < d and a not in systems:
                systems.add(a)
                frontier.append(a)
        fresh = [
            _closure(d, [x for x in range(1, d) if a[x] == 0 or b[x] == 0], gens)
            for a in frontier
            for b in systems
        ]
    return tuple(sorted(systems))


def find_block_decomposition(gens: Sequence[Perm], k: int) -> BlockDecomposition | None:
    """Some block system of order k preserved by all generators, or None.

    Deterministic tie-break: the system whose block containing 1 is
    lexicographically smallest.
    """
    systems = all_block_systems(gens)
    d = len(gens[0])
    if d % k or not 1 < k < d:
        raise ValueError("block size must properly divide the degree")
    fits = [a for a in systems if max(a) + 1 == d // k]
    if not fits:
        return None
    return BlockDecomposition(k, min(fits, key=lambda a: [x for x in range(d) if a[x] == 0]))


def induced_permutation(bd: BlockDecomposition, p: Perm) -> Perm:
    """The permutation of block ids induced by p; raises if p does not
    map blocks to blocks."""
    images = [-1] * bd.block_count
    for x, v in enumerate(p):
        b, c = bd.assignment[x], bd.assignment[v]
        if images[b] == -1:
            images[b] = c
        elif images[b] != c:
            raise ValueError("permutation does not preserve the block system")
    return tuple(images)


def block_grouping_of(
    bd: BlockDecomposition, p: Perm
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The grouping realized by p on a preserved block system: one group
    per induced cycle, holding the lengths of the p-cycles above it."""
    hat_cycles = cycles(induced_permutation(bd, p))
    group_of_block = [0] * bd.block_count
    for i, hat_cyc in enumerate(hat_cycles):
        for b in hat_cyc:
            group_of_block[b] = i
    lengths: list[list[int]] = [[] for _ in hat_cycles]
    for cyc in cycles(p):
        lengths[group_of_block[bd.assignment[cyc[0]]]].append(len(cyc))
    return tuple(sorted(
        (tuple(sorted(group, reverse=True)), len(hat_cyc))
        for group, hat_cyc in zip(lengths, hat_cycles)
    ))


def factor_covering(
    datum: BranchDatum, realization: Realization, bd: BlockDecomposition
) -> tuple[BranchDatum, BranchDatum]:
    """Split the witnessed covering through the block system.

    Returns (inner, outer): the inner datum covers the intermediate
    surface with degree k and one branch point per induced cycle; the
    outer datum is the induced action on blocks, degree d/k.  Trivial
    partitions arising on either side are dropped with the branch count
    adjusted.  The intermediate surface is the cover infer_cover reads
    off the outer datum; a non-orientable base is refused.
    """
    d = datum.degree
    k = bd.size
    outer_parts = []
    inner_parts = []
    for tau in realization.taus:
        grouping = block_grouping_of(bd, tau)  # raises if not preserved
        outer_parts.append(induced_cycle_type(grouping))
        inner_parts.extend(tuple(x // p for x in group) for group, p in grouping)

    outer_kept = tuple(Partition(t) for t in outer_parts if any(x > 1 for x in t))
    mids = infer_cover(datum.base, len(outer_kept), d // k, outer_kept)
    if not datum.base.orientable or not mids:
        raise ValueError("block system does not induce a closed intermediate surface")
    mid = mids[0]
    outer = BranchDatum(mid, datum.base, d // k, outer_kept)

    inner_kept = tuple(
        Partition(t) for t in inner_parts if any(x > 1 for x in t)
    )
    inner = BranchDatum(datum.cover, mid, k, inner_kept)
    return inner, outer


def verify_filtration(datum: BranchDatum, realization: Realization) -> bool:
    """Check the forced degree-2 factorization of a very even datum.

    For a sphere datum with even degree and two partitions made of even
    parts only, every witness must admit a block system of order d/2
    whose induced action is the two-sheeted covering: two partitions (2)
    and n-2 partitions (1,1).  A False return is a falsification event.
    """
    d = datum.degree
    if datum.base != SPHERE or d % 2:
        raise ValueError("filtration check needs a sphere datum of even degree")
    evens = [p for p in datum.partitions if all(x % 2 == 0 for x in p.parts)]
    if len(evens) < 2:
        raise ValueError("filtration check needs two all-even partitions")
    if not verify_witness(datum, realization):
        raise ValueError("realization does not witness the datum")
    gens = list(realization.taus)
    want = sorted([(2,)] * 2 + [(1, 1)] * (datum.n - 2))
    for assignment in all_block_systems(gens):
        if max(assignment) == 1:
            bd = BlockDecomposition(d // 2, assignment)
            if sorted(cycle_type(induced_permutation(bd, tau)) for tau in gens) == want:
                return True
    return False


def reduce_projective(datum: BranchDatum) -> Iterator[BranchDatum]:
    """Rewrite a datum over the projective plane with orientable cover as
    the stream of sphere data it is equivalent to.

    Each branching partition is split into two halves of d/2 (it refines
    (d/2, d/2) by compatibility): its groupings for blocks of size d/2
    whose induced cycles all have length 1, the larger half first, in
    descending order.  Every combination of splits yields one datum over
    the sphere with doubled branching points and halved degree, trivial
    halves dropped, each datum once.  The original datum is realizable
    iff at least one yielded datum is.
    """
    if datum.base != PROJECTIVE:
        raise ValueError("reduction applies to base = projective plane")
    if not datum.cover.orientable:
        raise ValueError("non-orientable covers of the projective plane "
                         "are handled directly, not by reduction")
    if datum.degree % 2 or datum.degree < 4:
        raise ValueError("reduction needs an even degree of at least 4")
    half = datum.degree // 2
    options = [
        sorted(
            (tuple(h for h, _ in reversed(g))
             for g in cycle_type_block_groupings(p.parts, half)
             if all(q == 1 for _, q in g)),
            reverse=True,
        )
        for p in datum.partitions
    ]
    seen: set[BranchDatum] = set()
    for combo in product(*options):
        halves = [h for pair in combo for h in pair]
        kept = tuple(Partition(h) for h in halves if any(x > 1 for x in h))
        reduced = BranchDatum(datum.cover, SPHERE, half, kept)
        if reduced not in seen:
            seen.add(reduced)
            yield reduced
