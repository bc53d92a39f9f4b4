"""Shared test oracles, deliberately independent of the production code
paths they are used to check."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

from hurwitz import perms, realizer
from hurwitz.core import (
    SPHERE,
    BranchDatum,
    Partition,
    check_compatibility,
    infer_cover,
    partitions_of,
)


def cycle_type_reference(p: perms.Perm) -> tuple[int, ...]:
    """The cycle lengths of p, non-increasing, by a walk that marks
    visited points in a separate bytearray and leaves p alone."""
    seen = bytearray(len(p))
    out = []
    for i in range(len(p)):
        if not seen[i]:
            ln = 0
            j = i
            while not seen[j]:
                seen[j] = 1
                j = p[j]
                ln += 1
            out.append(ln)
    out.sort(reverse=True)
    return tuple(out)


def orbit_count_reference(gens, d: int) -> int:
    """What perms.orbit_count returns, by union-find: each point is
    merged with its image under every generator, and the roots are
    counted."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for x, y in enumerate(g):
            parent[find(y)] = find(x)
    return sum(find(x) == x for x in range(d))


def partition_count_oracle(d: int) -> int:
    """Number of partitions of d by the classic dynamic program."""
    table = [1] + [0] * d
    for part in range(1, d + 1):
        for total in range(part, d + 1):
            table[total] += table[total - part]
    return table[d]


def enumerate_compatible_reference(d, n_values, base=SPHERE, cover=None):
    """What catalog.enumerate_compatible streams, by inferring the covers
    of every partition multiset and checking each datum built."""
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


def naive_search_n3(datum: BranchDatum) -> bool:
    """Reference decision for n=3 sphere data: first permutation fixed to
    the canonical representative of the smallest class, second ranging
    over its full conjugacy class, no pruning of any kind."""
    d = datum.degree
    types = sorted(
        (p.parts for p in datum.partitions), key=lambda t: (perms.class_size(t), t)
    )
    t1, t2, t3 = types
    tau1 = perms.class_representative(t1)
    for tau2 in perms.class_iterator(t2):
        prod = perms.compose(tau1, tau2)
        if cycle_type_reference(prod) != t3:
            continue
        if perms.is_transitive([tau1, tau2], d):
            return True
    return False


def naive_search_n4(datum: BranchDatum) -> bool:
    """Reference decision for n=4 sphere data: first permutation fixed to
    the canonical representative of the smallest class, second and third
    ranging over their full conjugacy classes, the fourth forced as the
    inverse of their product, no pruning of any kind."""
    d = datum.degree
    types = sorted(
        (p.parts for p in datum.partitions), key=lambda t: (perms.class_size(t), t)
    )
    t1, t2, t3, t4 = types
    tau1 = perms.class_representative(t1)
    for tau2 in perms.class_iterator(t2):
        head = perms.compose(tau1, tau2)
        for tau3 in perms.class_iterator(t3):
            # the fourth permutation is the inverse of this product, of
            # the same cycle type, and lies in the group of the other three
            if cycle_type_reference(perms.compose(head, tau3)) != t4:
                continue
            if perms.is_transitive([tau1, tau2, tau3], d):
                return True
    return False


def naive_search_n3_unanchored(datum: BranchDatum) -> bool:
    """Like naive_search_n3 but with the first permutation also ranging
    over its whole class; checks that anchoring loses nothing."""
    d = datum.degree
    types = sorted(
        (p.parts for p in datum.partitions), key=lambda t: (perms.class_size(t), t)
    )
    t1, t2, t3 = types
    for tau1 in perms.class_iterator(t1):
        for tau2 in perms.class_iterator(t2):
            prod = perms.compose(tau1, tau2)
            if cycle_type_reference(prod) != t3:
                continue
            if perms.is_transitive([tau1, tau2], d):
                return True
    return False


def reference_hunt(d, tau1, middle, target, budget, attempts):
    """What realizer._random_hunt returns, and what it leaves in budget,
    by the plain loop: a fresh Random(_SEED) per call, one
    random_permutation per drawn relabelling and the budget spent before
    each attempt."""
    rng = random.Random(realizer._SEED)
    reps = [perms.class_representative(t) for t in middle]
    for _ in range(attempts):
        budget.spend(len(middle))
        sigmas = [perms.conjugate(rep, perms.random_permutation(d, rng)) for rep in reps]
        pi = tau1
        for s in sigmas:
            pi = perms.compose(pi, s)
        if cycle_type_reference(pi) != target:
            continue
        if not perms.is_transitive([tau1, *sigmas], d):
            continue
        return (tau1, *sigmas, perms.inverse(pi))
    return None


def format_cycles_reference(p: perms.Perm) -> str:
    """The cycle notation of p read off perms.cycles: every cycle longer
    than one point, 1-based, in the order cycles gives; "()" for the
    identity."""
    parts = []
    for cyc in perms.cycles(p):
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def centralizer_generators_reference(t: tuple[int, ...]) -> list[perms.Perm]:
    """A larger generating set of the centralizer of
    class_representative(t): one rotation per cycle plus a swap of each
    two adjacent cycles of equal length."""
    d = sum(t)
    lens = sorted(t, reverse=True)
    starts = [sum(lens[:i]) for i in range(len(lens))]
    gens = []
    for s, ln in zip(starts, lens):
        if ln > 1:
            g = list(range(d))
            for i in range(ln):
                g[s + i] = s + (i + 1) % ln
            gens.append(tuple(g))
    for i in range(len(lens) - 1):
        if lens[i] == lens[i + 1]:
            g = list(range(d))
            for j in range(lens[i]):
                g[starts[i] + j] = starts[i + 1] + j
                g[starts[i + 1] + j] = starts[i] + j
            gens.append(tuple(g))
    return gens


def brute_block_systems(gens, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All block systems of order k by scanning every partition of the
    ground set into d/k blocks of size k."""
    d = len(gens[0])
    found = []

    def preserved(blocks: tuple[tuple[int, ...], ...]) -> bool:
        block_of = {}
        for i, blk in enumerate(blocks):
            for x in blk:
                block_of[x] = i
        for g in gens:
            for blk in blocks:
                images = {block_of[g[x]] for x in blk}
                if len(images) != 1:
                    return False
        return True

    def rec(remaining: tuple[int, ...], blocks: list[tuple[int, ...]]):
        if not remaining:
            blk = tuple(sorted(blocks))
            if preserved(blk):
                found.append(blk)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for combo in combinations(rest, k - 1):
            blocks.append((anchor,) + combo)
            left = tuple(x for x in rest if x not in combo)
            rec(left, blocks)
            blocks.pop()

    rec(tuple(range(d)), [])
    return found


def closure_reference(d: int, seeds, gens) -> tuple[int, ...]:
    """What blocks._closure returns, by merging until stable with no
    early exit: union-find over the points, each merged pair's images
    under every generator merged in turn, ids numbered by first
    occurrence."""
    parent = list(range(d))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
            pending.append((a, b))

    for x in seeds:
        union(0, x)
    while pending:
        a, b = pending.pop()
        for g in gens:
            union(g[a], g[b])
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(x), len(ids)) for x in range(d))


def witness_element(rng: random.Random, d: int, k: int | None) -> tuple[int, ...]:
    """A random permutation of 0..d-1; with k, one of S_k wr S_{d/k},
    keeping the blocks {0..k-1}, {k..2k-1}, ..."""
    if k is None:
        images = list(range(d))
        rng.shuffle(images)
        return tuple(images)
    sigma = list(range(d // k))
    rng.shuffle(sigma)
    images = [0] * d
    for b in range(d // k):
        inner = list(range(k))
        rng.shuffle(inner)
        for a in range(k):
            images[b * k + a] = sigma[b] * k + inner[a]
    return tuple(images)


def witness_tuples(seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """The tuples of the benchmark's witness workload for a seed, drawn
    as bench/workloads.py witness_inputs draws them: 100 per degree
    6..12 and point count 3..5, each n permutations with identity
    product, no identity entry and transitive action, every odd slot of
    a composite degree inside a wreath product, then relabelled."""
    rng = random.Random(seed)
    out = []
    for d in range(6, 13):
        ks = [k for k in range(2, d) if d % k == 0]
        ident = tuple(range(d))
        for n in range(3, 6):
            for slot in range(100):
                k = ks[(slot // 2) % len(ks)] if ks and slot % 2 else None
                while True:
                    gens = [witness_element(rng, d, k) for _ in range(n - 1)]
                    prod = ident
                    for g in gens:
                        prod = tuple(prod[x] for x in g)
                    last = [0] * d
                    for i, v in enumerate(prod):
                        last[v] = i
                    taus = (*gens, tuple(last))
                    if ident not in taus and perms.is_transitive(taus, d):
                        break
                relabel = list(range(d))
                rng.shuffle(relabel)
                back = [0] * d
                for i, v in enumerate(relabel):
                    back[v] = i
                out.append(tuple(tuple(relabel[t[back[x]]] for x in range(d)) for t in taus))
    return out


def block_groupings_reference(t: tuple[int, ...], k: int) -> list:
    """What blocks.cycle_type_block_groupings yields, as a set, by
    choosing the anchor's companions as index combinations and dropping
    repeated groupings afterwards."""
    parts = sorted(t, reverse=True)
    seen: set[tuple] = set()
    out = []

    def rec(remaining: list[int], groups: list[tuple[tuple[int, ...], int]]):
        if not remaining:
            key = tuple(sorted(groups))
            if key not in seen:
                seen.add(key)
                out.append(key)
            return
        anchor = remaining[0]
        rest = remaining[1:]
        for r in range(len(rest) + 1):
            for combo in combinations(range(len(rest)), r):
                group = [anchor] + [rest[i] for i in combo]
                s = sum(group)
                if s % k:
                    continue
                p = s // k
                if any(x % p for x in group):
                    continue
                left = [rest[i] for i in range(len(rest)) if i not in combo]
                rec(left, groups + [(tuple(sorted(group, reverse=True)), p)])

    rec(parts, [])
    return out


def half_splits_reference(p: Partition) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The splittings of a partition into two halves of degree/2 that
    blocks.reduce_projective uses, in its order: the lexicographically
    larger half first, each unordered pair once, by a recursion that
    takes equal parts as a bundle."""
    half = p.degree // 2
    parts = list(p.parts)
    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    out = []

    def rec(i: int, chosen: list[int], total: int) -> None:
        if total == half:
            a = tuple(sorted(chosen, reverse=True))
            rest = list(parts)
            for x in chosen:
                rest.remove(x)
            b = tuple(sorted(rest, reverse=True))
            pair = (a, b) if a >= b else (b, a)
            if pair not in seen:
                seen.add(pair)
                out.append(pair)
            return
        if i >= len(parts) or total > half:
            return
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        for take in range(j - i, -1, -1):
            rec(j, chosen + [parts[i]] * take, total + parts[i] * take)

    rec(0, [], 0)
    return out


def encode_from(dsn, start: int) -> tuple:
    """The breadth-first encoding of a dessin from one anchor dart: darts
    numbered as they are met, and per dart x in that order the entry
    (number of the dart after x around its vertex, number of x ^ 1,
    layer, side).  An edge's layer is that of the vertex at its low end."""
    rot_next, layer_of = {}, {}
    for v, rot in enumerate(dsn.rotations):
        for dart, after in zip(rot, rot[1:] + rot[:1]):
            rot_next[dart] = after
            layer_of[dart] = dsn.vertex_layer[v]
    order = {start: 0}
    queue = [start]
    out = []
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in (rot_next[x], x ^ 1):
            if y not in order:
                order[y] = len(order)
                queue.append(y)
        out.append((order[rot_next[x]], order[x ^ 1], layer_of[x] - (x & 1), x & 1))
    return tuple(out)


def layer1_anchors(dsn) -> list[int]:
    """The low darts of the layer-1 edges: the darts at layer-1 vertices."""
    return sorted(x for i, rot in zip(dsn.vertex_layer, dsn.rotations) if i == 1 for x in rot)


def canonical_form_reference(dsn) -> tuple:
    """The least full encoding over every layer-1 anchor."""
    return min(encode_from(dsn, a) for a in layer1_anchors(dsn))


def make_datum(cover, base, d, parts) -> BranchDatum:
    return BranchDatum(cover, base, d, tuple(Partition(tuple(p)) for p in parts))


def sphere_datum(d, parts, cover=SPHERE) -> BranchDatum:
    return make_datum(cover, SPHERE, d, parts)


def all_sphere_over_sphere_data(d) -> list[BranchDatum]:
    """Every compatible (S, S, n, d) datum over the full admissible range
    of n, enumerated by exact preimage-count targets (the cover being the
    sphere pins the total)."""
    from hurwitz.core import check_compatibility, partitions_of

    menu = sorted((p for p in partitions_of(d) if not p.is_trivial), key=len)
    sizes = [len(p) for p in menu]
    max_m = sizes[-1] if sizes else 0
    out = []
    for n in range(1, 2 * d - 1):
        target = 2 + d * (n - 2)
        if target < n:
            continue

        def rec(idx, left, total, chosen):
            if left == 0:
                if total == target:
                    datum = BranchDatum(SPHERE, SPHERE, d, tuple(chosen))
                    if check_compatibility(datum).compatible:
                        out.append(datum)
                return
            if idx >= len(menu):
                return
            if total + left * sizes[idx] > target or total + left * max_m < target:
                return
            for take in range(left, -1, -1):
                rec(idx + 1, left - take, total + take * sizes[idx],
                    chosen + [menu[idx]] * take)

        rec(0, n, 0, [])
    return out


def _all_multiples(p: Partition, k: int) -> bool:
    return all(x % k == 0 for x in p.parts)


def fixpoints_reference(datum: BranchDatum) -> bool:
    """Whether criteria.thm_fixpoints fires, by the divisor scan: some k
    with 1 < k < d and k | d, two partitions with all parts divisible by
    k, and a part above d/k in any other partition."""
    if datum.base != SPHERE or datum.cover != SPHERE:
        return False
    d = datum.degree
    parts = datum.partitions
    for k in range(2, d):
        if d % k:
            continue
        idx = [i for i, p in enumerate(parts) if _all_multiples(p, k)]
        for i, j in combinations(idx, 2):
            others = [p for t, p in enumerate(parts) if t not in (i, j)]
            if any(p.parts[0] > d // k for p in others):
                return True
    return False


def cor_mixed_reference(datum: BranchDatum) -> bool:
    """Whether criteria.cor_mixed fires, by the divisor scan over every k
    with 2k | d and 1 < k < d/2: a partition with all parts divisible by
    k, two further all-even partitions, and a part of the pair above d/k
    or a part of any other partition above d/2k."""
    if datum.base != SPHERE or datum.cover != SPHERE:
        return False
    d = datum.degree
    parts = datum.partitions
    for k in range(2, (d + 1) // 2):
        if d % (2 * k):
            continue
        multk = [i for i, p in enumerate(parts) if _all_multiples(p, k)]
        for i1 in multk:
            evens = [j for j, p in enumerate(parts) if j != i1 and _all_multiples(p, 2)]
            for i2, i3 in combinations(evens, 2):
                if parts[i2].parts[0] > d // k or parts[i3].parts[0] > d // k:
                    return True
                rest = [p for t, p in enumerate(parts) if t not in (i1, i2, i3)]
                if any(p.parts[0] > d // (2 * k) for p in rest):
                    return True
    return False


def lemma_transpos_reference(datum: BranchDatum) -> bool:
    """Whether criteria.lemma_transpos fires, by the divisor scan over
    d = k*h with the lemma's conditions written out as stated: p, q >= 2,
    p + q >= h + 2, r = ell - h with 1 <= r < p + q - h, and
    n = p + q - r - h + 2."""
    if datum.base != SPHERE or datum.cover != SPHERE or datum.n < 3:
        return False
    d = datum.degree
    n = datum.n
    padding = (2,) + (1,) * (d - 2)
    roles = [p.parts for p in datum.partitions if p.parts != padding]
    if len(roles) != 3:
        return False
    for c_idx in range(3):
        c = roles[c_idx]
        if len(c) < 2 or c[0] < 3 or c[1] != 1:
            continue
        ell = c[0]
        a, b = (roles[t] for t in range(3) if t != c_idx)
        for k in range(2, d):
            if d % k:
                continue
            h = d // k
            if h < 2:
                continue
            if not all(x % k == 0 for x in a) or not all(x % k == 0 for x in b):
                continue
            p, q = len(a), len(b)
            if p < 2 or q < 2 or p + q < h + 2:
                continue
            r = ell - h
            if 1 <= r < p + q - h and n == p + q - r - h + 2:
                return True
    return False


def m_sum_reference(datum: BranchDatum) -> bool:
    """Whether criteria.prop_baranski tags Prop-m-sum: some subset of r
    branching points whose preimage counts sum to (r-1)d + 1, found in
    the set of reachable (subset size, preimage total) pairs."""
    if datum.cover != SPHERE or datum.base != SPHERE:
        return False
    d = datum.degree
    reachable: set[tuple[int, int]] = {(0, 0)}
    for p in datum.partitions:
        reachable |= {(r + 1, s + len(p.parts)) for r, s in reachable}
    return any((r, (r - 1) * d + 1) in reachable for r in range(1, datum.n + 1))
