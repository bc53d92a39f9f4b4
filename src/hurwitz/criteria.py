"""The theorem battery: cheap sufficient conditions for realizability or
exceptionality, each verdict tagged with its rule of provenance, plus the
orchestrator that falls back to exhaustive search.

Every predicate takes a *compatible* datum and either fires a verdict or
returns None.  Positional hypotheses ("two partitions with all parts
even", ...) are matched against all unordered selections of partitions,
since branching points carry no order.  Realizable-firing rules and
exceptional-firing rules can never both hold on one datum; if they ever
do, that is an implementation bug and classify raises loudly.

The divisibility rules read each partition's largest part, length and
gcd of parts once, and test "all parts divisible by some k" at the
largest such k, a gcd, where their bounds are tightest: no divisor scan.
This relies on compatibility: over the sphere with a sphere cover,
Riemann-Hurwitz (n~ = 2 + d(n-2), every partition shorter than d) rules
out the shapes where that gcd is not an admissible k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import gcd
from typing import Callable, Sequence

from .core import (
    SPHERE,
    PROJECTIVE,
    BranchDatum,
    check_compatibility,
    refines_two_halves,
)
from .blocks import reduce_projective
from .realizer import BUDGET_EXCEEDED, DEFAULT_BUDGET, EXHAUSTED, FOUND, Realization, search

INCOMPATIBLE = "incompatible"
REALIZABLE = "realizable"
EXCEPTIONAL = "exceptional"
UNKNOWN = "unknown"

# search status -> (verdict kind, provenance tag)
SEARCH_VERDICTS = {
    FOUND: (REALIZABLE, "search-found"),
    EXHAUSTED: (EXCEPTIONAL, "search-exhausted"),
    BUDGET_EXCEEDED: (UNKNOWN, "budget-exceeded"),
}


class ConsistencyError(RuntimeError):
    """A realizable rule and an exceptional rule fired on one datum."""


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str
    tags: tuple[str, ...] = ()
    violations: frozenset[int] = field(default_factory=frozenset)
    witness: Realization | None = None
    nodes: int = 0

    def __post_init__(self) -> None:
        if self.kind in (REALIZABLE, EXCEPTIONAL) and not self.tags:
            raise ValueError(f"a {self.kind} verdict needs provenance")
        if self.kind == INCOMPATIBLE and not self.violations:
            raise ValueError("an incompatible verdict needs violations")

    @property
    def provenance(self) -> str:
        """First-firing tag, plus how many further rules agreed."""
        if self.kind == INCOMPATIBLE:
            return "violated:" + ",".join(str(i) for i in sorted(self.violations))
        if not self.tags:
            return ""
        extra = len(self.tags) - 1
        return self.tags[0] + (f"+{extra}" if extra else "")


def _fire(kind: str, tag: str) -> Verdict:
    return Verdict(kind, (tag,))


def _gcds(datum: BranchDatum) -> list[int]:
    """The gcd of each partition's parts, in the datum's order."""
    return [gcd(*p.parts) for p in datum.partitions]


def _match_ordered(
    datum: BranchDatum,
    seconds: Sequence[tuple[int, ...]],
    exceptional: Callable[[tuple[int, ...]], bool],
    tag: str,
) -> Verdict | None:
    """On three points over the sphere with d even, judge the third
    partition of every ordered pair ((2,...,2), one of seconds) by
    ``exceptional(third)``.  Fires the common verdict; matches that
    disagree raise ConsistencyError."""
    d = datum.degree
    if datum.base != SPHERE or datum.n != 3 or d % 2:
        return None
    first = (2,) * (d // 2)
    parts = [p.parts for p in datum.partitions]
    kinds = set()
    for i, j in permutations(range(3), 2):
        if parts[i] == first and parts[j] in seconds:
            kinds.add(EXCEPTIONAL if exceptional(parts[3 - i - j]) else REALIZABLE)
    if len(kinds) > 1:
        raise ConsistencyError(f"ambiguous shape match on {datum}")
    return _fire(kinds.pop(), tag) if kinds else None


def thm_chi_nonpositive(datum: BranchDatum) -> Verdict | None:
    """Compatible data over a base of non-positive Euler characteristic
    are always realizable, whatever the orientability pattern."""
    if datum.base.euler_characteristic > 0:
        return None
    if datum.base.orientable:
        return _fire(REALIZABLE, "Thm-OO")
    if datum.cover.orientable:
        return _fire(REALIZABLE, "Thm-ON")
    return _fire(REALIZABLE, "Thm-NN")


def thm_projective(datum: BranchDatum) -> Verdict | None:
    """Projective-plane base with non-orientable cover: always realizable."""
    if datum.base == PROJECTIVE and not datum.cover.orientable:
        return _fire(REALIZABLE, "Thm-NP")
    return None


def thm_full_cycle(datum: BranchDatum) -> Verdict | None:
    """A partition equal to (d) alone makes a sphere datum realizable."""
    if datum.base != SPHERE:
        return None
    if any(len(p.parts) == 1 for p in datum.partitions):
        return _fire(REALIZABLE, "Thm-full-cycle")
    return None


def thm_eks_large(datum: BranchDatum) -> Verdict | None:
    """Large total branching settles everything except degree 4, where
    the exceptional data are exactly (2,2),...,(2,2),(3,1)."""
    if datum.base != SPHERE:
        return None
    d = datum.degree
    defect = datum.n * d - datum.n_tilde
    if d == 4:
        counts = [p.parts for p in datum.partitions]
        if counts.count((2, 2)) == datum.n - 1 and counts.count((3, 1)) == 1:
            return _fire(EXCEPTIONAL, "Thm-EKS-d4")
        return _fire(REALIZABLE, "Thm-EKS-d4")
    if defect >= 3 * (d - 1):
        return _fire(REALIZABLE, "Thm-EKS-bound")
    return None


def prop_eks_222(datum: BranchDatum) -> Verdict | None:
    """Shape (x,d-x),(2,...,2),(2,...,2) over the sphere: realizable iff
    x = d/2.  Beside two (2,...,2) the Euler count gives chi(cover) =
    len(third), so a compatible sphere cover has a third of 2 parts."""
    if datum.cover != SPHERE:
        return None
    half = datum.degree // 2
    return _match_ordered(
        datum, ((2,) * half,), lambda third: third[0] != half, "Prop-EKS-222"
    )


def prop_baranski(datum: BranchDatum) -> Verdict | None:
    """Three sufficient conditions for sphere-over-sphere data: an exact
    preimage-count identity over some subset of the branching points, at
    least d branching points, or all parts <= 2 with every partition long
    enough."""
    if datum.cover != SPHERE or datum.base != SPHERE:
        return None
    d = datum.degree
    ms = [len(p.parts) for p in datum.partitions]
    tags = []
    # m_{i1}+...+m_{ir} = (r-1)d + 1 over some subset is the subset sum
    # (d-m_{i1})+...+(d-m_{ir}) = d-1, read off a bitset of reachable sums
    reachable = 1
    for m in ms:
        reachable |= reachable << (d - m)
    if (reachable >> (d - 1)) & 1:
        tags.append("Prop-m-sum")
    if datum.n >= d:
        tags.append("Prop-n-ge-d")
    if all(p.parts[0] <= 2 for p in datum.partitions) and all(
        2 * (d - m) * (d - m) <= d for m in ms
    ):
        tags.append("Prop-small-parts")
    if tags:
        return Verdict(REALIZABLE, tuple(tags))
    return None


def _kk_form(third: tuple[int, ...], d: int) -> bool:
    # (k, k, d/2-k, d/2-k) for some k > 0, read off the sorted tuple
    a, b, c, e = third
    return a == b and c == e and a + c == d // 2


def prop_53(datum: BranchDatum) -> Verdict | None:
    """Shape (2,...,2),(5,3,2,...,2),third over the sphere, d >= 8 even
    (below 8 no partition of d has the shape).

    Torus cover: exceptional exactly for third = (d/2, d/2).  Sphere
    cover: exceptional exactly for third of the form (k,k,d/2-k,d/2-k),
    or (d/2,d/6,d/6,d/6) when 6 | d.  The two shaped partitions have
    d - 2 parts, so the Euler count gives chi(cover) = len(third) - 2:
    a compatible third has 2 parts (torus cover) or 4 (sphere cover).
    """
    d = datum.degree

    def exceptional(third: tuple[int, ...]) -> bool:
        if len(third) == 2:
            return third == (d // 2, d // 2)
        return _kk_form(third, d) or (
            d % 6 == 0 and third == (d // 2, d // 6, d // 6, d // 6)
        )

    shape = (5, 3) + (2,) * ((d - 8) // 2)
    return _match_ordered(datum, (shape,), exceptional, "Prop-53-shape")


def prop_23(datum: BranchDatum) -> Verdict | None:
    """Sphere-over-sphere shape (2,...,2) plus (3,3,2,...,2) or
    (3,2,...,2,1): realizable iff the third partition's largest part
    differs from d/2.  Below d = 6 no partition of d is (3,3,2,...,2)."""
    if datum.cover != SPHERE:
        return None
    d = datum.degree
    shapes = ((3,) + (2,) * ((d - 4) // 2) + (1,), (3, 3) + (2,) * ((d - 6) // 2))
    return _match_ordered(datum, shapes, lambda third: third[0] == d // 2, "Prop-332-shape")


def thm_fixpoints(datum: BranchDatum) -> Verdict | None:
    """Two partitions with all parts divisible by some k (1 < k < d, k | d)
    cap every other partition's parts at d/k; a larger part anywhere else
    makes the sphere-over-sphere datum exceptional.

    The cap is tightest at the largest k, the gcd of the pair's gcds.  It
    is d only for two partitions (d), which Riemann-Hurwitz allows in a
    compatible datum only with no other point, so k = d caps nothing.
    """
    if datum.base != SPHERE or datum.cover != SPHERE:
        return None
    d = datum.degree
    gcds = _gcds(datum)
    tops = [p.parts[0] for p in datum.partitions]
    for i, j in combinations(range(datum.n), 2):
        k = gcd(gcds[i], gcds[j])
        if k > 1 and any(top > d // k for t, top in enumerate(tops) if t != i and t != j):
            return _fire(EXCEPTIONAL, "Thm-divisible-pair")
    return None


def thm_even_deg(datum: BranchDatum) -> Verdict | None:
    """Two all-even partitions force every other partition to refine
    (d/2, d/2); a failure makes the sphere-over-sphere datum exceptional."""
    if datum.base != SPHERE or datum.cover != SPHERE or datum.degree % 2:
        return None
    evens = {i for i, g in enumerate(_gcds(datum)) if g % 2 == 0}
    if any(
        len(evens) - (t in evens) >= 2 and not refines_two_halves(p)
        for t, p in enumerate(datum.partitions)
    ):
        return _fire(EXCEPTIONAL, "Thm-even-pair")
    return None


def cor_mixed(datum: BranchDatum) -> Verdict | None:
    """One all-multiples-of-k partition plus two all-even partitions
    (2k | d, 1 < k < d/2) cap the even pair at d/k and everything else at
    d/2k; any violation makes the sphere-over-sphere datum exceptional.

    Both caps are tightest at the largest k, gcd(g, d/2) for the first
    partition's gcd g.  That is d/2 only for (d) or (d/2, d/2); beside two
    all-even partitions Riemann-Hurwitz allows only (d/2, d/2) with two
    (2,...,2), which no admissible k catches, so such a g is skipped.
    """
    d = datum.degree
    if datum.base != SPHERE or datum.cover != SPHERE or d % 2:
        return None
    half = d // 2
    gcds = _gcds(datum)
    tops = [p.parts[0] for p in datum.partitions]
    evens = [j for j, g in enumerate(gcds) if g % 2 == 0]
    for i1, g in enumerate(gcds):
        k = gcd(g, half)
        if not 1 < k < half:
            continue
        for i2, i3 in combinations([j for j in evens if j != i1], 2):
            if max(tops[i2], tops[i3]) > d // k or any(
                top > half // k for t, top in enumerate(tops) if t not in (i1, i2, i3)
            ):
                return _fire(EXCEPTIONAL, "Cor-mixed-pair")
    return None


def thm_odd_divisible(datum: BranchDatum) -> Verdict | None:
    """Three branching points over the sphere with every part divisible
    by a common odd p >= 3: realizable."""
    if datum.base != SPHERE or datum.n != 3:
        return None
    g = gcd(*_gcds(datum))
    if g & (g - 1):  # g is not a power of two, so it has an odd factor
        return _fire(REALIZABLE, "Thm-odd-div")
    return None


def lemma_transpos(datum: BranchDatum) -> Verdict | None:
    """The transposition-padded exceptional family.

    For d = k*h (k, h >= 2) and partitions (s_j), (t_j) of h with
    p, q >= 2 and p + q >= h + 2, the datum with partitions
    (k*s_j), (k*t_j), (h+r, 1, ..., 1) and n-3 copies of (2,1,...,1)
    is exceptional whenever 1 <= r < p + q - h and n = p+q-r-h+2.

    With ell = h + r the last equation reads n = p+q-ell+2, free of k.
    Given it and n >= 3, every other condition follows from h < ell (p = 1
    would need q >= ell > h, yet q parts that k divides make q <= h), and
    h < ell is weakest at the largest k: the gcd of the (k*s_j), (k*t_j).
    """
    if datum.base != SPHERE or datum.cover != SPHERE or datum.n < 3:
        return None
    d = datum.degree
    padding = (2,) + (1,) * (d - 2)
    roles = [p.parts for p in datum.partitions if p.parts != padding]
    if len(roles) != 3:
        return None
    for c_idx, c in enumerate(roles):
        if len(c) < 2 or c[0] < 3 or c[1] != 1:
            continue
        ell = c[0]
        a, b = (roles[t] for t in range(3) if t != c_idx)
        if datum.n == len(a) + len(b) - ell + 2 and d // gcd(*a, *b) < ell:
            return _fire(EXCEPTIONAL, "Lemma-transpos")
    return None


PREDICATES = (
    thm_chi_nonpositive,
    thm_projective,
    thm_full_cycle,
    thm_eks_large,
    prop_eks_222,
    prop_baranski,
    prop_53,
    prop_23,
    thm_fixpoints,
    thm_even_deg,
    cor_mixed,
    thm_odd_divisible,
    lemma_transpos,
)


def run_predicates(datum: BranchDatum) -> list[Verdict]:
    """Fire every applicable predicate on a compatible datum."""
    out = []
    for pred in PREDICATES:
        v = pred(datum)
        if v is not None:
            out.append(v)
    return out


def search_verdict(datum: BranchDatum, budget: int = DEFAULT_BUDGET) -> Verdict:
    """The verdict of the sphere search on a compatible datum: REALIZABLE
    search-found with its witness, EXCEPTIONAL search-exhausted, or
    UNKNOWN budget-exceeded (SEARCH_VERDICTS), with the search's nodes."""
    result = search(datum, budget)
    kind, tag = SEARCH_VERDICTS[result.status]
    return Verdict(kind, (tag,), witness=result.realization, nodes=result.nodes)


def classify(
    datum: BranchDatum,
    budget: int = DEFAULT_BUDGET,
    attach_witness: bool = False,
) -> Verdict:
    """Full pipeline: compatibility, theorem battery, search fallback.

    Exactly one polarity of rules may fire; both firing raises
    ConsistencyError (the rules cannot conflict, so that is a bug).
    When no rule fires, sphere-base data go to the exhaustive search and
    projective-plane data with orientable cover are classified through
    their sphere reductions.  Unknown only on an exhausted budget.
    """
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    report = check_compatibility(datum)
    if not report.compatible:
        return Verdict(INCOMPATIBLE, violations=report.violated)

    fired = run_predicates(datum)
    kinds = {v.kind for v in fired}
    if REALIZABLE in kinds and EXCEPTIONAL in kinds:
        raise ConsistencyError(
            f"conflicting rules on {datum}: "
            + ", ".join(f"{v.tags[0]}={v.kind}" for v in fired)
        )
    if fired:
        tags = tuple(t for v in fired for t in v.tags)
        kind = fired[0].kind
        if kind == REALIZABLE and attach_witness and datum.base == SPHERE:
            searched = search_verdict(datum, budget)
            if searched.kind == EXCEPTIONAL:
                raise ConsistencyError(
                    f"search exhausted a datum the rules call realizable: {datum}"
                )
            return Verdict(kind, tags, witness=searched.witness, nodes=searched.nodes)
        return Verdict(kind, tags)

    if datum.base == SPHERE:
        return search_verdict(datum, budget)

    if datum.base == PROJECTIVE and datum.cover.orientable:
        if datum.degree == 2:
            # the unbranched orientation double covering of the plane
            return Verdict(REALIZABLE, ("reduction:orientation-cover",))
        nodes = 0
        saw_unknown = False
        for reduced in reduce_projective(datum):
            sub = classify(reduced, budget - nodes)
            nodes += sub.nodes
            if sub.kind == REALIZABLE:
                tag = "reduction:" + sub.tags[0]
                return Verdict(REALIZABLE, (tag,), nodes=nodes)
            if sub.kind == UNKNOWN:
                saw_unknown = True
        if saw_unknown:
            kind, tag = SEARCH_VERDICTS[BUDGET_EXCEEDED]
            return Verdict(kind, (tag,), nodes=nodes)
        return Verdict(EXCEPTIONAL, ("reduction-exhausted",), nodes=nodes)

    raise AssertionError(f"unreachable: no rule and no fallback for {datum}")
