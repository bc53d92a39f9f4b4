"""Domain types for candidate branched coverings between closed surfaces.

A candidate covering is recorded as a *branch datum*: the cover and base
surfaces, the total degree d, and one partition of d per branching point
(the local degrees over that point).  This module implements the five
classical necessary conditions for such a datum to come from an actual
covering (the Euler-characteristic count, a parity constraint, and three
orientability constraints), cover-surface inference, partition plumbing,
and the one-line text grammar shared by the CLI and the catalog.

The value types carry the facts every layer reads, so that no layer
derives them again per datum.  A Partition stores its degree and a
BranchDatum its branching count n and preimage total n~, both computed
once at construction and left out of equality, hashing and repr.  The
text of a partition comes from a memo keyed by its parts and bounded at
4096 entries, so no instance stores its text.  surface_from_euler and
surface_from_token hand out shared surfaces from a memo of the same
bound, SPHERE, TORUS, PROJECTIVE and KLEIN themselves where those apply.
Surfaces compare and hash by value, with identity as the fast path.
Integer inputs (parts, genus, degree) go through operator.index: numpy
integers are accepted, anything else is refused with ValueError.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class DatumParseError(ValueError):
    """Raised when a datum line or surface token cannot be parsed."""


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True, slots=True, order=True)
class Partition:
    """A partition of a positive integer, stored with parts non-increasing.

    Doubles as the cycle type of a permutation.  Input parts may come in
    any order; they are normalized on construction.
    """

    parts: tuple[int, ...]
    degree: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            parts = tuple(sorted(map(operator.index, self.parts), reverse=True))
        except TypeError:
            raise ValueError(f"partition parts must be integers: {self.parts!r}") from None
        if not parts:
            raise ValueError("a partition needs at least one part")
        if parts[-1] < 1:
            raise ValueError(f"partition parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "degree", sum(parts))

    @property
    def is_trivial(self) -> bool:
        """True for (1,...,1), the partition of an unbranched point."""
        return self.parts[0] == 1

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return _partition_text(self.parts)


@lru_cache(maxsize=4096)
def _partition_text(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


@dataclass(frozen=True, slots=True, eq=False)
class Surface:
    """A closed connected surface: orientability flag plus genus."""

    orientable: bool
    genus: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "genus", _integer(self.genus, "genus"))
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if not self.orientable and self.genus == 0:
            raise ValueError("a non-orientable surface has genus >= 1")

    @property
    def euler_characteristic(self) -> int:
        if self.orientable:
            return 2 - 2 * self.genus
        return 2 - self.genus

    @property
    def token(self) -> str:
        return f"{'O' if self.orientable else 'N'}{self.genus}"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Surface:
            return NotImplemented
        return self.orientable == other.orientable and self.genus == other.genus

    def __hash__(self) -> int:
        return hash((self.orientable, self.genus))

    def __str__(self) -> str:
        return self.token


SPHERE = Surface(True, 0)
TORUS = Surface(True, 1)
PROJECTIVE = Surface(False, 1)
KLEIN = Surface(False, 2)
_NAMED = {(s.orientable, s.genus): s for s in (SPHERE, TORUS, PROJECTIVE, KLEIN)}


@lru_cache(maxsize=4096)
def _shared_surface(orientable: bool, genus: int) -> Surface:
    """The one instance handed out for (orientable, genus); the named
    constants whatever the memo holds."""
    return _NAMED.get((orientable, genus)) or Surface(orientable, genus)


def surface_from_token(token: str) -> Surface:
    """Parse a surface token: O<g> orientable, N<g> non-orientable."""
    m = re.fullmatch(r"([ON])(\d+)", token)
    if m is None:
        raise DatumParseError(f"bad surface token {token!r}")
    try:
        return _shared_surface(m.group(1) == "O", int(m.group(2)))
    except ValueError as exc:
        raise DatumParseError(str(exc)) from exc


def surface_from_euler(chi: int, orientable: bool) -> Surface | None:
    """The closed surface of given Euler characteristic, if one exists."""
    if orientable:
        if chi > 2 or chi % 2:
            return None
        return _shared_surface(True, (2 - chi) // 2)
    if chi > 1:
        return None
    return _shared_surface(False, 2 - chi)


@dataclass(frozen=True, slots=True)
class BranchDatum:
    """The object under test: (cover, base, degree, branching partitions).

    Partitions are kept in canonical order (descending lexicographic), so
    two data with the same unordered content compare equal.  Trivial
    partitions (1,...,1) are rejected: they describe unbranched points and
    should simply be dropped by the caller.
    """

    cover: Surface
    base: Surface
    degree: int
    partitions: tuple[Partition, ...]
    n: int = field(init=False, compare=False, repr=False)
    """Number of branching points."""
    n_tilde: int = field(init=False, compare=False, repr=False)
    """Total number of preimages of branching points."""

    def __post_init__(self) -> None:
        degree = _integer(self.degree, "degree")
        if degree < 2:
            raise ValueError("degree must be at least 2")
        norm = tuple(
            p if isinstance(p, Partition) else Partition(tuple(p))
            for p in self.partitions
        )
        for p in norm:
            if p.degree != degree:
                raise ValueError(f"partition {p} does not sum to degree {degree}")
            if p.is_trivial:
                raise ValueError(
                    "trivial partition (1,...,1) marks an unbranched point; drop it"
                )
        norm = tuple(sorted(norm, key=lambda p: p.parts, reverse=True))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "partitions", norm)
        object.__setattr__(self, "n", len(norm))
        object.__setattr__(self, "n_tilde", sum(len(p.parts) for p in norm))

    def __str__(self) -> str:
        return format_datum(self)


@dataclass(frozen=True, slots=True)
class CompatibilityReport:
    compatible: bool
    violated: frozenset[int]


def check_compatibility(datum: BranchDatum) -> CompatibilityReport:
    """Check the five necessary conditions, reporting every violation.

    1. chi(cover) - n~ = d * (chi(base) - n)
    2. n*d - n~ is even
    3. orientable base => orientable cover
    4. non-orientable base and odd d => non-orientable cover
    5. non-orientable base with orientable cover => every partition
       refines (d/2, d/2)

    Condition 5 presupposes an even degree (condition 4 flags the odd
    case), so it is evaluated only when d is even.
    """
    d = datum.degree
    n = datum.n
    nt = datum.n_tilde
    violated: set[int] = set()
    if datum.cover.euler_characteristic - nt != d * (datum.base.euler_characteristic - n):
        violated.add(1)
    if (n * d - nt) % 2:
        violated.add(2)
    if datum.base.orientable and not datum.cover.orientable:
        violated.add(3)
    if not datum.base.orientable and datum.cover.orientable:
        if d % 2:
            violated.add(4)
        elif not all(refines_two_halves(p) for p in datum.partitions):
            violated.add(5)
    return CompatibilityReport(not violated, frozenset(violated))


def infer_cover(
    base: Surface, n: int, d: int, partitions: Sequence[Partition | Iterable[int]]
) -> list[Surface]:
    """All cover surfaces consistent with conditions 1, 3 and 4.

    Returns zero, one, or two candidates: for a non-orientable base and
    even degree both orientability types can occur.  Condition 5 is not
    applied here; it stays a compatibility condition reported downstream.
    """
    parts = [p if isinstance(p, Partition) else Partition(tuple(p)) for p in partitions]
    if len(parts) != n:
        raise ValueError(f"expected {n} partitions, got {len(parts)}")
    for p in parts:
        if p.degree != d:
            raise ValueError(f"partition {p} does not sum to degree {d}")
    return covers_from_count(base, n, d, sum(len(p.parts) for p in parts))


def covers_from_count(base: Surface, n: int, d: int, n_tilde: int) -> list[Surface]:
    """What infer_cover returns, read off the preimage total n~ alone."""
    chi = n_tilde + d * (base.euler_characteristic - n)
    out: list[Surface] = []
    if base.orientable or d % 2 == 0:
        s = surface_from_euler(chi, True)
        if s is not None:
            out.append(s)
    if not base.orientable:
        s = surface_from_euler(chi, False)
        if s is not None:
            out.append(s)
    return out


def refines_two_halves(p: Partition) -> bool:
    """True iff some sub-multiset of the parts sums to degree/2."""
    d = p.degree
    if d % 2:
        raise ValueError("refinement of (d/2, d/2) needs an even degree")
    half = d // 2
    reachable = 1
    for x in p.parts:
        reachable |= reachable << x
    return bool((reachable >> half) & 1)


def partitions_of(d: int) -> Iterator[Partition]:
    """All partitions of d, exactly once, in reverse-lexicographic order:
    the largest first part first, each followed by the partitions of the
    rest into parts no larger.  The recursion goes as deep as the
    partition yielded has parts above 1, and one of k parts comes after
    at least p(k) - 1 others (10^8 for k = 100), so no feasible caller
    nears the recursion limit."""
    if d < 1:
        raise ValueError("d must be positive")
    yield from map(Partition, _parts_at_most(d, d))


def _parts_at_most(d: int, cap: int) -> Iterator[tuple[int, ...]]:
    if cap == 1 or d <= 1:
        yield (1,) * d
        return
    for first in range(min(d, cap), 0, -1):
        for rest in _parts_at_most(d - first, first):
            yield (first,) + rest


_LINE_RE = re.compile(
    r"d=(\d+)\s+cover=(\S+)\s+base=(\S+)\s+parts=\[([0-9,|]*)\]"
)


def format_datum(datum: BranchDatum) -> str:
    """Render the canonical one-line form of a datum.

    Grammar: ``d=<int> cover=<SURF> base=<SURF> parts=[p1,p2,...|q1,...]``.
    """
    body = "|".join(map(str, datum.partitions))
    return f"d={datum.degree} cover={datum.cover.token} base={datum.base.token} parts=[{body}]"


def parse_datum(line: str) -> BranchDatum:
    """Parse a datum line; partitions may arrive in any order."""
    m = _LINE_RE.fullmatch(line.strip())
    if m is None:
        raise DatumParseError(f"bad datum line: {line.strip()!r}")
    d = int(m.group(1))
    cover = surface_from_token(m.group(2))
    base = surface_from_token(m.group(3))
    body = m.group(4)
    try:
        if body:
            partitions = tuple(
                Partition(tuple(int(t) for t in grp.split(","))) for grp in body.split("|")
            )
        else:
            partitions = ()
        return BranchDatum(cover, base, d, partitions)
    except ValueError as exc:
        raise DatumParseError(f"bad datum line: {line.strip()!r} ({exc})") from exc
