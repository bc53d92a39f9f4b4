"""Layered embedded graphs encoding realizations over the sphere base.

A realization tuple tau_1..tau_{n-1} turns into a graph with one vertex
layer per permutation (vertices = cycles), one edge per point and
adjacent layer pair, and a rotation system whose faces are the discs of
the embedding.  A Dessin is its degree d and its rotations: edge e lies
in layer e // d + 1 and carries point e % d, everything else is derived,
and construction refuses any layout that is not that of a layered graph.
Both directions of the dictionary are implemented: from permutations to
the graph and back, the latter re-deriving the point labels from the
rotations alone and refusing a disconnected rotation system.

Conventions, fixed once: vertex rotations are recorded counterclockwise;
around a middle-layer vertex the lower-layer edge with index k comes
immediately before the same-index upper-layer edge.  Flipping the
handedness conjugates all recovered permutations by one involution and
changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import SPHERE, BranchDatum, Surface, surface_from_euler
from .perms import Perm, cycles, is_transitive


class DessinError(ValueError):
    """Rotation data that is not the dessin of any transitive tuple."""


@dataclass(frozen=True, slots=True)
class Dessin:
    """A layered rotation system, given by its degree d and rotations.

    Edge e is edge (e // d + 1, e % d): it lies in layer e // d + 1 and
    carries the 0-based point e % d.  Dart ``2*e`` sits at its low end,
    dart ``2*e + 1`` at its high end, so dart x belongs at a vertex of
    layer ``x // 2 // d + 1 + (x & 1)``; ``rotations[v]`` lists the darts
    around v in cyclic order.  Construction raises DessinError unless d
    is at least 1, the dart count is a positive multiple of 2d, every dart
    sits in exactly one rotation, once, no rotation is empty, the darts
    around a vertex name one layer, and around a middle-layer vertex high
    and low darts alternate.
    ``vertex_layer`` is then read off the darts, and the faces are the
    dart sequences of the boundary walks (follow the partner dart, then
    turn to the next dart around its vertex), in order of their least
    darts.  ``rot_next[x]``, derived with them, is the dart after x
    around its vertex.
    """

    degree: int
    rotations: tuple[tuple[int, ...], ...]
    vertex_layer: tuple[int, ...] = field(init=False)
    faces: tuple[tuple[int, ...], ...] = field(init=False)
    rot_next: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d, dart_count = self.degree, sum(map(len, self.rotations))
        if d < 1 or dart_count < 1 or dart_count % (2 * d):
            raise DessinError(f"{dart_count} darts do not fill layers of degree {d}")
        rot_next = _rot_next(self.rotations, dart_count)
        if not all(self.rotations):
            raise DessinError("a rotation is empty")
        layers = dart_count // (2 * d) + 1
        layer = [x // 2 // d + 1 + (x & 1) for x in range(dart_count)]
        for x, y in enumerate(rot_next):  # y follows x around their vertex
            if layer[x] != layer[y]:
                raise DessinError(f"a vertex names layers {layer[x]} and {layer[y]}")
            if (x ^ y) & 1 == 0 and 1 < layer[x] < layers:
                raise DessinError(f"edges do not alternate around a layer-{layer[x]} vertex")
        faces = []
        seen = bytearray(dart_count)
        for start in range(dart_count):
            if seen[start]:
                continue
            walk = []
            x = start
            while not seen[x]:
                seen[x] = 1
                walk.append(x)
                x = rot_next[x ^ 1]
            faces.append(tuple(walk))
        object.__setattr__(self, "vertex_layer", tuple(layer[rot[0]] for rot in self.rotations))
        object.__setattr__(self, "faces", tuple(faces))
        object.__setattr__(self, "rot_next", tuple(rot_next))

    @property
    def layers(self) -> int:
        return self.edge_count // self.degree + 1

    @property
    def n(self) -> int:
        return self.layers + 1

    @property
    def vertex_count(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return len(self.rot_next) // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    @property
    def surface(self) -> Surface | None:
        return surface_from_euler(self.euler_characteristic, True)

    def face_lengths(self) -> tuple[int, ...]:
        return tuple(sorted((len(f) for f in self.faces), reverse=True))

    def valences(self, layer: int) -> tuple[int, ...]:
        out = [
            len(self.rotations[v])
            for v in range(self.vertex_count)
            if self.vertex_layer[v] == layer
        ]
        return tuple(sorted(out, reverse=True))


def _rot_next(rotations: Sequence[tuple[int, ...]], dart_count: int) -> list[int]:
    """The dart that follows each dart around its vertex.  Raises
    DessinError unless every dart 0 .. dart_count-1 sits in exactly one
    rotation, exactly once."""
    nxt = [-1] * dart_count
    for rot in rotations:
        for dart, after in zip(rot, rot[1:] + rot[:1]):
            if not 0 <= dart < dart_count:
                raise DessinError(f"dart {dart} is out of range")
            if nxt[dart] >= 0:
                raise DessinError(f"dart {dart} sits twice")
            nxt[dart] = after
    if -1 in nxt:
        raise DessinError(f"dart {nxt.index(-1)} sits at no vertex")
    return nxt


def dessin_from_permutations(taus: tuple[Perm, ...]) -> Dessin:
    """Build the layered graph of a transitive tuple tau_1..tau_{n-1}.

    Vertices in layer i are the cycles of tau_i; edge (i, k) joins the
    layer-i and layer-(i+1) cycles containing k.  The faces Dessin
    derives are the orbits of the boundary walk of the rotation system,
    so the Euler count V - E + F is that of the closed-up surface.
    Raises ValueError unless there are at least two taus, each a
    permutation of 0..d-1, acting transitively.
    """
    if len(taus) < 2:
        raise ValueError("a dessin needs at least two layers (n >= 3)")
    d = len(taus[0])
    if any(sorted(t) != list(range(d)) for t in taus):
        raise ValueError(f"every tau must be a permutation of 0..{d - 1}")
    if not is_transitive(list(taus), d):
        raise ValueError("permutations do not act transitively: "
                         "the dessin would be disconnected")
    n = len(taus) + 1
    rotations: list[tuple[int, ...]] = []
    for i, tau in enumerate(taus, start=1):
        for cyc in cycles(tau):
            rot: list[int] = []
            for k in cyc:
                if i > 1:
                    rot.append(2 * ((i - 2) * d + k) + 1)
                if i < n - 1:
                    rot.append(2 * ((i - 1) * d + k))
            rotations.append(tuple(rot))
    return Dessin(degree=d, rotations=tuple(rotations))


def permutations_from_dessin(dsn: Dessin) -> tuple[Perm, ...]:
    """Recover tau_1..tau_{n-1} from the rotations alone.

    Edges of the first layer are numbered from the lowest first-layer
    vertex onward, rotation order; around a middle vertex the high dart
    of edge (i-1, k) is followed by the low dart of edge (i, k), which
    passes each number up.  Different anchors give simultaneously
    conjugate outputs.  The layout was checked when dsn was built, so dsn
    is the dessin of the tuple returned here, up to its point labels;
    this raises DessinError when that tuple is not transitive.
    """
    n, d = dsn.n, dsn.degree
    rot_next = dsn.rot_next
    # chain[i-1][k] is edge (i, k); layer 1 in numbering order
    chain = [[x // 2 for i, rot in zip(dsn.vertex_layer, dsn.rotations) if i == 1 for x in rot]]
    for _ in range(n - 3):
        chain.append([rot_next[2 * e + 1] // 2 for e in chain[-1]])
    num = [0] * dsn.edge_count
    for edges in chain:
        for k, e in enumerate(edges):
            num[e] = k
    taus = [tuple(num[rot_next[2 * e] // 2] for e in chain[0])]
    taus += [tuple(num[rot_next[rot_next[2 * e]] // 2] for e in edges) for edges in chain[1:]]
    taus.append(tuple(num[rot_next[2 * e + 1] // 2] for e in chain[-1]))
    if not is_transitive(taus, d):
        raise DessinError("the rotation system is disconnected")
    return tuple(taus)


def validate_against_datum(dsn: Dessin, datum: BranchDatum) -> bool:
    """Valences and face lengths match the datum's partitions (end layers
    plainly, middle layers doubled, faces scaled by 2(n-2)) and the
    Euler-derived surface is the datum's cover.  The faces are the
    boundary walks Dessin derived at construction, so they are read as
    they are.  The divisions are exact: darts alternate around a middle
    vertex, and a face walk runs up from layer 1 to the top layer and
    back down in whole sweeps of 2(n-2) darts."""
    n = dsn.n
    if datum.n != n or datum.degree != dsn.degree or datum.base != SPHERE:
        return False
    scale = 2 * (n - 2)
    derived = []
    for layer in range(1, n):
        vals = dsn.valences(layer)
        derived.append(vals if layer in (1, n - 1) else tuple(v // 2 for v in vals))
    derived.append(tuple(ln // scale for ln in dsn.face_lengths()))
    if sorted(derived) != sorted(p.parts for p in datum.partitions):
        return False
    if not datum.cover.orientable:
        return False
    return dsn.euler_characteristic == datum.cover.euler_characteristic


def checkerboard_coloring(dsn: Dessin) -> Optional[dict[int, int]]:
    """Two-color the faces of a sphere dessin so every edge separates
    colors.  Returns None as soon as some vertex has odd valence; with
    all valences even the coloring exists and is unique up to swapping
    the two colors.  The faces are the boundary walks Dessin derived at
    construction, so they are read as they are."""
    if dsn.euler_characteristic != 2:
        raise ValueError("checkerboard coloring is defined on the sphere")
    if any(len(rot) % 2 for rot in dsn.rotations):
        return None
    face_of = {}
    for f, walk in enumerate(dsn.faces):
        for dart in walk:
            face_of[dart] = f
    color: dict[int, int] = {}
    for seed in range(dsn.face_count):
        if seed in color:
            continue
        color[seed] = 0
        stack = [seed]
        while stack:
            f = stack.pop()
            for dart in dsn.faces[f]:
                g = face_of[dart ^ 1]
                if g not in color:
                    color[g] = 1 - color[f]
                    stack.append(g)
                elif color[g] == color[f]:
                    raise RuntimeError(
                        "even-valence sphere dessin failed to checkerboard: "
                        "this contradicts the coloring lemma"
                    )
    return color


def canonical_form(dsn: Dessin) -> tuple:
    """A label-independent encoding of the layered rotation system;
    equal forms mean layered, rotation-preserving isomorphism.

    Each low dart of a layer-1 edge anchors a breadth-first walk that
    numbers darts as it meets them and writes, for the i-th dart x, the
    entry (number of the dart after x around its vertex, number of x's
    partner, layer, side).  The form is the least of these encodings,
    found by lockstep refinement: every anchor advances one dart per
    step and only the anchors with the least entry go on.  A layered
    isomorphism keeps each dart's (layer, side) label, so it maps these
    anchors onto each other; the dessin is connected, so the walk from
    any one anchor reaches every dart and the least encoding is still a
    complete invariant.  Edges 0 .. d-1 are the layer-1 edges, so the
    anchors are darts 0, 2, .., 2d-2.  This raises DessinError when the
    walk misses a dart.
    """
    d, dart_count = dsn.degree, 2 * dsn.edge_count
    rot_next = dsn.rot_next
    walks = []  # per surviving anchor: (order, queue), order[x] = -1 until met
    for x in range(0, 2 * d, 2):
        order = [-1] * dart_count
        order[x] = 0
        walks.append((order, [x]))
    out = []
    for i in range(dart_count):
        best = None
        for walk in walks:
            order, queue = walk
            if i == len(queue):
                raise DessinError("the rotation system is disconnected")
            x = queue[i]
            y, z = rot_next[x], x ^ 1
            if order[y] < 0:
                order[y] = len(queue)
                queue.append(y)
            if order[z] < 0:
                order[z] = len(queue)
                queue.append(z)
            entry = (order[y], order[z], x // 2 // d + 1, x & 1)
            if best is None or entry < best:
                best, kept = entry, [walk]
            elif entry == best:
                kept.append(walk)
        out.append(best)
        walks = kept
    return tuple(out)


def export_lines(dsn: Dessin) -> list[str]:
    """Line-oriented export: vertices with rotations, edges, faces.
    Edge tokens are ``<layer>:<k>`` with k 1-based."""
    d = dsn.degree
    vertex_of = [0] * (2 * dsn.edge_count)
    for v, rot in enumerate(dsn.rotations):
        for dart in rot:
            vertex_of[dart] = v

    def token(dart: int) -> str:
        return f"{dart // 2 // d + 1}:{dart // 2 % d + 1}"

    lines = []
    for v in range(dsn.vertex_count):
        rot = " ".join(token(dart) for dart in dsn.rotations[v])
        lines.append(f"vertex {dsn.vertex_layer[v]} {v} rot={rot}")
    for e in range(dsn.edge_count):
        lines.append(f"edge {e // d + 1} {e % d + 1} {vertex_of[2 * e]} {vertex_of[2 * e + 1]}")
    for walk in dsn.faces:
        edge_list = ",".join(token(dart) for dart in walk)
        lines.append(f"face len={len(walk)} edges={edge_list}")
    return lines
