"""Layered embedded graphs encoding realizations over the sphere base.

A realization tuple tau_1..tau_{n-1} turns into a graph with one vertex
layer per permutation (vertices = cycles), one edge per point and
adjacent layer pair, and a rotation system whose faces are the discs of
the embedding.  Both directions of the dictionary are implemented: from
permutations to the graph and back, the latter re-deriving an edge
numbering from the rotations alone and refusing any rotation system
that is not the dessin of a transitive tuple.

Conventions, fixed once: vertex rotations are recorded counterclockwise;
around a middle-layer vertex the lower-layer edge with index k comes
immediately before the same-index upper-layer edge.  Flipping the
handedness conjugates all recovered permutations by one involution and
changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import BranchDatum, Surface, surface_from_euler
from .perms import Perm, cycles, is_transitive


class DessinError(ValueError):
    """Rotation data that is not the dessin of any transitive tuple."""


@dataclass(frozen=True, slots=True)
class Dessin:
    """A layered rotation system.

    ``vertex_layer[v]`` is the 1-based layer of vertex v; ``edges[e]`` is
    ``(layer, k, v_low, v_high)`` with k the 0-based point label; dart
    ``2*e`` sits at the low end of edge e and ``2*e + 1`` at the high
    end; ``rotations[v]`` lists the darts around v in cyclic order.
    Construction raises DessinError unless ``vertex_layer`` has one entry
    per rotation and every dart sits in exactly one rotation, once.  The
    faces are derived then, not supplied: each is the dart sequence along
    one boundary walk (follow the partner dart, then turn to the next dart
    around its vertex), in order of their least darts.  ``rot_next[x]``,
    derived with them, is the dart after x around its vertex.
    """

    layers: int
    degree: int
    vertex_layer: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    rotations: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...] = field(init=False)
    rot_next: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.vertex_layer) != len(self.rotations):
            raise DessinError("vertex_layer and rotations differ in length")
        dart_count = 2 * len(self.edges)
        rot_next = _rot_next(self.rotations, dart_count)
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
        object.__setattr__(self, "faces", tuple(faces))
        object.__setattr__(self, "rot_next", tuple(rot_next))

    @property
    def n(self) -> int:
        return self.layers + 1

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_layer)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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


def _edge_index(i: int, k: int, d: int) -> int:
    return (i - 1) * d + k


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
    """
    if len(taus) < 2:
        raise ValueError("a dessin needs at least two layers (n >= 3)")
    d = len(taus[0])
    if any(len(t) != d for t in taus):
        raise ValueError("degree mismatch")
    if not is_transitive(list(taus), d):
        raise ValueError("permutations do not act transitively: "
                         "the dessin would be disconnected")
    n = len(taus) + 1
    vertex_layer: list[int] = []
    rotations: list[tuple[int, ...]] = []
    vertex_of = []  # per layer: point -> vertex id
    for i, tau in enumerate(taus, start=1):
        point_map = [0] * d
        for cyc in cycles(tau):
            rot: list[int] = []
            for k in cyc:
                point_map[k] = len(rotations)
                if i > 1:
                    rot.append(2 * _edge_index(i - 1, k, d) + 1)
                if i < n - 1:
                    rot.append(2 * _edge_index(i, k, d))
            vertex_layer.append(i)
            rotations.append(tuple(rot))
        vertex_of.append(point_map)
    edges = [(i, k, vertex_of[i - 1][k], vertex_of[i][k])
             for i in range(1, n - 1) for k in range(d)]
    return Dessin(
        layers=n - 1,
        degree=d,
        vertex_layer=tuple(vertex_layer),
        edges=tuple(edges),
        rotations=tuple(rotations),
    )


def permutations_from_dessin(dsn: Dessin) -> tuple[Perm, ...]:
    """Recover tau_1..tau_{n-1} from the rotations alone.

    Edges of the first layer are numbered from the lowest first-layer
    vertex onward, rotation order; around a middle vertex the high dart
    of edge (i-1, k) is followed by the low dart of edge (i, k), which
    passes each number up.  Different anchors give simultaneously
    conjugate outputs.  Dart placement was checked when dsn was built;
    this raises DessinError unless the rotations are laid out as the
    dessin of the returned tuple: a layer-i vertex carries only high
    darts of layer i-1 and low darts of layer i, alternating around a
    middle vertex, no rotation is empty, layer 1 carries d edges and the
    tuple is transitive.
    """
    n, d = dsn.n, dsn.degree
    first: list[int] = []  # layer-1 edges in numbering order
    for i, rot in zip(dsn.vertex_layer, dsn.rotations):
        if not rot:
            raise DessinError(f"a layer-{i} vertex has an empty rotation")
        for dart in rot:
            layer = dsn.edges[dart // 2][0]
            if not (1 <= layer <= n - 2 and layer + (dart & 1) == i):
                raise DessinError(f"dart {dart} does not belong at a layer-{i} vertex")
        if 1 < i < n - 1 and any((a ^ b) & 1 == 0 for a, b in zip(rot, rot[1:] + rot[:1])):
            raise DessinError(f"edges do not alternate around a layer-{i} vertex")
        if i == 1:
            first.extend(dart // 2 for dart in rot)
    if len(first) != d:
        raise DessinError("layer 1 does not carry exactly d edges")

    rot_next = dsn.rot_next
    chain = [first]  # chain[i-1][k] is edge (i, k)
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
    they are."""
    n = dsn.n
    if datum.n != n or datum.degree != dsn.degree:
        return False
    scale = 2 * (n - 2)
    derived = []
    for layer in range(1, n):
        vals = dsn.valences(layer)
        if layer in (1, n - 1):
            derived.append(vals)
        else:
            if any(v % 2 for v in vals):
                return False
            derived.append(tuple(v // 2 for v in vals))
    lens = dsn.face_lengths()
    if any(ln % scale for ln in lens):
        return False
    derived.append(tuple(ln // scale for ln in lens))
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
    complete invariant.  Dart placement was checked when dsn was built;
    this raises DessinError when no edge lies in layer 1 or the walk
    misses a dart.
    """
    dart_count = 2 * dsn.edge_count
    rot_next = dsn.rot_next
    layer = [edge[0] for edge in dsn.edges for _ in (0, 1)]
    walks = []  # per surviving anchor: (order, queue), order[x] = -1 until met
    for x in range(0, dart_count, 2):
        if layer[x] == 1:
            order = [-1] * dart_count
            order[x] = 0
            walks.append((order, [x]))
    if not walks:
        raise DessinError("no edge lies in layer 1")
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
            entry = (order[y], order[z], layer[x], x & 1)
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

    def token(dart: int) -> str:
        layer, k, _, _ = dsn.edges[dart // 2]
        return f"{layer}:{k + 1}"

    lines = []
    for v in range(dsn.vertex_count):
        rot = " ".join(token(dart) for dart in dsn.rotations[v])
        lines.append(f"vertex {dsn.vertex_layer[v]} {v} rot={rot}")
    for layer, k, v_low, v_high in dsn.edges:
        lines.append(f"edge {layer} {k + 1} {v_low} {v_high}")
    for walk in dsn.faces:
        edge_list = ",".join(token(dart) for dart in walk)
        lines.append(f"face len={len(walk)} edges={edge_list}")
    return lines
