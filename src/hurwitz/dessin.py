"""Layered embedded graphs encoding realizations over the sphere base.

A realization tuple tau_1..tau_{n-1} turns into a graph with one vertex
layer per permutation (vertices = cycles), one edge per point and
adjacent layer pair, and a rotation system whose faces are the discs of
the embedding.  Both directions of the dictionary are implemented: from
permutations to the graph and back, the latter re-deriving an edge
numbering from the rotations alone.

Conventions, fixed once: vertex rotations are recorded counterclockwise;
around a middle-layer vertex the lower-layer edge with index k comes
immediately before the same-index upper-layer edge.  Flipping the
handedness conjugates all recovered permutations by one involution and
changes no verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import BranchDatum, Surface, surface_from_euler
from .perms import Perm, cycles, is_transitive


class DessinError(ValueError):
    """Malformed rotation data: the edge numbering rules cannot be met."""


@dataclass(frozen=True, slots=True)
class Dessin:
    """A layered rotation system.

    ``vertex_layer[v]`` is the 1-based layer of vertex v; ``edges[e]`` is
    ``(layer, k, v_low, v_high)`` with k the 0-based point label; dart
    ``2*e`` sits at the low end of edge e and ``2*e + 1`` at the high
    end; ``rotations[v]`` lists the darts around v in cyclic order; each
    face is the dart sequence along one boundary walk.
    """

    layers: int
    degree: int
    vertex_layer: tuple[int, ...]
    edges: tuple[tuple[int, int, int, int], ...]
    rotations: tuple[tuple[int, ...], ...]
    faces: tuple[tuple[int, ...], ...]

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
    """The dart that follows each dart around its vertex."""
    nxt = [0] * dart_count
    for rot in rotations:
        for dart, after in zip(rot, rot[1:] + rot[:1]):
            nxt[dart] = after
    return nxt


def dessin_from_permutations(taus: tuple[Perm, ...]) -> Dessin:
    """Build the layered graph of a transitive tuple tau_1..tau_{n-1}.

    Vertices in layer i are the cycles of tau_i; edge (i, k) joins the
    layer-i and layer-(i+1) cycles containing k.  Faces are the orbits
    of the boundary walk of the rotation system, so the Euler count
    V - E + F is that of the closed-up surface.
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

    # boundary walk: follow the partner dart, then turn to the next dart
    # around its vertex
    dart_count = 2 * len(edges)
    rot_next = _rot_next(rotations, dart_count)
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

    return Dessin(
        layers=n - 1,
        degree=d,
        vertex_layer=tuple(vertex_layer),
        edges=tuple(edges),
        rotations=tuple(rotations),
        faces=tuple(faces),
    )


def permutations_from_dessin(dsn: Dessin) -> tuple[Perm, ...]:
    """Recover tau_1..tau_{n-1} from the rotations alone.

    Edges of the first layer are numbered from the lowest first-layer
    vertex onward, rotation order; every later layer inherits numbers
    through the around-vertex pairing rule.  Different anchors give
    simultaneously conjugate outputs.  Raises DessinError when the
    rotations cannot carry a consistent numbering.
    """
    n = dsn.n
    d = dsn.degree
    num = [-1] * dsn.edge_count

    def elayer(dart: int) -> int:
        return dsn.edges[dart // 2][0]

    # layer 1: free numbering, anchored at the lowest vertex id
    counter = 0
    for v in range(dsn.vertex_count):
        if dsn.vertex_layer[v] != 1:
            continue
        for dart in dsn.rotations[v]:
            if dart & 1 or elayer(dart) != 1:
                raise DessinError("layer-1 vertex carries a foreign dart")
            if num[dart // 2] != -1:
                raise DessinError("edge visited twice while numbering layer 1")
            num[dart // 2] = counter
            counter += 1
    if counter != d:
        raise DessinError("layer 1 does not carry exactly d edges")

    # middle layers: the lower-layer edge passes its number to the
    # upper-layer edge that follows it around the shared vertex
    for i in range(2, n - 1):
        for v in range(dsn.vertex_count):
            if dsn.vertex_layer[v] != i:
                continue
            rot = dsn.rotations[v]
            if len(rot) % 2:
                raise DessinError(f"odd valence at a layer-{i} vertex")
            for idx, dart in enumerate(rot):
                here = elayer(dart)
                nxt = rot[(idx + 1) % len(rot)]
                if here == i - 1:
                    if elayer(nxt) != i:
                        raise DessinError(
                            f"edges do not alternate around a layer-{i} vertex"
                        )
                    if num[dart // 2] == -1:
                        raise DessinError("numbering order broken across layers")
                    if num[nxt // 2] != -1:
                        raise DessinError("edge numbered twice")
                    num[nxt // 2] = num[dart // 2]
                elif here != i:
                    raise DessinError(f"foreign dart at a layer-{i} vertex")

    for e, value in enumerate(num):
        if value == -1:
            raise DessinError("an edge never received a number")
    for i in range(1, n - 1):
        layer_nums = sorted(
            num[e] for e in range(dsn.edge_count) if dsn.edges[e][0] == i
        )
        if layer_nums != list(range(d)):
            raise DessinError(f"layer-{i} numbering is not a bijection onto 1..d")

    taus = []
    for i in range(1, n):
        images = [-1] * d
        read_layer = i if i <= n - 2 else n - 2
        want_side = 0 if i <= n - 2 else 1  # low darts up to layer n-2, high at the top
        for v in range(dsn.vertex_count):
            if dsn.vertex_layer[v] != i:
                continue
            rot = dsn.rotations[v]
            own = [
                dart for dart in rot
                if elayer(dart) == read_layer and (dart & 1) == want_side
            ]
            if not own:
                raise DessinError(f"a layer-{i} vertex has no readable edges")
            for idx, dart in enumerate(own):
                nxt = own[(idx + 1) % len(own)]
                images[num[dart // 2]] = num[nxt // 2]
        if any(x == -1 for x in images):
            raise DessinError(f"layer-{i} reading is incomplete")
        taus.append(tuple(images))
    return tuple(taus)


def validate_against_datum(dsn: Dessin, datum: BranchDatum) -> bool:
    """Valences and face lengths match the datum's partitions (end layers
    plainly, middle layers doubled, faces scaled by 2(n-2)) and the
    Euler-derived surface is the datum's cover."""
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
    the two colors."""
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

    The encoding is minimized over the d low darts of the layer-1 edges
    only.  A layered isomorphism keeps each dart's (layer, side) label,
    so it maps these anchors onto each other; the dessin is connected,
    so the search from any one anchor reaches every dart and the
    minimum is still a complete invariant.
    """
    rot_next = _rot_next(dsn.rotations, 2 * dsn.edge_count)

    def encode(start: int) -> tuple:
        order: dict[int, int] = {}
        queue = [start]
        order[start] = 0
        out = []
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in (rot_next[x], x ^ 1):
                if y not in order:
                    order[y] = len(order)
                    queue.append(y)
            out.append(
                (
                    order[rot_next[x]],
                    order[x ^ 1],
                    dsn.edges[x // 2][0],
                    x & 1,
                )
            )
        return tuple(out)

    return min(encode(2 * e) for e, edge in enumerate(dsn.edges) if edge[0] == 1)


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
