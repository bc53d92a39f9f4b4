import dataclasses
import hashlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import canonical_form_reference, encode_from, layer1_anchors
from hurwitz import dessin
from hurwitz.core import SPHERE, parse_datum
from hurwitz.dessin import (
    Dessin,
    DessinError,
    canonical_form,
    checkerboard_coloring,
    dessin_from_permutations,
    export_lines,
    permutations_from_dessin,
    validate_against_datum,
)
from hurwitz.perms import (
    conjugate,
    cycle_type,
    cycles,
    identity,
    is_transitive,
    parse_cycles,
    product,
)
from hurwitz.realizer import FOUND, search


S4_TAUS = (parse_cycles("(1 2 3 4)", 4), parse_cycles("(1 3 2)", 4))
LAYERED = tuple(parse_cycles(c, 4) for c in ("(1 2 3 4)", "(1 3)(2 4)", "(1 2)"))
EVEN_TAUS = (parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4))


def numbered_like_inverse(taus):
    """taus relabelled as permutations_from_dessin numbers the points:
    x becomes its position in the concatenated cycles of tau_1."""
    g = [0] * len(taus[0])
    for pos, x in enumerate(x for cyc in cycles(taus[0]) for x in cyc):
        g[x] = pos
    return tuple(conjugate(t, tuple(g)) for t in taus)


class TestConstruction:
    def test_worked_example(self):
        dsn = dessin_from_permutations(S4_TAUS)
        assert (dsn.vertex_count, dsn.edge_count, dsn.face_count) == (3, 4, 3)
        assert dsn.euler_characteristic == 2
        assert dsn.face_lengths() == (4, 2, 2)

    def test_four_layer_surface_matches_product(self):
        taus = (
            parse_cycles("(1 2 3)", 3),
            parse_cycles("(1 2)", 3),
            parse_cycles("(1 3)", 3),
        )
        assert product(taus, 3) == identity(3)
        dsn = dessin_from_permutations(taus)
        assert dsn.euler_characteristic == 2
        assert dsn.face_lengths() == (4, 4, 4)

    def test_circle(self):
        t = parse_cycles("(1 2)", 2)
        dsn = dessin_from_permutations((t, t))
        assert (dsn.vertex_count, dsn.edge_count, dsn.face_count) == (2, 2, 2)
        assert dsn.face_lengths() == (2, 2)

    def test_degree_one(self):
        dsn = dessin_from_permutations((identity(1), identity(1)))
        assert dsn.euler_characteristic == 2
        assert permutations_from_dessin(dsn) == (identity(1), identity(1))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            dessin_from_permutations((identity(3), identity(3)))

    def test_needs_three_layers(self):
        with pytest.raises(ValueError):
            dessin_from_permutations((parse_cycles("(1 2)", 2),))

    @pytest.mark.parametrize("taus", [
        ((1, 1, 0), (1, 2, 0)),
        ((0, 1, 2), (1, 2, 3)),
        ((1, 0, 2), (1, 2)),
    ])
    def test_not_permutations_rejected(self, taus):
        with pytest.raises(ValueError, match="permutation"):
            dessin_from_permutations(taus)

    def test_middle_layer_alternation(self):
        dsn = dessin_from_permutations(LAYERED)
        assert dsn.vertex_layer == (1, 2, 2, 3, 3, 3)
        middle = [
            v for v in range(dsn.vertex_count) if dsn.vertex_layer[v] == 2
        ]
        for v in middle:
            rot = dsn.rotations[v]
            assert len(rot) % 2 == 0
            layers = [dart // 2 // dsn.degree + 1 for dart in rot]
            assert layers == [1, 2] * (len(rot) // 2)

    def test_derived_faces(self):
        # boundary walks in order of their least darts, each from that dart
        assert dessin_from_permutations(EVEN_TAUS).faces == ((0, 5, 6, 3), (1, 2, 7, 4))
        assert dessin_from_permutations(S4_TAUS).faces == ((0, 5, 6, 7), (1, 2), (3, 4))

    def test_face_length_sum(self):
        for taus in (
            S4_TAUS,
            (parse_cycles("(1 2 3)", 3), parse_cycles("(1 2)", 3), parse_cycles("(1 3)", 3)),
        ):
            dsn = dessin_from_permutations(taus)
            n = dsn.n
            assert sum(dsn.face_lengths()) == 2 * (n - 2) * dsn.degree


class TestRoundtrip:
    def test_types_recovered(self):
        back = permutations_from_dessin(dessin_from_permutations(S4_TAUS))
        assert [cycle_type(t) for t in back] == [(4,), (3, 1)]
        assert back == numbered_like_inverse(S4_TAUS)

    def test_circle_roundtrip(self):
        t = parse_cycles("(1 2)", 2)
        dsn = dessin_from_permutations((t, t))
        assert permutations_from_dessin(dsn) == (t, t)

    def test_canonical_form_stable(self):
        dsn = dessin_from_permutations(S4_TAUS)
        back = permutations_from_dessin(dsn)
        again = dessin_from_permutations(back)
        assert canonical_form(dsn) == canonical_form(again)

    def test_roundtrip_over_search_witnesses(self):
        from hurwitz import enumerate_compatible
        from hurwitz.core import SPHERE

        seen = 0
        for d in range(3, 7):
            for datum in enumerate_compatible(d, [3, 4], SPHERE, SPHERE):
                res = search(datum)
                if res.status != FOUND:
                    continue
                taus = res.realization.taus[:-1]
                dsn = dessin_from_permutations(taus)
                assert dsn.euler_characteristic == 2
                assert validate_against_datum(dsn, datum)
                back = permutations_from_dessin(dsn)
                assert back == numbered_like_inverse(taus)
                assert sorted(cycle_type(t) for t in back) == sorted(
                    cycle_type(t) for t in taus
                )
                assert canonical_form(dessin_from_permutations(back)) == canonical_form(dsn)
                seen += 1
        assert seen > 50

    def test_conjugate_inputs_same_canonical_form(self):
        from hurwitz.perms import conjugate

        g = parse_cycles("(1 4)(2 3)", 4)
        conj = tuple(conjugate(t, g) for t in S4_TAUS)
        a = dessin_from_permutations(S4_TAUS)
        b = dessin_from_permutations(conj)
        assert canonical_form(a) == canonical_form(b)


class TestSeparation:
    @pytest.mark.parametrize("d, m, count", [(4, 2, 426), (3, 3, 194)])
    def test_equal_forms_exactly_on_conjugate_tuples(self, d, m, count):
        """Over every transitive m-tuple in S_d, two dessins get equal
        canonical forms exactly when their tuples are simultaneously
        conjugate, decided by the least relabelling of each tuple."""
        group = list(itertools.permutations(range(d)))
        pairs = set()
        seen = 0
        for taus in itertools.product(group, repeat=m):
            if not is_transitive(list(taus), d):
                continue
            seen += 1
            least = min(tuple(conjugate(t, g) for t in taus) for g in group)
            pairs.add((canonical_form(dessin_from_permutations(taus)), least))
        assert seen == count
        forms = {form for form, _ in pairs}
        classes = {least for _, least in pairs}
        assert len(forms) == len(classes) == len(pairs)


class TestValidate:
    def test_matches_own_datum(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|3,1|2,1,1]")
        dsn = dessin_from_permutations(S4_TAUS)
        assert validate_against_datum(dsn, datum)

    def test_wrong_face_partition(self):
        datum = parse_datum("d=4 cover=O0 base=O0 parts=[4|4|3,1]")
        dsn = dessin_from_permutations(S4_TAUS)
        assert not validate_against_datum(dsn, datum)

    def test_wrong_cover(self):
        datum = parse_datum("d=4 cover=O1 base=O0 parts=[4|3,1|2,1,1]")
        dsn = dessin_from_permutations(S4_TAUS)
        assert not validate_against_datum(dsn, datum)

    @pytest.mark.parametrize("base", ["O1", "N2"])
    def test_wrong_base(self, base):
        """A dessin lives over the sphere: same partitions and cover, any
        other base, is not its datum."""
        datum = parse_datum(f"d=4 cover=O0 base={base} parts=[4|3,1|2,1,1]")
        assert not validate_against_datum(dessin_from_permutations(S4_TAUS), datum)


class TestFaces:
    """Faces are derived from the rotations at construction; no face list,
    faulty or not, can be supplied in their place."""

    FACE_FAULTS = {
        "one-dart face": ((0,),),
        "reversed walk": ((3, 6, 5, 0), (4, 7, 2, 1)),
        "darts traded": ((0, 5, 6, 4), (1, 2, 7, 3)),
        "dart twice": ((0, 5, 6, 3), (1, 2, 7, 3)),
        "face twice": ((0, 5, 6, 3), (1, 2, 7, 4), (0, 5, 6, 3)),
        "missing dart": ((0, 5, 6, 3), (1, 2, 7)),
        "missing face": ((0, 5, 6, 3),),
        "walk cut short": ((0, 5), (6, 3), (1, 2, 7, 4)),
        "empty face": ((0, 5, 6, 3), (1, 2, 7, 4), ()),
        "dart above range": ((0, 5, 6, 3), (1, 2, 8, 4)),
        "last dart above range": ((0, 5, 6, 3), (1, 2, 7, 9)),
        "negative dart": ((0, 5, 6, 3), (1, -4, 7, 4)),
    }

    @staticmethod
    def refuse_faces(dsn, faces):
        refuse_field(dsn, "faces", faces, ValueError)

    @pytest.mark.parametrize("fault", FACE_FAULTS)
    def test_faces_not_walks_refused(self, fault):
        dsn = dessin_from_permutations(EVEN_TAUS)
        self.refuse_faces(dsn, self.FACE_FAULTS[fault])
        assert dsn.faces == ((0, 5, 6, 3), (1, 2, 7, 4))

    def test_one_dart_face_misreads_surface(self):
        """A single one-dart face would make the Euler count read the
        torus; the derived faces keep the sphere."""
        dsn = dessin_from_permutations(S4_TAUS)
        self.refuse_faces(dsn, ((0,),))
        assert dsn.surface == SPHERE
        for cover, want in (("O0", True), ("O1", False)):
            datum = parse_datum(f"d=4 cover={cover} base=O0 parts=[4|3,1|2,1,1]")
            assert validate_against_datum(dsn, datum) is want


class TestMalformed:
    def test_broken_alternation(self):
        dsn = dessin_from_permutations(LAYERED)
        target = next(
            v for v in range(dsn.vertex_count)
            if dsn.vertex_layer[v] == 2 and len(dsn.rotations[v]) >= 4
        )
        rot = list(dsn.rotations[target])
        rot[0], rot[1] = rot[1], rot[0]
        rotations = tuple(
            tuple(rot) if v == target else dsn.rotations[v]
            for v in range(dsn.vertex_count)
        )
        with pytest.raises(DessinError, match="alternate"):
            dataclasses.replace(dsn, rotations=rotations)

    # darts of LAYERED: layer-1 vertex 0 (0, 2, 4, 6); layer-2 vertices
    # 1 (1, 8, 5, 12) and 2 (3, 10, 7, 14); layer-3 vertices 3 (9, 11),
    # 4 (13,) and 5 (15,).  Integer keys replace rotations, string keys
    # replace Dessin fields.  Every fault is refused at construction.
    LAYOUT_FAULTS = {
        "repeated dart": {1: (0, 8, 5, 12)},
        "missing dart": {3: (9,)},
        "dart above range": {5: (16,)},
        "negative dart": {5: (-1,)},
        "wrong side": {0: (1, 2, 4, 6), 1: (0, 8, 5, 12)},
        "wrong layer": {1: (13, 8, 5, 12), 4: (1,)},
        "no alternation": {1: (1, 8, 5), 2: (3, 10, 7, 14, 12)},
        "empty rotation": {4: (), 5: (15, 13)},
        "layer 1 short of d": {"degree": 5},
        "degree 0": {"degree": 0},
        "darts left over": {"degree": 3},
        "no darts": {v: () for v in range(6)},
    }

    @pytest.mark.parametrize("fault", LAYOUT_FAULTS)
    def test_layout_rule(self, fault):
        change = self.LAYOUT_FAULTS[fault]
        dsn = dessin_from_permutations(LAYERED)
        assert dsn.rotations == (
            (0, 2, 4, 6), (1, 8, 5, 12), (3, 10, 7, 14), (9, 11), (13,), (15,)
        )
        rotations = tuple(change.get(v, rot) for v, rot in enumerate(dsn.rotations))
        fields = {k: v for k, v in change.items() if isinstance(k, str)}
        with pytest.raises(DessinError):
            dataclasses.replace(dsn, rotations=rotations, **fields)

    @pytest.mark.parametrize("name, value, replace_error", [
        ("layers", 3, TypeError),
        ("edges", ((1, 0, 0, 1),), TypeError),
        ("vertex_layer", (1, 2, 2, 3, 3, 3), ValueError),
    ], ids=["layers", "edges", "vertex_layer"])
    def test_removed_field_refused(self, name, value, replace_error):
        """A dessin is its degree and rotations: the layers, the edges and
        the vertex layers are derived and cannot be supplied."""
        refuse_field(dessin_from_permutations(LAYERED), name, value, replace_error)

    def test_mislayered_dessin_refused(self):
        """With vertex layers (1, 1, 2, 2, 1, 2) supplied beside these
        rotations, a dessin used to validate against [5|3,1,1|2,2,1], a
        datum its tuple does not realize.  The layers are now read off the
        darts, and a vertex whose darts name two layers is refused."""
        dsn = dessin_from_permutations(((0, 1, 2, 4, 3), (1, 3, 4, 0, 2)))
        assert dsn.rotations == ((0,), (2,), (4,), (6, 8), (1, 3, 7), (5, 9))
        refuse_field(dsn, "vertex_layer", (1, 1, 2, 2, 1, 2), ValueError)
        assert dsn.vertex_layer == (1, 1, 1, 1, 2, 2)
        datum = parse_datum("d=5 cover=O0 base=O0 parts=[5|3,1,1|2,2,1]")
        assert not validate_against_datum(dsn, datum)
        traded = ((0,), (2,), (4,), (6, 7), (1, 3, 8), (5, 9))
        with pytest.raises(DessinError, match="names layers"):
            Dessin(degree=5, rotations=traded)

    def test_every_dart_overwrite_refused(self):
        """Overwriting one dart of LAYERED with another in-range dart
        repeats one dart and drops one: all 240 such systems are refused
        when built.  The one with first rotation (2, 2, 4, 6) had the
        canonical form of the dessin of ((2 3 4), (1 2)(3 4), (1 4))."""
        dsn = dessin_from_permutations(LAYERED)
        refused = 0
        for v, rot in enumerate(dsn.rotations):
            for i, dart in enumerate(rot):
                for other in range(2 * dsn.edge_count):
                    if other == dart:
                        continue
                    rotations = list(dsn.rotations)
                    rotations[v] = rot[:i] + (other,) + rot[i + 1:]
                    with pytest.raises(DessinError, match="sits"):
                        dataclasses.replace(dsn, rotations=tuple(rotations))
                    refused += 1
        assert refused == 240

    def test_disconnected(self, monkeypatch):
        t = parse_cycles("(1 2)", 4)
        monkeypatch.setattr(dessin, "is_transitive", lambda gens, d: True)
        dsn = dessin_from_permutations((t, t))
        monkeypatch.undo()
        with pytest.raises(DessinError, match="disconnected"):
            permutations_from_dessin(dsn)
        with pytest.raises(DessinError, match="disconnected"):
            canonical_form(dsn)

    @pytest.mark.parametrize("dart", [8, -1])
    def test_rotation_dart_out_of_range(self, dart):
        # -1 would alias dart 7, the one it replaces
        dsn = dessin_from_permutations(S4_TAUS)
        assert dsn.rotations == ((0, 2, 4, 6), (1, 5, 3), (7,))
        with pytest.raises(DessinError, match="out of range"):
            dataclasses.replace(dsn, rotations=((0, 2, 4, 6), (1, 5, 3), (dart,)))

    def test_canonical_form_needs_layer_one(self):
        """canonical_form anchors on darts 0, 2, .., 2d-2, the low darts of
        the layer-1 edges; construction refuses a dessin without them."""
        dsn = dessin_from_permutations(S4_TAUS)
        assert layer1_anchors(dsn) == [0, 2, 4, 6]
        for degree, rotations in ((4, ((),)), (0, dsn.rotations)):
            with pytest.raises(DessinError, match="darts do not fill"):
                Dessin(degree=degree, rotations=rotations)


def refuse_field(dsn, name, value, replace_error):
    """A field that is derived, or none at all, cannot be supplied."""
    fields = {f.name: getattr(dsn, f.name) for f in dataclasses.fields(dsn) if f.init}
    assert set(fields) == {"degree", "rotations"}
    with pytest.raises(TypeError):
        Dessin(**fields, **{name: value})
    with pytest.raises(replace_error):
        dataclasses.replace(dsn, **{name: value})


def mutate(dsn, kind, rng):
    """One swap, move, overwrite or cyclic shift of the rotations, or a
    new degree, which re-reads every dart's layer."""
    degree, rots = dsn.degree, [list(r) for r in dsn.rotations]
    a, b = rng.randrange(len(rots)), rng.randrange(len(rots))
    i, j = rng.randrange(len(rots[a])), rng.randrange(len(rots[b]))
    if kind == "swap":
        rots[a][i], rots[b][j] = rots[b][j], rots[a][i]
    elif kind == "move":
        rots[b].insert(j, rots[a].pop(i))
    elif kind == "overwrite":
        rots[a][i] = rng.randrange(-1, 2 * dsn.edge_count + 1)
    elif kind == "regrade":
        degree = rng.randrange(2 * dsn.edge_count + 1)
    else:  # shift the stretch from i onward by one place
        rots[a][i:] = rots[a][i + 1:] + rots[a][i:i + 1]
    return dataclasses.replace(dsn, degree=degree, rotations=tuple(map(tuple, rots)))


@st.composite
def transitive_tuples(draw, low=3, high=7):
    d = draw(st.integers(low, high))
    taus = draw(st.lists(st.permutations(range(d)).map(tuple), min_size=2, max_size=4))
    assume(is_transitive(taus, d))
    return tuple(taus)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    transitive_tuples(),
    st.sampled_from(["swap", "move", "overwrite", "regrade", "shift"]),
    st.randoms(use_true_random=False),
)
def test_inverse_accepts_exactly_dessins(taus, kind, rng):
    """A mutated rotation system is refused, or it is the dessin of the
    transitive tuple read back."""
    try:
        mutant = mutate(dessin_from_permutations(taus), kind, rng)
        back = permutations_from_dessin(mutant)
    except DessinError:
        return
    assert is_transitive(list(back), mutant.degree)
    assert canonical_form(dessin_from_permutations(back)) == canonical_form(mutant)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(transitive_tuples(2, 9))
def test_canonical_form_is_least_encoding(taus):
    """Lockstep refinement returns the least full encoding over the anchors."""
    dsn = dessin_from_permutations(taus)
    assert canonical_form(dsn) == canonical_form_reference(dsn)


def cyclic_tuple(d, *powers):
    """(c^p for p in powers) for the d-cycle c = (0 1 ... d-1)."""
    return tuple(tuple((x + p) % d for x in range(d)) for p in powers)


def dihedral_pair(m):
    """Rotation and reflection of the dihedral group of order 2m acting on
    itself by left multiplication; point 2j + e stands for r^j s^e."""
    r = tuple(2 * ((x // 2 + 1) % m) + x % 2 for x in range(2 * m))
    s = tuple(2 * (-(x // 2) % m) + 1 - x % 2 for x in range(2 * m))
    return r, s


TIED = [pytest.param(cyclic_tuple(d, 1, k), id=f"c^1,c^{k} d={d}")
        for d in range(2, 10) for k in range(d)]
TIED += [pytest.param(cyclic_tuple(d, 1, k, d - 1 - k), id=f"c^1,c^{k},c^{d - 1 - k} d={d}")
         for d in (5, 8) for k in range(d)]
TIED += [pytest.param(dihedral_pair(m), id=f"dihedral d={2 * m}") for m in range(2, 6)]


@pytest.mark.parametrize("taus", TIED)
def test_canonical_form_when_every_anchor_ties(taus):
    """Regular dessins have automorphisms moving every anchor onto every
    other, so all anchors stay tied to the last step."""
    dsn = dessin_from_permutations(taus)
    assert len({encode_from(dsn, a) for a in layer1_anchors(dsn)}) == 1
    assert canonical_form(dsn) == canonical_form_reference(dsn)


class TestCheckerboard:
    def test_circle_gets_two_colors(self):
        t = parse_cycles("(1 2)", 2)
        coloring = checkerboard_coloring(dessin_from_permutations((t, t)))
        assert coloring is not None
        assert set(coloring.values()) == {0, 1}

    def test_odd_valence_absent(self):
        assert checkerboard_coloring(dessin_from_permutations(S4_TAUS)) is None

    def test_all_even_witness_colorable_and_unique(self):
        taus = (parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4))
        dsn = dessin_from_permutations(taus)
        coloring = checkerboard_coloring(dsn)
        assert coloring is not None
        face_of = {}
        for f, walk in enumerate(dsn.faces):
            for dart in walk:
                face_of[dart] = f
        valid = []
        for mask in range(2 ** dsn.face_count):
            colors = {f: (mask >> f) & 1 for f in range(dsn.face_count)}
            if all(
                colors[face_of[dart]] != colors[face_of[dart ^ 1]]
                for dart in face_of
            ):
                valid.append(colors)
        assert len(valid) == 2
        assert coloring in valid

    def test_requires_sphere(self):
        taus = (
            parse_cycles("(1 2 3)", 3),
            parse_cycles("(1 2 3)", 3),
            parse_cycles("(1 2 3)", 3),
        )
        dsn = dessin_from_permutations(taus)
        assert dsn.euler_characteristic == 0
        with pytest.raises(ValueError):
            checkerboard_coloring(dsn)


class TestExport:
    def test_line_shapes(self):
        dsn = dessin_from_permutations(S4_TAUS)
        lines = export_lines(dsn)
        assert sum(1 for s in lines if s.startswith("vertex ")) == 3
        assert sum(1 for s in lines if s.startswith("edge ")) == 4
        assert sum(1 for s in lines if s.startswith("face len=")) == 3
        assert any(s.startswith("vertex 1 0 rot=") for s in lines)
        assert "edge 1 1 0 1" in lines

    def test_outputs_pinned(self):
        """Export, canonical form and inverse of all 656 dessins of the
        transitive tuples below, in itertools.product order, hash to the
        value they had when a Dessin still stored its layers and edges."""
        digest, count = hashlib.md5(), 0
        for d, k in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
            for taus in itertools.product(itertools.permutations(range(d)), repeat=k):
                if not is_transitive(list(taus), d):
                    continue
                dsn = dessin_from_permutations(taus)
                digest.update(("\n".join(export_lines(dsn)) + "\n" + repr(canonical_form(dsn))
                               + "\n" + repr(permutations_from_dessin(dsn)) + "\n").encode())
                count += 1
        assert count == 656
        assert digest.hexdigest() == "a36e54330dc4fbe5928a3dd02f0f5234"
