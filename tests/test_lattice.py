import dataclasses
import enum
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidouble.cover import BuildingData, building_data
from bidouble.lattice import (
    AMPLE,
    BLOWUP,
    NEF_ONLY,
    NOT_NEF,
    Ambient,
    AmbientMismatch,
    DivClass,
    LatticeError,
    PointLabel,
    UnsupportedClass,
    _builder,
    h0,
    h0_flagged,
    hirzebruch,
    intersect,
    plane,
    positivity,
)


def h0_oracle_ruled(e: int, a: int, b: int) -> int:
    # independent oracle: enumerate monomials x^i y^j with 0 <= j <= a and
    # 0 <= i <= b - j*e (lattice points of the section polytope)
    if a < 0:
        return 0
    n = 0
    for j in range(a + 1):
        i = 0
        while i <= b - j * e:
            n += 1
            i += 1
    return n


def h0_oracle_plane(d: int) -> int:
    # monomials of degree <= d in two affine variables
    n = 0
    for i in range(max(0, d) + 1):
        for j in range(max(0, d) + 1):
            if d >= 0 and i + j <= d:
                n += 1
    return n


def blow_up(amb: Ambient, p: PointLabel) -> Ambient:
    return Ambient(BLOWUP, amb.e, amb.points + (p,))


def blowup_of_f0(npts: int) -> Ambient:
    amb = hirzebruch(0)
    for i in range(npts):
        amb = blow_up(amb, PointLabel(f"p{i + 1}"))
    return amb


class TestIntersect:
    def test_f0_sections(self):
        amb = hirzebruch(0)
        assert intersect(amb.divisor(1, 2), amb.divisor(1, 10)) == 12

    def test_neg_section_square(self):
        for e in range(4):
            amb = hirzebruch(e)
            assert intersect(amb.divisor(1, 0), amb.divisor(1, 0)) == -e
            assert intersect(amb.divisor(1, 0), amb.divisor(0, 1)) == 1
            assert intersect(amb.divisor(0, 1), amb.divisor(0, 1)) == 0

    def test_plane(self):
        amb = plane()
        assert intersect(amb.divisor(2), amb.divisor(3)) == 6

    def test_blowup_drops_one(self):
        amb = blowup_of_f0(1)
        a = amb.divisor(1, 2, -1)
        b = amb.divisor(1, 10, -1)
        assert intersect(a, b) == 11

    def test_exceptional_orthogonal_to_pullbacks(self):
        amb = blowup_of_f0(2)
        e1 = amb.divisor(0, 0, 1, 0)
        assert intersect(e1, e1) == -1
        assert intersect(e1, amb.divisor(0, 0, 0, 1)) == 0
        assert intersect(e1, amb.divisor(3, 7, 0, 0)) == 0

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            intersect(hirzebruch(0).divisor(1, 0), hirzebruch(1).divisor(1, 0))

    def test_symmetry_exhaustive_small(self):
        amb = hirzebruch(2)
        rng = range(-4, 5)
        for a0, a1, b0, b1 in itertools.product(rng, rng, rng, rng):
            u = amb.divisor(a0, a1)
            v = amb.divisor(b0, b1)
            assert intersect(u, v) == intersect(v, u)

    @given(
        e=st.integers(0, 3),
        k=st.integers(0, 3),
        u=st.lists(st.integers(-10, 10), min_size=5, max_size=5),
        v=st.lists(st.integers(-10, 10), min_size=5, max_size=5),
        w=st.lists(st.integers(-10, 10), min_size=5, max_size=5),
        n=st.integers(-5, 5),
    )
    def test_bilinear_symmetric(self, e, k, u, v, w, n):
        amb = hirzebruch(e)
        for i in range(k):
            amb = blow_up(amb, PointLabel(f"p{i + 1}"))
        r = amb.rank
        a = DivClass(amb, tuple(u[:r]))
        b = DivClass(amb, tuple(v[:r]))
        c = DivClass(amb, tuple(w[:r]))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a, b + c) == intersect(a, b) + intersect(a, c)
        assert intersect(DivClass(amb, tuple(n * x for x in a.coords)), b) == n * intersect(a, b)


def canonical(amb):
    return DivClass(amb, amb._canonical)


class TestCanonical:
    def test_plane(self):
        assert plane()._canonical == (-3,)

    def test_hirzebruch(self):
        assert hirzebruch(0)._canonical == (-2, -2)
        assert hirzebruch(2)._canonical == (-2, -4)

    def test_blowup(self):
        assert blowup_of_f0(2)._canonical == (-2, -2, 1, 1)

    def test_canonical_squares(self):
        # K.K = 9 on the plane, 8 on F_e, 8 - k on k-point blow-ups
        assert intersect(canonical(plane()), canonical(plane())) == 9
        for e in range(4):
            k = canonical(hirzebruch(e))
            assert intersect(k, k) == 8
        k = canonical(blowup_of_f0(3))
        assert intersect(k, k) == 5


class TestH0:
    def test_bidegree_product_f0(self):
        amb = hirzebruch(0)
        assert h0(amb.divisor(3, 4)) == 20

    def test_rigid_negative_section(self):
        amb = hirzebruch(2)
        assert h0(amb.divisor(1, 0)) == 1

    def test_plane_cubics(self):
        assert h0(plane().divisor(3)) == 10

    def test_negative_classes_vanish(self):
        amb = hirzebruch(1)
        assert h0(amb.divisor(-1, 5)) == 0
        assert h0(amb.divisor(2, -1)) == h0_oracle_ruled(1, 2, -1)
        assert h0(plane().divisor(-1)) == 0

    def test_monomial_oracle_grid(self):
        # the grid reaches b < e and b < 0, where the closed form's cut-off
        # m = min(a, b // e) and its early return matter
        for e in range(6):
            amb = hirzebruch(e)
            for a in range(-2, 16):
                for b in range(-5, 41):
                    assert h0(amb.divisor(a, b)) == h0_oracle_ruled(e, a, b)

    def test_plane_oracle_grid(self):
        for d in range(-2, 13):
            assert h0(plane().divisor(d)) == h0_oracle_plane(d)

    @pytest.mark.parametrize(
        "amb", [plane()] + [hirzebruch(e) for e in range(4)], ids=["plane", "F0", "F1", "F2", "F3"]
    )
    def test_sign_rule(self, amb):
        # on the plane and on F_e a class has sections exactly when no
        # coordinate is negative, the rule building_data reads on F_e
        for coords in itertools.product(range(-3, 13), repeat=amb.rank):
            d = amb.divisor(*coords)
            assert (min(coords) >= 0) == (h0_flagged(d)[0] > 0), coords

    def test_blowup_estimate_and_flag(self):
        amb = blowup_of_f0(1)
        val, flagged = h0_flagged(amb.divisor(3, 4, -1))
        assert (val, flagged) == (19, True)
        # pure pullbacks are exact and unflagged
        val, flagged = h0_flagged(amb.divisor(3, 4, 0))
        assert (val, flagged) == (20, False)

    def test_blowup_estimate_floors_at_zero(self):
        amb = blowup_of_f0(2)
        assert h0(amb.divisor(0, 0, -1, -1)) == 0

    def test_unsupported_multiplicity(self):
        amb = blowup_of_f0(1)
        with pytest.raises(UnsupportedClass):
            h0(amb.divisor(3, 4, -2))

    def test_riemann_roch_in_vanishing_regime(self):
        # chi(d) = 1 + d.(d - K)/2 equals h0 when a >= 0 and b >= a*e
        for e in range(4):
            amb = hirzebruch(e)
            k = canonical(amb)
            for a in range(9):
                for b in range(a * e, 13):
                    d = amb.divisor(a, b)
                    chi = 1 + intersect(d, d - k) // 2
                    assert h0(d) == chi


def cone_curves(amb: Ambient) -> list[DivClass]:
    # the (-1)-curves of F_0 blown up at k <= 3 general points, written out
    # as classes: E_i, F - E_i, D0 - E_i and, for k = 3, the (1, 1)-curve
    # through the three centres
    k = len(amb.points)
    curves = []
    for i in range(k):
        exc = tuple(1 if j == i else 0 for j in range(k))
        minus = tuple(-c for c in exc)
        curves += [
            DivClass(amb, (0, 0) + exc),
            DivClass(amb, (0, 1) + minus),
            DivClass(amb, (1, 0) + minus),
        ]
    if k == 3:
        curves.append(DivClass(amb, (1, 1, -1, -1, -1)))
    return curves


def blowup_pairings(d: DivClass) -> list[int]:
    return [intersect(d, c) for c in cone_curves(d.ambient)]


def blowup_positivity_reference(d: DivClass) -> str:
    """The verdict on a blow-up read off its pairings with every (-1)-curve."""
    least = min(blowup_pairings(d))
    if least > 0:
        return AMPLE
    return NEF_ONLY if least == 0 else NOT_NEF


class TestPositivity:
    def test_plane(self):
        assert positivity(plane().divisor(1)) == AMPLE
        assert positivity(plane().divisor(0)) == NEF_ONLY
        assert positivity(plane().divisor(-1)) == NOT_NEF

    def test_hirzebruch_exact(self):
        amb = hirzebruch(0)
        assert positivity(amb.divisor(1, 8)) == AMPLE
        assert positivity(amb.divisor(1, 0)) == NEF_ONLY
        amb2 = hirzebruch(2)
        assert positivity(amb2.divisor(1, 3)) == AMPLE
        assert positivity(amb2.divisor(1, 2)) == NEF_ONLY
        assert positivity(amb2.divisor(1, 1)) == NOT_NEF
        assert positivity(amb2.divisor(-1, 5)) == NOT_NEF

    def test_blowup_fiber_boundary(self):
        # q*(D0+8F) - E pairs to zero against the fiber strict transform
        amb = blowup_of_f0(1)
        assert positivity(amb.divisor(1, 8, -1)) == NEF_ONLY

    def test_blowup_sufficient_ample(self):
        amb = blowup_of_f0(3)
        assert positivity(amb.divisor(2, 5, -1, -1, -1)) == AMPLE

    def test_blowup_not_nef(self):
        amb = blowup_of_f0(1)
        assert positivity(amb.divisor(1, 8, -2)) == NOT_NEF

    def test_blowup_negative_square_not_certified_nef(self):
        # D0 + F - E1 - E2 - E3 is itself a (-1)-curve: it pairs to -1 with
        # itself and to >= 0 with every other (-1)-curve
        amb = blowup_of_f0(3)
        assert positivity(amb.divisor(1, 1, -1, -1, -1)) == NOT_NEF

    def test_pairing_with_the_curve_through_three_centres(self):
        # every pairing with E_i, F - E_i and D0 - E_i is >= 0, but d pairs
        # to -1 with D0 + F - E1 - E2 - E3
        amb = blowup_of_f0(3)
        d = amb.divisor(6, 6, -6, -4, -3)
        assert intersect(d, amb.divisor(1, 1, -1, -1, -1)) == -1
        assert positivity(d) == NOT_NEF

    def test_blowup_outside_support_refused(self):
        amb = blow_up(hirzebruch(1), PointLabel("p"))
        for coords in ((2, 9, -1), (1, 0, -1)):
            with pytest.raises(UnsupportedClass):
                positivity(amb.divisor(*coords))
        with pytest.raises(UnsupportedClass):
            positivity(blowup_of_f0(4).divisor(2, 5, -1, -1, -1, -1))

    def test_cone_curves_are_minus_one_curves(self):
        for k in (1, 2, 3):
            amb = blowup_of_f0(k)
            k_amb = canonical(amb)
            for c in cone_curves(amb):
                assert (intersect(c, c), intersect(k_amb, c)) == (-1, -1), c

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_blowup_matches_the_pairing_list(self, e):
        # the verdict reads the least and most multiplicity, not each pairing
        seen = set()
        for n in (1, 2, 3):
            amb = hirzebruch(e)
            for i in range(n):
                amb = blow_up(amb, PointLabel(f"p{i + 1}"))
            for ms in itertools.product(range(-1, 5), repeat=n):
                tail = tuple(-m for m in ms)
                for a in range(-1, 6):
                    for b in range(-1, 5 * e + 9):
                        d = DivClass(amb, (a, b) + tail)
                        if e:
                            with pytest.raises(UnsupportedClass):
                                positivity(d)
                            continue
                        verdict = positivity(d)
                        assert verdict == blowup_positivity_reference(d), d.coords
                        seen.add(verdict)
        assert seen == ({AMPLE, NEF_ONLY, NOT_NEF} if e == 0 else set())

    @given(
        a=st.integers(-6, 10),
        b=st.integers(-6, 14),
        e=st.integers(0, 3),
        ms=st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    )
    @settings(max_examples=400)
    def test_verdict_monotonicity(self, a, b, e, ms):
        # only F_e and F_0 blown up at up to three centres are supported
        if ms:
            e = 0
        amb = hirzebruch(e)
        for i in range(len(ms)):
            amb = blow_up(amb, PointLabel(f"p{i + 1}"))
        d = DivClass(amb, (a, b) + tuple(-m for m in ms))
        verdict = positivity(d)
        if amb.kind == "BlownUp":
            pairings = blowup_pairings(d)
        else:
            pairings = [d.coords[0], d.coords[1] - d.coords[0] * e]
        assert (verdict == AMPLE) == all(v > 0 for v in pairings)
        if verdict == AMPLE:
            assert intersect(d, d) > 0
        if verdict == NEF_ONLY:
            assert all(v >= 0 for v in pairings)
            assert intersect(d, d) >= 0


class TestPullback:
    def test_product_rule(self):
        # total transforms minus the exceptional class meet once less
        base = hirzebruch(0)
        amb = blow_up(base, PointLabel("p"))
        for a in range(-3, 4):
            for b in range(-3, 4):
                u = amb.divisor(a, b, -1)
                v = amb.divisor(b, a, -1)
                assert intersect(u, v) == intersect(base.divisor(a, b), base.divisor(b, a)) - 1


class TestFormatting:
    def test_strings(self):
        amb = hirzebruch(2)
        assert str(amb.divisor(3, -4)) == "3D0-4F"
        assert str(amb.divisor(0, 0)) == "0"
        assert str(amb.divisor(1, 1)) == "D0+F"
        b = blowup_of_f0(1)
        assert str(b.divisor(1, 2, -1)) == "D0+2F-E1"
        assert str(plane().divisor(-3)) == "-3H"


class TestTrustedArithmetic:
    def test_results_equal_validated_classes(self):
        amb = blowup_of_f0(2)
        u, v = amb.divisor(3, 4, -1, 0), amb.divisor(1, -2, 0, -1)
        assert u + v == DivClass(amb, (4, 2, -1, -1))
        assert u - v == DivClass(amb, (2, 6, -1, 1))
        assert hash(u + v) == hash(DivClass(amb, (4, 2, -1, -1)))
        assert all(type(c) is int for c in (u + v).coords)

    def test_non_integer_scalar_rejected(self):
        # classes have no scalar product, so no scalar passes, an int included
        class Two(enum.IntEnum):
            TWO = 2

        d = hirzebruch(0).divisor(1, 2)
        for n in (2, 2.5, 2.0, "2", True, Two.TWO):
            with pytest.raises(TypeError):
                n * d
            with pytest.raises(TypeError):
                d * n
        with pytest.raises(TypeError):
            -d

    def test_public_constructor_still_validates(self):
        with pytest.raises(LatticeError):
            DivClass(hirzebruch(0), (1, 2, 3))

    @pytest.mark.parametrize("coords", [{0: 1, 1: 2}, {1, 2}, frozenset({3}), "12", iter((1, 2))])
    def test_unordered_coordinates_refused(self, coords):
        # a dict would give its keys and a set its iteration order
        with pytest.raises(LatticeError, match="must be a list or tuple, got") as refused:
            DivClass(hirzebruch(1), coords)
        assert repr(coords) in str(refused.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DivClass(hirzebruch(0), (2.5, 1)),
            lambda: DivClass(hirzebruch(0), (True, 1)),
            lambda: DivClass(plane(), ("3",)),
            lambda: hirzebruch(0).divisor("3", 1.9),
            lambda: hirzebruch(0).divisor(2, 1.0),
        ],
    )
    def test_non_integer_coordinates_refused(self, build):
        with pytest.raises(LatticeError, match="must be integers"):
            build()

    def test_interned_ambients(self):
        assert plane() is plane()
        assert hirzebruch(0) is hirzebruch(0)

    @pytest.mark.parametrize("e", [True, 1.0, 2.0])
    def test_interned_ambients_refuse_non_integers(self, e):
        # True and 2.0 hash like 1 and 2, and must not find their ambients
        with pytest.raises(LatticeError, match="must be an integer"):
            hirzebruch(e)

    def test_equal_distinct_ambients_match(self):
        amb = blowup_of_f0(1)
        copy = Ambient(amb.kind, amb.e, amb.points)
        assert copy == amb and copy is not amb and copy.rank == amb.rank == 3
        u, v = amb.divisor(1, 1, -1), copy.divisor(2, 0, -1)
        assert (u + v).coords == (3, 1, -2)
        assert intersect(u, v) == intersect(v, u) == 1
        w = amb.divisor(*v.coords)
        assert h0(w) == h0(v)
        assert positivity(w) == positivity(v)


@dataclasses.dataclass(frozen=True, slots=True)
class Named:
    """Fields named like the builder's own names, and a check that logs."""

    cls: int
    obj: str
    _new: tuple
    c: int
    new: int
    o: int
    build: int
    a0: int
    s0: int

    def __post_init__(self):
        POST_INIT_RAN.append(self)


POST_INIT_RAN: list = []


class TestBuilder:
    ARGS = (1, "x", (2,), 3, 4, 5, 6, 7, 8)

    def test_equals_public_constructor_without_post_init(self):
        POST_INIT_RAN.clear()
        built = _builder(Named)(*self.ARGS)
        assert POST_INIT_RAN == []
        public = Named(*self.ARGS)
        assert POST_INIT_RAN == [public]
        assert type(built) is Named and built == public and hash(built) == hash(public)
        assert tuple(getattr(built, f) for f in Named.__slots__) == self.ARGS

    def test_wrong_argument_count_refused(self):
        build = _builder(Named)
        for args in (self.ARGS[:-1], self.ARGS + (9,), ()):
            with pytest.raises(TypeError):
                build(*args)

    def test_result_stays_frozen(self):
        built = _builder(Named)(*self.ARGS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.cls = 2


class TestLincomb:
    def test_non_integer_e_refused(self):
        for e in (1.5, 2.0, "1", True, False):
            with pytest.raises(LatticeError):
                Ambient("Hirzebruch", e)

    def test_canonical_class_is_the_validated_class(self):
        for amb in (plane(), hirzebruch(0), hirzebruch(3), blowup_of_f0(2)):
            coords = (-3,) if amb.kind == "ProjectivePlane" else (-2, -(amb.e + 2)) + (1,) * len(amb.points)
            assert amb._canonical == DivClass(amb, coords).coords
            assert all(type(c) is int for c in amb._canonical)


class TestSlottedValues:
    @staticmethod
    def values():
        amb = blowup_of_f0(2)
        return [amb.points[0], amb, amb.divisor(1, 2, -1, 0), plane(), hirzebruch(5)]

    def test_no_instance_dict(self):
        for value in self.values():
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_frozen(self):
        for value in self.values():
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))

    def test_equal_and_hashable(self):
        for value, again in zip(self.values(), self.values()):
            assert value == again and hash(value) == hash(again)
        f0 = hirzebruch(0)
        rebuilt = Ambient(f0.kind, f0.e, f0.points)
        assert rebuilt == hirzebruch(0) and rebuilt is not hirzebruch(0)
        assert hash(rebuilt) == hash(hirzebruch(0))
        assert {hirzebruch(0).divisor(1, 2)} == {rebuilt.divisor(1, 2)}
        amb = blowup_of_f0(1)
        assert Ambient(amb.kind, amb.e, amb.points) == amb
        assert hash(Ambient(amb.kind, amb.e, amb.points)) == hash(amb)


def data_doc(ambient: dict) -> dict:
    """A document of building data on F_0 blown up at one point, with
    ``ambient`` in place of its ambient's document."""
    amb = Ambient(BLOWUP, 0, (PointLabel("p"),))
    d = amb.divisor(2, 2, 0)
    return {**building_data(amb, d, d, d).to_doc(), "ambient": ambient}


class TestDocumentIntegers:
    # documents are read by BuildingData.from_doc through the constructors
    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "Hirzebruch", "e": False},
            {"kind": "Hirzebruch", "e": 1.0},
            {"kind": "BlownUp", "e": True, "points": [{"name": "p", "branches": [1, 2, 3]}]},
            {"kind": "BlownUp", "e": 0, "points": [{"name": "p", "branches": [True, 2, 3]}]},
            {"kind": "BlownUp", "e": 0, "points": [{"name": "p", "branches": [1.0, 2, 3]}]},
        ],
    )
    def test_booleans_and_floats_rejected(self, doc):
        with pytest.raises(LatticeError, match="must be (an integer|integers)"):
            BuildingData.from_doc(data_doc(doc))

    @pytest.mark.parametrize(
        "branches",
        [[1, 2.0, 3], [1, 2, 3.0], [1.0, 2.0, 3.0], [True, 2.0, 3.0], (True, 2, 3)],
    )
    def test_point_branches_must_be_integers(self, branches):
        # each record equals [1, 2, 3] as values, so the type of every entry
        # is compared
        point = {"name": "p", "branches": branches}
        with pytest.raises(LatticeError, match=r"'ambient\.points\.0\.branches' must be integers"):
            BuildingData.from_doc(data_doc({"kind": "BlownUp", "e": 0, "points": [point]}))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PointLabel(7),
            lambda: PointLabel(None),
            lambda: PointLabel("p", components=(3,)),
            lambda: PointLabel("p", components=("d1", None)),
            # a set or dict would order the names by hash seed
            lambda: PointLabel("p", {"a", "b", "c"}),
            lambda: PointLabel("p", {"a": 0, "b": 1, "c": 2}),
            lambda: PointLabel("p", "d1"),
        ],
    )
    def test_point_fields_checked_at_construction(self, build):
        with pytest.raises(LatticeError, match="must be"):
            build()

    @pytest.mark.parametrize("centre", ["p", None, ("p", ("d1", "d2", "d3"))])
    def test_centres_must_be_point_labels(self, centre):
        with pytest.raises(LatticeError, match="centres must be point labels"):
            Ambient(BLOWUP, 0, (centre,))
        with pytest.raises(LatticeError, match="centres must be point labels"):
            Ambient(BLOWUP, 0, (PointLabel("q"), centre))

    def test_centres_must_be_a_list_or_tuple(self):
        # a set would order the centres, and so which one is E1, by hash seed
        centres = [PointLabel("p"), PointLabel("q"), PointLabel("r")]
        assert Ambient(BLOWUP, 0, centres).points == tuple(centres)
        for given in (set(centres), dict.fromkeys(centres), iter(centres)):
            with pytest.raises(LatticeError, match="centres must be a list or tuple"):
                Ambient(BLOWUP, 0, given)

    def test_centre_names_must_be_distinct(self):
        p = PointLabel("p")
        with pytest.raises(LatticeError, match="distinct names"):
            Ambient(BLOWUP, 0, (p, PointLabel("q"), PointLabel("p")))
        with pytest.raises(LatticeError, match="distinct names"):
            BuildingData.from_doc(
                data_doc({"kind": BLOWUP, "e": 1, "points": [p.to_doc(), p.to_doc()]})
            )

    def test_integers_accepted(self):
        bd = BuildingData.from_doc(
            data_doc({"kind": "BlownUp", "e": 0, "points": [{"name": "p", "branches": [1, 2, 3]}]})
        )
        assert bd.ambient.points == (PointLabel("p"),)
        point = {"name": "p", "branches": [1, 2, 3], "components": [], "general": True}
        assert bd.ambient.points[0].to_doc() == point
        assert BuildingData.from_doc(bd.to_doc()) == bd

    @pytest.mark.parametrize("bad", [[], {}, float("inf"), 1, None, True])
    @pytest.mark.parametrize("field", ["name", "components"])
    def test_point_names_must_be_strings(self, bad, field):
        point = {"name": "p", "branches": [1, 2, 3], "components": ["a"]}
        point[field] = bad if field == "name" else ["a", bad]
        with pytest.raises(LatticeError, match="must be (a string|strings)"):
            BuildingData.from_doc(data_doc({"kind": "BlownUp", "e": 0, "points": [point]}))
