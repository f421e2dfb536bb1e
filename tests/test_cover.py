import copy
import dataclasses
import functools
import itertools
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidouble import checks, cover, lattice, recipes
from bidouble.cover import (
    NON_NORMAL_GLUING,
    QUARTER_POINT,
    BuildingData,
    Component,
    CoverError,
    Invariants,
    InvalidBuildingData,
    LedgerEntry,
    ParityError,
    building_data,
    chi_oracle,
    invariants,
    ksq_oracle,
    resolve_triple_point,
    singularity_scan,
)
from bidouble.lattice import (
    BLOWUP,
    HIRZEBRUCH,
    PLANE,
    Ambient,
    DivClass,
    LatticeError,
    PointLabel,
    UnsupportedClass,
    _h0_coords,
    _pairing,
    h0,
    h0_flagged,
    hirzebruch,
    intersect,
    plane,
)
from bidouble.degenerations import degenerate
from bidouble.recipes import (
    NOT_ADMISSIBLE,
    NOT_COVERED,
    PRODUCT_LINE,
    classify,
    construct,
    recipe,
)
from test_acceptance import pair_inline


def plane_cover(deg1, deg2, deg3):
    amb = plane()
    return building_data(amb, amb.divisor(deg1), amb.divisor(deg2), amb.divisor(deg3))


def f_cover(e, d1, d2, d3, components=(), incidence=()):
    amb = hirzebruch(e)
    return building_data(
        amb, amb.divisor(*d1), amb.divisor(*d2), amb.divisor(*d3), components, incidence
    )


class TestDeriveLineBundles:
    """The line bundles ``building_data`` derives, against the reference."""

    @staticmethod
    def derive(amb, *ds):
        args = (amb, *(amb.divisor(*d) for d in ds))
        got = outcome(building_data, *args)
        expected = outcome(reference_line_bundles, *args)
        if isinstance(got, BuildingData):
            assert (got.l1, got.l2, got.l3) == expected
            return tuple(l.coords for l in expected)
        assert got == expected
        return got

    def test_plane_line_two_cubics(self):
        assert self.derive(plane(), (1,), (3,), (3,)) == ((3,), (2,), (2,))

    def test_product_shape(self):
        assert self.derive(hirzebruch(0), (6, 0), (0, 10), (0, 0)) == ((0, 5), (3, 0), (3, 5))

    def test_parity_rejected(self):
        got = self.derive(hirzebruch(0), (1, 0), (1, 1), (0, 0))
        assert got == (ParityError, "D2 + D3 = D0+F is not divisible by two")

    def test_zero_bundle_rejected(self):
        got = self.derive(hirzebruch(0), (1, 0), (1, 0), (-1, 0))
        assert got == (InvalidBuildingData, "derived line bundle L1 is zero")


class TestInvariants:
    def test_plane_1_2(self):
        inv = invariants(plane_cover(1, 3, 3))
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (1, 2, 1, 0)
        assert not inv.pg_estimated

    def test_plane_1_3(self):
        inv = invariants(plane_cover(1, 1, 5))
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (1, 3, 2, 0)

    def test_product_chi3(self):
        # frozen against the classical product of a genus-2 and a genus-4 curve
        bd = f_cover(0, (6, 0), (0, 10), (0, 0))
        inv = invariants(bd)
        assert (inv.ksq, inv.chi) == (24, 3)
        assert (inv.pg, inv.q) == (8, 6)

    def test_genus2_20_7(self):
        bd = f_cover(0, (1, 0), (1, 12), (3, 2))
        inv = invariants(bd)
        assert (inv.ksq, inv.chi, inv.q) == (20, 7, 0)

    def test_oracles_agree_on_named_cases(self):
        for bd in (
            plane_cover(1, 3, 3),
            plane_cover(2, 2, 2),
            f_cover(0, (6, 0), (0, 10), (0, 0)),
            f_cover(2, (1, 0), (1, 2), (3, 10)),
        ):
            inv = invariants(bd)
            assert chi_oracle(bd) == inv.chi
            assert ksq_oracle(bd) == inv.ksq

    def test_oracle_sampling(self):
        rng = random.Random(20240)
        checked = 0
        while checked < 2000:
            e = rng.randrange(4)
            pa, pb = rng.randrange(2), rng.randrange(2)
            amb = hirzebruch(e)

            def cls():
                return amb.divisor(2 * rng.randrange(6) + pa, 2 * rng.randrange(6) + pb)

            d1, d2, d3 = cls(), cls(), cls()
            if d1.is_zero() or d2.is_zero():
                continue
            try:
                bd = building_data(amb, d1, d2, d3)
            except InvalidBuildingData:
                continue
            inv = invariants(bd)
            assert chi_oracle(bd) == inv.chi
            assert ksq_oracle(bd) == inv.ksq
            checked += 1


def oracle_reference(bd):
    """(chi, K^2) on a Gram matrix and K_Y written here from the basis
    rules, whatever the ambient: H.H = 1 and K = -3H on the plane, and
    D0.D0 = -e, D0.F = 1, F.F = 0, E_i.E_j = -delta_ij and
    K = -2D0 - (e + 2)F + sum E_i on a ruled ambient.  chi is one
    Riemann-Roch term per bundle and K^2 the square of 2K + B."""
    amb = bd.ambient
    n = len(bd.l1.coords)
    if amb.kind == PLANE:
        gram, k = [[1]], [-3]
    else:
        e = amb.e
        gram = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        gram[0][:2], gram[1][:2] = [-e, 1], [1, 0]
        k = [-2, -e - 2] + [1] * (n - 2)

    def form(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    chi = 1
    for l in (bd.l1, bd.l2, bd.l3):
        d = [-x for x in l.coords]
        pairing = form(d, [x - y for x, y in zip(d, k)])
        assert pairing % 2 == 0
        chi += 1 + pairing // 2
    kb = [2 * x + a + b + c for x, a, b, c in zip(k, bd.d1.coords, bd.d2.coords, bd.d3.coords)]
    return chi, form(kb, kb)


@functools.cache
def certified_data():
    """Every datum the sweep up to chi 12 certifies: the data, the data
    before resolution and the designated degeneration's data."""
    bds = []
    for ksq, chi in checks.covered_pairs(12):
        cert = construct(ksq, chi)
        bds.append(cert.data)
        if cert.pre_resolution is not None:
            bds.append(cert.pre_resolution)
        if recipes.FAMILY[cert.region].degeneration is not None:
            bds.append(degenerate(cert).data)
    return tuple(bds)


class TestOracleRoutes:
    """The oracles take one route on every ambient; it equals the library's
    invariants and a Gram-matrix reference written in this file."""

    def test_oracles_match_invariants_on_certified_data(self):
        for bd in certified_data():
            inv = invariants(bd)
            assert (chi_oracle(bd), ksq_oracle(bd)) == (inv.chi, inv.ksq), bd
        # the plane, F_e, and blow-ups at one to three centres
        assert {len(bd.l1.coords) for bd in certified_data()} == {1, 2, 3, 4, 5}

    def test_oracles_match_the_reference_on_every_rank(self):
        bds = list(certified_data())
        rng = random.Random(checks.ORACLE_SEED)
        samples = 0
        while samples < checks.ORACLE_SAMPLES:
            try:
                bds.append(checks.sample_building_data(rng))
            except CoverError:
                continue
            samples += 1
        # fresh F_e up to e = 6, on a grid of parity-consistent data with
        # coefficients 0..8: every D1 against every D3, with D2 running
        # through the classes of the same parity in the reverse order
        for e in range(7):
            amb = Ambient(HIRZEBRUCH, e)
            for pa, pb in itertools.product((0, 1), repeat=2):
                classes = [
                    amb.divisor(a, b)
                    for a, b in itertools.product(range(pa, 9, 2), range(pb, 9, 2))
                ]
                for i, d1 in enumerate(classes):
                    d2 = classes[~i]
                    if d1.is_zero() or d2.is_zero():
                        continue
                    bds.extend(building_data(amb, d1, d2, d3) for d3 in classes)
        # blow-ups of F_0..F_2 at one to three centres with exceptional
        # coefficients -3..2, assembled unchecked: h0 takes only 0 and -1
        # there, so on data building_data accepts each L_i carries 0 or -1
        # at a centre, where the exceptional term of chi vanishes
        rng = random.Random(20261021)
        for _ in range(600):
            amb = Ambient(
                BLOWUP,
                rng.randrange(3),
                tuple(PointLabel(f"q{i}") for i in range(rng.randrange(1, 4))),
            )
            parity = [rng.randrange(2) for _ in range(amb.rank)]
            d1, d2, d3 = [
                DivClass(amb, tuple(p + 2 * rng.randrange(-2, 2) for p in parity))
                for _ in range(3)
            ]
            l1, l2, l3 = [
                DivClass(amb, tuple((x + y) // 2 for x, y in zip(a.coords, b.coords)))
                for a, b in ((d2, d3), (d1, d3), (d1, d2))
            ]
            bds.append(BuildingData(amb, d1, d2, d3, l1, l2, l3))
        for bd in bds:
            assert (chi_oracle(bd), ksq_oracle(bd)) == oracle_reference(bd), bd


class TestValidation:
    def test_component_sum_enforced(self):
        amb = hirzebruch(0)
        with pytest.raises(InvalidBuildingData):
            building_data(
                amb,
                amb.divisor(2, 0),
                amb.divisor(0, 2),
                amb.divisor(0, 0),
                components=(Component("d1", 1, amb.divisor(1, 0), count=3),),
            )

    def test_nonreduced_data_builds_and_is_recorded(self):
        amb = hirzebruch(0)
        shared = amb.divisor(1, 0)
        comps = (
            Component("c", 1, shared),
            Component("c", 2, shared),
            Component("rest1", 1, amb.divisor(1, 0)),
            Component("rest2", 2, amb.divisor(1, 0)),
        )
        bd = building_data(amb, amb.divisor(2, 0), amb.divisor(2, 0), amb.divisor(0, 2), comps)
        assert not bd.reduced and bd.to_doc()["reduced"] is False

    def test_ineffective_branch_rejected(self):
        amb = hirzebruch(1)
        with pytest.raises(InvalidBuildingData):
            building_data(amb, amb.divisor(2, -2), amb.divisor(2, 0), amb.divisor(0, 0))

    @pytest.mark.parametrize(
        "branch, count", [(True, 1), (1.0, 1), (1, True), (1, 2.0), ("1", 1)]
    )
    def test_component_integers_not_coerced(self, branch, count):
        with pytest.raises(InvalidBuildingData, match="component"):
            Component("x", branch, hirzebruch(0).divisor(1, 0), count=count)

    @pytest.mark.parametrize("name", [5, None, 1.5, b"d1", ("d1",)])
    def test_component_name_must_be_string(self, name):
        with pytest.raises(InvalidBuildingData, match="component name must be a string"):
            Component(name, 1, hirzebruch(0).divisor(1, 0))

    @pytest.mark.parametrize("cls", [(1, 0), [1, 0], None, "D0"])
    def test_component_class_must_be_a_divisor_class(self, cls):
        with pytest.raises(InvalidBuildingData, match="component class must be a divisor class"):
            Component("x", 1, cls)

    def test_unknown_component_in_point(self):
        amb = hirzebruch(0)
        with pytest.raises(InvalidBuildingData):
            building_data(
                amb,
                amb.divisor(1, 0),
                amb.divisor(1, 0),
                amb.divisor(1, 2),
                incidence=(PointLabel("p", components=("ghost",)),),
            )

    @pytest.mark.parametrize(
        "point, message",
        [
            # no branch-3 component passes through p, so p is no triple point
            (PointLabel("p", ("a", "b")), "lies on branches"),
            # a name given twice counts its component twice, with or without
            # a curve of every branch
            (PointLabel("p", ("a", "a", "b", "c")), "lies on branches"),
            (PointLabel("p", ("a", "a", "b")), "lies on branches"),
            # a triple point that names no curve was once booked as a quarter point
            (PointLabel("p"), "lies on branches"),
        ],
    )
    def test_point_components_match_its_branches(self, point, message):
        amb = hirzebruch(0)
        d = amb.divisor(2, 2)
        comps = tuple(Component(name, i, d) for i, name in enumerate("abc", start=1))
        with pytest.raises(InvalidBuildingData, match=message):
            building_data(amb, d, d, d, comps, (point,))

    def test_point_naming_no_component_of_a_branch(self):
        # on (30, 6), f2 and d2 lie on branches 1 and 2 only
        pre = construct(30, 6).pre_resolution
        point = PointLabel("p2", ("f2", "d2"))
        with pytest.raises(InvalidBuildingData, match="lies on branches"):
            building_data(pre.ambient, pre.d1, pre.d2, pre.d3, pre.components, (point,))

    @pytest.mark.parametrize(
        "point, message",
        [
            # f_rest is 6 fibers of D1: the point names none of them
            (PointLabel("p2", ("f_rest", "d2", "d3")), "'f_rest' of 6 copies"),
            # two fibers of D1 through p1 would make D1 singular there
            (
                PointLabel("p1", ("f1", "f2", "d2", "d3")),
                r"lie on branches \[1, 1, 2, 3\]",
            ),
        ],
        ids=["multi_copy_component", "two_curves_of_one_branch"],
    )
    def test_point_names_one_single_curve_per_branch(self, point, message):
        # (30, 6): Genus3 with alpha 8, fibers f1, f2 and 6 copies of f_rest
        pre = construct(30, 6).pre_resolution
        with pytest.raises(InvalidBuildingData, match=message):
            building_data(pre.ambient, pre.d1, pre.d2, pre.d3, pre.components, (point,))

    def test_shared_name_counts_every_component(self):
        # s is one curve on branches 2 and 3: a point naming it and d3 has
        # two curves of branch 3 through it; naming it alone is one per branch
        amb = hirzebruch(0)
        fiber, section = amb.divisor(0, 1), amb.divisor(1, 0)
        comps = (
            Component("f", 1, fiber),
            Component("g", 1, fiber),
            Component("d2", 2, amb.divisor(1, 2)),
            Component("s", 2, section),
            Component("d3", 3, amb.divisor(1, 2)),
            Component("s", 3, section),
        )
        d1, d2 = amb.divisor(0, 2), amb.divisor(2, 2)
        bad = PointLabel("p", ("f", "s", "d3"))
        with pytest.raises(InvalidBuildingData, match=r"lie on branches \[1, 2, 3, 3\]"):
            building_data(amb, d1, d2, d2, comps, (bad,))
        good = PointLabel("p", ("f", "s"))
        bd = building_data(amb, d1, d2, d2, comps, (good,))
        assert bd.incidence == (good,)

    def test_marked_point_named_like_a_centre(self):
        # resolving p would give a blow-up with two centres named p
        amb = Ambient(BLOWUP, 0, (PointLabel("p"),))
        fiber = amb.divisor(1, 0, 0)
        comps = (
            Component("d1", 1, amb.divisor(1, 2, 0)),
            Component("d2", 2, amb.divisor(1, 6, 0)),
            Component("delta1", 3, fiber),
            Component("delta2", 3, fiber),
            Component("delta3", 3, fiber),
        )
        d1, d2, d3 = amb.divisor(1, 2, 0), amb.divisor(1, 6, 0), amb.divisor(3, 0, 0)
        pts = (PointLabel("p", ("d1", "d2", "delta1")),)
        with pytest.raises(InvalidBuildingData, match="'p' is named like a centre"):
            building_data(amb, d1, d2, d3, comps, pts)
        # the same point under another name builds and resolves
        q = (PointLabel("q", ("d1", "d2", "delta1")),)
        bd = building_data(amb, d1, d2, d3, comps, q)
        assert resolve_triple_point(bd) == fold_reference(bd, "q")

    @staticmethod
    def with_first_centre(bd, centre):
        """The arguments that build ``bd``, a blow-up, with its first centre
        replaced by ``centre``: the classes and components are moved onto
        the new ambient unchanged."""
        amb = Ambient(BLOWUP, bd.ambient.e, (centre,) + bd.ambient.points[1:])
        comps = tuple(
            Component(c.name, c.branch, DivClass(amb, c.cls.coords), c.count)
            for c in bd.components
        )
        ds = [DivClass(amb, d.coords) for d in bd.branches()]
        return (amb, *ds, comps, bd.incidence)

    @pytest.mark.parametrize(
        "names, message",
        [
            # (45, 10)'s p1 lies on f1, d2 and d3
            (("x", "d2", "d3"), "centre 'p1' names unknown component 'x'"),
            (("f2", "d2", "d3"), r"centre 'p1' names component 'f2' = F-E2, which has no -1"),
        ],
    )
    def test_centre_names_components_through_it(self, names, message):
        bd = construct(45, 10).data
        args = self.with_first_centre(bd, PointLabel("p1", names))
        with pytest.raises(InvalidBuildingData, match=message):
            building_data(*args)
        with pytest.raises(InvalidBuildingData, match=message):
            reference_building_data(*args)
        doc = bd.to_doc()
        doc["ambient"]["points"][0]["components"] = list(names)
        with pytest.raises(InvalidBuildingData, match=message):
            BuildingData.from_doc(doc)

    @pytest.mark.parametrize("centre", [PointLabel("p1"), PointLabel("p1", ("d2",))])
    def test_centre_naming_fewer_components_builds(self, centre):
        # a centre that names no component, or only some through it, says
        # nothing false about the data
        bd = construct(45, 10).data
        args = self.with_first_centre(bd, centre)
        got = building_data(*args)
        assert got == reference_building_data(*args)
        assert got.ambient.points[0] == centre
        assert got.to_doc()["classes"] == bd.to_doc()["classes"]

    def test_component_entry_must_be_a_component(self):
        # the component-sum loop refuses the entry before reading a field
        d = hirzebruch(0).divisor(2, 2)
        with pytest.raises(InvalidBuildingData, match="component 'x' is not a Component"):
            building_data(hirzebruch(0), d, d, d, ("x",))

    def test_marked_point_entry_must_be_a_point_label(self):
        d = hirzebruch(0).divisor(2, 2)
        with pytest.raises(InvalidBuildingData, match="marked point 'p' is not a PointLabel"):
            building_data(hirzebruch(0), d, d, d, (), ("p",))

    def test_ordered_inputs_must_be_lists_or_tuples(self):
        # a set or dict would order the document's components by hash seed
        amb = hirzebruch(0)
        d = amb.divisor(2, 2)
        comps = [Component(name, i, d) for i, name in enumerate("abc", start=1)]
        point = PointLabel("p", ("a", "b", "c"))
        assert building_data(amb, d, d, d, comps, [point]).components == tuple(comps)
        for given in (set(comps), dict.fromkeys(comps), iter(comps)):
            with pytest.raises(InvalidBuildingData, match="components must be a list or tuple"):
                building_data(amb, d, d, d, given)
        for given in ({point}, {point: 0}):
            with pytest.raises(InvalidBuildingData, match="incidence must be a list or tuple"):
                building_data(amb, d, d, d, comps, given)

    @pytest.mark.parametrize(
        "field, args",
        [
            ("ksq", (True, 1, 0, 0, False)),
            ("chi", (1, 1.0, 0, 0, False)),
            ("pg", (1, 1, False, 0, False)),
            ("q", (1, 1, 0, 0.0, False)),
        ],
    )
    def test_invariants_integers_not_coerced(self, field, args):
        with pytest.raises(InvalidBuildingData, match=f"{field} must be an integer"):
            Invariants(*args)

    @pytest.mark.parametrize("flag", [1, 0, None])
    def test_invariants_pg_estimated_must_be_a_boolean(self, flag):
        with pytest.raises(InvalidBuildingData, match="pg_estimated must be a boolean"):
            Invariants(1, 1, 0, 0, flag)


class TestSingularityScan:
    def test_empty_for_plain_data(self):
        assert singularity_scan(plane_cover(1, 3, 3)) == ()

    def test_quarter_points(self):
        amb = hirzebruch(0)
        comps = (
            Component("d1", 1, amb.divisor(1, 2)),
            Component("d2", 2, amb.divisor(1, 2)),
            Component("d3", 3, amb.divisor(1, 0)),
        )
        pts = (
            PointLabel("p2", ("d1", "d2", "d3")),
            PointLabel("p1", ("d1", "d2", "d3")),
        )
        bd = building_data(amb, amb.divisor(1, 2), amb.divisor(1, 2), amb.divisor(1, 0), comps, pts)
        ledger = singularity_scan(bd)
        assert [l.kind for l in ledger] == [QUARTER_POINT, QUARTER_POINT]
        assert [l.witness_point for l in ledger] == ["p1", "p2"]
        assert all(l.gorenstein_index == 2 and l.count == 1 for l in ledger)

    def test_order_independent(self):
        amb = hirzebruch(0)
        comps = (
            Component("d1", 1, amb.divisor(1, 2)),
            Component("d2", 2, amb.divisor(1, 2)),
            Component("d3", 3, amb.divisor(1, 0)),
        )
        pts = [
            PointLabel("a", ("d1", "d2", "d3")),
            PointLabel("b", ("d1", "d2", "d3")),
        ]
        bd1 = building_data(amb, amb.divisor(1, 2), amb.divisor(1, 2), amb.divisor(1, 0), comps, tuple(pts))
        bd2 = building_data(amb, amb.divisor(1, 2), amb.divisor(1, 2), amb.divisor(1, 0), comps, tuple(reversed(pts)))
        assert singularity_scan(bd1) == singularity_scan(bd2)

    def test_non_normal_gluing(self):
        # D2' = D1 = a ruling fiber shared between branches 1 and 2 on F_0;
        # pinch points sit over the 6 intersections of the shared curve with D3
        amb = hirzebruch(0)
        shared = amb.divisor(1, 0)
        comps = (
            Component("d1", 1, shared),
            Component("d1", 2, shared),
            Component("d3", 3, amb.divisor(3, 6)),
        )
        bd = building_data(amb, shared, shared, amb.divisor(3, 6), comps)
        ledger = singularity_scan(bd)
        assert len(ledger) == 1
        entry = ledger[0]
        assert entry.kind == NON_NORMAL_GLUING
        assert entry.witness_class == shared
        assert entry.gorenstein_index == 2
        assert entry.count == 6


class TestResolveTriplePoint:
    @staticmethod
    def marked_line5_data(chi):
        # K^2 = 4chi-5 shape: D1 = D0+2F, D2 = D0+2chi F, D3 = three D0-fibers,
        # one fiber through a marked triple point
        amb = hirzebruch(0)
        fiber = amb.divisor(1, 0)
        comps = (
            Component("d1", 1, amb.divisor(1, 2)),
            Component("d2", 2, amb.divisor(1, 2 * chi)),
            Component("delta1", 3, fiber),
            Component("delta2", 3, fiber),
            Component("delta3", 3, fiber),
        )
        pts = (PointLabel("p", ("d1", "d2", "delta1")),)
        return building_data(
            amb, amb.divisor(1, 2), amb.divisor(1, 2 * chi), amb.divisor(3, 0), comps, pts
        )

    def test_invariant_steps(self):
        bd = self.marked_line5_data(3)
        before = invariants(bd)
        assert (before.ksq, before.chi) == (8, 3)
        after = invariants(resolve_triple_point(bd))
        assert (after.ksq, after.chi) == (7, 3)
        assert after.pg == before.pg and after.q == before.q

    def test_classes_pick_up_exceptional(self):
        bd = resolve_triple_point(self.marked_line5_data(3))
        assert bd.d1.coords == (1, 2, -1)
        assert bd.d2.coords == (1, 6, -1)
        assert bd.d3.coords == (3, 0, -1)
        lifted = {c.name: c.cls.coords for c in bd.components}
        assert lifted["delta1"] == (1, 0, -1)
        assert lifted["delta2"] == (1, 0, 0)
        assert bd.incidence == ()
        assert len(bd.ambient.points) == 1


class TestSerialization:
    def test_round_trip(self):
        bd = TestResolveTriplePoint.marked_line5_data(4)
        assert BuildingData.from_doc(bd.to_doc()) == bd

    def test_round_trip_after_resolution(self):
        bd = resolve_triple_point(TestResolveTriplePoint.marked_line5_data(4))
        assert BuildingData.from_doc(bd.to_doc()) == bd

    # each edit returns the error and wording of the constructor that owns
    # the field it spoils
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["classes"]["d1"].__setitem__(0, True)
            or (LatticeError, "class coordinates must be integers, got True"),
            lambda doc: doc["classes"]["d3"].__setitem__(0, 3.0)
            or (LatticeError, "class coordinates must be integers, got 3.0"),
            lambda doc: doc["components"][0]["class"].__setitem__(0, True)
            or (LatticeError, "class coordinates must be integers, got True"),
            lambda doc: doc["components"][0].__setitem__("branch", True)
            or (InvalidBuildingData, r"component branch must be 1\.\.3, got True"),
            lambda doc: doc["components"][0].__setitem__("count", True)
            or (InvalidBuildingData, "component count must be an integer >= 1, got True"),
            lambda doc: doc["components"][2].__setitem__("count", 1.0)
            or (InvalidBuildingData, "component count must be an integer >= 1, got 1.0"),
            lambda doc: doc["incidence"][0].__setitem__("branches", [True, 2, 3])
            or (LatticeError, r"'incidence\.0\.branches' must be integers \[1, 2, 3\], got \[True"),
            lambda doc: doc["ambient"].__setitem__("e", False)
            or (LatticeError, "parameter e must be an integer, got False"),
        ],
    )
    def test_non_integers_rejected(self, edit):
        doc = TestResolveTriplePoint.marked_line5_data(4).to_doc()
        error, wording = edit(doc)
        with pytest.raises(error, match=wording):
            BuildingData.from_doc(doc)

    # one-field edits of the (45, 10) data document that spoil its shape;
    # each is refused naming the field, not with a bare KeyError, TypeError
    # or AttributeError
    @pytest.mark.parametrize(
        "edit, wording",
        [
            (lambda doc: doc.pop("ambient"), "missing field 'ambient'"),
            (lambda doc: doc["classes"].pop("d2"), "missing field 'classes.d2'"),
            (
                lambda doc: doc.__setitem__("classes", list(doc["classes"].values())),
                r"field 'classes' must be an object, got \[\[",
            ),
            (lambda doc: doc.__setitem__("ambient", 3), "field 'ambient' must be an object, got 3"),
            (
                lambda doc: doc["components"].__setitem__(0, list(doc["components"][0].values())),
                r"field 'components.0' must be an object, got \['f1'",
            ),
            (
                lambda doc: doc["ambient"]["points"][0].pop("name"),
                "missing field 'ambient.points.0.name'",
            ),
        ],
        ids=["no-ambient", "no-d2", "classes-list", "ambient-number", "component-list", "no-name"],
    )
    def test_malformed_shape_names_the_field(self, edit, wording):
        doc = construct(45, 10).data.to_doc()
        edit(doc)
        with pytest.raises(InvalidBuildingData, match=wording):
            BuildingData.from_doc(doc)

    def test_every_shape_edit_refused_by_the_library(self):
        # every field deleted or replaced by a value of another shape is
        # read or refused with a CoverError or LatticeError; any other
        # exception fails the test
        base = construct(45, 10).data.to_doc()
        nodes = [()]
        for path in nodes:
            node = functools.reduce(lambda n, k: n[k], path, base)
            keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
            nodes += [path + (k,) for k in keys]
        refused = 0
        for path in nodes:
            for value in ("delete", 3, "x", None, [], {}, [3], {"x": 3}):
                doc = copy.deepcopy(base)
                if not path:
                    doc = value
                else:
                    parent = functools.reduce(lambda n, k: n[k], path[:-1], doc)
                    if value == "delete":
                        parent.pop(path[-1])
                    else:
                        parent[path[-1]] = value
                try:
                    BuildingData.from_doc(doc)
                except (CoverError, LatticeError):
                    refused += 1
        assert refused

    def test_string_components_refused_on_a_centre(self):
        # a string is no sequence of names, here as in PointLabel itself
        bd = resolve_triple_point(TestResolveTriplePoint.marked_line5_data(4))
        doc = bd.to_doc()
        doc["ambient"]["points"][0]["components"] = "d1"
        with pytest.raises(LatticeError, match="must be a sequence of names, got 'd1'"):
            BuildingData.from_doc(doc)

    def test_string_components_refused_on_a_marked_point(self):
        doc = TestResolveTriplePoint.marked_line5_data(4).to_doc()
        doc["incidence"][0]["components"] = "d1"
        with pytest.raises(LatticeError, match="must be a sequence of names, got 'd1'"):
            BuildingData.from_doc(doc)

    def test_object_components_refused_on_a_centre(self):
        # a JSON object's keys are no ordered list of names
        bd = resolve_triple_point(TestResolveTriplePoint.marked_line5_data(4))
        doc = bd.to_doc()
        doc["ambient"]["points"][0]["components"] = {"d1": 0, "d2": 1, "delta1": 2}
        with pytest.raises(LatticeError, match="must be a sequence of names"):
            BuildingData.from_doc(doc)

    @pytest.mark.parametrize(
        "branches", [[], [3], [1, 2], [1, 2, 3, 3], [True, 2, 3], [1.0, 2, 3]]
    )
    def test_branches_record_must_be_the_triple(self, branches):
        # every point is a triple point, so a centre or a marked point of the
        # (45, 10) data records branches [1, 2, 3], as integers: True and
        # 1.0 compare equal to 1
        cert = construct(45, 10)
        data, pre = cert.data.to_doc(), cert.pre_resolution.to_doc()
        for doc, point, where in (
            (data, data["ambient"]["points"][0], "ambient.points.0"),
            (pre, pre["incidence"][0], "incidence.0"),
        ):
            point["branches"] = branches
            with pytest.raises(LatticeError, match=rf"'{where}\.branches' must be integers"):
                BuildingData.from_doc(doc)

    @pytest.mark.parametrize("flag", [False, None, 1, "true"])
    def test_non_general_point_refused(self, flag):
        # every point is assumed in general position
        bd = resolve_triple_point(TestResolveTriplePoint.marked_line5_data(4))
        doc = bd.to_doc()
        doc["ambient"]["points"][0]["general"] = flag
        with pytest.raises(LatticeError, match="point general flag must be true"):
            BuildingData.from_doc(doc)
        doc = TestResolveTriplePoint.marked_line5_data(4).to_doc()
        doc["incidence"][0]["general"] = flag
        with pytest.raises(LatticeError, match="point general flag must be true"):
            BuildingData.from_doc(doc)

    def test_every_document_point_records_general_position(self):
        points = 0
        for ksq, chi in checks.covered_pairs(12):
            cert = construct(ksq, chi)
            docs = [cert.to_doc()]
            if cert.region != PRODUCT_LINE:
                docs.append(degenerate(cert).to_doc())
            for doc in docs:
                for block in (doc["data"], doc.get("preResolution")):
                    if block is None:
                        continue
                    for p in block["ambient"].get("points", []) + block["incidence"]:
                        assert p["general"] is True, (ksq, chi, p)
                        points += 1
        assert points >= 100

    @pytest.mark.parametrize(
        "ambient,wording",
        [
            (
                {"kind": HIRZEBRUCH, "e": 0, "points": [{"name": "p", "branches": [1, 2, 3]}]},
                "an unblown Hirzebruch surface carries no points",
            ),
            ({"kind": PLANE, "e": 1}, "the plane carries no e parameter"),
            ({"kind": HIRZEBRUCH}, "parameter e must be an integer, got None"),
            ({"kind": BLOWUP, "e": 0}, "a blow-up needs at least one centre"),
        ],
    )
    def test_ambient_keys_must_fit_the_kind(self, ambient, wording):
        doc = TestResolveTriplePoint.marked_line5_data(4).to_doc()
        doc["ambient"] = ambient
        with pytest.raises(LatticeError, match=wording):
            BuildingData.from_doc(doc)


def resolve_one_reference(bd, name):
    """One blow-up as a single literal step, re-validated from scratch: the
    reference that the all-at-once resolution is compared against.  Every
    component carrying a name the point names passes through it, and
    ``building_data`` then checks the lifted sums in full."""
    marked = {p.name: p for p in bd.incidence}
    if name not in marked:
        raise InvalidBuildingData(f"no marked point named {name!r}")
    p = marked[name]
    if bd.ambient.kind == PLANE:
        raise CoverError("triple point resolution is implemented on ruled models only")
    amb = Ambient(BLOWUP, bd.ambient.e, bd.ambient.points + (p,))
    exc = DivClass(amb, (0,) * (amb.rank - 1) + (1,))

    def lift(d, passes):
        out = DivClass(amb, d.coords + (0,))
        return out - exc if passes else out

    comps = tuple(
        Component(c.name, c.branch, lift(c.cls, c.name in p.components), c.count)
        for c in bd.components
    )
    return building_data(
        amb,
        lift(bd.d1, True),
        lift(bd.d2, True),
        lift(bd.d3, True),
        comps,
        tuple(q for q in bd.incidence if q.name != name),
    )


def fold_reference(bd, *names):
    return functools.reduce(resolve_one_reference, names, bd)


F0 = hirzebruch(0)


def random_marked_datum(rng):
    """Pre-resolution data of Genus3 or ruling-triple shape on F_0 with one
    to three marked triple points, marked in a drawn order, as ``outcome``
    of ``building_data`` returns it, and the fault it carries, if any, at
    its last marked point: a fiber through two marked points on a branch
    left with no sections ("fiber"), or a point naming a component name
    shared by branches 2 and 3 and also a curve of branch 3 ("shared"),
    which ``building_data`` refuses.  In half the data with no fault, the
    last point names such a shared name as its one curve of branches 2 and
    3.  A fault at an earlier point would stop the fold at an earlier
    stage, whose error names fewer exceptional classes."""
    fault = rng.choice((None, None, None, "fiber", "shared"))
    shared = fault == "shared" or (fault is None and rng.random() < 0.5)
    k = 2 if fault == "fiber" else rng.randint(1, 3)
    if rng.random() < 0.5:
        # Genus3: D1 = alpha fibers, k of them named by a point each unless
        # two points share one; D2 = 2D0 + beta F, D3 = 4D0 + gamma F
        named = k - 1 if fault == "fiber" else k
        alpha = named + (0 if fault == "fiber" else rng.randrange(4))
        beta, gamma = (2 * rng.randrange(1, 4) + alpha % 2 for _ in range(2))
        d1, d2, d3 = F0.divisor(0, alpha), F0.divisor(2, beta), F0.divisor(4, gamma)
        comps = [Component(f"f{i}", 1, F0.divisor(0, 1)) for i in range(1, named + 1)]
        if alpha > named:
            comps.append(Component("f_rest", 1, F0.divisor(0, 1), alpha - named))
        if shared:
            comps += [
                Component("d2", 2, F0.divisor(1, beta)),
                Component("s", 2, F0.divisor(1, 0)),
                Component("d3", 3, F0.divisor(3, gamma)),
                Component("s", 3, F0.divisor(1, 0)),
            ]
        else:
            comps += [Component("d2", 2, d2), Component("d3", 3, d3)]
        through = [(f"f{min(i, named)}", "d2", "d3") for i in range(1, k + 1)]
        if shared:
            through[-1] = (f"f{k}", "s", "d3") if fault else (f"f{k}", "s")
    else:
        # ruling triple: D1 = D0 + 2F, D2 = D0 + 2c F, D3 = m members of
        # |D0|; with one member, two points on it leave D3 ineffective
        m = 1 if fault == "fiber" else 3
        c = rng.randint(1, 6)
        d1, d2, d3 = F0.divisor(1, 2), F0.divisor(1, 2 * c), F0.divisor(m, 0)
        comps = [Component("d1", 1, d1)]
        if shared:
            comps += [Component("d2", 2, F0.divisor(0, 2 * c)), Component("s", 2, F0.divisor(1, 0))]
            comps += [Component("delta1", 3, F0.divisor(1, 0)), Component("delta2", 3, F0.divisor(1, 0))]
            comps.append(Component("s", 3, F0.divisor(1, 0)))
        else:
            comps.append(Component("d2", 2, d2))
            comps += [Component(f"delta{i}", 3, F0.divisor(1, 0)) for i in range(1, m + 1)]
        through = [("d1", "d2", f"delta{min(i, m)}") for i in range(1, k + 1)]
        if shared:
            through[-1] = ("d1", "s", "delta1") if fault else ("d1", "s")
    points = [PointLabel(f"p{i}", names) for i, names in enumerate(through, start=1)]
    order = points[:-1]
    rng.shuffle(order)
    return outcome(building_data, F0, d1, d2, d3, tuple(comps), (*order, points[-1])), fault


def genus3_resolved_pairs(chi):
    # every Genus3 pair of the row with epsilon = (-Ksq) mod 4 in 1..3
    return [(ksq, chi) for ksq in range(4 * chi - 3, 8 * chi - 7) if ksq % 4]


RESOLVED_PAIRS = [
    *(p for chi in (2, 3, 6, 11, 24) for p in genus3_resolved_pairs(chi)),
    *((4 * chi - 5, chi) for chi in (2, 5, 13, 40)),
]


class TestResolveTriplePoints:
    @pytest.mark.parametrize("ksq,chi", RESOLVED_PAIRS)
    def test_all_at_once_equals_fold(self, ksq, chi):
        cert = construct(ksq, chi)
        pre = cert.pre_resolution
        names = [p.name for p in pre.incidence]
        assert 1 <= len(names) <= 3
        assert resolve_triple_point(pre) == fold_reference(pre, *names) == cert.data

    def test_epsilon_one_to_three_covered(self):
        eps = {(-ksq) % 4 for ksq, chi in RESOLVED_PAIRS if ksq != 4 * chi - 5}
        assert eps == {1, 2, 3}

    def test_no_points_is_identity(self):
        # data on a blow-up, on F_0 and on the plane that marks no point
        for ksq, chi in ((30, 6), (32, 6), (1, 2)):
            bd = construct(ksq, chi).data
            assert bd.incidence == ()
            assert resolve_triple_point(bd) is bd

    @staticmethod
    def with_incidence(*points):
        # (30, 6): Genus3 with epsilon 2 and alpha 8, so f_rest has 6 copies
        pre = construct(30, 6).pre_resolution
        return building_data(
            pre.ambient, pre.d1, pre.d2, pre.d3, pre.components, points
        )

    @staticmethod
    def raised(resolve, *args):
        with pytest.raises(CoverError) as info:
            resolve(*args)
        return type(info.value)

    P1 = PointLabel("p1", ("f1", "d2", "d3"))

    @pytest.mark.parametrize(
        "points,names,expected",
        [
            # a point on two branches only is no marked point
            ((P1, PointLabel("p2", ("d2", "d3"))), ["p1", "p2"], CoverError),
            ((PointLabel("p2", ("d2", "d3")), P1), ["p2", "p1"], CoverError),
            ((P1, PointLabel("p2", ("f_rest", "d2", "d3"))), ["p1", "p2"], CoverError),
            ((PointLabel("p2", ("f_rest", "d2", "d3")), P1), ["p2", "p1"], CoverError),
            # a triple point that names no component
            ((P1, PointLabel("p2")), ["p1", "p2"], CoverError),
        ],
    )
    def test_same_error_as_fold(self, points, names, expected):
        # a point naming two branches, the 6 copies of f_rest or no
        # component is refused by the incidence rule before either
        # resolution runs, in either order of the points
        with pytest.raises(InvalidBuildingData):
            self.with_incidence(*points)

    def test_shared_name_equals_fold(self):
        # s is one curve on branches 2 and 3, so p2 names one curve per
        # branch with two names, and both components named s are lifted
        comps = (
            Component("f1", 1, F0.divisor(0, 1)),
            Component("f2", 1, F0.divisor(0, 1)),
            Component("d2", 2, F0.divisor(1, 2)),
            Component("s", 2, F0.divisor(1, 0)),
            Component("d3", 3, F0.divisor(3, 2)),
            Component("s", 3, F0.divisor(1, 0)),
        )
        p1, p2 = PointLabel("p1", ("f1", "d2", "d3")), PointLabel("p2", ("f2", "s"))
        d1, d2, d3 = F0.divisor(0, 2), F0.divisor(2, 2), F0.divisor(4, 2)
        for points in ((p1, p2), (p2, p1)):
            pre = building_data(F0, d1, d2, d3, comps, points)
            lifted = resolve_triple_point(pre)
            assert lifted == fold_reference(pre, *[p.name for p in points])
            shared = [c.cls.coords[2:] for c in lifted.components if c.name == "s"]
            assert shared == [(0, -1) if points[0] is p1 else (-1, 0)] * 2

    def test_random_data_equals_fold(self):
        # the resolution validates only what a blow-up can break; the fold
        # re-validates every stage in full
        rng = random.Random(20261019)
        seen = set()
        nonreduced = 0
        for _ in range(600):
            pre, fault = random_marked_datum(rng)
            got = pre
            if isinstance(pre, BuildingData):
                names = [p.name for p in pre.incidence]
                got = outcome(resolve_triple_point, pre)
                assert got == outcome(fold_reference, pre, *names), (fault, names)
            resolved = isinstance(got, BuildingData)
            nonreduced += resolved and not got.reduced
            seen.add((fault, resolved if resolved else got[0].__name__))
        assert nonreduced >= 100
        assert seen == {
            (None, True),
            ("fiber", "InvalidBuildingData"),
            ("shared", "InvalidBuildingData"),
        }

    def test_construct_validates_each_datum_once(self, monkeypatch):
        # every binding of building_data in the package counts its calls, so
        # a construction that validates its resolved data again fails here
        real = cover.building_data
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "bidouble" or name.startswith("bidouble."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        pairs = [
            (ksq, chi)
            for chi in range(1, 7)
            for ksq in range(1, 9 * chi + 1)
            if classify(ksq, chi) not in (NOT_ADMISSIBLE, NOT_COVERED)
        ]
        resolved = 0
        for ksq, chi in pairs:
            del calls[:]
            resolved += construct(ksq, chi).pre_resolution is not None
            assert len(calls) == 1, (ksq, chi)
        assert resolved >= 20

    def test_plane_refused(self):
        amb = plane()
        comps = (
            Component("d1", 1, amb.divisor(1)),
            Component("d2", 2, amb.divisor(3)),
            Component("d3", 3, amb.divisor(3)),
        )
        pts = (PointLabel("p", ("d1", "d2", "d3")),)
        bd = building_data(amb, amb.divisor(1), amb.divisor(3), amb.divisor(3), comps, pts)
        assert self.raised(resolve_triple_point, bd) is CoverError
        assert self.raised(fold_reference, bd, "p") is CoverError


def public_rebuild(bd):
    """``bd`` built again through the validating constructors alone."""
    given = bd.ambient
    amb = Ambient(
        given.kind,
        given.e,
        tuple(PointLabel(p.name, p.components) for p in given.points),
    )
    comps = tuple(
        Component(c.name, c.branch, DivClass(amb, c.cls.coords), c.count) for c in bd.components
    )
    pts = tuple(PointLabel(p.name, p.components) for p in bd.incidence)
    d1, d2, d3 = (DivClass(amb, d.coords) for d in bd.branches())
    return building_data(amb, d1, d2, d3, comps, pts)


class TestTrustedBuilders:
    """The values stored past their frozen __init__ equal the values the
    validating constructors build, down to the type of every field."""

    def test_recipe_data_equals_public_rebuild(self):
        resolved = 0
        for ksq, chi in checks.covered_pairs(12):
            _, _, data, pre = recipe(ksq, chi)
            resolved += pre is not None
            for bd in (data, pre):
                if bd is None:
                    continue
                rebuilt = public_rebuild(bd)
                assert rebuilt == bd and rebuilt.reduced == bd.reduced, (ksq, chi)
                assert type(bd) is BuildingData
                assert all(type(c) is Component for c in bd.components)
                classes = bd.branches() + (bd.l1, bd.l2, bd.l3) + tuple(c.cls for c in bd.components)
                for d in classes:
                    assert type(d) is DivClass and d.ambient == bd.ambient
                    assert all(type(x) is int for x in d.coords), (ksq, chi, d)
                    assert len(d.coords) == bd.ambient.rank
        assert resolved >= 100

    def test_invariants_equal_public_constructor(self):
        for ksq, chi in ((20, 7), (17, 5), (21, 5), (1, 2), (40, 5)):
            inv = construct(ksq, chi).invariants
            assert type(inv) is Invariants
            assert inv == Invariants(inv.ksq, inv.chi, inv.pg, inv.q, inv.pg_estimated)
            assert all(type(x) is int for x in (inv.ksq, inv.chi, inv.pg, inv.q))
            assert type(inv.pg_estimated) is bool

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_canonical_class_is_the_literal_formula(self, e):
        assert plane()._canonical == reference_canonical(plane()).coords == (-3,)
        assert hirzebruch(e)._canonical == (-2, -e - 2)
        assert Ambient(HIRZEBRUCH, e)._canonical == (-2, -e - 2)
        for n in (1, 2, 3):
            centres = tuple(PointLabel(f"q{i}") for i in range(n))
            amb = Ambient(BLOWUP, e, centres)
            expected = DivClass(amb, (-2, -e - 2) + (1,) * n)
            assert expected == reference_canonical(amb)
            assert amb._canonical == expected.coords
            # the resolution's blow-up, built past the checks, and a second
            # blow-up of it at one more centre
            trusted = lattice._blow_up(hirzebruch(e), centres)
            again = lattice._blow_up(trusted, (PointLabel("r"),))
            validated = Ambient(BLOWUP, e, centres + (PointLabel("r"),))
            for got, want in ((trusted, amb), (again, validated)):
                assert type(got) is Ambient and got == want and hash(got) == hash(want)
                assert got.points == want.points and got.kind == BLOWUP and got.e == e
                assert got.rank == want.rank == len(want.points) + 2
                assert got._canonical == want._canonical == reference_canonical(want).coords

    def test_resolution_runs_no_component_post_init(self, monkeypatch):
        calls = []
        real = Component.__post_init__

        def counted(self):
            calls.append(self.name)
            real(self)

        monkeypatch.setattr(Component, "__post_init__", counted)
        Component("probe", 1, hirzebruch(0).divisor(0, 1))
        assert calls == ["probe"]
        resolved = 0
        for ksq, chi in checks.covered_pairs(6):
            _, _, data, pre = recipe(ksq, chi)
            if pre is None:
                continue
            del calls[:]
            lifted = resolve_triple_point(pre)
            assert calls == [] and lifted == data, (ksq, chi)
            resolved += 1
        assert resolved >= 20


    def test_construction_runs_no_validating_constructor(self, monkeypatch):
        # the recipes build their fixed-shape classes and components trusted,
        # and a resolution runs no sum check: it does not call building_data
        # and builds its blow-up past the checks of Ambient
        built = []

        def counting(cls):
            real = cls.__post_init__

            def counted(self):
                built.append(cls)
                real(self)

            return counted

        for cls in (Ambient, DivClass, Component):
            monkeypatch.setattr(cls, "__post_init__", counting(cls))
        validated = []
        real_building_data = cover.building_data

        def counted_validation(*args, **kwargs):
            validated.append(args)
            return real_building_data(*args, **kwargs)

        monkeypatch.setattr(cover, "building_data", counted_validation)
        monkeypatch.setattr(recipes, "building_data", counted_validation)
        Component("probe", 1, Ambient(HIRZEBRUCH, 0).divisor(0, 1))
        assert built == [Ambient, DivClass, Component]
        resolved = 0
        for ksq, chi in checks.covered_pairs(6):
            del built[:], validated[:]
            _, _, data, pre = recipe(ksq, chi)
            # building_data checks the sums of the recipe's datum once
            assert built == [] and len(validated) == 1, (ksq, chi)
            if pre is None:
                continue
            del validated[:]
            lifted = resolve_triple_point(pre)
            assert validated == [] and lifted == data, (ksq, chi)
            resolved += 1
        assert resolved >= 20


class TestBranchIndex:
    def test_one_to_three(self):
        bd = construct(20, 7).data
        assert [bd.branch(i) for i in (1, 2, 3)] == [bd.d1, bd.d2, bd.d3]

    @pytest.mark.parametrize("i", [0, -1, 4, True, 1.0])
    def test_others_refused(self, i):
        bd = construct(20, 7).data
        with pytest.raises(InvalidBuildingData, match=f"branch index must be 1..3, got {i!r}"):
            bd.branch(i)


# The reference below is the operator form of the validation and invariant
# path, kept literal: every step is DivClass operator arithmetic on classes
# built by the validating constructor, one allocation per operator, so it
# shares no code with the coordinate kernels of the library.


def times(n, d):
    """n d, through the validating constructor: classes have no scalar product."""
    return DivClass(d.ambient, tuple(n * x for x in d.coords))


def reference_canonical(amb):
    if amb.kind == PLANE:
        return DivClass(amb, (-3,))
    return DivClass(amb, (-2, -(amb.e + 2)) + (1,) * len(amb.points))


def reference_half(d):
    if any(c % 2 for c in d.coords):
        return None
    return DivClass(d.ambient, tuple(c // 2 for c in d.coords))


def reference_branch_types(*branches):
    for i, d in enumerate(branches, start=1):
        if type(d) is not DivClass:
            raise InvalidBuildingData(f"branch class D{i} must be a divisor class, got {d!r}")


def reference_line_bundles(ambient, d1, d2, d3):
    reference_branch_types(d1, d2, d3)
    for d in (d1, d2, d3):
        if d.ambient != ambient:
            raise InvalidBuildingData("branch class lives on a different ambient")
    l1 = reference_half(d2 + d3)
    if l1 is None:
        raise ParityError(f"D2 + D3 = {d2 + d3} is not divisible by two")
    l2 = reference_half(d1 + d3)
    if l2 is None:
        raise ParityError(f"D1 + D3 = {d1 + d3} is not divisible by two")
    l3 = l1 + l2 - d3
    for i, l in enumerate((l1, l2, l3), start=1):
        if l.is_zero():
            raise InvalidBuildingData(f"derived line bundle L{i} is zero")
    return l1, l2, l3


def reference_component_sums(ambient, comps, totals):
    for branch, total in enumerate(totals, start=1):
        entries = [c for c in comps if c.branch == branch]
        if not entries:
            continue
        acc = DivClass(ambient, (0,) * ambient.rank)
        for c in entries:
            if c.cls.ambient != ambient:
                raise InvalidBuildingData(f"component {c.name!r} lives on a different ambient")
            acc = acc + times(c.count, c.cls)
        if acc != total:
            raise InvalidBuildingData(
                f"components of branch {branch} sum to {acc}, expected {total}"
            )


def reference_building_data(ambient, d1, d2, d3, components=(), incidence=()):
    for what, given in (("components", components), ("incidence", incidence)):
        if type(given) not in (list, tuple):
            raise InvalidBuildingData(f"{what} must be a list or tuple, got {given!r}")
    reference_branch_types(d1, d2, d3)
    if d1.is_zero() or d2.is_zero():
        raise InvalidBuildingData("D1 and D2 must be nonzero (only D3 may vanish)")
    l1, l2, l3 = reference_line_bundles(ambient, d1, d2, d3)
    for i, d in enumerate((d1, d2, d3), start=1):
        if not d.is_zero() and h0_flagged(d)[0] <= 0:
            raise InvalidBuildingData(f"branch class D{i} = {d} is not effective")
    comps = tuple(components)
    reference_component_sums(ambient, comps, (d1, d2, d3))
    names = {c.name for c in comps}
    seen = set()
    for p in incidence:
        if p.name in seen:
            raise InvalidBuildingData(f"marked point {p.name!r} repeated")
        seen.add(p.name)
        if p.name in {q.name for q in ambient.points}:
            raise InvalidBuildingData(
                f"marked point {p.name!r} is named like a centre of the ambient"
            )
        for cname in p.components:
            if cname not in names:
                raise InvalidBuildingData(f"point {p.name!r} names unknown component {cname!r}")
        # every component of each name, once per occurrence of the name
        named = [c for n in p.components for c in comps if c.name == n]
        on = sorted(c.branch for c in named)
        if on != [1, 2, 3]:
            raise InvalidBuildingData(
                f"point {p.name!r} lies on branches [1, 2, 3], "
                f"but the components it names lie on branches {on}"
            )
        for c in named:
            if c.count != 1:
                raise InvalidBuildingData(
                    f"point {p.name!r} names component {c.name!r} of {c.count} copies, "
                    "not a single curve"
                )
    for j, q in enumerate(ambient.points):
        for cname in q.components:
            if cname not in names:
                raise InvalidBuildingData(f"centre {q.name!r} names unknown component {cname!r}")
            for c in comps:
                if c.name == cname and c.cls.coords[2 + j] != -1:
                    raise InvalidBuildingData(
                        f"centre {q.name!r} names component {cname!r} = {c.cls}, "
                        "which has no -1 at the centre's exceptional class"
                    )
    # a repeated name makes the total branch non-reduced, which builds
    reduced = len(names) == len(comps)
    return BuildingData(ambient, d1, d2, d3, l1, l2, l3, comps, tuple(incidence), reduced)


def reference_invariants(bd):
    k = reference_canonical(bd.ambient)
    two_k_plus_b = times(2, k) + bd.d1 + bd.d2 + bd.d3
    ksq = intersect(two_k_plus_b, two_k_plus_b)
    tot = sum(intersect(l, l + k) for l in (bd.l1, bd.l2, bd.l3))
    if tot % 2:
        raise InvalidBuildingData("parity failure in chi; lattice data is inconsistent")
    chi = 4 + tot // 2
    pg, estimated = 0, False
    for l in (bd.l1, bd.l2, bd.l3):
        val, flagged = h0_flagged(k + l)
        pg += val
        estimated = estimated or flagged
    return Invariants(ksq=ksq, chi=chi, pg=pg, q=pg - chi + 1, pg_estimated=estimated)


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except (CoverError, LatticeError) as err:
        return type(err), str(err)


def random_ambient(rng):
    """The plane, F_e with e <= 3, or a blow-up of F_e at one or two
    centres."""
    kind = rng.random()
    if kind < 0.2:
        return plane()
    e = rng.randrange(4)
    if kind < 0.6:
        return hirzebruch(e)
    k = rng.randrange(1, 3)
    return Ambient(BLOWUP, e, tuple(PointLabel(f"q{i + 1}") for i in range(k)))


def random_datum(rng):
    """Branch classes and components on the plane, on F_e (e <= 3) or on a
    blow-up of F_e, drawn to hit every validation: mostly consistent,
    sometimes of odd parity, with a zero bundle, an ineffective class or a
    component that spoils its branch sum.  On a blow-up the exceptional
    coordinates are 0 or -1, equal in the three branches unless the parity
    is odd, and sometimes one is -2 or -3 in D1."""
    amb = random_ambient(rng)
    ruled = amb.kind != PLANE
    # the class of a line on the plane, of a ruling fiber otherwise
    unit = amb.divisor(*((0, 1) + (0,) * len(amb.points) if ruled else (1,)))
    n = 2 if ruled else 1  # coordinates before the exceptional tail

    def cls(like=None):
        # with ``like``, the head takes its parity and the tail is its tail
        head = [rng.randrange(9) for _ in range(n)]
        if like is None:
            return amb.divisor(*head, *(-rng.randrange(2) for _ in amb.points))
        head = [c + (c - p) % 2 for c, p in zip(head, like.coords)]
        return amb.divisor(*head, *like.coords[n:])

    tails = [-1 if rng.random() < 0.7 else 0 for _ in amb.points]
    d3 = amb.divisor(*(rng.randrange(9) for _ in range(n)), *tails)
    odd = rng.random() < 0.1
    d1 = cls(None if odd else d3)
    d2 = cls(None if odd else d3)
    shape = rng.random()
    if shape < 0.05:
        d3 = times(-1, d2)  # L1 = 0
    elif shape < 0.1:
        d2 = times(-1, d1) + times(2 * rng.randrange(3), unit)  # L3 = fibers or lines, maybe 0
    elif shape < 0.15:
        d1 = amb.divisor(*((2, -2) + tuple(tails) if ruled else (-1,)))  # never effective
    elif shape < 0.25 and amb.points:
        exc = [0] * amb.rank
        exc[n + rng.randrange(len(amb.points))] = 1
        d1 = d1 - times(2, amb.divisor(*exc))
    comps = []
    for branch, total in ((1, d1), (2, d2), (3, d3)):
        if rng.random() < 0.3:
            continue
        rest = total
        for i in range(rng.randrange(3)):
            head = rng.choice(((0, 1), (1, 0), (1, 1))) if ruled else (rng.randrange(1, 3),)
            piece = amb.divisor(*head, *(-rng.randrange(2) for _ in amb.points))
            count = rng.randrange(1, 3)
            comps.append(Component(f"c{branch}{i}", branch, piece, count))
            rest = rest - times(count, piece)
        comps.append(Component(f"c{branch}rest", branch, rest))
    if comps and rng.random() < 0.1:
        i = rng.randrange(len(comps))
        c = comps[i]
        comps[i] = Component(c.name, c.branch, c.cls + unit, c.count)
    return amb, d1, d2, d3, tuple(comps)


def outcome_kind(got):
    """A short name for a value or error returned by ``outcome``."""
    if not isinstance(got, tuple) or type(got[0]) is not type:
        return "valid"
    if got[0] in (InvalidBuildingData, UnsupportedClass):
        return got[1].split(" ")[0]
    return got[0].__name__


class TestAgainstReferenceFold:
    def test_random_data(self):
        rng = random.Random(20261018)
        seen = {}
        for _ in range(4000):
            amb, d1, d2, d3, comps = random_datum(rng)
            got = outcome(building_data, amb, d1, d2, d3, comps)
            assert got == outcome(reference_building_data, amb, d1, d2, d3, comps)
            kinds = [outcome_kind(got)]
            if isinstance(got, BuildingData):
                inv = outcome(invariants, got)
                assert inv == outcome(reference_invariants, got)
                kinds.append("invariants " + outcome_kind(inv))
                if isinstance(inv, Invariants):
                    k = reference_canonical(amb)
                    assert inv.two_k_plus_b == times(2, k) + d1 + d2 + d3
            for kind in kinds:
                seen[amb.kind, kind] = seen.get((amb.kind, kind), 0) + 1
        # every validation on the path is reached on every ambient kind:
        # valid data, parity, zero bundle, effectivity and component sums;
        # on blow-ups also the shape refusal of h0, in the validation and in
        # the invariants
        for kind in (PLANE, HIRZEBRUCH, BLOWUP):
            reached = {k for a, k in seen if a == kind}
            assert reached >= {
                "valid", "invariants valid", "ParityError", "derived", "branch", "components"
            }, kind
            assert seen[kind, "invariants valid"] >= 150, kind
        assert {"unsupported", "invariants unsupported"} <= {
            k for a, k in seen if a == BLOWUP
        }

    @pytest.mark.parametrize("e", [0, 1, 2, 3])
    def test_small_box_on_f_e(self, e):
        # every triple of classes with coordinates -1..2: the F_e accept
        # test and the checks behind it refuse what the reference refuses,
        # with the same message, and build the same data otherwise
        amb = hirzebruch(e)
        classes = [amb.divisor(a, b) for a in range(-1, 3) for b in range(-1, 3)]
        for d1, d2, d3 in itertools.product(classes, repeat=3):
            assert outcome(building_data, amb, d1, d2, d3) == outcome(
                reference_building_data, amb, d1, d2, d3
            )

    @pytest.mark.parametrize("chi", [2, 5, 13, 40])
    def test_resolved_data(self, chi):
        for ksq in [k for k, _ in genus3_resolved_pairs(chi)] + [4 * chi - 5]:
            cert = construct(ksq, chi)
            assert cert.pre_resolution is not None
            for bd in (cert.pre_resolution, cert.data):
                args = (bd.ambient, bd.d1, bd.d2, bd.d3, bd.components, bd.incidence)
                assert reference_building_data(*args) == bd == building_data(*args)
                inv = invariants(bd)
                assert inv == reference_invariants(bd)
                k = reference_canonical(bd.ambient)
                assert inv.two_k_plus_b == times(2, k) + bd.d1 + bd.d2 + bd.d3
            assert (cert.invariants.ksq, cert.invariants.chi) == (ksq, chi)

    @staticmethod
    def raised(fn, *args):
        with pytest.raises((CoverError, LatticeError)) as info:
            fn(*args)
        return type(info.value), str(info.value)

    # a blow-up of F_0 at one point
    BLOWN_UP_ONCE = Ambient(BLOWUP, 0, (PointLabel("q"),))

    @pytest.mark.parametrize(
        "e, d1, d2, d3, comps, expected",
        [
            # odd parity in D2 + D3, then in D1 + D3
            (0, (1, 0), (1, 1), (0, 0), (), ParityError),
            (1, (1, 1), (2, 2), (0, 0), (), ParityError),
            # L1 = (D2 + D3)/2 = 0, and L3 = (D1 + D2)/2 = 0
            (0, (1, 0), (1, 0), (-1, 0), (), InvalidBuildingData),
            (2, (1, 2), (-1, -2), (1, 0), (), InvalidBuildingData),
            # component sums: short, long, and off in the third branch
            (0, (2, 0), (0, 2), (0, 0), (("a", 1, (1, 0), 1),), InvalidBuildingData),
            (0, (2, 0), (0, 2), (0, 0), (("a", 1, (1, 0), 3),), InvalidBuildingData),
            (3, (1, 0), (1, 4), (1, 2), (("a", 3, (0, 1), 1), ("b", 3, (1, 0), 1)), InvalidBuildingData),
            # a short branch-1 sum wins over a branch-2 component living on
            # F_1 (a fifth entry names the component's own F_e)
            (0, (2, 0), (0, 2), (0, 0), (("a", 1, (1, 0), 1), ("b", 2, (0, 2), 1, 1)), InvalidBuildingData),
            # multiplicity 2 at the centre: the shape error
            (BLOWN_UP_ONCE, (1, 0, -2), (1, 0, 0), (1, 0, 0), (), UnsupportedClass),
        ],
    )
    def test_same_errors_as_reference(self, e, d1, d2, d3, comps, expected):
        amb = e if isinstance(e, Ambient) else hirzebruch(e)
        args = (
            amb,
            amb.divisor(*d1),
            amb.divisor(*d2),
            amb.divisor(*d3),
            tuple(
                Component(n, b, (hirzebruch(*own) if own else amb).divisor(*c), k)
                for n, b, c, k, *own in comps
            ),
        )
        got = self.raised(building_data, *args)
        assert got == self.raised(reference_building_data, *args)
        assert got[0] is expected
        if expected is UnsupportedClass:
            assert got[1].startswith("unsupported blow-up class shape")

    def test_oracles_avoid_lincomb(self, monkeypatch):
        # chi_oracle, ksq_oracle and the monomial count stay a route that is
        # independent of the coordinate kernels they check: they call no
        # kernel and wrap no class through cover's binding of _trusted
        bds = [construct(ksq, chi).data for ksq, chi in ((20, 7), (17, 5), (7, 3), (1, 2), (40, 5))]
        expected = [(invariants(bd).chi, invariants(bd).ksq) for bd in bds]

        def refuse(*args, **kwargs):
            raise AssertionError("an oracle called a coordinate kernel")

        for name in (
            "_trusted",
            "_lift",
            "_assemble",
            "invariants",
            "intersect",
        ):
            monkeypatch.setattr(cover, name, refuse)
        # nor the library's form under its own name
        monkeypatch.setattr(lattice, "intersect", refuse)
        assert [(chi_oracle(bd), ksq_oracle(bd)) for bd in bds] == expected
        amb = hirzebruch(2)
        assert checks.monomial_count(amb.divisor(2, 5)) == 6 + 4 + 2

    @staticmethod
    def inline_values(bd):
        """(chi, K^2) of ruled data from the acceptance test's inline form."""
        e = bd.ambient.e
        k = (-2, -(e + 2))
        b = tuple(x + y + z for x, y, z in zip(bd.d1.coords, bd.d2.coords, bd.d3.coords))
        total = sum(
            pair_inline(e, l.coords, tuple(x + y for x, y in zip(l.coords, k)))
            for l in (bd.l1, bd.l2, bd.l3)
        )
        ksq = 4 * pair_inline(e, k, k) + 4 * pair_inline(e, k, b) + pair_inline(e, b, b)
        return 4 + total // 2, ksq

    def test_oracles_ignore_a_wrong_canonical_class(self):
        # a fresh F_5, so that no shared ambient is touched, whose K is
        # overwritten with F_3's: invariants reads it, the oracles do not
        amb = Ambient(HIRZEBRUCH, 5)
        bd = building_data(amb, amb.divisor(2, 10), amb.divisor(2, 12), amb.divisor(2, 14))
        before = invariants(bd)
        assert (before.chi, before.ksq) == self.inline_values(bd) == (19, 68)
        object.__setattr__(amb, "_canonical", (-2, -5))
        after = invariants(bd)
        assert (after.chi, after.ksq) == (25, 84)
        assert (chi_oracle(bd), ksq_oracle(bd)) == self.inline_values(bd)

    @staticmethod
    def plus_e_pairing(ambient, u, v):
        # the library's form kernel with the wrong sign D0.D0 = +e
        if ambient.kind == PLANE:
            return _pairing(ambient, u, v)
        return _pairing(ambient, u, v) + 2 * ambient.e * u[0] * v[0]

    def test_oracles_ignore_a_wrong_intersection_sign(self, monkeypatch):
        rng = random.Random(checks.ORACLE_SEED)
        bds = []
        while len(bds) < 200:
            try:
                bds.append(checks.sample_building_data(rng))
            except CoverError:
                continue
        expected = [self.inline_values(bd) for bd in bds]
        before = [outcome(invariants, bd) for bd in bds]
        monkeypatch.setattr(cover, "_pairing", self.plus_e_pairing)
        monkeypatch.setattr(lattice, "_pairing", self.plus_e_pairing)
        assert [(chi_oracle(bd), ksq_oracle(bd)) for bd in bds] == expected
        after = [outcome(invariants, bd) for bd in bds]
        assert sum(x != y for x, y in zip(before, after)) > 50

    @pytest.mark.parametrize("defect", ["intersection sign", "canonical class"])
    def test_oracle_sample_reports_a_library_defect(self, monkeypatch, defect):
        # invariants raises on some sampled data under either defect; the
        # check counts those as mismatches instead of letting them escape
        saved = [(amb, amb._canonical) for amb in lattice._HIRZEBRUCH.values()]
        if defect == "intersection sign":
            monkeypatch.setattr(cover, "_pairing", self.plus_e_pairing)
        else:
            # K = -2D0 - eF on the shared F_0..F_3 that the sample draws on
            for amb, _ in saved:
                object.__setattr__(amb, "_canonical", (-2, -amb.e))
        try:
            result = checks.check_oracle_sample()
        finally:
            for amb, k in saved:
                object.__setattr__(amb, "_canonical", k)
        assert not result.passed
        samples, mismatches = result.detail.split(", ")
        assert samples == "10000 samples"
        assert int(mismatches.split()[0]) > 0


# two centres on F_e, for the kernels' blow-up branch
def two_centres(e):
    return Ambient(BLOWUP, e, (PointLabel("q1"), PointLabel("q2")))


class TestCoordinateKernels:
    """The line bundles, the component sums and 2K + B, computed on
    coordinate tuples, against the operator fold of the same classes."""

    @given(
        on=st.sampled_from([PLANE, HIRZEBRUCH, BLOWUP]),
        e=st.integers(0, 3),
        rows=st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=3, max_size=3),
        comps=st.lists(
            st.tuples(
                st.integers(1, 3),
                st.integers(1, 3),
                st.lists(st.integers(-4, 4), min_size=4, max_size=4),
            ),
            max_size=6,
        ),
        even=st.booleans(),
        fit=st.booleans(),
    )
    def test_equals_operator_fold(self, on, e, rows, comps, even, fit):
        amb = plane() if on == PLANE else hirzebruch(e) if on == HIRZEBRUCH else two_centres(e)

        def on_amb(row):
            return DivClass(amb, tuple(row[: amb.rank]))

        if even:  # D1 and D2 take the parity of D3
            rows = [[a + (a - c) % 2 for a, c in zip(row, rows[2])] for row in rows]
        ds = [on_amb(row) for row in rows]
        components = tuple(
            Component(f"c{i}", b, on_amb(row), n) for i, (b, n, row) in enumerate(comps)
        )
        if fit:  # a branch with components takes their sum as its class
            for i in range(3):
                entries = [c for c in components if c.branch == i + 1]
                if entries:
                    ds[i] = amb.zero()
                    for c in entries:
                        ds[i] = ds[i] + times(c.count, c.cls)
        d1, d2, d3 = ds
        assert outcome(building_data, amb, d1, d2, d3, components) == outcome(
            reference_building_data, amb, d1, d2, d3, components
        )
        # with every L_i = -K, each K + L_i is zero and the invariants hold
        # for any branch classes, so 2K + B is read on all of them
        k = reference_canonical(amb)
        minus_k = times(-1, k)
        bd = BuildingData(amb, d1, d2, d3, minus_k, minus_k, minus_k)
        inv = invariants(bd)
        pushed = inv.two_k_plus_b
        assert pushed == times(2, k) + d1 + d2 + d3
        assert inv.ksq == intersect(pushed, pushed)
        assert all(type(c) is int for c in pushed.coords)

    def test_refuses_foreign_classes_and_scalars(self):
        amb, other = hirzebruch(0), hirzebruch(1)
        d = amb.divisor(1, 0)
        with pytest.raises(InvalidBuildingData, match="branch class lives on a different ambient"):
            building_data(amb, d, other.divisor(1, 0), d)
        comps = (Component("a", 1, d, 2), Component("b", 2, other.divisor(0, 2)))
        with pytest.raises(InvalidBuildingData, match="component 'b' lives on a different ambient"):
            building_data(amb, amb.divisor(2, 0), amb.divisor(0, 2), amb.zero(), comps)
        for n in (2.0, "2", None):
            with pytest.raises(InvalidBuildingData, match="component count"):
                Component("a", 1, d, n)

    @pytest.mark.parametrize("bad", [(2, 2), [2, 2], None], ids=["tuple", "list", "None"])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_refuses_branches_that_are_not_classes(self, i, bad):
        amb = hirzebruch(0)
        # each other branch fails a later check: D1 is zero, D2 lives on
        # another ambient and D3 makes D2 + D3 odd
        ds = [amb.zero(), hirzebruch(1).divisor(2, 2), amb.divisor(1, 1)]
        ds[i - 1] = bad
        expected = (InvalidBuildingData, f"branch class D{i} must be a divisor class, got {bad!r}")
        assert outcome(building_data, amb, *ds) == expected
        assert outcome(reference_building_data, amb, *ds) == expected
        assert outcome(reference_line_bundles, amb, *ds) == expected
        # the first branch that is not a class is named
        ds[i % 3] = bad
        first = min(i, i % 3 + 1)
        assert outcome(building_data, amb, *ds)[1].startswith(f"branch class D{first} must")

    def test_equal_ambient_built_apart(self):
        amb, copy = two_centres(0), two_centres(0)
        assert amb == copy and amb is not copy
        d1, d2, d3 = copy.divisor(1, 1, -1, -1), amb.divisor(1, 3, -1, -1), copy.divisor(1, 1, -1, -1)
        comps = (Component("a", 1, d1), Component("b", 2, d2), Component("c", 3, copy.divisor(1, 1, -1, -1)))
        bd = building_data(amb, d1, d2, d3, comps)
        bundles = (bd.l1, bd.l2, bd.l3)
        assert [l.coords for l in bundles] == [(1, 2, -1, -1), (1, 1, -1, -1), (1, 2, -1, -1)]
        assert all(l.ambient is amb for l in bundles)
        inv = invariants(bd)
        assert inv.two_k_plus_b.ambient is amb
        assert inv == reference_invariants(bd)


class TestOneDefinition:
    """The form and h0's formula are defined once, in the coordinate kernels
    ``lattice._pairing`` and ``lattice._h0_coords``: a defect there moves
    the class-level functions and ``invariants`` alike."""

    # plane, F_e (e = 0 and 2) and blow-up data
    PAIRS = ((1, 2), (20, 7), (2, 4), (17, 5), (45, 10))

    @staticmethod
    def patch(monkeypatch, name, kernel):
        # cover binds the kernels by name, as it imports them
        monkeypatch.setattr(lattice, name, kernel)
        monkeypatch.setattr(cover, name, kernel)

    def test_form_kernel_moves_intersect_and_invariants(self, monkeypatch):
        bds = [construct(ksq, chi).data for ksq, chi in self.PAIRS]
        before = [invariants(bd) for bd in bds]
        pairings = [intersect(bd.d1, bd.d2) for bd in bds]
        self.patch(monkeypatch, "_pairing", lambda amb, u, v: 2 * _pairing(amb, u, v))
        assert [intersect(bd.d1, bd.d2) for bd in bds] == [2 * x for x in pairings]
        for bd, old in zip(bds, before):
            got = outcome(invariants, bd)
            assert got == outcome(reference_invariants, bd)
            assert got != old

    def test_h0_kernel_moves_h0_and_invariants(self, monkeypatch):
        bds = [construct(ksq, chi).data for ksq, chi in self.PAIRS]
        before = [invariants(bd) for bd in bds]
        flagged = [h0_flagged(bd.d1) for bd in bds]

        def plus_one(amb, u):
            value, flag = _h0_coords(amb, u)
            return value + 1, flag

        self.patch(monkeypatch, "_h0_coords", plus_one)
        assert [h0_flagged(bd.d1) for bd in bds] == [(v + 1, f) for v, f in flagged]
        assert [h0(bd.d1) for bd in bds] == [v + 1 for v, _ in flagged]
        for bd, old in zip(bds, before):
            inv = invariants(bd)
            assert inv == reference_invariants(bd)
            assert inv.pg == old.pg + 3

    def test_unsupported_adjoint_class_named_as_by_h0_flagged(self):
        # hand-built: K + L_i = (-1, -1, -2, 0) has an exceptional
        # coefficient outside {0, -1}, and L_i.(K + L_i) = -8 keeps chi's
        # parity, so the h0 of K + L_i is the first refusal
        amb = two_centres(0)
        d, l = amb.divisor(2, 2, -1, -1), amb.divisor(1, 1, -3, -1)
        bd = BuildingData(amb, d, d, d, l, l, l)
        adjoint = reference_canonical(amb) + l
        assert adjoint.coords == (-1, -1, -2, 0)
        got = outcome(invariants, bd)
        assert got[0] is UnsupportedClass
        assert got == outcome(h0_flagged, adjoint)

    def test_builds_one_class(self, monkeypatch):
        bds = [construct(ksq, chi).data for ksq, chi in self.PAIRS]
        assert {bd.ambient.kind for bd in bds} == {PLANE, HIRZEBRUCH, BLOWUP}
        built = []

        def counted(amb, coords):
            built.append(coords)
            return lattice._trusted(amb, coords)

        monkeypatch.setattr(cover, "_trusted", counted)
        for bd in bds:
            built.clear()
            inv = invariants(bd)
            assert built == [inv.two_k_plus_b.coords]


class TestSlottedValues:
    @staticmethod
    def values():
        bd = construct(17, 5).data
        amb = hirzebruch(0)
        return [
            bd.components[0],
            invariants(bd),
            LedgerEntry(QUARTER_POINT, 1, 2, witness_point="p"),
            LedgerEntry(NON_NORMAL_GLUING, 6, 2, witness_class=amb.divisor(1, 0)),
            bd,
            construct(17, 5).side_conditions[0],
        ]

    def test_no_instance_dict(self):
        for value in self.values():
            assert not hasattr(value, "__dict__"), type(value).__name__
            assert "__slots__" in type(value).__dict__

    def test_frozen(self):
        for value in self.values():
            name = dataclasses.fields(value)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, getattr(value, name))

    def test_equal_and_hashable(self):
        for value, again in zip(self.values(), self.values()):
            assert value == again and value is not again
            assert hash(value) == hash(again)
        bd = construct(17, 5).data
        parsed = BuildingData.from_doc(bd.to_doc())
        assert parsed == bd and hash(parsed) == hash(bd)
        assert parsed.ambient is not bd.ambient
