import functools
import random

import pytest

from bidouble.cover import (
    NON_NORMAL_GLUING,
    QUARTER_POINT,
    BuildingData,
    Component,
    CoverError,
    InvalidBuildingData,
    NotTriplePoint,
    ParityError,
    building_data,
    chi_oracle,
    derive_line_bundles,
    invariants,
    ksq_oracle,
    resolve_triple_point,
    resolve_triple_points,
    singularity_scan,
)
from bidouble.lattice import (
    PLANE,
    LatticeError,
    PointLabel,
    exceptional,
    hirzebruch,
    plane,
    pullback,
)
from bidouble.recipes import construct


def plane_cover(deg1, deg2, deg3):
    amb = plane()
    return building_data(amb, amb.divisor(deg1), amb.divisor(deg2), amb.divisor(deg3))


def f_cover(e, d1, d2, d3, components=(), incidence=(), allow_nonreduced=False):
    amb = hirzebruch(e)
    return building_data(
        amb,
        amb.divisor(*d1),
        amb.divisor(*d2),
        amb.divisor(*d3),
        components,
        incidence,
        allow_nonreduced,
    )


class TestDeriveLineBundles:
    def test_plane_line_two_cubics(self):
        amb = plane()
        l1, l2, l3 = derive_line_bundles(
            amb, amb.divisor(1), amb.divisor(3), amb.divisor(3)
        )
        assert (l1.coords, l2.coords, l3.coords) == ((3,), (2,), (2,))

    def test_product_shape(self):
        amb = hirzebruch(0)
        l1, l2, l3 = derive_line_bundles(
            amb, amb.divisor(6, 0), amb.divisor(0, 10), amb.divisor(0, 0)
        )
        assert l1.coords == (0, 5)
        assert l2.coords == (3, 0)
        assert l3.coords == (3, 5)

    def test_parity_rejected(self):
        amb = hirzebruch(0)
        with pytest.raises(ParityError):
            derive_line_bundles(amb, amb.divisor(1, 0), amb.divisor(1, 1), amb.divisor(0, 0))

    def test_zero_bundle_rejected(self):
        amb = hirzebruch(0)
        with pytest.raises(InvalidBuildingData):
            derive_line_bundles(amb, amb.divisor(1, 0), amb.divisor(1, 0), amb.divisor(-1, 0))


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

    def test_nonreduced_rejected_by_default(self):
        amb = hirzebruch(0)
        shared = amb.divisor(1, 0)
        comps = (
            Component("c", 1, shared),
            Component("c", 2, shared),
            Component("rest1", 1, amb.divisor(1, 0)),
            Component("rest2", 2, amb.divisor(1, 0)),
        )
        with pytest.raises(InvalidBuildingData):
            building_data(amb, amb.divisor(2, 0), amb.divisor(2, 0), amb.divisor(0, 2), comps)
        bd = building_data(
            amb, amb.divisor(2, 0), amb.divisor(2, 0), amb.divisor(0, 2), comps,
            allow_nonreduced=True,
        )
        assert not bd.reduced

    def test_ineffective_branch_rejected(self):
        amb = hirzebruch(1)
        with pytest.raises(InvalidBuildingData):
            building_data(amb, amb.divisor(2, -2), amb.divisor(2, 0), amb.divisor(0, 0))

    def test_unknown_component_in_point(self):
        amb = hirzebruch(0)
        with pytest.raises(InvalidBuildingData):
            building_data(
                amb,
                amb.divisor(1, 0),
                amb.divisor(1, 0),
                amb.divisor(1, 2),
                incidence=(PointLabel("p", frozenset({1, 2}), components=("ghost",)),),
            )


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
            PointLabel("p2", frozenset({1, 2, 3}), ("d1", "d2", "d3")),
            PointLabel("p1", frozenset({1, 2, 3}), ("d1", "d2", "d3")),
            PointLabel("q", frozenset({1, 2})),
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
            PointLabel("a", frozenset({1, 2, 3}), ("d1", "d2", "d3")),
            PointLabel("b", frozenset({1, 2, 3}), ("d1", "d2", "d3")),
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
        bd = building_data(
            amb, shared, shared, amb.divisor(3, 6), comps, allow_nonreduced=True
        )
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
        pts = (PointLabel("p", frozenset({1, 2, 3}), ("d1", "d2", "delta1")),)
        return building_data(
            amb, amb.divisor(1, 2), amb.divisor(1, 2 * chi), amb.divisor(3, 0), comps, pts
        )

    def test_invariant_steps(self):
        bd = self.marked_line5_data(3)
        before = invariants(bd)
        assert (before.ksq, before.chi) == (8, 3)
        after = invariants(resolve_triple_point(bd, "p"))
        assert (after.ksq, after.chi) == (7, 3)
        assert after.pg == before.pg and after.q == before.q

    def test_classes_pick_up_exceptional(self):
        bd = resolve_triple_point(self.marked_line5_data(3), "p")
        assert bd.d1.coords == (1, 2, -1)
        assert bd.d2.coords == (1, 6, -1)
        assert bd.d3.coords == (3, 0, -1)
        assert bd.component("delta1", 3).cls.coords == (1, 0, -1)
        assert bd.component("delta2", 3).cls.coords == (1, 0, 0)
        assert bd.incidence == ()
        assert len(bd.ambient.points) == 1

    def test_non_triple_point_rejected(self):
        amb = hirzebruch(0)
        comps = (
            Component("d1", 1, amb.divisor(1, 2)),
            Component("d2", 2, amb.divisor(1, 2)),
            Component("d3", 3, amb.divisor(1, 0)),
        )
        pts = (PointLabel("p", frozenset({1, 2}), ("d1", "d2")),)
        bd = building_data(amb, amb.divisor(1, 2), amb.divisor(1, 2), amb.divisor(1, 0), comps, pts)
        with pytest.raises(NotTriplePoint):
            resolve_triple_point(bd, "p")


class TestSerialization:
    def test_round_trip(self):
        bd = TestResolveTriplePoint.marked_line5_data(4)
        assert BuildingData.from_doc(bd.to_doc()) == bd

    def test_round_trip_after_resolution(self):
        bd = resolve_triple_point(TestResolveTriplePoint.marked_line5_data(4), "p")
        assert BuildingData.from_doc(bd.to_doc()) == bd

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["classes"]["d1"].__setitem__(0, True),
            lambda doc: doc["classes"]["d3"].__setitem__(0, 3.0),
            lambda doc: doc["components"][0]["class"].__setitem__(0, True),
            lambda doc: doc["components"][0].__setitem__("branch", True),
            lambda doc: doc["components"][0].__setitem__("count", True),
            lambda doc: doc["components"][2].__setitem__("count", 1.0),
            lambda doc: doc["incidence"][0].__setitem__("branches", [True, 2, 3]),
            lambda doc: doc["ambient"].__setitem__("e", False),
        ],
    )
    def test_non_integers_rejected(self, edit):
        doc = TestResolveTriplePoint.marked_line5_data(4).to_doc()
        edit(doc)
        with pytest.raises(LatticeError, match="must be an integer"):
            BuildingData.from_doc(doc)


def resolve_one_reference(bd, name):
    """One blow-up as a single literal step, re-validated from scratch: the
    reference that the all-at-once resolution is compared against."""
    p = bd.point(name)
    if not p.is_triple:
        raise NotTriplePoint(f"point {name!r} does not lie on all three branches")
    if bd.ambient.kind == PLANE:
        raise CoverError("triple point resolution is implemented on ruled models only")
    named = []
    for cname in p.components:
        c = bd.component(cname)
        if c.count != 1:
            raise CoverError(f"component {cname!r} is not a single copy")
        named.append(c)
    if {c.branch for c in named} != {1, 2, 3}:
        raise CoverError("one component per branch is required")
    amb = bd.ambient.blow_up(p)
    exc = exceptional(amb, -1)
    through = {c.name for c in named}

    def lift(d, passes):
        out = pullback(amb, d)
        return out - exc if passes else out

    comps = tuple(
        Component(c.name, c.branch, lift(c.cls, c.name in through), c.count)
        for c in bd.components
    )
    return building_data(
        amb,
        lift(bd.d1, True),
        lift(bd.d2, True),
        lift(bd.d3, True),
        comps,
        tuple(q for q in bd.incidence if q.name != name),
        allow_nonreduced=not bd.reduced,
    )


def fold_reference(bd, names):
    return functools.reduce(resolve_one_reference, names, bd)


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
        folded = fold_reference(pre, names)
        assert resolve_triple_points(pre, names) == folded == cert.data
        assert functools.reduce(resolve_triple_point, names, pre) == folded
        assert resolve_triple_points(pre, pre.incidence) == folded

    def test_epsilon_one_to_three_covered(self):
        eps = {(-ksq) % 4 for ksq, chi in RESOLVED_PAIRS if ksq != 4 * chi - 5}
        assert eps == {1, 2, 3}

    def test_no_points_is_identity(self):
        pre = construct(30, 6).pre_resolution
        assert resolve_triple_points(pre, []) is pre

    @staticmethod
    def with_incidence(*points):
        # (30, 6): Genus3 with epsilon 2 and alpha 8, so f_rest has 6 copies
        pre = construct(30, 6).pre_resolution
        return building_data(
            pre.ambient, pre.d1, pre.d2, pre.d3, pre.components, points
        )

    @staticmethod
    def raised(resolve, bd, names):
        with pytest.raises(CoverError) as info:
            resolve(bd, names)
        return type(info.value)

    P1 = PointLabel("p1", frozenset({1, 2, 3}), ("f1", "d2", "d3"))

    @pytest.mark.parametrize(
        "points,names,expected",
        [
            ((P1, PointLabel("p2", frozenset({2, 3}), ("d2", "d3"))), ["p1", "p2"], NotTriplePoint),
            ((P1, PointLabel("p2", frozenset({2, 3}), ("d2", "d3"))), ["p2", "p1"], NotTriplePoint),
            ((P1, PointLabel("p2", frozenset({1, 2, 3}), ("f_rest", "d2", "d3"))), ["p1", "p2"], CoverError),
            ((PointLabel("p2", frozenset({1, 2, 3}), ("f_rest", "d2", "d3")), P1), ["p2", "p1"], CoverError),
            ((P1, PointLabel("p2", frozenset({1, 2, 3}), ("f2", "d2"))), ["p1", "p2"], CoverError),
            ((P1,), ["p1", "p1"], InvalidBuildingData),
            ((P1,), ["p9"], InvalidBuildingData),
        ],
    )
    def test_same_error_as_fold(self, points, names, expected):
        bd = self.with_incidence(*points)
        assert self.raised(resolve_triple_points, bd, names) is expected
        assert self.raised(fold_reference, bd, names) is expected

    def test_plane_refused(self):
        amb = plane()
        comps = (
            Component("d1", 1, amb.divisor(1)),
            Component("d2", 2, amb.divisor(3)),
            Component("d3", 3, amb.divisor(3)),
        )
        pts = (PointLabel("p", frozenset({1, 2, 3}), ("d1", "d2", "d3")),)
        bd = building_data(amb, amb.divisor(1), amb.divisor(3), amb.divisor(3), comps, pts)
        assert self.raised(resolve_triple_points, bd, ["p"]) is CoverError
        assert self.raised(fold_reference, bd, ["p"]) is CoverError
