"""Region dispatch and construction certificates.

Frozen expectations below were computed by hand from the intersection
pairing and the h0 enumerations before the recipes existed.
"""

import enum
import json

import pytest

from bidouble.cover import Component, building_data, chi_oracle, ksq_oracle
from bidouble.degenerations import degenerate
from bidouble.geography import REGION_FILL
from bidouble.lattice import (
    AMPLE,
    BLOWUP,
    NEF_ONLY,
    NOT_NEF,
    PLANE,
    hirzebruch,
    intersect,
    plane,
    positivity,
)
from bidouble.recipes import (
    FAMILIES,
    FAMILY,
    GENUS2_GENERAL,
    GENUS3,
    LINE_4CHI_MINUS_4,
    LINE_4CHI_MINUS_5,
    NOETHER_LINE,
    NOT_ADMISSIBLE,
    NOT_COVERED,
    PAIR_3_2_NOTE,
    PLANE_SPECIAL_12,
    PLANE_SPECIAL_13,
    PRODUCT_LINE,
    RegionError,
    _smooth_stamp,
    admissible,
    certify,
    classify,
    construct,
    recipe,
)

COVERED_REGIONS = frozenset(FAMILY)
ALL_REGIONS = COVERED_REGIONS | {NOT_COVERED, NOT_ADMISSIBLE}


def reference_classify(ksq, chi):
    """The classification as an if-chain in the paper's precedence order."""
    if not admissible(ksq, chi):
        return NOT_ADMISSIBLE
    if ksq == 8 * chi:
        return PRODUCT_LINE
    if (ksq, chi) == (1, 2):
        return PLANE_SPECIAL_12
    if (ksq, chi) == (1, 3):
        return PLANE_SPECIAL_13
    if ksq == 2 * chi - 6:
        return NOETHER_LINE
    if ksq == 4 * chi - 5:
        return LINE_4CHI_MINUS_5
    if ksq == 4 * chi - 4:
        return LINE_4CHI_MINUS_4
    if 2 * chi - 5 <= ksq <= 4 * chi - 6:
        return GENUS2_GENERAL
    if 4 * chi - 3 <= ksq <= 8 * chi - 8:
        return GENUS3
    return NOT_COVERED


def covered_pairs(chi_max):
    for chi in range(1, chi_max + 1):
        for ksq in range(max(1, 2 * chi - 6), 8 * chi - 7):
            yield ksq, chi
        yield 8 * chi, chi


class TestFamilyTable:
    def test_table_walk_matches_reference_chain(self):
        mismatches = [
            (ksq, chi)
            for chi in range(1, 201)
            for ksq in range(-30, 9 * chi + 31)
            if classify(ksq, chi) != reference_classify(ksq, chi)
        ]
        assert mismatches == []

    def test_loci_overlap_only_at_the_plane_pairs(self):
        for chi in range(1, 61):
            for ksq in range(max(1, 2 * chi - 6), 9 * chi + 1):
                holding = {f.name for f in FAMILIES if f.locus(ksq, chi)}
                if (ksq, chi) in ((1, 2), (1, 3)):
                    assert GENUS2_GENERAL in holding and len(holding) == 2
                else:
                    assert len(holding) <= 1, (ksq, chi, holding)

    def test_region_sets_derive_from_the_table(self):
        assert len(FAMILY) == len(FAMILIES) == 8
        assert set(REGION_FILL) == set(FAMILY) | {NOT_COVERED}

    def test_only_the_product_line_has_no_degeneration(self):
        assert [f.name for f in FAMILIES if f.degeneration is None] == [PRODUCT_LINE]


class TestClassify:
    @pytest.mark.parametrize(
        "ksq, chi, region",
        [
            (8, 1, PRODUCT_LINE),
            (16, 2, PRODUCT_LINE),
            (10, 1, NOT_ADMISSIBLE),
            (0, 5, NOT_ADMISSIBLE),
            (-3, 2, NOT_ADMISSIBLE),
            (5, 0, NOT_ADMISSIBLE),
            (9, 1, NOT_COVERED),
            (1, 1, NOT_COVERED),
            (7, 1, NOT_COVERED),
            (17, 2, NOT_COVERED),
            (1, 2, PLANE_SPECIAL_12),
            (1, 3, PLANE_SPECIAL_13),
            (2, 4, NOETHER_LINE),
            (4, 5, NOETHER_LINE),
            (114, 60, NOETHER_LINE),
            (7, 3, LINE_4CHI_MINUS_5),
            (15, 5, LINE_4CHI_MINUS_5),
            (8, 3, LINE_4CHI_MINUS_4),
            (4, 2, LINE_4CHI_MINUS_4),
            (2, 2, GENUS2_GENERAL),
            (20, 7, GENUS2_GENERAL),
            (3, 4, GENUS2_GENERAL),
            (1, 4, NOT_ADMISSIBLE),
            (5, 2, GENUS3),
            (8, 2, GENUS3),
            (17, 5, GENUS3),
            (32, 5, GENUS3),
        ],
    )
    def test_frozen_pairs(self, ksq, chi, region):
        assert classify(ksq, chi) == region

    def test_plane_specials_win_over_genus2(self):
        # both pairs satisfy the genus-2 strip inequalities
        assert 2 * 2 - 5 <= 1 <= 4 * 2 - 6
        assert 2 * 3 - 5 <= 1 <= 4 * 3 - 6
        assert classify(1, 2) == PLANE_SPECIAL_12
        assert classify(1, 3) == PLANE_SPECIAL_13

    def test_total_and_exclusive(self):
        for chi in range(1, 13):
            for ksq in range(-10, 9 * chi + 5):
                region = classify(ksq, chi)
                assert region in ALL_REGIONS
                assert (region == NOT_ADMISSIBLE) == (not admissible(ksq, chi))
                if region == PRODUCT_LINE:
                    assert ksq == 8 * chi

    def test_every_admissible_pair_below_product_is_covered(self):
        for chi in range(1, 13):
            for ksq in range(max(1, 2 * chi - 6), 8 * chi - 7):
                assert classify(ksq, chi) in COVERED_REGIONS


class TestParameters:
    def test_genus2_frozen(self):
        assert FAMILY[GENUS2_GENERAL].parameters(20, 7) == {
            "alpha": 0,
            "beta": 12,
            "gamma": 2,
            "e": 0,
        }

    def test_noether_frozen(self):
        assert FAMILY[NOETHER_LINE].parameters(2, 4) == {
            "alpha": 0,
            "beta": 2,
            "gamma": 8,
            "e": 2,
        }
        assert FAMILY[NOETHER_LINE].parameters(4, 5) == {
            "alpha": 0,
            "beta": 0,
            "gamma": 6,
            "e": 0,
        }

    def test_genus3_frozen(self):
        assert FAMILY[GENUS3].parameters(17, 5) == {
            "alpha": 5,
            "beta": 3,
            "gamma": 1,
            "epsilon": 3,
        }
        assert FAMILY[GENUS3].parameters(16, 4) == {
            "alpha": 4,
            "beta": 4,
            "gamma": 0,
            "epsilon": 0,
        }

    def test_genus2_display_identities(self):
        # the tables must reproduce the requested pair through the display
        # formulas chi = (alpha+beta)/2 + gamma - 2e - 1 and
        # K^2 = 2(alpha+beta+gamma) - 5e - 8
        for chi in range(2, 30):
            for ksq in range(max(1, 2 * chi - 5), 4 * chi - 5):
                p = FAMILY[GENUS2_GENERAL].parameters(ksq, chi)
                a, b, g, e = p["alpha"], p["beta"], p["gamma"], p["e"]
                assert (a + b) % 2 == 0
                assert a + b + 2 * g - 4 * e - 2 == 2 * chi
                assert 2 * (a + b + g) - 5 * e - 8 == ksq
                assert b >= 0 and g > 0

    def test_genus3_display_identities(self):
        for chi in range(2, 30):
            for ksq in range(4 * chi - 3, 8 * chi - 7):
                p = FAMILY[GENUS3].parameters(ksq, chi)
                a, b, g, eps = p["alpha"], p["beta"], p["gamma"], p["epsilon"]
                assert eps == (-ksq) % 4
                assert a + 2 * b + 3 * g - 4 == 2 * chi
                assert 4 * (a + b + g) - 16 == ksq + eps
                assert a >= 4 and b >= 0


class TestConstructFrozen:
    def test_genus2_20_7(self):
        cert = construct(20, 7)
        assert cert.region == GENUS2_GENERAL
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (20, 7, 6, 0)
        assert not inv.pg_estimated
        assert cert.ampleness == AMPLE
        assert cert.fibration_genus == 2
        assert cert.epsilon == 12
        assert cert.pre_resolution is None
        assert cert.ok
        by_name = {c.name: c for c in cert.side_conditions}
        assert by_name["h0(D3)"].value == 12
        assert by_name["h0(D3)"].satisfied
        assert by_name["D1.D2"].value == 12

    def test_genus3_17_5(self):
        cert = construct(17, 5)
        assert cert.region == GENUS3
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (17, 5, 4, 0)
        assert cert.ampleness == AMPLE
        assert cert.fibration_genus == 3
        assert cert.epsilon == 3
        assert cert.pre_resolution is not None
        from bidouble.cover import invariants as cover_invariants

        pre = cover_invariants(cert.pre_resolution)
        assert (pre.ksq, pre.chi) == (20, 5)
        assert len(cert.data.ambient.points) == 3
        assert cert.ok

    def test_plane_special_12(self):
        cert = construct(1, 2)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (1, 2, 1, 0)
        assert cert.ampleness == AMPLE
        assert cert.fibration_genus is None
        assert [list(c.coords) for c in cert.data.branches()] == [[1], [3], [3]]
        assert cert.ok

    def test_plane_special_13(self):
        cert = construct(1, 3)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (1, 3, 2, 0)
        assert cert.ampleness == AMPLE
        assert [list(c.coords) for c in cert.data.branches()] == [[1], [1], [5]]
        assert cert.ok

    def test_noether_2_4_boundary(self):
        cert = construct(2, 4)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (2, 4, 3, 0)
        assert cert.ampleness == NEF_ONLY
        assert cert.ok
        assert any("(2,4)" in n for n in cert.notes)

    def test_noether_4_5(self):
        cert = construct(4, 5)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (4, 5, 4, 0)
        assert cert.ampleness == AMPLE
        assert cert.data.ambient.e == 0
        assert cert.notes == ()

    def test_line5_7_3(self):
        # the Genus3 recipe below its foot: alpha = 2 fibers, one of them
        # through the marked point p1 of D2 = 2D0+4F and D3 = 4D0
        cert = construct(7, 3)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (7, 3, 2, 0)
        assert cert.parameters == {"alpha": 2, "beta": 4, "gamma": 0, "epsilon": 1}
        assert cert.ampleness == AMPLE
        assert cert.notes == ()
        assert (cert.fibration_genus, cert.epsilon) == (3, 1)
        assert cert.pre_resolution is not None
        from bidouble.cover import invariants as cover_invariants

        pre = cover_invariants(cert.pre_resolution)
        assert (pre.ksq, pre.chi) == (8, 3)
        assert [p.name for p in cert.data.ambient.points] == ["p1"]
        by_name = {c.name: c for c in cert.side_conditions}
        assert (by_name["alpha"].value, by_name["alpha"].satisfied) == (2, True)
        assert cert.ok

    def test_line4_8_3(self):
        cert = construct(8, 3)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (8, 3, 2, 0)
        assert cert.parameters == {"alpha": 2, "beta": 4, "gamma": 0, "epsilon": 0}
        assert cert.ampleness == AMPLE
        assert (cert.fibration_genus, cert.epsilon) == (3, 0)
        assert cert.pre_resolution is None
        assert [c.name for c in cert.data.components] == ["f_rest", "d2", "d3"]
        assert cert.ok

    def test_line5_3_2_nef_only(self):
        # on F_0 blown up at p1, 2K + B = 2D0 + F - E1 pairs to zero
        # against the strict transform D0 - E1 of the ruling through p1
        cert = construct(3, 2)
        assert cert.invariants.two_k_plus_b.coords == (2, 1, -1)
        assert intersect(cert.invariants.two_k_plus_b, cert.data.ambient.divisor(1, 0, -1)) == 0
        assert cert.ampleness == NEF_ONLY
        assert cert.notes == (PAIR_3_2_NOTE,)
        assert cert.ok

    def test_product_24_3(self):
        cert = construct(24, 3)
        inv = cert.invariants
        assert (inv.ksq, inv.chi, inv.pg, inv.q) == (24, 3, 8, 6)
        assert cert.ampleness == AMPLE
        assert cert.fibration_genus is None
        assert cert.data.d3.is_zero()
        assert cert.ok


class Chi(enum.IntEnum):
    SEVEN = 7


class TestConstructErrors:
    def test_not_admissible_raises(self):
        with pytest.raises(RegionError, match="not admissible"):
            construct(10, 1)
        with pytest.raises(RegionError, match="not admissible"):
            construct(0, 5)

    def test_not_covered_raises_and_names_gap(self):
        with pytest.raises(RegionError, match="not covered"):
            construct(9, 1)
        with pytest.raises(RegionError, match="8chi-8 < K\\^2 < 9chi"):
            construct(23, 3)

    @pytest.mark.parametrize(
        "ksq, chi", [(True, 2), (20, True), (20.0, 5), (2, 4.0), (20, Chi.SEVEN)]
    )
    def test_non_integer_pair_refused(self, ksq, chi):
        # classify stays total and places each like the integer pair it
        # equals; construction refuses it before any recipe runs
        assert classify(ksq, chi) == classify(int(ksq), int(chi))
        for build in (construct, recipe):
            with pytest.raises(RegionError, match="must be two integers") as err:
                build(ksq, chi)
            assert f"({ksq!r}, {chi!r})" in str(err.value)


class TestSweep:
    def test_small_sweep_exact(self):
        for ksq, chi in covered_pairs(10):
            cert = construct(ksq, chi)
            inv = cert.invariants
            assert cert.ok, (ksq, chi, cert.side_conditions)
            assert (inv.ksq, inv.chi) == (ksq, chi)
            assert not inv.pg_estimated
            assert inv.ksq == ksq_oracle(cert.data)
            assert inv.chi == chi_oracle(cert.data)
            if cert.region == PRODUCT_LINE:
                assert (inv.pg, inv.q) == (2 * chi + 2, chi + 3)
            else:
                assert inv.q == 0

    def test_resolution_drops_one_per_point(self):
        from bidouble.cover import invariants as cover_invariants

        for ksq, chi in covered_pairs(10):
            cert = construct(ksq, chi)
            if cert.pre_resolution is None:
                continue
            pre = cover_invariants(cert.pre_resolution)
            n = len(cert.data.ambient.points)
            assert pre.ksq - n == cert.invariants.ksq
            assert pre.chi == cert.invariants.chi

    def test_horikawa_pairing_on_genus2_fibrations(self):
        for ksq, chi in covered_pairs(10):
            cert = construct(ksq, chi)
            if cert.fibration_genus != 2:
                continue
            assert intersect(cert.data.d1, cert.data.d2) == ksq - (2 * chi - 6)
            assert cert.epsilon == ksq - (2 * chi - 6)

    def test_h0_d3_identity_on_genus2_general(self):
        from bidouble.lattice import h0

        for ksq, chi in covered_pairs(12):
            cert = construct(ksq, chi)
            if cert.region != GENUS2_GENERAL:
                continue
            val = h0(cert.data.d3)
            assert val == 8 * chi - 4 - 2 * ksq
            assert val >= 8

    def test_ampleness_exceptions_are_exactly_two_families(self):
        for ksq, chi in covered_pairs(10):
            cert = construct(ksq, chi)
            if (ksq, chi) in ((2, 4), (3, 2)):
                assert cert.ampleness == NEF_ONLY, (ksq, chi)
                assert cert.notes == (FAMILY[cert.region].nef_only_note,)
                assert isinstance(cert.notes[0], str)
            else:
                assert cert.ampleness == AMPLE, (ksq, chi)
                assert cert.notes == (), (ksq, chi)

    def test_every_ambient_has_exact_positivity(self):
        # positivity is exact, and defined, only on the plane, on F_e and on
        # F_0 blown up at up to three centres, so every ambient that a
        # recipe, a resolution or a degeneration builds must be one of these
        for ksq, chi in covered_pairs(12):
            cert = construct(ksq, chi)
            built = [cert.data, cert.pre_resolution]
            classes = [cert.invariants.two_k_plus_b]
            if FAMILY[cert.region].degeneration is not None:
                dc = degenerate(cert)
                built.append(dc.data)
                classes.append(dc.invariants.two_k_plus_b)
            for bd in filter(None, built):
                amb = bd.ambient
                supported = amb.kind != BLOWUP or (amb.e == 0 and len(amb.points) <= 3)
                assert supported, (ksq, chi, amb)
            for d in classes:
                assert positivity(d) in (AMPLE, NEF_ONLY, NOT_NEF), (ksq, chi)


# the fibration genus of each region's certificates, as the family table
# once declared it by hand
FIBRATION_GENUS = {
    PLANE_SPECIAL_12: None,
    PLANE_SPECIAL_13: None,
    GENUS3: 3,
    GENUS2_GENERAL: 2,
    NOETHER_LINE: 2,
    LINE_4CHI_MINUS_5: 3,
    LINE_4CHI_MINUS_4: 3,
    PRODUCT_LINE: None,
}


def reference_stamp(d, fibers):
    """The smoothness stamp with nefness written out on coordinates: degree
    >= 0 on the plane, and a >= 0 and b >= e a for aD0 + bF on F_e."""
    if d.is_zero():
        return ("empty branch", True)
    amb = d.ambient
    if amb.kind == PLANE:
        return ("basepoint-free class", d.coords[0] >= 0)
    a, b = d.coords
    if fibers:
        return ("distinct ruling fibers", True)
    if (a, b) == (1, 0) and amb.e > 0:
        return ("negative section", True)
    return ("basepoint-free class", a >= 0 and b >= amb.e * a)


class TestSmoothStamp:
    def test_equals_the_coordinate_rule(self):
        # the plane has no ruling, so no branch there is made of fibers
        for n in range(-2, 13):
            d = plane().divisor(n)
            assert _smooth_stamp(d, False) == reference_stamp(d, False), d
        for e in range(4):
            amb = hirzebruch(e)
            for a in range(-2, 9):
                for b in range(-2, 25):
                    d = amb.divisor(a, b)
                    for fibers in (False, True):
                        assert _smooth_stamp(d, fibers) == reference_stamp(d, fibers), (e, d)


class TestFibration:
    def test_genus_and_epsilon_on_every_pair_to_chi_60(self):
        seen = dict.fromkeys(FIBRATION_GENUS, 0)
        for ksq, chi in covered_pairs(60):
            cert = construct(ksq, chi)
            genus = FIBRATION_GENUS[cert.region]
            assert cert.fibration_genus == genus, (ksq, chi)
            if genus == 2:
                assert cert.epsilon == ksq - (2 * chi - 6), (ksq, chi)
            elif genus == 3:
                assert cert.epsilon == cert.parameters["epsilon"], (ksq, chi)
            else:
                assert cert.epsilon is None, (ksq, chi)
            seen[cert.region] += 1
        assert sum(seen.values()) == 10971
        assert seen[PRODUCT_LINE] == 60
        assert seen[PLANE_SPECIAL_12] == seen[PLANE_SPECIAL_13] == 1

    def test_no_fibration_when_a_bundle_misses_the_ruling(self):
        # D1 = 6D0+6F, four fibers in D2 and D3 = 0 on F_1: L1 = 2F meets
        # the ruling F in 0 points, so the cover of a fiber is two genus-2
        # curves, not one curve of genus D1.F + D2.F + D3.F - 3 = 3
        amb = hirzebruch(1)
        d1, d2 = amb.divisor(6, 6), amb.divisor(0, 4)
        comps = (Component("d1", 1, d1), Component("f", 2, amb.divisor(0, 1), count=4))
        data = building_data(amb, d1, d2, amb.zero(), comps)
        assert data.l1.coords[0] == 0
        cert = certify(12, 6, FAMILY[PRODUCT_LINE], {}, data, None)
        assert cert.ok
        assert cert.fibration_genus is None and cert.epsilon is None
        assert cert.to_doc()["fibration"] is None


class TestCertificateDoc:
    def test_doc_round_trip_fields(self):
        cert = construct(17, 5)
        doc = cert.to_doc()
        assert doc["kind"] == "construction"
        assert doc["requested"] == {"ksq": 17, "chi": 5}
        assert doc["region"] == GENUS3
        assert doc["fibration"] == {"genus": 3, "epsilon": 3}
        assert doc["parameters"] == {"alpha": 5, "beta": 3, "epsilon": 3, "gamma": 1}
        assert doc["invariants"]["pgEstimated"] is False
        assert doc["ok"] is True
        json.dumps(doc)

    def test_doc_pre_resolution_presence(self):
        assert construct(8, 3).to_doc()["preResolution"] is None
        assert construct(7, 3).to_doc()["preResolution"] is not None

    def test_data_doc_reimports(self):
        from bidouble.cover import BuildingData, invariants as cover_invariants

        for pair in [(20, 7), (7, 3), (17, 5), (24, 3), (2, 4)]:
            cert = construct(*pair)
            clone = BuildingData.from_doc(cert.data.to_doc())
            assert clone == cert.data
            assert cover_invariants(clone) == cert.invariants
