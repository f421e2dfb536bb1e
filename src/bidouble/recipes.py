"""Region classification of the (K^2, chi) plane and construction recipes.

Admissible pairs satisfy chi >= 1, K^2 >= 1 and 2chi-6 <= K^2 <= 9chi.
Covered pairs are dispatched to one family each, in this precedence order:

    ProductLine        K^2 = 8chi
    PlaneSpecial12     (1, 2)
    PlaneSpecial13     (1, 3)
    NoetherLine        K^2 = 2chi - 6
    Line4chiMinus5     K^2 = 4chi - 5
    Line4chiMinus4     K^2 = 4chi - 4
    Genus2General      2chi - 5 <= K^2 <= 4chi - 6
    Genus3             4chi - 3 <= K^2 <= 8chi - 8

Everything else admissible is NotCovered (the strip 8chi-8 < K^2 < 9chi
minus the product line).  ``construct`` builds the branch data, and
``certify`` derives the rest of the certificate from it: recomputed
invariants, side conditions with values, the positivity verdict of the
direct image of 2K, and the fibration genus where one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cover import (
    BuildingData,
    Component,
    building_data,
    invariants,
    resolve_triple_points,
)
from .cover import Invariants
from .lattice import (
    BLOWUP,
    NEF_ONLY,
    PLANE,
    Ambient,
    DivClass,
    PointLabel,
    canonical_class,
    h0,
    hirzebruch,
    intersect,
    lincomb,
    plane,
    positivity,
)

NOETHER_LINE = "NoetherLine"
PLANE_SPECIAL_12 = "PlaneSpecial12"
PLANE_SPECIAL_13 = "PlaneSpecial13"
GENUS2_GENERAL = "Genus2General"
LINE_4CHI_MINUS_5 = "Line4chiMinus5"
LINE_4CHI_MINUS_4 = "Line4chiMinus4"
GENUS3 = "Genus3"
PRODUCT_LINE = "ProductLine"
NOT_COVERED = "NotCovered"
NOT_ADMISSIBLE = "NotAdmissible"

COVERED_REGIONS = frozenset(
    {
        NOETHER_LINE,
        PLANE_SPECIAL_12,
        PLANE_SPECIAL_13,
        GENUS2_GENERAL,
        LINE_4CHI_MINUS_5,
        LINE_4CHI_MINUS_4,
        GENUS3,
        PRODUCT_LINE,
    }
)


class RegionError(ValueError):
    pass


def admissible(ksq: int, chi: int) -> bool:
    """Numerical admissibility: chi >= 1, K^2 >= 1, 2chi-6 <= K^2 <= 9chi."""
    return chi >= 1 and ksq >= 1 and 2 * chi - 6 <= ksq <= 9 * chi


def classify(ksq: int, chi: int) -> str:
    """Total classification of an integer pair into exactly one region tag."""
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


@dataclass(frozen=True)
class SideCondition:
    name: str
    value: int | bool | str
    satisfied: bool

    def to_doc(self) -> dict:
        return {"name": self.name, "value": self.value, "satisfied": self.satisfied}


@dataclass(frozen=True)
class ConstructionCertificate:
    requested_ksq: int
    requested_chi: int
    region: str
    data: BuildingData
    pre_resolution: BuildingData | None
    invariants: Invariants
    side_conditions: tuple[SideCondition, ...]
    ampleness: str
    fibration_genus: int | None
    epsilon: int | None
    parameters: dict[str, int]
    notes: tuple[str, ...]
    ok: bool

    def to_doc(self) -> dict:
        return {
            "kind": "construction",
            "data": self.data.to_doc(),
            "preResolution": None
            if self.pre_resolution is None
            else self.pre_resolution.to_doc(),
            **self.derived_doc(),
        }

    def derived_doc(self) -> dict:
        """Every field of the document but the kind and the building-data
        blocks ``data`` and ``preResolution``."""
        return {
            "requested": {"ksq": self.requested_ksq, "chi": self.requested_chi},
            "region": self.region,
            "invariants": self.invariants.to_doc(),
            "sideConditions": [c.to_doc() for c in self.side_conditions],
            "ampleness": self.ampleness,
            "fibration": None
            if self.fibration_genus is None
            else {"genus": self.fibration_genus, "epsilon": self.epsilon},
            "parameters": dict(sorted(self.parameters.items())),
            "notes": list(self.notes),
            "ok": self.ok,
        }


def region_parameters(region: str, ksq: int, chi: int) -> dict[str, int]:
    """The discrete parameters each recipe is built from; deterministic."""
    if region == NOETHER_LINE:
        if chi % 2 == 0:
            return {"alpha": 0, "beta": 2, "gamma": chi + 4, "e": 2}
        return {"alpha": 0, "beta": 0, "gamma": chi + 1, "e": 0}
    if region == GENUS2_GENERAL:
        r = ksq % 4
        if r == 0:
            return {"alpha": 0, "beta": ksq - 2 * chi + 6, "gamma": 2 * chi - 2 - ksq // 2, "e": 0}
        if r == 2:
            return {"alpha": 1, "beta": ksq - 2 * chi + 5, "gamma": 2 * chi - 2 - ksq // 2, "e": 0}
        if r == 3:
            return {"alpha": 0, "beta": ksq - 2 * chi + 7, "gamma": 2 * chi - (ksq + 1) // 2, "e": 1}
        return {"alpha": 1, "beta": ksq - 2 * chi + 6, "gamma": 2 * chi - (ksq + 1) // 2, "e": 1}
    if region == GENUS3:
        eps = (-ksq) % 4
        t = ksq + eps
        if t % 8 == 0:
            return {"alpha": t // 2 - 2 * chi + 4, "beta": 2 * chi - t // 4, "gamma": 0, "epsilon": eps}
        return {"alpha": t // 2 - 2 * chi + 5, "beta": 2 * chi - t // 4 - 2, "gamma": 1, "epsilon": eps}
    if region in (LINE_4CHI_MINUS_5, LINE_4CHI_MINUS_4, PRODUCT_LINE):
        return {"chi": chi}
    return {}


def _genus2_family_data(params: dict[str, int]) -> BuildingData:
    # branch classes D0+alpha F, D0+beta F, 3D0+gamma F on F_e
    amb = hirzebruch(params["e"])
    d1 = amb.divisor(1, params["alpha"])
    d2 = amb.divisor(1, params["beta"])
    d3 = amb.divisor(3, params["gamma"])
    comps = (
        Component("d1", 1, d1),
        Component("d2", 2, d2),
        Component("d3", 3, d3),
    )
    return building_data(amb, d1, d2, d3, comps)


def _plane_data(region: str) -> BuildingData:
    amb = plane()
    if region == PLANE_SPECIAL_12:
        d1, d2, d3 = amb.divisor(1), amb.divisor(3), amb.divisor(3)
    else:
        d1, d2, d3 = amb.divisor(1), amb.divisor(1), amb.divisor(5)
    comps = (
        Component("d1", 1, d1),
        Component("d2", 2, d2),
        Component("d3", 3, d3),
    )
    return building_data(amb, d1, d2, d3, comps)


def _ruling_triple_data(chi: int, marked: bool) -> BuildingData:
    # D1 = D0+2F, D2 = D0+2chi F, D3 = three members of |D0| on F_0; when
    # marked, the first member passes through a point of D1 and D2
    amb = hirzebruch(0)
    d1 = amb.divisor(1, 2)
    d2 = amb.divisor(1, 2 * chi)
    d3 = amb.divisor(3, 0)
    fiber = amb.divisor(1, 0)
    comps = (
        Component("d1", 1, d1),
        Component("d2", 2, d2),
        Component("delta1", 3, fiber),
        Component("delta2", 3, fiber),
        Component("delta3", 3, fiber),
    )
    incidence = ()
    if marked:
        incidence = (PointLabel("p", frozenset({1, 2, 3}), ("d1", "d2", "delta1")),)
    return building_data(amb, d1, d2, d3, comps, incidence)


def _genus3_data(params: dict[str, int]) -> BuildingData:
    # D1 = alpha ruling fibers, D2 in |2D0+beta F|, D3 in |4D0+gamma F| on
    # F_0; epsilon of the fibers pass through marked points of D2 and D3,
    # pairwise distinct and never two on one fiber (recorded assumption)
    alpha, beta, gamma, eps = (
        params["alpha"],
        params["beta"],
        params["gamma"],
        params["epsilon"],
    )
    amb = hirzebruch(0)
    fiber = amb.divisor(0, 1)
    d1 = amb.divisor(0, alpha)
    d2 = amb.divisor(2, beta)
    d3 = amb.divisor(4, gamma)
    comps: list[Component] = [
        Component(f"f{i}", 1, fiber) for i in range(1, eps + 1)
    ]
    if alpha > eps:
        comps.append(Component("f_rest", 1, fiber, count=alpha - eps))
    comps.append(Component("d2", 2, d2))
    comps.append(Component("d3", 3, d3))
    incidence = tuple(
        PointLabel(f"p{i}", frozenset({1, 2, 3}), (f"f{i}", "d2", "d3"))
        for i in range(1, eps + 1)
    )
    return building_data(amb, d1, d2, d3, tuple(comps), incidence)


def _product_data(chi: int) -> BuildingData:
    # 6 rulings in one direction, 2chi+4 in the other, empty third branch
    amb = hirzebruch(0)
    d1 = amb.divisor(6, 0)
    d2 = amb.divisor(0, 2 * chi + 4)
    comps = (
        Component("d1_rulings", 1, amb.divisor(1, 0), count=6),
        Component("d2_fibers", 2, amb.divisor(0, 1), count=2 * chi + 4),
    )
    return building_data(amb, d1, d2, amb.zero(), comps)


def _smooth_stamp(bd: BuildingData, branch: int) -> tuple[str, bool]:
    """Why the general member of a branch is smooth; recorded, not proved.

    Accepted shapes: the zero class, a disjoint union of distinct ruling
    fibers, the rigid negative section D0 itself, or a basepoint-free class.
    On a blow-up the test is applied to the class before blowing up, since
    the centres are ordinary triple points of the total branch.
    """
    amb = bd.ambient
    d = bd.branch(branch)
    if d.is_zero():
        return ("empty branch", True)
    if amb.kind == PLANE:
        return ("basepoint-free class", d.coords[0] >= 0)
    prefix = "strict transform of " if amb.kind == BLOWUP else ""
    a, b = d.coords[0], d.coords[1]
    ruling = {(0, 1), (1, 0)} if amb.e == 0 else {(0, 1)}
    entries = [c for c in bd.components if c.branch == branch]
    if entries and all(c.cls.coords[:2] in ruling for c in entries):
        return (prefix + "distinct ruling fibers", True)
    if (a, b) == (1, 0) and amb.e > 0:
        return (prefix + "negative section", True)
    return (prefix + "basepoint-free class", a >= 0 and b >= amb.e * a)


def _stamps(bd: BuildingData) -> list[SideCondition]:
    out = []
    for i in (1, 2, 3):
        reason, ok = _smooth_stamp(bd, i)
        out.append(SideCondition(f"smoothGeneralMemberD{i}", reason, ok))
    return out


def evaluate_side_conditions(
    region: str,
    params: dict[str, int],
    data: BuildingData,
    pre: BuildingData | None,
    ksq: int,
    chi: int,
) -> tuple[SideCondition, ...]:
    """Recompute every recorded side condition from the stored data.

    Shared by construct and by certificate verification, so a tampered
    value cannot survive a re-derivation.
    """
    base = pre if pre is not None else data
    conds: list[SideCondition] = _stamps(base)
    if region == GENUS2_GENERAL:
        d12 = intersect(base.d1, base.d2)
        d13 = intersect(base.d1, base.d3)
        d23 = intersect(base.d2, base.d3)
        h0d3 = h0(base.ambient, base.d3)
        conds += [
            SideCondition("D1.D2", d12, d12 > 0),
            SideCondition("D1.D3", d13, d13 > 0),
            SideCondition("D2.D3", d23, d23 > 0),
            SideCondition("h0(D3)", h0d3, h0d3 == 8 * chi - 4 - 2 * ksq and h0d3 >= 8),
        ]
    elif region == LINE_4CHI_MINUS_5:
        cand = intersect(base.d1, base.d2)
        marked = sum(1 for p in base.incidence if p.is_triple)
        conds += [
            SideCondition("triplePointCandidates", cand, cand >= 1),
            SideCondition("markedTriplePoints", marked, marked == 1),
        ]
    elif region == GENUS3:
        alpha = params.get("alpha", 0)
        eps = params.get("epsilon", 0)
        d23 = intersect(base.d2, base.d3)
        conds += [
            SideCondition("alpha", alpha, alpha >= 4),
            SideCondition("D2.D3", d23, d23 >= 6),
            SideCondition("markedTriplePoints", eps, eps <= d23),
        ]
    return tuple(conds)


def _push_2k(data: BuildingData) -> DivClass:
    # class on the base whose pullback is 2K of the cover
    amb = data.ambient
    return lincomb(amb, ((2, canonical_class(amb)), (1, data.d1), (1, data.d2), (1, data.d3)))


LINE5_AMPLENESS_NOTE = (
    "canonical ampleness not certified: the direct image of 2K pairs to zero "
    "against the ruling strict transform q*F-E, so the verdict is NefOnly "
    "(nef and big, since its self-intersection is positive); no implemented "
    "sufficient test promotes it to Ample"
)

PAIR_2_4_NOTE = (
    "pair (2,4): recipe applied and verified numerically although the direct "
    "image of 2K sits on the nef-cone boundary of F_2, so the ampleness "
    "verdict is NefOnly rather than Ample"
)


def _covered_region(ksq: int, chi: int) -> str:
    region = classify(ksq, chi)
    if region == NOT_ADMISSIBLE:
        raise RegionError(
            f"pair (K^2, chi) = ({ksq}, {chi}) is not admissible: "
            "requires chi >= 1, K^2 >= 1 and 2chi-6 <= K^2 <= 9chi"
        )
    if region == NOT_COVERED:
        raise RegionError(
            f"pair (K^2, chi) = ({ksq}, {chi}) is not covered: it lies in the "
            f"open strip 8chi-8 < K^2 < 9chi off the product line K^2 = 8chi"
        )
    return region


def _recipe_data(
    region: str, params: dict[str, int], chi: int
) -> tuple[BuildingData, BuildingData | None]:
    """The recipe's building data, and the data before its triple points
    were resolved (None when there were none)."""
    if region in (NOETHER_LINE, GENUS2_GENERAL):
        return _genus2_family_data(params), None
    if region in (PLANE_SPECIAL_12, PLANE_SPECIAL_13):
        return _plane_data(region), None
    if region == LINE_4CHI_MINUS_4:
        return _ruling_triple_data(chi, marked=False), None
    if region == LINE_4CHI_MINUS_5:
        pre = _ruling_triple_data(chi, marked=True)
        return resolve_triple_points(pre, ("p",)), pre
    if region == GENUS3:
        pre = _genus3_data(params)
        if params["epsilon"] == 0:
            return pre, None
        return resolve_triple_points(pre, [f"p{i}" for i in range(1, params["epsilon"] + 1)]), pre
    return _product_data(chi), None


def certify(
    ksq: int, chi: int, data: BuildingData, pre: BuildingData | None
) -> ConstructionCertificate:
    """Derive every other field of a certificate from its building data.

    ``pre`` is the data before resolution, when the recipe resolves triple
    points.  Shared by construct and by certificate verification, so a
    stored field cannot drift from the derivation.  Raises RegionError
    outside the covered set.
    """
    region = _covered_region(ksq, chi)
    return _certified(ksq, chi, region, region_parameters(region, ksq, chi), data, pre)


def _certified(
    ksq: int,
    chi: int,
    region: str,
    params: dict[str, int],
    data: BuildingData,
    pre: BuildingData | None,
) -> ConstructionCertificate:
    fibration: int | None = None
    epsilon: int | None = None
    if region == GENUS3:
        fibration, epsilon = 3, params["epsilon"]
    elif region not in (PLANE_SPECIAL_12, PLANE_SPECIAL_13, PRODUCT_LINE):
        fibration, epsilon = 2, ksq - (2 * chi - 6)
    notes: tuple[str, ...] = ()
    if region == LINE_4CHI_MINUS_5:
        notes = (LINE5_AMPLENESS_NOTE,)
    elif (ksq, chi) == (2, 4):
        notes = (PAIR_2_4_NOTE,)
    conds = evaluate_side_conditions(region, params, data, pre, ksq, chi)
    inv = invariants(data)
    amp = positivity(data.ambient, _push_2k(data))
    ok = all(c.satisfied for c in conds) and (inv.ksq, inv.chi) == (ksq, chi)
    return ConstructionCertificate(
        requested_ksq=ksq,
        requested_chi=chi,
        region=region,
        data=data,
        pre_resolution=pre,
        invariants=inv,
        side_conditions=conds,
        ampleness=amp,
        fibration_genus=fibration,
        epsilon=epsilon,
        parameters=params,
        notes=notes,
        ok=ok,
    )


def construct(ksq: int, chi: int) -> ConstructionCertificate:
    """Build the certificate for one requested pair.

    Raises RegionError outside the covered set; a violated side condition
    does not raise but marks the certificate failed.
    """
    region = _covered_region(ksq, chi)
    params = region_parameters(region, ksq, chi)
    data, pre = _recipe_data(region, params, chi)
    return _certified(ksq, chi, region, params, data, pre)
