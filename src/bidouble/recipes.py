"""Region classification of the (K^2, chi) plane and construction recipes.

Admissible pairs satisfy chi >= 1, K^2 >= 1 and 2chi-6 <= K^2 <= 9chi.
``FAMILIES`` holds one ``Family`` record per covered region, and ``classify``
returns the first family whose locus holds the pair.  The loci are pairwise
disjoint but for one overlap: the plane pairs (1, 2) and (1, 3) lie inside
the Genus2General strip, so their families come before it.

Everything else admissible is NotCovered (the strip 8chi-8 < K^2 < 9chi
minus the product line).  ``recipe`` builds a pair's branch data from its
family's parameters and resolves the marked triple points, and ``certify``
derives the rest of the certificate from that data: recomputed invariants,
side conditions with values, the positivity verdict of the direct image of
2K, and the fibration, derived from the ruling.  ``construct`` runs the two in
turn.  A certificate is fixed by its pair, so ``verify`` compares a stored
one with the rebuilt data and certifies only data that matches.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .cover import (
    BuildingData,
    Component,
    _lift,
    building_data,
    invariants,
    resolve_triple_point,
)
from .cover import Invariants
from .lattice import (
    NEF_ONLY,
    NOT_NEF,
    PLANE,
    Ambient,
    DivClass,
    PointLabel,
    _builder,
    _trusted,
    h0,
    hirzebruch,
    intersect,
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


class RegionError(ValueError):
    pass


def admissible(ksq: int, chi: int) -> bool:
    """Numerical admissibility: chi >= 1, K^2 >= 1, 2chi-6 <= K^2 <= 9chi."""
    return chi >= 1 and ksq >= 1 and 2 * chi - 6 <= ksq <= 9 * chi


def classify(ksq: int, chi: int) -> str:
    """Total classification of an integer pair into exactly one region tag."""
    if not admissible(ksq, chi):
        return NOT_ADMISSIBLE
    for family in FAMILIES:
        if family.locus(ksq, chi):
            return family.name
    return NOT_COVERED


@dataclass(frozen=True, slots=True)
class SideCondition:
    """A recorded condition, its value and whether it holds.  It equals only
    another SideCondition with the same fields.  The recipes build theirs,
    six or more a certificate, through ``_condition``."""

    name: str
    value: int | bool | str
    satisfied: bool

    def to_doc(self) -> dict:
        return {"name": self.name, "value": self.value, "satisfied": self.satisfied}


# a side condition's fields need no check, so the frozen __init__ is passed by
_condition = _builder(SideCondition)


@dataclass(frozen=True, slots=True)
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


# Each family's parameters are integer-affine in (K^2, chi) on residue
# classes, one expression per parameter: NoetherLine's on chi mod 2,
# Genus2General's on K^2 mod 4, and those of Genus3 and the two 4chi lines on
# K^2 mod 8.  tests/test_recipes.py pins every piece.


def _noether_parameters(ksq: int, chi: int) -> dict[str, int]:
    p = 1 - chi % 2
    return {"alpha": 0, "beta": 2 * p, "gamma": chi + 1 + 3 * p, "e": 2 * p}


def _genus2_parameters(ksq: int, chi: int) -> dict[str, int]:
    e = ksq % 2
    alpha = (ksq + 1) // 2 % 2
    beta = ksq - 2 * chi + 6 - alpha + e
    return {"alpha": alpha, "beta": beta, "gamma": 2 * chi - 2 + e - ksq // 2, "e": e}


def _genus3_parameters(ksq: int, chi: int) -> dict[str, int]:
    eps = (-ksq) % 4
    t = ksq + eps
    gamma = t // 4 % 2
    alpha = t // 2 - 2 * chi + 4 + gamma
    return {"alpha": alpha, "beta": 2 * chi - t // 4 - 2 * gamma, "gamma": gamma, "epsilon": eps}


# The data recipes build their classes with _trusted and their components
# with cover._lift: every coordinate and count is a literal or exact integer
# arithmetic on the pair, which recipe has refused unless it is two ints, and
# building_data then validates the datum once.  The degeneration recipes do
# the same from the validated data they degenerate.


def _one_curve_per_branch(amb: Ambient, d1: DivClass, d2: DivClass, d3: DivClass) -> BuildingData:
    comps = (_lift("d1", 1, d1, 1), _lift("d2", 2, d2, 1), _lift("d3", 3, d3, 1))
    return building_data(amb, d1, d2, d3, comps)


def _genus2_family_data(params: dict[str, int]) -> BuildingData:
    # branch classes D0+alpha F, D0+beta F, 3D0+gamma F on F_e
    amb = hirzebruch(params["e"])
    return _one_curve_per_branch(
        amb,
        _trusted(amb, (1, params["alpha"])),
        _trusted(amb, (1, params["beta"])),
        _trusted(amb, (3, params["gamma"])),
    )


def _plane_data(deg2: int, deg3: int) -> BuildingData:
    # a line and two plane curves of the given degrees
    amb = plane()
    return _one_curve_per_branch(
        amb, _trusted(amb, (1,)), _trusted(amb, (deg2,)), _trusted(amb, (deg3,))
    )


# the recipes' fixed pieces on F_0, built once: the two rulings D0 and F,
# and Genus3's marked fibers and points, p1..p(epsilon) for the recipe
# (epsilon <= 3) and p(epsilon+1) for its degeneration
_F0 = hirzebruch(0)
_D0 = _F0.divisor(1, 0)
_FIBER = _F0.divisor(0, 1)
_GENUS3_FIBERS = tuple(Component(f"f{i}", 1, _FIBER) for i in (1, 2, 3))
_GENUS3_POINTS = tuple(PointLabel(f"p{i}", (f"f{i}", "d2", "d3")) for i in (1, 2, 3, 4))


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
    d2 = _trusted(_F0, (2, beta))
    d3 = _trusted(_F0, (4, gamma))
    comps = list(_GENUS3_FIBERS[:eps])
    if alpha > eps:
        comps.append(_lift("f_rest", 1, _FIBER, alpha - eps))
    comps.append(_lift("d2", 2, d2, 1))
    comps.append(_lift("d3", 3, d3, 1))
    return building_data(
        _F0, _trusted(_F0, (0, alpha)), d2, d3, tuple(comps), _GENUS3_POINTS[:eps]
    )


def _product_data(chi: int) -> BuildingData:
    # 6 rulings in one direction, 2chi+4 in the other, empty third branch
    d2 = _trusted(_F0, (0, 2 * chi + 4))
    comps = (
        _lift("d1_rulings", 1, _D0, 6),
        _lift("d2_fibers", 2, _FIBER, 2 * chi + 4),
    )
    return building_data(_F0, _trusted(_F0, (6, 0)), d2, _F0.zero(), comps)


def _smooth_stamp(d: DivClass, fibers: bool) -> tuple[str, bool]:
    """Why the general member of a branch of class ``d`` is smooth; recorded,
    not proved.  ``fibers`` says the branch has components, each a ruling
    fiber.

    Accepted shapes: the zero class, a disjoint union of distinct ruling
    fibers, the rigid negative section D0 itself, or a basepoint-free class.
    Stamps are taken before any marked point is resolved, since the centres
    are ordinary triple points of the total branch, so ``d`` lies on the
    plane or on F_e.  There a nef class is basepoint-free, so the last
    verdict is ``lattice.positivity``'s.
    """
    if d.is_zero():
        return ("empty branch", True)
    if fibers:
        return ("distinct ruling fibers", True)
    if d.coords == (1, 0) and d.ambient.e > 0:
        return ("negative section", True)
    return ("basepoint-free class", positivity(d) != NOT_NEF)


# the stamps' names, one per branch, and the first two coordinates of the
# ruling classes: F and D0 on F_0, F alone on F_e with e > 0
_STAMP_NAMES = ("smoothGeneralMemberD1", "smoothGeneralMemberD2", "smoothGeneralMemberD3")
_RULINGS_F0 = frozenset({(0, 1), (1, 0)})
_RULINGS_FE = frozenset({(0, 1)})


def _stamps(bd: BuildingData) -> list[SideCondition]:
    amb = bd.ambient
    ruling = _RULINGS_F0 if amb.e == 0 else _RULINGS_FE
    # per branch: None before its first component, then whether every
    # component so far is a ruling fiber
    fibers: list[bool | None] = [None, None, None]
    for c in bd.components:
        i = c.branch - 1
        fibers[i] = fibers[i] is not False and c.cls.coords[:2] in ruling
    return [
        _condition(name, *_smooth_stamp(d, bool(f)))
        for name, d, f in zip(_STAMP_NAMES, bd.branches(), fibers)
    ]


def _no_conditions(params: dict[str, int], base: BuildingData, ksq: int, chi: int) -> list:
    return []


def _genus2_conditions(
    params: dict[str, int], base: BuildingData, ksq: int, chi: int
) -> list[SideCondition]:
    d12 = intersect(base.d1, base.d2)
    d13 = intersect(base.d1, base.d3)
    d23 = intersect(base.d2, base.d3)
    h0d3 = h0(base.d3)
    return [
        _condition("D1.D2", d12, d12 > 0),
        _condition("D1.D3", d13, d13 > 0),
        _condition("D2.D3", d23, d23 > 0),
        _condition("h0(D3)", h0d3, h0d3 == 8 * chi - 4 - 2 * ksq and h0d3 >= 8),
    ]


def _genus3_conditions(
    params: dict[str, int], base: BuildingData, ksq: int, chi: int
) -> list[SideCondition]:
    """The designated degeneration moves a spare fiber of D1, one that no
    marked point names, so alpha >= epsilon + 1.  The bound is tight at the
    foot 4chi - 3 of the Genus3 locus with chi even (alpha = 4, epsilon = 3);
    on the lines 4chi - 5 and 4chi - 4 alpha is 2 or 3 and epsilon 1 or 0."""
    alpha, eps = params["alpha"], params["epsilon"]
    d23 = intersect(base.d2, base.d3)
    return [
        _condition("alpha", alpha, alpha >= eps + 1),
        _condition("D2.D3", d23, d23 >= 6),
        _condition("markedTriplePoints", eps, eps <= d23),
    ]


def evaluate_side_conditions(
    family: Family,
    params: dict[str, int],
    data: BuildingData,
    pre: BuildingData | None,
    ksq: int,
    chi: int,
) -> tuple[SideCondition, ...]:
    """Recompute every recorded side condition from the building data."""
    base = pre if pre is not None else data
    return tuple(_stamps(base) + family.conditions(params, base, ksq, chi))


# NoetherLine's 2K + B is D0 + (chi-2)F on F_2 (even chi) and D0 + (chi-3)F
# on F_0 (odd chi), so its only NefOnly pair is (2, 4)
PAIR_2_4_NOTE = (
    "pair (2,4): recipe applied and verified numerically although the direct "
    "image of 2K sits on the nef-cone boundary of F_2, so the ampleness "
    "verdict is NefOnly rather than Ample"
)

# on Line4chiMinus5 only (3, 2) is NefOnly: on F_0 blown up at p1 its 2K + B
# is 2D0 + F - E1, which pairs to zero against D0 - E1
PAIR_3_2_NOTE = (
    "pair (3,2): recipe applied and verified numerically although the direct "
    "image of 2K, 2D0+F-E1 on F_0 blown up at p1, pairs to zero against the "
    "ruling strict transform D0-E1, so the ampleness verdict is NefOnly rather "
    "than Ample"
)


class DegenerationError(ValueError):
    pass


def _shared_section(src: BuildingData) -> BuildingData:
    # D2 degenerates onto the section already used by D1: the component
    # named d1 now sits in both branches, plus enough fibers to fill the
    # class.  The fiber multiple is (beta, e) = (2, 2) or (0, 0); on other
    # data, which sharedComponentFits reads as unfit, building_data refuses
    # the sum of branch 2.
    amb = src.ambient
    fiber = _trusted(amb, (0, 1))
    rest = src.d2 - src.d1
    branch2 = [_lift("d1", 2, src.d1, 1)]
    branch2 += [_lift(f"f{i}", 2, fiber, 1) for i in range(1, rest.coords[1] + 1)]
    comps = (_lift("d1", 1, src.d1, 1), *branch2, _lift("d3", 3, src.d3, 1))
    return building_data(amb, src.d1, src.d2, src.d3, comps)


def _with_point(
    src: BuildingData, comps: tuple[Component, ...], point: PointLabel
) -> BuildingData:
    return building_data(src.ambient, src.d1, src.d2, src.d3, comps, src.incidence + (point,))


# the point that the degenerations of the plane pairs and of Genus2General
# mark, on one component of each branch
_POINT_P = PointLabel("p", ("d1", "d2", "d3"))


def _through_point(data: BuildingData) -> BuildingData:
    """Mark one more point, ``p``, on the components d1, d2 and d3."""
    return _with_point(data, data.components, _POINT_P)


def _spare_fiber_through_point(data: BuildingData) -> BuildingData:
    # split one fiber off the unmarked bulk of D1 and pass it through a
    # point of D2 and D3; the new point is numbered after the resolved ones,
    # the centres of the data.  Both pieces keep f_rest's class, which is on
    # the blow-up once a point is resolved
    point = _GENUS3_POINTS[len(data.ambient.points)]
    new_fiber = point.components[0]
    comps = []
    for c in data.components:
        if c.name != "f_rest":
            comps.append(c)
            continue
        comps.append(_lift(new_fiber, 1, c.cls, 1))
        if c.count > 1:
            comps.append(_lift("f_rest", 1, c.cls, c.count - 1))
    return _with_point(data, tuple(comps), point)


Availability = Callable[[ConstructionCertificate, BuildingData], tuple[SideCondition, ...]]


def _candidates(i: int, j: int) -> Availability:
    """Room for the new triple point: branches i and j of the data meet."""

    def check(cert: ConstructionCertificate, data: BuildingData) -> tuple[SideCondition, ...]:
        cand = intersect(data.branch(i), data.branch(j))
        return (_condition("triplePointCandidates", cand, cand >= 1),)

    return check


def _shared_fits(cert: ConstructionCertificate, data: BuildingData) -> tuple[SideCondition, ...]:
    rest = data.d2 - data.d1
    fits = rest.coords[0] == 0 and rest.coords[1] >= 0
    return (_condition("sharedComponentFits", str(rest), fits),)


def _spare_fibers(cert: ConstructionCertificate, data: BuildingData) -> tuple[SideCondition, ...]:
    spare = cert.parameters["alpha"] - cert.parameters["epsilon"]
    return _candidates(2, 3)(cert, data) + (_condition("spareFibers", spare, spare >= 1),)


@dataclass(frozen=True)
class Degeneration:
    """A family's designated degeneration: the recipe of the degenerate data
    from the parent's building data alone, the family note, and the
    availability conditions recomputed from the degenerate data."""

    data: Callable[[BuildingData], BuildingData]
    note: str
    availability: Availability


@dataclass(frozen=True)
class Family:
    """One covered region: the locus of its pairs, the parameters and the
    branch data built from them (before any marked triple point is
    resolved), the side conditions beyond the smoothness stamps, the note a
    NefOnly verdict carries (None where no pair of the family is NefOnly),
    its atlas fill and its degeneration (None where the family has none)."""

    name: str
    locus: Callable[[int, int], bool]
    parameters: Callable[[int, int], dict[str, int]]
    data: Callable[[dict[str, int]], BuildingData]
    conditions: Callable[[dict[str, int], BuildingData, int, int], list[SideCondition]]
    nef_only_note: str | None
    fill: str
    degeneration: Degeneration | None


# Genus3's designated degeneration, shared with the two lines below its
# foot, which are built by its recipe too
_GENUS3_DEGENERATION = Degeneration(
    _spare_fiber_through_point,
    "one more fiber of the first branch moves through a point of the other branches",
    _spare_fibers,
)

# walked in this order by classify: Genus3 and Genus2General hold most pairs,
# and the plane pairs come before the Genus2General strip that holds them
FAMILIES = (
    Family(
        GENUS3, lambda ksq, chi: 4 * chi - 3 <= ksq <= 8 * chi - 8, _genus3_parameters,
        _genus3_data, _genus3_conditions, None, "#17becf", _GENUS3_DEGENERATION,
    ),
    Family(
        PLANE_SPECIAL_12, lambda ksq, chi: (ksq, chi) == (1, 2), lambda ksq, chi: {},
        lambda p: _plane_data(3, 3), _no_conditions, None, "#9467bd",
        Degeneration(
            _through_point,
            "the line moves through a point of the two cubics",
            _candidates(2, 3),
        ),
    ),
    Family(
        PLANE_SPECIAL_13, lambda ksq, chi: (ksq, chi) == (1, 3), lambda ksq, chi: {},
        lambda p: _plane_data(1, 5), _no_conditions, None, "#8c564b",
        Degeneration(
            _through_point,
            "the first line moves through a point of the quintic and the other line",
            _candidates(2, 3),
        ),
    ),
    Family(
        GENUS2_GENERAL, lambda ksq, chi: 2 * chi - 5 <= ksq <= 4 * chi - 6, _genus2_parameters,
        _genus2_family_data, _genus2_conditions, None, "#2ca02c",
        Degeneration(
            _through_point,
            "the trisection moves through a point of the two bisections",
            _candidates(1, 2),
        ),
    ),
    Family(
        NOETHER_LINE, lambda ksq, chi: ksq == 2 * chi - 6, _noether_parameters,
        _genus2_family_data, _no_conditions, PAIR_2_4_NOTE, "#1f77b4",
        Degeneration(
            _shared_section,
            "the second branch degenerates onto the section already contained in "
            "the first branch; the cover glues to itself along that curve",
            _shared_fits,
        ),
    ),
    Family(
        LINE_4CHI_MINUS_5, lambda ksq, chi: ksq == 4 * chi - 5, _genus3_parameters,
        _genus3_data, _genus3_conditions, PAIR_3_2_NOTE, "#d62728", _GENUS3_DEGENERATION,
    ),
    Family(
        LINE_4CHI_MINUS_4, lambda ksq, chi: ksq == 4 * chi - 4, _genus3_parameters,
        _genus3_data, _genus3_conditions, None, "#ff7f0e", _GENUS3_DEGENERATION,
    ),
    Family(
        PRODUCT_LINE, lambda ksq, chi: ksq == 8 * chi, lambda ksq, chi: {"chi": chi},
        lambda p: _product_data(p["chi"]), _no_conditions, None, "#e377c2", None,
    ),
)

FAMILY = {family.name: family for family in FAMILIES}


def _covered_region(ksq: int, chi: int) -> str:
    # a bool, float or int subclass compares equal to an int in classify
    # and would reach the recipes, or a certificate, unconverted
    if type(ksq) is not int or type(chi) is not int:
        raise RegionError(f"pair (K^2, chi) = ({ksq!r}, {chi!r}) must be two integers")
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


def recipe(
    ksq: int, chi: int
) -> tuple[Family, dict[str, int], BuildingData, BuildingData | None]:
    """The family of a covered pair, its parameters, the recipe's building
    data, and the data before its marked triple points were resolved (None
    when it marks none).  Raises RegionError outside the covered set and
    unless both values are exactly ``int``."""
    family = FAMILY[_covered_region(ksq, chi)]
    params = family.parameters(ksq, chi)
    pre = family.data(params)
    if not pre.incidence:
        return family, params, pre, None
    return family, params, resolve_triple_point(pre), pre


_certificate = _builder(ConstructionCertificate)


def certify(
    ksq: int,
    chi: int,
    family: Family,
    params: dict[str, int],
    data: BuildingData,
    pre: BuildingData | None,
) -> ConstructionCertificate:
    """Derive every other field of a certificate from the recipe's output.

    Shared by construct and by certificate verification, which certifies
    only data equal to the rebuild, so a stored field cannot drift from
    the derivation.  A construction is ok only over reduced data: a
    smooth bidouble cover needs a reduced total branch.
    """
    conds = evaluate_side_conditions(family, params, data, pre, ksq, chi)
    inv = invariants(data)
    amp = positivity(inv.two_k_plus_b)
    ok = data.reduced and all(c.satisfied for c in conds) and (inv.ksq, inv.chi) == (ksq, chi)
    # the fibration is the preimage of the ruling F, and L_i.F is the first
    # coordinate of L_i: a fiber's cover is connected exactly when every
    # L_i.F > 0, and then has genus sum L_i.F - 3 by Riemann-Hurwitz;
    # epsilon is K^2 - (2chi - 6) in genus 2, the resolved points in genus 3
    genus = epsilon = None
    f1, f2, f3 = data.l1.coords[0], data.l2.coords[0], data.l3.coords[0]
    if f1 > 0 and f2 > 0 and f3 > 0 and data.ambient.kind != PLANE:
        genus = f1 + f2 + f3 - 3
        epsilon = ksq - (2 * chi - 6) if genus == 2 else len(data.ambient.points)
    notes = (family.nef_only_note,) if amp == NEF_ONLY else ()
    # every field is derived above, so the frozen __init__ is passed by
    return _certificate(
        ksq, chi, family.name, data, pre, inv, conds, amp, genus, epsilon, params, notes, ok
    )


def construct(ksq: int, chi: int) -> ConstructionCertificate:
    """Build the certificate for one requested pair.

    Raises RegionError outside the covered set; a violated side condition
    does not raise but marks the certificate failed.
    """
    return certify(ksq, chi, *recipe(ksq, chi))
