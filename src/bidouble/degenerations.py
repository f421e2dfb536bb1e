"""One-parameter degenerations of the constructed covers.

Each covered region away from the product line carries a designated
degeneration: the branch divisors stay in their classes, so the numerical
invariants are untouched, but the configuration becomes special.  Either a
component is shared between two branches (the total branch goes non-reduced
and the cover glues to itself along a curve) or the three branches are made
to pass through a common point (the cover acquires a quarter point).  Both
produce a nonempty index-2 singularity ledger, and the degenerate cover is
no longer Gorenstein.

The non-reduced family on the even-degree line also records the building
classes of its normalization, which splits off the shared curve.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .cover import (
    BuildingData,
    Component,
    Invariants,
    LedgerEntry,
    building_data,
    invariants,
    singularity_scan,
)
from .lattice import DivClass, PointLabel, intersect
from .recipes import (
    GENUS2_GENERAL,
    GENUS3,
    LINE_4CHI_MINUS_4,
    LINE_4CHI_MINUS_5,
    NOETHER_LINE,
    PLANE_SPECIAL_12,
    PLANE_SPECIAL_13,
    ConstructionCertificate,
    SideCondition,
    construct,
)

class DegenerationError(ValueError):
    pass


@dataclass(frozen=True)
class Normalization:
    """Building classes of the normalized cover of a non-reduced family."""

    c1: DivClass
    c2: DivClass
    c3: DivClass
    two_disjoint_copies: bool
    note: str

    def to_doc(self) -> dict:
        return {
            "classes": {
                "c1": list(self.c1.coords),
                "c2": list(self.c2.coords),
                "c3": list(self.c3.coords),
            },
            "twoDisjointCopies": self.two_disjoint_copies,
            "note": self.note,
        }


@dataclass(frozen=True)
class DegenerationCertificate:
    requested_ksq: int
    requested_chi: int
    region: str
    data: BuildingData
    invariants: Invariants
    parent_invariants: Invariants
    ledger: tuple[LedgerEntry, ...]
    gorenstein: bool
    normalization: Normalization | None
    side_conditions: tuple[SideCondition, ...]
    family_note: str
    ok: bool

    def to_doc(self) -> dict:
        return {"kind": "degeneration", "data": self.data.to_doc(), **self.derived_doc()}

    def derived_doc(self) -> dict:
        """Every field of the document but the kind and the building data."""
        return {
            "requested": {"ksq": self.requested_ksq, "chi": self.requested_chi},
            "region": self.region,
            "invariants": self.invariants.to_doc(),
            "parentInvariants": self.parent_invariants.to_doc(),
            "ledger": [e.to_doc() for e in self.ledger],
            "gorenstein": self.gorenstein,
            "normalization": None
            if self.normalization is None
            else self.normalization.to_doc(),
            "sideConditions": [c.to_doc() for c in self.side_conditions],
            "familyNote": self.family_note,
            "ok": self.ok,
        }


def _noether_data(cert: ConstructionCertificate) -> BuildingData:
    # D2 degenerates onto the section already used by D1: the component
    # named d1 now sits in both branches, plus enough fibers to fill the
    # class.  The fiber multiple is (beta, e) = (2, 2) or (0, 0).
    src = cert.data
    amb = src.ambient
    fiber = amb.divisor(0, 1)
    rest = src.d2 - src.d1
    if rest.coords[0] != 0 or rest.coords[1] < 0:
        raise DegenerationError(
            f"D2 - D1 = {rest} is not a nonnegative fiber multiple"
        )
    branch2 = [Component("d1", 2, src.d1)]
    branch2 += [Component(f"f{i}", 2, fiber) for i in range(1, rest.coords[1] + 1)]
    comps = (Component("d1", 1, src.d1), *branch2, Component("d3", 3, src.d3))
    return building_data(
        amb, src.d1, src.d2, src.d3, comps, allow_nonreduced=True
    )


DataRecipe = Callable[[ConstructionCertificate], BuildingData]


def _through_point(witness: str, component_names: tuple[str, str, str]) -> DataRecipe:
    """The recipe that marks one more point on the named components, one
    per branch."""
    point = PointLabel(witness, frozenset({1, 2, 3}), component_names)

    def build(cert: ConstructionCertificate) -> BuildingData:
        src = cert.data
        return building_data(
            src.ambient,
            src.d1,
            src.d2,
            src.d3,
            src.components,
            src.incidence + (point,),
            allow_nonreduced=not src.reduced,
        )

    return build


def _genus3_data(cert: ConstructionCertificate) -> BuildingData:
    # split one fiber off the unmarked bulk of D1 and pass it through a
    # point of D2 and D3; the new point is numbered after the resolved ones
    src = cert.data
    eps = cert.parameters["epsilon"]
    new_fiber = f"f{eps + 1}"
    comps: list[Component] = []
    for c in src.components:
        if c.name != "f_rest":
            comps.append(c)
            continue
        comps.append(Component(new_fiber, 1, c.cls))
        if c.count > 1:
            comps.append(Component("f_rest", 1, c.cls, c.count - 1))
    point = PointLabel(f"p{eps + 1}", frozenset({1, 2, 3}), (new_fiber, "d2", "d3"))
    return building_data(
        src.ambient,
        src.d1,
        src.d2,
        src.d3,
        tuple(comps),
        src.incidence + (point,),
    )


def availability_conditions(
    cert: ConstructionCertificate, data: BuildingData
) -> tuple[SideCondition, ...]:
    """Recompute the degeneration's availability conditions from its data."""
    region = cert.region
    if region == NOETHER_LINE:
        rest = data.d2 - data.d1
        return (
            SideCondition(
                "sharedComponentFits",
                str(rest),
                rest.coords[0] == 0 and rest.coords[1] >= 0,
            ),
        )
    if region in (PLANE_SPECIAL_12, PLANE_SPECIAL_13):
        cand = intersect(data.d2, data.d3)
    elif region == GENUS3:
        cand = intersect(data.d2, data.d3)
        return (
            SideCondition("triplePointCandidates", cand, cand >= 1),
            SideCondition(
                "spareFibers",
                cert.parameters["alpha"] - cert.parameters["epsilon"],
                cert.parameters["alpha"] - cert.parameters["epsilon"] >= 1,
            ),
        )
    else:
        cand = intersect(data.d1, data.d2)
    return (SideCondition("triplePointCandidates", cand, cand >= 1),)


# the designated degeneration of each family that has one, as the recipe of
# its data and its note; the product family has none
DEGENERATIONS: dict[str, tuple[DataRecipe, str]] = {
    NOETHER_LINE: (
        _noether_data,
        "the second branch degenerates onto the section already contained in "
        "the first branch; the cover glues to itself along that curve",
    ),
    PLANE_SPECIAL_12: (
        _through_point("p", ("d1", "d2", "d3")),
        "the line moves through a point of the two cubics",
    ),
    PLANE_SPECIAL_13: (
        _through_point("p", ("d1", "d2", "d3")),
        "the first line moves through a point of the quintic and the other line",
    ),
    GENUS2_GENERAL: (
        _through_point("p", ("d1", "d2", "d3")),
        "the trisection moves through a point of the two bisections",
    ),
    LINE_4CHI_MINUS_5: (
        _through_point("pPrime", ("d1", "d2", "delta2")),
        "a second ruling member of the third branch moves through a point of "
        "the strict transforms of the bisections",
    ),
    LINE_4CHI_MINUS_4: (
        _through_point("p", ("d1", "d2", "delta1")),
        "a ruling member of the third branch moves through a point of the two "
        "bisections",
    ),
    GENUS3: (
        _genus3_data,
        "one more fiber of the first branch moves through a point of the other branches",
    ),
}


def _designated(region: str) -> tuple[DataRecipe, str]:
    if region not in DEGENERATIONS:
        raise DegenerationError(
            "the product family has no designated degeneration; its branches "
            "are disjoint ruling fibers"
        )
    return DEGENERATIONS[region]


def degeneration_certificate(
    parent: ConstructionCertificate, data: BuildingData
) -> DegenerationCertificate:
    """Derive every other field of a degeneration certificate from its data.

    Invariants are recomputed from the degenerate data and must match the
    parent; the singularity scan supplies the index-2 ledger.  Shared by
    degenerate and by certificate verification.  Raises DegenerationError
    for the product family, which stays smooth.
    """
    _, note = _designated(parent.region)
    inv = invariants(data)
    ledger = singularity_scan(data)
    conds = availability_conditions(parent, data)
    norm = _normalization_from_data(data) if parent.region == NOETHER_LINE else None
    ok = (
        all(c.satisfied for c in conds)
        and inv == parent.invariants
        and bool(ledger)
    )
    return DegenerationCertificate(
        requested_ksq=parent.requested_ksq,
        requested_chi=parent.requested_chi,
        region=parent.region,
        data=data,
        invariants=inv,
        parent_invariants=parent.invariants,
        ledger=ledger,
        gorenstein=not ledger,
        normalization=norm,
        side_conditions=conds,
        family_note=note,
        ok=ok,
    )


def degenerate(cert: ConstructionCertificate) -> DegenerationCertificate:
    """Degenerate a constructed cover inside its family.

    Raises DegenerationError for the product family, which stays smooth.
    """
    recipe, _ = _designated(cert.region)
    return degeneration_certificate(cert, recipe(cert))


def degenerate_pair(ksq: int, chi: int) -> DegenerationCertificate:
    """Construct the cover for a pair and degenerate it in one step."""
    return degenerate(construct(ksq, chi))


def _normalization_from_data(data: BuildingData) -> Normalization:
    zero = data.ambient.zero()
    return Normalization(
        c1=zero,
        c2=data.d2 - data.d1,
        c3=data.d1 + data.d3,
        two_disjoint_copies=True,
        note=(
            "normalizing separates the two sheets glued along the shared "
            "section; the result is the cover built from these classes, and "
            "the preimage of the shared section falls into two disjoint copies"
        ),
    )


def normalize_noether_line(dc: DegenerationCertificate) -> Normalization:
    """Building classes of the normalization of a non-reduced degeneration.

    Only the family with a shared component normalizes nontrivially; the
    marked-point degenerations are already normal, so asking for their
    normalization is an error.
    """
    if dc.region != NOETHER_LINE:
        raise DegenerationError(
            f"degeneration in region {dc.region!r} is normal; nothing to normalize"
        )
    return _normalization_from_data(dc.data)
