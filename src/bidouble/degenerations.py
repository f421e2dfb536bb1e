"""One-parameter degenerations of the constructed covers.

Each covered region away from the product line carries a designated
degeneration, recorded with its family in ``recipes.FAMILIES``: the branch
divisors stay in their classes, so the numerical invariants are untouched,
but the configuration becomes special.  Either a component is shared between
two branches (the total branch goes non-reduced and the cover glues to
itself along a curve) or the three branches are made to pass through a
common point (the cover acquires a quarter point).  Both produce a nonempty
index-2 singularity ledger, and the degenerate cover is no longer
Gorenstein.

Non-reduced degenerate data also records the building classes of its
normalization, which splits off the shared curve.

``degeneration_certificate`` derives every field from validated data, so
it builds the certificate and its normalization through
``lattice._builder``, past their frozen ``__init__``, as
``recipes.certify`` builds a construction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import (
    BuildingData,
    Invariants,
    LedgerEntry,
    invariants,
    singularity_scan,
)
from .lattice import DivClass, _builder
from .recipes import (
    FAMILY,
    ConstructionCertificate,
    Degeneration,
    DegenerationError,
    SideCondition,
)


@dataclass(frozen=True, slots=True)
class Normalization:
    """Building classes of the normalized cover of a non-reduced family.

    The only non-reduced data is a shared section, whose preimage the
    normalization always splits into two disjoint copies.
    """

    c1: DivClass
    c2: DivClass
    c3: DivClass
    note: str

    def to_doc(self) -> dict:
        return {
            "classes": {
                "c1": list(self.c1.coords),
                "c2": list(self.c2.coords),
                "c3": list(self.c3.coords),
            },
            "twoDisjointCopies": True,
            "note": self.note,
        }


@dataclass(frozen=True, slots=True)
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


# every field is derived from validated data, so the frozen __init__ is passed by
_certificate = _builder(DegenerationCertificate)
_normalization = _builder(Normalization)


def designated(region: str) -> Degeneration:
    """The designated degeneration of a region's family.

    Raises DegenerationError for the product family, which stays smooth.
    """
    degeneration = FAMILY[region].degeneration
    if degeneration is None:
        raise DegenerationError(
            "the product family has no designated degeneration; its branches "
            "are disjoint ruling fibers"
        )
    return degeneration


def availability_conditions(
    cert: ConstructionCertificate, data: BuildingData
) -> tuple[SideCondition, ...]:
    """Recompute the degeneration's availability conditions from its data."""
    return designated(cert.region).availability(cert, data)


def degeneration_certificate(
    parent: ConstructionCertificate, data: BuildingData
) -> DegenerationCertificate:
    """Derive every other field of a degeneration certificate from its data.

    Invariants are recomputed from the degenerate data; the singularity scan
    supplies the index-2 ledger.  The certificate is ok only over an ok
    parent, with every availability condition satisfied, the parent's
    invariants kept and a non-empty ledger.  Shared by degenerate and by
    certificate verification.  Raises DegenerationError for the product
    family, which stays smooth.
    """
    note = designated(parent.region).note
    inv = invariants(data)
    ledger = singularity_scan(data)
    conds = availability_conditions(parent, data)
    norm = None if data.reduced else _normalization_from_data(data)
    ok = (
        parent.ok
        and all(c.satisfied for c in conds)
        and inv == parent.invariants
        and bool(ledger)
    )
    return _certificate(
        parent.requested_ksq,
        parent.requested_chi,
        parent.region,
        data,
        inv,
        parent.invariants,
        ledger,
        not ledger,
        norm,
        conds,
        note,
        ok,
    )


def degenerate(cert: ConstructionCertificate) -> DegenerationCertificate:
    """Degenerate a constructed cover inside its family.

    Raises DegenerationError for the product family, which stays smooth.
    """
    return degeneration_certificate(cert, designated(cert.region).data(cert.data))


_NORMALIZATION_NOTE = (
    "normalizing separates the two sheets glued along the shared "
    "section; the result is the cover built from these classes, and "
    "the preimage of the shared section falls into two disjoint copies"
)


def _normalization_from_data(data: BuildingData) -> Normalization:
    return _normalization(
        data.ambient.zero(), data.d2 - data.d1, data.d1 + data.d3, _NORMALIZATION_NOTE
    )
