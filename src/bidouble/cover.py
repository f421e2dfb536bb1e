"""Building data for smooth Klein-four covers of rational surfaces.

A cover is encoded by three effective branch classes D1, D2, D3 on an
ambient from :mod:`bidouble.lattice` together with the derived line bundles

    L1 = (D2 + D3)/2,   L2 = (D1 + D3)/2,   L3 = L1 + L2 - D3,

which exist exactly when D2+D3 and D1+D3 have even coordinates.  The
numerical invariants of the covering surface X are computed on the base Y
(rational, so chi(O_Y) = 1 and p_g(Y) = 0):

    K_X^2    = (2K_Y + D1 + D2 + D3)^2
    chi(O_X) = 4 + (1/2) sum_i L_i.(L_i + K_Y)
    p_g(X)   = sum_i h0(K_Y + L_i)
    q(X)     = p_g - chi + 1

Components give names to the irreducible pieces of each branch divisor and
incidence records marked points; both are combinatorial bookkeeping.  The
cover is smooth over points where at most two branch divisors meet
transversally, and has a 1/4(1,1) quarter point where all three meet, so
every marked point is such a triple point: it names one single-copy
component of each of the three branches, a rule ``building_data`` alone
checks.  A component shared between
branch divisors makes the total branch non-reduced; such data builds, as
degeneration data must, and records ``reduced`` as False.  Only a smooth
construction needs a reduced branch, and ``recipes.certify`` owns that
rule.

The line bundles and the per-branch component sums (in ``building_data``)
and 2K + B and the adjoint classes K + L_i (in ``invariants``) are
computed on the coordinate tuples of classes already validated on the
data's ambient.  ``building_data`` wraps each line bundle once through
``lattice._trusted``; ``invariants`` wraps only 2K + B, which
``Invariants.two_k_plus_b`` keeps, and hands the K + L_i to the kernels
as tuples.  Each of the two tests the rank once.  On F_e, where a class
has two coordinates (so on every datum of ``check``'s oracle sample), it
unpacks the two coordinates instead of building an iterator and a tuple
per sum, and ``building_data`` accepts the branches with one test: both
sums even and no coordinate negative.  No negative coordinate is
effectivity there, the corollary of h0's formula that
``lattice.h0_flagged`` states, and with D1 and D2 nonzero it leaves no
L_i zero.  Data that fails the test, and data on the other ambients, goes
through the general checks, which name the refusal.  The intersection
form and h0 live in the coordinate kernels ``lattice._pairing`` and
``lattice._h0_coords``, their one definition in the library, behind
``lattice.intersect`` and ``lattice.h0_flagged``; ``invariants`` calls
the kernels, so an ``UnsupportedClass`` from h0(K + L_i) names the class
as ``h0_flagged`` does.  So ``invariants`` expects data built by
``building_data`` or ``resolve_triple_point``, not assembled by hand.

``chi_oracle`` and ``ksq_oracle`` are a second route to chi and K^2 that
shares with the library only the line bundles L_i that ``building_data``
derives.  They do not share the form, K or the class arithmetic: each
writes the intersection form and K_Y out from the basis rules and works on
plain integer coordinates, with no ``DivClass``, so a wrong sign in
``lattice._pairing`` or a wrong ``Ambient._canonical`` moves
``invariants`` and not them.  Each is one body for every ambient: on the
plane the form is H.H = 1 with K_Y = -3H; on a ruled ambient it is
u0 v1 + u1 v0 - e u0 v0 with K_Y = (-2, -e - 2) on the first two
coordinates, less one term per centre (E_i.E_i = -1, K_Y carrying 1 at
E_i) on data with more.  chi keeps one Riemann-Roch term per bundle, each
halved on its own, and K^2 the three pairings 4K.K + 4K.B + B.B, not the
square (2K + B)^2 that ``invariants`` takes.

Values whose fields are already validated are built without their frozen
``__init__`` by constructors from ``lattice._builder``, as ``_trusted``
builds a class: ``building_data`` and ``resolve_triple_point`` assemble
the ``BuildingData`` they return once every check has passed,
``invariants`` its ``Invariants`` once the sign of q is checked,
``singularity_scan`` each ``LedgerEntry`` from validated data, and the
resolution lifts each component, whose name, branch and count ``bd``
already validated, with only its class replaced.  It builds the blow-up
with ``lattice._blow_up``, past the checks of ``Ambient``: its ambient and
centres come from validated data, and ``building_data`` refuses a marked
point named like a centre, so the centres' names stay distinct.  The
resolution keeps the one check a blow-up can fail, the effectivity of the
lifted branch classes; the lifted component sums hold by the incidence
rule.  ``recipes`` builds its fixed-shape components with ``_lift`` too,
in its construction and its degeneration recipes, since their fields are
literals, exact integers or classes of validated data, and leaves the
checks to ``building_data``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .lattice import (
    PLANE,
    Ambient,
    DivClass,
    LatticeError,
    PointLabel,
    _blow_up,
    _builder,
    _h0_coords,
    _pairing,
    _trusted,
    h0_flagged,
    intersect,
)

QUARTER_POINT = "QuarterPoint"
NON_NORMAL_GLUING = "NonNormalGluing"


class CoverError(ValueError):
    pass


class ParityError(CoverError):
    pass


class InvalidBuildingData(CoverError):
    pass


@dataclass(frozen=True, slots=True)
class Component:
    """A named irreducible piece of one branch divisor.

    ``cls`` is the class of a single copy; ``count`` many disjoint copies are
    meant.  Reusing a name in another branch asserts that the same curve
    appears there too, which makes the total branch non-reduced.
    """

    name: str
    branch: int
    cls: DivClass
    count: int = 1

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            raise InvalidBuildingData(f"component name must be a string, got {self.name!r}")
        if type(self.branch) is not int or self.branch not in (1, 2, 3):
            raise InvalidBuildingData(f"component branch must be 1..3, got {self.branch!r}")
        if type(self.cls) is not DivClass:
            raise InvalidBuildingData(
                f"component class must be a divisor class, got {self.cls!r}"
            )
        if type(self.count) is not int or self.count < 1:
            raise InvalidBuildingData(
                f"component count must be an integer >= 1, got {self.count!r}"
            )

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "branch": self.branch,
            "class": list(self.cls.coords),
            "count": self.count,
        }


@dataclass(frozen=True, slots=True)
class Invariants:
    """The invariants of the cover.  ``invariants`` also keeps the class
    2K_Y + B it squared, for the positivity verdict; it is no part of the
    value (not compared, hashed or written out)."""

    ksq: int
    chi: int
    pg: int
    q: int
    pg_estimated: bool
    two_k_plus_b: DivClass | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("ksq", "chi", "pg", "q"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvalidBuildingData(f"{name} must be an integer, got {value!r}")
        if type(self.pg_estimated) is not bool:
            raise InvalidBuildingData(
                f"pg_estimated must be a boolean, got {self.pg_estimated!r}"
            )
        if self.q != self.pg - self.chi + 1:
            raise InvalidBuildingData("q must equal pg - chi + 1")
        if self.q < 0:
            raise InvalidBuildingData("negative irregularity; data is not a valid cover")

    def to_doc(self) -> dict:
        return {
            "ksq": self.ksq,
            "chi": self.chi,
            "pg": self.pg,
            "q": self.q,
            "pgEstimated": self.pg_estimated,
        }


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One index-2 singularity record of a degenerate or marked cover."""

    kind: str
    count: int
    gorenstein_index: int
    witness_point: str | None = None
    witness_class: DivClass | None = None

    def to_doc(self) -> dict:
        witness: dict = {}
        if self.witness_point is not None:
            witness["point"] = self.witness_point
        if self.witness_class is not None:
            witness["class"] = list(self.witness_class.coords)
        return {
            "kind": self.kind,
            "count": self.count,
            "gorensteinIndex": self.gorenstein_index,
            "witness": witness,
        }


@dataclass(frozen=True, slots=True)
class BuildingData:
    """The building data of a cover: the ambient, the branch classes
    D1..D3, the line bundles L1..L3, the named components, the marked
    points and whether the total branch is reduced.

    The constructor stores its fields as given and checks nothing.
    ``building_data`` validates the data and derives ``l1``..``l3`` and
    ``reduced``, and ``resolve_triple_point`` lifts validated data.
    ``invariants``, the oracles, ``singularity_scan`` and the resolution
    trust data built by those two functions: on data assembled by hand they
    may return numbers no cover has.
    """

    ambient: Ambient
    d1: DivClass
    d2: DivClass
    d3: DivClass
    l1: DivClass
    l2: DivClass
    l3: DivClass
    components: tuple[Component, ...] = ()
    incidence: tuple[PointLabel, ...] = ()
    reduced: bool = True

    def branches(self) -> tuple[DivClass, DivClass, DivClass]:
        return (self.d1, self.d2, self.d3)

    def branch(self, i: int) -> DivClass:
        if type(i) is not int or not 1 <= i <= 3:
            raise InvalidBuildingData(f"branch index must be 1..3, got {i!r}")
        return self.branches()[i - 1]

    def to_doc(self) -> dict:
        return {
            "ambient": self.ambient.to_doc(),
            "classes": {
                "d1": list(self.d1.coords),
                "d2": list(self.d2.coords),
                "d3": list(self.d3.coords),
                "l1": list(self.l1.coords),
                "l2": list(self.l2.coords),
                "l3": list(self.l3.coords),
            },
            "components": [c.to_doc() for c in self.components],
            "incidence": [p.to_doc() for p in self.incidence],
            "reduced": self.reduced,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "BuildingData":
        """The data a ``to_doc`` document describes, built through the public
        constructors, so that the constructor owning each field checks it.
        The document's shape is checked on the way: a missing field, or a
        value where an object or a list belongs, is an InvalidBuildingData
        that names the field, and a point's ``branches`` other than the
        integers [1, 2, 3] is a LatticeError that names it."""
        _fields(doc, "", "ambient", "classes")
        amb = _fields(doc["ambient"], "ambient", "kind")
        points = tuple([_point(p, at) for p, at in _entries(amb, "ambient.points")])
        # a ruled document without e is refused by Ambient, not read as F_0
        e = amb.get("e", 0 if amb["kind"] == PLANE else None)
        ambient = Ambient(amb["kind"], e, points)
        classes = _fields(doc["classes"], "classes", "d1", "d2", "d3")
        d1, d2, d3 = [
            DivClass(ambient, _list(classes[k], f"classes.{k}")) for k in ("d1", "d2", "d3")
        ]
        comps = tuple([_component(c, at, ambient) for c, at in _entries(doc, "components")])
        pts = tuple([_point(p, at) for p, at in _entries(doc, "incidence")])
        return building_data(ambient, d1, d2, d3, comps, pts)


def _fields(doc: object, where: str, *keys: str) -> dict:
    """``doc`` as a document object holding ``keys``; ``where`` is its path
    in the data document, empty for the document itself."""
    if type(doc) is not dict:
        what = f"data field {where!r}" if where else "a data document"
        raise InvalidBuildingData(f"{what} must be an object, got {doc!r}")
    for key in keys:
        if key not in doc:
            path = f"{where}.{key}" if where else key
            raise InvalidBuildingData(f"data document is missing field {path!r}")
    return doc


def _list(value: object, where: str) -> list | tuple:
    if type(value) not in (list, tuple):
        raise InvalidBuildingData(f"data field {where!r} must be a list, got {value!r}")
    return value


def _entries(doc: dict, where: str) -> list[tuple[object, str]]:
    """Each entry of the optional list at path ``where``, the last key of
    which is read from ``doc``, with the entry's own path."""
    entries = _list(doc.get(where.rpartition(".")[2], ()), where)
    return [(x, f"{where}.{i}") for i, x in enumerate(entries)]


def _component(doc: object, where: str, ambient: Ambient) -> Component:
    _fields(doc, where, "name", "branch", "class")
    coords = _list(doc["class"], f"{where}.class")
    return Component(doc["name"], doc["branch"], DivClass(ambient, coords), doc.get("count", 1))


def _point(doc: object, where: str) -> PointLabel:
    _fields(doc, where, "name", "branches")
    # every point is a triple point, and the lattice treats it as in general
    # position; a document records both.  [True, 2, 3] == [1, 2, 3], so the
    # types are compared too
    branches = doc["branches"]
    ints = type(branches) in (list, tuple) and list(map(type, branches)) == [int, int, int]
    if not ints or list(branches) != [1, 2, 3]:
        raise LatticeError(
            f"data field '{where}.branches' must be integers [1, 2, 3], got {branches!r}"
        )
    if doc.get("general", True) is not True:
        raise LatticeError(f"point general flag must be true, got {doc['general']!r}")
    return PointLabel(doc["name"], doc.get("components", ()))


# a component whose fields need no check, lifted to a blow-up or built by a
# recipe from literals, exact integers and validated classes, and data whose
# every check has passed
_lift = _builder(Component)
_assemble = _builder(BuildingData)


def _check_incidence(
    ambient: Ambient, comps: tuple[Component, ...], pts: tuple[PointLabel, ...]
) -> None:
    """The incidence rule of ``building_data``, for the marked points and
    the centres, on components whose types and sums it has checked."""
    # the components of each name, in component order
    index: dict[str, list[Component]] = {}
    for c in comps:
        index.setdefault(c.name, []).append(c)
    centres = {q.name for q in ambient.points}
    seen_pts = set()
    for p in pts:
        if type(p) is not PointLabel:
            raise InvalidBuildingData(f"marked point {p!r} is not a PointLabel")
        if p.name in seen_pts:
            raise InvalidBuildingData(f"marked point {p.name!r} repeated")
        seen_pts.add(p.name)
        if p.name in centres:
            raise InvalidBuildingData(
                f"marked point {p.name!r} is named like a centre of the ambient"
            )
        try:
            named = [c for cname in p.components for c in index[cname]]
        except KeyError as unknown:
            # the first unknown name in the point's order
            raise InvalidBuildingData(
                f"point {p.name!r} names unknown component {unknown.args[0]!r}"
            ) from None
        # one curve of each branch; a component counts once per occurrence
        # of its name, so a name given twice is refused here too
        on = sorted([c.branch for c in named])
        if on != [1, 2, 3]:
            raise InvalidBuildingData(
                f"point {p.name!r} lies on branches [1, 2, 3], but the "
                f"components it names lie on branches {on}"
            )
        for c in named:
            if c.count != 1:
                raise InvalidBuildingData(
                    f"point {p.name!r} names component {c.name!r} of {c.count} "
                    "copies, not a single curve"
                )
    # a centre is a resolved point: each component it names passes through
    # it once, so carries -1 at the centre's exceptional coordinate
    for j, q in enumerate(ambient.points, start=2):
        for cname in q.components:
            if cname not in index:
                raise InvalidBuildingData(f"centre {q.name!r} names unknown component {cname!r}")
            for c in index[cname]:
                if c.cls.coords[j] != -1:
                    raise InvalidBuildingData(
                        f"centre {q.name!r} names component {cname!r} = {c.cls}, "
                        "which has no -1 at the centre's exceptional class"
                    )


def building_data(
    ambient: Ambient,
    d1: DivClass,
    d2: DivClass,
    d3: DivClass,
    components: tuple[Component, ...] = (),
    incidence: tuple[PointLabel, ...] = (),
) -> BuildingData:
    """Validate and assemble cover building data.

    Checks the types of the entries, the ambient of the branch classes,
    parity, nonzero derived bundles L1 = (D2 + D3)/2, L2 = (D1 + D3)/2,
    L3 = (D1 + D2)/2, effectivity of the branch classes, per-branch
    component sums and incidence; a branch that is not a ``DivClass`` is
    named before any other branch check.  On F_e one test accepts the
    branches: D2 + D3 and D1 + D3 even and no coordinate negative, which
    there is effectivity and, with D1 and D2 nonzero, leaves no L_i zero.
    Branches it refuses, and branches on the other ambients, go through
    the parity, zero and h0 checks in that order, which name the refusal.
    Each branch's components, counted with their copies, sum to its
    class: branches in order, and in each a component on another ambient
    is reported before the sum.

    Incidence is owned here.  Point names are distinct and none is the
    name of a centre of the ambient, so resolving any of the points gives
    centres of distinct names.  Every marked point is a triple point, and
    names known components that are one single curve of each branch: the
    components carrying its names, counted once per occurrence of a name
    and counting every component of a shared name, lie on branches exactly
    [1, 2, 3], and each is a single copy.  So a name given twice is
    refused.  A point naming a component of n copies does not say which of
    the n curves it lies on, and two curves of one branch through a point
    make that branch singular there.  A centre of a blow-up is a resolved
    point: each component it names exists and carries -1 at the centre's
    exceptional coordinate.  A centre may name fewer components, or none.
    Data with marked points or centres indexes its components by name
    once, and the checks of each point and centre read that index.

    ``components`` and ``incidence`` are ordered, so each is taken only
    from a list or tuple.  A component name repeated across branches makes
    the total branch non-reduced: such data builds, with ``reduced`` False,
    read off the set of component names.
    """
    if type(components) not in (list, tuple):
        raise InvalidBuildingData(f"components must be a list or tuple, got {components!r}")
    if type(incidence) not in (list, tuple):
        raise InvalidBuildingData(f"incidence must be a list or tuple, got {incidence!r}")
    # one identity test each for the types and the ambients; the loops
    # behind them name the first branch that fails, or pass an equal ambient
    if not (type(d1) is type(d2) is type(d3) is DivClass):
        for i, d in enumerate((d1, d2, d3), start=1):
            if type(d) is not DivClass:
                raise InvalidBuildingData(f"branch class D{i} must be a divisor class, got {d!r}")
    if not any(d1.coords) or not any(d2.coords):
        raise InvalidBuildingData("D1 and D2 must be nonzero (only D3 may vanish)")
    if not (d1.ambient is d2.ambient is d3.ambient is ambient):
        for d in (d1, d2, d3):
            if d.ambient is not ambient and d.ambient != ambient:
                raise InvalidBuildingData("branch class lives on a different ambient")
    # L3 = L1 + L2 - D3 = (D1 + D2)/2, integral once D2 + D3 and D1 + D3 are even
    u, v, w = d1.coords, d2.coords, d3.coords
    accepted = False
    if len(u) == 2:
        # F_e, unpacked: the one accept test.  An OR of ints is negative
        # exactly when one of them is
        (a1, b1), (a2, b2), (a3, b3) = u, v, w
        x1, y1, x2, y2, x3, y3 = a2 + a3, b2 + b3, a1 + a3, b1 + b3, a1 + a2, b1 + b2
        l1, l2, l3 = (x1 >> 1, y1 >> 1), (x2 >> 1, y2 >> 1), (x3 >> 1, y3 >> 1)
        accepted = not (x1 | y1 | x2 | y2) & 1 and (a1 | b1 | a2 | b2 | a3 | b3) >= 0
    if not accepted:
        # the other ambients, and data refused on F_e, whose refusal these name
        s1, s2 = tuple(map(add, v, w)), tuple(map(add, u, w))
        l1, l2 = tuple([x >> 1 for x in s1]), tuple([x >> 1 for x in s2])
        l3 = tuple([(a + b) >> 1 for a, b in zip(u, v)])
        for name, s in (("D2 + D3", s1), ("D1 + D3", s2)):
            for x in s:
                if x & 1:
                    raise ParityError(f"{name} = {_trusted(ambient, s)} is not divisible by two")
        for i, l in enumerate((l1, l2, l3), start=1):
            if not any(l):
                raise InvalidBuildingData(f"derived line bundle L{i} is zero")
        for i, d in enumerate((d1, d2, d3) if any(w) else (d1, d2), start=1):
            if h0_flagged(d)[0] <= 0:
                raise InvalidBuildingData(f"branch class D{i} = {d} is not effective")
    # data without components or marked points, as every datum of check's
    # oracle sample, is reduced and builds neither tuple nor name set
    comps = pts = ()
    reduced = True
    if components:
        comps = tuple(components)
        for c in comps:
            if type(c) is not Component:
                raise InvalidBuildingData(f"component {c!r} is not a Component")
        for i, total in enumerate((d1, d2, d3), start=1):
            acc = None
            for c in comps:
                if c.branch != i:
                    continue
                if c.cls.ambient is not ambient and c.cls.ambient != ambient:
                    raise InvalidBuildingData(f"component {c.name!r} lives on a different ambient")
                x = c.cls.coords if c.count == 1 else tuple([c.count * t for t in c.cls.coords])
                acc = x if acc is None else tuple(map(add, acc, x))
            if acc is not None and acc != total.coords:
                raise InvalidBuildingData(
                    f"components of branch {i} sum to {_trusted(ambient, acc)}, "
                    f"expected {total}"
                )
    if incidence or ambient.points:
        pts = tuple(incidence)
        _check_incidence(ambient, comps, pts)
    if comps:
        reduced = len({c.name for c in comps}) == len(comps)
    l1, l2, l3 = _trusted(ambient, l1), _trusted(ambient, l2), _trusted(ambient, l3)
    return _assemble(ambient, d1, d2, d3, l1, l2, l3, comps, pts, reduced)


_invariants = _builder(Invariants)


def invariants(bd: BuildingData) -> Invariants:
    """Numerical invariants of the covering surface, exact integers.

    2K_Y + B, with B = D1 + D2 + D3, is the class on the base whose
    pullback is 2K_X; ``Invariants.two_k_plus_b`` keeps it, the one class
    built here.  K^2, the pairings L_i.(K + L_i) and h0(K + L_i) are taken
    on coordinate tuples through ``lattice._pairing`` and
    ``lattice._h0_coords``.  q is pg - chi + 1 by its definition, so of the
    checks of ``Invariants`` only the sign of q is left to make."""
    amb = bd.ambient
    k, u, v, w = amb._canonical, bd.d1.coords, bd.d2.coords, bd.d3.coords
    # K + L_i serves both chi (as L_i.(L_i + K)) and p_g (as h0(K + L_i))
    l1, l2, l3 = bd.l1.coords, bd.l2.coords, bd.l3.coords
    if len(k) == 2:
        (p, q), (a1, b1), (a2, b2), (a3, b3) = k, u, v, w
        (x1, y1), (x2, y2), (x3, y3) = l1, l2, l3
        kb = (2 * p + a1 + a2 + a3, 2 * q + b1 + b2 + b3)
        c1, c2, c3 = (p + x1, q + y1), (p + x2, q + y2), (p + x3, q + y3)
    else:
        kb = tuple([2 * x + a + b + c for x, a, b, c in zip(k, u, v, w)])
        c1, c2, c3 = [tuple(map(add, k, l)) for l in (l1, l2, l3)]
    ksq = _pairing(amb, kb, kb)
    tot = _pairing(amb, l1, c1) + _pairing(amb, l2, c2) + _pairing(amb, l3, c3)
    if tot % 2:
        raise InvalidBuildingData("parity failure in chi; lattice data is inconsistent")
    chi = 4 + tot // 2
    h1, f1 = _h0_coords(amb, c1)
    h2, f2 = _h0_coords(amb, c2)
    h3, f3 = _h0_coords(amb, c3)
    pg = h1 + h2 + h3
    q = pg - chi + 1
    if q < 0:
        raise InvalidBuildingData("negative irregularity; data is not a valid cover")
    return _invariants(ksq, chi, pg, q, f1 or f2 or f3, _trusted(amb, kb))


def chi_oracle(bd: BuildingData) -> int:
    """chi(O_X) summed character by character.

    Independent path: chi(O_Y) plus one Riemann-Roch evaluation of
    chi(O_Y(-L_i)) per bundle, each term halved separately, on a form and
    K_Y written out here from the basis rules: H.H = 1 and K = -3H on the
    plane; D0.D0 = -e, D0.F = 1, F.F = 0 and K = -2D0 - (e + 2)F on the
    first two coordinates of a ruled ambient, less E_i.E_i = -1 with K
    carrying 1 at each E_i on the coordinates of its centres.
    """
    plane, e = bd.ambient.kind == PLANE, bd.ambient.e
    blown_up = len(bd.l1.coords) > 2
    total = 1
    for l in (bd.l1.coords, bd.l2.coords, bd.l3.coords):
        # u = -L_i and v = u - K, paired by the form
        u0 = -l[0]
        if plane:
            pairing = u0 * (u0 + 3)
        else:
            u1 = -l[1]
            v0, v1 = u0 + 2, u1 + e + 2
            pairing = u0 * v1 + u1 * v0 - e * u0 * v0
            if blown_up:
                # E_i.E_i = -1, and K has 1 at E_i
                for x in l[2:]:
                    u = -x
                    pairing -= u * (u - 1)
        if pairing % 2:
            raise InvalidBuildingData("parity failure in Riemann-Roch term")
        total += 1 + pairing // 2
    return total


def ksq_oracle(bd: BuildingData) -> int:
    """K_X^2 through the bilinear expansion 4K.K + 4K.B + B.B, on the form
    and K_Y that ``chi_oracle`` writes out, not the square (2K + B)^2."""
    amb, e = bd.ambient, bd.ambient.e
    u, v, w = bd.d1.coords, bd.d2.coords, bd.d3.coords
    # B = (s, t, ...); on the plane K.K = 9, K.B = -3s and B.B = s^2
    s = u[0] + v[0] + w[0]
    if amb.kind == PLANE:
        return 4 * 9 - 4 * 3 * s + s * s
    t = u[1] + v[1] + w[1]
    k0, k1 = -2, -e - 2
    kk = k0 * k1 + k1 * k0 - e * k0 * k0
    kb = k0 * t + k1 * s - e * k0 * s
    bb = s * t + t * s - e * s * s
    if len(u) > 2:
        # E_i.E_i = -1, and K has 1 at E_i
        for x, y, z in zip(u[2:], v[2:], w[2:]):
            c = x + y + z
            kk -= 1
            kb -= c
            bb -= c * c
    return 4 * kk + 4 * kb + bb


# a ledger entry's fields are derived from validated data
_entry = _builder(LedgerEntry)


def singularity_scan(bd: BuildingData) -> tuple[LedgerEntry, ...]:
    """Index-2 singularity ledger of the cover described by ``bd``.

    One QuarterPoint per marked point, a triple point where one single
    curve of each branch meets, as ``building_data`` showed; one
    NonNormalGluing per repeated component, whose count is the number
    of pinch points, i.e. the intersection of the shared curve with the
    branch divisors it does not belong to.  Deterministic: entries are
    sorted by witness, independent of incidence order.  ``building_data``
    records ``reduced`` exactly when no component name repeats, so reduced
    data has no NonNormalGluing to look for.
    """
    entries = [
        _entry(QUARTER_POINT, 1, 2, p.name, None)
        for p in sorted(bd.incidence, key=lambda p: p.name)
    ]
    if bd.reduced:
        return tuple(entries)
    named: dict[str, list[Component]] = {}
    for c in bd.components:
        named.setdefault(c.name, []).append(c)
    for _, shared in sorted(named.items()):
        if len(shared) == 1:
            continue
        cls = shared[0].cls
        in_branches = {c.branch for c in shared}
        pinch = sum(
            intersect(cls, bd.branch(i)) for i in (1, 2, 3) if i not in in_branches
        )
        entries.append(_entry(NON_NORMAL_GLUING, pinch, 2, None, cls))
    return tuple(entries)


def resolve_triple_point(bd: BuildingData) -> BuildingData:
    """Blow up every marked triple point of ``bd`` and lift the data.

    The model must be ruled.  Every marked point lies on all three
    branches, so every branch class and every component through a point
    picks up minus its exceptional class; the points move, in incidence
    order, from the incidence list into the ambient's centre list, and the
    lifted data marks none.  K^2 drops by one per point and chi is
    unchanged.  Data with no marked point is returned as it is.

    ``bd`` was validated when it was built, and the lift keeps what that
    validation showed: names, reducedness, parity, and the component sums.
    Each marked point names one single-copy curve per branch, so on each
    branch exactly one copy of its components passes through each point,
    and the lifted components sum to the lifted branch classes by
    construction.  So the lifted data is checked only for what a blow-up
    can break.  A class is lifted by appending its exceptional coordinates
    to its coordinates on ``bd``'s ambient, which the blow-up built here
    extends by one centre per point.  The line bundles are ``bd``'s,
    lifted with tail (-1, ..., -1) like the branch classes: deriving them
    from the lifted classes gives the same classes and cannot fail, since
    each exceptional coordinate of D_i + D_j is -2 and every L_i keeps a
    nonzero -1 there.  Each lifted branch class must stay effective: its h0
    estimate drops by one per centre, so a branch of one fiber through two
    marked points fails (h0 2 - 2 = 0).  An error here names the classes
    over every centre.

    Built trusted, with no second validation, by builders from
    ``lattice._builder``: the blow-up ambient (``lattice._blow_up``, since
    ``bd``'s ambient and marked points are validated, and ``building_data``
    refused a point named like a centre), the lifted classes
    (``_trusted``), each lifted component (``bd``'s name, branch and count,
    with the lifted class) and the returned ``BuildingData``.
    """
    marked = bd.incidence
    if not marked:
        return bd
    if bd.ambient.kind == PLANE:
        raise CoverError("triple point resolution is implemented on ruled models only")
    amb2 = _blow_up(bd.ambient, marked)
    # every branch class and every line bundle passes through every point
    n = len(marked)
    every = (-1,) * n
    d1 = _trusted(amb2, bd.d1.coords + every)
    d2 = _trusted(amb2, bd.d2.coords + every)
    d3 = _trusted(amb2, bd.d3.coords + every)
    for i, d in enumerate((d1, d2, d3), start=1):
        if h0_flagged(d)[0] <= 0:
            raise InvalidBuildingData(f"branch class D{i} = {d} is not effective")
    l1 = _trusted(amb2, bd.l1.coords + every)
    l2 = _trusted(amb2, bd.l2.coords + every)
    l3 = _trusted(amb2, bd.l3.coords + every)
    # the exceptional tail of each name some point names: every component
    # of a name passes through the points naming it, and no other does
    tails: dict[str, list[int]] = {}
    for i, p in enumerate(marked):
        for cname in p.components:
            tails.setdefault(cname, [0] * n)[i] = -1
    zero = [0] * n
    comps = tuple([
        _lift(
            c.name, c.branch, _trusted(amb2, c.cls.coords + tuple(tails.get(c.name, zero))), c.count
        )
        for c in bd.components
    ])
    return _assemble(amb2, d1, d2, d3, l1, l2, l3, comps, (), bd.reduced)
