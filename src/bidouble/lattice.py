"""Exact integer intersection theory on rational surface models.

Three ambient models are supported, each with a fixed integral basis of the
Picard group:

* projective plane          basis (H)            H.H = 1
* Hirzebruch surface F_e    basis (D0, F)        D0.D0 = -e, D0.F = 1, F.F = 0
* blow-up of F_e            basis (D0, F, E1..)  Ei.Ei = -1, Ei.Ej = 0, and
                                                 Ei orthogonal to pullbacks

Divisor classes are integer coordinate vectors in the ambient basis and all
arithmetic is exact.  Points are combinatorial labels, never coordinates:
a name and the branch components through it.  Every point is a triple
point, on all three branch divisors: a bidouble cover is smooth over
points where at most two of them meet transversally, so no other point is
marked or blown up.  Documents record that as ``"branches": [1, 2, 3]``.
The lattice treats every point as in general position, which it cannot
check and documents record as ``"general": true``.  ``positivity`` is exact on the plane, on F_e and on
F_0 blown up at up to three centres in general position, and refuses other
blow-ups.

Canonical classes: -3H on the plane, -2*D0-(e+2)*F on F_e, and the pullback
plus the sum of exceptional classes on a blow-up.  An ``Ambient`` computes
these canonical coordinates once, when it is built, into its derived field
``_canonical`` (like ``rank``, neither compared nor shown), which the
kernels of ``cover`` that need K read; ``cover``'s oracles write K out on
their own instead.

Trusted construction: the public ``DivClass(...)`` constructor refuses a
coordinate that is not a true integer (``type(c) is int``: a bool, float or
string is never rounded) and checks the count against the ambient's rank;
the integer fields of ``Ambient`` are checked by the same rule, a
``PointLabel`` refuses a name or component name that is not a ``str``, and
an ``Ambient`` refuses a centre that is not a ``PointLabel``.
The ordered fields, a class's coordinates, a point's ``components`` and an
ambient's centres, are taken only from a ``list`` or ``tuple``: a set or
dict would order them by hash seed, and a dict gives its keys.
Arithmetic on classes that already passed it builds its result through
``_trusted``, which skips both: sums, differences, integer multiples and
exact quotients of integer vectors of the ambient's rank are again such
vectors.  That arithmetic is
``+`` and ``-``, the empty sum ``Ambient.zero()``, and the coordinate
kernels of ``cover``: the line bundles in ``building_data``, 2K + B in
``invariants``, and the lift through blown-up triple points in
``resolve_triple_point``, each computed on coordinate tuples and wrapped
once.  The adjoint classes K + L_i of ``invariants`` are never wrapped:
it pairs and counts them as tuples through ``_pairing`` and
``_h0_coords``, the coordinate kernels that hold the intersection form
and h0's formula, and that ``intersect``, past its ambient check, and
``h0_flagged`` call.  The resolution builds its blow-up
with ``_blow_up``, which skips the checks of ``Ambient`` too: the ruled
ambient it extends and the marked points it adds as centres passed them
already, and ``building_data`` refuses a marked point named like a centre,
so the centres' names stay distinct.  ``_blow_up`` sets ``rank`` and
``_canonical`` by the rule of ``Ambient.__post_init__``, and the
resolution appends each class's exceptional tail to its coordinates on the
ambient it extends.  Two builders of fixed-shape inputs use ``_trusted``
too, since each coordinate they pass is an ``int`` by construction and
their count is the ambient's rank: the data recipes of ``recipes`` (the
plane, Genus2, Genus3 and product data, and the shared-section
degeneration's fiber on F_e), whose coordinates are literals or integer
arithmetic on a pair that ``recipe`` has refused unless it is two
``int``s, and the sampler of ``check``'s oracle, whose coordinates are
``getrandbits`` draws on a shared F_e of rank 2.
``building_data`` validates each datum they make, once.  ``_builder``
makes ``_trusted`` and the ambient builder of ``_blow_up``, and it is the
one place that builds a value type without its frozen ``__init__`` and
``__post_init__``: ``cover``, ``recipes``, ``degenerations`` and ``cli``
take from it their builders of components, building data, invariants,
ledger entries, side conditions, construction and degeneration
certificates, normalizations and ``verify``'s check results, whose fields
have passed every check or are derived from validated data or, for the
recipes' components, are literals, exact integers and classes of data
already validated.
A document's fields reach these constructors as they are, so a JSON
boolean or float never passes as a coordinate and a string or an object
never passes as a sequence of names; ``doc_int`` applies the same rule to
an integer that no constructor owns.
Ambients compare by identity first and by value second: ``plane()`` and
``hirzebruch(e)`` hand out shared instances, while equal ambients built
separately (as from a document) still match.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from operator import add, mul, sub

PLANE = "ProjectivePlane"
HIRZEBRUCH = "Hirzebruch"
BLOWUP = "BlownUp"

AMPLE = "Ample"
NEF_ONLY = "NefOnly"
NOT_NEF = "NotNef"


class LatticeError(ValueError):
    pass


class AmbientMismatch(LatticeError):
    pass


class UnsupportedClass(LatticeError):
    pass


def doc_int(value: object, what: str) -> int:
    """An integer field of an input document; booleans and floats are refused."""
    if type(value) is not int:
        raise LatticeError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class PointLabel:
    """A named point on all three branch divisors: a marked triple point of
    building data, or a blown-up centre of an ambient.

    Where the three branches meet, the cover has a 1/4(1,1) quarter point,
    and off such points it stays smooth, so no other kind of point is ever
    marked.  ``components`` names the irreducible branch pieces through the
    point, from a list or tuple: on a marked point, one single-copy
    component of each branch, a rule ``cover.building_data`` checks.
    ``to_doc`` writes two fixed fields: the branch set, as
    ``"branches": [1, 2, 3]``, and the general-position assumption of the
    lattice, as ``"general": true``.
    """

    name: str
    components: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if type(self.name) is not str:
            raise LatticeError(f"point name must be a string, got {self.name!r}")
        # a bare string is no sequence of names
        if type(self.components) not in (list, tuple):
            raise LatticeError(
                f"point components must be a sequence of names, got {self.components!r}"
            )
        object.__setattr__(self, "components", tuple(self.components))
        for c in self.components:
            if type(c) is not str:
                raise LatticeError(f"point components must be strings, got {c!r}")

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "branches": [1, 2, 3],
            "components": list(self.components),
            "general": True,
        }


def _ruled_canonical(e: int, centres: int) -> tuple[int, ...]:
    """K on F_e blown up at ``centres`` points: -2*D0 - (e+2)*F + sum E_i."""
    return (-2, -(e + 2)) + (1,) * centres


@dataclass(frozen=True, slots=True)
class Ambient:
    """One of the three surface models; immutable and hashable.  ``rank``
    and ``_canonical``, the coordinates of the canonical class, are derived
    from the other fields when the ambient is built."""

    kind: str
    e: int = 0
    points: tuple[PointLabel, ...] = ()
    rank: int = field(init=False, repr=False, compare=False)
    _canonical: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if type(self.points) not in (list, tuple):
            raise LatticeError(
                f"blown-up centres must be a list or tuple of point labels, got {self.points!r}"
            )
        object.__setattr__(self, "points", tuple(self.points))
        if self.kind not in (PLANE, HIRZEBRUCH, BLOWUP):
            raise LatticeError(f"unknown ambient kind {self.kind!r}")
        # the canonical coordinates below are built from e without a check
        if type(self.e) is not int:
            raise LatticeError(f"Hirzebruch parameter e must be an integer, got {self.e!r}")
        if self.e < 0:
            raise LatticeError("Hirzebruch parameter e must be >= 0")
        if self.kind == PLANE and (self.e != 0 or self.points):
            raise LatticeError("the plane carries no e parameter and no blown-up points")
        if self.kind == HIRZEBRUCH and self.points:
            raise LatticeError("an unblown Hirzebruch surface carries no points")
        if self.kind == BLOWUP and not self.points:
            raise LatticeError("a blow-up needs at least one centre")
        for p in self.points:
            if type(p) is not PointLabel:
                raise LatticeError(f"blown-up centres must be point labels, got {p!r}")
        names = [p.name for p in self.points]
        if len(set(names)) != len(names):
            raise LatticeError("blown-up centres must have distinct names")
        canonical = (-3,) if self.kind == PLANE else _ruled_canonical(self.e, len(self.points))
        object.__setattr__(self, "rank", len(canonical))
        object.__setattr__(self, "_canonical", canonical)

    def basis_labels(self) -> tuple[str, ...]:
        if self.kind == PLANE:
            return ("H",)
        return ("D0", "F") + tuple(f"E{i + 1}" for i in range(len(self.points)))

    def divisor(self, *coords: int) -> "DivClass":
        return DivClass(self, coords)

    def zero(self) -> "DivClass":
        return _trusted(self, (0,) * self.rank)

    def to_doc(self) -> dict:
        if self.kind == PLANE:
            return {"kind": PLANE}
        if self.kind == HIRZEBRUCH:
            return {"kind": HIRZEBRUCH, "e": self.e}
        return {"kind": BLOWUP, "e": self.e, "points": [p.to_doc() for p in self.points]}


_PLANE = Ambient(PLANE)
# the recipes build on F_0, F_1 and F_2, and check's oracle sample draws on
# F_0 to F_3; other e get a fresh instance
_HIRZEBRUCH = {e: Ambient(HIRZEBRUCH, e) for e in range(4)}


def plane() -> Ambient:
    return _PLANE


def hirzebruch(e: int) -> Ambient:
    # True and 2.0 hash like 1 and 2, so only an int may hit the cache;
    # anything else goes to the constructor, which refuses it
    amb = _HIRZEBRUCH.get(e) if type(e) is int else None
    return amb if amb is not None else Ambient(HIRZEBRUCH, e)


@dataclass(frozen=True, slots=True)
class DivClass:
    """Integer divisor class in the basis of its ambient."""

    ambient: Ambient
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.coords) not in (list, tuple):
            raise LatticeError(
                f"class coordinates must be a list or tuple, got {self.coords!r}"
            )
        coords = tuple(self.coords)
        for c in coords:
            if type(c) is not int:
                raise LatticeError(f"class coordinates must be integers, got {c!r}")
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.ambient.rank:
            raise LatticeError(
                f"expected {self.ambient.rank} coordinates, got {len(self.coords)}"
            )

    def _same(self, other: "DivClass") -> None:
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise AmbientMismatch("divisor classes live on different ambients")

    def __add__(self, other: "DivClass") -> "DivClass":
        self._same(other)
        return _trusted(self.ambient, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "DivClass") -> "DivClass":
        self._same(other)
        return _trusted(self.ambient, tuple(map(sub, self.coords, other.coords)))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        labels = self.ambient.basis_labels()
        parts: list[str] = []
        for c, lab in zip(self.coords, labels):
            if c == 0:
                continue
            if c == 1:
                term = lab
            elif c == -1:
                term = f"-{lab}"
            else:
                term = f"{c}{lab}"
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) if parts else "0"


def _builder(cls: type) -> Callable:
    """A positional constructor of the frozen slotted dataclass ``cls`` for
    fields that are already validated: it stores each argument, in
    ``__slots__`` order, through its slot descriptor, so neither the frozen
    ``__init__`` nor ``__post_init__`` runs.

    Its code is generated once, as ``dataclasses`` generates ``__init__``,
    because a loop over the descriptors costs about as much as the
    ``__init__`` it passes by.  The generated code never names a field, so a
    field named like one of its own names (``c``, ``new``, ``o``) is safe.
    """
    slots = cls.__slots__
    args = ", ".join(f"a{i}" for i in range(len(slots)))
    stores = "".join(f"    s{i}(o, a{i})\n" for i in range(len(slots)))
    scope = {f"s{i}": getattr(cls, f).__set__ for i, f in enumerate(slots)}
    scope.update(c=cls, new=object.__new__)
    exec(f"def build({args}):\n    o = new(c)\n{stores}    return o\n", scope)
    build = scope["build"]
    build.__qualname__ = f"_builder({cls.__name__})"
    return build


# results of arithmetic on validated classes
_trusted = _builder(DivClass)
_ambient = _builder(Ambient)


def _blow_up(ambient: Ambient, centres: tuple[PointLabel, ...]) -> Ambient:
    """The blow-up of the ruled ``ambient`` at ``centres`` besides its own,
    built without the checks of ``Ambient``: the caller passes a validated
    ruled ambient and validated point labels whose names are distinct and
    are no centre's name.  ``rank`` and ``_canonical`` follow the rule of
    ``Ambient.__post_init__``."""
    points = ambient.points + centres
    canonical = _ruled_canonical(ambient.e, len(points))
    return _ambient(BLOWUP, ambient.e, points, len(canonical), canonical)


def _pairing(ambient: Ambient, u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The intersection form of ``ambient`` on two coordinate tuples of its
    rank, the one definition of the form in the library: H.H = 1 on the
    plane, and otherwise D0.D0 = -e, D0.F = 1, F.F = 0, Ei.Ej = -delta_ij."""
    u0, v0 = u[0], v[0]
    if ambient.kind == PLANE:
        return u0 * v0
    s = u0 * (v[1] - ambient.e * v0) + u[1] * v0
    if len(u) > 2:
        s -= sum(map(mul, u[2:], v[2:]))
    return s


def intersect(a: DivClass, b: DivClass) -> int:
    """Intersection number of two classes on the same ambient, through the
    coordinate kernel ``_pairing``."""
    amb = a.ambient
    if amb is not b.ambient and amb != b.ambient:
        raise AmbientMismatch("intersection needs both classes on one ambient")
    return _pairing(amb, a.coords, b.coords)


def _h0_coords(ambient: Ambient, u: tuple[int, ...]) -> tuple[int, bool]:
    """``h0_flagged`` of the class with coordinates ``u`` on ``ambient``,
    the one definition of h0's formula in the library.  The class is built
    only to name it in an ``UnsupportedClass``."""
    if ambient.kind == PLANE:
        n = u[0]
        return ((n + 1) * (n + 2) // 2 if n >= 0 else 0, False)
    k = 0
    if ambient.kind == BLOWUP:
        tail = u[2:]
        k = tail.count(-1)
        if k + tail.count(0) != len(tail):
            raise UnsupportedClass(
                f"unsupported blow-up class shape {_trusted(ambient, u)}: exceptional "
                "multiplicities must be 0 or 1"
            )
    a, b = u[0], u[1]
    if a < 0 or b < 0:
        return (0, k > 0)
    # pushforward along the ruling: sum over j = 0..a of h0(O(b - j*e)) on
    # the line, whose terms b - j*e + 1 stay positive up to j = m
    e = ambient.e
    m = a if e == 0 else min(a, b // e)
    base = (m + 1) * (b + 1) - e * m * (m + 1) // 2
    return (max(0, base - k), True) if k else (base, False)


def h0_flagged(d: DivClass) -> tuple[int, bool]:
    """h0 of ``d`` on its own ambient, together with a flag marking use of
    the generic-position estimate, through the coordinate kernel
    ``_h0_coords``.

    On the plane and on F_e the value is exact and the flag is False.  There
    a class has sections exactly when no coordinate is negative: on F_e the
    j = 0 term of the kernel's sum is h0(O(b)) = b + 1 > 0 once a, b >= 0,
    and ``cover.building_data`` reads effectivity on F_e off these signs.
    On a blow-up only classes q*A - sum m_i E_i with m_i in {0,1} are
    supported; the value is max(0, h0(A) - #{m_i = 1}), an estimate that
    assumes the centres in general position, and the flag is True exactly
    when some m_i = 1.
    """
    return _h0_coords(d.ambient, d.coords)


def h0(d: DivClass) -> int:
    return _h0_coords(d.ambient, d.coords)[0]


def positivity(d: DivClass) -> str:
    """Positivity verdict of ``d`` on its own ambient: Ample, NefOnly or
    NotNef, by the sign of the least pairing of ``d`` with curves that span
    the ambient's cone of curves.

    Those curves are H on the plane and F, D0 on F_e.  F_0 blown up at k <= 3
    centres in general position is a del Pezzo surface, whose cone is spanned
    by its (-1)-curves E_i, F - E_i, D0 - E_i and, for k = 3, D0 + F - E1 -
    E2 - E3 (Manin, *Cubic Forms*, ch. IV), so the verdict is exact on every
    supported ambient.  Blow-ups of F_e with e > 0, and blow-ups at more than
    three centres, raise ``UnsupportedClass``.
    """
    ambient = d.ambient
    u = d.coords
    if ambient.kind == PLANE:
        least = u[0]
    elif ambient.kind == HIRZEBRUCH:
        least = min(u[0], u[1] - ambient.e * u[0])
    else:
        a, b, tail = u[0], u[1], u[2:]
        if ambient.e or len(tail) > 3:
            raise UnsupportedClass(
                f"positivity needs F_0 blown up at up to three centres, got F_{ambient.e}"
                f" blown up at {len(tail)}"
            )
        # d pairs with E_i, F - E_i and D0 - E_i to m_i, a - m_i and b - m_i,
        # where m_i = -c_i, so only the least and the most m_i matter
        most = -min(tail)
        least = min(-max(tail), a - most, b - most)
        if len(tail) == 3:
            least = min(least, a + b + sum(tail))
    if least > 0:
        return AMPLE
    return NEF_ONLY if least == 0 else NOT_NEF
