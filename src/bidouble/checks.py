"""Self-contained consistency sweeps over the whole covered range.

Each check recomputes something two independent ways and reports a single
pass/fail result with a short detail string.  The random-data oracle and the
monomial-cone count deliberately avoid the closed formulas used by the
library: mismatches flag a defect in either path.  The oracle shares with
``invariants`` only the line bundles L_i that ``building_data`` derives from
each sampled datum; the intersection form, K_Y and the class arithmetic are
the oracles' own (see :mod:`bidouble.cover`).  A sampled datum on which
``invariants`` or an oracle raises counts as a mismatch.

``run_all`` runs the oracle sample in the calling process and every other
step in a forked child, so the two halves share the machine's cores.  The
oracle's cost does not depend on ``--chi-max``: about 105 ms, some 10 us per
valid datum, on a 2-vCPU Xeon VM under CPython 3.11.  The other steps took
about 65 ms together at 12, so the oracle, three fifths of the steps' time
there, sets ``check``'s wall time, which came to about 113 ms against 176 ms
for the steps in turn.  At 60 the pair sweeps, about 1 s, set it.
"""

from __future__ import annotations

import json
import os
import random
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import BinaryIO, NoReturn

from .cover import (
    BuildingData,
    CoverError,
    NON_NORMAL_GLUING,
    QUARTER_POINT,
    building_data,
    chi_oracle,
    invariants,
    ksq_oracle,
)
from .degenerations import degenerate
from .geography import FORMATS, atlas, emit
from .lattice import (
    HIRZEBRUCH,
    PLANE,
    DivClass,
    LatticeError,
    _HIRZEBRUCH,
    _trusted,
    h0,
    hirzebruch,
    intersect,
    plane,
)
from .recipes import (
    FAMILY,
    GENUS2_GENERAL,
    NOETHER_LINE,
    NOT_ADMISSIBLE,
    NOT_COVERED,
    PRODUCT_LINE,
    ConstructionCertificate,
    admissible,
    classify,
    construct,
)

ORACLE_SEED = 20240
ORACLE_SAMPLES = 10_000
# the largest degree or coefficient at which h0 meets the monomial count
MONOMIAL_GRID = 12


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_doc(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def covered_pairs(chi_max: int) -> Iterator[tuple[int, int]]:
    """Every pair the sweep constructs: the full strip up to the genus-3
    ceiling plus the product line."""
    for chi in range(1, chi_max + 1):
        for ksq in range(max(1, 2 * chi - 6), 8 * chi - 7):
            yield ksq, chi
        yield 8 * chi, chi


# written out rather than taken from recipes.FAMILIES, whose names classify
# returns, so that a region name outside the paper's split fails the check
REGIONS = frozenset(
    "NoetherLine PlaneSpecial12 PlaneSpecial13 Genus2General Line4chiMinus5 "
    "Line4chiMinus4 Genus3 ProductLine".split()
) | {NOT_COVERED, NOT_ADMISSIBLE}


def check_classify_totality(chi_max: int = 12) -> CheckResult:
    tested = 0
    for chi in range(1, chi_max + 1):
        for ksq in range(-20, 9 * chi + 10):
            tested += 1
            region = classify(ksq, chi)
            if region not in REGIONS:
                return CheckResult(
                    "classifyTotality", False, f"unknown region {region!r} at ({ksq}, {chi})"
                )
            if (region == NOT_ADMISSIBLE) != (not admissible(ksq, chi)):
                return CheckResult(
                    "classifyTotality", False, f"admissibility mismatch at ({ksq}, {chi})"
                )
    return CheckResult("classifyTotality", True, f"{tested} pairs classified")


# The sweeps over the covered pairs run as steps on one certificate each, so
# that every pair is built once and no certificate outlives its step: a list
# of all of them held about 2 MB more at chi <= 12.  A step returns how many
# items the certificate adds to the summary count, or the failure detail.


def check_construction_sweep(cert: ConstructionCertificate) -> int | str:
    ksq, chi = cert.requested_ksq, cert.requested_chi
    inv = cert.invariants
    # ok includes reducedness and the pair match, so these are tested first
    # to be named
    if not cert.data.reduced:
        return f"({ksq}, {chi}) data is non-reduced"
    if (inv.ksq, inv.chi) != (ksq, chi):
        return f"({ksq}, {chi}) rebuilt as ({inv.ksq}, {inv.chi})"
    if not cert.ok:
        bad = [c.name for c in cert.side_conditions if not c.satisfied]
        return f"({ksq}, {chi}) failed conditions {bad}"
    if inv.pg_estimated:
        return f"({ksq}, {chi}) pg only estimated"
    if cert.region == PRODUCT_LINE:
        if (inv.pg, inv.q) != (2 * chi + 2, chi + 3):
            return f"product ({ksq}, {chi}) pg/q off"
    elif inv.q != 0:
        return f"({ksq}, {chi}) has q = {inv.q}"
    return 1


def check_resolution_deltas(cert: ConstructionCertificate) -> int | str:
    if cert.pre_resolution is None:
        return 0
    pre = invariants(cert.pre_resolution)
    n = len(cert.data.ambient.points)
    if pre.ksq - n != cert.invariants.ksq or pre.chi != cert.invariants.chi:
        return (
            f"({cert.requested_ksq}, {cert.requested_chi}): {n} points, "
            f"({pre.ksq}, {pre.chi}) -> ({cert.invariants.ksq}, {cert.invariants.chi})"
        )
    return n


def check_horikawa_pairing(cert: ConstructionCertificate) -> int | str:
    if cert.fibration_genus != 2:
        return 0
    ksq, chi = cert.requested_ksq, cert.requested_chi
    got = intersect(cert.data.d1, cert.data.d2)
    if got != ksq - (2 * chi - 6):
        return f"({ksq}, {chi}): D1.D2 = {got}, expected {ksq - (2 * chi - 6)}"
    return 1


def check_degeneration_sweep(cert: ConstructionCertificate) -> int | str:
    if FAMILY[cert.region].degeneration is None:
        return 0
    pair = f"({cert.requested_ksq}, {cert.requested_chi})"
    dc = degenerate(cert)
    if not dc.ok or dc.invariants != cert.invariants or not dc.ledger:
        return f"{pair} degeneration inconsistent"
    kinds = [e.kind for e in dc.ledger]
    if cert.region == NOETHER_LINE:
        expected = kinds == [NON_NORMAL_GLUING] and dc.normalization is not None
    else:
        expected = kinds == [QUARTER_POINT] and dc.ledger[0].count == 1
    if not expected or any(e.gorenstein_index != 2 for e in dc.ledger):
        return f"{pair} ledger {kinds} unexpected"
    return 1


def check_h0_d3_identity(cert: ConstructionCertificate) -> int | str:
    # counted term by term, so that the check does not repeat the h0 call
    # behind Genus2General's own h0(D3) side condition
    if cert.region != GENUS2_GENERAL:
        return 0
    ksq, chi = cert.requested_ksq, cert.requested_chi
    val = monomial_count(cert.data.d3)
    if val != 8 * chi - 4 - 2 * ksq or val < 8:
        return f"({ksq}, {chi}): h0(D3) = {val}"
    return 1


def _below(draw: Callable[[int], int], n: int) -> int:
    """``randrange(n)`` as ``random.Random`` computes it for n >= 1: k =
    n.bit_length() random bits, drawn again while they reach n.  So a
    seeded stream gives the same values, without randrange's own calls."""
    k = n.bit_length()
    r = draw(k)
    while r >= n:
        r = draw(k)
    return r


def sample_building_data(rng: random.Random) -> BuildingData:
    """One random parity-consistent datum on F_e, e <= 3, coefficients <= 12.

    Raises CoverError when the draw violates a validity rule; callers
    resample.
    """
    draw = rng.getrandbits
    amb = _HIRZEBRUCH[_below(draw, 4)]
    a3, b3 = _below(draw, 13), _below(draw, 13)
    # D1 and D2 match D3's parity: lo + 2j <= 12 with j drawn below 7 - lo
    lo_a, lo_b = a3 & 1, b3 & 1
    n_a, n_b = 7 - lo_a, 7 - lo_b
    # the draws are ints, two per class on a rank-2 ambient, so the
    # classes are built trusted; building_data validates the datum
    d3 = _trusted(amb, (a3, b3))
    d1 = _trusted(amb, (lo_a + 2 * _below(draw, n_a), lo_b + 2 * _below(draw, n_b)))
    d2 = _trusted(amb, (lo_a + 2 * _below(draw, n_a), lo_b + 2 * _below(draw, n_b)))
    return building_data(amb, d1, d2, d3)


def check_oracle_sample() -> CheckResult:
    rng = random.Random(ORACLE_SEED)
    valid = 0
    mismatches = 0
    attempts = 0
    while valid < ORACLE_SAMPLES:
        attempts += 1
        if attempts > 50 * ORACLE_SAMPLES:
            return CheckResult(
                "oracleSample", False, f"only {valid} valid data in {attempts} draws"
            )
        try:
            bd = sample_building_data(rng)
        except CoverError:
            continue
        valid += 1
        # a datum the closed forms or an oracle refuse is a defect in the
        # library, not a bad request, so it counts as a mismatch
        try:
            inv = invariants(bd)
            agree = inv.chi == chi_oracle(bd) and inv.ksq == ksq_oracle(bd)
        except (CoverError, LatticeError):
            agree = False
        if not agree:
            mismatches += 1
    return CheckResult(
        "oracleSample",
        mismatches == 0,
        f"{valid} samples, {mismatches} mismatches",
    )


def monomial_count(d: DivClass) -> int:
    """Sections counted as lattice points, term by term; no closed form."""
    ambient = d.ambient
    if ambient.kind == PLANE:
        deg = d.coords[0]
        return sum(
            1 for i in range(deg + 1) for j in range(deg + 1) if i + j <= deg
        )
    if ambient.kind != HIRZEBRUCH:
        raise ValueError("monomial counting works on the plane and on F_e only")
    a, b = d.coords
    if a < 0:
        return 0
    total = 0
    for i in range(a + 1):
        fiber_degree = b - i * ambient.e
        for _ in range(fiber_degree + 1):
            total += 1
    return total


def check_h0_monomial_grid() -> CheckResult:
    tested = 0
    amb = plane()
    for deg in range(MONOMIAL_GRID + 1):
        d = amb.divisor(deg)
        if h0(d) != monomial_count(d):
            return CheckResult("h0MonomialGrid", False, f"plane degree {deg}")
        tested += 1
    for e in range(4):
        amb = hirzebruch(e)
        for a in range(MONOMIAL_GRID + 1):
            for b in range(MONOMIAL_GRID + 1):
                d = amb.divisor(a, b)
                if h0(d) != monomial_count(d):
                    return CheckResult(
                        "h0MonomialGrid", False, f"F_{e} class ({a}, {b})"
                    )
                tested += 1
    return CheckResult("h0MonomialGrid", True, f"{tested} classes agree")


def check_emission_determinism(chi_max: int = 6) -> CheckResult:
    # each format is compared across two independent builds of the atlas
    rows = atlas(chi_max)
    first = {fmt: emit(rows, fmt) for fmt in FORMATS}
    rows = atlas(chi_max)
    second = {fmt: emit(rows, fmt) for fmt in FORMATS}
    for fmt in FORMATS:
        if first[fmt] != second[fmt]:
            return CheckResult("emissionDeterminism", False, f"{fmt} output drifted")
    # the JSON must read back as the rows it was given; both sides go through
    # the stdlib's compact encoder, which, unlike ==, tells true from 1
    expected = {"chiMax": chi_max, "rows": [r.to_doc() for r in rows]}
    parsed = json.loads(first["json"])
    if json.dumps(parsed, sort_keys=True) != json.dumps(expected, sort_keys=True):
        return CheckResult("emissionDeterminism", False, "json output does not parse back")
    sizes = ", ".join(f"{fmt} {len(first[fmt])}B" for fmt in FORMATS)
    return CheckResult("emissionDeterminism", True, sizes)


def sweep_pairs(chi_max: int) -> dict[str, CheckResult]:
    """The five steps on the covered pairs, by name; each pair is built once."""
    # looked up here, not at import, so that wrappers put on the module apply
    sweeps = (
        ("constructionSweep", check_construction_sweep, "{} certificates exact"),
        ("resolutionDeltas", check_resolution_deltas, "{} resolutions, each -1/0"),
        ("horikawaPairing", check_horikawa_pairing, "{} genus-2 pairings match"),
        ("degenerationSweep", check_degeneration_sweep, "{} degenerations verified"),
        ("h0D3Identity", check_h0_d3_identity, "{} trisection spaces match"),
    )
    counts = [0] * len(sweeps)
    failures: list[str | None] = [None] * len(sweeps)
    for ksq, chi in covered_pairs(chi_max):
        cert = construct(ksq, chi)
        for i, (_, step, _) in enumerate(sweeps):
            if failures[i] is None:
                got = step(cert)
                if isinstance(got, str):
                    failures[i] = got
                else:
                    counts[i] += got
    return {
        name: CheckResult(name, fault is None, summary.format(n) if fault is None else fault)
        for (name, _, summary), n, fault in zip(sweeps, counts, failures)
    }


def _beside_oracle(chi_max: int) -> list[CheckResult]:
    """Every step but the oracle sample, in report order."""
    swept = sweep_pairs(chi_max)
    return [
        check_classify_totality(chi_max),
        swept["constructionSweep"],
        swept["resolutionDeltas"],
        swept["horikawaPairing"],
        swept["degenerationSweep"],
        check_h0_monomial_grid(),
        swept["h0D3Identity"],
        check_emission_determinism(min(chi_max, 6)),
    ]


def _serve(sink: BinaryIO, chi_max: int) -> NoReturn:
    """The forked child of ``run_all``: sends the steps beside the oracle as
    JSON and exits 0, or sends the exception that stopped them, pickled, and
    exits 1.  It ends in ``os._exit``, so that no buffer, atexit handler or
    caller of ``run_all`` runs twice."""
    code = 1  # set before the try, so that os._exit has it on every path
    try:
        try:
            payload = json.dumps([r.to_doc() for r in _beside_oracle(chi_max)]).encode()
            code = 0
        except BaseException as err:
            import pickle

            payload = pickle.dumps(err)
        sink.write(payload)
        sink.flush()
    finally:
        os._exit(code)


def _oracle_beside_child(chi_max: int) -> tuple[CheckResult, list[CheckResult]]:
    """The oracle sample, run here, and the other steps, run in a forked
    child (``_serve``); the child is reaped on every path."""
    read_fd, write_fd = os.pipe()
    with open(read_fd, "rb") as pipe:
        with open(write_fd, "wb") as sink:
            pid = os.fork()
            if pid == 0:
                _serve(sink, chi_max)
        try:
            oracle = check_oracle_sample()
            payload = pipe.read()
        except BaseException:
            # signal and pickle are imported on the error paths only: they
            # would add about 1 and 2 ms to every start-up
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return oracle, [CheckResult(**doc) for doc in json.loads(payload)]
    if code == 1 and payload:
        import pickle

        raise pickle.loads(payload)
    raise ChildProcessError(f"the check steps beside the oracle sample ended with status {code}")


def run_all(chi_max: int = 12) -> list[CheckResult]:
    """Every check, in report order.

    Where ``os.fork`` exists and no other thread is alive, a forked child
    runs every step but the oracle sample while this process runs the
    oracle, so the two share the machine's cores; otherwise the steps run
    here, one after another.  The report is the same either way, and an
    exception in the child is raised here with its type and message.
    """
    if hasattr(os, "fork") and threading.active_count() == 1:
        oracle, beside = _oracle_beside_child(chi_max)
    else:
        # forking with another thread alive can deadlock the child
        beside = _beside_oracle(chi_max)
        oracle = check_oracle_sample()
    return [*beside[:5], oracle, *beside[5:]]
