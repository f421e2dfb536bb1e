"""Acceptance criteria for the certificate engine.

One test per criterion; each prints a single ``criterion N: PASS|FAIL``
line (shown with ``pytest -s``; the pytest verdict carries the same
information).  The oracles here are written inline on purpose: raw integer
arithmetic on coordinate tuples and literal lattice-point enumeration,
independent of the library's closed forms.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from itertools import chain

import pytest

from bidouble.checks import sample_building_data
from bidouble.cli import main
from bidouble.cover import (
    QUARTER_POINT,
    CoverError,
    building_data,
    invariants,
    resolve_triple_point,
)
from bidouble.geography import FORMATS, atlas, canonical_json, emit
from bidouble.lattice import AMPLE, NEF_ONLY, h0, hirzebruch, plane
from bidouble.recipes import (
    GENUS2_GENERAL,
    LINE_4CHI_MINUS_4,
    LINE_4CHI_MINUS_5,
    NOETHER_LINE,
    PAIR_3_2_NOTE,
    PRODUCT_LINE,
    construct,
)
from bidouble.degenerations import degenerate

CHI_MAX = 60


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}: {detail}"


def pair_inline(e: int, u: tuple, v: tuple) -> int:
    # intersection numbers spelled out: section/fiber block minus the
    # diagonal exceptional block
    base = u[0] * v[1] + u[1] * v[0] - e * u[0] * v[0]
    return base - sum(m * n for m, n in zip(u[2:], v[2:]))


def sweep_pairs():
    for chi in range(1, CHI_MAX + 1):
        yield from (
            (ksq, chi)
            for ksq in chain(range(max(1, 2 * chi - 6), 8 * chi - 7), [8 * chi])
        )


@pytest.fixture(scope="module")
def sweep():
    start = time.perf_counter()
    certs = {key: construct(*key) for key in sweep_pairs()}
    elapsed = time.perf_counter() - start
    return certs, elapsed


def test_criterion_1_full_sweep_exact_and_fast(sweep):
    certs, elapsed = sweep
    bad = [
        key
        for key, cert in certs.items()
        if not cert.ok
        or (cert.invariants.ksq, cert.invariants.chi) != key
        or cert.invariants.pg_estimated
    ]
    ok = not bad and elapsed < 10.0
    report(
        1,
        f"{len(certs)} pairs with chi <= {CHI_MAX} constructed exactly in "
        f"{elapsed:.2f}s (< 10s)",
        ok,
        f"failures: {bad[:5]}",
    )


def test_criterion_2_formula_spot_checks():
    expected = {
        (1, 2): (1, 2, 1, 0),
        (1, 3): (1, 3, 2, 0),
        (2, 4): (2, 4, 3, 0),
        (4, 5): (4, 5, 4, 0),
        (7, 3): (7, 3, 2, 0),
        (8, 3): (8, 3, 2, 0),
        (20, 7): (20, 7, 6, 0),
        (17, 5): (17, 5, 4, 0),
        (24, 3): (24, 3, 8, 6),
        (8, 1): (8, 1, 4, 4),
    }
    bad = []
    for key, quad in expected.items():
        inv = construct(*key).invariants
        if (inv.ksq, inv.chi, inv.pg, inv.q) != quad:
            bad.append((key, (inv.ksq, inv.chi, inv.pg, inv.q)))
    report(
        2,
        f"{len(expected)} frozen invariant quadruples reproduced",
        not bad,
        str(bad),
    )


def test_criterion_3_random_data_oracle():
    rng = random.Random(97531)
    target = 10_000
    valid = 0
    mismatches = []
    while valid < target:
        try:
            bd = sample_building_data(rng)
        except CoverError:
            continue
        valid += 1
        e = bd.ambient.e
        k = (-2, -(e + 2))
        b = tuple(x + y + z for x, y, z in zip(bd.d1.coords, bd.d2.coords, bd.d3.coords))
        ksq_inline = (
            4 * pair_inline(e, k, k) + 4 * pair_inline(e, k, b) + pair_inline(e, b, b)
        )
        total = 0
        for l in (bd.l1, bd.l2, bd.l3):
            lk = tuple(x + y for x, y in zip(l.coords, k))
            total += pair_inline(e, l.coords, lk)
        assert total % 2 == 0
        chi_inline = 4 + total // 2
        inv = invariants(bd)
        if (inv.ksq, inv.chi) != (ksq_inline, chi_inline):
            mismatches.append((bd.d1.coords, bd.d2.coords, bd.d3.coords, e))
    report(
        3,
        f"{valid} random ruled data: invariants equal the inline forms, "
        f"{len(mismatches)} mismatches",
        not mismatches,
        str(mismatches[:3]),
    )


def test_criterion_4_resolution_deltas(sweep):
    certs, _ = sweep
    steps = 0
    bad = []
    for key, cert in certs.items():
        if cert.pre_resolution is None:
            continue
        # the data marking the first k points of pre, each resolved at once
        pre = cert.pre_resolution
        stage, inv = pre, invariants(pre)
        for k, point in enumerate(pre.incidence, start=1):
            marked = building_data(
                pre.ambient, pre.d1, pre.d2, pre.d3, pre.components, pre.incidence[:k]
            )
            nxt = resolve_triple_point(marked)
            nxt_inv = invariants(nxt)
            if (nxt_inv.ksq - inv.ksq, nxt_inv.chi - inv.chi) != (-1, 0):
                bad.append((key, point.name))
            stage, inv = nxt, nxt_inv
            steps += 1
        if stage != cert.data:
            bad.append((key, "endpoint"))
    report(
        4,
        f"{steps} single-point resolutions each shift (Ksq, chi) by (-1, 0)",
        not bad,
        str(bad[:5]),
    )


def test_criterion_5_horikawa_pairing(sweep):
    certs, _ = sweep
    seen = 0
    bad = []
    for (ksq, chi), cert in certs.items():
        if cert.fibration_genus != 2:
            continue
        seen += 1
        got = pair_inline(cert.data.ambient.e, cert.data.d1.coords, cert.data.d2.coords)
        if got != ksq - (2 * chi - 6):
            bad.append((ksq, chi, got))
    report(
        5,
        f"{seen} genus-2 certificates have D1.D2 = Ksq - (2chi - 6)",
        not bad,
        str(bad[:5]),
    )


def test_criterion_6_irregularity_rule(sweep):
    certs, _ = sweep
    bad = []
    for (ksq, chi), cert in certs.items():
        inv = cert.invariants
        if cert.region == PRODUCT_LINE:
            if (inv.pg, inv.q) != (2 * chi + 2, chi + 3):
                bad.append((ksq, chi, inv.pg, inv.q))
        elif inv.q != 0:
            bad.append((ksq, chi, inv.pg, inv.q))
    report(
        6,
        "q = 0 off the product line; pg = 2chi + 2 and q = chi + 3 on it",
        not bad,
        str(bad[:5]),
    )


def test_criterion_7_degenerations(sweep):
    certs, _ = sweep
    seen = 0
    bad = []
    for (ksq, chi), cert in certs.items():
        if cert.region == PRODUCT_LINE:
            continue
        seen += 1
        dc = degenerate(cert)
        if dc.invariants != cert.invariants or not dc.ledger or not dc.ok:
            bad.append((ksq, chi, "stability"))
            continue
        if any(e.gorenstein_index != 2 for e in dc.ledger):
            bad.append((ksq, chi, "index"))
            continue
        kinds = [e.kind for e in dc.ledger]
        if cert.region == NOETHER_LINE:
            n = dc.normalization
            d = dc.data
            expected_c2 = tuple(x - y for x, y in zip(d.d2.coords, d.d1.coords))
            expected_c3 = tuple(x + y for x, y in zip(d.d1.coords, d.d3.coords))
            if (
                kinds != ["NonNormalGluing"]
                or n is None
                or any(n.c1.coords)
                or n.c2.coords != expected_c2
                or n.c3.coords != expected_c3
            ):
                bad.append((ksq, chi, "noether shape"))
        elif kinds != ["QuarterPoint"] or dc.ledger[0].count != 1:
            bad.append((ksq, chi, "quarter point"))
    report(
        7,
        f"{seen} degenerations keep invariants and carry the index-2 ledger",
        not bad,
        str(bad[:5]),
    )


def test_criterion_8_section_counts(sweep):
    certs, _ = sweep
    bad = []
    amb = plane()
    for deg in range(13):
        lattice_points = sum(
            1 for i in range(deg + 1) for j in range(deg + 1 - i)
        )
        if h0(amb.divisor(deg)) != lattice_points:
            bad.append(("plane", deg))
    for e in range(4):
        amb = hirzebruch(e)
        for a in range(13):
            for b in range(13):
                lattice_points = sum(
                    1
                    for i in range(a + 1)
                    for j in range(b - i * e + 1)
                )
                if h0(amb.divisor(a, b)) != lattice_points:
                    bad.append((e, a, b))
    seen = 0
    for (ksq, chi), cert in certs.items():
        if cert.region != GENUS2_GENERAL:
            continue
        seen += 1
        val = h0(cert.data.d3)
        if val != 8 * chi - 4 - 2 * ksq or val < 8:
            bad.append((ksq, chi, val))
    report(
        8,
        f"section counts match lattice-point enumeration; {seen} trisection "
        "spaces satisfy h0(D3) = 8chi - 4 - 2Ksq >= 8",
        not bad,
        str(bad[:5]),
    )


def test_criterion_9_atlas_determinism(tmp_path):
    in_process = all(
        emit(atlas(12), fmt) == emit(atlas(12), fmt) for fmt in FORMATS
    )
    outputs = []
    for run in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "bidouble",
                "atlas",
                "--chi-max",
                "6",
                "--format",
                "json",
            ],
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    subprocess_same = outputs[0] == outputs[1] and json.loads(outputs[0])["chiMax"] == 6
    report(
        9,
        "atlas emission is byte-identical across runs (in-process and subprocess)",
        in_process and subprocess_same,
    )


def test_criterion_10_lines_by_the_genus3_recipe(sweep, tmp_path):
    # the lines 4chi - 5 and 4chi - 4 below the Genus3 foot are built by the
    # Genus3 recipe: epsilon 1 and 0 resolved points, and a spare fiber
    # through one new point p(epsilon+1) in the degeneration
    certs, _ = sweep
    epsilon = {LINE_4CHI_MINUS_5: 1, LINE_4CHI_MINUS_4: 0}
    seen = 0
    bad = []
    for (ksq, chi), cert in certs.items():
        if cert.region not in epsilon:
            continue
        seen += 1
        inv = cert.invariants
        if (
            not cert.ok
            or (inv.ksq, inv.chi, inv.q) != (ksq, chi, 0)
            or inv.pg_estimated
            or (cert.fibration_genus, cert.epsilon) != (3, epsilon[cert.region])
        ):
            bad.append((ksq, chi, "construction"))
        nef_only = (ksq, chi) == (3, 2)
        if cert.ampleness != (NEF_ONLY if nef_only else AMPLE) or cert.notes != (
            (PAIR_3_2_NOTE,) if nef_only else ()
        ):
            bad.append((ksq, chi, "ampleness"))
        dc = degenerate(cert)
        witness = f"p{cert.epsilon + 1}"
        if not dc.ok or [(e.kind, e.witness_point) for e in dc.ledger] != [
            (QUARTER_POINT, witness)
        ]:
            bad.append((ksq, chi, "degeneration"))
        for kind, doc in (("construction", cert.to_doc()), ("degeneration", dc.to_doc())):
            path = tmp_path / f"{kind}-{ksq}-{chi}.json"
            path.write_text(canonical_json(doc), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                if main(["verify", str(path)]) != 0:
                    bad.append((ksq, chi, f"verify {kind}"))
    report(
        10,
        f"{seen} pairs on 4chi - 5 and 4chi - 4 built by the Genus3 recipe, "
        "exact, degenerate through a spare fiber and verify",
        seen == 118 and not bad,
        str(bad[:5]),
    )
