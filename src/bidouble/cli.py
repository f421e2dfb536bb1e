"""Command line interface.

Subcommands:

    construct KSQ CHI [--json]     build a certificate for one pair
    degenerate KSQ CHI [--json]    build, then degenerate inside the family
    verify PATH [--json]           re-derive a stored certificate field by field
    atlas --chi-max N [--format F] [--out PATH]
                                   emit the admissible-range atlas (csv/json/svg)
    check [--chi-max N]            run the internal consistency sweeps

Exit status: 0 on success, 1 when a verification or check fails, 2 when the
request itself is bad (pair outside the covered range, unreadable
certificate, unknown format).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cover import BuildingData, CoverError
from .checks import CheckResult, run_all
from .degenerations import DegenerationError, degenerate, degeneration_certificate
from .geography import FORMATS, atlas, canonical_json, emit
from .lattice import (
    HIRZEBRUCH,
    PLANE,
    Ambient,
    LatticeError,
    doc_coords,
    doc_int,
)
from .recipes import FAMILY, RegionError, certify, construct, resolve_marked


class CertificateFormatError(ValueError):
    pass


def _ambient_label(amb: Ambient) -> str:
    if amb.kind == PLANE:
        return "P^2"
    if amb.kind == HIRZEBRUCH:
        return f"F_{amb.e}"
    names = ", ".join(p.name for p in amb.points)
    return f"F_{amb.e} blown up at {names}"


def _print_construction(cert) -> None:
    inv = cert.invariants
    print(f"pair: Ksq = {cert.requested_ksq}, chi = {cert.requested_chi}")
    print(f"region: {cert.region}")
    print(f"ambient: {_ambient_label(cert.data.ambient)}")
    d = cert.data
    print(f"branches: D1 = {d.d1}, D2 = {d.d2}, D3 = {d.d3}")
    print(f"bundles:  L1 = {d.l1}, L2 = {d.l2}, L3 = {d.l3}")
    if cert.pre_resolution is not None:
        pre = cert.pre_resolution
        marks = ", ".join(p.name for p in pre.incidence)
        print(
            f"resolved from: D1 = {pre.d1}, D2 = {pre.d2}, D3 = {pre.d3} "
            f"on {_ambient_label(pre.ambient)} with triple points {marks}"
        )
    print(
        f"invariants: Ksq = {inv.ksq}, chi = {inv.chi}, pg = {inv.pg}, q = {inv.q}"
    )
    print(f"ampleness: {cert.ampleness}")
    if cert.fibration_genus is not None:
        print(f"fibration: genus {cert.fibration_genus}, epsilon = {cert.epsilon}")
    good = sum(1 for c in cert.side_conditions if c.satisfied)
    print(f"side conditions: {good}/{len(cert.side_conditions)} satisfied")
    for c in cert.side_conditions:
        mark = "ok" if c.satisfied else "VIOLATED"
        print(f"  {mark} {c.name} = {c.value}")
    for note in cert.notes:
        print(f"note: {note}")
    print(f"status: {'OK' if cert.ok else 'FAILED'}")


def _print_degeneration(dc) -> None:
    inv = dc.invariants
    print(f"pair: Ksq = {dc.requested_ksq}, chi = {dc.requested_chi}")
    print(f"region: {dc.region}")
    print(f"ambient: {_ambient_label(dc.data.ambient)}")
    d = dc.data
    print(f"branches: D1 = {d.d1}, D2 = {d.d2}, D3 = {d.d3}")
    print(
        f"invariants: Ksq = {inv.ksq}, chi = {inv.chi}, pg = {inv.pg}, q = {inv.q}"
    )
    print(f"family: {dc.family_note}")
    print("ledger:")
    for e in dc.ledger:
        where = (
            f"at {e.witness_point}" if e.witness_point else f"along {e.witness_class}"
        )
        print(f"  {e.kind} x{e.count} (index {e.gorenstein_index}) {where}")
    print(f"gorenstein: {'yes' if dc.gorenstein else 'no'}")
    if dc.normalization is not None:
        n = dc.normalization
        copies = "two disjoint copies" if n.two_disjoint_copies else "connected"
        print(f"normalization: C1 = {n.c1}, C2 = {n.c2}, C3 = {n.c3} ({copies})")
    for c in dc.side_conditions:
        mark = "ok" if c.satisfied else "VIOLATED"
        print(f"  {mark} {c.name} = {c.value}")
    print(f"status: {'OK' if dc.ok else 'FAILED'}")


def _require(doc: dict, *keys: str) -> None:
    for key in keys:
        if key not in doc:
            raise CertificateFormatError(f"certificate is missing field {key!r}")


def _object(doc: dict, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise CertificateFormatError(f"field {key!r} must be an object")
    return value


def _requested(doc: dict) -> tuple[int, int]:
    req = _object(doc, "requested")
    return doc_int(req["ksq"], "requested.ksq"), doc_int(req["chi"], "requested.chi")


def _same(derived: object, stored: object) -> bool:
    """JSON equality that also requires equal types: a stored 0 never
    matches false, and 1.0 never matches 1."""
    if isinstance(derived, dict):
        return (
            isinstance(stored, dict)
            and derived.keys() == stored.keys()
            and all(_same(v, stored[k]) for k, v in derived.items())
        )
    if isinstance(derived, list):
        return (
            isinstance(stored, list)
            and len(derived) == len(stored)
            and all(map(_same, derived, stored))
        )
    return type(derived) is type(stored) and derived == stored


def _building_blocks(
    doc: dict, keys: tuple[str, ...]
) -> tuple[dict[str, BuildingData], list[CheckResult]]:
    """Parse the stored building-data blocks named by ``keys`` (absent or
    null blocks are skipped) and check the fields derived from the branch
    data: the line bundles l1..l3 against the parity derivation, and the
    ``reduced`` flag against the component list."""
    parsed: dict[str, BuildingData] = {}
    bad_bundles: list[str] = []
    bad_reduced: list[str] = []
    for key in keys:
        block = doc.get(key)
        if block is None:
            continue
        data = parsed[key] = BuildingData.from_doc(block)
        stored = block["classes"]
        bad_bundles += [
            f"{key}.{name}"
            for name in ("l1", "l2", "l3")
            if getattr(data, name).coords != doc_coords(stored[name], f"class {name}")
        ]
        if not _same(data.reduced, block["reduced"]):
            bad_reduced.append(f"{key}.reduced")
    checks = [
        CheckResult(
            "lineBundles",
            not bad_bundles,
            "stored bundle classes match the parity derivation"
            if not bad_bundles
            else f"{', '.join(bad_bundles)} disagree with the parity derivation",
        ),
        CheckResult(
            "reduced",
            not bad_reduced,
            "stored reduced flags match the components"
            if not bad_reduced
            else f"{', '.join(bad_reduced)} disagree with the components",
        ),
    ]
    return parsed, checks


def _verify_doc(doc: dict) -> list[CheckResult]:
    """Re-derive a stored certificate from its building data through the
    certification step of construct or degenerate, and compare every field."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CertificateFormatError("certificate has no 'kind' field")
    kind = doc["kind"]
    if kind not in ("construction", "degeneration"):
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    _require(doc, "requested", "data")
    ksq, chi = _requested(doc)
    if kind == "construction":
        blocks, checks = _building_blocks(doc, ("data", "preResolution"))
        data, pre = blocks["data"], blocks.get("preResolution")
        if pre is not None:
            resolved = resolve_marked(pre)
            checks.append(
                CheckResult(
                    "resolution",
                    resolved == data,
                    "resolving the marked points reproduces the stored data"
                    if resolved == data
                    else "resolving the marked points gives different data",
                )
            )
        _require(doc, "preResolution", "parameters")
        for key, value in _object(doc, "parameters").items():
            doc_int(value, f"parameters.{key}")
        cert = certify(ksq, chi, data, pre)
    else:
        blocks, checks = _building_blocks(doc, ("data",))
        parent = construct(ksq, chi)
        cert = degeneration_certificate(parent, blocks["data"])
        same_data = FAMILY[parent.region].degeneration.data(parent) == blocks["data"]
        stable = cert.invariants == parent.invariants
        checks += [
            CheckResult(
                "data",
                same_data,
                "the designated degeneration rebuilds the stored data"
                if same_data
                else "the designated degeneration builds different data",
            ),
            CheckResult(
                "invariantsStable",
                stable,
                "degenerate data keeps the parent invariants"
                if stable
                else "degenerate data changes the invariants",
            ),
            CheckResult(
                "nonGorenstein",
                bool(cert.ledger),
                f"the singularity scan finds {len(cert.ledger)} ledger entries",
            ),
        ]
    # the kind was dispatched on, and the building data parsed and checked above
    derived = cert.derived_doc()
    _require(doc, *derived)
    for key, value in derived.items():
        same = _same(value, doc[key])
        detail = "matches the re-derivation" if same else f"re-derived {json.dumps(value)}"
        checks.append(CheckResult(key, same, detail))
    inv = cert.invariants
    checks.append(
        CheckResult(
            "requestedMatch",
            (inv.ksq, inv.chi) == (ksq, chi),
            f"data realizes ({inv.ksq}, {inv.chi}), requested ({ksq}, {chi})",
        )
    )
    return checks


def _cmd_construct(args) -> int:
    cert = construct(args.ksq, args.chi)
    if args.json:
        print(canonical_json(cert.to_doc()), end="")
    else:
        _print_construction(cert)
    return 0


def _cmd_degenerate(args) -> int:
    dc = degenerate(construct(args.ksq, args.chi))
    if args.json:
        print(canonical_json(dc.to_doc()), end="")
    else:
        _print_degeneration(dc)
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CertificateFormatError(f"cannot read {args.path}: {err}") from err
    except json.JSONDecodeError as err:
        raise CertificateFormatError(f"{args.path} is not JSON: {err}") from err
    try:
        checks = _verify_doc(doc)
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, CertificateFormatError):
            raise
        raise CertificateFormatError(f"malformed certificate: {err}") from err
    passed = all(c.passed for c in checks)
    if args.json:
        print(
            canonical_json(
                {"ok": passed, "checks": [c.to_doc() for c in checks]}
            ),
            end="",
        )
    else:
        for c in checks:
            if c.passed:
                print(f"ok {c.name}")
            else:
                print(f"MISMATCH {c.name}: {c.detail}")
        print(f"verified: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_atlas(args) -> int:
    text = emit(atlas(args.chi_max), args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def _cmd_check(args) -> int:
    results = run_all(args.chi_max)
    failures = 0
    for r in results:
        if r.passed:
            print(f"ok {r.name}: {r.detail}")
        else:
            failures += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(f"checks: {len(results) - failures}/{len(results)} passed")
    return 0 if failures == 0 else 1


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bidouble",
        description=(
            "exact-arithmetic construction and degeneration certificates for "
            "Klein-four covers of rational surfaces"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a certificate for one (Ksq, chi) pair")
    p.add_argument("ksq", type=int, help="requested self-intersection of the canonical class")
    p.add_argument("chi", type=int, help="requested holomorphic Euler characteristic")
    p.add_argument("--json", action="store_true", help="emit the certificate document")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("degenerate", help="build a pair and degenerate it in its family")
    p.add_argument("ksq", type=int)
    p.add_argument("chi", type=int)
    p.add_argument("--json", action="store_true", help="emit the certificate document")
    p.set_defaults(func=_cmd_degenerate)

    p = sub.add_parser("verify", help="re-derive a stored certificate field by field")
    p.add_argument("path", help="path to a certificate JSON document")
    p.add_argument("--json", action="store_true", help="emit the check report as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("atlas", help="emit the atlas of the admissible range")
    p.add_argument("--chi-max", type=positive, required=True, help="largest chi row")
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("check", help="run the internal consistency sweeps")
    p.add_argument("--chi-max", type=positive, default=12)
    p.set_defaults(func=_cmd_check)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    # built on the first call and reused: a rebuild cost in-process callers about 1 ms a call
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (RegionError, DegenerationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CertificateFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CoverError, LatticeError) as err:
        print(f"error: invalid data: {err}", file=sys.stderr)
        return 2
