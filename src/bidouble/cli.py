"""Command line interface.

Subcommands:

    construct KSQ CHI [--json]     build a certificate for one pair
    degenerate KSQ CHI [--json]    build, then degenerate inside the family
    verify PATH [--json]           rebuild a stored certificate, compare field by field
    atlas --chi-max N [--format F] [--out PATH]
                                   emit the admissible-range atlas (csv/json/svg)
    check [--chi-max N]            run the internal consistency sweeps

Exit status: 0 on success, 1 when a verification or check fails, 2 when the
request itself is bad (pair outside the covered range, unreadable
certificate, unwritable atlas path, unknown format).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from .cover import CoverError
from .checks import CheckResult, run_all
from .degenerations import (
    DegenerationError,
    degenerate,
    degeneration_certificate,
    designated,
)
from .geography import FORMATS, atlas, canonical_json, emit
from .lattice import HIRZEBRUCH, PLANE, Ambient, LatticeError, _builder, doc_int
from .recipes import RegionError, certify, construct, recipe


class CertificateFormatError(ValueError):
    pass


def _ambient_label(amb: Ambient) -> str:
    if amb.kind == PLANE:
        return "P^2"
    if amb.kind == HIRZEBRUCH:
        return f"F_{amb.e}"
    names = ", ".join(p.name for p in amb.points)
    return f"F_{amb.e} blown up at {names}"


def _report(cert, resolution: list[str], details: list[str], notes: list[str]) -> str:
    """The text report both certificate kinds share, with each kind's own
    lines after the branches, after the invariants and before the status."""
    d, inv = cert.data, cert.invariants
    lines = [
        f"pair: Ksq = {cert.requested_ksq}, chi = {cert.requested_chi}",
        f"region: {cert.region}",
        f"ambient: {_ambient_label(d.ambient)}",
        f"branches: D1 = {d.d1}, D2 = {d.d2}, D3 = {d.d3}",
        *resolution,
        f"invariants: Ksq = {inv.ksq}, chi = {inv.chi}, pg = {inv.pg}, q = {inv.q}",
        *details,
    ]
    for c in cert.side_conditions:
        mark = "ok" if c.satisfied else "VIOLATED"
        lines.append(f"  {mark} {c.name} = {c.value}")
    lines += notes
    lines.append(f"status: {'OK' if cert.ok else 'FAILED'}")
    return "\n".join(lines) + "\n"


def _construction_report(cert) -> str:
    d = cert.data
    resolution = [f"bundles:  L1 = {d.l1}, L2 = {d.l2}, L3 = {d.l3}"]
    if cert.pre_resolution is not None:
        pre = cert.pre_resolution
        marks = ", ".join(p.name for p in pre.incidence)
        resolution.append(
            f"resolved from: D1 = {pre.d1}, D2 = {pre.d2}, D3 = {pre.d3} "
            f"on {_ambient_label(pre.ambient)} with triple points {marks}"
        )
    details = [f"ampleness: {cert.ampleness}"]
    if cert.fibration_genus is not None:
        details.append(f"fibration: genus {cert.fibration_genus}, epsilon = {cert.epsilon}")
    good = sum(1 for c in cert.side_conditions if c.satisfied)
    details.append(f"side conditions: {good}/{len(cert.side_conditions)} satisfied")
    return _report(cert, resolution, details, [f"note: {note}" for note in cert.notes])


def _degeneration_report(dc) -> str:
    details = [f"family: {dc.family_note}", "ledger:"]
    for e in dc.ledger:
        where = f"at {e.witness_point}" if e.witness_point else f"along {e.witness_class}"
        details.append(f"  {e.kind} x{e.count} (index {e.gorenstein_index}) {where}")
    details.append(f"gorenstein: {'yes' if dc.gorenstein else 'no'}")
    if dc.normalization is not None:
        n = dc.normalization
        details.append(
            f"normalization: C1 = {n.c1}, C2 = {n.c2}, C3 = {n.c3} (two disjoint copies)"
        )
    return _report(dc, [], details, [])


def _write_certificate(cert, as_json: bool, report: Callable) -> int:
    """Write a certificate as its document or its text report, whole or not
    at all.  Both are rendered before anything is written, since an integer
    past the interpreter's digit limit for ``str`` makes rendering raise:
    a pair just under the limit has side-condition values just over it."""
    try:
        text = canonical_json(cert.to_doc()) if as_json else report(cert)
    except ValueError:
        print(
            "error: the certificate holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, which cannot be written",
            file=sys.stderr,
        )
        return 2
    sys.stdout.write(text)
    return 0


def _require(doc: dict, *keys: str, within: str = "") -> None:
    for key in keys:
        if key not in doc:
            raise CertificateFormatError(f"certificate is missing field {within + key!r}")


def _object(doc: dict, key: str) -> dict:
    value = doc[key]
    if not isinstance(value, dict):
        raise CertificateFormatError(f"field {key!r} must be an object")
    return value


def _requested(doc: dict) -> tuple[int, int]:
    req = _object(doc, "requested")
    _require(req, "ksq", "chi", within="requested.")
    return doc_int(req["ksq"], "requested.ksq"), doc_int(req["chi"], "requested.chi")


_TYPE_NAMES = {
    int: "an integer", str: "a string", bool: "a boolean", dict: "an object", list: "a list"
}

# the recipe's input: a value of another JSON type there makes the document
# malformed rather than forged
_TYPED_FIELDS = ("data", "preResolution", "parameters")

_ABSENT = object()


def _difference(rebuilt: object, stored: object) -> tuple[list, object, object] | None:
    """The first place where a stored JSON value differs from the rebuilt
    one, as (path in reverse, stored value, rebuilt value), or None.

    Types must match too: a stored 0 never matches false, and 1.0 never
    matches 1.  The walk stops at the first difference, and the path is
    built only on the way out of it.
    """
    kind = type(rebuilt)
    if kind is not type(stored):
        return [], stored, rebuilt
    if kind is dict:
        if rebuilt.keys() != stored.keys():
            key = min(rebuilt.keys() ^ stored.keys())
            return [key], stored.get(key, _ABSENT), rebuilt.get(key, _ABSENT)
        items = rebuilt.items()
    elif kind is list:
        if len(rebuilt) != len(stored):
            return [], stored, rebuilt
        items = enumerate(rebuilt)
    else:
        return None if rebuilt == stored else ([], stored, rebuilt)
    for key, value in items:
        other = stored[key]
        # one object, as small integers often are, needs no walk
        if value is not other:
            found = _difference(value, other)
            if found is not None:
                found[0].append(key)
                return found
    return None


def _shown(value: object) -> str:
    """A JSON value as a mismatch line shows it.  A rebuilt value can hold
    an integer past the interpreter's digit limit for ``str``, which cannot
    be written: a forged field is then reported naming the limit."""
    if value is _ABSENT:
        return "absent"
    try:
        return json.dumps(value)
    except ValueError:
        return f"a value with an integer of more than {sys.get_int_max_str_digits()} digits"


# a check's name, verdict and detail are derived here, so the frozen
# __init__ is passed by
_check = _builder(CheckResult)


def _compare(field: str, rebuilt: object, stored: object) -> CheckResult:
    found = _difference(rebuilt, stored)
    if found is None:
        return _check(field, True, "matches the rebuild")
    reversed_path, got, want = found
    path = ".".join(map(str, [field, *reversed(reversed_path)]))
    if (
        field in _TYPED_FIELDS
        and type(got) is not type(want)
        and type(want) in _TYPE_NAMES
        and got is not None
        and got is not _ABSENT
    ):
        raise CertificateFormatError(f"{path} must be {_TYPE_NAMES[type(want)]}")
    return _check(field, False, f"{path}: stored {_shown(got)}, rebuilt {_shown(want)}")


def _verify_doc(doc: dict) -> list[CheckResult]:
    """Rebuild the certificate of the requested pair and compare it with the
    stored one: the building data first, then every field derived from it,
    and last whether the rebuilt certificate is ok."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise CertificateFormatError("certificate has no 'kind' field")
    kind = doc["kind"]
    if kind not in ("construction", "degeneration"):
        raise CertificateFormatError(f"unknown certificate kind {kind!r}")
    _require(doc, "requested", "data")
    ksq, chi = _requested(doc)
    family, params, data, pre = recipe(ksq, chi)
    if kind == "construction":
        blocks = {"data": data, "preResolution": pre}
    else:
        blocks = {"data": designated(family.name).data(data)}
    _require(doc, *blocks)
    checks = []
    for key, block in blocks.items():
        checks.append(_compare(key, None if block is None else block.to_doc(), doc[key]))
        if not checks[-1].passed:
            # every other field is derived from the building data
            return checks
    cert = certify(ksq, chi, family, params, data, pre)
    if kind == "degeneration":
        cert = degeneration_certificate(cert, blocks["data"])
    derived = cert.derived_doc()
    _require(doc, *derived)
    unknown = doc.keys() - derived.keys() - blocks.keys() - {"kind"}
    if unknown:
        raise CertificateFormatError(f"certificate has unknown field {min(unknown)!r}")
    checks += [_compare(key, value, doc[key]) for key, value in derived.items()]
    # ok holds the pair match, the conditions and a degeneration's parent and ledger
    detail = "the rebuilt certificate is " + ("ok" if cert.ok else "not ok")
    checks.append(_check("valid", cert.ok, detail))
    return checks


def _cmd_construct(args) -> int:
    return _write_certificate(construct(args.ksq, args.chi), args.json, _construction_report)


def _cmd_degenerate(args) -> int:
    dc = degenerate(construct(args.ksq, args.chi))
    return _write_certificate(dc, args.json, _degeneration_report)


def _cmd_verify(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CertificateFormatError(f"cannot read {args.path}: {err}") from err
    except (ValueError, RecursionError) as err:  # also past the digit or nesting limit
        raise CertificateFormatError(f"{args.path} is not JSON: {err}") from err
    try:
        checks = _verify_doc(doc)
    except (KeyError, TypeError, ValueError) as err:
        # the recipes' refusals of the requested pair read as in construct
        # and degenerate
        if isinstance(err, (CertificateFormatError, RegionError, DegenerationError)):
            raise
        raise CertificateFormatError(f"malformed certificate: {err}") from err
    passed = all(c.passed for c in checks)
    if args.json:
        sys.stdout.write(canonical_json({"ok": passed, "checks": [c.to_doc() for c in checks]}))
    else:
        lines = [f"ok {c.name}" if c.passed else f"MISMATCH {c.name}: {c.detail}" for c in checks]
        lines.append(f"verified: {'PASS' if passed else 'FAIL'}")
        sys.stdout.write("\n".join(lines) + "\n")
    return 0 if passed else 1


def _cmd_atlas(args) -> int:
    text = emit(atlas(args.chi_max), args.format)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    results = run_all(args.chi_max)
    lines = [f"{'ok' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    good = sum(r.passed for r in results)
    lines.append(f"checks: {good}/{len(results)} passed")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if good == len(results) else 1


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

    p = sub.add_parser("verify", help="rebuild a stored certificate, compare field by field")
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
    except (RegionError, DegenerationError, CertificateFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CoverError, LatticeError) as err:
        print(f"error: invalid data: {err}", file=sys.stderr)
        return 2
