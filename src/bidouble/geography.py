"""Atlas of the admissible (K^2, chi) range and its deterministic emission.

One row per admissible integer pair with chi up to a bound.  Covered pairs
carry the certificate summary (geometric genus, irregularity, positivity
verdict, notes); pairs in the uncovered strip are listed with empty fields.
Emission is byte-deterministic: running the same atlas twice produces
identical CSV, JSON and SVG output.  ``canonical_json`` writes its layout
itself rather than through ``json.dumps(indent=2)``, because on CPython 3.11
any indent makes ``json`` fall back from its C encoder to a pure-Python one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .degenerations import degenerate
from .recipes import FAMILIES, FAMILY, NOT_COVERED, classify, construct

CSV_COLUMNS = (
    "chi",
    "Ksq",
    "region",
    "constructed",
    "degenerated",
    "pg",
    "q",
    "ampleness",
    "notes",
)

FORMATS = ("csv", "json", "svg")


def canonical_json(doc) -> str:
    """The one JSON serialization used everywhere: sorted keys, two-space
    indent, ASCII escapes, trailing newline; the bytes of
    ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``.

    A document is a dict with ``str`` keys, a list, a ``str``, an ``int``, a
    ``bool`` or ``None``, nested to any depth.  Anything else (a float, a
    tuple, an ``int`` subclass other than ``bool``, a non-string key) raises
    ``TypeError`` naming its type."""
    parts: list[str] = []
    _emit_value(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _emit_value(value, newline: str, parts: list[str]) -> None:
    # exact types only, so that an IntEnum or a str subclass cannot slip in
    kind = type(value)
    if kind is int:
        parts.append(int.__repr__(value))
    elif kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            # the escaper itself refuses a key that is not a str, naming its type
            parts += (separator, encode_basestring_ascii(key), ": ")
            _emit_value(value[key], inner, parts)
            separator = "," + inner
        parts += (newline, "}")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _emit_value(item, inner, parts)
            separator = "," + inner
        parts += (newline, "]")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    else:
        raise TypeError(f"{kind.__name__} is not a document value")


@dataclass(frozen=True)
class AtlasRow:
    chi: int
    ksq: int
    region: str
    constructed: bool
    degenerated: bool
    pg: int | None
    q: int | None
    ampleness: str | None
    notes: tuple[str, ...]

    def to_doc(self) -> dict:
        return {
            "chi": self.chi,
            "ksq": self.ksq,
            "region": self.region,
            "constructed": self.constructed,
            "degenerated": self.degenerated,
            "pg": self.pg,
            "q": self.q,
            "ampleness": self.ampleness,
            "notes": list(self.notes),
        }

    def to_csv_row(self) -> list[str]:
        return [
            str(self.chi),
            str(self.ksq),
            self.region,
            str(self.constructed).lower(),
            str(self.degenerated).lower(),
            "" if self.pg is None else str(self.pg),
            "" if self.q is None else str(self.q),
            "" if self.ampleness is None else self.ampleness,
            "; ".join(self.notes),
        ]


def atlas(chi_max: int) -> tuple[AtlasRow, ...]:
    """All admissible pairs with 1 <= chi <= chi_max, in (chi, K^2) order."""
    if chi_max < 1:
        raise ValueError("chi_max must be at least 1")
    rows: list[AtlasRow] = []
    for chi in range(1, chi_max + 1):
        for ksq in range(max(1, 2 * chi - 6), 9 * chi + 1):
            region = classify(ksq, chi)
            family = FAMILY.get(region)
            if family is None:
                rows.append(
                    AtlasRow(chi, ksq, region, False, False, None, None, None, ())
                )
                continue
            cert = construct(ksq, chi)
            degenerated = family.degeneration is not None and degenerate(cert).ok
            rows.append(
                AtlasRow(
                    chi,
                    ksq,
                    region,
                    cert.ok,
                    degenerated,
                    cert.invariants.pg,
                    cert.invariants.q,
                    cert.ampleness,
                    cert.notes,
                )
            )
    return tuple(rows)


def _emit_csv(rows: tuple[AtlasRow, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.to_csv_row())
    return buf.getvalue()


def _emit_json(rows: tuple[AtlasRow, ...]) -> str:
    chi_max = max((r.chi for r in rows), default=0)
    return canonical_json({"chiMax": chi_max, "rows": [r.to_doc() for r in rows]})


REGION_FILL = {family.name: family.fill for family in FAMILIES} | {NOT_COVERED: "#d9d9d9"}

# the five reference lines drawn on every chart: (label, slope, intercept)
GUIDE_LINES = (
    ("Ksq = 2chi - 6", 2, -6),
    ("Ksq = 4chi - 4", 4, -4),
    ("Ksq = 8chi - 8", 8, -8),
    ("Ksq = 8chi", 8, 0),
    ("Ksq = 9chi", 9, 0),
)

_CELL_W = 20
_CELL_H = 2
_MARGIN = 40


def _emit_svg(rows: tuple[AtlasRow, ...]) -> str:
    # no rows draw a chart of chi up to 0, like the json's chiMax, with no
    # cells and no guide lines
    chi_max = max((r.chi for r in rows), default=0)
    kmax = 9 * chi_max
    # the guide labels, 14 characters of 6 px at font-size 10, start 4 px
    # right of the last cell's centre and end 12 px before the legend
    width = 2 * _MARGIN + chi_max * _CELL_W + 210
    legend_x = _MARGIN + chi_max * _CELL_W + 90
    legend_y = _MARGIN + 20
    # at least as tall as the legend's last swatch, 12 high; from chi up to 7
    # on, the cells are taller
    legend_end = legend_y + 18 * (len(REGION_FILL) - 1) + 12
    height = max(2 * _MARGIN + (kmax + 6) * _CELL_H, legend_end)

    def cx(chi: int) -> int:
        return _MARGIN + (chi - 1) * _CELL_W

    def cy(ksq: int) -> int:
        return _MARGIN + (kmax - ksq) * _CELL_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN}" y="{_MARGIN - 16}" font-family="monospace" '
        f'font-size="14">geography of covered pairs, chi up to {chi_max}</text>',
    ]
    for row in rows:
        fill = REGION_FILL[row.region]
        parts.append(
            f'<rect x="{cx(row.chi)}" y="{cy(row.ksq)}" width="{_CELL_W}" '
            f'height="{_CELL_H}" fill="{fill}"><title>chi={row.chi} Ksq={row.ksq} '
            f"{row.region}</title></rect>"
        )
    for label, slope, intercept in GUIDE_LINES if rows else ():
        x1 = cx(1) + _CELL_W // 2
        y1 = cy(slope * 1 + intercept) + _CELL_H // 2
        x2 = cx(chi_max) + _CELL_W // 2
        y2 = cy(slope * chi_max + intercept) + _CELL_H // 2
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#000000" '
            f'stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{x2 + 4}" y="{y2 + 4}" font-family="monospace" '
            f'font-size="10">{label}</text>'
        )
    for i, (region, fill) in enumerate(sorted(REGION_FILL.items())):
        y = legend_y + 18 * i
        parts.append(
            f'<rect x="{legend_x}" y="{y}" width="12" height="12" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 18}" y="{y + 10}" font-family="monospace" '
            f'font-size="10">{region}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(rows: tuple[AtlasRow, ...], fmt: str) -> str:
    """Serialize atlas rows; identical rows always give identical bytes."""
    if fmt == "csv":
        return _emit_csv(rows)
    if fmt == "json":
        return _emit_json(rows)
    if fmt == "svg":
        return _emit_svg(rows)
    raise ValueError(f"unknown atlas format {fmt!r}; expected one of {FORMATS}")
