"""Atlas rows and deterministic emission."""

import dataclasses
import enum
import json
import re
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bidouble.geography import (
    CSV_COLUMNS,
    FORMATS,
    atlas,
    canonical_json,
    emit,
)
from bidouble.degenerations import degenerate
from bidouble.recipes import FAMILY, NOT_COVERED, PRODUCT_LINE, classify, construct


class TestAtlas:
    def test_chi_one_has_nine_rows_one_constructed(self):
        rows = atlas(1)
        assert len(rows) == 9
        assert [r.ksq for r in rows] == list(range(1, 10))
        constructed = [r for r in rows if r.constructed]
        assert len(constructed) == 1
        row = constructed[0]
        assert (row.ksq, row.chi, row.region) == (8, 1, PRODUCT_LINE)
        assert (row.pg, row.q) == (4, 4)
        assert not row.degenerated

    def test_not_covered_rows_are_empty(self):
        row = atlas(1)[0]
        assert row.region == NOT_COVERED
        assert row.pg is None and row.q is None and row.ampleness is None
        assert row.notes == ()

    def test_frozen_row_count_chi_ten(self):
        assert len(atlas(10)) == 446

    def test_rows_sorted_and_unique(self):
        rows = atlas(6)
        keys = [(r.chi, r.ksq) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_covered_rows_all_construct_and_degenerate(self):
        for row in atlas(8):
            if row.region == NOT_COVERED:
                continue
            assert row.constructed
            assert row.degenerated == (row.region != PRODUCT_LINE)
            assert row.q == (row.chi + 3 if row.region == PRODUCT_LINE else 0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            atlas(0)


class TestCsv:
    def test_header_and_first_rows(self):
        text = emit(atlas(1), "csv")
        lines = text.split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "1,1,NotCovered,false,false,,,,"
        assert lines[8] == "1,8,ProductLine,true,false,4,4,Ample,"
        assert text.endswith("\n")

    def test_line_count_chi_ten(self):
        text = emit(atlas(10), "csv")
        assert text.count("\n") == 447

    def test_boundary_note_is_quoted_in_place(self):
        text = emit(atlas(4), "csv")
        line = next(
            ln for ln in text.split("\n") if ln.startswith("4,2,NoetherLine")
        )
        assert "true,true,3,0,NefOnly" in line
        assert "(2,4)" in line


class TestJson:
    def test_shape_and_canonical_form(self):
        rows = atlas(3)
        text = emit(rows, "json")
        doc = json.loads(text)
        assert doc["chiMax"] == 3
        assert len(doc["rows"]) == len(rows)
        assert doc["rows"][0] == {
            "chi": 1,
            "ksq": 1,
            "region": "NotCovered",
            "constructed": False,
            "degenerated": False,
            "pg": None,
            "q": None,
            "ampleness": None,
            "notes": [],
        }
        assert text == canonical_json(doc)

    def test_canonical_json_is_sorted_with_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


def reference_json(doc) -> str:
    """The stdlib's layout of a document, the independent reference."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# strings json escapes: non-ASCII, an astral character (a surrogate pair),
# the line separator, control characters, the quote and the backslash
AWKWARD_STRINGS = ["", "\u00e9", "\U0001d11e", "\u2028", "\x00\x1f\x7f", '"', "\\", "a\tb\n"]
# negative and past 64 bits
AWKWARD_INTEGERS = [-1, -(2**63), 2**64, 2**64 + 1, -(2**70), 10**40]

strings = st.one_of(st.sampled_from(AWKWARD_STRINGS), st.text())
# booleans and integers drawn in the same places, so true sits where 1 could
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from(AWKWARD_INTEGERS),
    strings,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=30,
)


def first_pair(family: str) -> tuple[int, int]:
    return next(
        (ksq, chi)
        for chi in range(1, 5)
        for ksq in range(max(1, 2 * chi - 6), 9 * chi + 1)
        if classify(ksq, chi) == family
    )


class TestCanonicalJson:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(documents)
    @example({})
    @example([])
    @example({"a": {}, "b": [], "c": [{}, []]})
    @example([True, 1, False, 0, None])
    @example({s: s for s in AWKWARD_STRINGS})
    @example(AWKWARD_INTEGERS)
    def test_matches_stdlib_layout(self, doc):
        assert canonical_json(doc) == reference_json(doc)

    @pytest.mark.parametrize("family", sorted(FAMILY))
    def test_certificates_match_stdlib_layout(self, family):
        cert = construct(*first_pair(family))
        assert canonical_json(cert.to_doc()) == reference_json(cert.to_doc())
        if cert.region != PRODUCT_LINE:
            doc = degenerate(cert).to_doc()
            assert canonical_json(doc) == reference_json(doc)

    class Colour(enum.IntEnum):
        RED = 1

    REFUSED = {
        "float": 1.5,
        "tuple": (1, 2),
        "set": {1, 2},
        "Colour": Colour.RED,
        "int": {1: "a"},  # an int key
    }

    @pytest.mark.parametrize("name", REFUSED)
    def test_refuses_what_is_not_a_document_value(self, name):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            canonical_json({"data": [self.REFUSED[name]]})


class TestSvg:
    def test_exactly_five_guide_lines(self):
        text = emit(atlas(5), "svg")
        assert len(re.findall(r"<line ", text)) == 5
        for label in (
            "Ksq = 2chi - 6",
            "Ksq = 4chi - 4",
            "Ksq = 8chi - 8",
            "Ksq = 8chi",
            "Ksq = 9chi",
        ):
            assert label in text

    def test_integer_coordinates_only(self):
        text = emit(atlas(5), "svg")
        pattern = r'(?<![\w])(?:x|y|x1|x2|y1|y2|width|height)="([^"]*)"'
        for attr in re.findall(pattern, text):
            assert re.fullmatch(r"-?\d+", attr), attr

    def test_one_rect_per_row_plus_chrome(self):
        rows = atlas(4)
        text = emit(rows, "svg")
        # background + one cell per row + nine legend swatches
        assert text.count("<rect ") == 1 + len(rows) + 9
        assert text.startswith("<svg ")
        assert text.endswith("</svg>\n")

    @pytest.mark.parametrize("chi_max", range(9))
    def test_legend_inside_the_chart(self, chi_max):
        # chi_max 0 is the empty chart; up to 6 the cells alone are shorter
        # than the legend
        root = ElementTree.fromstring(emit(atlas(chi_max) if chi_max else (), "svg"))
        height = int(root.get("height"))
        assert root.get("viewBox") == f"0 0 {root.get('width')} {height}"
        swatches = [
            r for r in root.iter("{http://www.w3.org/2000/svg}rect") if r.get("width") == "12"
        ]
        assert len(swatches) == 9
        assert all(int(r.get("y")) + int(r.get("height")) <= height for r in swatches)

    @pytest.mark.parametrize("chi_max", range(1, 61))
    def test_guide_labels_end_before_the_legend(self, chi_max):
        # the layout depends on chi_max alone, so one row of that chi draws
        # the chart; a monospace character at font-size 10 is 0.6 em wide
        row = dataclasses.replace(atlas(1)[0], chi=chi_max)
        root = ElementTree.fromstring(emit((row,), "svg"))
        ns = "{http://www.w3.org/2000/svg}"
        (legend_x,) = {int(r.get("x")) for r in root.iter(f"{ns}rect") if r.get("width") == "12"}
        labels = [t for t in root.iter(f"{ns}text") if t.text.startswith("Ksq = ")]
        assert len(labels) == 5
        for t in labels:
            assert int(t.get("x")) + 6 * len(t.text) <= legend_x, (t.text, chi_max)

    def test_no_rows(self):
        # like csv's lone header and json's empty rows: a chart of chi up to
        # 0 with its background and legend, no cells and no guide lines
        text = emit((), "svg")
        root = ElementTree.fromstring(text)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert "<line " not in text and "<title>" not in text
        assert text.count("<rect ") == 1 + 9
        assert "chi up to 0" in text and text.endswith("</svg>\n")
        assert emit((), "csv") == ",".join(CSV_COLUMNS) + "\n"
        assert emit((), "json") == canonical_json({"chiMax": 0, "rows": []})


class TestDeterminism:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_two_runs_identical(self, fmt):
        assert emit(atlas(4), fmt) == emit(atlas(4), fmt)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown atlas format"):
            emit(atlas(1), "yaml")
