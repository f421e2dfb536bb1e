"""Command line behavior: output shapes, exit codes, determinism."""

import argparse
import contextlib
import copy
import dataclasses
import functools
import io
import json
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidouble import checks, cover, geography, lattice, recipes
from bidouble.checks import CheckResult
from bidouble.cli import _verify_doc, main
from bidouble.degenerations import degenerate
from bidouble.geography import canonical_json
from bidouble.recipes import FAMILIES, GENUS3, NOETHER_LINE, classify, construct


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fail_marked_triple_points(monkeypatch):
    """Make Genus3's markedTriplePoints condition fail on every pair, so
    that a genuine Genus3 certificate is built not ok."""
    genus3 = recipes.FAMILY[GENUS3]

    def conditions(*args):
        return [
            dataclasses.replace(c, satisfied=False) if c.name == "markedTriplePoints" else c
            for c in genus3.conditions(*args)
        ]

    monkeypatch.setitem(recipes.FAMILY, GENUS3, dataclasses.replace(genus3, conditions=conditions))


def share_a_noether_component(monkeypatch):
    """Make NoetherLine's data recipe build its degenerate data, whose
    second branch shares the first branch's section, so that a NoetherLine
    construction is built over non-reduced data."""
    noether = recipes.FAMILY[NOETHER_LINE]

    def data(params):
        return recipes._shared_section(noether.data(params))

    monkeypatch.setitem(recipes.FAMILY, NOETHER_LINE, dataclasses.replace(noether, data=data))


def dotted(leaf):
    return ".".join(map(str, leaf))


def leaves(node, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def set_leaf(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def type_swaps(value):
    """The same value under another JSON type: n as n.0, 0 and 1 as false
    and true, and booleans as 0/1 and 0.0/1.0."""
    if isinstance(value, bool):
        return [int(value), float(value)]
    if isinstance(value, int):
        return [float(value)] + ([bool(value)] if value in (0, 1) else [])
    return []


def value_edits(value):
    """Other values of the same JSON type: n+1 and n-1, the negated
    boolean, and the string with "x" appended."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [value + 1, value - 1]
    if isinstance(value, str):
        return [value + "x"]
    return [0]  # value is null


def component_names(doc):
    """Every component name of the building-data blocks of a document."""
    blocks = [doc["data"], doc.get("preResolution") or {"components": []}]
    return {c["name"] for block in blocks for c in block["components"]}


def name_swaps(names):
    """Edits of a leaf that holds a component name: every other component
    name of the document, a same-kind edit that ``+"x"`` does not reach."""

    def edits(value):
        swaps = sorted(names - {value}) if isinstance(value, str) and value in names else []
        return value_edits(value) + swaps

    return edits


class CountingOut(io.StringIO):
    """A stdout that counts the writes made to it."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def written_once(*argv):
    """Run the command line on a stdout that counts its writes; returns the
    exit code and the output, which must arrive in one write."""
    out = CountingOut()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert out.writes == 1, argv
    return code, out.getvalue()


class TestConstruct:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, "construct", "20", "7")
        assert code == 0
        assert err == ""
        assert "region: Genus2General" in out
        assert "invariants: Ksq = 20, chi = 7, pg = 6, q = 0" in out
        assert "status: OK" in out

    def test_json_output_is_canonical(self, capsys):
        code, out, _ = run(capsys, "construct", "17", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "construction"
        assert doc["region"] == "Genus3"
        assert out == canonical_json(doc)

    def test_not_admissible_exit_two(self, capsys):
        code, out, err = run(capsys, "construct", "0", "5")
        assert code == 2
        assert "not admissible" in err

    def test_not_covered_exit_two_names_gap(self, capsys):
        code, _, err = run(capsys, "construct", "9", "1")
        assert code == 2
        assert "not covered" in err
        assert "8chi-8 < K^2 < 9chi" in err

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_past_digit_limit_exit_two(self, capsys, flags):
        # both inputs have as many digits as str() may write, and the side
        # condition h0(D3) = 4chi + 6 one more
        chi = 3 * 10 ** (sys.get_int_max_str_digits() - 1)
        ksq = 2 * chi - 5
        assert classify(ksq, chi) == "Genus2General"
        code, out, err = run(capsys, "construct", str(ksq), str(chi), *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_resolved_family_mentions_origin(self, capsys):
        _, out, _ = run(capsys, "construct", "7", "3")
        assert "resolved from:" in out
        assert "triple points p" in out


class TestDegenerate:
    def test_human_output_quarter_point(self, capsys):
        code, out, _ = run(capsys, "degenerate", "20", "7")
        assert code == 0
        assert "QuarterPoint x1 (index 2) at p" in out
        assert "gorenstein: no" in out
        assert "status: OK" in out

    def test_human_output_noether(self, capsys):
        code, out, _ = run(capsys, "degenerate", "4", "5")
        assert code == 0
        assert "NonNormalGluing x6 (index 2) along D0" in out
        assert "normalization: C1 = 0, C2 = 0, C3 = 4D0+6F (two disjoint copies)" in out

    def test_product_refuses(self, capsys):
        code, _, err = run(capsys, "degenerate", "8", "1")
        assert code == 2
        assert "product" in err

    def test_json_kind(self, capsys):
        code, out, _ = run(capsys, "degenerate", "2", "4", "--json")
        assert code == 0
        assert json.loads(out)["kind"] == "degeneration"


class TestVerify:
    def write_doc(self, capsys, tmp_path, *argv):
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "cert.json"
        path.write_text(out, encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "20", "7", "--json"),
            ("construct", "7", "3", "--json"),
            ("construct", "24", "3", "--json"),
            ("degenerate", "4", "5", "--json"),
            ("degenerate", "17", "5", "--json"),
        ],
    )
    def test_fresh_documents_pass(self, capsys, tmp_path, argv):
        path = self.write_doc(capsys, tmp_path, *argv)
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verified: PASS" in out
        assert "MISMATCH" not in out

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_report_written_once(self, capsys, tmp_path, flags):
        # a genuine document, then the same with one leaf forged
        path = self.write_doc(capsys, tmp_path, "degenerate", "20", "7", "--json")
        genuine = written_once("verify", str(path), *flags)
        doc = json.loads(path.read_text())
        doc["ledger"][0]["count"] = 2
        path.write_text(json.dumps(doc))
        forged = written_once("verify", str(path), *flags)
        if flags:
            assert [(code, json.loads(out)["ok"]) for code, out in (genuine, forged)] == [
                (0, True),
                (1, False),
            ]
        else:
            assert genuine[0] == 0 and genuine[1].endswith("verified: PASS\n")
            assert forged[0] == 1
            assert "MISMATCH ledger: ledger.0.count: stored 2, rebuilt 1\n" in forged[1]

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_forged_past_digit_limit_is_a_mismatch(self, capsys, tmp_path, flags):
        # the pair and every stored value fit the digit limit, but the
        # rebuilt h0(D3) = 4chi + 6 has one digit more, so it cannot be shown
        limit = sys.get_int_max_str_digits()
        chi = 3 * 10 ** (limit - 1)
        doc = construct(2 * chi - 5, chi).to_doc()
        assert doc["sideConditions"][6]["name"] == "h0(D3)"
        doc["sideConditions"][6]["value"] = 0
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path), *flags)
        detail = (
            f"sideConditions.6.value: stored 0, rebuilt a value with an integer of "
            f"more than {limit} digits"
        )
        assert (code, err) == (1, "")
        if flags:
            report = json.loads(out)
            failed = [c for c in report["checks"] if not c["passed"]]
            assert report["ok"] is False
            assert failed == [{"detail": detail, "name": "sideConditions", "passed": False}]
        else:
            assert f"MISMATCH sideConditions: {detail}\n" in out
        assert "malformed" not in out + err

    @pytest.mark.parametrize("argv", [("construct", "20", "7"), ("degenerate", "4", "5")])
    def test_check_records_as_constructed(self, argv):
        # verify builds its check records past the frozen __init__; each
        # still equals, hashes and freezes as the public constructor's
        cert = construct(int(argv[1]), int(argv[2]))
        doc = cert.to_doc() if argv[0] == "construct" else degenerate(cert).to_doc()
        doc["region"] += "x"
        results = _verify_doc(doc)
        passed = {c.name: c.passed for c in results}
        assert (passed["data"], passed["region"], passed["valid"]) == (True, False, True)
        for c in results:
            again = CheckResult(c.name, c.passed, c.detail)
            assert type(c) is CheckResult and c == again and hash(c) == hash(again)
            assert not hasattr(c, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                c.passed = not c.passed

    @pytest.mark.parametrize("command", ["construct", "degenerate"])
    def test_genuine_document_not_ok_fails(self, capsys, tmp_path, monkeypatch, command):
        # the stored ok agrees with the rebuild, so only the validity check
        # refuses the document
        fail_marked_triple_points(monkeypatch)
        path = self.write_doc(capsys, tmp_path, command, "45", "10", "--json")
        assert json.loads(path.read_text())["ok"] is False
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
            "MISMATCH valid: the rebuilt certificate is not ok",
            "verified: FAIL",
        ]

    def test_construction_over_nonreduced_data_fails(self, capsys, tmp_path, monkeypatch):
        # the conditions and the pair hold, so only reducedness makes the
        # construction not ok
        share_a_noether_component(monkeypatch)
        cert = construct(4, 5)
        assert not cert.data.reduced and not cert.ok
        assert all(c.satisfied for c in cert.side_conditions)
        assert (cert.invariants.ksq, cert.invariants.chi) == (4, 5)
        path = self.write_doc(capsys, tmp_path, "construct", "4", "5", "--json")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
            "MISMATCH valid: the rebuilt certificate is not ok",
            "verified: FAIL",
        ]

    def test_tampered_invariants_fail(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "construct", "20", "7", "--json")
        doc = json.loads(path.read_text())
        doc["invariants"]["pg"] = 7
        doc["invariants"]["q"] = 1
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH invariants" in out
        assert "verified: FAIL" in out

    def test_tampered_region_fails(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "construct", "8", "3", "--json")
        doc = json.loads(path.read_text())
        doc["region"] = "NoetherLine"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH region" in out

    def test_tampered_ampleness_fails(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "construct", "7", "3", "--json")
        doc = json.loads(path.read_text())
        assert doc["ampleness"] == "Ample"
        doc["ampleness"] = "NefOnly"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH ampleness" in out

    def test_tampered_ledger_fails(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "degenerate", "4", "5", "--json")
        doc = json.loads(path.read_text())
        doc["ledger"][0]["count"] = 5
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH ledger" in out

    @staticmethod
    def accepted_edits(capsys, path, edits):
        """Run verify on every single-leaf edit of the document at ``path``;
        return how many ran and the edits it accepted."""
        doc = json.loads(path.read_text())
        tried, accepted = 0, []
        for leaf, value in leaves(doc):
            for edited in edits(value):
                path.write_text(json.dumps(set_leaf(doc, leaf, edited)))
                code, _, _ = run(capsys, "verify", str(path))
                tried += 1
                if code == 0:
                    accepted.append((leaf, edited))
        return tried, accepted

    @staticmethod
    def d1_true(doc):
        doc["data"]["classes"]["d1"][0] = True
        comp = next(c for c in doc["data"]["components"] if c["name"] == "d1")
        comp["class"][0] = True

    @staticmethod
    def count_true(doc):
        comp = next(c for c in doc["data"]["components"] if c["name"] == "d1")
        comp["count"] = True

    @staticmethod
    def d1_float(doc):
        doc["data"]["classes"]["d1"][0] = 1.0
        comp = next(c for c in doc["data"]["components"] if c["name"] == "d1")
        comp["class"][0] = 1.0

    @staticmethod
    def l3_true(doc):
        doc["data"]["classes"]["l3"][0] = True

    @staticmethod
    def e_false(doc):
        doc["data"]["ambient"]["e"] = False

    @pytest.mark.parametrize("edit", ["d1_true", "count_true", "d1_float", "l3_true", "e_false"])
    def test_non_integer_fields_rejected(self, capsys, tmp_path, edit):
        # (10, 6) is Genus2General on F_0: D1 = D0+F, L3 = D0+2F, count 1;
        # each edit keeps the value equal to the integer it replaces
        path = self.write_doc(capsys, tmp_path, "construct", "10", "6", "--json")
        doc = json.loads(path.read_text())
        getattr(self, edit)(doc)
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "must be an integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "20", "7", "--json"),
            ("construct", "17", "5", "--json"),
            ("degenerate", "4", "5", "--json"),
            ("degenerate", "17", "5", "--json"),
        ],
    )
    def test_type_swapped_leaves_rejected(self, capsys, tmp_path, argv):
        path = self.write_doc(capsys, tmp_path, *argv)
        tried, accepted = self.accepted_edits(capsys, path, type_swaps)
        assert tried > 50
        assert accepted == []

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "20", "7", "--json"),
            ("construct", "17", "5", "--json"),
            ("construct", "7", "3", "--json"),
            ("degenerate", "4", "5", "--json"),
            ("degenerate", "17", "5", "--json"),
        ],
    )
    def test_value_edited_leaves_rejected(self, capsys, tmp_path, argv):
        path = self.write_doc(capsys, tmp_path, *argv)
        doc = json.loads(path.read_text())
        edits = name_swaps(component_names(doc))
        tried, accepted = self.accepted_edits(capsys, path, edits)
        assert tried > 50
        assert accepted == []

    @pytest.mark.parametrize(
        "pair, leaf, value",
        [
            ((20, 7), ("data", "incidence", 0, "components"), ["d2", "d2", "d3"]),
            ((17, 5), ("data", "ambient", "points", 0, "components", 0), "zz"),
            ((20, 7), ("data", "incidence", 0, "general"), False),
        ],
    )
    def test_degeneration_data_compared_with_rebuild(self, capsys, tmp_path, pair, leaf, value):
        path = self.write_doc(capsys, tmp_path, "degenerate", *map(str, pair), "--json")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(set_leaf(doc, leaf, value)))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert f"MISMATCH data: {dotted(leaf)}" in out

    @pytest.mark.parametrize("text", ["[]", "{}", "1e400"])
    @pytest.mark.parametrize(
        "argv, leaf",
        [
            (("construct", "20", "7"), ("data", "components", 0, "name")),
            (("degenerate", "20", "7"), ("data", "incidence", 0, "name")),
            (("degenerate", "20", "7"), ("data", "incidence", 0, "components", 1)),
            (("degenerate", "17", "5"), ("data", "ambient", "points", 0, "name")),
        ],
    )
    def test_non_string_names_exit_two(self, capsys, tmp_path, argv, leaf, text):
        path = self.write_doc(capsys, tmp_path, *argv, "--json")
        doc = set_leaf(json.loads(path.read_text()), leaf, "SENTINEL")
        path.write_text(json.dumps(doc).replace('"SENTINEL"', text))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "must be a string" in err

    def test_degeneration_without_singularity_fails(self, capsys, tmp_path):
        # a self-consistent document whose data lost its marked point: the
        # cover is Gorenstein, so it is no degeneration
        path = self.write_doc(capsys, tmp_path, "degenerate", "20", "7", "--json")
        doc = json.loads(path.read_text())
        doc["data"]["incidence"] = []
        doc.update(ledger=[], gorenstein=True, ok=False)
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH data: data.incidence: stored [], rebuilt [{" in out

    @pytest.mark.parametrize("command", ["construct", "degenerate"])
    def test_unknown_top_level_field_exit_two(self, capsys, tmp_path, command):
        path = self.write_doc(capsys, tmp_path, command, "20", "7", "--json")
        doc = json.loads(path.read_text())
        doc["forgedNote"] = "anything"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "unknown field 'forgedNote'" in err

    @staticmethod
    def extra_data_key(data):
        data["extra"] = 1

    @staticmethod
    def extra_component_key(data):
        data["components"][0]["extra"] = 1

    @staticmethod
    def dropped_count(data):
        del data["components"][0]["count"]

    @staticmethod
    def dropped_incidence(data):
        del data["incidence"]

    @pytest.mark.parametrize(
        "edit, detail",
        [
            ("extra_data_key", "data.extra: stored 1, rebuilt absent"),
            ("extra_component_key", "data.components.0.extra: stored 1, rebuilt absent"),
            ("dropped_count", "data.components.0.count: stored absent, rebuilt 1"),
            ("dropped_incidence", "data.incidence: stored absent, rebuilt []"),
        ],
    )
    def test_nested_key_edits_fail(self, capsys, tmp_path, edit, detail):
        path = self.write_doc(capsys, tmp_path, "construct", "20", "7", "--json")
        doc = json.loads(path.read_text())
        getattr(self, edit)(doc["data"])
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert f"MISMATCH data: {detail}" in out

    def test_degeneration_on_product_line_exit_two(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "degenerate", "20", "7", "--json")
        doc = json.loads(path.read_text())
        doc["requested"] = {"ksq": 56, "chi": 7}
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "product family has no designated degeneration" in err

    @pytest.mark.parametrize(
        "kind, pair, refused_by",
        [
            ("construct", ("10", "2"), "construct"),
            ("construct", ("9", "1"), "construct"),
            ("degenerate", ("16", "2"), "degenerate"),
        ],
    )
    @pytest.mark.parametrize("flags", [(), ("--json",)], ids=["text", "json"])
    def test_recipe_refusal_reads_as_in_construct(
        self, capsys, tmp_path, kind, pair, refused_by, flags
    ):
        # a well-formed document whose requested pair the recipes refuse is
        # no malformed certificate: verify prints the refusal of construct
        # or degenerate for that pair
        path = self.write_doc(capsys, tmp_path, kind, "20", "7", "--json")
        doc = json.loads(path.read_text())
        doc["requested"] = {"ksq": int(pair[0]), "chi": int(pair[1])}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(path), *flags)
        assert (code, out) == (2, "")
        assert "malformed" not in err
        assert run(capsys, refused_by, *pair) == (2, "", err)

    @pytest.mark.parametrize(
        "argv, leaf, value, code",
        [
            (("construct", "20", "7"), ("invariants", "q"), False, 1),
            (("construct", "20", "7"), ("invariants", "pgEstimated"), 0, 1),
            (("construct", "20", "7"), ("ok",), 1, 1),
            (("construct", "20", "7"), ("parameters", "alpha"), False, 2),
            (("construct", "20", "7"), ("requested", "ksq"), 20.9, 2),
            (("degenerate", "20", "7"), ("ok",), 1, 1),
            (("degenerate", "20", "7"), ("gorenstein",), 0, 1),
        ],
    )
    def test_type_changed_fields_rejected(self, capsys, tmp_path, argv, leaf, value, code):
        path = self.write_doc(capsys, tmp_path, *argv, "--json")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(set_leaf(doc, leaf, value)))
        got, out, err = run(capsys, "verify", str(path))
        assert got == code
        if code == 2:
            assert "must be an integer" in err
        else:
            assert "verified: FAIL" in out

    @pytest.mark.parametrize(
        "leaf, text",
        [
            (("requested", "ksq"), "1e400"),
            (("parameters", "alpha"), "1e400"),
            (("parameters",), "[]"),
        ],
    )
    def test_malformed_values_exit_two(self, capsys, tmp_path, leaf, text):
        path = self.write_doc(capsys, tmp_path, "construct", "20", "7", "--json")
        doc = set_leaf(json.loads(path.read_text()), leaf, "SENTINEL")
        path.write_text(json.dumps(doc).replace('"SENTINEL"', text))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, leaf, value, forged",
        [
            (("degenerate", "20", "7"), ("data", "classes", "l1", 0), 99, "lineBundles"),
            (("construct", "20", "7"), ("data", "reduced"), False, "reduced"),
            (("degenerate", "20", "7"), ("data", "reduced"), False, "reduced"),
            (("construct", "17", "5"), ("preResolution", "classes", "l1", 0), 99, "lineBundles"),
            # a point's fixed branch set is compared with the rebuild, not read
            (("construct", "45", "10"), ("preResolution", "incidence", 0, "branches"), [1, 2], "branches"),
        ],
    )
    def test_forged_stored_classes_fail(self, capsys, tmp_path, argv, leaf, value, forged):
        path = self.write_doc(capsys, tmp_path, *argv, "--json")
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(set_leaf(doc, leaf, value)))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1, f"forged {forged} accepted"
        assert f"MISMATCH {leaf[0]}: {dotted(leaf)}: stored " in out

    @pytest.mark.parametrize("pair", [("20", "7"), ("16", "4"), ("8", "1")])
    def test_pre_resolution_without_marked_points_fails(self, capsys, tmp_path, pair):
        # a recipe resolves exactly the marked triple points of its
        # pre-resolution data, so data with none has no pre-resolution block
        path = self.write_doc(capsys, tmp_path, "construct", *pair, "--json")
        doc = json.loads(path.read_text())
        doc["preResolution"] = doc["data"]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "MISMATCH preResolution: preResolution: stored {" in out
        assert out.count("MISMATCH") == 1

    def test_huge_coefficient_rejected_quickly(self, capsys, tmp_path):
        # an even raise keeps every parity check passing, so the document
        # reaches the h0 and component-sum checks with a 10^12 coefficient
        path = self.write_doc(capsys, tmp_path, "construct", "30", "6", "--json")
        doc = json.loads(path.read_text())
        doc["data"]["classes"]["d2"][0] += 10**12
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, _ = run(capsys, "verify", str(path))
        elapsed = time.perf_counter() - start
        assert code != 0
        assert elapsed < 1.0

    def test_json_report(self, capsys, tmp_path):
        path = self.write_doc(capsys, tmp_path, "construct", "1", "2", "--json")
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert {c["name"] for c in report["checks"]} >= {
            "data",
            "preResolution",
            "region",
            "invariants",
            "sideConditions",
            "ampleness",
            "valid",
        }

    def test_unreadable_file_exit_two(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "cannot read" in err

    def test_not_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("definitely not json")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "not JSON" in err

    @pytest.mark.parametrize(
        "text",
        ['{"kind": "construction", "requested": {"ksq": ' + "7" * 5000 + "}}", "[" * 10**5],
    )
    def test_past_parser_limits_exit_two(self, capsys, tmp_path, text):
        # an integer past the digit limit, arrays past the nesting limit
        path = tmp_path / "long.json"
        path.write_text(text)
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "not JSON" in err

    def test_unknown_kind_exit_two(self, capsys, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text('{"kind": "mystery"}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "unknown certificate kind" in err

    def test_missing_field_exit_two(self, capsys, tmp_path):
        path = tmp_path / "cut.json"
        for text, field in (
            ('{"kind": "construction", "requested": {"ksq": 1, "chi": 2}}', "'data'"),
            ('{"kind": "construction", "requested": {"ksq": 20}, "data": {}}', "'requested.chi'"),
        ):
            path.write_text(text)
            code, _, err = run(capsys, "verify", str(path))
            assert code == 2
            assert f"certificate is missing field {field}" in err


def quiet_main(*argv):
    """``main`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@functools.cache
def genuine_text(command, ksq, chi):
    code, out = quiet_main(command, str(ksq), str(chi), "--json")
    assert code == 0
    return out


PAIRS_BY_REGION = {}
for pair in checks.covered_pairs(12):
    PAIRS_BY_REGION.setdefault(classify(*pair), []).append(pair)

# every family, and its degeneration where it has one
TAMPER_CASES = [
    (family.name, command)
    for family in FAMILIES
    for command in ("construct", "degenerate")
    if command == "construct" or family.degeneration is not None
]


@pytest.fixture(scope="module")
def tamper_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tamper")


@pytest.mark.parametrize("region, command", TAMPER_CASES)
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_tampered_document_never_verifies(tamper_dir, region, command, data):
    # a genuine document of a covered pair with chi <= 12, one leaf changed
    # by a type swap, a value edit or a component-name swap
    ksq, chi = data.draw(st.sampled_from(PAIRS_BY_REGION[region]), label="pair")
    doc = json.loads(genuine_text(command, ksq, chi))
    leaf, value = data.draw(st.sampled_from(list(leaves(doc))), label="leaf")
    edits = type_swaps(value) + name_swaps(component_names(doc))(value)
    edited = data.draw(st.sampled_from(edits), label="edit")
    path = tamper_dir / f"{region}-{command}.json"
    path.write_text(json.dumps(set_leaf(doc, leaf, edited)))
    assert quiet_main("verify", str(path))[0] != 0


class TestAtlas:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "atlas", "--chi-max", "1")
        assert code == 0
        assert out.startswith("chi,Ksq,region,")
        assert out.count("\n") == 10

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, out, _ = run(capsys, "atlas", "--chi-max", "2", "--format", "svg")
        path = tmp_path / "atlas.svg"
        code, out2, _ = run(
            capsys, "atlas", "--chi-max", "2", "--format", "svg", "--out", str(path)
        )
        assert code == 0
        assert out2 == ""
        assert path.read_text(encoding="utf-8") == out

    def test_repeat_runs_byte_identical(self, capsys):
        _, first, _ = run(capsys, "atlas", "--chi-max", "3", "--format", "json")
        _, second, _ = run(capsys, "atlas", "--chi-max", "3", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("where", ["missing/dir/atlas.csv", "."])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, where):
        # a file in a directory that does not exist, and a directory itself
        path = tmp_path / where
        code, out, err = run(capsys, "atlas", "--chi-max", "2", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv",
    [("atlas", "--chi-max", "0"), ("atlas", "--chi-max", "-3"), ("check", "--chi-max", "0")],
)
def test_chi_max_below_one_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --chi-max: must be at least 1" in err
    assert "Traceback" not in err


class TestCheck:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--chi-max", "2")
        assert code == 0
        assert "checks: 9/9 passed" in out
        assert "ok oracleSample: 10000 samples, 0 mismatches" in out

    @pytest.mark.parametrize("seed", [0, 1, checks.ORACLE_SEED])
    def test_draw_rule_is_randrange(self, seed):
        # the sampler's draws give randrange's values and leave the stream
        # where randrange leaves it, so the oracle data stay the same
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in list(range(1, 65)) * 20:
            assert checks._below(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()

    def test_report_written_once(self):
        code, out = written_once("check", "--chi-max", "1")
        assert code == 0 and out.endswith("checks: 9/9 passed\n")

    def test_each_pair_built_once(self, capsys, monkeypatch):
        built = []
        real = checks.construct

        def counting_construct(ksq, chi):
            built.append((ksq, chi))
            return real(ksq, chi)

        monkeypatch.setattr(checks, "construct", counting_construct)
        code, out, _ = run(capsys, "check", "--chi-max", "3")
        assert code == 0
        assert "ok constructionSweep: 27 certificates exact" in out
        assert len(set(built)) == len(built) == 27

    def test_unknown_region_fails_totality(self, monkeypatch):
        real = checks.classify

        def renamed(ksq, chi):
            return "Genus4" if (ksq, chi) == (20, 7) else real(ksq, chi)

        monkeypatch.setattr(checks, "classify", renamed)
        result = checks.check_classify_totality(7)
        assert not result.passed
        assert result.detail == "unknown region 'Genus4' at (20, 7)"

    def test_failed_sweep_step_reported(self, capsys, monkeypatch):
        real = checks.check_horikawa_pairing

        def failing_step(cert):
            if (cert.requested_ksq, cert.requested_chi) == (4, 2):
                return "(4, 2): forced failure"
            return real(cert)

        monkeypatch.setattr(checks, "check_horikawa_pairing", failing_step)
        code, out, _ = run(capsys, "check", "--chi-max", "2")
        assert code == 1
        assert "FAIL horikawaPairing: (4, 2): forced failure" in out
        assert "checks: 8/9 passed" in out

    def test_construction_sweep_names_a_pair_mismatch(self, monkeypatch):
        # the pair match is part of ok, so it is tested first to be named
        real = recipes.invariants

        def one_more_ksq(bd):
            inv = real(bd)
            return cover._invariants(
                inv.ksq + 1, inv.chi, inv.pg, inv.q, inv.pg_estimated, inv.two_k_plus_b
            )

        monkeypatch.setattr(recipes, "invariants", one_more_ksq)
        got = checks.check_construction_sweep(construct(20, 7))
        assert got == "(20, 7) rebuilt as (21, 7)"

    def test_construction_sweep_names_nonreduced_data(self, monkeypatch):
        # reducedness is part of ok, so it is tested first to be named
        share_a_noether_component(monkeypatch)
        got = checks.check_construction_sweep(construct(4, 5))
        assert got == "(4, 5) data is non-reduced"

    def test_construction_sweep_names_failed_conditions(self, monkeypatch):
        fail_marked_triple_points(monkeypatch)
        got = checks.check_construction_sweep(construct(45, 10))
        assert got == "(45, 10) failed conditions ['markedTriplePoints']"

    def test_h0_d3_identity_calls_no_h0(self, monkeypatch):
        # the check counts sections itself, so it stays independent of the
        # h0 behind Genus2General's own h0(D3) side condition
        certs = [construct(ksq, chi) for ksq, chi in ((8, 4), (20, 7), (200, 60))]

        def refused(*args):
            raise AssertionError("h0 called")

        for owner, name in ((lattice, "h0"), (lattice, "h0_flagged"), (checks, "h0")):
            monkeypatch.setattr(owner, name, refused)
        assert [checks.check_h0_d3_identity(c) for c in certs] == [1, 1, 1]

    @staticmethod
    def drop_last_row(real, doc):
        return real({**doc, "rows": doc["rows"][:-1]})

    @staticmethod
    def true_as_one(real, doc):
        return real(doc).replace(": true", ": 1")

    @pytest.mark.parametrize(
        "broken", [drop_last_row, true_as_one], ids=["drop_last_row", "true_as_one"]
    )
    def test_broken_json_emitter_fails_emission_check(self, monkeypatch, broken):
        real = geography.canonical_json
        monkeypatch.setattr(geography, "canonical_json", lambda doc: broken(real, doc))
        result = checks.check_emission_determinism(2)
        assert not result.passed
        assert result.detail == "json output does not parse back"


class TestParserReuse:
    def test_parser_built_once_per_process(self, capsys, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)

        def call(*argv):
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        path = tmp_path / "cert.json"
        first = call("construct", "20", "7", "--json")
        built.clear()  # the first call may build the parser, no later one
        path.write_text(first[1], encoding="utf-8")
        calls = [
            ("verify", str(path)),
            ("construct", "20", "x"),
            ("--help",),
            ("construct", "20", "7", "--json"),
        ]
        results = [call(*argv) for argv in calls]
        assert [r[0] for r in results] == [0, 2, 0, 0]
        assert "invalid int value" in results[1][2]
        assert results[2][1].startswith("usage: bidouble")
        assert results[3] == first
        assert [call(*argv) for argv in calls] == results
        assert built == []

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import bidouble.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bidouble", "construct", "8", "1", "--json"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["region"] == "ProductLine"
        assert doc["invariants"] == {
            "ksq": 8,
            "chi": 1,
            "pg": 4,
            "q": 4,
            "pgEstimated": False,
        }
