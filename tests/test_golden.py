"""Golden SHA-256 digests of the documents the command line emits.

Certificates and atlases are byte-identical for fixed inputs, so any change
to how they are computed must leave these digests in place.  A digest moves
only with an intended change to a document format, recorded in CHANGES.md.

The ``check --chi-max 6`` digest pins the sweep report: its counts, the
oracle sample and the emitted atlas sizes.

Each construction or degeneration digest covers one chi row, chi <= 12: the
``--json`` output of every covered pair with that chi, in increasing Ksq,
concatenated.  The product line has no degeneration and is left out of the
degenerate rows, which leaves the chi = 1 row empty.

The text digests pin the human-readable ``construct`` and ``degenerate``
output (no ``--json``) of every covered pair with chi <= 6, row after row.

The sweep digest pins ``canonical_json(construct(ksq, chi).to_doc())`` of
every covered pair with chi <= 60, in (chi, Ksq) order, concatenated.  It
reaches the large-alpha Genus3 data that the chi <= 12 rows never build.
The degenerate sweep digest does the same for
``canonical_json(degenerate(construct(ksq, chi)).to_doc())``, leaving out
the product line.

The oracle stream digest pins the random data behind ``check``'s oracle
sample: ``canonical_json(bd.to_doc())`` of each of the 10,000 valid data
that ``sample_building_data`` draws from ``random.Random(ORACLE_SEED)``,
concatenated, and the number of draws they take.  The ``check`` report
shows only the sample count, so without this pin a change to the sampler
could change the sample silently.

The verify digest pins the ``verify --json`` report, with its exit code, on
the genuine construction and degeneration documents of the first covered
pair of each family, and on one single-leaf forgery per top-level field of
each of those documents: the field's first leaf in sorted order, where an
integer moves by one, a boolean flips, a string gains "x", null becomes 0
and an empty container becomes null.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json

import random

import pytest

from bidouble.checks import ORACLE_SAMPLES, ORACLE_SEED, sample_building_data
from bidouble.cli import main
from bidouble.cover import CoverError
from bidouble.degenerations import degenerate
from bidouble.geography import canonical_json
from bidouble.recipes import FAMILY, classify, construct

ATLAS_CHI_MAX = 30

ATLAS_DIGESTS = {
    "csv": "43f5a9acfed1e91f4fd6ed8ce35db8d4e9eae70b80532c90f90974bbc6881237",
    "json": "f171c7617a97893fd6321b8d8c0e9b3d3dab4a01ed7880c1bf139160a39bd004",
    "svg": "d1d1d7720221fc2c6eaaf6dbd0e0b442f4779dcecaeb5d78451acdbb3d998a2b",
}

CHECK_CHI_MAX = 6
CHECK_DIGEST = "6a5eb0d674dbf2843afb9fecb753e835a0601fb1592797c17feb1f8fd139373b"

TEXT_CHI_MAX = 6
TEXT_DIGESTS = {
    "construct": "74af715d95dc017e38103b4c87fb9a814b6e3635e45fb6a8009d8838135e67ff",
    "degenerate": "6d8842eb20eb36397c6376e01f27b4c530a63626486413ff9ce51e80e216c952",
}

SWEEP_CHI_MAX = 60
SWEEP_DIGEST = "1859d06ab675120b7ff20314c95070e8df79f453c3220cfdd031ec3e9d06f823"
DEGENERATE_SWEEP_DIGEST = "c0e5191d28e41697ec67338bcb7cf766e312d41bee555dd3f44fdc3c9d3e0675"

ORACLE_STREAM_DRAWS = 10_120
ORACLE_STREAM_DIGEST = "e519cdefa835e85b1a78f44c669fd90d8adc4310e21e52c8cd04e79920106599"

VERIFY_DIGEST = "5404f7c89f6228e16dbb4dabd7c6afbe0ba9d14613560f9322487bc5d4c1cb73"

CONSTRUCT_DIGESTS = {
    1: "fcdb6a485f708afc9879f0c35f24d6a8dfa0e36cf5320377b7db9e42759dbf65",
    2: "17dac4bdf6b634f13a81a071a06226c1cec8713983c04ad4cb1a73fff58a65ca",
    3: "5b4486ee4a80584e9649dc8443dc522c3ec68c1ea6ff5ccc296eadc3c6cbbc74",
    4: "493e59f9f2ffcd6f09f41fb7f5ad8d3d184a69b7eca0e135b04f87c7eaf87a60",
    5: "46a24b609d0d39d475eb7263dcd5f490c6f90c9993b1d9c252325e2d3659c3a6",
    6: "6344f0628742b0791a497174c9a2a399cad58d9a930e421cbc45fb4fcb9ebe8e",
    7: "428141f48973ce27853007a0e1eaa3bcb1026fb3146c70afb4cddb2082ce4a5a",
    8: "91a2e65aa1c4c8924b12a86aae634a43087b2dd2db650a669be2ce7fe307257b",
    9: "bce32f2a0bc146557a4845782a4d077873d1215fbb71de45848daf78d18c2455",
    10: "422d1b929c981e13a6df8ffc6cb4ae8debc5e2574c12a801cededf86f1fd71ff",
    11: "10c16d5d5d59572e1f7b2c0d52620e83db58c423be570757e614716895551a50",
    12: "4951f992a6e21889eff974ac961d2b4d48c64db889115c85b5110c05d256098d",
}

DEGENERATE_DIGESTS = {
    2: "95d628a24d0e22f088804d8b4afd5097b41f774b0b6a8393d6bed14e432cfaeb",
    3: "28e3f138bd0a5810671c907dcc234d492795c40a7e9cc1fe71a077e282eacbcd",
    4: "8d6ba6a3cf37e26209490e2af009d804986553bd8ab0e8c9a7bbe1f117eb2d51",
    5: "e37353a9e7aabd25b1505156f0eab6da3ed09d1ccdf39d7900a6cb143b064a3a",
    6: "87b9eef145cf1f2bca5d64e494935433100883a1642e85198497a189f942cadb",
    7: "129dc40cf7062bdc89b787265cabe9dffaec1cf6f08892b6017d72b8d953945a",
    8: "4182269ad6deb174946a997434474d91a00f03edbb19b3ba6584aac91c2ea075",
    9: "82985da5b848bedf0828ba394e8a90aed2bdf6723f1cc2330109f6a1c3dc00a1",
    10: "f6ca64e29b384a271afda253cc058d6dde5f7f6e1a62e1d376fba18db1a5034a",
    11: "fd3058cc9f1f12f1f7b9ac05cf6a400e20137eb66b593f0c72b80405787e19ec",
    12: "1b863b64f16a1f07fcb6d792e49fa0d9d13fb3f910557cbfff37d4cddab101a5",
}


def cli_stdout(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


def row_pairs(chi: int) -> list[int]:
    """Ksq values of the covered pairs in one chi row: the strip
    2chi-6 <= Ksq <= 8chi-8 and the product line Ksq = 8chi."""
    return list(range(max(1, 2 * chi - 6), 8 * chi - 7)) + [8 * chi]


def feed_row(h, command: str, chi: int, *flags: str) -> None:
    for ksq in row_pairs(chi):
        if command == "degenerate" and ksq == 8 * chi:
            continue
        h.update(cli_stdout([command, str(ksq), str(chi), *flags]))


def first_pair_of_each_family() -> list[tuple[int, int]]:
    firsts: dict[str, tuple[int, int]] = {}
    for chi in range(1, 5):
        for ksq in row_pairs(chi):
            firsts.setdefault(classify(ksq, chi), (ksq, chi))
    assert firsts.keys() == FAMILY.keys()
    return sorted(firsts.values(), key=lambda pair: pair[::-1])


def first_leaf(node, path=()):
    """Path to the first scalar of ``node`` in sorted key order, or to
    ``node`` itself when it is an empty container."""
    if isinstance(node, dict) and node:
        key = min(node)
        return first_leaf(node[key], path + (key,))
    if isinstance(node, list) and node:
        return first_leaf(node[0], path + (0,))
    return path


def forged(doc: dict, field: str) -> dict:
    out = copy.deepcopy(doc)
    path = first_leaf(out[field], (field,))
    node = out
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, bool):
        edit = not value
    elif isinstance(value, int):
        edit = value + 1
    elif isinstance(value, str):
        edit = value + "x"
    elif value is None:
        edit = 0
    else:  # an empty container
        edit = None
    node[path[-1]] = edit
    return out


def row_digest(command: str, chi: int) -> str:
    h = hashlib.sha256()
    feed_row(h, command, chi, "--json")
    return h.hexdigest()


@pytest.mark.parametrize("fmt", sorted(ATLAS_DIGESTS))
def test_atlas_digest(fmt):
    text = cli_stdout(["atlas", "--chi-max", str(ATLAS_CHI_MAX), "--format", fmt])
    assert hashlib.sha256(text).hexdigest() == ATLAS_DIGESTS[fmt]


def test_check_digest():
    text = cli_stdout(["check", "--chi-max", str(CHECK_CHI_MAX)])
    assert hashlib.sha256(text).hexdigest() == CHECK_DIGEST


@pytest.mark.parametrize("command", sorted(TEXT_DIGESTS))
def test_text_digest(command):
    h = hashlib.sha256()
    for chi in range(1, TEXT_CHI_MAX + 1):
        feed_row(h, command, chi)
    assert h.hexdigest() == TEXT_DIGESTS[command]


def test_sweep_digest():
    h = hashlib.sha256()
    for chi in range(1, SWEEP_CHI_MAX + 1):
        for ksq in row_pairs(chi):
            h.update(canonical_json(construct(ksq, chi).to_doc()).encode("utf-8"))
    assert h.hexdigest() == SWEEP_DIGEST


def test_degenerate_sweep_digest():
    h = hashlib.sha256()
    for chi in range(1, SWEEP_CHI_MAX + 1):
        for ksq in row_pairs(chi):
            if ksq == 8 * chi:
                continue
            h.update(canonical_json(degenerate(construct(ksq, chi)).to_doc()).encode("utf-8"))
    assert h.hexdigest() == DEGENERATE_SWEEP_DIGEST


def test_oracle_stream_digest():
    rng = random.Random(ORACLE_SEED)
    h = hashlib.sha256()
    valid = draws = 0
    while valid < ORACLE_SAMPLES:
        draws += 1
        try:
            bd = sample_building_data(rng)
        except CoverError:
            continue
        valid += 1
        h.update(canonical_json(bd.to_doc()).encode("utf-8"))
    assert (draws, h.hexdigest()) == (ORACLE_STREAM_DRAWS, ORACLE_STREAM_DIGEST)


@pytest.mark.parametrize("chi", sorted(CONSTRUCT_DIGESTS))
def test_construct_digest(chi):
    assert row_digest("construct", chi) == CONSTRUCT_DIGESTS[chi]


@pytest.mark.parametrize("chi", sorted(DEGENERATE_DIGESTS))
def test_degenerate_digest(chi):
    assert row_digest("degenerate", chi) == DEGENERATE_DIGESTS[chi]


def test_verify_json_digest(tmp_path):
    h = hashlib.sha256()
    for ksq, chi in first_pair_of_each_family():
        for command in ("construct", "degenerate"):
            if command == "degenerate" and ksq == 8 * chi:
                continue
            genuine = json.loads(cli_stdout([command, str(ksq), str(chi), "--json"]))
            docs = [genuine] + [forged(genuine, field) for field in sorted(genuine)]
            for i, doc in enumerate(docs):
                path = tmp_path / f"{command}-{ksq}-{chi}-{i}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(["verify", str(path), "--json"])
                assert (code == 0) == (i == 0), path
                h.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    assert h.hexdigest() == VERIFY_DIGEST
