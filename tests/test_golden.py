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
could change the sample silently.  The oracle values digest pins what the
sample computes on those data: for each, the ``invariants`` fields
``ksq chi pg q pg_estimated`` and then ``chi_oracle`` and ``ksq_oracle``,
as one line of integers.

The verify digest pins the ``verify --json`` report, with its exit code, on
the genuine construction and degeneration documents of the first covered
pair of each family, and on one single-leaf forgery per top-level field of
each of those documents: the field's first leaf in sorted order, where an
integer moves by one, a boolean flips, a string gains "x", null becomes 0
and an empty container becomes null.  The verify text digest pins the
report without ``--json`` (its ``ok`` and ``MISMATCH`` lines and the
closing ``verified:`` line) on the same documents.
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
from bidouble.cover import CoverError, chi_oracle, invariants, ksq_oracle
from bidouble.degenerations import degenerate
from bidouble.geography import canonical_json
from bidouble.recipes import FAMILY, classify, construct

ATLAS_CHI_MAX = 30

ATLAS_DIGESTS = {
    "csv": "1cf823da5c6507e883900caf096adb2f622b2aac505d4f1eb7e1fff68d56b6d4",
    "json": "3094015a3465488147c321dadc0021faf7a72342b9bd48be1e57c360eaaaaccb",
    "svg": "e7aeafc5221d69fda422cc6c442a3eabc8d80c80d7aae8429c2822289071465a",
}

CHECK_CHI_MAX = 6
CHECK_DIGEST = "287f7268f65ce2947fabe2d4916e725098d3cd20a1cac1eb035336bfdbb66a96"

TEXT_CHI_MAX = 6
TEXT_DIGESTS = {
    "construct": "d2975465b5a90e55dd0909fdd3ceec820f7f355da0ff789eae5fcb13244276c6",
    "degenerate": "ed69b64407828ba90cc75c5e6d7aa0c1e41b8a98662ac42cdc86bd8c8479fb1c",
}

SWEEP_CHI_MAX = 60
SWEEP_DIGEST = "65198845f618c9c8161427b18e97896a2f01fb04b4e068ff24963fa6f3578938"
DEGENERATE_SWEEP_DIGEST = "46dfd02336167c8d7b7c326fdb27958bd59e04bf2c0ae6e7e4a0f51359c5f5f0"

ORACLE_STREAM_DRAWS = 10_120
ORACLE_STREAM_DIGEST = "e519cdefa835e85b1a78f44c669fd90d8adc4310e21e52c8cd04e79920106599"
ORACLE_VALUES_DIGEST = "c82803fba5ae8066c92e10a25758aa24d1394d2e4dfd97c39c7d1b56bfce439f"

VERIFY_DIGEST = "ef22d2636d0a8fdbc8c6eac4319892af3931c3e25115c2a2f5ef7a1e481cb493"
VERIFY_TEXT_DIGEST = "8d83579910d3a923d8e3927053725ec75481140ba716219b9af97e6caf639f07"

CONSTRUCT_DIGESTS = {
    1: "fcdb6a485f708afc9879f0c35f24d6a8dfa0e36cf5320377b7db9e42759dbf65",
    2: "237b76ad1079c116b8fe39989718cb38e72a59983f38a3afbde0edbee5d507e1",
    3: "d45a9106a3aa4f3dfede0ec49b10fd1ab37ab2c467b4fbdd1defa6cee470a9a3",
    4: "e327195092479ed24617fff5e519bddcaea00d6dbac7febad3f91922a6d97cee",
    5: "5ed33b19031fba21776bf0ec0ea816f0bd488f51371b9892b07f70741eba1ce1",
    6: "82506505a9082348d2dbbc5624f29abbd7a734ee82cca76d4ddf5f43bb1645ed",
    7: "adf2a68cb10b4dab87ca4d8e842f370e7f6a5341de5e8d98015fd7f77b63a034",
    8: "9d3946982a216a8d6fc71d16a01f562eddbac8b105e7f7eb08c8cfd90899fb72",
    9: "8030399897545fe24d84eaaad924c71ad261e7e3bd5d67cf3d64acd34186d6cb",
    10: "e223c2f7ab826f94c0c7cd722cc564c46e27c62122a275a150e2c2c20a6d5002",
    11: "f1d6f15ad53145b88cd63c697b4f6d213df7fb55c82dfb8add47082c7cdde8fd",
    12: "37f4fa59be2fcc171781ddd986d3ca969ac8472e65b13fa1ccf2e97d6b72d598",
}

DEGENERATE_DIGESTS = {
    2: "c2f69f757c042d000d397196260e81a94974dfbe998a900524e42674e6582d5c",
    3: "1b54fde6fddc7f712ebec8531ab5e247c09f9cf4f57569b6fd3e84b953f126e8",
    4: "f9df97e75d5de96b704c19ccc144a0eda133d480a2aaf97ba82a4a908b9bcf7a",
    5: "a673fe4f5f53104ba3dc2af76aae3ba488c4a285577bccc7940e8622ee28dda6",
    6: "7cca1d72f4bfefdfc5407c12ca801a082148fe519cdb1ddf3f51af4515244925",
    7: "c62ae43a073fad2aac2cfaacf44ea9aefa18af997247f70f97972966b686b5b1",
    8: "3f163205c73b1b9eb8c48ce4ec2259532b692616efe5794403ca853f5a33b29c",
    9: "23ef2a037bad5f42c722121af9959ee79ec1add71f709f397bbb478e98f9d309",
    10: "ed9f7c89e01bbc448664bbf5dc2f46f08b49931c73591c544728de9f41477dde",
    11: "640b8896da70299013485a8d545f62b9fce34d031f91c4b0d7502c273d5563f5",
    12: "0218943c28185b34f806fc09dda40e5c79bbaffa773334c893099e0be5469495",
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


def oracle_sample():
    """The valid data of ``check``'s oracle sample, in order, and the number
    of draws they took."""
    rng = random.Random(ORACLE_SEED)
    data = []
    draws = 0
    while len(data) < ORACLE_SAMPLES:
        draws += 1
        try:
            data.append(sample_building_data(rng))
        except CoverError:
            continue
    return data, draws


def test_oracle_stream_digest():
    data, draws = oracle_sample()
    h = hashlib.sha256()
    for bd in data:
        h.update(canonical_json(bd.to_doc()).encode("utf-8"))
    assert (draws, h.hexdigest()) == (ORACLE_STREAM_DRAWS, ORACLE_STREAM_DIGEST)


def test_oracle_values_digest():
    h = hashlib.sha256()
    for bd in oracle_sample()[0]:
        inv = invariants(bd)
        row = (inv.ksq, inv.chi, inv.pg, inv.q, int(inv.pg_estimated))
        row += (chi_oracle(bd), ksq_oracle(bd))
        h.update((" ".join(map(str, row)) + "\n").encode("utf-8"))
    assert h.hexdigest() == ORACLE_VALUES_DIGEST


@pytest.mark.parametrize("chi", sorted(CONSTRUCT_DIGESTS))
def test_construct_digest(chi):
    assert row_digest("construct", chi) == CONSTRUCT_DIGESTS[chi]


@pytest.mark.parametrize("chi", sorted(DEGENERATE_DIGESTS))
def test_degenerate_digest(chi):
    assert row_digest("degenerate", chi) == DEGENERATE_DIGESTS[chi]


def verify_digest(tmp_path, *flags: str) -> str:
    """The digest of ``verify``'s report, with its exit code, on the genuine
    document of each family's first pair and each of its forgeries."""
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
                    code = main(["verify", str(path), *flags])
                assert (code == 0) == (i == 0), path
                h.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    return h.hexdigest()


def test_verify_json_digest(tmp_path):
    assert verify_digest(tmp_path, "--json") == VERIFY_DIGEST


def test_verify_text_digest(tmp_path):
    assert verify_digest(tmp_path) == VERIFY_TEXT_DIGEST
