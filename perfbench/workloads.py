"""The benchmark's four workloads, each driven through the library's public API.

A workload is built from a seed into a fixed list of items, one *round* of
work, and ``op(item)`` runs the library on one item in a closed loop with a
single caller.  ``op`` returns ``None`` when the output is correct and a short
fault description otherwise; an exception escaping the library also counts as
a failed op (the measuring loop catches it).

Why each workload exists:

* ``sweep60``: every covered pair with chi <= 60 through ``recipes.construct``
  in (chi, Ksq) order, the path of acceptance criterion 1.  Only ``lattice``,
  ``cover`` and ``recipes`` run; serializers, degenerations and ``verify``
  changes should show nothing here.
* ``certify``: the user's round trip on a seeded sample of pairs: construct,
  degenerate, ``canonical_json`` to a file, ``bidouble verify`` on each file.
* ``verify_untrusted``: ``bidouble verify`` on a seeded mix of genuine and
  forged documents, the rejection path, including forgeries whose cost grows
  with the integers they hold.
* ``check12``: ``bidouble check --chi-max 12``, the only workload that runs
  ``checks``, the random-data oracle and the atlas emitters.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from collections import Counter

# calls go through the module attributes, where the tracer puts its wrappers
from bidouble import PRODUCT_LINE, cli, degenerations, geography, recipes

CHI_MAX = 60

# a forged document whose D0 coefficient is raised by this even amount keeps
# the parity of every bundle; today its cost grows with the amount
D0_RAISE = 100_000
D0_LABEL_SUFFIX = f"+{D0_RAISE}"


def covered_pairs(chi_max: int) -> list[tuple[int, int]]:
    """Covered pairs up to chi_max in (chi, Ksq) order: the strip
    2chi-6 <= Ksq <= 8chi-8 and the product line Ksq = 8chi.

    Written out here rather than taken from the library, so the inputs stay
    fixed whatever the library does.
    """
    pairs = []
    for chi in range(1, chi_max + 1):
        pairs.extend((ksq, chi) for ksq in range(max(1, 2 * chi - 6), 8 * chi - 7))
        pairs.append((8 * chi, chi))
    return pairs


def stratified_sample(rng: random.Random, pairs: list, n: int) -> list[tuple[int, int]]:
    """n of the pairs, each stratum (region, Ksq mod 4) taking its share.

    The shares are fixed and only the pairs within a stratum depend on the
    seed, so a round costs about the same whatever the seed.
    """
    strata: dict[tuple[str, int], list] = {}
    for ksq, chi in pairs:
        strata.setdefault((recipes.classify(ksq, chi), ksq % 4), []).append((ksq, chi))
    keys = sorted(strata)
    quotas = {k: len(strata[k]) * n / len(pairs) for k in keys}
    counts = {k: int(q) for k, q in quotas.items()}
    by_remainder = sorted(keys, key=lambda k: quotas[k] - counts[k], reverse=True)
    for k in by_remainder[: n - sum(counts.values())]:
        counts[k] += 1
    sample = [p for k in keys for p in rng.sample(strata[k], counts[k])]
    rng.shuffle(sample)
    return sample


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``bidouble`` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def certificate_fault(cert, expected: tuple[int, int]) -> str | None:
    inv = cert.invariants
    if not cert.ok:
        return "certificate is not ok"
    if (inv.ksq, inv.chi) != expected:
        return f"invariants ({inv.ksq}, {inv.chi}), expected {expected}"
    if inv.pg_estimated:
        return "pg is only estimated"
    return None


class Workload:
    """One round of items plus the op that runs the library on one item."""

    name = ""

    def __init__(self, items: list, pairs_per_op: int = 1) -> None:
        self.items = items
        # how many (Ksq, chi) pairs one op handles, for calls-per-pair ratios
        self.pairs_per_op = pairs_per_op
        self.verify_codes: Counter[int] = Counter()
        self.forged: dict[str, bool] = {}

    def op(self, item) -> str | None:
        raise NotImplementedError

    def warm_items(self) -> list:
        """Items run once before timing, so first-call costs land in set-up."""
        return self.items[:3]

    def describe(self, item) -> str:
        return repr(item)

    def verify(self, path: str) -> int:
        code, _ = run_cli(["verify", path])
        self.verify_codes[code] += 1
        return code

    def reset_counts(self) -> None:
        self.verify_codes.clear()
        self.forged.clear()

    def forged_accepted_share(self) -> float:
        if not self.forged:
            return 0.0
        return sum(self.forged.values()) / len(self.forged)


class Sweep60(Workload):
    name = "sweep60"

    def __init__(self, chi_max: int) -> None:
        super().__init__([(ksq, chi, (ksq, chi)) for ksq, chi in covered_pairs(chi_max)])

    def op(self, item) -> str | None:
        ksq, chi, expected = item
        return certificate_fault(recipes.construct(ksq, chi), expected)


class Certify(Workload):
    name = "certify"

    def __init__(self, seed: int, sample: int, chi_max: int, workdir: str) -> None:
        rng = random.Random(seed)
        pairs = stratified_sample(rng, covered_pairs(chi_max), sample)
        super().__init__([(ksq, chi, (ksq, chi)) for ksq, chi in pairs])
        self.paths = {
            kind: os.path.join(workdir, f"{kind}.json")
            for kind in ("construction", "degeneration")
        }
        for path in self.paths.values():
            open(path, "wb").close()

    def _write_and_verify(self, kind: str, doc: dict) -> str | None:
        path = self.paths[kind]
        # overwritten in place: a file cut to length zero and written again is
        # flushed to disk on close by ext4, which would time the disk instead
        with open(path, "r+b") as fh:
            fh.write(geography.canonical_json(doc).encode())
            fh.truncate()
        code = self.verify(path)
        return None if code == 0 else f"genuine {kind} document: verify exit {code}"

    def op(self, item) -> str | None:
        ksq, chi, expected = item
        cert = recipes.construct(ksq, chi)
        fault = certificate_fault(cert, expected)
        if fault is None:
            fault = self._write_and_verify("construction", cert.to_doc())
        if fault is None and cert.region != PRODUCT_LINE:
            dc = degenerations.degenerate(cert)
            if not dc.ok:
                return "degeneration is not ok"
            fault = self._write_and_verify("degeneration", dc.to_doc())
        return fault


def leaves(node, path: tuple = ()):
    """(path, value) of every scalar in a JSON document, in key order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from leaves(node[key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def leaf_label(kind: str, path: tuple) -> str:
    return kind + ":" + ".".join("*" if isinstance(k, int) else k for k in path)


def changed_value(value, strings: list[str], rng: random.Random):
    """A value of the same JSON type that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + rng.choice((-3, -2, -1, 1, 2, 3))
    if isinstance(value, str):
        others = [s for s in strings if s != value]
        if others and rng.random() < 0.5:
            return rng.choice(others)
        return value + "x"
    return rng.choice((0, "", False))  # value is null


def set_leaf(doc: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(doc))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class VerifyUntrusted(Workload):
    """Genuine documents, single-leaf forgeries, and D0-raised forgeries.

    Every forgery is kept, whether or not ``verify`` catches it today; the
    share it accepts is reported per leaf path, never filtered.  ``verify``
    rejects every D0-raised forgery today, so accepting one fails the op: a
    faster ``verify`` must not get there by skipping the checks that catch it.
    """

    name = "verify_untrusted"
    GENUINE_SHARE = 0.25
    D0_SHARE = 0.02

    def __init__(self, seed: int, pairs: int, pool: int, chi_max: int, workdir: str) -> None:
        rng = random.Random(seed)
        genuine = []
        for ksq, chi in stratified_sample(rng, covered_pairs(chi_max), pairs):
            cert = recipes.construct(ksq, chi)
            genuine.append(cert.to_doc())
            if cert.region != PRODUCT_LINE:
                genuine.append(degenerations.degenerate(cert).to_doc())
        ruled = [d for d in genuine if d["data"]["ambient"]["kind"] != "ProjectivePlane"]
        n_genuine = round(pool * self.GENUINE_SHARE)
        n_d0 = max(1, round(pool * self.D0_SHARE))
        docs: list[tuple[dict, str | None]] = []
        for i in range(n_genuine):
            docs.append((genuine[i % len(genuine)], None))
        for _ in range(n_d0):
            doc = rng.choice(ruled)
            key = rng.choice(("d1", "d2", "d3"))
            coords = doc["data"]["classes"][key]
            forged = set_leaf(doc, ("data", "classes", key, 0), coords[0] + D0_RAISE)
            docs.append((forged, f"{doc['kind']}:data.classes.{key}.0{D0_LABEL_SUFFIX}"))
        for _ in range(pool - n_genuine - n_d0):
            doc = rng.choice(genuine)
            doc_leaves = list(leaves(doc))
            strings = sorted({v for _, v in doc_leaves if isinstance(v, str)})
            path, value = rng.choice(doc_leaves)
            forged = set_leaf(doc, path, changed_value(value, strings, rng))
            docs.append((forged, leaf_label(doc["kind"], path)))
        rng.shuffle(docs)
        items = []
        for i, (doc, label) in enumerate(docs):
            path = os.path.join(workdir, f"{i:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True))  # verify reads any JSON layout
            items.append((path, label))
        super().__init__(items)

    def op(self, item) -> str | None:
        path, label = item
        code = self.verify(path)
        if label is None:
            return None if code == 0 else f"genuine document: verify exit {code}"
        self.forged[path] = code == 0
        if code == 0 and label.endswith(D0_LABEL_SUFFIX):
            return f"forged document accepted: {label}"
        # an accepted single-leaf forgery is the defect this workload
        # measures, reported as forged_accepted_share rather than as a failed op
        return None

    def warm_items(self) -> list:
        return [item for item in self.items if item[1] is None][:3]

    def forgery_table(self) -> dict[str, dict[str, int]]:
        """Tampered and accepted documents per leaf path."""
        labels = dict(self.items)
        table: dict[str, dict[str, int]] = {}
        for path, accepted in self.forged.items():
            row = table.setdefault(labels[path], {"tampered": 0, "accepted": 0})
            row["tampered"] += 1
            row["accepted"] += accepted
        return dict(sorted(table.items()))


class Check12(Workload):
    name = "check12"

    def __init__(self, chi_max: int) -> None:
        super().__init__(
            [["check", "--chi-max", str(chi_max)]],
            pairs_per_op=len(covered_pairs(chi_max)),
        )

    def warm_items(self) -> list:
        return []  # one op is a whole check

    def op(self, item) -> str | None:
        code, out = run_cli(item)
        return None if code == 0 else f"check exit {code}: {out.strip().splitlines()[-1:]}"


def build(name: str, seed: int, smoke: bool, workdir: str) -> Workload:
    """The workload's inputs, made from the seed; smoke mode shrinks them."""
    if name == "sweep60":
        return Sweep60(3 if smoke else CHI_MAX)
    if name == "certify":
        return Certify(seed, 4 if smoke else 250, 5 if smoke else CHI_MAX, workdir)
    if name == "verify_untrusted":
        return VerifyUntrusted(
            seed, 3 if smoke else 40, 20 if smoke else 250, 5 if smoke else CHI_MAX, workdir
        )
    if name == "check12":
        return Check12(2 if smoke else 12)
    raise ValueError(f"unknown workload {name!r}")
