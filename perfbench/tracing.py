"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps each function in ``TRACED`` and puts the wrapper on
every ``bidouble`` module namespace that binds the function, since modules
import each other's functions by name (``from .cover import building_data``).
Methods are wrapped on their class.  A span records its op, its own id, the
id of the span that called it, its label, start and end.  Counts and self
time (the span minus the spans of wrapped calls inside it) are aggregated as
calls finish; the first SPAN_CAP spans are kept in memory and written out
when the run ends.  A span also holds the reference runs of pace.py that land
in it, about 2% of the time, spread over the layers in proportion to their
time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "bidouble"
SPAN_CAP = 20_000

# (module, attribute, metric label); each label names the metrics
# <label>.calls and <label>.self_us_per_op
TRACED = (
    ("lattice", "DivClass.__post_init__", "lattice.DivClass.post_init"),
    ("lattice", "intersect", "lattice.intersect"),
    ("lattice", "positivity", "lattice.positivity"),
    ("lattice", "h0_flagged", "lattice.h0_flagged"),
    ("cover", "building_data", "cover.building_data"),
    ("cover", "resolve_triple_point", "cover.resolve_triple_point"),
    ("cover", "invariants", "cover.invariants"),
    ("cover", "singularity_scan", "cover.singularity_scan"),
    ("cover", "BuildingData.from_doc", "cover.BuildingData.from_doc"),
    ("recipes", "construct", "recipes.construct"),
    ("recipes", "evaluate_side_conditions", "recipes.evaluate_side_conditions"),
    ("recipes", "ConstructionCertificate.to_doc", "recipes.ConstructionCertificate.to_doc"),
    ("degenerations", "degenerate", "degenerations.degenerate"),
    ("degenerations", "availability_conditions", "degenerations.availability_conditions"),
    (
        "degenerations",
        "DegenerationCertificate.to_doc",
        "degenerations.DegenerationCertificate.to_doc",
    ),
    ("geography", "canonical_json", "geography.canonical_json"),
    ("geography", "atlas", "geography.atlas"),
    ("geography", "emit", "geography.emit"),
    ("checks", "check_classify_totality", "checks.check_classify_totality"),
    ("checks", "check_construction_sweep", "checks.check_construction_sweep"),
    ("checks", "check_resolution_deltas", "checks.check_resolution_deltas"),
    ("checks", "check_horikawa_pairing", "checks.check_horikawa_pairing"),
    ("checks", "check_degeneration_sweep", "checks.check_degeneration_sweep"),
    ("checks", "check_oracle_sample", "checks.check_oracle_sample"),
    ("checks", "check_h0_monomial_grid", "checks.check_h0_monomial_grid"),
    ("checks", "check_h0_d3_identity", "checks.check_h0_d3_identity"),
    ("checks", "check_emission_determinism", "checks.check_emission_determinism"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
)

# labels whose return value's length is summed, reported as <label>.bytes
SIZED = frozenset({"geography.canonical_json"})


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {label: [0, 0, 0] for _, _, label in TRACED}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list[int]] = []  # [span id, ns spent in wrapped calls]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        stat = self.stats[label]
        stack = self._stack
        clock = time.perf_counter_ns
        sized = label in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                if stack:
                    stack[-1][1] += total
                stat[0] += 1
                stat[1] += total - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op, span_id, parent, label, start, end))
                else:
                    self.dropped += 1
            if sized:
                stat[2] += len(result)
            return result

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module_name, attr, label in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(self._wrap(label, raw.__func__)))
                else:
                    self._set(cls, method, self._wrap(label, raw))
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(label, fn)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def layer_metrics(self, ops: int, pairs: int, speed: float) -> dict[str, tuple[float, str]]:
        """Calls and self time per op for every traced function; ``speed``
        rescales the times (see pace.py)."""
        out: dict[str, tuple[float, str]] = {}
        for label, (calls, self_ns, size) in self.stats.items():
            out[f"{label}.calls"] = (calls / ops, "calls/op")
            out[f"{label}.self_us_per_op"] = (self_ns * speed / 1e3 / ops, "us/op")
            if label in SIZED:
                out[f"{label}.bytes"] = (size / ops, "B/op")
        out["recipes.construct.calls_per_pair"] = (
            self.stats["recipes.construct"][0] / pairs,
            "calls/pair",
        )
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for op, span_id, parent, label, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "id": span_id, "parent": parent, "name": label,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
