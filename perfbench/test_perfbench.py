"""Tests of the benchmark itself, on its smoke inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pace  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(trace: int) -> tuple[dict[str, dict], list[str]]:
    """Per-workload result objects and report lines of a smoke run of all workloads."""
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS) + 1
    return dict(zip(WORKLOADS, results)), lines


def test_end_to_end_metrics_present_with_units():
    results, lines = smoke(trace=0)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == wanted, name
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
        assert any(line.startswith(f"[{name}] failed_share = ") for line in lines)
        context = next(line for line in lines if line.startswith(f"[{name}] context "))
        assert {"python", "cores", "commit", "seed", "src_lines"} <= set(
            json.loads(context.split(" context ", 1)[1])
        )
    assert any(line.startswith("[verify_untrusted] forged_accepted_share = ") for line in lines)
    assert any(line.startswith("[verify_untrusted] forgeries {") for line in lines)


# per-layer metrics the benchmark promises by name
NAMED_LAYER_METRICS = [
    "lattice.DivClass.post_init.calls",
    "lattice.intersect.calls",
    "lattice.positivity.self_us_per_op",
    "lattice.h0_flagged.self_us_per_op",
    "cover.building_data.calls",
    "cover.building_data.self_us_per_op",
    "cover.resolve_triple_point.calls",
    "cover.resolve_triple_point.self_us_per_op",
    "cover.invariants.self_us_per_op",
    "cover.singularity_scan.self_us_per_op",
    "cover.BuildingData.from_doc.self_us_per_op",
    "recipes.construct.calls",
    "recipes.construct.self_us_per_op",
    "recipes.evaluate_side_conditions.self_us_per_op",
    "recipes.construct.calls_per_pair",
    "degenerations.degenerate.self_us_per_op",
    "degenerations.availability_conditions.self_us_per_op",
    "geography.canonical_json.calls",
    "geography.canonical_json.self_us_per_op",
    "geography.canonical_json.bytes",
    "recipes.ConstructionCertificate.to_doc.self_us_per_op",
    "degenerations.DegenerationCertificate.to_doc.self_us_per_op",
    "geography.atlas.self_us_per_op",
    "geography.emit.self_us_per_op",
    *(
        f"checks.check_{name}.self_us_per_op"
        for name in (
            "classify_totality", "construction_sweep", "resolution_deltas",
            "horikawa_pairing", "degeneration_sweep", "oracle_sample",
            "h0_monomial_grid", "h0_d3_identity", "emission_determinism",
        )
    ),
    "cli.main.self_us_per_op",
    "cli.build_parser.self_us_per_op",
    "cli.verify.accepted",
    "cli.verify.rejected",
    "cli.verify.bad_request",
    "trace.overhead_s",
]


def test_per_layer_metrics_present_with_units():
    results, _ = smoke(trace=1)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(NAMED_LAYER_METRICS) <= set(wanted)
    for name, result in results.items():
        assert result["correct"], name
        assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted, name
    layers = {name: {k: m["value"] for k, m in r["metrics"].items()} for name, r in results.items()}
    assert layers["sweep60"]["recipes.construct.calls"] == 1
    assert layers["sweep60"]["geography.canonical_json.calls"] == 0
    assert layers["certify"]["geography.canonical_json.bytes"] > 0
    assert layers["check12"]["checks.check_oracle_sample.calls"] == 1
    assert layers["verify_untrusted"]["cli.verify.rejected"] > 0


def test_broken_expectation_counts_as_failure():
    wl = workloads.Sweep60(2)
    ksq, chi, _ = wl.items[0]
    wl.items[0] = (ksq, chi, (ksq + 1, chi))
    with pace.Pacer() as pacer:
        phase = worker.measure(wl, 0, pacer)
    assert phase["ops"] == len(wl.items)
    assert phase["failed"] == 1
    assert "expected" in phase["failures"][0]


def test_accepted_d0_forgery_counts_as_failure(tmp_path):
    wl = workloads.build("verify_untrusted", 1, True, str(tmp_path))
    d0 = [item for item in wl.items if (item[1] or "").endswith(workloads.D0_LABEL_SUFFIX)]
    leaf = [item for item in wl.items if item[1] is not None and item not in d0]
    assert d0 and leaf
    with pace.Pacer() as pacer:
        assert worker.measure(wl, 0, pacer)["failed"] == 0
        wl.verify = lambda path: 0  # a verify that accepts everything
        assert all(wl.op(item) is not None for item in d0)
        assert all(wl.op(item) is None for item in leaf)
        assert worker.measure(wl, 0, pacer)["failed"] == len(d0)


def test_tracer_wraps_every_binding_and_restores():
    from bidouble import cover, recipes

    original = cover.building_data
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert recipes.building_data is cover.building_data is not original
        recipes.construct(20, 7)
    finally:
        tracer.uninstall()
    assert recipes.building_data is cover.building_data is original
    assert tracer.stats["recipes.construct"][0] == 1
    assert tracer.stats["cover.building_data"][0] >= 1


def test_pacer_scales_to_nominal_speed():
    pacer = pace.Pacer()
    pacer.refs = [2 * pace.REF_NOMINAL_NS] * 5
    assert pacer.scale([(1000, 1, 3), (1000, 4, 4)]) == [500.0, 500.0]


def test_pacer_samples_and_leaves_out_its_own_time():
    with pace.Pacer() as pacer:
        t0, paced0 = time.perf_counter_ns(), pacer.now()
        while time.perf_counter_ns() - t0 < 300_000_000:
            pass
        wall, paced = time.perf_counter_ns() - t0, pacer.now() - paced0
    assert len(pacer.refs) >= 4
    assert paced < wall


def test_sweep_covers_criterion_one_pairs():
    assert len(workloads.covered_pairs(60)) == 10_971


def test_fails_without_library_source():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
