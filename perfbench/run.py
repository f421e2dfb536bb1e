"""Benchmark of the bidouble library: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload certify --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke

Each workload runs in fresh interpreters launched here one at a time
(perfbench/worker.py), so set-up time and peak memory belong to that
workload alone.  Set-up is timed from launch to the end of input generation
in SETUP_RUNS processes, four that only set up and the one that measures,
and the median is reported.  Times are scaled to a fixed interpreter speed
(pace.py).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced phase that follows an
untraced one.  Every metric is printed by name with its unit; the last line
of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit status is 1
when any op produced a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep60", "certify", "verify_untrusted", "check12")
SETUP_RUNS = 5
# one workload's run must end within 180 s; its workers are killed past this
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "bidouble").rglob("*.py"))
    )


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its result with its set-up time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - launched),
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - launched - result["setup_stolen_s"]
    result["setup_s"] = result["raw_setup_s"] * result["setup_factor"]
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 deadline: float) -> tuple[dict, list[str]]:
    """The result object and the report lines of one workload."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    setup_runs = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setup_runs.append(spawn(args + ["--setup-only"], deadline))
    res = spawn(args, deadline)
    setup_runs.append(res)
    setups = [r["setup_s"] for r in setup_runs]
    plain = res["plain"]
    phases = [plain] + ([res["traced"]] if trace else [])
    attempted = sum(p["ops"] for p in phases)
    failed = sum(p["failed"] for p in phases)

    tag = f"[{name}]"
    context = {
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": source_lines(),
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
    }
    lines = [f"{tag} context {json.dumps(context)}"]
    if trace:
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
    else:
        wall = statistics.median(plain["rounds"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (plain["round_ops"] / wall, "1/s"),
            "latency_p50_us": (plain["latency_p50_us"], "us"),
            "latency_p99_us": (plain["latency_p99_us"], "us"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    per_round = f"median over {len(plain['rounds'])} rounds of {plain['round_ops']} ops"
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": per_round,
        "ops_per_s": per_round,
        "latency_p50_us": f"{plain['round_ops']} ops, each its median over the rounds",
        "latency_p99_us": f"{plain['round_ops']} ops, each its median over the rounds",
    }
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        lines.append(f"{tag} {key} = {value:.6g} {unit}{note}")
    if not trace:
        raw_setup = statistics.median(r["raw_setup_s"] for r in setup_runs)
        lines.append(f"{tag} unscaled: setup {raw_setup:.6g} s, round "
                     f"{statistics.median(plain['raw_rounds']):.6g} s, p50 "
                     f"{plain['raw_latency_p50_us']:.6g} us, p99 "
                     f"{plain['raw_latency_p99_us']:.6g} us, speed factor "
                     f"{plain['speed_factor']:.4g}")
        lines.append(f"{tag} failed_share = {plain['failed'] / plain['ops']:.6g} share"
                     f"  ({plain['failed']} of {plain['ops']} ops)")
        if name == "verify_untrusted":
            lines.append(f"{tag} forged_accepted_share = "
                         f"{plain['forged_accepted_share']:.6g} share")
    if "forgeries" in res:
        lines.append(f"{tag} forgeries {json.dumps(res['forgeries'])}")
    for phase in phases:
        lines.extend(f"{tag} FAILED {f}" for f in phase["failures"])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bidouble" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result, lines = run_workload(
                name, args.seed, args.seconds, bool(args.trace), args.smoke, deadline
            )
            print("\n".join(lines), flush=True)
            if len(names) > 1:
                print(json.dumps(result), flush=True)
            results[name] = result
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
