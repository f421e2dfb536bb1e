"""One workload in a fresh interpreter; launched by run.py, one at a time.

Sets the workload up from its seed, then (unless ``--setup-only``) runs its
rounds in a closed loop with one caller until ``--seconds`` have passed,
always finishing the round under way.  With ``--trace 1`` a second phase of
the same length runs with the per-layer wrappers installed.  The last line
of stdout is one JSON object for run.py; ``ready`` is the CLOCK_MONOTONIC
time at which set-up ended, which run.py compares with the time it launched
this process; ``setup_stolen_s`` and ``setup_factor`` take the reference
runs out of that span and rescale it (see pace.py).
"""

from __future__ import annotations

import argparse
import array
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(wl, seconds: float, pacer: pace.Pacer, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed."""
    rounds: list[float] = []
    raw_rounds: list[float] = []
    # op times of each round, packed so that what the run holds grows by
    # 16 bytes per op and round and peak_rss_mb stays the library's
    scaled_rounds: list[array.array] = []
    raw_op_rounds: list[array.array] = []
    failures: list[str] = []
    ops = failed = 0
    start = time.perf_counter()
    while True:
        records: list[tuple[int, int, int]] = []
        for item in wl.items:
            if tracer is not None:
                tracer.op = ops
            mark = pacer.mark()
            t0 = pacer.now()
            try:
                fault = wl.op(item)
            except Exception as err:  # an escaping library error fails the op, the run goes on
                fault = f"{type(err).__name__}: {err}"
            records.append((pacer.now() - t0, mark, pacer.mark()))
            ops += 1
            if fault is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{wl.describe(item)}: {fault}")
        scaled_rounds.append(array.array("d", pacer.scale(records)))
        raw_op_rounds.append(array.array("q", [ns for ns, _, _ in records]))
        rounds.append(sum(scaled_rounds[-1]) / 1e9)
        raw_rounds.append(sum(raw_op_rounds[-1]) / 1e9)
        if time.perf_counter() - start >= seconds:
            break
    # an op's latency is its median over the rounds, so that a pause that
    # hits it once (a collection, a disk flush) does not make the tail
    latencies = sorted(statistics.median(times) for times in zip(*scaled_rounds))
    raw_latencies = sorted(statistics.median(times) for times in zip(*raw_op_rounds))
    return {
        "ops": ops,
        "failed": failed,
        "failures": failures,
        "round_ops": len(wl.items),
        "rounds": rounds,
        "raw_rounds": raw_rounds,
        "speed_factor": pacer.factor(),
        "latency_p50_us": percentile(latencies, 0.50) / 1e3,
        "latency_p99_us": percentile(latencies, 0.99) / 1e3,
        "raw_latency_p50_us": percentile(raw_latencies, 0.50) / 1e3,
        "raw_latency_p99_us": percentile(raw_latencies, 0.99) / 1e3,
        "verify_codes": {str(k): v for k, v in sorted(wl.verify_codes.items())},
        "forged_accepted_share": wl.forged_accepted_share(),
    }


def layer_metrics(tracer, wl, plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced phase, and what tracing cost."""
    out = tracer.layer_metrics(
        traced["ops"], traced["ops"] * wl.pairs_per_op, traced["speed_factor"]
    )
    # verify exit codes per op: 0 accepted, 1 rejected on a mismatch, 2 bad request
    codes = traced["verify_codes"]
    for code, outcome in (("0", "accepted"), ("1", "rejected"), ("2", "bad_request")):
        out[f"cli.verify.{outcome}"] = (codes.get(code, 0) / traced["ops"], "calls/op")
    out["cli.verify.forged_accepted_share"] = (traced["forged_accepted_share"], "share")
    plain_wall = statistics.median(plain["rounds"])
    overhead = statistics.median(traced["rounds"]) - plain_wall
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / plain_wall, "share")
    return out


def set_up(args, workdir: str):
    """Import the library from this checkout, make the inputs, warm up."""
    sys.path.insert(0, str(SRC))
    import bidouble

    if not Path(bidouble.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bidouble imported from {bidouble.__file__}, not from {SRC}")
    import workloads

    wl = workloads.build(args.workload, args.seed, args.smoke, workdir)
    for item in wl.warm_items():
        try:
            wl.op(item)
        except Exception:  # the timed phase runs this item again and records the error
            pass
    wl.reset_counts()
    return wl


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        with pace.Pacer() as pacer:
            wl = set_up(args, workdir)
            ready = time.monotonic()
        result: dict = {
            "ready": ready,
            "setup_stolen_s": pacer.stolen_ns / 1e9,
            "setup_factor": pacer.factor(),
        }
        if not args.setup_only:
            phase_s = args.seconds / 2 if args.trace else args.seconds
            with pace.Pacer() as pacer:
                result["plain"] = measure(wl, phase_s, pacer)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                import tracing

                wl.reset_counts()
                with pace.Pacer() as pacer:
                    tracer = tracing.Tracer()
                    tracer.install()
                    try:
                        traced = measure(wl, phase_s, pacer, tracer)
                    finally:
                        tracer.uninstall()
                result["traced"] = traced
                result["layers"] = layer_metrics(tracer, wl, result["plain"], traced)
                tracer.write_spans(str(WORK / f"spans-{args.workload}.jsonl"))
            if args.workload == "verify_untrusted":
                result["forgeries"] = wl.forgery_table()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
