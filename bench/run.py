#!/usr/bin/env python3
"""esglm benchmark: one command for every workload and metric.

    python3 bench/run.py --workload paper_cli --seed 3 --seconds 30 --trace 0

Runs from the repository root (or any checkout of it) with only the Python
standard library and numpy.  With `--trace 0` it prints every end-to-end
metric of BENCHMARK.json, measured with tracing off; with `--trace 1` it
prints every per-layer metric, taken from a traced run that wraps each
layer's public functions from outside, plus the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Set-up time comes from fresh interpreters that only import the program and
make the inputs, half of them before the measured run and half after it.
The measured run is a child process of its own (see workloads.py) with the
BLAS thread count fixed.  The exit code is 0 whenever a result is printed,
also when an output check failed; it is 2, with no result, when the program
or the benchmark could not run at all.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "workloads.py"
WORKLOADS = ("fixture_cli", "paper_cli", "replication")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0        # the whole command must end within 180 s
BLAS_THREADS = 1            # at most nproc; one thread is the steadiest here

STAGES = ("pretrain_s", "finetune_s", "evaluate_s")
# measured and printed, but not in BENCHMARK.json: their run-to-run spread
# reached the largest bound allowed there (see bench/README.md)
UNGATED = ("vocab_s", "extract_s")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)  # the child puts the checkout's src/ first
    return env


def run_child(args: list, deadline: float) -> dict:
    """Run workloads.py with args; return the JSON of its last stdout line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args[:3]} ran past the time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:3]} exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"child {args[:3]} printed no result") from None


def median(values):
    return statistics.median(values) if values else 0.0


def stage_medians(passes: list, stages) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {s: (median([p["stages"][s] for p in untraced]), "s") for s in stages}


def end_to_end(passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    m = {"setup_s": (setup_s, "s"), **stage_medians(passes, ("total_s", *STAGES))}
    rates = [
        p["train_tokens"] / (p["stages"]["pretrain_s"] + p["stages"]["finetune_s"])
        for p in untraced if "train_tokens" in p
    ]
    m["train_tokens_per_s"] = (median(rates), "1/s")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m


def per_layer(result: dict) -> dict:
    passes = result["passes"]
    traced = [p["stages"]["total_s"] for p in passes if p["traced"]]
    untraced = [p["stages"]["total_s"] for p in passes if not p["traced"]]
    m = {k: tuple(v) for k, v in result["layers"].items()}
    gaps = [p["gap_pts"] for p in passes if p["gap_pts"] is not None]
    m["harness.test_gap_pts"] = (median(gaps), "pts")
    overhead = median(traced) - median(untraced)
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_fraction"] = (overhead / median(untraced) if untraced else 0.0,
                                    "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    deadline = perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "esglm" / "__init__.py").is_file():
        print(f"bench: no esglm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    try:
        probes = [run_child(["setup", *common], deadline)
                  for _ in range(SETUP_PROBES // 2)]
        result = run_child(["run", *common, "--seconds", str(a.seconds),
                            "--trace", str(a.trace)], deadline)
        probes += [run_child(["setup", *common], deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = result["attempted"] + 1
    failed = result["failed"]
    if any(p["sha256"] != result["sha256"] for p in probes):
        failed += 1
        print("bench: check failed: the same seed made different inputs",
              file=sys.stderr)

    setup_s = median([p["setup_s"] for p in probes])
    if a.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result["passes"], setup_s, result["peak_rss_mb"])

    for name, (value, unit) in metrics.items():
        print(f"{a.workload} {name}: {value:.6g} {unit}")
    if not a.trace:
        for name, (value, unit) in stage_medians(result["passes"], UNGATED).items():
            print(f"{a.workload} {name}: {value:.6g} {unit} (not gated)")
    print(f"{a.workload} error_rate: {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print("record: " + json.dumps({
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "passes": len(result["passes"]),
        "inputs": result["inputs"], "machine": result["machine"],
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
