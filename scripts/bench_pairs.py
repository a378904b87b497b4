#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternated pairs.

Runs `bench/run.py` in a parent checkout and in a change checkout, one pair
of runs per seed.  Pair i uses seed N + i, where N is `--first-seed`
(default 0), so a claim can be checked on seeds not used while the change
was written.  The parent runs first in even pairs and the change in odd
ones, so drift in the machine's load falls on both sides.  The run length
is the `run_seconds` of the change's BENCHMARK.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload paper_cli \\
        --pairs 10 --out BENCH_7.json [--first-seed N] [--traced]

OUT gets, for the workload: every run's last line, and per end-to-end
metric the median and interquartile range of each side, the ratio
change/parent, the number of pairs the change won (ties count for neither
side), `over_bound`: whether the change's median is worse than the
parent's by more than the metric's `bound` times the parent's median, and
`unresolved`: whether either side's interquartile range is wider than that
same allowance, so that the pairs cannot tell a change within the bound
from one past it, unless every change run is better than every parent
run.  The workload's summary also lists the metrics over their bound, the
unresolved ones, and the failed operations of each side.  `--traced` adds three `--trace 1` pairs
at seeds N, N+1 and N+2, alternated the same way, and records every traced
run plus, per per-layer metric, each side's median over them.  Entries
OUT already holds for other workloads are kept, so one file can collect
several workloads.  Uses only the standard library; it writes nothing but
OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
TRACED_PAIRS = 3


def bench(checkout: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One bench/run.py run: its last line plus its record line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return {"seed": seed, "last_line": None, "record": None}
    return {"seed": seed, "last_line": json.loads(lines[-1]),
            "record": json.loads(lines[-2].removeprefix("record: "))}


def run_pairs(dirs: dict, workload: str, first_seed: int, pairs: int,
              seconds: float, trace: int) -> dict:
    """Per side, one run per pair; the side that runs first alternates."""
    runs: dict = {side: [] for side in SIDES}
    for pair in range(pairs):
        seed = first_seed + pair
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            runs[side].append(bench(dirs[side], workload, seed, seconds, trace))
            line = runs[side][-1]["last_line"]
            # a traced run prints per-layer metrics only, so no total_s
            shown = ("failed" if line is None
                     else line["metrics"].get("total_s", {}).get("value", "-"))
            print(f"{workload} trace {trace} pair {pair} seed {seed} {side}: "
                  f"total_s {shown}", file=sys.stderr)
    return runs


def run_lines(runs: dict) -> dict:
    """Per side, each run's seed and last line, as OUT records them."""
    return {side: [{"seed": r["seed"], "last_line": r["last_line"]}
                   for r in runs[side]]
            for side in SIDES}


def layer_medians(runs: dict, per_layer: list[dict]) -> dict:
    """Per per-layer metric, the median of each side's successful runs."""
    out: dict = {}
    for metric in per_layer:
        name = metric["name"]
        values = {side: [r["last_line"]["metrics"][name]["value"]
                         for r in runs[side]
                         if r["last_line"] and name in r["last_line"]["metrics"]]
                  for side in SIDES}
        if all(values.values()):
            out[name] = {f"{side}_median": statistics.median(values[side])
                         for side in SIDES}
    return out


def quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: dict, end_to_end: list[dict]) -> dict:
    """Per metric: medians, IQRs, ratio, the change's pair wins, whether the
    change is worse than its bound allows and whether the spread leaves that
    unresolved; then the names of the metrics over their bound, the
    unresolved ones and each side's failed operations."""
    out: dict = {}
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "higher" else -1)
        pairs = [tuple(r["last_line"]["metrics"][name]["value"] for r in pair)
                 for pair in zip(runs["parent"], runs["change"])
                 if all(r["last_line"] for r in pair)]
        if not pairs:
            continue
        parent, change = ([p[i] for p in pairs] for i in (0, 1))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        allowed = metric["bound"] * p_med
        p_iqr, c_iqr = quartile_gap(parent), quartile_gap(change)
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "ratio": c_med / p_med,
            "parent_iqr": p_iqr,
            "change_iqr": c_iqr,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "pairs": len(pairs),
            "over_bound": sign * (p_med - c_med) > allowed,
            "unresolved": max(p_iqr, c_iqr) > allowed and not all_better,
        }
    metrics = dict(out)
    for flag in ("over_bound", "unresolved"):
        out[flag] = [name for name, m in metrics.items() if m[flag]]
    for side in SIDES:
        out[f"{side}_failed"] = sum(
            r["last_line"]["failed"] if r["last_line"] else 1 for r in runs[side])
    return out


def write_json(path: Path, doc: dict) -> None:
    """Replace path atomically, so an interrupted run keeps the old file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--first-seed", type=int, default=0,
                    help="seed of pair 0; pair i uses seed FIRST_SEED + i")
    ap.add_argument("--traced", action="store_true",
                    help=f"also make {TRACED_PAIRS} alternated --trace 1 pairs "
                         "from FIRST_SEED")
    a = ap.parse_args(argv)
    if a.pairs < 1:
        ap.error("--pairs must be >= 1")
    if a.first_seed < 0:
        ap.error("--first-seed must be >= 0")
    dirs = dict(zip(SIDES, (a.parent.resolve(), a.change.resolve())))
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    runs = run_pairs(dirs, a.workload, a.first_seed, a.pairs, seconds, 0)

    doc = (json.loads(a.out.read_text(encoding="utf-8"))
           if a.out.exists() else {})
    doc["command"] = (f"python3 bench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0")
    doc["method"] = (
        "runs in pairs, one parent and one change with the same seed; the side "
        "that runs first alternates from pair to pair; seed = first_seed + "
        "pair index. "
        "Medians over runs; parent_iqr is the distance between the parent's "
        "quartiles (inclusive method); change_wins counts the pairs in which "
        "the change was better, ties counting for neither side; over_bound "
        "is true when the change's median is worse than the parent's by more "
        "than the metric's BENCHMARK.json bound times the parent's median; "
        "unresolved is true when the parent_iqr or change_iqr is wider than "
        "that bound times the parent's median, unless every change run is "
        "better than every parent run.")
    records = {side: next((r["record"] for r in runs[side] if r["record"]), None)
               for side in SIDES}
    if records["change"]:
        doc["machine"] = {k: v for k, v in records["change"]["machine"].items()
                          if k not in ("git_rev", "src_sha256")}
    for side in SIDES:
        if records[side]:
            machine = records[side]["machine"]
            doc.setdefault("git_rev", {})[side] = machine["git_rev"]
            doc.setdefault("src_sha256", {})[side] = machine["src_sha256"]
    doc.setdefault("pairs", {})[a.workload] = a.pairs
    doc.setdefault("first_seed", {})[a.workload] = a.first_seed
    doc.setdefault("summary", {})[a.workload] = summarize(runs, spec["end_to_end"])
    doc.setdefault("runs", {})[a.workload] = run_lines(runs)
    write_json(a.out, doc)  # so an interrupted traced pass keeps the timed pairs
    if a.traced:
        traced = run_pairs(dirs, a.workload, a.first_seed, TRACED_PAIRS, seconds, 1)
        doc.setdefault("traced", {})[a.workload] = {
            "runs": run_lines(traced),
            "layer_medians": layer_medians(traced, spec["per_layer"]),
        }
        write_json(a.out, doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
