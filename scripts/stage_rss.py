#!/usr/bin/env python3
"""Print the process peak RSS after each stage of a benchmark walkthrough.

Makes a workload's inputs with `setup` from `bench/workloads.py`, then runs
its README walkthrough (`cli_steps`) through `esglm.cli.main` for N passes
in this one process, as a benchmark run does, and prints `ru_maxrss` after
every stage.  The stage after which the figure first reaches its final value
is the one that sets the `peak_rss_mb` the benchmark reports.

    python3 scripts/stage_rss.py --workload paper_cli --seed 3 --passes 3

BLAS runs on one thread, as in the benchmark's child process, unless
OPENBLAS_NUM_THREADS is set.  Uses only the standard library and numpy; it
reads `bench/` and writes only under a temporary directory that it removes.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("fixture_cli", "paper_cli"),
                    required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=3)
    a = ap.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(BENCH))
    import workloads  # puts the checkout's src/ first on sys.path
    from esglm import cli

    print(f"start           {peak_mb():8.1f} MB")
    with tempfile.TemporaryDirectory(prefix="stage_rss-") as tmp:
        tmp = Path(tmp)
        workloads.setup(a.workload, a.seed, tmp)
        inp = tmp / "in"
        cfg = inp / ("fixture.cfg" if a.workload == "fixture_cli" else "paper.cfg")
        print(f"setup           {peak_mb():8.1f} MB")
        for n in range(a.passes):
            out = tmp / f"pass{n}"
            out.mkdir()
            for step, argv_ in workloads.cli_steps(inp, out, cfg):
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    rc = cli.main(argv_)
                if rc != 0:
                    print(f"esglm {step} exited with {rc}", file=sys.stderr)
                    return 1
                print(f"pass {n} {step:<16} {peak_mb():8.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
