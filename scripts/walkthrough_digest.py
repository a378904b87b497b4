#!/usr/bin/env python3
"""Digest every artifact the README walkthrough writes, for tasks a and b.

Runs the walkthrough in-process through `esglm.cli.main` on the shipped
fixtures, writing under OUT, and prints one `sha256  relpath` line per file
written plus one `sha256  stdout/<step>` line per stage's standard output.
A last `sha256  replication/seed0` line digests the `repr` of the fresh and
adapted test accuracies and the pretraining trace of
`run_replication_arm(SynthSpec(), 0)`, which trains the encoder in-process.
Every path handed to the CLI is relative to OUT, so no absolute path ends
up in an artifact and two runs into different directories can be diffed.
esglm is imported from PYTHONPATH, so the same script digests any checkout:

    PYTHONPATH=src python3 scripts/walkthrough_digest.py OUT > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/walkthrough_digest.py OUT2 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def walkthrough_steps(fix: str) -> list[tuple[str, list[str]]]:
    """(step name, argv) for the shared stages, then each task's stages."""
    cfg = ["--config", f"{fix}/fixture.cfg"]
    steps = [
        ("vocab", ["vocab", *cfg, "--corpus", f"{fix}/corpus",
                   "--out", "out/vocab.txt"]),
        ("pretrain", ["pretrain", *cfg, "--corpus", f"{fix}/corpus",
                      "--vocab", "out/vocab.txt", "--out", "out/pre.ckpt"]),
        ("extract", ["extract", *cfg, "--manifest", f"{fix}/filings.jsonl",
                     "--vocab", "out/vocab.txt", "--ckpt", "out/pre.ckpt",
                     "--out", "out/extracted.jsonl"]),
    ]
    for task in ("a", "b"):
        d = f"out/{task}"
        steps += [
            (f"dataset_{task}", ["dataset", *cfg, "--extracted", "out/extracted.jsonl",
                                 "--scores", f"{fix}/scores.csv", "--task", task,
                                 "--split", "0.7,0.15,0.15", "--seed", "0",
                                 "--out", f"{d}/data"]),
            (f"finetune_domain_{task}", ["finetune", *cfg, "--ckpt", "out/pre.ckpt",
                                         "--data", f"{d}/data", "--task", task,
                                         "--out", f"{d}/fin.ckpt",
                                         "--metrics", f"{d}/m_domain.json"]),
            (f"finetune_base_{task}", ["finetune", *cfg, "--fresh", "--data", f"{d}/data",
                                       "--task", task, "--out", f"{d}/fresh.ckpt",
                                       "--metrics", f"{d}/m_base.json"]),
            (f"baseline_common_{task}", ["baseline", "--data", f"{d}/data",
                                         "--model", "common",
                                         "--metrics", f"{d}/m_common.json"]),
            (f"baseline_nb_{task}", ["baseline", "--data", f"{d}/data", "--model", "nb",
                                     "--metrics", f"{d}/m_nb.json"]),
            (f"evaluate_{task}", ["evaluate", "--ckpt", f"{d}/fin.ckpt",
                                  "--data", f"{d}/data", "--metrics", f"{d}/m_eval.json"]),
            (f"report_{task}", ["report", "--metrics", f"{d}/m_common.json",
                                f"{d}/m_nb.json", f"{d}/m_base.json",
                                f"{d}/m_domain.json", "--task", task,
                                "--out", f"{d}/report"]),
        ]
    return steps


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replication_digest() -> str:
    from esglm.synth import SynthSpec, run_replication_arm

    r = run_replication_arm(SynthSpec(), 0)
    result = (r.fresh_test_accuracy, r.adapted_test_accuracy, r.pretrain_trace)
    return sha256(repr(result).encode())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    from esglm.cli import main as esglm_main

    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    os.chdir(root)
    if Path("out").exists():
        print(f"{root}/out already exists; give an empty OUT", file=sys.stderr)
        return 1
    for task in ("a", "b"):
        Path("out", task).mkdir(parents=True)
    fix = os.path.relpath(FIXTURES)
    lines = []
    for step, args in walkthrough_steps(fix):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = esglm_main(args)
        if code != 0:
            print(f"step {step} exited with {code}", file=sys.stderr)
            return code
        lines.append(f"{sha256(captured.getvalue().encode())}  stdout/{step}")
    for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
        lines.append(f"{sha256(path.read_bytes())}  {path.as_posix()}")
    lines.append(f"{replication_digest()}  replication/seed0")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
