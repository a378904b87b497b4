#!/usr/bin/env python3
"""Digest every artifact the README walkthrough writes, for tasks a and b.

Runs the walkthrough in-process through `esglm.cli.main` on the shipped
fixtures, writing under OUT, and prints one `sha256  relpath` line per file
written plus one `sha256  stdout/<step>` line per stage's standard output.
A last `sha256  replication/seed0` line digests the `repr` of the fresh and
adapted test accuracies and the pretraining trace of
`run_replication_arm(SynthSpec(), 0)`, which trains the encoder in-process,
and a `sha256  paper_step/seed0` line digests the loss and `grads.flat` of
one MLM `compute_gradients` step and the hidden states of one eval
`encoder_forward` at paper shapes (B 8, S 512, d 64, 2 heads, FFN 128,
vocab 2,000, dropout 0.1, one padded row), where attention runs in chunks.
Every path handed to the CLI is relative to OUT, so no absolute path ends
up in an artifact and two runs into different directories can be diffed.
Four `#` lines head the digest: the numpy and BLAS versions, the BLAS
thread count (a matmul's sums are split across threads) and the Python
version, on which the float bits depend.  esglm is imported from
PYTHONPATH, so the same script digests any checkout:

    PYTHONPATH=src python3 scripts/walkthrough_digest.py OUT > new.txt
    PYTHONPATH=/path/to/other/src python3 scripts/walkthrough_digest.py OUT2 > old.txt
    diff old.txt new.txt

`fixtures/walkthrough.sha256` holds this script's output for the current
tree; `tests/test_walkthrough.py` reruns it through `digest_lines` and
names every line that moved.  An output change rewrites the fixture:

    PYTHONPATH=src python3 scripts/walkthrough_digest.py OUT > fixtures/walkthrough.sha256
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
DIGEST = FIXTURES / "walkthrough.sha256"


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


def paper_step_inputs():
    """(config, params, (ids, mask, targets)) of the paper_step/seed0 MLM step."""
    import numpy as np

    from esglm.model import IGNORE_INDEX, ModelConfig, init_params

    config = ModelConfig(vocab_size=2000, hidden_dim=64, num_layers=2, num_heads=2,
                         ffn_dim=128, max_seq_len=512, dropout_rate=0.1)
    rng = np.random.default_rng(0)
    ids = rng.integers(5, config.vocab_size, size=(8, config.max_seq_len))
    mask = np.ones_like(ids)
    mask[3, 200:] = 0
    ids[mask == 0] = 0
    targets = np.where((mask == 1) & (rng.random(ids.shape) < 0.15), ids, IGNORE_INDEX)
    return config, init_params(config, seed=0), (ids, mask, targets)


def paper_step_digest() -> str:
    import numpy as np

    from esglm.model import compute_gradients, encoder_forward

    config, params, (ids, mask, targets) = paper_step_inputs()
    loss, grads = compute_gradients((ids, mask, targets), params, config, "mlm",
                                    rng=np.random.default_rng(1))
    hidden = encoder_forward(ids, mask, params, config)
    return sha256(repr(loss).encode() + grads.flat.tobytes() + hidden.tobytes())


def machine_header() -> list[str]:
    """The `#` lines naming what the float bits depend on."""
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return [f"# numpy {np.__version__}", f"# blas {blas}",
            f"# blas threads {blas_threads()}",
            f"# python {platform.python_version()}"]


def blas_threads() -> str:
    """OPENBLAS_NUM_THREADS if set, else the number of CPUs this process
    may run on, which is how many threads OpenBLAS starts by default."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads:
        return threads
    if hasattr(os, "sched_getaffinity"):
        return str(len(os.sched_getaffinity(0)))
    return str(os.cpu_count())


class StepFailed(RuntimeError):
    """A walkthrough step exited non-zero; code is its exit code."""

    def __init__(self, step: str, code: int):
        super().__init__(f"step {step} exited with {code}")
        self.code = code


def digest_lines(root: Path) -> list[str]:
    """The header, then the digest of a walkthrough run written under root."""
    from esglm.cli import main as esglm_main

    root.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        if Path("out").exists():
            raise RuntimeError(f"{root}/out already exists; give an empty OUT")
        for task in ("a", "b"):
            Path("out", task).mkdir(parents=True)
        fix = os.path.relpath(FIXTURES)
        lines = machine_header()
        for step, args in walkthrough_steps(fix):
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = esglm_main(args)
            if code != 0:
                raise StepFailed(step, code)
            lines.append(f"{sha256(captured.getvalue().encode())}  stdout/{step}")
        for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
            lines.append(f"{sha256(path.read_bytes())}  {path.as_posix()}")
        lines.append(f"{replication_digest()}  replication/seed0")
        lines.append(f"{paper_step_digest()}  paper_step/seed0")
    finally:
        os.chdir(cwd)
    return lines


def moved_lines(want: list[str], got: list[str]) -> list[str]:
    """The names whose digest differs between two digests, or that only one has."""
    def by_name(lines):
        pairs = (line.split("  ", 1) for line in lines if not line.startswith("#"))
        return {name: sha for sha, name in pairs}
    want, got = by_name(want), by_name(got)
    return sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    try:
        lines = digest_lines(Path(argv[0]))
    except StepFailed as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except RuntimeError as exc:  # OUT already holds an out directory
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
