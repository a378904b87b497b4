"""The benchmark's child process: set-up probes and measured passes.

`run.py` starts this file in a fresh interpreter for every set-up probe and
for every measured run, so imports are cold and `peak_rss_mb` is the run's
own.  It prints one JSON object as its last line of standard output.

    python3 bench/workloads.py setup --workload paper_cli --seed 3
    python3 bench/workloads.py run --workload paper_cli --seed 3 --seconds 30 --trace 0

A pass runs one workload once: the README walkthrough through
`esglm.cli.main` for `fixture_cli` and `paper_cli`, or one
`esglm.synth.run_replication_arm` for `replication`.  Untraced passes time
stage boundaries only; traced passes wrap every layer (see layertrace.py) and
alternate with untraced ones, so the difference between the two is the
tracing overhead measured under the same conditions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
sys.path[:0] = [str(SRC), str(BENCH)]

WORKLOADS = ("fixture_cli", "paper_cli", "replication")
TASK = "a"
MIN_GAP_PTS = 3.0          # acceptance criterion 6
REPORT_ROWS = 4            # common_class, naive_bayes, base_lm, domain_lm
MIN_PASSES = 2
STAGE_OF = {               # CLI step -> end-to-end stage metric
    "vocab": "vocab_s", "pretrain": "pretrain_s", "extract": "extract_s",
    "finetune_domain": "finetune_s", "finetune_base": "finetune_s",
    "evaluate": "evaluate_s",
}


class Checks:
    """Operations attempted and failed; a failed output check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"bench: check failed: {what}", file=sys.stderr)
        return ok


# ----------------------------------------------------------------- set-up

def setup(workload: str, seed: int, tmp: Path) -> dict:
    """Import the program and make the workload's inputs under tmp/in.

    Returns the set-up time and a sha256 of the inputs.
    """
    t0 = perf_counter()
    import numpy  # noqa: F401
    import esglm.cli  # noqa: F401
    import esglm.synth

    inp = tmp / "in"
    if workload == "fixture_cli":
        shutil.copytree(ROOT / "fixtures", inp)
        cfg = inp / "fixture.cfg"
        text = re.sub(r"(?m)^seed=.*$", f"seed={seed}", cfg.read_text(encoding="utf-8"))
        cfg.write_text(text, encoding="utf-8")
        digest = tree_sha256(inp)
    elif workload == "paper_cli":
        import paper_inputs
        digest = paper_inputs.generate(inp, seed)["sha256"]
    else:
        spec = esglm.synth.SynthSpec()
        digest = hashlib.sha256(f"{spec!r} seed={seed}".encode()).hexdigest()
    return {"setup_s": perf_counter() - t0, "sha256": digest}


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------------ passes

def cli_steps(inp: Path, out: Path, cfg: Path) -> list:
    """The README walkthrough for task a, as (step, argv) pairs."""
    c = ["--config", str(cfg)]
    data = str(out / "data")
    m = {k: str(out / f"m_{k}.json") for k in ("common", "nb", "base", "domain", "eval")}
    return [
        ("vocab", ["vocab", *c, "--corpus", str(inp / "corpus"),
                   "--out", str(out / "vocab.txt")]),
        ("pretrain", ["pretrain", *c, "--corpus", str(inp / "corpus"),
                      "--vocab", str(out / "vocab.txt"), "--out", str(out / "pre.ckpt")]),
        ("extract", ["extract", *c, "--manifest", str(inp / "filings.jsonl"),
                     "--vocab", str(out / "vocab.txt"), "--ckpt", str(out / "pre.ckpt"),
                     "--out", str(out / "extracted.jsonl")]),
        ("dataset", ["dataset", *c, "--extracted", str(out / "extracted.jsonl"),
                     "--scores", str(inp / "scores.csv"), "--task", TASK,
                     "--split", "0.7,0.15,0.15", "--out", data]),
        ("finetune_domain", ["finetune", *c, "--ckpt", str(out / "pre.ckpt"),
                             "--data", data, "--task", TASK,
                             "--out", str(out / "fin.ckpt"), "--metrics", m["domain"]]),
        ("finetune_base", ["finetune", *c, "--fresh", "--data", data, "--task", TASK,
                           "--out", str(out / "fresh.ckpt"), "--metrics", m["base"]]),
        ("baseline_common", ["baseline", "--data", data, "--model", "common",
                             "--metrics", m["common"]]),
        ("baseline_nb", ["baseline", "--data", data, "--model", "nb",
                         "--metrics", m["nb"]]),
        ("evaluate", ["evaluate", "--ckpt", str(out / "fin.ckpt"), "--data", data,
                      "--metrics", m["eval"]]),
        ("report", ["report", "--metrics", m["common"], m["nb"], m["base"],
                    m["domain"], "--task", TASK, "--out", str(out / "report")]),
    ]


def cli_pass(inp: Path, out: Path, cfg: Path, checks: Checks) -> dict:
    from esglm import cli

    stages = dict.fromkeys(["vocab_s", "pretrain_s", "extract_s", "finetune_s",
                            "evaluate_s"], 0.0)
    total = 0.0
    for step, argv in cli_steps(inp, out, cfg):
        t0 = perf_counter()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        except Exception:  # a traceback is a failed stage, not a dead run
            traceback.print_exc()
            rc = None
        dt = perf_counter() - t0
        checks.check(rc == 0, f"esglm {step} exited with {rc}")
        total += dt
        if step in STAGE_OF:
            stages[STAGE_OF[step]] += dt
    stages["total_s"] = total

    report = out / "report"
    md = report / f"report_{TASK}.md"
    js = report / f"report_{TASK}.json"
    digest, gap = None, None
    if md.exists() and js.exists():
        digest = hashlib.sha256(md.read_bytes() + b"\0" + js.read_bytes()).hexdigest()
        rows = [ln for ln in md.read_text(encoding="utf-8").splitlines()
                if ln.startswith("| ") and not ln.startswith(("| Model", "| ---"))]
        checks.check(len(rows) == REPORT_ROWS, f"report has {len(rows)} rows")
        acc = {r["model_name"]: r["splits"]["test"]["accuracy"]
               for r in json.loads(js.read_text(encoding="utf-8"))["rows"]}
        gap = 100.0 * (acc["domain_lm"] - acc["base_lm"])
    else:
        checks.check(False, "report files missing")
    return {"stages": stages, "digest": digest, "gap_pts": gap}


def cli_tokens(inp: Path, out: Path, cfg: Path) -> tuple[int, dict]:
    """Real tokens through training steps, and the input sizes, of a pass.

    Recomputed from the pass's artifacts after it ends, so that untraced
    passes carry no counters.
    """
    import numpy as np
    from esglm import data
    from esglm.cli import load_config
    from esglm.pretrain import load_corpus_dir, window_corpus
    from esglm.tokenizer import Vocab

    conf = load_config(str(cfg))
    vocab = Vocab.load(out / "vocab.txt")
    corpus = load_corpus_dir(inp / "corpus")
    windows = window_corpus(corpus, vocab, conf.seq_len)
    _, splits = data.load_dataset_splits(out / "data")
    train_real = sum(e.real_len for e in splits["train"])
    tokens = conf.epochs * (sum(w.real_len for w in windows) + 2 * train_real)
    with open(out / "extracted.jsonl", encoding="utf-8") as fh:
        extracted = [json.loads(line) for line in fh if line.strip()]
    sizes = {
        "corpus_words": sum(len(doc.split()) for doc in corpus),
        "mlm_windows": len(windows),
        "full_windows": sum(w.real_len == conf.seq_len for w in windows),
        "filings": len(extracted),
        "sentences": sum(len(r["sentence_token_lengths"]) for r in extracted),
        "vocab_tokens": len(vocab),
        "mean_excerpt_real_len": float(np.mean([r["real_len"] for r in extracted])),
    }
    return tokens, sizes


def replication_pass(seed: int, data, checks: Checks) -> dict:
    """One run_replication_arm; `data` is the TraceData the pass filled."""
    from esglm import synth

    t0 = perf_counter()
    try:
        result = synth.run_replication_arm(synth.SynthSpec(), seed)
    except Exception:
        traceback.print_exc()
        result = None
    total = perf_counter() - t0
    checks.check(result is not None, "run_replication_arm raised")
    gap = None
    if result is not None:
        gap = 100.0 * (result.adapted_test_accuracy - result.fresh_test_accuracy)
        checks.check(gap >= MIN_GAP_PTS,
                     f"replication gap {gap:.1f} pts < {MIN_GAP_PTS}")
    return {
        "stages": {
            "vocab_s": data.total("tokenizer", "train_vocab", "synth"),
            "pretrain_s": data.total("pretrain", "run_pretraining", "synth"),
            "extract_s": data.total("synth", "as_labeled_examples", "synth"),
            "finetune_s": data.total("harness", "run_finetune", "harness"),
            "evaluate_s": data.total("harness", "evaluate_all", "harness"),
            "total_s": total,
        },
        "digest": None if result is None else repr(
            (result.fresh_test_accuracy, result.adapted_test_accuracy,
             result.pretrain_trace)),
        "gap_pts": gap,
    }


def replication_tokens(data) -> tuple[int, dict]:
    """Real tokens through training steps, and the input sizes, of a pass."""
    from esglm.pretrain import window_corpus

    pre = data.args["run_pretraining"][0]
    windows = window_corpus(pre["corpus_docs"], pre["vocab"],
                            pre["config"].max_seq_len)
    tokens = pre["tc"].epochs * sum(w.real_len for w in windows)
    train = []
    for a in data.args["run_finetune"]:
        train = a["splits"]["train"]
        tokens += a["tc"].epochs * sum(e.real_len for e in train)
    sizes = {
        "corpus_words": sum(len(doc.split()) for doc in pre["corpus_docs"]),
        "mlm_windows": len(windows),
        "full_windows": sum(w.real_len == pre["config"].max_seq_len for w in windows),
        "filings": 0,
        "sentences": 0,
        "vocab_tokens": len(pre["vocab"]),
        "mean_excerpt_real_len": sum(e.real_len for e in train) / max(len(train), 1),
    }
    return tokens, sizes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measured passes for about `seconds`.

    A new pass starts only if it is expected to end within `seconds`, and
    an untraced run makes at least MIN_PASSES passes, so report bytes can
    be compared across passes of one seed.  Traced runs alternate untraced
    and traced passes, at least one of each.
    """
    import layertrace as tracing

    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    try:
        made = setup(workload, seed, tmp)
        inp = tmp / "in"
        cfg = inp / ("fixture.cfg" if workload == "fixture_cli" else "paper.cfg")
        checks = Checks()
        passes, traced_data = [], tracing.TraceData()
        sizes = None
        t_begin = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            tracer = tracing.Tracer(
                None if traced else
                (tracing.STAGES if workload == "replication" else {}))
            out = tmp / f"pass{len(passes)}"
            out.mkdir()
            with tracer:
                if workload == "replication":
                    res = replication_pass(seed, tracer.data, checks)
                else:
                    res = cli_pass(inp, out, cfg, checks)
            data = tracer.take()
            res["traced"] = traced
            if traced:
                traced_data.merge(data)
            elif res["digest"] is not None:
                tokens, pass_sizes = (replication_tokens(data)
                                      if workload == "replication"
                                      else cli_tokens(inp, out, cfg))
                res["train_tokens"] = tokens
                sizes = sizes or pass_sizes
            if passes:
                checks.check(res["digest"] == passes[0]["digest"],
                             f"pass {len(passes)} output differs from pass 0")
            passes.append(res)
            shutil.rmtree(out)
            elapsed = perf_counter() - t_begin
            enough = len(passes) >= (2 if trace else MIN_PASSES)
            if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        n_traced = sum(p["traced"] for p in passes)
        layers = tracing.layer_metrics(traced_data, n_traced) if trace else None
        return {
            "passes": passes,
            "layers": layers,
            "inputs": sizes,
            "sha256": made["sha256"],
            "attempted": checks.attempted,
            "failed": checks.failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "machine": machine(),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or rev
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": tree_sha256(SRC / "esglm"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark child process")
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.mode == "setup":
        TMP.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP))
        try:
            result = setup(a.workload, a.seed, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    else:
        result = run(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
