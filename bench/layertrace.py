"""Layer tracing from outside the program.

A Tracer replaces every module-level binding of the chosen esglm functions
with a timing wrapper and puts the originals back on exit.  A function
imported into several modules (`encode`, `compute_gradients`, `gelu`, ...)
is wrapped at each of those bindings, so a call is seen whichever module
it goes through, and each record remembers the binding it went through.

Each wrapper is a span: it records calls, total time, self time (total
minus the time of wrapped calls made inside it) and exceptions that escape
it.  A few functions also have a hook that counts work from their
arguments or result, such as positions fed to the encoder.  Spans and
counts stay in memory; `layer_metrics` turns them into the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = (
    "tokenizer", "model", "optim", "pretrain", "extract", "data",
    "baselines", "checkpoint", "harness", "synth", "cli",
)

IGNORE_INDEX = -100  # esglm.model.IGNORE_INDEX; MLM targets not predicted


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class TraceData:
    """What one or more traced passes recorded.

    spans is keyed by (layer, function, binding module); binding is the
    module whose global the call went through.
    """

    spans: dict = field(default_factory=lambda: defaultdict(SpanStats))
    counts: Counter = field(default_factory=Counter)
    step_ms: list = field(default_factory=list)
    texts: set = field(default_factory=set)
    gauges: dict = field(default_factory=dict)
    args: dict = field(default_factory=lambda: defaultdict(list))

    def merge(self, other: "TraceData") -> None:
        for key, s in other.spans.items():
            mine = self.spans[key]
            mine.calls += s.calls
            mine.total_s += s.total_s
            mine.self_s += s.self_s
            mine.errors += s.errors
        self.counts.update(other.counts)
        self.step_ms.extend(other.step_ms)
        self.texts |= other.texts
        self.gauges.update(other.gauges)

    # ------------------------------------------------------------ queries
    def _select(self, layer, fn, binding=None):
        return [s for (l, f, b), s in self.spans.items()
                if l == layer and f == fn and binding in (None, b)]

    def total(self, layer, fn, binding=None) -> float:
        return sum(s.total_s for s in self._select(layer, fn, binding))

    def calls(self, layer, fn, binding=None) -> int:
        return sum(s.calls for s in self._select(layer, fn, binding))

    def layer_self(self, layer, fn=None) -> float:
        return sum(s.self_s for (l, f, _), s in self.spans.items()
                   if l == layer and fn in (None, f))

    def layer_errors(self, layer) -> int:
        return sum(s.errors for (l, _, _), s in self.spans.items() if l == layer)


# --------------------------------------------------------------- hooks
# Each hook gets (data, bound arguments, result, start time, end time).
# They run after the wrapped call, outside its timed interval.

def _count_vocab(d, a, r, t0, t1):
    d.gauges["vocab_tokens"] = len(r)


def _count_segments(d, a, r, t0, t1):
    d.counts["segment_sentences"] += len(r)


def _count_embed(d, a, r, t0, t1):
    s = a["sentence"]
    d.texts.add(getattr(s, "text", s))


def _count_encoder(d, a, r, t0, t1):
    ids, mask = a["ids"], a["attention_mask"]
    d.counts["positions"] += ids.size
    d.counts["real_positions"] += int(mask.sum())


def _count_mlm(d, a, r, t0, t1):
    d.counts["mlm_rows"] += r.size // r.shape[-1]
    d.counts["mlm_logit_bytes"] += r.nbytes


def _count_gradients(d, a, r, t0, t1):
    d.gauges["step_start"] = t0
    if a["objective"] == "mlm":
        d.counts["mlm_target_rows"] += int((a["batch"][2] != IGNORE_INDEX).sum())


def _count_adam(d, a, r, t0, t1):
    start = d.gauges.pop("step_start", None)
    if start is not None:
        d.step_ms.append((t1 - start) * 1e3)


def _count_windows(d, a, r, t0, t1):
    d.counts["windows"] += len(r)


def _count_eval(d, a, r, t0, t1):
    d.counts["eval_examples"] += len(a["examples"])


def _count_checkpoint(d, a, r, t0, t1):
    d.counts["checkpoint_bytes"] += os.path.getsize(a["path"])


def _count_splits(d, a, r, t0, t1):
    out = Path(a["out_dir"])
    d.counts["split_bytes"] += sum(
        (out / f"{n}.jsonl").stat().st_size for n in ("train", "val", "test")
    )


def _count_extract_out(d, a, r, t0, t1):
    d.counts["extract_out_bytes"] += os.path.getsize(a["args"].out)


def _keep_args(d, a, r, t0, t1):
    d.args[a["__name__"]].append(a)


# (layer, function, binding or None for every binding) -> hook
HOOKS = {
    ("tokenizer", "train_vocab", None): _count_vocab,
    ("extract", "segment_sentences", "extract"): _count_segments,
    ("extract", "dan_embed", None): _count_embed,
    ("model", "encoder_forward", None): _count_encoder,
    ("model", "forward_mlm", None): _count_mlm,
    ("model", "compute_gradients", None): _count_gradients,
    ("optim", "adam_step", None): _count_adam,
    ("pretrain", "window_corpus", None): _count_windows,
    ("harness", "predict_labels", None): _count_eval,
    ("checkpoint", "save_checkpoint", None): _count_checkpoint,
    ("data", "save_dataset_splits", None): _count_splits,
    ("cli", "cmd_extract", None): _count_extract_out,
}

# the stage functions run_replication_arm calls, timed in untraced runs
# too; some keep their arguments so tokens can be counted after the pass
STAGES = {
    ("synth", "generate", "synth"): None,
    ("tokenizer", "train_vocab", "synth"): None,
    ("synth", "as_labeled_examples", "synth"): None,
    ("pretrain", "run_pretraining", "synth"): _keep_args,
    ("harness", "run_finetune", "harness"): _keep_args,
    ("harness", "evaluate_all", "harness"): None,
}


def public_functions(layer: str) -> dict:
    """Public module-level functions that esglm.<layer> defines."""
    mod = importlib.import_module(f"esglm.{layer}")
    return {
        name: obj for name, obj in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == mod.__name__
    }


def esglm_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "esglm" or name.startswith("esglm."))]


class Tracer:
    """Context manager that wraps esglm functions at every binding.

    With `only` set to a dict like STAGES, just those (layer, function,
    binding) triples are wrapped, with the hooks given there; otherwise
    every public function of every layer is, with HOOKS.
    """

    def __init__(self, only: dict | None = None):
        self.only = only
        self.data = TraceData()
        self._stack: list[float] = []
        self._patched: list = []
        self._last_error = None

    def take(self) -> TraceData:
        """Return what was recorded so far and start afresh."""
        data, self.data = self.data, TraceData()
        return data

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            importlib.import_module(f"esglm.{layer}")
        targets = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                targets[id(fn)] = (layer, name, fn)
        for mod in esglm_modules():
            binding = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is None or hit[2] is not value:
                    continue
                layer, name, fn = hit
                if self.only is not None:
                    if (layer, name, binding) not in self.only:
                        continue
                    hook = self.only[(layer, name, binding)]
                else:
                    hook = HOOKS.get((layer, name, binding),
                                     HOOKS.get((layer, name, None)))
                setattr(mod, attr, self._wrap(fn, (layer, name, binding), hook))
                self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, fn, key, hook):
        stack = self._stack
        sig = inspect.signature(fn) if hook else None
        name = key[1]

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an exception once, in the innermost span it left
                if exc is not self._last_error:
                    self._last_error = exc
                    self.data.spans[key].errors += 1
                raise
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                child = stack.pop()
                span = self.data.spans[key]
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = dict(bound.arguments, __name__=name)
                hook(self.data, arguments, result, t0, t1)
                if stack:  # hook time is the tracer's, not the caller's
                    stack[-1] += perf_counter() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper


# ---------------------------------------------------------- layer metrics

def _tail(samples: list) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    beyond it, as (percentile, value); (0, median) below twenty samples."""
    if not samples:
        return 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            idx = min(n - 1, int(pct / 100.0 * n))
            return pct, ordered[idx]
    return 0.0, statistics.median(ordered)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(d: TraceData, passes: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, averaged per traced pass.

    Times and counts are per pass; fractions, the vocabulary size and the
    step-time percentiles are over all traced passes.
    """
    p = max(passes, 1)
    c = d.counts
    tail_pct, tail_ms = _tail(d.step_ms)
    embed_calls = d.calls("extract", "dan_embed")
    m = {
        "tokenizer.train_vocab_s": (d.total("tokenizer", "train_vocab") / p, "s"),
        "tokenizer.vocab_tokens": (d.gauges.get("vocab_tokens", 0), "count"),
        "tokenizer.encode_calls": (d.calls("tokenizer", "encode") / p, "count"),
        "tokenizer.encode_s": (d.total("tokenizer", "encode") / p, "s"),
        "extract.sentences": (c["segment_sentences"] / p, "count"),
        "extract.segment_s": (d.total("extract", "segment_sentences") / p, "s"),
        "extract.dan_embed_calls": (embed_calls / p, "count"),
        "extract.dan_embed_s": (d.total("extract", "dan_embed") / p, "s"),
        "extract.gelu_s": (d.total("model", "gelu", "extract") / p, "s"),
        "extract.unique_text_fraction": (_ratio(len(d.texts), embed_calls), "ratio"),
        "extract.out_bytes": (c["extract_out_bytes"] / p, "bytes"),
        "model.positions": (c["positions"] / p, "count"),
        "model.real_positions": (c["real_positions"] / p, "count"),
        "model.real_fraction": (_ratio(c["real_positions"], c["positions"]), "ratio"),
        "model.encoder_forward_calls": (d.calls("model", "encoder_forward") / p, "count"),
        "model.encoder_forward_self_s": (d.layer_self("model", "encoder_forward") / p, "s"),
        "model.encoder_backward_self_s": (d.layer_self("model", "encoder_backward") / p, "s"),
        "model.mlm_rows": (c["mlm_rows"] / p, "count"),
        "model.mlm_target_rows": (c["mlm_target_rows"] / p, "count"),
        "model.mlm_useful_fraction": (_ratio(c["mlm_target_rows"], c["mlm_rows"]), "ratio"),
        "model.mlm_logit_bytes": (c["mlm_logit_bytes"] / p, "bytes"),
        "model.forward_mlm_s": (d.total("model", "forward_mlm") / p, "s"),
        "model.compute_gradients_self_s": (d.layer_self("model", "compute_gradients") / p, "s"),
        "model.gelu_s": (d.total("model", "gelu", "model") / p, "s"),
        "model.gelu_grad_s": (d.total("model", "gelu_grad", "model") / p, "s"),
        "model.train_step_ms_p50": (statistics.median(d.step_ms) if d.step_ms else 0.0, "ms"),
        "model.train_step_ms_tail": (tail_ms, "ms"),
        "model.train_step_ms_tail_pct": (tail_pct, "%"),
        "model.train_steps": (len(d.step_ms) / p, "count"),
        "optim.adam_calls": (d.calls("optim", "adam_step") / p, "count"),
        "optim.adam_s": (d.total("optim", "adam_step") / p, "s"),
        "pretrain.steps": (d.calls("model", "compute_gradients", "pretrain") / p, "count"),
        "pretrain.windows": (c["windows"] / p, "count"),
        "pretrain.mask_batch_s": (d.total("pretrain", "mask_batch") / p, "s"),
        "pretrain.window_corpus_s": (d.total("pretrain", "window_corpus") / p, "s"),
        "harness.run_finetune_self_s": (d.layer_self("harness", "run_finetune") / p, "s"),
        "harness.predict_labels_s": (d.total("harness", "predict_labels") / p, "s"),
        "harness.eval_examples": (c["eval_examples"] / p, "count"),
        "checkpoint.save_s": (d.total("checkpoint", "save_checkpoint") / p, "s"),
        "checkpoint.load_s": (d.total("checkpoint", "load_checkpoint") / p, "s"),
        "checkpoint.save_calls": (d.calls("checkpoint", "save_checkpoint") / p, "count"),
        "checkpoint.load_calls": (d.calls("checkpoint", "load_checkpoint") / p, "count"),
        "checkpoint.bytes_written": (c["checkpoint_bytes"] / p, "bytes"),
        "data.load_manifest_s": (d.total("data", "load_manifest") / p, "s"),
        "data.split_s": (d.total("data", "split_dataset") / p, "s"),
        "data.save_splits_s": (d.total("data", "save_dataset_splits") / p, "s"),
        "data.load_splits_s": (d.total("data", "load_dataset_splits") / p, "s"),
        "data.load_splits_calls": (d.calls("data", "load_dataset_splits") / p, "count"),
        "data.split_bytes": (c["split_bytes"] / p, "bytes"),
        "baselines.nb_fit_s": (d.total("baselines", "fit_naive_bayes") / p, "s"),
        "baselines.nb_predict_calls": (d.calls("baselines", "predict") / p, "count"),
        "baselines.nb_predict_s": (d.total("baselines", "predict") / p, "s"),
        "cli.self_s": (d.layer_self("cli") / p, "s"),
        "synth.generate_s": (d.total("synth", "generate") / p, "s"),
        "synth.as_labeled_examples_s": (d.total("synth", "as_labeled_examples") / p, "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = (d.layer_errors(layer) / p, "count")
    return m
