"""Fine-tuning, evaluation, and Table-shaped report emission.

The comparison arms (fresh init vs MLM-adapted init) run through the same
run_finetune with identical seeds and data order, so the only difference
between them is the starting weights.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import artifact, read_json, write_json
from .data import SPLIT_NAMES, LabeledExample
from .errors import (
    CheckpointMismatch,
    EmptySplit,
    InvalidConfig,
    InvalidInput,
    ParseError,
)
from .model import (
    ModelConfig,
    ParameterSet,
    TrainConfig,
    compute_gradients,
    encoder_forward,
    forward_classify,
    trim_batch,
)
from .optim import adam_step, run_epochs

MODEL_ORDER = ("common_class", "naive_bayes", "base_lm", "domain_lm")

_EVAL_BATCH = 32


@dataclass
class SplitMetrics:
    accuracy: float
    n: int
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class Metrics:
    model_name: str
    task: str
    splits: dict[str, SplitMetrics]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "Metrics":
        return cls(
            model_name=doc["model_name"], task=doc["task"],
            splits={k: SplitMetrics(**v) for k, v in doc["splits"].items()},
            config=doc.get("config", {}),
        )

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Metrics":
        doc = read_json(path)
        try:
            return cls.from_dict(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc!r}") from None


def _example_batch(examples: list[LabeledExample]):
    """(ids, attention_mask), cut after the longest real sequence."""
    ids = np.stack([e.input_ids for e in examples])
    mask = (ids != 0).astype(np.int64)
    return trim_batch(ids, mask)


def predict_labels(
    params: ParameterSet,
    config: ModelConfig,
    examples: list[LabeledExample],
) -> np.ndarray:
    """Deterministic eval-mode argmax predictions (class indexes)."""
    preds = []
    for start in range(0, len(examples), _EVAL_BATCH):
        chunk = examples[start : start + _EVAL_BATCH]
        ids, mask = _example_batch(chunk)
        hidden = encoder_forward(ids, mask, params, config)
        logits = forward_classify(hidden, params)
        preds.append(np.argmax(logits, axis=-1))
    return np.concatenate(preds)


def confusion(preds, truth) -> SplitMetrics:
    """Accuracy plus confusion counts over class indexes.

    Index 1 is the positive class: "change" for task a, "positive" for
    task b.  An empty split scores accuracy 0.0.
    """
    preds, truth = np.asarray(preds), np.asarray(truth)
    tp = int(np.sum((preds == 1) & (truth == 1)))
    tn = int(np.sum((preds == 0) & (truth == 0)))
    fp = int(np.sum((preds == 1) & (truth == 0)))
    fn = int(np.sum((preds == 0) & (truth == 1)))
    n = len(truth)
    return SplitMetrics(
        accuracy=(tp + tn) / n if n else 0.0, n=n, tp=tp, fp=fp, tn=tn, fn=fn,
    )


def evaluate_split(
    params: ParameterSet,
    config: ModelConfig,
    examples: list[LabeledExample],
    task: str,
) -> SplitMetrics:
    """Model predictions on one split, scored by confusion."""
    if not examples:
        raise EmptySplit("cannot evaluate an empty split")
    preds = predict_labels(params, config, examples)
    return confusion(preds, [e.label_index(task) for e in examples])


def check_inputs(config: ModelConfig, splits: dict) -> None:
    """Ids lie in [0, vocab_size); each split has one length <= max_seq_len."""
    for name, examples in splits.items():
        if not examples:
            continue
        lengths = {len(e.input_ids) for e in examples}
        if len(lengths) > 1:
            raise InvalidInput(
                f"{name} split mixes input lengths {sorted(lengths)}")
        ids = np.concatenate([e.input_ids for e in examples])
        lo, hi = int(ids.min(initial=0)), int(ids.max(initial=0))
        longest = max(lengths)
        if lo < 0 or hi >= config.vocab_size or longest > config.max_seq_len:
            raise CheckpointMismatch(
                f"{name} split has token ids in [{lo}, {hi}] and length "
                f"{longest}; checkpoint has vocab {config.vocab_size} and "
                f"max_seq_len {config.max_seq_len}"
            )


def evaluate_all(
    params: ParameterSet,
    config: ModelConfig,
    splits: dict[str, list[LabeledExample]],
    task: str,
    model_name: str,
    config_echo: dict | None = None,
) -> Metrics:
    check_inputs(config, splits)
    return Metrics(
        model_name=model_name, task=task,
        splits={
            name: evaluate_split(params, config, splits[name], task)
            for name in SPLIT_NAMES
        },
        config=dict(config_echo or {}),
    )


def run_finetune(
    params: ParameterSet,
    config: ModelConfig,
    splits: dict[str, list[LabeledExample]],
    task: str,
    tc: TrainConfig,
    model_name: str = "domain_lm",
) -> tuple[ParameterSet, Metrics, list[float]]:
    """Train encoder + classifier end-to-end, then evaluate all three splits.

    Input ids must fit the checkpoint's vocabulary.  Returns the updated
    params, Metrics, and the per-epoch loss trace.
    """
    if task not in ("a", "b"):
        raise InvalidConfig(f"task must be 'a' or 'b', got {task!r}")
    train = splits["train"]
    if not train:
        raise EmptySplit("empty training split")
    check_inputs(config, splits)

    labels = np.array([e.label_index(task) for e in train])

    def step(take, rng, state):
        ids, mask = _example_batch([train[i] for i in take])
        loss, grads = compute_gradients((ids, mask, labels[take]), params,
                                        config, "classify", rng=rng)
        adam_step(params, grads, state, tc)
        return loss, grads

    trace = run_epochs(len(train), params, tc, step)

    echo = {
        "learning_rate": tc.learning_rate, "adam_epsilon": tc.adam_epsilon,
        "epochs": tc.epochs, "batch_size": tc.batch_size, "seed": tc.seed,
        "task": task,
    }
    metrics = evaluate_all(params, config, splits, task, model_name, echo)
    return params, metrics, trace


def format_report_markdown(metrics_list: list[Metrics], task: str) -> str:
    """One row per model, three 4-decimal accuracy columns."""
    by_name = {m.model_name: m for m in metrics_list}
    names = [n for n in MODEL_ORDER if n in by_name]
    names += sorted(set(by_name) - set(names))
    lines = [
        "| Model | Train Accuracy | Validation Accuracy | Test Accuracy |",
        "| --- | --- | --- | --- |",
    ]
    for name in names:
        m = by_name[name]
        cells = " | ".join(
            f"{m.splits[s].accuracy:.4f}" for s in SPLIT_NAMES
        )
        lines.append(f"| {name} | {cells} |")
    return "\n".join(lines) + "\n"


def emit_report(metrics_list: list[Metrics], task: str, out_dir) -> None:
    """Write report_{task}.json (full metrics) and report_{task}.md (table)."""
    if not metrics_list:
        raise InvalidConfig("emit_report needs at least one Metrics entry")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / f"report_{task}.json",
               {"task": task, "rows": [m.to_dict() for m in metrics_list]})
    with artifact(out / f"report_{task}.md") as fh:
        fh.write(format_report_markdown(metrics_list, task))
