"""Fine-tuning, evaluation, and Table-shaped report emission.

The comparison arms (fresh init vs MLM-adapted init) run through the same
run_finetune with identical seeds and data order, so the only difference
between them is the starting weights.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import asdict, astuple, dataclass, field
from functools import partial
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
        splits = {k: SplitMetrics(**v) for k, v in doc["splits"].items()}
        for k in SPLIT_NAMES:  # the splits a report reads, each with numbers
            s = splits[k]
            splits[k] = SplitMetrics(float(s.accuracy), *map(int, astuple(s)[1:]))
        return cls(model_name=doc["model_name"], task=doc["task"], splits=splits,
                   config=doc.get("config", {}))

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Metrics":
        doc = read_json(path)
        try:
            return cls.from_dict(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc!r}") from None


def predict_labels(
    params: ParameterSet,
    config: ModelConfig,
    examples: list[LabeledExample],
) -> np.ndarray:
    """Deterministic eval-mode argmax predictions (class indexes)."""
    preds = []
    for start in range(0, len(examples), _EVAL_BATCH):
        chunk = examples[start : start + _EVAL_BATCH]
        ids, mask = trim_batch(np.stack([e.input_ids for e in chunk]))
        cls = np.zeros((len(ids), 1), np.intp)  # the last layer runs at CLS only
        hidden = encoder_forward(ids, mask, params, config, rows=cls)
        logits, _ = forward_classify(hidden, params)
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


def check_inputs(config: ModelConfig, splits: dict) -> None:
    """No split is empty, ids lie in [0, vocab_size), and each split has one
    length <= max_seq_len."""
    for name, examples in splits.items():
        if not examples:
            raise EmptySplit(f"the {name} split is empty")
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
    predict: Callable[[list[LabeledExample]], Sequence[int]],
    splits: dict[str, list[LabeledExample]],
    task: str,
    model_name: str,
    config_echo: dict,
) -> Metrics:
    """Score predict's class indexes on every split: the one path from
    predictions to Metrics, for the language models and baselines alike."""
    scored = {}
    for name in SPLIT_NAMES:
        if not splits[name]:
            raise EmptySplit(f"the {name} split is empty")
        truth = [e.label_index(task) for e in splits[name]]
        scored[name] = confusion(predict(splits[name]), truth)
    return Metrics(model_name, task, scored, config_echo)


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
    check_inputs(config, splits)
    train = splits["train"]

    labels = np.array([e.label_index(task) for e in train])

    def step(take, rng, state):
        batch = (*trim_batch(np.stack([train[i].input_ids for i in take])), labels[take])
        loss, grads = compute_gradients(batch, params, config, "classify", rng=rng)
        adam_step(params, grads, state, tc)
        return loss

    trace = run_epochs(len(train), params, tc, step)

    echo = {
        "learning_rate": tc.learning_rate, "adam_epsilon": tc.adam_epsilon,
        "epochs": tc.epochs, "batch_size": tc.batch_size, "seed": tc.seed,
        "task": task,
    }
    metrics = evaluate_all(partial(predict_labels, params, config), splits,
                           task, model_name, echo)
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
