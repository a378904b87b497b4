"""Command-line entry point: every pipeline stage as a subcommand.

Each stage reads an optional flat key=value config file plus flag
overrides, consumes the previous stage's on-disk artifact, and writes its
own, so the whole pipeline is cacheable and independently re-runnable:

    vocab -> pretrain -> extract -> dataset -> finetune -> report

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import baselines, data
from .artifacts import read_text, write_jsonl
from .checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from .errors import (
    CheckpointMismatch, ConfigError, DataError, EsglmError, InvalidConfig,
)
from .extract import (
    DEFAULT_BENCHMARK,
    DanEmbedder,
    ExtractionConfig,
    embed_benchmarks,
    extract_top_k,
    segment_sentences,
)
from .harness import (
    SPLIT_NAMES,
    Metrics,
    check_inputs,
    emit_report,
    evaluate_all,
    predict_labels,
    run_finetune,
)
from .model import ModelConfig, TrainConfig, init_params
from .pretrain import MaskingConfig, load_corpus_dir, run_pretraining
from .tokenizer import Vocab, encode, prepare_input, train_vocab


@dataclass(frozen=True)
class PipelineConfig:
    """Every documented config-file key, with its default."""

    # model architecture
    seq_len: int = 512
    dim: int = 64
    layers: int = 2
    heads: int = 2
    ffn_dim: int = 128
    dropout: float = 0.1
    # optimization (Table-caption defaults)
    lr: float = 2e-5
    eps: float = 1e-8
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 8
    batch: int = 8
    seed: int = 0
    # masking
    mask_rate: float = 0.15
    mask_prob: float = 0.8
    random_prob: float = 0.1
    keep_prob: float = 0.1
    # vocabulary
    vocab_size: int = 8000
    min_freq: int = 2
    # extraction
    top_k: int = 3
    benchmark: str = DEFAULT_BENCHMARK
    dan_dim: int = 0  # 0 means "same as dim"
    dan_seed: int = 0
    # dataset
    change_epsilon: float = 0.0
    split: str = "0.7,0.15,0.15"
    split_mode: str = "stratified"
    group_by_ticker: bool = False
    nb_alpha: float = 1.0
    # eda
    delta_bins: int = 20
    sentlen_bin_width: int = 10

    def __post_init__(self):
        if self.seq_len < 3:  # [CLS], one token, [SEP]
            raise InvalidConfig(f"seq_len must be >= 3, got {self.seq_len}")
        for name, least in (("seed", 0), ("dan_seed", 0), ("dan_dim", 0),
                            ("min_freq", 1), ("change_epsilon", 0),
                            ("delta_bins", 1), ("sentlen_bin_width", 1)):
            value = getattr(self, name)
            if value < least:
                raise InvalidConfig(f"{name} must be >= {least}, got {value}")
        if self.split_mode == "temporal" and self.group_by_ticker:
            raise InvalidConfig("group_by_ticker needs split_mode=stratified")


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False}


def load_config(path: str | None) -> PipelineConfig:
    """Parse key=value lines; '#' starts a comment; unknown keys fail."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    by_name = {f.name: f.type for f in fields(PipelineConfig)}
    updates: dict = {}
    try:
        lines = read_text(path).splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in by_name:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        default = getattr(cfg, key)
        try:
            if isinstance(default, bool):
                updates[key] = _BOOL_VALUES[value.lower()]
            elif isinstance(default, int):
                updates[key] = int(value)
            elif isinstance(default, float):
                updates[key] = float(value)
                if not np.isfinite(updates[key]):
                    raise ValueError(value)
            else:
                updates[key] = value
        except (ValueError, KeyError):
            raise ConfigError(
                f"{path}: line {lineno}: bad value {value!r} for {key}"
            ) from None
    return replace(cfg, **updates)


def model_config(cfg: PipelineConfig, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size, hidden_dim=cfg.dim, num_layers=cfg.layers,
        num_heads=cfg.heads, ffn_dim=cfg.ffn_dim, max_seq_len=cfg.seq_len,
        dropout_rate=cfg.dropout,
    )


def train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg.lr, adam_epsilon=cfg.eps, adam_beta1=cfg.beta1,
        adam_beta2=cfg.beta2, epochs=cfg.epochs, batch_size=cfg.batch,
        seed=cfg.seed,
    )


def _parse_split(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"split must be three comma-separated fractions: {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad split fractions {text!r}") from None
    return a, b, c


# ---------------------------------------------------------------- commands


def cmd_vocab(args, cfg: PipelineConfig) -> int:
    size = args.size if args.size is not None else cfg.vocab_size
    corpus = load_corpus_dir(args.corpus)
    vocab = train_vocab(corpus, target_size=size, min_freq=cfg.min_freq)
    vocab.save(args.out)
    print(f"vocab: {len(vocab)} tokens from {len(corpus)} documents -> {args.out}")
    return 0


def cmd_pretrain(args, cfg: PipelineConfig) -> int:
    vocab = Vocab.load(args.vocab)
    corpus = load_corpus_dir(args.corpus)
    config = model_config(cfg, len(vocab))
    tc = train_config(cfg)
    mc = MaskingConfig(
        mask_rate=cfg.mask_rate, replace_with_mask=cfg.mask_prob,
        replace_with_random=cfg.random_prob, keep_original=cfg.keep_prob,
    )
    params = init_params(config, seed=cfg.seed)
    params, trace = run_pretraining(corpus, vocab, params, config, tc, mc)
    for epoch, loss in enumerate(trace, start=1):
        print(f"pretrain epoch {epoch}: mlm loss {loss:.4f}")
    meta = CheckpointMeta(stage="pretrained", seed=cfg.seed,
                          train_config=asdict(tc))
    save_checkpoint(params, config, meta, args.out)
    print(f"pretrain: checkpoint -> {args.out}")
    return 0


def cmd_extract(args, cfg: PipelineConfig) -> int:
    vocab = Vocab.load(args.vocab)
    params, config, _ = load_checkpoint(args.ckpt)
    if config.vocab_size != len(vocab):
        raise CheckpointMismatch(
            f"checkpoint vocab {config.vocab_size} != vocab file {len(vocab)}"
        )
    embedder = DanEmbedder.from_token_embeddings(
        vocab, params["tok_emb"].astype(np.float64),
        embed_dim=cfg.dan_dim or None, seed=cfg.dan_seed,
    )
    benchmarks = tuple(s.strip() for s in cfg.benchmark.split("|") if s.strip())
    ex_cfg = ExtractionConfig(top_k=cfg.top_k, benchmark_sentences=benchmarks)
    bench = embed_benchmarks(ex_cfg, embedder)
    docs = data.load_manifest(args.manifest)

    def record(doc) -> dict:
        ext = extract_top_k(doc, ex_cfg, embedder, bench)
        enc = prepare_input(ext.token_ids, cfg.seq_len)
        return {
            "doc_id": doc.doc_id, "ticker": doc.ticker,
            "year": doc.year, "quarter": doc.quarter,
            "selected": [
                # a sentence with no known token scores -inf: JSON null
                {"index": s.index, "score": None if score == -np.inf else score,
                 "text": s.text}
                for s, score in zip(ext.sentences, ext.scores)
            ],
            "token_count": len(ext.token_ids),
            "input_ids": enc.ids.tolist(),
            "real_len": enc.real_len,
            "sentence_token_lengths": [
                len(encode(s.text, vocab)) for s in segment_sentences(doc.text)
            ],
            "vocab_size": len(vocab),
        }

    write_jsonl(args.out, map(record, docs))
    print(f"extract: {len(docs)} documents -> {args.out}")
    return 0


def cmd_dataset(args, cfg: PipelineConfig) -> int:
    extracted = data.load_extracted(args.extracted)
    scores = data.load_scores(args.scores)
    labels = data.derive_all_labels(scores, cfg.change_epsilon)
    task = args.task
    examples, join = data.build_dataset(extracted, labels, task)

    fractions = _parse_split(args.split if args.split else cfg.split)
    seed = args.seed if args.seed is not None else cfg.seed
    spec = data.SplitSpec(
        train_frac=fractions[0], val_frac=fractions[1], test_frac=fractions[2],
        seed=seed, stratify_by=task, mode=cfg.split_mode,
        group_by_ticker=cfg.group_by_ticker,
    )
    splits = data.split_dataset(examples, spec)

    meta = {
        "task": task,
        "seed": seed,
        "fractions": list(fractions),
        "change_epsilon": cfg.change_epsilon,
        "vocab_size": extracted[0]["vocab_size"],
        "max_seq_len": len(examples[0].input_ids),
        "counts": {
            "train": len(splits[0]), "val": len(splits[1]),
            "test": len(splits[2]),
        },
        "join": asdict(join),
    }
    data.save_dataset_splits(splits, meta, args.out)

    sent_lengths = [n for rec in extracted for n in rec["sentence_token_lengths"]]
    stats = data.eda_stats(
        labels, sent_lengths,
        delta_bins=cfg.delta_bins, sentlen_bin_width=cfg.sentlen_bin_width,
    )
    data.write_eda(stats, args.out)
    print(
        f"dataset: task {task}, {join.matched} examples "
        f"(train {meta['counts']['train']} / val {meta['counts']['val']} / "
        f"test {meta['counts']['test']}), "
        f"unmatched filings {join.unmatched_filings}, "
        f"unmatched labels {join.unmatched_labels}"
    )
    print(f"dataset: zero-delta fraction {stats.zero_delta_fraction:.4f}")
    return 0


def _print_accuracies(stage: str, metrics: Metrics) -> None:
    for split_name in SPLIT_NAMES:
        print(
            f"{stage} [{metrics.model_name}] {split_name} accuracy: "
            f"{metrics.splits[split_name].accuracy:.4f}"
        )


def _check_dataset_task(meta: dict, task: str | None) -> None:
    """Raise CheckpointMismatch when a given task is not meta.json's task."""
    if task is not None and meta["task"] != task:
        raise CheckpointMismatch(
            f"dataset was built for task {meta['task']!r}, not {task!r}"
        )


def cmd_finetune(args, cfg: PipelineConfig) -> int:
    if bool(args.ckpt) == bool(args.fresh):
        raise ConfigError("exactly one of --ckpt or --fresh is required")
    meta, splits = data.load_dataset_splits(args.data)
    task = args.task
    _check_dataset_task(meta, task)
    if args.ckpt:
        params, config, ck_meta = load_checkpoint(args.ckpt)
        if ck_meta.stage not in ("pretrained", "fresh"):
            raise CheckpointMismatch(
                f"cannot fine-tune from stage {ck_meta.stage!r}"
            )
        if config.vocab_size != meta["vocab_size"]:
            raise CheckpointMismatch(
                f"checkpoint vocab {config.vocab_size} != dataset vocab "
                f"{meta['vocab_size']}"
            )
        name = args.name or "domain_lm"
    else:
        seq_len = max(cfg.seq_len, meta["max_seq_len"])
        config = model_config(replace(cfg, seq_len=seq_len), meta["vocab_size"])
        params = init_params(config, seed=cfg.seed)
        name = args.name or "base_lm"

    tc = train_config(cfg)
    params, metrics, trace = run_finetune(params, config, splits, task, tc, name)
    for epoch, loss in enumerate(trace, start=1):
        print(f"finetune epoch {epoch}: loss {loss:.4f}")
    out_meta = CheckpointMeta(
        stage=f"finetuned_{task}", seed=tc.seed, train_config=asdict(tc)
    )
    save_checkpoint(params, config, out_meta, args.out)
    metrics.save(args.metrics)
    _print_accuracies("finetune", metrics)
    return 0


def cmd_baseline(args, cfg: PipelineConfig) -> int:
    meta, splits = data.load_dataset_splits(args.data)
    _check_dataset_task(meta, args.task)
    task = meta["task"]
    classes = data.TASK_CLASSES[task]
    if args.model == "common":
        majority = baselines.fit_common_class([e.label(task) for e in splits["train"]])
        name, echo = "common_class", {"predicted_class": majority}

        def predict(example):
            return majority
    else:
        train_rows = [
            (baselines.word_bag(e.text), e.label(task)) for e in splits["train"]
        ]
        model = baselines.fit_naive_bayes(train_rows, alpha=cfg.nb_alpha)
        name, echo = "naive_bayes", {"alpha": cfg.nb_alpha}

        def predict(example):
            return baselines.predict(model, baselines.word_bag(example.text))
    metrics = evaluate_all(lambda batch: [classes.index(predict(e)) for e in batch],
                           splits, task, name, echo)
    metrics.save(args.metrics)
    _print_accuracies("baseline", metrics)
    return 0


def cmd_evaluate(args, cfg: PipelineConfig) -> int:
    params, config, ck_meta = load_checkpoint(args.ckpt)
    if ck_meta.stage not in ("finetuned_a", "finetuned_b"):
        raise CheckpointMismatch(
            f"evaluate needs a finetuned checkpoint, got stage {ck_meta.stage!r}"
        )
    meta, splits = data.load_dataset_splits(args.data)
    task = ck_meta.stage.removeprefix("finetuned_")
    _check_dataset_task(meta, task)
    check_inputs(config, splits)
    metrics = evaluate_all(partial(predict_labels, params, config), splits, task,
                           args.name, {"checkpoint": str(args.ckpt)})
    metrics.save(args.metrics)
    _print_accuracies("evaluate", metrics)
    return 0


def cmd_report(args, cfg: PipelineConfig) -> int:
    metrics = [Metrics.load(p) for p in args.metrics]
    for m in metrics:
        if m.task != args.task:
            raise DataError(
                f"metrics for {m.model_name} are task {m.task!r}, "
                f"report is task {args.task!r}"
            )
    emit_report(metrics, args.task, args.out)
    print(f"report: {len(metrics)} model(s) -> {Path(args.out) / f'report_{args.task}.md'}")
    return 0


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esglm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    path, task = {"required": True}, {"required": True, "choices": ("a", "b")}

    def add(command, fn, help_text, /, **flags):
        """A subcommand taking --config and then --flag for each of flags."""
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for flag, kw in flags.items():
            p.add_argument(f"--{flag}", **kw)
        p.set_defaults(fn=fn)

    add("vocab", cmd_vocab, "train a WordPiece vocabulary from a corpus dir",
        corpus=path, out=path, size={"type": int})
    add("pretrain", cmd_pretrain, "MLM-adapt a fresh model on the corpus",
        corpus=path, vocab=path, out=path)
    add("extract", cmd_extract, "relevance-extract excerpts from filings",
        manifest=path, vocab=path, ckpt=path, out=path)
    add("dataset", cmd_dataset, "join excerpts with score labels and split",
        extracted=path, scores=path, task=task, split={}, seed={"type": int},
        out=path)
    add("finetune", cmd_finetune, "fine-tune the classifier on a dataset",
        ckpt={}, fresh={"action": "store_true"}, data=path, task=task, out=path,
        metrics=path, name={})
    add("baseline", cmd_baseline, "run a comparison model on a dataset",
        data=path, model={"required": True, "choices": ("common", "nb")},
        metrics=path, task={"choices": ("a", "b"), "help": "must match "
                            "meta.json's task; default: meta.json's"})
    add("evaluate", cmd_evaluate, "evaluate a finetuned checkpoint",
        ckpt=path, data=path, metrics=path, name={"default": "domain_lm"})
    add("report", cmd_report, "render Table-shaped reports from metrics",
        metrics={"nargs": "+", "required": True}, task=task, out=path)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        return args.fn(args, cfg)
    except EsglmError as exc:
        print(f"esglm: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"esglm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
