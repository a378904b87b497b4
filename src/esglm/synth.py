"""Synthetic data generator for the domain-adaptation replication study.

A hidden lexicon of two polarity word sets drives both sides of the
experiment: unlabeled corpus sentences mix each polarity's words with
shared neutral vocabulary, and downstream task examples are labeled by the
polarity whose words they carry.  The labeled training split only ever
uses the first part of each polarity's lexicon; test examples draw from
the held-out part, so a model can only classify them well if unlabeled
pretraining taught it that held-out and training words pattern together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledExample
from .model import ModelConfig, TrainConfig, init_params
from .pretrain import MaskingConfig, run_pretraining
from .tokenizer import Vocab, encode, prepare_input, train_vocab

_CONSONANTS = "bdfglmnprstvz"
_VOWELS = "aeiou"

POS_LABEL, NEG_LABEL = "change", "no_change"  # reuse the task-a label names


@dataclass(frozen=True)
class SynthSpec:
    n_signal: int = 16          # signal words per polarity
    n_train_signal: int = 8     # of which this many appear in labeled data
    n_neutral: int = 48
    corpus_docs: int = 240
    sentences_per_doc: int = 6
    sentence_words: tuple[int, int] = (8, 14)
    example_words: int = 12
    signal_density: float = 0.5
    n_train: int = 160
    n_val: int = 40
    n_test: int = 100
    max_seq_len: int = 32
    vocab_size: int = 700


@dataclass
class SynthData:
    corpus: list[str]
    train: list[tuple[str, str]]
    val: list[tuple[str, str]]
    test: list[tuple[str, str]]
    lexicon: dict[str, list[str]] = field(default_factory=dict)


def _make_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Pronounceable pseudo-words, two or three consonant-vowel syllables."""
    words: list[str] = []
    while len(words) < count:
        n_syll = int(rng.integers(2, 4))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _sentence(rng, signal_words, neutral_words, n_words, density) -> str:
    picks = []
    for _ in range(n_words):
        if rng.random() < density:
            picks.append(signal_words[rng.integers(len(signal_words))])
        else:
            picks.append(neutral_words[rng.integers(len(neutral_words))])
    return " ".join(picks) + "."


def generate(spec: SynthSpec, seed: int) -> SynthData:
    """Corpus plus labeled splits from one hidden lexicon draw."""
    rng = np.random.default_rng(seed)
    taken: set[str] = set()
    pos = _make_words(rng, spec.n_signal, taken)
    neg = _make_words(rng, spec.n_signal, taken)
    neutral = _make_words(rng, spec.n_neutral, taken)

    # documents are polarity-pure, the way real topical documents are;
    # mixed documents dilute the masked-word context beyond usefulness
    corpus = []
    for _ in range(spec.corpus_docs):
        doc_signal = pos if rng.random() < 0.5 else neg
        sents = []
        for _ in range(spec.sentences_per_doc):
            n = int(rng.integers(*spec.sentence_words))
            sents.append(_sentence(rng, doc_signal, neutral, n, spec.signal_density))
        corpus.append(" ".join(sents))

    def examples(n, pos_words, neg_words):
        out = []
        for _ in range(n):
            if rng.random() < 0.5:
                signal, label = pos_words, POS_LABEL
            else:
                signal, label = neg_words, NEG_LABEL
            out.append((
                _sentence(rng, signal, neutral, spec.example_words,
                          spec.signal_density),
                label,
            ))
        return out

    k = spec.n_train_signal
    data = SynthData(
        corpus=corpus,
        train=examples(spec.n_train, pos[:k], neg[:k]),
        val=examples(spec.n_val, pos[:k], neg[:k]),
        test=examples(spec.n_test, pos[k:], neg[k:]),
        lexicon={"pos": pos, "neg": neg, "neutral": neutral},
    )
    return data


def as_labeled_examples(
    rows: list[tuple[str, str]], vocab: Vocab, max_seq_len: int
) -> list[LabeledExample]:
    out = []
    for i, (text, label) in enumerate(rows):
        enc = prepare_input(encode(text, vocab), max_seq_len)
        out.append(LabeledExample(
            doc_id=f"synth-{i}", ticker="SYN", year=2015, quarter=1,
            delta=1.0 if label == POS_LABEL else 0.0,
            task_a_label=label, task_b_label=None, text=text,
            input_ids=enc.ids, real_len=enc.real_len,
        ))
    return out


@dataclass
class ReplicationResult:
    seed: int
    fresh_test_accuracy: float
    adapted_test_accuracy: float
    pretrain_trace: list[float]


def run_replication_arm(spec: SynthSpec, seed: int) -> ReplicationResult:
    """Fresh-init vs MLM-adapted fine-tuning on one generator draw.

    Both arms start from the same initialization seed and fine-tune with
    the same TrainConfig, so the MLM stage is the only difference.
    """
    # looked up in harness at call time: the benchmark's stage timer wraps
    # run_finetune there, and a binding made at import would escape it
    from .harness import run_finetune

    data = generate(spec, seed)
    vocab = train_vocab(data.corpus, target_size=spec.vocab_size, min_freq=2)
    config = ModelConfig(
        vocab_size=len(vocab), hidden_dim=32, num_layers=2, num_heads=2,
        ffn_dim=64, max_seq_len=spec.max_seq_len, dropout_rate=0.0,
    )
    # desk-scale training rates; the published 2e-5 moves a tiny model too
    # little to fit anything in 8 epochs
    pretrain_tc = TrainConfig(learning_rate=2e-3, epochs=8, batch_size=8, seed=seed)
    finetune_tc = TrainConfig(learning_rate=1e-3, epochs=8, batch_size=8, seed=seed)

    splits = {
        name: as_labeled_examples(rows, vocab, spec.max_seq_len)
        for name, rows in (
            ("train", data.train), ("validation", data.val), ("test", data.test),
        )
    }

    adapted = init_params(config, seed=seed)
    adapted, trace = run_pretraining(
        data.corpus, vocab, adapted, config, pretrain_tc,
        MaskingConfig(),
    )
    fresh = init_params(config, seed=seed)

    _, fresh_metrics, _ = run_finetune(
        fresh, config, splits, "a", finetune_tc, model_name="base_lm"
    )
    _, adapted_metrics, _ = run_finetune(
        adapted, config, splits, "a", finetune_tc, model_name="domain_lm"
    )
    return ReplicationResult(
        seed=seed,
        fresh_test_accuracy=fresh_metrics.splits["test"].accuracy,
        adapted_test_accuracy=adapted_metrics.splits["test"].accuracy,
        pretrain_trace=trace,
    )


def run_replication_study(
    seeds=(0, 1, 2, 3, 4), spec: SynthSpec | None = None
) -> list[ReplicationResult]:
    spec = spec or SynthSpec()
    return [run_replication_arm(spec, seed) for seed in seeds]
