"""Comparison models: majority-class prediction and multinomial Naive Bayes.

Both consume the same extracted excerpt text as the transformer, as raw
word-level token counts (not WordPiece pieces).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyDataset, InvalidConfig
from .tokenizer import pretokenize


def fit_common_class(train_labels: list[str]) -> str:
    """The majority label; ties go to the lexicographically smaller label."""
    if not train_labels:
        raise EmptyDataset("no training labels")
    counts = Counter(train_labels)
    top = max(counts.values())
    return min(label for label, c in counts.items() if c == top)


@dataclass(frozen=True)
class NaiveBayesModel:
    classes: tuple[str, ...]
    log_priors: dict[str, float]
    log_likelihoods: dict[str, dict[str, float]]


def word_bag(text: str) -> Counter:
    """Word-level token counts from the shared pre-tokenizer."""
    return Counter(pretokenize(text))


def fit_naive_bayes(
    train: list[tuple[Counter, str]], alpha: float = 1.0
) -> NaiveBayesModel:
    """Multinomial NB with Laplace smoothing alpha over the seen vocabulary.

    P(t|c) = (n_tc + alpha) / (n_c + alpha * |V|).
    """
    if alpha <= 0:
        raise InvalidConfig(f"alpha must be > 0, got {alpha}")
    if not train:
        raise EmptyDataset("no training documents")
    class_docs = Counter(label for _, label in train)
    classes = tuple(sorted(class_docs))
    vocabulary = frozenset(t for bag, _ in train for t in bag)
    token_counts: dict[str, Counter] = {c: Counter() for c in classes}
    for bag, label in train:
        token_counts[label].update(bag)

    total_docs = len(train)
    v = len(vocabulary)
    log_priors = {c: math.log(class_docs[c] / total_docs) for c in classes}
    log_likelihoods: dict[str, dict[str, float]] = {}
    for c in classes:
        n_c = sum(token_counts[c].values())
        denom = n_c + alpha * v
        log_likelihoods[c] = {
            t: math.log((token_counts[c][t] + alpha) / denom) for t in vocabulary
        }
    return NaiveBayesModel(
        classes=classes, log_priors=log_priors, log_likelihoods=log_likelihoods,
    )


def class_log_scores(model: NaiveBayesModel, bag: Counter) -> dict[str, float]:
    """log P(c) + sum over known tokens of count * log P(t|c).

    Tokens unseen at training time are ignored.
    """
    scores = {}
    for c in model.classes:
        s = model.log_priors[c]
        lik = model.log_likelihoods[c]
        for t, n in bag.items():
            if t in lik:
                s += n * lik[t]
        scores[c] = s
    return scores


def predict(model: NaiveBayesModel, bag: Counter) -> str:
    """Argmax class; ties go to the lexicographically smaller label."""
    scores = class_log_scores(model, bag)
    best = max(scores.values())
    return min(c for c, s in scores.items() if s == best)
