import itertools
import math
from collections import Counter

import pytest

from esglm.baselines import (
    class_log_scores,
    fit_common_class,
    fit_naive_bayes,
    predict,
    word_bag,
)
from esglm.errors import EmptyDataset, InvalidConfig
from esglm.harness import confusion


def common_class_accuracy(train_labels, eval_labels):
    """The majority label's accuracy on eval_labels, scored through confusion
    over class indexes as cmd_baseline scores a report row."""
    classes = sorted(set(train_labels) | set(eval_labels))
    pred = classes.index(fit_common_class(train_labels))
    return confusion([pred] * len(eval_labels),
                     [classes.index(y) for y in eval_labels]).accuracy


class TestCommonClass:
    def test_majority_and_train_accuracy(self):
        labels = ["1", "1", "0"]
        assert fit_common_class(labels) == "1"
        assert common_class_accuracy(labels, labels) == pytest.approx(2 / 3, abs=1e-15)

    def test_eval_all_majority(self):
        assert common_class_accuracy(["a", "a", "b"], ["a"] * 5) == 1.0

    def test_tie_breaks_lexicographically(self):
        assert fit_common_class(["b", "a"]) == "a"

    def test_train_accuracy_is_exactly_majority_share(self):
        # the identity behind the published 0.6107 majority-share row
        labels = ["no_change"] * 6107 + ["change"] * 3893
        assert abs(common_class_accuracy(labels, labels) - 0.6107) < 1e-12

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyDataset):
            fit_common_class([])


def brute_force_scores(train, bag, alpha):
    """Independent enumeration of the smoothed-count formula."""
    classes = sorted({label for _, label in train})
    vocab = sorted({t for b, _ in train for t in b})
    out = {}
    for c in classes:
        docs_c = [b for b, label in train if label == c]
        prior = len(docs_c) / len(train)
        n_c = sum(sum(b.values()) for b in docs_c)
        s = math.log(prior)
        for t, n in bag.items():
            if t not in vocab:
                continue
            n_tc = sum(b[t] for b in docs_c)
            s += n * math.log((n_tc + alpha) / (n_c + alpha * len(vocab)))
        out[c] = s
    return out


class TestNaiveBayes:
    def _four_doc_corpus(self):
        return [
            (word_bag("good good"), "+"),
            (word_bag("good bad"), "+"),
            (word_bag("bad bad"), "-"),
            (word_bag("bad good"), "-"),
        ]

    def test_hand_enumerated_smoothed_counts(self):
        model = fit_naive_bayes(self._four_doc_corpus(), alpha=1.0)
        # P(good|+) = (3+1)/(4+2) = 2/3 ; P(good|-) = (1+1)/(4+2) = 1/3
        assert model.log_likelihoods["+"]["good"] == pytest.approx(math.log(2 / 3))
        assert model.log_likelihoods["-"]["good"] == pytest.approx(math.log(1 / 3))
        assert predict(model, word_bag("good")) == "+"

    def test_likelihoods_normalize_per_class(self):
        model = fit_naive_bayes(self._four_doc_corpus())
        for c in model.classes:
            total = sum(math.exp(v) for v in model.log_likelihoods[c].values())
            assert total == pytest.approx(1.0, abs=1e-9)
        assert sum(math.exp(v) for v in model.log_priors.values()) == pytest.approx(1.0)

    def test_class_swap_symmetry(self):
        train = self._four_doc_corpus()
        swapped = [(bag, "-" if c == "+" else "+") for bag, c in train]
        m1 = fit_naive_bayes(train)
        m2 = fit_naive_bayes(swapped)
        for text in ("good", "bad", "good bad bad", "good good bad"):
            p1 = predict(m1, word_bag(text))
            p2 = predict(m2, word_bag(text))
            assert p2 == ("-" if p1 == "+" else "+")

    def test_unseen_tokens_fall_back_to_prior(self):
        train = self._four_doc_corpus() + [(word_bag("good extra"), "+")]
        model = fit_naive_bayes(train)
        assert predict(model, word_bag("zzz qqq www")) == "+"  # prior favors +

    def test_posteriors_match_brute_force_enumeration(self):
        # every small instance: <= 5-token vocab, <= 8 docs
        words = ["w1", "w2", "w3"]
        rng_docs = [
            Counter({words[i % 3]: 1 + i % 2, words[(i + 1) % 3]: 1})
            for i in range(8)
        ]
        for n_docs in (2, 4, 8):
            for labels in itertools.product("xy", repeat=n_docs):
                if len(set(labels)) < 2:
                    continue
                train = list(zip(rng_docs[:n_docs], labels))
                model = fit_naive_bayes(train, alpha=1.0)
                for bag in (word_bag("w1"), word_bag("w1 w2 w3"), word_bag("w2 w2")):
                    got = class_log_scores(model, bag)
                    want = brute_force_scores(train, bag, 1.0)
                    for c in want:
                        assert abs(got[c] - want[c]) < 1e-12

    def test_training_set_duplication_invariance(self):
        train = self._four_doc_corpus()
        m1 = fit_naive_bayes(train)
        m2 = fit_naive_bayes(train * 3)
        for text in ("good", "bad", "good bad", "bad bad good"):
            assert predict(m1, word_bag(text)) == predict(m2, word_bag(text))

    def test_alpha_validation(self):
        with pytest.raises(InvalidConfig):
            fit_naive_bayes(self._four_doc_corpus(), alpha=0.0)

    def test_empty_training_rejected(self):
        with pytest.raises(EmptyDataset):
            fit_naive_bayes([])

    def test_predicts_separable_rows(self):
        model = fit_naive_bayes(self._four_doc_corpus())
        rows = [(word_bag("good good"), "+"), (word_bag("bad bad"), "-")]
        assert [predict(model, bag) for bag, _ in rows] == ["+", "-"]
