import dataclasses
import json

import numpy as np
import pytest

from esglm.data import LabeledExample
from esglm.errors import CheckpointMismatch, EmptySplit, InvalidConfig
from esglm.harness import (
    Metrics,
    _example_batch,
    SplitMetrics,
    confusion,
    emit_report,
    evaluate_all,
    evaluate_split,
    format_report_markdown,
    predict_labels,
    run_finetune,
)
from esglm.model import (
    ModelConfig,
    TrainConfig,
    compute_gradients,
    encoder_forward,
    forward_classify,
    init_params,
)
from esglm.optim import OptimizerState, adam_step
from esglm.tokenizer import prepare_input

CFG = ModelConfig(vocab_size=32, hidden_dim=32, num_layers=2, num_heads=2,
                  ffn_dim=64, max_seq_len=16, dropout_rate=0.0)


def example(i, label, rng, n_body=8, max_seq_len=16):
    enc = prepare_input(rng.integers(5, CFG.vocab_size, size=n_body).tolist(),
                        max_seq_len)
    return LabeledExample(
        doc_id=f"D{i}", ticker="T", year=2015, quarter=1,
        delta=1.0 if label == "change" else 0.0,
        task_a_label=label, task_b_label=None, text="",
        input_ids=enc.ids, real_len=enc.real_len,
    )


def tiny_splits(seed=0, n=16):
    rng = np.random.default_rng(seed)
    examples = [
        example(i, "change" if i % 2 else "no_change", rng) for i in range(n)
    ]
    return {"train": examples[: n // 2],
            "validation": examples[n // 2 : 3 * n // 4],
            "test": examples[3 * n // 4 :]}


class TestEvaluate:
    def test_counts_partition_split(self):
        splits = tiny_splits()
        params = init_params(CFG, seed=0)
        m = evaluate_split(params, CFG, splits["train"], "a")
        assert m.tp + m.fp + m.tn + m.fn == m.n == len(splits["train"])
        assert 0.0 <= m.accuracy <= 1.0

    def test_accuracy_matches_loop_and_count_oracle(self):
        splits = tiny_splits(seed=3)
        params = init_params(CFG, seed=1)
        made = evaluate_split(params, CFG, splits["test"], "a")
        preds = predict_labels(params, CFG, splits["test"])
        correct = 0
        for p, e in zip(preds, splits["test"]):
            correct += int(p == e.label_index("a"))
        assert made.accuracy == correct / len(splits["test"])

    def test_predictions_do_not_depend_on_padding_width(self):
        rng = np.random.default_rng(1)
        params = init_params(CFG, seed=2, dtype=np.float64)
        for name in params.names():  # large weights, so both classes occur
            params[name] = rng.normal(0.0, 0.3, size=params[name].shape)
        params["cls.b"][:] = 0.0
        lengths = rng.integers(1, 11, size=40)
        narrow = [example(i, "change", rng, n_body=int(n), max_seq_len=12)
                  for i, n in enumerate(lengths)]
        wide = [dataclasses.replace(e, input_ids=np.pad(e.input_ids, (0, 4)))
                for e in narrow]
        # reference: one full-width forward over all 16 columns
        ids = np.stack([e.input_ids for e in wide])
        hidden = encoder_forward(ids, (ids != 0).astype(np.int64), params, CFG)
        want = np.argmax(forward_classify(hidden, params), axis=-1)
        assert len(set(want)) == 2
        np.testing.assert_array_equal(predict_labels(params, CFG, narrow), want)
        np.testing.assert_array_equal(predict_labels(params, CFG, wide), want)

    def test_empty_split_rejected(self):
        with pytest.raises(EmptySplit):
            evaluate_split(init_params(CFG, seed=0), CFG, [], "a")

    def test_confusion_counts_index_one_as_positive(self):
        m = confusion([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (m.tp, m.fp, m.tn, m.fn, m.n) == (2, 1, 1, 1, 5)
        assert m.accuracy == 3 / 5
        assert confusion([], []).accuracy == 0.0

    def test_accuracy_identity(self):
        m = SplitMetrics(accuracy=0.75, n=4, tp=2, fp=1, tn=1, fn=0)
        assert (m.tp + m.tn) / m.n == m.accuracy


class TestRunFinetune:
    def test_metrics_contract(self):
        splits = tiny_splits()
        params = init_params(CFG, seed=0)
        _, metrics, trace = run_finetune(
            params, CFG, splits, "a",
            TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=0),
        )
        assert set(metrics.splits) == {"train", "validation", "test"}
        for name, split in metrics.splits.items():
            assert 0.0 <= split.accuracy <= 1.0
            assert split.n == len(splits[name if name != "validation" else "validation"])
        assert len(trace) == 2

    def test_overfits_eight_examples_within_300_steps(self):
        # fixed batch of 8: each epoch is one adam step
        rng = np.random.default_rng(5)
        batch = [
            example(i, "change" if i % 2 else "no_change", rng)
            for i in range(8)
        ]
        splits = {"train": batch, "validation": batch, "test": batch}
        params = init_params(CFG, seed=2)
        tc = TrainConfig(learning_rate=1e-3, epochs=300, batch_size=8, seed=0)
        _, metrics, trace = run_finetune(params, CFG, splits, "a", tc)
        assert metrics.splits["train"].accuracy == 1.0

    def test_same_seed_bit_identical_metrics(self):
        splits = tiny_splits(seed=9)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=4)
        out = []
        for _ in range(2):
            params = init_params(CFG, seed=3)
            _, metrics, _ = run_finetune(params, CFG, splits, "a", tc)
            out.append(metrics.to_dict())
        assert out[0] == out[1]

    def test_vocab_mismatch_rejected(self):
        splits = tiny_splits()
        small = ModelConfig(vocab_size=6, hidden_dim=32, num_layers=2,
                            num_heads=2, ffn_dim=64, max_seq_len=16)
        with pytest.raises(CheckpointMismatch):
            run_finetune(init_params(small, seed=0), small, splits, "a",
                         TrainConfig())

    def test_ids_outside_vocab_rejected_in_every_split(self):
        params = init_params(CFG, seed=0)
        for bad in (-1, CFG.vocab_size):
            splits = tiny_splits()
            splits["validation"][0].input_ids[1] = bad
            with pytest.raises(CheckpointMismatch):
                evaluate_all(params, CFG, splits, "a", "base_lm")

    def test_seq_len_mismatch_rejected(self):
        splits = tiny_splits()
        short = ModelConfig(vocab_size=32, hidden_dim=32, num_layers=2,
                            num_heads=2, ffn_dim=64, max_seq_len=8)
        with pytest.raises(CheckpointMismatch):
            run_finetune(init_params(short, seed=0), short, splits, "a",
                         TrainConfig())


def _reference_finetune(params, config, train, task, tc):
    """run_finetune's epoch loop written inline, as it was before the loop
    was shared with pretraining."""
    labels = np.array([e.label_index(task) for e in train])
    rng = np.random.default_rng(tc.seed)
    state = OptimizerState.for_params(params)
    trace = []
    for _ in range(tc.epochs):
        order = rng.permutation(len(train))
        losses = []
        for start in range(0, len(train), tc.batch_size):
            take = order[start : start + tc.batch_size]
            ids, mask = _example_batch([train[i] for i in take])
            loss, grads = compute_gradients(
                (ids, mask, labels[take]), params, config, "classify", rng=rng,
            )
            adam_step(params, grads, state, tc)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, trace


class TestSharedLoop:
    def test_matches_the_inline_epoch_loop_bit_for_bit(self):
        cfg = dataclasses.replace(CFG, dropout_rate=0.1)
        splits = tiny_splits(seed=4, n=28)
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=6)
        params, _, trace = run_finetune(init_params(cfg, seed=3), cfg, splits,
                                        "a", tc)
        want, want_trace = _reference_finetune(
            init_params(cfg, seed=3), cfg, splits["train"], "a", tc)
        assert trace == want_trace
        assert params.flat.dtype == np.float32
        np.testing.assert_array_equal(params.flat.view(np.uint32),
                                      want.flat.view(np.uint32))


class TestTiedWeights:
    def test_projection_equals_embeddings_after_updates(self):
        # the MLM projection reads tok_emb directly, so any number of
        # optimizer steps keeps them identical by construction; verify the
        # tied tensor actually moves under the MLM objective
        rng = np.random.default_rng(0)
        params = init_params(CFG, seed=0, dtype=np.float64)
        before = params["tok_emb"].copy()
        state = OptimizerState.for_params(params)
        enc = prepare_input(rng.integers(5, 32, size=10).tolist(), 16)
        targets = np.full((1, 16), -100)
        targets[0, 3] = 9
        for _ in range(3):
            _, grads = compute_gradients(
                (enc.ids[None], enc.attention_mask[None], targets),
                params, CFG, "mlm",
            )
            adam_step(params, grads, state, TrainConfig(learning_rate=1e-3))
        assert not np.array_equal(before, params["tok_emb"])


class TestReport:
    def _metrics(self, name, accs):
        return Metrics(
            model_name=name, task="a",
            splits={
                s: SplitMetrics(accuracy=a, n=10, tp=5, fp=1, tn=3, fn=1)
                for s, a in zip(("train", "validation", "test"), accs)
            },
        )

    def test_markdown_matches_published_table_shape(self, tmp_path):
        rows = [self._metrics("common_class", (0.6107, 0.614, 0.5791))]
        emit_report(rows, "a", tmp_path)
        md = (tmp_path / "report_a.md").read_text()
        lines = md.splitlines()
        assert lines[0] == "| Model | Train Accuracy | Validation Accuracy | Test Accuracy |"
        assert lines[2] == "| common_class | 0.6107 | 0.6140 | 0.5791 |"

    def test_single_model_single_row(self, tmp_path):
        emit_report([self._metrics("naive_bayes", (0.9, 0.8, 0.7))], "b", tmp_path)
        md = (tmp_path / "report_b.md").read_text().splitlines()
        assert len(md) == 3

    def test_row_order_fixed(self):
        rows = [
            self._metrics("domain_lm", (1, 1, 1)),
            self._metrics("common_class", (1, 1, 1)),
            self._metrics("base_lm", (1, 1, 1)),
        ]
        md = format_report_markdown(rows, "a").splitlines()
        names = [line.split("|")[1].strip() for line in md[2:]]
        assert names == ["common_class", "base_lm", "domain_lm"]

    def test_json_round_trips(self, tmp_path):
        rows = [self._metrics("base_lm", (0.5, 0.25, 0.125))]
        emit_report(rows, "a", tmp_path)
        doc = json.loads((tmp_path / "report_a.json").read_text())
        again = [Metrics.from_dict(r) for r in doc["rows"]]
        assert [m.to_dict() for m in again] == [m.to_dict() for m in rows]

    def test_accuracies_render_with_four_decimals(self):
        md = format_report_markdown(
            [self._metrics("base_lm", (1 / 3, 2 / 3, 0.99995))], "a"
        )
        assert "0.3333" in md and "0.6667" in md and "1.0000" in md

    def test_empty_metrics_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            emit_report([], "a", tmp_path)
