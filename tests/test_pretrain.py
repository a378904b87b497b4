import dataclasses
import math

import numpy as np
import pytest

from esglm.errors import EmptyBatch, InvalidConfig, InvalidInput
from esglm.model import (
    IGNORE_INDEX,
    ModelConfig,
    TrainConfig,
    compute_gradients,
    encoder_forward,
    forward_mlm,
    init_params,
    trim_batch,
)
from esglm.optim import OptimizerState, adam_step
from esglm.pretrain import (
    MaskingConfig,
    load_corpus_dir,
    mask_batch,
    run_pretraining,
    window_corpus,
)
from esglm.tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    Vocab,
    prepare_input,
)
from test_model import ce_loss

VOCAB = Vocab.from_tokens(
    ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    + [f"w{i}" for i in range(20)]
)


def some_inputs(rng, n=4, body=10, max_seq_len=16):
    return [
        prepare_input(rng.integers(5, len(VOCAB), size=body).tolist(), max_seq_len)
        for _ in range(n)
    ]


class TestMaskingConfig:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidConfig):
            MaskingConfig(replace_with_mask=0.7, replace_with_random=0.1,
                          keep_original=0.1)

    @pytest.mark.parametrize("fractions", [
        (math.nan, 0.1, 0.1), (1.5, -0.6, 0.1), (0.5, 0.5, math.nan)])
    def test_each_fraction_in_unit_interval(self, fractions):
        with pytest.raises(InvalidConfig):
            MaskingConfig(replace_with_mask=fractions[0],
                          replace_with_random=fractions[1],
                          keep_original=fractions[2])

    def test_rate_bounds(self):
        with pytest.raises(InvalidConfig):
            MaskingConfig(mask_rate=1.0)
        MaskingConfig(mask_rate=0.0)  # degenerate rate is legal


class TestMaskBatch:
    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        inputs = some_inputs(rng)
        mb = mask_batch(inputs, VOCAB, MaskingConfig(mask_rate=0.0), rng)
        for i, enc in enumerate(inputs):
            np.testing.assert_array_equal(mb.input_ids[i], enc.ids)
        assert np.all(mb.targets == IGNORE_INDEX)

    def test_specials_never_selected(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            inputs = some_inputs(rng, n=3)
            mb = mask_batch(inputs, VOCAB, MaskingConfig(mask_rate=0.9), rng)
            sel = mb.targets != IGNORE_INDEX
            originals = np.stack([e.ids for e in inputs])
            assert not sel[originals == CLS_ID].any()
            assert not sel[originals == SEP_ID].any()
            assert not sel[originals == PAD_ID].any()

    def test_targets_align_with_selection(self):
        rng = np.random.default_rng(2)
        inputs = some_inputs(rng)
        mb = mask_batch(inputs, VOCAB, MaskingConfig(), rng)
        sel = mb.targets != IGNORE_INDEX
        originals = np.stack([e.ids for e in inputs])
        assert np.all(mb.targets[sel] == originals[sel])
        # corrupted ids differ only at selected positions
        changed = mb.input_ids != originals
        assert np.all(sel[changed])
        # replacements are MASK or a non-special token
        assert np.all(
            (mb.input_ids[changed] == MASK_ID) | (mb.input_ids[changed] >= 5)
        )

    def test_selection_and_corruption_statistics(self):
        # Monte Carlo over >= 100k eligible positions
        rng = np.random.default_rng(3)
        inputs = some_inputs(rng, n=250, body=48, max_seq_len=64)
        eligible = sum(e.real_len - 2 for e in inputs)
        reps = math.ceil(100_000 / eligible)
        n_sel = n_mask = n_rand = n_keep = n_elig = 0
        for _ in range(reps):
            mb = mask_batch(inputs, VOCAB, MaskingConfig(), rng)
            sel = mb.targets != IGNORE_INDEX
            originals = np.stack([e.ids for e in inputs])
            n_elig += eligible
            n_sel += int(sel.sum())
            n_mask += int((mb.input_ids[sel] == MASK_ID).sum())
            is_keep = mb.input_ids[sel] == originals[sel]
            n_keep += int(is_keep.sum())
            n_rand += int((~is_keep & (mb.input_ids[sel] != MASK_ID)).sum())
        assert n_elig >= 100_000
        assert abs(n_sel / n_elig - 0.15) < 0.01
        assert abs(n_mask / n_sel - 0.8) < 0.02
        assert abs(n_rand / n_sel - 0.1) < 0.02
        assert abs(n_keep / n_sel - 0.1) < 0.02

    def test_tiny_vocab_rejected(self):
        rng = np.random.default_rng(0)
        specials_only = Vocab.from_tokens(
            ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        )
        with pytest.raises(InvalidConfig):
            mask_batch(some_inputs(rng, n=1), specials_only,
                       MaskingConfig(), rng)


class TestWindowing:
    def test_short_document_single_window(self):
        windows = window_corpus(["w0 w1 w2"], VOCAB, max_seq_len=16)
        assert len(windows) == 1
        assert windows[0].real_len == 5

    def test_long_document_non_overlapping(self):
        doc = " ".join(f"w{i % 20}" for i in range(25))
        windows = window_corpus([doc], VOCAB, max_seq_len=12)  # body 10
        assert len(windows) == 3
        rebuilt = []
        for w in windows:
            rebuilt.extend(
                t for t in w.ids[: w.real_len].tolist()
                if t not in (CLS_ID, SEP_ID, PAD_ID)
            )
        assert len(rebuilt) == 25

    def test_empty_documents_skipped(self):
        assert window_corpus(["", "   "], VOCAB, max_seq_len=8) == []


CFG = ModelConfig(vocab_size=len(VOCAB), hidden_dim=16, num_layers=1,
                  num_heads=2, ffn_dim=32, max_seq_len=16, dropout_rate=0.0)


def _repetitive_corpus(n=200):
    rng = np.random.default_rng(7)
    docs = []
    for _ in range(n):
        words = [f"w{rng.integers(0, 6)}" for _ in range(8)]
        docs.append(" ".join(words))
    return docs


class TestRunPretraining:
    def test_initial_loss_near_log_vocab(self):
        rng = np.random.default_rng(0)
        params = init_params(CFG, seed=0, dtype=np.float64)
        windows = window_corpus(_repetitive_corpus(40), VOCAB, CFG.max_seq_len)
        mb = mask_batch(windows, VOCAB, MaskingConfig(), rng)
        ids, mask, targets = trim_batch(mb.input_ids, mb.targets)
        hidden = encoder_forward(ids, mask, params, CFG)
        loss = ce_loss(forward_mlm(hidden, params), targets)
        assert abs(loss - math.log(CFG.vocab_size)) < 0.15 * math.log(CFG.vocab_size)

    def test_loss_decreases_over_first_epochs(self):
        params = init_params(CFG, seed=0, dtype=np.float64)
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=8, seed=0)
        _, trace = run_pretraining(
            _repetitive_corpus(), VOCAB, params, CFG, tc, MaskingConfig()
        )
        assert len(trace) == 3
        assert trace[0] > trace[1] > trace[2]

    def test_trace_reproducible_for_same_seed(self):
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=11)
        corpus = _repetitive_corpus(60)
        _, t1 = run_pretraining(
            corpus, VOCAB, init_params(CFG, seed=1, dtype=np.float64),
            CFG, tc, MaskingConfig(),
        )
        _, t2 = run_pretraining(
            corpus, VOCAB, init_params(CFG, seed=1, dtype=np.float64),
            CFG, tc, MaskingConfig(),
        )
        assert t1 == t2

    def test_masks_resampled_between_epochs(self):
        rng = np.random.default_rng(5)
        inputs = some_inputs(rng, n=30, body=40, max_seq_len=48)
        mb1 = mask_batch(inputs, VOCAB, MaskingConfig(), rng)
        mb2 = mask_batch(inputs, VOCAB, MaskingConfig(), rng)
        sel1, sel2 = (mb.targets != IGNORE_INDEX for mb in (mb1, mb2))
        assert sel1.sum() > 0
        assert not np.array_equal(sel1, sel2)

    def test_ignored_positions_contribute_nothing(self):
        rng = np.random.default_rng(6)
        inputs = some_inputs(rng, n=2)
        mb = mask_batch(inputs, VOCAB, MaskingConfig(mask_rate=0.4), rng)
        ids, mask, targets = trim_batch(mb.input_ids, mb.targets)
        assert np.any(targets != IGNORE_INDEX)
        params = init_params(CFG, seed=2, dtype=np.float64)
        hidden = encoder_forward(ids, mask, params, CFG)
        logits = forward_mlm(hidden, params)
        loss = ce_loss(logits, targets)
        # wrecking the predictions at IGNORE positions changes nothing
        wrecked = logits.copy()
        wrecked[targets == IGNORE_INDEX] = 1e6
        assert ce_loss(wrecked, targets) == loss

    def test_matches_the_inline_epoch_loop_bit_for_bit(self):
        # float32 with dropout, and a mask rate low enough that some batches
        # select nothing and are skipped
        cfg = dataclasses.replace(CFG, dropout_rate=0.1)
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=2, seed=4)
        mc = MaskingConfig(mask_rate=0.05)
        corpus = _repetitive_corpus(40)
        params, trace = run_pretraining(
            corpus, VOCAB, init_params(cfg, seed=2), cfg, tc, mc)
        want, want_trace, skipped = _reference_pretraining(
            corpus, VOCAB, init_params(cfg, seed=2), cfg, tc, mc)
        assert skipped > 0
        assert trace == want_trace
        assert params.flat.dtype == np.float32
        np.testing.assert_array_equal(params.flat.view(np.uint32),
                                      want.flat.view(np.uint32))

    def test_empty_epoch_message(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(EmptyBatch) as caught:
            run_pretraining(_repetitive_corpus(8), VOCAB, params, CFG,
                            TrainConfig(), MaskingConfig(mask_rate=0.0))
        assert str(caught.value) == (
            "pretraining epoch 1: no batch selected a position to predict "
            "(mask_rate 0.0)")

    def test_empty_corpus_rejected(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(InvalidInput):
            run_pretraining([], VOCAB, params, CFG, TrainConfig(),
                            MaskingConfig())


def _reference_pretraining(corpus_docs, vocab, params, config, tc, mc):
    """run_pretraining's epoch loop written inline, as it was before the
    loop was shared with fine-tuning; also counts the skipped batches."""
    windows = window_corpus(corpus_docs, vocab, config.max_seq_len)
    rng = np.random.default_rng(tc.seed)
    state = OptimizerState.for_params(params)
    trace, skipped = [], 0
    for _ in range(tc.epochs):
        order = rng.permutation(len(windows))
        losses = []
        for start in range(0, len(windows), tc.batch_size):
            chunk = [windows[i] for i in order[start : start + tc.batch_size]]
            mb = mask_batch(chunk, vocab, mc, rng)
            if np.all(mb.targets == IGNORE_INDEX):
                skipped += 1
                continue
            loss, grads = compute_gradients(
                trim_batch(mb.input_ids, mb.targets),
                params, config, "mlm", rng=rng,
            )
            adam_step(params, grads, state, tc)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
    return params, trace, skipped


def test_load_corpus_dir(tmp_path):
    (tmp_path / "a.txt").write_text("first doc", encoding="utf-8")
    (tmp_path / "b.txt").write_text("second doc", encoding="utf-8")
    assert load_corpus_dir(tmp_path) == ["first doc", "second doc"]
    with pytest.raises(InvalidInput):
        load_corpus_dir(tmp_path / "missing")
