import math
import tracemalloc

import numpy as np
import pytest

from esglm.errors import EmptyBatch, InvalidConfig, NumericError, ShapeError
from esglm.model import (
    IGNORE_INDEX,
    ModelConfig,
    batch_arrays,
    compute_gradients,
    cross_entropy,
    encoder_backward,
    encoder_forward,
    forward_classify,
    forward_mlm,
    gelu,
    gelu_grad,
    init_params,
    parameter_shapes,
    trim_batch,
)
from esglm import model
from esglm.model import (
    _GELU_A,
    _GELU_C,
    _dropout,
    _layernorm,
    _layernorm_backward,
    _merge_heads,
    _split_heads,
)
from esglm.tokenizer import prepare_input

TINY = ModelConfig(
    vocab_size=16, hidden_dim=8, num_layers=1, num_heads=2,
    ffn_dim=16, max_seq_len=12, dropout_rate=0.0,
)


def tiny_params(seed=0, dtype=np.float64):
    return init_params(TINY, seed=seed, dtype=dtype)


def encode_one(enc, params):
    return encoder_forward(enc.ids[None], enc.attention_mask[None], params, TINY)[0]


def random_batch(rng, config, batch_size=2, body_lens=(5, 8)):
    inputs = [
        prepare_input(
            rng.integers(5, config.vocab_size, size=n).tolist(),
            max_seq_len=config.max_seq_len,
        )
        for n in body_lens[:batch_size]
    ]
    return batch_arrays(inputs)


class TestConfigValidation:
    def test_heads_must_divide_dim(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(vocab_size=10, hidden_dim=10, num_layers=1,
                        num_heads=3, ffn_dim=8)

    def test_counts_positive(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(vocab_size=0, hidden_dim=8, num_layers=1,
                        num_heads=2, ffn_dim=8)

    def test_dropout_range(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(vocab_size=10, hidden_dim=8, num_layers=1,
                        num_heads=2, ffn_dim=8, dropout_rate=1.0)


class TestInit:
    def test_shapes_match_config(self):
        params = tiny_params()
        assert params.names() == list(parameter_shapes(TINY))
        for name, shape in parameter_shapes(TINY).items():
            assert params[name].shape == shape

    def test_weights_truncated_at_two_std(self):
        params = init_params(
            ModelConfig(vocab_size=500, hidden_dim=64, num_layers=2,
                        num_heads=4, ffn_dim=128),
            seed=3,
        )
        w = params["tok_emb"]
        assert np.abs(w).max() <= 2 * 0.02 + 1e-9
        assert abs(float(w.std()) - 0.02) < 0.005

    def test_gains_one_biases_zero(self):
        params = tiny_params()
        assert np.all(params["layers.0.ln1.gain"] == 1.0)
        assert np.all(params["layers.0.attn.bq"] == 0.0)
        assert np.all(params["mlm_bias"] == 0.0)


class TestForwardEncoder:
    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        params = tiny_params()
        ids, mask = random_batch(rng, TINY)
        _, cache = encoder_forward(ids, mask, params, TINY, want_cache=True)
        probs = cache["layers"][0]["probs"]
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_pad_keys_get_no_probability(self):
        rng = np.random.default_rng(0)
        params = tiny_params()
        ids, mask = random_batch(rng, TINY)
        _, cache = encoder_forward(ids, mask, params, TINY, want_cache=True)
        probs = cache["layers"][0]["probs"]
        pad_keys = mask[:, None, None, :] == 0
        assert probs[np.broadcast_to(pad_keys, probs.shape)].max() < 1e-12

    def test_padding_length_invisible_to_real_positions(self):
        params = tiny_params()
        body = [7, 9, 11]
        short = prepare_input(body, max_seq_len=8)
        long = prepare_input(body, max_seq_len=12)
        h_short = encode_one(short, params)
        h_long = encode_one(long, params)
        np.testing.assert_allclose(
            h_short[: short.real_len], h_long[: short.real_len],
            rtol=0, atol=1e-12,
        )

    def test_zero_attention_weights_give_uniform_probs(self):
        params = tiny_params()
        for m in ("wq", "wk"):
            params[f"layers.0.attn.{m}"][:] = 0.0
        enc = prepare_input([6, 7, 8], max_seq_len=10)
        _, cache = encoder_forward(
            enc.ids[None], enc.attention_mask[None], params, TINY,
            want_cache=True,
        )
        probs = cache["layers"][0]["probs"][0]  # (heads, query, key)
        n_real = enc.real_len
        expect = np.zeros(10)
        expect[:n_real] = 1.0 / n_real
        np.testing.assert_allclose(
            probs, np.broadcast_to(expect, probs.shape), atol=1e-7
        )

    def test_eval_mode_bit_deterministic(self):
        params = tiny_params()
        enc = prepare_input([5, 6, 7, 8], max_seq_len=12)
        a = encode_one(enc, params)
        b = encode_one(enc, params)
        assert np.array_equal(a, b)

    def test_rng_without_dropout_draws_nothing(self):
        params = tiny_params()  # TINY has dropout_rate 0
        ids, mask = random_batch(np.random.default_rng(3), TINY)
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        h = encoder_forward(ids, mask, params, TINY, rng=rng)
        assert rng.bit_generator.state == before
        np.testing.assert_array_equal(h, encoder_forward(ids, mask, params, TINY))

    def test_dropout_follows_the_rng(self):
        cfg = ModelConfig(vocab_size=16, hidden_dim=8, num_layers=1,
                          num_heads=2, ffn_dim=16, max_seq_len=12,
                          dropout_rate=0.3)
        params = init_params(cfg, seed=1)
        ids, mask = random_batch(np.random.default_rng(3), cfg)
        h, cache = encoder_forward(ids, mask, params, cfg, want_cache=True)
        assert cache["drop"] == {}
        np.testing.assert_array_equal(h, encoder_forward(ids, mask, params, cfg))
        h_train, cache = encoder_forward(ids, mask, params, cfg,
                                         rng=np.random.default_rng(0),
                                         want_cache=True)
        assert sorted(cache["drop"]) == ["attn0", "emb", "ffn0"]
        assert not np.array_equal(h, h_train)

    def test_layernorm_normalizes_before_gain(self):
        rng = np.random.default_rng(1)
        params = tiny_params()
        ids, mask = random_batch(rng, TINY)
        _, cache = encoder_forward(ids, mask, params, TINY, want_cache=True)
        for lc in cache["layers"]:
            for key in ("ln1", "ln2"):
                y, _ = lc[key]
                assert np.abs(y.mean(axis=-1)).max() < 1e-5
                assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-3

    def test_rejects_overlong_sequence(self):
        params = tiny_params()
        ids = np.zeros((1, TINY.max_seq_len + 1), dtype=np.int64)
        with pytest.raises(ShapeError):
            encoder_forward(ids, np.ones_like(ids), params, TINY)

    def test_rejects_nonfinite_params(self):
        params = tiny_params()
        params["pooler.w"][0, 0] = np.nan
        enc = prepare_input([5], max_seq_len=8)
        batch = (enc.ids[None], enc.attention_mask[None], np.array([1]))
        with pytest.raises(NumericError):
            compute_gradients(batch, params, TINY, "classify")


class TestGelu:
    @staticmethod
    def recomputed_grad(x):
        # the derivative as written before gelu_grad took the forward tanh
        t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (
            1.0 + 3.0 * _GELU_A * x**2
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grad_from_forward_tanh_is_bit_identical(self, dtype):
        rng = np.random.default_rng(5)
        x = (rng.normal(size=(8, 32, 64)) * 3.0).astype(dtype)
        x.flat[:4] = [0.0, -0.0, 40.0, -40.0]
        a, t = gelu(x, with_tanh=True)
        assert a.dtype == t.dtype == dtype
        assert gelu(x).tobytes() == a.tobytes()
        grad = gelu_grad(x, t)
        assert grad.dtype == dtype
        assert grad.tobytes() == self.recomputed_grad(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tanh_term_is_odd(self, dtype):
        # only IEEE multiply, add and tanh: no power routine whose rounding
        # depends on the sign of x or on the CPU's SIMD dispatch
        rng = np.random.default_rng(5)
        x = (rng.normal(size=(8, 32, 64)) * 3.0).astype(dtype)
        t = gelu(x, with_tanh=True)[1]
        assert gelu(-x, with_tanh=True)[1].tobytes() == (-t).tobytes()
        x64 = x.astype(np.float64)
        reference = np.tanh(_GELU_C * (x64 + _GELU_A * x64**3))
        assert np.max(np.abs(t - reference)) <= 2e-7

    def test_plain_call_returns_only_the_activation(self):
        x = np.linspace(-3.0, 3.0, 7, dtype=np.float32)
        out = gelu(x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape


class TestHeads:
    def test_mlm_logit_shape(self):
        params = tiny_params()
        enc = prepare_input([5, 6], max_seq_len=12)
        logits = forward_mlm(encode_one(enc, params), params)
        assert logits.shape == (12, TINY.vocab_size)

    def test_mlm_projection_is_tied_linear_map(self):
        params = tiny_params()
        hidden = np.random.default_rng(2).normal(size=(4, TINY.hidden_dim))
        base = forward_mlm(hidden, params)
        doubled = forward_mlm(2.0 * hidden, params)
        np.testing.assert_allclose(
            doubled - params["mlm_bias"], 2.0 * (base - params["mlm_bias"]),
            atol=1e-12,
        )

    def test_mlm_logits_are_embedding_dot_products(self):
        cfg = ModelConfig(vocab_size=6, hidden_dim=2, num_layers=1,
                          num_heads=1, ffn_dim=4, max_seq_len=4,
                          dropout_rate=0.0)
        params = init_params(cfg, dtype=np.float64)
        params["tok_emb"][:] = 0.0
        params["tok_emb"][5] = [1.0, 0.0]
        params["tok_emb"][4] = [0.0, 1.0]
        hidden = np.array([[0.25, -0.5], [2.0, 3.0]])
        logits = forward_mlm(hidden, params)
        np.testing.assert_allclose(logits[:, 5], hidden[:, 0])
        np.testing.assert_allclose(logits[:, 4], hidden[:, 1])

    def test_classify_zero_weights_zero_logits(self):
        params = tiny_params()
        params["pooler.w"][:] = 0.0
        params["pooler.b"][:] = 0.0
        params["cls.w"][:] = 0.0
        params["cls.b"][:] = 0.0
        enc = prepare_input([5, 6, 7], max_seq_len=12)
        logits = forward_classify(encode_one(enc, params), params)
        np.testing.assert_array_equal(logits, [0.0, 0.0])

    def test_classify_sees_only_cls_position(self):
        params = tiny_params()
        rng = np.random.default_rng(4)
        hidden = rng.normal(size=(3, 12, TINY.hidden_dim))
        logits = forward_classify(hidden, params)
        hidden2 = hidden.copy()
        hidden2[:, 1:, :] = rng.normal(size=(3, 11, TINY.hidden_dim))
        np.testing.assert_array_equal(logits, forward_classify(hidden2, params))

    def test_classify_one_dim_toy(self):
        cfg = ModelConfig(vocab_size=6, hidden_dim=1, num_layers=1,
                          num_heads=1, ffn_dim=2, max_seq_len=4,
                          dropout_rate=0.0)
        params = init_params(cfg, dtype=np.float64)
        params["pooler.w"][:] = 1.0
        params["pooler.b"][:] = 0.0
        params["cls.w"][:] = np.array([[1.0, -1.0]])
        params["cls.b"][:] = 0.0
        hidden = np.array([[0.5], [9.9], [9.9]])
        logits = forward_classify(hidden, params)
        t = math.tanh(0.5)
        np.testing.assert_allclose(logits, [t, -t], atol=1e-12)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        assert cross_entropy(np.array([[0.0, 0.0]]), np.array([0])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_huge_logits_no_overflow(self):
        loss = cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert math.isfinite(loss)

    def test_ignored_positions_excluded(self):
        logits = np.array([[2.0, 1.0], [0.0, 1.0]])
        targets = np.array([0, IGNORE_INDEX])
        expect = -math.log(math.exp(2) / (math.exp(2) + math.exp(1)))
        assert cross_entropy(logits, targets) == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(0.313262, abs=1e-6)

    def test_all_ignored_raises(self):
        with pytest.raises(EmptyBatch):
            cross_entropy(np.zeros((2, 3)), np.full(2, IGNORE_INDEX))


def _flat_loss(params, config, batch, objective):
    ids, mask, targets = batch
    hidden = encoder_forward(ids, mask, params, config)
    if objective == "mlm":
        return cross_entropy(forward_mlm(hidden, params), targets)
    return cross_entropy(forward_classify(hidden, params), targets)


def spread_params(config, seed, dtype=np.float64):
    """Random parameters at a scale where no gradient coordinate degenerates.

    At the training init (std 0.02) attention is near-uniform and some
    wq/wk gradients sit at ~1e-10, below what step-1e-4 central differences
    can resolve in float64; drawing weights at std 0.2 keeps every sampled
    coordinate well-conditioned without changing what is being verified.
    """
    rng = np.random.default_rng(seed)
    params = init_params(config, seed=seed, dtype=dtype)
    for name in params.names():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            t = 1.0 + 0.1 * rng.normal(size=params[name].shape)
        elif leaf.startswith("b") or leaf == "bias" or name == "mlm_bias":
            t = 0.05 * rng.normal(size=params[name].shape)
        else:
            t = 0.2 * rng.normal(size=params[name].shape)
        params[name] = t.astype(dtype)
    return params


def finite_difference_check(config, batch, objective, n_coords=100,
                            step=1e-4, seed=0):
    """Central finite differences against compute_gradients, float64.

    Relative error uses max(|numeric|, |analytic|, 1e-6) as denominator;
    the floor is the honest resolution limit of the difference oracle.
    """
    params = spread_params(config, seed)
    _, grads = compute_gradients(batch, params, config, objective)
    rng = np.random.default_rng(seed + 1)
    names = params.names()
    max_rel = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        flat_idx = int(rng.integers(params[name].size))
        idx = np.unravel_index(flat_idx, params[name].shape)
        orig = params[name][idx]
        params[name][idx] = orig + step
        up = _flat_loss(params, config, batch, objective)
        params[name][idx] = orig - step
        down = _flat_loss(params, config, batch, objective)
        params[name][idx] = orig
        numeric = (up - down) / (2 * step)
        analytic = grads[name][idx]
        denom = max(abs(numeric), abs(analytic), 1e-6)
        max_rel = max(max_rel, abs(numeric - analytic) / denom)
    return max_rel


class TestGradients:
    def test_gradient_shapes_mirror_params(self):
        rng = np.random.default_rng(0)
        params = tiny_params()
        ids, mask = random_batch(rng, TINY)
        targets = np.full(ids.shape, IGNORE_INDEX)
        targets[0, 2] = 7
        _, grads = compute_gradients((ids, mask, targets), params, TINY, "mlm")
        assert set(grads) == set(params.tensors)
        for name in grads:
            assert grads[name].shape == params[name].shape

    def test_mlm_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        ids, mask = random_batch(rng, TINY)
        targets = np.where(
            (mask == 1) & (rng.random(ids.shape) < 0.4),
            rng.integers(5, TINY.vocab_size, size=ids.shape),
            IGNORE_INDEX,
        )
        targets[:, 0] = IGNORE_INDEX
        assert (targets != IGNORE_INDEX).sum() > 0
        rel = finite_difference_check(TINY, (ids, mask, targets), "mlm")
        assert rel < 1e-4

    def test_classify_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        ids, mask = random_batch(rng, TINY)
        labels = np.array([0, 1])
        rel = finite_difference_check(TINY, (ids, mask, labels), "classify")
        assert rel < 1e-4

    def test_mlm_targets_must_match_ids(self):
        rng = np.random.default_rng(9)
        ids, mask = random_batch(rng, TINY)
        targets = np.full((2, TINY.max_seq_len - 1), IGNORE_INDEX)
        targets[0, 2] = 7
        with pytest.raises(ShapeError):
            compute_gradients((ids, mask, targets), tiny_params(), TINY, "mlm")

    def test_classifier_head_untouched_by_mlm(self):
        rng = np.random.default_rng(7)
        params = tiny_params()
        ids, mask = random_batch(rng, TINY)
        targets = np.full(ids.shape, IGNORE_INDEX)
        targets[0, 1] = 6
        _, grads = compute_gradients((ids, mask, targets), params, TINY, "mlm")
        assert np.all(grads["cls.w"] == 0.0)
        assert np.all(grads["pooler.w"] == 0.0)

    def test_pad_position_embeddings_get_zero_gradient(self):
        rng = np.random.default_rng(8)
        params = tiny_params()
        enc = prepare_input([5, 6, 7], max_seq_len=12)  # real_len 5
        ids, mask = batch_arrays([enc])
        targets = np.full(ids.shape, IGNORE_INDEX)
        targets[0, 2] = 9
        _, grads = compute_gradients((ids, mask, targets), params, TINY, "mlm")
        assert np.all(grads["pos_emb"][enc.real_len:] == 0.0)

    def test_dropout_train_gradcheck_with_shared_seed(self):
        cfg = ModelConfig(vocab_size=16, hidden_dim=8, num_layers=1,
                          num_heads=2, ffn_dim=16, max_seq_len=12,
                          dropout_rate=0.3)
        params = init_params(cfg, seed=1, dtype=np.float64)
        enc = prepare_input([5, 6, 7, 8], max_seq_len=12)
        ids, mask = batch_arrays([enc])
        labels = np.array([1])
        loss1, _ = compute_gradients(
            (ids, mask, labels), params, cfg, "classify",
            rng=np.random.default_rng(42),
        )
        loss2, _ = compute_gradients(
            (ids, mask, labels), params, cfg, "classify",
            rng=np.random.default_rng(42),
        )
        assert loss1 == loss2


def mlm_targets(rng, ids, mask, rate=0.4):
    targets = np.where(
        (mask == 1) & (rng.random(ids.shape) < rate),
        rng.integers(5, TINY.vocab_size, size=ids.shape),
        IGNORE_INDEX,
    )
    targets[:, 0] = IGNORE_INDEX
    targets[0, 1] = ids[0, 1]
    return targets


def assert_same_gradients(got, want):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-10,
                                   atol=1e-14, err_msg=name)


class TestGatheredMlmHead:
    def test_loss_and_gradients_equal_the_full_head(self):
        rng = np.random.default_rng(12)
        params = spread_params(TINY, 3)
        ids, mask = random_batch(rng, TINY)
        targets = mlm_targets(rng, ids, mask)
        loss, grads = compute_gradients((ids, mask, targets), params, TINY, "mlm")

        # reference: vocabulary logits at every position, ignored rows zeroed
        hidden, cache = encoder_forward(ids, mask, params, TINY, want_cache=True)
        logits = hidden @ params["tok_emb"].T + params["mlm_bias"]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        b, s = np.nonzero(targets != IGNORE_INDEX)
        n = len(b)
        dlogits = np.exp(logp)
        dlogits[b, s, targets[b, s]] -= 1.0
        dlogits[targets == IGNORE_INDEX] = 0.0
        dlogits /= n
        want = params.zeros_like()
        want["tok_emb"] += np.tensordot(dlogits, hidden, axes=([0, 1], [0, 1]))
        want["mlm_bias"] += dlogits.sum(axis=(0, 1))
        encoder_backward(dlogits @ params["tok_emb"], cache, params, TINY, want)

        assert loss == pytest.approx(-logp[b, s, targets[b, s]].sum() / n,
                                     rel=1e-12)
        assert_same_gradients(grads, want)


class TestTrimBatch:
    def test_cuts_after_the_last_real_column_and_keeps_interior_pad(self):
        ids = np.array([[2, 5, 0, 6, 3, 0, 0],
                        [2, 7, 3, 0, 0, 0, 0]])
        mask = (ids != 0).astype(np.int64)
        targets = np.where(ids == 6, 6, IGNORE_INDEX)
        got = trim_batch(ids, mask, targets)
        for cut, full in zip(got, (ids, mask, targets)):
            np.testing.assert_array_equal(cut, full[:, :5])

    def test_keeps_one_column_when_nothing_is_real(self):
        ids = np.zeros((2, 4), dtype=np.int64)
        assert [x.shape for x in trim_batch(ids, ids)] == [(2, 1), (2, 1)]

    @pytest.mark.parametrize("objective", ["mlm", "classify"])
    def test_trimmed_batch_matches_full_width(self, objective):
        rng = np.random.default_rng(13)
        params = spread_params(TINY, 4)
        ids, mask = random_batch(rng, TINY, body_lens=(3, 6))
        if objective == "mlm":
            targets = mlm_targets(rng, ids, mask)
            trimmed = trim_batch(ids, mask, targets)
        else:
            targets = np.array([1, 0])
            trimmed = (*trim_batch(ids, mask), targets)
        assert trimmed[0].shape == (2, 8) and ids.shape == (2, TINY.max_seq_len)

        loss, grads = compute_gradients(trimmed, params, TINY, objective)
        want_loss, want = compute_gradients(
            (ids, mask, targets), params, TINY, objective)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert_same_gradients(grads, want)


def _reference_forward(ids, attention_mask, params, config, rng=None,
                       want_cache=False):
    """encoder_forward with the attention written out of place.

    Scores come from np.where, the softmax makes three temporaries and
    every layer's arrays are cached: the expressions the in-place forward
    replaced, kept to pin its bits.
    """
    drop = config.dropout_rate if rng is not None else 0.0
    cache = {"ids": ids, "mask": attention_mask, "layers": [], "drop": {}}
    key_ok = (attention_mask == 1)[:, None, None, :]
    scale = 1.0 / math.sqrt(config.head_dim)
    h = params["tok_emb"][ids] + params["pos_emb"][: ids.shape[1]][None, :, :]
    h = _dropout(h, drop, rng, cache["drop"], "emb")
    for i in range(config.num_layers):
        p = f"layers.{i}."
        heads = [
            _split_heads(h @ params[p + f"attn.w{m}"] + params[p + f"attn.b{m}"],
                         config.num_heads)
            for m in "qkv"
        ]
        q, k, v = heads
        scores = np.where(key_ok, (q @ k.swapaxes(-1, -2)) * scale, -np.inf)
        e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
        probs = e / np.sum(e, axis=-1, keepdims=True)
        ctx = _merge_heads(probs @ v)
        attn = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        attn = _dropout(attn, drop, rng, cache["drop"], f"attn{i}")
        h1, ln1 = _layernorm(h + attn, params[p + "ln1.gain"], params[p + "ln1.bias"])
        f1 = h1 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        a, t = gelu(f1, with_tanh=True)
        f2 = a @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        f2 = _dropout(f2, drop, rng, cache["drop"], f"ffn{i}")
        x = h
        h, ln2 = _layernorm(h1 + f2, params[p + "ln2.gain"], params[p + "ln2.bias"])
        cache["layers"].append(dict(x=x, q=q, k=k, v=v, probs=probs, ctx=ctx,
                                    ln1=ln1, h1=h1, f1=f1, a=a, t=t, ln2=ln2))
    return (h, cache) if want_cache else h


def _reference_backward(dh, cache, params, config, grads):
    """encoder_backward with dscores built out of place."""
    scale = 1.0 / math.sqrt(config.head_dim)

    def flat(x):
        return x.reshape(-1, x.shape[-1])

    def undrop(dx, key):
        keep = cache["drop"].get(key)
        return dx if keep is None else dx * keep / (1.0 - config.dropout_rate)

    for i in reversed(range(config.num_layers)):
        p = f"layers.{i}."
        lc = cache["layers"][i]
        dres2, dg2, db2 = _layernorm_backward(dh, lc["ln2"], params[p + "ln2.gain"])
        grads[p + "ln2.gain"] += dg2
        grads[p + "ln2.bias"] += db2
        df2 = undrop(dres2, f"ffn{i}")
        grads[p + "ffn.w2"] += flat(lc["a"]).T @ flat(df2)
        grads[p + "ffn.b2"] += df2.sum(axis=(0, 1))
        df1 = (df2 @ params[p + "ffn.w2"].T) * gelu_grad(lc["f1"], lc["t"])
        grads[p + "ffn.w1"] += flat(lc["h1"]).T @ flat(df1)
        grads[p + "ffn.b1"] += df1.sum(axis=(0, 1))
        dh1 = dres2 + df1 @ params[p + "ffn.w1"].T
        dres1, dg1, db1 = _layernorm_backward(dh1, lc["ln1"], params[p + "ln1.gain"])
        grads[p + "ln1.gain"] += dg1
        grads[p + "ln1.bias"] += db1
        dattn = undrop(dres1, f"attn{i}")
        grads[p + "attn.wo"] += flat(lc["ctx"]).T @ flat(dattn)
        grads[p + "attn.bo"] += dattn.sum(axis=(0, 1))
        dctx = _split_heads(dattn @ params[p + "attn.wo"].T, config.num_heads)
        dprobs = dctx @ lc["v"].swapaxes(-1, -2)
        dv = lc["probs"].swapaxes(-1, -2) @ dctx
        # the row sums are the code's; see test_row_sum_from_head_outputs
        rowsum = np.sum(dctx * _split_heads(lc["ctx"], config.num_heads),
                        axis=-1, keepdims=True)
        dscores = lc["probs"] * (dprobs - rowsum)
        dq = (dscores @ lc["k"]) * scale
        dk = (dscores.swapaxes(-1, -2) @ lc["q"]) * scale
        dx = dres1
        for m, dm in (("q", dq), ("k", dk), ("v", dv)):
            dm_m = _merge_heads(dm)
            grads[p + f"attn.w{m}"] += flat(lc["x"]).T @ flat(dm_m)
            grads[p + f"attn.b{m}"] += dm_m.sum(axis=(0, 1))
            dx = dx + dm_m @ params[p + f"attn.w{m}"].T
        dh = dx
    dh = undrop(dh, "emb")
    np.add.at(grads["tok_emb"], cache["ids"].reshape(-1),
              dh.reshape(-1, config.hidden_dim))
    grads["pos_emb"][: cache["ids"].shape[1]] += dh.sum(axis=0)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint32)


DROP = ModelConfig(vocab_size=40, hidden_dim=16, num_layers=2, num_heads=2,
                   ffn_dim=32, max_seq_len=24, dropout_rate=0.1)


class TestInPlaceAttention:
    """The in-place attention keeps every float32 bit of the reference."""

    def batch(self, objective):
        rng = np.random.default_rng(21)
        inputs = [prepare_input(rng.integers(5, DROP.vocab_size, size=n).tolist(),
                                max_seq_len=DROP.max_seq_len) for n in (22, 9, 4)]
        ids, mask = batch_arrays(inputs)
        if objective == "mlm":
            targets = np.where((mask == 1) & (rng.random(ids.shape) < 0.3),
                               ids, IGNORE_INDEX)
            targets[0, 1] = ids[0, 1]
        else:
            targets = np.array([1, 0, 1])
        return ids, mask, targets

    def test_row_sum_from_head_outputs(self):
        """sum_j dprobs_ij probs_ij == dctx_i . ctx_i, PAD keys included."""
        rng = np.random.default_rng(22)
        b, h, s, dh = 3, 2, 10, 4
        key_pad = (rng.random((b, 1, 1, s)) < 0.3)
        key_pad[..., 0] = False
        probs = rng.normal(size=(b, h, s, s)) * 3.0
        np.copyto(probs, -np.inf, where=key_pad)
        model._softmax(probs)
        v = rng.normal(size=(b, h, s, dh))
        dctx = rng.normal(size=(b, h, s, dh))
        ctx = _merge_heads(probs @ v)
        dprobs = dctx @ v.swapaxes(-1, -2)
        np.testing.assert_allclose(
            np.sum(dctx * _split_heads(ctx, h), axis=-1),
            np.sum(dprobs * probs, axis=-1), rtol=0, atol=1e-12)

    def test_forward_matches_the_reference(self):
        params = spread_params(DROP, 5, dtype=np.float32)
        ids, mask, _ = self.batch("mlm")
        h, cache = encoder_forward(ids, mask, params, DROP,
                                   rng=np.random.default_rng(3), want_cache=True)
        want_h, want = _reference_forward(ids, mask, params, DROP,
                                          rng=np.random.default_rng(3),
                                          want_cache=True)
        assert h.dtype == np.float32
        np.testing.assert_array_equal(_bits(h), _bits(want_h))
        for got_lc, want_lc in zip(cache["layers"], want["layers"], strict=True):
            np.testing.assert_array_equal(_bits(got_lc["probs"]),
                                          _bits(want_lc["probs"]))
        np.testing.assert_array_equal(
            _bits(encoder_forward(ids, mask, params, DROP)),
            _bits(_reference_forward(ids, mask, params, DROP)))

    @pytest.mark.parametrize("objective", ["mlm", "classify"])
    def test_gradients_match_the_reference(self, objective, monkeypatch):
        params = spread_params(DROP, 6, dtype=np.float32)
        batch = self.batch(objective)
        loss, grads = compute_gradients(batch, params, DROP, objective,
                                        rng=np.random.default_rng(4))
        monkeypatch.setattr(model, "encoder_forward", _reference_forward)
        monkeypatch.setattr(model, "encoder_backward", _reference_backward)
        want_loss, want = compute_gradients(batch, params, DROP, objective,
                                            rng=np.random.default_rng(4))
        assert loss == want_loss
        assert grads.flat.dtype == np.float32
        for name in want:
            np.testing.assert_array_equal(_bits(grads[name]), _bits(want[name]),
                                          err_msg=name)


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates above what is traced when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


WIDE = ModelConfig(vocab_size=100, hidden_dim=32, num_layers=2, num_heads=2,
                   ffn_dim=64, max_seq_len=512, dropout_rate=0.1)


class TestMemory:
    """Peaks in units of one (B, H, S, S) float32 score array."""

    B = 8
    UNIT = B * WIDE.num_heads * WIDE.max_seq_len**2 * 4

    def batch(self):
        rng = np.random.default_rng(0)
        s = WIDE.max_seq_len
        ids = rng.integers(5, WIDE.vocab_size, size=(self.B, s))
        mask = np.ones_like(ids)
        for row, n in enumerate(rng.integers(16, s, size=self.B - 1), start=1):
            mask[row, n:] = 0  # row 0 stays full width, so nothing trims
        ids[mask == 0] = 0
        targets = np.where((mask == 1) & (rng.random(ids.shape) < 0.15),
                           ids, IGNORE_INDEX)
        return ids, mask, targets

    def test_eval_forward_keeps_no_layer_arrays(self):
        params = init_params(WIDE, seed=0)
        ids, mask, _ = self.batch()
        peak = traced_peak(lambda: encoder_forward(ids, mask, params, WIDE))
        assert peak <= 2.0 * self.UNIT, peak / self.UNIT

    def test_mlm_step_keeps_three_score_arrays(self):
        # at the peak: both layers' cached probs and one dscores buffer
        params = init_params(WIDE, seed=0)
        batch = self.batch()
        peak = traced_peak(lambda: compute_gradients(
            batch, params, WIDE, "mlm", rng=np.random.default_rng(1)))
        assert peak <= 5.0 * self.UNIT, peak / self.UNIT
