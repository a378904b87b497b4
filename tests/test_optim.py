import tracemalloc

import numpy as np
import pytest

from esglm.errors import EmptyBatch, NumericError, ShapeError
from esglm.model import ModelConfig, ParameterSet, TrainConfig, init_params
from esglm.optim import OptimizerState, adam_step, run_epochs

CFG = ModelConfig(vocab_size=12, hidden_dim=4, num_layers=1, num_heads=2,
                  ffn_dim=8, max_seq_len=8, dropout_rate=0.0)


def scalar_setup(theta=1.0):
    params = ParameterSet({"tok_emb": np.array([[theta]], dtype=np.float64)})
    state = OptimizerState.for_params(params)
    return params, state


def test_zero_gradient_leaves_params_unchanged():
    params = init_params(CFG, seed=0, dtype=np.float64)
    before = ParameterSet(params.tensors)
    state = OptimizerState.for_params(params)
    adam_step(params, params.zeros_like(), state, TrainConfig())
    for name in params.tensors:
        np.testing.assert_array_equal(params[name], before[name])
    assert state.t == 1


def test_hand_computed_first_step():
    # theta=1, g=1, lr=0.1: m=0.1, v=0.001, m_hat=1, v_hat=1,
    # theta -> 1 - 0.1/(1 + 1e-8)
    params, state = scalar_setup(theta=1.0)
    tc = TrainConfig(learning_rate=0.1)
    adam_step(params, ParameterSet({"tok_emb": np.array([[1.0]])}), state, tc)
    assert state.t == 1
    np.testing.assert_allclose(state.m["tok_emb"], [[0.1]], atol=1e-15)
    np.testing.assert_allclose(state.v["tok_emb"], [[0.001]], rtol=1e-12)
    np.testing.assert_allclose(
        params["tok_emb"], [[1.0 - 0.1 / (1.0 + 1e-8)]], atol=1e-12
    )


def test_bias_correction_changes_second_step():
    params, state = scalar_setup(theta=1.0)
    tc = TrainConfig(learning_rate=0.1)
    g = ParameterSet({"tok_emb": np.array([[1.0]])})
    adam_step(params, g, state, tc)
    after_first = float(params["tok_emb"][0, 0])
    step1 = 1.0 - after_first
    adam_step(params, g, state, tc)
    step2 = after_first - float(params["tok_emb"][0, 0])

    # oracle: run the recurrence by hand
    m = v = 0.0
    theta = 1.0
    expected_steps = []
    for t in (1, 2):
        m = 0.9 * m + 0.1 * 1.0
        v = 0.999 * v + 0.001 * 1.0
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        upd = 0.1 * mh / (np.sqrt(vh) + 1e-8)
        expected_steps.append(upd)
        theta -= upd
    assert step1 == pytest.approx(expected_steps[0], rel=1e-12)
    assert step2 == pytest.approx(expected_steps[1], rel=1e-12)
    assert step1 != step2


def test_moments_stay_nonnegative_and_shapes_mirror():
    params = init_params(CFG, seed=1, dtype=np.float64)
    state = OptimizerState.for_params(params)
    rng = np.random.default_rng(0)
    for _ in range(5):
        grads = ParameterSet(
            {k: rng.normal(size=v.shape) for k, v in params.tensors.items()})
        adam_step(params, grads, state, TrainConfig(learning_rate=1e-3))
    for name in params.tensors:
        assert state.v[name].shape == params[name].shape
        assert np.all(state.v[name] >= 0.0)
    assert state.t == 5


def test_nonfinite_update_raises():
    params, state = scalar_setup()
    with pytest.raises(NumericError, match="parameter tok_emb$"):
        adam_step(params, ParameterSet({"tok_emb": np.array([[np.inf]])}), state,
                  TrainConfig(learning_rate=0.1))


def _reference_adam_step(params, grads, state, tc):
    """The per-tensor Adam loop that the flat-buffer step replaced."""
    if set(grads.tensors) != set(params.tensors):
        raise ShapeError("gradient names do not mirror parameters")
    state.t += 1
    b1, b2 = tc.adam_beta1, tc.adam_beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, theta in params.tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeError(f"gradient shape mismatch for {name}")
        m = state.m[name]
        v = state.v[name]
        with np.errstate(invalid="ignore"):  # finiteness is checked below
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            update = tc.learning_rate * (m / bc1) / (
                np.sqrt(v / bc2) + tc.adam_epsilon
            )
            theta -= update
        if not np.all(np.isfinite(theta)):
            raise NumericError(f"non-finite update for parameter {name}")
    return params, state


def mixed_gradients(params, rng):
    """float32 gradients whose entries span eleven orders of magnitude."""
    return ParameterSet({
        k: (rng.normal(size=v.shape) * 10.0 ** rng.uniform(-8, 3, size=v.shape))
        .astype(np.float32)
        for k, v in params.tensors.items()
    })


def bits(a):
    return a.view(np.uint32)


def test_flat_step_matches_the_per_tensor_loop_bit_for_bit():
    params = init_params(CFG, seed=3)  # float32, as in training
    ref = ParameterSet(params.tensors)
    state = OptimizerState.for_params(params)
    ref_state = OptimizerState.for_params(ref)
    tc = TrainConfig(learning_rate=1e-3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        grads = mixed_gradients(params, rng)
        adam_step(params, grads, state, tc)
        _reference_adam_step(ref, grads, ref_state, tc)
        np.testing.assert_array_equal(bits(params.flat), bits(ref.flat))
        np.testing.assert_array_equal(bits(state.m.flat), bits(ref_state.m.flat))
        np.testing.assert_array_equal(bits(state.v.flat), bits(ref_state.v.flat))
    assert state.t == ref_state.t == 20


def test_failed_step_changes_nothing():
    params = init_params(CFG, seed=4)
    state = OptimizerState.for_params(params)
    tc = TrainConfig(learning_rate=1e-3)
    rng = np.random.default_rng(8)
    for _ in range(2):  # nonzero moments, t > 0
        adam_step(params, mixed_gradients(params, rng), state, tc)
    before = (params.flat.copy(), state.m.flat.copy(), state.v.flat.copy())
    grads = mixed_gradients(params, rng)
    last = list(params.tensors)[-1]
    grads[last] = np.full(params[last].shape, np.inf)
    with pytest.raises(NumericError, match=f"parameter {last}$"):
        adam_step(params, grads, state, tc)
    for got, want in zip((params.flat, state.m.flat, state.v.flat), before):
        np.testing.assert_array_equal(bits(got), bits(want))
    assert state.t == 2


def test_mismatched_gradient_layout_raises():
    params, state = scalar_setup()
    with pytest.raises(ShapeError):
        adam_step(params, ParameterSet({"tok_emb": np.ones((1, 2))}), state,
                  TrainConfig())
    assert state.t == 0


class TestParameterSet:
    def test_tensors_are_views_of_flat_in_order(self):
        params = init_params(CFG, seed=0)
        start = 0
        for name in params.tensors:
            size = params[name].size
            np.testing.assert_array_equal(
                params[name].ravel(), params.flat[start : start + size])
            assert np.shares_memory(params[name], params.flat)
            start += size
        assert start == params.flat.size

    def test_assignment_writes_into_flat(self):
        params = init_params(CFG, seed=0)
        view = params["cls.b"]
        params["cls.b"] = np.array([3.0, -4.0])
        assert params["cls.b"] is view
        np.testing.assert_array_equal(params.flat[-2:], [3.0, -4.0])

    def test_wrongly_shaped_assignment_raises(self):
        params = init_params(CFG, seed=0)
        before = params.flat.copy()
        with pytest.raises(ShapeError):
            params["cls.b"] = np.zeros(3)
        with pytest.raises(ShapeError):
            params["cls.w"] = np.zeros(2)  # would broadcast
        np.testing.assert_array_equal(params.flat, before)

    def test_copy_and_zeros_like_share_no_memory(self):
        params = init_params(CFG, seed=0)
        for other in (ParameterSet(params.tensors), params.zeros_like()):
            assert list(other.tensors) == list(params.tensors)
            assert not np.shares_memory(other.flat, params.flat)
            for name in params.tensors:
                assert other[name].shape == params[name].shape
                assert np.shares_memory(other[name], other.flat)
        np.testing.assert_array_equal(ParameterSet(params.tensors).flat, params.flat)
        assert not params.zeros_like().flat.any()


def test_step_after_the_first_allocates_under_one_buffer():
    # ~25,000 parameters, so fixed per-call costs do not dominate
    params = init_params(ModelConfig(vocab_size=200, hidden_dim=32, num_layers=2,
                                     num_heads=2, ffn_dim=64, max_seq_len=128),
                         seed=5)
    state = OptimizerState.for_params(params)
    tc = TrainConfig(learning_rate=1e-3)
    grads = mixed_gradients(params, np.random.default_rng(9))
    adam_step(params, grads, state, tc)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adam_step(params, grads, state, tc)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= params.flat.nbytes, peak / params.flat.nbytes


def test_work_buffers_belong_to_one_state_and_stay_out_of_repr():
    params = init_params(CFG, seed=0)
    a = OptimizerState.for_params(params)
    b = OptimizerState.for_params(params)
    assert not any(np.shares_memory(x, y) for x in a.work for y in b.work)
    assert "work" not in repr(a)


class TestRunEpochs:
    def test_batches_slice_a_fresh_permutation_each_epoch(self):
        tc = TrainConfig(epochs=2, batch_size=3, seed=5)
        seen = []

        def step(take, rng, state):
            seen.append(take.tolist())
            return float(len(take))

        trace = run_epochs(7, init_params(CFG, seed=0), tc, step)
        rng = np.random.default_rng(5)
        want = []
        for _ in range(2):
            order = rng.permutation(7).tolist()
            want += [order[0:3], order[3:6], order[6:7]]
        assert seen == want
        assert trace == [7.0 / 3.0, 7.0 / 3.0]

    def test_skipped_steps_leave_the_mean_to_the_others(self):
        def step(take, rng, state):
            return None if 0 in take else 1.0

        tc = TrainConfig(epochs=3, batch_size=1)
        assert run_epochs(4, init_params(CFG, seed=0), tc, step) == [1.0] * 3

    def test_an_epoch_without_a_step_raises_the_given_message(self):
        params = init_params(CFG, seed=0)
        tc = TrainConfig(epochs=2, batch_size=2)
        with pytest.raises(EmptyBatch, match=r"^epoch 1: no step ran$"):
            run_epochs(4, params, tc, lambda take, rng, state: None)
        with pytest.raises(EmptyBatch, match=r"^stage epoch 1 \(rate 0\.0\)$"):
            run_epochs(4, params, tc, lambda take, rng, state: None,
                       "stage epoch {epoch} (rate 0.0)")
