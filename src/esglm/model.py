"""Tiny transformer encoder with MLM and classification heads.

Forward passes, the cross-entropy objective, and exact reverse-mode
gradients are implemented directly on numpy arrays.  Everything is pure
given (params, batch, seed); parameter updates live in optim.py.

Parameters are stored float32 by default (checkpoint payloads are 32-bit);
tests that need 64-bit gradient checks build a float64 ParameterSet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, InvalidConfig, NumericError, ShapeError
from .tokenizer import PAD_ID

LN_EPS = 1e-12
IGNORE_INDEX = -100
INIT_STD = 0.02

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# floats in one chunk's (n, H, S, S) score block: 2 MiB, one example at S 512, H 2
_SCORE_BUDGET = 1 << 19


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden_dim: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    max_seq_len: int = 512
    dropout_rate: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "num_layers", "num_heads",
                     "ffn_dim", "max_seq_len"):
            value = getattr(self, name)
            if int(value) < 1:
                raise InvalidConfig(f"{name} must be >= 1, got {value}")
        if self.hidden_dim % self.num_heads != 0:
            raise InvalidConfig(
                f"hidden_dim {self.hidden_dim} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InvalidConfig(f"dropout_rate {self.dropout_rate} not in [0,1)")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    adam_epsilon: float = 1e-8
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    epochs: int = 8
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be > 0")
        if self.adam_epsilon <= 0:
            raise InvalidConfig("adam_epsilon must be > 0")
        for name in ("adam_beta1", "adam_beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise InvalidConfig(f"{name} must be in [0,1), got {b}")
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidConfig("epochs and batch_size must be >= 1")


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map; also the checkpoint tensor order.

    The MLM projection is weight-tied to tok_emb, so only its bias appears.
    """
    d, f = config.hidden_dim, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_seq_len, d),
    }
    for i in range(config.num_layers):
        p = f"layers.{i}."
        for m in ("wq", "wk", "wv", "wo"):
            shapes[p + "attn." + m] = (d, d)
        for m in ("bq", "bk", "bv", "bo"):
            shapes[p + "attn." + m] = (d,)
        for ln in ("ln1", "ln2"):
            shapes[p + ln + ".gain"] = (d,)
            shapes[p + ln + ".bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["mlm_bias"] = (config.vocab_size,)
    shapes["pooler.w"] = (d, d)
    shapes["pooler.b"] = (d,)
    shapes["cls.w"] = (d, 2)
    shapes["cls.b"] = (2,)
    return shapes


class ParameterSet:
    """Named weight tensors: views, in `layout` order, into one flat buffer.

    Zeroing, copying and the Adam update each run once over `flat`.
    Assignment copies into a view; it never rebinds a name.  `offsets` maps
    each name to its first element in `flat`.
    """

    def __init__(self, tensors: dict[str, np.ndarray], flat: np.ndarray | None = None):
        """Copy tensors into a new buffer, or, given flat, view it in their shapes."""
        if flat is None:
            flat = np.concatenate([np.ravel(t) for t in tensors.values()])
        self.layout = [(name, np.shape(t)) for name, t in tensors.items()]
        self.offsets: dict[str, int] = {}
        end = 0
        for name, shape in self.layout:
            start, end = end, end + math.prod(shape)
            self.offsets[name] = start
        self._view(flat)

    def _view(self, flat: np.ndarray) -> None:
        """Make flat the buffer, viewed at the recorded offsets in `layout` shapes."""
        self.flat = flat
        self.tensors: dict[str, np.ndarray] = {
            name: flat[start:start + math.prod(shape)].reshape(shape)
            for (name, shape), start in zip(self.layout, self.offsets.values())}

    def _like(self, flat: np.ndarray) -> "ParameterSet":
        """A set over flat that shares this one's layout and offsets."""
        new = object.__new__(ParameterSet)
        new.layout, new.offsets = self.layout, self.offsets
        new._view(flat)
        return new

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self.tensors[name]
        if value is not view:  # after `params[name] += x` it already is
            if np.shape(value) != view.shape:
                raise ShapeError(f"{name}: shape {np.shape(value)} != {view.shape}")
            view[...] = value

    def __iter__(self):
        return iter(self.tensors)

    def names(self) -> list[str]:
        return list(self.tensors)

    def stacked(self, *names: str) -> np.ndarray:
        """The named tensors as one (len(names), *shape) view of `flat`; they
        must share a shape and lie back to back in this order."""
        shape = self.tensors[names[0]].shape
        start = self.offsets[names[0]]
        size = math.prod(shape)
        for i, name in enumerate(names):
            if self.tensors[name].shape != shape or self.offsets[name] != start + i * size:
                raise ShapeError(f"{name} does not follow {names[0]} in one stack")
        return self.flat[start:start + len(names) * size].reshape(len(names), *shape)

    def zeros_like(self) -> "ParameterSet":
        return self._like(np.zeros_like(self.flat))

    def copy(self) -> "ParameterSet":
        return self._like(self.flat.copy())


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with values beyond 2 std resampled."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def init_params(
    config: ModelConfig, seed: int = 0, dtype=np.float32
) -> ParameterSet:
    """Truncated-normal weights (std 0.02), zero biases, unit LN gains."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gain":
            t = np.ones(shape)
        elif leaf.startswith("b") or leaf == "bias" or name == "mlm_bias":
            t = np.zeros(shape)
        else:
            t = _trunc_normal(rng, shape, INIT_STD)
        tensors[name] = np.asarray(t, dtype=dtype)
    return ParameterSet(tensors)


def gelu(x: np.ndarray, with_tanh: bool = False):
    """tanh-approximation GELU; with_tanh also returns the tanh term for gelu_grad.

    The cube is x * x * x: float32 x**3 is slow and varies with SIMD dispatch.
    """
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    a = 0.5 * x * (1.0 + t)
    return (a, t) if with_tanh else a


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d gelu(x) / dx, given t from gelu(x, with_tanh=True), in two new buffers:
    0.5 * (1 + t) + 0.5 * x * (1 - t**2) * C * (1 + 3 * A * x**2), bit for bit."""
    g = 0.5 * x
    u = np.square(t)
    g *= np.subtract(1.0, u, out=u)
    g *= _GELU_C
    np.square(x, out=u)
    u *= 3.0 * _GELU_A
    g *= np.add(u, 1.0, out=u)
    u = np.add(t, 1.0, out=u)
    u *= 0.5
    g += u
    return g


def _softmax(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the last axis, in place; returns the row max and row sum."""
    row_max = np.maximum.reduce(x, -1, keepdims=True)
    x -= row_max
    np.exp(x, out=x)
    row_sum = np.add.reduce(x, -1, keepdims=True)
    x /= row_sum
    return row_max, row_sum


def _row_mean(x: np.ndarray) -> np.ndarray:
    """np.mean(x, axis=-1, keepdims=True), bit for bit, without its wrapper.

    np.mean divides the float32 sum by an intp count in float64 and rounds
    once to float32; dividing in float32 rounds the same quotient the same
    way, as float64 holds it with more than twice float32's precision.
    """
    m = np.add.reduce(x, -1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    xc = x - _row_mean(x)
    var = _row_mean(xc * xc)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = xc * inv
    return gain * y + bias, (y, inv)

def _layernorm_backward(dout, ln_cache, gain):
    y, inv = ln_cache
    lead = tuple(range(dout.ndim - 1))
    dgain = np.add.reduce(dout * y, axis=lead)
    dbias = np.add.reduce(dout, axis=lead)
    dy = dout * gain
    dx = inv * (dy - _row_mean(dy) - y * _row_mean(dy * y))
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _examples_per_chunk(q: np.ndarray) -> int:
    return max(1, _SCORE_BUDGET // (q.shape[1] * q.shape[2] ** 2))


def _masked_scores(q, k, key_pad, scale):
    """q @ kT * scale with PAD keys at -inf, in one new buffer."""
    scores = q @ k.swapaxes(-1, -2)
    scores *= scale
    if key_pad.any():  # with no PAD key the fill changes no bit
        np.copyto(scores, -np.inf, where=key_pad)
    return scores


def _attention(q, k, v, key_pad, scale):
    """Merged head outputs over chunks of whole examples, and what to cache:
    the probs when one chunk covers the batch, else each row's softmax max
    and sum, from which the backward rebuilds them."""
    b, n = q.shape[0], _examples_per_chunk(q)
    if n >= b:
        probs = _masked_scores(q, k, key_pad, scale)
        _softmax(probs)
        return _merge_heads(probs @ v), {"probs": probs}
    heads = np.empty(v.shape, v.dtype)
    row_max, row_sum = (np.empty((*q.shape[:3], 1), q.dtype) for _ in "ms")
    for e in (slice(c, c + n) for c in range(0, b, n)):
        probs = _masked_scores(q[e], k[e], key_pad[e], scale)
        row_max[e], row_sum[e] = _softmax(probs)
        np.matmul(probs, v[e], out=heads[e])
        del probs  # else two chunks' scores are alive at once
    return _merge_heads(heads), {"row_max": row_max, "row_sum": row_sum}


def _rebuilt_probs(q, k, lc, key_pad, scale, e: slice):
    """The forward's probs for examples e, bit for bit, from its q and k and
    the row max and sum in its layer cache lc."""
    probs = _masked_scores(q[e], k[e], key_pad[e], scale)
    probs -= lc["row_max"][e]
    np.exp(probs, out=probs)
    probs /= lc["row_sum"][e]
    return probs


def _score_grads(probs, dctx, rowsum, q, k, v, scale, out):
    """dq, dk, dv of softmax attention, written to out[0], out[1], out[2];
    dscores is built in the dprobs buffer."""
    np.matmul(probs.swapaxes(-1, -2), dctx, out=out[2])
    dscores = dctx @ v.swapaxes(-1, -2)
    dscores -= rowsum
    dscores *= probs
    np.matmul(dscores, k, out=out[0])
    out[0] *= scale
    np.matmul(dscores.swapaxes(-1, -2), q, out=out[1])
    out[1] *= scale


def _qkv_names(prefix: str, kind: str) -> tuple[str, str, str]:
    """A layer's three Q/K/V weights ("w") or biases ("b"), back to back in flat."""
    return tuple(f"{prefix}attn.{kind}{m}" for m in "qkv")


def _project_qkv(x, params, prefix, num_heads):
    """q, k, v of one layer as (B, H, S, dh) views of one (3, B, S, d) projection."""
    b, s, _ = x.shape
    qkv = x @ params.stacked(*_qkv_names(prefix, "w"))[:, None]
    qkv += params.stacked(*_qkv_names(prefix, "b"))[:, None, None]
    return qkv.reshape(3, b, s, num_heads, -1).transpose(0, 1, 3, 2, 4)


def _dropout(x, rate, rng, cache_slot, key):
    """Dropout at rate; caches the rng's state before the draw, from which
    the backward redraws the keep mask, bit for bit."""
    if rate <= 0.0:
        return x
    cache_slot[key] = rng.bit_generator.state
    keep = rng.random(x.shape) >= rate
    return x * keep / (1.0 - rate)


def encoder_forward(
    ids: np.ndarray,
    attention_mask: np.ndarray,
    params: ParameterSet,
    config: ModelConfig,
    rng: np.random.Generator | None = None,
    want_cache: bool = False,
):
    """Batched encoder: (B, S) ids -> (B, S, d) hidden states.

    Sequences shorter than max_seq_len are allowed; position embeddings
    are sliced.  PAD keys receive additive -inf before the softmax, so
    real positions are unaffected by padding length.  Given an rng, the
    forward is in train mode and applies dropout; without one it is eval.
    """
    ids = np.asarray(ids)
    attention_mask = np.asarray(attention_mask)
    if ids.ndim != 2 or attention_mask.shape != ids.shape:
        raise ShapeError(
            f"ids {ids.shape} / attention_mask {attention_mask.shape}"
        )
    s = ids.shape[1]
    if s > config.max_seq_len:
        raise ShapeError(f"sequence length {s} > max_seq_len {config.max_seq_len}")

    drop = config.dropout_rate if rng is not None else 0.0

    cache: dict = {"ids": ids, "mask": attention_mask, "layers": [], "drop": {}}
    key_pad = (attention_mask != 1)[:, None, None, :]
    scale = 1.0 / math.sqrt(config.head_dim)

    h = params["tok_emb"][ids] + params["pos_emb"][:s][None, :, :]
    h = _dropout(h, drop, rng, cache["drop"], "emb")
    cache["emb_out"] = h

    for i in range(config.num_layers):
        p = f"layers.{i}."
        x = h
        q, k, v = _project_qkv(x, params, p, config.num_heads)
        ctx, softmax = _attention(q, k, v, key_pad, scale)
        attn = ctx @ params[p + "attn.wo"] + params[p + "attn.bo"]
        attn = _dropout(attn, drop, rng, cache["drop"], f"attn{i}")
        h1, ln1_cache = _layernorm(
            x + attn, params[p + "ln1.gain"], params[p + "ln1.bias"]
        )
        f1 = h1 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        a, t = gelu(f1, with_tanh=True)
        f2 = a @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        f2 = _dropout(f2, drop, rng, cache["drop"], f"ffn{i}")
        h, ln2_cache = _layernorm(
            h1 + f2, params[p + "ln2.gain"], params[p + "ln2.bias"]
        )
        if want_cache:  # an eval forward keeps no layer's arrays
            # x, h1, a, q, k and v are rebuilt by the backward
            cache["layers"].append(
                dict(ctx=ctx, ln1=ln1_cache, f1=f1, t=t, ln2=ln2_cache, **softmax))
        del q, k, v, softmax  # else they stay alive while the next layer's are built

    return (h, cache) if want_cache else h


def encoder_backward(
    dh: np.ndarray,
    cache: dict,
    params: ParameterSet,
    config: ModelConfig,
    grads: ParameterSet,
) -> None:
    """Accumulate d(loss)/d(param) into grads, given d(loss)/d(hidden).

    Consumes the cache: each layer's arrays are dropped as soon as the
    backward is done with them, so a cache serves one backward only.
    """
    scale = 1.0 / math.sqrt(config.head_dim)
    rate = config.dropout_rate

    def flat(x):
        return x.reshape(-1, x.shape[-1])

    def undrop(dx, key):  # the backward of _dropout, with its mask redrawn
        state = cache["drop"].get(key)
        if state is None:
            return dx
        rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
        rng.bit_generator.state = state
        return dx * (rng.random(dx.shape) >= rate) / (1.0 - rate)

    def ln_out(name, ln_cache):  # a layernorm's output, as _layernorm formed it
        return params[name + ".gain"] * ln_cache[0] + params[name + ".bias"]

    for i in reversed(range(config.num_layers)):
        p = f"layers.{i}."
        lc = cache["layers"].pop()
        dres2, dg2, db2 = _layernorm_backward(dh, lc.pop("ln2"),
                                              params[p + "ln2.gain"])
        grads[p + "ln2.gain"] += dg2
        grads[p + "ln2.bias"] += db2

        df2 = undrop(dres2, f"ffn{i}")
        a = 0.5 * lc["f1"] * (1.0 + lc["t"])  # gelu's own expression
        grads[p + "ffn.w2"] += flat(a).T @ flat(df2)
        del a
        grads[p + "ffn.b2"] += np.add.reduce(df2, axis=(0, 1))
        df1 = df2 @ params[p + "ffn.w2"].T
        df1 *= gelu_grad(lc["f1"], lc["t"])
        h1 = ln_out(p + "ln1", lc["ln1"])
        grads[p + "ffn.w1"] += flat(h1).T @ flat(df1)
        grads[p + "ffn.b1"] += np.add.reduce(df1, axis=(0, 1))
        dh1 = dres2 + df1 @ params[p + "ffn.w1"].T
        del dres2, df2, df1, h1, lc["f1"], lc["t"]

        dres1, dg1, db1 = _layernorm_backward(dh1, lc.pop("ln1"),
                                              params[p + "ln1.gain"])
        del dh1
        grads[p + "ln1.gain"] += dg1
        grads[p + "ln1.bias"] += db1

        dattn = undrop(dres1, f"attn{i}")
        grads[p + "attn.wo"] += flat(lc["ctx"]).T @ flat(dattn)
        grads[p + "attn.bo"] += np.add.reduce(dattn, axis=(0, 1))
        dctx = _split_heads(dattn @ params[p + "attn.wo"].T, config.num_heads)
        del dattn

        # dscores = probs * (dprobs - rowsum); as ctx = probs @ v,
        # rowsum = sum_j dprobs * probs = dctx . ctx
        rowsum = np.add.reduce(dctx * _split_heads(lc.pop("ctx"), config.num_heads),
                               -1, keepdims=True)
        x = cache["emb_out"] if i == 0 else ln_out(
            f"layers.{i - 1}.ln2", cache["layers"][-1]["ln2"])
        # dq, dk, dv land in (B, H, S, dh) views of one (3, B, S, H, dh)
        # buffer, which then reads as (3, B, S, d) with heads merged
        b, h, s, d_h = dctx.shape
        dqkv = np.empty((3, b, s, h, d_h), dctx.dtype)
        heads = dqkv.transpose(0, 1, 3, 2, 4)
        q, k, v = _project_qkv(x, params, p, config.num_heads)  # the forward's own
        if "probs" in lc:
            _score_grads(lc["probs"], dctx, rowsum, q, k, v, scale, heads)
        else:  # chunk by chunk, as the forward ran
            key_pad = (cache["mask"] != 1)[:, None, None, :]
            n = _examples_per_chunk(q)
            for e in (slice(c, c + n) for c in range(0, b, n)):
                _score_grads(_rebuilt_probs(q, k, lc, key_pad, scale, e), dctx[e],
                             rowsum[e], q[e], k[e], v[e], scale, heads[:, e])
        del q, k, v
        dqkv = dqkv.reshape(3, b, s, h * d_h)
        del dctx, heads, lc

        dw = grads.stacked(*_qkv_names(p, "w"))
        dw += flat(x).T @ dqkv.reshape(3, -1, h * d_h)
        db = grads.stacked(*_qkv_names(p, "b"))
        db += np.add.reduce(dqkv, axis=(1, 2))
        del x
        wq, wk, wv = (params[name] for name in _qkv_names(p, "w"))
        dh = dres1 + dqkv[0] @ wq.T  # in the order of the three projections
        dh += dqkv[1] @ wk.T
        dh += dqkv[2] @ wv.T
        del dqkv  # else the next layer keeps it

    dh = undrop(dh, "emb")
    # one add per element of flat(dh), each cell's in row order, as the
    # 2-D np.add.at(grads["tok_emb"], ids, flat(dh)) adds them
    d = dh.shape[-1]
    cells = cache["ids"].reshape(-1, 1) * d + np.arange(d)
    np.add.at(grads["tok_emb"].reshape(-1), cells.reshape(-1), dh.reshape(-1))
    grads["pos_emb"][: dh.shape[1]] += np.add.reduce(dh, axis=0)


def forward_mlm(hidden: np.ndarray, params: ParameterSet) -> np.ndarray:
    """Per-position vocabulary logits via the tied embedding projection."""
    tok_emb = params["tok_emb"]
    if hidden.shape[-1] != tok_emb.shape[1]:
        raise ShapeError(
            f"hidden dim {hidden.shape[-1]} != embedding dim {tok_emb.shape[1]}"
        )
    logits = hidden @ tok_emb.T
    logits += params["mlm_bias"]
    return logits


def forward_classify(hidden: np.ndarray, params: ParameterSet):
    """CLS pooling (linear + tanh), then the 2-way classifier: (logits, pooled)."""
    w = params["pooler.w"]
    if hidden.shape[-1] != w.shape[0]:
        raise ShapeError(f"hidden dim {hidden.shape[-1]} != pooler dim {w.shape[0]}")
    pooled = np.tanh(hidden[..., 0, :] @ w + params["pooler.b"])
    return pooled @ params["cls.w"] + params["cls.b"], pooled


def _cross_entropy_with_grad(logits, targets, ignore_index=IGNORE_INDEX):
    """(mean -log softmax(logits)[target] over non-ignored positions, dlogits);
    works in the logits buffer, which becomes dlogits."""
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.shape[:-1] != targets.shape:
        raise ShapeError(
            f"logits {logits.shape} do not lead targets {targets.shape}"
        )
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    kept = tgt != ignore_index
    n = int(kept.sum())
    if n == 0:
        raise EmptyBatch("all targets are ignored")

    # max-subtraction keeps exp in range for any logit magnitude
    flat -= flat.max(axis=-1, keepdims=True)
    rows, idx = np.arange(flat.shape[0]), np.where(kept, tgt, 0)
    picked = flat[rows, idx]  # the target's shifted logit, before exp
    np.exp(flat, out=flat)
    total = np.sum(flat, axis=-1, keepdims=True)
    nll = np.log(total[:, 0]) - picked
    loss = float(np.sum(nll[kept]) / n)

    flat /= total  # the softmax, from the exponentials summed above
    flat[rows, idx] -= 1.0
    flat[~kept] = 0.0
    flat /= n
    return loss, flat.reshape(logits.shape)


def compute_gradients(
    batch: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: ParameterSet,
    config: ModelConfig,
    objective: str,
    rng: np.random.Generator | None = None,
) -> tuple[float, ParameterSet]:
    """Exact reverse-mode gradients of the scalar loss for one batch.

    batch is (ids, attention_mask, targets): per-position original-token
    targets with IGNORE_INDEX sentinels for "mlm", shaped like ids (the
    vocabulary head runs only where a target is set), per-example class
    labels for "classify".  Gradients of parameters unused by the objective are
    zero; an rng puts the forward in train mode, as in encoder_forward.
    Returns (loss, grads) with grads mirroring the parameter shapes.
    """
    if objective not in ("mlm", "classify"):
        raise InvalidConfig(f"unknown objective {objective!r}")
    ids, mask, targets = (np.asarray(x) for x in batch)
    if objective == "mlm" and targets.shape != ids.shape:
        raise ShapeError(f"mlm targets {targets.shape} != ids {ids.shape}")
    hidden, cache = encoder_forward(
        ids, mask, params, config, rng=rng, want_cache=True
    )
    grads = params.zeros_like()
    dh = np.zeros_like(hidden)
    if objective == "mlm":
        # the vocabulary head runs only at positions that have a target
        rows = targets != IGNORE_INDEX
        picked = hidden[rows]
        logits = forward_mlm(picked, params)
        loss, dlogits = _cross_entropy_with_grad(logits, targets[rows])
        dh[rows] = dlogits @ params["tok_emb"]
        # tied projection: the embedding matrix also collects the head grad
        grads["tok_emb"] += dlogits.T @ picked
        grads["mlm_bias"] += dlogits.sum(axis=0)
        del picked, logits, dlogits  # not needed by the encoder backward
    else:
        logits, pooled = forward_classify(hidden, params)
        loss, dlogits = _cross_entropy_with_grad(logits, targets)
        grads["cls.w"] += pooled.T @ dlogits
        grads["cls.b"] += dlogits.sum(axis=0)
        dpooled = dlogits @ params["cls.w"].T
        dz = dpooled * (1.0 - pooled**2)
        grads["pooler.w"] += hidden[:, 0, :].T @ dz
        grads["pooler.b"] += dz.sum(axis=0)
        dh[:, 0, :] = dz @ params["pooler.w"].T

    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    encoder_backward(dh, cache, params, config, grads)
    return loss, grads


def trim_batch(ids: np.ndarray, *rest: np.ndarray):
    """(ids, attention_mask, *rest) of (B, S) batch arrays, cut after the last
    column holding a real position; the mask is ids != PAD_ID.

    Every later column is PAD in every row, and PAD keys get no attention,
    so real positions compute exactly what they would at full width.  A PAD
    inside a sequence is kept, and so is at least one column.
    """
    real = np.flatnonzero((ids != PAD_ID).any(axis=0))
    width = int(real[-1]) + 1 if real.size else 1
    ids = ids[:, :width]
    return (ids, (ids != PAD_ID).astype(np.int64), *(x[:, :width] for x in rest))
