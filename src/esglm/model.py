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
from .tokenizer import EncodedInput

LN_EPS = 1e-12
IGNORE_INDEX = -100
INIT_STD = 0.02

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


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
    Assignment copies into a view; it never rebinds a name.
    """

    def __init__(self, tensors: dict[str, np.ndarray], flat: np.ndarray | None = None):
        """Copy tensors into a new buffer, or, given flat, view it in their shapes."""
        if flat is None:
            flat = np.concatenate([np.ravel(t) for t in tensors.values()])
        self.flat = flat
        self.layout = [(name, np.shape(t)) for name, t in tensors.items()]
        self.tensors: dict[str, np.ndarray] = {}
        end = 0
        for name, shape in self.layout:
            start, end = end, end + math.prod(shape)
            self.tensors[name] = flat[start:end].reshape(shape)

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

    def zeros_like(self) -> "ParameterSet":
        return ParameterSet(self.tensors, np.zeros_like(self.flat))

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.tensors, self.flat.copy())


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
    """d gelu(x) / dx, given t from gelu(x, with_tanh=True)."""
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (
        1.0 + 3.0 * _GELU_A * x**2
    )


def _softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: x becomes the result."""
    x -= np.max(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=-1, keepdims=True)
    return x


def _layernorm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    y = xc * inv
    return gain * y + bias, (y, inv)

def _layernorm_backward(dout, ln_cache, gain):
    y, inv = ln_cache
    dgain = np.sum(dout * y, axis=tuple(range(dout.ndim - 1)))
    dbias = np.sum(dout, axis=tuple(range(dout.ndim - 1)))
    dy = dout * gain
    dx = inv * (
        dy
        - dy.mean(axis=-1, keepdims=True)
        - y * np.mean(dy * y, axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, s, d = x.shape
    return x.reshape(b, s, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _dropout(x, rate, rng, cache_slot, key):
    if rate <= 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    cache_slot[key] = keep
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
    b, s = ids.shape
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
        q = _split_heads(x @ params[p + "attn.wq"] + params[p + "attn.bq"], config.num_heads)
        k = _split_heads(x @ params[p + "attn.wk"] + params[p + "attn.bk"], config.num_heads)
        v = _split_heads(x @ params[p + "attn.wv"] + params[p + "attn.bv"], config.num_heads)
        # scores, masked scores and probs share one (B, H, S, S) buffer
        probs = q @ k.swapaxes(-1, -2)
        probs *= scale
        np.copyto(probs, -np.inf, where=key_pad)
        _softmax(probs)
        ctx = _merge_heads(probs @ v)
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
            cache["layers"].append(dict(
                x=x, q=q, k=k, v=v, probs=probs, ctx=ctx, ln1=ln1_cache,
                h1=h1, f1=f1, a=a, t=t, ln2=ln2_cache))
        del probs  # else it stays alive while the next layer's is built

    return (h, cache) if want_cache else h


def encoder_backward(
    dh: np.ndarray,
    cache: dict,
    params: ParameterSet,
    config: ModelConfig,
    grads: ParameterSet,
) -> None:
    """Accumulate d(loss)/d(param) into grads, given d(loss)/d(hidden)."""
    scale = 1.0 / math.sqrt(config.head_dim)

    def flat(x):
        return x.reshape(-1, x.shape[-1])

    def undrop(dx, key):  # the backward of _dropout, where it kept a mask
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

        dv = lc["probs"].swapaxes(-1, -2) @ dctx
        # dscores = probs * (dprobs - rowsum), built in the dprobs buffer; as
        # ctx = probs @ v, rowsum = sum_j dprobs * probs = dctx . ctx
        rowsum = np.sum(dctx * _split_heads(lc["ctx"], config.num_heads),
                        axis=-1, keepdims=True)
        dscores = dctx @ lc["v"].swapaxes(-1, -2)
        dscores -= rowsum
        dscores *= lc["probs"]
        dq = (dscores @ lc["k"]) * scale
        dk = (dscores.swapaxes(-1, -2) @ lc["q"]) * scale

        dh = dres1
        for m, dm in (("q", dq), ("k", dk), ("v", dv)):
            dm_m = _merge_heads(dm)
            grads[p + f"attn.w{m}"] += flat(lc["x"]).T @ flat(dm_m)
            grads[p + f"attn.b{m}"] += dm_m.sum(axis=(0, 1))
            dh = dh + dm_m @ params[p + f"attn.w{m}"].T
        del dscores, dq, dk, dv, dctx, dm, dm_m  # else the next layer keeps them

    dh = undrop(dh, "emb")
    np.add.at(grads["tok_emb"], cache["ids"].reshape(-1), flat(dh))
    grads["pos_emb"][: dh.shape[1]] += dh.sum(axis=0)


def forward_mlm(hidden: np.ndarray, params: ParameterSet) -> np.ndarray:
    """Per-position vocabulary logits via the tied embedding projection."""
    tok_emb = params["tok_emb"]
    if hidden.shape[-1] != tok_emb.shape[1]:
        raise ShapeError(
            f"hidden dim {hidden.shape[-1]} != embedding dim {tok_emb.shape[1]}"
        )
    return hidden @ tok_emb.T + params["mlm_bias"]


def forward_classify(hidden: np.ndarray, params: ParameterSet) -> np.ndarray:
    """CLS pooling (linear + tanh) followed by the 2-way classifier."""
    w = params["pooler.w"]
    if hidden.shape[-1] != w.shape[0]:
        raise ShapeError(f"hidden dim {hidden.shape[-1]} != pooler dim {w.shape[0]}")
    cls_h = hidden[..., 0, :]
    pooled = np.tanh(cls_h @ w + params["pooler.b"])
    return pooled @ params["cls.w"] + params["cls.b"]


def cross_entropy(
    logits: np.ndarray, targets: np.ndarray, ignore_index: int = IGNORE_INDEX
) -> float:
    """Mean -log softmax(logits)[target] over non-ignored positions."""
    loss, _ = _cross_entropy_with_grad(logits, targets, ignore_index)
    return loss


def _cross_entropy_with_grad(logits, targets, ignore_index=IGNORE_INDEX):
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
    m = flat.max(axis=-1, keepdims=True)
    shifted = flat - m
    e = np.exp(shifted)
    total = np.sum(e, axis=-1, keepdims=True)
    lse = np.log(total[:, 0])
    idx = np.where(kept, tgt, 0)
    nll = lse - shifted[np.arange(flat.shape[0]), idx]
    loss = float(np.sum(nll[kept]) / n)

    dflat = e / total  # the softmax, from the exponentials summed above
    dflat[np.arange(flat.shape[0]), idx] -= 1.0
    dflat[~kept] = 0.0
    dflat /= n
    return loss, dflat.reshape(logits.shape)


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
        cls_h = hidden[:, 0, :]
        pooled = np.tanh(cls_h @ params["pooler.w"] + params["pooler.b"])
        logits = pooled @ params["cls.w"] + params["cls.b"]
        loss, dlogits = _cross_entropy_with_grad(logits, targets)
        grads["cls.w"] += pooled.T @ dlogits
        grads["cls.b"] += dlogits.sum(axis=0)
        dpooled = dlogits @ params["cls.w"].T
        dz = dpooled * (1.0 - pooled**2)
        grads["pooler.w"] += cls_h.T @ dz
        grads["pooler.b"] += dz.sum(axis=0)
        dh[:, 0, :] = dz @ params["pooler.w"].T

    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    encoder_backward(dh, cache, params, config, grads)
    return loss, grads


def batch_arrays(inputs: list[EncodedInput]) -> tuple[np.ndarray, np.ndarray]:
    """Stack EncodedInputs into (ids, attention_mask) batch arrays."""
    ids = np.stack([e.ids for e in inputs])
    mask = np.stack([e.attention_mask for e in inputs])
    return ids, mask


def trim_batch(ids: np.ndarray, mask: np.ndarray, *rest: np.ndarray):
    """Cut (B, S) batch arrays after the last column holding a real position.

    Every later column is PAD in every row, and PAD keys get no attention,
    so real positions compute exactly what they would at full width.  A PAD
    inside a sequence is kept, and so is at least one column.
    """
    real = np.flatnonzero(np.asarray(mask).any(axis=0))
    width = int(real[-1]) + 1 if real.size else 1
    return tuple(x[:, :width] for x in (ids, mask, *rest))
