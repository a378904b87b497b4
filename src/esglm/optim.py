"""Adam with bias correction, and the epoch loop both training stages share.

A step computes new parameters and moments into work buffers that the
state keeps across steps, checks them, then writes them in place (the
training loop is the single writer): a failed step changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyBatch, NumericError, ShapeError
from .model import ParameterSet, TrainConfig


@dataclass
class OptimizerState:
    m: ParameterSet
    v: ParameterSet
    t: int = 0
    work: tuple = field(init=False, repr=False, compare=False)  # m, v, update, theta

    def __post_init__(self):
        self.work = tuple(np.empty_like(self.m.flat) for _ in range(4))

    @classmethod
    def for_params(cls, params: ParameterSet) -> "OptimizerState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), t=0)


def adam_step(
    params: ParameterSet,
    grads: ParameterSet,
    state: OptimizerState,
    tc: TrainConfig,
) -> tuple[ParameterSet, OptimizerState]:
    """One Adam update: m, v moments, bias correction, then the step.

    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), t incremented by 1.
    Raises NumericError, naming the first tensor at fault, if theta, m or v
    would hold a non-finite value; params and state are then unchanged.
    """
    if grads.layout != params.layout:
        raise ShapeError("gradient names and shapes do not mirror parameters")
    t = state.t + 1
    b1, b2 = tc.adam_beta1, tc.adam_beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    g = grads.flat
    m, v, update, theta = state.work
    with np.errstate(invalid="ignore"):  # finiteness is checked below
        # the out-of-place formulas' operations, in their order and rounding
        np.multiply(state.m.flat, b1, out=m)
        m += np.multiply(g, 1.0 - b1, out=update)
        np.multiply(state.v.flat, b2, out=v)
        v += np.multiply(np.multiply(g, 1.0 - b2, out=update), g, out=update)
        np.sqrt(np.divide(v, bc2, out=theta), out=theta)
        theta += tc.adam_epsilon
        np.multiply(np.divide(m, bc1, out=update), tc.learning_rate, out=update)
        update /= theta
        np.subtract(params.flat, update, out=theta)
    finite = np.isfinite(theta) & np.isfinite(m) & np.isfinite(v)
    if not finite.all():
        bad = int(np.argmin(finite))  # the first non-finite index
        for name, shape in params.layout:
            bad -= math.prod(shape)
            if bad < 0:
                raise NumericError(f"non-finite update for parameter {name}")
    params.flat[...] = theta
    state.m.flat[...] = m
    state.v.flat[...] = v
    state.t = t
    return params, state


def run_epochs(n_items: int, params: ParameterSet, tc: TrainConfig, step,
               empty_message: str = "epoch {epoch}: no step ran") -> list[float]:
    """tc.epochs shuffled passes over n_items; returns each epoch's mean loss.

    One rng seeded with tc.seed permutes the items each epoch and goes on to
    step(indexes, rng, state), which trains on one batch of at most
    tc.batch_size and returns (loss, grads), or None for a batch with nothing
    to predict.  An epoch in which no step ran raises EmptyBatch.
    """
    rng = np.random.default_rng(tc.seed)
    state = OptimizerState.for_params(params)
    trace: list[float] = []
    for epoch in range(1, tc.epochs + 1):
        order = rng.permutation(n_items)
        losses: list[float] = []
        for start in range(0, n_items, tc.batch_size):
            result = step(order[start : start + tc.batch_size], rng, state)
            if result is None:
                continue
            # grads stays bound until the next step returns: freeing a step's
            # arrays first made replication pretraining 1.24x slower (ROADMAP)
            loss, grads = result
            losses.append(loss)
        if not losses:
            raise EmptyBatch(empty_message.format(epoch=epoch))
        trace.append(float(np.mean(losses)))
    return trace
