#!/usr/bin/env python3
"""Print the time of one training step at `replication` shapes.

A step is `compute_gradients` followed by `adam_step`, as in pretraining
and fine-tuning.  The model is the one `synth.run_replication_arm` trains
(d 32, 2 layers, 2 heads, FFN 64, no dropout) with a 700-token vocabulary,
and each batch is B 8 by S 32 with no padding: one MLM batch with 15% of
positions as targets and one classify batch.  For each objective the
script times BLOCKS blocks of STEPS steps after one warm-up block and
prints the median of the per-block mean step time, and the spread of the
block means.  esglm is imported from PYTHONPATH, so the same script times
any checkout:

    PYTHONPATH=src python3 scripts/step_time.py

Uses only the standard library and numpy.
"""

from __future__ import annotations

import statistics
import sys
from time import perf_counter

BLOCKS = 15
STEPS = 50


def batches(vocab_size: int):
    """{objective: (ids, mask, targets)}, seeded, with no PAD position."""
    import numpy as np

    from esglm.model import IGNORE_INDEX

    rng = np.random.default_rng(0)
    ids = rng.integers(5, vocab_size, size=(8, 32))
    mask = np.ones_like(ids)
    targets = np.where(rng.random(ids.shape) < 0.15, ids, IGNORE_INDEX)
    targets[0, 1] = ids[0, 1]  # at least one target
    labels = rng.integers(0, 2, size=8)
    return {"mlm": (ids, mask, targets), "classify": (ids, mask, labels)}


def main() -> int:
    from esglm.model import ModelConfig, TrainConfig, compute_gradients, init_params
    from esglm.optim import OptimizerState, adam_step

    config = ModelConfig(vocab_size=700, hidden_dim=32, num_layers=2,
                         num_heads=2, ffn_dim=64, max_seq_len=32, dropout_rate=0.0)
    tc = TrainConfig(learning_rate=1e-3)
    print(f"{'objective':<10} {'median ms':>10} {'min ms':>8} {'max ms':>8}"
          f"  ({BLOCKS} blocks of {STEPS} steps)")
    for objective, batch in batches(config.vocab_size).items():
        params = init_params(config, seed=0)
        state = OptimizerState.for_params(params)

        def block():
            t0 = perf_counter()
            for _ in range(STEPS):
                _, grads = compute_gradients(batch, params, config, objective)
                adam_step(params, grads, state, tc)
            return (perf_counter() - t0) / STEPS * 1e3

        block()  # warm-up
        ms = [block() for _ in range(BLOCKS)]
        print(f"{objective:<10} {statistics.median(ms):10.3f} {min(ms):8.3f}"
              f" {max(ms):8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
