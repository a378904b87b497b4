#!/usr/bin/env python3
"""Print the traced memory of each phase of one MLM and one classify step.

Runs one `compute_gradients(..., "mlm")` call on the paper_step/seed0 batch
of `scripts/walkthrough_digest.py` (B 8, S 512, d 64, 2 heads, FFN 128,
vocab 2,000, dropout 0.1, one padded row) under tracemalloc, then one
`compute_gradients(..., "classify")` call on the same ids with labels
0, 1, 0, 1, ..., as fine-tuning runs the same backward.  The three
phases `encoder_forward`, `_cross_entropy_with_grad` and `encoder_backward`
are wrapped from outside, at their `esglm.model` bindings; the head's
matmuls between them count as `(between)`.  Each line gives the MiB held
when the phase starts, its peak, and the MiB held when it ends, all above
what was traced before the step; a last `step` line per objective names
the phase that sets the step's peak.  esglm is imported from PYTHONPATH,
so the same script measures any checkout:

    PYTHONPATH=src python3 scripts/step_memory.py

Uses only the standard library and numpy.
"""

from __future__ import annotations

import sys
import tracemalloc

from walkthrough_digest import paper_step_inputs

PHASES = ("encoder_forward", "_cross_entropy_with_grad", "encoder_backward")
MIB = float(1 << 20)


def trace_step(model, config, params, batch, objective) -> list[tuple]:
    """(phase, start, peak, end) in bytes above the base, per traced interval."""
    import numpy as np

    rows = []
    base = start = 0

    def close(phase):
        """End the interval since the last one; the next starts now."""
        nonlocal start
        now, peak = tracemalloc.get_traced_memory()
        rows.append((phase, start - base, peak - base, now - base))
        tracemalloc.reset_peak()
        start = now

    def wrap(fn):
        def traced(*args, **kwargs):
            close("(between)")
            try:
                return fn(*args, **kwargs)
            finally:
                close(fn.__name__)
        return traced

    originals = {name: getattr(model, name) for name in PHASES}
    tracemalloc.start()
    try:
        base = start = tracemalloc.get_traced_memory()[0]
        for name, fn in originals.items():
            setattr(model, name, wrap(fn))
        model.compute_gradients(batch, params, config, objective,
                                rng=np.random.default_rng(1))
        close("(between)")
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(model, name, fn)
    return rows


def main() -> int:
    import numpy as np

    from esglm import model

    config, params, (ids, mask, targets) = paper_step_inputs()
    labels = np.arange(len(ids)) % 2
    for objective, batch in (("mlm", (ids, mask, targets)),
                             ("classify", (ids, mask, labels))):
        rows = trace_step(model, config, params, batch, objective)
        print(f"{objective + ' phase':<26} {'start':>8} {'peak':>8} {'end':>8}  MiB")
        for phase, held, peak, end in rows:
            print(f"{phase:<26} {held / MIB:8.1f} {peak / MIB:8.1f} {end / MIB:8.1f}")
        top = max(rows, key=lambda r: r[2])
        print(f"{'step':<26} {0.0:8.1f} {top[2] / MIB:8.1f} {rows[-1][3] / MIB:8.1f}"
              f"  (peak in {top[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
