"""Masked-batch construction and the domain-adaptation MLM training stage.

Documents are tokenized and split into non-overlapping windows; each epoch
re-draws fresh masks (dynamic masking), corrupting 15% of real non-special
positions by default with the 80/10/10 mask/random/keep split.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_text
from .errors import InvalidConfig, InvalidInput
from .model import (
    IGNORE_INDEX,
    ModelConfig,
    ParameterSet,
    TrainConfig,
    compute_gradients,
    trim_batch,
)
from .optim import adam_step, run_epochs
from .tokenizer import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    EncodedInput,
    Vocab,
    encode,
    prepare_input,
)


@dataclass(frozen=True)
class MaskingConfig:
    mask_rate: float = 0.15
    replace_with_mask: float = 0.8
    replace_with_random: float = 0.1
    keep_original: float = 0.1

    def __post_init__(self):
        # rate 0 is allowed as an explicit degenerate case (no corruption)
        if not 0.0 <= self.mask_rate < 1.0:
            raise InvalidConfig(f"mask_rate {self.mask_rate} not in [0,1)")
        fractions = (self.replace_with_mask, self.replace_with_random,
                     self.keep_original)
        if not all(0.0 <= f <= 1.0 for f in fractions):  # NaN fails too
            raise InvalidConfig(f"corruption fractions {fractions} not in [0,1]")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-9:
            raise InvalidConfig(f"corruption fractions sum to {total}, not 1")


@dataclass
class MaskedBatch:
    """Corrupted inputs plus per-position original-id targets.

    targets hold the original token id at each selected position and
    IGNORE_INDEX elsewhere; CLS/SEP/PAD are never selected.
    """

    input_ids: np.ndarray
    targets: np.ndarray


def mask_batch(
    batch: list[EncodedInput],
    vocab: Vocab,
    mc: MaskingConfig,
    rng: np.random.Generator,
) -> MaskedBatch:
    """Independently corrupt each real non-special position.

    Selection probability is mc.mask_rate; a selected position becomes
    [MASK] / a uniform random non-special token / its original id with the
    configured 80/10/10 probabilities.
    """
    if len(vocab) < NUM_SPECIALS + 1:
        raise InvalidConfig("vocab has no non-special tokens to sample from")
    ids = np.stack([e.ids for e in batch])
    eligible = (ids != PAD_ID) & (ids != CLS_ID) & (ids != SEP_ID)

    selected = eligible & (rng.random(ids.shape) < mc.mask_rate)
    action = rng.random(ids.shape)
    randoms = rng.integers(NUM_SPECIALS, len(vocab), size=ids.shape)

    corrupted = ids.copy()
    use_mask = selected & (action < mc.replace_with_mask)
    use_random = selected & ~use_mask & (
        action < mc.replace_with_mask + mc.replace_with_random
    )
    corrupted[use_mask] = MASK_ID
    corrupted[use_random] = randoms[use_random]

    return MaskedBatch(input_ids=corrupted,
                       targets=np.where(selected, ids, IGNORE_INDEX))


def window_corpus(
    corpus_docs: list[str], vocab: Vocab, max_seq_len: int
) -> list[EncodedInput]:
    """Tokenize documents and cut into non-overlapping prepared windows.

    Each window holds up to max_seq_len - 2 tokens; a document shorter than
    one window still yields one window.  Documents with no tokens are
    skipped.
    """
    body = max_seq_len - 2
    windows: list[EncodedInput] = []
    for doc in corpus_docs:
        ids = encode(doc, vocab)
        for start in range(0, len(ids), body):
            windows.append(prepare_input(ids[start : start + body], max_seq_len))
    return windows


def load_corpus_dir(path) -> list[str]:
    """Read a directory of UTF-8 .txt files, one document per file."""
    files = sorted(Path(path).glob("*.txt"))
    if not files:
        raise InvalidInput(f"no .txt documents in {path}")
    return [read_text(f) for f in files]


def run_pretraining(
    corpus_docs: list[str],
    vocab: Vocab,
    params: ParameterSet,
    config: ModelConfig,
    tc: TrainConfig,
    mc: MaskingConfig,
) -> tuple[ParameterSet, list[float]]:
    """MLM-train params on the corpus; returns (params, per-epoch mean loss).

    Windows are reshuffled and re-masked every epoch from one seeded rng,
    so identical (corpus, config, seed) reproduce the loss trace exactly.
    An epoch in which no batch selects a position raises EmptyBatch.
    """
    windows = window_corpus(corpus_docs, vocab, config.max_seq_len)
    if not windows:
        raise InvalidInput("corpus produced no training windows")

    def step(take, rng, state):
        mb = mask_batch([windows[i] for i in take], vocab, mc, rng)
        if (mb.targets == IGNORE_INDEX).all():
            return None  # nothing to predict in this batch
        batch = trim_batch(mb.input_ids, mb.targets)
        loss, grads = compute_gradients(batch, params, config, "mlm", rng=rng)
        adam_step(params, grads, state, tc)
        return loss

    return params, run_epochs(
        len(windows), params, tc, step,
        "pretraining epoch {epoch}: no batch selected a position "
        f"to predict (mask_rate {mc.mask_rate})",
    )
