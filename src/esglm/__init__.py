"""esglm: desk-scale domain-adaptive language model pipeline.

WordPiece tokenization, masked-language-model pre-training on a domain
corpus, relevance-based excerpt extraction from long filings, binary
classification of quarterly environmental-score changes, baselines, and a
reporting harness.

Importing the package pins glibc's malloc thresholds (see
_pin_malloc_thresholds), so the CLI and library callers alike get the same
heap behaviour.
"""

import ctypes

from .model import ModelConfig, ParameterSet, TrainConfig, init_params
from .tokenizer import Vocab, encode, prepare_input, train_vocab

__version__ = "0.1.0"


def _pin_malloc_thresholds() -> None:
    """On glibc, take blocks under 16 MiB from the heap and keep 32 MiB freed.

    glibc raises these thresholds itself only when it frees a mapped block
    larger than the current one, so a stage's page faults would depend on
    the arrays that stages before it in the same process happened to free.
    A full (8, 2, 512, 512) float32 score array once raised them this far.
    At default thresholds a training step's freed temporaries go back to
    the OS and fault in again on the next step.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


_pin_malloc_thresholds()

__all__ = [
    "ModelConfig",
    "ParameterSet",
    "TrainConfig",
    "Vocab",
    "encode",
    "init_params",
    "prepare_input",
    "train_vocab",
]
