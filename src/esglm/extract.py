"""Relevance-ranked excerpt extraction from long filings.

Filings are segmented into sentences, each encoded once.  A filing's
sentences are embedded in one batched pass of a small deep-averaging encoder
over the (MLM-adapted) token embeddings, scored by cosine similarity against
benchmark sentence(s) embedded once per run, and the top-k excerpt is
emitted ready for fixed-length input preparation.

The averaging encoder stands in for a pretrained general-purpose sentence
encoder: same structure (average, feedforward, L2-normalize), desk-scale
weights (randomly initialized, frozen, seeded).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptyDocument, InvalidConfig, ShapeError
from .model import gelu
from .tokenizer import NUM_SPECIALS, Vocab, encode

DEFAULT_BENCHMARK = (
    "climate emissions environmental regulation carbon energy water "
    "waste pollution sustainability remediation"
)

# trailing-period exceptions; "et al" is matched against the raw text tail
ABBREVIATIONS = ("Inc", "Corp", "No", "U.S", "Mr", "Ms", "Dr", "et al")

_PERIOD_RUN = re.compile(r"\.\.*")  # \.+ would make re test every character


@dataclass(frozen=True)
class Sentence:
    text: str
    index: int


@dataclass(frozen=True)
class ExtractionConfig:
    top_k: int = 3
    benchmark_sentences: tuple[str, ...] = (DEFAULT_BENCHMARK,)

    def __post_init__(self):
        if self.top_k < 1:
            raise InvalidConfig(f"top_k must be >= 1, got {self.top_k}")
        if not self.benchmark_sentences:
            raise InvalidConfig("at least one benchmark sentence is required")


@dataclass
class SentenceEmbedding:
    """embed()'s unit-length vector, or zeros flagged for all-unknown text."""

    vector: np.ndarray
    is_zero: bool = False


@dataclass
class ExtractedInput:
    """Selected sentences in descending-score order plus their token ids."""

    sentences: list[Sentence]
    scores: list[float]
    token_ids: list[int]


def _is_abbreviation(text: str, period_pos: int) -> bool:
    if not text.endswith(ABBREVIATIONS, 0, period_pos):
        return False  # the common case, in one call
    for ab in ABBREVIATIONS:
        if text.endswith(ab, 0, period_pos):
            before = period_pos - len(ab) - 1
            if before < 0 or not (text[before].isalnum() or text[before] == "."):
                return True
    return False


def segment_sentences(text: str) -> list[Sentence]:
    """Split on ./!/? runs followed by whitespace or end of text.

    A lone period does not split after a known abbreviation or between
    digits; runs of terminators collapse into one boundary; whitespace-only
    segments are dropped.
    """
    boundaries: list[int] = []
    n = len(text)
    # "!" and "?" as "." (same positions), since re finds a literal fastest
    for run in _PERIOD_RUN.finditer(text.replace("!", ".").replace("?", ".")):
        start, end = run.span()
        if end < n and not text[end].isspace():
            continue  # mid-token punctuation such as "3.5" or "U.S."
        lone_period = end - start == 1 and text[start] == "."
        if lone_period and _is_abbreviation(text, start):
            continue
        boundaries.append(end)

    sentences: list[Sentence] = []
    for seg_start, b in zip([0] + boundaries, boundaries + [n]):
        stripped = text[seg_start:b].strip()
        if stripped:
            sentences.append(Sentence(stripped, index=len(sentences)))
    return sentences


@dataclass
class DanParams:
    """Two frozen feedforward layers (d -> d_e -> d_e) applied to the average."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def check(self, in_dim: int) -> None:
        d_e = self.w1.shape[1]
        ok = (
            self.w1.shape == (in_dim, d_e)
            and self.b1.shape == (d_e,)
            and self.w2.shape == (d_e, d_e)
            and self.b2.shape == (d_e,)
        )
        if not ok:
            raise ShapeError(
                f"DAN shapes {self.w1.shape}/{self.w2.shape} inconsistent "
                f"with input dim {in_dim}"
            )


def init_dan_params(in_dim: int, embed_dim: int, seed: int = 0) -> DanParams:
    rng = np.random.default_rng(seed)
    return DanParams(
        w1=rng.normal(0.0, 0.2, size=(in_dim, embed_dim)),
        b1=np.zeros(embed_dim),
        w2=rng.normal(0.0, 0.2, size=(embed_dim, embed_dim)),
        b2=np.zeros(embed_dim),
    )


def dan_embed(
    sentence: Sentence | str,
    vocab: Vocab,
    embeddings: np.ndarray,
    dan: DanParams,
) -> SentenceEmbedding:
    """Average non-special token embeddings, feed forward, L2-normalize.

    Order-invariant within the sentence.  Sentences with no known tokens
    come back as the flagged zero vector.  The batch-of-one case of
    dan_embed_batch.
    """
    ids = encode(getattr(sentence, "text", sentence), vocab)
    vectors, zero = dan_embed_batch([ids], embeddings, dan)
    return SentenceEmbedding(vector=vectors[0], is_zero=bool(zero[0]))


def dan_embed_batch(
    id_lists, embeddings: np.ndarray, dan: DanParams
) -> tuple[np.ndarray, np.ndarray]:
    """dan_embed of many encoded sentences as (rows, zero mask), with one
    matmul per layer; flagged rows are zero."""
    dan.check(embeddings.shape[1])
    n = len(id_lists)
    row = np.repeat(np.arange(n), [len(ids) for ids in id_lists])
    flat = np.fromiter(chain.from_iterable(id_lists), dtype=np.intp, count=row.size)
    keep = flat >= NUM_SPECIALS
    known, counts = flat[keep], np.bincount(row[keep], minlength=n)
    starts = np.cumsum(counts) - counts
    avg = np.zeros((n, embeddings.shape[1]))
    # per known-token count c, one (rows, c, d) block summed in token order
    # as a per-sentence mean is (np.add.reduceat is 4x slower, rounds otherwise)
    for c in set(counts.tolist()) - {0}:  # np.unique would import numpy.ma
        rows = np.flatnonzero(counts == c)
        avg[rows] = embeddings[known[starts[rows, None] + np.arange(c)]].sum(axis=1) / c
    out = gelu(avg @ dan.w1 + dan.b1) @ dan.w2 + dan.b2
    norms = np.linalg.norm(out, axis=1)
    zero = (counts == 0) | (norms < 1e-30)
    norms[zero] = np.inf  # x / inf == 0: flagged rows come out zero
    return out / norms[:, None], zero


class DanEmbedder:
    """Bundles vocab, token embeddings, and frozen DAN weights."""

    def __init__(self, vocab: Vocab, embeddings: np.ndarray, dan: DanParams):
        if embeddings.shape[0] != len(vocab):
            raise ShapeError(
                f"embedding rows {embeddings.shape[0]} != vocab size {len(vocab)}"
            )
        self.vocab = vocab
        self.embeddings = embeddings
        self.dan = dan

    @classmethod
    def from_token_embeddings(
        cls, vocab: Vocab, embeddings: np.ndarray,
        embed_dim: int | None = None, seed: int = 0,
    ) -> "DanEmbedder":
        d = embeddings.shape[1]
        dan = init_dan_params(d, embed_dim or d, seed=seed)
        return cls(vocab, embeddings, dan)

    def embed(self, text: str | Sentence) -> SentenceEmbedding:
        return dan_embed(text, self.vocab, self.embeddings, self.dan)

    def embed_batch(self, id_lists) -> tuple[np.ndarray, np.ndarray]:
        return dan_embed_batch(id_lists, self.embeddings, self.dan)


def embed_benchmarks(cfg, embedder: DanEmbedder) -> tuple[np.ndarray, np.ndarray]:
    """cfg's benchmark sentences as (rows, zero mask), for extract_top_k."""
    embs = [embedder.embed(b) for b in cfg.benchmark_sentences]
    return np.array([e.vector for e in embs]), np.array([e.is_zero for e in embs])


def extract_top_k(
    doc, cfg: ExtractionConfig, embedder: DanEmbedder, bench
) -> ExtractedInput:
    """Pick the top_k most benchmark-similar sentences of doc.

    Concatenates their token sequences in descending-score order (score
    ties go to the earlier sentence), ready for prepare_input.  doc is
    anything with a .text attribute, or a plain string.  bench is
    embed_benchmarks(cfg, embedder).
    """
    text = getattr(doc, "text", doc)
    sentences = segment_sentences(text)
    if not sentences:
        raise EmptyDocument("document has no sentences")
    ids = [encode(s.text, embedder.vocab) for s in sentences]
    vectors, zero = embedder.embed_batch(ids)
    bench_rows, bench_zero = bench
    # multiply and sum, not a BLAS matrix-vector product, whose rounding
    # varies by row: equal rows must tie, and ties go to the earlier sentence
    sims = (vectors[:, None, :] * bench_rows).sum(axis=2)
    sims[zero[:, None] | bench_zero] = -np.inf
    scores = sims.max(axis=1)
    chosen = np.argsort(-scores, kind="stable")[: cfg.top_k].tolist()
    return ExtractedInput(
        sentences=[sentences[i] for i in chosen],
        scores=scores[chosen].tolist(),
        token_ids=[t for i in chosen for t in ids[i]],
    )
