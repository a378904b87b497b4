"""Relevance-ranked excerpt extraction from long filings.

Filings are segmented into sentences, embedded with a small deep-averaging
encoder over the (MLM-adapted) token embeddings, scored by cosine
similarity against benchmark sentence(s), and the top-k excerpt is emitted
ready for fixed-length input preparation.

The averaging encoder stands in for a pretrained general-purpose sentence
encoder: same structure (average, feedforward, L2-normalize), desk-scale
weights (randomly initialized, frozen, seeded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDocument, InvalidConfig, ShapeError
from .model import gelu
from .tokenizer import NUM_SPECIALS, Vocab, encode

DEFAULT_BENCHMARK = (
    "climate emissions environmental regulation carbon energy water "
    "waste pollution sustainability remediation"
)

# trailing-period exceptions; "et al" is matched against the raw text tail
DEFAULT_ABBREVIATIONS = ("Inc", "Corp", "No", "U.S", "Mr", "Ms", "Dr", "et al")

_TERMINATORS = ".!?"


@dataclass(frozen=True)
class Sentence:
    text: str
    doc_offset: int
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
    """Unit-length vector, or a flagged zero vector for empty/all-unknown text."""

    vector: np.ndarray
    is_zero: bool = False


@dataclass
class ExtractedInput:
    """Selected sentences in descending-score order plus their token ids."""

    sentences: list[Sentence]
    scores: list[float]
    token_ids: list[int]


def _is_abbreviation(text: str, period_pos: int, abbreviations) -> bool:
    head = text[:period_pos]
    for ab in abbreviations:
        if head.endswith(ab):
            before = period_pos - len(ab) - 1
            if before < 0 or not (text[before].isalnum() or text[before] == "."):
                return True
    return False


def segment_sentences(
    text: str, abbreviations=DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Split on ./!/? runs followed by whitespace or end of text.

    A lone period does not split after a known abbreviation or between
    digits; runs of terminators collapse into one boundary; whitespace-only
    segments are dropped.
    """
    boundaries: list[int] = []
    i = 0
    n = len(text)
    while i < n:
        if text[i] in _TERMINATORS:
            run_start = i
            while i < n and text[i] in _TERMINATORS:
                i += 1
            if i < n and not text[i].isspace():
                continue  # mid-token punctuation such as "3.5" or "U.S."
            run = text[run_start:i]
            if run == ".":
                prev_c = text[run_start - 1] if run_start > 0 else ""
                next_c = text[run_start + 1] if run_start + 1 < n else ""
                if prev_c.isdigit() and next_c.isdigit():
                    continue
                if _is_abbreviation(text, run_start, abbreviations):
                    continue
            boundaries.append(i)
        else:
            i += 1

    sentences: list[Sentence] = []
    seg_start = 0
    for b in boundaries + [n]:
        if b < seg_start:
            continue
        raw = text[seg_start:b]
        stripped = raw.strip()
        if stripped:
            offset = seg_start + (len(raw) - len(raw.lstrip()))
            sentences.append(
                Sentence(text=stripped, doc_offset=offset, index=len(sentences))
            )
        seg_start = b
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
    come back as the flagged zero vector.
    """
    dan.check(embeddings.shape[1])
    text = sentence.text if isinstance(sentence, Sentence) else sentence
    ids = [i for i in encode(text, vocab) if i >= NUM_SPECIALS]
    d_e = dan.w1.shape[1]
    if not ids:
        return SentenceEmbedding(vector=np.zeros(d_e), is_zero=True)
    avg = embeddings[ids].mean(axis=0).astype(np.float64)
    out = gelu(avg @ dan.w1 + dan.b1) @ dan.w2 + dan.b2
    norm = float(np.linalg.norm(out))
    if norm < 1e-30:
        return SentenceEmbedding(vector=np.zeros(d_e), is_zero=True)
    return SentenceEmbedding(vector=out / norm, is_zero=False)


def cosine_similarity(u, v) -> float:
    """u.v / (|u||v|); a zero (or flagged-zero) vector ranks last via -inf."""
    if isinstance(u, SentenceEmbedding):
        if u.is_zero:
            return float("-inf")
        u = u.vector
    if isinstance(v, SentenceEmbedding):
        if v.is_zero:
            return float("-inf")
        v = v.vector
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("-inf")
    return float(np.dot(u, v) / (nu * nv))


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


def score_sentences(
    sentences: list[Sentence], cfg: ExtractionConfig, embedder: DanEmbedder
) -> list[float]:
    """Per-sentence relevance: max cosine over the benchmark embeddings."""
    benches = [embedder.embed(b) for b in cfg.benchmark_sentences]
    return [
        max(cosine_similarity(embedder.embed(s), b) for b in benches)
        for s in sentences
    ]


def extract_top_k(doc, cfg: ExtractionConfig, embedder: DanEmbedder) -> ExtractedInput:
    """Pick the top_k most benchmark-similar sentences of doc.

    Concatenates their token sequences in descending-score order (score
    ties go to the earlier sentence), ready for prepare_input.  doc is
    anything with a .text attribute, or a plain string.
    """
    text = getattr(doc, "text", doc)
    sentences = segment_sentences(text)
    if not sentences:
        raise EmptyDocument("document has no sentences")
    scores = score_sentences(sentences, cfg, embedder)
    order = sorted(range(len(sentences)), key=lambda i: (-scores[i], i))
    chosen = order[: cfg.top_k]
    token_ids: list[int] = []
    for i in chosen:
        token_ids.extend(encode(sentences[i].text, embedder.vocab))
    return ExtractedInput(
        sentences=[sentences[i] for i in chosen],
        scores=[scores[i] for i in chosen],
        token_ids=token_ids,
    )
