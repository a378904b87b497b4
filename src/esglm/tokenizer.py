"""WordPiece vocabulary training, text-to-id encoding, and fixed-length input prep.

Vocabulary training is frequency-based pair merging (BPE-style WordPiece)
rather than likelihood-based: deterministic and adequate at desk scale.
Encoding is uncased greedy longest-match-first over whitespace/punctuation
pre-tokens.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .artifacts import artifact, read_text
from .errors import InvalidConfig, InvalidId, InvalidInput, ParseError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIALS = len(SPECIAL_TOKENS)


@dataclass(frozen=True)
class Vocab:
    """Immutable token inventory; ids are dense 0..len-1, specials first.

    pieces caches encode's ids per distinct text chunk and grows with them;
    equality ignores it.  Safe to share across concurrent encode calls: each
    dict read and write is atomic under the GIL, and racing writes are equal.
    """

    tokens: tuple[str, ...]
    index: dict[str, int] = field(repr=False)
    pieces: dict[str, tuple[int, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        if self.tokens[:NUM_SPECIALS] != SPECIAL_TOKENS:
            raise InvalidConfig(
                f"first {NUM_SPECIALS} tokens must be {SPECIAL_TOKENS}"
            )
        if len(self.index) != len(self.tokens):
            raise InvalidConfig("duplicate tokens in vocabulary")
        for tok in self.tokens[NUM_SPECIALS:]:
            if not tok or tok == "##":
                raise InvalidConfig(f"empty token {tok!r} in vocabulary")

    @classmethod
    def from_tokens(cls, tokens) -> Vocab:
        toks = tuple(tokens)
        return cls(tokens=toks, index={t: i for i, t in enumerate(toks)})

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path) -> None:
        with artifact(path) as fh:
            fh.writelines(tok + "\n" for tok in self.tokens)

    @classmethod
    def load(cls, path) -> Vocab:
        tokens = read_text(path).split("\n")
        while tokens and tokens[-1] == "":
            tokens.pop()
        try:
            return cls.from_tokens(tokens)
        except InvalidConfig as exc:
            raise ParseError(f"vocab file {path}: {exc}") from None


@dataclass
class EncodedInput:
    """Fixed-length id sequence: [CLS] body [SEP] padding; only padding is PAD_ID."""

    ids: np.ndarray
    real_len: int


_NON_WORD_CHUNK = re.compile(r"(?:[^\W_]|')+|\S")  # [^\W_] is str.isalnum()


def pretokenize(text: str) -> list[str]:
    """Lowercase and split into words, with punctuation split off.

    A word is a maximal run of alphanumerics (plus apostrophes); every
    other non-whitespace character becomes its own token, matching the
    uncased-BERT convention.
    """
    words: list[str] = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            words.append(chunk)
        else:
            words.extend(_NON_WORD_CHUNK.findall(chunk))
    return words


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + ["##" + c for c in word[1:]]


def _surface(symbol: str) -> str:
    return symbol[2:] if symbol.startswith("##") else symbol


def _pairs(syms: list[str]) -> list[tuple[str, str]]:
    return [(_surface(left), right) for left, right in zip(syms, syms[1:])]


def train_vocab(corpus, target_size: int, min_freq: int = 2) -> Vocab:
    """Build a WordPiece vocabulary by iterative pair merging.

    Starts from single characters ("##"-prefixed off word start) and
    repeatedly merges the most frequent adjacent pair until target_size is
    reached or no pair occurs at least min_freq times.  Pair counts pool the
    word-initial and continuation forms of the left symbol, so the count of
    ("a", "##a") is the number of "aa" character bigrams.  Ties break
    lexicographically, which makes the result independent of document order.
    """
    docs = list(corpus)
    if not docs or all(not d.strip() for d in docs):
        raise InvalidInput("empty corpus")

    word_freqs = Counter()
    for doc in docs:
        word_freqs.update(pretokenize(doc))

    alphabet = {c for word in word_freqs for c in word}
    if target_size < NUM_SPECIALS + len(alphabet):
        raise InvalidConfig(
            f"target_size {target_size} < {NUM_SPECIALS} specials "
            f"+ {len(alphabet)} characters"
        )

    segmented = {w: _word_symbols(w) for w in word_freqs}
    # Initial inventory: the positional character forms that actually occur.
    inventory = sorted({sym for syms in segmented.values() for sym in syms})
    tokens = list(SPECIAL_TOKENS) + inventory
    seen = set(tokens)

    # Pair counts, the words holding each pair, and a lazy max-heap of
    # (-count, pair) whose stale entries are dropped when they surface; a
    # merge revisits only the words that hold the merged pair.
    pair_freqs: Counter = Counter()
    where: dict[tuple[str, str], set[str]] = defaultdict(set)
    for word, syms in segmented.items():
        for pair in _pairs(syms):
            pair_freqs[pair] += word_freqs[word]
            where[pair].add(word)
    heap = [(-f, pair) for pair, f in pair_freqs.items()]
    heapq.heapify(heap)

    while len(tokens) < target_size:
        while heap and pair_freqs.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap or -heap[0][0] < min_freq:
            break
        best = heap[0][1]

        realized: set[str] = set()
        touched: set[tuple[str, str]] = set()
        for word in where.pop(best):
            syms = segmented[word]
            merged: list[str] = []
            i = 0
            while i < len(syms):
                if (
                    i + 1 < len(syms)
                    and (_surface(syms[i]), syms[i + 1]) == best
                ):
                    new_sym = syms[i] + _surface(syms[i + 1])
                    realized.add(new_sym)
                    merged.append(new_sym)
                    i += 2
                else:
                    merged.append(syms[i])
                    i += 1
            segmented[word] = merged
            old, new = _pairs(syms), _pairs(merged)
            freq = word_freqs[word]
            for pair in old:
                pair_freqs[pair] -= freq
            for pair in new:
                pair_freqs[pair] += freq
            for pair in set(old) - set(new) - {best}:
                where[pair].discard(word)
            for pair in set(new) - set(old):
                where[pair].add(word)
            touched.update(old, new)
        for pair in touched:
            if pair_freqs[pair]:
                heapq.heappush(heap, (-pair_freqs[pair], pair))
            else:
                del pair_freqs[pair]
        for sym in sorted(realized):
            if sym not in seen and len(tokens) < target_size:
                tokens.append(sym)
                seen.add(sym)

    return Vocab.from_tokens(tokens)


def encode(text: str, vocab: Vocab) -> list[int]:
    """Greedy longest-match-first WordPiece encoding of lowercased text.

    A word in which some remainder has no matching piece collapses to a
    single UNK.  Pure: repeated calls return identical output.  Words never
    span whitespace, so each distinct whitespace-free chunk is encoded once
    per vocab and then read from vocab.pieces.
    """
    memo, ids = vocab.pieces, []
    for chunk in text.lower().split():
        if chunk not in memo:  # lower() is idempotent: chunk splits as in text
            words = pretokenize(chunk)
            memo[chunk] = tuple(i for w in words for i in _encode_word(w, vocab))
        ids += memo[chunk]
    return ids


def _encode_word(word: str, vocab: Vocab) -> list[int]:
    pieces: list[int] = []
    start = 0
    while start < len(word):
        end = len(word)
        match = None
        while start < end:
            sub = word[start:end]
            if start > 0:
                sub = "##" + sub
            if sub in vocab.index:
                match = vocab.index[sub]
                break
            end -= 1
        if match is None:
            return [UNK_ID]
        pieces.append(match)
        start = end
    return pieces


def prepare_input(token_ids, max_seq_len: int = 512) -> EncodedInput:
    """Wrap ids as [CLS] + body + [SEP] and pad to exactly max_seq_len.

    The body keeps the head: ids beyond max_seq_len - 2 are dropped from
    the tail.  A PAD_ID in the body is an InvalidId: padding is read back
    from the ids.
    """
    if max_seq_len < 3:
        raise InvalidConfig(f"max_seq_len {max_seq_len} < 3")
    body = list(token_ids)[: max_seq_len - 2]
    if PAD_ID in body:
        raise InvalidId(f"PAD id {PAD_ID} at body position {body.index(PAD_ID)}")
    real = [CLS_ID] + body + [SEP_ID]
    ids = np.full(max_seq_len, PAD_ID, dtype=np.int64)
    ids[: len(real)] = real
    return EncodedInput(ids=ids, real_len=len(real))
