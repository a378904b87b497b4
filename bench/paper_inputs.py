"""Seeded inputs for the paper_cli workload, at the paper's input shapes.

Same seed, same bytes; another seed, other words and other labels with the
same shapes, so timings stay comparable across seeds.  The shapes follow
the paper's recipe:

- corpus documents cut into MLM windows that are all a full 510 tokens;
- a corpus vocabulary of about two thousand WordPiece tokens;
- long filings of a few hundred sentences each;
- sentences of 24-32 words, so a top-3 excerpt is about 70-100 tokens and
  most of a 512-token input is padding.

Every word is drawn from one lexicon and occurs in the corpus at least
twice.  The vocabulary trainer merges pairs while any pair occurs twice,
so each lexicon word ends up as a single token and a sentence of n words
encodes to n + 1 tokens (the final period).  That is what lets the
generator cut documents into exact windows without training a vocabulary
itself.

Run directly to write one input set:

    python3 bench/paper_inputs.py --seed 7 --out /tmp/paper_inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np

WINDOW_BODY = 510             # seq_len 512 minus [CLS] and [SEP]
CORPUS_DOCS = 8
WINDOWS_PER_DOC = 2
TICKERS = 6
QUARTERS = [(2015, 1), (2015, 2), (2015, 3), (2015, 4), (2016, 1)]
SENTENCES_PER_FILING = 240
SENTENCE_WORDS = (24, 33)     # numpy upper bound is exclusive
ENV_SHARE = 0.1               # share of filing sentences on environmental topics
LEXICON_WORDS = 900

CONFIG = {
    "seq_len": 512, "dim": 64, "layers": 2, "heads": 2, "ffn_dim": 128,
    "dropout": 0.1, "vocab_size": 8000, "min_freq": 2, "epochs": 1,
    "batch": 8, "top_k": 3, "change_epsilon": 0.0,
}

# environmental words are real ones, so the default extraction benchmark
# sentence encodes to whole tokens and ranks environmental sentences first
ENV_WORDS = (
    "climate emissions environmental regulation carbon energy water waste "
    "pollution sustainability remediation greenhouse renewable efficiency "
    "compliance scarcity disposal intensity offsets"
).split()

_CONSONANTS = "bdfghklmnprstvwz"
_VOWELS = "aeiou"


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    words: list[str] = []
    while len(words) < count:
        n_syll = int(rng.integers(2, 5))
        word = "".join(
            _CONSONANTS[rng.integers(len(_CONSONANTS))]
            + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        )
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _sentence(rng, words: list[str], n_words: int) -> str:
    picks = [words[i] for i in rng.integers(len(words), size=n_words)]
    return " ".join(picks).capitalize() + "."


def _corpus_doc(rng, lexicon: list[str], must_use: list[str]) -> str:
    """Sentences totalling exactly WINDOWS_PER_DOC full windows of tokens."""
    budget = WINDOW_BODY * WINDOWS_PER_DOC
    queue = list(must_use)
    sents: list[str] = []
    while budget > 0:
        n = min(int(rng.integers(*SENTENCE_WORDS)), budget - 1)
        if budget - (n + 1) < 8:  # never leave a stub too short for a sentence
            n = budget - 1
        picks = [queue.pop() if queue else lexicon[rng.integers(len(lexicon))]
                 for _ in range(n)]
        sents.append(" ".join(picks).capitalize() + ".")
        budget -= n + 1
    return " ".join(sents)


def generate(out_dir, seed: int) -> dict:
    """Write corpus/, filings/, filings.jsonl, scores.csv and paper.cfg.

    Returns the input sizes plus a sha256 over every file written.
    """
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    (out / "corpus").mkdir(parents=True, exist_ok=True)
    (out / "filings").mkdir(parents=True, exist_ok=True)

    taken = set(ENV_WORDS)
    lexicon = ENV_WORDS + _pseudo_words(rng, LEXICON_WORDS - len(ENV_WORDS), taken)
    other = lexicon[len(ENV_WORDS):]

    # each corpus document carries its share of the lexicon twice, so every
    # word reaches the trainer's min_freq of 2
    shares = np.array_split(rng.permutation(len(lexicon)), CORPUS_DOCS)
    corpus_words = 0
    for i, share in enumerate(shares):
        must = [lexicon[j] for j in share] * 2
        rng.shuffle(must)
        doc = _corpus_doc(rng, lexicon, must)
        corpus_words += doc.count(" ") + 1
        (out / "corpus" / f"doc{i:03d}.txt").write_text(doc + "\n", encoding="utf-8")

    tickers = _pseudo_words(rng, TICKERS, taken)
    tickers = [t[:3].upper() + str(i) for i, t in enumerate(tickers)]
    labeled = [(t, y, q) for t in tickers for (y, q) in QUARTERS[1:]]
    changed = set(rng.permutation(len(labeled))[: len(labeled) // 2].tolist())

    score_lines = ["ticker,year,quarter,env_score"]
    manifest = []
    sentences = 0
    for t in tickers:
        score = float(rng.integers(20, 40))
        score_lines.append(f"{t},{QUARTERS[0][0]},{QUARTERS[0][1]},{score}")
        for year, quarter in QUARTERS[1:]:
            if labeled.index((t, year, quarter)) in changed:
                step = float(np.round(rng.uniform(0.5, 3.0), 1))
                score = round(score + (step if rng.random() < 0.5 else -step), 1)
            score_lines.append(f"{t},{year},{quarter},{score}")
            sents = []
            for _ in range(SENTENCES_PER_FILING):
                pool = ENV_WORDS if rng.random() < ENV_SHARE else other
                sents.append(_sentence(rng, pool, int(rng.integers(*SENTENCE_WORDS))))
            sentences += len(sents)
            name = f"{t}_{year}Q{quarter}.txt"
            (out / "filings" / name).write_text(" ".join(sents) + "\n", encoding="utf-8")
            manifest.append({"path": f"filings/{name}", "quarter": quarter,
                             "ticker": t, "year": year})

    (out / "scores.csv").write_text("\n".join(score_lines) + "\n", encoding="utf-8")
    (out / "filings.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in manifest),
        encoding="utf-8",
    )
    (out / "paper.cfg").write_text(
        "".join(f"{k}={v}\n" for k, v in CONFIG.items()) + f"seed={seed}\n",
        encoding="utf-8",
    )
    return {
        "corpus_words": corpus_words,
        "mlm_windows": CORPUS_DOCS * WINDOWS_PER_DOC,
        "filings": len(manifest),
        "sentences": sentences,
        "sha256": tree_sha256(out),
    }


def tree_sha256(root) -> str:
    """sha256 over relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    root = Path(root)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    print(json.dumps(generate(a.out, a.seed), sort_keys=True))
