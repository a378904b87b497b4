#!/usr/bin/env python3
"""Compare two `esglm extract` outputs record by record.

    python3 scripts/extract_diff.py A.jsonl B.jsonl

Prints three lines: whether every record selected the same sentence
indices, the largest |score difference| over the selected sentences, and
whether every other field (the selected texts included) is byte-identical
as JSON.  A null score (a sentence with no known token; older outputs wrote
-Infinity) counts as -inf, and two of them differ by 0.  Exits 1 when the
files differ in anything but the scores, else 0.  Uses only the standard
library.
"""

from __future__ import annotations

import json
import math
import sys


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def score(sel: dict) -> float:
    return -math.inf if sel["score"] is None else sel["score"]


def delta(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b)


def without_scores(rec: dict) -> str:
    sel = [{k: v for k, v in s.items() if k != "score"} for s in rec["selected"]]
    return json.dumps({**rec, "selected": sel}, sort_keys=True)


def compare(a: list[dict], b: list[dict]) -> tuple[bool, float, bool]:
    """(same selections, max |Δscore|, every other field identical)."""
    same_sel = len(a) == len(b)
    max_delta = 0.0
    same_rest = len(a) == len(b)
    for ra, rb in zip(a, b):
        sa, sb = ra["selected"], rb["selected"]
        same_sel &= [s["index"] for s in sa] == [s["index"] for s in sb]
        for x, y in zip(sa, sb):
            max_delta = max(max_delta, delta(score(x), score(y)))
        same_rest &= without_scores(ra) == without_scores(rb)
    return same_sel, max_delta, same_rest


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    same_sel, max_delta, same_rest = compare(load(argv[0]), load(argv[1]))
    print(f"selected indices equal: {same_sel}")
    print(f"max |delta score|: {max_delta:.3g}")
    print(f"other fields identical: {same_rest}")
    return 0 if same_sel and same_rest else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
