"""Filing/score ingestion, label derivation, dataset assembly, and EDA.

Two binary tasks come out of the quarterly score series: task "a"
(change vs no_change, |delta| > change_epsilon) and task "b" (positive vs
negative, on changed quarters only).  Missing quarters break the delta
chain; no label spans a gap.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import (
    artifact, read_json, read_jsonl, read_text, write_json, write_jsonl,
)
from .errors import (
    DataError,
    DuplicateError,
    EmptyDataset,
    InvalidConfig,
    InvalidInput,
    ParseError,
    StratificationError,
)
from .tokenizer import PAD_ID

TASK_A_CLASSES = ("no_change", "change")
TASK_B_CLASSES = ("negative", "positive")
TASK_CLASSES = {"a": TASK_A_CLASSES, "b": TASK_B_CLASSES}

SPLIT_NAMES = ("train", "validation", "test")
# file stem of each split; val.jsonl holds the validation split
_SPLIT_FILES = ("train", "val", "test")

SCORES_HEADER = ["ticker", "year", "quarter", "env_score"]


@dataclass(frozen=True)
class FilingDoc:
    ticker: str
    year: int
    quarter: int
    text: str

    def __post_init__(self):
        if not 1 <= self.quarter <= 4:
            raise DataError(f"quarter {self.quarter} not in 1..4")
        if not self.text:
            raise DataError(f"empty filing body for {self.ticker}")

    @property
    def doc_id(self) -> str:
        return f"{self.ticker}-{self.year}Q{self.quarter}"


@dataclass(frozen=True)
class ScoreSeries:
    ticker: str
    points: tuple[tuple[int, int, float], ...]  # (year, quarter, env_score)

    def __post_init__(self):
        keys = [(y, q) for y, q, _ in self.points]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise DataError(f"score series for {self.ticker} not strictly increasing")
        for _, _, s in self.points:
            if not np.isfinite(s):
                raise DataError(f"non-finite score for {self.ticker}")


@dataclass(frozen=True)
class LabelRow:
    ticker: str
    year: int
    quarter: int
    delta: float
    task_a_label: str
    task_b_label: str | None


@dataclass
class LabeledExample:
    doc_id: str
    ticker: str
    year: int
    quarter: int
    delta: float
    task_a_label: str
    task_b_label: str | None
    text: str
    input_ids: np.ndarray
    real_len: int

    def __post_init__(self):
        if (self.task_a_label not in TASK_A_CLASSES
                or self.task_b_label not in (*TASK_B_CLASSES, None)):
            raise InvalidInput(
                f"labels {self.task_a_label!r}, {self.task_b_label!r} are not "
                f"in {TASK_A_CLASSES} and {TASK_B_CLASSES} or null")
        self.input_ids = _checked_input_ids(self.input_ids, self.real_len)

    def label(self, task: str) -> str:
        if task == "a":
            return self.task_a_label
        if self.task_b_label is None:
            raise DataError(f"{self.doc_id} has no task-b label")
        return self.task_b_label

    def label_index(self, task: str) -> int:
        return TASK_CLASSES[task].index(self.label(task))


def _checked_input_ids(ids, real_len: int) -> np.ndarray:
    """ids as an array, if flat integers, at least 3 long and PAD exactly
    from the int real_len on."""
    ids = np.asarray(ids)
    if (type(real_len) is not int or ids.ndim != 1
            or not np.issubdtype(ids.dtype, np.integer) or len(ids) < max(real_len, 3)
            or not np.array_equal(ids != PAD_ID, np.arange(len(ids)) < real_len)):
        raise InvalidInput(f"input_ids of dtype {ids.dtype} and shape {ids.shape} are "
                           f"not >= 3 flat integer ids with PAD ({PAD_ID}) exactly "
                           f"from the integer real_len {real_len!r} on")
    return ids


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.7
    val_frac: float = 0.15
    test_frac: float = 0.15
    seed: int = 0
    stratify_by: str = "a"  # task whose label stratifies the split
    mode: str = "stratified"  # or "temporal"
    group_by_ticker: bool = False

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"split seed must be >= 0, got {self.seed}")


@dataclass
class JoinReport:
    matched: int = 0
    unmatched_filings: int = 0
    unmatched_labels: int = 0


def load_scores(path) -> dict[str, ScoreSeries]:
    """Parse the scores CSV into per-ticker chronological series.

    Header must be exactly ticker,year,quarter,env_score.  Rows may arrive
    out of order; duplicates of (ticker, year, quarter) are an error.
    """
    rows: dict[str, list[tuple[int, int, float]]] = {}
    seen: set[tuple[str, int, int]] = set()
    with io.StringIO(read_text(path, newline=""), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty scores file") from None
        if header != SCORES_HEADER:
            raise ParseError(f"{path}: line 1: bad header {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 fields")
            ticker = row[0].strip()
            try:
                year = int(row[1])
                quarter = int(row[2])
                score = float(row[3])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not ticker:
                raise ParseError(f"{path}: line {lineno}: empty ticker")
            if not 1 <= quarter <= 4:
                raise ParseError(f"{path}: line {lineno}: quarter {quarter}")
            if not np.isfinite(score):
                raise ParseError(f"{path}: line {lineno}: non-finite score")
            key = (ticker, year, quarter)
            if key in seen:
                raise DuplicateError(f"{path}: line {lineno}: duplicate {key}")
            seen.add(key)
            rows.setdefault(ticker, []).append((year, quarter, score))
    return {
        t: ScoreSeries(ticker=t, points=tuple(sorted(pts)))
        for t, pts in rows.items()
    }


def load_manifest(path) -> list[FilingDoc]:
    """Read the filings manifest (JSON Lines) and the bodies it points to.

    Each line: {"ticker":..., "year":..., "quarter":..., "path":...};
    paths resolve relative to the manifest's directory.
    """
    base = Path(path).parent
    seen: set[tuple[str, int, int]] = set()

    def parse(rec) -> FilingDoc:
        key = (str(rec["ticker"]), int(rec["year"]), int(rec["quarter"]))
        body_path = base / rec["path"]
        if key in seen:
            raise DuplicateError(f"duplicate {key}")
        seen.add(key)
        try:
            text = body_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise DataError(str(exc)) from None
        return FilingDoc(*key, text=text)

    return read_jsonl(path, parse)


def _next_quarter(year: int, quarter: int) -> tuple[int, int]:
    return (year, quarter + 1) if quarter < 4 else (year + 1, 1)


def derive_labels(series: ScoreSeries, change_epsilon: float = 0.0) -> list[LabelRow]:
    """Quarter-over-quarter deltas and labels for consecutive quarters only.

    The label attaches to the later quarter of each pair.  A gap in the
    series produces no label across it.
    """
    labels: list[LabelRow] = []
    for (y0, q0, s0), (y1, q1, s1) in zip(series.points, series.points[1:]):
        if (y1, q1) != _next_quarter(y0, q0):
            continue
        delta = s1 - s0
        changed = abs(delta) > change_epsilon
        labels.append(LabelRow(
            ticker=series.ticker, year=y1, quarter=q1, delta=delta,
            task_a_label="change" if changed else "no_change",
            task_b_label=("positive" if delta > 0 else "negative") if changed else None,
        ))
    return labels


def derive_all_labels(
    series_map: dict[str, ScoreSeries], change_epsilon: float = 0.0
) -> list[LabelRow]:
    """derive_labels over every ticker, in ticker order."""
    out: list[LabelRow] = []
    for ticker in sorted(series_map):
        out.extend(derive_labels(series_map[ticker], change_epsilon))
    return out


def load_extracted(path) -> list[dict]:
    """Read the extract stage's JSON Lines, one record per non-blank line.

    Each record comes back with just the fields build_dataset and the EDA
    read: the selected sentences joined into "text" and "input_ids" as an
    integer array.  A line missing one of them, holding the wrong type,
    padded otherwise than real_len says, with a vocab_size that is not a
    positive integer, or whose input_ids length or vocab_size differs from
    the first record's is an error naming the path and line.
    """
    first: list[int] = []  # the first record's input_ids length and vocab_size

    def parse(rec):
        ids = _checked_input_ids(rec["input_ids"], rec["real_len"])
        vocab_size = rec["vocab_size"]
        if type(vocab_size) is not int or vocab_size < 1:
            raise InvalidInput(f"vocab_size must be a positive integer, "
                               f"got {vocab_size!r}")
        if not first:
            first.extend((len(ids), vocab_size))
        elif len(ids) != first[0]:
            raise InvalidInput(f"input_ids hold {len(ids)} ids, the first "
                               f"record's {first[0]}")
        elif vocab_size != first[1]:
            raise InvalidInput(f"vocab_size {vocab_size}, the first record's "
                               f"{first[1]}")
        return {
            "doc_id": str(rec["doc_id"]), "ticker": str(rec["ticker"]),
            "year": int(rec["year"]), "quarter": int(rec["quarter"]),
            "text": " ".join(s["text"] for s in rec["selected"]),
            "input_ids": ids,
            "real_len": rec["real_len"],
            "sentence_token_lengths":
                [int(n) for n in rec["sentence_token_lengths"]],
            "vocab_size": vocab_size,
        }

    records = read_jsonl(path, parse)
    if not records:
        raise DataError(f"{path}: no extracted documents")
    return records


def build_dataset(
    records: list[dict], labels: list[LabelRow], task: str
) -> tuple[list[LabeledExample], JoinReport]:
    """Inner-join extracted records to labels on (ticker, year, quarter).

    records are load_extracted's; examples come out in doc_id order.  Task
    "b" keeps changed quarters only.  Unmatched rows on either side are
    reported, not fatal.
    """
    if task not in ("a", "b"):
        raise InvalidConfig(f"task must be 'a' or 'b', got {task!r}")
    wanted = {
        (row.ticker, row.year, row.quarter): row
        for row in labels
        if task == "a" or row.task_a_label == "change"
    }
    report = JoinReport()
    examples: list[LabeledExample] = []
    for rec in sorted(records, key=lambda r: r["doc_id"]):
        row = wanted.pop((rec["ticker"], rec["year"], rec["quarter"]), None)
        if row is None:
            report.unmatched_filings += 1
            continue
        report.matched += 1
        examples.append(LabeledExample(
            doc_id=rec["doc_id"], ticker=rec["ticker"], year=rec["year"],
            quarter=rec["quarter"], delta=row.delta,
            task_a_label=row.task_a_label, task_b_label=row.task_b_label,
            text=rec["text"], input_ids=rec["input_ids"],
            real_len=rec["real_len"],
        ))
    if not examples:
        raise EmptyDataset("no extracted documents matched any label")
    report.unmatched_labels = len(wanted)
    return examples, report


def _largest_remainder(n: int, fractions: list[float]) -> list[int]:
    quotas = [f * n for f in fractions]
    counts = [int(q) for q in quotas]
    # leftover units go to the largest fractional parts, earlier split first
    order = sorted(
        range(len(quotas)),
        key=lambda i: (-(quotas[i] - counts[i]), i),
    )
    for i in range(n - sum(counts)):
        counts[order[i]] += 1
    return counts


def split_dataset(
    dataset: list[LabeledExample], spec: SplitSpec
) -> tuple[list[LabeledExample], list[LabeledExample], list[LabeledExample]]:
    """Stratified (or temporal) partition into train/val/test.

    Stratified mode shuffles within each class with the seeded rng and
    allocates by largest-remainder rounding, so splits are disjoint,
    exhaustive, and reproducible.  A split left empty is a StratificationError.
    """
    fractions = [spec.train_frac, spec.val_frac, spec.test_frac]
    if any(not f > 0 for f in fractions):  # NaN too
        raise StratificationError(f"all split fractions must be > 0: {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise StratificationError(f"split fractions sum to {sum(fractions)}")
    task = spec.stratify_by
    if task not in ("a", "b"):
        raise InvalidConfig(f"stratify_by must be 'a' or 'b', got {task!r}")

    if spec.mode == "temporal":
        ordered = sorted(dataset, key=lambda e: (e.year, e.quarter, e.doc_id))
        counts = _largest_remainder(len(ordered), fractions)
        a, b = counts[0], counts[0] + counts[1]
        return _none_empty((ordered[:a], ordered[a:b], ordered[b:]), fractions)
    if spec.mode != "stratified":
        raise InvalidConfig(f"unknown split mode {spec.mode!r}")

    rng = np.random.default_rng(spec.seed)
    splits: tuple[list[LabeledExample], ...] = ([], [], [])
    if spec.group_by_ticker:
        # whole tickers go to one split; stratification is best-effort only
        _split_groups(dataset, fractions, rng, splits)
        return _none_empty(splits, fractions)

    by_class: dict[str, list[LabeledExample]] = {}
    for ex in dataset:
        by_class.setdefault(ex.label(task), []).append(ex)
    if len(by_class) < 2:
        raise StratificationError(
            f"need both classes present, got {sorted(by_class)}"
        )
    for cls in sorted(by_class):
        members = by_class[cls]
        if len(members) < len(fractions):
            raise StratificationError(
                f"class {cls!r} has {len(members)} example(s), "
                f"fewer than {len(fractions)} splits"
            )
        order = rng.permutation(len(members))
        counts = _largest_remainder(len(members), fractions)
        pos = 0
        for split, count in zip(splits, counts):
            split.extend(members[i] for i in order[pos : pos + count])
            pos += count
    return _none_empty(splits, fractions)


def _none_empty(splits, fractions):
    """splits, unless one is empty: no model stage can run on that."""
    empty = [name for name, split in zip(SPLIT_NAMES, splits) if not split]
    if empty:
        raise StratificationError(f"fractions {fractions} leave the "
                                  f"{' and '.join(empty)} split empty")
    return splits


def _split_groups(members, fractions, rng, splits) -> None:
    """Assign whole tickers to splits, approximating fractions by count."""
    tickers = sorted({e.ticker for e in members})
    order = rng.permutation(len(tickers))
    targets = [f * len(members) for f in fractions]
    filled = [0.0, 0.0, 0.0]
    by_ticker = {t: [e for e in members if e.ticker == t] for t in tickers}
    for i in order:
        group = by_ticker[tickers[i]]
        # the split least filled relative to its target; ties to the earlier
        j = min(range(3), key=lambda j: filled[j] / targets[j])
        splits[j].extend(group)
        filled[j] += len(group)


@dataclass
class EdaStats:
    """The statistics behind the score-delta and sentence-length figures."""

    n_labels: int
    zero_delta_fraction: float
    delta_hist: list[tuple[float, float, int]]
    n_sentences: int
    sentlen_hist: list[tuple[int, int, int]]


def eda_stats(
    labels: list[LabelRow],
    sentence_token_lengths: list[int],
    delta_bins: int = 20,
    sentlen_bin_width: int = 10,
) -> EdaStats:
    """Zero-delta fraction plus the two histograms, from raw counts."""
    if not labels:
        raise EmptyDataset("no labels for EDA")
    deltas = np.array([l.delta for l in labels], dtype=np.float64)
    zero_fraction = float(np.mean(deltas == 0.0))

    lo, hi = float(deltas.min()), float(deltas.max())
    if lo == hi:
        delta_hist = [(lo, hi, len(deltas))]
    else:
        counts, edges = np.histogram(deltas, bins=delta_bins, range=(lo, hi))
        delta_hist = [
            (float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(len(counts))
        ]

    sentlen_hist: list[tuple[int, int, int]] = []
    if sentence_token_lengths:
        w = sentlen_bin_width
        top = max(sentence_token_lengths)
        bins = Counter(length // w for length in sentence_token_lengths)
        sentlen_hist = [
            (b * w, (b + 1) * w, bins.get(b, 0)) for b in range(top // w + 1)
        ]
    return EdaStats(
        n_labels=len(labels),
        zero_delta_fraction=zero_fraction,
        delta_hist=delta_hist,
        n_sentences=len(sentence_token_lengths),
        sentlen_hist=sentlen_hist,
    )


def write_eda(stats: EdaStats, out_dir) -> None:
    """Emit eda.json plus the two bin_start,bin_end,count CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "eda.json", asdict(stats))
    for name in ("delta_hist", "sentlen_hist"):
        with artifact(out / f"{name}.csv") as fh:
            csv.writer(fh).writerows(
                [("bin_start", "bin_end", "count"), *getattr(stats, name)])


def save_dataset_splits(
    splits: tuple[list[LabeledExample], ...],
    meta: dict,
    out_dir,
) -> None:
    """Write train/val/test JSONL plus meta.json into out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, examples in zip(_SPLIT_FILES, splits):
        write_jsonl(out / f"{stem}.jsonl", (
            {**asdict(ex), "input_ids": ex.input_ids.tolist()} for ex in examples
        ))
    write_json(out / "meta.json", meta)


def load_dataset_splits(data_dir) -> tuple[dict, dict[str, list[LabeledExample]]]:
    """Read meta.json and the three split files back, keyed by SPLIT_NAMES.

    A record missing a field, holding the wrong type or an unknown label is
    an error naming the file and line; so is a meta.json vocab_size or
    max_seq_len that is not a positive integer, or a task that is missing
    or not a key of TASK_CLASSES.
    """
    data = Path(data_dir)
    if not (data / "meta.json").exists():
        raise DataError(f"{data_dir} has no meta.json")

    meta = read_json(data / "meta.json")
    for key in ("vocab_size", "max_seq_len"):
        value = meta.get(key)
        if type(value) is not int or value < 1:
            raise DataError(f"{data / 'meta.json'}: {key} must be a positive "
                            f"integer, got {value!r}")
    task = meta.get("task")
    if not isinstance(task, str) or task not in TASK_CLASSES:
        raise DataError(f"{data / 'meta.json'}: task must be one of "
                        f"{', '.join(map(repr, TASK_CLASSES))}, got {task!r}")

    return meta, {
        name: read_jsonl(data / f"{stem}.jsonl", lambda rec: LabeledExample(**rec))
        for name, stem in zip(SPLIT_NAMES, _SPLIT_FILES)
    }
