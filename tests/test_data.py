import json
from collections import Counter

import numpy as np
import pytest

from esglm.data import (
    LabelRow,
    LabeledExample,
    ScoreSeries,
    SplitSpec,
    build_dataset,
    derive_all_labels,
    derive_labels,
    eda_stats,
    load_dataset_splits,
    load_manifest,
    load_scores,
    save_dataset_splits,
    split_dataset,
    write_eda,
)
from esglm.errors import (
    DataError,
    DuplicateError,
    EmptyDataset,
    ParseError,
    StratificationError,
)
from esglm.tokenizer import CLS_ID, PAD_ID, SEP_ID, encode, prepare_input, train_vocab


def series(ticker, *points):
    return ScoreSeries(ticker=ticker, points=tuple(points))


def write_scores(tmp_path, rows, header="ticker,year,quarter,env_score"):
    path = tmp_path / "scores.csv"
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestLoadScores:
    def test_minimal_file(self, tmp_path):
        path = write_scores(tmp_path, ["AAA,2015,1,10.0", "AAA,2015,2,12.5"])
        out = load_scores(path)
        assert out["AAA"].points == ((2015, 1, 10.0), (2015, 2, 12.5))

    def test_rows_sorted_chronologically(self, tmp_path):
        path = write_scores(tmp_path, [
            "AAA,2016,1,3.0", "AAA,2015,4,2.0", "AAA,2015,3,1.0",
        ])
        assert load_scores(path)["AAA"].points == (
            (2015, 3, 1.0), (2015, 4, 2.0), (2016, 1, 3.0),
        )

    def test_non_numeric_score_names_line(self, tmp_path):
        path = write_scores(tmp_path, ["AAA,2015,1,10.0", "AAA,2015,2,oops"])
        with pytest.raises(ParseError, match="line 3"):
            load_scores(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_scores(tmp_path, ["AAA,2015,1,10.0", "AAA,2015,1,11.0"])
        with pytest.raises(DuplicateError):
            load_scores(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write_scores(tmp_path, ["AAA,2015,1,10.0"],
                            header="symbol,yr,q,score")
        with pytest.raises(ParseError, match="line 1"):
            load_scores(path)

    def test_bad_quarter_rejected(self, tmp_path):
        path = write_scores(tmp_path, ["AAA,2015,5,10.0"])
        with pytest.raises(ParseError, match="line 2"):
            load_scores(path)


class TestLoadManifest:
    def test_reads_bodies_relative_to_manifest(self, tmp_path):
        (tmp_path / "f").mkdir()
        (tmp_path / "f" / "a.txt").write_text("Emissions fell.", encoding="utf-8")
        manifest = tmp_path / "filings.jsonl"
        manifest.write_text(json.dumps(
            {"ticker": "AAA", "year": 2015, "quarter": 2, "path": "f/a.txt"}
        ) + "\n", encoding="utf-8")
        docs = load_manifest(manifest)
        assert len(docs) == 1
        assert docs[0].doc_id == "AAA-2015Q2"
        assert docs[0].text == "Emissions fell."

    def test_missing_body_is_data_error(self, tmp_path):
        manifest = tmp_path / "filings.jsonl"
        manifest.write_text(json.dumps(
            {"ticker": "AAA", "year": 2015, "quarter": 2, "path": "nope.txt"}
        ) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_manifest(manifest)

    def test_malformed_json_names_line(self, tmp_path):
        manifest = tmp_path / "filings.jsonl"
        manifest.write_text('{"ticker": "AAA"\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_manifest(manifest)

    def test_duplicate_quarter_rejected(self, tmp_path):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "filings.jsonl"
        rec = {"ticker": "AAA", "year": 2015, "quarter": 2, "path": "a.txt"}
        manifest.write_text(
            json.dumps(rec) + "\n" + json.dumps(rec) + "\n", encoding="utf-8"
        )
        with pytest.raises(DuplicateError):
            load_manifest(manifest)


class TestDeriveLabels:
    def test_zero_delta(self):
        out = derive_labels(series("A", (2015, 1, 10.0), (2015, 2, 10.0)))
        assert len(out) == 1
        row = out[0]
        assert (row.year, row.quarter) == (2015, 2)
        assert row.delta == 0.0
        assert row.task_a_label == "no_change"
        assert row.task_b_label is None

    def test_positive_change(self):
        out = derive_labels(series("A", (2015, 1, 10.0), (2015, 2, 12.5)))
        assert out[0].delta == 2.5
        assert out[0].task_a_label == "change"
        assert out[0].task_b_label == "positive"

    def test_negative_change(self):
        out = derive_labels(series("A", (2015, 1, 10.0), (2015, 2, 8.0)))
        assert out[0].task_b_label == "negative"

    def test_gap_breaks_chain(self):
        # 2015Q2 missing: no label for 2015Q3
        out = derive_labels(series(
            "A", (2015, 1, 10.0), (2015, 3, 11.0), (2015, 4, 12.0),
        ))
        assert [(r.year, r.quarter) for r in out] == [(2015, 4)]

    def test_year_boundary_is_consecutive(self):
        out = derive_labels(series("A", (2015, 4, 10.0), (2016, 1, 11.0)))
        assert [(r.year, r.quarter) for r in out] == [(2016, 1)]

    def test_change_epsilon(self):
        out = derive_labels(
            series("A", (2015, 1, 10.0), (2015, 2, 10.05)), change_epsilon=0.1
        )
        assert out[0].task_a_label == "no_change"

    def test_single_point_gives_no_labels(self):
        assert derive_labels(series("A", (2015, 1, 10.0))) == []

    def test_label_count_equals_consecutive_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            quarters = sorted(
                {(int(y), int(q)) for y, q in
                 zip(rng.integers(2014, 2017, 8), rng.integers(1, 5, 8))}
            )
            if len(quarters) < 2:
                continue
            pts = tuple((y, q, float(rng.normal())) for y, q in quarters)
            from esglm.data import _next_quarter
            pairs = sum(
                1 for p0, p1 in zip(quarters, quarters[1:])
                if p1 == _next_quarter(*p0)
            )
            assert len(derive_labels(series("A", *pts))) == pairs


def tiny_vocab():
    return train_vocab(
        ["emissions water carbon waste climate revenue sales grew fell"],
        target_size=200, min_freq=1,
    )


def make_example(i, task_a, task_b, ticker="AAA", year=2015, quarter=1):
    return LabeledExample(
        doc_id=f"{ticker}-{year}Q{quarter}-{i}", ticker=ticker, year=year,
        quarter=quarter, delta=1.0 if task_a == "change" else 0.0,
        task_a_label=task_a, task_b_label=task_b, text="t",
        input_ids=np.array([CLS_ID, SEP_ID] + [PAD_ID] * 6), real_len=2,
    )


class TestBuildDataset:
    def _records(self, seq_len=32):
        # extract-stage records, listed out of doc_id order
        vocab = tiny_vocab()
        out = []
        for ticker, year, quarter, text in (
            ("BBB", 2015, 2, "Carbon climate waste. Sales grew."),
            ("AAA", 2015, 3, "Water usage grew. Sales fell."),
            ("AAA", 2015, 2, "Emissions fell. Revenue grew. Waste rose."),
        ):
            enc = prepare_input(encode(text, vocab), seq_len)
            out.append({
                "doc_id": f"{ticker}-{year}Q{quarter}", "ticker": ticker,
                "year": year, "quarter": quarter, "text": text,
                "input_ids": enc.ids, "real_len": enc.real_len,
            })
        return out

    def _labels(self):
        return [
            LabelRow("AAA", 2015, 2, 2.5, "change", "positive"),
            LabelRow("AAA", 2015, 3, 0.0, "no_change", None),
            LabelRow("CCC", 2015, 2, -1.0, "change", "negative"),
        ]

    def test_join_semantics_and_report(self):
        examples, report = build_dataset(self._records(), self._labels(), task="a")
        assert [e.doc_id for e in examples] == ["AAA-2015Q2", "AAA-2015Q3"]
        assert [e.task_a_label for e in examples] == ["change", "no_change"]
        assert report.matched == 2
        assert report.unmatched_filings == 1   # BBB has no label
        assert report.unmatched_labels == 1    # CCC has no filing
        assert report.matched + report.unmatched_filings == 3

    def test_task_b_filters_to_changes(self):
        examples, report = build_dataset(self._records(), self._labels(), task="b")
        assert [e.doc_id for e in examples] == ["AAA-2015Q2"]
        assert examples[0].label("b") == "positive"
        assert (report.unmatched_filings, report.unmatched_labels) == (2, 1)

    def test_inputs_have_exact_length(self):
        records = self._records(seq_len=512)
        examples, _ = build_dataset(records, self._labels(), task="a")
        by_id = {r["doc_id"]: r for r in records}
        for ex in examples:
            assert len(ex.input_ids) == 512
            np.testing.assert_array_equal(ex.input_ids, by_id[ex.doc_id]["input_ids"])
            assert ex.real_len == by_id[ex.doc_id]["real_len"]
            assert ex.text == by_id[ex.doc_id]["text"]

    def test_empty_join_rejected(self):
        with pytest.raises(EmptyDataset):
            build_dataset(
                self._records(),
                [LabelRow("ZZZ", 2010, 1, 0.0, "no_change", None)],
                task="a",
            )


class TestSplitDataset:
    def _dataset(self, n_change=6, n_nochange=4):
        out = []
        for i in range(n_change):
            out.append(make_example(i, "change", "positive", ticker=f"T{i%3}"))
        for i in range(n_nochange):
            out.append(make_example(100 + i, "no_change", None, ticker=f"T{i%3}"))
        return out

    def test_largest_remainder_allocation(self):
        train, val, test = split_dataset(self._dataset(), SplitSpec(seed=1))
        assert len(train) == 7
        assert 1 <= len(val) <= 2
        assert 1 <= len(test) <= 2
        assert len(train) + len(val) + len(test) == 10
        # class ratio in train within one example of the 6:4 global ratio
        counts = Counter(e.task_a_label for e in train)
        assert abs(counts["change"] - 0.6 * len(train)) <= 1.0

    def test_partition_disjoint_and_exhaustive(self):
        data = self._dataset(9, 7)
        train, val, test = split_dataset(data, SplitSpec(seed=3))
        ids = [e.doc_id for e in train + val + test]
        assert len(ids) == len(set(ids)) == len(data)

    def test_same_seed_same_membership(self):
        data = self._dataset(8, 5)
        a = split_dataset(data, SplitSpec(seed=9))
        b = split_dataset(data, SplitSpec(seed=9))
        for sa, sb in zip(a, b):
            assert [e.doc_id for e in sa] == [e.doc_id for e in sb]

    def test_zero_fraction_rejected(self):
        with pytest.raises(StratificationError):
            split_dataset(self._dataset(), SplitSpec(
                train_frac=1.0, val_frac=0.0, test_frac=0.0))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(StratificationError):
            split_dataset(self._dataset(), SplitSpec(
                train_frac=0.5, val_frac=0.2, test_frac=0.2))

    def test_small_class_rejected(self):
        data = self._dataset(2, 8)
        with pytest.raises(StratificationError):
            split_dataset(data, SplitSpec())

    def test_single_class_rejected(self):
        data = [make_example(i, "change", "positive") for i in range(6)]
        with pytest.raises(StratificationError):
            split_dataset(data, SplitSpec())

    def test_temporal_mode_orders_by_quarter(self):
        data = [
            make_example(i, "change", "positive", year=2015, quarter=q)
            for i, q in enumerate([3, 1, 4, 2])
        ] + [
            make_example(9, "no_change", None, year=2016, quarter=1),
            make_example(10, "no_change", None, year=2016, quarter=2),
        ]
        train, val, test = split_dataset(data, SplitSpec(mode="temporal"))
        assert len(train) == 4
        quarters = [(e.year, e.quarter) for e in train + val + test]
        assert quarters == sorted(quarters)

    def test_group_by_ticker_keeps_tickers_whole(self):
        data = self._dataset(9, 6)
        splits = split_dataset(data, SplitSpec(seed=2, group_by_ticker=True))
        seen = {}
        for name, split in zip("tvx", splits):
            for e in split:
                assert seen.setdefault(e.ticker, name) == name

    @pytest.mark.parametrize("n_tickers,sizes", [(3, [20, 20, 20]),
                                                 (4, [30, 15, 15])])
    def test_group_by_ticker_fills_every_split(self, n_tickers, sizes):
        data = [make_example(i, "change" if i % 2 else "no_change",
                             "positive" if i % 2 else None, ticker=f"T{i % n_tickers}")
                for i in range(60)]
        for seed in range(3):
            splits = split_dataset(data, SplitSpec(seed=seed, group_by_ticker=True))
            assert [len(s) for s in splits] == sizes

    @pytest.mark.parametrize("spec,empty", [
        (SplitSpec(train_frac=0.98, val_frac=0.01, test_frac=0.01),
         "validation and test"),
        (SplitSpec(train_frac=0.98, val_frac=0.01, test_frac=0.01, mode="temporal"),
         "validation and test"),
        (SplitSpec(train_frac=0.55, val_frac=0.04, test_frac=0.41, mode="temporal"),
         "validation"),
    ], ids=["stratified", "temporal", "temporal_validation"])
    def test_empty_split_rejected(self, spec, empty):
        with pytest.raises(StratificationError, match=f"the {empty} split empty"):
            split_dataset(self._dataset(), spec)

    def test_fewer_tickers_than_splits_rejected(self):
        data = [e for e in self._dataset() if e.ticker != "T2"]
        with pytest.raises(StratificationError, match="the test split empty"):
            split_dataset(data, SplitSpec(group_by_ticker=True))


class TestEda:
    def test_zero_fraction(self):
        labels = [
            LabelRow("A", 2015, q, d, "change" if d else "no_change",
                     ("positive" if d > 0 else "negative") if d else None)
            for q, d in zip([1, 2, 3, 4, 1], [0.0, 0.0, 1.0, -1.0, 0.0])
        ]
        stats = eda_stats(labels, [3, 9, 14])
        assert stats.zero_delta_fraction == pytest.approx(0.6)
        assert stats.n_labels == 5

    def test_all_zero_deltas_single_bin(self):
        labels = [LabelRow("A", 2015, q, 0.0, "no_change", None)
                  for q in (1, 2, 3)]
        stats = eda_stats(labels, [])
        assert stats.zero_delta_fraction == 1.0
        assert len(stats.delta_hist) == 1
        assert stats.delta_hist[0][2] == 3

    def test_histograms_match_brute_force(self):
        rng = np.random.default_rng(4)
        deltas = rng.normal(size=100).round(3)
        labels = [
            LabelRow("A", 2015, 1, float(d),
                     "change" if d != 0 else "no_change",
                     "positive" if d > 0 else "negative" if d != 0 else None)
            for d in deltas
        ]
        lengths = rng.integers(1, 60, size=100).tolist()
        stats = eda_stats(labels, lengths, delta_bins=10, sentlen_bin_width=10)

        # brute-force delta binning with the same edge convention
        lo, hi = deltas.min(), deltas.max()
        edges = [lo + (hi - lo) * i / 10 for i in range(11)]
        brute = [0] * 10
        for d in deltas:
            for b in range(10):
                last = b == 9
                if edges[b] <= d < edges[b + 1] or (last and d == edges[10]):
                    brute[b] += 1
                    break
        assert [c for _, _, c in stats.delta_hist] == brute
        assert sum(c for _, _, c in stats.delta_hist) == 100

        brute_len = Counter(n // 10 for n in lengths)
        for start, end, count in stats.sentlen_hist:
            assert count == brute_len.get(start // 10, 0)
        assert sum(c for _, _, c in stats.sentlen_hist) == 100

    def test_write_eda_emits_expected_files(self, tmp_path):
        labels = [LabelRow("A", 2015, 1, 0.0, "no_change", None)]
        write_eda(eda_stats(labels, [5, 15]), tmp_path)
        assert json.loads((tmp_path / "eda.json").read_text())["n_labels"] == 1
        body = (tmp_path / "sentlen_hist.csv").read_text().splitlines()
        assert body[0] == "bin_start,bin_end,count"
        assert len(body) == 3

    def test_empty_labels_rejected(self):
        with pytest.raises(EmptyDataset):
            eda_stats([], [1])


class TestDatasetRoundTrip:
    def test_save_load_preserves_examples(self, tmp_path):
        data = [
            make_example(i, "change", "positive") for i in range(3)
        ] + [make_example(9, "no_change", None)]
        meta = {"task": "a", "seed": 0, "vocab_size": 100, "max_seq_len": 8}
        save_dataset_splits((data[:2], data[2:3], data[3:]), meta, tmp_path)
        got_meta, splits = load_dataset_splits(tmp_path)
        assert got_meta == meta
        assert list(splits) == ["train", "validation", "test"]
        assert [e.doc_id for e in splits["validation"]] == [data[2].doc_id]
        assert [e.doc_id for e in splits["train"]] == [e.doc_id for e in data[:2]]
        np.testing.assert_array_equal(
            splits["train"][0].input_ids, data[0].input_ids
        )
        assert splits["test"][0].task_b_label is None

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset_splits(tmp_path)


def test_derive_all_labels_sorts_by_ticker_and_skips_singletons():
    out = derive_all_labels({
        "B": series("B", (2015, 1, 1.0), (2015, 2, 2.0)),
        "A": series("A", (2015, 1, 1.0), (2015, 2, 1.0)),
        "C": series("C", (2015, 1, 1.0)),
    })
    assert [r.ticker for r in out] == ["A", "B"]
