"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import itertools
import math
import time
from collections import Counter
from functools import partial

import numpy as np

from esglm import data as data_mod
from esglm.baselines import (
    class_log_scores,
    fit_common_class,
    fit_naive_bayes,
    word_bag,
)
from esglm.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from esglm.cli import main as cli_main
from esglm.extract import (
    DanEmbedder,
    ExtractionConfig,
    SentenceEmbedding,
    embed_benchmarks,
    extract_top_k,
    segment_sentences,
)
from esglm.harness import (
    confusion, evaluate_all, format_report_markdown, Metrics, predict_labels,
    SplitMetrics,
)
from esglm.model import IGNORE_INDEX, ModelConfig, init_params
from esglm.pretrain import MaskingConfig, mask_batch
from esglm.synth import SynthSpec, run_replication_arm
from esglm.tokenizer import (
    UNK,
    UNK_ID,
    Vocab,
    encode,
    prepare_input,
    pretokenize,
    train_vocab,
)

from test_extract import score_sentences
from test_model import TINY, finite_difference_check, random_batch
from test_tokenizer import decode


def report(n, text):
    print(f"\n[criterion {n}] PASS - {text}")


def test_criterion_1_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(11)
    ids, mask = random_batch(rng, TINY)
    targets = np.where(
        (mask == 1) & (rng.random(ids.shape) < 0.4),
        rng.integers(5, TINY.vocab_size, size=ids.shape),
        IGNORE_INDEX,
    )
    targets[:, 0] = IGNORE_INDEX
    rel_mlm = finite_difference_check(
        TINY, (ids, mask, targets), "mlm", n_coords=100, step=1e-4
    )
    rel_cls = finite_difference_check(
        TINY, (ids, mask, np.array([0, 1])), "classify", n_coords=100, step=1e-4
    )
    elapsed = time.time() - started
    assert rel_mlm < 1e-4, f"mlm max rel error {rel_mlm}"
    assert rel_cls < 1e-4, f"classify max rel error {rel_cls}"
    assert elapsed < 30.0
    report(1, f"finite differences: mlm {rel_mlm:.2e}, classify {rel_cls:.2e}, "
              f"{elapsed:.1f}s")


def test_criterion_2_masking_statistics():
    vocab = Vocab.from_tokens(
        ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
        + [f"w{i}" for i in range(40)]
    )
    rng = np.random.default_rng(2)
    inputs = [
        prepare_input(rng.integers(5, len(vocab), size=60).tolist(), 64)
        for _ in range(300)
    ]
    originals = np.stack([e.ids for e in inputs])
    eligible_per_pass = sum(e.real_len - 2 for e in inputs)
    passes = math.ceil(100_000 / eligible_per_pass)
    n_elig = n_sel = n_mask = n_rand = n_keep = n_special_sel = 0
    for _ in range(passes):
        mb = mask_batch(inputs, vocab, MaskingConfig(), rng)
        sel = mb.targets != IGNORE_INDEX
        n_elig += eligible_per_pass
        n_sel += int(sel.sum())
        n_mask += int((mb.input_ids[sel] == 4).sum())
        keep = mb.input_ids[sel] == originals[sel]
        n_keep += int(keep.sum())
        n_rand += int((~keep & (mb.input_ids[sel] != 4)).sum())
        special = originals < 5  # PAD, CLS and SEP among them
        n_special_sel += int(sel[special].sum())
    assert n_elig >= 100_000
    sel_frac = n_sel / n_elig
    assert abs(sel_frac - 0.15) < 0.01
    assert abs(n_mask / n_sel - 0.8) < 0.02
    assert abs(n_rand / n_sel - 0.1) < 0.02
    assert abs(n_keep / n_sel - 0.1) < 0.02
    assert n_special_sel == 0
    report(2, f"{n_elig} eligible positions: selected {sel_frac:.4f}, "
              f"split {n_mask / n_sel:.3f}/{n_rand / n_sel:.3f}/{n_keep / n_sel:.3f}, "
              f"specials selected {n_special_sel}")


def test_criterion_3_input_length_contract(fixtures_dir, tmp_path):
    corpus = [
        p.read_text(encoding="utf-8")
        for p in sorted((fixtures_dir / "corpus").glob("*.txt"))
    ]
    n_words = sum(len(doc.split()) for doc in corpus)
    assert n_words >= 1000
    vocab = train_vocab(corpus, target_size=2000, min_freq=2)

    # round-trip law over the whole fixture corpus
    for doc in corpus:
        got = decode(encode(doc, vocab), vocab)
        want = " ".join(
            UNK if UNK_ID in encode(w, vocab) else w for w in pretokenize(doc)
        )
        assert got == want

    # dataset inputs at the default 512 with prefix-of-ones masks, built by
    # `esglm extract` + `esglm dataset` from an untrained checkpoint
    vocab.save(tmp_path / "vocab.txt")
    config = ModelConfig(vocab_size=len(vocab), hidden_dim=16, num_layers=1,
                         num_heads=1, ffn_dim=16, max_seq_len=512)
    save_checkpoint(init_params(config, seed=0), config,
                    CheckpointMeta(stage="fresh", seed=0), tmp_path / "init.ckpt")
    seq_len = tmp_path / "seq_len.cfg"
    seq_len.write_text("seq_len=512\n", encoding="utf-8")
    for step in (
        ["extract", "--config", str(seq_len),
         "--manifest", str(fixtures_dir / "filings.jsonl"),
         "--vocab", str(tmp_path / "vocab.txt"), "--ckpt", str(tmp_path / "init.ckpt"),
         "--out", str(tmp_path / "extracted.jsonl")],
        ["dataset", "--config", str(seq_len),
         "--extracted", str(tmp_path / "extracted.jsonl"),
         "--scores", str(fixtures_dir / "scores.csv"), "--task", "a",
         "--out", str(tmp_path / "data")],
    ):
        assert cli_main(step) == 0, f"stage {step[0]} failed"
    _, splits = data_mod.load_dataset_splits(tmp_path / "data")
    examples = [ex for split in splits.values() for ex in split]
    assert len(examples) >= 10
    for ex in examples:
        assert len(ex.input_ids) == 512
        mask = (ex.input_ids != 0).astype(int)
        assert mask.sum() == ex.real_len
        assert np.all(np.diff(mask) <= 0)  # prefix of ones
    report(3, f"{len(examples)} dataset inputs all exactly 512; round-trip "
              f"law held on {n_words} fixture words")


def test_criterion_4_extraction_oracle(fixtures_dir):
    filings = data_mod.load_manifest(fixtures_dir / "filings.jsonl")
    pool = [
        s.text for doc in filings for s in segment_sentences(doc.text)
    ]
    rng = np.random.default_rng(44)
    docs = [
        " ".join(rng.choice(pool, size=rng.integers(1, 51)).tolist())
        for _ in range(100)
    ]
    vocab = train_vocab(pool, target_size=1500, min_freq=1)
    embedder = DanEmbedder.from_token_embeddings(
        vocab, rng.normal(size=(len(vocab), 24)), seed=1
    )
    cfg = ExtractionConfig(top_k=3)

    class Scaled:
        def __init__(self, inner, factor):
            self.inner, self.factor = inner, factor
            self.vocab = inner.vocab

        def embed(self, text):
            e = self.inner.embed(text)
            return SentenceEmbedding(e.vector * self.factor, e.is_zero)

        def embed_batch(self, id_lists):
            vectors, zero = self.inner.embed_batch(id_lists)
            return vectors * self.factor, zero

    checked = 0
    for doc in docs:
        sentences = segment_sentences(doc)
        assert len(sentences) <= 50
        scores = score_sentences(sentences, cfg, embedder)
        oracle = sorted(range(len(sentences)), key=lambda i: (-scores[i], i))[:3]
        got = extract_top_k(doc, cfg, embedder, embed_benchmarks(cfg, embedder))
        assert [s.index for s in got.sentences] == oracle
        scaled = Scaled(embedder, 17.0)
        rescaled = extract_top_k(doc, cfg, scaled, embed_benchmarks(cfg, scaled))
        assert [s.index for s in rescaled.sentences] == oracle
        checked += 1
    report(4, f"{checked} documents matched the brute-force oracle, "
              f"selection invariant under x17 rescaling")


def test_criterion_5_baseline_exactness():
    # majority-share identity, including the published 0.6107 share
    fixtures = [
        ["no_change"] * 6107 + ["change"] * 3893,
        ["a"] * 3 + ["b"] * 2,
        ["x"] * 10,
        ["change", "no_change"],
    ]

    def train_accuracy(labels):  # scored as cmd_baseline scores a report row
        classes = sorted(set(labels))
        pred = classes.index(fit_common_class(labels))
        truth = [classes.index(y) for y in labels]
        return confusion([pred] * len(labels), truth).accuracy

    for labels in fixtures:
        acc = train_accuracy(labels)
        majority = max(Counter(labels).values()) / len(labels)
        assert abs(acc - majority) < 1e-12
    assert abs(train_accuracy(fixtures[0]) - 0.6107) < 1e-12

    # NB posteriors vs brute-force enumeration on small instances
    def brute(train, bag, alpha):
        classes = sorted({c for _, c in train})
        vocab = sorted({t for b, _ in train for t in b})
        out = {}
        for c in classes:
            docs_c = [b for b, label in train if label == c]
            n_c = sum(sum(b.values()) for b in docs_c)
            s = math.log(len(docs_c) / len(train))
            for t, n in bag.items():
                if t in vocab:
                    n_tc = sum(b[t] for b in docs_c)
                    s += n * math.log((n_tc + alpha) / (n_c + alpha * len(vocab)))
            out[c] = s
        return out

    texts = ["good good", "good bad", "bad bad", "bad good",
             "good ok", "ok ok bad", "bad ok", "good good good"]
    bags = [word_bag(t) for t in texts]
    instances = 0
    for n_docs in (2, 4, 6, 8):
        for labels in itertools.product("pq", repeat=n_docs):
            if len(set(labels)) < 2:
                continue
            train = list(zip(bags[:n_docs], labels))
            model = fit_naive_bayes(train, alpha=1.0)
            for probe in (word_bag("good"), word_bag("bad ok"), word_bag("good bad ok")):
                got = class_log_scores(model, probe)
                want = brute(train, probe, 1.0)
                for c in want:
                    assert abs(got[c] - want[c]) < 1e-12
            instances += 1
    report(5, f"majority identity exact on {len(fixtures)} fixtures; NB matched "
              f"enumeration on {instances} instances")


def test_criterion_6_directional_replication():
    started = time.time()
    results = [run_replication_arm(SynthSpec(), seed) for seed in range(5)]
    elapsed = time.time() - started
    fresh = float(np.mean([r.fresh_test_accuracy for r in results]))
    adapted = float(np.mean([r.adapted_test_accuracy for r in results]))
    gap = adapted - fresh
    smallest = min(results,
                   key=lambda r: r.adapted_test_accuracy - r.fresh_test_accuracy)
    smallest_gap = smallest.adapted_test_accuracy - smallest.fresh_test_accuracy
    assert gap >= 0.03, f"gap {gap:.3f} below 3 accuracy points"
    assert elapsed < 15 * 60
    report(6, f"5 seeds: adapted {adapted:.3f} vs fresh {fresh:.3f} "
              f"(gap {gap * 100:+.1f} points; smallest {smallest_gap * 100:+.1f} "
              f"points at seed {smallest.seed}) in {elapsed:.0f}s")


def test_criterion_7_label_derivation(fixtures_dir):
    scores = data_mod.load_scores(fixtures_dir / "scores_small.csv")
    # hand-enumerated from scores_small.csv:
    # AAA 10.0, 10.0, 12.5, 11.0, 11.0 -> deltas 0, +2.5, -1.5, 0
    # GAP 2015Q1 20.0 | (gap) | 2015Q3 21.0, 2015Q4 21.0 -> one delta 0
    expected_aaa = [
        (2015, 2, 0.0, "no_change", None),
        (2015, 3, 2.5, "change", "positive"),
        (2015, 4, -1.5, "change", "negative"),
        (2016, 1, 0.0, "no_change", None),
    ]
    got_aaa = [
        (r.year, r.quarter, r.delta, r.task_a_label, r.task_b_label)
        for r in data_mod.derive_labels(scores["AAA"])
    ]
    assert got_aaa == expected_aaa
    got_gap = [
        (r.year, r.quarter, r.delta, r.task_a_label, r.task_b_label)
        for r in data_mod.derive_labels(scores["GAP"])
    ]
    assert got_gap == [(2015, 4, 0.0, "no_change", None)]

    all_labels = data_mod.derive_all_labels(scores)
    stats = data_mod.eda_stats(all_labels, [1])
    assert stats.zero_delta_fraction == 3 / 5  # exact count: 3 zeros of 5
    report(7, f"labels matched the hand table; zero-delta fraction "
              f"{stats.zero_delta_fraction:.4f} (3 of 5)")


def _run_pipeline(fixtures_dir, out):
    cfg = str(fixtures_dir / "fixture.cfg")
    steps = [
        ["vocab", "--config", cfg, "--corpus", str(fixtures_dir / "corpus"),
         "--out", str(out / "vocab.txt")],
        ["pretrain", "--config", cfg, "--corpus", str(fixtures_dir / "corpus"),
         "--vocab", str(out / "vocab.txt"), "--out", str(out / "pre.ckpt")],
        ["extract", "--config", cfg,
         "--manifest", str(fixtures_dir / "filings.jsonl"),
         "--vocab", str(out / "vocab.txt"), "--ckpt", str(out / "pre.ckpt"),
         "--out", str(out / "extracted.jsonl")],
        ["dataset", "--config", cfg, "--extracted", str(out / "extracted.jsonl"),
         "--scores", str(fixtures_dir / "scores.csv"),
         "--task", "a", "--seed", "0", "--out", str(out / "data")],
        ["finetune", "--config", cfg, "--ckpt", str(out / "pre.ckpt"),
         "--data", str(out / "data"), "--task", "a",
         "--out", str(out / "fin.ckpt"), "--metrics", str(out / "m.json")],
        ["report", "--metrics", str(out / "m.json"), "--task", "a",
         "--out", str(out / "report")],
    ]
    for step in steps:
        assert cli_main(step) == 0, f"stage {step[0]} failed"


def test_criterion_8_determinism_and_persistence(fixtures_dir, tmp_path):
    started = time.time()
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    run_a.mkdir(), run_b.mkdir()
    _run_pipeline(fixtures_dir, run_a)
    _run_pipeline(fixtures_dir, run_b)
    elapsed = time.time() - started
    assert elapsed < 5 * 60
    for name in ("report_a.json", "report_a.md"):
        assert (run_a / "report" / name).read_bytes() == \
               (run_b / "report" / name).read_bytes(), f"{name} differs"

    # checkpoint round-trip: bit-exact tensors and unchanged evaluation
    params, config, meta = load_checkpoint(run_a / "fin.ckpt")
    again = tmp_path / "again.ckpt"
    save_checkpoint(params, config, meta, again)
    assert (run_a / "fin.ckpt").read_bytes() == again.read_bytes()
    reloaded, config2, _ = load_checkpoint(again)
    for name in params.tensors:
        assert np.array_equal(
            params[name].view(np.uint32), reloaded[name].view(np.uint32)
        )
    _, splits = data_mod.load_dataset_splits(run_a / "data")
    m1 = evaluate_all(partial(predict_labels, params, config), splits, "a",
                      "domain_lm", {})
    m2 = evaluate_all(partial(predict_labels, reloaded, config2), splits, "a",
                      "domain_lm", {})
    assert m1.to_dict() == m2.to_dict()
    report(8, f"two pipeline runs byte-identical in {elapsed:.0f}s; checkpoint "
              f"round-trip bit-exact and evaluation unchanged")


def test_criterion_9_report_fidelity(tmp_path):
    rows = [
        Metrics(model_name=name, task="a", splits={
            s: SplitMetrics(accuracy=a, n=100, tp=50, fp=10, tn=30, fn=10)
            for s, a in zip(("train", "validation", "test"), accs)
        })
        for name, accs in (
            ("common_class", (0.6107, 0.614, 0.5791)),
            ("base_lm", (0.6251, 0.6325, 0.5985)),
            ("domain_lm", (0.839, 0.7906, 0.6709)),
        )
    ]
    md = format_report_markdown(rows, "a")
    lines = md.splitlines()
    assert lines[0] == "| Model | Train Accuracy | Validation Accuracy | Test Accuracy |"
    assert lines[1] == "| --- | --- | --- | --- |"
    assert lines[2] == "| common_class | 0.6107 | 0.6140 | 0.5791 |"
    assert lines[4] == "| domain_lm | 0.8390 | 0.7906 | 0.6709 |"
    for line in lines[2:]:
        cells = [c.strip() for c in line.split("|")[2:-1]]
        assert len(cells) == 3
        for cell in cells:
            assert len(cell.split(".")[1]) == 4  # 4-decimal formatting
    report(9, "markdown table matches the published column structure with "
              "4-decimal accuracies")
