"""Tests of the benchmark's own code: the tracer and the input generator.

    python3 -m pytest -q bench

They run small passes in-process and take about half a minute.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import workloads  # puts the checkout's src/ and bench/ on sys.path first
import layertrace
import paper_inputs
import run as bench_run

from esglm import extract, harness, model, pretrain, synth, tokenizer

SMALL_SYNTH = synth.SynthSpec(corpus_docs=24, n_train=16, n_val=8, n_test=8)


def fixture_pass(tmp_path: Path, traced: bool):
    made = workloads.setup("fixture_cli", 0, tmp_path)
    inp = tmp_path / "in"
    out = tmp_path / ("traced" if traced else "plain")
    out.mkdir()
    checks = workloads.Checks()
    with layertrace.Tracer(None if traced else {}) as tracer:
        res = workloads.cli_pass(inp, out, inp / "fixture.cfg", checks)
    return made, res, checks, tracer.take()


def small_replication(traced: bool):
    with layertrace.Tracer(None if traced else layertrace.STAGES) as tracer:
        result = synth.run_replication_arm(SMALL_SYNTH, 0)
    return result, tracer.take()


# ------------------------------------------------------------------ tracer

def test_tracer_wraps_every_binding_and_restores_it():
    originals = {
        (mod, name): getattr(mod, name)
        for mod, name in [
            (model, "compute_gradients"), (pretrain, "compute_gradients"),
            (harness, "compute_gradients"), (tokenizer, "encode"),
            (pretrain, "encode"), (extract, "encode"), (model, "gelu"),
            (extract, "gelu"), (synth, "run_pretraining"),
        ]
    }
    with layertrace.Tracer():
        for (mod, name), fn in originals.items():
            wrapped = getattr(mod, name)
            assert wrapped is not fn and wrapped.__wrapped__ is fn, (mod, name)
    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn


def test_stage_tracer_wraps_only_the_stage_bindings():
    with layertrace.Tracer(layertrace.STAGES):
        assert hasattr(synth.train_vocab, "__wrapped__")
        assert hasattr(harness.run_finetune, "__wrapped__")
        assert not hasattr(tokenizer.train_vocab, "__wrapped__")
        assert not hasattr(model.gelu, "__wrapped__")


def test_self_time_excludes_wrapped_children():
    _, data = small_replication(traced=True)
    key = ("model", "compute_gradients", "pretrain")
    span = data.spans[key]
    assert span.calls > 0 and 0.0 < span.self_s < span.total_s


def test_gelu_is_attributed_to_the_binding_it_went_through(tmp_path):
    *_, data = fixture_pass(tmp_path, traced=True)
    assert data.calls("model", "gelu", "model") > 0
    assert data.calls("model", "gelu", "extract") > 0
    metrics = layertrace.layer_metrics(data, 1)
    assert metrics["model.gelu_s"][0] > 0 and metrics["extract.gelu_s"][0] > 0
    assert metrics["model.gelu_s"][0] + metrics["extract.gelu_s"][0] == pytest.approx(
        data.total("model", "gelu"))


def test_exceptions_are_counted_once_in_the_innermost_layer():
    with layertrace.Tracer() as tracer:
        with pytest.raises(Exception):
            tokenizer.prepare_input([1, 2, 3], max_seq_len=1)
        with pytest.raises(Exception):
            pretrain.run_pretraining([], None, None, None, None, None)
    data = tracer.take()
    assert data.layer_errors("tokenizer") == 1
    assert data.layer_errors("pretrain") == 1


# names each workload must call, as (layer, function, binding or None)
HIT_ON_CLI = [
    ("cli", "main", None), ("tokenizer", "train_vocab", "cli"),
    ("tokenizer", "encode", "extract"), ("tokenizer", "encode", "cli"),
    ("pretrain", "run_pretraining", "cli"), ("pretrain", "window_corpus", "pretrain"),
    ("pretrain", "mask_batch", "pretrain"), ("model", "compute_gradients", "pretrain"),
    ("model", "compute_gradients", "harness"), ("model", "forward_mlm", "model"),
    ("model", "encoder_forward", "model"), ("model", "encoder_backward", "model"),
    ("model", "gelu_grad", "model"), ("optim", "adam_step", "pretrain"),
    ("optim", "adam_step", "harness"), ("extract", "segment_sentences", "extract"),
    ("extract", "segment_sentences", "cli"), ("extract", "dan_embed", "extract"),
    # cli calls these as data.<name> and baselines.<name>
    ("data", "load_manifest", "data"), ("data", "split_dataset", "data"),
    ("data", "save_dataset_splits", "data"), ("data", "load_dataset_splits", "data"),
    ("baselines", "fit_naive_bayes", "baselines"), ("baselines", "predict", "baselines"),
    ("checkpoint", "save_checkpoint", "cli"), ("checkpoint", "load_checkpoint", "cli"),
    ("harness", "run_finetune", "cli"), ("harness", "predict_labels", "harness"),
    ("harness", "emit_report", "cli"),
]
HIT_ON_REPLICATION = [
    ("synth", "run_replication_arm", "synth"), ("synth", "generate", "synth"),
    ("synth", "as_labeled_examples", "synth"), ("tokenizer", "train_vocab", "synth"),
    ("tokenizer", "encode", "synth"), ("pretrain", "run_pretraining", "synth"),
    ("harness", "run_finetune", "harness"), ("harness", "evaluate_all", "harness"),
    ("model", "compute_gradients", "pretrain"), ("model", "compute_gradients", "harness"),
    ("model", "gelu", "model"), ("model", "gelu_grad", "model"),
    ("optim", "adam_step", "harness"),
]


def test_each_wrapped_name_is_hit_on_the_cli_workload(tmp_path):
    *_, data = fixture_pass(tmp_path, traced=True)
    missing = [k for k in HIT_ON_CLI if data.calls(*k) == 0]
    assert not missing


def test_each_wrapped_name_is_hit_on_the_replication_workload():
    with layertrace.Tracer() as tracer:
        synth.run_replication_arm(SMALL_SYNTH, 0)
    data = tracer.take()
    missing = [k for k in HIT_ON_REPLICATION if data.calls(*k) == 0]
    assert not missing
    assert data.calls("extract", "dan_embed") == 0  # no extraction here


def test_traced_and_untraced_passes_write_identical_reports(tmp_path):
    _, plain, plain_checks, _ = fixture_pass(tmp_path / "a", traced=False)
    _, traced, traced_checks, _ = fixture_pass(tmp_path / "b", traced=True)
    assert plain["digest"] is not None
    assert plain["digest"] == traced["digest"]
    assert plain_checks.failed == traced_checks.failed == 0


def test_traced_and_untraced_replication_agree():
    plain, stages = small_replication(traced=False)
    traced, _ = small_replication(traced=True)
    assert (plain.fresh_test_accuracy, plain.adapted_test_accuracy,
            plain.pretrain_trace) == (traced.fresh_test_accuracy,
                                      traced.adapted_test_accuracy,
                                      traced.pretrain_trace)
    assert stages.total("pretrain", "run_pretraining", "synth") > 0
    assert len(stages.args["run_finetune"]) == 2


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _, data = small_replication(traced=True)
    passes = [{"traced": t, "gap_pts": 50.0, "stages": {"total_s": 1.0}}
              for t in (False, True)]
    made = bench_run.per_layer({"passes": passes,
                                "layers": layertrace.layer_metrics(data, 1)})
    assert {k: u for k, (_, u) in made.items()} == declared
    e2e = bench_run.end_to_end(
        [{"traced": False, "train_tokens": 10,
          "stages": dict.fromkeys(bench_run.STAGES + ("total_s",), 1.0)}],
        0.5, 100.0)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


# --------------------------------------------------------------- generator

def test_generator_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    fixtures = workloads.tree_sha256(workloads.ROOT / "fixtures")
    a = paper_inputs.generate(tmp_path / "a", 5)
    b = paper_inputs.generate(tmp_path / "b", 5)
    c = paper_inputs.generate(tmp_path / "c", 6)
    assert a == b
    assert c["sha256"] != a["sha256"]
    for shape in ("mlm_windows", "filings", "sentences"):
        assert a[shape] == c[shape]
    assert c["corpus_words"] == pytest.approx(a["corpus_words"], rel=0.01)
    assert workloads.tree_sha256(workloads.ROOT / "fixtures") == fixtures
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
        "corpus", "filings", "filings.jsonl", "paper.cfg", "scores.csv"]


def test_generator_has_the_paper_shapes(tmp_path):
    info = paper_inputs.generate(tmp_path, 3)
    corpus = pretrain.load_corpus_dir(tmp_path / "corpus")
    vocab = tokenizer.train_vocab(corpus, target_size=8000, min_freq=2)
    windows = pretrain.window_corpus(corpus, vocab, 512)
    assert len(vocab) >= 1900
    assert len(windows) == info["mlm_windows"]
    assert all(w.real_len == 512 for w in windows)
    assert info["sentences"] == info["filings"] * paper_inputs.SENTENCES_PER_FILING
    text = next((tmp_path / "filings").iterdir()).read_text(encoding="utf-8")
    lengths = [len(tokenizer.encode(s.text, vocab))
               for s in extract.segment_sentences(text)]
    assert len(lengths) >= 200
    assert 3 * min(lengths) + 2 >= 70 and 3 * max(lengths) + 2 <= 104
