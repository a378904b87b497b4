import ctypes
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import esglm
from esglm import baselines
from esglm.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from esglm.cli import PipelineConfig, load_config, main
from esglm.data import TASK_CLASSES, load_manifest
from esglm.extract import segment_sentences
from esglm.harness import confusion
from esglm.tokenizer import Vocab, encode

SPLIT_FILES = {"train": "train", "validation": "val", "test": "test"}


def run_cli(*argv):
    """Run the esglm command in a fresh interpreter, as a user would."""
    env = dict(os.environ)
    src = str(Path(esglm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "esglm.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def assert_data_error(proc):
    assert proc.returncode == 2, proc.stderr
    assert "esglm: error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def rewrite_jsonl(path, edit, every=False):
    """Apply edit to the first record of a JSON Lines file, or to every
    record, in place."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in range(len(lines) if every else 1):
        rec = json.loads(lines[i])
        edit(rec)
        lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def realloc_faults(prelude: str) -> int:
    """Minor page faults taken to allocate 12 MiB again after freeing it, in
    a fresh interpreter that first runs prelude."""
    code = (
        "import resource, numpy as np\n" + prelude +
        "a = np.ones(3 << 20, np.float32); del a\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "b = np.ones(3 << 20, np.float32)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
    env = dict(os.environ)
    src = str(Path(esglm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def copy_data(pipeline_run, tmp_path):
    return Path(shutil.copytree(pipeline_run / "data", tmp_path / "data"))


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.seq_len == 512
        assert cfg.lr == 2e-5
        assert cfg.eps == 1e-8
        assert cfg.epochs == 8
        assert cfg.batch == 8
        assert cfg.mask_rate == 0.15
        assert cfg.top_k == 3

    def test_parses_overrides_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment line\n"
            "seq_len=64   # trailing comment\n"
            "lr=0.001\n"
            "group_by_ticker=true\n"
            "\n",
            encoding="utf-8",
        )
        cfg = load_config(str(path))
        assert cfg.seq_len == 64
        assert cfg.lr == 0.001
        assert cfg.group_by_ticker is True
        assert cfg.epochs == 8  # untouched default

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("learning_rate=0.1\n", encoding="utf-8")
        code = main(["vocab", "--config", str(path), "--corpus", "x",
                     "--out", "y"])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_exit_1(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs=lots\n", encoding="utf-8")
        assert main(["vocab", "--config", str(path), "--corpus", "x",
                     "--out", "y"]) == 1

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    @pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)
                                     if isinstance(f.default, float)])
    def test_non_finite_float_exit_1(self, tmp_path, capsys, key, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"epochs=2\n{key}={value}\n", encoding="utf-8")
        assert main(["vocab", "--config", str(path), "--corpus", "x",
                     "--out", "y"]) == 1
        err = capsys.readouterr().err
        assert f"esglm: error: {path}: line 2: bad value {value!r} for {key}" in err


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["dataset", "--task", "c", "--extracted", "x",
                     "--scores", "y", "--out", "z"]) == 1

    def test_missing_required_flag_is_1(self):
        assert main(["vocab", "--corpus", "somewhere"]) == 1

    def test_data_error_is_2(self, tmp_path):
        assert main(["vocab", "--corpus", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "v.txt")]) == 2

    def test_bad_checkpoint_is_2(self, tmp_path, fixtures_dir):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"XXXX not a checkpoint")
        code = main(["extract", "--manifest",
                     str(fixtures_dir / "filings.jsonl"),
                     "--vocab", str(tmp_path / "nonexistent-vocab.txt"),
                     "--ckpt", str(bad), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_oversized_checkpoint_record_is_2(self, tmp_path, capsys):
        # one record whose dims promise 2**64 floats, in an otherwise valid file
        meta = json.dumps({"model_config": {
            "vocab_size": 8, "hidden_dim": 4, "num_layers": 1, "num_heads": 1,
            "ffn_dim": 4}, "stage": "finetuned_a", "seed": 0}).encode()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"ESGB" + (1).to_bytes(4, "little")
                        + len(meta).to_bytes(4, "little") + meta
                        + (1).to_bytes(4, "little") + (7).to_bytes(4, "little")
                        + b"tok_emb" + bytes([0, 2]) + b"\xff" * 8)
        assert main(["evaluate", "--ckpt", str(bad),
                     "--data", str(tmp_path / "data"),
                     "--metrics", str(tmp_path / "m.json")]) == 2
        assert "esglm: error:" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="needs glibc's mallopt")
    def test_stage_reuses_freed_memory(self):
        # by default, a fresh process maps the first 12 MiB block, returns it
        # to the OS when it is freed, and faults in new heap pages for the next
        assert realloc_faults(
            "from esglm.cli import main\n"
            "main(['vocab'])  # a usage error, after the stage's set-up\n") < 100

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="needs glibc's mallopt")
    def test_library_import_reuses_freed_memory(self):
        # importing the package pins the thresholds on a path that never
        # reaches cli.main, as synth.run_replication_arm's callers take
        assert realloc_faults(
            "import sys, esglm.synth\n"
            "assert 'esglm.cli' not in sys.modules\n") < 100

    def test_baseline_task_must_match_the_dataset(self, pipeline_run, tmp_path,
                                                  capsys):
        m = tmp_path / "m.json"
        args = ["baseline", "--data", str(pipeline_run / "data"),
                "--model", "common", "--metrics", str(m)]
        assert main([*args, "--task", "b"]) == 2  # the dataset is task a
        assert "built for task 'a', not 'b'" in capsys.readouterr().err
        assert not m.exists()
        assert main([*args, "--task", "a"]) == 0
        assert json.loads(m.read_text())["task"] == "a"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_is_3(self, pipeline_run, tmp_path, fixtures_dir):
        from esglm.checkpoint import load_checkpoint, save_checkpoint

        params, config, meta = load_checkpoint(pipeline_run / "pre.ckpt")
        params["tok_emb"][:] = 1e38  # drives the loss to overflow
        poisoned = tmp_path / "poisoned.ckpt"
        save_checkpoint(params, config, meta, poisoned)
        code = main(["finetune", "--config", str(fixtures_dir / "fixture.cfg"),
                     "--ckpt", str(poisoned),
                     "--data", str(pipeline_run / "data"), "--task", "a",
                     "--out", str(tmp_path / "f.ckpt"),
                     "--metrics", str(tmp_path / "m.json")])
        assert code == 3


class TestConfigValues:
    """Config values that no stage can run with fail with exit 1, never a
    traceback, and before any training."""

    def config(self, tmp_path, fixtures_dir, *overrides):
        path = tmp_path / "bad.cfg"
        path.write_text((fixtures_dir / "fixture.cfg").read_text(encoding="utf-8")
                        + "".join(f"{o}\n" for o in overrides), encoding="utf-8")
        return str(path)

    def assert_config_error(self, code, capsys):
        err = capsys.readouterr().err
        assert code == 1, err
        assert "esglm: error:" in err
        return err

    def test_min_freq_below_one(self, tmp_path, fixtures_dir, capsys):
        code = main(["vocab", "--config",
                     self.config(tmp_path, fixtures_dir, "min_freq=0"),
                     "--corpus", str(fixtures_dir / "corpus"),
                     "--out", str(tmp_path / "vocab.txt")])
        assert "min_freq" in self.assert_config_error(code, capsys)
        assert not (tmp_path / "vocab.txt").exists()

    @pytest.mark.parametrize("overrides", [
        ("seq_len=2",), ("seed=-1",), ("mask_prob=nan",),
        ("mask_prob=1.5", "random_prob=-0.6"),
    ])
    def test_pretrain(self, overrides, pipeline_run, tmp_path, fixtures_dir,
                      capsys):
        code = main(["pretrain", "--config",
                     self.config(tmp_path, fixtures_dir, *overrides),
                     "--corpus", str(fixtures_dir / "corpus"),
                     "--vocab", str(pipeline_run / "vocab.txt"),
                     "--out", str(tmp_path / "pre.ckpt")])
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "pre.ckpt").exists()

    def test_negative_dan_seed(self, pipeline_run, tmp_path, fixtures_dir, capsys):
        code = main(["extract", "--config",
                     self.config(tmp_path, fixtures_dir, "dan_seed=-1"),
                     "--manifest", str(fixtures_dir / "filings.jsonl"),
                     "--vocab", str(pipeline_run / "vocab.txt"),
                     "--ckpt", str(pipeline_run / "pre.ckpt"),
                     "--out", str(tmp_path / "x.jsonl")])
        self.assert_config_error(code, capsys)

    def test_negative_dan_dim(self, pipeline_run, tmp_path, fixtures_dir, capsys):
        code = main(["extract", "--config",
                     self.config(tmp_path, fixtures_dir, "dan_dim=-1"),
                     "--manifest", str(fixtures_dir / "filings.jsonl"),
                     "--vocab", str(pipeline_run / "vocab.txt"),
                     "--ckpt", str(pipeline_run / "pre.ckpt"),
                     "--out", str(tmp_path / "x.jsonl")])
        self.assert_config_error(code, capsys)
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("overrides", [
        ("delta_bins=0",), ("sentlen_bin_width=0",), ("change_epsilon=-1",),
        ("split_mode=temporal", "group_by_ticker=true"),
    ])
    def test_dataset(self, overrides, pipeline_run, tmp_path, fixtures_dir,
                     capsys):
        code = main(["dataset", "--config",
                     self.config(tmp_path, fixtures_dir, *overrides),
                     "--extracted", str(pipeline_run / "extracted.jsonl"),
                     "--scores", str(fixtures_dir / "scores.csv"),
                     "--task", "a", "--out", str(tmp_path / "d")])
        err = self.assert_config_error(code, capsys)
        assert overrides[-1].split("=")[0] in err
        assert not (tmp_path / "d").exists()

    def test_negative_split_seed(self, pipeline_run, tmp_path, fixtures_dir, capsys):
        code = main(["dataset", "--config", str(fixtures_dir / "fixture.cfg"),
                     "--extracted", str(pipeline_run / "extracted.jsonl"),
                     "--scores", str(fixtures_dir / "scores.csv"),
                     "--task", "a", "--seed", "-1", "--out", str(tmp_path / "d")])
        self.assert_config_error(code, capsys)

    def test_negative_seed_for_a_fresh_model(self, pipeline_run, tmp_path,
                                             fixtures_dir, capsys):
        code = main(["finetune", "--config",
                     self.config(tmp_path, fixtures_dir, "seed=-1"), "--fresh",
                     "--data", str(pipeline_run / "data"), "--task", "a",
                     "--out", str(tmp_path / "f.ckpt"),
                     "--metrics", str(tmp_path / "m.json")])
        self.assert_config_error(code, capsys)


class TestPipelineArtifacts:
    def test_vocab_file_has_specials_first(self, pipeline_run):
        lines = (pipeline_run / "vocab.txt").read_text().splitlines()
        assert lines[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]

    def test_extracted_lines_carry_schema(self, pipeline_run):
        with open(pipeline_run / "extracted.jsonl", encoding="utf-8") as fh:
            rec = json.loads(next(fh))
        assert set(rec) >= {"doc_id", "selected", "token_count"}
        assert all(set(s) == {"index", "score", "text"} for s in rec["selected"])
        assert len(rec["selected"]) <= 3
        assert rec["token_count"] >= 1

    def test_dataset_dir_contents(self, pipeline_run):
        data = pipeline_run / "data"
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "meta.json",
                     "eda.json", "delta_hist.csv", "sentlen_hist.csv"):
            assert (data / name).exists(), name
        meta = json.loads((data / "meta.json").read_text())
        assert meta["task"] == "a"
        assert meta["join"]["unmatched_filings"] == 2  # JNX + post-gap DLT

    def test_finetune_then_evaluate_round_trip(self, pipeline_run, tmp_path,
                                               fixtures_dir):
        cfg = str(fixtures_dir / "fixture.cfg")
        fin = tmp_path / "fin.ckpt"
        m1 = tmp_path / "m1.json"
        assert main(["finetune", "--config", cfg,
                     "--ckpt", str(pipeline_run / "pre.ckpt"),
                     "--data", str(pipeline_run / "data"), "--task", "a",
                     "--out", str(fin), "--metrics", str(m1)]) == 0
        m2 = tmp_path / "m2.json"
        assert main(["evaluate", "--ckpt", str(fin),
                     "--data", str(pipeline_run / "data"),
                     "--metrics", str(m2)]) == 0
        a = json.loads(m1.read_text())["splits"]
        b = json.loads(m2.read_text())["splits"]
        assert a == b  # defined-behaviour: save/load does not move accuracy

        report_dir = tmp_path / "report"
        assert main(["report", "--metrics", str(m1), str(m2), "--task", "a",
                     "--out", str(report_dir)]) == 0
        md = (report_dir / "report_a.md").read_text().splitlines()
        assert md[0] == "| Model | Train Accuracy | Validation Accuracy | Test Accuracy |"

    def test_finetune_needs_exactly_one_init_source(self, pipeline_run):
        assert main(["finetune", "--data", str(pipeline_run / "data"),
                     "--task", "a", "--out", "x", "--metrics", "y"]) == 1

    def test_finetune_rejects_finetuned_checkpoint(self, pipeline_run,
                                                   tmp_path, fixtures_dir):
        cfg = str(fixtures_dir / "fixture.cfg")
        fin = tmp_path / "fin.ckpt"
        assert main(["finetune", "--config", cfg,
                     "--ckpt", str(pipeline_run / "pre.ckpt"),
                     "--data", str(pipeline_run / "data"), "--task", "a",
                     "--out", str(fin), "--metrics", str(tmp_path / "m.json")]) == 0
        assert main(["finetune", "--config", cfg, "--ckpt", str(fin),
                     "--data", str(pipeline_run / "data"), "--task", "a",
                     "--out", str(tmp_path / "again.ckpt"),
                     "--metrics", str(tmp_path / "m2.json")]) == 2

    def test_evaluate_rejects_pretrained_stage(self, pipeline_run, tmp_path):
        assert main(["evaluate", "--ckpt", str(pipeline_run / "pre.ckpt"),
                     "--data", str(pipeline_run / "data"),
                     "--metrics", str(tmp_path / "m.json")]) == 2

    def test_evaluate_rejects_a_dataset_of_the_other_task(self, pipeline_run,
                                                          tmp_path, capsys):
        params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
        fin = tmp_path / "fin_b.ckpt"
        save_checkpoint(params, config, CheckpointMeta(stage="finetuned_b", seed=0),
                        fin)
        assert main(["evaluate", "--ckpt", str(fin),
                     "--data", str(pipeline_run / "data"),
                     "--metrics", str(tmp_path / "m.json")]) == 2
        assert "built for task 'a', not 'b'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_baseline_models(self, pipeline_run, tmp_path):
        for model in ("common", "nb"):
            out = tmp_path / f"{model}.json"
            assert main(["baseline", "--data", str(pipeline_run / "data"),
                         "--model", model, "--metrics", str(out)]) == 0
            doc = json.loads(out.read_text())
            for split in ("train", "validation", "test"):
                sm = doc["splits"][split]
                assert sm["tp"] + sm["fp"] + sm["tn"] + sm["fn"] == sm["n"]

    def test_task_b_dataset_keeps_changed_quarters_only(self, pipeline_run,
                                                        tmp_path, fixtures_dir):
        out = tmp_path / "data_b"
        assert main(["dataset", "--config", str(fixtures_dir / "fixture.cfg"),
                     "--extracted", str(pipeline_run / "extracted.jsonl"),
                     "--scores", str(fixtures_dir / "scores.csv"),
                     "--task", "b", "--seed", "0", "--out", str(out)]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["task"] == "b"
        for name in ("train", "val", "test"):
            with open(out / f"{name}.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    assert rec["task_a_label"] == "change"
                    assert rec["task_b_label"] in ("positive", "negative")
                    assert rec["delta"] != 0.0

    def test_report_rejects_task_mismatch(self, pipeline_run, tmp_path):
        m = tmp_path / "m.json"
        assert main(["baseline", "--data", str(pipeline_run / "data"),
                     "--model", "common", "--metrics", str(m)]) == 0
        assert main(["report", "--metrics", str(m), "--task", "b",
                     "--out", str(tmp_path / "r")]) == 2

    def test_extracted_sentence_lengths_feed_eda(self, pipeline_run, fixtures_dir):
        vocab = Vocab.load(pipeline_run / "vocab.txt")
        bodies = {d.doc_id: d.text
                  for d in load_manifest(fixtures_dir / "filings.jsonl")}
        total = 0
        with open(pipeline_run / "extracted.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                want = [len(encode(s.text, vocab))
                        for s in segment_sentences(bodies[rec["doc_id"]])]
                assert rec["sentence_token_lengths"] == want
                total += len(want)
        eda = json.loads((pipeline_run / "data" / "eda.json").read_text())
        assert eda["n_sentences"] == total


def hand_count(preds, labels, pos):
    return {
        "tp": sum(p == t == pos for p, t in zip(preds, labels)),
        "fp": sum(p == pos != t for p, t in zip(preds, labels)),
        "tn": sum(p == t != pos for p, t in zip(preds, labels)),
        "fn": sum(t == pos != p for p, t in zip(preds, labels)),
    }


@pytest.mark.parametrize("task,pos", [("a", "change"), ("b", "positive")])
def test_baselines_count_the_task_positive_class(pipeline_run, tmp_path,
                                                 fixtures_dir, task, pos):
    data = tmp_path / "data"
    assert main(["dataset", "--config", str(fixtures_dir / "fixture.cfg"),
                 "--extracted", str(pipeline_run / "extracted.jsonl"),
                 "--scores", str(fixtures_dir / "scores.csv"),
                 "--task", task, "--seed", "0", "--out", str(data)]) == 0
    key = f"task_{task}_label"
    rows = {}
    for split, stem in SPLIT_FILES.items():
        with open(data / f"{stem}.jsonl", encoding="utf-8") as fh:
            rows[split] = [json.loads(line) for line in fh]
    train_labels = [r[key] for r in rows["train"]]
    majority = baselines.fit_common_class(train_labels)
    nb = baselines.fit_naive_bayes(
        [(baselines.word_bag(r["text"]), r[key]) for r in rows["train"]]
    )
    predictors = {
        "common": lambda r: majority,
        "nb": lambda r: baselines.predict(nb, baselines.word_bag(r["text"])),
    }
    for model, predict in predictors.items():
        out = tmp_path / f"{model}.json"
        assert main(["baseline", "--data", str(data), "--model", model,
                     "--metrics", str(out)]) == 0
        got = json.loads(out.read_text())["splits"]
        for split, recs in rows.items():
            preds, labels = [predict(r) for r in recs], [r[key] for r in recs]
            want = hand_count(preds, labels, pos)
            assert {k: got[split][k] for k in want} == want, (model, split)
            # the whole row, as confusion scores it over class indexes
            classes = TASK_CLASSES[task]
            row = confusion([classes.index(p) for p in preds],
                            [classes.index(y) for y in labels])
            assert got[split] == asdict(row), (model, split)


class TestMalformedRecords:
    def test_extracted_line_without_ticker(self, pipeline_run, tmp_path,
                                           fixtures_dir):
        extracted = tmp_path / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)
        rewrite_jsonl(extracted, lambda rec: rec.pop("ticker"))
        proc = run_cli("dataset", "--extracted", extracted,
                       "--scores", fixtures_dir / "scores.csv", "--task", "a",
                       "--out", tmp_path / "data")
        assert_data_error(proc)
        assert "line 1" in proc.stderr

    def test_split_line_without_label(self, pipeline_run, tmp_path):
        data = copy_data(pipeline_run, tmp_path)
        rewrite_jsonl(data / "val.jsonl", lambda rec: rec.pop("task_a_label"))
        proc = run_cli("baseline", "--data", data, "--model", "common",
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "val.jsonl: line 1" in proc.stderr

    def test_split_line_with_unknown_label(self, pipeline_run, tmp_path):
        data = copy_data(pipeline_run, tmp_path)
        rewrite_jsonl(data / "train.jsonl",
                      lambda rec: rec.update(task_a_label="maybe"))
        proc = run_cli("baseline", "--data", data, "--model", "common",
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "train.jsonl: line 1" in proc.stderr
        assert "'maybe'" in proc.stderr

    def test_split_with_ragged_input_ids(self, pipeline_run, tmp_path):
        params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
        fin = tmp_path / "fin.ckpt"
        save_checkpoint(params, config, CheckpointMeta(stage="finetuned_a", seed=0),
                        fin)
        data = copy_data(pipeline_run, tmp_path)

        def cut(rec):
            rec["input_ids"] = rec["input_ids"][:100]
        rewrite_jsonl(data / "test.jsonl", cut)
        proc = run_cli("evaluate", "--ckpt", fin, "--data", data,
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "test split" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate"])
    @pytest.mark.parametrize("input_ids", [[], [[2, 3], [0, 0]]],
                             ids=["empty", "nested"])
    def test_split_with_malformed_input_ids(self, pipeline_run, tmp_path,
                                            fixtures_dir, command, input_ids):
        data = copy_data(pipeline_run, tmp_path)
        rewrite_jsonl(data / "train.jsonl",
                      lambda rec: rec.update(input_ids=input_ids), every=True)
        if command == "finetune":
            args = ("--config", fixtures_dir / "fixture.cfg", "--fresh",
                    "--task", "a", "--out", tmp_path / "f.ckpt")
        else:
            params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
            fin = tmp_path / "fin.ckpt"
            save_checkpoint(params, config,
                            CheckpointMeta(stage="finetuned_a", seed=0), fin)
            args = ("--ckpt", fin)
        proc = run_cli(command, *args, "--data", data,
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "train.jsonl: line 1" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda rec: rec["input_ids"].__setitem__(1, 0),
        lambda rec: rec.update(real_len=999),
    ], ids=["pad_in_body", "real_len_past_the_ids"])
    def test_split_padding_disagrees_with_real_len(self, pipeline_run, tmp_path,
                                                    edit):
        params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
        fin = tmp_path / "fin.ckpt"
        save_checkpoint(params, config, CheckpointMeta(stage="finetuned_a", seed=0),
                        fin)
        data = copy_data(pipeline_run, tmp_path)
        rewrite_jsonl(data / "test.jsonl", edit)
        proc = run_cli("evaluate", "--ckpt", fin, "--data", data,
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "test.jsonl: line 1" in proc.stderr
        assert not (tmp_path / "m.json").exists()

    def test_extracted_line_with_empty_input_ids(self, pipeline_run, tmp_path,
                                                 fixtures_dir):
        extracted = tmp_path / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)
        rewrite_jsonl(extracted, lambda rec: rec.update(input_ids=[]))
        proc = run_cli("dataset", "--extracted", extracted,
                       "--scores", fixtures_dir / "scores.csv", "--task", "a",
                       "--out", tmp_path / "data")
        assert_data_error(proc)
        assert f"{extracted}: line 1" in proc.stderr

    @pytest.mark.parametrize("edit", [
        lambda rec: rec["input_ids"].__setitem__(1, rec["input_ids"][1] + 0.5),
        lambda rec: rec.update(real_len=float(rec["real_len"])),
    ], ids=["fractional_id", "float_real_len"])
    def test_extracted_line_with_numbers_that_are_not_integers(
            self, pipeline_run, tmp_path, fixtures_dir, capsys, edit):
        # an id of 1.5 used to be cut to 1, [UNK], with exit 0
        extracted = tmp_path / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)
        rewrite_jsonl(extracted, edit)
        code = main(["dataset", "--extracted", str(extracted),
                     "--scores", str(fixtures_dir / "scores.csv"), "--task", "a",
                     "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"esglm: error: {extracted}: line 1: input_ids ")
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("edit", [
        lambda rec: rec["input_ids"].__setitem__(1, rec["input_ids"][1] + 0.9),
        lambda rec: rec.update(real_len=float(rec["real_len"])),
    ], ids=["fractional_id", "float_real_len"])
    def test_split_line_with_numbers_that_are_not_integers(
            self, pipeline_run, tmp_path, capsys, edit):
        # an id of 2.9 used to load as 2, and a real_len of 88.0 as a float
        data = copy_data(pipeline_run, tmp_path)
        rewrite_jsonl(data / "train.jsonl", edit)
        code = main(["baseline", "--data", str(data), "--model", "common",
                     "--metrics", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(
            f"esglm: error: {data / 'train.jsonl'}: line 1: input_ids ")
        assert not (tmp_path / "m.json").exists()

    def test_extracted_lines_of_different_lengths(self, pipeline_run, tmp_path,
                                                  fixtures_dir):
        extracted = tmp_path / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)

        def cut(rec):
            rec["input_ids"] = rec["input_ids"][: rec["real_len"] + 1]
        rewrite_jsonl(extracted, cut)
        proc = run_cli("dataset", "--extracted", extracted,
                       "--scores", fixtures_dir / "scores.csv", "--task", "a",
                       "--out", tmp_path / "data")
        assert_data_error(proc)
        assert f"{extracted}: line 2" in proc.stderr
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("edit, line, key", [
        (lambda rec: rec.update(vocab_size="100"), 1, "vocab_size"),
        (lambda rec: rec.update(vocab_size=0), 1, "vocab_size"),
        (lambda rec: rec.update(vocab_size=True), 1, "vocab_size"),
        (lambda rec: rec.pop("vocab_size"), 1, "vocab_size"),
        (lambda rec: rec.update(vocab_size=rec["vocab_size"] + 1), 2, "vocab_size"),
        (lambda rec: rec.pop("sentence_token_lengths"), 1, "sentence_token_lengths"),
    ], ids=["text", "zero", "bool", "missing", "differs", "no_sentence_lengths"])
    def test_extracted_vocab_size_and_sentence_lengths(
            self, pipeline_run, tmp_path, fixtures_dir, capsys, edit, line, key):
        extracted = tmp_path / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)
        rewrite_jsonl(extracted, edit)
        code = main(["dataset", "--extracted", str(extracted),
                     "--scores", str(fixtures_dir / "scores.csv"), "--task", "a",
                     "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"esglm: error: {extracted}: line {line}: ")
        assert key in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("key", ["vocab_size", "max_seq_len"])
    def test_meta_json_null(self, pipeline_run, tmp_path, capsys, key):
        data = copy_data(pipeline_run, tmp_path)
        meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
        meta[key] = None
        (data / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        code = main(["baseline", "--data", str(data), "--model", "common",
                     "--metrics", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("esglm: error:")
        assert "meta.json" in err and key in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("task", [None, "c", ["a"]],
                             ids=["missing", "unknown", "list"])
    def test_meta_json_task(self, pipeline_run, tmp_path, capsys, task):
        # no task used to score the dataset as task a
        data = copy_data(pipeline_run, tmp_path)
        meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
        if task is None:
            del meta["task"]
        else:
            meta["task"] = task
        (data / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        code = main(["baseline", "--data", str(data), "--model", "common",
                     "--metrics", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"esglm: error: {data / 'meta.json'}: task ")
        assert not (tmp_path / "m.json").exists()

    def test_metrics_without_task(self, pipeline_run, tmp_path):
        m = tmp_path / "m.json"
        assert main(["baseline", "--data", str(pipeline_run / "data"),
                     "--model", "common", "--metrics", str(m)]) == 0
        doc = json.loads(m.read_text())
        del doc["task"]
        m.write_text(json.dumps(doc))
        proc = run_cli("report", "--metrics", m, "--task", "a",
                       "--out", tmp_path / "r")
        assert_data_error(proc)

    @pytest.mark.parametrize("edit", [
        lambda splits: splits.pop("validation"),
        lambda splits: splits["train"].update(accuracy="high"),
    ], ids=["no_validation", "text_accuracy"])
    def test_malformed_metrics_splits(self, pipeline_run, tmp_path, edit):
        m = tmp_path / "m.json"
        assert main(["baseline", "--data", str(pipeline_run / "data"),
                     "--model", "common", "--metrics", str(m)]) == 0
        doc = json.loads(m.read_text())
        edit(doc["splits"])
        m.write_text(json.dumps(doc))
        proc = run_cli("report", "--metrics", m, "--task", "a",
                       "--out", tmp_path / "r")
        assert_data_error(proc)
        assert not (tmp_path / "r").exists()


def test_failed_extract_leaves_previous_output(pipeline_run, tmp_path,
                                               fixtures_dir):
    lines = (fixtures_dir / "filings.jsonl").read_text(encoding="utf-8").splitlines()
    first, second = (json.loads(line) for line in lines[:2])
    shutil.copy(fixtures_dir / first["path"], tmp_path / "first.txt")
    (tmp_path / "blank.txt").write_text("  \n\t\n", encoding="utf-8")
    manifest = tmp_path / "filings.jsonl"
    manifest.write_text(
        json.dumps({**first, "path": "first.txt"}) + "\n"
        + json.dumps({**second, "path": "blank.txt"}) + "\n", encoding="utf-8")
    out = tmp_path / "extracted.jsonl"
    out.write_bytes(b"previous run\n")
    proc = run_cli("extract", "--config", fixtures_dir / "fixture.cfg",
                   "--manifest", manifest, "--vocab", pipeline_run / "vocab.txt",
                   "--ckpt", pipeline_run / "pre.ckpt", "--out", out)
    assert_data_error(proc)
    assert out.read_bytes() == b"previous run\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "blank.txt", "extracted.jsonl", "filings.jsonl", "first.txt"]


def test_sentence_without_known_token_scores_null(pipeline_run, tmp_path,
                                                  fixtures_dir):
    # its score is -inf, which JSON cannot hold: the line must stay valid JSON
    (tmp_path / "f.txt").write_text("€€ ¥¥ ¥", encoding="utf-8")
    manifest = tmp_path / "filings.jsonl"
    manifest.write_text(json.dumps(
        {"ticker": "ZZZ", "year": 2015, "quarter": 1, "path": "f.txt"}) + "\n",
        encoding="utf-8")
    out = tmp_path / "extracted.jsonl"
    assert main(["extract", "--config", str(fixtures_dir / "fixture.cfg"),
                 "--manifest", str(manifest),
                 "--vocab", str(pipeline_run / "vocab.txt"),
                 "--ckpt", str(pipeline_run / "pre.ckpt"), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    (rec,) = [json.loads(line, parse_constant=reject)
              for line in out.read_text(encoding="utf-8").splitlines()]
    assert rec["selected"] == [{"index": 0, "score": None, "text": "€€ ¥¥ ¥"}]


class TestEmptySplit:
    """No model command scores or trains on a dataset with an empty split,
    and the dataset stage never writes one."""

    @pytest.mark.parametrize("command", ["baseline", "finetune"])
    def test_empty_test_split(self, pipeline_run, tmp_path, fixtures_dir, command):
        data = copy_data(pipeline_run, tmp_path)
        (data / "test.jsonl").write_text("", encoding="utf-8")
        if command == "baseline":
            args = ("--model", "common")
        else:
            args = ("--config", fixtures_dir / "fixture.cfg", "--fresh",
                    "--task", "a", "--out", tmp_path / "f.ckpt")
        proc = run_cli(command, *args, "--data", data,
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "test split is empty" in proc.stderr
        assert "epoch" not in proc.stdout  # rejected before any training
        assert not (tmp_path / "m.json").exists()

    def test_dataset_refuses_to_write_an_empty_split(self, pipeline_run, tmp_path,
                                                    fixtures_dir):
        cfg = tmp_path / "temporal.cfg"
        cfg.write_text((fixtures_dir / "fixture.cfg").read_text(encoding="utf-8")
                       + "split_mode=temporal\n", encoding="utf-8")
        proc = run_cli("dataset", "--config", cfg,
                       "--extracted", pipeline_run / "extracted.jsonl",
                       "--scores", fixtures_dir / "scores.csv", "--task", "a",
                       "--split", "0.98,0.01,0.01", "--out", tmp_path / "data")
        assert_data_error(proc)
        assert "leave the test split empty" in proc.stderr
        assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("split, named", [
    ("nan,0.5,0.5", "[nan, 0.5, 0.5]"), ("inf,0.5,0.5", "sum to inf"),
])
def test_dataset_rejects_a_split_fraction_that_is_not_finite(
        pipeline_run, tmp_path, fixtures_dir, capsys, split, named):
    code = main(["dataset", "--extracted", str(pipeline_run / "extracted.jsonl"),
                 "--scores", str(fixtures_dir / "scores.csv"), "--task", "a",
                 "--split", split, "--out", str(tmp_path / "data")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("esglm: error:") and named in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("key, value", [
    ("max_seq_len", None), ("max_seq_len", "128"), ("max_seq_len", 0),
    ("vocab_size", None), ("vocab_size", "100"),
])
def test_fresh_finetune_rejects_a_malformed_meta_json(
        pipeline_run, tmp_path, fixtures_dir, capsys, key, value):
    data = copy_data(pipeline_run, tmp_path)
    meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
    if value is None:
        del meta[key]
    else:
        meta[key] = value
    (data / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    code = main(["finetune", "--config", str(fixtures_dir / "fixture.cfg"),
                 "--fresh", "--data", str(data), "--task", "a",
                 "--out", str(tmp_path / "f.ckpt"),
                 "--metrics", str(tmp_path / "m.json")])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("esglm: error:")
    assert "meta.json" in captured.err and key in captured.err
    assert "epoch" not in captured.out  # rejected before any training
    assert not (tmp_path / "m.json").exists()


class TestMalformedVocabAndCheckpoint:
    @pytest.mark.parametrize("command", ["pretrain", "extract"])
    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:3],
        lambda lines: lines + [lines[-1]],
    ], ids=["three_lines", "duplicate_token"])
    def test_vocab_file(self, pipeline_run, tmp_path, fixtures_dir, capsys,
                        command, edit):
        lines = (pipeline_run / "vocab.txt").read_text(encoding="utf-8").splitlines()
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        common = ["--config", str(fixtures_dir / "fixture.cfg"),
                  "--vocab", str(vocab), "--out", str(tmp_path / "out")]
        if command == "pretrain":
            args = ["--corpus", str(fixtures_dir / "corpus")]
        else:
            args = ["--manifest", str(fixtures_dir / "filings.jsonl"),
                    "--ckpt", str(pipeline_run / "pre.ckpt")]
        code = main([command, *common, *args])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"esglm: error: vocab file {vocab}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", [None, 5])
    def test_checkpoint_stage_not_text(self, pipeline_run, tmp_path, capsys,
                                       stage):
        params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(params, config, CheckpointMeta(stage=stage, seed=0), bad)
        code = main(["evaluate", "--ckpt", str(bad),
                     "--data", str(pipeline_run / "data"),
                     "--metrics", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "esglm: error:" in err and "bad metadata" in err


class TestTokenIdRange:
    def test_evaluate_rejects_id_beyond_vocab(self, pipeline_run, tmp_path):
        params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
        fin = tmp_path / "fin.ckpt"
        save_checkpoint(params, config, CheckpointMeta(stage="finetuned_a", seed=0),
                        fin)
        data = copy_data(pipeline_run, tmp_path)

        def overflow(rec):
            rec["input_ids"][1] = 99999
        rewrite_jsonl(data / "test.jsonl", overflow)
        proc = run_cli("evaluate", "--ckpt", fin, "--data", data,
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "99999" in proc.stderr

    def test_finetune_rejects_negative_id(self, pipeline_run, tmp_path,
                                          fixtures_dir):
        data = copy_data(pipeline_run, tmp_path)

        def negative(rec):
            rec["input_ids"][1] = -3
        rewrite_jsonl(data / "train.jsonl", negative)
        proc = run_cli("finetune", "--config", fixtures_dir / "fixture.cfg",
                       "--ckpt", pipeline_run / "pre.ckpt", "--data", data,
                       "--task", "a", "--out", tmp_path / "f.ckpt",
                       "--metrics", tmp_path / "m.json")
        assert_data_error(proc)
        assert "-3" in proc.stderr
        assert not (tmp_path / "f.ckpt").exists()


class TestNotUtf8:
    """A text input holding a byte that is not UTF-8 names the file, exit 2."""

    def test_vocab_file(self, pipeline_run, tmp_path, fixtures_dir):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes((pipeline_run / "vocab.txt").read_bytes() + b"\xff\n")
        proc = run_cli("pretrain", "--config", fixtures_dir / "fixture.cfg",
                       "--corpus", fixtures_dir / "corpus", "--vocab", vocab,
                       "--out", tmp_path / "pre.ckpt")
        assert_data_error(proc)
        assert str(vocab) in proc.stderr
        assert not (tmp_path / "pre.ckpt").exists()

    def test_scores_file(self, pipeline_run, tmp_path, fixtures_dir):
        scores = tmp_path / "scores.csv"
        scores.write_bytes((fixtures_dir / "scores.csv").read_bytes() + b"\xff\n")
        proc = run_cli("dataset", "--extracted", pipeline_run / "extracted.jsonl",
                       "--scores", scores, "--task", "a", "--out", tmp_path / "data")
        assert_data_error(proc)
        assert str(scores) in proc.stderr

    def test_config_file(self, tmp_path, fixtures_dir):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes((fixtures_dir / "fixture.cfg").read_bytes() + b"# \xff\n")
        proc = run_cli("vocab", "--config", cfg, "--corpus", fixtures_dir / "corpus",
                       "--out", tmp_path / "vocab.txt")
        assert_data_error(proc)
        assert str(cfg) in proc.stderr

    def test_corpus_document(self, tmp_path, fixtures_dir):
        corpus = tmp_path / "corpus"
        shutil.copytree(fixtures_dir / "corpus", corpus)
        bad = corpus / "doc999.txt"
        bad.write_bytes(b"emissions fell \xff in the quarter\n")
        proc = run_cli("vocab", "--config", fixtures_dir / "fixture.cfg",
                       "--corpus", corpus, "--out", tmp_path / "vocab.txt")
        assert_data_error(proc)
        assert str(bad) in proc.stderr
        assert not (tmp_path / "vocab.txt").exists()


def test_pretrain_with_nothing_to_predict_fails_without_checkpoint(
        pipeline_run, tmp_path, fixtures_dir):
    cfg = tmp_path / "nomask.cfg"
    cfg.write_text((fixtures_dir / "fixture.cfg").read_text(encoding="utf-8")
                   + "mask_rate=0.0\n", encoding="utf-8")
    proc = run_cli("pretrain", "--config", cfg, "--corpus", fixtures_dir / "corpus",
                   "--vocab", pipeline_run / "vocab.txt", "--out", tmp_path / "pre.ckpt")
    assert_data_error(proc)
    assert "epoch 1" in proc.stderr
    assert not (tmp_path / "pre.ckpt").exists()
