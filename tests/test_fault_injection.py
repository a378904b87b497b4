"""Fault injection: every JSON input of every CLI stage, with one field set
to a value of a JSON kind it does not take, or dropped, exits 2 with
"esglm: error:".

The fields are the ones a stage reads.  Fields that are only carried along
(token_count and selected[].index and .score in an extracted line; seed,
fractions, change_epsilon, counts and join in meta.json) are left out.
Each case runs cli.main in-process on a copy of the pipeline_run outputs.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esglm.checkpoint import CheckpointMeta, load_checkpoint, save_checkpoint
from esglm.cli import main

DROP = object()  # the fault that removes the field

# a value of each JSON kind; "float" is a finite non-integer number
VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "nonfinite": st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers() | st.text(max_size=3), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
INTEGER, NUMBER, TEXT = {"int"}, {"int", "float"}, {"str"}
ARRAY, OBJECT = {"list"}, {"object"}

MANIFEST = {("ticker",): TEXT, ("year",): INTEGER, ("quarter",): INTEGER,
            ("path",): TEXT}
EXTRACTED = {
    ("doc_id",): TEXT, ("ticker",): TEXT, ("year",): INTEGER,
    ("quarter",): INTEGER, ("selected",): ARRAY, ("selected", 0, "text"): TEXT,
    ("input_ids",): ARRAY, ("input_ids", 1): INTEGER, ("real_len",): INTEGER,
    ("sentence_token_lengths",): ARRAY, ("sentence_token_lengths", 0): INTEGER,
    ("vocab_size",): INTEGER,
}
SPLIT_LINE = {
    ("doc_id",): TEXT, ("ticker",): TEXT, ("year",): INTEGER,
    ("quarter",): INTEGER, ("delta",): NUMBER, ("task_a_label",): TEXT,
    ("task_b_label",): TEXT | {"null"}, ("text",): TEXT, ("input_ids",): ARRAY,
    ("input_ids", 1): INTEGER, ("real_len",): INTEGER,
}
META = {("vocab_size",): INTEGER, ("max_seq_len",): INTEGER, ("task",): TEXT}
METRICS = {("model_name",): TEXT, ("task",): TEXT, ("splits",): OBJECT,
           ("config",): OBJECT}
for split in ("train", "validation", "test"):
    METRICS[("splits", split)] = OBJECT
    METRICS[("splits", split, "accuracy")] = NUMBER
    for count in ("n", "tp", "fp", "tn", "fn"):
        METRICS[("splits", split, count)] = INTEGER
CHECKPOINT = {("model_config",): OBJECT, ("stage",): TEXT, ("seed",): INTEGER,
              ("train_config",): OBJECT | {"null"},
              ("model_config", "dropout_rate"): NUMBER}
for dim in ("vocab_size", "hidden_dim", "num_layers", "num_heads", "ffn_dim",
            "max_seq_len"):
    CHECKPOINT[("model_config", dim)] = INTEGER


def faults(fields):
    """(path, value): a field of fields set to a value of a kind it does not
    take, or, for a key rather than a list item, dropped."""
    def wrong(item):
        path, kinds = item
        values = [VALUES[k] for k in VALUES if k not in kinds]
        if isinstance(path[-1], str):
            values.append(st.just(DROP))
        return st.tuples(st.just(path), st.one_of(values))
    return st.sampled_from(sorted(fields.items(), key=repr)).flatmap(wrong)


def inject(doc, fault):
    path, value = fault
    for key in path[:-1]:
        doc = doc[key]
    if value is DROP:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


def edit_first_line(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    edit(rec)
    path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n",
                    encoding="utf-8")


def assert_refused(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("esglm: error:"), err.getvalue()
    assert "Traceback" not in err.getvalue()


FAULTS = settings(max_examples=25, deadline=None, derandomize=True,
                  database=None)


@pytest.fixture(scope="module")
def inputs(pipeline_run, tmp_path_factory):
    """A metrics JSON and a finetuned checkpoint to inject into."""
    out = tmp_path_factory.mktemp("fault_inputs")
    assert main(["baseline", "--data", str(pipeline_run / "data"),
                 "--model", "common", "--metrics", str(out / "m.json")]) == 0
    params, config, _ = load_checkpoint(pipeline_run / "pre.ckpt")
    save_checkpoint(params, config, CheckpointMeta(stage="finetuned_a", seed=0),
                    out / "fin.ckpt")
    return out


@FAULTS
@given(faults(MANIFEST))
def test_manifest_line(pipeline_run, fixtures_dir, fault):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "filings.jsonl"
        shutil.copy(fixtures_dir / "filings.jsonl", manifest)

        def edit(rec):
            rec["path"] = str(fixtures_dir / rec["path"])
            inject(rec, fault)
        edit_first_line(manifest, edit)
        assert_refused(["extract", "--config", fixtures_dir / "fixture.cfg",
                        "--manifest", manifest,
                        "--vocab", pipeline_run / "vocab.txt",
                        "--ckpt", pipeline_run / "pre.ckpt",
                        "--out", Path(tmp) / "extracted.jsonl"])


@FAULTS
@given(faults(EXTRACTED))
def test_extracted_line(pipeline_run, fixtures_dir, fault):
    with tempfile.TemporaryDirectory() as tmp:
        extracted = Path(tmp) / "extracted.jsonl"
        shutil.copy(pipeline_run / "extracted.jsonl", extracted)
        edit_first_line(extracted, lambda rec: inject(rec, fault))
        assert_refused(["dataset", "--extracted", extracted,
                        "--scores", fixtures_dir / "scores.csv", "--task", "a",
                        "--out", Path(tmp) / "data"])


def _baseline_on(pipeline_run, edit) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(shutil.copytree(pipeline_run / "data", Path(tmp) / "data"))
        edit(data)
        assert_refused(["baseline", "--data", data, "--model", "nb",
                        "--metrics", Path(tmp) / "m.json"])


@FAULTS
@given(faults(SPLIT_LINE))
def test_split_line(pipeline_run, fault):
    _baseline_on(pipeline_run, lambda data: edit_first_line(
        data / "train.jsonl", lambda rec: inject(rec, fault)))


@FAULTS
@given(st.text(min_size=1, max_size=8), st.one_of(list(VALUES.values())))
def test_split_line_with_an_unknown_key(pipeline_run, key, value):
    # a key LabeledExample lacks is refused, not dropped
    if (key,) in SPLIT_LINE:
        key += "_extra"
    _baseline_on(pipeline_run, lambda data: edit_first_line(
        data / "val.jsonl", lambda rec: rec.update({key: value})))


@FAULTS
@given(faults(META))
def test_meta_json(pipeline_run, fault):
    def edit(data):
        meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
        inject(meta, fault)
        (data / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    _baseline_on(pipeline_run, edit)


@FAULTS
@given(faults(METRICS))
def test_metrics_json(inputs, fault):
    with tempfile.TemporaryDirectory() as tmp:
        doc = json.loads((inputs / "m.json").read_text(encoding="utf-8"))
        inject(doc, fault)
        metrics = Path(tmp) / "m.json"
        metrics.write_text(json.dumps(doc), encoding="utf-8")
        assert_refused(["report", "--metrics", metrics, "--task", "a",
                        "--out", Path(tmp) / "report"])


@FAULTS
@given(faults(CHECKPOINT))
def test_checkpoint_metadata(pipeline_run, inputs, edit_checkpoint_metadata,
                             fault):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "fin.ckpt"
        shutil.copy(inputs / "fin.ckpt", ckpt)
        edit_checkpoint_metadata(ckpt, lambda doc: inject(doc, fault))
        assert_refused(["evaluate", "--ckpt", ckpt, "--data", pipeline_run / "data",
                        "--metrics", Path(tmp) / "m.json"])
