import json
import zlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return REPO_ROOT / "fixtures"


@pytest.fixture(scope="session")
def pipeline_run(fixtures_dir, tmp_path_factory):
    """One shared fixture-pipeline run: vocab through dataset."""
    from esglm.cli import main

    out = tmp_path_factory.mktemp("pipeline")
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
        ["dataset", "--config", cfg,
         "--extracted", str(out / "extracted.jsonl"),
         "--scores", str(fixtures_dir / "scores.csv"),
         "--task", "a", "--seed", "0", "--out", str(out / "data")],
    ]
    for step in steps:
        assert main(step) == 0, f"pipeline step failed: {step[0]}"
    return out


@pytest.fixture(scope="session")
def edit_checkpoint_metadata():
    """edit(path, change): apply change to a format 2 checkpoint's metadata
    JSON in place and reseal its CRC32, so the edit reaches the reader."""
    def edit(path, change):
        raw = Path(path).read_bytes()
        end = 12 + int.from_bytes(raw[8:12], "little")
        doc = json.loads(raw[12:end])
        change(doc)
        meta = json.dumps(doc).encode("utf-8")
        body = raw[:8] + len(meta).to_bytes(4, "little") + meta + raw[end:-4]
        Path(path).write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    return edit
