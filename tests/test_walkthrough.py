"""The README walkthrough writes the bytes checked in as fixtures/walkthrough.sha256."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "walkthrough_digest.py"


@pytest.fixture(scope="module")
def walkthrough_digest():
    spec = importlib.util.spec_from_file_location("walkthrough_digest", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_walkthrough_keeps_the_checked_in_bytes(walkthrough_digest, tmp_path):
    want = walkthrough_digest.DIGEST.read_text().splitlines()
    header = [line for line in want if line.startswith("#")]
    machine = walkthrough_digest.machine_header()
    if header != machine:
        pytest.skip(f"digest taken on {header}, this machine is {machine}")
    got = walkthrough_digest.digest_lines(tmp_path)
    moved = walkthrough_digest.moved_lines(want, got)
    assert not moved, f"{len(moved)} digest lines moved: {moved}"
    assert got == want  # the same lines, in the same order


def test_moved_lines_names_changed_missing_and_new_lines(walkthrough_digest):
    want = ["# numpy 1", "aa  out/x", "bb  out/y", "cc  out/z"]
    got = ["# numpy 2", "aa  out/x", "bd  out/y", "dd  out/w"]
    assert walkthrough_digest.moved_lines(want, got) == ["out/w", "out/y", "out/z"]


def test_a_failed_step_exits_with_its_own_code(walkthrough_digest, tmp_path,
                                               monkeypatch, capsys):
    # vocab over a corpus with no documents is an input error: exit 2
    monkeypatch.setattr(walkthrough_digest, "walkthrough_steps", lambda fix: [
        ("vocab", ["vocab", "--config", f"{fix}/fixture.cfg", "--corpus", "missing",
                   "--out", "out/vocab.txt"])])
    assert walkthrough_digest.main([str(tmp_path)]) == 2
    assert "step vocab exited with 2" in capsys.readouterr().err
    assert walkthrough_digest.main([str(tmp_path)]) == 1  # out/ already exists
