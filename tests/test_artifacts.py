import ast
import json
from pathlib import Path

import pytest

import esglm
from esglm.artifacts import read_json, read_jsonl, typed, write_json, write_jsonl
from esglm.errors import DuplicateError, InvalidInput, ParseError

SRC = Path(esglm.__file__).resolve().parent


class TestAtomicWrites:
    def test_failed_write_keeps_previous_bytes_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"old bytes\n")

        def records():
            yield {"a": 1}
            raise RuntimeError("stage failed mid-stream")

        with pytest.raises(RuntimeError):
            write_jsonl(path, records())
        assert path.read_bytes() == b"old bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("stale", encoding="utf-8")
        write_json(path, {"b": [1, 2], "a": None})
        assert path.read_text(encoding="utf-8") == (
            '{\n  "a": null,\n  "b": [\n    1,\n    2\n  ]\n}\n'
        )
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestReaders:
    def test_read_json_wants_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ParseError, match="expected a JSON object"):
            read_json(path, dict)

    def test_read_jsonl_names_the_line(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"x": 1}\n\n{"y": 2}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="recs.jsonl: line 3: KeyError"):
            read_jsonl(path, lambda rec: rec["x"])

    def test_read_jsonl_names_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_bytes(b'{"x": 1}\n{"x": "\xff"}\n')
        with pytest.raises(ParseError, match="line 2"):
            read_jsonl(path, dict)

    def test_read_json_names_a_file_that_is_not_utf8(self, tmp_path):
        # without dumping the file's bytes, as UnicodeDecodeError's repr would
        path = tmp_path / "meta.json"
        path.write_bytes(b'{"x": "\xff' + b"y" * 100 + b'"}')
        with pytest.raises(ParseError, match="meta.json: not UTF-8 text: ") as exc:
            read_json(path, dict)
        assert "yyyy" not in str(exc.value)

    def test_read_jsonl_keeps_data_error_type(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        path.write_text('{"x": 1}\n{"x": 1}\n', encoding="utf-8")
        seen = set()

        def parse(rec):
            if rec["x"] in seen:
                raise DuplicateError("duplicate")
            seen.add(rec["x"])

        with pytest.raises(DuplicateError, match="line 2: duplicate"):
            read_jsonl(path, parse)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        recs = [{"b": 2, "a": 1}, {"c": [3]}]
        write_jsonl(path, iter(recs))
        assert path.read_text(encoding="utf-8") == (
            '{"a": 1, "b": 2}\n{"c": [3]}\n'
        )
        assert read_jsonl(path, dict) == recs


@pytest.mark.parametrize("kind, text, ok", [
    (int, "1", True), (int, "true", False), (int, "1.0", False),
    (int, '"1"', False), (int, "null", False),
    (float, "1", True), (float, "0.5", True), (float, "true", False),
    (float, '"0.5"', False), (float, "NaN", False), (float, "Infinity", False),
    (float, "1e400", False), (float, "1" + "0" * 400, False),
    (str, '"a"', True), (str, "5", False),
    ((str, type(None)), "null", True), ((str, type(None)), '"a"', True),
    ((str, type(None)), "false", False),
    (list[int], "[1, 2]", True), (list[int], "[1.9]", False),
    (list[int], "[true]", False), (list[int], '{"0": 1}', False),
])
def test_typed_takes_exactly_its_kind(kind, text, ok):
    rec = json.loads(f'{{"k": {text}}}')
    if ok:
        assert typed(rec, "k", kind) is rec["k"]
    else:
        with pytest.raises(InvalidInput, match="^k must be .*, got "):
            typed(rec, "k", kind)


def test_typed_names_a_missing_key():
    with pytest.raises(InvalidInput, match="^k is missing$"):
        typed({"j": 1}, "k", int)


def _writes(tree: ast.AST) -> list[int]:
    """Line numbers of open(..., write mode), .write_text( and .write_bytes(."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
        if name in ("write_text", "write_bytes"):
            found.append(node.lineno)
        elif name == "open":
            # open(path, mode) or path.open(mode); a mode that is not a
            # literal could be a write mode
            pos = 1 if isinstance(fn, ast.Name) else 0
            modes = node.args[pos:pos + 1] + [
                k.value for k in node.keywords if k.arg == "mode"]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                found.append(node.lineno)
    return sorted(found)


def _module_writes(path: Path) -> list[int]:
    return _writes(ast.parse(path.read_text(encoding="utf-8")))


def test_only_the_artifacts_module_opens_files_for_writing():
    offenders = {
        path.name: _module_writes(path)
        for path in sorted(SRC.glob("*.py")) if path.name != "artifacts.py"
    }
    assert {name: lines for name, lines in offenders.items() if lines} == {}
    assert _module_writes(SRC / "artifacts.py")  # the finder still sees a write


def test_write_finder_sees_each_form():
    src = ("open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\np.write_text('x')\n"
           "p.write_bytes(b'')\np.open('w')\n"
           "open(p)\nopen(p, 'rb')\nopen(p, newline='')\np.open()\np.open('r')\n")
    assert _writes(ast.parse(src)) == [1, 2, 3, 4, 5, 6]

