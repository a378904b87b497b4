"""Every public function and class in src/esglm has a caller outside tests/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "esglm"
CALLER_DIRS = (SRC, ROOT / "bench", ROOT / "scripts")


def _uses(tree: ast.AST) -> Counter:
    """How often each identifier appears in tree as a name, an attribute, an
    imported name, or a string constant spelled as an identifier
    (bench/layertrace.py wraps functions by module and name)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


def _trees(directory: Path):
    # the package's __init__ only re-exports: that is not a caller
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(directory.glob("*.py")) if p.name != "__init__.py"]


def unused_public_names() -> list[str]:
    """module.name of each public top-level def or class in src/esglm that
    nothing in src/, bench/ or scripts/ refers to outside its own body."""
    uses = sum((_uses(t) for d in CALLER_DIRS for t in _trees(d)), Counter())
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and uses[node.name] == _uses(node)[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []

