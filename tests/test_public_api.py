"""Every function and class in src/esglm, and every public method, has a
caller outside tests/."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "esglm"
CALLER_DIRS = (SRC, ROOT / "bench", ROOT / "scripts")


def _uses(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each identifier appears in tree as a name, an attribute, an
    imported name, or a string constant spelled as an identifier
    (bench/layertrace.py wraps functions by module and name).  A method is
    reached only as an attribute or by name in a string, so attributes_only
    skips plain and imported names."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias) and not attributes_only:
            found[node.name] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


def _trees(directory: Path):
    # the package's __init__ only re-exports: that is not a caller
    return [ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(directory.glob("*.py")) if p.name != "__init__.py"]


def _callers(attributes_only: bool = False) -> Counter:
    return sum((_uses(t, attributes_only) for d in CALLER_DIRS for t in _trees(d)),
               Counter())


def unused_names(private: bool = False) -> list[str]:
    """module.name of each public top-level def or class in src/esglm, or
    each private one given private, that nothing in src/, bench/ or scripts/
    refers to outside its own body."""
    uses = _callers()
    if private:  # __init__ re-exports no private name: a use there is a call
        uses += _uses(ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and uses[node.name] == _uses(node)[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def unused_public_methods() -> list[str]:
    """module.Class.method of each public method of a public class in
    src/esglm (dunders aside) that nothing in src/, bench/ or scripts/
    reaches as an attribute or a string outside its own body."""
    uses = _callers(attributes_only=True)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")
                        and uses[node.name] == _uses(node, attributes_only=True)[node.name]):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_names() == []


def test_every_private_name_has_a_caller_outside_the_tests():
    assert unused_names(private=True) == []


def test_every_public_method_has_a_caller_outside_the_tests():
    assert unused_public_methods() == []

