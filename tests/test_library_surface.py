"""Every public function and class of the library has a caller outside the
tests: the library itself, the CLI, ``verify`` or the benchmark.  An oracle
that only tests call belongs in the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "qensemble").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "bench").glob("*.py"))


def _public_definitions() -> dict[str, str]:
    """{name: module} of every top-level public def and class."""
    out = {}
    for path in LIBRARY:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.stem
    return out


def _referenced_names() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_referenced_outside_the_tests():
    definitions = _public_definitions()
    assert definitions, "no public definitions found"
    referenced = _referenced_names()
    unused = sorted(f"{mod}.{name}" for name, mod in definitions.items() if name not in referenced)
    assert not unused, f"public names with no caller in src/qensemble or bench: {unused}"
