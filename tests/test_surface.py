"""The public surface is the paper's objects, the verifiers and the CLI:
every name `aconst/__init__.py` exports has a caller in the package outside
its own definition, in the acceptance criteria, or in README.md."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aconst"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def text_without_definition(path, name):
    """The module's text less the top-level statement that defines name."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    for node in ast.parse(source).body:
        targets = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
        if name in targets:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            del lines[start - 1 : node.end_lineno]
    return "".join(lines)


def test_every_export_has_a_caller_or_is_documented():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    documented = (ROOT / "tests" / "test_acceptance.py").read_text() + (ROOT / "README.md").read_text()
    uncalled = []
    for name in exported_names():
        word = re.compile(rf"\b{re.escape(name)}\b")
        texts = [text_without_definition(p, name) for p in modules] + [documented]
        if not any(word.search(t) for t in texts):
            uncalled.append(name)
    assert not uncalled, f"exported with no caller outside its definition: {uncalled}"
