"""Package-wide checks over the source tree itself."""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "patchqa"
CALLER_FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
                       *(ROOT / "perfbench").glob("*.py")])


def referenced_names() -> Counter:
    """How often each identifier is read across ``CALLER_FILES``: loaded names,
    attribute names and imported names. Definitions (``def``, ``class``,
    assignment targets) and the strings of ``__all__`` do not count."""
    counts = Counter()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.ImportFrom):
                counts.update(alias.name for alias in node.names)
    return counts


def test_every_export_has_a_caller():
    counts = referenced_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "patchqa" if path.stem == "__init__" else f"patchqa.{path.stem}"
        exported = getattr(importlib.import_module(module), "__all__", ())
        unused += [f"{module}.{name}" for name in exported if not counts[name]]
    assert unused == [], "exported, but nothing in src/, scripts/ or perfbench/ uses it"


def test_every_public_method_has_a_caller():
    counts = referenced_names()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            unused += [f"{path.stem}.{cls.name}.{node.name}" for node in cls.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and not node.name.startswith("_") and not counts[node.name]]
    assert unused == [], "public method, but nothing in src/, scripts/ or perfbench/ calls it"


def test_every_import_is_read():
    stale = []
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            stale += [f"{path.relative_to(ROOT)}: {name}" for name in bound if name not in read]
    assert stale == [], "imported, but never read in the importing module"
