"""Package-wide checks over the source tree itself."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


RUNTIME_IMPORTS = r'''
import json
import sys
import sysconfig
from pathlib import Path

import numpy

before = set(sys.modules)
from patchqa import cli, synth

work = Path(sys.argv[1])
corpus, model = str(work / "corpus.jsonl"), str(work / "model.ckpt")
synth.write_keyword_corpus(corpus, n_bugs=8, seed=1, patches_per_bug=1)
fast = ["--epochs", "1", "--hidden", "4", "--max-len", "16", "--hash-dim", "8"]
for argv in (["crossval", "--dataset", corpus, "--k", "2", "--out", str(work / "cv"), *fast],
             ["train", "--dataset", corpus, "--model-out", model, *fast],
             ["evaluate", "--model", model, "--dataset", corpus, "--out", str(work / "eval")],
             ["predict", "--model", model, "--bug-text", "crash on empty input",
              "--description", "guard against empty input"],
             ["hypothesis", "--dataset", corpus],
             ["ingest", "--dataset", corpus]):
    assert cli.main(argv) == 0, argv

paths = sysconfig.get_paths()
third_party = [Path(paths[name]).resolve() for name in ("purelib", "platlib")]
stdlib = [Path(paths[name]).resolve() for name in ("stdlib", "platstdlib")]
allowed = [Path(numpy.__file__).resolve().parent, Path(cli.__file__).resolve().parent]
foreign = []
for name in sorted(set(sys.modules) - before):
    file = getattr(sys.modules[name], "__file__", None)
    if file is None:  # built-in or generated, e.g. numpy.random's cython_runtime
        continue
    path = Path(file).resolve()
    if any(path.is_relative_to(root) for root in allowed):
        continue
    if (any(path.is_relative_to(root) for root in stdlib)
            and not any(path.is_relative_to(root) for root in third_party)):
        continue
    foreign.append(f"{name} ({path})")
print(json.dumps(foreign))
'''


def test_runtime_imports_only_numpy(tmp_path):
    # The test extras install scipy; an import of it (or of anything else
    # outside numpy and the standard library) in src/ would pass every other test.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", RUNTIME_IMPORTS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
