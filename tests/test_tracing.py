"""The contract between the package and perfbench's span tracer: every
traced function exists, every call site the tracer must see is wrapped, and
every per-call counter reads its call without error."""

import importlib.util
from pathlib import Path

from patchqa import cli, synth

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

FAST_MODEL = ["--epochs", "1", "--hidden", "4", "--max-len", "16", "--batch", "32",
              "--hash-dim", "8"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_counts_without_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    synth.write_keyword_corpus(corpus, n_bugs=6, seed=1)
    model = tmp_path / "cv" / "model_fold0.ckpt"
    commands = [
        ["crossval", "--dataset", corpus, "--out", tmp_path / "cv", "--k", "2", *FAST_MODEL],
        ["evaluate", "--model", model, "--dataset", corpus, "--out", tmp_path / "eval"],
        ["predict", "--model", model, "--bug-text", "widget crashes on empty input",
         "--description", "guard against empty input"],
    ]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main([str(arg) for arg in argv]) == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.count_errors == 0
    assert not hasattr(cli.main, "__wrapped__")
    traced = {(module, name) for module, name, *_ in tracer.spans}
    assert {("cli", "main"), ("qa_model", "batch_loss_and_gradients"),
            ("qa_model", "predict"), ("metrics", "threshold_sweep"),
            ("metrics", "confusion_at"), ("metrics", "auc")} <= traced
    assert tracer.counts["qa_model.predictions"] == 1
