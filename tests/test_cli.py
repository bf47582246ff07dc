import argparse
import contextlib
import csv
import io
import json
import os
import signal
import threading
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from patchqa import metrics, pipeline, qa_model, synth
from patchqa.cli import _FLAG_ONLY, _SETTINGS, build_parser, main
from patchqa.corpus import load_dataset

from conftest import (bug, description, patch, read_fold_plan, rewrite_checkpoint,
                      write_jsonl)

FAST_MODEL = ["--epochs", "2", "--hidden", "4", "--max-len", "16",
              "--batch", "32", "--hash-dim", "8"]


@pytest.fixture
def small_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    synth.write_keyword_corpus(path, n_bugs=30, seed=1, patches_per_bug=1)
    return path


def run_cli(capsys, argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- ingest ------------------------------------------------------------------


def test_ingest_summary_counts(tmp_path, capsys):
    path = write_jsonl(tmp_path / "d.jsonl", [
        bug("B-1"),
        patch("P-1", "B-1"),
        description("P-1"),
    ])
    code, out, _ = run_cli(capsys, ["ingest", "--dataset", path])
    assert code == 0
    summary = json.loads(out)
    assert summary["bugs"] == 1
    assert summary["patches"]["total"] == 1
    assert summary["patches"]["by_label"] == {"correct": 1}
    assert summary["patches"]["by_origin"] == {"developer": 1}
    assert summary["descriptions"]["by_source"] == {"human": 1}
    assert summary["duplicates_removed"] == 0


def test_ingest_reports_duplicates_removed(tmp_path, capsys):
    d = "--- a/F\n+++ b/F\n@@ -1,1 +1,1 @@\n-a\n+b\n"
    path = write_jsonl(tmp_path / "d.jsonl", [
        bug("B-1"),
        patch("P-1", "B-1", diff=d),
        patch("P-2", "B-1", diff=d),
    ])
    code, out, _ = run_cli(capsys, ["ingest", "--dataset", path])
    assert code == 0
    assert json.loads(out)["duplicates_removed"] == 1


def test_ingest_dangling_reference_fails_with_id(tmp_path, capsys):
    path = write_jsonl(tmp_path / "d.jsonl", [patch("P-1", "X-99")])
    code, _, err = run_cli(capsys, ["ingest", "--dataset", path])
    assert code != 0
    assert "X-99" in err


def test_ingest_missing_file_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["ingest", "--dataset", tmp_path / "nope.jsonl"])
    assert code != 0
    assert err.startswith("error:")


# --- crossval ------------------------------------------------------------------


def test_crossval_outputs_and_fold_audit(small_corpus, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, [
        "crossval", "--dataset", small_corpus, "--out", out_dir,
        "--k", "10", "--fold-seed", "2", "--pair-seed", "3", "--model-seed", "1",
        *FAST_MODEL,
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["per_fold"]) == 10
    assert all(len(fold["loss_history"]) == 2 for fold in report["per_fold"])
    assert report["config"]["fold_seed"] == 2
    assert report["config"]["pair_seed"] == 3
    assert report["config"]["model"]["seed"] == 1
    plan = read_fold_plan((out_dir / "foldplan.json").read_text())
    assert plan.k == 10
    # every bug appears in exactly one group; counts differ by at most one
    assert sorted(plan.assignments) == sorted(f"bug-{i:04d}" for i in range(30))
    sizes = [0] * 10
    for group in plan.assignments.values():
        sizes[group] += 1
    assert max(sizes) - min(sizes) <= 1
    # each example scored exactly once across folds
    lines = (out_dir / "scores.csv").read_text().strip().split("\n")
    assert lines[0] == "patch_id,bug_id,label,score"
    ids = [line.split(",")[0] for line in lines[1:]]
    assert len(ids) == len(set(ids))
    report_examples = report["statistics"]["examples"]
    assert len(ids) == report_examples
    for fold in range(10):
        assert (out_dir / f"model_fold{fold}.ckpt").exists()


def test_crossval_k_larger_than_bug_count_fails(small_corpus, tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "crossval", "--dataset", small_corpus, "--out", tmp_path / "x",
        "--k", "500", *FAST_MODEL,
    ])
    assert code != 0
    assert "exceeds" in err


BAD_MODEL_SETTINGS = [  # (id, flags, the error line crossval gives)
    ("max-len-0", ["--max-len", "0"], "error: max_seq_len must be a positive integer"),
    ("epochs-0", ["--epochs", "0"], "error: epochs must be a positive integer"),
    ("lr-inf", ["--lr", "inf"], "error: learning_rate must be a positive finite"),
]


@pytest.mark.parametrize("command, flags, message", [
    *(pytest.param("crossval", flags, message, id=case)
      for case, flags, message in BAD_MODEL_SETTINGS),
    pytest.param("crossval", ["--k", "1"], "error: fold planning: k must be at least 2",
                 id="k-1"),
    pytest.param("crossval", ["--thresholds", "0.6,0.4"],
                 "error: evaluation: thresholds must be sorted ascending", id="unsorted"),
    pytest.param("crossval", ["--threshold", "7"],
                 "error: evaluation: thresholds must lie in [0, 1]", id="threshold-7"),
    pytest.param("crossval", ["--thresholds", ","],
                 "error: evaluation: thresholds must not be empty", id="empty-sweep"),
    *(pytest.param("train", flags, message, id=f"train-{case}")
      for case, flags, message in BAD_MODEL_SETTINGS),
])
def test_crossval_rejects_bad_settings_before_training(small_corpus, tmp_path, capsys,
                                                       command, flags, message):
    if command == "crossval":
        argv = ["crossval", "--dataset", small_corpus, "--out", tmp_path / "x", *FAST_MODEL]
    else:  # no dataset file: train must report the setting before it reads one
        argv = ["train", "--dataset", tmp_path / "missing.jsonl", "--model-out", tmp_path / "x"]
    code, out, err = run_cli(capsys, [*argv, *flags])
    assert code == 1
    # The one stderr line is the error: no "fold 1/k" line precedes it.
    assert err.startswith(message) and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "x").exists()


def test_crossval_byte_identical_reruns(small_corpus, tmp_path, capsys):
    args = ["crossval", "--dataset", small_corpus,
            "--k", "5", "--fold-seed", "7", "--pair-seed", "8", "--model-seed", "9",
            *FAST_MODEL]
    code1, _, _ = run_cli(capsys, args + ["--out", tmp_path / "a"])
    code2, _, _ = run_cli(capsys, args + ["--out", tmp_path / "b"])
    assert code1 == 0 and code2 == 0
    for name in ("report.json", "scores.csv", "foldplan.json", "model_fold0.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_crossval_rerun_with_fewer_folds_leaves_no_stale_checkpoint(small_corpus, tmp_path,
                                                                     capsys):
    # A 2-fold run into the directory of a 3-fold run removes the third
    # fold's checkpoint; a file of another name stays.
    out_dir = tmp_path / "cv"
    args = ["crossval", "--dataset", small_corpus, "--out", out_dir, *FAST_MODEL]
    assert run_cli(capsys, args + ["--k", "3"])[0] == 0
    (out_dir / "model_fold_notes.ckpt").write_text("kept", encoding="utf-8")
    assert run_cli(capsys, args + ["--k", "2"])[0] == 0
    assert json.loads((out_dir / "report.json").read_text())["config"]["k"] == 2
    assert sorted(path.name for path in out_dir.glob("*.ckpt")) == [
        "model_fold0.ckpt", "model_fold1.ckpt", "model_fold_notes.ckpt"]


def read_score_rows(path) -> dict:
    """``scores.csv`` as {(patch_id, bug_id, label): score}."""
    with open(path, encoding="utf-8", newline="") as fh:
        return {(row["patch_id"], row["bug_id"], row["label"]): float(row["score"])
                for row in csv.DictReader(fh)}


def test_evaluate_of_a_fold_checkpoint_repeats_its_crossval_scores(small_corpus, tmp_path,
                                                                   capsys):
    # The same held-out examples in other chunks: crossval scores each fold's test
    # examples alone, evaluate every example of the dataset, 8 at a time. Every
    # fold's checkpoint must repeat the crossval score of every row it tested.
    seeds = ["--fold-seed", "7", "--pair-seed", "8", "--model-seed", "9"]
    code, _, err = run_cli(capsys, ["crossval", "--dataset", small_corpus, "--k", "3",
                                    "--out", tmp_path / "cv", *seeds, *FAST_MODEL,
                                    "--batch", "8"])
    assert code == 0, err
    plan = read_fold_plan((tmp_path / "cv" / "foldplan.json").read_text())
    crossval = read_score_rows(tmp_path / "cv" / "scores.csv")
    for fold in range(3):
        code, _, err = run_cli(capsys, [
            "evaluate", "--model", tmp_path / "cv" / f"model_fold{fold}.ckpt",
            "--dataset", small_corpus, "--pair-seed", "8", "--out", tmp_path / f"eval{fold}"])
        assert code == 0, err
        evaluated = read_score_rows(tmp_path / f"eval{fold}" / "scores.csv")
        assert evaluated.keys() == crossval.keys()
        tested = [key for key in crossval if plan.assignments[key[1]] == fold]
        assert len(tested) > 8
        for key in tested:
            assert abs(evaluated[key] - crossval[key]) <= 1e-12, (fold, key)


def use_cpus(monkeypatch, count):
    """Make ``count`` CPUs usable to crossval; returns the list its forks append to."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def crossval_outputs(out_dir, k: int) -> dict:
    names = ["report.json", "scores.csv", "foldplan.json",
             *(f"model_fold{fold}.ckpt" for fold in range(k))]
    assert sorted(path.name for path in out_dir.iterdir()) == sorted(names)
    return {name: (out_dir / name).read_bytes() for name in names}


CROSSVAL_SEEDS = ["--fold-seed", "7", "--pair-seed", "8", "--model-seed", "9"]


def test_crossval_outputs_do_not_depend_on_worker_count(small_corpus, tmp_path, capsys,
                                                        monkeypatch):
    # One CPU trains every fold in this process. More CPUs run up to twice as
    # many processes, at most one per fold: k=3 on two CPUs runs three, k=5
    # runs four, and so does k=9, whose workers each stream two folds down one
    # pipe. Every count must write the same bytes and report progress in fold
    # order.
    for k, cpus, expected_forks in ((3, 1, 0), (3, 2, 2), (3, 3, 2), (5, 1, 0), (5, 2, 3),
                                    (9, 1, 0), (9, 2, 3)):
        forks = use_cpus(monkeypatch, cpus)
        out_dir = tmp_path / f"k{k}-cpus{cpus}"
        code, _, err = run_cli(capsys, ["crossval", "--dataset", small_corpus, "--k", k,
                                        *CROSSVAL_SEEDS, *FAST_MODEL, "--out", out_dir])
        assert code == 0
        assert len(forks) == expected_forks, (k, cpus)
        assert err == "".join(f"fold {fold}/{k}\n" for fold in range(1, k + 1))
        assert_no_child_left()
        assert crossval_outputs(out_dir, k) == crossval_outputs(tmp_path / f"k{k}-cpus1", k)


def test_crossval_does_not_fork_while_another_thread_runs(small_corpus, tmp_path, capsys,
                                                          monkeypatch):
    # A forked child gets only the calling thread; a lock another thread held at
    # the fork stays held in the child forever. So a live thread means in-process
    # training, with the bytes of the one-CPU run.
    args = ["crossval", "--dataset", small_corpus, "--k", "3", *CROSSVAL_SEEDS, *FAST_MODEL]
    use_cpus(monkeypatch, 1)
    assert run_cli(capsys, [*args, "--out", tmp_path / "alone"])[0] == 0
    release = threading.Event()
    idle = threading.Thread(target=release.wait)
    idle.start()
    try:
        forks = use_cpus(monkeypatch, 3)
        code, _, err = run_cli(capsys, [*args, "--out", tmp_path / "threaded"])
    finally:
        release.set()
        idle.join()
    assert code == 0, err
    assert forks == []
    assert crossval_outputs(tmp_path / "threaded", 3) == crossval_outputs(tmp_path / "alone", 3)


def fail_fold(monkeypatch, fold, action):
    """Make the training of ``fold`` call ``action`` instead of ``qa_model.train``."""
    stage = pipeline._stage
    monkeypatch.setattr(pipeline, "_stage", lambda name, fn, *args: stage(
        name, action if name == f"training fold {fold}" else fn, *args))


def raise_training_error(*args):
    raise qa_model.TrainingError("non-finite loss at epoch 0, batch 0")


@pytest.mark.parametrize("fold", [0, 1, 2])
def test_crossval_fold_error_is_the_same_line_in_a_worker(small_corpus, tmp_path, capsys,
                                                          monkeypatch, fold):
    # Fold 0 fails in this process while the workers train; with two CPUs,
    # folds 1 and 2 fail in forked workers. Either way the error line is the
    # one the in-process run gives, and no worker outlives crossval.
    fail_fold(monkeypatch, fold, raise_training_error)
    argv = ["crossval", "--dataset", small_corpus, "--out", tmp_path / "x", "--k", "3",
            *FAST_MODEL]
    errors = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        errors.append(err)
        assert_no_child_left()
    assert errors[0] == errors[1]
    assert errors[0].endswith(f"error: training fold {fold}: non-finite loss at epoch 0, "
                              "batch 0\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("fold", [1, 2])
def test_crossval_worker_killed_is_one_error_line(small_corpus, tmp_path, capsys,
                                                  monkeypatch, fold):
    # Two CPUs run k=3 in three processes, so each of folds 1 and 2 has a worker.
    main_pid = os.getpid()

    def kill_worker(*args):
        assert os.getpid() != main_pid, f"fold {fold} trained in the main process"
        os.kill(os.getpid(), signal.SIGKILL)

    fail_fold(monkeypatch, fold, kill_worker)
    use_cpus(monkeypatch, 2)
    code, out, err = run_cli(capsys, ["crossval", "--dataset", small_corpus,
                                      "--out", tmp_path / "x", "--k", "3", *FAST_MODEL])
    assert code == 1 and out == ""
    assert err == ("".join(f"fold {group}/3\n" for group in range(1, fold + 2))
                   + f"error: training fold {fold}: worker process ended with status "
                   f"{-signal.SIGKILL}\n")
    assert_no_child_left()


# --- train / predict / evaluate ---------------------------------------------------


@pytest.fixture
def trained_checkpoint(small_corpus, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    code, _, _ = run_cli(capsys, [
        "train", "--dataset", small_corpus, "--model-out", ckpt,
        "--pair-seed", "3", "--model-seed", "1", *FAST_MODEL,
    ])
    assert code == 0
    return ckpt


def test_train_with_one_step_sequences(small_corpus, tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "train", "--dataset", small_corpus, "--model-out", tmp_path / "m.ckpt",
        "--epochs", "1", "--max-len", "1", "--hidden", "4", "--hash-dim", "8",
    ])
    assert code == 0, err
    assert qa_model.load_model(tmp_path / "m.ckpt").config.max_seq_len == 1


def test_train_skips_mismatches_when_one_bug_has_a_developer_description(tmp_path, capsys):
    # B's developer patch has no description and a diff without hunks, so only
    # A has a developer description: mismatches are skipped, not an error.
    path = write_jsonl(tmp_path / "d.jsonl", [
        bug("A"), bug("B"), bug("C"),
        patch("P-A", "A"), description("P-A"),
        patch("P-B", "B", diff="--- a/F\n+++ b/F\n"),
        patch("P-C", "C", origin="apr:T", label="incorrect"),
    ])
    code, out, err = run_cli(capsys, [
        "train", "--dataset", path, "--model-out", tmp_path / "m.ckpt", *FAST_MODEL,
    ])
    assert code == 0, err
    assert json.loads(out)["examples"] == 2


def test_train_writes_loadable_checkpoint(trained_checkpoint):
    model = qa_model.load_model(trained_checkpoint)
    assert model.config.epochs == 2
    assert model.metadata["embedding"]["kind"] == "hash"


def test_predict_verdicts_and_determinism(trained_checkpoint, capsys):
    args = ["predict", "--model", trained_checkpoint,
            "--bug-text", "alpha0001 beta0001 gamma0001 failure observed",
            "--description", "alpha0001 beta0001 gamma0001 fix"]
    code, out1, _ = run_cli(capsys, args + ["--threshold", "0.4"])
    assert code == 0
    result = json.loads(out1)
    assert result["verdict"] in ("correct", "incorrect")
    assert result["label"] == (1 if result["score"] >= 0.4 else 0)
    # the score band caps below 0.9: always incorrect there
    code, out2, _ = run_cli(capsys, args + ["--threshold", "0.9"])
    assert json.loads(out2)["verdict"] == "incorrect"
    code, out3, _ = run_cli(capsys, args + ["--threshold", "0.4"])
    assert out3 == out1


def test_predict_with_diff_fallback(trained_checkpoint, tmp_path, capsys):
    diff_path = tmp_path / "patch.diff"
    diff_path.write_text(
        "--- a/src/Widget.java\n+++ b/src/Widget.java\n"
        "@@ -1,1 +1,1 @@\n-return compute(alpha0001);\n+return computeSafely(alpha0001);\n",
        encoding="utf-8")
    code, out, _ = run_cli(capsys, [
        "predict", "--model", trained_checkpoint,
        "--bug-text", "alpha0001 beta0001 gamma0001 failure", "--diff-file", diff_path,
    ])
    assert code == 0
    assert "score" in json.loads(out)


def test_predict_requires_inputs(trained_checkpoint, capsys):
    code, _, err = run_cli(capsys, ["predict", "--model", trained_checkpoint,
                                    "--description", "something"])
    assert code != 0
    assert "bug" in err


@pytest.mark.parametrize("side, flags", [
    pytest.param("bug report", ["--bug-text", "", "--description", "guard the null header"],
                 id="bug-empty"),
    pytest.param("description", ["--bug-text", "parser crash", "--description", "!!!"],
                 id="description-punctuation"),
])
def test_predict_rejects_a_side_without_tokens(trained_checkpoint, capsys, side, flags):
    # Such a side scores 0.5, which the default threshold would call correct.
    code, out, err = run_cli(capsys, ["predict", "--model", trained_checkpoint, *flags])
    assert code == 1
    assert err == f"error: predict: the {side} has no tokens\n"
    assert out == ""


def test_evaluate_writes_report(trained_checkpoint, small_corpus, tmp_path, capsys):
    out_dir = tmp_path / "eval"
    code, out, _ = run_cli(capsys, [
        "evaluate", "--model", trained_checkpoint, "--dataset", small_corpus,
        "--out", out_dir, "--pair-seed", "3", "--threshold", "0.5",
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report["at_threshold"]) == {"tp", "tn", "fp", "fn", "plus_recall",
                                           "minus_recall", "f1"}
    assert set(report) == {"config", "at_threshold", "sweep", "statistics"}
    assert len(report["sweep"]) == 9
    assert (out_dir / "scores.csv").exists()


def test_evaluate_writes_null_for_undefined_metrics(tmp_path, capsys):
    # One bug with one developer patch: one positive, no mismatch, no negative.
    path = write_jsonl(tmp_path / "d.jsonl", [bug("B-1"), patch("P-1", "B-1"),
                                             description("P-1")])
    ckpt = tmp_path / "m.ckpt"
    code, _, err = run_cli(capsys, ["train", "--dataset", path, "--model-out", ckpt,
                                    *FAST_MODEL])
    assert code == 0, err
    code, _, err = run_cli(capsys, ["evaluate", "--model", ckpt, "--dataset", path,
                                    "--out", tmp_path / "eval"])
    assert code == 0, err
    report = json.loads((tmp_path / "eval" / "report.json").read_text())
    assert report["statistics"]["examples"] == 1
    assert report["statistics"]["auc"] is None
    assert report["at_threshold"]["minus_recall"] is None


def with_token_free_text(corpus, tmp_path, kind, key, value, **text):
    """A copy of ``corpus`` whose ``kind`` record with ``key == value`` takes
    the token-free ``text`` fields."""
    records = [json.loads(line) for line in corpus.read_text().splitlines()]
    for record in records:
        if record["kind"] == kind and record[key] == value:
            record.update(text)
    return write_jsonl(tmp_path / "token-free.jsonl", records)


def test_crossval_and_evaluate_skip_a_token_free_description(trained_checkpoint, small_corpus,
                                                             tmp_path, capsys):
    # "!!!" has no token and would score 0.5, which the default threshold
    # calls correct: its patch gives neither a positive nor a mismatch.
    path = with_token_free_text(small_corpus, tmp_path, "description", "patch_id",
                                "patch-0000-0", text="!!!")
    code, _, err = run_cli(capsys, ["crossval", "--dataset", path, "--k", "3",
                                    "--out", tmp_path / "cv", *FAST_MODEL])
    assert code == 0, err
    code, _, err = run_cli(capsys, ["evaluate", "--model", trained_checkpoint,
                                    "--dataset", path, "--out", tmp_path / "eval"])
    assert code == 0, err
    for run in ("cv", "eval"):
        patch_ids = [key[0] for key in read_score_rows(tmp_path / run / "scores.csv")]
        assert len(patch_ids) == 58  # 30 positives and 30 mismatches, less two
        assert "patch-0001-0" in patch_ids
        skipped = ("patch-0000-0", "mismatch:patch-0000-0:")
        assert not [patch_id for patch_id in patch_ids if patch_id.startswith(skipped)]


@pytest.mark.parametrize("command", ["crossval", "evaluate"])
def test_a_token_free_report_owning_a_correct_patch_fails(trained_checkpoint, small_corpus,
                                                          tmp_path, capsys, command):
    path = with_token_free_text(small_corpus, tmp_path, "bug", "bug_id", "bug-0000",
                                title="!!!", body="-- ?")
    flags = (["--k", "3", *FAST_MODEL] if command == "crossval"
             else ["--model", trained_checkpoint])
    code, _, err = run_cli(capsys, [command, "--dataset", path, "--out", tmp_path / "out",
                                    *flags])
    assert code == 1
    assert err == ("error: pairing: bug report 'bug-0000' has no token but owns correct "
                   "patch 'patch-0000-0'\n")


def test_a_token_free_report_owning_no_correct_patch_gives_no_example(tmp_path, capsys):
    # C's report "!!! --" has no token and would score 0.5 with any patch,
    # which the default threshold calls correct: its incorrect patch gives no
    # example, and no mismatch borrows its report.
    path = write_jsonl(tmp_path / "d.jsonl", [
        bug("A", title="parser crash on empty header"),
        bug("B", title="widget overflow in layout"),
        bug("C", title="!!!", body="--"),
        patch("P-A", "A"), description("P-A", text="guard the empty header"),
        patch("P-B", "B"), description("P-B", text="clamp the layout width"),
        patch("P-C", "C", origin="apr:T", label="incorrect"),
    ])
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run_cli(capsys, ["train", "--dataset", path, "--model-out", ckpt,
                                      *FAST_MODEL])
    assert code == 0, err
    assert json.loads(out)["examples"] == 4
    code, _, err = run_cli(capsys, ["evaluate", "--model", ckpt, "--dataset", path,
                                    "--out", tmp_path / "eval"])
    assert code == 0, err
    assert sorted(read_score_rows(tmp_path / "eval" / "scores.csv")) == [
        ("P-A", "A", "1"), ("P-B", "B", "1"), ("mismatch:P-A:B", "B", "0"),
        ("mismatch:P-B:A", "A", "0")]


def test_evaluate_computes_its_auc_once(trained_checkpoint, small_corpus, tmp_path, capsys,
                                       monkeypatch):
    calls = []
    real_auc = metrics.auc
    monkeypatch.setattr(metrics, "auc", lambda *args: calls.append(args) or real_auc(*args))
    code, _, err = run_cli(capsys, ["evaluate", "--model", trained_checkpoint,
                                    "--dataset", small_corpus, "--out", tmp_path / "eval"])
    assert code == 0, err
    assert len(calls) == 1


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--threshold", "7"], "thresholds must lie in [0, 1]", id="threshold-7"),
    pytest.param(["--thresholds", "0.6,0.4"], "thresholds must be sorted ascending",
                 id="unsorted"),
    pytest.param(["--thresholds", ","], "thresholds must not be empty", id="empty-sweep"),
])
def test_evaluate_rejects_bad_thresholds(trained_checkpoint, small_corpus, tmp_path,
                                         capsys, flags, message):
    code, out, err = run_cli(capsys, [
        "evaluate", "--model", trained_checkpoint, "--dataset", small_corpus,
        "--out", tmp_path / "eval", *flags,
    ])
    assert code == 1
    assert err.startswith(f"error: evaluation: {message}") and err.count("\n") == 1
    assert out == ""
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["crossval", "train", "evaluate", "ingest", "hypothesis"])
def test_unwritable_output_fails_before_any_work(trained_checkpoint, small_corpus, tmp_path,
                                                  capsys, monkeypatch, command):
    # crossval and evaluate cannot make their output directory where a file
    # stands, train cannot write a checkpoint into a missing directory, and
    # ingest and hypothesis cannot write a file under a file: each says so
    # before it trains, scores or prints anything.
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    argv, message = {
        "crossval": (["crossval", "--dataset", small_corpus, "--out", blocker, *FAST_MODEL],
                     f"error: [Errno 17] File exists: '{blocker}'"),
        "train": (["train", "--dataset", small_corpus,
                   "--model-out", tmp_path / "missing" / "x.ckpt", *FAST_MODEL],
                  f"error: [Errno 2] No such file or directory: "
                  f"'{tmp_path / 'missing' / 'x.ckpt'}'"),
        "evaluate": (["evaluate", "--model", trained_checkpoint, "--dataset", small_corpus,
                      "--out", blocker / "eval"],
                     f"error: [Errno 20] Not a directory: '{blocker / 'eval'}'"),
        "ingest": (["ingest", "--dataset", small_corpus, "--out", blocker / "summary.json"],
                   f"error: [Errno 20] Not a directory: '{blocker / 'summary.json'}'"),
        "hypothesis": (["hypothesis", "--dataset", small_corpus,
                        "--out", blocker / "study.json"],
                       f"error: [Errno 20] Not a directory: '{blocker / 'study.json'}'"),
    }[command]
    work = []
    for name in ("train", "score_many"):
        real = getattr(qa_model, name)
        monkeypatch.setattr(qa_model, name,
                            lambda *args, real=real, name=name: work.append(name) or real(*args))
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err == message + "\n"
    assert out == "" and work == []


# --- hypothesis ------------------------------------------------------------------


def test_hypothesis_direction_on_matched_corpus(small_corpus, tmp_path, capsys):
    out_path = tmp_path / "study.json"
    code, out, _ = run_cli(capsys, [
        "hypothesis", "--dataset", small_corpus, "--pair-seed", "3",
        "--hash-dim", "16", "--out", out_path,
    ])
    assert code == 0
    study = json.loads(out)
    assert study["p_value"] < 0.01
    assert study["original"]["median"] < study["random"]["median"]
    assert study["original_stochastically_smaller"] is True
    assert json.loads(out_path.read_text()) == study


def test_hypothesis_repeat_is_identical(small_corpus, capsys):
    args = ["hypothesis", "--dataset", small_corpus, "--pair-seed", "5",
            "--hash-dim", "16"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1 == out2


def test_hypothesis_degenerate_corpus_fails_cleanly(tmp_path, capsys):
    records = []
    for i in range(5):
        records.append(bug(f"B-{i}", title="same text", body="same body"))
        records.append(patch(f"P-{i}", f"B-{i}"))
        records.append(description(f"P-{i}", text="same description"))
    path = write_jsonl(tmp_path / "d.jsonl", records)
    code, _, err = run_cli(capsys, ["hypothesis", "--dataset", path])
    assert code != 0
    assert "variance" in err


def test_hypothesis_needs_two_eligible_bugs(tmp_path, capsys):
    path = write_jsonl(tmp_path / "d.jsonl",
                       [bug("B-1"), patch("P-1", "B-1"), description("P-1")])
    code, _, err = run_cli(capsys, ["hypothesis", "--dataset", path])
    assert code != 0
    assert "2 bugs" in err


# --- config file -------------------------------------------------------------------


def test_config_file_supplies_defaults_and_flags_win(small_corpus, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "epochs": 1, "hidden": 4, "max-len": 16, "batch": 32, "hash-dim": 8,
        "k": 5, "fold-seed": 11, "pair-seed": 12, "model-seed": 13,
    }), encoding="utf-8")
    out_dir = tmp_path / "cfg_run"
    code, _, _ = run_cli(capsys, [
        "--config", config_path, "crossval", "--dataset", small_corpus,
        "--out", out_dir, "--k", "4",
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["config"]["k"] == 4  # flag beats config file
    assert report["config"]["fold_seed"] == 11
    assert report["config"]["model"]["epochs"] == 1


def test_config_values_do_not_leak_into_the_next_call(small_corpus, tmp_path, capsys):
    # main builds its parser once per process; a config file read by one call
    # must not supply values to the next one.
    config = write_config(tmp_path, {"epochs": 1})
    fast = ["--hidden", "4", "--max-len", "8", "--hash-dim", "8"]
    for prefix, name in ((["--config", config], "first"), ([], "second")):
        code, _, err = run_cli(capsys, [*prefix, "train", "--dataset", small_corpus,
                                        "--model-out", tmp_path / f"{name}.ckpt", *fast])
        assert code == 0, err
    assert qa_model.load_model(tmp_path / "first.ckpt").config.epochs == 1
    default = qa_model.ModelConfig().epochs
    assert qa_model.load_model(tmp_path / "second.ckpt").config.epochs == default


@pytest.mark.parametrize("values", [
    {"epochs": "3"}, {"hidden": True}, {"lr": "fast"}, {"max-len": 16.5},
    {"hash-dim": None}, {"embeddings": 7},
])
def test_config_value_of_wrong_type_fails_cleanly(small_corpus, tmp_path, capsys, values):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(values), encoding="utf-8")
    code, _, err = run_cli(capsys, [
        "--config", config_path, "train", "--dataset", small_corpus,
        "--model-out", tmp_path / "m.ckpt",
    ])
    assert code == 1
    assert err.startswith("error: config: ") and err.count("\n") == 1
    assert not (tmp_path / "m.ckpt").exists()


def test_config_thresholds_may_be_a_list(small_corpus, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"thresholds": [0.3, 0.6], "k": 3}), encoding="utf-8")
    out_dir = tmp_path / "run"
    code, _, _ = run_cli(capsys, [
        "--config", config_path, "crossval", "--dataset", small_corpus, "--out", out_dir,
        *FAST_MODEL,
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [row["threshold"] for row in report["sweep"]] == [0.3, 0.6]


@pytest.mark.parametrize("command", ["crossval", "evaluate"])
def test_config_rejects_an_empty_sweep(trained_checkpoint, small_corpus, tmp_path, capsys,
                                       command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"thresholds": []}), encoding="utf-8")
    where = (["--model", trained_checkpoint] if command == "evaluate" else FAST_MODEL)
    code, out, err = run_cli(capsys, [
        "--config", config_path, command, "--dataset", small_corpus,
        "--out", tmp_path / "run", *where,
    ])
    assert code == 1
    assert err == "error: evaluation: thresholds must not be empty\n"
    assert out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["crossval", "evaluate"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_sweep_part_that_is_no_number_names_its_option(trained_checkpoint, small_corpus,
                                                         tmp_path, capsys, command, source):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"thresholds": "0.2, x"}), encoding="utf-8")
    given, name = ((["--thresholds", "0.2, x"], "--thresholds") if source == "flag"
                   else (["--config", config_path], "config: thresholds"))
    where = (["--model", trained_checkpoint] if command == "evaluate" else FAST_MODEL)
    argv = [command, "--dataset", small_corpus, "--out", tmp_path / "run", *where]
    code, out, err = run_cli(capsys, given + argv if source == "config" else argv + given)
    assert code == 1
    assert err == f"error: {name}: 'x' is not a number\n"
    assert out == ""
    assert not (tmp_path / "run").exists()


def test_corrupt_checkpoint_fails_cleanly(trained_checkpoint, capsys):
    blob = trained_checkpoint.read_bytes()
    trained_checkpoint.write_bytes(blob[:-8])
    code, _, err = run_cli(capsys, ["predict", "--model", trained_checkpoint,
                                    "--bug-text", "alpha", "--description", "beta"])
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tensor bytes" in err


def test_stage_tagged_error_from_pairing(tmp_path, capsys):
    # correct patch with an empty bug report text fails inside pairing
    path = write_jsonl(tmp_path / "d.jsonl", [
        bug("B-1", title="", body=""),
        patch("P-1", "B-1"),
        description("P-1"),
    ])
    code, _, err = run_cli(capsys, [
        "crossval", "--dataset", path, "--out", tmp_path / "x", "--k", "1",
        *FAST_MODEL,
    ])
    assert code != 0
    assert "pairing:" in err


# --- which embedding predict and evaluate read ------------------------------------

PAIR = ["--bug-text", "alpha0001 beta0001 gamma0001 failure observed",
        "--description", "alpha0001 beta0001 gamma0001 fix"]


def write_config(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return path


def set_embedding(ckpt, embedding):
    """Rewrite the checkpoint's recorded embedding; ``None`` removes it."""
    def edit(header):
        header["metadata"].pop("embedding")
        if embedding is not None:
            header["metadata"]["embedding"] = embedding
    ckpt.write_bytes(rewrite_checkpoint(ckpt.read_bytes(), edit))


def predict_score(capsys, ckpt, *flags, config=None):
    prefix = ["--config", config] if config else []
    code, out, err = run_cli(capsys, [*prefix, "predict", "--model", ckpt, *PAIR, *flags])
    assert code == 0, err
    return json.loads(out)["score"]


def test_config_embedding_applies_to_a_checkpoint_without_one(
        trained_checkpoint, small_corpus, tmp_path, capsys):
    set_embedding(trained_checkpoint, None)
    config = write_config(tmp_path, {"hash-dim": 8})
    predict_score(capsys, trained_checkpoint, config=config)
    code, _, err = run_cli(capsys, [
        "--config", config, "evaluate", "--model", trained_checkpoint,
        "--dataset", small_corpus, "--out", tmp_path / "eval", "--pair-seed", "3",
    ])
    assert code == 0, err


def test_config_key_no_subcommand_knows_fails_cleanly(
        small_corpus, trained_checkpoint, tmp_path, capsys):
    config = write_config(tmp_path, {"epoch": 1})
    code, _, err = run_cli(capsys, [
        "--config", config, "train", "--dataset", small_corpus,
        "--model-out", tmp_path / "m.ckpt",
    ])
    assert code == 1
    assert err == "error: config: unknown option 'epoch'\n"
    assert not (tmp_path / "m.ckpt").exists()
    # keys of another subcommand stay accepted, so one file serves both
    saved = predict_score(capsys, trained_checkpoint)
    shared = write_config(tmp_path, {"epochs": 1, "k": 3, "fold-seed": 2})
    assert predict_score(capsys, trained_checkpoint, config=shared) == saved


def test_shared_config_keys_of_other_subcommands_change_nothing(
        trained_checkpoint, small_corpus, tmp_path, capsys):
    # Bad settings for crossval, but evaluate and predict have neither option.
    shared = write_config(tmp_path, {"epochs": 0, "k": 1})
    outputs = []
    for name, prefix in (("plain", []), ("shared", ["--config", shared])):
        code, out, err = run_cli(capsys, [*prefix, "evaluate", "--model", trained_checkpoint,
                                          "--dataset", small_corpus, "--out", tmp_path / name])
        assert code == 0, err
        outputs.append([out, *((tmp_path / name / file).read_bytes()
                               for file in ("report.json", "scores.csv"))])
    assert outputs[0] == outputs[1]
    saved = predict_score(capsys, trained_checkpoint)
    assert predict_score(capsys, trained_checkpoint, config=shared) == saved


@pytest.mark.parametrize("key", ["dataset", "out", "model", "model-out", "model_out",
                                 "bug-text", "bug-file", "description", "diff-file"])
def test_config_key_read_only_from_its_flag_fails_cleanly(small_corpus, tmp_path, capsys,
                                                          key):
    # Such a value would be accepted and never read: {"out": ...} wrote no file.
    summary = tmp_path / "summary.json"
    config = write_config(tmp_path, {key: str(summary)})
    code, out, err = run_cli(capsys, ["--config", config, "ingest",
                                      "--dataset", small_corpus])
    assert code == 1
    assert err == f"error: config: {key!r} may only be given as a flag\n"
    assert out == ""
    assert not summary.exists()


@pytest.mark.parametrize("text, message", [
    ('{"hash-dim": 8, "hash_dim": 16}', "'hash-dim' and 'hash_dim'"),
    ('{"epochs": 1, "epochs": 2}', "'epochs' and 'epochs'"),
])
def test_config_keys_naming_one_option_fail_cleanly(small_corpus, tmp_path, capsys,
                                                     text, message):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, ["--config", config, "hypothesis",
                                    "--dataset", small_corpus])
    assert code == 1
    assert err == f"error: config: {message} name the same option\n"


def test_embedding_precedence_flag_config_checkpoint(trained_checkpoint, tmp_path, capsys):
    saved = predict_score(capsys, trained_checkpoint)
    config = write_config(tmp_path, {"hash-seed": 3})
    from_config = predict_score(capsys, trained_checkpoint, config=config)
    assert from_config != saved
    # the checkpoint records dim 8, which --hash-seed alone must keep
    assert from_config == predict_score(capsys, trained_checkpoint, "--hash-seed", "3")
    assert saved == predict_score(capsys, trained_checkpoint, "--hash-seed", "0",
                                  config=config)


def test_evaluate_report_records_the_embedding_it_used(
        trained_checkpoint, small_corpus, tmp_path, capsys):
    saved = {"kind": "hash", "dim": 8, "seed": 0, "scheme": "shake256-sum4"}
    for name, flags, embedding in (("saved", [], saved),
                                   ("override", ["--hash-seed", "3"], {**saved, "seed": 3})):
        code, _, err = run_cli(capsys, ["evaluate", "--model", trained_checkpoint,
                                        "--dataset", small_corpus, "--out", tmp_path / name,
                                        *flags])
        assert code == 0, err
        report = json.loads((tmp_path / name / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["embedding"] == embedding


def test_an_empty_embeddings_flag_counts_as_not_given(trained_checkpoint, tmp_path, capsys):
    # The flag beats the config file, and then counts as not given: predict
    # reads the checkpoint's embedding, not the config's vector file.
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("dim 8\nalpha0001 " + " ".join(["1"] * 8) + "\n", encoding="utf-8")
    config = write_config(tmp_path, {"embeddings": str(vectors)})
    saved = predict_score(capsys, trained_checkpoint)
    assert predict_score(capsys, trained_checkpoint, config=config) != saved
    assert predict_score(capsys, trained_checkpoint, "--embeddings", "", config=config) == saved


def test_every_option_is_a_setting_or_read_only_from_its_flag():
    # A new input flag must join _FLAG_ONLY, else a config key for it would
    # read "unknown option" instead of "may only be given as a flag".
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {action.dest for sp in commands.choices.values() for action in sp._actions
               if not isinstance(action, argparse._HelpAction)}
    settings = {flag[2:].replace("-", "_") for flag in _SETTINGS}
    assert not settings & _FLAG_ONLY
    assert options == settings | _FLAG_ONLY


@pytest.mark.parametrize("embedding, message", [
    ("hash", "embedding spec must be an object"),
    ({"kind": "hash", "dim": "8", "seed": 0}, "embedding dim must be an integer"),
    ({"kind": "hash", "dim": 8, "seed": True}, "embedding seed must be an integer"),
    ({"kind": "hash", "dim": 8.0, "seed": 0}, "embedding dim must be an integer"),
    ({"kind": "file", "dim": 8, "seed": 0, "path": 7}, "embedding path must be a string"),
    ({"kind": "word2vec", "dim": 8, "seed": 0},
     "embedding kind must be 'hash' for path None, not 'word2vec'"),
    ({"kind": "file", "dim": 8, "seed": 0},
     "embedding kind must be 'hash' for path None, not 'file'"),
    ({"kind": "hash", "dim": 8, "seed": 0, "path": "v.txt"},
     "embedding kind must be 'file' for path 'v.txt', not 'hash'"),
    # Recorded before token vectors had a scheme, or under another one.
    ({"kind": "hash", "dim": 8, "seed": 0},
     "embedding scheme must be 'shake256-sum4', not missing"),
    ({"kind": "hash", "dim": 8, "seed": 0, "scheme": "numpy-default-rng"},
     "embedding scheme must be 'shake256-sum4', not 'numpy-default-rng'"),
])
def test_malformed_checkpoint_embedding_fails_cleanly(
        trained_checkpoint, small_corpus, tmp_path, capsys, embedding, message):
    set_embedding(trained_checkpoint, embedding)
    out_dir = tmp_path / "eval"
    for argv in (["predict", "--model", trained_checkpoint, *PAIR],
                 ["evaluate", "--model", trained_checkpoint, "--dataset", small_corpus,
                  "--out", out_dir]):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert out == ""
    assert not out_dir.exists()


# --- checkpoint header fuzz through predict ---------------------------------------

# Integers stay small: max_seq_len sizes the arrays predict allocates.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)
DELETE = object()
HEADER_PATHS = [
    ("format",), ("input_dim",), ("config",), ("metadata",), ("tensors",),
    ("tensors", 0), ("tensors", 0, "shape"), ("metadata", "embedding"),
    *(("config", f.name) for f in fields(qa_model.ModelConfig)),
    *(("metadata", "embedding", key) for key in ("kind", "dim", "seed", "path", "scheme")),
]


def apply_edit(header, path, value) -> None:
    """Set (or delete) the value at ``path``; skipped where the path is gone."""
    node = header
    for key in path[:-1]:
        try:
            node = node[key]
        except (KeyError, IndexError, TypeError):
            return
    last = path[-1]
    if isinstance(node, dict) and value is DELETE:
        node.pop(last, None)
    elif isinstance(node, dict) or (isinstance(node, list) and isinstance(last, int)
                                    and last < len(node) and value is not DELETE):
        node[last] = value


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    model = qa_model.QaModel.create(qa_model.ModelConfig(max_seq_len=8, hidden_size=3), 8,
                                    {"embedding": pipeline.EmbeddingSpec(dim=8).describe()})
    qa_model.save_model(model, root / "base.ckpt")
    return root, (root / "base.ckpt").read_bytes()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(HEADER_PATHS), st.just(DELETE) | JSON_VALUES),
                min_size=1, max_size=3))
def test_fuzzed_checkpoint_header_predicts_or_fails_cleanly(fuzz_base, edits):
    root, blob = fuzz_base

    def edit(header):
        for path, value in edits:
            apply_edit(header, path, value)

    ckpt = root / "fuzzed.ckpt"
    ckpt.write_bytes(rewrite_checkpoint(blob, edit))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(ckpt), *PAIR])
    # An exception escaping main fails the test by itself.
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# --- input files nested too deeply for the JSON decoder -----------------------------

DEEP = 200_000


@pytest.mark.parametrize("target, message", [
    ("dataset", "error: line 1: invalid JSON"),
    ("config", "error: config: "),
    ("checkpoint", "bad checkpoint header"),
])
def test_deeply_nested_json_fails_cleanly(tmp_path, capsys, target, message):
    path = tmp_path / "deep"
    dataset = write_jsonl(tmp_path / "d.jsonl", [bug("B-1")])
    if target == "dataset":
        path.write_text("[" * DEEP + "\n", encoding="utf-8")
        argv = ["ingest", "--dataset", path]
    elif target == "config":
        path.write_text('{"a":' * DEEP, encoding="utf-8")
        argv = ["--config", path, "ingest", "--dataset", dataset]
    else:
        blob = b"[" * DEEP
        path.write_bytes(qa_model._CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob)
        argv = ["predict", "--model", path, *PAIR]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert out == ""


# --- byte-mutation fuzz of every input file, through the CLI --------------------------

# Bytes that make or break the structure of JSON, numbers and diffs.
STRUCTURAL = st.sampled_from([b"[", b"{", b'"', b",", b":", b"-", b"9", b".", b"e",
                              b"\n", b" ", b"@", b"+"])


@st.composite
def byte_edits(draw, base: bytes) -> bytes:
    """``base`` with one to four bytes replaced, inserted or deleted, or cut short."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "cut")))
        if kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(STRUCTURAL | st.binary(min_size=1, max_size=3))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif kind == "cut":
            del data[at:]
    return bytes(data)


# The command each input file goes through; {file} is the fuzzed copy. None of
# them trains.
FUZZ_COMMANDS = {
    "dataset": ["ingest", "--dataset", "{file}"],
    "vectors": ["hypothesis", "--dataset", "{dataset}", "--embeddings", "{file}"],
    "diff": ["predict", "--model", "{model}", "--bug-text", "widget crash",
             "--diff-file", "{file}"],
    "checkpoint": ["predict", "--model", "{file}", *PAIR],
    "config": ["--config", "{file}", "predict", "--model", "{model}", *PAIR],
}


@pytest.fixture(scope="module")
def fuzz_inputs(fuzz_base):
    """The directory and the well-formed bytes of each fuzzed input file."""
    root, ckpt_blob = fuzz_base
    other_diff = "--- a/src/Parser.java\n+++ b/src/Parser.java\n@@ -4,2 +4,3 @@\n" \
                 " line = read();\n+if (line.isEmpty()) return;\n parse(line);\n"
    dataset = write_jsonl(root / "inputs.jsonl", [
        bug("B-1"), patch("P-1", "B-1"), description("P-1"),
        bug("B-2", title="Parser fails on empty header", body="See log."),
        patch("P-2", "B-2", diff=other_diff),
        description("P-2", text="skip empty header lines"),
    ])
    tokens = "widget crashes on empty input guard against parser header".split()
    vectors = "dim 8\n" + "".join(
        f"{token} " + " ".join(f"{(i * 8 + j) % 7 - 3.5:.2f}" for j in range(8)) + "\n"
        for i, token in enumerate(tokens))
    config = json.dumps({"hash-dim": 8, "hash-seed": 0, "threshold": 0.5, "pair-seed": 1})
    return root, {"dataset": dataset.read_bytes(), "vectors": vectors.encode(),
                  "diff": patch("P", "B")["diff"].encode(), "checkpoint": ckpt_blob,
                  "config": config.encode()}


@pytest.mark.parametrize("target", sorted(FUZZ_COMMANDS))
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_file_runs_or_fails_cleanly(fuzz_inputs, target, data):
    root, bases = fuzz_inputs
    path = root / f"fuzzed-{target}"
    path.write_bytes(data.draw(byte_edits(bases[target]), label=target))
    names = {"file": path, "dataset": root / "inputs.jsonl", "model": root / "base.ckpt"}
    argv = [arg.format(**names) for arg in FUZZ_COMMANDS[target]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # An exception escaping main fails the test by itself.
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
