"""patchqa benchmark: one command prints every metric by name with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload crossval_short --seed 1 --seconds 55 --trace 0

Each workload is one user session driven in this process through the public
entry point ``patchqa.cli.main`` (one client, one call at a time, no extra
threads; the package pins BLAS to one thread):

- set-up, done ``Spec.setup_reps`` times (``setup_s`` is the median): build the
  corpora from ``--seed``, write them, validate them with ``ingest``;
  ``serve`` also trains the checkpoint it serves with ``train``;
- ``crossval`` of the corpus (``crossval_s``, median over the repetitions;
  ``pooled_auc``), each followed by ``predict`` calls that check every fold
  checkpoint against the fold's scores;
- ``evaluate`` of a held-out corpus built from another seed
  (``evaluate_pairs_per_s``: median over calls of pairs scored per second);
- a closed loop of single ``predict`` calls on held-out pairs, each loading
  the checkpoint as the CLI does. ``predict_p50_ms`` is the median CPU time
  of a call; ``predict_p99_ms`` the median, over blocks of at least P99_BLOCK
  consecutive calls, of each block's 99th percentile of CPU time (see
  ``block_p99``). CPU time leaves out the time the process waited for a
  CPU; wall-clock percentiles are printed beside them.

All of this runs for ``--seconds`` seconds (see ``measure``).
Every call's output is checked; ``success_rate`` is the share of calls that
exited 0 and passed every check.

``--trace 1`` instead alternates an untraced round (crossval, evaluate,
TRACE_PREDICTS predicts) with a traced cycle (set-up plus the same round) and
reports per-layer numbers, each the median over traced cycles; the spans are
written to ``.perfbench_state/`` at the end. The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench_state"
WORK_DIR = ROOT / ".perfbench_work"

PREDICT_BURST = 100
EVALUATE_SHARE = 0.15  # of the measured time, spent in evaluate
P99_BLOCK = 1000       # p99 per block has at least 10 calls beyond it
MIN_PREDICTS = 3 * P99_BLOCK
MAX_OVERRUN_S = 8.0    # predicting past --seconds to reach MIN_PREDICTS
TRACE_PREDICTS = 200
AUC_FLOOR = {"crossval_short": 0.80}
SCORE_TOLERANCE = 1e-9  # predict vs the batched score of the same pair

EMBEDDING = ["--hash-dim", "32", "--hash-seed", "5"]
PAIR_SEED = ["--pair-seed", "3"]
MODEL_SEED = ["--model-seed", "1"]
SEEDS = ["--fold-seed", "2", *PAIR_SEED, *MODEL_SEED]
HELDOUT_SEED_OFFSET = 100_000


K = 3                # folds


@dataclass(frozen=True)
class Spec:
    """Corpus shape and read-path sizes of one workload."""

    corpus: str                      # "keyword" or "long"
    bugs: int                        # crossval corpus
    heldout_bugs: int                # evaluate / predict corpus
    setup_reps: int                  # setup_s is the median of these
    crossval_reps: int               # crossval_s is the median of these
    train_epochs: int | None = None  # set-up trains the served checkpoint


# Why each workload: see perfbench/README.md and BENCHMARK.json.
SPECS = {
    # 576 examples; each fold trains on 64 bugs, 3 batches of 128 or fewer
    "crossval_short": Spec("keyword", bugs=96, heldout_bugs=96, setup_reps=9,
                           crossval_reps=1),
    # 200 examples after 40 near-duplicate diffs are removed
    "serve": Spec("long", bugs=40, heldout_bugs=192, setup_reps=3, crossval_reps=3,
                  train_epochs=3),
}

END_TO_END = {
    "setup_s": "s",
    "crossval_s": "s",
    "pooled_auc": "ratio",
    "evaluate_pairs_per_s": "1/s",
    "predict_p50_ms": "ms",
    "predict_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "qa_model.loss_and_grad_s": "s",
    "qa_model.loss_and_grad_calls": "count",
    "qa_model.adam_step_s": "s",
    "qa_model.adam_steps": "count",
    "qa_model.train_s": "s",
    "qa_model.example_epochs": "count",
    "qa_model.score_many_s": "s",
    "qa_model.scored": "count",
    "qa_model.predict_s": "s",
    "qa_model.predictions": "count",
    "qa_model.load_model_s": "s",
    "qa_model.save_model_s": "s",
    "embed.prepare_s": "s",
    "embed.tokenize_s": "s",
    "embed.prepare_calls": "count",
    "embed.tokens": "count",
    "embed.truncated": "count",
    "embed.truncated_share": "ratio",
    "embed.real_token_ratio_bug": "ratio",
    "embed.real_token_ratio_description": "ratio",
    "corpus.load_dataset_s": "s",
    "corpus.dedup_patches_s": "s",
    "corpus.duplicates_removed": "count",
    "diffsum.parse_s": "s",
    "diffsum.summarize_s": "s",
    "diffsum.generated": "count",
    "pairing.build_examples_s": "s",
    "pairing.examples": "count",
    "pairing.generated_share": "ratio",
    "pipeline.write_s": "s",
    "metrics.s": "s",
    "cli.self_s": "s",
    "pipeline.self_s": "s",
    "corpus.self_s": "s",
    "diffsum.self_s": "s",
    "embed.self_s": "s",
    "pairing.self_s": "s",
    "qa_model.self_s": "s",
    "metrics.self_s": "s",
    "trace.root_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.unwrapped": "count",
    "trace.count_errors": "count",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import patchqa from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "patchqa" / "__init__.py").is_file():
        fail(f"no patchqa sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    try:
        import patchqa  # noqa: F401  (pins BLAS threads before numpy loads)
        from patchqa import cli, qa_model
    except ImportError as exc:
        fail(f"cannot import patchqa: {exc}")
    if Path(patchqa.__file__).resolve().parent != (src / "patchqa").resolve():
        fail(f"patchqa imported from {patchqa.__file__}, not from {src}")
    import workloads
    return cli, qa_model, workloads


def tree_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance() -> dict:
    import numpy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "commit": commit,
        "tree_sha256": tree_digest(),
    }


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_scores(path) -> list[tuple[str, str, int, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(p, b, int(label), float(score)) for p, b, label, score in rows]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


@dataclass
class Session:
    workload: str
    seed: int
    spec: Spec
    cli: object
    qa_model: object
    workloads: object
    digests: dict
    tree: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    datasets: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)   # op -> digest of its first output
    requests: list = field(default_factory=list)   # (argv tail, expected score)
    pooled_auc: float | None = None
    pairs: int = 0
    next_request: int = 0

    # --- running and checking one CLI call ---------------------------------

    def call(self, name: str, argv: list[str], check=None) -> tuple[bool, float, float]:
        """Run ``patchqa <argv>`` in-process and check its output; return
        whether it passed, its wall time and the CPU time it used."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:  # the run goes on; the call counts as failed
            code = "exception"
            err.write(traceback.format_exc())
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[-300:]}"
        elif check is not None:
            try:
                problem = check(out.getvalue())
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {problem}")
        return problem is None, elapsed, cpu

    def same_output(self, op: str, digest: str) -> str | None:
        """Determinism: one output per (code, workload, seed), run after run."""
        first = self.expected.setdefault(op, digest)
        if digest != first:
            return f"{op} output differs from this run's first {op}"
        key = f"{self.tree}:{self.workload}:{self.seed}:{op}"
        stored = self.digests.setdefault(key, digest)
        if digest != stored:
            return f"{op} output differs from an earlier run of this code and seed"
        return None

    def scores_in_band(self, rows) -> str | None:
        lo, hi = self.qa_model.SCORE_FLOOR, self.qa_model.SCORE_CEILING
        for patch_id, _, _, score in rows:
            if not (math.isfinite(score) and lo <= score <= hi):
                return f"score {score!r} of {patch_id} outside [{lo}, {hi}]"
        return None

    # --- session steps ------------------------------------------------------

    def build_corpora(self) -> None:
        gen = self.workloads
        make = gen.keyword_corpus if self.spec.corpus == "keyword" else gen.long_corpus
        self.datasets["train"] = gen.write(make(self.spec.bugs, self.seed), "corpus.jsonl")
        heldout = make(self.spec.heldout_bugs, self.seed + HELDOUT_SEED_OFFSET)
        self.datasets["heldout"] = gen.write(heldout, "heldout.jsonl")
        os.makedirs("diffs", exist_ok=True)
        for patch_id, patch in heldout.patches.items():
            if patch_id not in heldout.descriptions:
                Path("diffs", f"heldout-{patch_id}.diff").write_text(patch.diff, encoding="utf-8")

    def setup(self) -> float:
        start = time.perf_counter()
        self.build_corpora()
        ds = self.datasets["train"]
        duplicates = 0 if self.spec.corpus == "keyword" else len(ds.bugs)

        def check_ingest(out):
            summary = json.loads(out)
            if (summary["bugs"], summary["duplicates_removed"]) != (len(ds.bugs), duplicates):
                return f"ingest summary {summary['bugs']} bugs, " \
                       f"{summary['duplicates_removed']} duplicates"
            return None

        ok, _, _ = self.call("ingest", ["ingest", "--dataset", "corpus.jsonl"], check_ingest)
        if self.spec.train_epochs is not None:
            def check_train(out):
                loss = json.loads(out)["final_loss"]
                return None if math.isfinite(loss) else f"final loss {loss}"

            ok &= self.call("train", ["train", "--dataset", "corpus.jsonl",
                                      "--model-out", "served.ckpt",
                                      "--epochs", str(self.spec.train_epochs),
                                      *EMBEDDING, *PAIR_SEED, *MODEL_SEED], check_train)[0]
        if not ok:
            fail("set-up failed: " + "; ".join(self.problems))
        return time.perf_counter() - start

    @property
    def served_model(self) -> str:
        return "served.ckpt" if self.spec.train_epochs is not None else "cv/model_fold0.ckpt"

    def crossval(self) -> float:
        argv = ["crossval", "--dataset", "corpus.jsonl", "--out", "cv", "--k", str(K),
                *EMBEDDING, *SEEDS]
        ok, elapsed, _ = self.call("crossval", argv, lambda out: self.check_crossval())
        if ok:
            self.check_fold_checkpoints()
        return elapsed

    def check_crossval(self) -> str | None:
        rows = read_scores("cv/scores.csv")
        report = json.loads(Path("cv/report.json").read_text(encoding="utf-8"))
        stats = report["statistics"]
        self.pooled_auc = stats["pooled_auc"]
        if len(rows) != stats["examples"] or not rows:
            return f"{len(rows)} score rows for {stats['examples']} examples"
        floor = AUC_FLOOR.get(self.workload)
        if floor is not None and not self.pooled_auc >= floor:
            return f"pooled AUC {self.pooled_auc} below the floor {floor}"
        return (self.scores_in_band(rows)
                or self.same_output("crossval", file_digest("cv/report.json", "cv/scores.csv")))

    def check_fold_checkpoints(self) -> None:
        """Each fold checkpoint, loaded by ``predict``, reproduces the crossval
        score of the first real patch of its fold; the same patch scored from
        its raw diff lands in the score band."""
        ds = self.datasets["train"]
        plan = json.loads(Path("cv/foldplan.json").read_text(encoding="utf-8"))["assignments"]
        rows = read_scores("cv/scores.csv")
        for fold in range(K):
            row = next((r for r in rows if r[0] in ds.patches and plan.get(r[1]) == fold), None)
            if row is None:
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"fold check: no patch of fold {fold} in scores.csv")
                continue
            patch_id, bug_id, _, score = row
            diff_path = Path("diffs", f"train-{patch_id}.diff")
            diff_path.write_text(ds.patches[patch_id].diff, encoding="utf-8")
            desc = ds.descriptions.get(patch_id)
            answer = (["--description", desc.text] if desc is not None
                      else ["--diff-file", str(diff_path)])
            model = f"cv/model_fold{fold}.ckpt"
            bug = ["--bug-text", ds.bugs[bug_id].text]
            self.call("fold check", ["predict", "--model", model, *bug, *answer],
                      self.prediction_check(score))
            self.call("fold diff check", ["predict", "--model", model, *bug,
                                          "--diff-file", str(diff_path)],
                      self.prediction_check(None))

    def prediction_check(self, expected: float | None):
        lo, hi = self.qa_model.SCORE_FLOOR, self.qa_model.SCORE_CEILING

        def check(out):
            result = json.loads(out)
            score = result["score"]
            if not (math.isfinite(score) and lo <= score <= hi):
                return f"score {score!r} outside [{lo}, {hi}]"
            if result["label"] != int(score >= result["threshold"]):
                return f"label {result['label']} disagrees with score {score}"
            if expected is not None and abs(score - expected) > SCORE_TOLERANCE:
                return f"score {score!r}, batched score {expected!r}"
            return None

        return check

    def evaluate(self) -> float:
        argv = ["evaluate", "--model", self.served_model, "--dataset", "heldout.jsonl",
                "--out", "eval", *PAIR_SEED]
        _, elapsed, _ = self.call("evaluate", argv, lambda out: self.check_evaluate())
        return elapsed

    def check_evaluate(self) -> str | None:
        rows = read_scores("eval/scores.csv")
        report = json.loads(Path("eval/report.json").read_text(encoding="utf-8"))
        if len(rows) != report["statistics"]["examples"] or not rows:
            return f"{len(rows)} score rows for {report['statistics']['examples']} examples"
        problem = (self.scores_in_band(rows)
                   or self.same_output("evaluate", file_digest("eval/report.json",
                                                               "eval/scores.csv")))
        if problem is None and not self.requests:
            self.pairs = len(rows)
            ds = self.datasets["heldout"]
            for patch_id, bug_id, _, score in rows:
                if patch_id not in ds.patches:
                    continue  # random mismatch pairs have no patch of their own
                desc = ds.descriptions.get(patch_id)
                answer = (["--description", desc.text] if desc is not None
                          else ["--diff-file", str(Path("diffs", f"heldout-{patch_id}.diff"))])
                self.requests.append((["--bug-text", ds.bugs[bug_id].text, *answer], score))
        return problem

    def predict_burst(self, count: int) -> list[tuple[float, float]]:
        """Closed loop, one client: the next request leaves when the last
        returns. Gives (wall, CPU) seconds per call."""
        if not self.requests:
            return []
        latencies = []
        for _ in range(count):
            tail, expected = self.requests[self.next_request % len(self.requests)]
            self.next_request += 1
            _, elapsed, cpu = self.call("predict", ["predict", "--model", self.served_model,
                                                    *tail], self.prediction_check(expected))
            latencies.append((elapsed, cpu))
        return latencies


def block_p99(values) -> tuple[float, list[float]]:
    """Cut the calls, in order, into as many equal blocks of at least
    P99_BLOCK calls as they fill; give the median of the blocks' 99th
    percentiles (each has at least 10 calls beyond it) and the block values."""
    count = len(values) // P99_BLOCK
    size = len(values) // count
    per_block = [percentile(sorted(values[i * size:(i + 1) * size]), 0.99)
                 for i in range(count)]
    return statistics.median(per_block), per_block


def measure(s: Session, seconds: float) -> dict[str, float]:
    setups = []
    for _ in range(s.spec.setup_reps):
        gc.collect()
        setups.append(s.setup())
    # Every kind of sample is spread over the run, so that each metric sees
    # the same mix of quiet and busy moments of the machine: crossval
    # repetition i starts once i/reps of the time has passed (the first
    # writes the checkpoint crossval_short serves); bursts of predicts fill
    # the time in between, with an evaluate before a burst whenever
    # evaluate has had less than EVALUATE_SHARE of the time. Past --seconds,
    # only predicts run, until there are MIN_PREDICTS. Predicts run back to
    # back, with no collection between bursts, so that the loop stays warm
    # as a client's would; the latencies are kept in arrays, which give the
    # collector no objects to track.
    crossvals, evaluations = [], []
    wall, cpu = array("d"), array("d")
    reps = s.spec.crossval_reps
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(crossvals) < reps and elapsed >= len(crossvals) * seconds / reps:
            gc.collect()
            crossvals.append(s.crossval())
            continue
        if elapsed >= seconds and (len(cpu) >= MIN_PREDICTS
                                   or elapsed >= seconds + MAX_OVERRUN_S):
            break
        if not evaluations or (elapsed < seconds
                               and sum(evaluations) < EVALUATE_SHARE * elapsed):
            gc.collect()
            evaluations.append(s.evaluate())
        for w, c in s.predict_burst(PREDICT_BURST):
            wall.append(w)
            cpu.append(c)
    if s.pooled_auc is None or not s.pairs or len(cpu) < P99_BLOCK:
        fail("no usable result: " + "; ".join(s.problems))
    wall = sorted(wall)
    p99, per_block = block_p99(cpu)
    print(f"# samples: setup {len(setups)}, crossval {len(crossvals)}, "
          f"evaluate {len(evaluations)} x {s.pairs} pairs, predict {len(cpu)} "
          f"({len(per_block)} blocks of {len(cpu) // len(per_block)})")
    print("# setup_s each: " + " ".join(f"{v:.4f}" for v in setups))
    print("# crossval_s each: " + " ".join(f"{v:.3f}" for v in crossvals))
    print("# predict CPU p99 per block (ms): "
          + " ".join(f"{1000 * v:.3f}" for v in per_block))
    print(f"# predict wall (not gated): p50 {1000 * percentile(wall, 0.50):.3f} ms, "
          f"p99 {1000 * percentile(wall, 0.99):.3f} ms over {len(wall)} calls")
    return {
        "setup_s": statistics.median(setups),
        "crossval_s": statistics.median(crossvals),
        "pooled_auc": s.pooled_auc,
        "evaluate_pairs_per_s": statistics.median(s.pairs / e for e in evaluations),
        "predict_p50_ms": 1000 * percentile(sorted(cpu), 0.50),
        "predict_p99_ms": 1000 * p99,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1.0 - s.failed / s.attempted,
    }


def measure_traced(s: Session, seconds: float) -> dict[str, float]:
    s.setup()
    start = time.perf_counter()
    plain, traced, summaries, cycles, missing = [], [], [], [], set()
    while True:
        gc.collect()
        plain.append(s.crossval())
        s.evaluate()
        s.predict_burst(TRACE_PREDICTS)
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            s.setup()
            traced.append(s.crossval())
            s.evaluate()
            s.predict_burst(TRACE_PREDICTS)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
        cycles.append(tracer.spans)
        missing.update(tracer.missing)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(summaries) > seconds:  # no time for another pair
            break
    STATE_DIR.mkdir(exist_ok=True)
    tracing.write_spans(cycles, STATE_DIR / f"trace-{s.workload}-seed{s.seed}.json")
    if missing:
        print("# not wrapped: " + ", ".join(sorted(missing)))
    print(f"# traced cycles: {len(summaries)} (each: set-up, crossval, fold checks, "
          f"evaluate, {TRACE_PREDICTS} predicts)")
    out = {name: statistics.median(c[name] for c in summaries)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    self_sum = sum(out[f"{m}.self_s"] for m in tracing.MODULES)
    print(f"# module self times sum to {self_sum:.4f} s of {out['trace.root_s']:.4f} s "
          "in root spans; shares of the root:")
    for name in sorted(out, key=lambda n: -out[n]):
        if name.endswith("_s") and name != "trace.root_s" and out["trace.root_s"] > 0:
            print(f"#   {name:34s} {out[name] / out['trace.root_s']:7.1%}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, qa_model, workloads = import_program()
    info = provenance()
    digest_file = STATE_DIR / "digests.json"
    digests = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
    session = Session(args.workload, args.seed, SPECS[args.workload], cli, qa_model,
                      workloads, digests, info["tree_sha256"])
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK_DIR)
    os.chdir(work)
    try:
        if args.trace:
            values, units = measure_traced(session, args.seconds), PER_LAYER
        else:
            values, units = measure(session, args.seconds), END_TO_END
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    STATE_DIR.mkdir(exist_ok=True)
    tmp = digest_file.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
    os.replace(tmp, digest_file)

    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")
    print("# machine " + json.dumps(info, sort_keys=True))
    for problem in session.problems:
        print(f"# FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
