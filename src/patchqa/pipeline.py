"""End-to-end orchestration: ingestion, cross-validation, the distance
hypothesis study and report writing, with seed-controlled reproducibility.

Every run is a pure function of its inputs and the three named seeds (model,
fold, pairing): reports and score dumps are byte-identical across repeated
runs. Written outputs never embed timestamps or output paths.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
import re
import signal
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import corpus, embed, metrics, pairing, qa_model

__all__ = [
    "CrossvalResult",
    "DEFAULT_SWEEP",
    "EmbeddingSpec",
    "PipelineError",
    "RunConfig",
    "dataset_summary",
    "load_deduped",
    "mismatch_ablation",
    "run_crossval",
    "run_evaluate",
    "run_hypothesis",
    "run_train",
    "score_examples",
    "vectorize",
    "vectorize_examples",
    "write_crossval_outputs",
    "write_json",
    "write_scores_csv",
]

DEFAULT_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class PipelineError(Exception):
    """A stage failure; the message is prefixed with the stage name."""


@dataclass
class EmbeddingSpec:
    """Where token vectors come from: the vector file at ``path``, else hashing."""

    dim: int = 32
    seed: int = 0
    path: str | None = None

    def build(self) -> embed.Embedding:
        if not self.path:
            return embed.Embedding(self.dim, self.seed)
        provider = embed.Embedding.load(self.path, self.seed)
        self.dim = provider.dim
        return provider

    def describe(self) -> dict:
        # A file run hashes the tokens its file lacks, so both kinds name the
        # hashed-vector scheme.
        out = {"kind": "file" if self.path else "hash", "dim": self.dim, "seed": self.seed,
               "scheme": embed.SCHEME}
        if self.path:
            out["path"] = str(self.path)
        return out

    @classmethod
    def from_dict(cls, obj) -> "EmbeddingSpec":
        """The spec ``describe`` wrote; ValueError for any other value,
        including one written under another hashed-vector scheme."""
        if not isinstance(obj, dict):
            raise ValueError(f"embedding spec must be an object, not {obj!r}")
        spec = cls(**{name: obj[name] for name in ("dim", "seed", "path") if name in obj})
        for name, value in (("dim", spec.dim), ("seed", spec.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"embedding {name} must be an integer, not {value!r}")
        if spec.path is not None and not isinstance(spec.path, str):
            raise ValueError(f"embedding path must be a string, not {spec.path!r}")
        kind = spec.describe()["kind"]  # a saved kind must be the one its path implies
        if obj.get("kind", kind) != kind:
            raise ValueError(f"embedding kind must be {kind!r} for path {spec.path!r}, "
                             f"not {obj['kind']!r}")
        # A model trained on another scheme's vectors would score silently wrong.
        if obj.get("scheme") != embed.SCHEME:
            found = repr(obj["scheme"]) if "scheme" in obj else "missing"
            raise ValueError(f"embedding scheme must be {embed.SCHEME!r}, not {found}")
        return spec


@dataclass
class RunConfig:
    """Everything a run needs; all seeds land in the emitted report."""

    dataset: str
    embedding: EmbeddingSpec = field(default_factory=EmbeddingSpec)
    model: qa_model.ModelConfig = field(default_factory=qa_model.ModelConfig)
    k: int = 10
    fold_seed: int = 0
    pair_seed: int = 0
    threshold: float = 0.5
    thresholds: tuple[float, ...] = DEFAULT_SWEEP

    def describe(self) -> dict:
        return {**asdict(self), "dataset": str(self.dataset),
                "embedding": self.embedding.describe(), "thresholds": list(self.thresholds)}


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(f"{name}: {exc}") from exc


def load_deduped(path) -> tuple[corpus.Dataset, int]:
    """Load a dataset file and deduplicate patches; returns (dataset, removed)."""
    ds = corpus.load_dataset(path)
    deduped = corpus.dedup_patches(ds)
    return deduped, len(ds.patches) - len(deduped.patches)


def _check_thresholds(config: RunConfig) -> None:
    """Reject a bad operating threshold or sweep before any work is done."""
    _stage("evaluation", metrics.check_thresholds, (config.threshold,))
    _stage("evaluation", metrics.check_thresholds, config.thresholds)


def _load_examples(dataset, pair_seed: int) -> tuple[list[pairing.QaExample], int]:
    """Ingest, deduplicate and pair a dataset file; returns (examples,
    duplicates removed). A dataset without labeled examples is an error."""
    ds, removed = _stage("ingest", load_deduped, dataset)
    examples = _stage("pairing", pairing.build_examples, ds, pair_seed)
    if not examples:
        raise PipelineError("pairing: dataset yields no labeled examples")
    return examples, removed


def dataset_summary(ds: corpus.Dataset, duplicates_removed: int) -> dict:
    patches, descriptions = ds.patches.values(), ds.descriptions.values()
    return {
        "bugs": len(ds.bugs),
        "patches": {"total": len(patches),
                    "by_label": dict(Counter(p.label.value for p in patches)),
                    "by_origin": dict(Counter(p.origin.wire() for p in patches))},
        "descriptions": {"total": len(descriptions),
                         "by_source": dict(Counter(d.source.value for d in descriptions))},
        "duplicates_removed": duplicates_removed,
    }


def vectorize(bug_text: str, description_text: str, label: int, provider,
              max_seq_len: int) -> qa_model.BatchExample:
    """Model input for one text pair: both sides tokenized, turned into ids
    of ``provider``'s table and padded to ``max_seq_len``."""
    return qa_model.BatchExample(
        bug=embed.prepare(embed.tokenize(bug_text), provider, max_seq_len),
        description=embed.prepare(embed.tokenize(description_text), provider, max_seq_len),
        label=label)


def vectorize_examples(examples, provider, max_seq_len: int) -> list[qa_model.BatchExample]:
    """``vectorize`` for each example, but each distinct text is prepared once, in
    the same first-seen order, so ids match; examples sharing a text share its ids."""
    prepared: dict[str, embed.TokenIds] = {}

    def ids(text: str) -> embed.TokenIds:
        if text not in prepared:
            prepared[text] = embed.prepare(embed.tokenize(text), provider, max_seq_len)
        return prepared[text]
    return [qa_model.BatchExample(ids(ex.bug_text), ids(ex.description_text), ex.label)
            for ex in examples]


def score_examples(model: qa_model.QaModel, examples, provider) -> np.ndarray:
    batch = vectorize_examples(examples, provider, model.config.max_seq_len)
    return qa_model.score_many(model, batch, provider.table)


def _embed_examples(config: RunConfig, examples):
    """Build the run's embedding and vectorize every example; returns (model
    inputs aligned with examples, the embedding table, checkpoint metadata)."""
    provider = _stage("embedding", config.embedding.build)
    batch = _stage("embedding", vectorize_examples, examples, provider,
                   config.model.max_seq_len)
    return batch, provider.table, {"embedding": config.embedding.describe()}


@dataclass
class CrossvalResult:
    """One row per example: ``groups[i]`` is the fold that tested ``examples[i]``
    and ``scores[i]`` its held-out score; ``models[g]`` is fold g's model."""

    report: dict
    plan: pairing.FoldPlan
    examples: list  # pairing.QaExample
    groups: np.ndarray
    scores: np.ndarray
    models: tuple  # qa_model.QaModel


def _score_rows(examples, scores) -> list[tuple[str, str, int, float]]:
    return [(ex.patch_id, ex.bug_id, ex.label, float(s)) for ex, s in zip(examples, scores)]


def _labels(examples) -> np.ndarray:
    return np.array([ex.label for ex in examples])


def _mean_over_folds(per_fold: list[dict]) -> dict:
    out = {}
    for key in ("auc", "f1", "plus_recall", "minus_recall"):
        values = [m[key] for m in per_fold if m[key] is not None]
        out[key] = float(np.mean(values)) if values else None
    return out


def _train_folds(k: int, train_fold, progress) -> list:
    """``[train_fold(g) for g in range(k)]`` in P = min(k, 2 x usable CPUs) processes.
    Forked child w pickles back the result (or exception) of each fold g % P == w, in
    order. The OS time-shares the CPUs among them, so k folds take about k / CPUs
    fold-times whenever k <= P, not the ceil(k / CPUs) of one process per CPU, and at
    most P folds are in memory at once. One usable CPU, no ``os.fork``, or another live
    thread (a lock it holds at the fork stays locked in the child forever) trains every
    fold in-process."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count()) or 1
    forkable = hasattr(os, "fork") and cpus > 1 and threading.active_count() == 1
    workers = min(k, 2 * cpus) if forkable else 1
    children = {}  # worker -> (pid, read end of its pipe)
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            if (pid := os.fork()) == 0:
                try:  # the child: it must never unwind into the caller's stack
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as out:
                        for group in range(worker, k, workers):
                            try:
                                pickle.dump(train_fold(group), out)
                            except Exception as exc:
                                pickle.dump(exc, out)
                            out.flush()
                    os._exit(0)
                finally:  # no inherited stdio flush, exit handler or test teardown
                    os._exit(1)
            os.close(write_fd)
            children[worker] = (pid, os.fdopen(read_fd, "rb"))
        results = []
        for group in range(k):
            if progress is not None:
                progress(group, k)
            if group % workers == 0:
                results.append(train_fold(group))
                continue
            try:
                results.append(pickle.load(children[group % workers][1]))
            except (EOFError, pickle.UnpicklingError):
                children[group % workers][1].close()
                status = os.waitpid(children.pop(group % workers)[0], 0)[1]
                raise PipelineError(f"training fold {group}: worker process ended with "
                                    f"status {os.waitstatus_to_exitcode(status)}") from None
            if isinstance(results[-1], BaseException):
                raise results[-1]
        return results
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_crossval(config: RunConfig, progress=None) -> CrossvalResult:
    """Grouped k-fold cross-validation over the dataset.

    Trains one model per fold on the other k-1 groups, scores the held-out
    group, and assembles the report: per-fold metrics at the operating
    threshold with the fold's loss per epoch, their mean, a pooled threshold
    sweep and pooled statistics. Folds share no state, so they train side by side in
    up to min(k, 2 x usable CPUs) processes (see ``_train_folds``); the outputs do not
    depend on that count.
    """
    _check_thresholds(config)
    config.model.validate()
    examples, removed = _load_examples(config.dataset, config.pair_seed)
    bug_ids = {ex.bug_id for ex in examples}
    plan = _stage("fold planning", pairing.make_fold_plan, bug_ids, config.k,
                  config.fold_seed)
    groups, labels = pairing.fold_groups(examples, plan), _labels(examples)
    batch, table, metadata = _embed_examples(config, examples)

    def train_fold(group):
        test = groups == group
        fold_model = qa_model.QaModel.create(config.model, table.shape[1], metadata)
        history = _stage(f"training fold {group}", qa_model.train, fold_model,
                         [row for row, held_out in zip(batch, test) if not held_out], table)
        scores = qa_model.score_many(
            fold_model, [row for row, held_out in zip(batch, test) if held_out], table)
        at = metrics.threshold_sweep(scores, labels[test], (config.threshold,))[0]
        return {
            "fold": group,
            "train_examples": len(examples) - len(scores),
            "test_examples": len(scores),
            "auc": metrics.auc(scores, labels[test]),
            "f1": at["f1"],
            "plus_recall": at["plus_recall"],
            "minus_recall": at["minus_recall"],
            "loss_history": history,
        }, fold_model, scores
    per_fold, models, fold_scores = zip(*_train_folds(config.k, train_fold, progress))
    scores = np.empty(len(examples))  # fold g scored its rows in example order
    scores[np.argsort(groups, kind="stable")] = np.concatenate(fold_scores)
    positives = int(labels.sum())
    report = {
        "config": config.describe(),
        "per_fold": list(per_fold),
        "mean": _mean_over_folds(per_fold),
        "sweep": metrics.threshold_sweep(scores, labels, config.thresholds),
        "statistics": {
            "pooled_auc": metrics.auc(scores, labels),
            "examples": len(examples),
            "positives": positives,
            "negatives": len(examples) - positives,
            "bugs": len(bug_ids),
            "duplicates_removed": removed,
        },
    }
    return CrossvalResult(report, plan, examples, groups, scores, models)


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_scores_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patch_id", "bug_id", "label", "score"])
        for patch_id, bug_id, label, score_value in rows:
            writer.writerow([patch_id, bug_id, label, format(score_value, ".17g")])


def write_crossval_outputs(result: CrossvalResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(result.report, out / "report.json")
    order = np.argsort(result.groups, kind="stable")
    write_scores_csv(_score_rows([result.examples[i] for i in order], result.scores[order]),
                     out / "scores.csv")
    (out / "foldplan.json").write_text(result.plan.to_json(), encoding="utf-8")
    written = {f"model_fold{fold}.ckpt" for fold in range(len(result.models))}
    for fold, model in enumerate(result.models):
        qa_model.save_model(model, out / f"model_fold{fold}.ckpt")
    # An earlier run into this directory may have had more folds.
    for path in out.glob("model_fold*.ckpt"):
        if re.fullmatch(r"model_fold\d+\.ckpt", path.name) and path.name not in written:
            path.unlink()


def run_train(config: RunConfig):
    """Train one model on every labeled example; returns (model, info), where
    info holds the example counts and the loss per epoch."""
    config.model.validate()
    examples, _ = _load_examples(config.dataset, config.pair_seed)
    batch, table, metadata = _embed_examples(config, examples)
    model = qa_model.QaModel.create(config.model, table.shape[1], metadata)
    history = _stage("training", qa_model.train, model, batch, table)
    info = {
        "examples": len(examples),
        "positives": sum(1 for ex in examples if ex.label == 1),
        "loss_history": history,
    }
    return model, info


def run_evaluate(config: RunConfig, model: qa_model.QaModel, provider,
                 model_path) -> tuple[dict, list]:
    """Score every labeled example of the dataset with a trained model;
    returns the report (metrics at the threshold, the sweep, statistics) and
    the score rows (patch_id, bug_id, label, score). Only the dataset, pair
    seed and thresholds of ``config`` apply; the report records its
    embedding, the spec ``provider`` was built from."""
    _check_thresholds(config)
    examples, removed = _load_examples(config.dataset, config.pair_seed)
    scores, labels = score_examples(model, examples, provider), _labels(examples)
    at_threshold = metrics.threshold_sweep(scores, labels, (config.threshold,))[0]
    del at_threshold["threshold"]
    report = {
        "config": {
            "dataset": str(config.dataset),
            "embedding": config.embedding.describe(),
            "model": str(model_path),
            "pair_seed": config.pair_seed,
            "threshold": config.threshold,
        },
        "at_threshold": at_threshold,
        "sweep": metrics.threshold_sweep(scores, labels, config.thresholds),
        "statistics": {
            "auc": metrics.auc(scores, labels),
            "examples": len(examples),
            "duplicates_removed": removed,
        },
    }
    return report, _score_rows(examples, scores)


def run_hypothesis(ds: corpus.Dataset, provider, seed: int) -> dict:
    """Distance study over jointly standardized mean-token vectors: the
    Euclidean distances of matched (bug report, first developer description)
    pairs against those of seeded random re-pairings, compared by
    ``metrics.mww_test``. The matched-text hypothesis holds when the matched
    distances are stochastically smaller (small p, smaller median). A bug whose
    report has no token is left out, as in ``pairing.build_examples``."""
    first: dict[str, str] = {}  # each bug's first developer description
    for patch in ds.patches.values():
        if (patch.origin.is_developer and patch.bug_id not in first
                and embed.has_token(ds.bugs[patch.bug_id].text)):
            text = pairing.resolve_description(ds, patch)
            if text is not None:
                first[patch.bug_id] = text
    pairs = [(bug.text, first[bug_id]) for bug_id, bug in ds.bugs.items() if bug_id in first]
    if len(pairs) < 2:
        raise ValueError("hypothesis study needs at least 2 bugs with developer "
                         "patch descriptions")
    # Every text's ids first (bug, description, bug, ...), so the table is built once.
    ids = [provider.ids(embed.tokenize(text).tokens) for pair in pairs for text in pair]
    vectors = np.stack([embed.text_vector(text_ids, provider.table) for text_ids in ids])
    standardized = embed.standardize(np.vstack([vectors[0::2], vectors[1::2]]))
    n = len(pairs)
    bug_std = standardized[:n]
    desc_std = standardized[n:]
    rng = np.random.default_rng(seed)
    others = [pairing.draw_other(rng, n, i) for i in range(n)]
    # One norm per pair: a row-wise (axis=1) norm can differ in the last bits.
    distances = {"original": [np.linalg.norm(bug_std[i] - desc_std[i]) for i in range(n)],
                 "random": [np.linalg.norm(bug_std[i] - desc_std[j])
                            for i, j in enumerate(others)]}
    result = metrics.mww_test(distances["original"], distances["random"])
    summary = {name: {"median": float(np.median(d)), "mean": float(np.mean(d)),
                      "distances": [float(x) for x in d]} for name, d in distances.items()}
    return {
        "pairs": n,
        "seed": seed,
        "u_statistic": result.u_statistic,
        "p_value": result.p_value,
        **summary,
        "original_stochastically_smaller":
            summary["original"]["median"] < summary["random"]["median"],
    }


def mismatch_ablation(result: CrossvalResult, provider, threshold: float,
                      seed: int) -> dict:
    """Re-pair recalled test positives with random other test bugs and rescore.

    For each fold, takes the label-1 test examples scoring at or above the
    threshold, swaps their bug report for a random different bug's report
    drawn from the same fold's test data, and rescores the fold's swapped
    pairs with the fold model in one batch.
    """
    rng = np.random.default_rng(seed)
    before: list[float] = []
    after: list[float] = []
    for group, model in enumerate(result.models):
        test = np.flatnonzero(result.groups == group)
        tested = [result.examples[i] for i in test]
        bug_texts = {ex.bug_id: ex.bug_text for ex in tested}  # one text per bug
        if len(bug_texts) < 2:
            continue
        bug_ids = list(bug_texts)
        position = {bug_id: i for i, bug_id in enumerate(bug_ids)}
        swapped = []
        for ex, score in zip(tested, result.scores[test]):
            if ex.label != 1 or score < threshold:
                continue
            wrong = bug_ids[pairing.draw_other(rng, len(bug_ids), position[ex.bug_id])]
            swapped.append(replace(ex, bug_text=bug_texts[wrong]))
            before.append(float(score))
        after.extend(score_examples(model, swapped, provider).tolist())
    if not before:
        raise ValueError("no recalled positives available to ablate")
    lost = sum(1 for value in after if value < threshold)
    return {
        "threshold": threshold,
        "recalled": len(before),
        "mean_original": float(np.mean(before)),
        "mean_ablated": float(np.mean(after)),
        "lost": lost,
        "lost_fraction": lost / len(before),
    }
