"""End-to-end orchestration: ingestion, cross-validation, the distance
hypothesis study and report writing, with seed-controlled reproducibility.

Every run is a pure function of its inputs and the three named seeds (model,
fold, pairing): reports and score dumps are byte-identical across repeated
runs. Written outputs never embed timestamps or output paths.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import corpus, embed, metrics, pairing, qa_model

__all__ = [
    "CrossvalResult",
    "DEFAULT_SWEEP",
    "EmbeddingSpec",
    "FoldOutcome",
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
        out = {"kind": "file" if self.path else "hash", "dim": self.dim, "seed": self.seed}
        if self.path:
            out["path"] = str(self.path)
        return out

    @classmethod
    def from_dict(cls, obj) -> "EmbeddingSpec":
        """The spec ``describe`` wrote; ValueError for any other value."""
        if not isinstance(obj, dict):
            raise ValueError(f"embedding spec must be an object, not {obj!r}")
        spec = cls(dim=obj.get("dim", 32), seed=obj.get("seed", 0), path=obj.get("path"))
        for name, value in (("dim", spec.dim), ("seed", spec.seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"embedding {name} must be an integer, not {value!r}")
        if spec.path is not None and not isinstance(spec.path, str):
            raise ValueError(f"embedding path must be a string, not {spec.path!r}")
        kind = spec.describe()["kind"]  # a saved kind must be the one its path implies
        if obj.get("kind", kind) != kind:
            raise ValueError(f"embedding kind must be {kind!r} for path {spec.path!r}, "
                             f"not {obj['kind']!r}")
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
    return [vectorize(ex.bug_text, ex.description_text, ex.label, provider, max_seq_len)
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
class FoldOutcome:
    fold: int
    model: qa_model.QaModel
    test_examples: list  # pairing.QaExample, aligned with scores
    scores: np.ndarray


@dataclass
class CrossvalResult:
    report: dict
    plan: pairing.FoldPlan
    score_rows: list[tuple[str, str, int, float]]  # (patch_id, bug_id, label, score)
    folds: list[FoldOutcome]


def _score_rows(examples, scores) -> list[tuple[str, str, int, float]]:
    return [(ex.patch_id, ex.bug_id, ex.label, float(s)) for ex, s in zip(examples, scores)]


def _scored(rows) -> list[tuple[float, int]]:
    """(score, label) pairs of score rows, as the metrics take them."""
    return [(score_value, label) for _, _, label, score_value in rows]


def _mean_over_folds(per_fold: list[dict]) -> dict:
    out = {}
    for key in ("auc", "f1", "plus_recall", "minus_recall"):
        values = [m[key] for m in per_fold if m[key] is not None]
        out[key] = float(np.mean(values)) if values else None
    return out


def run_crossval(config: RunConfig, progress=None) -> CrossvalResult:
    """Grouped k-fold cross-validation over the dataset.

    Trains one model per fold on the other k-1 groups, scores the held-out
    group, and assembles the report: per-fold metrics at the operating
    threshold with the fold's loss per epoch, their mean, a pooled threshold
    sweep and pooled statistics.
    """
    _check_thresholds(config)
    config.model.validate()
    examples, removed = _load_examples(config.dataset, config.pair_seed)
    bug_ids = {ex.bug_id for ex in examples}
    plan = _stage("fold planning", pairing.make_fold_plan, bug_ids, config.k,
                  config.fold_seed)
    batch, table, metadata = _embed_examples(config, examples)
    vectors = dict(zip(examples, batch))
    per_fold = []
    folds = []
    rows: list[tuple[str, str, int, float]] = []
    for group in range(config.k):
        if progress is not None:
            progress(group, config.k)
        train_examples, test_examples = pairing.fold_split(examples, plan, group)
        train_batch = [vectors[ex] for ex in train_examples]
        fold_model = qa_model.QaModel.create(config.model, table.shape[1], metadata)
        _, history = _stage(f"training fold {group}", qa_model.train,
                            fold_model, train_batch, table)
        scores = qa_model.score_many(fold_model, [vectors[ex] for ex in test_examples], table)
        fold_rows = _score_rows(test_examples, scores)
        sweep = metrics.threshold_sweep(_scored(fold_rows), (config.threshold,))
        at = sweep.rows[0]
        per_fold.append({
            "fold": group,
            "train_examples": len(train_batch),
            "test_examples": len(fold_rows),
            "auc": sweep.auc,
            "f1": at["f1"],
            "plus_recall": at["plus_recall"],
            "minus_recall": at["minus_recall"],
            "loss_history": history,
        })
        rows += fold_rows
        folds.append(FoldOutcome(group, fold_model, test_examples, scores))
    sweep = metrics.threshold_sweep(_scored(rows), config.thresholds)
    positives = sum(1 for ex in examples if ex.label == 1)
    report = {
        "config": config.describe(),
        "per_fold": per_fold,
        "mean": _mean_over_folds(per_fold),
        "sweep": sweep.rows,
        "statistics": {
            "pooled_auc": sweep.auc,
            "examples": len(examples),
            "positives": positives,
            "negatives": len(examples) - positives,
            "bugs": len(bug_ids),
            "duplicates_removed": removed,
        },
    }
    return CrossvalResult(report=report, plan=plan, score_rows=rows, folds=folds)


def write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_scores_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patch_id", "bug_id", "label", "score"])
        for patch_id, bug_id, label, score_value in rows:
            writer.writerow([patch_id, bug_id, label, format(score_value, ".17g")])


def write_crossval_outputs(result: CrossvalResult, out_dir) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "report": out / "report.json",
        "scores": out / "scores.csv",
        "foldplan": out / "foldplan.json",
    }
    write_json(result.report, paths["report"])
    write_scores_csv(result.score_rows, paths["scores"])
    paths["foldplan"].write_text(result.plan.to_json(), encoding="utf-8")
    for fold in result.folds:
        ckpt = out / f"model_fold{fold.fold}.ckpt"
        qa_model.save_model(fold.model, ckpt)
        paths[f"model_fold{fold.fold}"] = ckpt
    return paths


def run_train(config: RunConfig):
    """Train one model on every labeled example; returns (model, info), where
    info holds the example counts and the loss per epoch."""
    examples, _ = _load_examples(config.dataset, config.pair_seed)
    batch, table, metadata = _embed_examples(config, examples)
    model = qa_model.QaModel.create(config.model, table.shape[1], metadata)
    _, history = _stage("training", qa_model.train, model, batch, table)
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
    seed and thresholds of ``config`` apply."""
    _check_thresholds(config)
    examples, removed = _load_examples(config.dataset, config.pair_seed)
    rows = _score_rows(examples, score_examples(model, examples, provider))
    sweep = metrics.threshold_sweep(_scored(rows), config.thresholds)
    at_threshold = metrics.threshold_sweep(_scored(rows), (config.threshold,)).rows[0]
    del at_threshold["threshold"]
    report = {
        "config": {
            "dataset": str(config.dataset),
            "model": str(model_path),
            "pair_seed": config.pair_seed,
            "threshold": config.threshold,
        },
        "at_threshold": at_threshold,
        "sweep": sweep.rows,
        "statistics": {
            "auc": sweep.auc,
            "examples": len(examples),
            "duplicates_removed": removed,
        },
    }
    return report, rows


def run_hypothesis(ds: corpus.Dataset, provider, seed: int) -> dict:
    """Distance study: matched (bug report, developer description) pairs vs
    seeded random re-pairings, on jointly standardized mean-token vectors."""
    first: dict[str, str] = {}  # each bug's first developer description
    for patch in ds.patches.values():
        if patch.origin.is_developer and patch.bug_id not in first:
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
    original = [(bug_std[i], desc_std[i]) for i in range(n)]
    randomized = [(bug_std[i], desc_std[pairing.draw_other(rng, n, i)]) for i in range(n)]
    study = metrics.euclidean_distance_study(original, randomized)
    return {
        "pairs": n,
        "seed": seed,
        "u_statistic": study.u_statistic,
        "p_value": study.p_value,
        "original": _distance_summary(study.original_median, study.original_distances),
        "random": _distance_summary(study.random_median, study.random_distances),
        "original_stochastically_smaller":
            bool(study.original_median < study.random_median),
    }


def _distance_summary(median: float, distances: np.ndarray) -> dict:
    return {"median": median, "mean": float(distances.mean()),
            "distances": [float(x) for x in distances]}


def mismatch_ablation(result: CrossvalResult, provider, threshold: float,
                      seed: int) -> dict:
    """Re-pair recalled test positives with random other test bugs and rescore.

    For each fold, takes the label-1 test examples scoring at or above the
    threshold, swaps their bug report for a random different bug's report
    drawn from the same fold's test data, and rescores with the fold model.
    """
    rng = np.random.default_rng(seed)
    before: list[float] = []
    after: list[float] = []
    for fold in result.folds:
        bug_texts: dict[str, str] = {}
        for ex in fold.test_examples:
            bug_texts.setdefault(ex.bug_id, ex.bug_text)
        if len(bug_texts) < 2:
            continue
        bug_ids = list(bug_texts)
        position = {bug_id: i for i, bug_id in enumerate(bug_ids)}
        max_len = fold.model.config.max_seq_len
        for idx, ex in enumerate(fold.test_examples):
            if ex.label != 1 or fold.scores[idx] < threshold:
                continue
            wrong = bug_ids[pairing.draw_other(rng, len(bug_ids), position[ex.bug_id])]
            swapped = vectorize(bug_texts[wrong], ex.description_text, 1, provider, max_len)
            before.append(float(fold.scores[idx]))
            after.append(qa_model.score(fold.model, swapped, provider.table))
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
