"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s or -v to see them).

The heavyweight criteria share one cross-validation run over the synthetic
keyword corpus (module-scoped fixture); determinism is checked by repeating
that run bit-for-bit.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np
import pytest

from patchqa import pipeline, qa_model, synth
from patchqa.metrics import ConfusionMatrix, auc, minus_recall, mww_test, plus_recall
from patchqa.pairing import build_examples
from patchqa.qa_model import BatchExample, ModelConfig, QaModel

from conftest import read_fold_plan, token_ids

SEEDS = {"corpus": 11, "embedding": 5, "model": 1, "fold": 2, "pair": 3}


def announce(criterion, message):
    print(f"\nACCEPTANCE criterion {criterion}: PASS — {message}")


def make_run_config(dataset_path):
    return pipeline.RunConfig(
        dataset=str(dataset_path),
        embedding=pipeline.EmbeddingSpec(dim=32, seed=SEEDS["embedding"]),
        model=ModelConfig(max_seq_len=64, hidden_size=16, learning_rate=0.01,
                          epochs=10, batch_size=128, seed=SEEDS["model"]),
        k=10,
        fold_seed=SEEDS["fold"],
        pair_seed=SEEDS["pair"],
    )


@dataclass
class BigRun:
    corpus_path: str
    config: pipeline.RunConfig
    result: pipeline.CrossvalResult
    out_dir: str
    elapsed: float


@pytest.fixture(scope="module")
def big_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    corpus_path = root / "corpus.jsonl"
    synth.write_keyword_corpus(corpus_path, n_bugs=200, seed=SEEDS["corpus"])
    config = make_run_config(corpus_path)
    started = time.time()
    result = pipeline.run_crossval(config)
    elapsed = time.time() - started
    out_dir = root / "run"
    pipeline.write_crossval_outputs(result, out_dir)
    return BigRun(corpus_path=str(corpus_path), config=config, result=result,
                  out_dir=str(out_dir), elapsed=elapsed)


def best_sweep_row(report):
    rows = [r for r in report["sweep"] if r["f1"] is not None]
    return max(rows, key=lambda r: r["f1"])


# --- criterion 1: metric oracle against the published count table ---------------


PUBLISHED_ROWS = [
    # threshold, tp, tn, fp, fn, +Recall %, -Recall %
    (0.1, 1591, 0, 7544, 0, 100.0, 0.0),
    (0.2, 1582, 2388, 5156, 9, 99.4, 31.7),
    (0.3, 1551, 3010, 4534, 40, 97.5, 39.9),
    (0.4, 1475, 4653, 2891, 116, 92.7, 61.7),
    (0.5, 1175, 6566, 978, 416, 73.9, 87.0),
    (0.6, 583, 7261, 283, 1008, 36.6, 96.2),
    (0.7, 189, 7522, 22, 1402, 11.9, 99.7),
    (0.8, 0, 7544, 0, 1591, 0.0, 100.0),
    (0.9, 0, 7544, 0, 1591, 0.0, 100.0),
]


def test_criterion_1_metric_oracle_reproduces_published_recalls():
    started = time.time()
    worst = 0.0
    for threshold, tp, tn, fp, fn, plus_pct, minus_pct in PUBLISHED_ROWS:
        cm = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
        plus_err = abs(plus_recall(cm) * 100 - plus_pct)
        minus_err = abs(minus_recall(cm) * 100 - minus_pct)
        worst = max(worst, plus_err, minus_err)
        assert plus_err <= 0.1, f"+Recall off at threshold {threshold}"
        assert minus_err <= 0.1, f"-Recall off at threshold {threshold}"
    elapsed = time.time() - started
    assert elapsed < 1.0
    announce(1, f"all 9 published recall pairs within {worst:.3f} pp "
                f"({elapsed * 1000:.0f} ms)")


# --- criterion 2: analytic gradients vs central finite differences ---------------


def test_criterion_2_gradient_correctness():
    started = time.time()
    rng = np.random.default_rng(20240)
    dim, hidden, n, batch = 4, 3, 5, 2
    model = QaModel.create(ModelConfig(max_seq_len=n, hidden_size=hidden, seed=77), dim)
    # Prefix masks; every real position reads its own random table row.
    bug_mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
    desc_mask = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]])
    table = np.vstack([np.zeros((1, dim)), rng.normal(size=(2 * batch * n, dim))])
    positions = np.arange(1, 2 * batch * n + 1, dtype=np.int32).reshape(2, batch, n)
    bug_ids, desc_ids = positions[0] * bug_mask, positions[1] * desc_mask
    labels = np.array([1.0, 0.0])

    def batch_loss():
        value, _ = qa_model.batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
        return value

    _, analytic = qa_model.batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    h = 1e-4
    worst = 0.0
    for name, tensor in model.params.items():
        numeric = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            original = tensor[ix]
            tensor[ix] = original + h
            up = batch_loss()
            tensor[ix] = original - h
            down = batch_loss()
            tensor[ix] = original
            numeric[ix] = (up - down) / (2 * h)
            it.iternext()
        a = np.asarray(analytic[name])
        rel = np.linalg.norm(a - numeric) / max(np.linalg.norm(a),
                                                np.linalg.norm(numeric), 1e-12)
        worst = max(worst, rel)
        assert rel < 1e-3, f"gradient mismatch for {name}: rel={rel:.2e}"
    elapsed = time.time() - started
    assert elapsed < 10.0
    announce(2, f"worst relative gradient error {worst:.2e} across every parameter "
                f"tensor ({elapsed:.1f} s)")


# --- criterion 3: score range and high-threshold behavior ------------------------


def test_criterion_3_score_range_invariant():
    started = time.time()
    rng = np.random.default_rng(331)
    model = QaModel.create(ModelConfig(max_seq_len=12, hidden_size=5, seed=9), 6)
    n, dim = 12, 6
    table = [np.zeros(dim)]  # embedding rows; row 0 is the padding row

    def side(vectors):
        ids = range(len(table), len(table) + len(vectors))
        table.extend(vectors)
        return token_ids(ids, n)

    examples = []
    for _ in range(1000):
        scale = float(rng.choice([0.1, 1.0, 10.0]))
        n_bug = int(rng.integers(1, n + 1))
        bug = side(rng.normal(size=(n_bug, dim)) * scale)
        n_desc = int(rng.integers(1, n + 1))
        examples.append(BatchExample(
            bug=bug, description=side(rng.normal(size=(n_desc, dim)) * scale), label=0))
    scores = qa_model.score_many(model, examples, np.array(table))
    low, high = 0.26894, 0.73107
    assert np.all(scores >= low), f"min score {scores.min()}"
    assert np.all(scores <= high), f"max score {scores.max()}"
    for threshold in (0.8, 0.9):
        assert np.all(scores < threshold)  # every prediction is "incorrect"
    elapsed = time.time() - started
    assert elapsed < 5.0
    announce(3, f"1000 scores in [{scores.min():.5f}, {scores.max():.5f}] ⊂ "
                f"[{low}, {high}]; thresholds 0.8/0.9 reject all ({elapsed:.1f} s)")


# --- criterion 4: synthetic separability under published hyper-parameters --------


def test_criterion_4_synthetic_separability(big_run):
    report = big_run.result.report
    mean_auc = report["mean"]["auc"]
    pooled_auc = report["statistics"]["pooled_auc"]
    best = best_sweep_row(report)
    assert mean_auc >= 0.95, f"mean AUC {mean_auc}"
    assert best["plus_recall"] >= 0.9, f"+Recall {best['plus_recall']} at best threshold"
    assert big_run.elapsed < 180.0, f"run took {big_run.elapsed:.0f} s"
    announce(4, f"mean AUC {mean_auc:.3f} (pooled {pooled_auc:.3f}), +Recall "
                f"{best['plus_recall']:.3f} at threshold {best['threshold']} "
                f"({big_run.elapsed:.0f} s)")


# --- criterion 5: leakage freedom, audited from foldplan.json --------------------


def test_criterion_5_leakage_freedom(big_run):
    from pathlib import Path

    plan = read_fold_plan(
        (Path(big_run.out_dir) / "foldplan.json").read_text(encoding="utf-8"))
    result = big_run.result
    ds, _ = pipeline.load_deduped(big_run.corpus_path)
    assert result.examples == build_examples(ds, big_run.config.pair_seed)
    # Each example was tested by the fold of the bug whose report it holds ...
    assert result.groups.tolist() == [plan.assignments[ex.bug_id] for ex in result.examples]
    assert set(result.groups.tolist()) == set(range(plan.k))
    for group in range(plan.k):
        train_bugs = {ex.bug_id for ex, g in zip(result.examples, result.groups) if g != group}
        test_bugs = {ex.bug_id for ex, g in zip(result.examples, result.groups) if g == group}
        assert not train_bugs & test_bugs
    # ... and scored exactly once.
    assert len(result.scores) == len(result.examples) == result.report["statistics"]["examples"]
    assert [fold["test_examples"] for fold in result.report["per_fold"]] == \
        np.bincount(result.groups, minlength=plan.k).tolist()
    with open(Path(big_run.out_dir) / "scores.csv", encoding="utf-8", newline="") as fh:
        scored = [row["patch_id"] for row in csv.DictReader(fh)]
    assert sorted(scored) == sorted(ex.patch_id for ex in result.examples)
    announce(5, f"train/test bug sets disjoint in all {plan.k} folds; "
                f"{len(result.examples)} examples each tested exactly once")


# --- criterion 6: statistics oracles ----------------------------------------------


def brute_force_u(a, b):
    total = 0.0
    for x in a:
        for y in b:
            if x > y:
                total += 1.0
            elif x == y:
                total += 0.5
    return total


def brute_force_auc(scored):
    positives = [s for s, y in scored if y == 1]
    negatives = [s for s, y in scored if y == 0]
    total = 0.0
    for p in positives:
        for q in negatives:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(positives) * len(negatives))


def test_criterion_6_statistics_oracles():
    started = time.time()
    rng = np.random.default_rng(606)
    checked_u = 0
    for _ in range(50):
        a = rng.integers(0, 12, size=15).astype(float)
        b = rng.integers(0, 12, size=15).astype(float)
        combined = np.concatenate([a, b])
        if np.all(combined == combined[0]):
            continue
        result = mww_test(a, b)
        assert abs(result.u_statistic - brute_force_u(a, b)) <= 1e-12
        checked_u += 1
    checked_auc = 0
    for _ in range(50):
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=12)
        labels = np.zeros(12, dtype=int)
        labels[: int(rng.integers(1, 12))] = 1
        rng.shuffle(labels)
        scored = list(zip(scores.tolist(), labels.tolist()))
        assert abs(auc(scores, labels) - brute_force_auc(scored)) <= 1e-12
        checked_auc += 1
    elapsed = time.time() - started
    assert checked_u >= 45 and checked_auc == 50
    assert elapsed < 5.0
    announce(6, f"U oracle exact on {checked_u} sample pairs, AUC oracle exact on "
                f"{checked_auc} score sets ({elapsed:.1f} s)")


# --- criterion 7: distance-hypothesis direction -----------------------------------


def test_criterion_7_hypothesis_direction(big_run):
    started = time.time()
    ds, _ = pipeline.load_deduped(big_run.corpus_path)
    provider = big_run.config.embedding.build()
    study = pipeline.run_hypothesis(ds, provider, seed=SEEDS["pair"])
    assert study["p_value"] < 0.01
    assert study["original"]["median"] < study["random"]["median"]
    elapsed = time.time() - started
    assert elapsed < 30.0
    announce(7, f"matched-pair distances stochastically smaller: medians "
                f"{study['original']['median']:.2f} < {study['random']['median']:.2f}, "
                f"p = {study['p_value']:.2e} ({elapsed:.1f} s)")


# --- criterion 8: bit-for-bit determinism ------------------------------------------


def test_criterion_8_determinism(big_run, tmp_path):
    from pathlib import Path

    repeat = pipeline.run_crossval(make_run_config(big_run.corpus_path))
    repeat_dir = tmp_path / "repeat"
    pipeline.write_crossval_outputs(repeat, repeat_dir)
    first = Path(big_run.out_dir)
    matched = []
    for name in ("report.json", "scores.csv"):
        assert (first / name).read_bytes() == (repeat_dir / name).read_bytes(), name
        matched.append(name)
    announce(8, f"repeated run reproduced {' and '.join(matched)} byte-for-byte")


# --- criterion 9: mismatch ablation ------------------------------------------------


def test_criterion_9_mismatch_ablation(big_run):
    provider = big_run.config.embedding.build()
    threshold = best_sweep_row(big_run.result.report)["threshold"]
    ablation = pipeline.mismatch_ablation(big_run.result, provider, threshold,
                                          seed=17)
    assert ablation["mean_ablated"] < ablation["mean_original"]
    assert ablation["lost_fraction"] >= 0.10
    announce(9, f"re-pairing {ablation['recalled']} recalled positives drops mean "
                f"score {ablation['mean_original']:.3f} → {ablation['mean_ablated']:.3f}; "
                f"{ablation['lost_fraction']:.0%} fall below threshold {threshold}")
