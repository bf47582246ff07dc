import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from patchqa import pairing, pipeline
from patchqa.corpus import load_dataset
from patchqa.embed import Embedding
from patchqa.pairing import (
    ExampleKind,
    FoldPlan,
    QaExample,
    build_examples,
    draw_other,
    fold_split,
    make_fold_plan,
    resolve_description,
)

from conftest import bug, description, patch, read_fold_plan, write_jsonl


def load(tmp_path, records, name="d.jsonl"):
    return load_dataset(write_jsonl(tmp_path / name, records))


def examples_of(ds, *kinds, seed=0):
    """The examples of the given kinds that ``build_examples`` makes."""
    return [ex for ex in build_examples(ds, seed) if ex.kind in kinds]


def positives(ds):
    return examples_of(ds, ExampleKind.DEV_POSITIVE, ExampleKind.APR_POSITIVE)


def apr_negatives(ds):
    return examples_of(ds, ExampleKind.APR_NEGATIVE)


def mismatches(ds, seed):
    return examples_of(ds, ExampleKind.RANDOM_MISMATCH, seed=seed)


def test_single_correct_dev_patch_gives_one_positive(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1"), description("P-1")])
    examples = positives(ds)
    assert len(examples) == 1
    ex = examples[0]
    assert ex.label == 1
    assert ex.kind is ExampleKind.DEV_POSITIVE
    assert ex.bug_text == ds.bugs["B-1"].text
    assert ex.description_text == "guard against empty input"


def test_correct_apr_patch_is_apr_positive(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1", origin="apr:FixTool"),
                         description("P-1", source="generated")])
    examples = positives(ds)
    assert examples[0].kind is ExampleKind.APR_POSITIVE
    assert examples[0].label == 1


def test_only_incorrect_patches_gives_no_positives(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1", label="incorrect")])
    assert positives(ds) == []


def test_unlabeled_patches_excluded_everywhere(tmp_path):
    ds = load(tmp_path, [bug("B-1"), bug("B-2"), patch("P-1", "B-1", label="unlabeled"),
                         patch("P-2", "B-2", label="unlabeled", origin="apr:T")])
    assert build_examples(ds, 0) == []


def test_description_falls_back_to_diff_summary(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1")])
    examples = positives(ds)
    assert len(examples) == 1
    assert "computeSafely" in examples[0].description_text
    assert resolve_description(ds, ds.patches["P-1"]) == examples[0].description_text


def test_ingested_description_takes_precedence(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1"),
                         description("P-1", text="the real story")])
    assert resolve_description(ds, ds.patches["P-1"]) == "the real story"


def test_unparseable_diff_without_description_is_skipped(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1", diff="not a diff at all")])
    assert positives(ds) == []


def test_empty_bug_text_with_correct_patch_raises(tmp_path):
    ds = load(tmp_path, [bug("B-1", title="", body=""), patch("P-1", "B-1"),
                         description("P-1")])
    with pytest.raises(ValueError, match="B-1"):
        positives(ds)


# --- random mismatches --------------------------------------------------------


def two_bug_dataset(tmp_path):
    return load(tmp_path, [
        bug("B-1", title="first bug title"), bug("B-2", title="second bug title"),
        patch("P-1", "B-1"), patch("P-2", "B-2"),
        description("P-1", text="fix for first"),
        description("P-2", text="fix for second"),
    ])


def test_two_bugs_mismatch_with_each_other(tmp_path):
    ds = two_bug_dataset(tmp_path)
    examples = mismatches(ds, 0)
    assert len(examples) == 2
    by_patch = {ex.patch_id: ex for ex in examples}
    assert by_patch["mismatch:P-1:B-2"].bug_id == "B-2"
    assert by_patch["mismatch:P-2:B-1"].bug_id == "B-1"
    for ex in examples:
        assert ex.label == 0
        assert ex.kind is ExampleKind.RANDOM_MISMATCH


def test_mismatches_deterministic_under_seed(tmp_path):
    ds = two_bug_dataset(tmp_path)
    a = mismatches(ds, 42)
    b = mismatches(ds, 42)
    assert a == b


def test_mismatch_never_pairs_with_true_bug(tmp_path):
    records = []
    for i in range(100):
        records.append(bug(f"B-{i}", title=f"bug number {i}"))
        records.append(patch(f"P-{i}", f"B-{i}"))
        records.append(description(f"P-{i}", text=f"fix number {i}"))
    ds = load(tmp_path, records)
    examples = mismatches(ds, 7)
    assert len(examples) == 100
    # exhaustive check over the output
    for ex in examples:
        true_bug = ex.patch_id.split(":")[1].replace("P-", "B-")
        assert ex.bug_id != true_bug
        assert ex.bug_text == ds.bugs[ex.bug_id].text


def test_mismatch_needs_two_dev_bugs(tmp_path):
    # B-2's developer patch has neither a description nor a hunk, so only one
    # bug has a developer description: mismatches are skipped, not an error,
    # and the other examples still build.
    ds = load(tmp_path, [bug("B-1"), bug("B-2"), bug("B-3"),
                         patch("P-1", "B-1"), description("P-1"),
                         patch("P-2", "B-2", diff="--- a/F\n+++ b/F\n"),
                         patch("P-3", "B-3", origin="apr:T", label="incorrect")])
    assert mismatches(ds, 0) == []
    assert [ex.patch_id for ex in build_examples(ds, 0)] == ["P-1", "P-3"]


# --- attributed negatives -------------------------------------------------------


def test_three_incorrect_patches_give_three_negatives(tmp_path):
    ds = load(tmp_path, [
        bug("B-1"),
        patch("P-1", "B-1", origin="apr:T", label="incorrect"),
        patch("P-2", "B-1", origin="apr:T", label="incorrect",
              diff="--- a/F\n+++ b/F\n@@ -1,1 +1,1 @@\n-a\n+b\n"),
        patch("P-3", "B-1", origin="apr:T", label="incorrect",
              diff="--- a/F\n+++ b/F\n@@ -2,1 +2,1 @@\n-c\n+d\n"),
        description("P-1"), description("P-2"), description("P-3"),
    ])
    examples = apr_negatives(ds)
    assert len(examples) == 3
    assert all(ex.label == 0 and ex.kind is ExampleKind.APR_NEGATIVE for ex in examples)
    assert all(ex.bug_id == "B-1" for ex in examples)


def test_no_incorrect_patches_gives_no_negatives(tmp_path):
    ds = load(tmp_path, [bug("B-1"), patch("P-1", "B-1")])
    assert apr_negatives(ds) == []


def test_build_examples_combines_all_kinds(tmp_path):
    ds = load(tmp_path, [
        bug("B-1"), bug("B-2"),
        patch("P-1", "B-1"), patch("P-2", "B-2"),
        patch("P-3", "B-1", origin="apr:T", label="incorrect",
              diff="--- a/F\n+++ b/F\n@@ -1,1 +1,1 @@\n-a\n+b\n"),
        description("P-1"), description("P-2"), description("P-3"),
    ])
    examples = build_examples(ds, mismatch_seed=0)
    kinds = [ex.kind for ex in examples]
    assert kinds.count(ExampleKind.DEV_POSITIVE) == 2
    assert kinds.count(ExampleKind.APR_NEGATIVE) == 1
    assert kinds.count(ExampleKind.RANDOM_MISMATCH) == 2


def test_each_contributing_patch_is_resolved_once(tmp_path, monkeypatch):
    ds = load(tmp_path, [
        bug("B-1"), bug("B-2"),
        patch("P-1", "B-1"), patch("P-2", "B-2"),
        patch("P-3", "B-1", origin="apr:T", label="incorrect"),
        patch("P-4", "B-2", origin="apr:T"),
        patch("P-5", "B-1", label="unlabeled"),
        patch("P-6", "B-2", origin="apr:T", label="unlabeled"),
        description("P-1"),
    ])
    calls = Counter()

    def counting(dataset, record):
        calls[record.patch_id] += 1
        return resolve_description(dataset, record)

    monkeypatch.setattr(pairing, "resolve_description", counting)
    examples = build_examples(ds, mismatch_seed=0)
    # The unlabeled developer patch P-5 contributes a mismatch; the unlabeled
    # tool patch P-6 contributes nothing and is never resolved.
    assert calls == {f"P-{i}": 1 for i in range(1, 6)}
    assert len(examples) == 3 + 1 + 3


def test_hypothesis_resolves_only_each_bugs_first_developer_description(tmp_path,
                                                                        monkeypatch):
    # A long/APR-style corpus: tool patches carry no description, so resolving
    # one writes a diff summary the study never reads.
    ds = load(tmp_path, [
        *(bug(f"B-{i}", title=f"crash in module{i}") for i in range(1, 5)),
        patch("P-1", "B-1"), patch("P-2", "B-1"),
        patch("P-3", "B-1", origin="apr:T", label="incorrect"),
        patch("P-4", "B-2", label="unlabeled"),
        patch("P-5", "B-2", origin="apr:T"),
        patch("P-6", "B-3", origin="apr:T", label="incorrect"),
        patch("P-7", "B-3"), patch("P-8", "B-4"),
        *(description(f"P-{i}", text=f"guard word{i}") for i in (1, 2, 4, 7, 8)),
    ])
    calls, summaries = Counter(), []

    def counting(dataset, record):
        calls[record.patch_id] += 1
        return resolve_description(dataset, record)

    monkeypatch.setattr(pairing, "resolve_description", counting)
    monkeypatch.setattr(pairing, "summarize", lambda hunks: summaries.append(hunks) or "x")
    study = pipeline.run_hypothesis(ds, Embedding(8, seed=0), seed=0)
    assert study["pairs"] == 4
    assert calls == {"P-1": 1, "P-4": 1, "P-7": 1, "P-8": 1}
    assert summaries == []


@given(st.integers(2, 40).flatmap(lambda count: st.tuples(st.just(count),
                                                          st.integers(0, count - 1))),
       st.integers(0, 2**32 - 1))
@example((2, 0), 0)
@example((2, 1), 0)
def test_draw_other_draws_uniformly_from_the_others(count_index, seed):
    count, index = count_index
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    others = [i for i in range(count) if i != index]
    for _ in range(5):
        drawn = draw_other(rng, count, index)
        assert drawn != index
        assert drawn == others[reference.integers(count - 1)]


def test_qa_example_label_kind_consistency():
    with pytest.raises(ValueError, match="inconsistent"):
        QaExample("B", "P", "text", "desc", 0, ExampleKind.DEV_POSITIVE)
    with pytest.raises(ValueError, match="inconsistent"):
        QaExample("B", "P", "text", "desc", 1, ExampleKind.APR_NEGATIVE)


# --- fold planning --------------------------------------------------------------


def test_ten_bugs_ten_groups_one_each():
    plan = make_fold_plan({f"B-{i}" for i in range(10)}, 10, seed=1)
    counts = [0] * 10
    for group in plan.assignments.values():
        counts[group] += 1
    assert counts == [1] * 10


def test_group_sizes_for_1301_bugs():
    plan = make_fold_plan({f"B-{i}" for i in range(1301)}, 10, seed=1)
    counts = [0] * 10
    for group in plan.assignments.values():
        counts[group] += 1
    assert sorted(counts) == [130] * 9 + [131]


def test_fold_plan_deterministic():
    ids = {f"B-{i}" for i in range(25)}
    assert make_fold_plan(ids, 5, seed=9) == make_fold_plan(ids, 5, seed=9)
    assert make_fold_plan(ids, 5, seed=9) != make_fold_plan(ids, 5, seed=10)


def test_fold_plan_rejects_bad_k():
    with pytest.raises(ValueError):
        make_fold_plan({"a", "b"}, 0, seed=1)
    with pytest.raises(ValueError, match="at least 2"):
        make_fold_plan({"a", "b"}, 1, seed=1)
    with pytest.raises(ValueError, match="exceeds"):
        make_fold_plan({"a", "b"}, 3, seed=1)


def test_fold_plan_json_roundtrip():
    plan = make_fold_plan({f"B-{i}" for i in range(12)}, 4, seed=3)
    again = read_fold_plan(plan.to_json())
    assert again == plan
    parsed = json.loads(plan.to_json())
    assert parsed["seed"] == 3 and parsed["k"] == 4


# --- fold splitting --------------------------------------------------------------


def synthetic_examples(n_bugs=30, per_bug=2):
    examples = []
    for i in range(n_bugs):
        for j in range(per_bug):
            examples.append(QaExample(
                bug_id=f"B-{i}", patch_id=f"P-{i}-{j}", bug_text=f"bug {i}",
                description_text=f"fix {i} {j}", label=1,
                kind=ExampleKind.DEV_POSITIVE))
    return examples


def test_each_example_tested_exactly_once_across_rounds():
    examples = synthetic_examples(30)
    plan = make_fold_plan({ex.bug_id for ex in examples}, 10, seed=4)
    seen = []
    for group in range(10):
        train_part, test_part = fold_split(examples, plan, group)
        assert len(train_part) + len(test_part) == len(examples)
        seen.extend(ex.patch_id for ex in test_part)
        train_bugs = {ex.bug_id for ex in train_part}
        test_bugs = {ex.bug_id for ex in test_part}
        assert not train_bugs & test_bugs  # the leakage invariant
    assert sorted(seen) == sorted(ex.patch_id for ex in examples)


def test_empty_test_when_no_bug_in_group():
    examples = synthetic_examples(4, per_bug=1)
    plan = FoldPlan(k=5, seed=0, assignments={f"B-{i}": i for i in range(4)})
    train_part, test_part = fold_split(examples, plan, 4)
    assert test_part == []
    assert len(train_part) == 4


def test_fold_split_rejects_unknown_bug():
    examples = synthetic_examples(3, per_bug=1)
    plan = FoldPlan(k=2, seed=0, assignments={"B-0": 0, "B-1": 1})
    with pytest.raises(ValueError, match="B-2"):
        fold_split(examples, plan, 0)


def test_fold_split_rejects_bad_group():
    examples = synthetic_examples(3, per_bug=1)
    plan = make_fold_plan({ex.bug_id for ex in examples}, 3, seed=0)
    with pytest.raises(ValueError):
        fold_split(examples, plan, 3)


def test_mismatch_examples_route_by_borrowed_bug(tmp_path):
    ds = two_bug_dataset(tmp_path)
    borrowed = mismatches(ds, 0)
    plan = make_fold_plan({"B-1", "B-2"}, 2, seed=0)
    for group in range(2):
        _, test_part = fold_split(borrowed, plan, group)
        for ex in test_part:
            assert plan.assignments[ex.bug_id] == group
