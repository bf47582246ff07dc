"""Construction of labeled question/answer examples and grouped fold plans.

Fold assignment is keyed on bug id so that every patch of one bug (including
near-duplicate patches from different tools) lands on a single side of each
train/test split. Random-mismatch examples route by the bug whose report they
borrow, so a test bug's report can never leak into training through a
mismatch pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Dataset, Label, PatchRecord
from .diffsum import DiffParseError, describe_diff
from .embed import has_token

__all__ = [
    "ExampleKind",
    "FoldPlan",
    "QaExample",
    "build_examples",
    "draw_other",
    "fold_groups",
    "make_fold_plan",
    "resolve_description",
]


class ExampleKind(Enum):
    DEV_POSITIVE = "dev_positive"
    APR_POSITIVE = "apr_positive"
    RANDOM_MISMATCH = "random_mismatch"
    APR_NEGATIVE = "apr_negative"


_POSITIVE_KINDS = frozenset({ExampleKind.DEV_POSITIVE, ExampleKind.APR_POSITIVE})


@dataclass(frozen=True)
class QaExample:
    """One (bug report text, patch description text, kind) unit; the kind
    sets the label.

    For random mismatches, bug_id names the mismatched bug providing the
    report text and patch_id is synthetic.
    """

    bug_id: str
    patch_id: str
    bug_text: str
    description_text: str
    kind: ExampleKind

    @property
    def label(self) -> int:
        """1 for a positive kind, else 0."""
        return 1 if self.kind in _POSITIVE_KINDS else 0


def resolve_description(dataset: Dataset, patch: PatchRecord) -> str | None:
    """Ingested description if present, else the rule-based diff summary.

    Returns None when neither is available (unparseable or hunk-free diff) and
    for an ingested description with no token, such as ``"!!!"``, which would
    score 0.5 whatever its report.
    """
    desc = dataset.descriptions.get(patch.patch_id)
    if desc is not None:
        return desc.text if has_token(desc.text) else None
    try:
        return describe_diff(patch.diff)
    except DiffParseError:
        return None


def draw_other(rng: np.random.Generator, count: int, index: int) -> int:
    """A uniformly random integer in [0, count) other than ``index``; one draw."""
    j = int(rng.integers(count - 1))
    return j + (j >= index)


def build_examples(dataset: Dataset, mismatch_seed: int) -> list[QaExample]:
    """Positives, attributed negatives, then seeded random mismatches.

    A correct patch gives a label-1 example with its own bug's report, an
    incorrect one a label-0 example. Each developer patch also gives a
    label-0 mismatch with the report of a bug drawn uniformly from all other
    bugs whose report has a token. A report with no token would score 0.5,
    which the default threshold calls correct, so its bug gives no example:
    a correct patch of it is an error, and its other patches are left out.
    Mismatches are skipped when fewer than two bugs have a developer
    description; unlabeled patches never contribute examples of their own.
    One pass in dataset order resolves the description of each patch that
    can contribute (a labeled patch or any developer patch) once; patches
    without one are left out.
    """
    bug_ids = [bug_id for bug_id, bug in dataset.bugs.items() if has_token(bug.text)]
    position = {bug_id: i for i, bug_id in enumerate(bug_ids)}
    positives, negatives, developer = [], [], []
    for patch in dataset.patches.values():
        if patch.label is Label.UNLABELED and not patch.origin.is_developer:
            continue
        text = resolve_description(dataset, patch)
        if text is None:
            continue
        if patch.bug_id not in position:
            if patch.label is Label.CORRECT:
                raise ValueError(
                    f"bug report {patch.bug_id!r} has no token but owns correct patch "
                    f"{patch.patch_id!r}"
                )
            continue
        bug = dataset.bugs[patch.bug_id]
        if patch.label is Label.CORRECT:
            kind = (ExampleKind.DEV_POSITIVE if patch.origin.is_developer
                    else ExampleKind.APR_POSITIVE)
            positives.append(QaExample(patch.bug_id, patch.patch_id, bug.text, text, kind))
        elif patch.label is Label.INCORRECT:
            negatives.append(QaExample(patch.bug_id, patch.patch_id, bug.text, text,
                                       ExampleKind.APR_NEGATIVE))
        if patch.origin.is_developer:
            developer.append((patch, text))
    examples = positives + negatives
    if len({patch.bug_id for patch, _ in developer}) < 2:
        return examples
    rng = np.random.default_rng(mismatch_seed)
    for patch, text in developer:
        wrong = bug_ids[draw_other(rng, len(bug_ids), position[patch.bug_id])]
        examples.append(QaExample(
            bug_id=wrong,
            patch_id=f"mismatch:{patch.patch_id}:{wrong}",
            bug_text=dataset.bugs[wrong].text,
            description_text=text,
            kind=ExampleKind.RANDOM_MISMATCH,
        ))
    return examples


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of every bug id to one of k groups; sizes differ by <= 1."""

    k: int
    seed: int
    assignments: dict[str, int]

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "k": self.k, "assignments": self.assignments},
            sort_keys=True, indent=2,
        ) + "\n"


def make_fold_plan(bug_ids, k: int, seed: int) -> FoldPlan:
    """Seeded uniform shuffle of the bug ids, then round-robin assignment."""
    ids = sorted(bug_ids)
    if k < 2:
        raise ValueError(f"k must be at least 2, not {k}")
    if k > len(ids):
        raise ValueError(f"k={k} exceeds the {len(ids)} available bugs")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    assignments = {ids[int(j)]: position % k for position, j in enumerate(order)}
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def fold_groups(examples: list[QaExample], plan: FoldPlan) -> np.ndarray:
    """Each example's fold group: that of the bug whose report it holds. Fold g
    tests the examples of group g and trains on the rest."""
    return np.array([plan.assignments[ex.bug_id] for ex in examples], dtype=int)
