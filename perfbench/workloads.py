"""Seeded input generators for the benchmark workloads.

The program only ever sees the dataset files written here. Two corpus shapes:

- the keyword corpus of ``patchqa.synth``: short texts (title 5 tokens, body 5,
  descriptions 6), every patch ships a human description, no duplicates;
- the long/APR corpus built from it: bug bodies of 40-110 filler tokens (most
  bug sequences overflow ``max_seq_len`` 64), one APR patch per bug with no
  description (``diffsum`` writes one), labelled correct or incorrect, and a
  byte-near copy of that patch from a second tool (``dedup`` drops it).
"""

from __future__ import annotations

import numpy as np

from patchqa import synth
from patchqa.corpus import BugReport, Dataset, Label, Origin, PatchRecord, save_dataset

LONG_BODY_TOKENS = (40, 110)


def keyword_corpus(n_bugs: int, seed: int) -> Dataset:
    return synth.build_keyword_corpus(n_bugs=n_bugs, seed=seed)


def _apr_diff(index: int, keyword: str, correct: bool, rng) -> str:
    """A one-hunk diff; correct fixes name the bug's keyword, incorrect ones
    touch an unrelated identifier."""
    target = keyword if correct else f"delta{int(rng.integers(10000)):04d}"
    guard = str(rng.choice(("null", "empty", "zero", "negative")))
    return (
        f"--- a/src/Widget{index:04d}.java\n"
        f"+++ b/src/Widget{index:04d}.java\n"
        "@@ -40,4 +40,5 @@\n"
        "     int value = base;\n"
        f"-    return compute({target}, value);\n"
        f"+    if (isInvalid({target}, {guard})) return fallback(value);\n"
        f"+    return computeChecked({target}, value, {guard});\n"
        "     // end of method\n"
        "     log(value);\n"
    )


def _near_copy(diff: str) -> str:
    """The same change as another tool prints it: trailing blanks and an extra
    blank line, which ``normalize_diff`` removes."""
    return diff.replace("\n", " \n") + "\n\n"


def long_corpus(n_bugs: int, seed: int) -> Dataset:
    base = synth.build_keyword_corpus(n_bugs=n_bugs, seed=seed, patches_per_bug=2)
    rng = np.random.default_rng([seed, 1])
    ds = Dataset(patches=dict(base.patches), descriptions=dict(base.descriptions))
    for index, (bug_id, bug) in enumerate(base.bugs.items()):
        size = int(rng.integers(LONG_BODY_TOKENS[0], LONG_BODY_TOKENS[1] + 1))
        body = " ".join(rng.choice(synth.BUG_FILLER, size=size))
        ds.bugs[bug_id] = BugReport(bug_id=bug_id, title=bug.title, body=body)
        correct = bool(rng.random() < 0.5)
        diff = _apr_diff(index, bug.title.split()[0], correct, rng)
        label = Label.CORRECT if correct else Label.INCORRECT
        for tool, text in (("tool_a", diff), ("tool_b", _near_copy(diff))):
            patch_id = f"apr-{index:04d}-{tool}"
            ds.patches[patch_id] = PatchRecord(patch_id=patch_id, bug_id=bug_id,
                                               diff=text, origin=Origin.parse(f"apr:{tool}"),
                                               label=label)
    return ds


def write(ds: Dataset, path) -> Dataset:
    save_dataset(ds, path)
    return ds
