"""Data model and file ingestion for labeled bug/patch corpora.

A dataset file is UTF-8 text with one JSON object per line, discriminated by
a ``kind`` field:

    {"kind": "bug", "bug_id": ..., "title": ..., "body": ...}
    {"kind": "patch", "patch_id": ..., "bug_id": ..., "diff": ...,
     "origin": "developer" | "apr:<tool>",
     "label": "correct" | "incorrect" | "unlabeled"}
    {"kind": "description", "patch_id": ..., "text": ...,
     "source": "human" | "generated"}

Records may appear in any order; referential integrity is checked once the
whole file has been read. A loaded ``Dataset`` is treated as immutable and is
safe to share read-only across concurrent workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "BugReport",
    "Dataset",
    "DatasetError",
    "DescriptionSource",
    "Label",
    "Origin",
    "PatchDescription",
    "PatchRecord",
    "dedup_patches",
    "load_dataset",
    "normalize_diff",
    "save_dataset",
]


class DatasetError(Exception):
    """Raised for malformed dataset files or integrity violations."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Label(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"
    UNLABELED = "unlabeled"


class DescriptionSource(Enum):
    HUMAN = "human"
    GENERATED = "generated"


@dataclass(frozen=True)
class Origin:
    """Provenance of a patch: a developer or a named repair tool."""

    kind: str  # "developer" or "apr"
    tool: str | None = None

    @property
    def is_developer(self) -> bool:
        return self.kind == "developer"

    @classmethod
    def parse(cls, raw: str) -> "Origin":
        if raw == "developer":
            return cls("developer")
        if raw.startswith("apr:") and raw[4:]:
            return cls("apr", raw[4:])
        raise ValueError(f"invalid origin {raw!r}")

    def wire(self) -> str:
        return "developer" if self.is_developer else f"apr:{self.tool}"


@dataclass(frozen=True)
class BugReport:
    bug_id: str
    title: str
    body: str

    @property
    def text(self) -> str:
        # Downstream text is exactly title + newline + body; issue-tracker
        # comments are never stored.
        return self.title + "\n" + self.body


@dataclass(frozen=True)
class PatchRecord:
    patch_id: str
    bug_id: str
    diff: str
    origin: Origin
    label: Label


@dataclass(frozen=True)
class PatchDescription:
    patch_id: str
    text: str
    source: DescriptionSource


@dataclass
class Dataset:
    """Bug reports, patches and descriptions keyed by their ids.

    Instances preserve file order in all three maps and satisfy referential
    integrity: every patch references a known bug and every description a
    known patch.
    """

    bugs: dict[str, BugReport] = field(default_factory=dict)
    patches: dict[str, PatchRecord] = field(default_factory=dict)
    descriptions: dict[str, PatchDescription] = field(default_factory=dict)


def _string_field(obj: dict, key: str, line: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise DatasetError(f"missing or non-string field {key!r}", line)
    return value


def load_dataset(path) -> Dataset:
    """Read a line-delimited JSON dataset file.

    Raises :class:`DatasetError` with the offending line number for malformed
    records, duplicate ids, empty diffs or descriptions, and (after the file
    is consumed) for dangling references.
    """
    ds = Dataset()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.strip()
            if not stripped:
                continue
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON: {exc.msg}", lineno) from exc
            except RecursionError:
                raise DatasetError("invalid JSON: nested too deeply", lineno) from None
            if not isinstance(obj, dict):
                raise DatasetError("record is not a JSON object", lineno)
            kind = obj.get("kind")
            if kind == "bug":
                _load_bug(ds, obj, lineno)
            elif kind == "patch":
                _load_patch(ds, obj, lineno)
            elif kind == "description":
                _load_description(ds, obj, lineno)
            else:
                raise DatasetError(f"unknown record kind {kind!r}", lineno)
    _check_integrity(ds)
    return ds


def _load_bug(ds: Dataset, obj: dict, line: int) -> None:
    bug_id = _string_field(obj, "bug_id", line)
    if not bug_id:
        raise DatasetError("empty bug_id", line)
    if bug_id in ds.bugs:
        raise DatasetError(f"duplicate bug_id {bug_id!r}", line)
    ds.bugs[bug_id] = BugReport(
        bug_id=bug_id,
        title=_string_field(obj, "title", line),
        body=_string_field(obj, "body", line),
    )


def _load_patch(ds: Dataset, obj: dict, line: int) -> None:
    patch_id = _string_field(obj, "patch_id", line)
    if not patch_id:
        raise DatasetError("empty patch_id", line)
    if patch_id in ds.patches:
        raise DatasetError(f"duplicate patch_id {patch_id!r}", line)
    diff = _string_field(obj, "diff", line)
    if not diff:
        raise DatasetError(f"patch {patch_id!r} has an empty diff", line)
    try:
        origin = Origin.parse(_string_field(obj, "origin", line))
        label = Label(_string_field(obj, "label", line))
    except ValueError as exc:
        raise DatasetError(str(exc), line) from exc
    ds.patches[patch_id] = PatchRecord(
        patch_id=patch_id,
        bug_id=_string_field(obj, "bug_id", line),
        diff=diff,
        origin=origin,
        label=label,
    )


def _load_description(ds: Dataset, obj: dict, line: int) -> None:
    patch_id = _string_field(obj, "patch_id", line)
    if patch_id in ds.descriptions:
        raise DatasetError(f"duplicate description for patch {patch_id!r}", line)
    text = _string_field(obj, "text", line)
    if not text.strip():
        raise DatasetError(f"description for patch {patch_id!r} is blank", line)
    try:
        source = DescriptionSource(_string_field(obj, "source", line))
    except ValueError as exc:
        raise DatasetError(str(exc), line) from exc
    ds.descriptions[patch_id] = PatchDescription(patch_id=patch_id, text=text, source=source)


def _check_integrity(ds: Dataset) -> None:
    for patch in ds.patches.values():
        if patch.bug_id not in ds.bugs:
            raise DatasetError(
                f"patch {patch.patch_id!r} references unknown bug {patch.bug_id!r}"
            )
    for desc in ds.descriptions.values():
        if desc.patch_id not in ds.patches:
            raise DatasetError(f"description references unknown patch {desc.patch_id!r}")


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset back to the line-delimited JSON format."""
    with open(path, "w", encoding="utf-8") as fh:
        for bug in ds.bugs.values():
            fh.write(json.dumps(
                {"kind": "bug", "bug_id": bug.bug_id, "title": bug.title, "body": bug.body}
            ) + "\n")
        for patch in ds.patches.values():
            fh.write(json.dumps({
                "kind": "patch",
                "patch_id": patch.patch_id,
                "bug_id": patch.bug_id,
                "diff": patch.diff,
                "origin": patch.origin.wire(),
                "label": patch.label.value,
            }) + "\n")
        for desc in ds.descriptions.values():
            fh.write(json.dumps({
                "kind": "description",
                "patch_id": desc.patch_id,
                "text": desc.text,
                "source": desc.source.value,
            }) + "\n")


def normalize_diff(diff: str) -> str:
    """Strip trailing whitespace per line and collapse runs of blank lines."""
    out: list[str] = []
    for line in diff.split("\n"):
        line = line.rstrip()
        if line == "" and out and out[-1] == "":
            continue
        out.append(line)
    return "\n".join(out)


def dedup_patches(ds: Dataset) -> Dataset:
    """Keep the first patch of every (bug_id, normalized diff) group.

    String-based only: semantically equivalent diffs that differ in raw text
    (extra parentheses, renamed temporaries) both survive. Descriptions of
    dropped patches are dropped with them. Idempotent.
    """
    seen: set[tuple[str, str]] = set()
    kept: dict[str, PatchRecord] = {}
    for patch in ds.patches.values():
        key = (patch.bug_id, normalize_diff(patch.diff))
        if key in seen:
            continue
        seen.add(key)
        kept[patch.patch_id] = patch
    descriptions = {pid: d for pid, d in ds.descriptions.items() if pid in kept}
    return Dataset(bugs=dict(ds.bugs), patches=kept, descriptions=descriptions)
