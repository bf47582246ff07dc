"""Unified-diff parsing and a deterministic rule-based change summarizer.

The summary stands in for a learned change-description generator when a patch
ships without one: a fixed template over the parsed hunks, so equal diffs
always yield byte-identical text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import PurePosixPath

__all__ = ["DiffHunk", "DiffParseError", "describe_diff", "parse_unified_diff", "summarize"]

_HUNK_HEADER = re.compile(r"^@@ -\d+(?:,(\d+))? \+\d+(?:,(\d+))? @@")
_SNIPPET_TOKENS = 12

# A hunk body line's first character -> (old lines it uses, new lines it uses,
# the DiffHunk list that keeps its content). An empty line is context, and
# "\ No newline at end of file" uses no line.
_BODY_LINES = {
    "-": (1, 0, "removed_lines"),
    "+": (0, 1, "added_lines"),
    " ": (1, 1, None),
    "": (1, 1, None),
    "\\": (0, 0, None),
}


class DiffParseError(ValueError):
    """Raised for malformed unified diff text, and by ``summarize`` for no hunks."""


@dataclass
class DiffHunk:
    """One change block; line lists hold content without the +/- marker."""

    file_path: str
    removed_lines: list[str] = field(default_factory=list)
    added_lines: list[str] = field(default_factory=list)


def _path_from_header(line: str) -> str:
    path = line[3:].strip()
    if "\t" in path:  # drop a trailing timestamp column
        path = path.split("\t", 1)[0]
    if path.startswith("b/"):
        path = path[2:]
    return path


def parse_unified_diff(diff: str) -> list[DiffHunk]:
    """Parse unified diff text into hunks, in file order.

    The file path of a hunk comes from the closest preceding ``+++`` header
    with any ``b/`` prefix stripped; ``diff --git``, ``index`` and mode lines
    are skipped. Hunk bodies are validated against the header ranges and must
    contain at least one added or removed line. An empty string parses to an
    empty list.
    """
    hunks: list[DiffHunk] = []
    lines = iter(diff.split("\n"))
    current_path = ""
    for line in lines:
        if line.startswith("+++"):
            current_path = _path_from_header(line)
        elif line.startswith("@@"):
            match = _HUNK_HEADER.match(line)
            if match is None:
                raise DiffParseError(f"malformed hunk header: {line!r}")
            old_left, new_left = (int(n) if n is not None else 1 for n in match.groups())
            hunk = DiffHunk(file_path=current_path)
            while old_left > 0 or new_left > 0:
                body = next(lines, None)
                if body is None:
                    raise DiffParseError(
                        "hunk line counts inconsistent with header ranges: diff truncated"
                    )
                rule = _BODY_LINES.get(body[:1])
                if rule is None:
                    raise DiffParseError(f"unexpected line inside hunk: {body!r}")
                old_used, new_used, kept = rule
                old_left, new_left = old_left - old_used, new_left - new_used
                if old_left < 0 or new_left < 0:
                    raise DiffParseError("hunk line counts inconsistent with header ranges")
                if kept:
                    getattr(hunk, kept).append(body[1:])
            if not hunk.removed_lines and not hunk.added_lines:
                raise DiffParseError("hunk contains no added or removed lines")
            hunks.append(hunk)
    return hunks


def _first_snippet(lines: list[str]) -> str:
    for line in lines:
        tokens = line.split()
        if tokens:
            return " ".join(tokens[:_SNIPPET_TOKENS])
    return ""


def summarize(hunks: list[DiffHunk]) -> str:
    """Render hunks as deterministic template text, one clause group per file.

    Template: ``removed <k> line(s) [<snippet>] added <m> line(s) [<snippet>]
    in <file stem>`` per file, in order of first appearance, joined by
    ``"; "``. Each clause counts the file's removed or added lines across its
    hunks, in hunk order; its snippet is the first non-blank one, truncated to
    12 whitespace tokens. Template words are lowercase; identifiers from the
    diff keep their case.
    """
    if not hunks:
        raise DiffParseError("cannot summarize an empty hunk list")
    per_file: dict[str, tuple[list[str], list[str]]] = {}
    for hunk in hunks:
        removed, added = per_file.setdefault(hunk.file_path, ([], []))
        removed += hunk.removed_lines
        added += hunk.added_lines
    parts = []
    for path, (removed, added) in per_file.items():
        clauses = [f"{verb} {len(changed)} line(s) [{_first_snippet(changed)}]"
                   for verb, changed in (("removed", removed), ("added", added)) if changed]
        stem = PurePosixPath(path).stem
        parts.append(" ".join(clauses) + (f" in {stem}" if stem else ""))
    return "; ".join(parts)


def describe_diff(diff: str) -> str:
    """Parse and summarize in one step; DiffParseError for a malformed or
    hunk-free diff."""
    return summarize(parse_unified_diff(diff))
