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


class DiffParseError(ValueError):
    """Raised for malformed unified diff text."""


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
    lines = diff.split("\n")
    current_path = ""
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        if line.startswith("+++"):
            current_path = _path_from_header(line)
            i += 1
        elif line.startswith("@@"):
            match = _HUNK_HEADER.match(line)
            if match is None:
                raise DiffParseError(f"malformed hunk header: {line!r}")
            old_count = int(match.group(1)) if match.group(1) is not None else 1
            new_count = int(match.group(2)) if match.group(2) is not None else 1
            hunk = DiffHunk(file_path=current_path)
            i += 1
            old_left, new_left = old_count, new_count
            while old_left > 0 or new_left > 0:
                if i >= n:
                    raise DiffParseError(
                        "hunk line counts inconsistent with header ranges: diff truncated"
                    )
                body = lines[i]
                if body.startswith("\\"):  # "\ No newline at end of file"
                    i += 1
                    continue
                if body.startswith("-"):
                    if old_left <= 0:
                        raise DiffParseError(
                            "hunk line counts inconsistent with header ranges"
                        )
                    hunk.removed_lines.append(body[1:])
                    old_left -= 1
                elif body.startswith("+"):
                    if new_left <= 0:
                        raise DiffParseError(
                            "hunk line counts inconsistent with header ranges"
                        )
                    hunk.added_lines.append(body[1:])
                    new_left -= 1
                elif body.startswith(" ") or body == "":
                    if old_left <= 0 or new_left <= 0:
                        raise DiffParseError(
                            "hunk line counts inconsistent with header ranges"
                        )
                    old_left -= 1
                    new_left -= 1
                else:
                    raise DiffParseError(f"unexpected line inside hunk: {body!r}")
                i += 1
            if not hunk.removed_lines and not hunk.added_lines:
                raise DiffParseError("hunk contains no added or removed lines")
            hunks.append(hunk)
        else:
            i += 1
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
    in <file stem>`` per file, joined by ``"; "``. Snippets are the first
    non-blank changed line per direction, truncated to 12 whitespace tokens.
    Template words are lowercase; identifiers from the diff keep their case.
    """
    if not hunks:
        raise ValueError("cannot summarize an empty hunk list")
    order: list[str] = []
    per_file: dict[str, dict] = {}
    for hunk in hunks:
        stats = per_file.get(hunk.file_path)
        if stats is None:
            stats = {"removed": 0, "added": 0, "removed_snippet": "", "added_snippet": ""}
            per_file[hunk.file_path] = stats
            order.append(hunk.file_path)
        stats["removed"] += len(hunk.removed_lines)
        stats["added"] += len(hunk.added_lines)
        if not stats["removed_snippet"]:
            stats["removed_snippet"] = _first_snippet(hunk.removed_lines)
        if not stats["added_snippet"]:
            stats["added_snippet"] = _first_snippet(hunk.added_lines)
    parts = []
    for path in order:
        stats = per_file[path]
        clauses = []
        if stats["removed"]:
            clauses.append(f"removed {stats['removed']} line(s) [{stats['removed_snippet']}]")
        if stats["added"]:
            clauses.append(f"added {stats['added']} line(s) [{stats['added_snippet']}]")
        stem = PurePosixPath(path).stem if path else ""
        text = " ".join(clauses)
        if stem:
            text += f" in {stem}"
        parts.append(text)
    return "; ".join(parts)


def describe_diff(diff: str) -> str:
    """Parse and summarize in one step; raises if the diff has no hunks."""
    return summarize(parse_unified_diff(diff))
