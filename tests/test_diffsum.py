import re

import pytest
from hypothesis import given, strategies as st

from patchqa.corpus import load_dataset
from patchqa.diffsum import (
    DiffHunk,
    DiffParseError,
    describe_diff,
    parse_unified_diff,
    summarize,
)
from patchqa.pairing import resolve_description

from conftest import bug, patch, write_jsonl

MINIMAL = (
    "--- a/src/Widget.java\n"
    "+++ b/src/Widget.java\n"
    "@@ -3,3 +3,3 @@\n"
    " context before\n"
    "-old line\n"
    "+new line\n"
    " context after\n"
)


def test_minimal_diff_one_hunk():
    hunks = parse_unified_diff(MINIMAL)
    assert len(hunks) == 1
    hunk = hunks[0]
    assert hunk.file_path == "src/Widget.java"
    assert hunk.removed_lines == ["old line"]
    assert hunk.added_lines == ["new line"]


def test_hunk_counts_inconsistent_with_header():
    # header promises three old-side lines but the body holds two
    bad = "--- a/F\n+++ b/F\n@@ -1,3 +1,2 @@\n context\n-gone\n+here\n"
    with pytest.raises(DiffParseError, match="inconsistent"):
        parse_unified_diff(bad)


def test_empty_string_parses_to_no_hunks():
    assert parse_unified_diff("") == []


def test_two_file_diff_groups_by_path():
    diff = (
        "--- a/src/A.java\n+++ b/src/A.java\n@@ -1,1 +1,1 @@\n-a1\n+a2\n"
        "--- a/src/B.java\n+++ b/src/B.java\n@@ -5,1 +5,2 @@\n-b1\n+b2\n+b3\n"
    )
    hunks = parse_unified_diff(diff)
    # brute-force count of distinct paths, in order
    paths = []
    for hunk in hunks:
        if hunk.file_path not in paths:
            paths.append(hunk.file_path)
    assert paths == ["src/A.java", "src/B.java"]
    assert len(hunks) == 2


def test_malformed_hunk_header():
    with pytest.raises(DiffParseError, match="malformed hunk header"):
        parse_unified_diff("--- a/F\n+++ b/F\n@@ -x +y @@\n")


def test_truncated_hunk_body():
    with pytest.raises(DiffParseError, match="truncated"):
        parse_unified_diff("--- a/F\n+++ b/F\n@@ -1,2 +1,2 @@\n-only\n+one")


def test_implied_count_of_one():
    hunks = parse_unified_diff("--- a/F\n+++ b/F\n@@ -4 +4 @@\n-x\n+y\n")
    assert hunks[0].removed_lines == ["x"]


def test_zero_start_clamped_to_one():
    hunks = parse_unified_diff("--- /dev/null\n+++ b/F\n@@ -0,0 +1,1 @@\n+fresh\n")
    assert hunks[0].added_lines == ["fresh"]


def test_no_newline_marker_ignored():
    diff = "--- a/F\n+++ b/F\n@@ -1,1 +1,1 @@\n-x\n\\ No newline at end of file\n+y\n"
    hunks = parse_unified_diff(diff)
    assert hunks[0].removed_lines == ["x"] and hunks[0].added_lines == ["y"]


def test_crlf_diff_parses_as_its_lf_form():
    # The blank context line is empty, which a CRLF diff writes as a lone "\r".
    lf = ("--- a/src/Widget.java\n+++ b/src/Widget.java\n@@ -3,4 +3,4 @@\n"
          " context before\n\n-old line\n+new line\n context after\n")
    crlf = lf.replace("\n", "\r\n")
    assert parse_unified_diff(crlf) == parse_unified_diff(lf)
    assert describe_diff(crlf) == describe_diff(lf)


def test_pure_context_hunk_rejected():
    with pytest.raises(DiffParseError, match="no added or removed"):
        parse_unified_diff("--- a/F\n+++ b/F\n@@ -1,1 +1,1 @@\n same\n")


OVER_COUNT = "hunk line counts inconsistent with header ranges"

# Each hunk body line, as (header, body lines, expected): the hunk's
# (removed_lines, added_lines), or the exact message of the DiffParseError.
BODY_LINES = {
    "minus": ("@@ -1,1 +0,0 @@", ["-gone"], (["gone"], [])),
    "plus": ("@@ -0,0 +1,1 @@", ["+new"], ([], ["new"])),
    "space": ("@@ -1,2 +1,1 @@", [" kept", "-gone"], (["gone"], [])),
    "empty-is-context": ("@@ -1,2 +1,1 @@", ["", "-gone"], (["gone"], [])),
    "no-newline": ("@@ -1,1 +1,1 @@", ["-x", "\\ No newline at end of file", "+y"],
                   (["x"], ["y"])),
    "minus-past-old": ("@@ -1,1 +1,2 @@", ["-a", "-b"], OVER_COUNT),
    "plus-past-new": ("@@ -1,2 +1,1 @@", ["+a", "+b"], OVER_COUNT),
    "context-past-old": ("@@ -1,1 +1,2 @@", ["-a", " c"], OVER_COUNT),
    "context-past-new": ("@@ -1,2 +1,1 @@", ["+a", " c"], OVER_COUNT),
    "unexpected": ("@@ -1,1 +1,1 @@", ["*junk"], "unexpected line inside hunk: '*junk'"),
    "truncated": ("@@ -1,2 +1,2 @@", ["-a", "+b"], OVER_COUNT + ": diff truncated"),
}


@pytest.mark.parametrize("header, body, expected", BODY_LINES.values(), ids=BODY_LINES)
def test_each_hunk_body_line(header, body, expected):
    diff = "\n".join(["--- a/F", "+++ b/F", header, *body])  # no trailing empty line
    if isinstance(expected, str):
        with pytest.raises(DiffParseError) as info:
            parse_unified_diff(diff)
        assert str(info.value) == expected
    else:
        [hunk] = parse_unified_diff(diff)
        assert (hunk.removed_lines, hunk.added_lines) == expected


def test_git_noise_lines_skipped():
    diff = (
        "diff --git a/F.java b/F.java\n"
        "index 3f1a2bc..9d0e1f2 100644\n"
        "--- a/F.java\n+++ b/F.java\n@@ -1,1 +1,1 @@\n-x\n+y\n"
    )
    assert len(parse_unified_diff(diff)) == 1


# --- summarize --------------------------------------------------------------


def test_summary_mentions_change_and_file():
    diff = (
        "--- a/src/main/java/NumberUtils.java\n"
        "+++ b/src/main/java/NumberUtils.java\n"
        "@@ -12,4 +12,2 @@\n"
        " String str = input;\n"
        '-if (str.startsWith("--")) {\n'
        "-    return null;\n"
        " }\n"
    )
    text = describe_diff(diff)
    assert "removed" in text
    assert "startsWith" in text
    assert "NumberUtils" in text


def test_additions_only_summary():
    diff = "--- a/F.java\n+++ b/F.java\n@@ -1,1 +1,2 @@\n x\n+added code\n"
    text = describe_diff(diff)
    assert "added" in text
    assert "removed" not in text


def test_summary_is_deterministic():
    hunks = parse_unified_diff(MINIMAL)
    assert summarize(hunks) == summarize(parse_unified_diff(MINIMAL))


def test_summary_template_shape():
    text = describe_diff(MINIMAL)
    assert text == "removed 1 line(s) [old line] added 1 line(s) [new line] in Widget"


def test_snippet_truncates_to_twelve_tokens():
    long_line = " ".join(f"tok{i}" for i in range(20))
    diff = f"--- a/F.java\n+++ b/F.java\n@@ -1,1 +1,1 @@\n-{long_line}\n+short\n"
    text = describe_diff(diff)
    assert "tok11" in text and "tok12" not in text


def test_multi_file_summary_joined_with_semicolon():
    diff = (
        "--- a/src/A.java\n+++ b/src/A.java\n@@ -1,1 +1,1 @@\n-a1\n+a2\n"
        "--- a/src/B.java\n+++ b/src/B.java\n@@ -5,1 +5,1 @@\n-b1\n+b2\n"
    )
    text = describe_diff(diff)
    left, right = text.split("; ")
    assert left.endswith("in A") and right.endswith("in B")


def test_empty_hunk_list_rejected():
    with pytest.raises(ValueError, match="empty hunk list"):
        summarize([])


@pytest.mark.parametrize("diff", ["", "--- a/F.java\n+++ b/F.java\n"],
                         ids=["empty", "headers-only"])
def test_describe_diff_of_a_hunk_free_diff_is_a_parse_error(diff):
    with pytest.raises(DiffParseError, match="^cannot summarize an empty hunk list$"):
        describe_diff(diff)


def test_snippet_of_a_file_comes_from_a_later_hunk_when_earlier_lines_are_blank():
    hunks = [DiffHunk("src/F.java", removed_lines=["", "   "], added_lines=["first add"]),
             DiffHunk("src/F.java", removed_lines=["second  hunk line"], added_lines=["x"])]
    assert summarize(hunks) == ("removed 3 line(s) [second hunk line] "
                                "added 2 line(s) [first add] in F")


@pytest.mark.parametrize("diff", ["--- a/F.java\n+++ b/F.java\n@@ -1,3 +1,1 @@\n-a\n",
                                  "--- a/F.java\n+++ b/F.java\n"],
                         ids=["malformed", "hunk-free"])
def test_undescribed_patch_without_a_summary_resolves_to_none(tmp_path, diff):
    ds = load_dataset(write_jsonl(tmp_path / "d.jsonl",
                                  [bug("B-1"), patch("P-1", "B-1", diff=diff)]))
    assert resolve_description(ds, ds.patches["P-1"]) is None


_TEMPLATE_WORDS = {"removed", "added", "line", "s", "in"}
_IDENTIFIERS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

line_strategy = st.text(
    alphabet=st.sampled_from(list("abcXYZ_01 ().")), min_size=0, max_size=20)


@given(
    removed=st.lists(line_strategy, max_size=3),
    added=st.lists(line_strategy, min_size=1, max_size=3),
    path=st.sampled_from(["src/Alpha.java", "lib/beta_mod.py", "Gamma.c"]),
)
def test_summary_identifiers_come_from_the_input(removed, added, path):
    hunk = DiffHunk(file_path=path, removed_lines=removed, added_lines=added)
    text = summarize([hunk])
    source = " ".join(removed + added) + " " + path
    source_idents = set(_IDENTIFIERS.findall(source))
    for ident in _IDENTIFIERS.findall(text):
        assert ident in _TEMPLATE_WORDS or ident in source_idents
