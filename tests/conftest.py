import os

# Keep BLAS single-threaded before numpy loads: the pipeline is sequential by
# contract and threaded kernels only add jitter on the small shapes used here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json

import numpy as np
import pytest

from patchqa import qa_model
from patchqa.corpus import load_dataset
from patchqa.embed import TokenIds
from patchqa.pairing import FoldPlan


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def bug(bug_id, title="Widget crashes on empty input", body="Stack trace attached."):
    return {"kind": "bug", "bug_id": bug_id, "title": title, "body": body}


def patch(patch_id, bug_id, diff=None, origin="developer", label="correct"):
    if diff is None:
        diff = (
            "--- a/src/Widget.java\n"
            "+++ b/src/Widget.java\n"
            "@@ -1,2 +1,2 @@\n"
            " int x = 0;\n"
            "-return compute(x);\n"
            "+return computeSafely(x);\n"
        )
    return {"kind": "patch", "patch_id": patch_id, "bug_id": bug_id, "diff": diff,
            "origin": origin, "label": label}


def description(patch_id, text="guard against empty input", source="human"):
    return {"kind": "description", "patch_id": patch_id, "text": text, "source": source}


@pytest.fixture
def tiny_dataset(tmp_path):
    path = write_jsonl(tmp_path / "tiny.jsonl", [
        bug("B-1"),
        patch("P-1", "B-1"),
        description("P-1"),
    ])
    return load_dataset(path)


def rewrite_checkpoint(blob: bytes, edit_header=None, tail=None) -> bytes:
    """A checkpoint with its header changed by ``edit_header`` and/or its
    tensor bytes replaced by ``tail(tensor_bytes)``."""
    magic = qa_model._CHECKPOINT_MAGIC
    start = len(magic) + 8
    end = start + int.from_bytes(blob[len(magic):start], "little")
    header = json.loads(blob[start:end])
    if edit_header is not None:
        edit_header(header)
    text = json.dumps(header).encode("utf-8")
    data = blob[end:] if tail is None else tail(blob[end:])
    return magic + len(text).to_bytes(8, "little") + text + data


def read_fold_plan(text: str) -> FoldPlan:
    """The FoldPlan a ``foldplan.json`` text records."""
    obj = json.loads(text)
    return FoldPlan(k=int(obj["k"]), seed=int(obj["seed"]),
                    assignments={str(b): int(g) for b, g in obj["assignments"].items()})


def token_ids(ids, max_len: int) -> TokenIds:
    """A side holding table ids ``ids``, zero-padded to ``max_len``."""
    padded = np.zeros(max_len, dtype=np.int32)
    padded[:len(ids)] = ids
    return TokenIds(ids=padded)
