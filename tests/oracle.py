"""Single-example reference math for the batched scorer in ``qa_model``.

The model scores whole batches at once; these functions spell out one
sequence, one attention row, one cosine and one loss at a time, so the tests
can check the batched path against them and pin each step's properties.
"""

import math

import numpy as np

from patchqa import qa_model


def bilstm_forward(model: qa_model.QaModel, rows, length: int | None = None) -> np.ndarray:
    """Embed one (N, dim) sequence whose first ``length`` rows are real (all
    of them by default); row t concatenates both direction states."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != model.input_dim:
        raise ValueError(f"input dim mismatch: model expects dim {model.input_dim}")
    length = len(rows) if length is None else length
    # A table of its own: the zero padding row, then one row per position.
    table = np.vstack([np.zeros((1, rows.shape[1])), rows])
    ids = np.arange(1, len(rows) + 1)[None]
    e, inverse, _ = qa_model._bilstm_run(model, np.array([length]), table, ids)
    return e[inverse[0]]


def lstm_direction(params, d: int, rows) -> np.ndarray:
    """States of direction ``d`` read over (N, dim) rows in the given order:
    one matrix-vector step per row, gates in input, forget, output,
    candidate order."""
    w_x, w_h, b = params["w_x"][d], params["w_h"][d], params["b"][d]
    hidden = w_h.shape[1]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = []
    for x_t in np.asarray(rows, dtype=np.float64):
        a = w_x @ x_t + w_h @ h + b
        i, f, o = (1.0 / (1.0 + np.exp(-a[k * hidden:(k + 1) * hidden])) for k in range(3))
        c = f * c + i * np.tanh(a[3 * hidden:])
        h = o * np.tanh(c)
        out.append(h)
    return np.array(out).reshape(-1, hidden)


def bilstm_reference(params, rows, length: int) -> np.ndarray:
    """BiLSTM rows of one (N, dim) sequence whose first ``length`` rows are
    real, without the batched code: the forward direction reads rows
    0..length-1 and the backward one length-1..0; row t < length
    concatenates both states at position t, and the padded rows are zero."""
    real = np.asarray(rows, dtype=np.float64)[:length]
    out = np.zeros((len(rows), 2 * params["w_h"].shape[2]))
    out[:length] = np.concatenate([lstm_direction(params, 0, real),
                                   lstm_direction(params, 1, real[::-1])[::-1]], axis=1)
    return out


def attention_weights(e_b, xc_j, mask_b) -> np.ndarray:
    """Softmax weights of one description position over bug-report rows.

    Masked positions get weight 0; the remaining weights sum to 1. Computed
    with max-subtraction for stability.
    """
    e_b = np.asarray(e_b, dtype=np.float64)
    xc_j = np.asarray(xc_j, dtype=np.float64)
    mask = np.asarray(mask_b, dtype=np.float64)
    if e_b.ndim != 2 or e_b.shape[1] != xc_j.shape[0] or e_b.shape[0] != mask.shape[0]:
        raise ValueError("dimension mismatch between e_b, xc_j and mask")
    if not np.any(mask > 0):
        raise ValueError("all positions are masked")
    logits = np.where(mask > 0, e_b @ xc_j, -np.inf)
    weights = np.exp(logits - logits.max())
    return weights / weights.sum()


def attention_apply(alpha, e_b) -> np.ndarray:
    """Weighted sum of bug-report rows: att = sum_n alpha_n * e_b[n]."""
    return np.asarray(alpha, dtype=np.float64) @ np.asarray(e_b, dtype=np.float64)


def cosine_similarity(u, v) -> float:
    """Cosine of two flat vectors; zero-norm inputs define the value as 0."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    denom = np.linalg.norm(u) * np.linalg.norm(v)
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / denom, -1.0, 1.0))


def loss(score_value: float, label: int) -> float:
    """Binary cross-entropy for one score."""
    if not 0.0 < score_value < 1.0:
        raise ValueError("score must lie strictly inside (0, 1)")
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    return float(-(label * math.log(score_value) + (1 - label) * math.log(1.0 - score_value)))


def score_many_by_chunks(model: qa_model.QaModel, examples, table) -> np.ndarray:
    """Scores in example order, one ``_forward_batch`` per chunk: the examples
    grouped by bug report in order of each report's first occurrence, cut
    every ``batch_size``. Each chunk runs its own distinct rows through the
    BiLSTM, so a text in several chunks runs once in each."""
    if not examples:
        return np.empty(0)
    bug_ids, desc_ids, _ = qa_model.stack_examples(examples)
    scores = np.empty(len(examples))
    for chunk in chunks_by_report(bug_ids, model.config.batch_size):
        scores[chunk] = qa_model._forward_batch(model, table, bug_ids[chunk], desc_ids[chunk])[0]
    return scores


def chunks_by_report(bug_ids, size: int) -> list[np.ndarray]:
    """Example indices of each scoring chunk: grouped by bug report, in order
    of each report's first occurrence, cut every ``size``."""
    _, first, inverse = np.unique(bug_ids, axis=0, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # each report's place by first occurrence
    order = np.argsort(rank[inverse.ravel()], kind="stable")
    return [order[start:start + size] for start in range(0, len(order), size)]
