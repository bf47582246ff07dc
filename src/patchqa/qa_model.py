"""Bidirectional-LSTM attention scorer for bug-report/description pairs.

Both input sequences run through one shared BiLSTM. Its weights are stacked
along a leading direction axis (index 0 forward, 1 backward), and the
backward direction is the same recurrence over each row's real tokens
reversed, so one time loop runs both directions at once. A batch's
bug-report rows and description rows are stacked along the batch axis and
take that one loop together. A question meets many answers, so rows repeat:
each distinct sequence of a batch runs once; copies share its states and sum
their gradients. The BiLSTM's output and its gradient stay at the distinct
rows; each side gathers its rows from the output for attention, and the
copies' gradients are summed straight into one row per distinct sequence.
Every description position attends over the bug-report positions with
dot-product softmax weights; the bug-report rows and the attended vectors
are flattened and compared with cosine similarity squashed through a
sigmoid:

    score = sigmoid(cosine(flatten(e_bug), flatten(attended)))

Cosine is bounded, so every score lies in [sigmoid(-1), sigmoid(1)]. Padding
does not move a score, and no padding step runs: the BiLSTM packs the stacked
rows as ``pack_padded_sequence`` does (sorted by real length, step t running
only the rows that are still real there), the backward direction reads each
row's real tokens reversed (as ``tf.reverse_sequence`` does), padded BiLSTM
outputs are zero, and attention logits and the flattened vectors mask them
out. Token ids are the only input: id 0 is padding and a row's real ids form
a prefix, so masks and lengths are derived from the ids. In each training
batch and each scoring chunk of ``batch_size`` examples, each side is cut to
its own longest real row, and attention is (batch, bug width, description
width). A training batch runs its stacked rows through the BiLSTM at the
wider of the two; the real positions are gathered once from the run's
embedding table. Scoring (``score_many``) keeps the same chunks, the
examples grouped by bug report in order of each report's first occurrence,
but runs the BiLSTM once per call for each distinct text of a side: the
descriptions up front, longest first, kept at their real positions for the
whole call; the bug reports streamed in order of first occurrence, each
chunk scored once its reports have run, and a report's outputs dropped once
no later chunk reads them. No BiLSTM block holds more real positions than
the largest chunk's distinct rows. A row's states do not depend on the rows
beside it (a lone row's matmul runs beside another row, as BLAS rounds a
matrix-vector product differently), so every score is bit for bit that of
one ``_forward_batch`` per chunk; scores return in input order. Only the
BiLSTM weights are learned; the table is fixed, so back-propagation stops at
the weight gradients. The attention softmax and its backward work in place.
A training step keeps only what backpropagation reads: the BiLSTM's cache is
its gate activations and cells, over which backpropagation through time
(BPTT) writes the gate gradients, rebuilding tanh of the cells and the
states as it goes and gathering the input again from the table. One
function, ``_backward_batch``, runs a step's whole backward pass: from the
loss through cosine and attention, the copies' sum at the distinct rows, and
BPTT. It frees each array once its last read is past, so BPTT runs beside
only the packed state gradients and the BiLSTM's cache. On a 128-example
``serve`` training batch the traced peak is about 11.6 MB in the forward
pass, 14.3 MB in attention's backward and 7.8 MB in BPTT.
Training minimizes binary cross-entropy with Adam; all arithmetic is float64
numpy and deterministic under the config seed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .embed import TokenIds

__all__ = [
    "Adam",
    "BatchExample",
    "ModelConfig",
    "Prediction",
    "QaModel",
    "SCORE_CEILING",
    "SCORE_FLOOR",
    "TrainingError",
    "batch_loss_and_gradients",
    "load_model",
    "predict",
    "save_model",
    "score",
    "score_many",
    "stack_examples",
    "train",
]

SCORE_FLOOR = 1.0 / (1.0 + math.e)          # sigmoid(-1)
SCORE_CEILING = 1.0 / (1.0 + math.exp(-1))  # sigmoid(1)

_MASKED_LOGIT = -1e30
# Each weight tensor holds the input, forget and output gates followed by the
# candidate block along its gate axis, so the three sigmoid gates occupy one
# contiguous range. A checkpoint stores one tensor per direction and weight.
_WEIGHTS = ("w_x", "w_h", "b")
_TENSOR_ORDER = tuple(f"{direction}.{name}" for direction in ("forward", "backward")
                      for name in _WEIGHTS)
_CHECKPOINT_MAGIC = b"PQQA\x01\n"
# Adam's published defaults: moment decay rates and the denominator's stabilizer.
_ADAM_DECAY_M = 0.9
_ADAM_DECAY_V = 0.999
_ADAM_EPS = 1e-8
# Direction index broadcast against a packed (2, positions) index.
_DIRECTIONS = np.arange(2)[:, None]


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class TrainingError(RuntimeError):
    """Raised when optimization produces a non-finite loss."""


@dataclass
class ModelConfig:
    max_seq_len: int = 64
    hidden_size: int = 16
    learning_rate: float = 0.01
    epochs: int = 10
    batch_size: int = 128
    seed: int = 0

    def validate(self) -> None:
        if not _is_int(self.seed):
            raise ValueError("seed must be an integer")
        for name in ("max_seq_len", "hidden_size", "epochs", "batch_size"):
            if not _is_int(getattr(self, name)) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        lr = self.learning_rate
        if isinstance(lr, bool) or not lr > 0 or not math.isfinite(lr):
            raise ValueError("learning_rate must be a positive finite number")


@dataclass
class BatchExample:
    bug: TokenIds
    description: TokenIds
    label: int


@dataclass(frozen=True)
class Prediction:
    label: int
    score: float


class QaModel:
    """The shared BiLSTM weights plus run configuration and metadata. ``params``
    maps "w_x" (2, 4*hidden, input_dim), "w_h" (2, 4*hidden, hidden) and "b"
    (2, 4*hidden) to tensors stacked by direction: 0 forward, 1 backward."""

    def __init__(self, config: ModelConfig, input_dim: int,
                 params: dict[str, np.ndarray], metadata: dict | None = None):
        self.config = config
        self.input_dim = input_dim
        self.params = params
        self.metadata = dict(metadata or {})

    @classmethod
    def create(cls, config: ModelConfig, input_dim: int,
               metadata: dict | None = None) -> "QaModel":
        config.validate()
        if input_dim < 1:
            raise ValueError("input_dim must be positive")
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_size
        # Drawn in checkpoint order (forward w_x, w_h, b, then backward), each
        # uniform in +-1/sqrt(fan_in).
        fans = ((input_dim, (4 * hidden, input_dim)), (hidden, (4 * hidden, hidden)),
                (hidden, (4 * hidden,)))
        drawn = [rng.uniform(-1.0 / math.sqrt(fan), 1.0 / math.sqrt(fan), size=shape)
                 for _ in range(2) for fan, shape in fans]
        return cls(config, input_dim, _stack_directions(drawn), metadata)


def _stack_directions(tensors) -> dict[str, np.ndarray]:
    """Direction-stacked params from the six tensors in ``_TENSOR_ORDER``."""
    return {name: np.stack(tensors[i::len(_WEIGHTS)]) for i, name in enumerate(_WEIGHTS)}


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_run(params: dict[str, np.ndarray], x: np.ndarray, sizes: np.ndarray):
    """Run both directions over packed input (2, positions, dim), x[d] in
    direction d's own time order: step t takes the next ``sizes[t]``
    positions, and the rows still running at step t are a prefix of step
    t-1's rows. Returns the packed states and the cache for backpropagation,
    the gate activations and the cells; the input is not kept. The input
    projection is hoisted out of the loop as one matmul over the real
    positions, which becomes ``gates``; each step adds the recurrent term and
    overwrites its slice with the activations."""
    total = x.shape[1]
    hidden = params["w_h"].shape[2]
    # BLAS runs a lone row as a matrix-vector product, which rounds
    # differently from the same row beside others, so a lone row always runs
    # beside another and no row's states depend on what else is batched: a
    # lone input position beside a zero row, and a lone row's recurrent
    # product beside the row after its previous state in ``states``, which is
    # another real state, a later slot that stays zero until its step writes
    # it, or the spare last row.
    states = np.zeros((2, total + 1, hidden))
    cells = np.empty((2, total, hidden))
    w_x = params["w_x"].transpose(0, 2, 1)
    gates = (x @ w_x if total != 1
             else (np.concatenate([x, np.zeros_like(x)], axis=1) @ w_x)[:, :1])
    gates += params["b"][:, None]
    wh_t = np.ascontiguousarray(params["w_h"].transpose(0, 2, 1))
    split = 3 * hidden
    # A step's state is the previous step's slice, cut to the rows still running.
    h = c = np.zeros((2, sizes[0], hidden))
    previous = start = 0
    # A strongly negative gate input overflows exp(-a) to inf; its sigmoid is 0.
    with np.errstate(over="ignore"):
        for size in sizes.tolist():
            end = start + size
            gate = gates[:, start:end]
            if size != 1:
                a = gate + h[:, :size] @ wh_t
            else:  # the lone row's previous state and the row after it
                a = gate + (states[:, previous:previous + 2] @ wh_t)[:, :1]
            gate[..., :split] = _sigmoid(a[..., :split])
            gate[..., split:] = np.tanh(a[..., split:])
            i = gate[..., :hidden]
            f = gate[..., hidden:2 * hidden]
            o = gate[..., 2 * hidden:split]
            g = gate[..., split:]
            cell_state = cells[:, start:end]
            np.multiply(f, c[:, :size], out=cell_state)
            cell_state += i * g
            c = cell_state
            h = np.multiply(o, np.tanh(c), out=states[:, start:end])
            previous, start = start, end
    return states[:, :total], (gates, cells)


def _lstm_back(params: dict[str, np.ndarray], cache, g_states: np.ndarray,
               sizes: np.ndarray, table: np.ndarray, tokens: np.ndarray):
    """Backpropagation through time for both directions, packed like
    ``_lstm_run``, whose input was ``table[tokens]``; returns the gradients
    keyed like ``params``. The inputs are fixed token vectors, so no input
    gradient is formed. BPTT consumes the cache: each step's gate gradients
    overwrite its gate activations, which nothing reads again, and tanh of
    the cells and the states are rebuilt from the cells and the output gate
    as the loop reaches them. The carried gradients live in widest-row
    buffers; a row that has not started yet (going backward) keeps zeros
    there. The non-recurrent reductions are single matmuls over all real
    positions, the input gathered again from ``table`` for the last one."""
    gates, cells = cache
    _, total, hidden = cells.shape
    split = 3 * hidden
    width = sizes.tolist()
    # Each position after step 0 pairs with its row's previous state, one
    # step's width earlier; h_prev is zero at step 0, so that step drops out.
    # Step t's states land in h_prev at the slots of step t+1's positions.
    h_prev = np.empty((2, total - width[0], hidden))
    dh_next = np.zeros((2, width[0], hidden))
    dc_next = np.zeros((2, width[0], hidden))
    end = total
    for t in range(len(width) - 1, -1, -1):
        size = width[t]
        start = end - size
        gate = gates[:, start:end]
        i = gate[..., :hidden]
        f = gate[..., hidden:2 * hidden]
        o = gate[..., 2 * hidden:split]
        g = gate[..., split:]
        tc = np.tanh(cells[:, start:end])
        if t + 1 < len(width):
            going_on = width[t + 1]
            np.multiply(o[:, :going_on], tc[:, :going_on],
                        out=h_prev[:, end - width[0]:end - width[0] + going_on])
        c_prev = cells[:, start - width[t - 1]:end - width[t - 1]] if t > 0 else 0.0
        dh = g_states[:, start:end] + dh_next[:, :size]
        dc = dc_next[:, :size] + dh * o * (1.0 - tc * tc)
        np.multiply(dc, f, out=dc_next[:, :size])
        # Each gate's gradient goes over that gate once its last read is past.
        d_i = dc * g * i * (1.0 - i)
        g[...] = dc * i * (1.0 - g * g)
        i[...] = d_i
        f[...] = dc * c_prev * f * (1.0 - f)
        o[...] = dh * tc * o * (1.0 - o)
        np.matmul(gate, params["w_h"], out=dh_next[:, :size])
        end = start
    d_w_h = gates[:, width[0]:].transpose(0, 2, 1) @ h_prev
    del h_prev
    return {
        "w_x": gates.transpose(0, 2, 1) @ table[tokens],
        "w_h": d_w_h,
        "b": gates.sum(axis=1),
    }


def _distinct_rows(ids: np.ndarray):
    """The indices of the distinct rows of ``ids`` in order of first
    occurrence, and for each row the position of its copy among them."""
    rows = np.ascontiguousarray(ids)
    # One opaque key per row, so np.unique compares whole rows at once.
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse]


def _pack(lengths: np.ndarray, steps: int):
    """Pack rows of the given real lengths as ``pack_padded_sequence`` does:
    rows sorted longest first, so the rows still running at step t are a
    prefix of step t-1's rows. Returns each packed position's row and, per
    direction, the row's step it reads and writes (step t forward, the row's
    real steps reversed backward, as ``tf.reverse_sequence`` does), and the
    packed step sizes."""
    order = np.argsort(-lengths, kind="stable")
    live = np.arange(steps)[:, None] < lengths[order]
    t, k = np.nonzero(live)
    row = order[k]
    return row, np.where(_DIRECTIONS, lengths[row] - 1 - t, t), live.sum(axis=1)


def _bilstm_run(model: QaModel, lengths: np.ndarray, table: np.ndarray, ids: np.ndarray):
    """Run (rows, steps) ids over ``table`` through the BiLSTM as one batch.
    Row r has ``lengths[r]`` real steps, then padding. Only the real steps of
    each distinct row run, once however many rows repeat it. Returns the
    (distinct rows, steps, 2*hidden) output, whose padded positions are zero,
    the index of each row's distinct row in it, and the cache for
    backpropagation: the LSTM cache, the table, the packed token ids, the
    flat position each packed step wrote, the packed step sizes and each
    distinct row's first row."""
    steps = ids.shape[1]
    keep, inverse = _distinct_rows(ids)
    row, step, sizes = _pack(lengths[keep], steps)
    where = row * steps + step
    tokens = ids[keep].ravel()[where]
    states, cache = _lstm_run(model.params, table[tokens], sizes)
    e = np.zeros((len(keep) * steps, 2, states.shape[2]))
    e[where, _DIRECTIONS] = states
    return (e.reshape(len(keep), steps, -1), inverse,
            (cache, table, tokens, where, sizes, keep))


def _forward_batch(model: QaModel, table: np.ndarray, bug_ids, desc_ids):
    """Scores of the batch and, for ``_backward_batch``, a dict of the arrays
    backpropagation reads."""
    # Real ids form a prefix, so a row's real length is its count of nonzero
    # ids. Each side is cut to its own longest real row (at least one step):
    # the BiLSTM runs the stacked rows at the wider of the two, and attention
    # and cosine see only each side's own width.
    batch = len(bug_ids)
    ids = np.concatenate([bug_ids, desc_ids])
    lengths = np.count_nonzero(ids, axis=1)
    width_b = max(1, int(lengths[:batch].max()))
    width_c = max(1, int(lengths[batch:].max()))
    # One BiLSTM pass over the distinct rows of the bug and description rows
    # stacked; each side gathers its rows' outputs at its own width.
    e, inverse, bilstm = _bilstm_run(model, lengths, table, ids[:, :max(width_b, width_c)])
    e_b, e_c = e[inverse[:batch], :width_b], e[inverse[batch:], :width_c]
    # The bug rows' norms, taken at their distinct rows: the first ones, as
    # rows are numbered in order of first occurrence and bug rows come first.
    # Each norm reduces the same contiguous values that its gathered row holds.
    on_bug = int(inverse[:batch].max()) + 1
    norm_b = np.linalg.norm(e[:on_bug, :width_b].reshape(on_bug, -1), axis=1)[inverse[:batch]]
    del e  # attention reads only the gathered sides
    scores, cache = _match(e_b, e_c, norm_b, lengths[:batch], lengths[batch:])
    cache.update(bilstm=bilstm, inverse=inverse)
    return scores, cache


def _match(e_b, e_c, norm_b, len_b, len_c):
    """Scores from each side's gathered BiLSTM rows, e_b (batch, bug width,
    2*hidden) and e_c (batch, description width, 2*hidden) with zero padded
    positions, the bug rows' flattened norms and each row's real length; and
    a dict of the arrays backpropagation reads."""
    batch, width_b = e_b.shape[:2]
    desc_mask = (np.arange(e_c.shape[1]) < len_c[:, None]).astype(np.float64)
    # The masked softmax over the bug positions runs in the logits' buffer. A
    # finite stand-in for -inf keeps fully-masked columns NaN-free; the
    # zero-norm rule then forces those scores to 0.5 anyway.
    alpha = e_b @ e_c.transpose(0, 2, 1)
    alpha[np.arange(width_b) >= len_b[:, None]] = _MASKED_LOGIT
    alpha -= alpha.max(axis=1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= alpha.sum(axis=1, keepdims=True)
    attended = alpha.transpose(0, 2, 1) @ e_b
    attended *= desc_mask[:, :, None]
    # Padded positions of e_b are already exact zeros, so the dot product
    # needs only the positions both sides have.
    rb = e_b.reshape(batch, -1)
    rc = attended.reshape(batch, -1)
    shared = min(rb.shape[1], rc.shape[1])
    dot = (rb[:, :shared] * rc[:, :shared]).sum(axis=1)
    norm_c = np.linalg.norm(rc, axis=1)
    denom = norm_b * norm_c
    cos = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
    cos = np.clip(cos, -1.0, 1.0)
    scores = _sigmoid(cos)
    return scores, dict(e_b=e_b, e_c=e_c, alpha=alpha, desc_mask=desc_mask, rb=rb, rc=rc,
                        dot=dot, norm_b=norm_b, norm_c=norm_c, scores=scores)


def _backward_batch(model: QaModel, cache: dict, labels: np.ndarray):
    """Parameter gradients of the mean BCE over the batch, keyed like
    ``model.params``, from ``_forward_batch``'s cache. The arrays are popped
    from ``cache`` and each is freed once its last read is past; BPTT
    consumes the BiLSTM's cache, so a cache serves one call."""
    batch = labels.shape[0]
    e_b, e_c, alpha, rb, rc = map(cache.pop, ("e_b", "e_c", "alpha", "rb", "rc"))
    norm_b, norm_c, dot = cache["norm_b"], cache["norm_c"], cache["dot"]
    # d(mean BCE)/d cosine collapses to (score - label) / batch.
    g_cos = (cache["scores"] - labels) / batch
    denom = norm_b * norm_c
    ok = denom > 0
    g_cos = np.where(ok, g_cos, 0.0)
    safe = np.where(ok, denom, 1.0)
    nb3 = np.where(ok, norm_b ** 3 * norm_c, 1.0)
    nc3 = np.where(ok, norm_c ** 3 * norm_b, 1.0)
    # Each side's own term at its own width; the cross term only over the
    # positions both sides have.
    g_rb = -(g_cos * dot / nb3)[:, None] * rb
    g_rc = -(g_cos * dot / nc3)[:, None] * rc
    shared = min(rb.shape[1], rc.shape[1])
    cross = (g_cos / safe)[:, None]
    g_rb[:, :shared] += cross * rc[:, :shared]
    g_rc[:, :shared] += cross * rb[:, :shared]
    del rb, rc
    # Padded rows of g_e_b are left unmasked: BPTT never reads them.
    # g_e_b grows in g_rb's buffer and the logits' gradient in g_alpha's.
    g_att = g_rc.reshape(e_c.shape) * cache["desc_mask"][:, :, None]
    del g_rc
    g_alpha = e_b @ g_att.transpose(0, 2, 1)
    inner = (alpha * g_alpha).sum(axis=1, keepdims=True)
    g_alpha -= inner
    g_alpha *= alpha
    g_e_c = g_alpha.transpose(0, 2, 1) @ e_b
    # e_b is read for the last time above; its buffer takes in turn the two
    # products added into g_e_b.
    product = np.matmul(alpha, g_att, out=e_b)
    del alpha, g_att, e_b
    g_e_b = g_rb.reshape(product.shape)
    g_e_b += product
    g_e_b += np.matmul(g_alpha, e_c, out=product)
    del product, g_alpha, e_c
    # BPTT is linear in the output gradient, so each distinct row runs it once
    # on its copies' gradients summed: the first copy assigned, each later one
    # added in stacked row order (bug rows, then description rows).
    lstm_cache, table, tokens, where, sizes, keep = cache.pop("bilstm")
    inverse = cache["inverse"]
    width_b, width_c = g_e_b.shape[1], g_e_c.shape[1]
    g_e = np.zeros((len(keep), max(width_b, width_c), g_e_b.shape[2]))
    # Distinct rows are numbered in order of first occurrence, so those first
    # met among the bug rows come first.
    on_bug = np.count_nonzero(keep < batch)
    g_e[:on_bug, :width_b] = g_e_b[keep[:on_bug]]
    g_e[on_bug:, :width_c] = g_e_c[keep[on_bug:] - batch]
    for row in np.setdiff1d(np.arange(2 * batch), keep, assume_unique=True).tolist():
        if row < batch:
            g_e[inverse[row], :width_b] += g_e_b[row]
        else:
            g_e[inverse[row], :width_c] += g_e_c[row - batch]
    # BPTT reads only the packed state gradients: every other large array
    # goes before it runs.
    del g_rb, g_e_b, g_e_c
    g_states = g_e.reshape(-1, 2, g_e.shape[2] // 2)[where, _DIRECTIONS]
    del g_e
    return _lstm_back(model.params, lstm_cache, g_states, sizes, table, tokens)


def stack_examples(examples: list[BatchExample]):
    """Stack examples into (bug_ids, desc_ids, labels)."""
    bug_ids = np.stack([ex.bug.ids for ex in examples])
    desc_ids = np.stack([ex.description.ids for ex in examples])
    labels = np.array([float(ex.label) for ex in examples])
    return bug_ids, desc_ids, labels


def score(model: QaModel, example: BatchExample, table: np.ndarray) -> float:
    """Match probability for one example, in [SCORE_FLOOR, SCORE_CEILING]."""
    scores, _ = _forward_batch(model, table, example.bug.ids[None],
                               example.description.ids[None])
    return float(scores[0])


def _blocks(lengths: np.ndarray, cap: int):
    """Consecutive (start, stop) row ranges, each the most rows from its
    start whose real positions sum to at most ``cap``; no row holds more."""
    ends = np.cumsum(lengths)
    start = 0
    while start < len(lengths):
        stop = int(np.searchsorted(ends, ends[start] - lengths[start] + cap, side="right"))
        yield start, stop
        start = stop


def _outputs(model: QaModel, table: np.ndarray, ids: np.ndarray, lengths: np.ndarray,
             out: np.ndarray) -> None:
    """Write the BiLSTM outputs of distinct id rows into ``out``
    (lengths.sum(), 2*hidden), at their real positions only, row after row."""
    if len(out):
        row, step, sizes = _pack(lengths, int(lengths.max()))
        states, _ = _lstm_run(model.params, table[ids[row, step]], sizes)
        out.reshape(len(out), 2, -1)[(np.cumsum(lengths) - lengths)[row] + step,
                                     _DIRECTIONS] = states


def _gather(store: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(rows, width, 2*hidden) rows read from a flat store of real positions
    whose row 0 is zero: row r holds ``lengths[r]`` positions from
    ``starts[r]``, then padding, up to the longest row (at least one step)."""
    steps = np.arange(max(1, int(lengths.max())))
    return store[np.where(steps < lengths[:, None], starts[:, None] + steps, 0)]


def score_many(model: QaModel, examples: list[BatchExample], table: np.ndarray) -> np.ndarray:
    """Scores in example order, gathered from ``table`` and scored in chunks of
    ``batch_size``. Chunks take the examples grouped by bug report, in order of
    each report's first occurrence, and each chunk is scored as
    ``_forward_batch`` scores it. The BiLSTM, though, runs each distinct text
    of a side once per call: every description up front, longest first, kept
    at its real positions for the whole call; the bug reports streamed in
    order of first occurrence, each chunk scored once its reports have run
    and a report's outputs dropped once no later chunk reads them. No BiLSTM
    block holds more real positions than the largest chunk's distinct rows,
    so memory follows the chunk, not the whole set."""
    if not examples:
        return np.empty(0)
    count, size = len(examples), model.config.batch_size
    # One number per distinct text, in order of first occurrence over the bug
    # rows and then the description rows, so the reports are 0 .. reports-1.
    # Only the distinct rows' ids are kept.
    stacked = np.concatenate(stack_examples(examples)[:2])
    keep, text = _distinct_rows(stacked)
    ids = stacked[keep]
    del stacked
    lengths = np.count_nonzero(ids, axis=1)
    bug, desc = text[:count], text[count:]
    order = np.argsort(bug, kind="stable")
    chunks = [order[start:start + size] for start in range(0, count, size)]
    # The cap: the real positions of the largest chunk's distinct rows over
    # both sides, as ``_forward_batch`` packs them.
    cap = max(int(lengths[np.unique(np.concatenate([bug[c], desc[c]]))].sum()) for c in chunks)
    width = 2 * model.config.hidden_size
    # The descriptions' store: the zero row, then each description's real
    # positions, longest description first.
    described = np.unique(desc)
    described = described[np.argsort(-lengths[described], kind="stable")]
    run = lengths[described]
    ends = 1 + np.cumsum(run)
    desc_start = np.zeros(len(keep), dtype=np.int64)
    desc_start[described] = ends - run
    desc_store = np.zeros((ends[-1], width))
    for a, b in _blocks(run, cap):
        _outputs(model, table, ids[described[a:b]], run[a:b],
                 desc_store[ends[a] - run[a]:ends[b - 1]])
    # The reports' store: the zero row, then the real positions of the
    # reports from the first one a chunk still reads, from position ``base``.
    reports = int(bug.max()) + 1
    report_start = np.cumsum(lengths[:reports]) - lengths[:reports]
    live, base, scored = np.zeros((1, width)), 0, 0
    scores = np.empty(count)
    for a, b in _blocks(lengths[:reports], cap):
        first = int(report_start[bug[chunks[scored][0]]])
        kept = live[1 + first - base:]
        live = np.zeros((1 + len(kept) + int(lengths[a:b].sum()), width))
        live[1:1 + len(kept)] = kept
        _outputs(model, table, ids[a:b], lengths[a:b], live[1 + len(kept):])
        del kept  # the previous store goes
        base = first
        while scored < len(chunks) and bug[chunks[scored][-1]] < b:
            rows_b, rows_c = bug[chunks[scored]], desc[chunks[scored]]
            e_b = _gather(live, 1 + report_start[rows_b] - base, lengths[rows_b])
            e_c = _gather(desc_store, desc_start[rows_c], lengths[rows_c])
            # Each report's norm, taken at one of its rows, reduces the same
            # contiguous values as every copy of that row.
            _, one, copies = np.unique(rows_b, return_index=True, return_inverse=True)
            norm_b = np.linalg.norm(e_b[one].reshape(len(one), -1), axis=1)[copies]
            scores[chunks[scored]] = _match(e_b, e_c, norm_b, lengths[rows_b],
                                            lengths[rows_c])[0]
            scored += 1
    return scores


def batch_loss_and_gradients(model: QaModel, table: np.ndarray, bug_ids, desc_ids, labels):
    """Mean BCE over the batch and its parameter gradients."""
    scores, cache = _forward_batch(model, table, bug_ids, desc_ids)
    y = np.asarray(labels, dtype=np.float64)
    losses = -(y * np.log(scores) + (1.0 - y) * np.log(1.0 - scores))
    return float(losses.mean()), _backward_batch(model, cache, y)


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(value) for name, value in params.items()}
        self.v = {name: np.zeros_like(value) for name, value in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - _ADAM_DECAY_M ** self.t
        correct2 = 1.0 - _ADAM_DECAY_V ** self.t
        for name, value in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= _ADAM_DECAY_M
            m += (1.0 - _ADAM_DECAY_M) * g
            v *= _ADAM_DECAY_V
            v += (1.0 - _ADAM_DECAY_V) * g * g
            value -= self.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + _ADAM_EPS)


def train(model: QaModel, examples: list[BatchExample], table: np.ndarray):
    """Adam-train in place on examples indexing ``table``; returns the
    per-epoch mean loss.

    Deterministic given the config seed: the per-epoch shuffles come from one
    seeded generator, batches run in order and gradients accumulate in fixed
    order. The epoch count is fixed; there is no early stopping.
    """
    cfg = model.config
    cfg.validate()
    if not examples:
        raise ValueError("need at least one training example")
    if table.shape[1] != model.input_dim:
        raise ValueError(f"input dim mismatch: model expects dim {model.input_dim}")
    bug_ids, desc_ids, labels = stack_examples(examples)
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, cfg.learning_rate)
    history: list[float] = []
    count = len(examples)
    for epoch in range(cfg.epochs):
        perm = rng.permutation(count)
        epoch_loss = 0.0
        for start in range(0, count, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            batch_loss, grads = batch_loss_and_gradients(
                model, table, bug_ids[idx], desc_ids[idx], labels=labels[idx])
            if not np.isfinite(batch_loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}"
                )
            optimizer.step(model.params, grads)
            epoch_loss += batch_loss * len(idx)
        history.append(epoch_loss / count)
    return history


def predict(model: QaModel, example: BatchExample, table: np.ndarray,
            threshold: float) -> Prediction:
    """Classify one example; ties at the threshold classify as correct."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    s = score(model, example, table)
    return Prediction(label=1 if s >= threshold else 0, score=s)


def save_model(model: QaModel, path) -> None:
    """Write a byte-stable checkpoint: JSON header plus raw float64 tensors."""
    tensors = [model.params[name][d] for d in range(2) for name in _WEIGHTS]
    header = {
        "format": 1,
        "input_dim": model.input_dim,
        "config": asdict(model.config),
        "metadata": model.metadata,
        "tensors": [{"name": name, "shape": list(tensor.shape)}
                    for name, tensor in zip(_TENSOR_ORDER, tensors)],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for tensor in tensors:
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_model(path) -> QaModel:
    """Read a checkpoint written by ``save_model``.

    Anything else raises ValueError: a foreign or cut file, a header that
    lacks a field or has an unknown config key, tensor shapes that disagree
    with the config and ``input_dim``, trailing bytes or a non-finite weight.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a model checkpoint")
    start = len(_CHECKPOINT_MAGIC) + 8
    end = start + int.from_bytes(blob[start - 8:start], "little")
    try:
        header = json.loads(blob[start:end].decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != 1:
            raise ValueError("unsupported checkpoint format")
        tensors, input_dim = header["tensors"], header["input_dim"]
        config = ModelConfig(**header["config"])
        config.validate()
        metadata = header.get("metadata") or {}
        if not _is_int(input_dim) or input_dim < 1 or not isinstance(metadata, dict):
            raise ValueError("input_dim must be a positive integer, metadata an object")
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint header lacks {exc}") from None
    # JSON and UTF-8 errors are ValueErrors; JSON nested too deeply, a RecursionError.
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: bad checkpoint header: {exc}") from None
    hidden = config.hidden_size
    shapes = dict(zip(_TENSOR_ORDER,
                      ([4 * hidden, input_dim], [4 * hidden, hidden], [4 * hidden]) * 2))
    if tensors != [{"name": name, "shape": shape} for name, shape in shapes.items()]:
        raise ValueError(f"{path}: checkpoint tensors do not match hidden_size "
                         f"{hidden} and input_dim {input_dim}")
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(blob) - end != 8 * sum(sizes):
        raise ValueError(f"{path}: checkpoint holds {len(blob) - end} tensor bytes, "
                         f"not the {8 * sum(sizes)} its header declares")
    flat = np.frombuffer(blob, dtype="<f8", offset=end)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path}: checkpoint holds a non-finite weight")
    # The file holds the forward tensors, then the backward ones, each in
    # _WEIGHTS order: a (2, half) view takes every name at one column range.
    directions, params, start = flat.reshape(2, -1), {}, 0
    for name, shape, size in zip(_WEIGHTS, shapes.values(), sizes):
        params[name] = directions[:, start:start + size].reshape(2, *shape).astype(np.float64)
        start += size
    return QaModel(config, input_dim, params, metadata)
