"""Bidirectional-LSTM attention scorer for bug-report/description pairs.

Both input sequences run through one shared BiLSTM. Its weights are stacked
along a leading direction axis (index 0 forward, 1 backward), and the
backward direction is the same recurrence over each row's real tokens
reversed, so one time loop runs both directions at once. A batch's
bug-report rows and description rows are stacked along the batch axis and
take that one loop together. Every description position attends over the
bug-report positions with dot-product softmax weights; the bug-report rows
and the attended vectors are flattened and compared with cosine similarity
squashed through a sigmoid:

    score = sigmoid(cosine(flatten(e_bug), flatten(attended)))

Cosine is bounded, so every score lies in [sigmoid(-1), sigmoid(1)]. Padding
does not move a score, and no padding step runs: the BiLSTM packs the stacked
rows as ``pack_padded_sequence`` does (sorted by real length, step t running
only the rows that are still real there), the backward direction reads each
row's real tokens reversed (as ``tf.reverse_sequence`` does), padded BiLSTM
outputs are zero, and attention logits and the flattened vectors mask them
out. Token ids are the only input: id 0 is padding and a row's real ids form
a prefix, so masks and lengths are derived from the ids. Each training batch
and each scoring chunk of ``batch_size`` examples is cut to its longest real
row, and its real positions are gathered once from the run's embedding
table. Only the BiLSTM weights are learned; the table is fixed, so
back-propagation stops at the weight gradients. Training minimizes binary
cross-entropy with Adam; all arithmetic is float64 numpy and deterministic
under the config seed.
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
    t-1's rows. Returns the packed states and the caches for
    backpropagation. The input projection is hoisted out of the loop as one
    matmul over the real positions, written into ``gates``; each step adds
    the recurrent term and overwrites its slice with the activations."""
    total = x.shape[1]
    hidden = params["w_h"].shape[2]
    states = np.empty((2, total, hidden))
    cells = np.empty((2, total, hidden))
    gates = np.empty((2, total, 4 * hidden))
    tanh_cells = np.empty((2, total, hidden))
    np.matmul(x, params["w_x"].transpose(0, 2, 1), out=gates)
    gates += params["b"][:, None]
    wh_t = np.ascontiguousarray(params["w_h"].transpose(0, 2, 1))
    split = 3 * hidden
    # A step's state is the previous step's slice, cut to the rows still running.
    h = c = np.zeros((2, sizes[0], hidden))
    start = 0
    # A strongly negative gate input overflows exp(-a) to inf; its sigmoid is 0.
    with np.errstate(over="ignore"):
        for size in sizes.tolist():
            end = start + size
            gate = gates[:, start:end]
            a = gate + h[:, :size] @ wh_t
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
            tc = np.tanh(c, out=tanh_cells[:, start:end])
            h = np.multiply(o, tc, out=states[:, start:end])
            start = end
    return states, (x, gates, cells, tanh_cells, states)


def _lstm_back(params: dict[str, np.ndarray], cache, g_states: np.ndarray,
               sizes: np.ndarray):
    """Backpropagation through time for both directions, packed like
    ``_lstm_run``; returns the gradients keyed like ``params``. The inputs are
    fixed token vectors, so no input gradient is formed. The carried
    gradients live in widest-row buffers; a row that has not started yet
    (going backward) keeps zeros there. The non-recurrent reductions are
    single matmuls over all real positions."""
    x, gates, cells, tanh_cells, states = cache
    _, total, hidden = states.shape
    split = 3 * hidden
    d_a_all = np.empty((2, total, 4 * hidden))
    dh_next = np.zeros((2, sizes[0], hidden))
    dc_next = np.zeros((2, sizes[0], hidden))
    width = sizes.tolist()
    end = total
    for t in range(len(width) - 1, -1, -1):
        size = width[t]
        start = end - size
        gate = gates[:, start:end]
        i = gate[..., :hidden]
        f = gate[..., hidden:2 * hidden]
        o = gate[..., 2 * hidden:split]
        g = gate[..., split:]
        tc = tanh_cells[:, start:end]
        c_prev = cells[:, start - width[t - 1]:end - width[t - 1]] if t > 0 else 0.0
        dh = g_states[:, start:end] + dh_next[:, :size]
        dc = dc_next[:, :size] + dh * o * (1.0 - tc * tc)
        d_a = d_a_all[:, start:end]
        d_a[..., :hidden] = dc * g * i * (1.0 - i)
        d_a[..., hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        d_a[..., 2 * hidden:split] = dh * tc * o * (1.0 - o)
        d_a[..., split:] = dc * i * (1.0 - g * g)
        np.matmul(d_a, params["w_h"], out=dh_next[:, :size])
        np.multiply(dc, f, out=dc_next[:, :size])
        end = start
    # Each position after step 0 pairs with its row's previous state, one
    # step's width earlier; h_prev is zero at step 0, so that step drops out.
    prev = np.arange(sizes[0], total) - np.repeat(sizes[:-1], sizes[1:])
    return {
        "w_x": d_a_all.transpose(0, 2, 1) @ x,
        "w_h": d_a_all[:, sizes[0]:].transpose(0, 2, 1) @ states[:, prev],
        "b": d_a_all.sum(axis=1),
    }


def _bilstm_run(model: QaModel, lengths: np.ndarray, table: np.ndarray, ids: np.ndarray):
    """Run (rows, steps) ids over ``table`` through the BiLSTM as one batch;
    gives (rows, steps, 2*hidden). Row r has ``lengths[r]`` real steps, then
    padding. Only the real steps run, and padded positions come out zero."""
    rows, steps = ids.shape
    # Pack, as ``pack_padded_sequence`` does: rows sorted longest first, so
    # the rows still running at step t are a prefix of step t-1's rows.
    order = np.argsort(-lengths, kind="stable")
    live = np.arange(steps)[:, None] < lengths[order]
    t, k = np.nonzero(live)
    row = order[k]
    # The flat (row, step) position each packed step reads and writes: step t
    # forward, the row's real steps reversed backward (``tf.reverse_sequence``).
    where = row * steps + np.where(_DIRECTIONS, lengths[row] - 1 - t, t)
    sizes = live.sum(axis=1)
    states, cache = _lstm_run(model.params, table[ids.ravel()[where]], sizes)
    e = np.zeros((rows * steps, 2, states.shape[2]))
    e[where, _DIRECTIONS] = states
    return e.reshape(rows, steps, -1), (cache, where, sizes)


def _bilstm_back(model: QaModel, cache, g_e: np.ndarray):
    """Parameter gradients of ``_bilstm_run``, keyed like ``model.params``,
    from the gradient of its (rows, steps, 2*hidden) output."""
    lstm_cache, where, sizes = cache
    rows, steps, _ = g_e.shape
    g_states = g_e.reshape(rows * steps, 2, -1)[where, _DIRECTIONS]
    return _lstm_back(model.params, lstm_cache, g_states, sizes)


@dataclass
class _ForwardCache:
    bilstm_cache: tuple
    e_b: np.ndarray
    e_c: np.ndarray
    alpha: np.ndarray
    bug_mask: np.ndarray
    desc_mask: np.ndarray
    rb: np.ndarray
    rc: np.ndarray
    dot: np.ndarray
    norm_b: np.ndarray
    norm_c: np.ndarray
    scores: np.ndarray


def _forward_batch(model: QaModel, table: np.ndarray, bug_ids, desc_ids):
    # Real ids form a prefix, so a row's real length is its count of nonzero
    # ids. Steps past the batch's longest real row are padding everywhere and
    # are cut, so the BiLSTM output and attention span only the real width.
    batch = len(bug_ids)
    ids = np.concatenate([bug_ids, desc_ids])
    lengths = np.count_nonzero(ids, axis=1)
    ids = ids[:, :max(1, int(lengths.max()))]
    mask = (ids > 0).astype(np.float64)
    bug_mask, desc_mask = mask[:batch], mask[batch:]
    # One BiLSTM pass over the bug rows and the description rows stacked.
    e, bilstm_cache = _bilstm_run(model, lengths, table, ids)
    e_b, e_c = e[:batch], e[batch:]
    logits = e_b @ e_c.transpose(0, 2, 1)
    # A finite stand-in for -inf keeps fully-masked columns NaN-free; the
    # zero-norm rule then forces those scores to 0.5 anyway.
    logits = np.where(bug_mask[:, :, None] > 0, logits, _MASKED_LOGIT)
    weights = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = weights / weights.sum(axis=1, keepdims=True)
    attended = alpha.transpose(0, 2, 1) @ e_b
    attended *= desc_mask[:, :, None]
    rb = (e_b * bug_mask[:, :, None]).reshape(batch, -1)
    rc = attended.reshape(batch, -1)
    dot = (rb * rc).sum(axis=1)
    norm_b = np.linalg.norm(rb, axis=1)
    norm_c = np.linalg.norm(rc, axis=1)
    denom = norm_b * norm_c
    cos = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
    cos = np.clip(cos, -1.0, 1.0)
    scores = _sigmoid(cos)
    cache = _ForwardCache(bilstm_cache, e_b, e_c, alpha, bug_mask, desc_mask,
                          rb, rc, dot, norm_b, norm_c, scores)
    return scores, cache


def _backward_batch(model: QaModel, cache: _ForwardCache, labels: np.ndarray):
    """Gradients of the mean BCE over the batch for every parameter tensor."""
    batch = labels.shape[0]
    # d(mean BCE)/d cosine collapses to (score - label) / batch.
    g_cos = (cache.scores - labels) / batch
    denom = cache.norm_b * cache.norm_c
    ok = denom > 0
    g_cos = np.where(ok, g_cos, 0.0)
    safe = np.where(ok, denom, 1.0)
    nb3 = np.where(ok, cache.norm_b ** 3 * cache.norm_c, 1.0)
    nc3 = np.where(ok, cache.norm_c ** 3 * cache.norm_b, 1.0)
    g_rb = g_cos[:, None] * (cache.rc / safe[:, None] - (cache.dot / nb3)[:, None] * cache.rb)
    g_rc = g_cos[:, None] * (cache.rb / safe[:, None] - (cache.dot / nc3)[:, None] * cache.rc)
    g_e_b = g_rb.reshape(cache.e_b.shape) * cache.bug_mask[:, :, None]
    g_att = g_rc.reshape(cache.e_c.shape) * cache.desc_mask[:, :, None]
    g_alpha = cache.e_b @ g_att.transpose(0, 2, 1)
    g_e_b = g_e_b + cache.alpha @ g_att
    inner = (cache.alpha * g_alpha).sum(axis=1, keepdims=True)
    g_logits = cache.alpha * (g_alpha - inner)
    g_e_b += g_logits @ cache.e_c
    g_e_c = g_logits.transpose(0, 2, 1) @ cache.e_b
    return _bilstm_back(model, cache.bilstm_cache, np.concatenate([g_e_b, g_e_c]))


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


def score_many(model: QaModel, examples: list[BatchExample], table: np.ndarray) -> np.ndarray:
    """Scores in example order, gathered from ``table`` and scored in chunks of
    ``batch_size``, so memory follows the chunk, not the whole set."""
    size = model.config.batch_size
    chunks = (stack_examples(examples[i:i + size]) for i in range(0, len(examples), size))
    scores = [_forward_batch(model, table, bug_ids, desc_ids)[0]
              for bug_ids, desc_ids, _ in chunks]
    return np.concatenate(scores) if scores else np.empty(0)


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
    """Adam-train in place on examples indexing ``table``; returns the model
    and per-epoch mean loss.

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
    return model, history


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
    flat = np.frombuffer(blob, dtype="<f8", offset=end).astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path}: checkpoint holds a non-finite weight")
    parts = [part.reshape(shape) for part, shape
             in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes.values())]
    return QaModel(config, input_dim, _stack_directions(parts), metadata)
