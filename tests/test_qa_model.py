import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchqa import qa_model
from patchqa.embed import Embedding, prepare, tokenize
from patchqa.qa_model import (
    SCORE_CEILING,
    SCORE_FLOOR,
    BatchExample,
    ModelConfig,
    QaModel,
    batch_loss_and_gradients,
    load_model,
    predict,
    save_model,
    score,
    score_many,
    stack_examples,
    train,
)

from conftest import rewrite_checkpoint, token_ids
from oracle import (attention_apply, attention_weights, bilstm_forward, bilstm_reference,
                    chunks_by_report, cosine_similarity, loss, score_many_by_chunks)


def make_model(dim=4, hidden=3, max_len=5, seed=7, **kwargs):
    cfg = ModelConfig(max_seq_len=max_len, hidden_size=hidden, seed=seed, **kwargs)
    return QaModel.create(cfg, dim)


VOCAB = 40


def random_table(rng, dim):
    """An embedding table: the zero padding row, then VOCAB random rows."""
    return np.vstack([np.zeros((1, dim)), rng.normal(size=(VOCAB, dim))])


def random_example(rng, model, n_bug=None, n_desc=None):
    """An example of random ids into a ``random_table``."""
    n = model.config.max_seq_len
    n_bug = n_bug if n_bug is not None else int(rng.integers(1, n + 1))
    n_desc = n_desc if n_desc is not None else int(rng.integers(1, n + 1))
    return BatchExample(bug=token_ids(rng.integers(1, VOCAB + 1, size=n_bug), n),
                        description=token_ids(rng.integers(1, VOCAB + 1, size=n_desc), n),
                        label=int(rng.integers(0, 2)))


# --- BiLSTM -------------------------------------------------------------------


def test_zero_input_zero_params_gives_zero_rows():
    model = make_model()
    for p in model.params.values():
        p[...] = 0.0
    out = bilstm_forward(model, np.zeros((5, 4)), 0)
    assert np.all(out == 0.0)


def test_output_shape_is_len_by_twice_hidden():
    model = make_model(dim=32, hidden=16, max_len=64)
    out = bilstm_forward(model, np.zeros((64, 32)))
    assert out.shape == (64, 32)


def test_reversing_input_swaps_direction_halves():
    # With the two directions' weights tied, reversing the input must swap
    # the forward/backward halves up to row reversal; this pins the direction
    # plumbing (with untied weights no such identity exists).
    rng = np.random.default_rng(3)
    model = make_model(dim=4, hidden=3, max_len=3)
    for p in model.params.values():
        p[1] = p[0]
    rows = rng.normal(size=(3, 4))
    e = bilstm_forward(model, rows)
    e_rev = bilstm_forward(model, rows[::-1].copy())
    hidden = model.config.hidden_size
    assert np.allclose(e_rev[:, :hidden], e[::-1, hidden:])
    assert np.allclose(e_rev[:, hidden:], e[::-1, :hidden])


def test_batched_bilstm_matches_per_step_reference():
    # Rows of mixed real lengths, zero-padded to one length, run as one batch;
    # each row's forward and backward halves must equal the plain per-step
    # recurrence over that row's real steps, the backward one reading them
    # reversed, and every padded position must come out exactly zero. The
    # last two rows are identical and must share bit-identical outputs.
    rng = np.random.default_rng(4)
    model = make_model(dim=5, hidden=3, max_len=7)
    n, hidden = model.config.max_seq_len, model.config.hidden_size
    lengths = np.array([7, 1, 4, 0, 5, 5])
    rows = np.zeros((len(lengths), n, model.input_dim))
    for r, length in enumerate(lengths[:5]):
        rows[r, :length] = rng.normal(size=(length, model.input_dim))
    rows[5] = rows[4]
    # Every real position of the first five rows gets its own table row, and
    # the last row reads the same ids as the one before it; padding is id 0.
    table = np.vstack([np.zeros((1, model.input_dim)), rows[:5].reshape(-1, model.input_dim)])
    positions = np.arange(1, 5 * n + 1).reshape(5, n)
    ids = np.where(np.arange(n) < lengths[:, None], positions[[0, 1, 2, 3, 4, 4]], 0)
    # The rows run as ``_forward_batch`` runs them: the distinct rows only,
    # into a (distinct rows, steps, 2*hidden) buffer, row r from r * steps.
    keep, inverse = qa_model._distinct_rows(ids)
    distinct = np.zeros((len(keep), n, 2 * hidden))
    _, tokens, where, sizes = qa_model._bilstm_run(
        model, table, ids[keep], lengths[keep], distinct.reshape(-1, 2 * hidden),
        np.arange(len(keep)) * n)
    assert distinct.shape == (5, n, 2 * hidden)
    e = distinct[inverse]
    for r, length in enumerate(lengths):
        expected = bilstm_reference(model.params, rows[r], length)
        assert np.all(np.abs(e[r, :, :hidden] - expected[:, :hidden]) <= 1e-12)
        assert np.all(np.abs(e[r, :, hidden:] - expected[:, hidden:]) <= 1e-12)
        assert np.all(e[r, length:] == 0.0)
    assert np.array_equal(e[4], e[5])
    # Packing runs the distinct rows, in order of first occurrence: the
    # running rows shrink step by step and cover their real steps; each real
    # (distinct row, step) is read once per direction, and no padding is.
    assert inverse.tolist() == [0, 1, 2, 3, 4, 4]
    assert keep.tolist() == [0, 1, 2, 3, 4]
    distinct = lengths[:5]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert sum(sizes) == distinct.sum()
    real = sorted(r * n + t for r, length in enumerate(distinct) for t in range(length))
    assert sorted(where[0].tolist()) == real
    assert sorted(where[1].tolist()) == real
    # The cache keeps the packed token ids, not the packed input vectors.
    assert np.array_equal(tokens, ids[:5].ravel()[where])


def test_bilstm_rejects_dim_mismatch():
    model = make_model(dim=4)
    with pytest.raises(ValueError, match="dim mismatch"):
        bilstm_forward(model, np.zeros((5, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [1, 3, 16])
def test_lstm_row_states_do_not_depend_on_the_rows_beside_it(hidden, dtype):
    # BLAS rounds a lone row's matrix-vector product differently from the same
    # row beside others. A row run alone (a lone row at every step) gets the
    # same packed states, bit for bit, as beside other rows, including the
    # steps where it is the only row still running.
    rng = np.random.default_rng(hidden)
    model = make_model(dim=6, hidden=hidden, max_len=12)
    for _ in range(20):
        lengths = rng.integers(1, 13, size=int(rng.integers(2, 9)))
        row, _, sizes = qa_model._pack(lengths, 12)
        x = rng.normal(size=(2, int(sizes.sum()), 6)).astype(dtype)
        states, _ = qa_model._lstm_run(model.params, x, sizes)
        assert states.dtype == dtype
        for r, length in enumerate(lengths.tolist()):
            mine = row == r  # row r's packed positions, in step order
            alone, _ = qa_model._lstm_run(model.params, x[:, mine], np.ones(length, dtype=int))
            assert states[:, mine].tobytes() == alone.tobytes(), (lengths, r)


def test_bilstm_run_writes_the_same_bits_into_a_padded_buffer_and_a_flat_store():
    # One runner serves training's (rows, steps) buffer, row r from r * steps,
    # and scoring's flat store of real positions, rows run in blocks each cut
    # to its longest row: every real position gets the same bits, and every
    # other row of either output stays zero.
    rng = np.random.default_rng(31)
    model = make_model(dim=4, hidden=3, max_len=9)
    table = random_table(rng, 4)
    lengths = np.array([4, 9, 1, 0, 6, 9, 2])
    ids = np.where(np.arange(9) < lengths[:, None],
                   rng.integers(1, VOCAB + 1, size=(len(lengths), 9)), 0)
    width = 2 * model.config.hidden_size
    padded = np.zeros((len(lengths), 9, width))
    qa_model._bilstm_run(model, table, ids, lengths, padded.reshape(-1, width),
                         np.arange(len(lengths)) * 9)
    # The store: a zero row, then the rows' real positions with a zero row after each.
    starts = 1 + np.cumsum(lengths + 1) - (lengths + 1)
    store = np.zeros((int(starts[-1] + lengths[-1] + 1), width))
    for block in (slice(0, 3), slice(3, 4), slice(4, 7)):
        qa_model._bilstm_run(model, table, ids[block, :lengths[block].max()], lengths[block],
                             store, starts[block])
    written = np.zeros(len(store), dtype=bool)
    for r, length in enumerate(lengths.tolist()):
        assert padded[r, :length].tobytes() == store[starts[r]:starts[r] + length].tobytes()
        assert not padded[r, length:].any()
        written[starts[r]:starts[r] + length] = True
    assert np.count_nonzero(written) == lengths.sum()
    assert not store[~written].any()


# --- attention ----------------------------------------------------------------


def test_identical_rows_give_uniform_weights():
    e_b = np.tile([1.0, 2.0], (4, 1))
    alpha = attention_weights(e_b, np.array([0.3, -0.7]), np.ones(4))
    assert np.allclose(alpha, 0.25)


def test_single_unmasked_position_takes_all_weight():
    rng = np.random.default_rng(0)
    e_b = rng.normal(size=(4, 3))
    mask = np.array([0.0, 0.0, 1.0, 0.0])
    alpha = attention_weights(e_b, rng.normal(size=3), mask)
    assert alpha[2] == 1.0
    assert np.all(alpha[[0, 1, 3]] == 0.0)


def test_attention_matches_brute_force_softmax():
    rng = np.random.default_rng(1)
    e_b = rng.normal(size=(3, 2))
    xc = rng.normal(size=2)
    alpha = attention_weights(e_b, xc, np.ones(3))
    logits = e_b @ xc
    brute = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(alpha, brute, atol=1e-12)


def test_attention_all_masked_raises():
    with pytest.raises(ValueError, match="masked"):
        attention_weights(np.ones((3, 2)), np.ones(2), np.zeros(3))


def test_attention_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        attention_weights(np.ones((3, 2)), np.ones(3), np.ones(3))


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=400))
def test_attention_weights_sum_to_one(n, raw_seed):
    rng = np.random.default_rng(raw_seed)
    e_b = rng.normal(size=(n, 3)) * 10
    mask = np.zeros(n)
    mask[: int(rng.integers(1, n + 1))] = 1.0
    alpha = attention_weights(e_b, rng.normal(size=3) * 10, mask)
    assert abs(alpha.sum() - 1.0) < 1e-9
    assert np.all(alpha[mask == 0] == 0.0)


def test_attention_apply_one_hot_selects_row():
    rng = np.random.default_rng(2)
    e_b = rng.normal(size=(4, 3))
    att = attention_apply(np.array([0.0, 0.0, 1.0, 0.0]), e_b)
    assert np.allclose(att, e_b[2])


def test_attention_apply_uniform_is_mean():
    rng = np.random.default_rng(3)
    e_b = rng.normal(size=(4, 3))
    att = attention_apply(np.full(4, 0.25), e_b)
    assert np.allclose(att, e_b.mean(axis=0))


def test_attention_apply_matches_brute_force():
    rng = np.random.default_rng(4)
    e_b = rng.normal(size=(5, 3))
    alpha = rng.random(5)
    alpha /= alpha.sum()
    brute = sum(alpha[i] * e_b[i] for i in range(5))
    assert np.allclose(attention_apply(alpha, e_b), brute, atol=1e-12)


# --- score --------------------------------------------------------------------


def test_identical_single_token_pair_scores_sigmoid_one():
    rng = np.random.default_rng(5)
    model = make_model(dim=4, hidden=3, max_len=5)
    table = np.vstack([np.zeros(4), rng.normal(size=4)])
    ex = BatchExample(bug=token_ids([1], 5), description=token_ids([1], 5), label=1)
    assert score(model, ex, table) == pytest.approx(1.0 / (1.0 + math.exp(-1)), abs=1e-9)


def test_empty_description_scores_half():
    rng = np.random.default_rng(6)
    model = make_model()
    table = np.vstack([np.zeros((1, 4)), rng.normal(size=(2, 4))])
    ex = BatchExample(bug=token_ids([1, 2], 5), description=token_ids([], 5), label=0)
    assert score(model, ex, table) == 0.5


def test_empty_bug_scores_half():
    rng = np.random.default_rng(7)
    model = make_model()
    table = np.vstack([np.zeros((1, 4)), rng.normal(size=(2, 4))])
    ex = BatchExample(bug=token_ids([], 5), description=token_ids([1, 2], 5), label=0)
    assert score(model, ex, table) == 0.5


def test_scores_live_inside_the_sigmoid_cosine_band():
    rng = np.random.default_rng(8)
    model = make_model(dim=6, hidden=4, max_len=7)
    table = random_table(rng, 6)
    for _ in range(200):
        s = score(model, random_example(rng, model), table)
        assert SCORE_FLOOR - 1e-12 <= s <= SCORE_CEILING + 1e-12


def test_batched_scores_equal_single_scores():
    rng = np.random.default_rng(18)
    model = make_model(dim=6, hidden=4, max_len=9)
    table = random_table(rng, 6)
    lengths = [(1, 9), (9, 1), (3, 5), (7, 7), (2, 8), (5, 3), (0, 4)]
    examples = [random_example(rng, model, n_bug=b, n_desc=d) for b, d in lengths]
    batched = score_many(model, examples, table)
    for i, ex in enumerate(examples):
        assert abs(batched[i] - score(model, ex, table)) <= 1e-12
    # More examples than one batch holds, with a ragged last chunk (4+4+3).
    chunked = make_model(dim=6, hidden=4, max_len=9, batch_size=4)
    examples = [random_example(rng, chunked) for _ in range(11)]
    batched = score_many(chunked, examples, table)
    assert batched.shape == (11,)
    for i, ex in enumerate(examples):
        assert abs(batched[i] - score(chunked, ex, table)) <= 1e-12


def test_score_many_scores_each_bug_report_in_one_chunk(lstm_inputs, monkeypatch):
    # Eleven examples of three bug reports, interleaved, in chunks of four:
    # grouped by report, each report's examples fill one chunk, each distinct
    # text runs through the BiLSTM once, and the scores come back in input
    # order.
    rng = np.random.default_rng(24)
    model = make_model(dim=4, hidden=3, max_len=7, batch_size=4)
    table = random_table(rng, 4)
    bugs = [token_ids(rng.integers(1, VOCAB + 1, size=n), 7) for n in (6, 3, 5)]
    examples = [random_example(rng, model) for _ in range(11)]
    for i, ex in enumerate(examples):
        ex.bug = bugs[i % 3]
    chunks = []
    match = qa_model._match

    def recording(e_b, e_c, norm_b, len_b, len_c):
        chunks.append(len_b.tolist())  # the reports' lengths tell them apart
        return match(e_b, e_c, norm_b, len_b, len_c)

    monkeypatch.setattr(qa_model, "_match", recording)
    scores = scored_once_per_text(lstm_inputs, model, examples, table)
    assert chunks == [[6] * 4, [3] * 4, [5] * 3]
    assert scores.shape == (11,)
    for i, ex in enumerate(examples):
        assert abs(scores[i] - score(model, ex, table)) <= 1e-12
    empty = score_many(model, [], table)
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_score_many_equals_scoring_chunk_by_chunk(lstm_inputs):
    # Scores are bit for bit those of one ``_forward_batch`` per chunk. Small
    # chunks over a small pool of texts repeat reports and descriptions
    # across chunks and blocks, use a text as both a report and a
    # description, and hold all-padding rows; one example and none are
    # covered too.
    rng = np.random.default_rng(27)
    for trial in range(80):
        model = make_model(dim=4, hidden=3, max_len=8, seed=trial,
                           batch_size=int(rng.integers(1, 6)))
        table = random_table(rng, 4)
        pool = [token_ids(rng.integers(1, VOCAB + 1, size=int(rng.integers(0, 9))), 8)
                for _ in range(int(rng.integers(1, 7)))]
        pairs = rng.integers(0, len(pool), size=(int(rng.integers(0, 20)), 2))
        examples = [BatchExample(pool[b], pool[d], 1) for b, d in pairs]
        assert np.array_equal(score_many(model, examples, table),
                              score_many_by_chunks(model, examples, table)), trial
        one = examples[:1]
        assert np.array_equal(score_many(model, one, table),
                              score_many_by_chunks(model, one, table)), trial
    assert np.array_equal(score_many(model, [], table), score_many_by_chunks(model, [], table))
    # Three 5-token reports with three examples each, in chunks of four:
    # (a, a, a, b), (b, b, c, c) and (c). The largest chunk holds 14 real
    # positions, so the reports run in two blocks, (a, b) and (c), after the
    # nine 1-token descriptions, and the second chunk reads both blocks.
    model = make_model(dim=4, hidden=3, max_len=6, batch_size=4)
    table = random_table(rng, 4)
    reports = [token_ids(rng.integers(1, VOCAB + 1, size=5), 6) for _ in range(3)]
    examples = [BatchExample(reports[i // 3], token_ids([i + 1], 6), i % 2) for i in range(9)]
    lstm_inputs.clear()
    scores = score_many(model, examples, table)
    assert [x.shape[1] for x in lstm_inputs] == [9, 10, 5]
    assert np.array_equal(scores, score_many_by_chunks(model, examples, table))


WORDS = ["parser", "crash", "null", "header", "guard", "empty", "fix", "loop"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(WORDS), max_size=6),
       st.lists(st.sampled_from(WORDS), max_size=6),
       st.integers(min_value=1, max_value=40))
def test_score_does_not_depend_on_max_seq_len(bug_words, desc_words, extra):
    # While no text is truncated, extra padding must not move a score.
    provider = Embedding(8, seed=2)
    shortest = max(1, len(bug_words), len(desc_words))
    scores = []
    for n in (shortest, shortest + extra):
        model = make_model(dim=8, hidden=4, max_len=n)
        ex = BatchExample(bug=prepare(tokenize(" ".join(bug_words)), provider, n),
                          description=prepare(tokenize(" ".join(desc_words)), provider, n),
                          label=1)
        scores.append(score(model, ex, provider.table))
    assert abs(scores[0] - scores[1]) <= 1e-12


def test_cosine_orthogonal_gives_half_score():
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert 1.0 / (1.0 + math.exp(-cosine_similarity([1, 0], [0, 1]))) == 0.5


def test_cosine_scale_invariance():
    rng = np.random.default_rng(9)
    u = rng.normal(size=12)
    v = rng.normal(size=12)
    base = cosine_similarity(u, v)
    for k in (0.5, 3.0):
        assert abs(cosine_similarity(k * u, k * v) - base) < 1e-9


def test_cosine_zero_norm_is_zero():
    assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0


@pytest.mark.parametrize("n_bug, n_desc", [(4, 3), (2, 5), (4, 4)])
def test_score_agrees_with_per_position_attention_ops(n_bug, n_desc):
    """The batched score path must equal the composition of the public ops,
    whichever side is longer."""
    rng = np.random.default_rng(10)
    model = make_model(dim=4, hidden=3, max_len=6)
    table = random_table(rng, 4)
    ex = random_example(rng, model, n_bug=n_bug, n_desc=n_desc)
    e_b = bilstm_forward(model, table[ex.bug.ids], n_bug)
    e_c = bilstm_forward(model, table[ex.description.ids], n_desc)
    n = model.config.max_seq_len
    attended = np.zeros((n, 2 * model.config.hidden_size))
    for j in range(n):
        if ex.description.mask[j] > 0:
            alpha = attention_weights(e_b, e_c[j], ex.bug.mask)
            attended[j] = attention_apply(alpha, e_b)
    re_b = (e_b * ex.bug.mask[:, None]).ravel()
    re_c = attended.ravel()
    expected = 1.0 / (1.0 + math.exp(-cosine_similarity(re_b, re_c)))
    assert score(model, ex, table) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_bugs, n_descs", [([2, 3], [5, 1]), ([5, 1], [2, 3])],
                         ids=["description-wider", "bug-wider"])
def test_attention_spans_each_sides_own_width(n_bugs, n_descs):
    # Attention is cut to each side's longest real row, not to the wider one.
    rng = np.random.default_rng(12)
    model = make_model(dim=4, hidden=3, max_len=6)
    table = random_table(rng, 4)
    examples = [random_example(rng, model, n_bug=b, n_desc=d)
                for b, d in zip(n_bugs, n_descs)]
    bug_ids, desc_ids, _ = stack_examples(examples)
    _, cache = qa_model._forward_batch(model, table, bug_ids, desc_ids)
    assert cache["alpha"].shape == (2, max(n_bugs), max(n_descs))


def test_bug_norms_from_distinct_rows_equal_norms_of_the_gathered_rows():
    # The forward pass takes each bug row's norm at its distinct row; it must
    # equal the norm of the gathered row bit for bit, with repeated bug rows,
    # a description repeating a bug row, and bug rows narrower than the run.
    rng = np.random.default_rng(25)
    model = make_model(dim=4, hidden=3, max_len=6)
    table = random_table(rng, 4)
    for _ in range(40):
        pool = [random_example(rng, model) for _ in range(int(rng.integers(1, 4)))]
        examples = [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(1, 7)))]
        examples[0] = BatchExample(bug=examples[0].bug, description=examples[-1].bug, label=1)
        bug_ids, desc_ids, _ = stack_examples(examples)
        _, cache = qa_model._forward_batch(model, table, bug_ids, desc_ids)
        assert (cache["norm_b"] == np.linalg.norm(cache["rb"], axis=1)).all()


# --- loss ---------------------------------------------------------------------


def test_loss_values():
    assert loss(0.5, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    assert loss(0.5, 0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_loss_gradient_matches_finite_difference():
    h = 1e-6
    numeric = (loss(0.5 + h, 1) - loss(0.5 - h, 1)) / (2 * h)
    assert numeric == pytest.approx(-2.0, rel=1e-6)


def test_loss_domain_errors():
    with pytest.raises(ValueError):
        loss(0.0, 1)
    with pytest.raises(ValueError):
        loss(0.4, 2)


# --- gradients ----------------------------------------------------------------


def relative_error(analytic, numeric):
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def test_gradients_match_central_finite_differences():
    rng = np.random.default_rng(42)
    dim, hidden, n = 4, 3, 5
    model = make_model(dim=dim, hidden=hidden, max_len=n, seed=7)

    def check(bug_ids, desc_ids, labels, table):
        labels = np.array(labels)

        def batch_loss():
            value, _ = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
            return value

        _, grads = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
        h = 1e-4
        for name, param in model.params.items():
            numeric = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                original = param[ix]
                param[ix] = original + h
                up = batch_loss()
                param[ix] = original - h
                down = batch_loss()
                param[ix] = original
                numeric[ix] = (up - down) / (2 * h)
                it.iternext()
            assert relative_error(grads[name], numeric) < 1e-3, (len(labels), name)

    # Prefix masks and labels. The first two cases have longer bug rows than
    # description rows (Tb > Tc); the second packs a zero-length bug row and
    # ties the real lengths of rows on both sides (bug 1, descriptions 0 and
    # 1). In the third every description row is longer than every bug row
    # (Tc > Tb), and in the fourth both sides' longest rows tie (Tb == Tc).
    cases = [
        ([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], [[1, 1, 1, 1, 0], [1, 1, 0, 0, 0]], [1.0, 0.0]),
        ([[0, 0, 0, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 1, 0]],
         [[1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0]], [1.0, 0.0, 1.0]),
        ([[1, 1, 0, 0, 0], [1, 0, 0, 0, 0]], [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], [0.0, 1.0]),
        ([[1, 1, 1, 0, 0], [1, 1, 0, 0, 0]], [[1, 0, 0, 0, 0], [1, 1, 1, 0, 0]], [1.0, 0.0]),
    ]
    for bug_mask, desc_mask, labels in cases:
        batch = len(labels)
        # Every real position reads its own random table row.
        table = np.vstack([np.zeros((1, dim)), rng.normal(size=(2 * batch * n, dim))])
        positions = np.arange(1, 2 * batch * n + 1, dtype=np.int32).reshape(2, batch, n)
        check(positions[0] * bug_mask, positions[1] * desc_mask, labels, table)
    # Duplicate rows: bug rows 0 and 2 are equal, description 1 equals them
    # too, and bug 3 and description 2 are both all padding.
    table = np.vstack([np.zeros((1, dim)), rng.normal(size=(12, dim))])
    a, b, c, d = [1, 2, 3, 4, 0], [5, 6, 0, 0, 0], [7, 8, 9, 0, 0], [10, 11, 12, 0, 0]
    zero = [0] * n
    check(np.array([a, b, a, zero]), np.array([c, a, zero, d]), [1.0, 0.0, 1.0, 0.0], table)


@pytest.mark.parametrize("batch, steps", [(8, 10), (64, 64), (128, 12)])
def test_float32_table_gradients_agree_with_float64(batch, steps):
    # Training runs the recurrence and BPTT in the table's dtype, float32;
    # attention, cosine and the loss stay float64, and the weight gradients
    # come back float64 within float32 rounding of the float64 step's (about
    # 1e-7 to 4e-7 here).
    rng = np.random.default_rng(batch)
    model = make_model(dim=32, hidden=16, max_len=steps)
    table = random_table(rng, 32)
    bug_ids, desc_ids, labels = stack_examples(
        [random_example(rng, model) for _ in range(batch)])
    loss64, grads64 = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    loss32, grads32 = batch_loss_and_gradients(model, table.astype(np.float32),
                                               bug_ids, desc_ids, labels)
    assert loss32 == pytest.approx(loss64, rel=1e-5)
    for name in model.params:
        assert grads32[name].dtype == np.float64, name
        assert relative_error(grads32[name], grads64[name]) < 1e-5, name


def test_batch_does_not_depend_on_row_order():
    # Packing sorts the stacked rows by length; a permuted batch, with tied
    # lengths on both sides, a zero-length row and duplicate rows, must give
    # the permuted scores and the same loss and gradients, though it sums
    # the duplicates' gradients in another order.
    rng = np.random.default_rng(21)
    model = make_model(dim=5, hidden=3, max_len=6)
    table = random_table(rng, 5)
    sizes = [(3, 2), (0, 4), (3, 2), (6, 3), (1, 0), (3, 3)]
    examples = [random_example(rng, model, n_bug=b, n_desc=d) for b, d in sizes]
    # A bug row repeated within the batch, and a description equal to a bug row.
    examples.append(BatchExample(bug=examples[3].bug, description=examples[0].description,
                                 label=0))
    examples.append(BatchExample(bug=examples[3].bug, description=examples[5].bug, label=1))
    bug_ids, desc_ids, labels = stack_examples(examples)
    perm = np.array([4, 7, 2, 5, 0, 6, 3, 1])
    scores = score_many(model, examples, table)
    permuted = score_many(model, [examples[i] for i in perm], table)
    assert np.all(np.abs(permuted - scores[perm]) <= 1e-15)
    loss_value, grads = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    loss_permuted, grads_permuted = batch_loss_and_gradients(
        model, table, bug_ids[perm], desc_ids[perm], labels[perm])
    assert abs(loss_permuted - loss_value) <= 1e-15
    for name in model.params:
        assert np.all(np.abs(grads_permuted[name] - grads[name]) <= 1e-15), name


@pytest.fixture
def lstm_inputs(monkeypatch):
    """Every packed input ``_lstm_run`` receives."""
    seen = []
    lstm_run = qa_model._lstm_run

    def recording(params, x, *rest):
        seen.append(x.copy())
        return lstm_run(params, x, *rest)

    monkeypatch.setattr(qa_model, "_lstm_run", recording)
    return seen


def scored_once_per_text(lstm_inputs, model, examples, table):
    """``score_many``'s scores, once its call is checked: the forward inputs of
    its BiLSTM runs are the real tokens of each distinct bug report and each
    distinct description, once each, and no run holds more real positions
    than the largest chunk's distinct rows, which ``_forward_batch`` would
    run together. The table's rows must be distinct."""
    lstm_inputs.clear()
    scores = score_many(model, examples, table)
    bug_ids, desc_ids, _ = stack_examples(examples)
    texts = [row[row > 0] for ids in (bug_ids, desc_ids) for row in np.unique(ids, axis=0)]
    row_id = {row.tobytes(): i for i, row in enumerate(table)}
    ran = [row_id[row.tobytes()] for x in lstm_inputs for row in x[0]]
    assert sorted(ran) == sorted(np.concatenate(texts).tolist())
    largest = max(np.count_nonzero(np.unique(np.concatenate([bug_ids[c], desc_ids[c]]), axis=0))
                  for c in chunks_by_report(bug_ids, model.config.batch_size))
    assert max(x.shape[1] for x in lstm_inputs) <= largest
    return scores


def test_lstm_reads_only_real_positions(lstm_inputs):
    # The recurrence sees each real (row, step) once per direction and no padding.
    rng = np.random.default_rng(22)
    model = make_model(dim=4, hidden=3, max_len=8)
    table = random_table(rng, 4)
    sizes = [(8, 1), (2, 5), (0, 3), (5, 5)]
    examples = [random_example(rng, model, n_bug=b, n_desc=d) for b, d in sizes]
    bug_ids, desc_ids, labels = stack_examples(examples)
    batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    real = np.count_nonzero(bug_ids) + np.count_nonzero(desc_ids)
    assert real == 29
    assert [x.shape for x in lstm_inputs] == [(2, real, 4)]
    # score_many runs each side's real tokens, in blocks of at most 29.
    scored_once_per_text(lstm_inputs, model, examples, table)


def duplicate_batch(case):
    """A model, a table and five examples with duplicate id rows of one kind:
    a bug row repeated within the batch, a description equal to another
    example's bug row, or two all-padding rows. No example repeats a row of
    its own, so a one-example batch holds two distinct rows."""
    rng = np.random.default_rng(23)
    model = make_model(dim=4, hidden=3, max_len=7)
    table = random_table(rng, 4)
    examples = [random_example(rng, model, n_bug=b, n_desc=d)
                for b, d in [(5, 3), (2, 6), (4, 4), (7, 1), (3, 5)]]
    if case == "bug-repeated":
        examples[2].bug = examples[0].bug
        examples[4].bug = examples[0].bug
    elif case == "cross-side":
        examples[1].description = examples[3].bug
    else:
        examples[0].bug = token_ids([], 7)
        examples[3].description = token_ids([], 7)
    return model, table, examples


@pytest.mark.parametrize("case", ["bug-repeated", "cross-side", "all-padding"])
def test_duplicate_rows_run_once(lstm_inputs, case):
    # Each distinct row of the stacked training batch runs once; its copies
    # share its states and sum their gradients, so scores equal single-example
    # scores and gradients equal the mean of single-example gradients.
    model, table, examples = duplicate_batch(case)
    bug_ids, desc_ids, labels = stack_examples(examples)
    stacked = np.concatenate([bug_ids, desc_ids])
    distinct = np.unique(stacked, axis=0)
    assert len(distinct) == len(stacked) - (2 if case == "bug-repeated" else 1)
    _, cache = qa_model._forward_batch(model, table, bug_ids, desc_ids)
    assert int(cache["inverse"].max()) + 1 == len(distinct)
    lstm_inputs.clear()
    loss_value, grads = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    assert [x.shape for x in lstm_inputs] == [(2, np.count_nonzero(distinct), 4)]
    # score_many runs each side's distinct rows once; a text that is both a
    # report and a description runs once on each side.
    batched = scored_once_per_text(lstm_inputs, model, examples, table)
    for i, ex in enumerate(examples):
        assert abs(batched[i] - score(model, ex, table)) <= 1e-12
    # The oracle: one example per batch, whose two rows are distinct.
    singles = []
    for i in range(len(examples)):
        assert not np.array_equal(bug_ids[i], desc_ids[i])
        singles.append(batch_loss_and_gradients(
            model, table, bug_ids[i:i + 1], desc_ids[i:i + 1], labels[i:i + 1]))
    assert loss_value == pytest.approx(np.mean([value for value, _ in singles]), rel=1e-12)
    for name in model.params:
        mean = np.mean([g[name] for _, g in singles], axis=0)
        assert relative_error(grads[name], mean) <= 1e-12, name


@pytest.mark.parametrize("case", ["bug-repeated", "cross-side", "all-padding"])
def test_bilstm_output_and_gradient_stay_at_distinct_rows(monkeypatch, case):
    # The BiLSTM's output holds one row per distinct sequence of the stacked
    # batch, not one per stacked row, and BPTT receives the packed gradient of
    # those rows' real positions only.
    model, table, examples = duplicate_batch(case)
    bug_ids, desc_ids, labels = stack_examples(examples)
    stacked = np.concatenate([bug_ids, desc_ids])
    distinct = np.unique(stacked, axis=0)
    outputs, gradients = [], []
    bilstm_run, lstm_back = qa_model._bilstm_run, qa_model._lstm_back

    def run(model, table, ids, lengths, out, starts):
        outputs.append((out.shape, starts.tolist()))
        return bilstm_run(model, table, ids, lengths, out, starts)

    def back(params, cache, g_states, *args):
        gradients.append(g_states.shape)
        return lstm_back(params, cache, g_states, *args)

    monkeypatch.setattr(qa_model, "_bilstm_run", run)
    monkeypatch.setattr(qa_model, "_lstm_back", back)
    batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    width = np.count_nonzero(stacked, axis=1).max()
    hidden = model.config.hidden_size
    # One row of ``width`` positions per distinct sequence.
    assert outputs == [((len(distinct) * width, 2 * hidden),
                        (np.arange(len(distinct)) * width).tolist())]
    assert gradients == [(2, np.count_nonzero(distinct), hidden)]


def training_step_peak(seed, batch, bug_rows, width, desc_len, dim, hidden,
                       dtype=np.float64) -> int:
    """Traced peak of one training step on a question-answering batch:
    ``batch`` examples share ``bug_rows`` long bug rows in turn, and each has
    its own ``desc_len``-token description. The table is of ``dtype``."""
    rng = np.random.default_rng(seed)
    model = make_model(dim=dim, hidden=hidden, max_len=width)
    table = random_table(rng, dim).astype(dtype)
    bug_ids = rng.integers(1, VOCAB + 1, size=(bug_rows, width))[np.arange(batch) % bug_rows]
    desc_ids = np.zeros((batch, width), dtype=np.int64)
    desc_ids[:, :desc_len] = rng.integers(1, VOCAB + 1, size=(batch, desc_len))
    labels = (np.arange(batch) % 2).astype(np.float64)
    batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    tracemalloc.start()
    try:
        batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_batch_peak_memory():
    # 64 examples share 8 long bug rows and have 8-token descriptions. The
    # traced peak of one training step stays under a fixed bound. Gathering
    # the BiLSTM output back to every stacked row, padding the gradient to
    # every stacked row and keeping attention's arrays through BPTT peaked at
    # about 4.0 MB here; keeping them at the distinct rows peaked at about
    # 2.4 MB, and keeping only what backpropagation reads peaks at about 1.6 MB.
    # Training's float32 table, recurrence and BPTT peak at about 1.3 MB.
    for dtype in (np.float64, np.float32):
        assert training_step_peak(25, batch=64, bug_rows=8, width=32, desc_len=8,
                                  dim=16, hidden=8, dtype=dtype) < 3_200_000, dtype


def scoring_peak(seed, count, reports, width, desc_len, dim, hidden) -> int:
    """Traced peak of one ``score_many`` call: ``count`` examples share
    ``reports`` full-width bug reports in turn, and each has its own
    description of 1 to ``desc_len`` tokens."""
    rng = np.random.default_rng(seed)
    model = make_model(dim=dim, hidden=hidden, max_len=width)
    table = random_table(rng, dim)
    bugs = [token_ids(rng.integers(1, VOCAB + 1, size=width), width) for _ in range(reports)]
    examples = [BatchExample(bugs[i % reports],
                             token_ids(rng.integers(1, VOCAB + 1,
                                                    size=int(rng.integers(1, desc_len + 1))), width),
                             i % 2) for i in range(count)]
    score_many(model, examples, table)
    tracemalloc.start()
    try:
        score_many(model, examples, table)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scoring_peak_memory():
    # A serve-shaped evaluate: 256 examples over 40 reports of 64 tokens, with
    # short descriptions, in chunks of 128. Running each chunk's distinct rows
    # through the BiLSTM, as ``_forward_batch`` does, peaked at about 8.0 MB
    # here; running each distinct text once, descriptions kept for the call
    # and reports streamed in blocks no larger than a chunk, peaks at about
    # 5.3 MB.
    assert scoring_peak(28, count=256, reports=40, width=64, desc_len=8,
                        dim=32, hidden=16) < 8_000_000


def test_training_step_keeps_only_what_backprop_reads():
    # 32 examples share 16 long bug rows, two copies each, and have 4-token
    # descriptions, so the BiLSTM's cache outweighs attention's arrays.
    # Caching the packed input, tanh of the cells and the states, and a
    # separate gate-gradient array for BPTT, peaked at about 3.0 MB here;
    # gate gradients written over the gates, the input gathered again and
    # the rest rebuilt, it peaks at about 1.7 MB.
    assert training_step_peak(26, batch=32, bug_rows=16, width=32, desc_len=4,
                              dim=32, hidden=16) < 2_300_000


# --- training -----------------------------------------------------------------


def small_training_setup(n_examples=6, seed=0):
    rng = np.random.default_rng(seed)
    model = make_model(dim=6, hidden=4, max_len=8, seed=3,
                       epochs=4, batch_size=4, learning_rate=0.01)
    table = random_table(rng, 6)
    examples = [random_example(rng, model) for _ in range(n_examples)]
    return model, examples, table


def test_training_is_deterministic():
    model_a, examples, table = small_training_setup()
    history_a = train(model_a, examples, table)
    model_b, _, _ = small_training_setup()
    history_b = train(model_b, examples, table)
    assert history_a == history_b
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])


def test_training_runs_the_recurrence_in_float32(lstm_inputs):
    # Training casts the table to float32 once, so the recurrence and BPTT
    # run in float32; the weights stay float64, and scoring reads the
    # caller's float64 table.
    model, examples, table = small_training_setup()
    train(model, examples, table)
    assert {x.dtype for x in lstm_inputs} == {np.dtype(np.float32)}
    assert table.dtype == np.float64
    assert {p.dtype for p in model.params.values()} == {np.dtype(np.float64)}
    lstm_inputs.clear()
    score_many(model, examples, table)
    assert {x.dtype for x in lstm_inputs} == {np.dtype(np.float64)}


def test_training_single_positive_drives_score_up():
    rng = np.random.default_rng(13)
    cfg = ModelConfig(max_seq_len=8, hidden_size=4, seed=5, epochs=1, batch_size=8)
    model = QaModel.create(cfg, 6)
    table = np.vstack([np.zeros((1, 6)), rng.normal(size=(3, 6)), rng.normal(size=(4, 6))])
    ex = BatchExample(bug=token_ids([1, 2, 3], 8), description=token_ids([4, 5, 6, 7], 8),
                      label=1)
    scores = [score(model, ex, table)]
    for _ in range(10):
        train(model, [ex], table)
        scores.append(score(model, ex, table))
    dips = sum(1 for a, b in zip(scores, scores[1:]) if b < a - 1e-12)
    assert dips <= 1
    assert scores[-1] > scores[0]


def test_training_loss_decreases_on_separable_data():
    model, examples, table = small_training_setup(n_examples=8)
    history = train(model, examples, table)
    assert history[-1] <= history[0]


def test_token_free_batch_scores_half_and_trains():
    model = make_model(dim=4, hidden=3, max_len=5, epochs=2, batch_size=4)
    table = np.zeros((1, 4))
    empty = token_ids([], 5)
    examples = [BatchExample(bug=empty, description=empty, label=i % 2) for i in range(4)]
    assert score_many(model, examples, table).tolist() == [0.5] * 4
    history = train(model, examples, table)
    assert history == [pytest.approx(math.log(2.0), abs=1e-12)] * 2


@pytest.mark.parametrize("max_len", [1, 4])
def test_one_token_texts_train(max_len):
    # A batch whose longest text has one token runs a single time step.
    rng = np.random.default_rng(19)
    model = make_model(dim=4, hidden=3, max_len=max_len, epochs=2, batch_size=4)
    table = random_table(rng, 4)
    examples = [random_example(rng, model, n_bug=1, n_desc=1) for _ in range(4)]
    bug_ids, desc_ids, labels = stack_examples(examples)
    batch_loss, grads = batch_loss_and_gradients(model, table, bug_ids, desc_ids, labels)
    assert np.isfinite(batch_loss)
    # With one step the recurrent input is the zero initial state.
    assert np.all(grads["w_h"] == 0.0) and np.any(grads["w_x"] != 0.0)
    history = train(model, examples, table)
    assert np.all(np.isfinite(history))


def test_train_rejects_empty_examples():
    model, _, table = small_training_setup()
    with pytest.raises(ValueError):
        train(model, [], table)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(epochs=0).validate()
    with pytest.raises(ValueError):
        ModelConfig(learning_rate=0.0).validate()
    with pytest.raises(ValueError, match="finite"):
        ModelConfig(learning_rate=math.inf).validate()
    ModelConfig().validate()


def test_default_config_matches_published_hyperparameters():
    cfg = ModelConfig()
    assert cfg.max_seq_len == 64
    assert cfg.hidden_size == 16
    assert cfg.learning_rate == 0.01
    assert cfg.epochs == 10
    assert cfg.batch_size == 128


# --- predict ------------------------------------------------------------------


def test_predict_threshold_and_tie_rule():
    rng = np.random.default_rng(14)
    model = make_model()
    table = random_table(rng, 4)
    ex = random_example(rng, model)
    s = score(model, ex, table)
    assert predict(model, ex, table, 0.4).label == (1 if s >= 0.4 else 0)
    assert predict(model, ex, table, s).label == 1  # tie classifies as correct


def test_predict_above_score_ceiling_always_incorrect():
    rng = np.random.default_rng(15)
    model = make_model(dim=6, hidden=4, max_len=7)
    table = random_table(rng, 6)
    for _ in range(25):
        assert predict(model, random_example(rng, model), table, 0.9).label == 0
        assert predict(model, random_example(rng, model), table, 0.8).label == 0


def test_predict_rejects_bad_threshold():
    rng = np.random.default_rng(16)
    model = make_model()
    with pytest.raises(ValueError):
        predict(model, random_example(rng, model), random_table(rng, 4), 1.5)


# --- checkpointing ------------------------------------------------------------


def test_checkpoint_roundtrip_is_byte_stable(tmp_path):
    model, examples, table = small_training_setup()
    train(model, examples, table)
    model.metadata = {"embedding": {"kind": "hash", "dim": 6, "seed": 5}}
    first = tmp_path / "model.ckpt"
    save_model(model, first)
    loaded = load_model(first)
    second = tmp_path / "model2.ckpt"
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.metadata == model.metadata
    assert loaded.config == model.config
    rng = np.random.default_rng(17)
    ex = random_example(rng, model)
    assert score(loaded, ex, table) == score(model, ex, table)


def set_nan(data: bytes) -> bytes:
    values = np.frombuffer(data, dtype="<f8").copy()
    values[3] = np.nan
    return values.tobytes()


@pytest.mark.parametrize("edit_header, tail, message", [
    pytest.param(lambda h: h.pop("tensors"), None, "lacks 'tensors'", id="no-tensors"),
    pytest.param(lambda h: h.pop("config"), None, "lacks 'config'", id="no-config"),
    pytest.param(lambda h: h.pop("input_dim"), None, "lacks 'input_dim'", id="no-input-dim"),
    pytest.param(lambda h: h["config"].update(dropout=0.5), None, "dropout",
                 id="unknown-config-key"),
    pytest.param(lambda h: h["config"].update(hidden_size="4"), None, "hidden_size",
                 id="string-hidden-size"),
    pytest.param(None, lambda data: data[:-4], "tensor bytes", id="short-read"),
    pytest.param(None, lambda data: data + b"\0" * 8, "tensor bytes", id="trailing-bytes"),
    pytest.param(lambda h: h["config"].update(hidden_size=2), None, "hidden_size 2",
                 id="hidden-size-mismatch"),
    pytest.param(lambda h: h.update(input_dim=5), None, "input_dim 5",
                 id="input-dim-mismatch"),
    pytest.param(lambda h: h["tensors"].reverse(), None, "do not match", id="tensor-order"),
    pytest.param(None, set_nan, "non-finite", id="nan-weight"),
])
def test_checkpoint_validation_rejects_damaged_files(tmp_path, edit_header, tail, message):
    model, _, _ = small_training_setup()
    path = tmp_path / "model.ckpt"
    save_model(model, path)
    path.write_bytes(rewrite_checkpoint(path.read_bytes(), edit_header, tail))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_model(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_model.bin"
    path.write_bytes(b"something else entirely")
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_model(path)


# --- end-to-end sanity with real text ------------------------------------------


def test_text_pipeline_scores_matched_pair_deterministically():
    provider = Embedding(8, seed=2)
    model = make_model(dim=8, hidden=4, max_len=16)
    bug = prepare(tokenize("parser crashes on empty header line"), provider, 16)
    desc = prepare(tokenize("guard the parser against empty header"), provider, 16)
    ex = BatchExample(bug=bug, description=desc, label=1)
    assert score(model, ex, provider.table) == score(model, ex, provider.table)


# --- scores pinned under the shake256-sum4 token vectors -------------------------


def test_pinned_score_with_hashed_vectors():
    provider = Embedding(32, seed=0)
    model = QaModel.create(ModelConfig(max_seq_len=8, seed=0), 32)
    ex = BatchExample(bug=prepare(tokenize("a b c d e f"), provider, 8),
                      description=prepare(tokenize("a b c x y z"), provider, 8), label=1)
    assert score(model, ex, provider.table) == 0.6710636210688682


def test_pinned_score_with_vector_file(tmp_path):
    # Tokens missing from the file (zzz, qqq) take the seed-0 hashed rows.
    rng = np.random.default_rng(0)
    tokens = "observed failure fix handle alpha0001 beta0002 guard method".split()
    lines = [" ".join([token, *(f"{v:.6f}" for v in rng.normal(size=8))]) for token in tokens]
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(["dim 8", *lines]) + "\n", encoding="utf-8")
    provider = Embedding.load(path, seed=0)
    model = QaModel.create(ModelConfig(max_seq_len=8, seed=0), 8)
    ex = BatchExample(bug=prepare(tokenize("observed failure alpha0001 zzz"), provider, 8),
                      description=prepare(tokenize("fix alpha0001 guard qqq"), provider, 8),
                      label=1)
    assert score(model, ex, provider.table) == 0.657998347776398
