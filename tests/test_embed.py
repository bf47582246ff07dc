import numpy as np
import pytest
from hypothesis import given, strategies as st

from patchqa.embed import (
    FileBackedEmbedding,
    HashSeededEmbedding,
    TokenSequence,
    prepare,
    standardize,
    text_vector,
    tokenize,
)

KEEP = set("abcdefghijklmnopqrstuvwxyz0123456789_#.")


def reference_split(text):
    """Independent character-walk oracle for the tokenizer rule."""
    out, current = [], []
    for ch in text.lower():
        if ch in KEEP:
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def test_tokenize_case_study_title_fragment():
    seq = tokenize("NumberUtils#createNumber - bad behaviour")
    assert list(seq.tokens) == ["numberutils#createnumber", "bad", "behaviour"]
    assert list(seq.tokens) == reference_split("NumberUtils#createNumber - bad behaviour")


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_preserves_duplicates():
    assert list(tokenize("a  a").tokens) == ["a", "a"]


@given(st.text(max_size=60))
def test_tokenize_matches_reference_oracle(text):
    assert list(tokenize(text).tokens) == reference_split(text)


@given(st.text(max_size=60))
def test_tokens_only_use_kept_characters(text):
    for token in tokenize(text).tokens:
        assert token
        assert set(token) <= KEEP


def test_tokenize_case_study_title():
    title = 'NumberUtils#createNumber - bad behaviour for leading "--".'
    expected = ["numberutils#createnumber", "bad", "behaviour", "for", "leading", "."]
    assert reference_split(title) == expected
    assert list(tokenize(title).tokens) == expected


# --- providers ---------------------------------------------------------------


def test_hash_seeded_deterministic():
    provider = HashSeededEmbedding(8, seed=7)
    v1 = provider.lookup("x")
    v2 = provider.lookup("x")
    assert np.array_equal(v1, v2)
    fresh = HashSeededEmbedding(8, seed=7)
    assert np.array_equal(fresh.lookup("x"), v1)


def test_hash_seeded_varies_with_seed_and_token():
    a = HashSeededEmbedding(8, seed=7).lookup("x")
    b = HashSeededEmbedding(8, seed=8).lookup("x")
    c = HashSeededEmbedding(8, seed=7).lookup("y")
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hash_seeded_vectors_finite_and_sized():
    provider = HashSeededEmbedding(16, seed=0)
    for token in ("alpha", "beta", "#", "_"):
        vec = provider.lookup(token)
        assert vec.shape == (16,)
        assert np.all(np.isfinite(vec))


def test_hash_seeded_unit_variance_statistically():
    provider = HashSeededEmbedding(64, seed=3)
    values = np.concatenate([provider.lookup(f"tok{i}") for i in range(200)])
    assert abs(values.std() - 1.0) < 0.02
    assert abs(values.mean()) < 0.02


def test_hash_seeded_rejects_bad_dim():
    with pytest.raises(ValueError):
        HashSeededEmbedding(0, seed=1)


def _write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_file_backed_lookup_and_fallback(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", [
        "dim 3",
        "alpha 1.0 2.0 3.0",
        "beta 0.5 -0.5 0.25",
    ])
    provider = FileBackedEmbedding.load(path, fallback_seed=9)
    assert np.array_equal(provider.lookup("alpha"), [1.0, 2.0, 3.0])
    unknown = provider.lookup("missing")
    assert np.array_equal(unknown, HashSeededEmbedding(3, seed=9).lookup("missing"))


def test_file_backed_duplicate_token(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 2", "a 1 2", "a 3 4"])
    with pytest.raises(ValueError, match="duplicate token"):
        FileBackedEmbedding.load(path)


def test_file_backed_bad_header(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["vectors 2", "a 1 2"])
    with pytest.raises(ValueError, match="dim"):
        FileBackedEmbedding.load(path)


def test_file_backed_wrong_component_count(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 3", "a 1 2"])
    with pytest.raises(ValueError, match="expected 3"):
        FileBackedEmbedding.load(path)


def test_file_backed_non_finite(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 2", "a 1 inf"])
    with pytest.raises(ValueError, match="non-finite"):
        FileBackedEmbedding.load(path)


# --- prepare -----------------------------------------------------------------


def test_prepare_pads_and_masks():
    provider = HashSeededEmbedding(8, seed=1)
    matrix = prepare(tokenize("one two three"), provider, 64)
    assert matrix.rows.shape == (64, 8)
    assert matrix.mask.sum() == 3
    assert not matrix.truncated
    assert np.all(matrix.rows[3:] == 0.0)
    assert np.all(matrix.mask[3:] == 0.0)


def test_prepare_truncates():
    provider = HashSeededEmbedding(4, seed=1)
    text = " ".join(f"t{i}" for i in range(100))
    matrix = prepare(tokenize(text), provider, 64)
    assert matrix.truncated
    assert matrix.mask.sum() == 64


def test_prepare_shape_fixed_regardless_of_input():
    provider = HashSeededEmbedding(4, seed=1)
    for text in ("", "a", " ".join("x" * 90)):
        assert prepare(tokenize(text), provider, 16).rows.shape == (16, 4)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=20))
def test_prepare_mask_sum_property(n_tokens, max_len):
    provider = HashSeededEmbedding(3, seed=2)
    seq = TokenSequence(tuple(f"t{i}" for i in range(n_tokens)))
    matrix = prepare(seq, provider, max_len)
    assert matrix.mask.sum() == min(n_tokens, max_len)


def test_prepare_rejects_bad_args():
    provider = HashSeededEmbedding(4, seed=1)
    with pytest.raises(ValueError):
        prepare(tokenize("a"), provider, 0)

    class BadProvider:
        dim = 0

    with pytest.raises(ValueError):
        prepare(tokenize("a"), BadProvider(), 8)


# --- standardize -------------------------------------------------------------


def test_standardize_hand_computed():
    out = standardize([(1.0, 2.0), (3.0, 4.0)])
    # mean (2, 3), population std (1, 1)
    assert np.allclose(out, [[-1.0, -1.0], [1.0, 1.0]])


def test_standardize_zero_variance_maps_to_zero():
    out = standardize([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])
    assert np.all(out[:, 0] == 0.0)


def test_standardize_columns_centered():
    rng = np.random.default_rng(0)
    out = standardize(rng.normal(size=(50, 7)) * 3 + 1)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.allclose(out.std(axis=0), 1.0)


def test_standardize_idempotent():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    once = standardize(x)
    assert np.allclose(standardize(once), once, atol=1e-9)


def test_standardize_needs_two_vectors():
    with pytest.raises(ValueError):
        standardize([(1.0, 2.0)])


def test_text_vector_mean_pooling():
    provider = HashSeededEmbedding(6, seed=4)
    vec = text_vector("alpha beta", provider)
    expected = (provider.lookup("alpha") + provider.lookup("beta")) / 2
    assert np.allclose(vec, expected)
    assert np.array_equal(text_vector("", provider), np.zeros(6))
