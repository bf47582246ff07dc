import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from patchqa import embed
from patchqa.embed import (
    Embedding,
    TokenSequence,
    has_token,
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
def test_has_token_agrees_with_tokenize(text):
    assert has_token(text) == bool(tokenize(text).tokens)


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


# --- the embedding table -----------------------------------------------------


def vector(provider, token):
    """The table row ``provider`` gives ``token``."""
    (row,) = provider.ids([token])
    return provider.table[row]


def test_hash_seeded_deterministic():
    provider = Embedding(8, seed=7)
    v1 = vector(provider, "x")
    v2 = vector(provider, "x")
    assert np.array_equal(v1, v2)
    fresh = Embedding(8, seed=7)
    assert np.array_equal(vector(fresh, "x"), v1)


def test_hash_seeded_varies_with_seed_and_token():
    a = vector(Embedding(8, seed=7), "x")
    b = vector(Embedding(8, seed=8), "x")
    c = vector(Embedding(8, seed=7), "y")
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_hash_seeded_vectors_finite_and_sized():
    provider = Embedding(16, seed=0)
    for token in ("alpha", "beta", "#", "_"):
        vec = vector(provider, token)
        assert vec.shape == (16,)
        assert np.all(np.isfinite(vec))


def test_hash_seeded_unit_variance_statistically():
    provider = Embedding(64, seed=3)
    provider.ids([f"tok{i}" for i in range(200)])
    values = provider.table[1:].ravel()
    assert abs(values.std() - 1.0) < 0.02
    assert abs(values.mean()) < 0.02


def reference_vector(token, seed, dim):
    """The documented hashed vector in Python ints and floats, no numpy."""
    key = (seed % 2**64).to_bytes(8, "little")
    digest = hashlib.shake_256(key + token.encode("utf-8")).digest(16 * dim)
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16 * dim, 4)]
    return [(sum(words[4 * j:4 * j + 4]) / 2**32 - 2) * math.sqrt(3.0) for j in range(dim)]


@pytest.mark.parametrize("dim", [1, 7, 32])
@pytest.mark.parametrize("seed", [0, 5, -1, 2**70])
def test_hashed_vectors_follow_the_documented_formula(dim, seed):
    tokens = ["a", "numberutils#createnumber", "_", "0.5", "caf\u00e9"]
    provider = Embedding(dim, seed=seed)
    provider.ids(tokens)
    expected = np.array([[0.0] * dim, *(reference_vector(t, seed, dim) for t in tokens)])
    assert provider.table.tobytes() == expected.tobytes()


def test_ids_and_table_over_several_calls_equal_one_call():
    calls = [["a", "b", "a"], [], ["b", "c"], ["d", "a", "e", "d"], ["f"]]
    one, several = Embedding(8, seed=3), Embedding(8, seed=3)
    ids = []
    for n, call in enumerate(calls):
        ids += several.ids(call)
        if n == 2:
            assert several.table.shape == (4, 8)  # a read between calls
    assert ids == one.ids([token for call in calls for token in call])
    assert several.table.tobytes() == one.table.tobytes()


def test_a_token_the_vector_file_holds_is_never_hashed(tmp_path, monkeypatch):
    hashed = []
    draw = embed._hashed_vectors

    def counted(tokens, seed, dim):
        hashed.extend(tokens)
        return draw(tokens, seed, dim)

    monkeypatch.setattr(embed, "_hashed_vectors", counted)
    path = _write_vectors(tmp_path / "vec.txt", ["dim 3", "alpha 1 2 3", "beta 4 5 6"])
    provider = Embedding.load(path, seed=9)
    assert provider.ids(["alpha", "zeta", "beta", "alpha"]) == [1, 2, 3, 1]
    assert provider.ids(["beta", "eta"]) == [3, 4]
    # Vectors are computed when the table is read.
    assert np.array_equal(provider.table[[1, 3]], [[1, 2, 3], [4, 5, 6]])
    assert hashed == ["zeta", "eta"]


def test_one_table_read_hashes_every_new_token_in_one_pass(tmp_path, monkeypatch):
    # Several ids calls, then one read of the table: one hash call over every
    # new token, and the same ids and table bytes as hashing each call's new
    # tokens as it comes and stacking the rows, the file's rows in between.
    calls = [["a", "alpha", "b", "a"], [], ["b", "c", "beta"], ["d", "alpha", "e", "d"]]
    path = _write_vectors(tmp_path / "vec.txt", ["dim 3", "alpha 1 2 3", "beta 4 5 6"])
    file_vectors = {"alpha": [1.0, 2.0, 3.0], "beta": [4.0, 5.0, 6.0]}
    ids, rows, seen = [], [np.zeros((1, 3))], {}
    for call in calls:
        new = [token for token in dict.fromkeys(call) if token not in seen]
        seen.update(zip(new, range(len(seen) + 1, len(seen) + 1 + len(new))))
        ids += [seen[token] for token in call]
        hashed = iter(embed._hashed_vectors([t for t in new if t not in file_vectors], 9, 3))
        rows += [file_vectors[t] if t in file_vectors else next(hashed) for t in new]
    hash_calls = []
    draw = embed._hashed_vectors

    def counted(tokens, seed, dim):
        hash_calls.append(list(tokens))
        return draw(tokens, seed, dim)

    monkeypatch.setattr(embed, "_hashed_vectors", counted)
    provider = Embedding.load(path, seed=9)
    assert [i for call in calls for i in provider.ids(call)] == ids
    assert hash_calls == []
    table = provider.table
    assert table.tobytes() == np.vstack(rows).tobytes()
    assert hash_calls == [["a", "b", "c", "d", "e"]]
    assert provider.table is table and len(hash_calls) == 1  # nothing new to hash


def test_hash_seeded_rejects_bad_dim():
    with pytest.raises(ValueError):
        Embedding(0, seed=1)


def test_table_row_zero_is_padding():
    provider = Embedding(4, seed=1)
    side = prepare(tokenize("one two"), provider, 5)
    assert side.ids.tolist() == [1, 2, 0, 0, 0]
    assert np.all(provider.table[0] == 0.0)
    assert provider.table.shape == (3, 4)


def test_repeated_token_keeps_its_id():
    provider = Embedding(4, seed=1)
    assert provider.ids(["a", "b", "a"]) == [1, 2, 1]
    table = provider.table
    assert provider.ids(["b", "a"]) == [2, 1]
    # No new token, so the table is not rebuilt; a new one appends a row.
    assert provider.table is table
    assert provider.ids(["c"]) == [3]
    assert provider.table.shape == (4, 4)
    assert np.array_equal(provider.table[:3], table)


def test_missing_tokens_get_the_hashed_draw(tmp_path):
    # A row holds the token's own draw, whatever id it gets and whatever the
    # file holds for other tokens.
    path = _write_vectors(tmp_path / "vec.txt", ["dim 3", "alpha 1.0 2.0 3.0"])
    provider = Embedding.load(path, seed=9)
    hashed = Embedding(3, seed=9)
    hashed.ids(["zeta", "alpha"])
    assert provider.ids(["alpha", "zeta"]) == [1, 2]
    assert np.array_equal(provider.table[1], [1.0, 2.0, 3.0])
    assert np.array_equal(provider.table[2], hashed.table[1])
    assert not np.array_equal(hashed.table[2], provider.table[1])


def _write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_file_backed_lookup_and_fallback(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", [
        "dim 3",
        "alpha 1.0 2.0 3.0",
        "beta 0.5 -0.5 0.25",
    ])
    provider = Embedding.load(path, seed=9)
    assert np.array_equal(vector(provider, "alpha"), [1.0, 2.0, 3.0])
    assert np.array_equal(vector(provider, "beta"), [0.5, -0.5, 0.25])
    unknown = vector(provider, "missing")
    assert np.array_equal(unknown, vector(Embedding(3, seed=9), "missing"))


def test_file_backed_duplicate_token(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 2", "a 1 2", "a 3 4"])
    with pytest.raises(ValueError, match="duplicate token"):
        Embedding.load(path)


def test_file_backed_bad_header(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["vectors 2", "a 1 2"])
    with pytest.raises(ValueError, match="dim"):
        Embedding.load(path)


def test_file_backed_wrong_component_count(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 3", "a 1 2"])
    with pytest.raises(ValueError, match="expected 3"):
        Embedding.load(path)


def test_file_backed_non_finite(tmp_path):
    path = _write_vectors(tmp_path / "vec.txt", ["dim 2", "a 1 inf"])
    with pytest.raises(ValueError, match="non-finite"):
        Embedding.load(path)


@pytest.mark.parametrize("lines, message", [
    pytest.param(["dim 2", "a 1 2", "b 1 abc"], r"vec\.txt:3: could not convert string "
                 r"to float: 'abc'", id="component"),
    pytest.param(["dim two", "a 1 2"], r"vec\.txt: first line must be 'dim <D>'", id="dim"),
])
def test_file_backed_non_numeric_names_where(tmp_path, lines, message):
    path = _write_vectors(tmp_path / "vec.txt", lines)
    with pytest.raises(ValueError, match=message):
        Embedding.load(path)


# --- prepare -----------------------------------------------------------------


def test_prepare_pads_and_masks():
    provider = Embedding(8, seed=1)
    side = prepare(tokenize("one two three"), provider, 64)
    assert side.ids.shape == (64,)
    assert np.issubdtype(side.ids.dtype, np.integer)
    assert side.mask.sum() == 3
    assert not side.truncated
    assert side.ids[:3].tolist() == [1, 2, 3]
    assert np.all(side.ids[3:] == 0)
    assert np.all(side.mask[3:] == 0.0)


def test_prepare_truncates():
    provider = Embedding(4, seed=1)
    text = " ".join(f"t{i}" for i in range(100))
    side = prepare(tokenize(text), provider, 64)
    assert side.truncated
    assert side.mask.sum() == 64
    # Cut tokens get no row.
    assert provider.table.shape == (65, 4)


def test_prepare_shape_fixed_regardless_of_input():
    provider = Embedding(4, seed=1)
    for text in ("", "a", " ".join("x" * 90)):
        assert prepare(tokenize(text), provider, 16).ids.shape == (16,)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=20))
def test_prepare_mask_sum_property(n_tokens, max_len):
    provider = Embedding(3, seed=2)
    seq = TokenSequence(tuple(f"t{i}" for i in range(n_tokens)))
    side = prepare(seq, provider, max_len)
    assert side.mask.sum() == min(n_tokens, max_len)


def test_prepare_rejects_bad_args():
    provider = Embedding(4, seed=1)
    with pytest.raises(ValueError):
        prepare(tokenize("a"), provider, 0)


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
    provider = Embedding(6, seed=4)
    ids = provider.ids(tokenize("alpha beta").tokens)
    vec = text_vector(ids, provider.table)
    expected = (vector(provider, "alpha") + vector(provider, "beta")) / 2
    assert np.allclose(vec, expected)
    assert np.array_equal(text_vector([], provider.table), np.zeros(6))
