import numpy as np

from patchqa import embed, pairing, pipeline, synth


def test_vectorize_examples_prepares_each_distinct_text_once(tmp_path, monkeypatch):
    # Bug reports and descriptions repeat across examples; each distinct text
    # is tokenized and given ids once, in the order per-pair ``vectorize``
    # first meets it, so the ids and the table are the ones it would build.
    path = tmp_path / "corpus.jsonl"
    synth.write_keyword_corpus(path, n_bugs=12, seed=1, patches_per_bug=2)
    ds, _ = pipeline.load_deduped(path)
    examples = pairing.build_examples(ds, 3)
    texts = {text for ex in examples for text in (ex.bug_text, ex.description_text)}
    assert len(texts) < 2 * len(examples)
    calls = []
    prepare = embed.prepare
    monkeypatch.setattr(embed, "prepare",
                        lambda seq, *rest: calls.append(seq) or prepare(seq, *rest))
    provider = embed.Embedding(8, seed=5)
    batch = pipeline.vectorize_examples(examples, provider, 8)
    assert len(calls) == len(texts)
    fresh = embed.Embedding(8, seed=5)
    expected = [pipeline.vectorize(ex.bug_text, ex.description_text, ex.label, fresh, 8)
                for ex in examples]
    assert any(ex.bug.truncated for ex in expected)
    for got, want in zip(batch, expected, strict=True):
        assert got.label == want.label
        for side in ("bug", "description"):
            assert np.array_equal(getattr(got, side).ids, getattr(want, side).ids)
            assert getattr(got, side).truncated == getattr(want, side).truncated
    assert np.array_equal(provider.table, fresh.table)
