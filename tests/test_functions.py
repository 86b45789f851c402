"""Unit tests for training-data operators (pure pandas/numpy — no Ray)."""

import numpy as np
import pandas as pd
import pytest

from oar_ocr_ray.functions.ann import (
    HyperplaneLsh,
    TopkScorer,
    brute_scores,
    ivf_parity_fit,
    ivf_scores,
    lsh_scores,
    pq_parity_fit,
    pq_scores,
    quantized_unit,
    topk_reduce,
)
from oar_ocr_ray.functions.dedup import (
    MinHasher,
    content_hash,
    jaccard,
    shingle_set,
    simhash64,
    simhash_batch,
)
from oar_ocr_ray.functions.text_analysis import (
    LangId,
    fingerprint,
    quality_score,
    token_count,
)
from oar_ocr_ray.functions.windows import sessionize_partition, tumbling_window


def docs(*texts):
    return pd.DataFrame({"doc_id": range(len(texts)), "text": list(texts)})


def test_token_count():
    out = token_count(docs("a b  c", "", "  ", "one"))
    assert out["n_tokens"].tolist() == [3, 0, 0, 1]


def test_quality_score():
    out = quality_score(docs("ab 1!"))
    r = out.iloc[0]
    assert r["n_chars_m"] == 5
    assert r["alpha_ratio"] == pytest.approx(2 / 5)
    assert r["digit_ratio"] == pytest.approx(1 / 5)
    assert r["punct_ratio"] == pytest.approx(1 / 5)
    assert r["space_ratio"] == pytest.approx(1 / 5)


def test_lang_id():
    li = LangId()
    out = li(docs("the cat and the dog is in the house", "der hund ist nicht ein tier", "zzz qqq"))
    assert out["pred_lang"].tolist()[:2] == ["en", "de"]
    assert out["pred_lang"].tolist()[2] == "und"


def test_fingerprint_deterministic():
    a = fingerprint(docs("hello world, this is text"))
    b = fingerprint(docs("hello world, this is text"))
    assert a["fp_full"].tolist() == b["fp_full"].tolist()
    assert a["fp_min_shingle"].tolist() == b["fp_min_shingle"].tolist()


def test_content_hash_normalizes_ws_and_case():
    out = content_hash(docs("Hello   World", "hello world"))
    assert out["content_hash"].iloc[0] == out["content_hash"].iloc[1]


def test_shingles_and_jaccard():
    a = shingle_set("the quick brown fox jumps", 3)
    b = shingle_set("the quick brown fox leaps", 3)
    assert 0 < jaccard(a, b) < 1
    assert jaccard(a, a) == 1.0
    assert jaccard(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == 1.0


def test_minhash_similarity_correlates():
    mh = MinHasher(num_perm=64, bands=16)
    s1 = mh.signature("the quick brown fox jumps over the lazy dog again and again")
    s2 = mh.signature("the quick brown fox jumps over the lazy dog again and again today")
    s3 = mh.signature("completely different content about ray data pipelines")
    sim12 = (s1 == s2).mean()
    sim13 = (s1 == s3).mean()
    assert sim12 > sim13
    # near-dups share at least one band
    b1, b2 = mh.band_hashes(s1), mh.band_hashes(s2)
    assert (b1 == b2).any()


def test_simhash_hamming():
    a = simhash64("the quick brown fox jumps over the lazy dog " * 3)
    b = simhash64("the quick brown fox jumps over the lazy dog " * 3 + "extra")
    c = simhash64("unrelated words entirely about something else completely")
    assert bin(a ^ b).count("1") < bin(a ^ c).count("1")


def test_simhash_batch_quadrants():
    out = simhash_batch(docs("some text here", "some text here"))
    assert out["simhash"].iloc[0] == out["simhash"].iloc[1]
    for q in range(4):
        v = out[f"quad{q}"]
        assert (0 <= v).all() and (v < 65536).all()


def _index_fits(m):
    nv = quantized_unit(m)
    return {"brute": (brute_scores, {}),
            "lsh": (lsh_scores, {"nbits": 4, "multiprobe": True}),
            "ivf": (ivf_scores, {"centroids": ivf_parity_fit(nv, k=4), "nprobe": 2}),
            "pq": (pq_scores, {"books": pq_parity_fit(nv, m_sub=4, k_codes=8)})}


@pytest.mark.parametrize("name", ["brute", "lsh", "ivf", "pq"])
def test_topk_cut_is_batch_split_invariant(name):
    """topk_reduce over the partials of a batch split in two equals it over
    the unsplit batch, also when two rounded-equal scores straddle the k
    boundary: a twin pair (vec_ids 900 in the first half, 3 in the second)
    whose lower id must survive the cut either way, though 900's raw
    (unrounded) score is the higher."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((60, 64))
    m[45] = m[0] + 0.5 * rng.standard_normal(64)
    m[10] = m[45] + 1e-7 * m[0]
    vec_ids = rng.permutation(np.arange(10, 890))[:60]  # neither 3 nor 900
    vec_ids[10], vec_ids[45] = 900, 3
    df = pd.DataFrame({"vec_id": vec_ids, "embedding": list(m)})
    index, fit = _index_fits(m)[name]
    queries = {"ids": vec_ids[:2], "matrix": m[:2], "index": index}

    ranked = topk_reduce(TopkScorer(**queries, k=60, **fit)(df), 60)
    r0 = ranked[ranked["query_id"] == vec_ids[0]].reset_index(drop=True)
    twin = r0.loc[r0["vec_id"] == 3, "score"].iloc[0]
    k = int((r0["score"] > twin).sum()) + 1
    assert r0.loc[k, "score"] == twin  # a rounded tie straddles the cut

    scorer = TopkScorer(**queries, k=k, **fit)
    whole = topk_reduce(scorer(df), k)
    split = topk_reduce(pd.concat([scorer(df.iloc[:30]), scorer(df.iloc[30:])]), k)
    pd.testing.assert_frame_equal(whole, split)
    kept = whole.loc[whole["query_id"] == vec_ids[0], "vec_id"]
    assert 3 in kept.to_numpy() and 900 not in kept.to_numpy()
    if name == "brute":  # self-similarity ranks first with score 1.0
        for qid in vec_ids[:2]:
            first = whole[whole["query_id"] == qid].iloc[0]
            assert first["vec_id"] == qid and first["score"] == pytest.approx(1.0)


def test_lsh_buckets_deterministic():
    lsh = HyperplaneLsh(8, nbits=6)
    m = np.random.default_rng(1).standard_normal((20, 8))
    b1, b2 = lsh.bucket(m), lsh.bucket(m)
    assert (b1 == b2).all()
    assert (b1 < 2 ** 6).all()


def _events():
    ts = pd.to_datetime(
        ["2024-01-01 00:05", "2024-01-01 00:20", "2024-01-01 01:10",
         "2024-01-01 02:00", "2024-01-01 02:45"]
    )
    return pd.DataFrame(
        {"event_id": range(5), "ts": ts, "user_id": [1] * 5,
         "event_type": ["a", "a", "a", "b", "b"], "value": [1.0, 2.0, 3.0, 4.0, 5.0]}
    )


def test_tumbling_window():
    out = tumbling_window(_events(), 60)
    a = out[out["event_type"] == "a"].sort_values("window_start")
    assert a["n_events"].tolist() == [2, 1]
    assert a["sum_value"].tolist() == [3.0, 3.0]


def test_sessionize():
    out = sessionize_partition(_events(), gap_minutes=30)
    # gaps: 15m (same), 50m (new), 50m (new), 45m (new) -> 4 sessions
    assert len(out) == 4
    assert out["n_events"].tolist() == [2, 1, 1, 1]


def test_cluster_pairs():
    from oar_ocr_ray.functions.dedup import cluster_pairs

    c = cluster_pairs([(3, 5), (5, 9), (20, 21)], all_ids=[1, 3, 5, 9, 20, 21, 40])
    assert c[3] == c[5] == c[9] == 3
    assert c[20] == c[21] == 20
    assert c[1] == 1 and c[40] == 40
    # transitivity through chains
    c = cluster_pairs([(1, 2), (2, 3), (3, 4)])
    assert len(set(c.values())) == 1 and c[4] == 1


def test_sliding_window():
    from oar_ocr_ray.functions.windows import sliding_window

    out = sliding_window(_events(), 60, 15)
    # each event in 4 windows -> total contributions = 5*4
    assert out["n_events"].sum() == 20
    # event at 00:05 lands in windows 23:15..00:05 of the prior hour span
    a = out[out["event_type"] == "a"]
    assert len(a) >= 4


def test_ntile_matches_duckdb():
    """_ntile replicates SQL NTILE(k) fill (first n%k tiles get the extra
    row) for every n up to 20."""
    import duckdb
    import numpy as np

    from oar_ocr_ray.queries import _ntile

    con = duckdb.connect()
    for n in range(1, 21):
        for k in (2, 3, 4):
            sql = con.execute(
                f"SELECT NTILE({k}) OVER (ORDER BY i) FROM range({n}) t(i)"
            ).fetchnumpy()
            got = _ntile(n, k, np.arange(n))
            assert (got == list(sql.values())[0]).all(), (n, k)


def test_pq_codebooks_shape_and_determinism():
    import numpy as np

    from oar_ocr_ray.functions.ann import pq_encode, pq_parity_fit, quantized_unit

    rng = np.random.default_rng(5)
    nv = quantized_unit(rng.normal(size=(200, 64)))
    b1 = pq_parity_fit(nv, m_sub=4, k_codes=8, iters=2)
    b2 = pq_parity_fit(nv, m_sub=4, k_codes=8, iters=2)
    assert b1.shape == (4, 8, 16)
    assert (b1 == b2).all()  # fully deterministic
    codes = pq_encode(nv, b1)
    assert codes.shape == (200, 4) and codes.min() >= 0 and codes.max() < 8
    # encoding a codeword returns its own index (round-trip property)
    for m in range(4):
        sub = np.zeros((8, 64))
        sub[:, m * 16:(m + 1) * 16] = b1[m]
        assert (pq_encode(sub, b1)[:, m] == np.arange(8)).all()


def test_pq_adc_score_is_exact_integer_sum():
    """ADC micro-unit sums equal the rounded subspace dots summed exactly,
    independent of summation order."""
    import numpy as np

    from oar_ocr_ray.functions.ann import pq_encode, pq_parity_fit, quantized_unit
    from oar_ocr_ray.numeric import round_half_away

    rng = np.random.default_rng(11)
    nv = quantized_unit(rng.normal(size=(64, 64)))
    books = pq_parity_fit(nv, m_sub=4, k_codes=8, iters=2)
    q = quantized_unit(rng.normal(size=(1, 64)))[0]
    codes = pq_encode(nv, books)
    expect = np.zeros(len(nv), dtype=np.int64)
    for m in range(4):
        dots = round_half_away(q[m * 16:(m + 1) * 16] @ books[m].T, 6)
        expect += np.rint(dots * 1e6).astype(np.int64)[codes[:, m]]
    # reversed accumulation gives the same integers (order independence)
    got = np.zeros(len(nv), dtype=np.int64)
    for m in (3, 2, 1, 0):
        dots = round_half_away(q[m * 16:(m + 1) * 16] @ books[m].T, 6)
        got += np.rint(dots * 1e6).astype(np.int64)[codes[:, m]]
    assert (expect == got).all()
