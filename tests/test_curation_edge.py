"""Edge-case stress for the curation operators: boundary ties that cross
batch/partition lines, holdout-only corpora, single-source corpora —
compared against DuckDB on purpose-built inputs (the sf testdata rarely
exercises these boundaries)."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oar_ocr_ray.queries import (
    DECONTAM_SQL,
    GLOBAL_SHUFFLE_SQL,
    TOP_QUARTILE_SQL,
    decontaminate,
    global_shuffle_rank,
    top_quartile_docs_per_source,
)


def write_docs(tmp_path, rows, n_files=3):
    """Write a documents table split across files so batches/blocks cut
    through the data in arbitrary places. Layout matches the sf dirs:
    <sf_dir>/documents.parquet is a DIRECTORY of part files (both
    ray.data.read_parquet and DuckDB's glob accept it)."""
    df = pd.DataFrame(rows)
    d = tmp_path / "sf" / "documents.parquet"
    os.makedirs(d, exist_ok=True)
    # split the row index, not the frame: np.array_split(df) goes through
    # the deprecated DataFrame.swapaxes (pandas FutureWarning)
    for i, rows in enumerate(np.array_split(np.arange(len(df)), n_files)):
        part = df.iloc[rows]
        pq.write_table(pa.Table.from_pandas(part.reset_index(drop=True)),
                       d / f"part{i}.parquet")
    return str(tmp_path / "sf")


def oracle(sf_dir, sql):
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet/*.parquet')")
    return con.execute(sql).df()


def normalize(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def assert_equal(a, b):
    a, b = normalize(a), normalize(b)
    assert len(a) == len(b)
    for c in a.columns:
        assert (a[c].to_numpy() == b[c].to_numpy()).all(), c


@pytest.mark.usefixtures("ray_session")
def test_top_quartile_all_ties(tmp_path):
    """Every doc in a source has the SAME n_chars: the cut value selection
    is pure tie-break — exactly ceil(n/4) lowest doc_ids must win, even
    though the tie group spans every input file."""
    rows = {
        "doc_id": np.arange(100, dtype=np.int64),
        "text": ["x"] * 100,
        "lang": ["en"] * 100,
        "source": ["s0"] * 50 + ["s1"] * 50,
        "n_chars": np.int64(7),  # all equal
    }
    d = write_docs(tmp_path, rows)
    got = top_quartile_docs_per_source(d).to_pandas()
    want = oracle(d, TOP_QUARTILE_SQL)
    assert_equal(got, want)
    # ceil(50/4)=13 per source, lowest doc_ids
    assert len(got) == 26
    assert sorted(got[got.source == "s0"].doc_id) == list(range(13))


@pytest.mark.usefixtures("ray_session")
def test_top_quartile_boundary_tie_partial(tmp_path):
    """Quota lands mid-tie: n_chars has two values, the boundary value has
    more members than open slots."""
    n = 40
    rows = {
        "doc_id": np.arange(n, dtype=np.int64),
        "text": ["x"] * n,
        "lang": ["en"] * n,
        "source": ["s"] * n,
        # 4 long docs, 36 at the boundary value; quota=10 -> 6 tie slots
        "n_chars": np.array([100] * 4 + [50] * 36, dtype=np.int64),
    }
    d = write_docs(tmp_path, rows)
    got = top_quartile_docs_per_source(d).to_pandas()
    assert_equal(got, oracle(d, TOP_QUARTILE_SQL))
    assert len(got) == 10
    assert sorted(got[got.n_chars == 50].doc_id) == [4, 5, 6, 7, 8, 9]


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_holdout_only_and_no_overlap(tmp_path):
    """Corpus where NO training doc overlaps the holdout, plus docs shorter
    than the n-gram length (must emit 0 hits, not crash)."""
    rows = {
        "doc_id": np.array([0, 97, 1, 2, 3, 4], dtype=np.int64),  # 0,97 holdout
        # doc 0 is edged by a tab: DuckDB trim() strips only spaces, so the
        # oracle must drop+renumber the empty token exactly like split()
        "text": ["\ta b c d e\n", "f g h i", "z z y y x x w", "q r", "",
                 "x a b c y"],  # doc 4 shares holdout gram 'a b c'
        "lang": ["en"] * 6,
        "source": ["s"] * 6,
        "n_chars": np.int64(5),
    }
    d = write_docs(tmp_path, rows, n_files=2)
    got = decontaminate(d).to_pandas()
    assert_equal(got, oracle(d, DECONTAM_SQL))
    assert len(got) == 4  # holdout rows excluded
    assert got.set_index("doc_id")["contaminated"].to_dict() == {
        1: False, 2: False, 3: False, 4: True}


@pytest.mark.usefixtures("ray_session")
def test_tfidf_and_unigram_ties_and_empty(tmp_path):
    """Score ties at the top-k boundary must break by term ASC (both
    engines), and empty/whitespace-only docs must not crash — tfidf emits
    no rows for them, unigram emits n_tokens=0/mean=0. The bigram scorer
    gives every doc with fewer than two tokens n_bigrams=0/mean=0."""
    from oar_ocr_ray.queries import (
        BIGRAM_LOGPROB_SQL,
        TFIDF_SQL,
        UNIGRAM_LOGPROB_SQL,
        bigram_logprob_scores,
        tfidf_top_terms,
        unigram_logprob_scores,
    )

    rows = {
        "doc_id": np.arange(7, dtype=np.int64),
        # doc 0 has all four terms at tf=1: b,d share idf=ln(7/2) and a,c
        # share idf=ln(7/3), so the third top-3 slot is an exact a-vs-c
        # score tie -> term ASC must pick 'a' on both engines. Doc 6 is one
        # token, a hapax that the min_df prune drops from tfidf.
        "text": ["d c b a", "a b", "c d", "a c", "", "  \t ", " e\n"],
        "lang": ["en"] * 7,
        "source": ["s"] * 7,
        "n_chars": np.int64(7),
    }
    d = write_docs(tmp_path, rows, n_files=2)

    got = tfidf_top_terms(d).to_pandas()
    assert_equal(got, oracle(d, TFIDF_SQL))
    doc0 = got[got.doc_id == 0]
    assert len(doc0) == 3 and sorted(doc0.term) == ["a", "b", "d"]
    assert not set(got.doc_id) & {4, 5}  # token-free docs emit nothing

    got = unigram_logprob_scores(d).to_pandas()
    assert_equal(got, oracle(d, UNIGRAM_LOGPROB_SQL))
    assert len(got) == 7
    empt = got[got.doc_id.isin([4, 5])]
    assert (empt.n_tokens == 0).all() and (empt.mean_logprob == 0.0).all()

    got = bigram_logprob_scores(d).to_pandas()
    assert_equal(got, oracle(d, BIGRAM_LOGPROB_SQL))
    assert len(got) == 7
    short = got[got.doc_id.isin([4, 5, 6])]
    assert (short.n_bigrams == 0).all() and (short.mean_logprob == 0.0).all()
    assert (got[got.doc_id < 4].n_bigrams > 0).all()


@pytest.mark.usefixtures("ray_session")
def test_tfidf_and_unigram_vocab_prune(tmp_path):
    """The min_df / min_count vocabulary bound must actually prune: a
    hapax term has the LARGEST idf, so at min_df=1 it would dominate
    top-k — at the default min_df=2 it must vanish from tfidf output
    (inner-join semantics, both engines), and unigram must score it with
    the exact count-1 OOV floor rather than its trained logprob. Also
    exercises the vocab_topk hard cap (no SQL mirror: asserted directly)."""
    from oar_ocr_ray.queries import (
        TFIDF_SQL,
        UNIGRAM_LOGPROB_SQL,
        tfidf_top_terms,
        unigram_logprob_scores,
    )

    rows = {
        "doc_id": np.arange(4, dtype=np.int64),
        # 'zzhapax' appears exactly once in the corpus (doc 0); 'x' in all
        # docs, 'y' in two. min_df=2 must drop zzhapax despite idf=ln(4).
        "text": ["x y zzhapax", "x y", "x", "x"],
        "lang": ["en"] * 4,
        "source": ["s"] * 4,
        "n_chars": np.int64(7),
    }
    d = write_docs(tmp_path, rows, n_files=2)

    got = tfidf_top_terms(d).to_pandas()
    assert_equal(got, oracle(d, TFIDF_SQL))
    assert "zzhapax" not in set(got.term)
    # unpruned run still surfaces it (falsifies that the default pruned)
    unpruned = tfidf_top_terms(d, min_df=1).to_pandas()
    assert "zzhapax" in set(unpruned.term)
    # hard cap: only the highest-df term ('x', df=4) survives vocab_topk=1
    capped = tfidf_top_terms(d, min_df=1, vocab_topk=1).to_pandas()
    assert set(capped.term) == {"x"}
    # a prune that keeps no term: no rows, not a crash on an empty vocabulary
    assert len(tfidf_top_terms(d, min_df=5).to_pandas()) == 0

    got = unigram_logprob_scores(d).to_pandas()
    assert_equal(got, oracle(d, UNIGRAM_LOGPROB_SQL))
    import math
    # a prune that keeps no word: every token scores the OOV floor ln(1/7)
    floor = unigram_logprob_scores(d, min_count=5).to_pandas()
    assert np.allclose(floor.mean_logprob, math.log(1 / 7), rtol=0, atol=1e-6)
    # doc 0's mean uses the OOV floor ln(1/total) for zzhapax: total=7
    # tokens (x:4, y:2, zzhapax:1); x: ln(4/7), y: ln(2/7), floor ln(1/7);
    # mean = (sum of micro-nats)/(3*1e6) rounded to 6 decimals
    exp = round((round(math.log(4 / 7) * 1e6) + round(math.log(2 / 7) * 1e6)
                 + round(math.log(1 / 7) * 1e6)) / 3e6, 6)
    assert float(got[got.doc_id == 0].mean_logprob.iloc[0]) == exp


def test_partition_ids_are_stable_hashes_in_range():
    """The one coarse partition id, without Ray: in [0, P), a negative
    int key lands on its non-negative residue, a string key gets the same
    id in every batch whatever its factorize order, and a multi-column
    key is one combined id."""
    from oar_ocr_ray.queries import _KEY_MIX, _partition_ids

    p = 7
    ints = np.array([-(2**62), -8, -1, 0, 6, 7, 2**40 + 3], dtype=np.int64)
    ids = _partition_ids(pd.DataFrame({"k": ints}), "k", p)
    assert ((ids >= 0) & (ids < p)).all()
    assert ids.tolist() == [int(v) % p for v in ints]

    a = _partition_ids(pd.DataFrame({"w": ["x", "y", "x"]}), "w", p)
    b = _partition_ids(pa.table({"w": ["y", "z", "x"]}), "w", p)
    assert a[0] == a[2] == b[2] and a[1] == b[0]
    assert ((b >= 0) & (b < p)).all()

    df = pd.DataFrame({"u": [-3, 5, -3, 5], "s": ["a", "a", "a", "b"]})
    multi = _partition_ids(df, ["u", "s"], p)
    s_ids = _partition_ids(df, "s", p)
    assert multi.tolist() == [(int(u) * _KEY_MIX + int(c)) % p
                              for u, c in zip(df["u"], s_ids)]
    assert multi[0] == multi[2]
    pairs = pd.DataFrame({"x": [2**40, -5], "y": [-3, 2**33]})
    assert _partition_ids(pairs, ["x", "y"], p).tolist() == [
        (int(x) * _KEY_MIX + int(y)) % p for x, y in zip(pairs["x"], pairs["y"])]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("name", [
    "dup_ngram_spans", "ngram_jaccard_dup_pairs", "source_overlap_matrix",
    "events_window_distinct_users", "events_asof_join", "q4_order_priority",
    "q13_customer_distribution", "q3_top_orders", "q10_returned_revenue",
    "orders_per_customer_topk", "word_topk", "q15_top_supplier", "q5_nation_revenue",
    "q12_priority_by_returnflag", "q17_small_quantity_revenue", "q22_idle_customer_balance",
    "q7_nation_volume", "q8_market_share", "q19_disjunctive_revenue",
])
def test_exchange_partition_count_invariant(monkeypatch, name):
    """The coarse partition count is internal: 7 and 64 partitions must
    yield the identical output."""
    from oar_ocr_ray import queries

    def run(n_parts):
        monkeypatch.setattr(queries, "_n_parts", lambda: n_parts)
        out = getattr(queries, name)("/root/testdata/sf0.001")
        return normalize(out if isinstance(out, pd.DataFrame) else out.to_pandas())

    a, b = run(7), run(64)
    assert len(a) > 0
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_exchange_hands_each_join_side_its_own_table(monkeypatch):
    """`_exchange` over a join's sides calls `fn` with one table per side,
    of that side's schema: a partition that holds only left rows gets a
    zero-row right table (the left-outer and anti joins of q13 and q22),
    and a column named on both sides reaches each side unchanged."""
    import ray.data

    from oar_ocr_ray import queries

    monkeypatch.setattr(queries, "_n_parts", lambda: 4)
    left_s = pa.schema([("key", pa.int64()), ("date", pa.string())])
    right_s = pa.schema([("key", pa.int64()), ("date", pa.int64())])
    # keys 0 and 4 fall in partition 0 (left rows only), 1 and 5 in partition 1
    left = ray.data.from_arrow(pa.table({"key": [0, 1, 4, 5], "date": ["a", "b", "c", "d"]},
                                        schema=left_s))
    right = ray.data.from_arrow(pa.table({"key": [5, 1], "date": [50, 10]}, schema=right_s))

    def fn(l, r):
        return pa.table({"left": [str(l.sort_by("key").to_pylist())],
                         "right": [str(r.sort_by("key").to_pylist())],
                         "schemas_kept": [l.schema.equals(left_s) and r.schema.equals(right_s)]})

    got = queries._exchange([(left, left_s), (right, right_s)], "key", fn).to_pandas()
    assert sorted(zip(got["left"], got["right"], got["schemas_kept"])) == [
        (str([{"key": 0, "date": "a"}, {"key": 4, "date": "c"}]), "[]", True),
        (str([{"key": 1, "date": "b"}, {"key": 5, "date": "d"}]),
         str([{"key": 1, "date": 10}, {"key": 5, "date": 50}]), True),
    ]


@pytest.mark.usefixtures("ray_session")
def test_global_shuffle_rank_is_permutation(tmp_path):
    rows = {
        "doc_id": np.arange(257, dtype=np.int64),  # > n_buckets, hits many
        "text": ["x"] * 257,
        "lang": ["en"] * 257,
        "source": ["s"] * 257,
        "n_chars": np.int64(1),
    }
    d = write_docs(tmp_path, rows, n_files=4)
    got = global_shuffle_rank(d).to_pandas()
    assert_equal(got, oracle(d, GLOBAL_SHUFFLE_SQL))
    assert sorted(got["pos"]) == list(range(257))  # exact permutation
    assert set(got["shard"]) == set(range(16))


@pytest.mark.usefixtures("ray_session")
def test_minhash_candidate_cap_fires_loudly(tmp_path):
    """Dup-heavy stress (the no-silent-caps rule): one giant near-dup
    cluster makes the LSH candidate set corpus-QUADRATIC (s identical docs
    -> s(s-1)/2 pairs), so the 'duplicate-bounded collect' premise breaks
    — minhash_dup_pairs must refuse LOUDLY at the gate, and pass exactly
    under the default gate on the same corpus."""
    from oar_ocr_ray.queries import minhash_dup_pairs

    rows = [{"doc_id": i, "source": "s",
             "text": "alpha beta gamma delta epsilon zeta eta theta"}
            for i in range(40)]
    d = write_docs(tmp_path, rows, n_files=4)
    with pytest.raises(ValueError, match="max_candidates"):
        minhash_dup_pairs(d, max_candidates=100)
    out = minhash_dup_pairs(d)  # default gate: exact full verification
    assert len(out) == 40 * 39 // 2
    assert (out["jaccard"].to_numpy() == 1.0).all()


@pytest.mark.usefixtures("ray_session")
def test_collect_broadcast_gate_refuses_fact_tables(tmp_path):
    """The broadcast-plan collect is HARD-GATED: past max_rows it refuses
    loudly and names the big-big alternative (the policy-header rule that
    fact-cardinality sides never ship via ray.put ungated)."""
    from oar_ocr_ray.queries import _collect_broadcast

    rows = [{"doc_id": i, "source": "s", "text": "alpha beta"} for i in range(50)]
    d = write_docs(tmp_path, rows, n_files=2)
    with pytest.raises(ValueError, match="broadcast plan refused"):
        _collect_broadcast(d, "documents", ["doc_id"], max_rows=10)
    out = _collect_broadcast(d, "documents", ["doc_id"], max_rows=100)
    assert len(out) == 50


@pytest.mark.usefixtures("ray_session")
def test_embedding_near_dup_gate(tmp_path):
    """The exact O(n^2) near-dup variant refuses past max_exact_rows,
    pointing at the LSH scale path."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from oar_ocr_ray.queries import embedding_near_dup

    d = tmp_path / "sf" / "embeddings.parquet"
    os.makedirs(d, exist_ok=True)
    rng = np.random.default_rng(3)
    pq.write_table(pa.table({
        "vec_id": pa.array(range(30), pa.int64()),
        "embedding": pa.array([list(map(float, rng.normal(size=8)))
                               for _ in range(30)]),
    }), d / "part0.parquet")
    with pytest.raises(ValueError, match="embedding_near_dup_lsh"):
        embedding_near_dup(str(tmp_path / "sf"), max_exact_rows=10)
