"""Query-vs-DuckDB-oracle harness — mirrors the driver's correctness gate
(row count + schema + order-insensitive value compare, columns sorted by
name) at sf0.001 so mismatches surface before the driver runs at sf0.01."""

import numpy as np
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def duck():
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE OR REPLACE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name, ray_df, sql_df):
    """EXACT compare (bit-equal floats), mirroring the driver's value hash —
    rounding parity bugs must fail here, not at the driver."""
    a, b = normalize(ray_df), normalize(sql_df)
    assert list(a.columns) == list(b.columns), f"{name}: columns {list(a.columns)} != {list(b.columns)}"
    assert len(a) == len(b), f"{name}: rows {len(a)} != {len(b)}"
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        if np.issubdtype(av.dtype, np.floating):
            both_nan = pd.isna(av) & pd.isna(bv)
            ok = bool(np.all((av == bv.astype(av.dtype)) | both_nan))
        else:
            ok = (av == bv).all()
        assert ok, f"{name}: column {c} differs\n{a[c].head()}\nvs\n{b[c].head()}"


def oracle_pairs():
    from oar_ocr_ray.queries import ORACLE_SQL, QUERIES

    return sorted(ORACLE_SQL.keys()), QUERIES


@pytest.mark.parametrize("name", [
    "q1_pricing_summary", "q3_top_orders", "q5_nation_revenue",
    "q5_nation_revenue_broadcast", "q6_revenue",
    "q10_returned_revenue", "q14_promo_revenue", "q18_large_orders",
    "orders_per_customer_topk", "filter_highvalue_orders", "events_tumbling",
    "events_sessionize", "events_sliding", "events_asof_join",
    "parts_price_band_join", "token_percentiles_by_source",
    "token_counts", "quality_scores", "repetition_scores", "pack_sequences", "word_topk",
    "dedup_exact", "train_test_split", "regex_scrub", "tfidf_top_terms",
    "decontaminate", "dup_ngram_spans", "source_temperature_sample",
    "semdedup_prune", "unigram_logprob_scores", "top_quartile_docs_per_source",
    "global_shuffle_rank", "hll_distinct_tokens", "bloom_novel_docs",
    "span_roundtrip", "boilerplate_strip_docs", "ann_topk",
    "embedding_label_norms", "distinct_sources",
    "customers_with_highvalue_orders", "customers_without_highvalue_orders",
    "parts_by_brand", "supplier_balance_by_region",
    "lang_id", "minhash_dup_pairs", "minhash_dup_clusters", "embedding_near_dup",
    "ngram_jaccard_dup_pairs",
    "fingerprints", "simhash_buckets", "simhash_dup_pairs", "minhash_bands",
    "ann_lsh_topk", "ann_ivf_topk", "embedding_clusters", "embedding_near_dup_lsh",
    "dsir_importance_weights", "classifier_filter_scores",
    "ann_pq_topk", "ann_lsh_multiprobe_topk", "ann_recall_eval", "ann_recall_ivf",
    "ann_recall_pq", "ann_recall_multiprobe",
])
def test_query_matches_oracle(ray_session, duck, name):
    from oar_ocr_ray.queries import ORACLE_SQL, QUERIES

    ray_df = to_pandas(QUERIES[name](SF_DIR))
    sql_df = duck.execute(ORACLE_SQL[name]).fetch_df()
    compare(name, ray_df, sql_df)


@pytest.mark.parametrize("name", [
    "structure_extract",
    "ocr_word_boxes", "crop_aspect_buckets",
])
def test_rows_only_queries_run(ray_session, name):
    from oar_ocr_ray.queries import QUERIES

    df = to_pandas(QUERIES[name](SF_DIR))
    assert df is not None and len(df.columns) > 0


def test_unimax_allocation_waterfill_invariants(ray_session):
    """UniMax budgets: allocations sum to the integer half-corpus budget,
    no source exceeds its epoch cap, every uncapped source sits exactly on
    the shared waterline, and rates are allocation/n."""
    import numpy as np

    from oar_ocr_ray.queries import unimax_allocation

    out = unimax_allocation("/root/testdata/sf0.001")
    n = out["n_tokens_total"].to_numpy()
    cap = out["token_cap"].to_numpy()
    alloc = out["allocation"].to_numpy()
    assert (cap == 2 * n).all()
    assert (alloc <= cap + 1e-9).all()
    budget = int(n.sum()) // 2
    assert abs(alloc.sum() - budget) < 1e-6 * max(budget, 1)
    uncapped = alloc < cap - 1e-9
    if uncapped.any():
        w = alloc[uncapped]
        assert np.allclose(w, w[0])  # one waterline
        # capped sources' caps are all below the waterline
        assert (cap[~uncapped] <= w[0] + 1e-9).all()
    np.testing.assert_allclose(out["sample_rate"].to_numpy(), alloc / n)


def test_lowest_vec_ids_cuts_off_a_shuffled_table(tmp_path):
    """Fewer rows than the table holds, vec_ids shuffled across row groups:
    exactly the n lowest ids come back, in order, with their vectors."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from oar_ocr_ray.queries import _lowest_vec_ids

    rng = np.random.default_rng(7)
    ids = rng.permutation(np.arange(100, 400, 3))  # 100 ids, not contiguous
    vecs = rng.standard_normal((len(ids), 8)).astype(np.float32)
    pq.write_table(pa.table({"vec_id": ids, "embedding": list(vecs)}),
                   tmp_path / "embeddings.parquet", row_group_size=16)

    got = _lowest_vec_ids(str(tmp_path), 10)
    lowest = np.argsort(ids)[:10]
    assert got["vec_id"].tolist() == ids[lowest].tolist()
    np.testing.assert_array_equal(np.stack(got["embedding"].to_numpy()), vecs[lowest])


@pytest.mark.parametrize("name", [
    "q5_nation_revenue", "ann_topk", "ann_lsh_topk", "embedding_near_dup_lsh",
    "ann_ivf_topk", "ann_pq_topk"])
def test_pool_queries_refuse_small_clusters(monkeypatch, name):
    """A query whose actor pool or hash join would hold every CPU of a
    cluster below MIN_CLUSTER_CPUS raises an error naming it, before any
    Ray work starts, instead of hanging."""
    import ray

    from oar_ocr_ray import queries

    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: {"CPU": queries.MIN_CLUSTER_CPUS - 1.0})
    with pytest.raises(RuntimeError, match="MIN_CLUSTER_CPUS"):
        getattr(queries, name)(SF_DIR)
