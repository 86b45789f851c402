"""Edge-case stress for the co-partitioned relational queries and the MG
sketch: paths the sf testdata cannot falsify — customers with ZERO orders
(q13's left-join zero bucket), quarter orders with no late lines (q4's
semi-join negative), a batch vocabulary larger than the Misra-Gries
sketch (the decrement path never fires on the 31-word corpus), and
reshard-stability of the hash-ordered per-source cap."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def write_table(tmp_path, name, df, n_files=3):
    d = tmp_path / "sf" / f"{name}.parquet"
    os.makedirs(d, exist_ok=True)
    # split the row index, not the frame: np.array_split(df) goes through
    # the deprecated DataFrame.swapaxes (pandas FutureWarning)
    for i, rows in enumerate(np.array_split(np.arange(len(df)), n_files)):
        part = df.iloc[rows]
        pq.write_table(pa.Table.from_pandas(part.reset_index(drop=True)),
                       d / f"part{i}.parquet")
    return str(tmp_path / "sf")


def oracle(sf_dir, sql, tables):
    con = duckdb.connect()
    for t in tables:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet/*.parquet')")
    return con.execute(sql).df()


def normalize(df):
    df = df.reindex(sorted(df.columns), axis=1)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def assert_equal(a, b):
    a, b = normalize(a), normalize(b)
    assert len(a) == len(b), (len(a), len(b))
    for c in a.columns:
        av, bv = a[c].to_numpy(), b[c].to_numpy()
        assert (av == bv).all(), (c, av[av != bv][:5], bv[av != bv][:5])


@pytest.mark.usefixtures("ray_session")
def test_q13_zero_order_customers(tmp_path):
    """Customers with no orders must land in the c_count=0 bucket — the
    LEFT-JOIN path the dense sf corpus never exercises."""
    from oar_ocr_ray.queries import Q13_SQL, q13_customer_distribution

    rng = np.random.default_rng(1)
    cust = pd.DataFrame({"c_custkey": np.arange(1, 41, dtype=np.int64),
                         "c_name": [f"c{i}" for i in range(40)],
                         "c_nationkey": np.int64(0),
                         "c_acctbal": 100.0,
                         "c_mktsegment": "BUILDING"})
    # only customers 1..10 get orders (1..i orders each); 30 have none
    rows = []
    for i in range(1, 11):
        for j in range(i):
            rows.append({"o_orderkey": len(rows) + 1, "o_custkey": i,
                         "o_orderstatus": "O", "o_totalprice": 10.0,
                         "o_orderdate": pd.Timestamp("1996-01-05"),
                         "o_orderpriority": "3-MEDIUM"})
    orders = pd.DataFrame(rows)
    d = write_table(tmp_path, "customer", cust)
    write_table(tmp_path, "orders", orders)

    got = q13_customer_distribution(d)
    assert_equal(got, oracle(d, Q13_SQL, ["customer", "orders"]))
    zero = got[got.c_count == 0]
    assert len(zero) == 1 and int(zero.custdist.iloc[0]) == 30


@pytest.mark.usefixtures("ray_session")
def test_q4_orders_without_late_lines(tmp_path):
    """Quarter orders whose every line shipped on/before the order date
    must NOT count (semi-join negative), and orders with no lines at all
    must not crash the co-partitioned merge."""
    from oar_ocr_ray.queries import Q4_SQL, q4_order_priority

    orders = pd.DataFrame({
        "o_orderkey": np.arange(1, 7, dtype=np.int64),
        "o_custkey": np.int64(1),
        "o_orderstatus": "O",
        "o_totalprice": 10.0,
        "o_orderdate": pd.Timestamp("1996-02-01"),
        "o_orderpriority": ["1-URGENT", "1-URGENT", "2-HIGH",
                            "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
    })
    base = {"l_partkey": np.int64(1), "l_suppkey": np.int64(1),
            "l_linenumber": np.int64(1), "l_quantity": 1.0,
            "l_extendedprice": 5.0, "l_discount": 0.0, "l_tax": 0.0,
            "l_returnflag": "N", "l_linestatus": "O"}
    lines = pd.DataFrame([
        # order 1: late line -> counts
        {"l_orderkey": 1, "l_shipdate": pd.Timestamp("1996-03-01"), **base},
        # order 2: on-time only -> must NOT count
        {"l_orderkey": 2, "l_shipdate": pd.Timestamp("1996-02-01"), **base},
        # order 3: one early, one late -> counts once
        {"l_orderkey": 3, "l_shipdate": pd.Timestamp("1996-01-15"), **base},
        {"l_orderkey": 3, "l_shipdate": pd.Timestamp("1996-04-15"), **base},
        # order 4: NO lines at all -> must not count, must not crash
        # order 5: late -> counts
        {"l_orderkey": 5, "l_shipdate": pd.Timestamp("1997-01-01"), **base},
    ])
    d = write_table(tmp_path, "orders", orders)
    write_table(tmp_path, "lineitem", lines)

    got = q4_order_priority(d)
    assert_equal(got, oracle(d, Q4_SQL, ["orders", "lineitem"]))
    as_map = dict(zip(got.o_orderpriority, got.order_count))
    assert as_map == {"1-URGENT": 1, "2-HIGH": 1, "4-NOT SPECIFIED": 1}


@pytest.mark.usefixtures("ray_session")
def test_mg_heavy_hitters_decrement_path(tmp_path):
    """A batch vocabulary LARGER than sketch_k forces the Misra-Gries
    decrement (the 31-word sf corpus never trips it): one genuinely heavy
    word among 100 distinct rare ones must survive the truncated partials
    and come back with its EXACT count from the verify pass."""
    from oar_ocr_ray.queries import MG_HEAVY_HITTERS_SQL, mg_heavy_hitters

    rng = np.random.default_rng(2)
    docs = []
    for i in range(60):
        rare = [f"rare{rng.integers(0, 100):03d}" for _ in range(8)]
        docs.append(" ".join(["heavy"] * 6 + rare))
    df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64),
                       "text": docs, "lang": "en", "source": "s",
                       "n_chars": np.int64(10)})
    d = write_table(tmp_path, "documents", df)

    got = mg_heavy_hitters(d, frac_den=30, sketch_k=32)
    ref = oracle(d, MG_HEAVY_HITTERS_SQL, ["documents"])
    assert_equal(got, ref)
    assert "heavy" in set(got.word)
    # exact count, not the MG undercount: 60 docs x 6 occurrences
    assert int(got.loc[got.word == "heavy", "cnt"].iloc[0]) == 360
    # no word is over half of the 840 tokens: no candidate, no rows
    assert len(mg_heavy_hitters(d, frac_den=2, sketch_k=32)) == 0


@pytest.mark.usefixtures("ray_session")
def test_per_source_cap_reshard_stable(tmp_path):
    """The md5-hash-ordered cap must select the SAME documents regardless
    of how the input is sharded (1 file vs 7 files)."""
    from oar_ocr_ray.queries import per_source_cap

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"doc_id": np.arange(200, dtype=np.int64),
                       "text": "x", "lang": "en",
                       "source": [f"s{i % 4}" for i in range(200)],
                       "n_chars": np.int64(1)})
    d1 = write_table(tmp_path / "a", "documents", df, n_files=1)
    d7 = write_table(tmp_path / "b", "documents", df.sample(frac=1, random_state=0),
                     n_files=7)
    r1 = per_source_cap(d1, cap=10).to_pandas()
    r7 = per_source_cap(d7, cap=10).to_pandas()
    assert_equal(r1, r7)
    assert r1.groupby("source").size().max() == 10
