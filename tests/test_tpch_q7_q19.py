"""Edge-case stress for the round-5 TPC-H additions — paths the dense sf
testdata cannot falsify: q7's cross-pair-only rule (same-nation trade must
NOT count) and ship-date window edges, q8's zero-share year and the
type/region/date exclusions on both exchange stages, q15's max-revenue TIE
(all winners returned), and q19's per-branch (brand, size, quantity)
conjunction inside the disjunction."""

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


def _world(tmp_path):
    """Four nations over two regions, one supplier + customer per nation.

    Names match the constants baked into Q7/Q8's oracle SQL (NATION_3,
    NATION_8, NATION_12, region ASIA, p_type PROMO)."""
    region = pd.DataFrame({"r_regionkey": np.array([0, 1], dtype=np.int32),
                           "r_name": ["EUROPE", "ASIA"]})
    nation = pd.DataFrame({
        "n_nationkey": np.array([3, 8, 12, 0], dtype=np.int32),
        "n_name": ["NATION_3", "NATION_8", "NATION_12", "NATION_0"],
        "n_regionkey": np.array([0, 1, 1, 0], dtype=np.int32)})
    supplier = pd.DataFrame({
        "s_suppkey": np.arange(1, 5, dtype=np.int64),
        "s_name": [f"s{i}" for i in range(1, 5)],
        "s_nationkey": np.array([3, 8, 12, 0], dtype=np.int32),
        "s_acctbal": 0.0})
    customer = pd.DataFrame({
        "c_custkey": np.arange(1, 5, dtype=np.int64),
        "c_name": [f"c{i}" for i in range(1, 5)],
        "c_nationkey": np.array([3, 8, 12, 0], dtype=np.int32),
        "c_acctbal": 100.0, "c_mktsegment": "BUILDING"})
    d = write_table(tmp_path, "region", region, n_files=1)
    write_table(tmp_path, "nation", nation, n_files=1)
    write_table(tmp_path, "supplier", supplier, n_files=1)
    write_table(tmp_path, "customer", customer, n_files=1)
    return d


_LBASE = {"l_linenumber": np.int64(1), "l_tax": 0.0,
          "l_returnflag": "N", "l_linestatus": "O"}


def _line(okey, skey, ship, price, pkey=1, qty=1.0, disc=0.0):
    return {"l_orderkey": okey, "l_partkey": pkey, "l_suppkey": skey,
            "l_quantity": qty, "l_extendedprice": price, "l_discount": disc,
            "l_shipdate": pd.Timestamp(ship), **_LBASE}


def _order(okey, ckey, date="1996-06-01"):
    return {"o_orderkey": okey, "o_custkey": ckey, "o_orderstatus": "O",
            "o_totalprice": 10.0, "o_orderdate": pd.Timestamp(date),
            "o_orderpriority": "3-MEDIUM"}


@pytest.mark.usefixtures("ray_session")
def test_q7_cross_pairs_and_window(tmp_path):
    """Same-nation supplier/customer pairs and out-of-window ship dates
    must not count; both directions of the pair aggregate separately."""
    from oar_ocr_ray.queries import Q7_SQL, q7_nation_volume

    d = _world(tmp_path)
    orders = pd.DataFrame([_order(1, 1), _order(2, 2), _order(3, 4)])
    lines = pd.DataFrame([
        _line(2, 1, "1996-05-01", 100.0),   # N3 -> N8, 1996: counts
        _line(2, 1, "1997-12-31", 50.0),    # N3 -> N8, 1997: counts
        _line(1, 2, "1997-03-01", 70.0),    # N8 -> N3, 1997: counts
        _line(1, 1, "1996-05-01", 999.0),   # N3 -> N3: same nation, NO
        _line(2, 1, "1995-12-31", 999.0),   # before window, NO
        _line(2, 1, "1998-01-01", 999.0),   # after window, NO
        _line(3, 1, "1996-05-01", 999.0),   # cust N0 not in pair, NO
        _line(2, 4, "1996-05-01", 999.0),   # supp N0 not in pair, NO
    ])
    write_table(tmp_path, "orders", orders)
    write_table(tmp_path, "lineitem", lines)

    got = q7_nation_volume(d)
    assert_equal(got, oracle(d, Q7_SQL,
                             ["lineitem", "orders", "supplier", "customer",
                              "nation"]))
    assert len(got) == 3
    row = got[(got.supp_nation == "NATION_3") & (got.l_year == 1996)]
    assert float(row.revenue.iloc[0]) == 100.0


@pytest.mark.usefixtures("ray_session")
def test_q8_share_including_zero_year(tmp_path):
    """Share must be exact (int-c4 division); a year where the target
    nation supplied nothing yields share 0.0 (not an absent row); wrong
    part type / region / order-date rows are excluded on their stages."""
    from oar_ocr_ray.queries import Q8_SQL, q8_market_share

    d = _world(tmp_path)
    part = pd.DataFrame({
        "p_partkey": np.arange(1, 3, dtype=np.int64),
        "p_name": ["p1", "p2"], "p_brand": "Brand#1",
        "p_type": ["PROMO", "ECONOMY"],
        "p_size": np.array([1, 1], dtype=np.int32), "p_retailprice": 1.0})
    write_table(tmp_path, "part", part, n_files=1)
    orders = pd.DataFrame([
        _order(1, 2, "1995-03-01"),   # ASIA customer (N8), 1995
        _order(2, 3, "1996-03-01"),   # ASIA customer (N12), 1996
        _order(3, 1, "1995-03-01"),   # EUROPE customer: excluded
        _order(4, 2, "1994-12-31"),   # before window: excluded
        _order(5, 2, "1997-01-01"),   # after window: excluded
    ])
    lines = pd.DataFrame([
        _line(1, 3, "1995-04-01", 30.0, pkey=1),   # N12 supplies 1995 ASIA
        _line(1, 1, "1995-04-01", 10.0, pkey=1),   # N3 supplies 1995 ASIA
        _line(1, 3, "1995-04-01", 99.0, pkey=2),   # wrong p_type: excluded
        _line(2, 1, "1996-04-01", 20.0, pkey=1),   # 1996: N3 only -> share 0
        _line(3, 3, "1995-04-01", 99.0, pkey=1),   # EUROPE order: excluded
        _line(4, 3, "1995-04-01", 99.0, pkey=1),   # out-of-window: excluded
        _line(5, 3, "1995-04-01", 99.0, pkey=1),   # out-of-window: excluded
    ])
    write_table(tmp_path, "orders", orders)
    write_table(tmp_path, "lineitem", lines)

    got = q8_market_share(d)
    assert_equal(got, oracle(d, Q8_SQL,
                             ["lineitem", "orders", "part", "supplier",
                              "customer", "nation", "region"]))
    assert got.o_year.tolist() == [1995, 1996]
    assert float(got.mkt_share.iloc[0]) == 0.75   # 30 / (30 + 10)
    assert float(got.mkt_share.iloc[1]) == 0.0


@pytest.mark.usefixtures("ray_session")
def test_q15_max_revenue_tie(tmp_path):
    """Two suppliers tied at the maximum must BOTH be returned (classic
    Q15 tie semantics); revenue outside the quarter must not count."""
    from oar_ocr_ray.queries import Q15_SQL, q15_top_supplier

    d = _world(tmp_path)
    orders = pd.DataFrame([_order(1, 1)])
    lines = pd.DataFrame([
        _line(1, 1, "1996-02-01", 60.0),
        _line(1, 1, "1996-03-01", 40.0),   # s1 total 100
        _line(1, 2, "1996-01-01", 100.0),  # s2 total 100 (tie)
        _line(1, 3, "1996-02-01", 99.0),   # s3 below max
        _line(1, 4, "1996-04-01", 500.0),  # s4: outside the quarter, NO
    ])
    write_table(tmp_path, "orders", orders)
    write_table(tmp_path, "lineitem", lines)

    got = q15_top_supplier(d)
    assert_equal(got, oracle(d, Q15_SQL, ["lineitem", "supplier"]))
    assert got.s_suppkey.tolist() == [1, 2]
    assert got.total_revenue.tolist() == [100.0, 100.0]


@pytest.mark.usefixtures("ray_session")
def test_q19_branch_conjunctions(tmp_path):
    """Each disjunct is a CONJUNCTION of brand, size range and quantity
    range — a line matching one branch's brand but another branch's
    quantity window must not count."""
    from oar_ocr_ray.queries import Q19_SQL, q19_disjunctive_revenue

    d = _world(tmp_path)
    part = pd.DataFrame({
        "p_partkey": np.arange(1, 6, dtype=np.int64),
        "p_name": [f"p{i}" for i in range(1, 6)],
        "p_brand": ["Brand#12", "Brand#12", "Brand#23", "Brand#5", "Brand#7"],
        "p_type": "PROMO",
        "p_size": np.array([3, 9, 10, 15, 1], dtype=np.int32),
        "p_retailprice": 1.0})
    write_table(tmp_path, "part", part, n_files=1)
    lines = pd.DataFrame([
        _line(1, 1, "1996-01-01", 10.0, pkey=1, qty=5.0),    # b1: counts
        _line(1, 1, "1996-01-01", 99.0, pkey=1, qty=12.0),   # qty > 11: NO
        _line(1, 1, "1996-01-01", 99.0, pkey=2, qty=5.0),    # size 9 > 5: NO
        _line(1, 1, "1996-01-01", 20.0, pkey=3, qty=20.0),   # b2: counts
        _line(1, 1, "1996-01-01", 40.0, pkey=4, qty=30.0),   # b3: counts
        _line(1, 1, "1996-01-01", 99.0, pkey=4, qty=19.0),   # qty < 20: NO
        _line(1, 1, "1996-01-01", 99.0, pkey=5, qty=25.0),   # brand: NO
    ])
    write_table(tmp_path, "lineitem", lines)

    got = q19_disjunctive_revenue(d)
    assert_equal(got, oracle(d, Q19_SQL, ["lineitem", "part"]))
    assert float(got.revenue.iloc[0]) == 70.0


@pytest.mark.parametrize("empty_result", [False, True])
@pytest.mark.usefixtures("ray_session")
def test_q19_no_matching_lines_reads_zero(tmp_path, monkeypatch, empty_result):
    """No part in any branch and no lineitem rows: the query returns the
    0.00 that the oracle's COALESCE(sum, 0) returns. The exchange then
    emits no rows, and Ray's scalar aggregate reads {"c4": None} or, for
    a dataset with no blocks at all, None itself (patched in here: a
    parquet read always yields a block); neither may raise."""
    import ray.data

    from oar_ocr_ray.queries import Q19_SQL, q19_disjunctive_revenue

    d = _world(tmp_path)
    part = pd.DataFrame({
        "p_partkey": np.array([1], dtype=np.int64), "p_name": ["p1"],
        "p_brand": ["Brand#99"], "p_type": "PROMO",
        "p_size": np.array([3], dtype=np.int32), "p_retailprice": 1.0})
    write_table(tmp_path, "part", part, n_files=1)
    write_table(tmp_path, "lineitem",
                pd.DataFrame([_line(1, 1, "1996-01-01", 10.0, qty=5.0)]).iloc[:0],
                n_files=1)
    if empty_result:
        monkeypatch.setattr(ray.data.Dataset, "aggregate", lambda self, *aggs: None)

    got = q19_disjunctive_revenue(d)
    assert_equal(got, oracle(d, Q19_SQL, ["lineitem", "part"]))
    assert float(got.revenue.iloc[0]) == 0.0


@pytest.mark.usefixtures("ray_session")
def test_chunk_documents_boundaries(tmp_path):
    """Chunk-count closed form: empty text -> one empty chunk, text ==
    size -> one chunk, size+1 -> two overlapping chunks; full coverage
    with stride overlap; oracle parity on the same store."""
    from oar_ocr_ray.queries import CHUNK_DOCUMENTS_SQL, chunk_documents

    texts = ["", "x" * 128, "y" * 129, "z" * 48, "w" * 300]
    df = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": texts, "lang": "en", "source": "s0",
        "n_chars": [len(t) for t in texts]})
    d = tmp_path / "sf"
    os.makedirs(d / "documents.parquet", exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df),
                   d / "documents.parquet" / "part0.parquet")

    got = chunk_documents(str(d))
    per_doc = got.groupby("doc_id").size()
    assert per_doc.tolist() == [1, 1, 2, 1, 3]
    # coverage: concatenating chunk[0] + tails of overlaps rebuilds text
    c129 = got[got.doc_id == 2]["chunk"].tolist()
    assert c129[0] == "y" * 128 and c129[1] == "y" * 33
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet/*.parquet')")
    want = con.execute(CHUNK_DOCUMENTS_SQL).df()
    assert got["chunk"].tolist() == want["chunk"].tolist()
    assert got["doc_id"].tolist() == [int(x) for x in want["doc_id"]]


@pytest.mark.usefixtures("ray_session")
def test_source_overlap_matrix(tmp_path):
    """Shared DISTINCT 3-grams per source pair: repeats within a source
    count once, grams never span documents, disjoint sources emit no
    row."""
    from oar_ocr_ray.queries import SOURCE_OVERLAP_SQL, source_overlap_matrix

    texts = [
        ("a", "the quick brown fox jumps"),       # grams incl 'the quick brown'
        ("a", "the quick brown dog sits"),         # repeat gram within a
        ("b", "the quick brown cat naps"),         # shares 'the quick brown'
        ("b", "quick brown fox"),                  # shares 'quick brown fox' w/ a
        ("c", "totally disjoint words here"),      # no overlap
        ("a", "xx yy"),                            # too short for 3-grams
    ]
    df = pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64),
        "text": [t for _, t in texts], "lang": "en",
        "source": [s for s, _ in texts],
        "n_chars": [len(t) for _, t in texts]})
    d = tmp_path / "sf"
    os.makedirs(d / "documents.parquet", exist_ok=True)
    pq.write_table(pa.Table.from_pandas(df),
                   d / "documents.parquet" / "part0.parquet")

    got = source_overlap_matrix(str(d))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet/*.parquet')")
    want = con.execute(SOURCE_OVERLAP_SQL).df()
    assert_equal(got, want)
    assert got.source_a.tolist() == ["a"] and got.source_b.tolist() == ["b"]
    assert int(got.shared_grams.iloc[0]) == 2  # 'the quick brown', 'quick brown fox'
