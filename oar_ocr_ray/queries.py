"""Operator queries over /root/testdata parquet + DuckDB oracle SQL.

Every SQL-expressible operator from SURVEY.md §2 (and the training-data
extensions) is exposed as a named query: a Ray Data implementation
(`QUERIES[name]` — callable taking sf_dir) paired with equivalent ANSI SQL
(`ORACLE_SQL[name]`) the driver runs via DuckDB on the same parquet views.
Column names and rounding are kept identical on both sides so the driver's
order-insensitive value-hash matches.

Scale patterns demonstrated (and used at 100 TB):
  - two-pass broadcast analytics: bounded global state (vocabulary, IDF /
    unigram-LM tables, eval n-gram sets, per-source thresholds) built by a
    combiner pass, shipped once via ray.put, consumed by a stateless
    streaming pass — tfidf_top_terms, unigram_logprob_scores,
    decontaminate, source_temperature_sample, top_quartile_docs_per_source;
  - column pruning at read_parquet;
  - partial aggregation inside map_batches before every reduce (the
    combiner), so only per-batch partials move, then one reduce per shape:
    fact-cardinality keys (orders, customers, suppliers, words) sum
    through `_keyed_sum`, one `_exchange` on the key; bounded keys
    (flags, nations, sources, buckets, sketch registers) are combined on
    the driver (`_reduce_small`); scalar totals are `Dataset.sum`;
  - broadcast small sides via ray.put + per-batch lookup (no shuffle join);
  - where both sides of a join are large, the sides of one `_exchange`
    (there is no Dataset.join);
  - per-group windowing via groupby(key).map_groups over ts-sorted groups;
  - dedup keyed on content hashes, with in-group exact verification.

Broadcast vs shuffle policy (the optimizer decision, stated once):
a side is BROADCAST (ray.put once, read zero-copy per task) only when its
size is bounded by something other than the fact table — a dimension
(nation/region/segment/source), a pruned head (min_df vocabulary, eval
n-gram set), a sketch (HLL registers, Bloom bitset, MG candidates <= a
provable constant), or a query set. Anything FACT-cardinality (orders,
parts, custkeys, per-doc maps, unpruned vocabularies) moves through a
keyed exchange instead: `_exchange`, the one coarse hash(key) % P
co-partition. A big-big join passes it its sides as (Dataset, schema)
pairs that carry the key in one column, and gets one Arrow table per
side per partition for a vectorized in-partition join (`pa.Table.join`).
Queries that ship orders-derived lookups via ray.put (q3, q10, q18 inner
map, q5_nation_revenue_broadcast) are the SMALL-SIDE plan kept
deliberately next to the big-big plan of the same join (q5,
q4/q12/q13/q22) — at 100 TB the planner picks by the measured side size
against the object-store budget; both shapes are implemented and tested
here.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .functions.text_analysis import word_ngrams
from .numeric import round_half_away


def rev_c4(price, disc) -> np.ndarray:
    """l_extendedprice * (1 - l_discount) in EXACT 10^-4 dollars (int64).

    2-decimal money x 2-decimal discount is an integer in this unit, so
    partial sums are batch-order independent: float revenue sums can
    wobble in the last ulp with batch boundaries (they change with
    num_cpus) and flip a round() at a .xx5 tie against the oracle —
    the parts_by_brand failure class, closed here for every revenue
    aggregate. Oracles use the matching BIGINT formulation (_REV_SQL)."""
    pc = np.rint(np.asarray(price, dtype=np.float64) * 100).astype(np.int64)
    dp = np.rint(np.asarray(disc, dtype=np.float64) * 100).astype(np.int64)
    return pc * (100 - dp)


_REV_SQL = ("CAST(round(l_extendedprice * 100) AS BIGINT)"
            " * (100 - CAST(round(l_discount * 100) AS BIGINT))")


def _p(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


# The fewest Ray CPUs the query library runs on. Its actor pools
# (concurrency=2, one CPU per actor) hold CPUs that their upstream reads
# then lack: on 2 CPUs ann_topk's pool never runs its reads. The tests run
# the library on 4.
MIN_CLUSTER_CPUS = 4


def _require_cluster_cpus(query: str) -> None:
    """Refuse, naming MIN_CLUSTER_CPUS, to start a query whose actor pool
    would hold every CPU of a smaller running cluster and hang. (The
    library never starts Ray itself; with no session there is no cluster
    to size yet.)"""
    import ray

    if not ray.is_initialized():
        return
    cpus = ray.cluster_resources().get("CPU", 0)
    if cpus < MIN_CLUSTER_CPUS:
        raise RuntimeError(
            f"{query} needs a Ray cluster of at least MIN_CLUSTER_CPUS="
            f"{MIN_CLUSTER_CPUS} CPUs, this one has {cpus:g}: its actor pool "
            "would hold the CPUs its reads need and never finish")


def _collect_where(ds, expr: str, columns: list[str]) -> pd.DataFrame:
    """The rows of `ds` that pass the filter `expr`, collected to the
    driver with `columns` even when none pass: Ray collects an empty
    Dataset as a frame with no columns at all."""
    return ds.filter(expr=expr).to_pandas().reindex(columns=columns)


def _arrow(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """A pandas UDF's output as an Arrow table of `schema`. Ray cannot size
    a zero-row pandas block with string columns (it logs an error for
    each), and an operator whose blocks switch between pandas and Arrow
    logs a schema warning, so such UDFs hand Ray Arrow only. The pandas
    metadata is dropped: Ray cannot hash a schema that carries it and
    warns each time it unifies one."""
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False).replace_schema_metadata()


def _n_parts() -> int:
    """The coarse exchange's partition count, scaled to the cluster: 2
    tasks per CPU (straggler headroom), floor 64 so small test clusters
    still exercise multi-partition merges. Results never depend on it:
    every `_exchange` caller merges within disjoint key sets."""
    import ray

    return max(64, int(ray.cluster_resources().get("CPU", 32)) * 2)


# folds the columns of a multi-column key into one id (an odd prime, so
# coprime to every partition count)
_KEY_MIX = 1_000_003


def _partition_ids(batch, key, n_parts: int) -> np.ndarray:
    """Each row's coarse partition in [0, n_parts): a stable hash of the
    `key` column(s) of `batch` (a DataFrame or an Arrow table). An integer
    or datetime column gives value mod n_parts, never negative. A string
    column gives its `md5_buckets` (a hash that varied by process or
    pandas version would split a key across partitions). Several columns
    fold into one id: (id * _KEY_MIX + column id) mod n_parts."""
    from .functions.dedup import md5_buckets

    pid = np.zeros(len(batch), dtype=np.int64)
    for col in [key] if isinstance(key, str) else key:
        v = batch[col].to_numpy()
        cid = (np.mod(v.astype(np.int64), n_parts) if v.dtype.kind in "iuM"
               else md5_buckets(v, n_parts))
        pid = np.mod(pid * _KEY_MIX + cid, n_parts)
    return pid


_PART = "_part"
_SIDE = "_side"


def _exchange(ds, key, fn, batch_format: str = "pandas"):
    """The one coarse keyed exchange: rows go to `_partition_ids(key)`
    partitions and `fn` runs once per PARTITION, a vectorized merge or
    groupby over all of its keys, never once per key (the per-batch UDF
    call of *Accelerating Python UDFs in Vectorized Query Execution*,
    CIDR 2022). Rows with equal keys always meet in one call. The
    partition count is read here, on the driver, so no worker calls Ray.

    `ds` is one Dataset, and `fn(g)` gets a partition's rows in
    `batch_format`, or a join's sides as a list of (Dataset, schema) pairs
    that all carry `key`, and `fn(*sides)` gets one Arrow table per side,
    of that side's schema and possibly with no rows. Only here are sides
    tagged, padded with nulls to the union of their columns (prefixed
    with the side, so a name on two sides stays apart), unioned and split
    again. Each side is tagged in its own map tasks (a map after the
    union would run as tasks of its own), and must yield Arrow: Ray skips
    the tagging map for an empty block, and one pandas block turns the
    whole exchange into pandas, where a padded int column reads float."""
    n_parts = _n_parts()

    if not isinstance(ds, list):
        def add_part(b):
            ids = _partition_ids(b, key, n_parts)
            if isinstance(b, pa.Table):
                return b.append_column(_PART, pa.array(ids))
            return b.assign(**{_PART: ids})

        def run(g):
            return fn(g.drop_columns([_PART]) if isinstance(g, pa.Table)
                      else g.drop(columns=_PART))

        tagged = ds.map_batches(add_part, batch_format=batch_format)
        return tagged.groupby(_PART).map_groups(run, batch_format=batch_format)

    schemas = [schema for _, schema in ds]
    cols = [(i, f) for i, schema in enumerate(schemas) for f in schema]
    names = [_PART, _SIDE] + [f"{i}.{f.name}" for i, f in cols]

    def tag(side: int):
        def add_side(b: pa.Table) -> pa.Table:
            n = len(b)
            return pa.table(
                [pa.array(_partition_ids(b, key, n_parts)), pa.array(np.full(n, side, np.int8))]
                + [b[f.name].cast(f.type) if i == side else pa.nulls(n, f.type) for i, f in cols],
                names=names)
        return add_side

    def run_sides(g: pa.Table):
        return fn(*(g.filter(pc.equal(g[_SIDE], i)).select(
            [f"{i}.{name}" for name in schema.names]).rename_columns(schema.names)
            for i, schema in enumerate(schemas)))

    tagged = [d.map_batches(tag(i), batch_format="pyarrow") for i, (d, _) in enumerate(ds)]
    return tagged[0].union(*tagged[1:]).groupby(_PART).map_groups(
        run_sides, batch_format="pyarrow")


def _read(sf_dir: str, table: str, columns=None):
    """`table`, pruned to `columns`, read with its own schema minus the
    pandas metadata the files carry: Ray cannot hash a schema that holds
    it and logs a warning from each read task."""
    import pyarrow.dataset as pds
    import ray.data

    path = _p(sf_dir, table)
    schema = pds.dataset(path, format="parquet").schema
    schema = pa.schema([schema.field(c) for c in columns] if columns else list(schema))
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def _collect_broadcast(sf_dir: str, table: str, columns=None,
                       max_rows: int = 2_000_000) -> pd.DataFrame:
    """Gated driver collect of a table that a SMALL-SIDE (broadcast) join
    plan is about to ray.put: the read goes through Ray (column-pruned,
    distributed), the row count is checked from parquet metadata BEFORE
    any data moves, and past `max_rows` the plan refuses loudly and names
    the big-big alternative — the policy-header rule that fact-cardinality
    sides never ship via ray.put ungated. Every broadcast-plan query
    routes its driver table through here (no raw pd.read_parquet of any
    testdata table anywhere)."""
    ds = _read(sf_dir, table, columns)
    n = ds.count()  # parquet metadata only
    if n > max_rows:
        raise ValueError(
            f"broadcast plan refused: {table} has {n} rows > max_rows="
            f"{max_rows}; use the co-partitioned big-big plan for this "
            f"join (see the broadcast-vs-shuffle policy header) or raise "
            f"the gate if the object-store budget allows it.")
    return ds.to_pandas()


# ---------------------------------------------------------------------------
# TPC-H-style relational queries
# ---------------------------------------------------------------------------

def _topk_blocks(ds, k: int, by: list[str], ascending: list[bool],
                 round_cols: dict[str, int] | None = None) -> pd.DataFrame:
    """Distributed top-k over an aggregated Dataset: per-block partial
    top-k inside map_batches (safe — every global top-k row is in its own
    block's top-k), then a tiny driver merge of k x n_blocks rows. Replaces
    pulling the full aggregate (vocabulary / customer / order cardinality)
    to the driver. Rounding is applied BEFORE ranking so block cuts use the
    same tie order as the final sort and the SQL oracle."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if round_cols:
            for c, nd in round_cols.items():
                df[c] = round_half_away(df[c], nd)
        return df.sort_values(by, ascending=ascending).head(k)

    out = ds.map_batches(partial, batch_format="pandas").to_pandas()
    return out.sort_values(by, ascending=ascending).head(k).reset_index(drop=True)


def _reduce_small(partials, keys: list[str], sums: list[str]) -> pd.DataFrame:
    """Driver-side final reduce for LOW-CARDINALITY group keys: the partials
    (one row per key per batch) are tiny, so shipping them to the driver and
    finishing with one pandas groupby avoids a pointless all-to-all exchange.
    High-cardinality keys (doc hashes, customer ids, words) go through
    `_keyed_sum` instead."""
    df = partials.to_pandas()
    if len(df) == 0:
        return df
    return df.groupby(keys, as_index=False, sort=False)[sums].sum()


def _keyed_sum(partials, key: str, val: str = "n"):
    """Exact (key, sum(val)) over per-batch partial sums via ONE coarse
    exchange on key + a vectorized in-partition pandas groupby — the
    combine shape for FACT-cardinality keys (orders, customers, suppliers,
    vocabularies): never one native group per distinct key, and
    partition-bounded at any scale. It replaced Ray's sort-based
    Dataset.groupby(key).aggregate(Sum), whose per-key cost dominates at
    scale: at sf0.1 on 4 CPUs (min of 2 runs) q10_returned_revenue went
    from 78.4 to 3.0 s, orders_per_customer_topk from 51.5 to 0.4 s and
    q3_top_orders from 16.7 to 2.0 s."""
    return _exchange(partials, key, lambda g: g.groupby(key, as_index=False)[val].sum())


def q1_pricing_summary(sf_dir: str):
    """Grouped aggregate with in-batch partial aggregation (combiner) —
    reference analogue: per-batch partial max_wh_ratio (crnn.rs:70-77)
    generalized to sums/counts. Final reduce is driver-side (6 groups)."""
    cutoff = np.datetime64("1998-09-02")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"].to_numpy() <= cutoff]
        # money in integer cents so partial sums are EXACT and batch-order
        # independent: a float sum's last-ulp wobble at a .xxxx5 rounding
        # tie would hash-mismatch the oracle (the parts_by_brand lesson)
        price_cents = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        disc_pct = np.rint(df["l_discount"].to_numpy() * 100).astype(np.int64)
        df = df.assign(
            price_cents=price_cents,
            disc_c4=price_cents * (100 - disc_pct),  # 10^-4 dollars, exact
            n=1,
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False, sort=False).agg(
            sum_qty=("l_quantity", "sum"),  # quantities are integral: exact
            sum_base_price=("price_cents", "sum"),
            sum_disc_price=("disc_c4", "sum"),
            count_order=("n", "sum"),
        )
        return g

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    partials = ds.map_batches(partial, batch_format="pandas")
    df = _reduce_small(
        partials,
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "sum_base_price", "sum_disc_price", "count_order"],
    )
    cents = df["sum_base_price"].to_numpy(dtype=np.float64)  # int64-exact
    c4 = df["sum_disc_price"].to_numpy(dtype=np.float64)
    cnt = df["count_order"].to_numpy(dtype=np.float64)
    df["avg_qty"] = round_half_away(df["sum_qty"] / df["count_order"], 4)
    df["avg_price"] = round_half_away(cents / 100.0 / cnt, 4)
    df["sum_qty"] = round_half_away(df["sum_qty"], 2)
    df["sum_base_price"] = round_half_away(cents / 100.0, 2)
    df["sum_disc_price"] = round_half_away(c4 / 10000.0, 2)
    df["count_order"] = df["count_order"].astype("int64")
    return df


# int-cent formulation = the DECIMAL-exact semantics; the float-sum form is
# batch-order dependent at rounding-boundary ties (parts_by_brand lesson)
Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2)                            AS sum_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 2)
                                                            AS sum_base_price,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0, 2)
                                                            AS sum_disc_price,
       count(*)                                             AS count_order,
       round(sum(l_quantity) / count(*), 4)                 AS avg_qty,
       round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 / count(*), 4)
                                                            AS avg_price
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def q6_revenue(sf_dir: str):
    """Scalar filter-aggregate; predicate applied vectorized per batch."""
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1997-01-01")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = (
            (df["l_shipdate"].to_numpy() >= lo)
            & (df["l_shipdate"].to_numpy() < hi)
            & (df["l_discount"] >= 0.05)
            & (df["l_discount"] <= 0.07)
            & (df["l_quantity"] < 24)
        )
        d = df[m]
        pc = np.rint(d["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dp = np.rint(d["l_discount"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"rev": [int((pc * dp).sum())]})  # exact 10^-4 $

    ds = _read(sf_dir, "lineitem", ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
    total = ds.map_batches(partial, batch_format="pandas").sum("rev") or 0
    return pd.DataFrame({"revenue": [round_half_away(float(total) / 10000.0, 2)]})


Q6_SQL = """
SELECT round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                 * CAST(round(l_discount * 100) AS BIGINT)) / 10000.0, 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def q3_top_orders(sf_dir: str):
    """Broadcast-join pattern: customer segment + order dates are broadcast
    (ray.put once, read per task), lineitem streams; top-10 by revenue."""
    import ray

    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    building = set(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"])
    orders = _collect_broadcast(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    cutoff = np.datetime64("1997-01-01")
    om = orders[orders["o_custkey"].isin(building) & (orders["o_orderdate"].to_numpy() < cutoff)]
    okey_to_date = ray.put(dict(zip(om["o_orderkey"], om["o_orderdate"])))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(okey_to_date)
        m = df["l_orderkey"].isin(lookup.keys()) & (df["l_shipdate"].to_numpy() > cutoff)
        d = df[m]
        d = d.assign(rev=rev_c4(d["l_extendedprice"], d["l_discount"]))
        return d.groupby("l_orderkey", as_index=False, sort=False).agg(revenue=("rev", "sum"))

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"])
    agg = _keyed_sum(ds.map_batches(partial, batch_format="pandas"), "l_orderkey", "revenue")
    dollars = agg.map_batches(
        lambda df: df.assign(revenue=df["revenue"] / 10000.0), batch_format="pandas")
    top = _topk_blocks(dollars, 10, ["revenue", "l_orderkey"], [False, True],
                       round_cols={"revenue": 2})
    return top.rename(columns={"l_orderkey": "o_orderkey"})


Q3_SQL = f"""
SELECT l.l_orderkey AS o_orderkey,
       round(sum({_REV_SQL}) / 10000.0, 2) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '1997-01-01'
  AND l.l_shipdate > TIMESTAMP '1997-01-01'
GROUP BY l.l_orderkey
ORDER BY revenue DESC, o_orderkey
LIMIT 10
"""


def q5_nation_revenue(sf_dir: str):
    """The big-big edge (lineitem x orders) as an `_exchange` join on
    orderkey, broadcast maps for the small dimensions: the orders side
    carries its customer's nation, each partition joins it to its lines'
    exact revenue and sums per nation, and the driver sums the partials
    (<= 25 rows per partition)."""
    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _collect_broadcast(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust_nation = dict(zip(cust["c_custkey"], cust["c_nationkey"]))
    nation_name = dict(zip(nation["n_nationkey"], nation["n_name"]))

    def o_side(df: pd.DataFrame) -> pa.Table:
        name = df["o_custkey"].map(cust_nation).map(nation_name)
        keep = name.notna().to_numpy()
        return pa.table({"key": df["o_orderkey"].to_numpy()[keep],
                         "n_name": name[keep].to_numpy()})

    def l_side(df: pd.DataFrame) -> pa.Table:
        return pa.table({"key": df["l_orderkey"].to_numpy(),
                         "c4": rev_c4(df["l_extendedprice"], df["l_discount"])})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        o_side, batch_format="pandas")
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
                  ).map_batches(l_side, batch_format="pandas")
    partials = _exchange(
        [(orders, pa.schema([("key", pa.int64()), ("n_name", pa.string())])),
         (lines, pa.schema([("key", pa.int64()), ("c4", pa.int64())]))], "key",
        lambda o, l: l.join(o, "key").group_by("n_name").aggregate([("c4", "sum")]))
    df = _reduce_small(partials, ["n_name"], ["c4_sum"])
    return pd.DataFrame({"n_name": df["n_name"],
                         "revenue": round_half_away(df["c4_sum"] / 10000.0, 2)})


Q5_SQL = f"""
SELECT n.n_name,
       round(sum({_REV_SQL}) / 10000.0, 2) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q5_nation_revenue_broadcast(sf_dir: str):
    """q5 without ANY shuffle: the orderkey -> nation-name map (orders is
    broadcast-sized relative to lineitem) is built once, ray.put once, and
    probed per lineitem batch; partials reduce driver-side (25 rows). The
    shuffle-join q5 demonstrates the big-x-big edge; this is the plan a
    real optimizer picks when one side fits in memory."""
    import ray

    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nation = _collect_broadcast(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust_nation = dict(zip(cust["c_custkey"], cust["c_nationkey"]))
    nation_name = dict(zip(nation["n_nationkey"], nation["n_name"]))
    orders = _collect_broadcast(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    okey_to_name = ray.put(
        dict(zip(orders["o_orderkey"],
                 orders["o_custkey"].map(cust_nation).map(nation_name)))
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(okey_to_name)
        name = df["l_orderkey"].map(lookup)
        rev = rev_c4(df["l_extendedprice"], df["l_discount"])
        g = pd.DataFrame({"n_name": name, "rev": rev}).groupby(
            "n_name", as_index=False, sort=False)["rev"].sum()
        return g.rename(columns={"rev": "revenue"})

    line = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    df = _reduce_small(line.map_batches(partial, batch_format="pandas"), ["n_name"], ["revenue"])
    df["revenue"] = round_half_away(df["revenue"] / 10000.0, 2)
    return df


def q14_promo_revenue(sf_dir: str):
    """Promo revenue share: part's p_type broadcast as a partkey->is_promo
    set (dimension table, broadcast-sized at any scale), lineitem streams
    one month; conditional + total revenue partials, tiny driver reduce."""
    import ray

    part = _collect_broadcast(sf_dir, "part", ["p_partkey", "p_type"])
    promo_ref = ray.put(set(part.loc[part["p_type"].str.startswith("PROMO"), "p_partkey"]))
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1996-02-01")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        promo = ray.get(promo_ref)
        m = (df["l_shipdate"].to_numpy() >= lo) & (df["l_shipdate"].to_numpy() < hi)
        d = df[m]
        rev = rev_c4(d["l_extendedprice"], d["l_discount"])
        is_promo = d["l_partkey"].isin(promo).to_numpy()
        return pd.DataFrame({"promo": [int(rev[is_promo].sum())], "total": [int(rev.sum())]})

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
    df = ds.map_batches(partial, batch_format="pandas").to_pandas()
    promo, total = df["promo"].sum(), df["total"].sum()
    return pd.DataFrame({"promo_revenue": [round_half_away(100.0 * promo / total, 4)]})


Q14_SQL = f"""
SELECT round(100.0 * sum(CASE WHEN p.p_type LIKE 'PROMO%'
                              THEN {_REV_SQL} ELSE 0 END)
             / sum({_REV_SQL}), 4) AS promo_revenue
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE l.l_shipdate >= TIMESTAMP '1996-01-01' AND l.l_shipdate < TIMESTAMP '1996-02-01'
"""


def q10_returned_revenue(sf_dir: str, k: int = 20):
    """Top-k customers by revenue on returned items (l_returnflag = 'R'):
    orders' orderkey->custkey map broadcast once, per-batch partials keyed
    on custkey, summed through `_keyed_sum` (one exchange on custkey),
    driver-side top-k + name attach (customer is a broadcast-sized
    dimension)."""
    import ray

    orders = _collect_broadcast(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    ok_to_ck = ray.put(dict(zip(orders["o_orderkey"], orders["o_custkey"])))
    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_name"])
    names = dict(zip(cust["c_custkey"], cust["c_name"]))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        lookup = ray.get(ok_to_ck)
        d = df[df["l_returnflag"] == "R"]
        ck = d["l_orderkey"].map(lookup)
        rev = rev_c4(d["l_extendedprice"], d["l_discount"])
        return pd.DataFrame({"c_custkey": ck, "revenue": rev}).groupby(
            "c_custkey", as_index=False, sort=False)["revenue"].sum()

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])
    agg = _keyed_sum(ds.map_batches(partial, batch_format="pandas"), "c_custkey", "revenue")
    dollars = agg.map_batches(
        lambda df: df.assign(revenue=df["revenue"] / 10000.0), batch_format="pandas")
    top = _topk_blocks(dollars, k, ["revenue", "c_custkey"], [False, True],
                       round_cols={"revenue": 2})
    top["c_name"] = top["c_custkey"].map(names)
    top["c_custkey"] = top["c_custkey"].astype("int64")
    return top


Q10_SQL = f"""
SELECT o.o_custkey AS c_custkey,
       round(sum({_REV_SQL}) / 10000.0, 2) AS revenue,
       any_value(c.c_name) AS c_name
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE l.l_returnflag = 'R'
GROUP BY o.o_custkey
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def q18_large_orders(sf_dir: str, min_qty: float = 200.0):
    """Large-quantity orders: per-orderkey quantity sums via the coarse
    exchange on orderkey (`_exchange`, a vectorized in-partition groupby
    — a distributed groupby on the raw 150k-key orderkey column measured
    113 s at sf0.1; this is the scale-safe shape), HAVING filter
    in-partition, then broadcast orders for custkey/date attach."""
    import ray

    orders = _collect_broadcast(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])
    ord_ref = ray.put(orders.set_index("o_orderkey")[["o_custkey", "o_orderdate"]])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("l_orderkey", as_index=False, sort=False)["l_quantity"].sum()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", as_index=False, sort=False)["l_quantity"].sum()
        s = s[s["l_quantity"] > min_qty]
        om = ray.get(ord_ref)
        joined = s.join(om, on="l_orderkey")
        return pd.DataFrame({
            "o_orderkey": s["l_orderkey"].astype("int64"),
            "sum_qty": s["l_quantity"],
            "o_custkey": joined["o_custkey"].astype("int64"),
            "o_orderdate": joined["o_orderdate"],
        })

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    return _exchange(ds.map_batches(partial, batch_format="pandas"), "l_orderkey", per_part)


Q18_SQL = """
SELECT l.l_orderkey AS o_orderkey, sum(l.l_quantity) AS sum_qty,
       any_value(o.o_custkey) AS o_custkey, any_value(o.o_orderdate) AS o_orderdate
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
GROUP BY l.l_orderkey
HAVING sum(l.l_quantity) > 200.0
"""


def orders_per_customer_topk(sf_dir: str):
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("o_custkey", as_index=False, sort=False).agg(n_orders=("o_orderkey", "count"))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    agg = _keyed_sum(ds.map_batches(partial, batch_format="pandas"), "o_custkey", "n_orders")
    top = _topk_blocks(agg, 20, ["n_orders", "o_custkey"], [False, True])
    top["n_orders"] = top["n_orders"].astype("int64")
    return top


ORDERS_TOPK_SQL = """
SELECT o_custkey, count(*) AS n_orders
FROM orders
GROUP BY o_custkey
ORDER BY n_orders DESC, o_custkey
LIMIT 20
"""


def filter_highvalue_orders(sf_dir: str):
    """Filter + projection with predicate applied as an Arrow filter."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["o_totalprice"], 400000.0)),
        batch_format="pyarrow",
    )


FILTER_SQL = """
SELECT o_orderkey, o_custkey, o_totalprice
FROM orders WHERE o_totalprice > 400000.0
"""


# ---------------------------------------------------------------------------
# Events: windowed aggregates
# ---------------------------------------------------------------------------

def events_tumbling(sf_dir: str):
    from .functions.windows import tumbling_window

    ds = _read(sf_dir, "events", ["event_id", "ts", "event_type", "value"])
    # value in exact int cents before the window partials (see rev_c4)
    partials = ds.map_batches(
        lambda df: tumbling_window(
            df.assign(value=np.rint(df["value"].to_numpy() * 100).astype(np.int64)), 60),
        batch_format="pandas")
    df = _reduce_small(partials, ["event_type", "window_start"], ["n_events", "sum_value"])
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_value"] = round_half_away(df["sum_value"] / 100.0, 2)
    return df


EVENTS_TUMBLING_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(*) AS n_events,
       round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 2) AS sum_value
FROM events GROUP BY 1, 2
"""


def events_window_distinct_users(sf_dir: str):
    """EXACT windowed COUNT DISTINCT — per (event_type, hour window)
    distinct-user counts, the engagement metric every event pipeline
    needs (the approximate 100-TB companion is an HLL per window, see
    hll_distinct_tokens for the sketch; this is the exact path).

    Scale shape: per-batch DISTINCT (event_type, window, user) combiner
    (each batch emits each triple once) -> ONE coarse exchange keyed on
    (window, user), so every occurrence of a triple meets in one
    partition and dedups VECTORIZED (drop_duplicates — never one native
    group per distinct triple, which is near-fact-cardinality) ->
    per-partition partial counts per (event_type, window) — partitions
    hold disjoint (window, user) sets, so partial counts sum exactly ->
    tiny driver reduce over |event_types| x |windows| rows."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": df["event_type"].to_numpy(),
            "window_start": df["ts"].dt.floor("h"),
            "user_id": df["user_id"].to_numpy(),
        }).drop_duplicates()

    def dedup_count(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(subset=["event_type", "window_start", "user_id"])
        out = d.groupby(["event_type", "window_start"], as_index=False).size()
        return out.rename(columns={"size": "n_users"})

    parts = _exchange(ds.map_batches(partial, batch_format="pandas"),
                      ["window_start", "user_id"], dedup_count)
    out = _reduce_small(parts, ["event_type", "window_start"], ["n_users"])
    out["n_users"] = out["n_users"].astype("int64")
    return out


EVENTS_WINDOW_DISTINCT_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
       count(DISTINCT user_id) AS n_users
FROM events GROUP BY 1, 2
"""


def events_sessionize(sf_dir: str):
    """Session windows (30-min gap): events are shuffled on a COARSE
    partition of user_id (all of a user's events land in one partition),
    then sessionized vectorized across every user in the partition — one
    Python call per partition, not per user (scale pattern: the per-group
    map_groups alternative is one Python invocation per user_id)."""
    from .functions.windows import sessionize_partition

    def cents(df: pd.DataFrame) -> pd.DataFrame:
        # value in exact int cents so session sums are order-independent
        return df.assign(value=np.rint(df["value"].to_numpy() * 100).astype(np.int64))

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    out = _exchange(ds.map_batches(cents, batch_format="pandas"), "user_id",
                    lambda g: sessionize_partition(g, 30))

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        from .numeric import round_half_away as _rha

        df["n_events"] = df["n_events"].astype("int64")
        df["sum_value"] = _rha(df["sum_value"] / 100.0, 2)
        return df

    return out.map_batches(finalize, batch_format="pandas")


EVENTS_SESSION_SQL = """
WITH flagged AS (
  SELECT user_id, event_id, ts, value,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_session
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), numbered AS (
  SELECT *, sum(new_session) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                   ROWS UNBOUNDED PRECEDING) AS session_idx
  FROM flagged
)
SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_events,
       round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 2) AS sum_value
FROM numbered GROUP BY user_id, session_idx
"""


def events_asof_join(sf_dir: str):
    """AS-OF JOIN — a custom operator Ray Data has no primitive for: each
    purchase event matched to the SAME USER's most recent click at or
    before it (classic last-touch attribution).

    Partitioning assumption (documented, required): the as-of condition
    carries a user_id equality, so both sides shuffle once on the coarse
    exchange of user_id and the time-nearest match is resolved vectorized
    inside each partition with pandas merge_asof(by=user_id,
    direction=backward) over ts-sorted frames — one Python call per
    partition. Without an equality key an as-of join needs a range
    repartition on ts with boundary replication instead.

    Output is tie-safe for the value hash: click_ts (not click row id) is
    emitted, so concurrent equal-ts clicks cannot produce a
    nondeterministic hash, and the gap is exact integer microseconds.
    """

    def purchases_and_clicks(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["event_type"].isin(["purchase", "click"])]

    def asof_partition(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({
            "purchase_id": pd.Series(dtype="int64"), "user_id": pd.Series(dtype="int64"),
            "purchase_ts": pd.Series(dtype="datetime64[us]"),
            "click_ts": pd.Series(dtype="datetime64[us]"),
            "gap_us": pd.Series(dtype="int64")})
        left = g[g["event_type"] == "purchase"].sort_values(["ts", "event_id"])
        right = g[g["event_type"] == "click"].sort_values(["ts", "event_id"])
        if len(left) == 0 or len(right) == 0:
            return empty
        m = pd.merge_asof(
            left[["event_id", "user_id", "ts"]].rename(columns={"event_id": "purchase_id"}),
            right[["user_id", "ts"]].rename(columns={"ts": "click_ts"}),
            left_on="ts", right_on="click_ts", by="user_id", direction="backward",
        )
        m = m[m["click_ts"].notna()]
        if len(m) == 0:
            return empty
        out = pd.DataFrame({
            "purchase_id": m["purchase_id"].astype("int64"),
            "user_id": m["user_id"].astype("int64"),
            "purchase_ts": m["ts"].astype("datetime64[us]"),
            "click_ts": m["click_ts"].astype("datetime64[us]"),
            "gap_us": (m["ts"].values.astype("datetime64[us]").astype("int64")
                       - m["click_ts"].values.astype("datetime64[us]").astype("int64")),
        })
        return out

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return _exchange(ds.map_batches(purchases_and_clicks, batch_format="pandas"),
                     "user_id", asof_partition)


EVENTS_ASOF_SQL = """
SELECT p.event_id AS purchase_id, p.user_id, p.ts AS purchase_ts,
       c.ts AS click_ts,
       date_diff('microsecond', c.ts, p.ts) AS gap_us
FROM (SELECT * FROM events WHERE event_type = 'purchase') p
ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c
  ON p.user_id = c.user_id AND p.ts >= c.ts
"""


def parts_price_band_join(sf_dir: str):
    """Broadcast RANGE JOIN: every part matched to the price band whose
    [lo, hi) interval contains p_retailprice, then count + int-cent avg
    per band. The small side (4 bands) never shuffles: with sorted,
    non-overlapping intervals the range condition is one vectorized
    np.searchsorted per batch (the documented assumption; overlapping
    intervals would need an interval-index broadcast instead). The only
    exchange is the 4-row partial-aggregate reduce."""
    bands = [("budget", 900.0, 925.0), ("mid", 925.0, 950.0),
             ("premium", 950.0, 975.0), ("luxury", 975.0, 1000.0)]
    lows = np.array([b[1] for b in bands])
    labels = np.array([b[0] for b in bands], dtype=object)

    highs = np.array([b[2] for b in bands])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        price = df["p_retailprice"].to_numpy()
        idx = np.searchsorted(lows, price, side="right") - 1
        # inner-join semantics like the oracle: prices outside every
        # [lo, hi) band are DROPPED (idx -1 would otherwise wrap to the
        # last label; idx 3 would swallow prices above the last hi)
        ok = (idx >= 0) & (price < highs[np.clip(idx, 0, len(highs) - 1)])
        price, idx = price[ok], idx[ok]
        cents = np.rint(price * 100).astype(np.int64)
        g = pd.DataFrame({"band": labels[idx], "cents": cents})
        agg = g.groupby("band", sort=False).agg(
            n_parts=("cents", "size"), sum_cents=("cents", "sum")).reset_index()
        return agg

    ds = _read(sf_dir, "part", ["p_retailprice"])
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()  # bands x batches rows
    out = parts.groupby("band", sort=False).agg(
        n_parts=("n_parts", "sum"), sum_cents=("sum_cents", "sum")).reset_index()
    out["avg_price"] = round_half_away(
        out["sum_cents"].to_numpy(np.float64) / out["n_parts"].to_numpy(np.float64) / 100, 2)
    out["n_parts"] = out["n_parts"].astype("int64")
    return out[["band", "n_parts", "avg_price"]].sort_values("band").reset_index(drop=True)


PARTS_PRICE_BAND_SQL = """
WITH bands(band, lo, hi) AS (
  VALUES ('budget', 900.0, 925.0), ('mid', 925.0, 950.0),
         ('premium', 950.0, 975.0), ('luxury', 975.0, 1000.0)
)
SELECT band, count(*) AS n_parts,
       round(sum(CAST(round(p_retailprice * 100) AS BIGINT)) * 1.0
             / count(*) / 100, 2) AS avg_price
FROM part JOIN bands ON p_retailprice >= lo AND p_retailprice < hi
GROUP BY band ORDER BY band
"""


def token_percentiles_by_source(sf_dir: str):
    """Exact distributed percentiles (p50/p90/p99 of per-doc token count,
    grouped by source) via the HISTOGRAM COMBINER pattern: each batch
    emits (source, n_tokens) -> count partials (bounded by sources x
    distinct counts, tiny vs row count), the merged histogram's
    cumulative sum yields exact discrete quantiles — no global sort, no
    per-group value collection. Quantile rule mirrors DuckDB
    quantile_disc: sorted_values[ceil(q*n) - 1]."""
    from .functions.text_analysis import token_count

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        t = token_count(df)
        g = (pd.DataFrame({"source": df["source"].to_numpy(), "n_tokens": t["n_tokens"]})
             .groupby(["source", "n_tokens"], sort=False).size()
             .rename("n").reset_index())
        return g

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    hist = (
        ds.map_batches(partial, batch_format="pandas").to_pandas()  # histogram-sized
        .groupby(["source", "n_tokens"], sort=True)["n"].sum().reset_index()
    )

    rows = []
    for source, g in hist.groupby("source", sort=True):
        vals = g["n_tokens"].to_numpy()
        cnts = g["n"].to_numpy()
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        qs = {}
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            idx = int(np.ceil(q * n)) - 1  # DuckDB quantile_disc rule
            qs[name] = int(vals[np.searchsorted(cum, idx, side="right")])
        rows.append((source, n, qs["p50"], qs["p90"], qs["p99"]))
    return pd.DataFrame(rows, columns=["source", "n_docs", "p50", "p90", "p99"])


TOKEN_PCTL_SQL = r"""
WITH t AS (
  SELECT source,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
  FROM documents
)
SELECT source, count(*) AS n_docs,
       quantile_disc(n_tokens, 0.5) AS p50,
       quantile_disc(n_tokens, 0.9) AS p90,
       quantile_disc(n_tokens, 0.99) AS p99
FROM t GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
# Documents: text analysis / dedup / explode-regroup
# ---------------------------------------------------------------------------

def token_counts(sf_dir: str):
    from .functions.text_analysis import token_count

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: token_count(df)[["doc_id", "n_tokens"]], batch_format="pandas"
    )


TOKEN_COUNTS_SQL = r"""
SELECT doc_id,
       CASE WHEN trim(text) = '' THEN 0
            ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
FROM documents
"""


def quality_scores(sf_dir: str):
    from .functions.text_analysis import quality_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cols = ["doc_id", "n_chars_m", "alpha_ratio", "digit_ratio", "punct_ratio", "space_ratio"]
    return ds.map_batches(lambda df: quality_score(df)[cols], batch_format="pandas")


QUALITY_SQL = r"""
SELECT doc_id,
       length(text) AS n_chars_m,
       round((length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g'))) * 1.0
             / greatest(length(text), 1), 6) AS alpha_ratio,
       round((length(text) - length(regexp_replace(text, '[0-9]', '', 'g'))) * 1.0
             / greatest(length(text), 1), 6) AS digit_ratio,
       round((length(text) - length(regexp_replace(text, '[^\w\s]', '', 'g'))) * 1.0
             / greatest(length(text), 1), 6) AS punct_ratio,
       round((length(text) - length(regexp_replace(text, '\s', '', 'g'))) * 1.0
             / greatest(length(text), 1), 6) AS space_ratio
FROM documents
"""


def _docid_range(sf_dir: str) -> tuple[int, int]:
    """(min, max) doc_id from parquet ROW-GROUP STATISTICS — zero data
    read. Falls back to a streaming aggregate over the narrow id column if
    any row group lacks stats."""
    import pyarrow.parquet as pq

    f = pq.ParquetFile(_p(sf_dir, "documents"))
    idx = f.schema_arrow.get_field_index("doc_id")
    lo, hi = None, None
    for rg in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            lo = None
            break
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is not None:
        return int(lo), int(hi)
    from ray.data.aggregate import Max, Min

    mm = _read(sf_dir, "documents", ["doc_id"]).aggregate(Min("doc_id"), Max("doc_id"))
    return int(mm["min(doc_id)"]), int(mm["max(doc_id)"])


def pack_sequences(sf_dir: str, budget: int = 2048, n_buckets: int = 32):
    """Sequence packing for pretraining: documents are concatenated in
    doc_id order and chunked into fixed token-budget context windows;
    pack_id = the window index holding the doc's first token (the public
    GPT-style pack-and-chunk layout).

    The global cumulative token offset is a DISTRIBUTED PREFIX SUM:
      pass 1: per-batch vectorized token counts -> per-RANGE-bucket sums
              (n_buckets partial rows, driver reduce) -> exclusive prefix
              over n_buckets integers, captured by the pass-2 closure;
      pass 2: one keyed shuffle on the coarse range bucket, vectorized
              in-bucket cumsum + bucket offset (no per-doc Python).
    Driver state is n_buckets numbers; both passes stream. The range
    bucketing (monotone in doc_id) is what makes the per-bucket cumsum
    composable with the bucket offsets."""
    from .functions.text_analysis import token_count

    lo, hi = _docid_range(sf_dir)
    span = max((hi - lo + n_buckets) // n_buckets, 1)

    def tokens_and_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = token_count(df)[["doc_id", "n_tokens"]]
        df["bucket"] = ((df["doc_id"] - lo) // span).astype(np.int32)
        return df

    tok = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        tokens_and_bucket, batch_format="pandas"
    )

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("bucket", as_index=False, sort=False)["n_tokens"].sum()

    sums = _reduce_small(tok.map_batches(bucket_partial, batch_format="pandas"),
                         ["bucket"], ["n_tokens"])
    sums = sums.sort_values("bucket")
    offsets = dict(zip(
        sums["bucket"].to_numpy(),
        np.concatenate([[0], sums["n_tokens"].to_numpy()[:-1].cumsum()]),
    ))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        start = (g["n_tokens"].cumsum() - g["n_tokens"]
                 + int(offsets.get(int(g["bucket"].iloc[0]), 0)))
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(),
            "n_tokens": g["n_tokens"].astype("int64").to_numpy(),
            "start_offset": start.astype("int64").to_numpy(),
            "pack_id": (start // budget).astype("int64").to_numpy(),
        })

    return tok.groupby("bucket").map_groups(per_bucket, batch_format="pandas")


PACK_SEQUENCES_SQL = r"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS n_tokens
  FROM documents
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
         AS start_offset,
       CAST(COALESCE(sum(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 2048 AS BIGINT)
         AS pack_id
FROM t
"""


def repetition_scores(sf_dir: str):
    """Gopher-style repetition quality metrics per document (duplicate-word
    ratio + top-bigram occupancy), vectorized per batch — no shuffle."""
    from .functions.text_analysis import repetition_score

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    cols = ["doc_id", "n_words", "n_distinct", "dup_word_ratio", "top_bigram_ratio"]
    return ds.map_batches(lambda df: repetition_score(df)[cols], batch_format="pandas")


REPETITION_SQL = r"""
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word,
         generate_subscripts(string_split(text, ' '), 1) AS pos
  FROM documents
), stats AS (
  SELECT doc_id, count(*) AS n_words, count(DISTINCT word) AS n_distinct
  FROM w GROUP BY doc_id
), bgcount AS (
  SELECT a.doc_id, a.word || ' ' || b.word AS bigram, count(*) AS c
  FROM w a JOIN w b ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
  GROUP BY a.doc_id, bigram
), bgtop AS (
  SELECT doc_id, max(c) AS top_c, sum(c) AS n_bigrams FROM bgcount GROUP BY doc_id
)
SELECT s.doc_id, s.n_words, s.n_distinct,
       round(CASE WHEN s.n_words > 0 THEN 1.0 - s.n_distinct / s.n_words ELSE 0.0 END, 6)
         AS dup_word_ratio,
       round(COALESCE(t.top_c * 1.0 / t.n_bigrams, 0.0), 6) AS top_bigram_ratio
FROM stats s LEFT JOIN bgtop t ON s.doc_id = t.doc_id
"""


def word_topk(sf_dir: str):
    """Global token frequency top-20: the word histogram (per-batch
    value_counts partials -> `_keyed_sum` on word) -> per-block top-k ->
    driver merge (tiny)."""
    top = _topk_blocks(_word_histogram(sf_dir), 20, ["n", "word"], [False, True])
    top["n"] = top["n"].astype("int64")
    return top


WORD_TOPK_SQL = r"""
SELECT word, count(*) AS n FROM (
  SELECT unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents
) WHERE word <> ''
GROUP BY word ORDER BY n DESC, word LIMIT 20
"""


def train_test_split(sf_dir: str):
    """Deterministic hash split (80/10/10 train/val/test): the standard
    training-data assignment at corpus scale — a pure map over doc_id
    (md5-bucket mod 100), no shuffle, no state, stable under resharding
    and across runs. Oracle-parity via md5_number_lower."""
    from .functions.dedup import md5_buckets

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        # hash the decimal rendering: doc_id is int64, DuckDB side casts
        # to VARCHAR the same way
        b = md5_buckets(df["doc_id"], 100)
        split = np.where(b < 80, "train", np.where(b < 90, "val", "test"))
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(), "split": split})

    ds = _read(sf_dir, "documents", ["doc_id"])
    return ds.map_batches(assign, batch_format="pandas")


TRAIN_SPLIT_SQL = """
SELECT doc_id,
       CASE WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 80 THEN 'train'
            WHEN md5_number_lower(CAST(doc_id AS VARCHAR)) % 100 < 90 THEN 'val'
            ELSE 'test' END AS split
FROM documents
"""


def dedup_exact(sf_dir: str):
    """Exact dedup: content-hash in map_batches -> the coarse exchange on
    the hash (one Python call per partition, not per distinct document)
    -> vectorized in-partition groupby on the exact normalized text
    (collision-proof), keep min(doc_id)."""
    from .functions.dedup import _norm_text, content_hash

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(content_hash, batch_format="pandas")

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            g.assign(_norm=_norm_text(g["text"]))
            .groupby("_norm", as_index=False, sort=False)
            .agg(doc_id=("doc_id", "min"), n_dups=("doc_id", "count"))
        )
        return out[["doc_id", "n_dups"]]

    out = _exchange(hashed, "content_hash", per_part)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["n_dups"] = df["n_dups"].astype("int64")
        return df

    return out.map_batches(finalize, batch_format="pandas")


DEDUP_EXACT_SQL = r"""
SELECT min(doc_id) AS doc_id, count(*) AS n_dups
FROM documents
GROUP BY lower(regexp_replace(trim(text), '\s+', ' ', 'g'))
"""


def span_roundtrip(sf_dir: str):
    """Explode -> filter -> shuffle-regroup -> ordered rejoin: the
    sequence-reconstruction machinery with a SQL-checkable oracle."""
    def explode(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        words = df["text"].fillna("").str.split(" ")
        n = words.str.len().to_numpy()
        doc = np.repeat(df["doc_id"].to_numpy(), n)
        pos = np.concatenate([np.arange(k) for k in n]) if len(n) else np.array([], dtype=np.int64)
        w = np.concatenate([np.asarray(x, dtype=object) for x in words]) if len(n) else np.array([], dtype=object)
        return pa.table(
            {"doc_id": pa.array(doc), "pos": pa.array(pos, pa.int64()),
             "word": pa.array(w, pa.string())}
        )

    def keep_long(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(pc.utf8_length(t["word"]), 3))

    def regroup(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["doc_id", "pos"])
        g = df.groupby("doc_id", sort=True)["word"].agg(" ".join)
        return pa.table({"doc_id": g.index.to_numpy(), "text_kept": g.to_numpy()})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    ds = ds.map_batches(explode, batch_format="pyarrow")
    ds = ds.map_batches(keep_long, batch_format="pyarrow")
    return _exchange(ds, "doc_id", regroup, batch_format="pyarrow")


SPAN_ROUNDTRIP_SQL = """
SELECT doc_id,
       array_to_string(list_filter(string_split(text, ' '), x -> len(x) > 3), ' ') AS text_kept
FROM documents
WHERE len(list_filter(string_split(text, ' '), x -> len(x) > 3)) > 0
"""


def boilerplate_strip_docs(sf_dir: str):
    """Whitespace-normalization strip over the flat documents table (the
    text-span path of the flagship, SQL-checkable here): the flagship's
    Arrow kernels over each batch."""
    from .textproc import strip_boilerplate_arrow

    def run(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "clean_text": strip_boilerplate_arrow(t["text"])})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(run, batch_format="pyarrow")


# testdata docs are single-line and boilerplate-free, so the strip reduces to
# exact whitespace normalization — still the same code path as the flagship.
BOILERPLATE_SQL = r"""
SELECT doc_id, trim(regexp_replace(text, '[ \t\r\f\v]+', ' ', 'g')) AS clean_text
FROM documents
"""


# ---------------------------------------------------------------------------
# Embeddings: similarity search
# ---------------------------------------------------------------------------

def _lowest_vec_ids(sf_dir: str, n: int) -> pd.DataFrame:
    """The n lowest-vec_id embedding rows (vec_id, embedding), in vec_id
    order, WITHOUT a full-table driver read: scan only the narrow vec_id
    column to find the cutoff, then read embedding rows through a parquet
    row filter. vec_id order (not file order) makes the query set and the
    index fits' samples reproducible in SQL (ORDER BY vec_id LIMIT n). (In
    production the query set comes from the user; deriving it here keeps
    the benchmark self-contained.)"""
    import pyarrow.parquet as pq

    path = _p(sf_dir, "embeddings")
    ids = pq.read_table(path, columns=["vec_id"])["vec_id"].to_numpy()
    cutoff = int(np.sort(ids)[:n][-1])
    t = pq.read_table(path, columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<=", cutoff)])
    return t.to_pandas().sort_values("vec_id", ignore_index=True)


def _ann_search(sf_dir: str, query: str, index, k: int, n_queries: int, **fit):
    """The one search driver of the top-k ANN queries: the n_queries
    lowest-vec_id vectors are the queries, a concurrency=2 actor pool of
    functions.ann.TopkScorer(index, **fit) emits per-batch partial top-k
    rows, and a tiny driver reduce keeps the global top-k."""
    _require_cluster_cpus(query)
    from .functions.ann import TopkScorer, embedding_matrix, topk_reduce

    qdf = _lowest_vec_ids(sf_dir, n_queries)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    partials = ds.map_batches(
        TopkScorer,
        fn_constructor_kwargs={"ids": qdf["vec_id"].to_numpy(),
                               "matrix": embedding_matrix(qdf),
                               "index": index, "k": k, **fit},
        batch_format="pandas",
        concurrency=2,
    )
    return topk_reduce(partials.to_pandas(), k)


def ann_topk(sf_dir: str, k: int = 10, n_queries: int = 5):
    """Brute-force cosine top-k: every vector scored against the query
    matrix, per-batch partials, tiny final reduce."""
    from .functions.ann import brute_scores

    return _ann_search(sf_dir, "ann_topk", brute_scores, k, n_queries)


ANN_TOPK_SQL = """
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5
), scored AS (
  -- CAST to DOUBLE[]: list_cosine_similarity on FLOAT[] returns float32,
  -- which hash-mismatches the float64 Ray side on every row.
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                      CAST(e.embedding AS DOUBLE[])), 6) AS score
  FROM q CROSS JOIN embeddings e
)
SELECT query_id, vec_id, score FROM scored
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) <= 10
"""


def embedding_label_norms(sf_dir: str):
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
        norms = np.sqrt((m * m).sum(axis=1))
        g = pd.DataFrame({"label": df["label"].to_numpy(), "s": norms, "n": 1}).groupby(
            "label", as_index=False, sort=False
        ).agg(s=("s", "sum"), n=("n", "sum"))
        return g

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])
    df = _reduce_small(ds.map_batches(partial, batch_format="pandas"), ["label"], ["s", "n"])
    return pd.DataFrame(
        {
            "label": df["label"].astype("int32"),
            "n_vecs": df["n"].astype("int64"),
            "avg_norm": round_half_away(df["s"] / df["n"], 6),
        }
    )


EMB_NORMS_SQL = """
SELECT label, count(*) AS n_vecs,
       round(avg(sqrt(list_aggregate(list_transform(embedding,
             x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)), 'sum'))), 6) AS avg_norm
FROM embeddings GROUP BY label
"""


# ---------------------------------------------------------------------------
# Rows-only (non-SQL-expressible) operators
# ---------------------------------------------------------------------------

def lang_id(sf_dir: str):
    from .functions.text_analysis import LangId
    from .stages.media import cached_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    # cheap stateful stage -> tasks with a per-worker cached instance
    # (elastic parallelism, no actor-pool spawn cost; see cached_stage)
    return ds.map_batches(
        cached_stage(LangId), batch_format="pandas"
    ).select_columns(["doc_id", "pred_lang", "lang_score"])


def _lang_in_list(code: str) -> str:
    from .functions.text_analysis import LANG_PROFILES

    return ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[code]))


# Stopword-vote language ID in SQL: per-language stopword-token fraction,
# first-max tie order de < en < es < fr, 'und' below min_score 0.03.
# Same token split (trim + lower + \s+) and same count/len division as
# LangId, so scores are bit-identical before the shared round(6).
def _lang_id_sql() -> str:
    return rf"""
WITH t AS (
  SELECT doc_id,
         CASE WHEN trim(text) = '' THEN []
              ELSE regexp_split_to_array(trim(lower(text)), '\s+') END AS toks
  FROM documents
), s AS (
  SELECT doc_id, len(toks) AS n,
         len(list_filter(toks, x -> x IN ({_lang_in_list('de')}))) AS c_de,
         len(list_filter(toks, x -> x IN ({_lang_in_list('en')}))) AS c_en,
         len(list_filter(toks, x -> x IN ({_lang_in_list('es')}))) AS c_es,
         len(list_filter(toks, x -> x IN ({_lang_in_list('fr')}))) AS c_fr
  FROM t
)
SELECT doc_id,
       CASE WHEN n = 0 OR greatest(c_de, c_en, c_es, c_fr) * 1.0 / greatest(n, 1) < 0.03 THEN 'und'
            WHEN c_de >= c_en AND c_de >= c_es AND c_de >= c_fr THEN 'de'
            WHEN c_en >= c_es AND c_en >= c_fr THEN 'en'
            WHEN c_es >= c_fr THEN 'es'
            ELSE 'fr' END AS pred_lang,
       round(greatest(c_de, c_en, c_es, c_fr) * 1.0 / greatest(n, 1), 6) AS lang_score
FROM s
"""


LANG_ID_SQL = _lang_id_sql()


def fingerprints(sf_dir: str):
    from .functions.text_analysis import fingerprint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda df: fingerprint(df)[["doc_id", "fp_full", "fp_min_shingle"]],
        batch_format="pandas",
    )


# md5-parity oracle: md5_number_lower == Python md5 digest bytes 8..16
# little-endian (verified), so the winnowing min and whole-text hash are
# bit-identical. substr is char-based on both sides.
FINGERPRINTS_SQL = r"""
WITH t AS (
  SELECT doc_id, trim(regexp_replace(text, '\s+', ' ', 'g')) AS txt FROM documents
), g AS (
  SELECT doc_id, min(md5_number_lower(substr(txt, CAST(i AS INT), 8)) >> 1) AS fp_min
  FROM (SELECT doc_id, txt, unnest(range(1, greatest(length(txt) - 7, 1) + 1)) AS i FROM t)
  GROUP BY doc_id
)
SELECT t.doc_id,
       CAST(md5_number_lower(t.txt) >> 1 AS BIGINT) AS fp_full,
       CAST(g.fp_min AS BIGINT) AS fp_min_shingle
FROM t JOIN g USING (doc_id)
"""


def minhash_bands(sf_dir: str):
    """MinHash-LSH banding: signature per doc (actor pool), exploded to
    (doc_id, band, band_hash) rows — the groupby on (band, band_hash) then
    yields candidate duplicate pairs."""
    from .functions.dedup import MinHasher
    from .stages.media import cached_stage

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(cached_stage(MinHasher), batch_format="pandas")


def minhash_dup_pairs(sf_dir: str, threshold: float = 0.8,
                      max_candidates: int = 5_000_000):
    """Full near-dup flow: bands -> bucket groupby -> candidate pairs ->
    exact n-gram Jaccard verification.

    Scale shape: NOTHING document-sized touches the driver. Candidate
    generation shuffles on a COARSE partition of the bucket key (one
    Python call per partition, a vectorized self-merge per bucket inside
    — never one call per distinct (band, band_hash), which is a
    corpus-cardinality key; same shape as ngram_jaccard_dup_pairs).
    Candidate ids (bounded by the duplicate count, not the corpus) are
    broadcast; the documents stream is filtered to candidates and shingled
    inside map_batches; the (id -> shingle set) table — again
    candidate-sized — is broadcast back and each candidate-pair batch
    verifies vectorized.

    The "duplicate-bounded" premise is ADVERSARIALLY BOUNDED, not assumed
    (no-silent-caps rule): a dup-heavy corpus (one giant near-dup cluster
    of size s yields s(s-1)/2 candidates — corpus-QUADRATIC) would make
    the candidate collect driver-fatal, so the materialized candidate
    count is checked first and past `max_candidates` the query refuses
    LOUDLY, naming the levers (cluster-capping via minhash_dup_clusters'
    representative semantics, a higher threshold/band config, or a raised
    gate). Verified by the dup-heavy stress test in
    tests/test_curation_edge.py.
    """
    import ray

    from .functions.dedup import MinHasher, _norm_text, jaccard, shingle_set

    empty_cand = pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                               "doc_b": pd.Series(dtype="int64")})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized in-partition self-merge on the bucket key; a pair that
        # collides in several buckets of this partition dedups here, cross-
        # partition repeats dedup in the candidate-bounded driver step
        m = g.merge(g, on=["band", "band_hash"])
        keep = m["doc_id_x"].to_numpy() < m["doc_id_y"].to_numpy()
        m = m.loc[keep, ["doc_id_x", "doc_id_y"]].drop_duplicates()
        if len(m) == 0:
            return empty_cand
        return m.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})

    empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                          "doc_b": pd.Series(dtype="int64"),
                          "jaccard": pd.Series(dtype="float64")})
    cand_ds = (_exchange(minhash_bands(sf_dir), ["band", "band_hash"], bucket_pairs)
               .materialize())  # count + collect without re-running the shuffle
    n_cand = cand_ds.count()
    if n_cand > max_candidates:
        raise ValueError(
            f"minhash_dup_pairs: candidate set has {n_cand} pairs > "
            f"max_candidates={max_candidates} — the corpus is dup-heavy "
            f"enough that candidates are no longer duplicate-bounded "
            f"(a near-dup cluster of size s emits s(s-1)/2 pairs). Use "
            f"minhash_dup_clusters (representative semantics, linear in "
            f"cluster size), tighten the band config / threshold, or raise "
            f"max_candidates if the driver budget allows it.")
    logging.getLogger(__name__).info(
        "minhash_dup_pairs: %d candidate pairs (cap %d)", n_cand, max_candidates)
    # candidate pairs are duplicate-bounded (gate-checked); dedup across bands
    cand = cand_ds.to_pandas().drop_duplicates()
    if len(cand) == 0:
        return empty
    need_ref = ray.put(set(cand["doc_a"]) | set(cand["doc_b"]))
    ngram = MinHasher().ngram

    def shingle_candidates(df: pd.DataFrame) -> pd.DataFrame:
        ids = ray.get(need_ref)
        sub = df[df["doc_id"].isin(ids)]
        return pd.DataFrame({
            "doc_id": sub["doc_id"].to_numpy(),
            "shingles": [shingle_set(t, ngram) for t in _norm_text(sub["text"])],
        })

    sh_df = (
        _read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(shingle_candidates, batch_format="pandas")
        .to_pandas()  # candidate-sized, not corpus-sized
    )
    sh_ref = ray.put(dict(zip(sh_df["doc_id"], sh_df["shingles"])))

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        sh = ray.get(sh_ref)
        jac = round_half_away(
            np.asarray([jaccard(sh[a], sh[b]) for a, b in zip(df["doc_a"], df["doc_b"])]), 6
        )
        out = df.assign(jaccard=jac)
        return out[out["jaccard"] >= threshold]

    import ray.data

    verified = ray.data.from_pandas(cand).map_batches(verify, batch_format="pandas").to_pandas()
    if len(verified) == 0:
        return empty
    return verified.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# Oracle: the exact jaccard >= threshold pair set. Parity with the LSH
# pipeline verified empirically: at sf0.001 and sf0.01 the band-candidate
# set equals the exact pair set (recall 28/28 and 25/25) with the fixed
# signer seed; the banding config (16 bands x 4 rows) catches a j=0.8 pair
# with p = 1-(1-0.8^4)^16 ~ 0.9998.
MINHASH_PAIRS_SQL = r"""
WITH g AS (
  SELECT doc_id,
         CASE WHEN n = '' THEN []
              WHEN len(string_split(n, ' ')) < 3 THEN [n]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(string_split(n, ' ')) - 2),
                     i -> string_split(n, ' ')[i] || ' ' ||
                          string_split(n, ' ')[i+1] || ' ' ||
                          string_split(n, ' ')[i+2]))
         END AS grams
  FROM (SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS n
        FROM documents)
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       round(CASE WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                  ELSE len(list_intersect(a.grams, b.grams)) * 1.0 /
                       (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)))
             END, 6) AS jaccard
FROM g a JOIN g b ON a.doc_id < b.doc_id
WHERE round(CASE WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                 ELSE len(list_intersect(a.grams, b.grams)) * 1.0 /
                      (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)))
            END, 6) >= 0.8
"""


def ngram_jaccard_dup_pairs(sf_dir: str, threshold: float = 0.8):
    """EXACT n-gram Jaccard near-dup pairs via a distributed shingle
    inverted index — no MinHash approximation anywhere (contrast
    minhash_dup_pairs, which uses LSH banding for candidates).

    Shape (all-exchange keys are narrow ints, payloads never shuffle):
      map_batches: doc -> unique word-3-gram crc32 shingles, exploded to
        (shingle, doc_id, n) rows where n = |doc's shingle set|;
      `_exchange` on shingle (one Python call per PARTITION, not per
        distinct shingle): vectorized in-partition self-merge on shingle
        -> per-pair partial intersection counts (doc_a < doc_b), pruned by
        the exact size-ratio bound jaccard <= min(na,nb) / max(na,nb) <
        threshold (kills almost every coincidental pair BEFORE the pair
        exchange, losslessly);
      `_exchange` on (doc_a, doc_b): a vectorized in-partition groupby —
        NOT a native groupby on the ~|pairs|-cardinality key (that is the
        measured 100s-class trap on this box) — summing partial
        intersections and finishing jaccard = inter / (na + nb - inter).

    Shingle-less (empty-text) docs carry a reserved sentinel shingle so
    empty pairs score jaccard 1.0, matching the oracle's convention.
    """
    from .functions.dedup import _norm_text, shingle_set

    def explode_shingles(df: pd.DataFrame) -> pd.DataFrame:
        ids, shingles = [], []
        for doc_id, t in zip(df["doc_id"], _norm_text(df["text"])):
            s = shingle_set(t, 3)
            if len(s) == 0:
                s = np.array([-1], dtype=np.int64)  # sentinel: empty doc
            ids.append(np.full(len(s), doc_id, dtype=np.int64))
            shingles.append(s)
        counts = np.fromiter((len(s) for s in shingles), dtype=np.int64, count=len(shingles))
        ids = np.concatenate(ids) if ids else np.zeros(0, np.int64)
        sh = np.concatenate(shingles) if shingles else np.zeros(0, np.int64)
        return pd.DataFrame({
            "shingle": sh,
            "doc_id": ids,
            "n": np.repeat(counts, counts),
        })

    empty_partial = pd.DataFrame({
        "doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
        "inter": pd.Series(dtype="int64"),
        "na": pd.Series(dtype="int64"), "nb": pd.Series(dtype="int64")})

    def partial_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.merge(g, on="shingle", suffixes=("_a", "_b"))
        na = m["n_a"].to_numpy()
        nb = m["n_b"].to_numpy()
        # doc_a < doc_b dedup + size-ratio prune: jaccard <= min/max. The
        # bound is compared through the SAME round(6) the final filter
        # (and the oracle) applies, so a boundary pair whose ratio rounds
        # up to the threshold is never pruned — keeps the prune lossless.
        ratio = round_half_away(np.minimum(na, nb) / np.maximum(na, nb), 6)
        keep = (m["doc_id_a"].to_numpy() < m["doc_id_b"].to_numpy()) & (ratio >= threshold)
        m = m[keep]
        if len(m) == 0:
            return empty_partial
        return (m.groupby(["doc_id_a", "doc_id_b"], sort=False)
                 .agg(inter=("shingle", "size"), na=("n_a", "first"), nb=("n_b", "first"))
                 .reset_index()
                 .rename(columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"}))

    def reduce_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64"),
                              "jaccard": pd.Series(dtype="float64")})
        if len(g) == 0:
            return empty
        t = (g.groupby(["doc_a", "doc_b"], sort=False)
              .agg(inter=("inter", "sum"), na=("na", "max"), nb=("nb", "max"))
              .reset_index())
        inter = t["inter"].to_numpy(dtype=np.float64)
        union = t["na"].to_numpy(dtype=np.float64) + t["nb"].to_numpy(dtype=np.float64) - inter
        jac = round_half_away(inter / union, 6)
        out = pd.DataFrame({"doc_a": t["doc_a"].astype("int64"),
                            "doc_b": t["doc_b"].astype("int64"), "jaccard": jac})
        return out[out["jaccard"] >= threshold]

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = _exchange(ds.map_batches(explode_shingles, batch_format="pandas"),
                         "shingle", partial_pairs)
    out = _exchange(partials, ["doc_a", "doc_b"], reduce_pairs).to_pandas()  # dup-bounded
    return out.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


def simhash_buckets(sf_dir: str):
    from .functions.dedup import simhash_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(simhash_batch, batch_format="pandas", concurrency=2)


def simhash_dup_pairs(sf_dir: str, max_hamming: int = 3):
    """Rows-only: SimHash near-dup pairs end-to-end — signatures + quadrant
    keys in map_batches, candidate pairs from each quadrant bucket (the
    pigeonhole guarantee: Hamming <= 3 pairs share >= 1 of 4 quadrants),
    exact Hamming verify inside the bucket group. The shuffle key is a
    COARSE partition of the narrow (quad, value) bucket key — one Python
    call per partition with a vectorized self-merge per bucket inside,
    never one call per distinct quadrant value (same candidate-generation
    shape as minhash_dup_pairs / ngram_jaccard_dup_pairs); signatures ride
    along as int64."""
    from .functions.dedup import simhash_batch

    def explode_quads(df: pd.DataFrame) -> pd.DataFrame:
        sh = simhash_batch(df)
        frames = []
        for q in range(4):
            qval = sh[f"quad{q}"].to_numpy()
            frames.append(pd.DataFrame({
                "doc_id": sh["doc_id"], "simhash": sh["simhash"],
                "quad": np.int32(q), "qval": qval,
            }))
        return pd.concat(frames, ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                              "doc_b": pd.Series(dtype="int64"),
                              "hamming": pd.Series(dtype="int64")})
        if len(g) < 2:
            return empty
        m = g.merge(g, on=["quad", "qval"])
        keep = m["doc_id_x"].to_numpy() < m["doc_id_y"].to_numpy()
        m = m[keep]
        if len(m) == 0:
            return empty
        x = m["simhash_x"].to_numpy().astype(np.uint64) ^ m["simhash_y"].to_numpy().astype(np.uint64)
        # vectorized popcount via byte-view + unpackbits
        ham = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1).sum(axis=1)
        keep = ham <= max_hamming
        out = pd.DataFrame({"doc_a": m["doc_id_x"].to_numpy()[keep],
                            "doc_b": m["doc_id_y"].to_numpy()[keep],
                            "hamming": ham[keep].astype(np.int64)})
        return out.drop_duplicates(["doc_a", "doc_b"]) if len(out) else empty

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = _exchange(ds.map_batches(explode_quads, batch_format="pandas"),
                    ["quad", "qval"], pairs).to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_a": pd.Series(dtype="int64"),
                             "doc_b": pd.Series(dtype="int64"),
                             "hamming": pd.Series(dtype="int64")})
    return out.drop_duplicates(["doc_a", "doc_b"]).sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)


# Shared CTE fragment: distinct word-3-gram md5 hashes per doc, identical
# gram convention to shingle_hashes_md5 (whole text as one gram below 3
# words, empty text -> no rows).
_GRAM_HASH_CTE = r"""
t AS (
  SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS n FROM documents
), g AS (
  SELECT doc_id,
         CASE WHEN n = '' THEN []
              WHEN len(string_split(n, ' ')) < 3 THEN [n]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(string_split(n, ' ')) - 2),
                     i -> string_split(n, ' ')[i] || ' ' ||
                          string_split(n, ' ')[i+1] || ' ' ||
                          string_split(n, ' ')[i+2]))
         END AS grams
  FROM t
), h AS (
  SELECT doc_id, md5_number_lower(unnest(grams)) AS h FROM g
)"""

# Per-bit votes over the md5 feature hashes -> signed 64-bit signature
# (bit 63 contributes -2^63 so the BIGINT equals numpy's uint64->int64
# reinterpretation) + 16-bit quadrant keys.
_SIMHASH_SIG_CTE = _GRAM_HASH_CTE + r""", bits AS (
  SELECT doc_id, b, sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM h, (SELECT unnest(range(64)) AS b)
  GROUP BY doc_id, b
), sig AS (
  SELECT doc_id,
         sum(CASE WHEN v > 0 THEN CASE WHEN b = 63 THEN -9223372036854775808
                                       ELSE (1::BIGINT << CAST(b AS INT)) END
                  ELSE 0 END)::BIGINT AS simhash,
         sum(CASE WHEN v > 0 AND b < 16 THEN (1::BIGINT << CAST(b AS INT)) ELSE 0 END)::BIGINT AS quad0,
         sum(CASE WHEN v > 0 AND b >= 16 AND b < 32 THEN (1::BIGINT << CAST(b - 16 AS INT)) ELSE 0 END)::BIGINT AS quad1,
         sum(CASE WHEN v > 0 AND b >= 32 AND b < 48 THEN (1::BIGINT << CAST(b - 32 AS INT)) ELSE 0 END)::BIGINT AS quad2,
         sum(CASE WHEN v > 0 AND b >= 48 THEN (1::BIGINT << CAST(b - 48 AS INT)) ELSE 0 END)::BIGINT AS quad3
  FROM bits GROUP BY doc_id
), full_sig AS (
  SELECT d.doc_id, coalesce(s.simhash, 0) AS simhash,
         coalesce(s.quad0, 0) AS quad0, coalesce(s.quad1, 0) AS quad1,
         coalesce(s.quad2, 0) AS quad2, coalesce(s.quad3, 0) AS quad3
  FROM documents d LEFT JOIN sig s USING (doc_id)
)"""

SIMHASH_BUCKETS_SQL = "WITH " + _SIMHASH_SIG_CTE + "\nSELECT * FROM full_sig"

# Exact-pairs oracle: every doc pair at Hamming <= 3 (bit_count of the
# two's-complement xor = popcount of the uint64 pattern). The Ray side's
# quadrant buckets have complete recall at <= 3 differing bits (pigeonhole
# over 4x16-bit quadrants), so the sets match exactly.
SIMHASH_PAIRS_SQL = "WITH " + _SIMHASH_SIG_CTE + r"""
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM full_sig a JOIN full_sig b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


def _minhash_bands_sql() -> str:
    """MINHASH_BANDS_SQL is generated so the oracle shares the EXACT seeded
    permutation constants with MinHasher (seed 7): a*h+b over HUGE-safe
    UBIGINT (h is the md5 hash >> 32, so products stay < 2^63), min per
    permutation, bands of 4 joined as decimal CSV and re-hashed with md5."""
    from .functions.dedup import _MERSENNE, MinHasher

    mh = MinHasher()
    perms = ", ".join(
        f"({p}, {int(a)}::UBIGINT, {int(b)}::UBIGINT)"
        for p, (a, b) in enumerate(zip(mh.a, mh.b))
    )
    empty_key = ",".join([str(_MERSENNE)] * mh.rows)
    return rf"""
WITH {_GRAM_HASH_CTE},
hd AS (SELECT DISTINCT doc_id, h >> 32 AS h FROM h),
perms(p, a, b) AS (VALUES {perms}),
sig AS (
  SELECT doc_id, p, min((a * h + b) % {_MERSENNE}::UBIGINT) AS mv
  FROM hd CROSS JOIN perms GROUP BY doc_id, p
),
bands AS (
  SELECT doc_id, CAST(p // {mh.rows} AS INT) AS band,
         string_agg(CAST(mv AS VARCHAR), ',' ORDER BY p) AS key
  FROM sig GROUP BY doc_id, p // {mh.rows}
),
empties AS (
  SELECT d.doc_id, CAST(b AS INT) AS band,
         CAST(md5_number_lower('{empty_key}') >> 1 AS BIGINT) AS band_hash
  FROM documents d, (SELECT unnest(range({mh.bands})) AS b)
  WHERE d.doc_id NOT IN (SELECT doc_id FROM hd)
)
SELECT doc_id, band, CAST(md5_number_lower(key) >> 1 AS BIGINT) AS band_hash FROM bands
UNION ALL SELECT * FROM empties
"""


MINHASH_BANDS_SQL = _minhash_bands_sql()


def ann_lsh_topk(sf_dir: str, k: int = 10, n_queries: int = 5, nbits: int = 8,
                 multiprobe: bool = False):
    """LSH-bucketed ANN: vectors bucketed by random hyperplanes; queries
    scored only against their own bucket (approximate, shuffle-free).
    multiprobe=True widens each query's probe set with every 1-bit-flip
    neighbour bucket (Lv et al. 2007) — the recall lever."""
    from .functions.ann import lsh_scores

    return _ann_search(sf_dir, "ann_lsh_topk", lsh_scores, k, n_queries,
                       nbits=nbits, multiprobe=multiprobe)


def _lsh_bucket_sql(col: str, nbits: int, dim: int = 64, seed: int = 11) -> str:
    """SQL expression mirroring HyperplaneLsh(dim, nbits, seed).bucket(v).

    The hyperplanes depend only on (seed, nbits, dim) — dim is a fixed
    corpus property (64 at every sf) — so the plane constants can be
    INLINED as literals into a static, sf-independent oracle. Bucket bits
    are signs of dot products, which are invariant under the positive
    per-vector normalization scaling, so raw-vs-normalized input yields
    identical buckets on both sides.
    """
    from .functions.ann import HyperplaneLsh

    planes = HyperplaneLsh(dim, nbits=nbits, seed=seed).planes
    terms = []
    for i, p in enumerate(planes):
        lit = "[" + ", ".join(repr(float(v)) for v in p) + "]::DOUBLE[]"
        terms.append(
            f"(CASE WHEN list_dot_product(CAST({col} AS DOUBLE[]), {lit}) > 0"
            f" THEN {1 << i} ELSE 0 END)"
        )
    return "(" + "\n + ".join(terms) + ")"


# Exact oracle for the LSH-bucketed ANN: candidates = vectors whose bucket is
# in the union of the 5 query buckets; score/rank identical to ANN_TOPK_SQL.
ANN_LSH_SQL = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5
), qb AS (
  SELECT DISTINCT {_lsh_bucket_sql('qe', 8)} AS bucket FROM q
), cand AS (
  SELECT vec_id, embedding FROM embeddings
  WHERE {_lsh_bucket_sql('embedding', 8)} IN (SELECT bucket FROM qb)
), scored AS (
  SELECT q.query_id, c.vec_id,
         round(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                      CAST(c.embedding AS DOUBLE[])), 6) AS score
  FROM q CROSS JOIN cand c
)
SELECT query_id, vec_id, score FROM scored
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) <= 10
"""

# Exact oracle for the LSH-bucketed near-dup path: pairs co-located in a
# 4-bit hyperplane bucket with round(cosine,6) >= threshold.
EMB_NEAR_DUP_LSH_SQL = f"""
WITH b AS (
  SELECT vec_id, embedding, {_lsh_bucket_sql('embedding', 4)} AS bucket
  FROM embeddings
)
SELECT x.vec_id AS vec_a, y.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                    CAST(y.embedding AS DOUBLE[])), 6) AS cosine
FROM b x JOIN b y ON x.bucket = y.bucket AND x.vec_id < y.vec_id
WHERE round(list_cosine_similarity(CAST(x.embedding AS DOUBLE[]),
                                   CAST(y.embedding AS DOUBLE[])), 6) >= 0.45
"""



def _structure_corpus(sf_dir: str) -> dict:
    """Derive (and cache under /tmp) the structure-page corpus keyed to this
    sf_dir: one synthetic structured page per flat document (capped at 500),
    deterministic seed 7, with the golden oracle parquet alongside."""
    import hashlib
    import json

    import pyarrow.parquet as pq

    from .fixtures import write_structure_corpus

    from .fixtures import ENCODING_VERSION

    # ENCODING_VERSION + a corpus-feature tag in the key: a stale cached
    # corpus (no skewed lines, no persisted bucket column) must never
    # silently feed this query (the same rule as bench.py's caches)
    key = hashlib.sha1(
        f"v9e{ENCODING_VERSION}:{os.path.abspath(sf_dir)}".encode()
    ).hexdigest()[:12]
    out_dir = os.path.join("/tmp", f"oar_structure_{key}")
    meta_path = os.path.join(out_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    os.makedirs(out_dir, exist_ok=True)
    n_docs = pq.read_metadata(_p(sf_dir, "documents")).num_rows
    meta = write_structure_corpus(out_dir, min(n_docs, 500), seed=7)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def structure_extract(sf_dir: str):
    """Rows-only (golden-oracled in pytest): the full PP-StructureV3 page
    flow — layout-block detection, text detection + cross-layout split,
    recognition, enhanced-reading-order stitch, markdown + HTML export —
    as one map_batches stage over page refs, run as tasks through
    `cached_stage`. Pages are fetched lazily per bucket (LRU media
    store): nothing page-sized is broadcast or materialized up front."""
    meta = _structure_corpus(sf_dir)
    # ONE shared DAG builder (pipelines/structure.py) holds the bucket-
    # locality tuning: the refs manifest is bucket-sorted and blocks =
    # bucket count, so each task's refs land in 1-2 bucket files
    from .pipelines.structure import build_structure_pipeline

    return build_structure_pipeline(
        meta["refs_path"], meta["media_dir"],
        n_buckets=int(meta.get("n_buckets", 16)),
    )




def distinct_sources(sf_dir: str):
    """Set op: distinct values of a column via Dataset.unique (shuffle)."""
    ds = _read(sf_dir, "documents", ["source"])
    vals = sorted(ds.unique("source"))
    return pd.DataFrame({"source": vals})


DISTINCT_SOURCES_SQL = "SELECT DISTINCT source FROM documents"


def _no_pairs() -> pd.DataFrame:
    """The empty (vec_a, vec_b, cosine) frame of the near-dup queries."""
    return pd.DataFrame({"vec_a": pd.Series(dtype="int64"),
                         "vec_b": pd.Series(dtype="int64"),
                         "cosine": pd.Series(dtype="float64")})


def embedding_near_dup(sf_dir: str, threshold: float = 0.45,
                       max_exact_rows: int = 200_000):
    """Embedding-cosine near-duplicate pairs, EXACT: the normalized corpus
    matrix is broadcast once (ray.put), each batch computes its block of
    the similarity matrix in one matmul and keeps pairs with
    round(cos, 6) >= threshold (vec_a < vec_b dedups the symmetric half).

    O(n^2/B) work spread over batches — the exact baseline the LSH variant
    (`embedding_near_dup_lsh`) approximates at corpus scale. The broadcast
    side is fact-cardinality by definition here, so it is HARD-GATED: the
    row count is checked first (parquet metadata, no data read) and past
    `max_exact_rows` this variant refuses loudly and points at the LSH
    scale path — per the broadcast-vs-shuffle policy header (queries.py
    top): fact tables never ship via ray.put ungated. The gated collect
    goes through a Ray read, not a driver-side file read. The testdata
    embeddings are near-random (max off-diagonal cosine ~0.51), so the
    threshold sits at 0.45 to make the result non-empty and falsifiable.
    """
    import ray

    from .functions.ann import _normalize, embedding_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    n = ds.count()
    if n > max_exact_rows:
        raise ValueError(
            f"embedding_near_dup is the exact O(n^2) baseline and broadcasts "
            f"the full corpus matrix; this corpus has {n} rows > "
            f"max_exact_rows={max_exact_rows}. Use embedding_near_dup_lsh "
            f"(the LSH-bucketed scale path) or raise max_exact_rows.")
    ref_df = ds.to_pandas()  # gate-bounded collect via the Ray read
    all_ref = ray.put({
        "ids": ref_df["vec_id"].to_numpy(),
        "matrix": _normalize(np.stack(ref_df["embedding"].to_numpy()).astype(np.float64)),
    })

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return _no_pairs()
        corpus = ray.get(all_ref)
        m = _normalize(embedding_matrix(df))
        ids = df["vec_id"].to_numpy()
        sim = round_half_away(m @ corpus["matrix"].T, 6)  # (B, N)
        keep = (sim >= threshold) & (ids[:, None] < corpus["ids"][None, :])
        bi, ci = np.nonzero(keep)
        return pd.DataFrame({"vec_a": ids[bi], "vec_b": corpus["ids"][ci],
                             "cosine": sim[bi, ci]})

    out = ds.map_batches(block_pairs, batch_format="pandas").to_pandas()
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


EMB_NEAR_DUP_SQL = """
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                   CAST(b.embedding AS DOUBLE[])), 6) >= 0.45
"""


def embedding_near_dup_lsh(sf_dir: str, threshold: float = 0.45, nbits: int = 4):
    """Rows-only: the LSH-bucketed near-dup SCALE PATH — hyperplane buckets
    computed per batch by a stateful signer (planes built ONCE in the actor
    constructor, not per batch), all-pairs verify only within buckets.
    Approximate: recall depends on nbits vs threshold angle."""
    _require_cluster_cpus("embedding_near_dup_lsh")
    from .functions.ann import HyperplaneLsh, _normalize, embedding_matrix

    dim = len(_lowest_vec_ids(sf_dir, 1)["embedding"].iloc[0])
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    bucketed = ds.map_batches(HyperplaneLsh, batch_format="pandas", concurrency=2,
                              fn_constructor_kwargs={"dim": dim, "nbits": nbits})

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = _normalize(embedding_matrix(g))
        ids = g["vec_id"].to_numpy()
        sim = round_half_away(m @ m.T, 6)
        iu, ju = np.triu_indices(len(g), k=1)
        keep = sim[iu, ju] >= threshold
        return pd.DataFrame(
            {"vec_a": np.minimum(ids[iu[keep]], ids[ju[keep]]),
             "vec_b": np.maximum(ids[iu[keep]], ids[ju[keep]]),
             "cosine": sim[iu, ju][keep]}
        )

    out = bucketed.groupby("bucket").map_groups(pairs, batch_format="pandas")
    df = out.to_pandas()
    if df.empty:  # keep a stable schema even when no near-dups exist
        return _no_pairs()
    return df.drop_duplicates(subset=["vec_a", "vec_b"]).sort_values(
        ["vec_a", "vec_b"]).reset_index(drop=True)




def _media_lines_ds(sf_dir: str, emit_word_boxes: bool = False):
    """The extract chain (pipelines.extract.span_rows) over the interleaved
    corpus derived from this sf_dir, cut to its recognized line rows with
    bboxes (media path only)."""
    import importlib.util as _il

    from .pipelines.extract import span_rows

    spec = _il.spec_from_file_location(
        "_entry", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "__ray_entry__.py")
    )
    entry_mod = _il.module_from_spec(spec)
    spec.loader.exec_module(entry_mod)
    meta = entry_mod._interleaved_corpus(sf_dir)
    ds = span_rows(meta["doc_files"], meta["media_dir"], emit_word_boxes=emit_word_boxes)
    return ds.map_batches(
        lambda t: t.filter(pc.and_(pc.equal(t["kind"], "image"), pc.is_valid(t["bx0"]))),
        batch_format="pyarrow",
    )


def ocr_word_boxes(sf_dir: str):
    """Rows-only: per recognized line, per-character word boxes from REAL
    CTC column indices (ocr.rs:862-933), in detection-box coordinates."""
    ds = _media_lines_ds(sf_dir, emit_word_boxes=True)

    def summarize(t: pa.Table) -> pa.Table:
        wb = t["word_boxes"].combine_chunks()
        n = pc.list_value_length(wb)
        return pa.table(
            {
                "media_ref": t["media_ref"].combine_chunks(),
                "det_idx": t["det_idx"].combine_chunks(),
                "text": t["text"].combine_chunks(),
                "n_chars": pc.cast(n, pa.int32()),
                "word_boxes": wb,
            }
        )

    return ds.map_batches(summarize, batch_format="pyarrow")


def crop_aspect_buckets(sf_dir: str):
    """Rows-only: aspect-ratio bucket histogram of recognition crops
    (diagnostics analogue of the reference aspect_ratio_bucketing.rs:199)."""
    edges = np.array([1.0, 2.0, 4.0, 8.0, 16.0])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        w = df["bx1"].to_numpy() - df["bx0"].to_numpy()
        h = np.maximum(df["by1"].to_numpy() - df["by0"].to_numpy(), 1e-9)
        b = np.digitize(w / h, edges)
        vc = pd.Series(b).value_counts()
        return pd.DataFrame({"bucket": vc.index.astype("int32"), "n": vc.to_numpy()})

    ds = _media_lines_ds(sf_dir)
    partials = ds.map_batches(partial, batch_format="pandas")
    df = _reduce_small(partials, ["bucket"], ["n"])
    df["n"] = df["n"].astype("int64")
    return df.sort_values("bucket").reset_index(drop=True)




def minhash_dup_clusters(sf_dir: str, threshold: float = 0.8):
    """Near-dup clusters — verified MinHash pairs -> union-find cluster
    representatives (doc_id, cluster_rep, cluster_size).

    The union-find runs driver-side over ONLY the verified pair set
    (duplicate-bounded, tiny); the resulting rep/size maps are broadcast
    and every document row is labeled in map_batches (singletons never
    touch the driver — no corpus-sized driver read). Oracle:
    recursive-CTE connected components in DuckDB."""
    import ray

    from .functions.dedup import cluster_pairs

    pairs_df = minhash_dup_pairs(sf_dir, threshold)
    mapping = cluster_pairs(list(zip(pairs_df["doc_a"], pairs_df["doc_b"])))
    sizes: dict = {}
    for rep in mapping.values():
        sizes[rep] = sizes.get(rep, 0) + 1
    maps_ref = ray.put({"rep": mapping, "size": sizes})

    def label(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(maps_ref)
        ids = pd.Series(df["doc_id"].to_numpy())
        rep = ids.map(m["rep"]).fillna(ids).astype("int64")
        size = rep.map(m["size"]).fillna(1).astype("int64")
        return pd.DataFrame({"doc_id": ids.to_numpy(), "cluster_rep": rep.to_numpy(),
                             "cluster_size": size.to_numpy()})

    ds = _read(sf_dir, "documents", ["doc_id"])
    return (
        ds.map_batches(label, batch_format="pandas")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )


MINHASH_CLUSTERS_SQL = r"""
WITH RECURSIVE g AS (
  SELECT doc_id,
         CASE WHEN n = '' THEN []
              WHEN len(string_split(n, ' ')) < 3 THEN [n]
              ELSE list_distinct(list_transform(
                     generate_series(1, len(string_split(n, ' ')) - 2),
                     i -> string_split(n, ' ')[i] || ' ' ||
                          string_split(n, ' ')[i+1] || ' ' ||
                          string_split(n, ' ')[i+2]))
         END AS grams
  FROM (SELECT doc_id, trim(regexp_replace(lower(text), '\s+', ' ', 'g')) AS n
        FROM documents)
), pair AS (
  SELECT a.doc_id AS u, b.doc_id AS v
  FROM g a JOIN g b ON a.doc_id < b.doc_id
  WHERE round(CASE WHEN len(a.grams) = 0 AND len(b.grams) = 0 THEN 1.0
                   ELSE len(list_intersect(a.grams, b.grams)) * 1.0 /
                        (len(a.grams) + len(b.grams) - len(list_intersect(a.grams, b.grams)))
              END, 6) >= 0.8
), edge AS (
  SELECT u, v FROM pair UNION ALL SELECT v, u FROM pair
), reach(id, r) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT edge.u, reach.r FROM edge JOIN reach ON edge.v = reach.id
), rep AS (
  SELECT id AS doc_id, min(r) AS cluster_rep FROM reach GROUP BY id
)
SELECT doc_id, cluster_rep,
       count(*) OVER (PARTITION BY cluster_rep) AS cluster_size
FROM rep
"""




def customers_with_highvalue_orders(sf_dir: str, min_total: float = 300000.0):
    """SEMI JOIN via broadcast key set: distinct high-value order custkeys
    broadcast once; customer stream filtered per batch (no shuffle)."""
    import ray

    keys = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(
            lambda df: df.loc[df["o_totalprice"] > min_total, ["o_custkey"]].drop_duplicates(),
            batch_format="pandas",
        )
        .to_pandas()["o_custkey"]
    )
    key_ref = ray.put(set(keys))

    def semi(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(key_ref)
        return df[df["c_custkey"].isin(ks)]

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        semi, batch_format="pandas"
    )


SEMI_JOIN_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE EXISTS (SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 300000.0)
"""


def customers_without_highvalue_orders(sf_dir: str, min_total: float = 450000.0):
    """ANTI JOIN via broadcast key set: customers with NO order above the
    threshold (the complement of the semi join; same broadcast, negated)."""
    import ray

    keys = (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(
            lambda df: df.loc[df["o_totalprice"] > min_total, ["o_custkey"]].drop_duplicates(),
            batch_format="pandas",
        )
        .to_pandas()["o_custkey"]
    )
    key_ref = ray.put(set(keys))

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(key_ref)
        return df[~df["c_custkey"].isin(ks)]

    return _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        anti, batch_format="pandas"
    )


ANTI_JOIN_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000.0)
"""




def events_sliding(sf_dir: str):
    """Sliding 60-min windows hopping every 15 min over events (each event
    lands in 4 windows); per-batch combiner + driver-side final reduce."""
    from .functions.windows import sliding_window

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    partials = ds.map_batches(
        lambda df: sliding_window(
            df.assign(value=np.rint(df["value"].to_numpy() * 100).astype(np.int64)), 60, 15),
        batch_format="pandas")
    df = _reduce_small(partials, ["event_type", "window_start"], ["n_events", "sum_value"])
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_value"] = round_half_away(df["sum_value"] / 100.0, 2)
    return df


EVENTS_SLIDING_SQL = """
SELECT event_type,
       make_timestamp(((floor(epoch(ts) / 900) * 900 - ks.k * 900)::BIGINT) * 1000000) AS window_start,
       count(*) AS n_events,
       round(sum(CAST(round(value * 100) AS BIGINT)) / 100.0, 2) AS sum_value
FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k) ks
GROUP BY 1, 2
"""




def parts_by_brand(sf_dir: str):
    """Groupby over part: count + avg retail price per brand (combiner).

    Money sums run in exact int64 CENTS (and the oracle in DECIMAL(18,2))
    so the average is independent of float summation order — a float sum
    lands on the wrong side of an exact .xxxx5 tie depending on batch
    order, which breaks the driver's value hash."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["p_retailprice"].to_numpy() * 100.0).astype(np.int64)
        return df.assign(cents=cents).groupby("p_brand", as_index=False, sort=False).agg(
            n_parts=("p_partkey", "count"), sum_cents=("cents", "sum")
        )

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"])
    df = _reduce_small(ds.map_batches(partial, batch_format="pandas"),
                       ["p_brand"], ["n_parts", "sum_cents"])
    df["avg_price"] = round_half_away((df["sum_cents"] / 100.0) / df["n_parts"], 4)
    df = df.drop(columns=["sum_cents"])
    df["n_parts"] = df["n_parts"].astype("int64")
    return df


PARTS_BRAND_SQL = """
SELECT p_brand, count(*) AS n_parts,
       round(CAST(sum(CAST(p_retailprice AS DECIMAL(18,2))) AS DOUBLE) / count(*), 4) AS avg_price
FROM part GROUP BY p_brand
"""


def supplier_balance_by_region(sf_dir: str):
    """supplier -> nation -> region broadcast-map join; avg balance per
    region (small dimensions broadcast, no shuffle)."""
    nation = _collect_broadcast(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
    region = _collect_broadcast(sf_dir, "region", ["r_regionkey", "r_name"])
    nk_to_region = dict(
        zip(nation["n_nationkey"], nation["n_regionkey"].map(dict(zip(region["r_regionkey"], region["r_name"]))))
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # integer-cent sums: exact and batch-order independent (see Q1_SQL)
        g = pd.DataFrame(
            {"r_name": df["s_nationkey"].map(nk_to_region),
             "bal_cents": np.rint(df["s_acctbal"].to_numpy() * 100).astype(np.int64),
             "n": 1}
        )
        return g.groupby("r_name", as_index=False, sort=False).agg(
            bal_cents=("bal_cents", "sum"), n=("n", "sum"))

    ds = _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
    df = _reduce_small(ds.map_batches(partial, batch_format="pandas"), ["r_name"], ["bal_cents", "n"])
    out = pd.DataFrame(
        {"r_name": df["r_name"], "n_suppliers": df["n"].astype("int64"),
         "avg_acctbal": round_half_away(
             df["bal_cents"].to_numpy(dtype=np.float64) / 100.0
             / df["n"].to_numpy(dtype=np.float64), 4)}
    )
    return out


SUPPLIER_REGION_SQL = """
SELECT r.r_name, count(*) AS n_suppliers,
       round(sum(CAST(round(s.s_acctbal * 100) AS BIGINT)) / 100.0 / count(*), 4)
         AS avg_acctbal
FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""




def ann_ivf_topk(sf_dir: str, k: int = 10, n_queries: int = 5, nprobe: int = 3,
                 n_clusters: int = 8, iters: int = 2):
    """IVF ANN with an EXACT DuckDB oracle (ANN_IVF_SQL).

    Centroids fit driver-side on a BOUNDED vec_id-ordered sample (<=4096
    vectors, never the full table) with a fully deterministic Lloyd
    (first-K init, every intermediate quantized to 6 decimals — see
    functions.ann.ivf_parity_fit), passed once per actor; batches assign
    clusters vectorized and score only against the queries probing their
    cluster. The quantization makes the whole build SQL-reproducible; the
    structure (bounded fit + broadcast + per-batch assign + nprobe
    pruning) is the standard IVF scale path."""
    from .functions.ann import embedding_matrix, ivf_parity_fit, ivf_scores, quantized_unit

    nv_sample = quantized_unit(embedding_matrix(_lowest_vec_ids(sf_dir, 4096)))
    centroids = ivf_parity_fit(nv_sample, k=n_clusters, iters=iters)
    return _ann_search(sf_dir, "ann_ivf_topk", ivf_scores, k, n_queries,
                       centroids=centroids, nprobe=nprobe)


def _ivf_sql(k: int = 8, iters: int = 2, nprobe: int = 3, n_queries: int = 5,
             topk: int = 10, sample: int = 4096, final_select: str | None = None) -> str:
    """SQL mirroring ann_ivf_topk exactly: same quantized-unit vectors, same
    first-K init, same Lloyd iterations (unrolled as CTEs), same probe and
    scoring order. Every rounded intermediate matches the Python side
    bit-for-bit (round half-away = DuckDB round)."""
    qnorm = "list_transform({src}, x -> round(x / sqrt(list_sum(list_transform({src}, y -> y*y))), 6))"
    sql = f"""
WITH ecast AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), nvec AS (
  SELECT vec_id, {qnorm.format(src='e')} AS nv FROM ecast
), samp AS (
  SELECT vec_id, nv FROM nvec ORDER BY vec_id LIMIT {sample}
), c0 AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, nv AS c
  FROM (SELECT vec_id, nv FROM samp ORDER BY vec_id LIMIT {k})
)"""
    prev = "c0"
    for t in range(1, iters + 1):
        sql += f""", a{t} AS (
  SELECT s.vec_id, s.nv, c.cid
  FROM samp s CROSS JOIN {prev} c
  QUALIFY row_number() OVER (PARTITION BY s.vec_id
          ORDER BY round(list_dot_product(s.nv, c.c), 6) DESC, c.cid) = 1
), m{t} AS (
  SELECT cid, list(mx ORDER BY i) AS m FROM (
    SELECT cid, i, round(avg(x), 6) AS mx FROM (
      SELECT cid, unnest(nv) AS x, generate_subscripts(nv, 1) AS i FROM a{t})
    GROUP BY cid, i)
  GROUP BY cid
), c{t} AS (
  SELECT p.cid, COALESCE({qnorm.format(src='m.m')}, p.c) AS c
  FROM {prev} p LEFT JOIN m{t} m ON p.cid = m.cid
)"""
        prev = f"c{t}"
    sql += f""", afull AS (
  SELECT n.vec_id, n.nv, c.cid
  FROM nvec n CROSS JOIN {prev} c
  QUALIFY row_number() OVER (PARTITION BY n.vec_id
          ORDER BY round(list_dot_product(n.nv, c.c), 6) DESC, c.cid) = 1
)"""
    if final_select is not None:
        return sql + final_select
    sql += f""", q AS (
  SELECT vec_id AS query_id, nv AS qv FROM nvec ORDER BY vec_id LIMIT {n_queries}
), probe AS (
  SELECT q.query_id, q.qv, c.cid FROM q CROSS JOIN {prev} c
  QUALIFY row_number() OVER (PARTITION BY q.query_id
          ORDER BY round(list_dot_product(q.qv, c.c), 6) DESC, c.cid) <= {nprobe}
), scored AS (
  SELECT p.query_id, a.vec_id, round(list_dot_product(p.qv, a.nv), 6) AS score
  FROM probe p JOIN afull a ON a.cid = p.cid
)
SELECT query_id, vec_id, score FROM scored
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) <= {topk}
"""
    return sql


ANN_IVF_SQL = _ivf_sql()


def _cluster_assign_fn(centroids: np.ndarray, keep_embedding: bool = False):
    """Per-batch nearest-centroid assignment (shared by embedding_clusters
    and semdedup_prune; parity: functions.ann.nearest_centroid = SQL's
    ORDER BY sim DESC, cid ASC)."""
    from .functions.ann import embedding_matrix, nearest_centroid, quantized_unit

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            out = {"vec_id": pd.Series(dtype="int64")}
            if keep_embedding:
                out["embedding"] = pd.Series(dtype="object")
            out["cluster"] = pd.Series(dtype="int64")
            return pd.DataFrame(out)
        cluster = nearest_centroid(quantized_unit(embedding_matrix(df)), centroids)
        out = {"vec_id": df["vec_id"].to_numpy()}
        if keep_embedding:
            out["embedding"] = df["embedding"].to_numpy()
        out["cluster"] = cluster.astype("int64")
        return pd.DataFrame(out)

    return assign


def embedding_clusters(sf_dir: str, n_clusters: int = 8, iters: int = 2):
    """Corpus clustering for data curation (the SemDeDup-style semantic
    bucketing step, Abbas et al. 2023 — public): every vector assigned to
    its cluster under the deterministic quantized-Lloyd fit. Same bounded
    driver-side fit + vectorized per-batch assign as ann_ivf_topk; EXACT
    DuckDB oracle sharing the IVF CTE prefix."""
    from .functions.ann import embedding_matrix, ivf_parity_fit, quantized_unit

    nv_sample = quantized_unit(embedding_matrix(_lowest_vec_ids(sf_dir, 4096)))
    centroids = ivf_parity_fit(nv_sample, k=n_clusters, iters=iters)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return ds.map_batches(_cluster_assign_fn(centroids), batch_format="pandas")


EMB_CLUSTERS_SQL = _ivf_sql(
    final_select="\nSELECT vec_id, cid AS cluster FROM afull\n"
)


# ---------------------------------------------------------------------------
# Training-data curation: scrubbing, TF-IDF, decontamination, source mixing
# ---------------------------------------------------------------------------

def _doc_sums(row, n_docs: int, values=None) -> np.ndarray:
    """Per-document count (values=None) or exact int64 sum of `values` over
    the `row` positions that `word_ngrams` reports, 0 for a document with
    none: the one per-document sum of the token scorers."""
    if values is None:
        return np.bincount(row, minlength=n_docs)
    out = np.zeros(n_docs, dtype=np.int64)
    np.add.at(out, row, np.asarray(values, dtype=np.int64))
    return out


def _gram_counts(n: int, key: str):
    """A map_batches UDF: one batch's (key, n) counts of its word n-grams,
    as typed Arrow (a token-free batch gives a typed empty table)."""
    schema = pa.schema([(key, pa.string()), ("n", pa.int64())])

    def counts(df: pd.DataFrame) -> pa.Table:
        vc = word_ngrams(df["text"], n)["gram"].value_counts()
        return _arrow(pd.DataFrame({key: vc.index, "n": vc.to_numpy()}), schema)

    return counts


# The PII/entity scrub battery. In production this is the email/phone/SSN
# regex set; the synthetic corpus contains no PII, so the driver instance
# scrubs entity tokens that DO occur (falsifiable — nonzero replacements),
# exercising the identical regexp_replace path.
SCRUB_PATTERN = r"\b(customer|order|query)\b"
SCRUB_TOKEN = "[ENT]"


def regex_scrub(sf_dir: str):
    """PII/entity scrubbing: a pure vectorized map — compiled-regex
    count + replace per batch, no shuffle, no state. At 100 TB this is a
    stream with a write_parquet sink; the pattern battery is a constant
    captured by the closure (bytes, not re-shipped per batch)."""

    def run(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_scrubbed": text.str.count(SCRUB_PATTERN).astype("int64"),
            "clean_text": text.str.replace(SCRUB_PATTERN, SCRUB_TOKEN, regex=True),
        })

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(run, batch_format="pandas")


REGEX_SCRUB_SQL = rf"""
SELECT doc_id,
       CAST(len(regexp_extract_all(COALESCE(text, ''), '{SCRUB_PATTERN}'))
            AS BIGINT) AS n_scrubbed,
       regexp_replace(COALESCE(text, ''), '{SCRUB_PATTERN}', '{SCRUB_TOKEN}', 'g')
         AS clean_text
FROM documents
"""


# Defaults shared between the Python queries and their registered SQL
# oracles (the SQL below is f-string-built from these, so calling the
# Python function with its defaults ALWAYS matches the oracle — round-3
# advice: the constants used to be hardcoded on the SQL side only).
TFIDF_K = 3
TFIDF_MIN_DF = 2
PER_SOURCE_CAP_N = 20
MG_FRAC_DEN = 30
LM_MIN_COUNT = 2


def tfidf_top_terms(sf_dir: str, k: int = TFIDF_K, min_df: int = TFIDF_MIN_DF,
                    vocab_topk: int | None = None):
    """Per-document top-k TF-IDF terms — the classic keyword-extraction /
    quality-signal step. Two streaming passes:

      pass 1 (document frequency): per-batch DISTINCT (doc, term) ->
        per-term partial counts -> small groupby(term) -> min_df prune
        applied IN the dataset (the unpruned corpus-sized vocabulary never
        lands on the driver; only the post-prune head is collected) ->
        ray.put broadcast of {term: idf}. `vocab_topk` is the hard 100-TB
        cap: keep the `vocab_topk` highest-df terms (ties by term ASC) and
        log the dropped-tail size — never truncate silently.
      pass 2: per-batch per-doc term counts -> vectorized idf lookup
        (terms pruned from the vocabulary are OOV and drop out of top-k
        contention, the inner-join semantics of the oracle) -> top-k per
        doc inside the batch (each doc is one row, so its top-k never
        crosses a batch boundary) -> no shuffle at all.

    Exact oracle parity: idf = round6(ln(N/df)) (libm double on both
    sides under the 1e-6 grid), score = round6(tf * idf), ties broken by
    term ASC on both sides; the SQL dfreq CTE carries the same
    `HAVING df >= min_df` prune."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()
    dfs = pa.schema([("term", pa.string()), ("df", pa.int64())])
    scores = pa.schema([("doc_id", pa.int64()), ("term", pa.string()),
                        ("score", pa.float64())])

    def df_partial(df: pd.DataFrame) -> pa.Table:
        g = word_ngrams(df["text"], 1).drop_duplicates(["row", "gram"])
        vc = g["gram"].value_counts()
        return _arrow(pd.DataFrame({"term": vc.index, "df": vc.to_numpy()}), dfs)

    # prune BEFORE the collect: only the post-prune head vocabulary lands
    dfreq = _collect_where(
        _keyed_sum(ds.map_batches(df_partial, batch_format="pandas"),
                   "term", val="df"),
        f"df >= {int(min_df)}", ["term", "df"])
    if vocab_topk is not None and len(dfreq) > vocab_topk:
        dfreq = dfreq.sort_values(["df", "term"], ascending=[False, True],
                                  kind="stable")
        dropped = len(dfreq) - vocab_topk
        dfreq = dfreq.head(vocab_topk)
        logging.getLogger(__name__).warning(
            "tfidf_top_terms: vocab_topk=%d dropped %d tail terms "
            "(min df kept: %d)", vocab_topk, dropped, int(dfreq["df"].min()))
    idf = round_half_away(np.log(n_docs / dfreq["df"].to_numpy(dtype=np.float64)), 6)
    idf_ref = ray.put(dict(zip(dfreq["term"], idf)))

    def score(df: pd.DataFrame) -> pa.Table:
        import ray as _ray

        idf_map = _ray.get(idf_ref)
        g = word_ngrams(df["text"], 1)
        t = pd.DataFrame({"doc_id": df["doc_id"].to_numpy()[g["row"].to_numpy()],
                          "term": g["gram"].to_numpy()})
        tf = t.groupby(["doc_id", "term"], sort=False).size().rename("tf").reset_index()
        idf_col = tf["term"].map(idf_map)
        tf = tf[idf_col.notna()]  # OOV (min_df/topk-pruned) terms drop out
        idf_col = idf_col.dropna()
        tf["score"] = round_half_away(
            tf["tf"].to_numpy(dtype=np.float64)
            * idf_col.to_numpy(dtype=np.float64), 6)
        tf = tf.sort_values(["doc_id", "score", "term"],
                            ascending=[True, False, True], kind="stable")
        top = tf.groupby("doc_id", sort=False).head(k)
        return _arrow(top, scores)

    return ds.map_batches(score, batch_format="pandas")


TFIDF_SQL = rf"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS term
  FROM documents WHERE trim(text) <> ''
), tf AS (
  SELECT doc_id, term, count(*) AS tf
  FROM words WHERE term <> '' GROUP BY doc_id, term
), dfreq AS (
  SELECT term, count(DISTINCT doc_id) AS df
  FROM words WHERE term <> '' GROUP BY term
  HAVING count(DISTINCT doc_id) >= {TFIDF_MIN_DF}
), n AS (SELECT count(*) AS n_docs FROM documents)
SELECT tf.doc_id, tf.term,
       round(tf.tf * round(ln(n.n_docs * 1.0 / dfreq.df), 6), 6) AS score
FROM tf JOIN dfreq USING (term) CROSS JOIN n
QUALIFY row_number() OVER (
  PARTITION BY tf.doc_id ORDER BY score DESC, tf.term) <= {TFIDF_K}
"""


# Decontamination: the eval/benchmark holdout is every doc_id divisible by
# 97 (deterministic stand-in for "the benchmark suite"); a training doc is
# contaminated if it shares any word 3-gram with the holdout. 3 (not the
# production 8-13) because the synthetic corpus has a 31-word vocabulary —
# at n=3 the overlap is nonzero but far from total (falsifiable both ways).
DECONTAM_MOD = 97
DECONTAM_N = 3


def decontaminate(sf_dir: str):
    """Benchmark-decontamination filter (the n-gram overlap check every
    public pretraining pipeline runs against eval sets):

      pass 1: stream ONLY the holdout docs (pruned read of doc_id+text,
        filtered per batch) -> per-batch distinct n-gram sets -> driver
        union (bounded: the eval suite is tiny by definition) -> ray.put.
      pass 2: stream the training split; per batch, explode every doc's
        distinct n-grams (`word_ngrams`) and count the hits against the
        broadcast set per doc. No shuffle; output is one row per training
        doc.
    """
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def holdout_grams(df: pd.DataFrame) -> pa.Table:
        ev = df[df["doc_id"] % DECONTAM_MOD == 0]
        grams = word_ngrams(ev["text"], DECONTAM_N)["gram"].unique()
        # a string column even when the batch holds no holdout doc
        return pa.table({"gram": pa.array(grams, pa.string())})

    ev_grams = set(
        ds.map_batches(holdout_grams, batch_format="pandas")
        .to_pandas()["gram"]  # eval-suite-sized (bounded)
    )
    ev_ref = ray.put(ev_grams)

    def check(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        ev = _ray.get(ev_ref)
        train = df[df["doc_id"] % DECONTAM_MOD != 0]
        g = word_ngrams(train["text"], DECONTAM_N).drop_duplicates(["row", "gram"])
        hits = _doc_sums(g["row"].to_numpy()[g["gram"].isin(ev).to_numpy()], len(train))
        return pd.DataFrame({
            "doc_id": train["doc_id"].to_numpy(),
            "n_hits": hits,
            "contaminated": hits > 0,
        })

    return ds.map_batches(check, batch_format="pandas")


# Shared positional-tokenizer CTE prefix: the SQL mirror of word_ngrams for
# oracles that need token POSITIONS — splits on \s+, drops empty tokens
# (text edged by non-space whitespace splits to ''), and RENUMBERS so
# n-grams match Python split()'s contiguous tokens. Single source so a
# tokenizer parity fix can never land in one oracle but not another.
_TOKS_CTE = r"""
WITH raw AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word,
         generate_subscripts(regexp_split_to_array(lower(trim(text)), '\s+'), 1) AS rawpos
  FROM documents WHERE trim(text) <> ''
), toks AS (
  SELECT doc_id, word,
         row_number() OVER (PARTITION BY doc_id ORDER BY rawpos) AS pos
  FROM raw WHERE word <> ''
)"""


DECONTAM_SQL = _TOKS_CTE + r""", grams AS (
  SELECT doc_id,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w AS gram
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
), ev AS (
  SELECT DISTINCT gram FROM grams WHERE doc_id % 97 = 0
), hits AS (
  SELECT g.doc_id, count(DISTINCT g.gram) AS n_hits
  FROM grams g JOIN ev USING (gram)
  WHERE g.doc_id % 97 <> 0
  GROUP BY g.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(h.n_hits, 0) AS BIGINT) AS n_hits,
       COALESCE(h.n_hits, 0) > 0 AS contaminated
FROM documents d LEFT JOIN hits h USING (doc_id)
WHERE d.doc_id % 97 <> 0
"""


def dup_ngram_spans(sf_dir: str, n: int = 3):
    """Span-level substring dedup (the Lee et al. 2022 'deduplicating
    training data' signal at n-gram granularity): every (doc, position)
    whose n-gram also occurs in at least one OTHER document. Unlike the
    doc-level dedup family this emits the duplicated SPANS, the input to
    span-excision dedup.

    Scale shape: explode (gram, doc_id, pos) in map_batches (`word_ngrams`),
    then ONE coarse exchange on gram (`_exchange`) and a VECTORIZED
    in-partition nunique filter; never one Python call per distinct gram, no driver
    state at all. Positions are 1-based token indices (= the SQL
    renumbered row_number). The registered oracle is the n=3
    instantiation — calling with another n diverges from it."""
    def explode(df: pd.DataFrame) -> pd.DataFrame:
        g = word_ngrams(df["text"], n)
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy()[g["row"].to_numpy()],
                             "pos": g["pos"].to_numpy(), "gram": g["gram"].to_numpy()})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        dup = g.groupby("gram")["doc_id"].transform("nunique") >= 2
        sel = g[dup]
        return pd.DataFrame({"doc_id": sel["doc_id"].to_numpy(),
                             "pos": sel["pos"].to_numpy(),
                             "gram": sel["gram"].to_numpy()})

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _exchange(ds.map_batches(explode, batch_format="pandas"), "gram", per_part)


# fixed at n=3 (two lead() steps), mirroring dup_ngram_spans' default
DUP_NGRAM_SPANS_SQL = _TOKS_CTE + r""", grams AS (
  SELECT doc_id, pos,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w AS gram
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
), dupg AS (
  SELECT gram FROM grams GROUP BY gram HAVING count(DISTINCT doc_id) >= 2
)
SELECT g.doc_id, CAST(g.pos AS BIGINT) AS pos, g.gram
FROM grams g JOIN dupg USING (gram)
"""


def source_temperature_sample(sf_dir: str):
    """Temperature-based source mixing (the data-mixture rebalancing step:
    sample each source at a rate proportional to count^alpha, alpha=0.5,
    so over-represented sources are downweighted — the public
    multilingual/pretraining-mixture recipe):

      pass 1: per-source doc counts (combiner partials -> tiny groupby ->
        driver table of |sources| rows);
      driver: per-source keep-thresholds in EXACT integer arithmetic —
        s_i = round(sqrt(count_i)*1e3) (IEEE sqrt is correctly rounded, so
        numpy and DuckDB agree bit-for-bit), S = sum(s_i) exact int,
        thr_i = min(1e6, T*s_i*1e6 // (S*count_i)) in arbitrary-precision
        ints (HUGEINT on the oracle side) — no float accumulation anywhere;
      pass 2: stream filter — keep doc iff md5(doc_id) % 1e6 < thr[source]
        (deterministic, reshard-stable, no shuffle).
    """
    from .functions.dedup import md5_buckets

    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["source"].value_counts()
        return pd.DataFrame({"source": vc.index, "n": vc.to_numpy()})

    counts = _reduce_small(ds.map_batches(count_partial, batch_format="pandas"),
                           ["source"], ["n"])  # |sources| rows
    total = int(counts["n"].sum())
    target = total // 2  # target corpus size (integer half, matching the oracle)
    # round_half_away = DuckDB round(); builtin round() is half-to-even and
    # would diverge on an exact .5 double (numeric.py parity rule)
    s = {str(r["source"]): int(round_half_away(float(np.sqrt(r["n"])) * 1000, 0))
         for _, r in counts.iterrows()}
    big_s = sum(s.values())
    thr = {src: min(10**6, (target * s[src] * 10**6)
                    // (big_s * int(n)))
           for src, n in zip(counts["source"], counts["n"])}

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        h = md5_buckets(df["doc_id"], 10**6)
        t = df["source"].map(thr).to_numpy(dtype=np.int64)
        keep = df[h < t]
        return pd.DataFrame({"doc_id": keep["doc_id"].to_numpy(),
                             "source": keep["source"].to_numpy()})

    return ds.map_batches(sample, batch_format="pandas")


SOURCE_TEMP_SAMPLE_SQL = r"""
WITH counts AS (
  SELECT source, count(*) AS n FROM documents GROUP BY source
), scaled AS (
  SELECT source, n, CAST(round(sqrt(n) * 1000) AS BIGINT) AS s FROM counts
), tot AS (
  SELECT sum(n) // 2 AS target, sum(s) AS big_s FROM scaled
), thr AS (
  SELECT source,
         least(CAST(1000000 AS HUGEINT),
               CAST(target AS HUGEINT) * CAST(s AS HUGEINT)
                 * CAST(1000000 AS HUGEINT)
                 // (CAST(big_s AS HUGEINT) * CAST(n AS HUGEINT))) AS thr
  FROM scaled CROSS JOIN tot
)
SELECT d.doc_id, d.source
FROM documents d JOIN thr USING (source)
WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR)) % 1000000 < thr.thr
"""


def unimax_allocation(sf_dir: str, max_epochs: int = 2):
    """UniMax sampling budgets (Chung et al. 2023, "UniMax: Fairer and
    More Effective Language Sampling for Large-Scale Multilingual
    Pretraining", public): split a total token budget across sources as
    UNIFORMLY as possible, capping every source at `max_epochs`
    repetitions of its own corpus; budget freed by capped (small) sources
    redistributes to the rest. The closed-form waterfilling over
    cap-sorted sources replaces the paper's iterative loop (identical
    result): walk caps ascending, a source is fully capped while the
    even split of the remaining budget still exceeds its cap; the first
    source whose cap covers the even split fixes the waterline for
    everyone after it. Budget = total_tokens // 2 (the same integer
    half-corpus convention as source_temperature_sample); the oracle pins
    max_epochs=2.

    Scale shape: per-batch partial token sums per source -> tiny
    bounded-cardinality reduce (|sources| rows on the driver) ->
    O(n log n) closed-form waterline; the emitted per-source rates are
    the broadcast side of the actual sampling pass (exactly
    source_temperature_sample's filter shape). Float parity: every
    accumulation is integer; the waterline and rates are SINGLE double
    divisions of exact int64s, so numpy and DuckDB produce bit-identical
    doubles.
    """
    from .functions.text_analysis import token_count

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        tk = token_count(df)
        g = tk.groupby("source", as_index=False)["n_tokens"].sum()
        return g.rename(columns={"n_tokens": "n"})

    counts = _reduce_small(ds.map_batches(partial, batch_format="pandas"),
                           ["source"], ["n"])
    counts["source"] = counts["source"].astype(str)
    counts["n"] = counts["n"].astype("int64")
    counts["cap"] = counts["n"] * np.int64(max_epochs)
    counts = counts.sort_values(["cap", "source"]).reset_index(drop=True)
    budget = int(counts["n"].sum()) // 2
    caps = counts["cap"].to_numpy()
    nsrc = len(counts)
    alloc = np.empty(nsrc, dtype=np.float64)
    remaining = budget
    for j in range(nsrc):
        w = np.float64(remaining) / np.float64(nsrc - j)
        if w <= caps[j]:
            alloc[j:] = w  # waterline: everyone from here splits evenly
            break
        alloc[j] = np.float64(caps[j])  # capped: cap < even split
        remaining -= int(caps[j])
    out = pd.DataFrame({
        "source": counts["source"],
        "n_tokens_total": counts["n"],
        "token_cap": counts["cap"],
        "allocation": alloc,
        "sample_rate": alloc / counts["n"].to_numpy().astype(np.float64),
    })
    return out.sort_values("source").reset_index(drop=True)


UNIMAX_SQL = r"""
WITH tok AS (
  SELECT source,
         CASE WHEN trim(text) = '' THEN 0
              ELSE len(regexp_split_to_array(trim(text), '\s+')) END AS nt
  FROM documents
), caps AS (
  -- sums CAST to BIGINT: DuckDB sum() is HUGEINT, which pandas renders
  -- as float and the value-hash would see 1435.0 vs the Ray side's 1435
  SELECT CAST(source AS VARCHAR) AS source,
         CAST(sum(nt) AS BIGINT) AS n,
         2 * CAST(sum(nt) AS BIGINT) AS cap
  FROM tok GROUP BY source
), tot AS (
  SELECT CAST(sum(n) AS BIGINT) // 2 AS budget, count(*) AS nsrc FROM caps
), cand AS (
  SELECT c.source, c.n, c.cap,
         row_number() OVER (ORDER BY c.cap, c.source) AS rn,
         CAST(t.budget - (sum(c.cap) OVER (ORDER BY c.cap, c.source
                                           ROWS UNBOUNDED PRECEDING) - c.cap)
              AS DOUBLE)
           / (t.nsrc - row_number() OVER (ORDER BY c.cap, c.source) + 1) AS w
  FROM caps c CROSS JOIN tot t
), wl AS (
  SELECT min(rn) AS jstar FROM cand WHERE w <= cap
), wval AS (
  SELECT w AS waterline FROM cand WHERE rn = (SELECT jstar FROM wl)
)
SELECT source, n AS n_tokens_total, cap AS token_cap,
       CASE WHEN rn < jstar THEN CAST(cap AS DOUBLE) ELSE waterline END
         AS allocation,
       CASE WHEN rn < jstar THEN CAST(cap AS DOUBLE) / n
            ELSE waterline / n END AS sample_rate
FROM cand CROSS JOIN wl CROSS JOIN wval
ORDER BY source
"""


def semdedup_prune(sf_dir: str, thr: float = 0.45, n_clusters: int = 8,
                   iters: int = 2):
    """Full SemDeDup semantic dedup (Abbas et al. 2023, public): cluster the
    embedding corpus, then within each cluster drop every vector that has a
    LOWER-id near-duplicate (quantized cosine >= thr). The pairwise rule
    ("drop-later") is order-free, so it is exactly SQL-expressible and
    partition-parallel — unlike the greedy chain variant.

    Scale shape: the deterministic quantized-Lloyd fit runs on a BOUNDED
    vec_id-ordered sample (driver-side, 4096 rows), centroids shipped with
    the assign function; assignment is one vectorized map; the all-pairs
    check is cluster-local after ONE keyed shuffle — at web scale n_clusters grows
    with the corpus (SemDeDup's own recipe) so each group stays bounded."""
    from .functions.ann import embedding_matrix, ivf_parity_fit, quantized_unit

    nv_sample = quantized_unit(embedding_matrix(_lowest_vec_ids(sf_dir, 4096)))
    centroids = ivf_parity_fit(nv_sample, k=n_clusters, iters=iters)

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        nv = quantized_unit(embedding_matrix(g))
        sims = round_half_away(nv @ nv.T, 6)
        upper = np.triu(np.ones((len(g), len(g)), dtype=bool), k=1)  # i < j
        dup = ((sims >= thr) & upper).any(axis=0)
        return pd.DataFrame({"vec_id": g["vec_id"].to_numpy(),
                             "cluster": g["cluster"].to_numpy(),
                             "kept": ~dup})

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return (ds.map_batches(_cluster_assign_fn(centroids, keep_embedding=True),
                           batch_format="pandas")
            .groupby("cluster").map_groups(prune, batch_format="pandas"))


EMB_SEMDEDUP_SQL = _ivf_sql(final_select="""
, dup AS (
  SELECT DISTINCT b.vec_id
  FROM afull a JOIN afull b ON a.cid = b.cid AND a.vec_id < b.vec_id
  WHERE round(list_dot_product(a.nv, b.nv), 6) >= 0.45
)
SELECT f.vec_id, f.cid AS cluster,
       f.vec_id NOT IN (SELECT vec_id FROM dup) AS kept
FROM afull f
""")


def _ngram_logprob_scores(sf_dir: str, n: int, count_col: str,
                          min_count: int, carry: tuple = ()):
    """The one n-gram LM scorer behind unigram_logprob_scores (n=1) and
    bigram_logprob_scores (n=2): per-doc mean JOINT n-gram log-probability
    under an n-gram model trained on the corpus. Exact-parity trick:
    log-probs are quantized to INTEGER micro-nats
    (round(ln(count/total)*1e6)), so the per-doc accumulation is an exact
    int64 sum on both engines — no float accumulation order anywhere; the
    single double division at the end is bit-identical.

    Pass 1: per-batch n-gram count partials -> vocab-sized exchange; the
    n-gram TOTAL is a distributed scalar aggregate and the min_count prune
    is applied IN the dataset, so the unpruned corpus-sized vocabulary
    never lands on the driver — only the post-prune head is collected and
    broadcast as {gram: lpm}. Pruned (OOV) grams score the exact count-1
    floor lpm_oov = round(ln(1/total)*1e6), mirrored by the oracles'
    LEFT JOIN + COALESCE.
    Pass 2: vectorized per-doc sums over the `word_ngrams` rows — no
    shuffle; a doc with no n-gram scores (0, mean 0.0)."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text", *carry])
    vocab_ds = _keyed_sum(
        ds.map_batches(_gram_counts(n, "gram"), batch_format="pandas"), "gram"
    ).materialize()  # post-combine = vocab-sized; one token sweep
    total = int(vocab_ds.sum("n") or 0)  # distributed scalar; no collect
    vocab = _collect_where(vocab_ds, f"n >= {int(min_count)}", ["gram", "n"])
    if total > 0:
        lpm = round_half_away(
            np.log(vocab["n"].to_numpy(dtype=np.float64) / total) * 1e6, 0
        ).astype(np.int64)
        lpm_oov = int(round_half_away(np.log(1.0 / total) * 1e6, 0))
    else:  # no n-gram in the corpus: every doc scores (0, mean 0.0)
        lpm, lpm_oov = np.array([], dtype=np.int64), 0
    lpm_ref = ray.put((dict(zip(vocab["gram"], lpm)), lpm_oov))

    def score(t: pa.Table) -> pa.Table:
        import ray as _ray

        lpm_map, oov = _ray.get(lpm_ref)
        g = word_ngrams(t["text"].to_pandas(), n)
        row = g["row"].to_numpy()
        cnt = _doc_sums(row, len(t))
        tot = _doc_sums(row, len(t), g["gram"].map(lpm_map).fillna(oov))
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(cnt > 0, round_half_away(tot / (cnt * 1e6), 6), 0.0)
        # carried columns (e.g. source for bucketing) pass through as read
        return pa.table({"doc_id": t["doc_id"], count_col: cnt, "mean_logprob": mean,
                         **{c: t[c] for c in carry}})

    return ds.map_batches(score, batch_format="pyarrow")


def unigram_logprob_scores(sf_dir: str, min_count: int = LM_MIN_COUNT,
                           carry: tuple = ()):
    """CCNet-style LM quality scoring with a corpus-trained unigram model:
    per-doc (n_tokens, mean token log-probability) in exact integer
    micro-nats (`_ngram_logprob_scores` at n=1). `carry` names document
    columns passed through to the output."""
    return _ngram_logprob_scores(sf_dir, 1, "n_tokens", min_count, carry)


UNIGRAM_LOGPROB_SQL = rf"""
WITH words AS (
  SELECT doc_id,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents WHERE trim(text) <> ''
), w AS (
  SELECT doc_id, word FROM words WHERE word <> ''
), tot AS (SELECT count(*) AS n FROM w),
oov AS (
  SELECT CAST(round(ln(1.0 / (SELECT n FROM tot)) * 1000000) AS BIGINT)
         AS lpm FROM tot
),
vocab AS (
  SELECT word,
         CAST(round(ln(count(*) * 1.0 / (SELECT n FROM tot)) * 1000000)
              AS BIGINT) AS lpm
  FROM w GROUP BY word
  HAVING count(*) >= {LM_MIN_COUNT}
), per_doc AS (
  SELECT w.doc_id, count(*) AS n_tokens,
         sum(COALESCE(v.lpm, (SELECT lpm FROM oov))) AS total_lpm
  FROM w LEFT JOIN vocab v USING (word) GROUP BY w.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
       COALESCE(round(p.total_lpm * 1.0 / (p.n_tokens * 1000000.0), 6), 0.0)
         AS mean_logprob
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def _ntile(n: int, k: int, ranks: np.ndarray) -> np.ndarray:
    """Exact SQL NTILE(k) over 0-based ranks: with n = q*k + r, the first
    r tiles hold q+1 rows, the rest q."""
    q, r = divmod(int(n), k)
    big = r * (q + 1)
    return np.where(ranks < big, ranks // (q + 1),
                    r + (ranks - big) // max(q, 1)).astype(np.int64) + 1


def ccnet_perplexity_buckets(sf_dir: str):
    """CCNet-style quality bucketing (Wenzek et al. 2020, public): within
    each SOURCE, rank documents by LM score (mean unigram logprob, best
    first) and split into head / middle / tail terciles — the standard
    "keep head+middle, drop tail" curation gate, per-language in CCNet,
    per-source here.

    Scale shape: the LM scoring pass is the existing shuffle-free
    unigram_logprob_scores with `source` carried through; the tercile cut
    is an exact per-source NTILE, which NEEDS a per-source global rank —
    done as ONE exchange keyed on source (bounded cardinality, like the
    reference's per-store grouping) with a vectorized in-partition
    argsort, one Python call per source, never per doc. At extreme
    per-source skew the documented lever is sampled quantile cuts (the
    top_quartile_docs_per_source histogram trick); the exact rank is kept
    here because the oracle is exact NTILE.

    Parity: order (mean_logprob DESC, doc_id ASC) and the NTILE fill rule
    replicated bit-exactly (_ntile); bucket names head/middle/tail."""
    scores = unigram_logprob_scores(sf_dir, carry=("source",))

    def bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["mean_logprob", "doc_id"],
                          ascending=[False, True], kind="stable")
        tile = _ntile(len(g), 3, np.arange(len(g)))
        names = np.array(["head", "middle", "tail"], dtype=object)
        return pd.DataFrame({"doc_id": g["doc_id"].to_numpy(),
                             "source": g["source"].to_numpy(),
                             "bucket": names[tile - 1]})

    return scores.groupby("source").map_groups(bucket, batch_format="pandas")


CCNET_BUCKETS_SQL = f"""
SELECT u.doc_id, d.source,
  CASE NTILE(3) OVER (PARTITION BY d.source
                      ORDER BY u.mean_logprob DESC, u.doc_id)
    WHEN 1 THEN 'head' WHEN 2 THEN 'middle' ELSE 'tail' END AS bucket
FROM ({UNIGRAM_LOGPROB_SQL}) u JOIN documents d USING (doc_id)
"""


DSIR_BUCKETS = 1024


def dsir_importance_weights(sf_dir: str, n_buckets: int = DSIR_BUCKETS,
                            target_lang: str = "en"):
    """DSIR data selection (Xie et al. 2023, public): per-document log
    importance weight under hashed-unigram bag-of-words models of a
    TARGET distribution (here: lang = target_lang docs, standing in for
    "high-quality corpus") vs the RAW corpus. Docs scoring high are the
    ones importance resampling keeps.

    Tokens hash into n_buckets features (`md5_buckets`: md5 lower 64 bits
    % n_buckets — the cross-version-stable hash used everywhere here, =
    DuckDB md5_number_lower); bucket log-likelihood ratios are
    Laplace-smoothed and quantized to INTEGER micro-nats, so the per-doc
    accumulation is an exact int64 sum on both engines (the unigram_logprob
    trick).

    Scale shape: pass 1 is per-batch (bucket, raw, target) count partials
    -> ONE bounded exchange of <= n_buckets keys -> an n_buckets-row
    driver table (fixed size by construction — this is DSIR's whole point:
    the feature space never grows with the corpus) broadcast as an int64
    LLR array via ray.put; pass 2 is a shuffle-free vectorized
    np.take/bincount scoring map. No corpus-sized driver state."""
    import ray

    from .functions.dedup import md5_buckets

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = word_ngrams(df["text"], 1)
        b = md5_buckets(g["gram"], n_buckets)
        is_t = (df["lang"] == target_lang).to_numpy()[g["row"].to_numpy()]
        raw = np.bincount(b, minlength=n_buckets)
        tgt = np.bincount(b[is_t], minlength=n_buckets)
        nz = raw > 0
        return pd.DataFrame({"b": np.arange(n_buckets)[nz],
                             "raw": raw[nz], "tgt": tgt[nz]})

    counts = _reduce_small(ds.map_batches(count_partial, batch_format="pandas"),
                           ["b"], ["raw", "tgt"])  # <= n_buckets rows by construction
    raw = np.zeros(n_buckets, np.int64)
    tgt = np.zeros(n_buckets, np.int64)
    if len(counts):
        raw[counts["b"].to_numpy()] = counts["raw"].to_numpy()
        tgt[counts["b"].to_numpy()] = counts["tgt"].to_numpy()
    tot_r, tot_t = int(raw.sum()), int(tgt.sum())
    llr = round_half_away(
        (np.log((tgt + 1.0) / (tot_t + n_buckets))
         - np.log((raw + 1.0) / (tot_r + n_buckets))) * 1e6, 0
    ).astype(np.int64)
    llr_ref = ray.put(llr)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        llr_arr = _ray.get(llr_ref)
        g = word_ngrams(df["text"], 1)
        row = g["row"].to_numpy()
        tot = _doc_sums(row, len(df), llr_arr[md5_buckets(g["gram"], n_buckets)])
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "n_tokens": _doc_sums(row, len(df)),
            "log_weight": round_half_away(tot / 1e6, 6),
        })

    return ds.map_batches(score, batch_format="pandas")


DSIR_SQL = rf"""
WITH words AS (
  SELECT doc_id, lang,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents WHERE trim(text) <> ''
), w AS (
  SELECT doc_id, lang,
         CAST(md5_number_lower(word) % {DSIR_BUCKETS} AS BIGINT) AS b
  FROM words WHERE word <> ''
), tr AS (SELECT count(*) AS n FROM w),
tt AS (SELECT count(*) AS n FROM w WHERE lang = 'en'),
buckets AS (
  SELECT b, count(*) AS raw,
         count(*) FILTER (WHERE lang = 'en') AS tgt
  FROM w GROUP BY b
), llr AS (
  SELECT b,
         CAST(round((ln((tgt + 1.0) / ((SELECT n FROM tt) + {DSIR_BUCKETS}))
                   - ln((raw + 1.0) / ((SELECT n FROM tr) + {DSIR_BUCKETS})))
                    * 1000000) AS BIGINT) AS lpm
  FROM buckets
), per_doc AS (
  SELECT w.doc_id, count(*) AS n_tokens, sum(l.lpm) AS total
  FROM w JOIN llr l USING (b) GROUP BY w.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_tokens, 0) AS BIGINT) AS n_tokens,
       COALESCE(round(p.total / 1000000.0, 6), 0.0) AS log_weight
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


CLS_BUCKETS = 512


def classifier_filter_scores(sf_dir: str, n_buckets: int = CLS_BUCKETS):
    """Model-based quality filtering in the fasttext/CCNet shape (public:
    Joulin et al. 2016 hashing-trick linear classifier; the quality-filter
    role per Wenzek et al. 2020 / Touvron et al. 2023): per document,
    hashed unigram+bigram features -> linear score -> sigmoid prob ->
    keep flag at 0.5. The weights here are a deterministic pinned vector
    (md5-derived per bucket, milli-units — the stand-in for a trained
    weights file, loaded once and broadcast), so the ORACLE can rebuild
    the identical model in SQL: the correctness target is the INFERENCE
    dataflow, which is exactly what this stage does in production.

    Scale shape: no fit pass at all — the weight table is O(n_buckets)
    and computed locally per actor (cheaper than shipping at this size);
    scoring is one shuffle-free vectorized map: unigrams and adjacent
    bigrams from `word_ngrams` (no Python per row), hash via the
    cross-version-stable `md5_buckets`, np.take the weights, exact int64
    per-doc sums. Accumulation is exact integer; the one sigmoid double
    per doc is bit-identical to the oracle's."""
    from .functions.dedup import md5_buckets, md5_lower64_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    wgt = (md5_lower64_batch([f"w:{b}" for b in range(n_buckets)])
           % np.uint64(2001)).astype(np.int64) - 1000

    def score(df: pd.DataFrame) -> pd.DataFrame:
        feats = pd.concat([word_ngrams(df["text"], 1), word_ngrams(df["text"], 2)],
                          ignore_index=True)
        row = feats["row"].to_numpy()
        n_f = _doc_sums(row, len(df))
        tot = _doc_sums(row, len(df), wgt[md5_buckets(feats["gram"], n_buckets)])
        with np.errstate(over="ignore"):
            prob = np.where(
                n_f > 0,
                round_half_away(
                    1.0 / (1.0 + np.exp(-(tot * 1.0) / (1000.0 * np.maximum(n_f, 1)))), 6
                ),
                0.5,
            )
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "n_feats": n_f,
                             "prob": prob,
                             "keep": prob >= 0.5})

    return ds.map_batches(score, batch_format="pandas")


CLASSIFIER_FILTER_SQL = rf"""
WITH wl AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(lower(trim(text)), '\s+'),
                     x -> x <> '') AS wf
  FROM documents
), feats AS (
  SELECT doc_id, unnest(wf) AS f FROM wl
  UNION ALL
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(wf) - 1),
                               i -> wf[i] || ' ' || wf[i + 1])) AS f
  FROM wl WHERE len(wf) >= 2
), hashed AS (
  SELECT doc_id, CAST(md5_number_lower(f) % {CLS_BUCKETS} AS BIGINT) AS b
  FROM feats
), wgt AS (
  SELECT b, CAST(md5_number_lower('w:' || b) % 2001 AS BIGINT) - 1000 AS wv
  FROM (SELECT unnest(generate_series(0, {CLS_BUCKETS - 1})) AS b)
), per_doc AS (
  SELECT h.doc_id, count(*) AS n_feats, sum(g.wv) AS total
  FROM hashed h JOIN wgt g USING (b) GROUP BY h.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_feats, 0) AS BIGINT) AS n_feats,
       COALESCE(round(1.0 / (1.0 + exp(-(p.total * 1.0) / (1000.0 * p.n_feats))), 6),
                0.5) AS prob,
       COALESCE(round(1.0 / (1.0 + exp(-(p.total * 1.0) / (1000.0 * p.n_feats))), 6),
                0.5) >= 0.5 AS keep
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def top_quartile_docs_per_source(sf_dir: str):
    """Per-source top-25% selection by document length (the stratified
    "keep the best slice of every source" curation step), EXACT at scale
    with no per-source sort:

      pass 1: (source, n_chars) histogram — combiner partials -> small
        groupby -> driver table (|sources| x |distinct lengths|, bounded);
      driver: per-source quota k = ceil(n/4), cut value c* from the
        descending cumulative histogram, and the number of boundary-tie
        slots still open;
      pass 2: per-batch partial min-k doc_ids among rows AT the boundary
        value (a distributed bounded top-k: the global k smallest tie ids
        are a subset of the union of per-batch k smallest) -> tiny driver
        merge -> broadcast keep-set;
      pass 3: stream filter n_chars > c* OR doc_id in tie keep-set.

    Ties rank by doc_id ASC on both sides, so the selection is
    deterministic and reshard-stable. Reads ONLY (doc_id, source,
    n_chars) — the text column never leaves storage."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["source", "n_chars"], sort=False)
             .size().rename("n").reset_index())
        return g

    hist = _reduce_small(ds.map_batches(hist_partial, batch_format="pandas"),
                         ["source", "n_chars"], ["n"])
    cut, tie_need = {}, {}
    for source, g in hist.groupby("source", sort=False):
        g = g.sort_values("n_chars", ascending=False)
        n = int(g["n"].sum())
        k = (n + 3) // 4  # ceil(n / 4)
        cum = g["n"].cumsum().to_numpy()
        pos = int(np.searchsorted(cum, k))
        c_star = int(g["n_chars"].to_numpy()[pos])
        above = int(cum[pos - 1]) if pos > 0 else 0
        cut[source] = c_star
        tie_need[source] = k - above

    ties = pa.schema([("doc_id", pa.int64()), ("source", pa.string())])
    kept = ties.append(pa.field("n_chars", pa.int64()))

    def tie_partial(df: pd.DataFrame) -> pa.Table:
        at = df[df["n_chars"] == df["source"].map(cut)]
        out = [g.nsmallest(tie_need[source], "doc_id")
               for source, g in at.groupby("source", sort=False)]
        return _arrow(pd.concat(out) if out else at, ties)

    tied = ds.map_batches(tie_partial, batch_format="pandas").to_pandas()
    keep_ids: set = set()
    for source, g in tied.groupby("source", sort=False):
        keep_ids |= set(g.nsmallest(tie_need[source], "doc_id")["doc_id"])
    keep_ref = ray.put(keep_ids)

    def final(df: pd.DataFrame) -> pa.Table:
        import ray as _ray

        keep = _ray.get(keep_ref)
        return _arrow(df[(df["n_chars"] > df["source"].map(cut))
                         | df["doc_id"].isin(keep)], kept)

    return ds.map_batches(final, batch_format="pandas")


TOP_QUARTILE_SQL = """
SELECT doc_id, source, n_chars FROM (
  SELECT doc_id, source, n_chars,
         row_number() OVER (PARTITION BY source
                            ORDER BY n_chars DESC, doc_id) AS rn,
         count(*) OVER (PARTITION BY source) AS n
  FROM documents)
WHERE rn <= (n + 3) // 4
"""


def hll_distinct_tokens(sf_dir: str):
    """Distinct-token cardinality via a HyperLogLog sketch (Flajolet et al.
    2007, public) — the mergeable-sketch aggregation pattern: per-batch
    PARTIAL register arrays (m=2^b maxima), merged by an elementwise max
    reduce; only m integers ever move per batch, regardless of corpus size
    (the shape count-distinct takes at 100 TB when exact `unique` would
    shuffle every token).

    Exact oracle parity: registers are integer bit math on
    md5_number_lower (bucket = hash >> (64-b); rank = leading zeros of the
    suffix + 1 via bit_length); the register sum is carried as the EXACT
    integer S = sum(2^(57-M_j)) so both engines perform the identical
    single float division for the raw estimate. No small-range correction
    (this emits the raw estimator; corrections are post-processing on the
    same registers). b is fixed at 6: the alpha constant below and HLL_SQL
    are the m=64 instantiation."""
    b = 6
    from .functions.dedup import md5_lower64_batch

    m = 1 << b
    suffix_bits = 64 - b

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # distinct within batch: registers are maxima
        uniq = word_ngrams(df["text"], 1)["gram"].unique()
        hv = md5_lower64_batch(uniq)
        bucket = (hv >> np.uint64(suffix_bits)).astype(np.int64)
        suffix = (hv & np.uint64((1 << suffix_bits) - 1)).astype(np.int64)
        # vectorized bit_length: binary clz over int64 (exact — no float
        # log2, whose 53-bit mantissa mis-rounds near power-of-2 boundaries)
        bl = np.zeros(len(suffix), dtype=np.int64)
        x = suffix.copy()
        for s in (32, 16, 8, 4, 2, 1):
            hi = (x >> s) > 0
            bl[hi] += s
            x[hi] >>= s
        bl += x > 0
        # cap at suffix_bits: an all-zero suffix would otherwise yield
        # rank 59 and a negative shift in the register sum
        rank = np.minimum(suffix_bits - bl + 1, suffix_bits)
        regs = np.zeros(m, dtype=np.int64)
        np.maximum.at(regs, bucket, rank)
        nz = np.nonzero(regs)[0]
        return pd.DataFrame({"bucket": nz.astype(np.int64), "rank": regs[nz]})

    ds = _read(sf_dir, "documents", ["text"])
    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()  # <= m rows per batch
    regs = np.zeros(m, dtype=np.int64)
    np.maximum.at(regs, parts["bucket"].to_numpy(), parts["rank"].to_numpy())
    # exact integer register sum (arbitrary-precision int here, HUGEINT in
    # the oracle — it can reach m * 2^58 which overflows int64)
    s_exact = sum(1 << (suffix_bits - int(r)) for r in regs)
    # alpha_64 = 0.709 (standard constant for m=64); float(S) is correctly
    # rounded on both engines, so the one division matches bit-for-bit
    estimate = round_half_away(
        0.709 * m * m * float(1 << suffix_bits) / float(s_exact), 6)
    return pd.DataFrame({
        "m": np.array([m], dtype=np.int64),
        "nonzero_registers": np.array([int((regs > 0).sum())], dtype=np.int64),
        "estimate": np.array([estimate], dtype=np.float64),
    })


# fixed at b=6 (m=64) to mirror the Python default; ranks: leading zeros of
# the 58-bit suffix + 1, via the binary-string length of the suffix
HLL_SQL = r"""
WITH words AS (
  SELECT DISTINCT unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents WHERE trim(text) <> ''
), hashed AS (
  SELECT md5_number_lower(word) AS hv FROM words WHERE word <> ''
), ranked AS (
  SELECT CAST(hv >> 58 AS BIGINT) AS bucket,
         least(58 - length(ltrim(bin(hv & ((1::UBIGINT << 58) - 1)), '0')) + 1, 58) AS rank
  FROM hashed
), regs AS (
  SELECT g.bucket, COALESCE(mx.rank, 0) AS rank
  FROM generate_series(0, 63) AS g(bucket)
  LEFT JOIN (SELECT bucket, max(rank) AS rank FROM ranked GROUP BY bucket) mx
    USING (bucket)
), s AS (
  SELECT sum(CAST(1::UBIGINT << (58 - rank) AS HUGEINT)) AS s_exact,
         sum(CASE WHEN rank > 0 THEN 1 ELSE 0 END) AS nz
  FROM regs
)
SELECT CAST(64 AS BIGINT) AS m,
       CAST(nz AS BIGINT) AS nonzero_registers,
       round(CAST(0.709 AS DOUBLE) * 64 * 64 * CAST(1::BIGINT << 58 AS DOUBLE)
             / CAST(s_exact AS DOUBLE), 6) AS estimate
FROM s
"""


def bloom_novel_docs(sf_dir: str):
    """Incremental dedup against a prior corpus via a Bloom filter (Bloom
    1970, public) — the approximate-membership pattern for "is this new
    crawl item already in yesterday's corpus?" at scale, where the exact
    content-hash set is too large to broadcast but the BITSET is not:

      pass 1 (old corpus, doc_id % 10 != 0): k=3 batched-md5 probe
        positions per doc -> per-batch DISTINCT positions -> driver bitset
        (m bools — the filter is O(m) regardless of corpus size, the whole
        point) -> ray.put broadcast; probes verify as one vectorized
        bitset gather, no per-doc Python;
      pass 2 (new docs): maybe_duplicate iff ALL k probe bits are set.

    m=1024 at this corpus size gives ~0.7 fill (a deliberately loaded
    filter so both outcomes occur); production sizes m to the target FP
    rate. Probes are md5(j + ':' + text), bit-identical in the oracle."""
    import ray

    from .functions.dedup import md5_lower64_batch

    m, k = 1024, 3

    def probe_matrix(texts: pd.Series) -> np.ndarray:
        """(len(texts), k) int64 probe positions, one batched md5 sweep per
        probe index — no per-doc Python."""
        texts = texts.fillna("")
        return np.stack([
            (md5_lower64_batch(f"{j}:{t}" for t in texts) % np.uint64(m))
            .astype(np.int64)
            for j in range(k)
        ], axis=1) if len(texts) else np.empty((0, k), dtype=np.int64)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def old_positions(df: pd.DataFrame) -> pd.DataFrame:
        old = df[df["doc_id"] % 10 != 0]
        pos = np.unique(probe_matrix(old["text"]))
        return pd.DataFrame({"pos": pos})

    bits = np.zeros(m, dtype=bool)  # the whole filter is m bits — broadcast
    bits[ds.map_batches(old_positions, batch_format="pandas")
           .to_pandas()["pos"].to_numpy()] = True
    bits_ref = ray.put(bits)

    def check_new(df: pd.DataFrame) -> pd.DataFrame:
        import ray as _ray

        bset = _ray.get(bits_ref)
        new = df[df["doc_id"] % 10 == 0]
        pm = probe_matrix(new["text"])
        flag = bset[pm].all(axis=1) if len(pm) else np.empty(0, dtype=bool)
        return pd.DataFrame({"doc_id": new["doc_id"].to_numpy(),
                             "maybe_duplicate": flag})

    return ds.map_batches(check_new, batch_format="pandas")


BLOOM_NOVEL_SQL = r"""
WITH probes AS (
  SELECT doc_id,
         md5_number_lower(CAST(j AS VARCHAR) || ':' || COALESCE(text, '')) % 1024
           AS pos
  FROM documents CROSS JOIN generate_series(0, 2) AS g(j)
), old_bits AS (
  SELECT DISTINCT pos FROM probes WHERE doc_id % 10 <> 0
)
SELECT p.doc_id,
       bool_and(p.pos IN (SELECT pos FROM old_bits)) AS maybe_duplicate
FROM probes p WHERE p.doc_id % 10 = 0
GROUP BY p.doc_id
"""


def global_shuffle_rank(sf_dir: str, n_shards: int = 16, n_buckets: int = 256):
    """Deterministic global shuffle for training-data ordering: every doc
    gets its position in the md5-permuted corpus order and a round-robin
    training shard — WITHOUT ds.random_shuffle's full materialized
    exchange and without a global sort.

    Distributed exact rank (the pack_sequences prefix-sum pattern, keyed
    on the hash instead of doc_id): md5 keys are uniform, so the top 8
    bits form 256 balanced range buckets that are MONOTONE in the sort
    key. Pass 1 streams per-bucket counts (driver holds 256 ints ->
    exclusive prefix offsets); pass 2 is one keyed shuffle, an in-bucket
    vectorized argsort, and rank = bucket offset + local index. Ties
    (64-bit hash collisions) break by doc_id on both sides."""
    from .functions.dedup import md5_lower64_batch

    shift = np.uint64(64 - int(np.log2(n_buckets)))

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        key = md5_lower64_batch(str(x) for x in df["doc_id"])
        return pd.DataFrame({
            "doc_id": df["doc_id"].to_numpy(),
            "key": key,
            "bucket": (key >> shift).astype(np.int64),
        })

    keyed_ds = _read(sf_dir, "documents", ["doc_id"]).map_batches(
        keyed, batch_format="pandas")

    def bucket_partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df["bucket"].value_counts()
        return pd.DataFrame({"bucket": vc.index.to_numpy(dtype=np.int64),
                             "n": vc.to_numpy()})

    counts = _reduce_small(
        keyed_ds.map_batches(bucket_partial, batch_format="pandas"),
        ["bucket"], ["n"]).sort_values("bucket")
    offsets = dict(zip(
        counts["bucket"].to_numpy(),
        np.concatenate([[0], counts["n"].to_numpy()[:-1].cumsum()]),
    ))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["doc_id"].to_numpy(),
                            g["key"].to_numpy(dtype=np.uint64)))
        pos = (np.arange(len(g), dtype=np.int64)
               + int(offsets.get(int(g["bucket"].iloc[0]), 0)))
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy()[order],
            "pos": pos,
            "shard": pos % n_shards,
        })

    return keyed_ds.groupby("bucket").map_groups(
        per_bucket, batch_format="pandas")


GLOBAL_SHUFFLE_SQL = """
WITH ranked AS (
  SELECT doc_id,
         row_number() OVER (
           ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id) - 1
           AS pos
  FROM documents
)
SELECT doc_id, CAST(pos AS BIGINT) AS pos, CAST(pos % 16 AS BIGINT) AS shard
FROM ranked
"""


def per_source_cap(sf_dir: str, cap: int = PER_SOURCE_CAP_N):
    """C4/CCNet-style per-source document cap: keep at most `cap` docs per
    source, selected deterministically by md5 hash order (a seeded
    reservoir that is reshard-stable). Scale shape: per-batch PARTIAL
    top-cap per source (a combiner — each block emits <= |sources|*cap
    rows) -> small groupby(source) final top-cap. The shuffle moves
    O(blocks * sources * cap) tiny rows, never the corpus; source
    cardinality is bounded (like the reference's per-store grouping), so
    one native group per source is fine.

    Exact oracle parity: ORDER BY md5_number_lower(doc_id), doc_id on
    both sides (QUALIFY row_number() <= cap)."""
    from .functions.dedup import md5_lower64_batch

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        key = md5_lower64_batch(str(x) for x in df["doc_id"])
        # uint64 hash order carried as two int32 halves (exact lexicographic)
        df["hkey_hi"] = (key >> np.uint64(32)).astype(np.int64)
        df["hkey_lo"] = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
        df = df.sort_values(["hkey_hi", "hkey_lo", "doc_id"], kind="stable")
        return df.groupby("source", sort=False).head(cap)[
            ["doc_id", "source", "hkey_hi", "hkey_lo"]]

    kept = pa.schema([("doc_id", pa.int64()), ("source", pa.string())])

    def final(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["hkey_hi", "hkey_lo", "doc_id"], kind="stable")
        return _arrow(g.head(cap), kept)

    return (
        _read(sf_dir, "documents", ["doc_id", "source"])
        .map_batches(partial, batch_format="pandas")
        .groupby("source").map_groups(final, batch_format="pandas")
    )


PER_SOURCE_CAP_SQL = f"""
SELECT doc_id, source FROM documents
QUALIFY row_number() OVER (
  PARTITION BY source
  ORDER BY md5_number_lower(CAST(doc_id AS VARCHAR)), doc_id) <= {PER_SOURCE_CAP_N}
"""


# Gopher-style rule cascade (Rae et al. 2021 App. A1; thresholds
# calibrated to this corpus so every rule fires AND passes somewhere —
# falsifiable both ways). All comparisons are INTEGER math: no float
# parity surface at all. Stopwords = the corpus's 6 most frequent words
# (the synthetic vocabulary has no English function words).
_GOPHER_STOPWORDS = ("join", "hash", "row", "batch", "scan", "column")


def gopher_filter_cascade(sf_dir: str):
    """Per-doc quality filter cascade with REASONS (the Dolma/Gopher
    tagger pattern): first failing rule wins. Rules, in order:
      too_short    n_words < 20
      too_long     n_words > 90
      word_length  mean word length < 4 or > 5  (chars<4n | chars>5n)
      no_stopwords stopword fraction < 0.1      (10*stop < n)
      repetitive   dup-word ratio > 0.65        (20*distinct < 7*n)
    Pure map_batches — no shuffle; every rule is exact integer math."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    stop = set(_GOPHER_STOPWORDS)

    def cascade(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].fillna("").str.strip().str.split().reset_index(drop=True)
        n = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        flat = toks.explode().dropna()  # index = source row position
        def per_doc(agg: pd.Series) -> np.ndarray:
            return agg.reindex(range(len(df)), fill_value=0).to_numpy(dtype=np.int64)
        chars = per_doc(flat.str.len().groupby(level=0).sum())
        nstop = per_doc(flat.isin(stop).groupby(level=0).sum())
        ndist = per_doc(flat.groupby(level=0).nunique())
        reason = np.full(len(df), "", dtype=object)
        keep = np.ones(len(df), dtype=bool)

        def rule(mask, name):
            hit = mask & keep
            reason[hit] = name
            keep[hit] = False

        rule(n < 20, "too_short")
        rule(n > 90, "too_long")
        rule((chars < 4 * n) | (chars > 5 * n), "word_length")
        rule(10 * nstop < n, "no_stopwords")
        rule(20 * ndist < 7 * n, "repetitive")
        return pd.DataFrame({"doc_id": df["doc_id"].to_numpy(),
                             "keep": keep, "reason": reason})

    return ds.map_batches(cascade, batch_format="pandas")


GOPHER_CASCADE_SQL = r"""
WITH t AS (
  SELECT doc_id, trim(COALESCE(text, '')) AS txt FROM documents
), w AS (
  -- word <> '' mirrors Python .strip().split(): \s+ splitting of text with
  -- leading/trailing tabs/newlines yields empty tokens that must not count
  SELECT doc_id, word FROM (
    SELECT doc_id, unnest(regexp_split_to_array(txt, '\s+')) AS word
    FROM t WHERE txt <> ''
  ) WHERE word <> ''
), s AS (
  SELECT t.doc_id,
         COALESCE(count(w.word), 0) AS n,
         COALESCE(sum(len(w.word)), 0) AS chars,
         COALESCE(sum(CASE WHEN w.word IN
           ('join','hash','row','batch','scan','column') THEN 1 ELSE 0 END), 0)
           AS nstop,
         COALESCE(count(DISTINCT w.word), 0) AS ndist
  FROM t LEFT JOIN w USING (doc_id) GROUP BY t.doc_id
)
SELECT doc_id,
  CASE
    WHEN n < 20 THEN 'too_short'
    WHEN n > 90 THEN 'too_long'
    WHEN chars < 4 * n OR chars > 5 * n THEN 'word_length'
    WHEN 10 * nstop < n THEN 'no_stopwords'
    WHEN 20 * ndist < 7 * n THEN 'repetitive'
    ELSE ''
  END AS reason,
  CASE
    WHEN n < 20 OR n > 90 OR chars < 4 * n OR chars > 5 * n
      OR 10 * nstop < n OR 20 * ndist < 7 * n THEN FALSE
    ELSE TRUE
  END AS keep
FROM s
"""


def mg_heavy_hitters(sf_dir: str, frac_den: int = MG_FRAC_DEN, sketch_k: int = 32):
    """Frequent-words via a mergeable Misra-Gries sketch (Misra & Gries
    1982; merge bound Agarwal et al. 2012) + an exact verification pass —
    the third mergeable summary alongside HLL and Bloom. Returns every
    word with true count * frac_den > total (frac = 1/frac_den).

    Scale shape and the error ledger:
      pass 1: per-batch MG summary (<= sketch_k counters; computed from
        exact batch counts by subtracting the (sketch_k+1)-th largest,
        undercount <= n_b/(sketch_k+1)) -> groupby(word) SUM of partials.
        Summed partials undercount by at most sum_b n_b/(k+1) = n/(k+1),
        so every true heavy hitter has partial_sum > n*(1/frac_den -
        1/(k+1)) — the candidate filter — and the candidate COUNT is
        bounded by 1/(1/frac_den - 1/(k+1)) = 330 words at the defaults,
        a broadcastable constant regardless of corpus size (requires
        sketch_k + 1 > frac_den, asserted).
      pass 2: exact counts for the broadcast candidates only -> integer
        threshold filter. Both passes' thresholds are pure int math."""
    import ray

    assert sketch_k + 1 > frac_den, "MG guarantee needs k+1 > frac_den"
    ds = _read(sf_dir, "documents", ["text"])
    counts = pa.schema([("word", pa.string()), ("cnt", pa.int64())])

    def mg_partial(df: pd.DataFrame) -> pa.Table:
        vc = word_ngrams(df["text"], 1)["gram"].value_counts()
        if len(vc) > sketch_k:
            t = int(vc.iloc[sketch_k])  # (k+1)-th largest
            vc = (vc - t)[lambda s: s > 0]
        return _arrow(pd.DataFrame({"word": vc.index, "cnt": vc.to_numpy()}), counts)

    partials = _keyed_sum(
        ds.map_batches(mg_partial, batch_format="pandas"), "word", val="cnt")
    # the exact token total, from a cheap pass of its own
    total = int(
        ds.map_batches(
            lambda df: pd.DataFrame({"n": [len(word_ngrams(df["text"], 1))]}),
            batch_format="pandas",
        ).sum("n")
    )
    # candidate filter: cnt_sum * frac_den * (k+1) > total * (k+1 - frac_den)
    # — rewritten as an exact integer-division threshold (for integer cnt,
    # cnt*A > B  <=>  cnt > B//A), since filter exprs want `col > literal`
    kp1 = sketch_k + 1
    cand_thr = (total * (kp1 - frac_den)) // (frac_den * kp1)
    cand = _collect_where(partials, f"cnt > {cand_thr}", ["word", "cnt"])
    cand_ref = ray.put(set(cand["word"]))

    def exact_counts(df: pd.DataFrame) -> pa.Table:
        import ray as _ray

        cset = _ray.get(cand_ref)
        toks = word_ngrams(df["text"], 1)["gram"]
        vc = toks[toks.isin(cset)].value_counts()
        return _arrow(pd.DataFrame({"word": vc.index, "cnt": vc.to_numpy()}), counts)

    out = _collect_where(
        _keyed_sum(ds.map_batches(exact_counts, batch_format="pandas"),
                   "word", val="cnt"),
        f"cnt > {total // frac_den}", ["word", "cnt"])  # exact: int cnt
    out["cnt"] = out["cnt"].astype("int64")
    return out.sort_values(["cnt", "word"], ascending=[False, True],
                           kind="stable").reset_index(drop=True)


MG_HEAVY_HITTERS_SQL = rf"""
WITH w AS (
  SELECT unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
  FROM documents WHERE trim(text) <> ''
), ww AS (SELECT word FROM w WHERE word <> ''),
tot AS (SELECT count(*) AS n FROM ww),
c AS (SELECT word, count(*) AS cnt FROM ww GROUP BY word)
SELECT word, cnt FROM c
WHERE cnt * {MG_FRAC_DEN} > (SELECT n FROM tot)
"""


def ann_lsh_multiprobe_topk(sf_dir: str, k: int = 10, n_queries: int = 5,
                            nbits: int = 8):
    """Multi-probe LSH ANN (Lv et al. 2007, public): each query probes its
    own bucket PLUS every 1-bit-flip neighbour (nbits+1 buckets), trading
    a bounded widening of the candidate set for recall — the standard
    production lever when single-bucket LSH recall is too low (measured
    here by ann_recall_eval / ann_recall_multiprobe). Same pipeline as
    ann_lsh_topk with the widened probe set."""
    return ann_lsh_topk(sf_dir, k=k, n_queries=n_queries, nbits=nbits,
                        multiprobe=True)


def _recall_vs_brute(sf_dir: str, approx: pd.DataFrame, k: int) -> pd.DataFrame:
    """recall@k of an approximate-index result against exact brute force:
    both legs are k-row-per-query tables; only they meet on the driver."""
    brute = ann_topk(sf_dir, k=k)
    m = brute.merge(approx[["query_id", "vec_id"]].assign(hit=np.int64(1)),
                    on=["query_id", "vec_id"], how="left")
    rec = m.groupby("query_id", as_index=False)["hit"].agg(
        lambda s: float(s.notna().sum()))
    return pd.DataFrame({
        "query_id": rec["query_id"].to_numpy(),
        "recall": round_half_away(rec["hit"].to_numpy(dtype=np.float64) / k, 6),
    }).sort_values("query_id").reset_index(drop=True)


def _ann_lsh_multiprobe_sql(nbits: int = 8) -> str:
    flips = ", ".join(str(1 << i) for i in range(nbits))
    return f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings ORDER BY vec_id LIMIT 5
), qb AS (
  SELECT DISTINCT xor(b.bucket, f.flip) AS bucket
  FROM (SELECT {{bucket_expr}} AS bucket FROM q) b
  CROSS JOIN (SELECT unnest([0, {flips}]) AS flip) f
), cand AS (
  SELECT vec_id, embedding FROM embeddings
  WHERE {{cand_expr}} IN (SELECT bucket FROM qb)
), scored AS (
  SELECT q.query_id, c.vec_id,
         round(list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                      CAST(c.embedding AS DOUBLE[])), 6) AS score
  FROM q CROSS JOIN cand c
)
SELECT query_id, vec_id, score FROM scored
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) <= 10
""".format(bucket_expr=_lsh_bucket_sql("qe", nbits),
           cand_expr=_lsh_bucket_sql("embedding", nbits))


def ann_recall_multiprobe(sf_dir: str, k: int = 10):
    """recall@k of the MULTI-PROBE LSH index vs exact brute force — the
    companion measurement to ann_recall_eval showing what the 1-bit-flip
    probe widening buys."""
    return _recall_vs_brute(sf_dir, ann_lsh_multiprobe_topk(sf_dir, k=k), k)


def ann_recall_eval(sf_dir: str, k: int = 10):
    """ANN quality evaluation: recall@k of the LSH-bucketed index against
    exact brute force, per query — the measurement that justifies (or
    rejects) an approximate index before a corpus-wide rollout. Both
    legs are the existing distributed pipelines (brute: broadcast query
    matrix, per-batch partial top-k; LSH: hyperplane buckets, bucket-
    filtered scoring); only the two k-row result sets meet on the driver.
    recall = |lsh ∩ brute| / k, exact (k-denominator rational)."""
    return _recall_vs_brute(sf_dir, ann_lsh_topk(sf_dir, k=k), k)


def _ann_recall_sql(approx_sql: str | None = None) -> str:
    """Oracle: the brute and approximate-index oracles verbatim as
    subqueries, joined on (query_id, vec_id) — recall is the matched
    fraction."""
    return f"""
SELECT b.query_id, round(count(l.vec_id) / 10.0, 6) AS recall
FROM ({ANN_TOPK_SQL}) b
LEFT JOIN ({approx_sql or ANN_LSH_SQL}) l USING (query_id, vec_id)
GROUP BY b.query_id ORDER BY b.query_id
"""


def ann_pq_topk(sf_dir: str, k: int = 10, n_queries: int = 5, m_sub: int = 4,
                k_codes: int = 8, iters: int = 2):
    """Product-quantization ANN with ADC scoring (Jegou, Douze, Schmid
    2011, public) — the COMPRESSION scale path of the ANN family (brute /
    LSH / multiprobe / IVF / PQ): per-subspace codebooks fit on the
    bounded vec_id-ordered sample with the deterministic round6 Lloyd
    (L2 metric, pq_parity_fit), every corpus vector compressed to m_sub
    code indices, and queries scored by asymmetric distance computation
    — per-query (m_sub x k_codes) inner-product lookup tables in integer
    micro-units, so scoring a batch is a gather + exact int sum, never a
    matmul against raw vectors. At scale this is the memory lever: 64
    float32 dims become m_sub small codes resident in RAM.

    Scale shape: bounded driver fit -> codebooks (tiny) once per actor -> ONE
    pass over embeddings (encode + ADC + per-batch partial top-k) ->
    k x n_queries x blocks rows reduce on the driver. EXACT DuckDB
    oracle (_pq_sql): every Lloyd step on the round6 grid, ADC sums in
    integer micro-units (order-independent), same DESC/vec_id tiebreaks.
    Quality vs the exact baseline is measured by ann_recall_pq."""
    from .functions.ann import embedding_matrix, pq_parity_fit, pq_scores, quantized_unit

    nv_sample = quantized_unit(embedding_matrix(_lowest_vec_ids(sf_dir, 4096)))
    books = pq_parity_fit(nv_sample, m_sub=m_sub, k_codes=k_codes, iters=iters)
    return _ann_search(sf_dir, "ann_pq_topk", pq_scores, k, n_queries, books=books)


def _pq_sql(m_sub: int = 4, k_codes: int = 8, iters: int = 2,
            n_queries: int = 5, topk: int = 10, sample: int = 4096,
            dim: int = 64) -> str:
    """SQL mirroring ann_pq_topk exactly: same quantized-unit vectors,
    same per-subspace first-K init and round6-L2 Lloyd (unrolled CTEs,
    means NOT re-normalized), same encode rule, and the ADC score as a
    sum of integer micro-unit dot products (exact on both engines).
    DuckDB list slices are 1-based inclusive: subspace m = nv[m*sd+1 :
    (m+1)*sd]."""
    qnorm = "list_transform({src}, x -> round(x / sqrt(list_sum(list_transform({src}, y -> y*y))), 6))"
    sd = dim // m_sub
    sql = f"""
WITH ecast AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings
), nvec AS (
  SELECT vec_id, {qnorm.format(src='e')} AS nv FROM ecast
), samp AS (
  SELECT vec_id, nv FROM nvec ORDER BY vec_id LIMIT {sample}
)"""
    for m in range(m_sub):
        lo, hi = m * sd + 1, (m + 1) * sd
        sql += f""", s{m} AS (
  SELECT vec_id, nv[{lo}:{hi}] AS sv FROM samp
), c0_{m} AS (
  SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cid, sv AS c
  FROM (SELECT vec_id, sv FROM s{m} ORDER BY vec_id LIMIT {k_codes})
)"""
        prev = f"c0_{m}"
        for t in range(1, iters + 1):
            sql += f""", a{t}_{m} AS (
  SELECT s.vec_id, s.sv, c.cid
  FROM s{m} s CROSS JOIN {prev} c
  QUALIFY row_number() OVER (PARTITION BY s.vec_id
          ORDER BY round(list_distance(s.sv, c.c), 6) ASC, c.cid) = 1
), m{t}_{m} AS (
  SELECT cid, list(mx ORDER BY i) AS m FROM (
    SELECT cid, i, round(avg(x), 6) AS mx FROM (
      SELECT cid, unnest(sv) AS x, generate_subscripts(sv, 1) AS i FROM a{t}_{m})
    GROUP BY cid, i)
  GROUP BY cid
), c{t}_{m} AS (
  SELECT p.cid, COALESCE(m.m, p.c) AS c
  FROM {prev} p LEFT JOIN m{t}_{m} m ON p.cid = m.cid
)"""
            prev = f"c{t}_{m}"
        sql += f""", af{m} AS (
  SELECT n.vec_id, c.cid
  FROM nvec n CROSS JOIN {prev} c
  QUALIFY row_number() OVER (PARTITION BY n.vec_id
          ORDER BY round(list_distance(n.nv[{lo}:{hi}], c.c), 6) ASC, c.cid) = 1
)"""
    terms = " +\n         ".join(
        f"CAST(round(list_dot_product(q.qv[{m * sd + 1}:{(m + 1) * sd}], "
        f"b{m}.c) * 1000000) AS BIGINT)"
        for m in range(m_sub))
    joins = f"\n  JOIN c{iters}_0 b0 ON b0.cid = a0.cid"
    for m in range(1, m_sub):
        joins += (f"\n  JOIN af{m} a{m} ON a{m}.vec_id = a0.vec_id"
                  f"\n  JOIN c{iters}_{m} b{m} ON b{m}.cid = a{m}.cid")
    sql += f""", q AS (
  SELECT vec_id AS query_id, nv AS qv FROM nvec ORDER BY vec_id LIMIT {n_queries}
), scored AS (
  SELECT q.query_id, a0.vec_id,
         round(({terms}) / 1000000.0, 6) AS score
  FROM q CROSS JOIN af0 a0{joins}
)
SELECT query_id, vec_id, score FROM scored
QUALIFY row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) <= {topk}
"""
    return sql


ANN_PQ_SQL = _pq_sql()


def ann_recall_pq(sf_dir: str, k: int = 10):
    """recall@k of the PQ/ADC index vs exact brute force — what the
    compression costs in quality, the third recall measurement beside
    the single-probe and multi-probe LSH evals."""
    return _recall_vs_brute(sf_dir, ann_pq_topk(sf_dir, k=k), k)


def ann_recall_ivf(sf_dir: str, k: int = 10):
    """recall@k of the IVF (nprobe-pruned) index vs exact brute force —
    completes the recall ledger across every approximate index in the
    family (LSH single-probe, multi-probe, IVF, PQ): what nprobe=3 of 8
    clusters costs in quality."""
    return _recall_vs_brute(sf_dir, ann_ivf_topk(sf_dir, k=k), k)


def bigram_logprob_scores(sf_dir: str, min_count: int = LM_MIN_COUNT):
    """Order-2 LM quality scoring (the CCNet-style LM filter one order up
    from unigram_logprob_scores): per-doc (n_bigrams, mean JOINT bigram
    log-probability) in exact integer micro-nats, the same scorer at n=2
    (`_ngram_logprob_scores`)."""
    return _ngram_logprob_scores(sf_dir, 2, "n_bigrams", min_count)


BIGRAM_LOGPROB_SQL = _TOKS_CTE + rf""", bg AS (
  SELECT doc_id, word || ' ' || lead(word, 1) OVER w AS gram
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 1) OVER w IS NOT NULL
), tot AS (SELECT count(*) AS n FROM bg),
oov AS (
  SELECT CAST(round(ln(1.0 / (SELECT n FROM tot)) * 1000000) AS BIGINT)
         AS lpm FROM tot
),
vocab AS (
  SELECT gram,
         CAST(round(ln(count(*) * 1.0 / (SELECT n FROM tot)) * 1000000)
              AS BIGINT) AS lpm
  FROM bg GROUP BY gram
  HAVING count(*) >= {LM_MIN_COUNT}
), per_doc AS (
  SELECT bg.doc_id, count(*) AS n_bigrams,
         sum(COALESCE(v.lpm, (SELECT lpm FROM oov))) AS total_lpm
  FROM bg LEFT JOIN vocab v USING (gram) GROUP BY bg.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
       COALESCE(round(p.total_lpm * 1.0 / (p.n_bigrams * 1000000.0), 6), 0.0)
         AS mean_logprob
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def q4_order_priority(sf_dir: str):
    """TPC-H Q4 (adapted to this schema: the EXISTS predicate is
    l_shipdate > o_orderdate, the late-shipment semi-join): priority
    counts for 1996-Q1 orders having at least one late-shipped line.

    Scale shape: the order->date map is ORDER-cardinality (never
    broadcast); both streams are `_exchange` sides on orderkey, and each
    partition runs the semi-join as two Arrow joins. The final
    5-row groupby sums the per-partition counts on the driver."""
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1996-04-01")

    def o_side(df: pd.DataFrame) -> pa.Table:
        d = df[(df["o_orderdate"].to_numpy() >= lo) & (df["o_orderdate"].to_numpy() < hi)]
        return pa.table({"key": d["o_orderkey"].to_numpy(), "prio": d["o_orderpriority"],
                         "date": d["o_orderdate"].to_numpy()})

    def semi_count(o: pa.Table, l: pa.Table) -> pa.Table:
        m = o.join(l, "key", right_suffix="_l")
        late = m.filter(pc.greater(m["date_l"], m["date"])).select(["key"])
        return o.join(late, "key", join_type="left semi").group_by("prio").aggregate(
            [("key", "count")])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])\
        .map_batches(o_side, batch_format="pandas")
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])\
        .rename_columns({"l_orderkey": "key", "l_shipdate": "date"})
    partials = _exchange(
        [(orders, pa.schema([("key", pa.int64()), ("prio", pa.string()),
                             ("date", pa.timestamp("us"))])),
         (lines, pa.schema([("key", pa.int64()), ("date", pa.timestamp("us"))]))],
        "key", semi_count)
    out = _reduce_small(partials, ["prio"], ["key_count"])
    return pd.DataFrame({"o_orderpriority": out["prio"],
                         "order_count": out["key_count"].astype("int64")}).sort_values(
        "o_orderpriority").reset_index(drop=True)


Q4_SQL = """
SELECT o_orderpriority, count(*) AS order_count
FROM orders o
WHERE o.o_orderdate >= DATE '1996-01-01' AND o.o_orderdate < DATE '1996-04-01'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate)
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def q12_priority_by_returnflag(sf_dir: str):
    """TPC-H Q12 (shipmode -> returnflag on this schema): per returnflag
    of 1996-shipped lines, CASE-sum of high- vs low-priority orders.
    Same co-partitioned big-big join as q4; the CASE-sums are partial
    per partition, and the driver sums them into the 3-row result."""
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1997-01-01")

    def o_side(df: pd.DataFrame) -> pa.Table:
        high = df["o_orderpriority"].isin(["1-URGENT", "2-HIGH"]).to_numpy(dtype=np.int64)
        return pa.table({"key": df["o_orderkey"].to_numpy(), "high": high})

    def l_side(df: pd.DataFrame) -> pa.Table:
        d = df[(df["l_shipdate"].to_numpy() >= lo) & (df["l_shipdate"].to_numpy() < hi)]
        return pa.table({"key": d["l_orderkey"].to_numpy(), "flag": d["l_returnflag"]})

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])\
        .map_batches(o_side, batch_format="pandas")
    lines = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate", "l_returnflag"])\
        .map_batches(l_side, batch_format="pandas")
    partials = _exchange(
        [(orders, pa.schema([("key", pa.int64()), ("high", pa.int64())])),
         (lines, pa.schema([("key", pa.int64()), ("flag", pa.string())]))], "key",
        lambda o, l: l.join(o, "key").group_by("flag").aggregate(
            [("high", "sum"), ("high", "count")]))
    out = _reduce_small(partials, ["flag"], ["high_sum", "high_count"])
    return pd.DataFrame({
        "l_returnflag": out["flag"],
        "high_line_count": out["high_sum"].astype("int64"),
        "low_line_count": (out["high_count"] - out["high_sum"]).astype("int64"),
    }).sort_values("l_returnflag").reset_index(drop=True)


Q12_SQL = """
SELECT l_returnflag,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
FROM orders JOIN lineitem ON o_orderkey = l_orderkey
WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1997-01-01'
GROUP BY l_returnflag ORDER BY l_returnflag
"""


def q13_customer_distribution(sf_dir: str):
    """TPC-H Q13: distribution of orders-per-customer INCLUDING customers
    with zero orders (the left-join histogram). Scale shape: per-batch
    partial order counts per custkey -> coarse hash(custkey) partition
    where the customer stream left-merges the summed counts (both sides
    co-partitioned; no customer-cardinality broadcast) -> per-partition
    histogram partials -> tiny final groupby(c_count) on the driver."""
    def o_side(df: pd.DataFrame) -> pa.Table:
        vc = df["o_custkey"].value_counts()
        return pa.table({"key": vc.index.to_numpy(), "n": vc.to_numpy()})

    def hist_partial(cust: pa.Table, orders: pa.Table) -> pa.Table:
        cnt = orders.group_by("key").aggregate([("n", "sum")])
        per_cust = cust.join(cnt, "key", join_type="left outer")["n_sum"]
        return pa.table({"c_count": pc.fill_null(per_cust, 0)}).group_by("c_count").aggregate(
            [("c_count", "count")])

    orders = _read(sf_dir, "orders", ["o_custkey"]).map_batches(o_side, batch_format="pandas")
    cust = _read(sf_dir, "customer", ["c_custkey"]).rename_columns({"c_custkey": "key"})
    partials = _exchange(
        [(cust, pa.schema([("key", pa.int64())])),
         (orders, pa.schema([("key", pa.int64()), ("n", pa.int64())]))],
        "key", hist_partial)
    out = _reduce_small(partials, ["c_count"], ["c_count_count"])
    out = pd.DataFrame({"c_count": out["c_count"].astype("int64"),
                        "custdist": out["c_count_count"].astype("int64")})
    return out.sort_values(["custdist", "c_count"], ascending=[False, False]).reset_index(drop=True)


Q13_SQL = """
SELECT c_count, count(*) AS custdist FROM (
  SELECT c.c_custkey, count(o.o_orderkey) AS c_count
  FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY c.c_custkey
) GROUP BY c_count ORDER BY custdist DESC, c_count DESC
"""


def q17_small_quantity_revenue(sf_dir: str):
    """TPC-H Q17 (correlated avg decorrelated): yearly revenue from lines
    with quantity below 20% of their part's average quantity. Scale
    shape: per-part (sum_qty, cnt) combiner partials -> coarse
    hash(partkey) partition joins the stats back to the co-partitioned
    lineitem stream (the per-part table is PART-cardinality — joined, not
    broadcast) -> integer-cent partial sums -> one scalar.

    Exact parity: quantities are integer-valued, so the 20%-of-average
    predicate is the integer inequality 5 * qty * cnt < sum_qty on both
    engines; revenue is integer cents, one float division at the end."""
    def l_part(df: pd.DataFrame) -> pd.DataFrame:
        k = df["l_partkey"].to_numpy(dtype=np.int64)
        q = np.floor(df["l_quantity"].to_numpy() + 0.5).astype(np.int64)  # half-away (= SQL round) on positive qty; np.rint is half-even
        cents = np.rint(df["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame({"key": k, "qty": q, "cents": cents})

    def filtered_sum(l: pd.DataFrame) -> pd.DataFrame:
        stats = l.groupby("key", sort=False)["qty"].agg(["sum", "count"])
        s = l["key"].map(stats["sum"]).to_numpy(dtype=np.int64)
        c = l["key"].map(stats["count"]).to_numpy(dtype=np.int64)
        keep = 5 * l["qty"].to_numpy() * c < s
        return pd.DataFrame({"cents": [int(l["cents"].to_numpy()[keep].sum())]})

    lines = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])
    total = _exchange(lines.map_batches(l_part, batch_format="pandas"), "key",
                      filtered_sum).sum("cents") or 0
    return pd.DataFrame({"avg_yearly": [round_half_away(float(total) / 100.0 / 7.0, 2)]})


Q17_SQL = """
WITH stats AS (
  SELECT l_partkey, sum(CAST(round(l_quantity) AS BIGINT)) AS s,
         count(*) AS c
  FROM lineitem GROUP BY l_partkey
)
SELECT round(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
             / 100.0 / 7.0, 2) AS avg_yearly
FROM lineitem l JOIN stats st ON l.l_partkey = st.l_partkey
WHERE 5 * CAST(round(l.l_quantity) AS BIGINT) * st.c < st.s
"""


def q22_idle_customer_balance(sf_dir: str, min_total: float = 300000.0):
    """TPC-H Q22 (phone prefix -> mktsegment on this schema; "no orders"
    -> "no HIGH-VALUE orders" so the result is non-empty on the dense
    synthetic order table): per segment, count + total balance of
    customers with above-average positive balance and no order above
    min_total. Scale shape: the global positive-balance average is a
    scalar aggregate; the anti-join runs co-partitioned on hash(custkey)
    (qualifying custkeys are ORDER-cardinality in the worst case — never
    broadcast); the driver sums the partials into the 5 segments.

    Exact parity: balances as integer cents; the above-average predicate
    is cents * cnt > sum_cents (exact int); totals one float division."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["c_acctbal"].to_numpy() * 100).astype(np.int64)
        pos = cents[cents > 0]
        return pd.DataFrame({"s": [int(pos.sum())], "c": [len(pos)]})

    tot = cust.map_batches(pos_partial, batch_format="pandas").sum(["s", "c"]) or {}
    s_cents, cnt = int(tot.get("sum(s)") or 0), int(tot.get("sum(c)") or 0)

    def c_side(df: pd.DataFrame) -> pa.Table:
        cents = np.rint(df["c_acctbal"].to_numpy() * 100).astype(np.int64)
        keep = cents * cnt > s_cents
        return pa.table({"key": df["c_custkey"].to_numpy()[keep],
                         "seg": df["c_mktsegment"].to_numpy()[keep], "cents": cents[keep]})

    def o_side(df: pd.DataFrame) -> pa.Table:
        return pa.table({"key": df.loc[df["o_totalprice"] > min_total, "o_custkey"].unique()})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        o_side, batch_format="pandas")
    partials = _exchange(
        [(cust.map_batches(c_side, batch_format="pandas"),
          pa.schema([("key", pa.int64()), ("seg", pa.string()), ("cents", pa.int64())])),
         (orders, pa.schema([("key", pa.int64())]))], "key",
        lambda c, o: c.join(o, "key", join_type="left anti").group_by("seg").aggregate(
            [("cents", "count"), ("cents", "sum")]))
    out = _reduce_small(partials, ["seg"], ["cents_count", "cents_sum"])
    out = pd.DataFrame({"c_mktsegment": out["seg"], "numcust": out["cents_count"].astype("int64"),
                        "totacctbal": round_half_away(
                            out["cents_sum"].to_numpy(dtype=np.float64) / 100.0, 2)})
    return out.sort_values("c_mktsegment").reset_index(drop=True)


Q22_SQL = """
WITH avgbal AS (
  SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS s, count(*) AS c
  FROM customer WHERE round(c_acctbal * 100) > 0
)
SELECT c_mktsegment, count(*) AS numcust,
       round(sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0, 2)
         AS totacctbal
FROM customer, avgbal
WHERE CAST(round(c_acctbal * 100) AS BIGINT) * avgbal.c > avgbal.s
  AND NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c_custkey
                    AND o.o_totalprice > 300000.0)
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""

def q7_nation_volume(sf_dir: str, nation_a: str = "NATION_3",
                     nation_b: str = "NATION_8"):
    """TPC-H Q7 (volume shipping): bilateral trade revenue between two
    nations by ship year — supplier nation on the lineitem side, customer
    nation on the orders side, cross pairs only.

    Scale shape: supplier/customer/nation maps are gated broadcasts (the
    q5 policy); BOTH fact streams pre-filter to the two nations BEFORE
    the exchange (2/25 selectivity on each side), then meet co-partitioned
    on hash(orderkey) where the join is a vectorized in-partition merge;
    partial (supp, cust, year) sums reduce driver-side (<= 2 x 2 x years
    rows). Revenue in exact 10^-4 dollars (rev_c4)."""
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1998-01-01")
    supp = _collect_broadcast(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nation = _collect_broadcast(sf_dir, "nation", ["n_nationkey", "n_name"])
    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nname = dict(zip(nation["n_nationkey"], nation["n_name"]))
    supp_nation = dict(zip(supp["s_suppkey"], supp["s_nationkey"].map(nname)))
    cust_nation = dict(zip(cust["c_custkey"], cust["c_nationkey"].map(nname)))
    pair = {nation_a, nation_b}

    def l_side(df: pd.DataFrame) -> pa.Table:
        sd = df["l_shipdate"].to_numpy()
        d = df[(sd >= lo) & (sd < hi)]
        sn = d["l_suppkey"].map(supp_nation)
        keep = sn.isin(pair).to_numpy()
        d, sn = d[keep], sn[keep]
        return pa.table({
            "key": d["l_orderkey"].to_numpy(), "nat": np.asarray(sn, dtype=str),
            "year": d["l_shipdate"].dt.year.to_numpy(dtype=np.int64),
            "c4": rev_c4(d["l_extendedprice"], d["l_discount"])})

    def o_side(df: pd.DataFrame) -> pa.Table:
        cn = df["o_custkey"].map(cust_nation)
        keep = cn.isin(pair).to_numpy()
        return pa.table({"key": df["o_orderkey"].to_numpy()[keep],
                         "nat": np.asarray(cn[keep], dtype=str)})

    def vol(o: pa.Table, l: pa.Table) -> pa.Table:
        m = l.join(o, "key", right_suffix="_c")
        m = m.filter(pc.not_equal(m["nat"], m["nat_c"]))  # cross pairs
        return m.group_by(["nat", "nat_c", "year"]).aggregate([("c4", "sum")])

    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_suppkey", "l_shipdate",
                   "l_extendedprice", "l_discount"]).map_batches(
        l_side, batch_format="pandas")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        o_side, batch_format="pandas")
    partials = _exchange(
        [(orders, pa.schema([("key", pa.int64()), ("nat", pa.string())])),
         (lines, pa.schema([("key", pa.int64()), ("nat", pa.string()), ("year", pa.int64()),
                            ("c4", pa.int64())]))], "key", vol)
    df = _reduce_small(partials, ["nat", "nat_c", "year"], ["c4_sum"]).rename(columns={
        "nat": "supp_nation", "nat_c": "cust_nation", "year": "l_year"})
    if len(df) == 0:
        return pd.DataFrame({"supp_nation": pd.Series(dtype=str),
                             "cust_nation": pd.Series(dtype=str),
                             "l_year": pd.Series(dtype="int64"),
                             "revenue": pd.Series(dtype="float64")})
    df["revenue"] = round_half_away(df.pop("c4_sum").to_numpy(dtype=np.float64) / 10000.0, 2)
    df["l_year"] = df["l_year"].astype("int64")
    return df.sort_values(["supp_nation", "cust_nation", "l_year"]).reset_index(drop=True)


Q7_SQL = f"""
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
       round(sum({_REV_SQL}) / 10000.0, 2) AS revenue
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation sn ON s.s_nationkey = sn.n_nationkey
JOIN nation cn ON c.c_nationkey = cn.n_nationkey
WHERE ((sn.n_name = 'NATION_3' AND cn.n_name = 'NATION_8')
    OR (sn.n_name = 'NATION_8' AND cn.n_name = 'NATION_3'))
  AND l_shipdate >= TIMESTAMP '1996-01-01'
  AND l_shipdate < TIMESTAMP '1998-01-01'
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


def q8_market_share(sf_dir: str, region: str = "ASIA", ptype: str = "PROMO",
                    nation: str = "NATION_12"):
    """TPC-H Q8 (national market share): for orders placed 1995-1996 by
    customers in `region` on parts of type `ptype`, the share of revenue
    supplied by `nation`, per order year.

    Scale shape: TWO sequential keyed exchanges, neither broadcastable —
    (1) hash(partkey): the p_type semi-join (qualifying parts are
    PART-cardinality, never ray.put); (2) hash(orderkey): the surviving
    lines meet orders pre-filtered to the region (custkey -> region via
    gated broadcast maps) and date window. Partial (year, supp_nation)
    sums reduce driver-side (years x nations rows); the share division
    runs on exact int sums."""
    lo, hi = np.datetime64("1995-01-01"), np.datetime64("1997-01-01")
    supp = _collect_broadcast(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    nat = _collect_broadcast(sf_dir, "nation",
                             ["n_nationkey", "n_name", "n_regionkey"])
    reg = _collect_broadcast(sf_dir, "region", ["r_regionkey", "r_name"])
    cust = _collect_broadcast(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    nname = dict(zip(nat["n_nationkey"], nat["n_name"]))
    nregion = dict(zip(nat["n_nationkey"],
                       nat["n_regionkey"].map(dict(zip(reg["r_regionkey"],
                                                       reg["r_name"])))))
    supp_nation = dict(zip(supp["s_suppkey"], supp["s_nationkey"].map(nname)))
    cust_nationkey = dict(zip(cust["c_custkey"], cust["c_nationkey"]))
    survivor = pa.schema([("key", pa.int64()), ("nat", pa.string()), ("c4", pa.int64())])

    # ---- exchange 1: lineitem semi-join part (p_type filter) on partkey
    def l_side(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "key": df["l_partkey"].to_numpy(), "okey": df["l_orderkey"].to_numpy(),
            "nat": np.asarray(df["l_suppkey"].map(supp_nation), dtype=str),
            "c4": rev_c4(df["l_extendedprice"], df["l_discount"])})

    def semi(p: pa.Table, l: pa.Table) -> pa.Table:
        d = l.join(p, "key", join_type="left semi")
        return pa.table([d["okey"], d["nat"], d["c4"]], schema=survivor)

    # ---- exchange 2: surviving lines join orders (region + date) on orderkey
    def o_side(df: pd.DataFrame) -> pa.Table:
        od = df["o_orderdate"].to_numpy()
        d = df[(od >= lo) & (od < hi)]
        rg = d["o_custkey"].map(cust_nationkey).map(nregion)
        d = d[(rg == region).to_numpy()]
        return pa.table({"key": d["o_orderkey"].to_numpy(),
                         "year": d["o_orderdate"].dt.year.to_numpy(dtype=np.int64)})

    part_keys = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        lambda t: t.filter(pc.equal(t["p_type"], ptype)), batch_format="pyarrow"
    ).rename_columns({"p_partkey": "key"})
    lines = _read(sf_dir, "lineitem",
                  ["l_orderkey", "l_partkey", "l_suppkey",
                   "l_extendedprice", "l_discount"]).map_batches(
        l_side, batch_format="pandas")
    survivors = _exchange(
        [(part_keys, pa.schema([("key", pa.int64())])),
         (lines, pa.schema([("key", pa.int64()), ("okey", pa.int64()), ("nat", pa.string()),
                            ("c4", pa.int64())]))], "key", semi)
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        o_side, batch_format="pandas")
    partials = _exchange(
        [(orders, pa.schema([("key", pa.int64()), ("year", pa.int64())])), (survivors, survivor)],
        "key", lambda o, l: l.join(o, "key").group_by(["year", "nat"]).aggregate([("c4", "sum")]))
    df = _reduce_small(partials, ["year", "nat"], ["c4_sum"]).rename(
        columns={"year": "o_year", "c4_sum": "c4"})
    if len(df) == 0:
        return pd.DataFrame({"o_year": pd.Series(dtype="int64"),
                             "mkt_share": pd.Series(dtype="float64")})
    num = df[df["nat"] == nation].set_index("o_year")["c4"]
    den = df.groupby("o_year")["c4"].sum()
    share = (num.reindex(den.index, fill_value=0).to_numpy(dtype=np.float64)
             / den.to_numpy(dtype=np.float64))
    return pd.DataFrame({"o_year": den.index.to_numpy(dtype=np.int64),
                         "mkt_share": round_half_away(share, 6)}
                        ).sort_values("o_year").reset_index(drop=True)


Q8_SQL = f"""
WITH vol AS (
  SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
         {_REV_SQL} AS c4, sn.n_name AS supp_nation
  FROM lineitem l
  JOIN part p ON l.l_partkey = p.p_partkey
  JOIN orders o ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation cn ON c.c_nationkey = cn.n_nationkey
  JOIN region r ON cn.n_regionkey = r.r_regionkey
  JOIN supplier s ON l.l_suppkey = s.s_suppkey
  JOIN nation sn ON s.s_nationkey = sn.n_nationkey
  WHERE p.p_type = 'PROMO' AND r.r_name = 'ASIA'
    AND o_orderdate >= TIMESTAMP '1995-01-01'
    AND o_orderdate < TIMESTAMP '1997-01-01'
)
SELECT o_year,
       round(sum(CASE WHEN supp_nation = 'NATION_12' THEN c4 ELSE 0 END) * 1.0
             / sum(c4), 6) AS mkt_share
FROM vol GROUP BY o_year ORDER BY o_year
"""


def q15_top_supplier(sf_dir: str):
    """TPC-H Q15 (top supplier, decorrelated max-of-aggregate): supplier(s)
    with the maximum revenue over 1996-Q1, all ties returned.

    Scale shape: per-batch per-suppkey combiner partials -> ONE exchange
    bounded by SUPPLIER cardinality -> the max is a scalar Dataset
    aggregate (never a driver sort of the whole table) -> the winner
    filter streams the aggregated set and yields <= #ties rows, which
    join supplier names via gated broadcast."""
    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1996-04-01")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sd = df["l_shipdate"].to_numpy()
        d = df[(sd >= lo) & (sd < hi)]
        g = pd.DataFrame({"l_suppkey": d["l_suppkey"].to_numpy(dtype=np.int64),
                          "c4": rev_c4(d["l_extendedprice"], d["l_discount"])})
        return g.groupby("l_suppkey", sort=False, as_index=False)["c4"].sum()

    lines = _read(sf_dir, "lineitem",
                  ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"])
    rev = _keyed_sum(lines.map_batches(partial, batch_format="pandas"), "l_suppkey",
                     "c4").materialize()  # supplier-cardinality; consumed twice (max + filter)
    mx = rev.max("c4")
    winners = rev.map_batches(
        lambda df: df[df["c4"] == mx], batch_format="pandas").to_pandas()
    supp = _collect_broadcast(sf_dir, "supplier", ["s_suppkey", "s_name"])
    out = winners.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    out["total_revenue"] = round_half_away(
        out["c4"].to_numpy(dtype=np.float64) / 10000.0, 2)
    return out[["s_suppkey", "s_name", "total_revenue"]].sort_values(
        "s_suppkey").reset_index(drop=True)


Q15_SQL = f"""
WITH r AS (
  SELECT l_suppkey, sum({_REV_SQL}) AS c4
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '1996-01-01'
    AND l_shipdate < TIMESTAMP '1996-04-01'
  GROUP BY l_suppkey
)
SELECT s_suppkey, s_name, round(c4 / 10000.0, 2) AS total_revenue
FROM supplier JOIN r ON s_suppkey = r.l_suppkey
WHERE c4 = (SELECT max(c4) FROM r)
ORDER BY s_suppkey
"""


_Q19_BRANCHES = (  # (brand, size_lo, size_hi, qty_lo, qty_hi)
    ("Brand#12", 1, 5, 1, 11),
    ("Brand#23", 1, 10, 10, 20),
    ("Brand#5", 1, 15, 20, 30),
)


def q19_disjunctive_revenue(sf_dir: str):
    """TPC-H Q19 (disjunctive predicates, adapted to this schema's part
    columns: brand x size x quantity branch triples). Revenue from lines
    whose (part brand, part size, line quantity) satisfies ANY branch.

    Scale shape: BOTH sides prune before the hash(partkey) exchange —
    part ships only rows inside some branch's (brand, size) envelope,
    lineitem only rows inside the union quantity envelope; the branch
    disjunction evaluates vectorized in-partition after the merge, and a
    single int-c4 scalar leaves each partition."""
    qty_lo = min(b[3] for b in _Q19_BRANCHES)
    qty_hi = max(b[4] for b in _Q19_BRANCHES)

    def p_side(df: pd.DataFrame) -> pa.Table:
        sz = df["p_size"].to_numpy(dtype=np.int64)
        keep = np.zeros(len(df), dtype=bool)
        br = df["p_brand"].to_numpy()
        for b, slo, shi, _, _ in _Q19_BRANCHES:
            keep |= (br == b) & (sz >= slo) & (sz <= shi)
        return pa.table({"key": df["p_partkey"].to_numpy()[keep], "brand": br[keep],
                         "size": sz[keep]})

    def l_side(df: pd.DataFrame) -> pa.Table:
        q = np.floor(df["l_quantity"].to_numpy() + 0.5).astype(np.int64)  # half-away (= SQL round) on positive qty; np.rint is half-even
        m = (q >= qty_lo) & (q <= qty_hi)
        d = df[m]
        return pa.table({"key": d["l_partkey"].to_numpy(), "qty": q[m],
                         "c4": rev_c4(d["l_extendedprice"], d["l_discount"])})

    def branch_sum(p: pa.Table, l: pa.Table) -> pa.Table:
        m = l.join(p, "key")
        br, sz, q = (m[c].to_numpy() for c in ("brand", "size", "qty"))
        keep = np.zeros(len(m), dtype=bool)
        for b, slo, shi, qlo, qhi in _Q19_BRANCHES:
            keep |= (br == b) & (sz >= slo) & (sz <= shi) & (q >= qlo) & (q <= qhi)
        return pa.table({"c4": [int(m["c4"].to_numpy()[keep].sum())]})

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"]).map_batches(
        p_side, batch_format="pandas")
    lines = _read(sf_dir, "lineitem",
                  ["l_partkey", "l_quantity", "l_extendedprice",
                   "l_discount"]).map_batches(l_side, batch_format="pandas")
    total = _exchange(
        [(parts, pa.schema([("key", pa.int64()), ("brand", pa.string()), ("size", pa.int64())])),
         (lines, pa.schema([("key", pa.int64()), ("qty", pa.int64()), ("c4", pa.int64())]))],
        "key", branch_sum).sum("c4") or 0
    return pd.DataFrame({"revenue": [round_half_away(float(total) / 10000.0, 2)]})


Q19_SQL = f"""
SELECT round(COALESCE(sum({_REV_SQL}), 0) / 10000.0, 2) AS revenue
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
WHERE (p.p_brand = 'Brand#12' AND p.p_size BETWEEN 1 AND 5
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11)
   OR (p.p_brand = 'Brand#23' AND p.p_size BETWEEN 1 AND 10
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20)
   OR (p.p_brand = 'Brand#5' AND p.p_size BETWEEN 1 AND 15
       AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30)
"""


# ---------------------------------------------------------------------------
# BPE tokenizer training (functions/bpe.py) — distributed histogram pass,
# vocabulary-bounded merge loop, broadcast-merges distributed encode
# ---------------------------------------------------------------------------

def _word_histogram(sf_dir: str):
    """Distributed (word, n) histogram over documents.text — per-batch
    value_counts partials, ONE coarse hash(word) exchange
    (_keyed_sum). Output cardinality = distinct-word vocabulary,
    bounded by language, not corpus size."""
    ds = _read(sf_dir, "documents", ["text"]).map_batches(
        _gram_counts(1, "word"), batch_format="pandas")
    return _keyed_sum(ds, "word")


def bpe_pair_counts(sf_dir: str, k: int = 30):
    """BPE iteration-0 statistics: top-k adjacent-character pair counts
    weighted by word frequency — the quantity the first merge maximizes.

    Scale shape: word histogram (one coarse exchange) -> vectorized
    codepoint pair explode per vocabulary batch (functions/bpe.py, no
    per-row Python in the corpus pass) -> second coarse exchange on the
    pair key (alphabet^2-bounded) -> per-block top-k merge."""
    from .functions.bpe import pair_explode

    words = _word_histogram(sf_dir)
    pairs = _keyed_sum(words.map_batches(
        lambda df: pair_explode(df["word"], df["n"].to_numpy()),
        batch_format="pandas"), "pair")
    top = _topk_blocks(pairs, k, ["n", "pair"], [False, True])
    return pd.DataFrame({
        "left_sym": top["pair"].str[0].to_numpy(dtype=object),
        "right_sym": top["pair"].str[1].to_numpy(dtype=object),
        "cnt": top["n"].to_numpy(dtype=np.int64)})


BPE_PAIR_COUNTS_SQL = r"""
WITH words AS (
  SELECT word, count(*) AS n FROM (
    SELECT unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word
    FROM documents) WHERE word <> ''
  GROUP BY word
)
SELECT substring(word, CAST(i AS INT), 1) AS left_sym,
       substring(word, CAST(i AS INT) + 1, 1) AS right_sym,
       CAST(sum(n) AS BIGINT) AS cnt
FROM words, unnest(range(1, length(word))) AS t(i)
GROUP BY 1, 2 ORDER BY cnt DESC, left_sym, right_sym LIMIT 30
"""


def bpe_train_merges(sf_dir: str, num_merges: int = 40):
    """Learn a BPE merge table from the corpus (Sennrich et al. 2016
    trainer shape): the corpus-scale work is the distributed word
    histogram; the merge loop runs driver-side over that bounded
    histogram (O(vocabulary) per merge, independent of corpus size) and
    refuses loudly past MAX_TRAIN_VOCAB — the same pruned-head broadcast
    rule as the LM vocabularies. Deterministic at any parallelism: pair
    ties break count DESC then (left, right) lexicographic.

    Iterative (not SQL-expressible) — verified by pytest golden against
    an independent naive trainer; the driver records a rows-only check."""
    from .functions.bpe import train_merges

    hist = _word_histogram(sf_dir).to_pandas()
    return train_merges(hist, num_merges=num_merges)


def bpe_token_counts(sf_dir: str, num_merges: int = 40):
    """Per-source token totals under the learned BPE vocabulary — the
    curation metric that says how a tokenizer's compression differs by
    source. Train (distributed histogram + bounded loop), then encode
    distributed: the merge table (num_merges entries) is broadcast by
    closure capture, each batch factorizes its words so the merge loop
    runs once per DISTINCT word (functions/bpe.py:apply_merges), and the
    per-source partial sums meet in a tiny driver reduce."""
    from .functions.bpe import apply_merges

    merges = bpe_train_merges(sf_dir, num_merges=num_merges)
    ranks = {(l, r): int(k) for k, l, r in
             zip(merges["rank"], merges["left"], merges["right"])}
    sums = pa.schema([("source", pa.string()), ("bpe_tokens", pa.int64())])

    def partial(df: pd.DataFrame) -> pa.Table:
        g = word_ngrams(df["text"], 1)
        toks = _doc_sums(g["row"].to_numpy(), len(df), apply_merges(g["gram"], ranks))
        out = pd.DataFrame({"source": df["source"].astype(str).to_numpy(),
                            "bpe_tokens": toks})
        return _arrow(out.groupby("source", as_index=False, sort=False)["bpe_tokens"].sum(),
                      sums)

    partials = _read(sf_dir, "documents", ["text", "source"]).map_batches(
        partial, batch_format="pandas")
    out = _reduce_small(partials, ["source"], ["bpe_tokens"])
    out["bpe_tokens"] = out["bpe_tokens"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def chunk_documents(sf_dir: str, size: int = 128, stride: int = 96):
    """RAG-style sliding-window chunking: each document explodes into
    fixed-size character windows advancing by `stride` (overlap =
    size - stride), the unit an embedding/indexing stage consumes.

    Chunk count is the closed form max(1, ceil((len - overlap) / stride))
    — every character is covered, the tail never emits a window fully
    contained in its predecessor, and an empty/short text still yields
    exactly one chunk (so no document silently disappears downstream).

    Scale shape: a pure per-batch map, NO shuffle — the explode loop runs
    once per chunk INDEX (bounded by the longest text in the batch, not
    by rows) with vectorized str.slice across the batch. At 100 TB this
    is embarrassingly parallel and the output streams straight into the
    next stage or sink."""
    overlap = size - stride

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"].fillna("")
        lens = text.str.len().to_numpy(dtype=np.int64)
        n = np.maximum(1, np.ceil((lens - overlap) / stride)).astype(np.int64)
        frames = []
        for j in range(int(n.max()) if len(n) else 0):
            sel = n > j
            c = text[sel]
            frames.append(pd.DataFrame({
                "doc_id": df["doc_id"].to_numpy()[sel],
                "chunk_id": np.int64(j),
                "chunk": c.str.slice(j * stride, j * stride + size).to_numpy(
                    dtype=object)}))
        if not frames:
            return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                                 "chunk_id": pd.Series(dtype="int64"),
                                 "chunk": pd.Series(dtype=str)})
        return pd.concat(frames, ignore_index=True)

    out = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        explode, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


CHUNK_DOCUMENTS_SQL = """
SELECT doc_id, CAST(i AS BIGINT) AS chunk_id,
       substring(coalesce(text, ''), CAST(i * 96 + 1 AS INT), 128) AS chunk
FROM documents,
     unnest(range(0, greatest(1, CAST(ceil((length(coalesce(text, '')) - 32)
                                           / 96.0) AS BIGINT)))) AS t(i)
ORDER BY doc_id, chunk_id
"""


def source_overlap_matrix(sf_dir: str, n: int = 3):
    """Cross-source contamination matrix: for every source pair (a < b),
    the number of DISTINCT word n-grams both sources contain — the audit
    that says which corpus slices leak into each other (eval-set overlap,
    mirrored crawls, boilerplate families) before mixing weights are
    chosen.

    Scale shape: the `word_ngrams` explode deduped to (source, gram) per
    batch -> ONE coarse exchange on gram (`_exchange`) -> in-partition
    global distinct + the vectorized self-merge (minhash-bucket pattern; a
    gram lives wholly in its partition, so pair counts are complete and
    partials sum) -> driver reduce bounded by |sources|^2 rows. The registered oracle is
    the n=3 instantiation."""
    grams = pa.schema([("source", pa.string()), ("gram", pa.string())])
    pairs = pa.schema([("source_a", pa.string()), ("source_b", pa.string()),
                       ("shared_grams", pa.int64())])

    def explode(df: pd.DataFrame) -> pa.Table:
        g = word_ngrams(df["text"], n)
        src = df["source"].astype(str).to_numpy()[g["row"].to_numpy()]
        return _arrow(pd.DataFrame({"source": src, "gram": g["gram"].to_numpy()})
                      .drop_duplicates(), grams)

    def per_part(g: pd.DataFrame) -> pa.Table:
        d = g.drop_duplicates(["gram", "source"])[["gram", "source"]]
        mm = d.merge(d, on="gram")
        mm = mm[mm["source_x"].to_numpy() < mm["source_y"].to_numpy()]
        vc = mm.groupby(["source_x", "source_y"], sort=False).size()
        idx = vc.index.to_frame(index=False)
        return _arrow(pd.DataFrame({"source_a": idx["source_x"].to_numpy(dtype=object),
                                    "source_b": idx["source_y"].to_numpy(dtype=object),
                                    "shared_grams": vc.to_numpy(dtype=np.int64)}), pairs)

    partials = _exchange(
        _read(sf_dir, "documents", ["text", "source"]).map_batches(explode, batch_format="pandas"),
        "gram", per_part)
    out = _reduce_small(partials, ["source_a", "source_b"], ["shared_grams"])
    if len(out) == 0:
        return pd.DataFrame({"source_a": pd.Series(dtype=str),
                             "source_b": pd.Series(dtype=str),
                             "shared_grams": pd.Series(dtype="int64")})
    out["shared_grams"] = out["shared_grams"].astype("int64")
    return out.sort_values(["source_a", "source_b"]).reset_index(drop=True)


SOURCE_OVERLAP_SQL = r"""
WITH raw AS (
  SELECT source, doc_id,
         unnest(regexp_split_to_array(lower(trim(text)), '\s+')) AS word,
         generate_subscripts(regexp_split_to_array(lower(trim(text)), '\s+'), 1) AS rawpos
  FROM documents WHERE trim(text) <> ''
), toks AS (
  SELECT source, doc_id, word,
         row_number() OVER (PARTITION BY doc_id ORDER BY rawpos) AS pos
  FROM raw WHERE word <> ''
), grams AS (
  SELECT DISTINCT source,
         word || ' ' || lead(word, 1) OVER w || ' ' || lead(word, 2) OVER w AS gram
  FROM toks WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
  QUALIFY lead(word, 2) OVER w IS NOT NULL
)
SELECT a.source AS source_a, b.source AS source_b,
       count(*) AS shared_grams
FROM grams a JOIN grams b ON a.gram = b.gram AND a.source < b.source
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

QUERIES = {
    "q1_pricing_summary": q1_pricing_summary,
    "q3_top_orders": q3_top_orders,
    "q5_nation_revenue": q5_nation_revenue,
    "q5_nation_revenue_broadcast": q5_nation_revenue_broadcast,
    "q6_revenue": q6_revenue,
    "q10_returned_revenue": q10_returned_revenue,
    "q14_promo_revenue": q14_promo_revenue,
    "q18_large_orders": q18_large_orders,
    "orders_per_customer_topk": orders_per_customer_topk,
    "filter_highvalue_orders": filter_highvalue_orders,
    "events_tumbling": events_tumbling,
    "events_window_distinct_users": events_window_distinct_users,
    "events_sessionize": events_sessionize,
    "events_sliding": events_sliding,
    "events_asof_join": events_asof_join,
    "parts_price_band_join": parts_price_band_join,
    "token_percentiles_by_source": token_percentiles_by_source,
    "token_counts": token_counts,
    "quality_scores": quality_scores,
    "repetition_scores": repetition_scores,
    "pack_sequences": pack_sequences,
    "word_topk": word_topk,
    "dedup_exact": dedup_exact,
    "train_test_split": train_test_split,
    "regex_scrub": regex_scrub,
    "tfidf_top_terms": tfidf_top_terms,
    "decontaminate": decontaminate,
    "dup_ngram_spans": dup_ngram_spans,
    "source_temperature_sample": source_temperature_sample,
    "unimax_allocation": unimax_allocation,
    "semdedup_prune": semdedup_prune,
    "unigram_logprob_scores": unigram_logprob_scores,
    "ccnet_perplexity_buckets": ccnet_perplexity_buckets,
    "dsir_importance_weights": dsir_importance_weights,
    "classifier_filter_scores": classifier_filter_scores,
    "top_quartile_docs_per_source": top_quartile_docs_per_source,
    "global_shuffle_rank": global_shuffle_rank,
    "hll_distinct_tokens": hll_distinct_tokens,
    "bloom_novel_docs": bloom_novel_docs,
    "span_roundtrip": span_roundtrip,
    "boilerplate_strip_docs": boilerplate_strip_docs,
    "ann_topk": ann_topk,
    "embedding_label_norms": embedding_label_norms,
    "lang_id": lang_id,
    "minhash_dup_pairs": minhash_dup_pairs,
    "minhash_dup_clusters": minhash_dup_clusters,
    "ngram_jaccard_dup_pairs": ngram_jaccard_dup_pairs,
    "embedding_near_dup": embedding_near_dup,
    "embedding_near_dup_lsh": embedding_near_dup_lsh,
    "ann_lsh_topk": ann_lsh_topk,
    "fingerprints": fingerprints,
    "minhash_bands": minhash_bands,
    "simhash_buckets": simhash_buckets,
    "simhash_dup_pairs": simhash_dup_pairs,
    "ann_ivf_topk": ann_ivf_topk,
    # --- ALL oracled entries above this line stay contiguous: the driver
    # records only the first 50 registry entries, so oracled queries come
    # first and the rows-only/golden-verified media queries go LAST. The
    # oracled tail beyond 50 is swept by tools/check_correctness.py into
    # the committed CORRECTNESS_FULL_r{N}.json artifact.
    "embedding_clusters": embedding_clusters,
    "distinct_sources": distinct_sources,
    "customers_with_highvalue_orders": customers_with_highvalue_orders,
    "customers_without_highvalue_orders": customers_without_highvalue_orders,
    "parts_by_brand": parts_by_brand,
    "supplier_balance_by_region": supplier_balance_by_region,
    "per_source_cap": per_source_cap,
    "gopher_filter_cascade": gopher_filter_cascade,
    "mg_heavy_hitters": mg_heavy_hitters,
    "q4_order_priority": q4_order_priority,
    "q12_priority_by_returnflag": q12_priority_by_returnflag,
    "q13_customer_distribution": q13_customer_distribution,
    "q17_small_quantity_revenue": q17_small_quantity_revenue,
    "q22_idle_customer_balance": q22_idle_customer_balance,
    "q7_nation_volume": q7_nation_volume,
    "q8_market_share": q8_market_share,
    "q15_top_supplier": q15_top_supplier,
    "q19_disjunctive_revenue": q19_disjunctive_revenue,
    "bpe_pair_counts": bpe_pair_counts,
    "bpe_train_merges": bpe_train_merges,
    "bpe_token_counts": bpe_token_counts,
    "chunk_documents": chunk_documents,
    "source_overlap_matrix": source_overlap_matrix,
    "bigram_logprob_scores": bigram_logprob_scores,
    "ann_recall_eval": ann_recall_eval,
    "ann_pq_topk": ann_pq_topk,
    "ann_recall_pq": ann_recall_pq,
    "ann_recall_ivf": ann_recall_ivf,
    "ann_lsh_multiprobe_topk": ann_lsh_multiprobe_topk,
    "ann_recall_multiprobe": ann_recall_multiprobe,
    # rows-only / golden-verified in pytest (no SQL oracle)
    "structure_extract": structure_extract,
    "ocr_word_boxes": ocr_word_boxes,
    "crop_aspect_buckets": crop_aspect_buckets,
}

ORACLE_SQL = {
    "q1_pricing_summary": Q1_SQL,
    "q3_top_orders": Q3_SQL,
    "q5_nation_revenue": Q5_SQL,
    "q5_nation_revenue_broadcast": Q5_SQL,
    "q6_revenue": Q6_SQL,
    "q10_returned_revenue": Q10_SQL,
    "q14_promo_revenue": Q14_SQL,
    "q18_large_orders": Q18_SQL,
    "orders_per_customer_topk": ORDERS_TOPK_SQL,
    "filter_highvalue_orders": FILTER_SQL,
    "events_tumbling": EVENTS_TUMBLING_SQL,
    "events_window_distinct_users": EVENTS_WINDOW_DISTINCT_SQL,
    "events_sessionize": EVENTS_SESSION_SQL,
    "events_sliding": EVENTS_SLIDING_SQL,
    "events_asof_join": EVENTS_ASOF_SQL,
    "parts_price_band_join": PARTS_PRICE_BAND_SQL,
    "token_percentiles_by_source": TOKEN_PCTL_SQL,
    "token_counts": TOKEN_COUNTS_SQL,
    "quality_scores": QUALITY_SQL,
    "repetition_scores": REPETITION_SQL,
    "pack_sequences": PACK_SEQUENCES_SQL,
    "word_topk": WORD_TOPK_SQL,
    "dedup_exact": DEDUP_EXACT_SQL,
    "train_test_split": TRAIN_SPLIT_SQL,
    "regex_scrub": REGEX_SCRUB_SQL,
    "tfidf_top_terms": TFIDF_SQL,
    "decontaminate": DECONTAM_SQL,
    "dup_ngram_spans": DUP_NGRAM_SPANS_SQL,
    "source_temperature_sample": SOURCE_TEMP_SAMPLE_SQL,
    "unimax_allocation": UNIMAX_SQL,
    "semdedup_prune": EMB_SEMDEDUP_SQL,
    "unigram_logprob_scores": UNIGRAM_LOGPROB_SQL,
    "ccnet_perplexity_buckets": CCNET_BUCKETS_SQL,
    "dsir_importance_weights": DSIR_SQL,
    "classifier_filter_scores": CLASSIFIER_FILTER_SQL,
    "top_quartile_docs_per_source": TOP_QUARTILE_SQL,
    "global_shuffle_rank": GLOBAL_SHUFFLE_SQL,
    "hll_distinct_tokens": HLL_SQL,
    "bloom_novel_docs": BLOOM_NOVEL_SQL,
    "span_roundtrip": SPAN_ROUNDTRIP_SQL,
    "boilerplate_strip_docs": BOILERPLATE_SQL,
    "ann_topk": ANN_TOPK_SQL,
    "embedding_label_norms": EMB_NORMS_SQL,
    "lang_id": LANG_ID_SQL,
    "minhash_dup_pairs": MINHASH_PAIRS_SQL,
    # same oracle: both pipelines compute the exact jaccard>=0.8 pair set,
    # by different distributed algorithms (LSH-candidates vs inverted index)
    "ngram_jaccard_dup_pairs": MINHASH_PAIRS_SQL,
    "minhash_dup_clusters": MINHASH_CLUSTERS_SQL,
    "fingerprints": FINGERPRINTS_SQL,
    "simhash_buckets": SIMHASH_BUCKETS_SQL,
    "simhash_dup_pairs": SIMHASH_PAIRS_SQL,
    "minhash_bands": MINHASH_BANDS_SQL,
    "embedding_near_dup": EMB_NEAR_DUP_SQL,
    "ann_lsh_topk": ANN_LSH_SQL,
    "ann_ivf_topk": ANN_IVF_SQL,
    "embedding_clusters": EMB_CLUSTERS_SQL,
    "embedding_near_dup_lsh": EMB_NEAR_DUP_LSH_SQL,
    "distinct_sources": DISTINCT_SOURCES_SQL,
    "customers_with_highvalue_orders": SEMI_JOIN_SQL,
    "customers_without_highvalue_orders": ANTI_JOIN_SQL,
    "parts_by_brand": PARTS_BRAND_SQL,
    "supplier_balance_by_region": SUPPLIER_REGION_SQL,
    "per_source_cap": PER_SOURCE_CAP_SQL,
    "gopher_filter_cascade": GOPHER_CASCADE_SQL,
    "mg_heavy_hitters": MG_HEAVY_HITTERS_SQL,
    "q4_order_priority": Q4_SQL,
    "q12_priority_by_returnflag": Q12_SQL,
    "q13_customer_distribution": Q13_SQL,
    "q17_small_quantity_revenue": Q17_SQL,
    "q22_idle_customer_balance": Q22_SQL,
    "q7_nation_volume": Q7_SQL,
    "q8_market_share": Q8_SQL,
    "q15_top_supplier": Q15_SQL,
    "q19_disjunctive_revenue": Q19_SQL,
    "bpe_pair_counts": BPE_PAIR_COUNTS_SQL,
    "chunk_documents": CHUNK_DOCUMENTS_SQL,
    "source_overlap_matrix": SOURCE_OVERLAP_SQL,
    "bigram_logprob_scores": BIGRAM_LOGPROB_SQL,
    "ann_recall_eval": _ann_recall_sql(),
    "ann_pq_topk": ANN_PQ_SQL,
    "ann_recall_pq": _ann_recall_sql(ANN_PQ_SQL),
    "ann_recall_ivf": _ann_recall_sql(ANN_IVF_SQL),
    "ann_lsh_multiprobe_topk": _ann_lsh_multiprobe_sql(),
    "ann_recall_multiprobe": _ann_recall_sql(_ann_lsh_multiprobe_sql()),
}
