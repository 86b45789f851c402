"""Local replica of the driver's correctness gate.

Runs every ``queries()[name](sf_dir)`` and compares against the matching
``oracle_sql()[name]`` via DuckDB: row-count, schema (column names), and an
order-insensitive value hash (columns sorted by name, rows lexsorted, exact
string rendering).  Mirrors CORRECTNESS_r{N}.json so drift is caught before
the driver runs.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from oar_ocr_ray.queries import MIN_CLUSTER_CPUS  # noqa: E402

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            res = res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        res = res.to_pandas()
    assert isinstance(res, pd.DataFrame), type(res)
    return res


def _canon(df):
    """Order-insensitive canonical rendering: sort columns by name, lexsort
    rows, render exact values."""
    df = df[sorted(df.columns)].copy()

    def cell(v):
        if isinstance(v, float):
            return repr(float(v))
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(cell(x) for x in v) + "]"
        try:
            import numpy as np

            if isinstance(v, np.ndarray):
                # numbers render as floats; nested arrays/lists recurse
                return "[" + ",".join(
                    cell(x if isinstance(x, (np.ndarray, list, tuple)) else float(x))
                    for x in v) + "]"
            if isinstance(v, (np.floating,)):
                return repr(float(v))
            if isinstance(v, (np.integer,)):
                return str(int(v))
        except ImportError:
            pass
        return str(v)

    rows = ["\x1f".join(cell(v) for v in row) for row in df.itertuples(index=False, name=None)]
    rows.sort()
    return "\n".join(rows)


def main():
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        # the oracle sweep checks results, not speed: the fewest CPUs the
        # query library runs on, whatever the host shows
        ray.init(address="local", num_cpus=MIN_CLUSTER_CPUS,
                 include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")

    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    report = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            res = _to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            report[name] = {"err": f"query_error: {e!r}"}
            print(f"{name:40s} ERROR {e!r}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            report[name] = {"err": "no_oracle", "spark_rows": len(res)}
            print(f"{name:40s} no_oracle rows={len(res)} ({dt:.1f}s)")
            continue
        try:
            odf = con.execute(oracles[name]).fetchdf()
        except Exception as e:  # noqa: BLE001
            report[name] = {"err": f"oracle_error: {e!r}"}
            print(f"{name:40s} ORACLE-ERROR {e!r}")
            continue
        rows_match = len(res) == len(odf)
        schema_match = sorted(map(str, res.columns)) == sorted(map(str, odf.columns))
        hash_match = None
        if rows_match and schema_match:
            h1 = hashlib.sha256(_canon(res).encode()).hexdigest()
            h2 = hashlib.sha256(_canon(odf).encode()).hexdigest()
            hash_match = h1 == h2
        ok = rows_match and schema_match and hash_match
        report[name] = {
            "rows_match": rows_match, "schema_match": schema_match,
            "hash_match": hash_match, "spark_rows": len(res), "oracle_rows": len(odf),
        }
        flag = "OK " if ok else "FAIL"
        print(f"{name:40s} {flag} rows={len(res)}/{len(odf)} schema={schema_match} hash={hash_match} ({dt:.1f}s)")
        if not ok and rows_match and schema_match:
            # show first diffs
            a = _canon(res).split("\n")
            b = _canon(odf).split("\n")
            for i, (x, y) in enumerate(zip(a, b)):
                if x != y:
                    print(f"   first diff row {i}:\n    ray:    {x[:300]}\n    oracle: {y[:300]}")
                    break

    n_ok = sum(1 for v in report.values() if v.get("hash_match"))
    n_oracled = sum(1 for v in report.values() if "rows_match" in v)
    print(f"\n{n_ok}/{n_oracled} oracled pass; {len(report) - n_oracled} no-oracle/err")
    with open("/tmp/correctness_local.json", "w") as f:
        json.dump(report, f, indent=1)
    ray.shutdown()


if __name__ == "__main__":
    main()
