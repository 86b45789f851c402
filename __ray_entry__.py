"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash ->
CORRECTNESS_r{N}.json).

Neither this module nor the library calls ray.init()/ray.shutdown();
only bench.py, CLI entry points and the test fixture own a Ray session.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _interleaved_corpus(sf_dir: str) -> dict:
    """Derive (and cache under /tmp) the interleaved text+media corpus from
    the driver's flat documents table — deterministic, seed 42."""
    import json

    import pyarrow.parquet as pq

    from oar_ocr_ray.fixtures import interleave_from_flat

    from oar_ocr_ray.fixtures import ENCODING_VERSION

    # the fixtures encoding version is part of the key, so a stale cached
    # corpus can never silently feed an incompatible decoder (same rule
    # as bench.py's corpus caches)
    key = hashlib.sha1(
        f"e{ENCODING_VERSION}:{os.path.abspath(sf_dir)}".encode()
    ).hexdigest()[:12]
    out_dir = os.path.join("/tmp", f"oar_interleaved_{key}")
    meta_path = os.path.join(out_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return json.load(f)
    flat = pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    meta = interleave_from_flat(flat, out_dir, seed=42)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return meta


def entry() -> Any:
    """Flagship pipeline: interleave sf0.001 documents with synthetic media,
    then run the full extraction DAG (explode -> strip -> detect -> recognize
    -> reassemble). Returns the result Dataset."""
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    meta = _interleaved_corpus("/root/testdata/sf0.001")
    return build_extract_pipeline(
        meta["doc_files"], meta["media_dir"], n_parts=16,
    )


def _extract_interleaved(sf_dir: str) -> Any:
    """Rows-only query: the flagship extraction over the corpus derived from
    this sf_dir's documents table (non-SQL-expressible: OCR stage graph)."""
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    meta = _interleaved_corpus(sf_dir)
    return build_extract_pipeline(
        meta["doc_files"], meta["media_dir"], n_parts=16,
    )


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2."""
    from oar_ocr_ray.queries import QUERIES

    out: dict[str, Callable[[str], Any]] = dict(QUERIES)
    out["extract_interleaved"] = _extract_interleaved
    return out


def oracle_sql() -> dict[str, str]:
    """DuckDB-equivalent SQL for every SQL-expressible query (same column
    names and rounding as the Ray side). Rows-only ops are omitted."""
    from oar_ocr_ray.queries import ORACLE_SQL

    return dict(ORACLE_SQL)
