"""Sharded, resumable structure-extraction runner — the PP-StructureV3
page pipeline's analogue of pipelines/extract.run_extract (north rule:
per-partition lineage + metrics, killed runs resume from the last
committed partition).

Shards key on MEDIA BUCKETS (the corpus's one partition key): shard i
owns a fixed group of bucket ids, its refs are filtered by
crc32(media_ref) % n_buckets, and its tasks therefore touch only its own
bucket files (the bucket-locality property the bench relies on). The
commit protocol is the flagship's (state.checkpoint.run_sharded): tmp dir
-> atomic rename -> fsync'd manifest line carrying the buckets, page and
element counts and wall time.
"""

from __future__ import annotations

import ray

from ..state.checkpoint import read_output as read_structure_output  # re-exported
from ..state.checkpoint import run_sharded


def build_structure_pipeline(
    refs_path: str | list[str],
    media_dir: str,
    *,
    buckets: list[int] | None = None,
    n_buckets: int = 16,
    n_blocks: int | None = None,
    min_line_area: int = 9,
    rec_model_input: bool = False,
    det_model_input: bool = False,
    layout_model_input: bool = False,
    aux_model_input: bool = False,
    formula_model_input: bool = False,
) -> "ray.data.Dataset":
    """Lazy per-page structure DAG: refs (optionally filtered to a bucket
    group) -> actor-pool StructureExtract. Blocks default to the bucket
    count so tasks stay bucket-local (see BASELINE.md round 3)."""
    import pyarrow.dataset as pads
    import ray.data

    from ..stages.media import cached_stage
    from ..stages.structure_stage import StructureExtract

    blocks = n_blocks if n_blocks else (len(buckets) if buckets else n_buckets)
    flt = None
    if buckets is not None:
        # the manifest persists the bucket id as a column (bucket-sorted),
        # so a bucket-group shard is a parquet predicate pushdown — whole
        # row groups are skipped at the read; no Python runs per row
        schema = pads.dataset(refs_path, format="parquet").schema
        if "bucket" not in schema.names:
            raise ValueError(
                "bucket-group filtering needs the refs manifest's persisted "
                "`bucket` column (written by write_structure_corpus); "
                "regenerate the manifest — per-row bucket hashing in the "
                "read path is deliberately unsupported")
        persisted = (schema.metadata or {}).get(b"n_buckets")
        if persisted is not None and int(persisted) != n_buckets:
            raise ValueError(
                f"bucket-count mismatch: the refs manifest was written with "
                f"n_buckets={int(persisted)} but this run filters with "
                f"n_buckets={n_buckets} — pages in persisted buckets outside "
                f"range({n_buckets}) would be SILENTLY dropped while every "
                f"shard commits; re-run with n_buckets={int(persisted)}")
        flt = pads.field("bucket").isin(sorted(set(buckets)))
    ds = ray.data.read_parquet(
        refs_path, columns=["media_ref"], override_num_blocks=blocks,
        filter=flt,
    )
    return ds.map_batches(
        cached_stage(StructureExtract, media_dir=media_dir,
                     min_line_area=min_line_area,
                     rec_model_input=rec_model_input,
                     det_model_input=det_model_input,
                     layout_model_input=layout_model_input,
                     aux_model_input=aux_model_input,
                     formula_model_input=formula_model_input),
        batch_format="pyarrow", batch_size=None,
    )


def run_structure_extract(
    refs_path: str | list[str],
    media_dir: str,
    out_dir: str,
    *,
    n_shards: int = 4,
    n_buckets: int = 16,
    max_shards: int | None = None,
    **pipeline_kwargs,
) -> dict:
    """Sharded, resumable run over bucket groups; re-running skips
    committed shards, `max_shards` limits work per invocation (the
    kill/resume test hook, same contract as run_extract)."""
    n_shards = min(n_shards, n_buckets)
    groups = [list(range(n_buckets))[i::n_shards] for i in range(n_shards)]
    return run_sharded(
        out_dir, "buckets", groups,
        lambda buckets: build_structure_pipeline(
            refs_path, media_dir, buckets=buckets, n_buckets=n_buckets,
            **pipeline_kwargs),
        "n_elements", max_shards,
    )
