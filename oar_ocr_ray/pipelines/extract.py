"""Flagship extraction pipeline (the north-star job).

One streaming Ray Data pass reproducing the reference's OCR extraction
semantics (/root/reference/src/oarocr/ocr.rs:452-574 predict) over the
interleaved text+media `documents` table:

  read_parquet(documents)                      # columns pruned at the read
    -> map_batches(explode_spans)              # doc -> span rows (+anchors), Arrow-vectorized
    -> map_batches(strip_text_spans)           # text path: vectorized boilerplate strip
    -> map_batches(MediaDetect,  tasks)        # media path: decode+orient+detect+crop fan-out
    -> map_batches(Recognize,    tasks)        # wh-sorted batched recognition + real CTC decode
    -> groupby(part).map_groups(rebuild)       # THE shuffle: exact sequence reconstruction
    -> write_parquet(shard dir)                # committed per shard via manifest

The model stages run as stateless tasks by default; stage_mode="actors"
runs them as actor pools instead.

Scale properties: decoded pixels never enter the shuffle (crops are dropped
before the groupby); media payloads are point-lookups against the bucketed
store, not a join; the only all-to-all exchange is keyed on `part`
(crc32(doc_id) % n_parts), with media-heavy documents pre-balanced by the
explode-to-crop-rows fan-out. Never materializes the dataset.
"""

from __future__ import annotations

import os

import ray.data

from ..stages.explode import make_explode_spans
from ..stages.media import MediaDetect, Recognize
from ..stages.reassemble import rebuild_partition
from ..stages.text import strip_text_spans
from ..state.checkpoint import read_output, run_sharded  # read_output: re-exported


def build_extract_pipeline(
    doc_files: list[str] | str,
    media_dir: str,
    *,
    n_parts: int = 64,
    det_concurrency: int = 4,
    rec_concurrency: int = 2,
    det_batch_size: int = 64,
    rec_batch_size: int = 512,
    stage_mode: str = "tasks",
    det_max_side: int = 4000,
    rec_model_input: bool = False,
    det_model_input: bool = False,
    rectify: bool = False,
    lance_reader=None,
) -> "ray.data.Dataset":
    """Build the lazy Dataset DAG (nothing executes until consumed).

    stage_mode="tasks" (default): model stages run as stateless tasks with a
    per-worker cached stage instance — elastic parallelism on the warm
    worker pool; right when stage state is cheap (deterministic stubs).
    stage_mode="actors": dedicated actor pools with reserved CPUs — right
    when state is heavyweight (real ONNX sessions); concurrency knobs apply.
    """
    from ..sources import read_documents
    from ..stages.media import cached_stage

    media_refs = _media_refs_for(media_dir)
    # the Lance substitution seam: parquet in this env, read_lance (or an
    # injected read_lance-shaped reader) for .lance sources — column
    # pruning and block sizing pass through either way
    ds = read_documents(
        doc_files, columns=["doc_id", "spans"],
        override_num_blocks=max(64, n_parts * 2), lance_reader=lance_reader,
    )
    ds = ds.map_batches(make_explode_spans(n_parts), batch_format="pyarrow")
    ds = ds.map_batches(strip_text_spans, batch_format="pyarrow")
    if stage_mode == "actors":
        ds = ds.map_batches(
            MediaDetect,
            fn_constructor_kwargs={"media_dir": media_dir,
                                   "det_max_side": det_max_side,
                                   "det_model_input": det_model_input,
                                   "rectify": rectify},
            batch_format="pyarrow",
            batch_size=det_batch_size,
            concurrency=det_concurrency,
            num_cpus=1,
        )
        ds = ds.map_batches(
            Recognize,
            fn_constructor_kwargs={"model_input": rec_model_input},
            batch_format="pyarrow",
            batch_size=rec_batch_size,
            concurrency=rec_concurrency,
            num_cpus=1,
        )
    else:
        if media_refs is not None:
            det_stage = cached_stage(
                MediaDetect, media_refs=media_refs,
                cache_token=(media_dir, det_model_input, rectify),
                det_max_side=det_max_side, det_model_input=det_model_input,
                rectify=rectify)
        else:  # corpus too big to pin in the object store: lazy LRU lookups
            det_stage = cached_stage(MediaDetect, media_dir=media_dir,
                                     det_max_side=det_max_side,
                                     det_model_input=det_model_input,
                                     rectify=rectify)
        ds = ds.map_batches(
            det_stage,
            batch_format="pyarrow",
            batch_size=det_batch_size,
        )
        ds = ds.map_batches(
            cached_stage(Recognize, model_input=rec_model_input),
            batch_format="pyarrow",
            batch_size=rec_batch_size,
        )
    # combiner before the shuffle: pack per-doc partial span lists per block
    # so the all-to-all moves ~one row per doc, not one per span
    from ..stages.reassemble import merge_partials, pack_partial

    ds = ds.map_batches(pack_partial, batch_format="pyarrow")
    return ds.groupby("part").map_groups(merge_partials, batch_format="pyarrow")


def main(argv: list[str] | None = None) -> None:
    """CLI entry (the `ray job submit` surface):

    python -m oar_ocr_ray.pipelines.extract --docs DIR_OR_GLOB --media DIR \
        --out OUT [--shards N] [--n-parts P] [--num-cpus C]

    Resumable: re-running with the same --out skips committed shards.
    """
    import argparse
    import glob as globlib
    import json

    p = argparse.ArgumentParser(description="flagship extraction pipeline")
    p.add_argument("--docs", required=True, help="documents parquet dir or glob")
    p.add_argument("--media", required=True, help="media bucket parquet dir")
    p.add_argument("--out", required=True)
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--n-parts", type=int, default=128)
    p.add_argument("--num-cpus", type=int, default=None)
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=args.num_cpus, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    if os.path.isdir(args.docs):
        files = sorted(
            os.path.join(args.docs, f) for f in os.listdir(args.docs) if f.endswith(".parquet")
        )
    else:
        files = sorted(globlib.glob(args.docs))
    result = run_extract(files, args.media, args.out, n_shards=args.shards, n_parts=args.n_parts)
    print(json.dumps(result))
    ray.shutdown()


_MEDIA_REFS_CACHE: dict[str, dict] = {}

# SharedMediaStore materializes the WHOLE media corpus into the object
# store up front — a win while it fits (one parquet decode total, zero-copy
# reads in every worker), an OOM at corpus scale. Above this budget the
# pipeline falls back to the lazy per-actor LRU MediaStore (bounded memory,
# point lookups against the bucketed store). Override via env for tests.
SHARED_MEDIA_MAX_BYTES = int(os.environ.get("OAR_SHARED_MEDIA_MAX_BYTES", 2 << 30))


def _media_dir_bytes(media_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(media_dir, f))
        for f in os.listdir(media_dir)
        if f.endswith(".parquet")
    )


def _media_refs_for(media_dir: str) -> dict | None:
    """Bucket tables shared via the object store, put once per driver
    (SharedMediaStore) — or None when the corpus exceeds
    SHARED_MEDIA_MAX_BYTES and the lazy LRU store must be used instead."""
    from ..stages.media import SharedMediaStore

    if media_dir in _MEDIA_REFS_CACHE:
        return _MEDIA_REFS_CACHE[media_dir]
    if _media_dir_bytes(media_dir) > SHARED_MEDIA_MAX_BYTES:
        _MEDIA_REFS_CACHE[media_dir] = None
        return None
    refs = SharedMediaStore.put_buckets(media_dir)
    _MEDIA_REFS_CACHE[media_dir] = refs
    return refs


def run_extract(
    doc_files: list[str],
    media_dir: str,
    out_dir: str,
    *,
    n_shards: int = 4,
    max_shards: int | None = None,
    **pipeline_kwargs,
) -> dict:
    """Sharded, resumable run: each shard = a group of input files processed
    by one streaming pipeline, committed by state.checkpoint.run_sharded.
    Re-running skips committed shards. `max_shards` limits how many
    incomplete shards to process (used to test kill/resume)."""
    n_shards = min(n_shards, len(doc_files))
    shards = [sorted(doc_files)[i::n_shards] for i in range(n_shards)]
    return run_sharded(
        out_dir, "inputs", shards,
        lambda files: build_extract_pipeline(files, media_dir, **pipeline_kwargs),
        "spans", max_shards,
    )


if __name__ == "__main__":
    main()
