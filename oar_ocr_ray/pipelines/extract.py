"""Flagship extraction pipeline (the north-star job).

One streaming Ray Data pass reproducing the reference's OCR extraction
semantics (/root/reference/src/oarocr/ocr.rs:452-574 predict) over the
interleaved text+media `documents` table:

  read_parquet(documents)          # 2 blocks per cluster CPU, columns pruned
    -> map_batches(one fused UDF per block of whole documents):
         explode_spans              # doc -> span rows (+anchors), Arrow-vectorized
         strip_text_spans           # text path: vectorized boilerplate strip
         MediaDetect, bounded runs  # media path: decode+orient+detect+crop fan-out
         Recognize, bounded runs    # wh-sorted batched recognition + real CTC decode
         pack_partial per run       # the run's span rows, crops dropped
         merge_partials             # exact sequence reconstruction
    -> write_parquet(shard dir)    # committed per shard via manifest

Each call holds whole documents: a read block's rows are documents, one
row each, and a block never splits a row. So the call's own span rows
rebuild every document it holds, as the reference rebuilds a page's
reading order from that page's own detections (ocr.rs:728-808), and no
exchange runs (`extract_docs`). `span_runs` is the one construction of
the chain; the media queries (`queries.ocr_word_boxes`,
`queries.crop_aspect_buckets`) map it too (`span_rows`), without pack and
merge.

Scale properties: the read splits a shard into 2 blocks per CPU of the
running cluster, so the number of tasks follows the CPUs, not the corpus;
Ray's `target_max_block_size` still splits any block that grows too large.
Span rows are small, so that limit does not cap how many images or crops
a block holds; a model-stage call keeps what it makes for each of them
(crops, CTC logits) until it returns. So each stage is called once per
run of the chain's rows holding at most `WORK_PER_CALL` of the rows it
works on (64 image spans for MediaDetect, 512 crops for Recognize;
`stages.media.bounded_runs`), and each Recognize run is packed as it
returns, which drops its crops; text rows ride along, so a text-heavy
block is one call of each. Inside a call MediaDetect decodes at most
`chunk_px` pixels at a time and Recognize runs wh-sorted
`rec_session_batch` sub-batches through the recognition core the
structure path shares (`Recognize.read_sorted`). Media payloads are
point-lookups against the bucketed store, not a join. Never materializes
the dataset.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray
import ray.data

from ..stages.explode import make_explode_spans
from ..stages.media import MediaDetect, Recognize, bounded_runs, cached_stage
from ..stages.text import strip_text_spans
from ..state.checkpoint import read_output, run_sharded  # read_output: re-exported


def _read_documents(doc_files: list[str] | str, lance_reader) -> "ray.data.Dataset":
    """The `documents` read in 2 blocks per CPU of the running Ray cluster,
    so Ray must be initialised first (the caller owns the session)."""
    from ..sources import read_documents

    if not ray.is_initialized():
        raise RuntimeError(
            "the extract chain sizes its read from the running Ray "
            "cluster's CPUs: call ray.init() first")
    read_blocks = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    # the Lance substitution seam: parquet in this env, read_lance (or an
    # injected read_lance-shaped reader) for .lance sources — column
    # pruning and block sizing pass through either way
    return read_documents(
        doc_files, columns=["doc_id", "spans"],
        override_num_blocks=read_blocks, lance_reader=lance_reader,
    )


def span_runs(
    media_dir: str,
    *,
    n_parts: int = 64,
    det_max_side: int = 4000,
    rec_model_input: bool = False,
    det_model_input: bool = False,
    rectify: bool = False,
    emit_word_boxes: bool = False,
):
    """The explode -> strip -> MediaDetect -> Recognize chain as a generator
    `map_batches` UDF over a batch of whole documents: it yields the span
    rows of each Recognize run, one row per text span and per recognized
    line (plus each document's anchor row).

    `n_parts` only sets the `part` column explode writes. MediaDetect
    reads media through the shared object-store buckets while the corpus
    fits SHARED_MEDIA_MAX_BYTES, else through the lazy store. The stages
    are looked up here, when the plan is built, and each runs as a per-worker
    cached instance (`cached_stage`)."""
    explode, strip = make_explode_spans(n_parts), strip_text_spans
    media_refs = _media_refs_for(media_dir)
    detect = cached_stage(
        MediaDetect,
        cache_token=(media_dir, media_refs is None, det_max_side,
                     det_model_input, rectify),
        media_dir=media_dir, media_refs=media_refs, det_max_side=det_max_side,
        det_model_input=det_model_input, rectify=rectify)
    recognize = cached_stage(Recognize, model_input=rec_model_input,
                             emit_word_boxes=emit_word_boxes)

    def runs(docs: pa.Table):
        spans = strip(explode(docs))
        crops = (detect(run) for run in bounded_runs([spans], MediaDetect))
        for run in bounded_runs(crops, Recognize):
            yield recognize(run)

    runs.__name__ = runs.__qualname__ = "explode->strip->MediaDetect->Recognize"
    return runs


def span_rows(doc_files: list[str] | str, media_dir: str, *, lance_reader=None,
              **chain_kwargs) -> "ray.data.Dataset":
    """The lazy read mapped by `span_runs` (whose keyword options it takes):
    every span row of the chain, with no per-document rebuild."""
    ds = _read_documents(doc_files, lance_reader)
    return ds.map_batches(span_runs(media_dir, **chain_kwargs),
                          batch_format="pyarrow", batch_size=None)


def extract_docs(media_dir: str, **chain_kwargs):
    """The fused extract UDF over a batch of whole documents: the
    `span_runs` chain (whose keyword options it takes), `pack_partial` on
    each run and `merge_partials` once over the packed runs, giving the
    batch's (doc_id, spans) rows."""
    from ..stages import reassemble

    runs = span_runs(media_dir, emit_word_boxes=False, **chain_kwargs)
    pack, merge = reassemble.pack_partial, reassemble.merge_partials

    def docs_fn(docs: pa.Table) -> pa.Table:
        return merge(pa.concat_tables([pack(run) for run in runs(docs)]))

    docs_fn.__name__ = docs_fn.__qualname__ = runs.__name__ + "->pack->merge"
    return docs_fn


def build_extract_pipeline(doc_files: list[str] | str, media_dir: str, *,
                           lance_reader=None, **chain_kwargs) -> "ray.data.Dataset":
    """Build the lazy Dataset DAG (nothing executes until consumed): the
    read mapped by `extract_docs` (whose keyword options it takes) over
    whole blocks, with no exchange."""
    ds = _read_documents(doc_files, lance_reader)
    return ds.map_batches(extract_docs(media_dir, **chain_kwargs),
                          batch_format="pyarrow", batch_size=None)


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
# point lookups against the bucketed store).
SHARED_MEDIA_MAX_BYTES = 2 << 30


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
    stage_mode: str = "tasks",
    **pipeline_kwargs,
) -> dict:
    """Sharded, resumable run: each shard = a group of input files processed
    by one streaming pipeline, committed by state.checkpoint.run_sharded.
    Re-running skips committed shards. `max_shards` limits how many
    incomplete shards to process (used to test kill/resume). The model
    stages run as tasks, the only `stage_mode`."""
    if stage_mode != "tasks":
        raise ValueError(f"stage_mode={stage_mode!r}: the extract chain runs "
                         "its model stages as tasks only")
    n_shards = min(n_shards, len(doc_files))
    shards = [sorted(doc_files)[i::n_shards] for i in range(n_shards)]
    return run_sharded(
        out_dir, "inputs", shards,
        lambda files: build_extract_pipeline(files, media_dir, **pipeline_kwargs),
        "spans", max_shards,
    )


if __name__ == "__main__":
    main()
