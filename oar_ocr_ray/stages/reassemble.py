"""Reassembly: span rows -> ordered per-document span lists.

The last steps of the extract chain's one fused map call, which holds
whole documents: `pack_partial` packs each bounded run's span rows into
one row per (doc, run), dropping the run's crops, and `merge_partials`
merges the call's packed runs. The rebuild is VECTORIZED in Arrow/numpy —
sort by (doc_id, offset, det_idx), find document boundaries, emit
list<struct> spans with order = within-document rank — one Python call
per batch, not per document.

This reconstructs the reference's ordering guarantees: detection order
restored by index scatter (/root/reference/src/oarocr/ocr.rs:728-808) and
per-page span sequence = reading order (/root/reference/src/oarocr/result.rs:147-163),
generalized to (offset, det_idx) across interleaved text+media spans —
the north-rule `order` key.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..fixtures import OUT_SPAN_STRUCT
from .explode import ANCHOR_KIND


def rebuild_partition(table: pa.Table) -> pa.Table:
    """(span rows of whole documents) -> (doc_id, spans) rows, vectorized."""
    if len(table) == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.string()),
             "spans": pa.array([], pa.list_(OUT_SPAN_STRUCT))}
        )
    idx = pc.sort_indices(
        table,
        sort_keys=[("doc_id", "ascending"), ("offset", "ascending"), ("det_idx", "ascending")],
    )
    t = table.take(idx).combine_chunks()

    doc = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False))
    n = len(doc)
    starts = np.r_[0, np.flatnonzero(doc[1:] != doc[:-1]) + 1]
    counts = np.diff(np.r_[starts, n])

    kind_np = np.asarray(t["kind"].to_numpy(zero_copy_only=False))
    nonanchor = kind_np != ANCHOR_KIND
    c = np.cumsum(nonanchor)
    base = np.repeat(c[starts] - nonanchor[starts], counts)
    order_all = (c - base - 1).astype(np.int32)  # valid on nonanchor rows

    keep = np.flatnonzero(nonanchor)
    kept = t.take(pa.array(keep))
    span_struct = pa.StructArray.from_arrays(
        [
            kept["kind"].combine_chunks(),
            kept["text"].combine_chunks(),
            kept["media_ref"].combine_chunks(),
            pa.array(order_all[keep], type=pa.int32()),
        ],
        names=["kind", "text", "media_ref", "order"],
    )
    spans_per_doc = np.add.reduceat(nonanchor.astype(np.int64), starts) if n else np.zeros(0, np.int64)
    # reduceat quirk: a group whose slice is empty copies the next element — but
    # every group is non-empty here (each doc has at least its anchor row), and
    # reduceat over nonanchor counts anchors as 0, so values are correct.
    offsets = pa.array(np.r_[0, np.cumsum(spans_per_doc)], type=pa.int32())
    spans_list = pa.ListArray.from_arrays(offsets, span_struct)
    doc_ids = t["doc_id"].take(pa.array(starts))
    return pa.table({"doc_id": doc_ids, "spans": spans_list})


# ---------------------------------------------------------------------------
# Per-run combiner: pack each run's span rows, merge once per call
# ---------------------------------------------------------------------------

PARTIAL_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
        ("det_idx", pa.int32()),
    ]
)


def pack_partial(table: pa.Table) -> pa.Table:
    """Per-run combiner: span rows -> one row per (doc, run) with a packed
    partial span list, so a call keeps ~one small row per document and run
    instead of every span row with its crop. Vectorized (sort +
    run-length)."""
    if len(table) == 0:
        return pa.table(
            {"doc_id": pa.array([], pa.string()), "part": pa.array([], pa.int32()),
             "spans_part": pa.array([], pa.list_(PARTIAL_SPAN_STRUCT))}
        )
    idx = pc.sort_indices(table, sort_keys=[("doc_id", "ascending")])
    t = table.take(idx).combine_chunks()
    doc = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False))
    n = len(doc)
    starts = np.r_[0, np.flatnonzero(doc[1:] != doc[:-1]) + 1]
    struct_arr = pa.StructArray.from_arrays(
        [
            t["kind"].combine_chunks(),
            t["text"].combine_chunks(),
            t["media_ref"].combine_chunks(),
            t["offset"].combine_chunks().cast(pa.int32()),
            t["det_idx"].combine_chunks().cast(pa.int32()),
        ],
        names=["kind", "text", "media_ref", "offset", "det_idx"],
    )
    offsets = pa.array(np.r_[starts, n].astype(np.int32))
    return pa.table(
        {
            "doc_id": t["doc_id"].take(pa.array(starts)),
            "part": t["part"].take(pa.array(starts)),
            "spans_part": pa.ListArray.from_arrays(offsets, struct_arr),
        }
    )


def merge_partials(table: pa.Table) -> pa.Table:
    """Per-call final merge: unpack partial lists back to span rows
    (Arrow-vectorized) and run the standard rebuild."""
    if len(table) == 0:
        return rebuild_partition(table)
    spans = table["spans_part"].combine_chunks()
    parent = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)
    rows = pa.table(
        {
            "doc_id": pc.take(table["doc_id"].combine_chunks(), parent),
            "offset": flat.field("offset"),
            "det_idx": flat.field("det_idx"),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
        }
    )
    return rebuild_partition(rows)
