"""Span explode / partition-key assignment — vectorized Arrow, no row loops.

Explodes `documents(doc_id, spans list<struct>)` rows into flat span rows
(doc_id, offset, det_idx, kind, text, media_ref, part). This is the analogue
of the reference's page -> Vec<TextRegion> fan-out
(/root/reference/src/oarocr/processors.rs:80-126 TextCroppingProcessor edge)
expressed as a zero-copy Arrow transform: `list_parent_indices` +
`list_flatten` instead of per-row Python.

Every span row carries (doc_id, offset, det_idx) — the identity triple that
survives all shuffles so the exact sequence can be rebuilt (SURVEY.md §7
"hard parts"). One extra anchor row per document (kind='__doc__',
offset=-1) guarantees documents whose spans all get filtered still appear in
the output with an empty span list.

`part` = crc32(doc_id) % n_parts is a column no stage reads any more: the
extract chain rebuilds each call's documents in place, with no exchange.
It and `n_parts` stay only while perfbench still passes `n_parts`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ANCHOR_KIND = "__doc__"

SPAN_ROW_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("offset", pa.int32()),
        ("det_idx", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("part", pa.int32()),
    ]
)


def _crc32_parts(doc_ids: pa.Array, n_parts: int) -> np.ndarray:
    """Vectorized-ish crc32 of utf8 values -> part ids (int32)."""
    import zlib

    # Operate on the raw buffer slices; one zlib.crc32 call per value is C-speed.
    arr = doc_ids.to_pylist()
    return np.fromiter(
        (zlib.crc32(s.encode()) % n_parts for s in arr), dtype=np.int32, count=len(arr)
    )


def make_explode_spans(n_parts: int = 64):
    """Returns a map_batches fn: documents batch -> span-row batch."""

    def explode(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].combine_chunks()
        spans = batch["spans"].combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        span_doc = pc.take(doc_ids, parent)
        parts = _crc32_parts(doc_ids, n_parts)
        span_parts = parts[parent.to_numpy(zero_copy_only=False)] if len(parent) else np.zeros(0, np.int32)

        n_spans = len(flat)
        n_docs = len(doc_ids)
        spans_tbl = pa.table(
            {
                "doc_id": span_doc,
                "offset": flat.field("offset").cast(pa.int32()),
                "det_idx": pa.array(np.zeros(n_spans, dtype=np.int32)),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "part": pa.array(span_parts, type=pa.int32()),
            },
            schema=SPAN_ROW_SCHEMA,
        )
        anchors_tbl = pa.table(
            {
                "doc_id": doc_ids,
                "offset": pa.array(np.full(n_docs, -1, dtype=np.int32)),
                "det_idx": pa.array(np.full(n_docs, -1, dtype=np.int32)),
                "kind": pa.array([ANCHOR_KIND] * n_docs, type=pa.string()),
                "text": pa.array([""] * n_docs, type=pa.string()),
                "media_ref": pa.array([""] * n_docs, type=pa.string()),
                "part": pa.array(parts, type=pa.int32()),
            },
            schema=SPAN_ROW_SCHEMA,
        )
        return pa.concat_tables([spans_tbl, anchors_tbl])

    return explode
