"""Per-shard commit manifest and the sharded, resumable run loop.

The reference has no checkpointing (first error aborts,
/root/reference/src/oarocr/ocr.rs:510-523 is the only fallback); at 10^12-doc
scale resumability is mandatory (north rule). Protocol:

  - input fragments are split into shards (at production scale: Lance
    fragment ranges; here: parquet file groups or media bucket groups);
  - each shard's output is written to a temp dir then atomically renamed to
    its final name; the manifest line (shard id, inputs, row counts, wall
    time) is appended LAST, so a crash can never mark an incomplete shard
    as done (commit manifest last — SURVEY.md §7 hard parts);
  - resume = skip shard ids already present in the manifest. A crash in
    the middle of an append leaves a torn final line: it is read as an
    uncommitted shard and cut off before the next append.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


MANIFEST_NAME = "_MANIFEST.jsonl"


class ShardManifest:
    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, MANIFEST_NAME)

    def _scan(self) -> tuple[dict[int, dict], int]:
        """Committed records by shard id, and the byte length of the intact
        prefix (everything before a torn final line)."""
        done: dict[int, dict] = {}
        end = 0
        if not os.path.exists(self.path):
            return done, end
        with open(self.path, "rb") as f:
            *lines, tail = f.read().split(b"\n")
        # a non-empty tail never got its newline: a torn append, uncommitted
        for no, line in enumerate(lines, 1):
            if line.strip():
                try:
                    rec = json.loads(line)
                except ValueError as e:
                    if no == len(lines) and not tail:
                        break  # torn final line: the shard is not committed
                    raise RuntimeError(
                        f"corrupt shard manifest {self.path} line {no}: {e}"
                    ) from e
                done[rec["shard_id"]] = rec
            end += len(line) + 1
        return done, end

    def completed(self) -> dict[int, dict]:
        return self._scan()[0]

    def commit(self, shard_id: int, record: dict) -> None:
        rec = {"shard_id": shard_id, "committed_at": time.time(), **record}
        _, end = self._scan()
        with open(self.path, "ab") as f:
            f.truncate(end)  # drop a torn tail so this line starts on its own
            f.write(json.dumps(rec).encode() + b"\n")
            f.flush()
            os.fsync(f.fileno())


def _count_output(out: str, count_col: str) -> tuple[int, int]:
    """(rows, count) over a committed shard's parquet files; `count` sums
    `count_col`, or its list lengths when it is a list column."""
    rows = count = 0
    for f in os.listdir(out):
        if not f.endswith(".parquet"):
            continue
        path = os.path.join(out, f)
        rows += pq.read_metadata(path).num_rows
        col = pq.read_table(path, columns=[count_col])[count_col].combine_chunks()
        if pa.types.is_list(col.type):
            col = pc.list_value_length(col)
        count += int(pc.sum(col).as_py() or 0)
    return rows, count


def run_sharded(
    out_dir: str,
    key: str,
    shards: list[list],
    build: Callable[[list], "ray.data.Dataset"],
    count_col: str,
    max_shards: int | None = None,
) -> dict:
    """Run each not-yet-committed shard and commit it atomically: `build`
    turns a shard (the manifest's `key` value) into a Dataset, which is
    written to a tmp dir, renamed to shard-NNNNN and recorded in the
    manifest with its row count and the sum of `count_col`. `max_shards`
    limits how many incomplete shards to process (used to test kill/resume)."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = ShardManifest(out_dir)
    done = manifest.completed()
    # Resume safety: the manifest keys on shard_id, which only identifies the
    # same inputs if the inputs and shard count are unchanged. A resumed run
    # with a different layout would silently skip or re-process inputs —
    # fail loudly instead.
    for sid, rec in done.items():
        if sid >= len(shards):
            raise RuntimeError(
                f"resume mismatch: committed shard {sid} exceeds this run's "
                f"shard count {len(shards)} — its output would silently ride "
                f"along in the result set; re-run with the original {key} and "
                "shard count or use a fresh out dir"
            )
        if rec.get(key) != shards[sid]:
            raise RuntimeError(
                f"resume mismatch: committed shard {sid} covered {key} "
                f"{rec.get(key)} but this run computes {shards[sid]}; re-run "
                f"with the original {key} and shard count or use a fresh out dir"
            )
    processed = 0
    t_start = time.perf_counter()
    for sid, shard in enumerate(shards):
        if sid in done or not shard:
            continue
        if max_shards is not None and processed >= max_shards:
            break
        t0 = time.perf_counter()
        ds = build(shard)
        final = os.path.join(out_dir, f"shard-{sid:05d}")
        tmp = os.path.join(out_dir, f".tmp-shard-{sid:05d}")
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.rename(tmp, final)
        rows, count = _count_output(final, count_col)
        manifest.commit(sid, {
            key: shard,
            "output": final,
            "rows": rows,
            count_col: count,
            "wall_sec": round(time.perf_counter() - t0, 3),
        })
        processed += 1
    return {
        "out_dir": out_dir,
        "shards_total": len(shards),
        "shards_done": len(manifest.completed()),
        "shards_processed_now": processed,
        "wall_sec": time.perf_counter() - t_start,
    }


def read_output(out_dir: str) -> pa.Table | None:
    """All committed shard outputs as one pyarrow Table."""
    tables = []
    for rec in ShardManifest(out_dir).completed().values():
        d = rec["output"]
        for f in sorted(os.listdir(d)):
            if f.endswith(".parquet"):
                tables.append(pq.read_table(os.path.join(d, f)))
    return pa.concat_tables(tables) if tables else None
