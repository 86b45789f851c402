"""Per-layer metrics from the traced run's root spans (see tracer.py).

Every metric is a value per timed pass, averaged over the traced passes.
Time inside the stand-in model sessions of `oar_ocr_ray.stubs` (spans
named `session.*`) is reported only by metrics ending in `session_s`;
every other time metric has it subtracted, so a gain claimed outside
`*session_s` is engine time.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

# (metric, unit) in report order
PER_LAYER = [
    ("detect.s", "s"), ("detect.self_s", "s"), ("detect.crops", "count"),
    ("detect.rows_per_batch", "rows"),
    ("media.fetch_s", "s"), ("media.fetches", "count"), ("media.missing", "count"),
    ("media.decode_s", "s"), ("det.postprocess_s", "s"), ("det.session_s", "s"),
    ("recognize.s", "s"), ("recognize.self_s", "s"), ("rec.preprocess_s", "s"),
    ("rec.session_s", "s"), ("rec.ctc_s", "s"), ("rec.crops", "count"),
    ("rec.flip_retries", "count"), ("rec.empty_reads", "count"),
    ("rec.retry_ratio", "ratio"),
    ("explode.s", "s"), ("strip.s", "s"), ("pack.s", "s"), ("merge.s", "s"),
    ("exchange.rows_in", "rows"), ("exchange.rows_per_doc", "rows/doc"),
    ("shard.s", "s"), ("shard.write_s", "s"), ("shard.commit_s", "s"), ("shards", "count"),
    ("ray.residual_s", "s"), ("occupancy", "ratio"), ("ray.warnings", "count"),
    ("structure.page_s", "s"), ("structure.fetch_s", "s"), ("structure.decode_s", "s"),
    ("structure.layout_session_s", "s"), ("structure.det_session_s", "s"),
    ("structure.rec_s", "s"), ("structure.table_s", "s"), ("structure.stitch_s", "s"),
    ("structure.elements", "count"),
    ("stub.session_s", "s"), ("engine.s", "s"), ("trace.overhead_s", "s"),
]


def _is_session(name: str) -> bool:
    return name.startswith("session.")


def _union_ns(intervals, a: int, b: int) -> int:
    """Length of the union of intervals, clipped to [a, b)."""
    covered, end = 0, a
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, b)
        if t1 > t0:
            covered += t1 - t0
            end = t1
    return covered


class _Window:
    """Span sums of the root spans that started inside one pass."""

    def __init__(self, roots, a: int, b: int):
        self.wall = (b - a) / 1e9
        self.total = defaultdict(float)     # (root, span) -> s, sessions included
        self.engine = defaultdict(float)    # (root, span) -> s, sessions excluded
        self.self_s = defaultdict(float)    # (root, span) -> self time
        self.counts = defaultdict(int)      # (root, counter) -> n
        self.shard_roots = []
        stage_iv = []
        for r in roots:
            if not a <= r["t0"] < b:
                continue
            if r["root"].startswith("shard."):
                self.shard_roots.append(r)
                continue
            stage_iv.append((r["t0"], r["t1"]))
            self._add(r)
        self.busy = sum(t1 - t0 for t0, t1 in stage_iv) / 1e9
        self.idle = self.wall - _union_ns(stage_iv, a, b) / 1e9

    def _add(self, r) -> None:
        root = r["root"]
        sessions = sorted((t0, t1) for name, _, t0, t1, _ in r["spans"] if _is_session(name))
        starts = [s[0] for s in sessions]
        for name, _parent, t0, t1, self_ns in r["spans"]:
            key = (root, name)
            self.total[key] += (t1 - t0) / 1e9
            self.self_s[key] += self_ns / 1e9
            inside = 0
            if not _is_session(name):
                for s0, s1 in sessions[bisect.bisect_left(starts, t0):]:
                    if s0 >= t1:
                        break
                    if s1 <= t1:
                        inside += s1 - s0
            self.engine[key] += (t1 - t0 - inside) / 1e9
        for k, v in r["counts"].items():
            self.counts[(root, k)] += v

    def session_s(self) -> float:
        return sum(v for (_, name), v in self.total.items() if _is_session(name))

    def shard_sums(self):
        """(shard_s, write_s, commit_s, shards): each shard runs build ->
        write -> commit on the driver; commit_s covers the rename, the
        count scan and ShardManifest.commit."""
        shard = write = commit = 0.0
        n = 0
        start = last_write_end = None
        for r in sorted(self.shard_roots, key=lambda r: r["t0"]):
            if r["root"] == "shard.build" and start is None:
                start = r["t0"]
            elif r["root"] == "shard.write":
                write += (r["t1"] - r["t0"]) / 1e9
                last_write_end = r["t1"]
            elif r["root"] == "shard.commit" and start is not None:
                shard += (r["t1"] - start) / 1e9
                commit += (r["t1"] - (last_write_end or r["t0"])) / 1e9
                n += 1
                start = last_write_end = None
        return shard, write, commit, n


def _window_metrics(w: _Window, n_docs: int, ncpu: int) -> dict:
    T, E, S, C = w.total, w.engine, w.self_s, w.counts
    rec_crops = C[("recognize", "rec.crops")]
    retries = C[("recognize", "ctc.calls")] - rec_crops
    det_batches = C[("detect", "detect.batches")]
    rows_in = C[("pack", "pack.rows_out")]
    shard_s, write_s, commit_s, shards = w.shard_sums()
    stub = w.session_s()
    return {
        "detect.s": E[("detect", "detect")],
        "detect.self_s": S[("detect", "detect")],
        "detect.crops": C[("detect", "detect.crops")],
        "detect.rows_per_batch": C[("detect", "detect.rows_in")] / det_batches if det_batches else 0.0,
        "media.fetch_s": E[("detect", "store.get")],
        "media.fetches": C[("detect", "fetches")],
        # lost blobs and blobs that fail to decode, as the stages'
        # missing_media counts them
        "media.missing": sum(C[(root, key)] for root in ("detect", "structure")
                             for key in ("missing", "decode_png.errors")),
        "media.decode_s": E[("detect", "decode_png")],
        "det.postprocess_s": E[("detect", "db_postprocess")],
        "det.session_s": T[("detect", "session.det")],
        "recognize.s": E[("recognize", "recognize")],
        "recognize.self_s": S[("recognize", "recognize")],
        "rec.preprocess_s": E[("recognize", "rec.resize")] + E[("recognize", "tensor")],
        "rec.session_s": T[("recognize", "session.rec")],
        "rec.ctc_s": E[("recognize", "ctc")],
        "rec.crops": rec_crops,
        "rec.flip_retries": retries,
        "rec.empty_reads": C[("recognize", "rec.empty_reads")],
        "rec.retry_ratio": retries / rec_crops if rec_crops else 0.0,
        "explode.s": E[("explode", "explode")],
        "strip.s": E[("strip", "strip")],
        "pack.s": E[("pack", "pack")],
        "merge.s": E[("merge", "merge")],
        "exchange.rows_in": rows_in,
        "exchange.rows_per_doc": rows_in / n_docs,
        "shard.s": shard_s, "shard.write_s": write_s, "shard.commit_s": commit_s,
        "shards": shards,
        "ray.residual_s": w.idle,
        "occupancy": w.busy / (w.wall * ncpu),
        "structure.page_s": E[("structure", "structure.page")],
        "structure.fetch_s": E[("structure", "store.get")],
        "structure.decode_s": E[("structure", "decode_png")],
        "structure.layout_session_s": T[("structure", "session.layout")],
        "structure.det_session_s": T[("structure", "session.det")],
        "structure.rec_s": E[("structure", "line_reader")],
        "structure.table_s": E[("structure", "table")],
        "structure.stitch_s": E[("structure", "stitch")],
        "structure.elements": C[("structure", "structure.elements")],
        "stub.session_s": stub,
        "engine.s": w.busy - stub,
    }


def per_layer(roots, windows, meta: dict, ncpu: int) -> dict:
    """{metric: (value, unit)} averaged over the given pass windows; the
    driver-side metrics ray.warnings and trace.overhead_s are added by the
    caller."""
    per = [_window_metrics(_Window(roots, a, b), meta["n_docs"], ncpu) for a, b in windows]
    units = dict(PER_LAYER)
    return {k: (sum(m[k] for m in per) / len(per), units[k]) for k in per[0]}
