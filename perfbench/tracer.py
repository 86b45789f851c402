"""Span tracer for the benchmark's traced run.

The traced run replaces attributes of `oar_ocr_ray` modules and classes
with wrappers that record a span around each call into a layer's public
functions; no file inside `oar_ocr_ray/` changes. There are two install
points, because a Ray Data job runs code in two kinds of process:

- `install_worker()` is Ray's `worker_process_setup_hook`. It wraps the
  stage classes (`MediaDetect`, `Recognize`, `StructureExtract`) and the
  layer functions they call. Stage classes are pickled by reference, so
  the class attribute patched in the worker is the one that runs.
- `install_driver()` runs in the benchmark's driver. It wraps the shard
  runner's write and commit, and the module functions the runner hands to
  `map_batches` (`strip_text_spans`, the explode closure, `pack_partial`,
  `merge_partials`). Those travel to the workers inside the pickled plan,
  so patching them in a worker would never be seen; they are wrapped in
  `Traced` objects on the driver instead.

Each process keeps its spans in memory and appends them to
`<trace dir>/<pid>.jsonl` when its outermost (root) span ends: one JSON
line per root span, holding every span it caused and the counters it
recorded. Times come from `time.monotonic_ns()`, one clock for every
process on the host, so driver and worker spans share a time axis.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Per-process span recorder.

    A span is `[name, parent, t0_ns, t1_ns, self_ns]`, where self time is
    the span's duration minus the time covered by its child spans. Spans
    and counters belong to the root span that is open on the thread; the
    root is written out when it ends."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, f"{os.getpid()}.jsonl")
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seq = 0

    def begin(self, name: str) -> None:
        loc = self._local
        if not getattr(loc, "stack", None):
            loc.stack = []
            loc.spans = []
            loc.counts = {}
        loc.stack.append([name, time.monotonic_ns(), 0])

    def end(self) -> None:
        t1 = time.monotonic_ns()
        loc = self._local
        name, t0, child_ns = loc.stack.pop()
        dur = t1 - t0
        parent = loc.stack[-1][0] if loc.stack else ""
        loc.spans.append([name, parent, t0, t1, dur - child_ns])
        if loc.stack:
            loc.stack[-1][2] += dur
            return
        with self._lock:
            self._seq += 1
            line = json.dumps({
                "pid": os.getpid(), "seq": self._seq, "root": name,
                "t0": t0, "t1": t1, "spans": loc.spans, "counts": loc.counts,
            })
            with open(self.path, "a") as f:
                f.write(line + "\n")
        loc.spans = []
        loc.counts = {}

    def count(self, key: str, n: int = 1) -> None:
        """Add n to a counter of the open root span."""
        counts = self._local.counts
        counts[key] = counts.get(key, 0) + int(n)


_RECORDER: Recorder | None = None  # a worker's recorder, set by install_worker


def _wrap(rec: Recorder, fn, name: str, after=None):
    """fn wrapped in a span; after(rec, args, result) records counters,
    and a raised exception counts as `<name>.errors`."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.begin(name)
        try:
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec.count(name + ".errors")  # e.g. a corrupt blob in decode_png
                raise
            if after is not None:
                after(rec, args, out)
            return out
        finally:
            rec.end()

    return traced


class Patches:
    """Attribute replacements that can be undone (tests patch and restore
    in one process)."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        self.set(owner, attr, _wrap(self.rec, getattr(owner, attr), name, after))

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _valid_crops(table) -> int:
    import pyarrow.compute as pc

    if "crop" not in table.column_names:
        return 0
    return int(pc.sum(pc.is_valid(table["crop"])).as_py() or 0)


def _after_detect(rec, args, out):
    rec.count("detect.batches")
    rec.count("detect.rows_in", len(args[1]))
    rec.count("detect.rows_out", len(out))
    rec.count("detect.crops", _valid_crops(out))


def _after_recognize(rec, args, out):
    batch = args[1]
    rec.count("recognize.batches")
    rec.count("recognize.rows_in", len(batch))
    rec.count("recognize.rows_out", len(out))
    rec.count("rec.crops", _valid_crops(batch))
    # Recognize drops empty reads (drop_empty=True), so each missing
    # output row is one crop that read empty even after the flipped retry
    rec.count("rec.empty_reads", len(batch) - len(out))


def _after_fetch(rec, args, out):
    rec.count("fetches")
    if out is None:
        rec.count("missing")


def _after_ctc(rec, args, out):
    rec.count("ctc.calls")


def _after_structure(rec, args, out):
    import pyarrow.compute as pc

    rec.count("structure.batches")
    rec.count("structure.pages", len(out))
    rec.count("structure.elements", int(pc.sum(out["n_elements"]).as_py() or 0))


STUB_SESSIONS = (
    ("StubDbSession", "session.det"),
    ("StubCtcSession", "session.rec"),
    ("StubLayoutSession", "session.layout"),
    ("StubOrientationSession", "session.orient"),
    ("StubTableClsSession", "session.table_cls"),
    ("StubCellDetSession", "session.cell"),
    ("StubRegionSession", "session.region"),
    ("StubFormulaSession", "session.formula"),
)


def patch_worker(rec: Recorder) -> Patches:
    """Wrap the stage classes and the layer functions they call."""
    from oar_ocr_ray import geometry, preprocess, stubs
    from oar_ocr_ray import structure as structure_mod
    from oar_ocr_ray.stages import media, structure_stage

    p = Patches(rec)
    p.wrap(media.MediaDetect, "__call__", "detect", _after_detect)
    p.wrap(media.Recognize, "__call__", "recognize", _after_recognize)
    p.wrap(media.SharedMediaStore, "get", "store.get", _after_fetch)
    p.wrap(media.MediaStore, "get", "store.get", _after_fetch)
    p.wrap(media, "decode_png", "decode_png")
    p.wrap(structure_stage, "decode_png", "decode_png")
    p.wrap(geometry, "db_boxes_from_bitmap", "db_postprocess")
    p.wrap(preprocess, "ocr_resize_and_pad", "rec.resize")
    p.wrap(preprocess, "gray_batch_tensor", "tensor")
    p.wrap(media, "ctc_greedy_decode", "ctc", _after_ctc)
    p.wrap(media.LineReader, "read_many", "line_reader")
    for cls_name, span in STUB_SESSIONS:
        p.wrap(getattr(stubs, cls_name), "__call__", span)
    p.wrap(structure_stage.StructureExtract, "__call__", "structure", _after_structure)
    p.wrap(structure_stage.StructureExtract, "_one_page", "structure.page")
    p.wrap(structure_mod, "compute_table_htmls", "table")
    p.wrap(structure_stage, "stitch_page_enhanced", "stitch")
    return p


class Traced:
    """A `map_batches` UDF wrapped in a root span, built on the driver.

    A module-level UDF pickles as a reference to its module attribute, so
    a worker unpickles the original function; a closure pickles by value."""

    def __init__(self, name: str, fn, ref: tuple[str, str] | None = None):
        self.name = name
        self.fn = fn
        self.ref = ref
        self.__name__ = getattr(fn, "__name__", name)  # map_groups copies it

    def __reduce__(self):
        if self.ref is not None:
            return (_traced_by_ref, (self.name,) + self.ref)
        return (Traced, (self.name, self.fn))

    def __call__(self, batch):
        rec = _RECORDER
        if rec is None:
            return self.fn(batch)
        rec.begin(self.name)
        try:
            out = self.fn(batch)
            rec.count(self.name + ".batches")
            rec.count(self.name + ".rows_in", len(batch))
            rec.count(self.name + ".rows_out", len(out))
            return out
        finally:
            rec.end()


def _traced_by_ref(name: str, module: str, attr: str) -> Traced:
    fn = getattr(importlib.import_module(module), attr)
    if isinstance(fn, Traced):  # resolved where the attribute is patched
        fn = fn.fn
    return Traced(name, fn, (module, attr))


def patch_driver(rec: Recorder) -> Patches:
    """Wrap the shard runners' build/write/commit steps and the UDFs the
    extract runner passes to map_batches."""
    import ray.data

    from oar_ocr_ray.pipelines import extract, structure
    from oar_ocr_ray.stages import reassemble
    from oar_ocr_ray.state import checkpoint

    p = Patches(rec)
    p.wrap(extract, "build_extract_pipeline", "shard.build")
    p.wrap(structure, "build_structure_pipeline", "shard.build")
    p.wrap(ray.data.Dataset, "write_parquet", "shard.write")
    p.wrap(checkpoint.ShardManifest, "commit", "shard.commit")

    make_explode = extract.make_explode_spans
    p.set(extract, "make_explode_spans",
          lambda n_parts: Traced("explode", make_explode(n_parts)))
    p.set(extract, "strip_text_spans",
          Traced("strip", extract.strip_text_spans,
                 ("oar_ocr_ray.stages.text", "strip_text_spans")))
    for attr, name in (("pack_partial", "pack"), ("merge_partials", "merge")):
        p.set(reassemble, attr, Traced(name, getattr(reassemble, attr),
                                       (reassemble.__name__, attr)))
    return p


def install_worker() -> None:
    """Ray `worker_process_setup_hook`: trace this worker process into the
    directory named by $PERFBENCH_TRACE_DIR."""
    global _RECORDER
    out_dir = os.environ[TRACE_DIR_ENV]
    os.makedirs(out_dir, exist_ok=True)
    _RECORDER = Recorder(out_dir)
    patch_worker(_RECORDER)


def install_driver(out_dir: str) -> Patches:
    """Trace the driver process; returns the patches to undo afterwards."""
    os.makedirs(out_dir, exist_ok=True)
    return patch_driver(Recorder(out_dir))


def load_roots(out_dir: str) -> list[dict]:
    """Every root span written under out_dir, in start order."""
    roots = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(out_dir, name)) as f:
                roots.extend(json.loads(line) for line in f if line.strip())
    roots.sort(key=lambda r: r["t0"])
    return roots
