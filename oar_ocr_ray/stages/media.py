"""Media path: decode -> orient -> detect -> crop, then recognize.

Two stateful stages, called in bounded runs (`bounded_runs`) inside the
extract chain's one map operator, mirroring the reference stage graph
(reference src/oarocr/ocr.rs:452-574):

  MediaDetect  — per image: fetch bytes by media_ref from the bucketed media
                 store, PNG-decode, orientation classify + inverse rotate
                 (preprocess.rs:58-143 policy), detect line boxes, raster-sort
                 them (sorting.rs:35-84) and emit one CROP ROW per detection
                 via the perspective-crop path (transform.rs:74-190). The
                 explode-to-crop-rows fan-out is the det->rec edge
                 (ocr.rs:641 crop_text_regions).

  Recognize    — per batch: sort crops by wh_ratio ascending (padding
                 efficiency, ocr.rs:733-737), decode each crop to CTC logits
                 (deterministic stand-in for the SVTR/CRNN forward pass) and
                 run the REAL greedy CTC decoder, then scatter results back
                 to detection order (ocr.rs:797).

Both stages pass non-media rows through untouched so the whole chain is a
single streaming pass (no re-read of the input for the text branch).

The model boundaries both pipelines share live here too. Recognition has one
core, `Recognize.read_sorted` (wh-sorted session sub-batches, greedy CTC
decode, flipped retries grouped by tensor width); the structure path's
`LineReader` only prepares crops for it. The page- and box-level wrappers
(`DbDetector`, `LayoutDetector`, `OrientationClassifier`, `TableClassifier`,
`CellDetector`, `RegionDetector`, `FormulaRecognizer`) share one
`ModelBoundary`: the default stand-in session, the session tensor
(`session_tensor`) and the clipped box crop; each keeps only its own
post-processing.

Media store: hash-bucketed parquet keyed by media_ref. Actors lazily load
and LRU-cache whole buckets — the point-lookup pattern that replaces a
shuffle join of image payloads (at production scale media_ref is a blob
store key; payloads never enter an all-to-all exchange).
"""

from __future__ import annotations

import os
import zlib
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ctc import ctc_greedy_decode, encode_ctc_logits
from ..png_codec import DECODE_ERRORS, decode_png
from ..sorting import sort_quad_boxes_indices
from ..stubs import classify_orientation, correct_orientation, read_line_text

CROP_FIELDS = [
    ("crop", pa.binary()),
    ("crop_h", pa.int32()),
    ("crop_w", pa.int32()),
    ("wh_ratio", pa.float32()),
]

# detection geometry kept past recognition (reference TextRegion carries its
# bbox, result.rs:17-42); null on non-media rows
BBOX_FIELDS = [
    ("bx0", pa.float32()),
    ("by0", pa.float32()),
    ("bx1", pa.float32()),
    ("by1", pa.float32()),
]

_STAGE_CACHE: dict = {}


def cached_stage(cls, **kwargs):
    """Wrap a stateful stage class as a plain function with one cached
    instance per worker process.

    Trade-off vs `map_batches(Cls, concurrency=N)` actor pools: Ray Data
    actor pools spawn FRESH worker processes per execution (python import +
    init cost lands inside the job), while plain tasks reuse the warm
    worker pool and scale elastically with available CPUs. For cheap state
    (this stub's store handle, compiled regexes) tasks-with-cached-instance
    wins, and the extract chain builds its model stages this way.
    """
    cache_token = kwargs.pop("cache_token", None)
    if cache_token is None:
        non_primitive = [
            k for k, v in kwargs.items() if not isinstance(v, (str, int, float, bool, type(None)))
        ]
        if non_primitive:
            raise ValueError(
                f"cached_stage({cls.__name__}): kwargs {non_primitive} are not "
                "hashable cache-key material; pass an explicit cache_token= "
                "so differing instances don't silently share one cache slot"
            )
    key = (
        cls.__module__,
        cls.__qualname__,
        cache_token
        if cache_token is not None
        else tuple(sorted((k, v) for k, v in kwargs.items() if isinstance(v, (str, int, float, bool)))),
    )

    def fn(batch):
        inst = _STAGE_CACHE.get(key)
        if inst is None:
            inst = cls(**kwargs)
            _STAGE_CACHE[key] = inst
        return inst(batch)

    fn.__name__ = cls.__name__
    fn.__qualname__ = cls.__name__
    return fn


def bounded_runs(tables, stage):
    """Cut a stream of tables into runs of consecutive rows, each holding at
    most `stage.WORK_PER_CALL` of the rows `stage.is_work` selects, and
    yield each run once it is whole. The cuts fall where they would in the
    concatenated stream, so a stream with no more work rows than that
    comes back as one run.

    A model-stage call keeps what it makes for every row it works on until
    it returns (MediaDetect its crops, Recognize its CTC logits), so a call
    over a whole block would grow with the block. Rows the stage passes
    through ride along in whichever run holds them, so a text-heavy block
    is still one call."""
    per_run = stage.WORK_PER_CALL
    room, pending = per_run, []  # work rows the open run still takes; its rows
    for table in tables:
        idx = np.flatnonzero(stage.is_work(table).to_numpy())
        cuts = idx[room::per_run].tolist()
        bounds = [0, *cuts, len(table)]
        runs = [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
        pending.append(runs[0])
        if cuts:
            yield pa.concat_tables(pending)
            yield from runs[1:-1]
            pending = [runs[-1]]
        room += len(cuts) * per_run - len(idx)
    yield pa.concat_tables(pending)


def _with_null_crop_cols(batch: pa.Table) -> pa.Table:
    n = len(batch)
    for name, typ in CROP_FIELDS + BBOX_FIELDS:
        if name not in batch.column_names:
            batch = batch.append_column(name, pa.nulls(n, type=typ))
    return batch


class MediaStore:
    """Lazy bucketed media store: one SHARED object-store copy per bucket,
    loaded on demand, LRU-bounded — the 100-TB-scale path.

    A tiny named directory actor (one per media_dir per job) owns
    bucket -> ObjectRef: the FIRST worker to need a bucket triggers one
    parquet read + `ray.put`; every other worker maps the same Arrow table
    zero-copy from shared memory (binary column buffers are not copied).
    Worker heap holds only a small ref->row index per cached bucket, never
    payload copies — the earlier per-worker dict-of-bytes cache duplicated
    the whole corpus per worker and collapsed at 3x bench scale. The
    directory LRU-drops old ObjectRefs past its `MAX_BYTES` so plasma can
    evict; workers keep an LRU of at most `MAX_CACHED_BUCKETS` table
    handles. This is the single-node analogue of a node-local blob cache
    over object storage.

    Only (media_ref, png) is ever read — ground-truth columns stay unread.
    """

    MAX_CACHED_BUCKETS = 64

    def __init__(self, media_dir: str):
        self.media_dir = media_dir
        self._files = sorted(
            f for f in os.listdir(media_dir) if f.endswith(".parquet")
        )
        self._dir_actor = None
        self._tables: OrderedDict[str, object] = OrderedDict()
        self._index: dict[str, dict[str, int]] = {}

    def _bucket_of(self, ref: str) -> str:
        import zlib

        b = zlib.crc32(ref.encode()) % len(self._files)
        return f"bucket-{b:03d}.parquet"

    def _directory(self):
        if self._dir_actor is None:
            import hashlib

            name = "oar_media_dir_" + hashlib.md5(self.media_dir.encode()).hexdigest()[:12]
            # detached: a worker process creates it on first miss, and
            # Ray reaps idle workers — a creator-owned actor would die
            # with that worker. Lives until ray.shutdown (node-cache
            # semantics); keyed by media_dir so jobs share it.
            self._dir_actor = MediaBucketDirectory.options(
                name=name, get_if_exists=True, num_cpus=0, lifetime="detached"
            ).remote(self.media_dir)
        return self._dir_actor

    def _load_bucket(self, fname: str):
        if fname in self._tables:
            # staleness note: a cached table is trusted for this worker's
            # lifetime (stat-per-get would be a syscall per media row);
            # rewritten buckets are picked up at the next bucket load via
            # the (mtime_ns, size) stamp below. Corpus regeneration in
            # this repo always writes NEW directories, never in place.
            self._tables.move_to_end(fname)
            return self._tables[fname], self._index[fname]
        import ray

        st = os.stat(os.path.join(self.media_dir, fname))
        stamp = (st.st_mtime_ns, st.st_size)
        t = ray.get(ray.get(self._directory().get_ref.remote(fname, stamp)))
        self._tables[fname] = t
        self._index[fname] = {r: i for i, r in enumerate(t["media_ref"].to_pylist())}
        if len(self._tables) > self.MAX_CACHED_BUCKETS:
            old, _ = self._tables.popitem(last=False)
            self._index.pop(old, None)
        return t, self._index[fname]

    def get(self, ref: str) -> bytes | None:
        """Payload bytes, or None when the ref is absent from the store."""
        t, idx = self._load_bucket(self._bucket_of(ref))
        i = idx.get(ref)
        return t["png"][i].as_py() if i is not None else None


import ray as _ray


@_ray.remote(max_concurrency=8)
class MediaBucketDirectory:
    """bucket file -> shared ObjectRef, read+put once, LRU by bytes.

    num_cpus=0: the actor only coordinates; parquet reads happen inside
    its cache misses and must not reserve a pipeline CPU slot. The actor
    is THREADED (max_concurrency=8) so cold-start misses for DIFFERENT
    buckets read in parallel instead of serializing the whole cluster's
    first pass behind one reader; per-bucket in-flight events dedup
    concurrent misses for the SAME bucket. Objects are ray.put by the
    actor (not by requesting workers) so their owner is this detached
    actor — a worker-owned object would be lost when Ray reaps its idle
    owner. Entries are keyed by the caller's (mtime_ns, size) stamp: a
    rewritten bucket file is re-read, not served stale.
    """

    MAX_BYTES = 8 << 30

    def __init__(self, media_dir: str):
        import threading

        self.media_dir = media_dir
        self._refs: OrderedDict[str, tuple] = OrderedDict()  # fname -> (stamp, ref)
        self._sizes: dict[str, int] = {}
        self._total = 0
        self._lock = threading.Lock()
        self._inflight: dict[str, object] = {}  # fname -> Event

    def get_ref(self, fname: str, stamp: tuple):
        import threading

        while True:
            with self._lock:
                e = self._refs.get(fname)
                if e is not None and e[0] == tuple(stamp):
                    self._refs.move_to_end(fname)
                    return e[1]
                ev = self._inflight.get(fname)
                if ev is None:
                    self._inflight[fname] = threading.Event()
                    break
            ev.wait()  # another thread is loading this bucket; retry after

        try:
            import pyarrow.parquet as _pq
            import ray

            t = _pq.read_table(
                os.path.join(self.media_dir, fname), columns=["media_ref", "png"]
            ).combine_chunks()
            ref = ray.put(t)
            size = t.nbytes
            with self._lock:
                if fname in self._sizes:  # stale entry being replaced
                    self._total -= self._sizes.pop(fname)
                    self._refs.pop(fname, None)
                self._refs[fname] = (tuple(stamp), ref)
                self._sizes[fname] = size
                self._total += size
                while self._total > self.MAX_BYTES and len(self._refs) > 1:
                    old, _ = self._refs.popitem(last=False)
                    self._total -= self._sizes.pop(old)
            return ref
        finally:
            with self._lock:
                ev = self._inflight.pop(fname, None)
            if ev is not None:
                ev.set()


class SharedMediaStore:
    """Media store backed by per-bucket Arrow tables in the Ray object store.

    The driver `ray.put`s each bucket table ONCE; every worker maps it
    zero-copy from shared memory (binary column buffers are not copied) and
    builds only a small ref->row index. This is the single-node analogue of
    a node-local blob cache: no per-worker parquet decode, no heap
    duplication, no shuffle of pixel payloads.
    """

    def __init__(self, bucket_refs: dict[int, "object"]):
        self.bucket_refs = bucket_refs
        self._tables: dict[int, object] = {}
        self._index: dict[int, dict[str, int]] = {}

    @staticmethod
    def put_buckets(media_dir: str) -> dict[int, "object"]:
        import ray

        refs = {}
        for f in sorted(os.listdir(media_dir)):
            if f.endswith(".parquet"):
                b = int(f.split("-")[1].split(".")[0])
                t = pq.read_table(os.path.join(media_dir, f), columns=["media_ref", "png"])
                refs[b] = ray.put(t.combine_chunks())
        return refs

    def get(self, ref: str) -> bytes | None:
        import ray
        import zlib

        b = zlib.crc32(ref.encode()) % len(self.bucket_refs)
        if b not in self._tables:
            t = ray.get(self.bucket_refs[b])
            self._tables[b] = t
            self._index[b] = {r: i for i, r in enumerate(t["media_ref"].to_pylist())}
        i = self._index[b].get(ref)
        return self._tables[b]["png"][i].as_py() if i is not None else None


def session_tensor(imgs: list[np.ndarray]) -> np.ndarray:
    """The normalized (B, 3, H, W) float32 tensor a model session takes:
    equal-shape grayscale images through the fused gray_batch_tensor
    (bit-identical to the general chain, one allocation), anything else
    through normalize_image -> to_batch."""
    from ..preprocess import gray_batch_tensor, normalize_image, to_batch

    if all(a.ndim == 2 for a in imgs):
        # a lone page is a view, not a copy
        return gray_batch_tensor(imgs[0][None] if len(imgs) == 1 else np.stack(imgs))
    return to_batch([normalize_image(a) for a in imgs])


class ModelBoundary:
    """What the page- and box-level model wrappers share: a `session`
    (constructor arg; a production build passes an onnxruntime wrapper,
    the default is the `STUB` stand-in from stubs.py), the tensor it takes
    for one image, and the box crop the table and formula wrappers feed
    it. Subclasses keep only their own post-processing."""

    STUB = ""  # name of the stubs.py session class used when none is passed

    def __init__(self, session=None, **stub_kwargs):
        if session is None:
            from .. import stubs

            session = getattr(stubs, self.STUB)(**stub_kwargs)
        self.session = session

    def infer(self, img: np.ndarray):
        """The session's output for one image, batch axis dropped."""
        return self.session(session_tensor([img]))[0]

    def infer_box(self, img: np.ndarray, box, prep=None):
        """`infer` over img's crop inside `box` (clipped at the page
        origin), after `prep` when given: (output, x0, y0), or None when
        the crop is empty."""
        x0, y0 = max(int(box[0]), 0), max(int(box[1]), 0)
        crop = img[y0:int(box[3]), x0:int(box[2])]
        if crop.size == 0:
            return None
        return self.infer(crop if prep is None else prep(crop)), x0, y0


class DbDetector(ModelBoundary):
    """The detection model boundary as a standalone per-page callable —
    ONE det stack shared by the flagship MediaDetect and the structure
    pipeline (the reference reuses its DBModel in both, structure.rs +
    ocr.rs): normalize_image -> to_batch -> `session` heatmap -> the REAL
    DBPostProcess chain (geometry.db_boxes_from_bitmap). Sessions are
    called per page (B=1): pages have per-page dims and zero-padding a
    mixed-size batch would denormalize to mid-gray inside a real DB net's
    receptive field."""

    STUB = "StubDbSession"

    # db_postprocess.rs:67-88 defaults; the seal preset overrides only the
    # thresholds and the unclip ratio
    def __init__(self, session=None, thresh: float = 0.3,
                 box_thresh: float = 0.6, unclip_ratio: float = 1.5):
        super().__init__(session, unclip_ratio=unclip_ratio)
        self.thresh = thresh
        self.box_thresh = box_thresh
        self.unclip_ratio = unclip_ratio

    def __call__(self, img: np.ndarray) -> np.ndarray:
        from ..geometry import db_boxes_from_bitmap

        prob = self.infer(img)[0]
        boxes, _scores = db_boxes_from_bitmap(
            prob[: img.shape[0], : img.shape[1]],
            thresh=self.thresh, box_thresh=self.box_thresh,
            unclip_ratio=self.unclip_ratio,
            max_candidates=1000,  # db_postprocess.rs:81
            # ScoreMode::Slow (db_score.rs): the fixture corpus renders
            # skewed lines whose rotated bands fill little of their AABB,
            # and fast (AABB-mean) scoring under-rates them
            score_mode="slow",
        )
        return boxes


class LayoutDetector(ModelBoundary):
    """The LAYOUT-detection model boundary (reference PicoDet / RT-DETR
    layout adapters, pp_doclayout.rs + layout_detection_adapter.rs):
    the page tensor -> `session` returns per-image (N, 6) detections
    [label_code, score, x0, y0, x1, y1] (the post-NMS adapter output
    shape) -> label-code map + score-threshold filter. The default
    StubLayoutSession reads the fixture block contract from the tensor.
    Stand-in deviation (documented, same as StubWarpRectifier): the model
    input is the page itself — a real RT-DETR resizes to its fixed input
    and maps boxes back by ratio; the deterministic tag-pixel contract
    doesn't survive a resize blend."""

    STUB = "StubLayoutSession"

    def __init__(self, session=None, score_thresh: float = 0.5):
        super().__init__(session)
        self.score_thresh = score_thresh

    def __call__(self, img: np.ndarray):
        from ..fixtures import LAYOUT_CODES

        boxes, labels, scores = [], [], []
        for code, score, x0, y0, x1, y1 in self.infer(img):
            label = LAYOUT_CODES.get(int(code))
            if label is None or score < self.score_thresh:
                continue
            boxes.append([x0, y0, x1, y1])
            labels.append(label)
            scores.append(float(score))
        return (np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                labels, np.asarray(scores))


class OrientationClassifier(ModelBoundary):
    """Document-orientation model boundary (reference PP-LCNet 4-class
    adapters): the page tensor -> `session` returns (B, 4) class
    probabilities -> argmax (lowest class wins ties, the adapter's
    first-max rule). A real PP-LCNet wrapper brings its own
    resize-short/center-crop preprocess; the default
    StubOrientationSession reads the tag-pixel contract and needs
    page-resolution input (documented stand-in deviation)."""

    STUB = "StubOrientationSession"

    def __call__(self, img: np.ndarray) -> int:
        return int(np.argmax(self.infer(img)))


class TableClassifier(ModelBoundary):
    """Wired/wireless table-classification model boundary
    (table_classification.rs): normalized TABLE-CROP tensor ->
    `session` (B, 2) probabilities -> label."""

    STUB = "StubTableClsSession"

    def __call__(self, img: np.ndarray, box) -> str:
        got = self.infer_box(img, box)
        if got is None:
            return "wireless"
        return "wired" if int(np.argmax(got[0])) == 0 else "wireless"


class CellDetector(ModelBoundary):
    """Table-cell detection model boundary (RT-DETR cells,
    table_cell_detection_adapter.rs): normalized table-crop tensor ->
    `session` per-image (N, 6) detections in crop coords -> score filter
    -> map back to PAGE coordinates by the crop offset."""

    STUB = "StubCellDetSession"

    def __init__(self, session=None, score_thresh: float = 0.5):
        super().__init__(session)
        self.score_thresh = score_thresh

    def __call__(self, img: np.ndarray, box) -> np.ndarray:
        got = self.infer_box(img, box)
        if got is None:
            return np.zeros((0, 4))
        dets, x0, y0 = got
        keep = dets[:, 1] >= self.score_thresh if len(dets) else np.zeros(0, bool)
        cells = dets[keep, 2:].astype(np.float64)
        if len(cells):
            cells[:, [0, 2]] += x0
            cells[:, [1, 3]] += y0
        return cells


class RegionDetector(ModelBoundary):
    """Region-block (container frame) model boundary (PP-DocBlockLayout,
    structure.rs detect_layout_and_regions): normalized page tensor ->
    `session` (N, 6) detections -> score filter -> (N, 4) boxes."""

    STUB = "StubRegionSession"

    def __init__(self, session=None, score_thresh: float = 0.5):
        super().__init__(session)
        self.score_thresh = score_thresh

    def __call__(self, img: np.ndarray) -> np.ndarray:
        dets = self.infer(img)
        if not len(dets):
            return np.zeros((0, 4))
        return dets[dets[:, 1] >= self.score_thresh, 2:].astype(np.float64)


class FormulaRecognizer(ModelBoundary):
    """Formula-recognition model boundary (reference pp_formulanet.rs +
    unimernet_preprocess.rs): crop the formula block -> the REAL
    crop_margin kernel (min-max normalize, binarize, content bbox) ->
    the crop tensor -> `session` returns raw latex -> (the stitch applies
    normalize_latex, the reference's decode -> normalize path). Feeds the
    SEPARATE formula-result stream that fill_formula_content merges by
    best-IoU (stitching.rs:232-251)."""

    STUB = "StubFormulaSession"

    def __call__(self, img: np.ndarray, box) -> str:
        from ..preprocess import crop_margin

        got = self.infer_box(img, box, crop_margin)
        return "" if got is None else str(got[0])


class MediaDetect:
    """Stage: media span rows -> crop rows (others pass through).

    det_model_input=True routes every page through the REAL detection
    model boundary (reference db.rs:95-213, symmetric with Recognize's
    rec_session seam): det-resize -> normalize_image -> to_batch -> the
    `det_session` (constructor arg; a production build passes an
    onnxruntime DB wrapper, default is the kernel-emitting StubDbSession)
    returns a (1,1,H,W) probability heatmap -> the REAL DBPostProcess
    path (geometry.db_boxes_from_bitmap: binarize -> candidates ->
    score filter -> unclip -> min_area_rect -> size filters). Sessions
    are called per page (B=1): det-resized pages have per-page dims, and
    zero-padding a mixed-size batch would denormalize to mid-gray inside
    a real DB net's receptive field — the reference also feeds det one
    image at a time through DetResizeForTest's per-image shapes.
    """

    def __init__(
        self,
        media_dir: str | None = None,
        media_refs: dict | None = None,
        report_original_frame: bool = False,
        chunk_px: int = 16_000_000,  # decoded-page buffer bound (~16 MB gray)
        det_max_side: int = 4000,  # DetResizeForTest max_side_limit (constants.rs)
        det_model_input: bool = False,
        det_session=None,
        rectify: bool = False,
        rectifier=None,
        orient_model_input: bool = False,
        orient_session=None,
    ):
        if media_refs is not None:
            self.store = SharedMediaStore(media_refs)
        else:
            self.store = MediaStore(media_dir)
        self.missing_media = 0  # lost blobs skipped, not fatal (ocr.rs:510-523 precedent)
        # reference contract (ocr.rs:814 rotate_text_regions_back): report
        # boxes in the STORED image frame. The graft invariant compares in
        # the upright frame (both pipeline and golden), so default False.
        self.report_original_frame = report_original_frame
        self.chunk_px = chunk_px
        self.det_max_side = det_max_side
        self.det_model_input = det_model_input
        if det_model_input or det_session is not None:
            self.det_detector = DbDetector(session=det_session)
        else:
            self.det_detector = None
        # optional UVDoc-style rectification after orientation (reference
        # preprocess.rs:58-94 DocumentPreprocessor: orient, then rectify)
        if rectify and rectifier is None:
            from ..stubs import StubWarpRectifier

            rectifier = StubWarpRectifier()
        self.rectifier = rectifier
        # doc-orientation model boundary (PP-LCNet seam); default = the
        # direct tag-pixel stand-in call
        self.orienter = (
            OrientationClassifier(session=orient_session)
            if (orient_model_input or orient_session is not None) else None)

    # image spans per call over a whole block (see bounded_runs): the
    # crops of at most as many pages as a former 64-row batch held
    WORK_PER_CALL = 64

    @staticmethod
    def is_work(batch: pa.Table) -> pa.ChunkedArray:
        return pc.equal(batch["kind"], "image")

    def __call__(self, batch: pa.Table) -> pa.Table:
        is_img = self.is_work(batch)
        passthrough = _with_null_crop_cols(batch.filter(pc.invert(is_img)))
        img_rows = batch.filter(is_img)
        if len(img_rows) == 0:
            return passthrough

        doc_ids = img_rows["doc_id"].to_pylist()
        offsets = img_rows["offset"].to_pylist()
        refs = img_rows["media_ref"].to_pylist()
        parts = img_rows["part"].to_pylist()

        out = {k: [] for k in ("doc_id", "offset", "det_idx", "kind", "text",
                               "media_ref", "part", "crop", "crop_h", "crop_w", "wh_ratio",
                               "bx0", "by0", "bx1", "by1")}
        # decode + orient a bounded CHUNK of pages, run one batched detect
        # pass over it (single connected-component sweep), emit its crops,
        # then drop the decoded pages — peak heap per task is one chunk of
        # uncompressed pixels, never the whole batch.
        from ..stubs import detect_boxes_batch

        CHUNK_PX = self.chunk_px  # decoded-page buffer bound

        def chunks():
            metas, imgs, px = [], [], 0
            for doc_id, offset, ref, part in zip(doc_ids, offsets, refs, parts):
                payload = self.store.get(ref)
                if payload is None:
                    # A lost media object must not kill a 10^12-doc run: the
                    # span contributes no lines (same as an empty page);
                    # counted per stage instance.
                    self.missing_media += 1
                    continue
                try:
                    img = decode_png(payload)[:, :, 0]  # grayscale channel
                except DECODE_ERRORS:
                    # A corrupt blob (truncated upload, bit rot) is as
                    # inevitable as a lost one at 10^12 docs — skip like
                    # missing media, never abort the run.
                    self.missing_media += 1
                    continue
                cls = (self.orienter(img) if self.orienter is not None
                       else classify_orientation(img))
                img = correct_orientation(img, cls)
                if self.rectifier is not None:
                    img = self.rectifier.forward(img)
                    # UVDoc rectification can't be inverted precisely:
                    # results stay in RECTIFIED space, the rotation metadata
                    # is voided (preprocess.rs:81-87) — so boxes are never
                    # mapped back to the stored frame for rectified pages.
                    cls = 0
                metas.append((doc_id, offset, ref, part, cls))
                imgs.append(img)
                px += img.shape[0] * img.shape[1]
                if px >= CHUNK_PX:
                    yield metas, imgs
                    metas, imgs, px = [], [], 0
            if metas:
                yield metas, imgs

        for metas, imgs in chunks():
            self._detect_chunk(metas, imgs, detect_boxes_batch, out)

        crops_tbl = self._crops_table(out)
        crops_tbl = crops_tbl.select(passthrough.column_names).cast(passthrough.schema)
        return pa.concat_tables([passthrough, crops_tbl])

    def _det_input(self, img: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
        """Model-boundary detect preprocessing (DetResizeForTest policy,
        resize_detection.rs:244-308): pages over det_max_side are downscaled
        for DETECTION ONLY (boxes map back by ratio, crops slice the
        original — the reference's dt_boxes/ratio dataflow); pages under
        32 px are white-padded (resize_detection.rs:183-215). Both are no-ops
        for in-range pages, so the policy costs one shape check per image."""
        from ..preprocess import det_resize, pad_to_min_size

        h, w = img.shape[:2]
        if max(h, w) > self.det_max_side:
            return det_resize(img, limit_side_len=self.det_max_side,
                              limit_type="max", max_side_limit=self.det_max_side)
        if min(h, w) < 32:
            # padding is white background: boxes stay valid in the original
            # frame (clipped to original dims below)
            return pad_to_min_size(img, 32), (1.0, 1.0)
        return img, (1.0, 1.0)

    def _detect_chunk(self, metas, imgs, detect_boxes_batch, out) -> None:
        det_pairs = [self._det_input(im) for im in imgs]
        if self.det_detector is not None:
            # detection model boundary: the shared DbDetector (preprocess
            # chain -> session heatmap -> real DB postprocess) per page
            box_lists = [self.det_detector(p[0]) for p in det_pairs]
        else:
            box_lists = detect_boxes_batch([p[0] for p in det_pairs])
        for boxes, (_, (ry, rx)), img in zip(box_lists, det_pairs, imgs):
            if len(boxes) and (ry, rx) != (1.0, 1.0):
                # back to the original frame: floor/ceil so the mapped box
                # covers at least the detected extent, clipped to the page
                b = boxes.astype(np.float64)
                b[:, [0, 1]] = np.floor(b[:, [0, 1]] / [rx, ry])
                b[:, [2, 3]] = np.ceil(b[:, [2, 3]] / [rx, ry])
                boxes[:, 0] = np.clip(b[:, 0], 0, img.shape[1])
                boxes[:, 1] = np.clip(b[:, 1], 0, img.shape[0])
                boxes[:, 2] = np.clip(b[:, 2], 0, img.shape[1])
                boxes[:, 3] = np.clip(b[:, 3], 0, img.shape[0])

        for (doc_id, offset, ref, part, cls), img, boxes in zip(metas, imgs, box_lists):
            if len(boxes) == 0:
                continue
            order = sort_quad_boxes_indices(boxes.astype(np.float64))
            if self.report_original_frame and cls:
                from ..stubs import rotate_boxes_back

                report_boxes = rotate_boxes_back(
                    boxes.astype(np.float64), cls, img.shape[1], img.shape[0]
                )
            else:
                report_boxes = boxes.astype(np.float64)
            for det_idx, j in enumerate(order):
                # detector AABBs are integer axis-aligned rects: a plain
                # slice IS get_rotate_crop_image's fast path (same result,
                # none of the per-crop quad/warp setup). Vertical-text
                # auto-rotate (h >= 1.5w -> 90deg CCW) kept identical.
                x0, y0, x1, y1 = (int(v) for v in boxes[j])
                crop = img[y0:y1, x0:x1]
                if crop.shape[0] >= 1.5 * crop.shape[1]:
                    crop = np.ascontiguousarray(np.rot90(crop, k=1))
                h, w = crop.shape[:2]
                out["doc_id"].append(doc_id)
                out["offset"].append(offset)
                out["det_idx"].append(det_idx)
                out["kind"].append("image")
                out["text"].append("")
                out["media_ref"].append(ref)
                out["part"].append(part)
                out["crop"].append(crop.tobytes())
                out["crop_h"].append(h)
                out["crop_w"].append(w)
                out["wh_ratio"].append(w / max(h, 1))
                out["bx0"].append(float(report_boxes[j][0]))
                out["by0"].append(float(report_boxes[j][1]))
                out["bx1"].append(float(report_boxes[j][2]))
                out["by1"].append(float(report_boxes[j][3]))

    @staticmethod
    def _crops_table(out: dict) -> pa.Table:
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], pa.string()),
                "offset": pa.array(out["offset"], pa.int32()),
                "det_idx": pa.array(out["det_idx"], pa.int32()),
                "kind": pa.array(out["kind"], pa.string()),
                "text": pa.array(out["text"], pa.string()),
                "media_ref": pa.array(out["media_ref"], pa.string()),
                "part": pa.array(out["part"], pa.int32()),
                "crop": pa.array(out["crop"], pa.binary()),
                "crop_h": pa.array(out["crop_h"], pa.int32()),
                "crop_w": pa.array(out["crop_w"], pa.int32()),
                "wh_ratio": pa.array(out["wh_ratio"], pa.float32()),
                "bx0": pa.array(out["bx0"], pa.float32()),
                "by0": pa.array(out["by0"], pa.float32()),
                "bx1": pa.array(out["bx1"], pa.float32()),
                "by1": pa.array(out["by1"], pa.float32()),
            }
        )


class LineReader:
    """Batched recognition reads for pipelines OUTSIDE the flagship
    Recognize stage — the structure path's line reads, fallback OCR,
    cell-split and seal re-recognition. The reference runs ONE rec stack
    in both pipelines and feeds it wh-sorted region_batch_size batches
    (structure.rs:2140-2216), so `read_many` chains the SAME flagship
    policies per crop — white-margin trim, ImageRotationProcessor skew
    gate (Recognize._maybe_unrotate) — then, with model_input=True, hands
    the wh-SORTED crops to the flagship's own recognition core,
    Recognize.read_sorted, in SUB-BATCHES of REGION_BATCH_SIZE. A real
    ONNX CRNN wrapper drops in via rec_session exactly as in Recognize,
    and does one forward per sub-batch — never per crop."""

    REGION_BATCH_SIZE = 8  # the reference's structure default (constants.rs)

    def __init__(self, model_input: bool = False, rec_session=None):
        self._rec = Recognize(model_input=model_input, rec_session=rec_session)
        self.model_input = model_input

    def read(self, crop: np.ndarray) -> str:
        return self.read_many([crop])[0]

    def read_many(self, crops: list) -> list[str]:
        """Recognize a group of crops; returns texts aligned to the input
        order ('' for empty/unreadable crops). One group = one reference
        recognition loop (a page's main det pass, its seal quads, its
        fallback blocks, its cell-split segments)."""
        texts = [""] * len(crops)
        arrs: dict[int, np.ndarray] = {}
        for i, crop in enumerate(crops):
            if crop is None or crop.size == 0:
                continue
            if crop.ndim == 3:  # RGB callers (CLI/server): channels identical
                crop = crop[:, :, 0]
            # trim the det-margin BEFORE the skew gate (see Recognize)
            arr, _ty, _tx = Recognize._trim_white(np.ascontiguousarray(crop))
            arrs[i] = Recognize._maybe_unrotate(arr)
        if not arrs:
            return texts
        if not self.model_input:
            for i, a in arrs.items():
                texts[i] = read_line_text(a)
            return texts
        # the flagship recognition core at the structure path's batch
        # granularity, wh-sorted by the post-trim ratio, tensor width
        # floored at 1.0
        ratios = {i: Recognize.wh_ratio(a) for i, a in arrs.items()}
        order = sorted(arrs, key=lambda i: (ratios[i], i))
        reads = self._rec.read_sorted(arrs, order, ratios,
                                      self.REGION_BATCH_SIZE, min_width=1.0)
        for i, (decoded, _logits, _width) in reads.items():
            texts[i] = decoded[0]
        return texts


class Recognize:
    """Stage: crop rows -> recognized text rows (others pass through).

    Holds the charset/decoder state (the reference loads the char dict once
    per session, ocr.rs:214-223); processes each batch wh-ratio-sorted and
    scatters results back by original batch position. Crops that read
    empty are dropped (the reference's empty-prediction filter).

    emit_word_boxes=True additionally computes per-character boxes from the
    REAL CTC column indices (ocr.rs:862-933 ctc_word_boxes): batch
    max_wh_ratio scales the effective column count exactly like the
    reference's padded recognition tensors (crnn.rs:70-77), and boxes are
    emitted in detection-box coordinates as a `word_boxes` list column.

    model_input=True routes every crop through the REAL model-boundary
    preprocess chain (crnn.rs:61-118): ocr_resize_and_pad to the batch
    max_wh_ratio tensor width -> normalize_image -> to_batch, then feeds
    the (B, 3, 48, W) float32 tensor (height from the reference's rec
    image shape, preprocess.DEFAULT_REC_SHAPE) to `rec_session`
    (constructor arg; a production build passes an onnxruntime wrapper,
    default is the tensor-decoding StubCtcSession). Items the session
    reads as empty are retried once with the crop rotated 180° — the fused
    text-line orientation policy of the pixel path, expressed as a second
    session call on the flipped sub-batch.
    """

    def __init__(self, emit_word_boxes: bool = False,
                 model_input: bool = False, rec_session=None,
                 rec_session_batch: int = 32):
        self.emit_word_boxes = emit_word_boxes
        self.model_input = model_input
        # session sub-batch size (the reference's region_batch_size; docs
        # recommend 32 medium / 16 low VRAM — constants.rs + ocr.rs:740).
        # Every tensor in a sub-batch is padded to the sub-batch max
        # wh_ratio, so small ratio-homogeneous sub-batches over the
        # wh-SORTED crops bound the padding waste: one giant batch pads
        # every crop to the global max width (measured 5x the tensor-path
        # wall at batch_size=512).
        self.rec_session_batch = rec_session_batch
        if model_input and rec_session is None:
            from ..stubs import StubCtcSession

            rec_session = StubCtcSession()  # once per instance, like a session
        self.rec_session = rec_session

    # crops per call over a whole block (see bounded_runs): a call holds
    # every crop's decoded pixels and CTC logits until it returns, so at
    # most as many as a former 512-row batch held
    WORK_PER_CALL = 512

    @staticmethod
    def is_work(batch: pa.Table) -> pa.ChunkedArray:
        return pc.is_valid(batch["crop"])

    @staticmethod
    def _maybe_unrotate(arr: np.ndarray) -> np.ndarray:
        """ImageRotationProcessor (reference processors.rs:130-182): when
        the estimated text-line angle exceeds the reference's 0.1° gate,
        unrotate the crop about its center with bilinear interpolation and
        white fill before recognition. Runs ahead of BOTH the pixel read
        and the model-input preprocess chain (the reference chains
        TextCropping -> ImageRotation -> recognition)."""
        from ..rectify import rotate_about_center
        from ..stubs import estimate_skew_angle

        # fast gate: a straight-line crop is an exact dark rect (every
        # in-contract pixel < 128), while any rotated crop carries white
        # corner fill — one vectorized max() skips the moments estimate
        # for the ~99% straight majority (measured: the ungated estimator
        # was 48% of the whole fused-chain UDF time)
        if int(arr.max()) < 128:
            return arr
        ang = estimate_skew_angle(arr)
        if abs(ang) > 0.1:
            return rotate_about_center(arr, ang, fill=255)
        return arr

    @staticmethod
    def _trim_white(arr: np.ndarray) -> tuple[np.ndarray, int, int]:
        """Trim the pure-white unclip margin a det-model-boundary box
        carries (<= ~2 px per side) down to the dark-content bounding box.
        Runs BEFORE the skew gate (so margin-free content keeps the
        max() < 128 fast path) and before the rec resize (a real CRNN is
        margin-robust, but the stand-in tensor decode is exact only when
        bilinear blends of margin and content never form — in-contract
        content is < 128, so the dark bbox is exactly the text rect).
        Returns (trimmed, y_offset, x_offset); a no-op zero-copy
        (arr, 0, 0) for margin-free crops (the default det path) and for
        skew crops (whose dark bbox spans the whole crop)."""
        dark = arr < 128
        rows = dark.any(axis=1)
        cols = dark.any(axis=0)
        if not rows.any():
            return arr, 0, 0
        y0, y1 = int(rows.argmax()), len(rows) - int(rows[::-1].argmax())
        x0, x1 = int(cols.argmax()), len(cols) - int(cols[::-1].argmax())
        if (y0, x0) == (0, 0) and (y1, x1) == arr.shape[:2]:
            return arr, 0, 0  # margin-free: zero-copy no-op
        return np.ascontiguousarray(arr[y0:y1, x0:x1]), y0, x0

    @staticmethod
    def wh_ratio(arr: np.ndarray) -> float:
        """A crop's width / height, rounded like the stored float32
        wh_ratio column (so margin-free crops match it bit for bit)."""
        return float(np.float32(arr.shape[1] / max(arr.shape[0], 1)))

    def _session_logits(self, arrs: list[np.ndarray], max_wh: float) -> list[np.ndarray]:
        """Preprocess chain + one session call over a list of crops;
        returns per-item (T_i, C) logits (uniform (B, T, C) ndarrays from
        real sessions are split into rows)."""
        from ..preprocess import ocr_resize_and_pad

        logits = self.rec_session(session_tensor([
            ocr_resize_and_pad(a, max_wh_ratio=max_wh)[0]
            for a in arrs]))
        if isinstance(logits, np.ndarray):
            logits = [logits[i] for i in range(logits.shape[0])]
        return logits

    def read_sorted(self, arrs: dict, order: list, ratios: dict,
                    batch: int, min_width: float = 0.0) -> dict:
        """The recognition loop of both pipelines (the reference's
        region_batch_size loop, ocr.rs:733-740 and structure.rs:2140-2216):
        the crops arrs[i], in the caller's wh-sorted `order`, run through
        the session in sub-batches of `batch`. Each sub-batch's tensor
        width is ITS max ratio, at least `min_width` (crnn.rs:70-77 is per
        recognition batch), so padding stays proportional. Empty decodes
        retry once flipped 180° (the 0/180 policy as a second session
        call) at their FIRST-PASS tensor width, so geometry (and word
        boxes) stay consistent with the sub-batch that first sized them,
        GROUPED by that width so the flipped minority costs one session
        call per retry sub-batch, not one per crop.

        Returns {i: (greedy CTC decode, logits, tensor width)}."""
        reads = {}
        for c0 in range(0, len(order), batch):
            chunk = order[c0:c0 + batch]
            width = max(min_width, max(ratios[i] for i in chunk))
            for i, lg in zip(chunk, self._session_logits([arrs[i] for i in chunk], width)):
                reads[i] = (ctc_greedy_decode(lg), lg, width)
        retry: dict[float, list] = {}
        for i in order:
            if not reads[i][0][0]:
                retry.setdefault(reads[i][2], []).append(i)
        for width, grp in retry.items():
            for c0 in range(0, len(grp), batch):
                chunk = grp[c0:c0 + batch]
                flipped = [np.ascontiguousarray(np.rot90(arrs[i], 2)) for i in chunk]
                for i, lg in zip(chunk, self._session_logits(flipped, width)):
                    decoded = ctc_greedy_decode(lg)
                    if decoded[0]:
                        reads[i] = (decoded, lg, width)
        return reads

    def __call__(self, batch: pa.Table) -> pa.Table:
        has_crop = self.is_work(batch)
        passthrough = batch.filter(pc.invert(has_crop)).drop_columns(
            [n for n, _ in CROP_FIELDS]
        )
        crops = batch.filter(has_crop)
        if len(crops) == 0:
            if self.emit_word_boxes:
                # keep block schemas identical across batches (a text-only
                # batch must still carry the word_boxes column)
                passthrough = passthrough.append_column(
                    "word_boxes",
                    pa.nulls(len(passthrough), type=pa.list_(pa.list_(pa.float32()))),
                )
            return passthrough

        wh = crops["wh_ratio"].to_numpy(zero_copy_only=False)
        order = np.argsort(wh, kind="stable")  # ocr.rs:733-737
        blobs = crops["crop"].to_pylist()
        hs = crops["crop_h"].to_pylist()
        ws = crops["crop_w"].to_pylist()

        texts = [""] * len(blobs)
        word_boxes: list[list[list[float]]] = [[] for _ in blobs]
        if self.emit_word_boxes:
            bx0 = crops["bx0"].to_numpy(zero_copy_only=False)
            by0 = crops["by0"].to_numpy(zero_copy_only=False)
        order_list = [int(j) for j in order]
        arrs: dict[int, np.ndarray] = {}
        trims: dict[int, tuple[int, int]] = {}
        for j in order_list:
            raw = np.frombuffer(blobs[j], dtype=np.uint8).reshape(hs[j], ws[j])
            # det-margin trim BEFORE the skew gate: a white unclip margin
            # would otherwise defeat _maybe_unrotate's max()<128 fast path
            # and run the moments estimator on every det-boundary crop
            t, ty, tx = self._trim_white(raw)
            arrs[j] = self._maybe_unrotate(t)
            trims[j] = (ty, tx)
        # effective (post-trim) geometry drives the tensor width and the
        # word-box math
        ratios = {j: self.wh_ratio(arrs[j]) for j in order_list}
        if self.model_input:
            reads = self.read_sorted(arrs, order_list, ratios,
                                     max(1, self.rec_session_batch))
        else:
            max_wh = max(ratios.values())  # crnn.rs:70-77
            reads = {}
            for j in order_list:
                # text-line orientation fused with the read (see
                # stubs.read_line_text), re-encoded as logits so both
                # paths share the decode and the word-box math below
                logits = encode_ctc_logits(read_line_text(arrs[j]))
                reads[j] = (ctc_greedy_decode(logits), logits, max_wh)
        for j in order_list:  # batch processed in wh-ratio order
            (text, _conf, cols), logits, width = reads[j]
            texts[j] = text  # scatter back by original index (ocr.rs:797)
            if self.emit_word_boxes and text:
                from ..ctc import ctc_word_boxes

                # word boxes anchor on the TRIMMED content box (det-margin
                # offsets applied) with the post-trim ratio — the same
                # geometry the session tensor was built from; margin-free
                # crops reduce to the stored box/ratio bit-identically
                ty, tx = trims[j]
                ch, cw = arrs[j].shape[:2]
                wb = ctc_word_boxes(
                    (bx0[j] + tx, by0[j] + ty,
                     bx0[j] + tx + cw, by0[j] + ty + ch), text, cols,
                    seq_len=len(logits), wh_ratio=ratios[j],
                    # tensor path: the SUB-BATCH width that sized this
                    # crop's tensor; pixel path: the batch max
                    max_wh_ratio=width,
                )
                word_boxes[j] = [list(map(float, b)) for b in wb]

        rec = crops.drop_columns([n for n, _ in CROP_FIELDS])
        rec = rec.set_column(
            rec.schema.get_field_index("text"), "text", pa.array(texts, pa.string())
        )
        if self.emit_word_boxes:
            passthrough = passthrough.append_column(
                "word_boxes",
                pa.nulls(len(passthrough), type=pa.list_(pa.list_(pa.float32()))),
            )
            rec = rec.append_column(
                "word_boxes", pa.array(word_boxes, type=pa.list_(pa.list_(pa.float32())))
            )
        rec = rec.filter(pc.invert(pc.equal(rec["text"], "")))
        rec = rec.select(passthrough.column_names).cast(passthrough.schema)
        return pa.concat_tables([passthrough, rec])
