"""Structure-extraction stage: the PP-StructureV3 per-page flow as one
map_batches stage over page-ref rows, run as tasks through `cached_stage`.

Per page (mirrors /root/reference/src/oarocr/structure.rs:2271-2468
predict_image, with deterministic stand-ins for the neural cores):

  decode PNG -> orientation classify + inverse rotate (preprocess.rs policy)
  -> layout block detection (stand-in for PicoDet/RT-DETR)
  -> full-page text detection (DB stand-in) + cross-layout box splitting
     (structure.rs:2017-2108) against container-labeled blocks
  -> per-box recognition (SVTR stand-in, empty results dropped)
  -> stitch_page_enhanced: overlap dedup, OCR<->block match, smart join,
     orphan text promotion, ENHANCED reading order (layout_sorting.rs)
  -> markdown + HTML export.

Stateful pieces (the media store handle; in production the ONNX sessions)
live in __init__ — once per worker process (`cached_stage`), not per
batch. Pixels never leave the stage: only (media_ref, n_elements, labels,
markdown, html) rows flow on.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..png_codec import DECODE_ERRORS, decode_png
from ..geometry import get_rotate_crop_image
from ..structure import (
    CONTAINER_LABELS,
    detect_seal_text,
    fallback_ocr_blocks,
    page_to_html,
    page_to_markdown,
    split_boxes_by_containers,
    split_ocr_by_table_cells,
    stitch_page_enhanced,
)
from ..stubs import (
    classify_orientation,
    classify_table,
    detect_region_blocks,
    correct_orientation,
    detect_boxes,
    detect_layout_blocks,
    detect_table_cells,
)
from .media import (
    CellDetector,
    DbDetector,
    FormulaRecognizer,
    LayoutDetector,
    LineReader,
    MediaStore,
    OrientationClassifier,
    Recognize,
    RegionDetector,
    TableClassifier,
)


class StructureExtract:
    """Actor: page-ref rows -> per-page structure rows.

    rec_model_input mirrors the flagship's Recognize seam: every line read
    in the structure flow goes through the shared LineReader (skew gate +
    optional preprocess-chain -> rec_session -> CTC tensor path), so a
    real CRNN wrapper drops into BOTH pipelines via the same constructor
    surface (reference structure.rs:2140-2216 runs one rec stack)."""

    def __init__(self, media_dir: str, rec_model_input: bool = False,
                 rec_session=None, det_model_input: bool = False,
                 det_session=None, layout_model_input: bool = False,
                 layout_session=None, aux_model_input: bool = False,
                 orient_session=None, table_cls_session=None,
                 cell_session=None, region_session=None,
                 formula_model_input: bool = False, formula_session=None,
                 seal_session=None):
        self.store = MediaStore(media_dir)
        self.missing_media = 0
        self.reader = LineReader(model_input=rec_model_input,
                                 rec_session=rec_session)
        # the same DbDetector seam as the flagship (one det stack across
        # both pipelines) and the layout model boundary
        self.line_detector = (
            DbDetector(session=det_session)
            if (det_model_input or det_session is not None) else None)
        # seal-text detection is its OWN DB model with the seal preset
        # (reference ocr.rs:264-301: limit 736/min, thresh 0.2 /
        # box_thresh 0.6, unclip_ratio 0.5) — wired whenever the det seam
        # is on so the seal path runs the same session-shaped boundary
        self.seal_detector = (
            DbDetector(session=seal_session, thresh=0.2, box_thresh=0.6,
                       unclip_ratio=0.5)
            if (det_model_input or det_session is not None
                or seal_session is not None) else None)
        self.layout_detector = (
            LayoutDetector(session=layout_session)
            if (layout_model_input or layout_session is not None) else None)
        # the remaining neural cores behind session boundaries: document
        # orientation, wired/wireless table classification, table cells,
        # region blocks (aux_model_input turns all four on with stubs)
        self.orienter = (
            OrientationClassifier(session=orient_session)
            if (aux_model_input or orient_session is not None) else None)
        self.table_classifier = (
            TableClassifier(session=table_cls_session)
            if (aux_model_input or table_cls_session is not None) else None)
        self.cell_detector = (
            CellDetector(session=cell_session)
            if (aux_model_input or cell_session is not None) else None)
        self.region_detector = (
            RegionDetector(session=region_session)
            if (aux_model_input or region_session is not None) else None)
        self.formula_recognizer = (
            FormulaRecognizer(session=formula_session)
            if (formula_model_input or formula_session is not None) else None)

    def _one_page(self, ref: str):
        payload = self.store.get(ref)
        if payload is None:
            self.missing_media += 1
            return None
        try:
            img = decode_png(payload)[:, :, 0]
        except DECODE_ERRORS:
            # corrupt blob: skip like missing media, never abort the run
            self.missing_media += 1
            return None
        out = predict_structure_page(img, reader=self.reader,
                                     line_detector=self.line_detector,
                                     seal_detector=self.seal_detector,
                                     layout_detector=self.layout_detector,
                                     orienter=self.orienter,
                                     table_classifier=self.table_classifier,
                                     cell_detector=self.cell_detector,
                                     region_detector=self.region_detector,
                                     formula_recognizer=self.formula_recognizer)
        out["media_ref"] = ref
        return out


    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [r for r in (self._one_page(ref) for ref in batch["media_ref"].to_pylist())
                if r is not None]
        return pa.table(
            {
                "media_ref": pa.array([r["media_ref"] for r in rows], pa.string()),
                "n_elements": pa.array([r["n_elements"] for r in rows], pa.int32()),
                "labels": pa.array([r["labels"] for r in rows], pa.string()),
                "markdown": pa.array([r["markdown"] for r in rows], pa.string()),
                "html": pa.array([r["html"] for r in rows], pa.string()),
            }
        )



def content_boxes(img: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Det-seam line boxes shrunk to the dark content inside them, as
    float64 [x0, y0, x1, y1]. The DB unclip leaves a white margin of about
    a pixel around each line (no integer kernel depth inverts it exactly),
    and one pixel is enough to move a stand-alone line in the enhanced
    reading order (structure_seams seed 6, page://000038). The flagship
    anchors its word boxes on the same trimmed box (Recognize._trim_white);
    the pixel detector's boxes are content boxes already."""
    out = np.asarray(boxes, dtype=np.float64).reshape(-1, 4).copy()
    h, w = img.shape[:2]
    for b in out:
        x0, y0 = max(int(b[0]), 0), max(int(b[1]), 0)
        crop = img[y0:min(int(b[3]), h), x0:min(int(b[2]), w)]
        if crop.size:
            t, ty, tx = Recognize._trim_white(crop)
            b[:] = (x0 + tx, y0 + ty, x0 + tx + t.shape[1], y0 + ty + t.shape[0])
    return out


def predict_structure_page(img: np.ndarray,
                           return_elements: bool = False,
                           reader: LineReader | None = None,
                           line_detector=None,
                           seal_detector=None,
                           layout_detector=None,
                           orienter=None,
                           table_classifier=None,
                           cell_detector=None,
                           region_detector=None,
                           formula_recognizer=None) -> dict:
    """The full per-page PP-StructureV3 flow on a decoded grayscale page —
    the single-page OARStructure::predict_image surface
    (structure.rs:2271-2468), shared by the actor stage and the CLI.
    return_elements=True additionally includes the stitched element dicts
    (bbox/label/score/text/order_index) — the CLI/visualization payload;
    the actor stage keeps them off its Arrow rows."""
    if reader is None:
        reader = LineReader()  # pixel path with the flagship skew gate
    cls = orienter(img) if orienter is not None else classify_orientation(img)
    img = correct_orientation(img, cls)
    h, w = img.shape

    if layout_detector is not None:  # layout model boundary (tensor path)
        lb, labels, scores = layout_detector(img)
    else:
        lb, labels, scores = detect_layout_blocks(img)
    regions = (region_detector(img) if region_detector is not None
               else detect_region_blocks(img))
    if line_detector is not None:  # the shared flagship det seam
        line_boxes = content_boxes(img, line_detector(img))
    else:
        line_boxes = detect_boxes(img).astype(np.float64)

    # cross-layout re-recognition split (structure.rs:2017-2108):
    # containers = region blocks when detected, else layout blocks with
    # container labels (structure.rs:2022-2052)
    if len(regions):
        containers = regions
    else:
        containers = (
            lb[[i for i, l in enumerate(labels) if l in CONTAINER_LABELS]]
            if len(lb) else np.zeros((0, 4))
        )
    if len(containers) and len(line_boxes):
        line_boxes = split_boxes_by_containers(line_boxes, containers)

    # seal-text path (structure.rs:1794): Seal blocks get their own
    # detection pass with the seal preset; their general-path
    # detections are dropped and replaced by the per-block seal quads
    # (y_min-sorted via sort_poly_boxes), recognized through the
    # quad-warp crop below
    seal_blocks = (
        lb[[i for i, l in enumerate(labels) if l == "seal"]]
        if len(lb) else np.zeros((0, 4))
    )
    seal_quads = np.zeros((0, 4, 2))
    if len(seal_blocks):
        # det seam on: per-block crops run through the DbDetector seal
        # preset (its thresholds replace the stand-in's min_area knob;
        # like the page seam, the stand-in session consumes the crop at
        # native resolution — a real wrapper owns the 736/min det resize)
        seal_fn = ((lambda c, ma: seal_detector(c))
                   if seal_detector is not None
                   else (lambda c, ma: detect_boxes(c, min_area=ma)))
        seal_quads = detect_seal_text(img, seal_blocks, seal_fn)
        if len(line_boxes):
            cx = (line_boxes[:, 0] + line_boxes[:, 2]) / 2
            cy = (line_boxes[:, 1] + line_boxes[:, 3]) / 2
            inside = np.zeros(len(line_boxes), dtype=bool)
            for sb in seal_blocks:
                inside |= (cx >= sb[0]) & (cx < sb[2]) & (cy >= sb[1]) & (cy < sb[3])
            line_boxes = line_boxes[~inside]

    # the SHARED flagship read — skew gate + 0/180 retry (+ tensor path) —
    # batched per recognition group: the reference feeds its one rec stack
    # wh-sorted region_batch_size batches (structure.rs:2140-2216), so
    # each group below is one read_many call (sub-batched inside), never
    # a per-crop B=1 session forward
    line_crops = []
    for b in line_boxes:
        x0, y0, x1, y1 = (int(np.floor(b[0])), int(np.floor(b[1])),
                          int(np.ceil(b[2])), int(np.ceil(b[3])))
        line_crops.append(img[max(y0, 0):min(y1, h), max(x0, 0):min(x1, w)])
    texts, boxes = [], []
    for t, b in zip(reader.read_many(line_crops), line_boxes):
        if t:  # empty recognition dropped (structure.rs:2200 precedent)
            texts.append(t)
            boxes.append(b)
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)

    # seal quads recognized through the perspective quad crop (the
    # curved-text path; appended BEFORE fallback OCR so a recognized
    # seal counts as matched, structure.rs:1794 ordering)
    seal_texts = reader.read_many(
        [get_rotate_crop_image(img, q) for q in seal_quads])
    for q, t in zip(seal_quads, seal_texts):
        if t:
            boxes = np.concatenate([boxes, np.array(
                [[q[:, 0].min(), q[:, 1].min(), q[:, 0].max(), q[:, 1].max()]]
            )])
            texts.append(t)

    # layout-bbox fallback OCR (structure.rs:1337-1395): non-image
    # blocks with no matched text get a whole-block recognition attempt
    fb = list(fallback_ocr_blocks(lb, labels, boxes))
    fb_texts = reader.read_many(
        [img[max(int(lb[j, 1]), 0):int(lb[j, 3]),
             max(int(lb[j, 0]), 0):int(lb[j, 2])] for j in fb])
    for j, t in zip(fb, fb_texts):
        if t:
            boxes = np.concatenate([boxes, lb[j:j + 1]])
            texts.append(t)

    # table front half: classify wired/wireless, detect cells, analyze
    # (table_classification.rs + table_cell_detection_adapter.rs +
    # TableAnalyzer, with the deterministic stand-ins)
    from ..structure import compute_table_htmls

    classify = (table_classifier if table_classifier is not None
                else classify_table)
    cell_det = cell_detector if cell_detector is not None else detect_table_cells
    all_cells = []
    for j, label in enumerate(labels):
        if label == "table" and classify(img, lb[j]) == "wired":
            cells = cell_det(img, lb[j])
            if len(cells):
                all_cells.append(cells)
    cells = np.concatenate(all_cells) if all_cells else np.zeros((0, 4))

    # OCR split by table cells + re-recognition (structure.rs:1418-1639):
    # a line spanning >= 2 cells is replaced by its per-cell segments
    if len(cells) and len(boxes):
        nb, src, was_split = split_ocr_by_table_cells(boxes, cells)
        if was_split.any():
            # per-cell segment re-recognition, batched as one group
            split_texts = iter(reader.read_many(
                [img[max(int(np.floor(b[1])), 0):int(np.ceil(b[3])),
                     max(int(np.floor(b[0])), 0):int(np.ceil(b[2]))]
                 for b, ws in zip(nb, was_split) if ws]))
            new_boxes, new_texts = [], []
            for b, s, ws in zip(nb, src, was_split):
                if not ws:
                    new_boxes.append(b)
                    new_texts.append(texts[int(s)])
                    continue
                t = next(split_texts)
                if t:
                    new_boxes.append(b)
                    new_texts.append(t)
            boxes = np.asarray(new_boxes, dtype=np.float64).reshape(-1, 4)
            texts = new_texts

    table_html = compute_table_htmls(lb, labels, cells, boxes, texts)

    # formula model boundary: a SEPARATE formula-result stream recognized
    # per formula block (crop_margin -> tensor -> session), merged into the
    # stitched elements by best-IoU fill (stitching.rs:232-251)
    formulas = None
    if formula_recognizer is not None and len(lb):
        formulas = []
        for j, label in enumerate(labels):
            if label in ("formula", "formula_number"):
                latex = formula_recognizer(img, lb[j])
                if latex:
                    formulas.append({"bbox": lb[j].tolist(), "latex": latex})

    elements = stitch_page_enhanced(
        lb, labels, scores, boxes, texts, page_w=float(w), page_h=float(h),
        table_html=table_html, region_boxes=regions, formulas=formulas,
    )
    out = {
        "n_elements": len(elements),
        "labels": ";".join(e["label"] for e in elements),
        "markdown": page_to_markdown(elements),
        "html": page_to_html(elements),
    }
    if return_elements:
        out["elements"] = elements
    return out

