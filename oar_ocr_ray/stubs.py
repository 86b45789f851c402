"""Deterministic stand-ins for the neural stages (FIXTURES.md F3).

Mirrors the reference's mock-adapter testing pattern
(/root/reference/src/oarocr/preprocess.rs:157-262): same interfaces and
policies as the real models, deterministic outputs derived from the synthetic
image contract in oar_ocr_ray.fixtures. The surrounding pipeline code (crop,
sort, CTC decode, orientation correction) is the REAL implementation — only
the "neural" classification/detection/recognition cores are stand-ins.

In production these three functions are replaced by ONNX-Runtime sessions
(PP-LCNet orientation / DB detection / SVTR-CTC recognition) held in the same
actor classes; the stage graph does not change.
"""

from __future__ import annotations

import numpy as np

from .fixtures import TAG_BASE, TAG_STEP
from .geometry import connected_component_boxes


def classify_orientation(img: np.ndarray) -> int:
    """Orientation class from the tag pixel. Classes match the reference
    policy (/root/reference/src/oarocr/preprocess.rs:101-143):
    0=0°, 1=90°, 2=180°, 3=270°."""
    v = int(img[0, 0] if img.ndim == 2 else img[0, 0, 0])
    cls = (v - TAG_BASE) // TAG_STEP
    return cls if 0 <= cls <= 3 else 0


def correct_orientation(img: np.ndarray, class_id: int) -> np.ndarray:
    """Inverse-rotate to upright (preprocess.rs:129-134: 90°->rotate270,
    180°->rotate180, 270°->rotate90). np.rot90 k=+1 is CCW, so the
    correction is rot90(img, k=class_id)."""
    if class_id % 4 == 0:
        return img
    return np.ascontiguousarray(np.rot90(img, k=class_id % 4))


def detect_boxes(img: np.ndarray, min_area: int = 9, max_candidates: int = 1000) -> np.ndarray:
    """'DB detection' stand-in: binarize (dark < 128) + connected-component
    boxes — the deterministic analogue of heatmap binarization + contour
    extraction (/root/reference/src/processors/db_postprocess.rs). The 1-px
    orientation tag is removed by the min_area filter. Returns (N,4) int
    AABBs in arbitrary order (the pipeline applies sort_quad_boxes)."""
    gray = img if img.ndim == 2 else img[:, :, 0]
    return connected_component_boxes(gray < 128, min_area=min_area, max_candidates=max_candidates)


def detect_boxes_batch(
    imgs: list, min_area: int = 9, max_candidates: int = 1000
) -> list:
    """Batched detect_boxes: ONE connected-component pass over all images
    of a map_batches batch (stacked into a tall mask with a blank separator
    row, padded to the widest image), then boxes split back per image by
    row band. Amortizes the fixed numpy cost of run extraction / label
    propagation across the batch — per-image CC on ~60-row pages is
    dominated by that fixed cost. Identical results to per-image
    detect_boxes (components cannot cross the blank separators)."""
    if not imgs:
        return []
    grays = [im if im.ndim == 2 else im[:, :, 0] for im in imgs]
    out = []
    # slab the stack so each CC pass stays cache-resident (~4 Mpx): the
    # whole-batch mask at page sizes is 100s of MB and every pixel op
    # becomes memory-bandwidth-bound, erasing the amortization win.
    slab_px_budget = 4_000_000
    i0 = 0
    while i0 < len(grays):
        # budget the REAL allocation total_h x running-max_w, not the sum
        # of per-image areas — one wide page among narrow ones would
        # otherwise blow the mask far past the cache budget
        i1, total_rows = i0, 0
        max_w = 1
        while i1 < len(grays):
            g = grays[i1]
            new_rows = total_rows + g.shape[0] + 1
            new_w = max(max_w, g.shape[1])
            if i1 > i0 and new_rows * new_w > slab_px_budget:
                break
            total_rows, max_w = new_rows, new_w
            i1 += 1
        slab = grays[i0:i1]
        total_h = sum(g.shape[0] + 1 for g in slab)
        mask = np.zeros((total_h, max_w), dtype=bool)
        offs = []
        y = 0
        for g in slab:
            mask[y:y + g.shape[0], : g.shape[1]] = g < 128
            offs.append(y)
            y += g.shape[0] + 1
        boxes = connected_component_boxes(mask, min_area=min_area, max_candidates=2**62)
        order = np.argsort(boxes[:, 1], kind="stable")
        boxes = boxes[order]
        bands = np.searchsorted(boxes[:, 1], np.array(offs + [total_h]))
        for k, g in enumerate(slab):
            sel = boxes[bands[k]:bands[k + 1]].copy()
            sel[:, 1] -= offs[k]
            sel[:, 3] -= offs[k]
            if len(sel) > max_candidates:
                # rare: re-run the single image so the largest-area cap
                # order is bit-identical to detect_boxes
                sel = detect_boxes(g, min_area=min_area, max_candidates=max_candidates)
            out.append(sel)
        i0 = i1
    return out


def read_crop_text(crop: np.ndarray) -> str:
    """'Recognition core' stand-in: decode the cell-encoded line text from
    an upright crop (fixtures contract: vertically-constant CELL_W-wide
    cells [len][ord(char)...]). Returns "" on any contract violation
    (treated like a low-score empty prediction and filtered, reference
    structure.rs:2200).

    Scale-aware: the same decoder reads (a) scale-1 content — raw
    detection crops, visualization patches (possibly inset a pixel by the
    outline, possibly with arbitrary trailing FILL inside a wider box) —
    and (b) a row of the recognition model-input tensor, resized and
    right-padded by ocr_resize_and_pad, upscaled by >= 2.5 (target_h 48
    over line heights <= 14 gives >= 3.4; right zero-padding is exactly
    0 while every in-contract pixel is >= 1, so the content width is
    measurable). The two cases are
    disambiguated by the len cell's leading run: at scale s the run of
    exactly-n columns spans ~2.5s..3s+1 px (cells are CELL_W=3 wide and
    n <= 31 < 32 <= ord(char), so the run can't bleed into a char cell).
    Each cell is then sampled at its mapped center, whose bilinear
    neighbours stay inside the constant cell for any upscale — exact."""
    from .fixtures import CELL_W, patch_width

    gray = crop if crop.ndim == 2 else crop[:, :, 0]
    h, w = gray.shape[:2]
    if h < 2 or w < 2:
        return ""
    row = gray[h // 2]
    if (row == 127).any():  # SKEW_ANCHOR: anchor-framed skewed-line protocol
        return _read_skew_row(row)
    # det-model-boundary boxes carry a <=2 px unclip margin (pure 255
    # white); in-contract content pixels are 1..127 and model-input right
    # padding is exactly 0 — so the content span is the 1..127 band. At
    # scale 1 this strip is exact (no resize blends); the model-input path
    # trims margins BEFORE resize (Recognize._trim_white), so blends never
    # reach this decoder.
    inner = np.nonzero((row >= 1) & (row < 128))[0]
    if len(inner) == 0:
        return ""
    row = row[int(inner[0]): int(inner[-1]) + 1]
    cw_out = len(row)
    n = int(row[0])
    if not (1 <= n <= 31):
        return ""
    bw_src = patch_width(n)
    run = int(np.argmin(row[:cw_out] == n)) or cw_out  # leading ==n run
    if run >= 6 and cw_out >= bw_src:
        s = cw_out / bw_src  # resized (upscaled >= 2.5) model input
    elif cw_out >= CELL_W * (n + 1) + 1:
        s = 1.0  # unresized crop; trailing margin cut or padded freely
    else:
        return ""
    centers = CELL_W * np.arange(1, n + 1) + (CELL_W - 1) / 2.0
    xs = np.rint((centers + 0.5) * s - 0.5).astype(np.int64)
    xs = np.clip(xs, 0, cw_out - 1)
    vals = row[xs]
    if ((vals < 32) | (vals > 126)).any():
        return ""
    return bytes(vals.tolist()).decode("ascii")


def _read_skew_row(row: np.ndarray) -> str:
    """Decode the anchor-framed skewed-line protocol from one scanline
    (fixtures.skew_text_patch): the two measured SKEW_ANCHOR run centers
    give position and scale exactly; cells sample at mapped centers. Works
    at any upscale (model-input resize) and after the ImageRotation
    unrotate, because the patch columns are vertically constant and 5-px
    cells keep the <=2-px bilinear support inside the cell."""
    from .fixtures import SKEW_ANCHOR_W, SKEW_CELL_W

    anchors = np.nonzero(row == 127)[0]
    if len(anchors) < 2:
        return ""
    gaps = np.nonzero(np.diff(anchors) > 1)[0]
    if len(gaps) == 0:
        return ""
    run1 = anchors[: gaps[0] + 1]
    run2 = anchors[gaps[-1] + 1:]
    c1 = (run1[0] + run1[-1]) / 2.0
    c2 = (run2[0] + run2[-1]) / 2.0
    if c2 <= c1 + SKEW_ANCHOR_W:
        return ""
    half = (SKEW_CELL_W - 1) / 2.0
    a_c = (SKEW_ANCHOR_W - 1) / 2.0
    len_off = SKEW_ANCHOR_W + half - a_c  # len-cell center offset from c1
    for n in range(1, 32):
        d_src = SKEW_ANCHOR_W + SKEW_CELL_W * (n + 1)  # anchor-center gap
        s = (c2 - c1) / d_src
        p = int(round(c1 + len_off * s))
        if not (0 <= p < len(row)) or row[p] != n:
            continue
        xs = np.rint(
            c1 + (len_off + SKEW_CELL_W * np.arange(1, n + 1)) * s
        ).astype(np.int64)
        if xs[-1] >= len(row):
            continue
        vals = row[xs]
        if ((vals >= 32) & (vals <= 126)).all():
            return bytes(vals.tolist()).decode("ascii")
    return ""


def estimate_skew_angle(crop: np.ndarray) -> float:
    """Stand-in for the text-line angle the reference feeds
    ImageRotationProcessor (processors.rs:130-182; a real build reads it
    from the detector's min-area rects): principal-axis angle of the dark
    (<128) mask via second central moments, in degrees, (-45, 45]. Exactly
    0.0 for an axis-aligned solid rect (symmetric moments), so unskewed
    crops never cross the reference's |angle| > 0.1 rotation gate."""
    gray = crop if crop.ndim == 2 else crop[:, :, 0]
    ys, xs = np.nonzero(gray < 128)
    if len(xs) < 8:
        return 0.0
    x = xs - xs.mean()
    y = ys - ys.mean()
    mu11 = float((x * y).mean())
    mu20 = float((x * x).mean())
    mu02 = float((y * y).mean())
    if mu20 <= mu02:  # not a wide line: don't guess
        return 0.0
    return float(np.degrees(0.5 * np.arctan2(2.0 * mu11, mu20 - mu02)))


class StubWarpRectifier:
    """Deterministic stand-in for the UVDoc rectification session, tied to
    the fixture curl contract (fixtures.curl_page: every k-th pixel column
    duplicated, k carried by the [0,1] tag pixel as RECTIFY_TAG_BASE + k).

    Runs the REAL UVDocRectifier forward (rectify.py: predict_grid ->
    grid_sample_bilinear remap -> scale/clamp): only `predict_grid` is the
    stand-in — it emits the exact inverse gather grid x -> x + x//k, the
    role a real UVDoc session's warp field plays (uvdoc.rs:37-203). Two
    deliberate stand-in deviations, both contract-driven: the model input
    shape is the page itself (a real UVDoc resizes to a fixed input and
    back, which would blur the deterministic pixel-text cells), and
    unwarped pages (no tag) pass through on the identity grid."""

    def __init__(self):
        from .rectify import UVDocRectifier

        self._inner = UVDocRectifier(input_hw=(0, 0))
        self._inner.predict_grid = self._predict_grid

    def _predict_grid(self, img: np.ndarray) -> np.ndarray:
        from .fixtures import RECTIFY_TAG_BASE
        from .rectify import identity_grid

        h, w = img.shape[:2]
        grid = identity_grid(h, w)
        tag = int(img[0, 1] if img.ndim == 2 else img[0, 1, 0])
        k = tag - RECTIFY_TAG_BASE
        if 0 < k <= 64:
            xs = np.arange(w, dtype=np.float64)
            grid[..., 0] = np.minimum(xs + np.floor(xs / k), w - 1)[None, :]
        return grid

    def forward(self, img: np.ndarray) -> np.ndarray:
        self._inner.input_hw = img.shape[:2]  # page-resolution stand-in
        return self._inner.forward(img)


def _erode1(m: np.ndarray) -> np.ndarray:
    """One 4-neighbour (cross) binary erosion step, out-of-bounds =
    background. d iterations = L1-ball-radius-d erosion: a straight rect
    shrinks by exactly d on every side."""
    e = np.zeros_like(m)
    e[1:-1, 1:-1] = (m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1]
                     & m[1:-1, :-2] & m[1:-1, 2:])
    return e


class StubDbSession:
    """Deterministic stand-in for the DB-detection onnxruntime session at
    the detection model boundary (reference db.rs:95-213): consumes the
    SAME normalized (B, 3, H, W) float32 tensor a real session would —
    built by det_resize -> normalize_image -> to_batch — and returns a
    (B, 1, H, W) probability heatmap that the REAL DBPostProcess path
    (geometry.db_boxes_from_bitmap) converts to boxes. A production build
    replaces this object with a real session wrapper taking the identical
    tensor; nothing else changes (the same seam shape as StubCtcSession).

    What it emits mirrors what a trained DB head predicts: the SHRUNK
    text KERNEL (Liao et al. 2019 — ground-truth kernels are inward
    offsets of the text polygons; DBPostProcess's unclip re-expands them
    by `delta = unclip_ratio * area / perimeter`, db_bitmap.rs:144-180).
    Per dark component this stub picks the erosion depth d whose unclip
    re-expansion best inverts it (|delta(eroded box) - d| minimal, the
    deterministic analogue of a converged model + config pair) among the
    kernels DBPostProcess keeps and re-grows back over the whole line
    (delta > d - 0.5; a deeper kernel would come back inside the line and
    cut its edge pixels). So final boxes cover the true rects and land
    within ~1 px of them; the recognition side
    absorbs that margin exactly (read_crop_text's white-margin strip /
    Recognize's pre-resize trim). Components too small to carry a
    >= min_size kernel (e.g. the 1-px orientation tag) emit nothing —
    exactly like a real DB head, whose training shrink makes tiny
    regions vanish.
    """

    def __init__(self, kernel_prob: float = 0.9, unclip_ratio: float = 1.5,
                 min_size: float = 3.0, max_depth: int = 8,
                 scale: float = 1.0 / 255.0, mean=None, std=None):
        from .preprocess import IMAGENET_MEAN, IMAGENET_STD

        self.kernel_prob = kernel_prob
        self.unclip_ratio = unclip_ratio
        self.min_size = min_size
        self.max_depth = max_depth
        self.scale = scale
        self.mean = float((IMAGENET_MEAN if mean is None else mean)[0])
        self.std = float((IMAGENET_STD if std is None else std)[0])

    def _depth_err(self, kw: int, kh: int, d: int) -> float | None:
        """|delta - d| for a kw x kh kernel eroded d px deep, or None when
        DBPostProcess would drop it (a side under min_size, or under
        min_size + 2 after the unclip) or re-grow it to inside its line
        (delta <= d - 0.5: the rounded box would lose a pixel on a side).
        Every deeper kernel fails the same way."""
        if min(kw, kh) < self.min_size:
            return None
        delta = self.unclip_ratio * kw * kh / (2.0 * (kw + kh))
        if min(kw, kh) + 2 * delta < self.min_size + 2 or delta - d <= -0.5:
            return None
        return abs(delta - d)

    def _kernel(self, sub: np.ndarray) -> np.ndarray | None:
        """Best shrunk kernel for one component's mask slice, or None when
        no erosion depth yields a postprocess-surviving kernel. A depth
        that splits the component (jagged skewed bands under L1 erosion)
        is not a candidate — one text line must stay one kernel.

        Fast path: an EXACT rect (the straight-line majority) erodes to
        the analytically shrunk rect and can never split, so its best
        depth is closed-form — no erosion passes, no per-depth component
        counts (these dominated the det-session wall time)."""
        h, w = sub.shape
        if sub.all():  # exact rect: erosion by d = integer shrink by d
            best_d, best_err = None, np.inf
            for d in range(0, self.max_depth + 1):
                err = self._depth_err(w - 2 * d, h - 2 * d, d)
                if err is None:
                    break
                if err < best_err:
                    best_d, best_err = d, err
            if best_d is None:
                return None
            k = np.zeros_like(sub)
            k[best_d:h - best_d, best_d:w - best_d] = True
            return k

        from .geometry import connected_component_boxes

        n0 = len(connected_component_boxes(sub, min_area=1, max_candidates=2**62))
        best, best_err = None, None
        cur, d = sub, 0
        while cur.any() and d <= self.max_depth:
            ys, xs = np.nonzero(cur)
            err = self._depth_err(int(xs.max() - xs.min()) + 1,
                                  int(ys.max() - ys.min()) + 1, d)
            if err is None:
                break
            if err < (best_err if best_err is not None else np.inf):
                ncomp = len(connected_component_boxes(
                    cur, min_area=1, max_candidates=2**62))
                if ncomp == n0:
                    best, best_err = cur, err
            cur = _erode1(cur)
            d += 1
        return best

    def __call__(self, tensor: np.ndarray) -> np.ndarray:
        from .geometry import connected_component_label_image

        b, _, th, tw = tensor.shape
        out = np.zeros((b, 1, th, tw), dtype=np.float32)
        for i in range(b):
            ch = tensor[i, 0].astype(np.float64)
            u8 = np.clip(
                np.rint((ch * self.std + self.mean) / self.scale), 0, 255
            ).astype(np.uint8)
            mask = u8 < 128
            # label-filtered slices: two components whose AABBs overlap
            # (jagged skewed shapes) must each erode ONLY their own
            # pixels, never a union mask that merges/duplicates kernels
            comps, lbl = connected_component_label_image(
                mask, min_area=1, max_candidates=2**62)
            for ci, (x0, y0, x1, y1) in enumerate(comps):
                k = self._kernel(lbl[y0:y1, x0:x1] == ci)
                if k is not None:
                    out[i, 0, y0:y1, x0:x1][k] = self.kernel_prob
        return out


class StubLayoutSession:
    """Deterministic stand-in for the PicoDet / RT-DETR layout-detection
    onnxruntime session (reference pp_doclayout.rs +
    layout_detection_adapter.rs): consumes the normalized (B, 3, H, W)
    float32 tensor and returns per-image (N, 6) float detections
    [label_code, score, x0, y0, x1, y1] — the post-NMS adapter output
    shape a real wrapper would emit. Decode is tensor-only: denormalize
    channel 0 back to uint8 (exact), then the block-fill/tag contract
    (detect_layout_blocks math) with a fixed confident score of 0.9."""

    def __init__(self, scale: float = 1.0 / 255.0, mean=None, std=None):
        from .preprocess import IMAGENET_MEAN, IMAGENET_STD

        self.scale = scale
        self.mean = float((IMAGENET_MEAN if mean is None else mean)[0])
        self.std = float((IMAGENET_STD if std is None else std)[0])

    def __call__(self, tensor: np.ndarray) -> list[np.ndarray]:
        from .fixtures import LAYOUT_CODE_OF

        out = []
        for i in range(tensor.shape[0]):
            ch = tensor[i, 0].astype(np.float64)
            u8 = np.clip(
                np.rint((ch * self.std + self.mean) / self.scale), 0, 255
            ).astype(np.uint8)
            boxes, labels, scores = detect_layout_blocks(u8)
            dets = np.empty((len(boxes), 6), dtype=np.float64)
            for j, (b, l, s) in enumerate(zip(boxes, labels, scores)):
                dets[j] = [LAYOUT_CODE_OF[l], s, b[0], b[1], b[2], b[3]]
            out.append(dets)
        return out


def _tensor_to_u8(tensor: np.ndarray, i: int,
                  scale: float, mean: float, std: float) -> np.ndarray:
    """Denormalize channel 0 of batch item i back to uint8 (exact —
    0..255 round-trips the float32 normalize within rint); the shared
    first step of every tensor-consuming stub session."""
    ch = tensor[i, 0].astype(np.float64)
    return np.clip(np.rint((ch * std + mean) / scale), 0, 255).astype(np.uint8)


class _StubSessionBase:
    """Common normalize constants for tensor-consuming stub sessions."""

    def __init__(self, scale: float = 1.0 / 255.0, mean=None, std=None):
        from .preprocess import IMAGENET_MEAN, IMAGENET_STD

        self.scale = scale
        self.mean = float((IMAGENET_MEAN if mean is None else mean)[0])
        self.std = float((IMAGENET_STD if std is None else std)[0])

    def _u8(self, tensor: np.ndarray, i: int) -> np.ndarray:
        return _tensor_to_u8(tensor, i, self.scale, self.mean, self.std)


class StubOrientationSession(_StubSessionBase):
    """Stand-in for the PP-LCNet 4-class document-orientation session
    (reference doc_orientation adapters): consumes the normalized tensor,
    returns (B, 4) class probabilities. One-hot from the tag-pixel
    contract. Stand-in deviation (documented): input is the page itself —
    the real PP-LCNet resize-short/center-crop preprocess would crop away
    the deterministic tag pixel."""

    def __call__(self, tensor: np.ndarray) -> np.ndarray:
        out = np.zeros((tensor.shape[0], 4), dtype=np.float32)
        for i in range(tensor.shape[0]):
            out[i, classify_orientation(self._u8(tensor, i))] = 1.0
        return out


class StubTableClsSession(_StubSessionBase):
    """Stand-in for the PP-LCNet wired/wireless table classifier
    (table_classification.rs): normalized table-crop tensor in,
    (B, 2) probabilities out (index 0 = wired, 1 = wireless)."""

    def __call__(self, tensor: np.ndarray) -> np.ndarray:
        out = np.zeros((tensor.shape[0], 2), dtype=np.float32)
        for i in range(tensor.shape[0]):
            u8 = self._u8(tensor, i)
            wired = ((u8 >= 165) & (u8 < 195)).any()
            out[i, 0 if wired else 1] = 1.0
        return out


class StubCellDetSession(_StubSessionBase):
    """Stand-in for the RT-DETR table-cell detection session
    (table_cell_detection_adapter.rs): normalized table-crop tensor in,
    per-image (N, 6) [code=0, score, x0, y0, x1, y1] detections out in
    CROP coordinates (the boundary maps them back to page coords)."""

    def __call__(self, tensor: np.ndarray) -> list[np.ndarray]:
        out = []
        for i in range(tensor.shape[0]):
            u8 = self._u8(tensor, i)
            cells = detect_table_cells(
                u8, (0, 0, u8.shape[1], u8.shape[0]))
            dets = np.zeros((len(cells), 6), dtype=np.float64)
            if len(cells):
                dets[:, 1] = 0.9
                dets[:, 2:] = cells
            out.append(dets)
        return out


class StubRegionSession(_StubSessionBase):
    """Stand-in for the PP-DocBlockLayout region-block session
    (detect_layout_and_regions, structure.rs): normalized page tensor in,
    per-image (N, 6) [code=0, score, box] container-frame detections."""

    def __call__(self, tensor: np.ndarray) -> list[np.ndarray]:
        out = []
        for i in range(tensor.shape[0]):
            boxes = detect_region_blocks(self._u8(tensor, i))
            dets = np.zeros((len(boxes), 6), dtype=np.float64)
            if len(boxes):
                dets[:, 1] = 0.9
                dets[:, 2:] = boxes
            out.append(dets)
        return out


class StubFormulaSession(_StubSessionBase):
    """Stand-in for the UniMERNet/PP-FormulaNet formula-recognition
    session (reference pp_formulanet.rs / unimernet preprocess): consumes
    the normalized formula-crop tensor, returns one RAW latex string per
    batch item (a real wrapper decodes token ids to the same surface; the
    stage applies normalize_latex downstream, the reference's
    decode -> normalize path). Stand-in deviation (documented): input is
    the crop at page resolution — the real UniMERNet resize and pad legs
    (not implemented here) would blend the deterministic pixel-text
    cells."""

    def __call__(self, tensor: np.ndarray) -> list[str]:
        return [read_line_text(self._u8(tensor, i))
                for i in range(tensor.shape[0])]


class StubCtcSession:
    """Deterministic stand-in for the CRNN/SVTR onnxruntime session at the
    recognition model boundary (reference crnn.rs:61-118): consumes the
    SAME (B, 3, 48, W) float32 normalized tensor a real session would —
    each crop resized into its row of one uint8 buffer by
    ocr_resize_and_pad, the buffer normalized once by gray_batch_tensor
    (Recognize._session_logits) — and
    returns CTC logits. A production build replaces this object with a
    real session wrapper taking the identical tensor; nothing upstream
    changes (the point of the model_input wiring).

    Decode is tensor-only: denormalize channel 0 back to uint8 (exact —
    0..255 round-trips the float32 normalize within rint), then
    read_crop_text's scale-aware cell decode, then encode_ctc_logits so
    the downstream REAL greedy CTC decoder, confidences and word-box
    column math run unchanged. Returns a list of per-item (T_i, C) logit
    matrices; a real session's uniform (B, T, C) array is also accepted
    by the Recognize call site.
    """

    def __init__(self, scale: float = 1.0 / 255.0, mean=None, std=None):
        from .preprocess import IMAGENET_MEAN, IMAGENET_STD

        self.scale = scale
        self.mean = float((IMAGENET_MEAN if mean is None else mean)[0])
        self.std = float((IMAGENET_STD if std is None else std)[0])

    def __call__(self, tensor: np.ndarray) -> list[np.ndarray]:
        from .ctc import encode_ctc_logits

        out = []
        for i in range(tensor.shape[0]):
            ch = tensor[i, 0].astype(np.float64)
            u8 = np.clip(
                np.rint((ch * self.std + self.mean) / self.scale), 0, 255
            ).astype(np.uint8)
            out.append(encode_ctc_logits(read_crop_text(u8)))
        return out


def rotate_boxes_back(boxes: np.ndarray, class_id: int, upright_w: int, upright_h: int) -> np.ndarray:
    """Map AABBs from upright coordinates back to the stored (rotated) image
    coordinates — the inverse of correct_orientation, mirroring the
    reference's rotate_text_regions_back (/root/reference/src/oarocr/ocr.rs:814):
    results are reported in the ORIGINAL image's frame.

    Stored image = rot90(upright, k=-class_id); a pixel (x, y) in the
    upright frame therefore lands at:
      class 1 (stored 90° CW):  (x', y') = (H-1-y, x)   [stored W x H swap]
      class 2 (180°):           (x', y') = (W-1-x, H-1-y)
      class 3 (stored 90° CCW): (x', y') = (y, W-1-x)
    Boxes use exclusive max edges, so edges map with W/H (not W-1/H-1).
    """
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    k = class_id % 4
    w, h = float(upright_w), float(upright_h)
    x0, y0, x1, y1 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    if k == 0:
        out = b.copy()
    elif k == 1:
        out = np.stack([h - y1, x0, h - y0, x1], axis=1)
    elif k == 2:
        out = np.stack([w - x1, h - y1, w - x0, h - y0], axis=1)
    else:
        out = np.stack([y0, w - x1, y1, w - x0], axis=1)
    return out


def detect_layout_blocks(img: np.ndarray, min_area: int = 64):
    """'Layout detection' stand-in (deterministic analogue of the PicoDet /
    RT-DETR layout models, /root/reference/src/models/detection/
    pp_doclayout.rs + layout_detection_adapter.rs): connected components of
    the BLOCK_FILL mask (fixtures contract: blocks are value-200 rectangles)
    with the block type read from the tag pixel [y0+1, x0] =
    BLOCK_TAG_BASE + code. Returns (boxes (N,4) float, labels list[str],
    scores (N,) float — fixed 0.9 like a confident detector)."""
    from .fixtures import BLOCK_TAG_BASE, LAYOUT_CODES

    gray = img if img.ndim == 2 else img[:, :, 0]
    mask = (gray >= 195) & (gray < 255)  # BLOCK_FILL only; cells are < 195
    boxes = connected_component_boxes(mask, min_area=min_area)
    labels = []
    keep = []
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        code = int(gray[y0 + 1, x0]) - BLOCK_TAG_BASE if y0 + 1 < gray.shape[0] else -1
        label = LAYOUT_CODES.get(code)
        if label is None:
            continue  # not a contract block (stray component)
        keep.append(i)
        labels.append(label)
    boxes = boxes[keep].astype(np.float64)
    return boxes, labels, np.full(len(boxes), 0.9)


def classify_table(img: np.ndarray, box) -> str:
    """'Table classification' stand-in (reference
    src/predictors/table_classification.rs wired/wireless classes): a table
    crop containing ruled cell pixels (CELL_FILL band) is 'wired', else
    'wireless'."""
    gray = img if img.ndim == 2 else img[:, :, 0]
    x0, y0, x1, y1 = (int(box[0]), int(box[1]), int(box[2]), int(box[3]))
    crop = gray[max(y0, 0):y1, max(x0, 0):x1]
    return "wired" if ((crop >= 165) & (crop < 195)).any() else "wireless"


def detect_table_cells(img: np.ndarray, box, min_area: int = 32) -> np.ndarray:
    """'Table cell detection' stand-in (reference
    src/domain/adapters/table_cell_detection_adapter.rs RT-DETR cells):
    connected components of the CELL_FILL mask within the table box,
    reported in full-page coordinates."""
    gray = img if img.ndim == 2 else img[:, :, 0]
    x0, y0 = max(int(box[0]), 0), max(int(box[1]), 0)
    crop = gray[y0:int(box[3]), x0:int(box[2])]
    mask = (crop >= 165) & (crop < 195)
    cells = connected_component_boxes(mask, min_area=min_area).astype(np.float64)
    if len(cells):
        cells[:, [0, 2]] += x0
        cells[:, [1, 3]] += y0
    return cells


def detect_region_blocks(img: np.ndarray, min_area: int = 50) -> np.ndarray:
    """'Region block detection' stand-in (reference PP-DocBlockLayout,
    detect_layout_and_regions in structure.rs): connected components of the
    REGION_FRAME band — 1px container frames drawn on the page background.
    Returns (N,4) float AABBs."""
    gray = img if img.ndim == 2 else img[:, :, 0]
    mask = (gray >= 148) & (gray < 160)
    return connected_component_boxes(mask, min_area=min_area).astype(np.float64)


def read_line_text(crop: np.ndarray) -> str:
    """Text-line orientation + recognition, fused: one upright read doubles
    as the 0/180 classifier (classify_line_orientation is 'does it decode
    upright?'), a failed read pays one half-turn retry. Equivalent to
    correct_line_orientation(classify_line_orientation(...)) followed by
    read_crop_text, at one decode instead of up to three. Use this in
    every recognition path so flipped lines survive fallback OCR and
    cell-split re-recognition too."""
    t = read_crop_text(crop)
    if t:
        return t
    return read_crop_text(np.ascontiguousarray(np.rot90(crop, 2)))


def classify_line_orientation(crop: np.ndarray) -> int:
    """'Text-line orientation' stand-in (reference PP-LCNet 2-class 0/180,
    src/domain/adapters/text_line_orientation_adapter.rs): decides whether
    a recognition crop is upside down. Deterministic rule: the encoding
    contract validates only in the upright frame, so 180 is returned iff
    the crop decodes after a half-turn but not as-is."""
    if read_crop_text(crop):
        return 0
    if read_crop_text(np.ascontiguousarray(np.rot90(crop, 2))):
        return 180
    return 0


def correct_line_orientation(crop: np.ndarray, angle: int) -> np.ndarray:
    """Apply the classifier's correction (180° half-turn)."""
    if angle == 180:
        return np.ascontiguousarray(np.rot90(crop, 2))
    return crop
