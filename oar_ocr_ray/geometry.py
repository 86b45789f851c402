"""Box / polygon geometry, numpy-vectorized.

Reimplements (from public geometry knowledge, semantics checked against the
reference's pure-function tests) the parts of
/root/reference/src/processors/geometry.rs (IoU/IoA/intersection, accessors),
/root/reference/src/utils/transform.rs:74-190 (get_rotate_crop_image:
4-point perspective crop with vertical-text auto-rotate) and a connected-
components labeler standing in for DB bitmap post-processing
(/root/reference/src/processors/db_bitmap.rs) — binarize + component boxes.

Boxes are numpy arrays. AABB = (x0, y0, x1, y1) float rows of shape (N, 4).
Quads = (N, 4, 2) float in TL,TR,BR,BL order.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# AABB math (vectorized)
# ---------------------------------------------------------------------------

def quad_to_aabb(quads: np.ndarray) -> np.ndarray:
    """(N,4,2) quads -> (N,4) AABBs [x0,y0,x1,y1]."""
    q = np.asarray(quads, dtype=np.float64)
    if q.ndim == 2:
        q = q[None]
    x0 = q[..., 0].min(axis=-1)
    y0 = q[..., 1].min(axis=-1)
    x1 = q[..., 0].max(axis=-1)
    y1 = q[..., 1].max(axis=-1)
    return np.stack([x0, y0, x1, y1], axis=-1)


def aabb_to_quad(boxes: np.ndarray) -> np.ndarray:
    """(N,4) AABBs -> (N,4,2) quads in TL,TR,BR,BL order."""
    b = np.asarray(boxes, dtype=np.float64)
    if b.ndim == 1:
        b = b[None]
    x0, y0, x1, y1 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    return np.stack(
        [
            np.stack([x0, y0], axis=-1),
            np.stack([x1, y0], axis=-1),
            np.stack([x1, y1], axis=-1),
            np.stack([x0, y1], axis=-1),
        ],
        axis=1,
    )


def box_area(boxes: np.ndarray) -> np.ndarray:
    b = np.asarray(boxes, dtype=np.float64)
    return np.maximum(0.0, b[..., 2] - b[..., 0]) * np.maximum(0.0, b[..., 3] - b[..., 1])


def intersection_area(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection areas: a (N,4) x b (M,4) -> (N,M)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    x0 = np.maximum(a[:, None, 0], b[None, :, 0])
    y0 = np.maximum(a[:, None, 1], b[None, :, 1])
    x1 = np.minimum(a[:, None, 2], b[None, :, 2])
    y1 = np.minimum(a[:, None, 3], b[None, :, 3])
    return np.maximum(0.0, x1 - x0) * np.maximum(0.0, y1 - y0)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU (N,M). Empty boxes yield 0."""
    inter = intersection_area(a, b)
    area_a = box_area(np.atleast_2d(a))[:, None]
    area_b = box_area(np.atleast_2d(b))[None, :]
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(union > 0, inter / union, 0.0)
    return out


def ioa_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-area-of-a (N,M)."""
    inter = intersection_area(a, b)
    area_a = box_area(np.atleast_2d(a))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(area_a > 0, inter / area_a, 0.0)
    return out


def clamp_box(box: np.ndarray, w: int, h: int) -> np.ndarray:
    """Clamp an AABB to image bounds (reference: bbox_crop.rs:26-108)."""
    b = np.asarray(box, dtype=np.float64).copy()
    b[..., 0] = np.clip(b[..., 0], 0, w)
    b[..., 2] = np.clip(b[..., 2], 0, w)
    b[..., 1] = np.clip(b[..., 1], 0, h)
    b[..., 3] = np.clip(b[..., 3], 0, h)
    return b


# ---------------------------------------------------------------------------
# Perspective crop (reference transform.rs get_rotate_crop_image)
# ---------------------------------------------------------------------------

def order_quad_points(quad: np.ndarray) -> np.ndarray:
    """Reorder 4 points to TL, TR, BR, BL.

    TL = min(x+y), BR = max(x+y), TR = min(y-x), BL = max(y-x) — the standard
    ordering the reference applies before warping (transform.rs:74-120).
    """
    q = np.asarray(quad, dtype=np.float64).reshape(4, 2)
    s = q.sum(axis=1)
    d = q[:, 1] - q[:, 0]
    idx = [int(np.argmin(s)), int(np.argmin(d)), int(np.argmax(s)), int(np.argmax(d))]
    if len(set(idx)) == 4:
        return q[idx]
    # sum/diff is ambiguous for ~45°-rotated quads (a diamond selects the
    # same point twice). Fall back to the reference's x-sort + y-compare
    # ordering (transform.rs:124-140), which always yields a permutation:
    # two leftmost points -> TL/BL by y, two rightmost -> TR/BR by y.
    xs = np.argsort(q[:, 0], kind="stable")
    left, right = xs[:2], xs[2:]
    tl, bl = (left[0], left[1]) if q[left[0], 1] <= q[left[1], 1] else (left[1], left[0])
    tr, br = (right[0], right[1]) if q[right[0], 1] <= q[right[1], 1] else (right[1], right[0])
    return q[[tl, tr, br, bl]]


def perspective_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3x3 homography mapping src quad -> dst quad (solve 8-eq system)."""
    src = np.asarray(src, dtype=np.float64).reshape(4, 2)
    dst = np.asarray(dst, dtype=np.float64).reshape(4, 2)
    a = np.zeros((8, 8))
    b = np.zeros(8)
    for i in range(4):
        x, y = src[i]
        u, v = dst[i]
        a[2 * i] = [x, y, 1, 0, 0, 0, -u * x, -u * y]
        a[2 * i + 1] = [0, 0, 0, x, y, 1, -v * x, -v * y]
        b[2 * i] = u
        b[2 * i + 1] = v
    coeffs = np.linalg.solve(a, b)
    return np.append(coeffs, 1.0).reshape(3, 3)


def get_rotate_crop_image(img: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Crop a quad region to an upright rectangle via perspective warp.

    Semantics of /root/reference/src/utils/transform.rs:74-190: point
    reordering TL,TR,BR,BL; destination size from edge lengths; bilinear
    sampling; auto rotate 90° CCW when crop height >= 1.5 * width
    (vertical text). Fully vectorized inverse-mapping warp.

    img: (H, W) or (H, W, C) uint8. Returns same channel layout.
    """
    q = order_quad_points(quad)
    w = int(round(max(np.linalg.norm(q[0] - q[1]), np.linalg.norm(q[3] - q[2]))))
    h = int(round(max(np.linalg.norm(q[0] - q[3]), np.linalg.norm(q[1] - q[2]))))
    w, h = max(w, 1), max(h, 1)
    # fast path: axis-aligned integer rectangle -> plain slice (the common
    # case for detector AABBs); bilinear warp would reproduce it exactly
    if (
        q[0, 0] == q[3, 0] and q[1, 0] == q[2, 0]
        and q[0, 1] == q[1, 1] and q[2, 1] == q[3, 1]
        and float(q[0, 0]).is_integer() and float(q[0, 1]).is_integer()
        and float(q[2, 0]).is_integer() and float(q[2, 1]).is_integer()
    ):
        x0, y0 = int(q[0, 0]), int(q[0, 1])
        crop = img[y0:y0 + h, x0:x0 + w].copy()
        if crop.shape[0] == h and crop.shape[1] == w:
            if h >= 1.5 * w:
                crop = np.ascontiguousarray(np.rot90(crop, k=1))
            return crop
    dst = np.array([[0, 0], [w, 0], [w, h], [0, h]], dtype=np.float64)
    m_inv = perspective_matrix(dst, q)  # dst -> src mapping

    ys, xs = np.mgrid[0:h, 0:w]
    # sample at pixel centers
    ones = np.ones_like(xs, dtype=np.float64)
    pts = np.stack([xs + 0.5, ys + 0.5, ones], axis=0).reshape(3, -1)
    mapped = m_inv @ pts
    sx = mapped[0] / mapped[2] - 0.5
    sy = mapped[1] / mapped[2] - 0.5

    gray = img.ndim == 2
    src = img[..., None] if gray else img
    hh, ww = src.shape[:2]

    x0 = np.clip(np.floor(sx).astype(np.int64), 0, ww - 1)
    y0 = np.clip(np.floor(sy).astype(np.int64), 0, hh - 1)
    x1 = np.minimum(x0 + 1, ww - 1)
    y1 = np.minimum(y0 + 1, hh - 1)
    fx = np.clip(sx - x0, 0.0, 1.0)[:, None]
    fy = np.clip(sy - y0, 0.0, 1.0)[:, None]

    f = src.astype(np.float64)
    out = (
        f[y0, x0] * (1 - fx) * (1 - fy)
        + f[y0, x1] * fx * (1 - fy)
        + f[y1, x0] * (1 - fx) * fy
        + f[y1, x1] * fx * fy
    )
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8).reshape(h, w, -1)
    if gray:
        out = out[..., 0]
    # vertical-text auto-rotate (transform.rs:186 rotate270 = 90° CCW;
    # np.rot90 k=+1 is CCW)
    if h >= 1.5 * w:
        out = np.rot90(out, k=1)
    return out


# ---------------------------------------------------------------------------
# Connected components (stand-in for DB bitmap -> boxes postprocess)
# ---------------------------------------------------------------------------

def connected_component_boxes(
    mask: np.ndarray, min_area: int = 9, max_candidates: int = 1000
) -> np.ndarray:
    """Boxes of 4-connected components of a boolean mask.

    Plays the role of the DB postprocess contour extraction
    (/root/reference/src/processors/db_postprocess.rs: binarize heatmap ->
    contours -> boxes, max_candidates=1000 at db_postprocess.rs:81) for the
    deterministic synthetic corpus. Fully vectorized: runs are extracted
    with one diff pass; adjacent-row overlaps are found with two global
    searchsorted calls (run key intervals of different rows live in
    disjoint bands, so no per-row loop); connectivity is solved by
    min-label propagation with pointer jumping (O(log diameter)
    vectorized sweeps), never a per-run Python loop.

    Returns (N,4) int64 AABBs [x0, y0, x1, y1] with exclusive x1/y1,
    components with pixel area < min_area dropped, capped at max_candidates
    (largest first), in arbitrary order.
    """
    runs = _cc_runs(mask)
    if runs is None:
        return np.zeros((0, 4), dtype=np.int64)
    rows, rs, re, inv, k, h, w = runs
    boxes, _area, keep_order = _cc_boxes(rows, rs, re, inv, k, h, w,
                                         min_area, max_candidates)
    return boxes


def connected_component_label_image(
    mask: np.ndarray, min_area: int = 9, max_candidates: int = 1000
) -> tuple[np.ndarray, np.ndarray]:
    """connected_component_boxes plus a per-pixel label image: returns
    (boxes, labels) where labels[y, x] is the row index into `boxes` of
    the component owning that pixel, -1 elsewhere (including components
    dropped by min_area / max_candidates). Lets a caller that slices a
    component's AABB mask out pixels of OTHER components whose AABBs
    overlap it (jagged/skewed shapes)."""
    m = np.asarray(mask, dtype=bool)
    runs = _cc_runs(m)
    if runs is None:
        return np.zeros((0, 4), dtype=np.int64), np.full(m.shape, -1, np.int64)
    rows, rs, re, inv, k, h, w = runs
    boxes, _area, keep_order = _cc_boxes(rows, rs, re, inv, k, h, w,
                                         min_area, max_candidates)
    # component id -> kept boxes-row index (-1 for dropped components)
    remap = np.full(k, -1, dtype=np.int64)
    remap[keep_order] = np.arange(len(keep_order))
    lbl = np.full(h * w, -1, dtype=np.int64)
    lens = re - rs
    flat_starts = rows * w + rs
    # paint runs vectorized: ragged [start, start+len) expansion
    tot = int(lens.sum())
    idx = np.repeat(flat_starts, lens) + (
        np.arange(tot) - np.repeat(np.cumsum(lens) - lens, lens))
    lbl[idx] = np.repeat(remap[inv], lens)
    return boxes, lbl.reshape(h, w)


def _cc_runs(mask: np.ndarray):
    """Run decomposition + component labeling shared by the public CC
    functions: returns (rows, rs, re, inv, k, h, w) with per-run component
    ids inv in 0..k-1, or None for an empty mask."""
    m = np.asarray(mask, dtype=bool)
    if m.size == 0 or not m.any():
        return None

    h, w = m.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = m
    flat = padded.ravel()
    cur, prev = flat[1:], flat[:-1]
    starts = np.flatnonzero(cur & ~prev) + 1
    ends = np.flatnonzero(prev & ~cur) + 1
    if flat[0]:
        starts = np.concatenate([[0], starts])
    # runs in padded-row coords; sorted by (row, rs) by construction
    big = w + 1
    rows = starts // big
    rs = starts % big
    re = ends - rows * big

    n = len(starts)
    # Overlap edges between adjacent rows, without a row loop: a run's
    # [key_start, key_end) interval lives in its row's disjoint key band,
    # so shifting run j's interval up one band and intersecting against
    # ALL runs yields exactly the row-(r-1) overlaps. key_start and
    # key_end are both globally sorted (runs within a row are disjoint).
    key_start = starts  # rows * big + rs
    key_end = rows * big + re
    lo = np.searchsorted(key_end, key_start - big, side="right")
    hi = np.searchsorted(key_start, key_end - big, side="left")
    cnt = hi - lo  # 0 for first-row runs (negative keys) and no-overlap runs
    np.maximum(cnt, 0, out=cnt)
    total = int(cnt.sum())
    # ragged [lo_j, hi_j) expansion -> edge endpoints (ii in row r-1, jj in r)
    jj = np.repeat(np.arange(n), cnt)
    offs = np.cumsum(cnt) - cnt
    ii = np.repeat(lo, cnt) + (np.arange(total) - np.repeat(offs, cnt))

    # min-label propagation: hook both endpoints to the edge minimum, then
    # pointer-jump until fixpoint. Converges in O(log diameter) sweeps.
    label = np.arange(n)
    while True:
        prev = label
        edge_min = np.minimum(label[ii], label[jj])
        label = label.copy()
        np.minimum.at(label, ii, edge_min)
        np.minimum.at(label, jj, edge_min)
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        if np.array_equal(label, prev):
            break

    uniq, inv = np.unique(label, return_inverse=True)
    return rows, rs, re, inv, len(uniq), h, w


def _cc_boxes(rows, rs, re, inv, k, h, w, min_area, max_candidates):
    """Per-component AABBs from the run decomposition; returns
    (boxes, areas, keep_order) where keep_order maps boxes rows back to
    component ids in 0..k-1 (min_area filter + max_candidates cap
    applied, largest first past the cap)."""
    x0 = np.full(k, w, dtype=np.int64)
    x1 = np.zeros(k, dtype=np.int64)
    y0 = np.full(k, h, dtype=np.int64)
    y1 = np.zeros(k, dtype=np.int64)
    area = np.zeros(k, dtype=np.int64)
    np.minimum.at(x0, inv, rs)
    np.maximum.at(x1, inv, re)
    np.minimum.at(y0, inv, rows)
    np.maximum.at(y1, inv, rows + 1)
    np.add.at(area, inv, re - rs)

    keep_order = np.flatnonzero(area >= min_area)
    boxes = np.stack([x0, y0, x1, y1], axis=1)[keep_order]
    area = area[keep_order]
    if len(boxes) > max_candidates:
        order = np.argsort(-area)[:max_candidates]
        boxes = boxes[order]
        area = area[order]
        keep_order = keep_order[order]
    return boxes, area, keep_order


# ---------------------------------------------------------------------------
# DB postprocess math (reference: db_bitmap.rs, db_score.rs, geometry.rs)
# ---------------------------------------------------------------------------

def min_area_rect(points: np.ndarray) -> np.ndarray:
    """Minimum-area enclosing rectangle of a point set via rotating calipers
    over convex-hull edges (semantics of geometry.rs get_min_area_rect).
    Returns (4,2) corners in TL,TR,BR,BL order of the rotated rect."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    if len(pts) == 0:
        return np.zeros((4, 2))
    hull = convex_hull(pts)
    if len(hull) == 1:
        return np.repeat(hull, 4, axis=0)
    if len(hull) == 2:
        return np.array([hull[0], hull[1], hull[1], hull[0]])
    best_area = np.inf
    best = None
    for i in range(len(hull)):
        e = hull[(i + 1) % len(hull)] - hull[i]
        norm = np.linalg.norm(e)
        if norm == 0:
            continue
        ux = e / norm
        uy = np.array([-ux[1], ux[0]])
        xs = hull @ ux
        ys = hull @ uy
        area = (xs.max() - xs.min()) * (ys.max() - ys.min())
        if area < best_area:
            best_area = area
            c = np.array([
                [xs.min(), ys.min()], [xs.max(), ys.min()],
                [xs.max(), ys.max()], [xs.min(), ys.max()],
            ])
            best = c @ np.stack([ux, uy])
    # order: keep the construction's cyclic corner order (rect-frame
    # TL,TR,BR,BL), rolled so the corner nearest the global top-left comes
    # first — order_quad_points' sum/diff heuristic is ambiguous at 45°
    s = best.sum(axis=1)
    start = np.lexsort((best[:, 1], np.round(s, 9)))[0]
    return np.roll(best, -start, axis=0)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull points CCW."""
    pts = np.unique(np.asarray(points, dtype=np.float64).reshape(-1, 2), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def half(iterable):
        out = []
        for p in iterable:
            while len(out) >= 2 and np.cross(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def unclip_box(quad: np.ndarray, unclip_ratio: float = 2.0) -> np.ndarray:
    """DB box expansion: offset distance delta = area * ratio / perimeter
    (db_bitmap.rs:144-211, Vatti offset via clipper in the reference; here
    an exact outward offset of the rotated rect: each edge pushed out by
    delta)."""
    q = order_quad_points(np.asarray(quad, dtype=np.float64).reshape(4, 2))
    e = np.roll(q, -1, axis=0) - q
    lens = np.linalg.norm(e, axis=1)
    area = 0.5 * abs(
        np.dot(q[:, 0], np.roll(q[:, 1], -1)) - np.dot(q[:, 1], np.roll(q[:, 0], -1))
    )
    perimeter = lens.sum()
    if perimeter == 0:
        return q
    delta = area * unclip_ratio / perimeter
    center = q.mean(axis=0)
    out = np.empty_like(q)
    for i in range(4):
        # outward normal of each vertex = average of adjacent edge normals
        e_prev = q[i] - q[i - 1]
        e_next = q[(i + 1) % 4] - q[i]
        n_prev = np.array([e_prev[1], -e_prev[0]])
        n_next = np.array([e_next[1], -e_next[0]])
        n = n_prev / max(np.linalg.norm(n_prev), 1e-9) + n_next / max(np.linalg.norm(n_next), 1e-9)
        n = n / max(np.linalg.norm(n), 1e-9)
        if np.dot(n, q[i] - center) < 0:
            n = -n
        out[i] = q[i] + n * delta * np.sqrt(2.0)
    return order_quad_points(out)


def box_score_fast(bitmap: np.ndarray, box: np.ndarray) -> float:
    """Mean probability inside the box's AABB clipped to the bitmap
    (db_score.rs:35 box_score_fast for axis-aligned boxes)."""
    h, w = bitmap.shape[:2]
    b = quad_to_aabb(np.asarray(box, dtype=np.float64).reshape(-1, 2))[0]
    x0 = int(np.clip(np.floor(b[0]), 0, w - 1))
    y0 = int(np.clip(np.floor(b[1]), 0, h - 1))
    x1 = int(np.clip(np.ceil(b[2]), 1, w))
    y1 = int(np.clip(np.ceil(b[3]), 1, h))
    region = bitmap[y0:y1, x0:x1]
    return float(region.mean()) if region.size else 0.0


def db_boxes_from_bitmap(
    prob: np.ndarray,
    thresh: float = 0.3,
    box_thresh: float = 0.6,
    unclip_ratio: float = 1.5,
    max_candidates: int = 1000,
    min_size: float = 3.0,
    score_mode: str = "fast",
) -> tuple[np.ndarray, np.ndarray]:
    """The REAL DB detection postprocess over a probability heatmap — the
    reference's boxes_from_bitmap chain (db_bitmap.rs:81-142, defaults from
    db_postprocess.rs:67-88 / db.rs:48-60):

      binarize prob > thresh -> contour candidates (component boxes here,
      capped at max_candidates largest-first) -> min_size side filter ->
      box score >= box_thresh -> unclip_box(ratio) ->
      min_area_rect -> (min_size + 2) side filter -> round + clamp.

    score_mode mirrors the reference's ScoreMode (db_score.rs): "fast" =
    mean prob over the candidate's AABB (box_score_fast); "slow" = mean
    prob over the candidate's own above-threshold pixels (the component
    analogue of the contour-fill mean) — the right mode when text is
    skewed, where a rotated band fills little of its AABB and fast
    scoring under-rates real detections.

    Returns (boxes (N,4) int64 AABBs [x0,y0,x1,y1] exclusive in the
    HEATMAP frame, scores (N,) float64). The caller maps back to the
    source frame by the det-resize ratio (the reference's width_scale/
    height_scale step), exactly like the stand-in detect path. The loop
    is per DETECTION (tens per page), never per pixel — every pixel op
    (binarize, components, score) is vectorized."""
    p = np.asarray(prob, dtype=np.float32)
    comps = connected_component_boxes(p > thresh, min_area=1,
                                      max_candidates=max_candidates)
    h, w = p.shape[:2]
    if not len(comps):
        return np.zeros((0, 4), dtype=np.int64), np.zeros(0)
    # Candidates here are axis-aligned component boxes, for which the
    # unclip -> min_area_rect leg has an EXACT closed form: the outward
    # offset of an axis-aligned rect by delta = ratio*A/P is the rect
    # grown by delta on every side, and its min-area rect is itself
    # (unclip_box's corner construction reduces to exactly this — the
    # equivalence is asserted against the general kernels in
    # test_db_boundary.py). Everything below is vectorized across
    # candidates; only the score windows loop (tens of boxes/page).
    cb = comps.astype(np.float64)
    cw = cb[:, 2] - cb[:, 0]
    chh = cb[:, 3] - cb[:, 1]
    keep = np.minimum(cw, chh) >= min_size
    scores = np.zeros(len(cb))
    for i in np.flatnonzero(keep):
        x0, y0, x1, y1 = comps[i]
        if score_mode == "slow":
            win = p[y0:y1, x0:x1]
            hot = win[win > thresh]
            scores[i] = float(hot.mean()) if hot.size else 0.0
        else:
            scores[i] = box_score_fast(
                p, aabb_to_quad(comps[i:i + 1].astype(np.float64))[0])
    keep &= scores >= box_thresh
    delta = np.divide(unclip_ratio * cw * chh, 2.0 * (cw + chh),
                      out=np.zeros(len(cb)), where=(cw + chh) > 0)
    keep &= (np.minimum(cw, chh) + 2 * delta) >= (min_size + 2)
    if not keep.any():
        return np.zeros((0, 4), dtype=np.int64), np.zeros(0)
    out = np.empty((int(keep.sum()), 4), dtype=np.int64)
    d = delta[keep]
    out[:, 0] = np.clip(np.rint(cb[keep, 0] - d), 0, w)
    out[:, 1] = np.clip(np.rint(cb[keep, 1] - d), 0, h)
    out[:, 2] = np.clip(np.rint(cb[keep, 2] + d), 0, w)
    out[:, 3] = np.clip(np.rint(cb[keep, 3] + d), 0, h)
    return out, scores[keep]
