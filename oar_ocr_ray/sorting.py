"""Reading-order heuristics.

Reimplements the ordering semantics of
/root/reference/src/processors/sorting.rs:
  - sort_quad_boxes (35-84): lexicographic (y_min, x_min) sort + a bubble
    pass swapping adjacent boxes when |Δy| < 10 px and x order is inverted
    — top-left raster order with a same-line tolerance. This IS the order
    that defines the media-derived span sequence (the north-rule `order`).
  - sort_poly_boxes (100-118): stable sort by y_min only.
  - sort_by_xycut (161-493): recursive projection-profile XY-cut (Y-first),
    histogram projection + gap splitting.

All functions take AABBs as (N,4) float arrays [x0,y0,x1,y1] and return
index arrays into the input (the reference returns reordered boxes; indices
compose better with Arrow takes).
"""

from __future__ import annotations

import numpy as np

SAME_LINE_Y_TOLERANCE = 10.0  # px, sorting.rs:69 / stitching.rs cfg


def sort_quad_boxes_indices(boxes: np.ndarray, y_tol: float = SAME_LINE_Y_TOLERANCE) -> np.ndarray:
    """Raster reading order over AABBs; returns argsort indices.

    Mirrors sorting.rs:35-84: primary stable sort by (y_min, x_min), then the
    exact bubble pass: for i in 0..n-1, walk j from i down, swapping when the
    two adjacent boxes are within y_tol vertically and out of x order,
    stopping at the first non-swap.
    """
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    n = len(b)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((b[:, 0], b[:, 1]))  # by y_min then x_min
    idx = list(order)
    ys = b[:, 1]
    xs = b[:, 0]
    for i in range(n - 1):
        for j in range(i, -1, -1):
            if j + 1 >= n:
                break
            cy, ny = ys[idx[j]], ys[idx[j + 1]]
            cx, nx = xs[idx[j]], xs[idx[j + 1]]
            if abs(ny - cy) < y_tol and nx < cx:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
            else:
                break
    return np.asarray(idx, dtype=np.int64)


def sort_poly_boxes_indices(boxes: np.ndarray) -> np.ndarray:
    """Stable sort by y_min (sorting.rs:100-118, seal-text ordering)."""
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    if len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argsort(b[:, 1], kind="stable").astype(np.int64)


# ---------------------------------------------------------------------------
# XY-cut (sorting.rs:161-493)
# ---------------------------------------------------------------------------

def projection_by_bboxes(boxes: np.ndarray, axis: int) -> np.ndarray:
    """1D occupancy histogram of int boxes along axis (0=x, 1=y).

    sorting.rs:projection_by_bboxes — length = max(end coord)+1; each box
    increments [start, end) (end exclusive).
    """
    assert axis in (0, 1)
    b = np.atleast_2d(np.asarray(boxes, dtype=np.int64))
    if len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    start = np.abs(b[:, axis])
    end = np.abs(b[:, axis + 2])
    start, end = np.minimum(start, end), np.maximum(start, end)
    max_len = int(end.max())
    if max_len == 0:
        return np.zeros(0, dtype=np.int64)
    proj = np.zeros(max_len + 2, dtype=np.int64)
    np.add.at(proj, start, 1)
    np.add.at(proj, np.minimum(end, max_len + 1), -1)
    return np.cumsum(proj)[: max_len + 1]


def split_projection_profile(profile: np.ndarray, min_value: int, min_gap: int):
    """Split profile into segments separated by gaps > min_gap.

    Returns (starts, ends) arrays (ends exclusive) or None when nothing
    exceeds min_value (sorting.rs:split_projection_profile).
    """
    sig = np.flatnonzero(np.asarray(profile) > min_value)
    if len(sig) == 0:
        return None
    gaps = np.diff(sig)
    cut = np.flatnonzero(gaps > min_gap)
    starts = np.concatenate([[sig[0]], sig[cut + 1]])
    ends = np.concatenate([sig[cut] + 1, [sig[-1] + 1]])
    return starts, ends


def sort_by_xycut(boxes: np.ndarray, direction: str = "vertical", min_gap: int = 1) -> np.ndarray:
    """Recursive XY-cut reading order; returns indices into `boxes`.

    direction="vertical" = Y-first (YX-cut, the reference default for
    top-to-bottom pages); "horizontal" = X-first.
    """
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64)).astype(np.int64)
    if len(b) == 0:
        return np.zeros(0, dtype=np.int64)
    result: list[int] = []
    indices = np.arange(len(b))
    if direction == "vertical":
        _recursive_cut(b, indices, result, min_gap, y_first=True)
    else:
        _recursive_cut(b, indices, result, min_gap, y_first=False)
    return np.asarray(result, dtype=np.int64)


def _recursive_cut(boxes: np.ndarray, indices: np.ndarray, result: list[int],
                   min_gap: int, y_first: bool) -> None:
    if len(boxes) == 0:
        return
    a1 = 1 if y_first else 0  # first projection axis
    a2 = 0 if y_first else 1
    order1 = np.argsort(boxes[:, a1], kind="stable")
    b1 = boxes[order1]
    i1 = indices[order1]
    proj1 = projection_by_bboxes(b1, a1)
    split1 = split_projection_profile(proj1, 0, 1)
    if split1 is None:
        return
    starts1, ends1 = split1
    for s1, e1 in zip(starts1, ends1):
        in1 = (np.abs(b1[:, a1]) >= s1) & (np.abs(b1[:, a1]) < e1)
        if not in1.any():
            continue
        chunk_b = b1[in1]
        chunk_i = i1[in1]
        order2 = np.argsort(chunk_b[:, a2], kind="stable")
        b2 = chunk_b[order2]
        i2 = chunk_i[order2]
        proj2 = projection_by_bboxes(b2, a2)
        split2 = split_projection_profile(proj2, 0, min_gap)
        if split2 is None:
            continue
        starts2, ends2 = split2
        if len(starts2) == 1:
            result.extend(int(x) for x in i2)
            continue
        for s2, e2 in zip(starts2, ends2):
            in2 = (np.abs(b2[:, a2]) >= s2) & (np.abs(b2[:, a2]) < e2)
            if not in2.any():
                continue
            _recursive_cut(b2[in2], i2[in2], result, min_gap, y_first)


# ---------------------------------------------------------------------------
# Enhanced layout ordering (layout_sorting.rs:14-471) and region hierarchy
# (sorting.rs:612-739)
# ---------------------------------------------------------------------------

# label -> order group (layout_sorting.rs:29-72 OrderLabel::from_element_type)
_ORDER_LABEL = {
    "header": "header", "header_image": "header",
    "footer": "footer", "footer_image": "footer", "footnote": "footer",
    "doc_title": "doc_title",
    "paragraph_title": "paragraph_title", "reference": "paragraph_title",
    "content": "paragraph_title",
    "image": "vision", "table": "vision", "chart": "vision",
    "algorithm": "vision",
    "figure_title": "vision_title", "table_title": "vision_title",
    "chart_title": "vision_title", "figure_table_chart_title": "vision_title",
    "aside_text": "unordered", "seal": "unordered", "number": "unordered",
    "formula_number": "unordered",
    # text_labels default: text, list, abstract, reference_content, formula
}


def order_label_of(label: str) -> str:
    return _ORDER_LABEL.get(label, "normal_text")


def _projection_overlap_iou(b1, b2, axis: int) -> float:
    """1D projection IoU along axis (layout_sorting.rs:443-466)."""
    lo1, hi1 = b1[axis], b1[axis + 2]
    lo2, hi2 = b2[axis], b2[axis + 2]
    inter = max(min(hi1, hi2) - max(lo1, lo2), 0.0)
    union = max(hi1, hi2) - min(lo1, lo2)
    return inter / union if union > 0 else 0.0


def _nearest_edge_distance(b1, b2, weights) -> float:
    """Weighted nearest-edge distance; 0 when projections overlap on both
    axes (layout_sorting.rs:400-441). weights = [left, right, up, down]."""
    h_overlap = _projection_overlap_iou(b1, b2, 0)
    v_overlap = _projection_overlap_iou(b1, b2, 1)
    if h_overlap > 0.0 and v_overlap > 0.0:
        return 0.0
    min_x = 0.0
    min_y = 0.0
    if h_overlap == 0.0:
        d1 = abs(b1[0] - b2[2])
        d2 = abs(b1[2] - b2[0])
        w = weights[0] if b1[2] < b2[0] else weights[1]
        min_x = min(d1, d2) * w
    if v_overlap == 0.0:
        d1 = abs(b1[1] - b2[3])
        d2 = abs(b1[3] - b2[1])
        w = weights[2] if b1[3] < b2[1] else weights[3]
        min_y = min(d1, d2) * w
    return min_x + min_y


def _insert_weights(order_label: str, horizontal: bool):
    """Per-label edge weights [left, right, up, down]
    (layout_sorting.rs:get_weights)."""
    if order_label == "doc_title":
        return (1.0, 0.1, 0.1, 1.0) if horizontal else (0.2, 0.1, 1.0, 1.0)
    if order_label in ("paragraph_title", "vision", "vision_title"):
        return (1.0, 1.0, 0.1, 1.0)
    return (1.0, 1.0, 1.0, 0.1)


def _weighted_distance_insert(block, sorted_blocks: list) -> None:
    """Insert `block` into sorted_blocks at the weighted-nearest position
    (layout_sorting.rs:weighted_distance_insert, horizontal region).

    block = (bbox(4,), original_index, order_label, horizontal: bool).
    """
    if not sorted_blocks:
        sorted_blocks.append(block)
        return
    bbox, _, order_label, horizontal = block
    tolerance_len = 2.0
    edge_weight, up_edge_weight, left_edge_weight = 10000.0, 1.0, 0.0001
    x1, y1, x2, _ = bbox
    weights = _insert_weights(order_label, horizontal)

    min_weighted = np.inf
    min_up_edge = np.inf
    nearest = 0
    for idx, sb in enumerate(sorted_blocks):
        sbox = sb[0]
        x1p, y1p = sbox[0], sbox[1]
        y2p = sbox[3]
        edge_distance = _nearest_edge_distance(bbox, sbox, weights)
        up_dist, left_dist = y1p, x1p
        is_below = y2p < y1
        # layout_sorting.rs:305-318: flip for non-plain-text blocks below
        is_special = order_label != "unordered" or order_label in (
            "doc_title", "paragraph_title", "vision", "vision_title"
        )
        if is_special and is_below:
            up_dist = -up_dist
            left_dist = -left_dist
        if abs(min_up_edge - up_dist) <= tolerance_len:
            up_dist = min_up_edge
        weighted = edge_distance * edge_weight + up_dist * up_edge_weight + left_dist * left_edge_weight
        min_up_edge = min(min_up_edge, up_dist)
        if weighted < min_weighted:
            min_weighted = weighted
            # before/after the nearest block: 2-px-bucket y compare, then x,
            # then centroid norm (layout_sorting.rs:333-380)
            y1_i = int(np.floor(y1)) // 2
            y1p_i = int(np.floor(y1p)) // 2
            if abs(y1_i - y1p_i) > 0:
                sorted_val, block_val = y1p, y1
            else:
                x1_i = int(np.floor(x1)) // 2
                x2_i = int(np.floor(x2)) // 2
                if abs(x1_i - x2_i) > 0:
                    sorted_val, block_val = x1p, x1
                else:
                    cx, cy = (bbox[0] + bbox[2]) / 2, (bbox[1] + bbox[3]) / 2
                    scx, scy = (sbox[0] + sbox[2]) / 2, (sbox[1] + sbox[3]) / 2
                    sorted_val = scx * scx + scy * scy
                    block_val = cx * cx + cy * cy
            nearest = idx + 1 if block_val > sorted_val else idx
    nearest = min(nearest, len(sorted_blocks))
    sorted_blocks.insert(nearest, block)


def sort_layout_enhanced(boxes: np.ndarray, labels: list[str],
                         page_width: float, page_height: float) -> np.ndarray:
    """Header/footer-aware enhanced reading order
    (layout_sorting.rs:sort_layout_enhanced). Returns indices into `boxes`.

    headers (top-sorted) + main blocks + footers; main blocks = XY-cut over
    normal text/unordered, then DocTitle -> Vision -> other titles inserted
    by weighted nearest distance.
    """
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64)).reshape(-1, 4)
    n = len(b)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    blocks = []
    for i in range(n):
        ol = order_label_of(labels[i])
        horizontal = (b[i, 2] - b[i, 0]) >= (b[i, 3] - b[i, 1])
        blocks.append((b[i], i, ol, horizontal))

    headers = sorted([bl for bl in blocks if bl[2] == "header"], key=lambda x: x[0][1])
    footers = sorted([bl for bl in blocks if bl[2] == "footer"], key=lambda x: x[0][1])
    main = [bl for bl in blocks if bl[2] not in ("header", "footer")]

    xy_cut_blocks = [bl for bl in main if bl[2] in ("normal_text", "unordered")]
    doc_titles = sorted([bl for bl in main if bl[2] == "doc_title"], key=lambda x: x[0][1])
    visions = sorted([bl for bl in main if bl[2] == "vision"], key=lambda x: x[0][1])
    others = sorted(
        [bl for bl in main if bl[2] in ("paragraph_title", "vision_title", "cross_layout", "reference")],
        key=lambda x: x[0][1],
    )

    if xy_cut_blocks:
        xb = np.stack([bl[0] for bl in xy_cut_blocks])
        order = sort_by_xycut(xb, "vertical", 1)
        sorted_main = [xy_cut_blocks[int(i)] for i in order]
        # XY-cut int truncation can drop <1px slivers; never lose a block
        if len(sorted_main) < len(xy_cut_blocks):
            seen = {int(i) for i in order}
            sorted_main.extend(bl for j, bl in enumerate(xy_cut_blocks) if j not in seen)
    else:
        sorted_main = []
    for bl in doc_titles:
        _weighted_distance_insert(bl, sorted_main)
    for bl in visions:
        _weighted_distance_insert(bl, sorted_main)
    for bl in others:
        _weighted_distance_insert(bl, sorted_main)

    out = [bl[1] for bl in headers] + [bl[1] for bl in sorted_main] + [bl[1] for bl in footers]
    return np.asarray(out, dtype=np.int64)


def sort_with_region_hierarchy(elem_boxes: np.ndarray, region_boxes: np.ndarray,
                               overlap_threshold: float = 0.1) -> np.ndarray:
    """PP-StructureV3 hierarchical reading order (sorting.rs:612-739):
    assign elements to regions (best IoA >= threshold), XY-cut the regions,
    XY-cut the elements within each region, concatenate region-by-region,
    then XY-cut + append unassigned elements. Returns indices."""
    from .structure import assign_to_regions

    e = np.atleast_2d(np.asarray(elem_boxes, dtype=np.float64)).reshape(-1, 4)
    r = np.atleast_2d(np.asarray(region_boxes, dtype=np.float64)).reshape(-1, 4)
    if len(e) == 0:
        return np.zeros(0, dtype=np.int64)
    if len(r) == 0:
        return sort_by_xycut(e, "vertical", 1)
    assign = assign_to_regions(e, r, overlap_threshold)
    region_order = sort_by_xycut(r, "vertical", 1)
    result: list[int] = []
    for ri in region_order:
        members = np.flatnonzero(assign == int(ri))
        if len(members) == 0:
            continue
        inner = sort_by_xycut(e[members], "vertical", 1)
        result.extend(int(members[i]) for i in inner)
        if len(inner) < len(members):  # sliver-drop guard, keep every element
            seen = {int(members[i]) for i in inner}
            result.extend(int(m) for m in members if int(m) not in seen)
    unassigned = np.flatnonzero(assign == -1)
    if len(unassigned):
        inner = sort_by_xycut(e[unassigned], "vertical", 1)
        result.extend(int(unassigned[i]) for i in inner)
        if len(inner) < len(unassigned):
            seen = {int(unassigned[i]) for i in inner}
            result.extend(int(m) for m in unassigned if int(m) not in seen)
    return np.asarray(result, dtype=np.int64)
