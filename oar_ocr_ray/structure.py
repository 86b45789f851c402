"""Document-structure operators: spatial joins, overlap dedup, stitching,
reading order, markdown export.

Per-page pure functions (numpy) reimplementing the reference's
structure-analysis semantics — used inside `map_batches`/`map_groups` over
page rows (SURVEY.md §2.4: these are within-document joins, never
distributed joins):

  - OCR box <-> layout block overlap match: intersection w AND h > 3 px,
    no ratio threshold (/root/reference/src/oarocr/structure.rs:1223-1242,
    stitching.rs:581-601);
  - overlap dedup: pairwise IoA-over-smaller > threshold; image loses to
    text, else smaller area loses (layout_utils.rs:618-840);
  - element -> region assignment: best IoA, threshold 0.1
    (structure.rs:1899-1958, sorting.rs:584-607);
  - orphan OCR text -> new Text elements unless IoA > 0.3 with a table
    (stitching.rs:132-201);
  - stitch (`stitch_page_enhanced`): per-element smart join of matched
    OCR texts with the element bbox as container (stitching.rs:603-697),
    enhanced or region-hierarchy reading order, order_index assignment;
  - title heading levels from numbering (structure.rs:17-95) and
    markdown export (structure.rs:227).
"""

from __future__ import annotations

import re

import numpy as np

from .geometry import box_area, intersection_area, ioa_matrix
from .textproc import smart_join

_CJK_NUM = "一二三四五六七八九十百千万亿零壹贰叁肆伍陆柒捌玖拾"
TITLE_NUMBERING_REGEX = re.compile(
    r"^\s*("
    r"[1-9][0-9]*(?:\.[1-9][0-9]*)*[\.、]?"
    r"|[(（][1-9][0-9]*(?:\.[1-9][0-9]*)*[)）]"
    rf"|[{_CJK_NUM}][、.]?"
    rf"|[(（][{_CJK_NUM}]+[)）]"
    r"|(?:I|II|III|IV|V|VI|VII|VIII|IX|X)(?:\.|\b)"
    r")(\s+)(.*)$"
)


def format_title_with_level(title: str) -> tuple[int, str]:
    """Heading level from numbering prefix (structure.rs:46-95):
    '1 Intro' -> (1, ...), '1.2.3 X' -> (3, ...), no numbering -> level 2."""
    cleaned = title.replace("-\n", "").replace("\n", " ")
    m = TITLE_NUMBERING_REGEX.match(cleaned)
    if not m:
        return 2, cleaned
    numbering = m.group(1).strip()
    content = m.group(3) or ""
    level = numbering.count(".") + 1 if "." in numbering else 1
    level = min(max(level, 1), 6)
    num = numbering.rstrip(".")
    formatted = f"{num} {content.lstrip()}" if content else num
    return level, formatted


def overlap_match(ocr_boxes: np.ndarray, layout_boxes: np.ndarray, min_px: float = 3.0) -> np.ndarray:
    """(N_ocr, N_layout) bool: intersection width AND height > min_px
    (structure.rs:1223-1242 — no area-ratio threshold)."""
    a = np.atleast_2d(np.asarray(ocr_boxes, dtype=np.float64))
    b = np.atleast_2d(np.asarray(layout_boxes, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        return np.zeros((len(a), len(b)), dtype=bool)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    return (iw > min_px) & (ih > min_px)


def ioa_smaller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection / min(area_a, area_b)."""
    inter = intersection_area(a, b)
    aa = box_area(np.atleast_2d(a))[:, None]
    ab = box_area(np.atleast_2d(b))[None, :]
    smaller = np.minimum(aa, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(smaller > 0, inter / smaller, 0.0)


def remove_overlap_blocks(boxes: np.ndarray, labels: list[str], threshold: float = 0.5) -> np.ndarray:
    """Keep-mask after pairwise overlap dedup (layout_utils.rs:618-700):
    overlap ratio = IoA-over-smaller; when one of the pair is labeled
    'image' and the other is not, the image is dropped; otherwise the
    smaller-area box is dropped. Greedy in index order like the reference."""
    b = np.atleast_2d(np.asarray(boxes, dtype=np.float64))
    n = len(b)
    keep = np.ones(n, dtype=bool)
    if n <= 1:
        return keep
    ratio = ioa_smaller(b, b)
    areas = box_area(b)
    for i in range(n):
        if not keep[i]:
            continue
        for j in range(i + 1, n):
            if not keep[j]:
                continue
            if ratio[i, j] > threshold:
                i_img = labels[i] == "image"
                j_img = labels[j] == "image"
                if i_img != j_img:
                    drop = i if i_img else j
                else:
                    drop = i if areas[i] < areas[j] else j
                keep[drop] = False
                if drop == i:
                    break
    return keep


def assign_to_regions(elem_boxes: np.ndarray, region_boxes: np.ndarray, threshold: float = 0.1) -> np.ndarray:
    """Best-IoA region index per element, -1 when below threshold
    (structure.rs:1899-1958)."""
    a = np.atleast_2d(np.asarray(elem_boxes, dtype=np.float64))
    r = np.atleast_2d(np.asarray(region_boxes, dtype=np.float64))
    if len(a) == 0 or len(r) == 0:
        return np.full(len(a), -1, dtype=np.int64)
    ioa = ioa_matrix(a, r)
    best = ioa.argmax(axis=1)
    out = np.where(ioa[np.arange(len(a)), best] >= threshold, best, -1)
    return out.astype(np.int64)


def page_to_markdown(elements: list[dict]) -> str:
    """Markdown export (structure.rs:227): titles get heading levels from
    their numbering; text elements are paragraphs; images placeholders."""
    parts = []
    for e in sorted(elements, key=lambda x: x.get("order_index", 0)):
        label = e.get("label", "text")
        text = e.get("text", "")
        if label in ("doc_title",):
            parts.append(f"# {text}")
        elif label in ("paragraph_title", "title"):
            level, formatted = format_title_with_level(text)
            parts.append(f"{'#' * level} {formatted}")
        elif label == "image":
            parts.append("![image]()")
        elif label == "table":
            parts.append(text if text.startswith("<") else f"<table>{text}</table>")
        elif label == "seal":  # structure.rs:327-335: image + blockquoted text
            parts.append("![Seal]" + (f"\n> {text}" if text else ""))
        elif label in ("formula", "formula_number"):  # structure.rs:309-316
            parts.append(f"$${text}$$")
        elif text:
            parts.append(text)
    return "\n\n".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# OCR-box splitting (structure.rs:2017-2108 by containers,
# structure.rs:1418-1639 by table cells)
# ---------------------------------------------------------------------------

TEXT_BOX_SPLIT_IOA_THRESHOLD = 0.3   # structure.rs:38
CELL_OVERLAP_IOU_THRESHOLD = 0.5     # structure.rs:30

# container label set for cross-layout splitting (structure.rs:2025-2052)
def detect_seal_text(
    img: np.ndarray,
    seal_blocks: np.ndarray,
    detect_fn,
    min_area: int = 6,
) -> np.ndarray:
    """Seal-text detection path (reference structure.rs:1794
    detect_seal_text): per Seal layout block, clamp-crop the block region,
    run detection INSIDE the crop with the seal preset (the reference's
    seal det uses lower thresholds than general text — limit 736/min,
    thresh .2/.6, unclip 0.5, ocr.rs:264-301; here the lower threshold maps
    to a smaller min_area), translate detected boxes back to page
    coordinates, and order them with sort_poly_boxes (y_min-only raster,
    sorting.rs:100-118 — seal text is curved so the quad-box column logic
    does not apply).

    detect_fn: (crop, min_area) -> (N,4) AABBs in crop coords (the
    detection core; a DB polygon head in production, the deterministic
    stand-in in tests). Returns (M,4,2) float64 quads in page coords,
    y_min-sorted per block, blocks in input order.
    """
    from .geometry import clamp_box
    from .sorting import sort_poly_boxes_indices

    h, w = img.shape[:2]
    quads = []
    for sb in np.atleast_2d(np.asarray(seal_blocks, dtype=np.float64)).reshape(-1, 4):
        x0, y0, x1, y1 = clamp_box(sb, w, h).astype(np.int64)
        if x1 - x0 < 2 or y1 - y0 < 2:
            continue
        boxes = np.asarray(detect_fn(img[y0:y1, x0:x1], min_area), dtype=np.float64)
        if len(boxes) == 0:
            continue
        boxes[:, [0, 2]] += x0
        boxes[:, [1, 3]] += y0
        q = np.stack(
            [boxes[:, [0, 1]], boxes[:, [2, 1]], boxes[:, [2, 3]], boxes[:, [0, 3]]],
            axis=1,
        )
        quads.append(q[sort_poly_boxes_indices(boxes)])
    if not quads:
        return np.zeros((0, 4, 2), dtype=np.float64)
    return np.concatenate(quads, axis=0)


CONTAINER_LABELS = frozenset({
    "doc_title", "paragraph_title", "text", "content", "abstract", "header",
    "footer", "footnote", "number", "reference", "reference_content",
    "algorithm", "aside_text", "list", "figure_title", "table_title",
    "chart_title", "figure_table_chart_title",
})


def split_boxes_by_containers(
    det_boxes: np.ndarray,
    container_boxes: np.ndarray,
    ioa_threshold: float = TEXT_BOX_SPLIT_IOA_THRESHOLD,
) -> np.ndarray:
    """Cross-layout re-recognition split (structure.rs:2017-2108): a text
    detection box that materially intersects >= 2 container (layout/region)
    boxes is replaced by its per-container intersections; otherwise kept.
    'Materially' = intersection w > 2 AND h > 2 AND inter/self_area >= 0.3.
    Returns the new (M, 4) box array (M >= N is possible)."""
    db = np.atleast_2d(np.asarray(det_boxes, dtype=np.float64)).reshape(-1, 4)
    cb = np.atleast_2d(np.asarray(container_boxes, dtype=np.float64)).reshape(-1, 4)
    if len(db) == 0 or len(cb) == 0:
        return db
    out = []
    for box in db:
        self_area = (box[2] - box[0]) * (box[3] - box[1])
        if self_area <= 0:
            out.append(box)
            continue
        inters = []
        for c in cb:
            x0 = max(box[0], c[0]); y0 = max(box[1], c[1])
            x1 = min(box[2], c[2]); y1 = min(box[3], c[3])
            if x1 - x0 <= 2.0 or y1 - y0 <= 2.0:
                continue
            ia = (x1 - x0) * (y1 - y0)
            if ia <= 0:
                continue
            if ia / self_area >= ioa_threshold:
                inters.append([x0, y0, x1, y1])
        if len(inters) >= 2:
            out.extend(inters)
        else:
            out.append(box)
    return np.asarray(out, dtype=np.float64).reshape(-1, 4)


def get_overlapping_cells(ocr_box: np.ndarray, cells: np.ndarray,
                          threshold: float = CELL_OVERLAP_IOU_THRESHOLD) -> np.ndarray:
    """Indices of cells with intersection/cell_area > threshold, sorted by
    cell x0 left-to-right (structure.rs:1466-1486)."""
    ob = np.asarray(ocr_box, dtype=np.float64)
    cb = np.atleast_2d(np.asarray(cells, dtype=np.float64)).reshape(-1, 4)
    if len(cb) == 0:
        return np.zeros(0, dtype=np.int64)
    x0 = np.maximum(ob[0], cb[:, 0]); y0 = np.maximum(ob[1], cb[:, 1])
    x1 = np.minimum(ob[2], cb[:, 2]); y1 = np.minimum(ob[3], cb[:, 3])
    inter = np.maximum(x1 - x0, 0) * np.maximum(y1 - y0, 0)
    inter = np.where((x1 <= x0) | (y1 <= y0), 0.0, inter)
    cell_area = (cb[:, 2] - cb[:, 0]) * (cb[:, 3] - cb[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cell_area > 0, inter / cell_area, 0.0)
    idx = np.flatnonzero(ratio > threshold)
    return idx[np.argsort(cb[idx, 0], kind="stable")]


def split_box_by_cells(ocr_box: np.ndarray, cell_indices: np.ndarray,
                       cells: np.ndarray) -> np.ndarray:
    """Split one OCR box horizontally at cell boundaries
    (structure.rs:1488-1544): leading segment, per-cell clamped segments,
    inter-cell gap segments, trailing segment; exact-duplicate boxes
    dropped (first occurrence kept)."""
    ob = np.asarray(ocr_box, dtype=np.float64)
    cb = np.atleast_2d(np.asarray(cells, dtype=np.float64)).reshape(-1, 4)
    if len(cell_indices) == 0:
        return ob.reshape(1, 4)
    cs = cb[np.asarray(cell_indices, dtype=np.int64)]
    segs = []
    if ob[0] < cs[0][0]:
        segs.append([ob[0], ob[1], cs[0][0], ob[3]])
    for i, cell in enumerate(cs):
        segs.append([max(ob[0], cell[0]), ob[1], min(ob[2], cell[2]), ob[3]])
        if i + 1 < len(cs) and cell[2] < cs[i + 1][0]:
            segs.append([cell[2], ob[1], cs[i + 1][0], ob[3]])
    if cs[-1][2] < ob[2]:
        segs.append([cs[-1][2], ob[1], ob[2], ob[3]])
    seen = set()
    unique = []
    for s in segs:
        # f32 BIT-PATTERN key, exactly structure.rs:1529-1543's
        # to_bits() HashSet: collapses f64-distinct-but-f32-equal coords
        # and keeps -0.0 / +0.0 as distinct entries
        key = np.asarray(s, dtype=np.float32).tobytes()
        if key not in seen:
            seen.add(key)
            unique.append(s)
    return np.asarray(unique, dtype=np.float64).reshape(-1, 4)


def split_ocr_by_table_cells(
    ocr_boxes: np.ndarray,
    cell_boxes: np.ndarray,
    threshold: float = CELL_OVERLAP_IOU_THRESHOLD,
    k_min_cells: int = 2,
):
    """Table-cell OCR splitting, geometry side (structure.rs:1418-1639):
    for each OCR box overlapping >= k_min_cells cells, replace it with its
    cell-boundary split segments (the pipeline re-recognizes each segment's
    crop). Returns (new_boxes (M,4), src_index (M,) int mapping each output
    box to its input OCR box, was_split (M,) bool)."""
    ob = np.atleast_2d(np.asarray(ocr_boxes, dtype=np.float64)).reshape(-1, 4)
    cb = np.atleast_2d(np.asarray(cell_boxes, dtype=np.float64)).reshape(-1, 4)
    # drop degenerate cells (structure.rs:1433-1437)
    if len(cb):
        cb = cb[(cb[:, 2] > cb[:, 0]) & (cb[:, 3] > cb[:, 1])]
    out_boxes, src, was_split = [], [], []
    for i, box in enumerate(ob):
        overlapping = get_overlapping_cells(box, cb, threshold) if len(cb) else np.zeros(0, np.int64)
        if len(overlapping) < k_min_cells:
            out_boxes.append(box)
            src.append(i)
            was_split.append(False)
            continue
        for seg in split_box_by_cells(box, overlapping, cb):
            out_boxes.append(seg)
            src.append(i)
            was_split.append(True)
    return (np.asarray(out_boxes, dtype=np.float64).reshape(-1, 4),
            np.asarray(src, dtype=np.int64),
            np.asarray(was_split, dtype=bool))


# ---------------------------------------------------------------------------
# HTML export (domain/structure.rs:397-532 to_html)
# ---------------------------------------------------------------------------

def escape_html(text: str) -> str:
    """domain/structure.rs:535-541."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#39;"))


def page_to_html(elements: list[dict]) -> str:
    """HTML export (domain/structure.rs:397-532): semantic tags per element
    type in reading order, text HTML-escaped; tables embed their html
    structure (border-styled) when present."""
    parts = ["<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"UTF-8\">\n</head>\n<body>\n"]
    for e in sorted(elements, key=lambda x: x.get("order_index", 0)):
        label = e.get("label", "text")
        text = e.get("text", "") or ""
        if label == "doc_title":
            parts.append(f"<h1>{escape_html(text)}</h1>\n")
        elif label in ("paragraph_title", "title"):
            parts.append(f"<h2>{escape_html(text)}</h2>\n")
        elif label == "table":
            html_structure = e.get("html", "")
            if html_structure:
                parts.append(html_structure.replace(
                    "<table>", "<table border=\"1\" style=\"border-collapse: collapse;\">") + "\n")
            else:
                parts.append("<p>[Table]</p>\n")
        elif label in ("formula", "formula_number"):
            parts.append(f"<p class=\"formula\">$${escape_html(text)}$$</p>\n")
        elif label in ("image", "chart"):
            cap = f"<figcaption>{escape_html(text)}</figcaption>\n" if text else ""
            parts.append(f"<figure>\n<img alt=\"Figure\" />\n{cap}</figure>\n")
        elif label == "seal":
            cap = f"<figcaption>{escape_html(text)}</figcaption>\n" if text else ""
            parts.append(f"<figure class=\"seal\">\n<img alt=\"Seal\" />\n{cap}</figure>\n")
        elif label == "abstract":
            parts.append(f"<section class=\"abstract\">\n<h3>Abstract</h3>\n<p>{escape_html(text)}</p>\n</section>\n")
        elif label in ("reference", "reference_content"):
            parts.append(f"<section class=\"references\">\n<p>{escape_html(text)}</p>\n</section>\n")
        elif label == "list":
            items = "".join(f"<li>{escape_html(ln)}</li>\n" for ln in text.splitlines())
            parts.append(f"<ul>\n{items}</ul>\n")
        elif label in ("header", "header_image"):
            parts.append(f"<header>{escape_html(text)}</header>\n")
        elif label in ("footer", "footer_image", "footnote"):
            parts.append(f"<footer>{escape_html(text)}</footer>\n")
        elif text:
            parts.append(f"<p>{escape_html(text)}</p>\n")
    parts.append("</body>\n</html>")
    return "".join(parts)


def stitch_page_enhanced(
    layout_boxes: np.ndarray,
    layout_labels: list[str],
    layout_scores: np.ndarray,
    ocr_boxes: np.ndarray,
    ocr_texts: list[str],
    *,
    page_w: float,
    page_h: float,
    overlap_threshold: float = 0.5,
    orphan_table_ioa: float = 0.3,
    table_html: list | None = None,
    region_boxes: np.ndarray | None = None,
    formulas: list[dict] | None = None,
) -> list[dict]:
    """Per-page stitch with the ENHANCED reading order (the PP-StructureV3
    flow, structure.rs:2271-2468 + layout_sorting.rs): overlap-dedup the
    layout elements, smart-join each one's matched OCR texts, turn orphan
    OCR texts outside tables into Text elements, then order them by
    sort_layout_enhanced (header-first, footer-last, XY-cut text core,
    weighted-distance title/vision insertion).

    table_html (aligned with layout_boxes, None per non-wired entry): a
    wired table's analyzed HTML structure replaces the smart-joined text
    (the markdown/html exporters embed it, stitching.rs table path).

    region_boxes: detected region blocks (PP-DocBlockLayout). When present,
    ordering switches to the HIERARCHICAL order — regions XY-cut, elements
    XY-cut within their assigned region, unassigned appended last
    (structure.rs:2304-2307 assign_region_block_membership + 'stitching
    preserves the hierarchical order', sorting.rs:612-739)."""
    from .sorting import sort_layout_enhanced, sort_with_region_hierarchy

    lb = np.atleast_2d(np.asarray(layout_boxes, dtype=np.float64)).reshape(-1, 4)
    ob = np.atleast_2d(np.asarray(ocr_boxes, dtype=np.float64)).reshape(-1, 4)
    keep = remove_overlap_blocks(lb, list(layout_labels), overlap_threshold) if len(lb) else np.zeros(0, bool)
    orig_idx = np.flatnonzero(keep)
    lb = lb[keep]
    labels = [l for l, k in zip(layout_labels, keep) if k]
    scores = np.asarray(layout_scores, dtype=np.float64)[keep] if len(keep) else np.zeros(0)

    match = overlap_match(ob, lb)
    elements: list[dict] = []
    for j in range(len(lb)):
        idxs = np.flatnonzero(match[:, j])
        html = table_html[int(orig_idx[j])] if table_html is not None else None
        if html:
            text = html
        else:
            text = smart_join(
                [ocr_texts[i] for i in idxs], ob[idxs] if len(idxs) else np.zeros((0, 4)),
                container=tuple(lb[j]),
            ) if len(idxs) else ""
        if labels[j] in ("formula", "formula_number") and text:
            # formula recognition output path: decoded latex normalized
            # (pp_formulanet.rs decode -> normalize_latex)
            from .formula import normalize_latex

            text = normalize_latex(text)
        e = {"bbox": lb[j].tolist(), "label": labels[j], "score": float(scores[j]), "text": text}
        if html:
            e["html"] = html
        elements.append(e)

    matched_any = match.any(axis=1) if match.size else np.zeros(len(ob), bool)
    table_boxes = lb[[i for i, l in enumerate(labels) if l == "table"]] if len(lb) else np.zeros((0, 4))
    for i in np.flatnonzero(~matched_any):
        if not ocr_texts[i]:
            continue
        if len(table_boxes) and ioa_matrix(ob[i:i + 1], table_boxes).max() > orphan_table_ioa:
            continue
        elements.append(
            {"bbox": ob[i].tolist(), "label": "text", "score": 0.0, "text": ocr_texts[i]}
        )

    if not elements:
        return []
    if formulas:
        # separate formula-recognition stream: best-IoU>0.5 latex fill
        # (stitching.rs:232-251), before ordering like the reference
        fill_formula_content(elements, formulas)
    all_boxes = np.array([e["bbox"] for e in elements])
    all_labels = [e["label"] for e in elements]
    rb = (np.atleast_2d(np.asarray(region_boxes, dtype=np.float64)).reshape(-1, 4)
          if region_boxes is not None else np.zeros((0, 4)))
    if len(rb):
        order = sort_with_region_hierarchy(all_boxes, rb, 0.1)
    else:
        order = sort_layout_enhanced(all_boxes, all_labels, page_w, page_h)
    ordered = []
    for rank, idx in enumerate(order):
        e = elements[int(idx)]
        e["order_index"] = rank
        ordered.append(e)
    return ordered


def fill_formula_content(elements: list[dict], formulas: list[dict]) -> None:
    """Fill formula layout elements from a SEPARATE formula-result stream
    (reference stitching.rs:232-251 fill_formula_content): for every
    element whose label is a formula type, take the formula result with
    the highest IoU among those with IoU > 0.5 and set element['text'] to
    its (normalized) latex. Elements without a qualifying match keep their
    existing text. In-place, vectorized (one IoU matrix)."""
    from .formula import normalize_latex
    from .geometry import iou_matrix

    idxs = [i for i, e in enumerate(elements)
            if e.get("label") in ("formula", "formula_number")]
    if not idxs or not formulas:
        return
    eb = np.asarray([elements[i]["bbox"] for i in idxs], dtype=np.float64)
    fb = np.asarray([f["bbox"] for f in formulas], dtype=np.float64)
    iou = iou_matrix(eb, fb)  # (n_formula_elements, n_results)
    best = iou.argmax(axis=1)
    for k, i in enumerate(idxs):
        if iou[k, best[k]] > 0.5:
            elements[i]["text"] = normalize_latex(str(formulas[best[k]]["latex"]))


def compute_table_htmls(lb, labels, cells, ob, texts):
    """Per-layout-block table HTML (None for non-tables): the cells inside
    each table block plus the block's matched OCR lines run through
    table.analyze_table. Shared by the golden oracle (ground-truth inputs)
    and the pipeline stage (detected inputs).

    Wired tables (ruled cells detected) use the cell grid. WIRELESS tables
    (no ruled cells, >= 2 matched lines) use the stand-in for the wireless
    SLANet path: the matched LINE boxes themselves act as pseudo-cells —
    the grid structure is inferred from content layout, exactly the
    wireless model's job (table_analyzer.rs wireless branch)."""
    from .table import analyze_table

    lb = np.atleast_2d(np.asarray(lb, dtype=np.float64)).reshape(-1, 4)
    cells = np.atleast_2d(np.asarray(cells, dtype=np.float64)).reshape(-1, 4)
    ob = np.atleast_2d(np.asarray(ob, dtype=np.float64)).reshape(-1, 4)
    table_html: list = [None] * len(lb)
    if len(lb) == 0:
        return table_html
    match = overlap_match(ob, lb)
    for j, label in enumerate(labels):
        if label != "table":
            continue
        idxs = np.flatnonzero(match[:, j]) if match.size else np.zeros(0, np.int64)
        if len(cells):
            inside = (
                (cells[:, 0] >= lb[j, 0]) & (cells[:, 1] >= lb[j, 1])
                & (cells[:, 2] <= lb[j, 2]) & (cells[:, 3] <= lb[j, 3])
            )
            tcells = cells[inside]
        else:
            tcells = np.zeros((0, 4))
        if len(tcells) == 0:
            if len(idxs) < 2:
                continue  # too little content to infer structure: text path
            tcells = ob[idxs]  # wireless: lines are the pseudo-cells
        table_html[j] = analyze_table(tcells, ob[idxs], [texts[i] for i in idxs])
    return table_html


def fallback_ocr_blocks(
    layout_boxes: np.ndarray,
    layout_labels: list[str],
    ocr_boxes: np.ndarray,
    min_px: float = 3.0,
) -> np.ndarray:
    """Indices of layout blocks needing LAYOUT-BBOX FALLBACK OCR
    (structure.rs:1337-1395): blocks that are not image/chart and have NO
    text region overlapping by more than min_px in both axes. The pipeline
    crops each such block and runs recognition on the whole crop."""
    lb = np.atleast_2d(np.asarray(layout_boxes, dtype=np.float64)).reshape(-1, 4)
    if len(lb) == 0:
        return np.zeros(0, dtype=np.int64)
    eligible = np.array([l not in ("image", "chart") for l in layout_labels])
    has_text = overlap_match(ocr_boxes, lb, min_px).any(axis=0) if len(
        np.atleast_2d(np.asarray(ocr_boxes)).reshape(-1, 4)) else np.zeros(len(lb), bool)
    return np.flatnonzero(eligible & ~has_text).astype(np.int64)
