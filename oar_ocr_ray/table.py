"""Table-structure operators: HTML rendering, OCR -> cell assignment, cell
reconciliation and the grid stand-in for table analysis.

Pure per-table functions (used inside `map_batches` over table rows)
reimplementing the semantics of the reference's:
  - src/processors/table_structure_decode.rs:37-390 (wrap_table_html /
    wrap_table_html_with_content: structure tokens -> HTML);
  - src/oarocr/stitching.rs:319-357 (OCR -> cell greedy min-cost
    assignment, cost = (1 - IoU, L1 center distance));
  - src/processors/layout_utils.rs:255-578 (cell reconciliation).
"""

from __future__ import annotations

import re

import numpy as np

from .geometry import iou_matrix

_SPAN_RE = re.compile(r'(colspan|rowspan)\s*=\s*"?(\d+)"?')


def _td_attrs(tokens: list[str], idx: int) -> tuple[str, int, int, int]:
    """Parse a <td...> opening at tokens[idx]; supports the single-token form
    '<td colspan="2"></td>' and the split form '<td', ' colspan="2"', '>'
    (optionally followed by '</td>'). Returns (attrs, colspan, rowspan,
    next_index past the cell)."""
    tok = tokens[idx]
    if tok.endswith("</td>"):  # single token cell
        inner = tok[len("<td"):tok.index(">")]
        spans = dict((m.group(1), int(m.group(2))) for m in _SPAN_RE.finditer(inner))
        return inner, spans.get("colspan", 1), spans.get("rowspan", 1), idx + 1
    # split form: accumulate until '>'
    attrs = tok[len("<td"):]
    j = idx + 1
    while j < len(tokens) and ">" not in tokens[j - 1] and tokens[j] != ">":
        if tokens[j].startswith("</td"):
            break
        attrs += tokens[j]
        j += 1
    if j < len(tokens) and tokens[j] == ">":
        j += 1
    if j < len(tokens) and tokens[j] == "</td>":
        j += 1
    spans = dict((m.group(1), int(m.group(2))) for m in _SPAN_RE.finditer(attrs))
    return attrs.rstrip(">"), spans.get("colspan", 1), spans.get("rowspan", 1), j


def render_table_html(tokens: list[str], cell_texts: list[str | None] | None = None) -> str:
    """Tokens -> '<html><body><table>...</table></body></html>' with cell
    texts filled by td order (wrap_table_html[_with_content] semantics)."""
    out: list[str] = ["<html><body>"]
    has_table = bool(tokens) and "<table" in tokens[0]
    if not has_table:
        out.append("<table>")
    td_index = 0
    idx = 0
    while idx < len(tokens):
        tok = tokens[idx]
        if tok == "<td></td>":
            out.append("<td>")
            if cell_texts and td_index < len(cell_texts) and cell_texts[td_index]:
                out.append(cell_texts[td_index])
            out.append("</td>")
            td_index += 1
            idx += 1
            continue
        if tok.startswith("<td"):
            attrs, _c, _r, nxt = _td_attrs(tokens, idx)
            out.append(f"<td{attrs}>")
            if cell_texts and td_index < len(cell_texts) and cell_texts[td_index]:
                out.append(cell_texts[td_index])
            out.append("</td>")
            td_index += 1
            idx = nxt
            continue
        out.append(tok)
        idx += 1
    if not has_table:
        out.append("</table>")
    out.append("</body></html>")
    return "".join(out)


def assign_ocr_to_cells(ocr_boxes: np.ndarray, cell_boxes: np.ndarray) -> np.ndarray:
    """Per OCR box: best cell index by min cost (1 - IoU, L1 center
    distance); -1 when no cell has IoU > 0 (stitching.rs:319-357)."""
    a = np.atleast_2d(np.asarray(ocr_boxes, dtype=np.float64)).reshape(-1, 4)
    b = np.atleast_2d(np.asarray(cell_boxes, dtype=np.float64)).reshape(-1, 4)
    if len(a) == 0 or len(b) == 0:
        return np.full(len(a), -1, dtype=np.int64)
    iou = iou_matrix(a, b)
    ca = np.stack([(a[:, 0] + a[:, 2]) / 2, (a[:, 1] + a[:, 3]) / 2], axis=1)
    cb = np.stack([(b[:, 0] + b[:, 2]) / 2, (b[:, 1] + b[:, 3]) / 2], axis=1)
    dist = np.abs(ca[:, None, :] - cb[None, :, :]).sum(axis=2)
    out = np.full(len(a), -1, dtype=np.int64)
    for i in range(len(a)):
        cand = np.flatnonzero(iou[i] > 0)
        if len(cand) == 0:
            continue
        costs = sorted(((1.0 - iou[i, j], dist[i, j], j) for j in cand))
        out[i] = costs[0][2]
    return out


# ---------------------------------------------------------------------------
# Cell reconciliation (layout_utils.rs:255-578)
# ---------------------------------------------------------------------------

def combine_rectangles_kmeans(rects: np.ndarray, target_n: int) -> np.ndarray:
    """Reduce rectangles to <= target_n by KMeans-style clustering on box
    centers, each cluster replaced by its members' bounding-box union
    (layout_utils.rs:431-533: first-N init, 10 Lloyd iterations, empty
    clusters dropped; empty result falls back to the input)."""
    r = np.atleast_2d(np.asarray(rects, dtype=np.float64)).reshape(-1, 4)
    n = len(r)
    if n == 0 or target_n == 0:
        return np.zeros((0, 4))
    if target_n >= n:
        return r
    pts = np.stack([(r[:, 0] + r[:, 2]) / 2, (r[:, 1] + r[:, 3]) / 2], axis=1)
    centers = pts[:target_n].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(10):
        d = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d.argmin(axis=1)
        changed = (new_labels != labels).any()
        labels = new_labels
        for c in range(target_n):
            members = pts[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
        if not changed:
            break
    out = []
    for c in range(target_n):
        members = r[labels == c]
        if len(members):
            out.append([members[:, 0].min(), members[:, 1].min(),
                        members[:, 2].max(), members[:, 3].max()])
    return np.asarray(out).reshape(-1, 4) if out else r


def reconcile_table_cells(structure_cells: np.ndarray, detected_cells: np.ndarray) -> np.ndarray:
    """Reconcile SLANet structure cells with detected cell boxes
    (layout_utils.rs:255-320): detections reduced by kmeans when too many,
    each assigned to its best-IoU (> 0.001) structure cell; per structure
    cell -> keep original (no match) / the detection (one) / union (many)."""
    sc = np.atleast_2d(np.asarray(structure_cells, dtype=np.float64)).reshape(-1, 4)
    dc = np.atleast_2d(np.asarray(detected_cells, dtype=np.float64)).reshape(-1, 4)
    n = len(sc)
    if n == 0:
        return np.zeros((0, 4))
    if len(dc) == 0:
        return sc.copy()
    if len(dc) > n:
        dc = combine_rectangles_kmeans(dc, n)
    iou = iou_matrix(dc, sc)
    out = sc.copy()
    assigned: list[list[int]] = [[] for _ in range(n)]
    for di in range(len(dc)):
        j = int(iou[di].argmax())
        if iou[di, j] > 0.001:
            assigned[j].append(di)
    for j, ids in enumerate(assigned):
        if len(ids) == 1:
            out[j] = dc[ids[0]]
        elif len(ids) > 1:
            m = dc[ids]
            out[j] = [m[:, 0].min(), m[:, 1].min(), m[:, 2].max(), m[:, 3].max()]
    return out


# ---------------------------------------------------------------------------
# Cell grid -> structure tokens + full table analysis (the stand-in for the
# SLANet forward pass + TableAnalyzer, table_analyzer.rs / slanet.rs)
# ---------------------------------------------------------------------------

def cluster_cells_to_grid(cell_boxes: np.ndarray):
    """Group cell boxes into rows by y-center (tolerance = half the median
    cell height), each row sorted by x0. Returns list of rows, each a list
    of original indices — row-major <td> order."""
    cb = np.atleast_2d(np.asarray(cell_boxes, dtype=np.float64)).reshape(-1, 4)
    if len(cb) == 0:
        return []
    cy = (cb[:, 1] + cb[:, 3]) / 2
    tol = max(float(np.median(cb[:, 3] - cb[:, 1])) / 2, 1.0)
    order = np.argsort(cy, kind="stable")
    rows: list[list[int]] = []
    row_y = None
    for i in order:
        if row_y is None or cy[i] - row_y > tol:
            rows.append([int(i)])
            row_y = cy[i]
        else:
            rows[-1].append(int(i))
    for row in rows:
        row.sort(key=lambda i: (cb[i, 0], cb[i, 1]))
    return rows


def grid_to_structure_tokens(rows: list[list[int]]) -> list[str]:
    """Rows-of-cells -> SLANet-style structure tokens (<tr>/<td></td>)."""
    tokens: list[str] = []
    for row in rows:
        tokens.append("<tr>")
        tokens.extend(["<td></td>"] * len(row))
        tokens.append("</tr>")
    return tokens


def analyze_table(
    cell_boxes: np.ndarray,
    ocr_boxes: np.ndarray,
    ocr_texts: list[str],
) -> str:
    """Full wired-table analysis from detected cells + table-matched OCR
    lines (TableAnalyzer semantics with the deterministic grid stand-in):
    cluster cells to a row-major grid, derive structure tokens, reconcile
    the uniform structure grid against the detections
    (reconcile_table_cells), assign OCR lines to reconciled cells
    (min-cost), and render the content-filled HTML."""
    cb = np.atleast_2d(np.asarray(cell_boxes, dtype=np.float64)).reshape(-1, 4)
    rows = cluster_cells_to_grid(cb)
    if not rows:
        return ""
    tokens = grid_to_structure_tokens(rows)
    ordered = cb[[i for row in rows for i in row]]
    # uniform structure grid over the cells' extent = the "SLANet" cell
    # boxes; reconcile maps each detected cell onto it (exercises the
    # kmeans/compress/fill paths when detection is noisy)
    x0, y0 = cb[:, 0].min(), cb[:, 1].min()
    x1, y1 = cb[:, 2].max(), cb[:, 3].max()
    grid = []
    n_rows = len(rows)
    for r, row in enumerate(rows):
        n_cols = len(row)
        for c in range(n_cols):
            grid.append([
                x0 + (x1 - x0) * c / n_cols, y0 + (y1 - y0) * r / n_rows,
                x0 + (x1 - x0) * (c + 1) / n_cols, y0 + (y1 - y0) * (r + 1) / n_rows,
            ])
    cells = reconcile_table_cells(np.asarray(grid), ordered)

    ob = np.atleast_2d(np.asarray(ocr_boxes, dtype=np.float64)).reshape(-1, 4)
    assign = assign_ocr_to_cells(ob, cells)
    cell_texts: list[str] = ["" for _ in range(len(cells))]
    for i, j in enumerate(assign):
        if j >= 0 and ocr_texts[i]:
            cell_texts[j] = f"{cell_texts[j]} {ocr_texts[i]}".strip()
    return render_table_html(tokens, cell_texts)
