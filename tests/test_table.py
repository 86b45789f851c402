"""Table structure decode / assignment tests (reference:
table_structure_decode.rs + stitching.rs cell logic)."""

import numpy as np

from oar_ocr_ray.table import (
    assign_ocr_to_cells,
    render_table_html,
)


def test_render_html_with_content():
    tokens = ["<tr>", "<td></td>", "<td></td>", "</tr>"]
    html = render_table_html(tokens, ["Cell 1", "Cell 2"])
    assert html.startswith("<html><body><table>")
    assert "<td>Cell 1</td>" in html and "<td>Cell 2</td>" in html
    assert html.endswith("</table></body></html>")
    # without content: empty cells
    assert "<td></td>" in render_table_html(tokens)


def test_render_html_attrs_preserved():
    tokens = ["<tr>", '<td colspan="2"></td>', "</tr>"]
    html = render_table_html(tokens, ["X"])
    assert '<td colspan="2">X</td>' in html


def test_assign_ocr_to_cells():
    cells = np.array([[0, 0, 50, 50], [50, 0, 100, 50]])
    ocr = np.array([[10, 10, 40, 40], [60, 10, 90, 40], [200, 200, 210, 210]])
    out = assign_ocr_to_cells(ocr, cells)
    assert out.tolist() == [0, 1, -1]


def test_assign_prefers_higher_iou_then_distance():
    cells = np.array([[0, 0, 50, 50], [0, 0, 100, 100]])
    ocr = np.array([[5, 5, 45, 45]])
    # IoU with cell 0 (0.64) > IoU with cell 1 (0.16) -> cell 0
    assert assign_ocr_to_cells(ocr, cells).tolist() == [0]


# --- round-2 table front half (layout_utils.rs:255-578 + TableAnalyzer) ---

def test_combine_rectangles_kmeans_reduces():
    import numpy as np

    from oar_ocr_ray.table import combine_rectangles_kmeans

    rects = np.array([
        [0, 0, 10, 10], [1, 1, 11, 11],      # cluster A
        [100, 100, 110, 110], [101, 99, 111, 109],  # cluster B
    ], dtype=float)
    out = combine_rectangles_kmeans(rects, 2)
    assert len(out) == 2
    assert [0.0, 0.0, 11.0, 11.0] in out.tolist()
    assert [100.0, 99.0, 111.0, 110.0] in out.tolist()


def test_combine_rectangles_kmeans_identity_when_enough():
    import numpy as np

    from oar_ocr_ray.table import combine_rectangles_kmeans

    rects = np.array([[0, 0, 10, 10]], dtype=float)
    assert combine_rectangles_kmeans(rects, 5).tolist() == rects.tolist()


def test_reconcile_table_cells_paths():
    import numpy as np

    from oar_ocr_ray.table import reconcile_table_cells

    structure = np.array([[0, 0, 10, 10], [20, 0, 30, 10], [40, 0, 50, 10]], dtype=float)
    detected = np.array([
        [1, 1, 9, 9],              # matches cell 0 -> replaced by detection
        [19, 0, 26, 10], [25, 0, 31, 10],  # both match cell 1 -> union
    ], dtype=float)
    out = reconcile_table_cells(structure, detected)
    assert out[0].tolist() == [1, 1, 9, 9]
    assert out[1].tolist() == [19, 0, 31, 10]
    assert out[2].tolist() == [40, 0, 50, 10]  # no match -> structure kept


def test_cluster_cells_to_grid_row_major():
    import numpy as np

    from oar_ocr_ray.table import cluster_cells_to_grid

    cells = np.array([
        [30, 20, 50, 30],  # row 1, col 1
        [0, 0, 20, 10],    # row 0, col 0
        [30, 0, 50, 10],   # row 0, col 1
        [0, 21, 20, 31],   # row 1, col 0
    ], dtype=float)
    rows = cluster_cells_to_grid(cells)
    assert rows == [[1, 2], [3, 0]]


def test_analyze_table_fills_cells():
    import numpy as np

    from oar_ocr_ray.table import analyze_table

    cells = np.array([
        [0, 0, 20, 10], [30, 0, 50, 10],
        [0, 20, 20, 30], [30, 20, 50, 30],
    ], dtype=float)
    ocr = np.array([[1, 1, 18, 9], [31, 21, 49, 29]], dtype=float)
    html = analyze_table(cells, ocr, ["topleft", "botright"])
    assert html.count("<tr>") == 2 and html.count("<td>") == 4
    assert "<td>topleft</td>" in html
    assert "<td>botright</td>" in html
    # empty cells stay empty
    assert html.count("<td></td>") == 2
