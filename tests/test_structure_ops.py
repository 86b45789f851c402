"""Reference-parity vectors for the round-2 structure operators: OCR-box
splitting by containers (structure.rs:2017-2108) and by table cells
(structure.rs:1418-1639), enhanced layout sort (layout_sorting.rs:14-471),
region-hierarchy sort (sorting.rs:612-739), HTML export
(domain/structure.rs:397-532)."""

import numpy as np

from oar_ocr_ray.geometry import iou_matrix
from oar_ocr_ray.sorting import sort_layout_enhanced, sort_with_region_hierarchy
from oar_ocr_ray.structure import (
    escape_html,
    get_overlapping_cells,
    page_to_html,
    split_box_by_cells,
    split_boxes_by_containers,
    split_ocr_by_table_cells,
)


# --- IoU vectors (layout_postprocess.rs tests:722-745) ---

def test_iou_identical_boxes():
    b = np.array([[0.0, 0.0, 100.0, 100.0]])
    assert iou_matrix(b, b)[0, 0] == 1.0


def test_iou_disjoint_boxes():
    a = np.array([[0.0, 0.0, 100.0, 100.0]])
    b = np.array([[200.0, 200.0, 300.0, 300.0]])
    assert iou_matrix(a, b)[0, 0] == 0.0


# --- split by containers (structure.rs:2017-2108) ---

def test_split_by_containers_two_columns():
    # one det box spanning two text containers -> split into 2 intersections
    det = np.array([[0.0, 0.0, 100.0, 10.0]])
    containers = np.array([[0.0, 0.0, 45.0, 50.0], [55.0, 0.0, 100.0, 50.0]])
    out = split_boxes_by_containers(det, containers)
    assert out.tolist() == [[0.0, 0.0, 45.0, 10.0], [55.0, 0.0, 100.0, 10.0]]


def test_split_by_containers_single_overlap_kept():
    det = np.array([[0.0, 0.0, 40.0, 10.0]])
    containers = np.array([[0.0, 0.0, 45.0, 50.0], [55.0, 0.0, 100.0, 50.0]])
    out = split_boxes_by_containers(det, containers)
    assert out.tolist() == [[0.0, 0.0, 40.0, 10.0]]  # <2 material intersections


def test_split_by_containers_ioa_threshold():
    # second intersection below 0.3 of self area -> not material -> kept whole
    det = np.array([[0.0, 0.0, 100.0, 10.0]])
    containers = np.array([[0.0, 0.0, 80.0, 50.0], [90.0, 0.0, 100.0, 50.0]])
    out = split_boxes_by_containers(det, containers)
    assert out.tolist() == [[0.0, 0.0, 100.0, 10.0]]  # 10/100 = 0.1 < 0.3


def test_split_by_containers_min_px_rule():
    # intersection thinner than 2px is skipped entirely (<= 2.0 rule)
    det = np.array([[0.0, 0.0, 100.0, 10.0]])
    containers = np.array([[0.0, 0.0, 1.5, 50.0], [2.0, 0.0, 100.0, 50.0]])
    out = split_boxes_by_containers(det, containers)
    assert out.tolist() == [[0.0, 0.0, 100.0, 10.0]]


# --- split by table cells (structure.rs:1418-1639) ---

def test_get_overlapping_cells_sorted_left_to_right():
    ocr = np.array([0.0, 0.0, 100.0, 10.0])
    cells = np.array([[60.0, 0.0, 90.0, 10.0], [5.0, 0.0, 40.0, 10.0]])
    idx = get_overlapping_cells(ocr, cells)
    assert idx.tolist() == [1, 0]  # sorted by cell x0


def test_split_box_by_cells_segments():
    # leading + cell + gap + cell + trailing
    ocr = np.array([0.0, 0.0, 100.0, 10.0])
    cells = np.array([[10.0, 0.0, 40.0, 10.0], [60.0, 0.0, 80.0, 10.0]])
    segs = split_box_by_cells(ocr, np.array([0, 1]), cells)
    assert segs.tolist() == [
        [0.0, 0.0, 10.0, 10.0],    # leading
        [10.0, 0.0, 40.0, 10.0],   # cell 0
        [40.0, 0.0, 60.0, 10.0],   # gap
        [60.0, 0.0, 80.0, 10.0],   # cell 1
        [80.0, 0.0, 100.0, 10.0],  # trailing
    ]


def test_split_box_dedup_uses_f32_bit_pattern():
    # structure.rs:1529-1543 dedups split boxes by the f32 BIT PATTERN of
    # each coordinate: two cells f64-distinct but f32-equal must collapse
    # to one segment (exact duplicates likewise)
    ocr = np.array([0.0, 0.0, 40.0, 10.0])
    eps64 = 30.0 + 1e-9  # != 30.0 in f64, == 30.0 in f32
    assert eps64 != 30.0 and np.float32(eps64) == np.float32(30.0)
    cells = np.array([[0.0, 0.0, 30.0, 10.0], [0.0, 0.0, eps64, 10.0]])
    segs = split_box_by_cells(ocr, np.array([0, 1]), cells)
    # f64-tuple dedup would keep 3 segments ([0,0,30,10], [0,0,30+eps,10],
    # trailing); the f32 bit-pattern key collapses the first two
    assert len(segs) == 2
    assert segs[0].tolist() == [0.0, 0.0, 30.0, 10.0]
    assert segs[1].tolist() == [eps64, 0.0, 40.0, 10.0]
    # literal duplicate cells collapse too
    cells2 = np.array([[0.0, 0.0, 30.0, 10.0], [0.0, 0.0, 30.0, 10.0]])
    segs2 = split_box_by_cells(ocr, np.array([0, 1]), cells2)
    assert len(segs2) == 2  # one cell segment + the trailing segment


def test_split_ocr_by_table_cells_k_min():
    cells = np.array([[10.0, 0.0, 40.0, 10.0], [60.0, 0.0, 80.0, 10.0]])
    boxes = np.array([
        [0.0, 0.0, 100.0, 10.0],   # spans both cells -> split
        [12.0, 0.0, 38.0, 10.0],   # covers only cell 0 at 0.866 ratio... -> 1 cell -> kept
    ])
    out, src, was_split = split_ocr_by_table_cells(boxes, cells)
    assert (src == 0).sum() == 5 and was_split[src == 0].all()
    kept = out[src == 1]
    assert kept.tolist() == [[12.0, 0.0, 38.0, 10.0]]
    assert not was_split[src == 1].any()


def test_split_ocr_degenerate_cells_dropped():
    cells = np.array([[10.0, 0.0, 10.0, 10.0]])  # zero width
    boxes = np.array([[0.0, 0.0, 100.0, 10.0]])
    out, src, was_split = split_ocr_by_table_cells(boxes, cells)
    assert out.tolist() == boxes.tolist() and not was_split.any()


# --- enhanced layout sort (layout_sorting.rs) ---

def test_sort_layout_enhanced_header_first_footer_last():
    boxes = np.array([
        [10.0, 280.0, 200.0, 295.0],  # footer
        [10.0, 100.0, 200.0, 150.0],  # text
        [10.0, 5.0, 200.0, 20.0],     # header
        [10.0, 40.0, 200.0, 60.0],    # doc_title
    ])
    labels = ["footer", "text", "header", "doc_title"]
    order = sort_layout_enhanced(boxes, labels, 210.0, 300.0)
    assert order[0] == 2 and order[-1] == 0
    # doc_title above the text block -> inserted before it
    assert list(order) == [2, 3, 1, 0]


def test_sort_layout_enhanced_vision_anchor_insertion():
    boxes = np.array([
        [10.0, 10.0, 200.0, 60.0],    # text A (top)
        [10.0, 150.0, 200.0, 200.0],  # text B (bottom)
        [10.0, 80.0, 200.0, 130.0],   # table between them
    ])
    labels = ["text", "text", "table"]
    order = sort_layout_enhanced(boxes, labels, 210.0, 220.0)
    assert list(order) == [0, 2, 1]


def test_sort_layout_enhanced_grid_text_row_major():
    # Y-first XY-cut (reference Vertical direction): a full-width horizontal
    # gap splits rows first -> row-major order within the grid
    boxes = np.array([
        [110.0, 10.0, 200.0, 60.0],   # right top
        [10.0, 10.0, 95.0, 60.0],     # left top
        [10.0, 70.0, 95.0, 120.0],    # left bottom
        [110.0, 70.0, 200.0, 120.0],  # right bottom
    ])
    labels = ["text"] * 4
    order = sort_layout_enhanced(boxes, labels, 210.0, 130.0)
    assert list(order) == [1, 0, 2, 3]


def test_sort_layout_enhanced_empty():
    assert sort_layout_enhanced(np.zeros((0, 4)), [], 100.0, 100.0).tolist() == []


# --- region hierarchy sort (sorting.rs:612-739) ---

def test_region_hierarchy_groups_by_region():
    regions = np.array([[0.0, 0.0, 100.0, 100.0], [0.0, 120.0, 100.0, 220.0]])
    elems = np.array([
        [10.0, 130.0, 90.0, 150.0],  # region 1 top
        [10.0, 10.0, 90.0, 30.0],    # region 0 top
        [10.0, 160.0, 90.0, 180.0],  # region 1 bottom
        [10.0, 40.0, 90.0, 60.0],    # region 0 bottom
    ])
    order = sort_with_region_hierarchy(elems, regions, 0.1)
    assert list(order) == [1, 3, 0, 2]


def test_region_hierarchy_unassigned_appended():
    regions = np.array([[0.0, 0.0, 100.0, 100.0]])
    elems = np.array([
        [10.0, 10.0, 90.0, 30.0],      # inside region
        [10.0, 300.0, 90.0, 320.0],    # far outside -> unassigned, appended
    ])
    order = sort_with_region_hierarchy(elems, regions, 0.1)
    assert list(order) == [0, 1]


def test_region_hierarchy_no_regions_falls_back_to_xycut():
    elems = np.array([[10.0, 50.0, 90.0, 70.0], [10.0, 10.0, 90.0, 30.0]])
    order = sort_with_region_hierarchy(elems, np.zeros((0, 4)), 0.1)
    assert list(order) == [1, 0]


# --- HTML export (domain/structure.rs:397-532) ---

def test_escape_html():
    assert escape_html("a<b>&\"c'") == "a&lt;b&gt;&amp;&quot;c&#39;"


def test_page_to_html_semantic_tags():
    elements = [
        {"label": "doc_title", "text": "Ti<tle", "order_index": 0},
        {"label": "text", "text": "body", "order_index": 1},
        {"label": "image", "text": "", "order_index": 2},
        {"label": "footer", "text": "p. 1", "order_index": 3},
    ]
    html = page_to_html(elements)
    assert html.startswith("<!DOCTYPE html>")
    assert "<h1>Ti&lt;tle</h1>" in html
    assert "<p>body</p>" in html
    assert "<figure>\n<img alt=\"Figure\" />\n</figure>" in html
    assert "<footer>p. 1</footer>" in html
    assert html.endswith("</body>\n</html>")
    # reading order respected
    assert html.index("<h1>") < html.index("<p>body") < html.index("<figure>") < html.index("<footer>")


def test_page_to_html_table_embeds_structure():
    elements = [{"label": "table", "text": "", "html": "<table><tr><td>x</td></tr></table>",
                 "order_index": 0}]
    html = page_to_html(elements)
    assert "<table border=\"1\" style=\"border-collapse: collapse;\"><tr><td>x</td></tr></table>" in html


def test_page_to_html_list_items():
    elements = [{"label": "list", "text": "a\nb", "order_index": 0}]
    html = page_to_html(elements)
    assert "<ul>\n<li>a</li>\n<li>b</li>\n</ul>" in html


def test_fallback_ocr_blocks_selection():
    from oar_ocr_ray.structure import fallback_ocr_blocks

    lb = np.array([
        [0, 0, 100, 30],     # text block WITH matched ocr
        [0, 40, 100, 70],    # text block with NO text -> fallback
        [0, 80, 100, 110],   # image block with no text -> excluded
    ], dtype=float)
    labels = ["text", "text", "image"]
    ocr = np.array([[10, 5, 90, 25]], dtype=float)
    out = fallback_ocr_blocks(lb, labels, ocr)
    assert out.tolist() == [1]


def test_fallback_ocr_blocks_no_ocr_at_all():
    from oar_ocr_ray.structure import fallback_ocr_blocks

    lb = np.array([[0, 0, 100, 30]], dtype=float)
    out = fallback_ocr_blocks(lb, ["text"], np.zeros((0, 4)))
    assert out.tolist() == [0]


# ---------------------------------------------------------------------------
# detect_seal_text (structure.rs:1794 seal path)
# ---------------------------------------------------------------------------

def test_detect_seal_text_translates_and_sorts():
    from oar_ocr_ray.structure import detect_seal_text

    img = np.full((100, 100), 255, dtype=np.uint8)
    # two dark line patches inside the seal region, lower one first in x
    img[40:48, 12:30] = 90   # y_min 40
    img[20:28, 22:44] = 90   # y_min 20
    seal = np.array([[10.0, 10.0, 60.0, 60.0]])

    def det(crop, min_area):
        from oar_ocr_ray.geometry import connected_component_boxes
        return connected_component_boxes(crop < 128, min_area=min_area)

    quads = detect_seal_text(img, seal, det)
    assert quads.shape == (2, 4, 2)
    # y_min-sorted (sort_poly_boxes), translated back to page coords
    assert quads[0, 0, 1] == 20 and quads[1, 0, 1] == 40
    assert quads[0, 0, 0] == 22 and quads[1, 0, 0] == 12


def test_detect_seal_text_clamps_out_of_bounds_block():
    from oar_ocr_ray.structure import detect_seal_text

    img = np.full((50, 50), 255, dtype=np.uint8)
    img[5:12, 5:20] = 90

    def det(crop, min_area):
        from oar_ocr_ray.geometry import connected_component_boxes
        return connected_component_boxes(crop < 128, min_area=min_area)

    # block extends past every edge; clamp must keep the crop valid
    quads = detect_seal_text(img, np.array([[-10.0, -10.0, 80.0, 80.0]]), det)
    assert quads.shape == (1, 4, 2)
    assert quads[0, 0, 0] == 5 and quads[0, 0, 1] == 5


def test_detect_seal_text_empty_inputs():
    from oar_ocr_ray.structure import detect_seal_text

    img = np.full((30, 30), 255, dtype=np.uint8)

    def det(crop, min_area):
        return np.zeros((0, 4))

    assert detect_seal_text(img, np.zeros((0, 4)), det).shape == (0, 4, 2)
    assert detect_seal_text(img, np.array([[5.0, 5.0, 25.0, 25.0]]), det).shape == (0, 4, 2)


def test_fill_formula_content_best_iou_over_half():
    """stitching.rs:232-251 fill_formula_content semantics: formula-type
    elements take the latex of the BEST-IoU formula result among those
    with IoU > 0.5; at/below 0.5 nothing fills; non-formula elements are
    never touched; latex lands normalized."""
    from oar_ocr_ray.structure import fill_formula_content

    elements = [
        {"bbox": [0, 0, 100, 20], "label": "formula", "text": "old"},
        {"bbox": [0, 40, 100, 60], "label": "text", "text": "keep"},
        {"bbox": [0, 80, 100, 100], "label": "formula_number", "text": ""},
        {"bbox": [0, 120, 100, 140], "label": "formula", "text": "stale"},
    ]
    formulas = [
        # IoU with element 0 = 50/150 = 1/3 (<= 0.5): must NOT fill
        {"bbox": [0, 0, 50, 20], "latex": "x"},
        # two candidates over element 2: IoU 0.8 beats IoU 0.6 overlap
        {"bbox": [0, 80, 80, 100], "latex": "\\frac{a}{b}"},
        {"bbox": [0, 80, 100, 100], "latex": "\\mathrm{d}x "},
        # exactly matching element 1's bbox — but element 1 is text-typed
        {"bbox": [0, 40, 100, 60], "latex": "never"},
    ]
    fill_formula_content(elements, formulas)
    assert elements[0]["text"] == "old"          # IoU 1/3 <= 0.5
    assert elements[1]["text"] == "keep"         # non-formula untouched
    assert elements[2]["text"] == "\\mathrm{d}x"  # best IoU wins, normalized
    assert elements[3]["text"] == "stale"        # no overlapping result
