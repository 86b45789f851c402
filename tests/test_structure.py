"""Structure stitching / spatial-join / markdown tests (reference
semantics: stitching.rs, structure.rs, layout_utils.rs)."""

import numpy as np

from oar_ocr_ray.structure import (
    assign_to_regions,
    format_title_with_level,
    ioa_smaller,
    overlap_match,
    page_to_markdown,
    remove_overlap_blocks,
    stitch_page_enhanced,
)


def test_format_title_levels():
    assert format_title_with_level("1 Introduction") == (1, "1 Introduction")
    assert format_title_with_level("1.2 Methods") == (2, "1.2 Methods")
    assert format_title_with_level("1.2.3 Details") == (3, "1.2.3 Details")
    assert format_title_with_level("Just text") == (2, "Just text")
    lvl, _ = format_title_with_level("一、 绪论")
    assert lvl == 1
    # trailing dot counts toward level (reference: matches('.').count()+1),
    # and is trimmed from the formatted numbering; multi-line cleanup
    assert format_title_with_level("2. Title") == (2, "2 Title")
    assert format_title_with_level("a-\nbc title")[1] == "abc title"


def test_overlap_match_3px_rule():
    ocr = np.array([[0, 0, 10, 10]])
    layout = np.array([[8, 8, 20, 20], [6, 6, 20, 20]])
    m = overlap_match(ocr, layout)
    # first: 2x2 intersection -> no match; second: 4x4 -> match
    assert m.tolist() == [[False, True]]


def test_remove_overlap_blocks_image_loses():
    boxes = np.array([[0, 0, 10, 10], [1, 1, 9, 9]])
    keep = remove_overlap_blocks(boxes, ["image", "text"], 0.5)
    assert keep.tolist() == [False, True]
    # same label: smaller area dropped
    keep = remove_overlap_blocks(boxes, ["text", "text"], 0.5)
    assert keep.tolist() == [True, False]
    # no overlap: both kept
    keep = remove_overlap_blocks(np.array([[0, 0, 5, 5], [10, 10, 20, 20]]), ["text", "text"], 0.5)
    assert keep.tolist() == [True, True]


def test_ioa_smaller():
    a = np.array([[0, 0, 10, 10]])
    b = np.array([[0, 0, 5, 5]])
    assert ioa_smaller(a, b)[0, 0] == 1.0


def test_assign_to_regions():
    elems = np.array([[0, 0, 10, 10], [100, 100, 110, 110]])
    regions = np.array([[0, 0, 50, 50]])
    out = assign_to_regions(elems, regions, 0.1)
    assert out.tolist() == [0, -1]


def test_stitch_page_full():
    layout_boxes = np.array(
        [
            [0, 0, 100, 20],     # title block (top)
            [0, 30, 100, 80],    # text block
            [2, 32, 96, 78],     # near-duplicate of text block -> deduped (smaller)
        ]
    )
    labels = ["paragraph_title", "text", "text"]
    scores = np.array([0.9, 0.8, 0.7])
    ocr_boxes = np.array(
        [
            [5, 5, 60, 15],      # title text
            [5, 35, 60, 45],     # line 1 of block
            [5, 50, 60, 60],     # line 2 of block
            [5, 200, 60, 210],   # orphan text below everything
        ]
    )
    texts = ["1.2 Methods", "alpha beta", "gamma delta", "orphan line"]
    elems = stitch_page_enhanced(layout_boxes, labels, scores, ocr_boxes, texts,
                                 page_w=100, page_h=220)
    assert len(elems) == 3  # dedup removed one block; orphan added one
    assert elems[0]["label"] == "paragraph_title"
    assert elems[0]["text"] == "1.2 Methods"
    assert elems[0]["order_index"] == 0
    body = [e for e in elems if e["label"] == "text" and e["score"] > 0][0]
    assert "alpha beta" in body["text"] and "gamma delta" in body["text"]
    orphan = elems[-1]
    assert orphan["text"] == "orphan line" and orphan["score"] == 0.0

    md = page_to_markdown(elems)
    assert md.startswith("## 1.2 Methods")
    assert "orphan line" in md


def test_stitch_orphan_in_table_suppressed():
    layout_boxes = np.array([[0, 0, 100, 100]])
    elems = stitch_page_enhanced(
        layout_boxes, ["table"], np.array([0.9]),
        np.array([[200, 200, 210, 210], [10, 10, 90, 90]]),
        ["outside", ""],  # second box inside table but empty text
        page_w=220, page_h=220,
    )
    # table element + the outside orphan; in-table empty text dropped
    labels = sorted(e["label"] for e in elems)
    assert labels == ["table", "text"]


def test_stitch_empty():
    assert stitch_page_enhanced(np.zeros((0, 4)), [], np.zeros(0), np.zeros((0, 4)), [],
                                page_w=50, page_h=50) == []
