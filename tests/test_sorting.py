"""Reading-order tests — vectors ported from
/root/reference/src/processors/sorting.rs:741-899 (FIXTURES.md F5)."""

import numpy as np

from oar_ocr_ray.sorting import (
    projection_by_bboxes,
    sort_by_xycut,
    sort_poly_boxes_indices,
    sort_quad_boxes_indices,
    split_projection_profile,
)


def boxes(*rows):
    return np.array(rows, dtype=np.float64)


def test_sort_quad_boxes_vertical():
    b = boxes([10, 50, 50, 70], [10, 10, 50, 30], [10, 30, 50, 50])
    idx = sort_quad_boxes_indices(b)
    assert [b[i][1] for i in idx] == [10.0, 30.0, 50.0]


def test_sort_quad_boxes_same_line():
    # y within 10px -> left box first even though its y_min is larger
    b = boxes([60, 10, 100, 30], [10, 12, 50, 32])
    idx = sort_quad_boxes_indices(b)
    assert b[idx[0]][0] < b[idx[1]][0]


def test_sort_quad_boxes_mixed():
    b = boxes(
        [60, 10, 100, 30],  # top-right
        [10, 11, 50, 31],  # top-left (same line)
        [10, 50, 50, 70],  # bottom-left
        [60, 52, 100, 72],  # bottom-right
    )
    idx = sort_quad_boxes_indices(b)
    s = b[idx]
    assert s[0][0] < s[1][0]
    assert s[0][1] < s[2][1]
    assert s[2][0] < s[3][0]


def test_sort_poly_boxes():
    b = boxes([10, 50, 50, 70], [10, 10, 50, 30], [10, 30, 50, 50])
    idx = sort_poly_boxes_indices(b)
    assert [b[i][1] for i in idx] == [10.0, 30.0, 50.0]


def test_sort_empty():
    assert len(sort_quad_boxes_indices(np.zeros((0, 4)))) == 0
    assert len(sort_poly_boxes_indices(np.zeros((0, 4)))) == 0
    assert len(sort_by_xycut(np.zeros((0, 4)))) == 0


def test_xycut_single_column():
    b = boxes([10, 10, 100, 30], [10, 40, 100, 60], [10, 70, 100, 90])
    assert list(sort_by_xycut(b, "vertical", 1)) == [0, 1, 2]


def test_xycut_two_columns():
    b = boxes(
        [10, 10, 45, 30],
        [55, 10, 90, 30],
        [10, 40, 45, 60],
        [55, 40, 90, 60],
    )
    idx = list(sort_by_xycut(b, "vertical", 1))
    assert len(idx) == 4
    # Y-projection splits the two rows first (gap 30..40), so the order is
    # row-major — matches recursive_yx_cut (the reference test asserts length
    # only, sorting.rs:841-856)
    assert idx == [0, 1, 2, 3]


def test_xycut_true_two_columns_no_row_gap():
    # Columns whose rows interleave vertically (no full-width Y gap): the
    # X-cut recursion must emit the whole left column before the right one.
    b = boxes(
        [10, 10, 45, 40],
        [55, 25, 90, 55],
        [10, 50, 45, 80],
        [55, 65, 90, 95],
    )
    idx = list(sort_by_xycut(b, "vertical", 1))
    assert idx == [0, 2, 1, 3]


def test_projection_by_bboxes():
    b = np.array([[10, 0, 20, 10], [15, 0, 25, 10]])
    proj = projection_by_bboxes(b, 0)
    assert proj[15] == 2
    assert proj[10] == 1


def test_split_projection_profile():
    profile = np.array([1, 1, 0, 0, 0, 1, 1])
    starts, ends = split_projection_profile(profile, 0, 1)
    assert len(starts) == 2 and len(ends) == 2
    assert list(starts) == [0, 5]
    assert list(ends) == [2, 7]


def test_split_projection_none():
    assert split_projection_profile(np.array([0, 0, 0]), 0, 1) is None


def test_sort_layout_boxes_fullwidth_flushes_columns():
    from oar_ocr_ray.sorting import sort_layout_enhanced

    boxes = np.array([
        [10, 10, 40, 20],   # 0 left, above title
        [60, 12, 90, 22],   # 1 right, above title
        [5, 30, 95, 40],    # 2 FULL WIDTH title
        [10, 50, 40, 60],   # 3 left, below title
        [60, 52, 90, 62],   # 4 right, below title
    ], dtype=float)
    got = sort_layout_enhanced(boxes, ["text"] * 5, 100.0, 100.0).tolist()
    assert got == [0, 1, 2, 3, 4]


def test_sort_layout_boxes_singleton_and_empty():
    from oar_ocr_ray.sorting import sort_layout_enhanced

    assert sort_layout_enhanced(np.zeros((0, 4)), [], 50.0, 50.0).tolist() == []
    assert sort_layout_enhanced(np.array([[1, 2, 3, 4.0]]), ["text"], 50.0, 50.0).tolist() == [0]
