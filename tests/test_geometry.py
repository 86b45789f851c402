import numpy as np

from oar_ocr_ray.geometry import (
    aabb_to_quad,
    box_area,
    clamp_box,
    connected_component_boxes,
    get_rotate_crop_image,
    intersection_area,
    ioa_matrix,
    iou_matrix,
    order_quad_points,
    perspective_matrix,
    quad_to_aabb,
)


def test_quad_aabb_roundtrip():
    b = np.array([[1.0, 2.0, 5.0, 7.0]])
    q = aabb_to_quad(b)
    assert q.shape == (1, 4, 2)
    np.testing.assert_allclose(quad_to_aabb(q), b)


def test_iou_ioa():
    a = np.array([[0, 0, 10, 10]])
    b = np.array([[5, 5, 15, 15], [20, 20, 30, 30]])
    iou = iou_matrix(a, b)
    np.testing.assert_allclose(iou[0, 0], 25 / 175)
    assert iou[0, 1] == 0.0
    ioa = ioa_matrix(a, b)
    np.testing.assert_allclose(ioa[0, 0], 0.25)


def test_intersection_and_area():
    a = np.array([[0, 0, 4, 4]])
    assert box_area(a)[0] == 16
    inter = intersection_area(a, np.array([[2, 2, 6, 6]]))
    assert inter[0, 0] == 4


def test_clamp_box():
    b = clamp_box(np.array([-5.0, -5.0, 200.0, 50.0]), 100, 40)
    np.testing.assert_allclose(b, [0, 0, 100, 40])


def test_order_quad_points():
    q = np.array([[10, 10], [0, 10], [0, 0], [10, 0]], dtype=float)
    ordered = order_quad_points(q)
    np.testing.assert_allclose(ordered, [[0, 0], [10, 0], [10, 10], [0, 10]])


def test_perspective_identity():
    src = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    m = perspective_matrix(src, src)
    np.testing.assert_allclose(m, np.eye(3), atol=1e-9)


def test_axis_aligned_crop_is_exact():
    img = np.zeros((20, 30), dtype=np.uint8)
    img[5:10, 4:14] = 200
    quad = np.array([[4, 5], [14, 5], [14, 10], [4, 10]], dtype=float)
    crop = get_rotate_crop_image(img, quad)
    assert crop.shape == (5, 10)
    assert (crop == 200).all()


def test_vertical_crop_auto_rotates():
    img = np.arange(40 * 10, dtype=np.uint8).reshape(40, 10) % 255
    quad = np.array([[0, 0], [10, 0], [10, 40], [0, 40]], dtype=float)
    crop = get_rotate_crop_image(img, quad)
    # h=40 >= 1.5*w=15 -> rotated to 10x40
    assert crop.shape == (10, 40)


def test_connected_components_simple():
    mask = np.zeros((20, 30), dtype=bool)
    mask[2:5, 3:10] = True  # box 1: area 21
    mask[10:14, 15:25] = True  # box 2: area 40
    boxes = connected_component_boxes(mask, min_area=9)
    assert boxes.shape == (2, 4)
    sorted_boxes = boxes[np.argsort(boxes[:, 1])]
    np.testing.assert_array_equal(sorted_boxes[0], [3, 2, 10, 5])
    np.testing.assert_array_equal(sorted_boxes[1], [15, 10, 25, 14])


def test_connected_components_min_area_and_touching():
    mask = np.zeros((10, 10), dtype=bool)
    mask[0, 0] = True  # 1px speck -> dropped
    mask[3:5, 3:5] = True  # area 4 < 9 -> dropped
    boxes = connected_component_boxes(mask, min_area=9)
    assert len(boxes) == 0


def test_connected_components_l_shape():
    # L-shaped region must be one component
    mask = np.zeros((12, 12), dtype=bool)
    mask[2:8, 2:4] = True
    mask[6:8, 2:10] = True
    boxes = connected_component_boxes(mask, min_area=4)
    assert boxes.shape == (1, 4)
    np.testing.assert_array_equal(boxes[0], [2, 2, 10, 8])


def test_connected_components_empty():
    assert connected_component_boxes(np.zeros((5, 5), dtype=bool)).shape == (0, 4)


def test_min_area_rect_axis_aligned():
    from oar_ocr_ray.geometry import min_area_rect

    r = min_area_rect(np.array([[0, 0], [10, 0], [10, 4], [0, 4], [5, 2]]))
    np.testing.assert_allclose(r, [[0, 0], [10, 0], [10, 4], [0, 4]], atol=1e-9)


def test_min_area_rect_rotated_square():
    from oar_ocr_ray.geometry import min_area_rect

    pts = np.array([[0, 5], [5, 0], [10, 5], [5, 10]])
    r = min_area_rect(pts)
    # diamond with diagonal 10 -> rotated square of side ~7.07, area 50
    area = abs(np.cross(r[1] - r[0], r[3] - r[0]))
    assert abs(area - 50.0) < 1e-6


def test_convex_hull():
    from oar_ocr_ray.geometry import convex_hull

    pts = np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]])
    hull = convex_hull(pts)
    assert len(hull) == 4  # interior point excluded


def test_unclip_box_grows_by_area_ratio_over_perimeter():
    from oar_ocr_ray.geometry import unclip_box, quad_to_aabb

    q = np.array([[0, 0], [10, 0], [10, 4], [0, 4]])
    u = unclip_box(q, 2.0)
    a0 = quad_to_aabb(q)[0]
    a1 = quad_to_aabb(u)[0]
    # delta = 40*2/28 ~ 2.857 per side
    assert a1[0] < a0[0] and a1[1] < a0[1] and a1[2] > a0[2] and a1[3] > a0[3]
    grow_x = (a1[2] - a1[0]) - (a0[2] - a0[0])
    assert 4.0 < grow_x < 7.5


def test_box_score_fast():
    from oar_ocr_ray.geometry import box_score_fast

    bm = np.zeros((10, 10))
    bm[2:4, 2:6] = 1.0
    assert box_score_fast(bm, np.array([[2, 2], [6, 2], [6, 4], [2, 4]])) == 1.0
    assert box_score_fast(bm, np.array([[0, 0], [10, 0], [10, 10], [0, 10]])) == 0.08


def test_order_quad_points_diamond_fallback():
    # 45°-rotated quad: argmin(x+y) and argmin(y-x) both pick (1,0) — the
    # sum/diff heuristic degenerates; the x-sort/y-compare fallback
    # (transform.rs:124-140) must still return a permutation of the corners.
    import numpy as np

    from oar_ocr_ray.geometry import order_quad_points

    q = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    ordered = order_quad_points(q)
    assert sorted(map(tuple, ordered.tolist())) == sorted(map(tuple, q.tolist()))
    # left pair split by y: TL=(0,1)? x-sort -> leftmost two are (0,1),(1,0)/(1,2)
    # exact layout: TL/BL from two leftmost by y, TR/BR from two rightmost
    tl, tr, br, bl = ordered
    assert tl[0] <= br[0] or tl[1] <= br[1]


def test_connected_component_label_image_partitions_pixels():
    from oar_ocr_ray.geometry import connected_component_label_image

    mask = np.zeros((16, 16), dtype=bool)
    # an L-shape and a bar living INSIDE the L's AABB, pixels disjoint
    mask[2:14, 2:4] = True    # L vertical
    mask[12:14, 2:12] = True  # L horizontal
    mask[2:10, 10:12] = True  # bar inside the L's AABB
    boxes, lbl = connected_component_label_image(mask, min_area=1)
    assert lbl.shape == mask.shape
    # every masked pixel is owned by exactly one component, none outside
    assert ((lbl >= 0) == mask).all()
    for ci, (x0, y0, x1, y1) in enumerate(boxes):
        ys, xs = np.nonzero(lbl == ci)
        assert (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1) == (x0, y0, x1, y1)
    # the two staircases cross AABBs but keep distinct labels
    assert len(boxes) == 2
    b = boxes[np.argsort(boxes[:, 0])]
    assert b[0][2] > b[1][0]  # AABBs overlap in x


def test_connected_component_label_image_respects_filters():
    from oar_ocr_ray.geometry import (
        connected_component_boxes,
        connected_component_label_image,
    )

    mask = np.zeros((12, 20), dtype=bool)
    mask[1, 1] = True           # speck: dropped by min_area
    mask[3:6, 3:8] = True       # area 15
    mask[8:11, 10:18] = True    # area 24
    boxes, lbl = connected_component_label_image(mask, min_area=9,
                                                 max_candidates=1)
    ref = connected_component_boxes(mask, min_area=9, max_candidates=1)
    np.testing.assert_array_equal(boxes, ref)
    assert len(boxes) == 1  # largest-first cap
    # dropped components paint -1
    assert lbl[1, 1] == -1 and lbl[4, 4] == -1
    assert (lbl[8:11, 10:18] == 0).all()


def test_stub_db_session_separates_overlapping_aabbs():
    """Two dark components with overlapping AABBs must each emit their
    OWN kernel from their own pixels — the AABB-slice union bug would
    erode a mask containing the other's pixels and merge/duplicate
    kernels."""
    from oar_ocr_ray.geometry import connected_component_boxes
    from oar_ocr_ray.preprocess import normalize_image, to_batch
    from oar_ocr_ray.stubs import StubDbSession

    img = np.full((40, 40), 255, np.uint8)
    img[4:34, 4:10] = 0    # L vertical
    img[28:34, 4:34] = 0   # L horizontal
    img[4:22, 24:30] = 0   # bar inside the L's AABB
    n_in = len(connected_component_boxes(img < 128, min_area=1))
    assert n_in == 2  # the two staircases don't touch

    prob = StubDbSession()(to_batch([normalize_image(img)]))[0, 0][:40, :40]
    kernels = prob > 0.5
    assert kernels.any()
    # each kernel lives inside its own component's pixels only
    assert not kernels[~(img < 128)].any()
    n_k = len(connected_component_boxes(kernels, min_area=1))
    assert n_k == 2, f"expected one kernel per component, got {n_k}"
