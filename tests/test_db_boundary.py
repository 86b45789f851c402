"""Detection model boundary units: the REAL DBPostProcess chain
(geometry.db_boxes_from_bitmap) and the heatmap-emitting StubDbSession
(reference db.rs:95-213 + db_postprocess.rs + db_bitmap.rs)."""

import numpy as np
import pytest

from oar_ocr_ray.fixtures import _gen_image, text_patch
from oar_ocr_ray.geometry import db_boxes_from_bitmap
from oar_ocr_ray.png_codec import decode_png
from oar_ocr_ray.preprocess import normalize_image, to_batch
from oar_ocr_ray.stubs import (
    StubDbSession,
    classify_orientation,
    correct_orientation,
)


def _heat(img: np.ndarray, sess: StubDbSession) -> np.ndarray:
    return sess(to_batch([normalize_image(img)]))[0, 0]


def test_postprocess_filters_mirror_reference_defaults():
    """Each reference filter fires: binarize threshold, min_size candidate
    filter, box_thresh score filter, post-unclip min_size+2 filter."""
    prob = np.zeros((64, 64), dtype=np.float32)
    prob[10:20, 10:40] = 0.9          # healthy kernel -> one box
    prob[30:32, 10:40] = 0.9          # min side 2 < 3 -> candidate-filtered
    prob[40:50, 10:40] = 0.25         # below binarize thresh 0.3 -> invisible
    prob[54:60, 10:40] = 0.5          # score 0.5 < box_thresh 0.6 -> filtered
    boxes, scores = db_boxes_from_bitmap(prob)
    assert len(boxes) == 1
    # unclip(1.5) of the 30x10 kernel: delta = 1.5*300/80 = 5.625
    x0, y0, x1, y1 = boxes[0]
    assert (x0, y0, x1, y1) == (10 - 6, 10 - 6, 40 + 6, 20 + 6)
    assert scores[0] == pytest.approx(0.9)


def test_postprocess_clamps_to_heatmap_frame():
    prob = np.zeros((20, 30), dtype=np.float32)
    prob[2:12, 2:28] = 1.0  # unclip pushes past the frame -> clamped
    boxes, _ = db_boxes_from_bitmap(prob)
    assert len(boxes) == 1
    x0, y0, x1, y1 = boxes[0]
    assert x0 >= 0 and y0 >= 0 and x1 <= 30 and y1 <= 20


def test_slow_score_rates_sparse_kernels_by_their_own_pixels():
    """A diagonal band fills little of its AABB: fast (AABB-mean) scoring
    under-rates it, slow (kernel-pixel mean) scores the band itself —
    the reference's ScoreMode::Fast vs ScoreMode::Slow split."""
    prob = np.zeros((40, 40), dtype=np.float32)
    for i in range(30):
        prob[5 + i // 3: 9 + i // 3, 5 + i] = 0.9  # ~18% AABB fill
    fast, _ = db_boxes_from_bitmap(prob, score_mode="fast")
    slow, _ = db_boxes_from_bitmap(prob, score_mode="slow")
    assert len(fast) == 0 and len(slow) == 1


def test_stub_session_consumes_normalized_tensor_and_inverts_unclip():
    """Session seam contract: input is the normalized (B,3,H,W) float32
    tensor, output a (B,1,H,W) heatmap whose kernels the postprocess
    unclip re-expands to the TRUE rects within ~1 px."""
    img = np.full((64, 128), 255, dtype=np.uint8)
    patch = text_patch("hello world", 10)  # (10, 40)
    img[20:30, 8:8 + patch.shape[1]] = patch
    t = to_batch([normalize_image(img)])
    assert t.shape == (1, 3, 64, 128) and t.dtype == np.float32
    prob = StubDbSession()(t)
    assert prob.shape == (1, 1, 64, 128)
    boxes, _ = db_boxes_from_bitmap(prob[0, 0], score_mode="slow")
    assert len(boxes) == 1
    true = np.array([8, 20, 8 + patch.shape[1], 30])
    assert np.abs(boxes[0] - true).max() <= 1


def test_stub_session_drops_subkernel_components():
    """Components too small to carry a >= min_size kernel (the 1-px
    orientation tag) vanish from the heatmap, like a real DB head."""
    img = np.full((48, 48), 255, dtype=np.uint8)
    img[0, 0] = 30  # tag pixel
    prob = StubDbSession()(to_batch([normalize_image(img)]))[0, 0]
    assert prob.max() == 0.0


def test_session_boxes_match_truth_over_fixture_pages():
    """Sweep of rendered pages (incl. skewed + two-column lines): per-page
    box COUNT matches ground truth exactly and every edge is within the
    documented ~2 px unclip margin."""
    sess = StubDbSession()
    n_boxes = 0
    for i in range(40):
        rng = np.random.default_rng([997, i])
        png, w, h, rot, truth = _gen_image(rng)
        img = decode_png(png)[:, :, 0]
        img = correct_orientation(img, classify_orientation(img))
        det, _ = db_boxes_from_bitmap(_heat(img, sess), score_mode="slow")
        true = np.array([b[:4] for b in truth], dtype=np.int64).reshape(-1, 4)
        assert len(det) == len(true), f"page {i}: {len(det)} vs {len(true)}"
        n_boxes += len(true)
        if len(true):
            tc = (true[:, :2] + true[:, 2:]) / 2.0
            for b in det:
                j = int(np.argmin(np.abs(tc - (b[:2] + b[2:]) / 2.0).sum(1)))
                assert np.abs(b - true[j]).max() <= 2, f"page {i} box {b}"
    assert n_boxes > 100  # the sweep actually exercised detections


@pytest.mark.usefixtures("ray_session")
def test_word_boxes_under_det_seam_stay_inside_truth(tmp_path):
    """Det-seam crops carry unclip margins; word boxes must anchor on the
    TRIMMED content box (not the margined det box), so every char box
    stays inside the TRUE line rect — the round-4 review finding."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from oar_ocr_ray.fixtures import write_corpus
    from oar_ocr_ray.sorting import sort_quad_boxes_indices
    from oar_ocr_ray.stages.explode import make_explode_spans
    from oar_ocr_ray.stages.media import MediaDetect, Recognize
    from oar_ocr_ray.stages.text import strip_text_spans

    meta = write_corpus(str(tmp_path / "c"), 40, seed=9, n_doc_files=2)
    docs = pq.read_table(meta["doc_files"][0])
    batch = strip_text_spans(make_explode_spans(8)(docs))
    det = MediaDetect(media_dir=meta["media_dir"], det_model_input=True)(batch)
    rec = Recognize(emit_word_boxes=True, model_input=True)(det)
    rec = rec.filter(pc.and_(pc.equal(rec["kind"], "image"),
                             pc.is_valid(rec["bx0"])))
    truth = {}
    for f in os.listdir(meta["media_dir"]):
        if not f.endswith(".parquet"):
            continue
        for r in pq.read_table(os.path.join(meta["media_dir"], f)).to_pylist():
            bs = r["boxes"]
            if bs:
                order = sort_quad_boxes_indices(np.array(
                    [[b["x0"], b["y0"], b["x1"], b["y1"]] for b in bs],
                    dtype=np.float64))
                truth[r["media_ref"]] = [bs[i] for i in order]
    checked = 0
    for row in rec.to_pylist():
        tb = truth[row["media_ref"]][row["det_idx"]]
        assert row["text"] == tb["text"], row["media_ref"]
        for b in (row["word_boxes"] or []):
            assert tb["x0"] - 1e-4 <= b[0] <= b[2] <= tb["x1"] + 1e-4
            assert tb["y0"] - 1e-4 <= b[1] <= b[3] <= tb["y1"] + 1e-4
            checked += 1
    assert checked > 50  # the sweep actually exercised word boxes


def test_closed_form_unclip_equals_general_kernels():
    """db_boxes_from_bitmap's axis-aligned closed form (grow by
    delta = ratio*A/P per side) must equal the general
    unclip_box -> min_area_rect kernel chain on random rects."""
    from oar_ocr_ray.geometry import (
        aabb_to_quad,
        min_area_rect,
        quad_to_aabb,
        unclip_box,
    )

    rng = np.random.default_rng(17)
    for _ in range(200):
        x0, y0 = rng.integers(0, 50, 2)
        w, h = rng.integers(3, 80), rng.integers(3, 30)
        box = np.array([[x0, y0, x0 + w, y0 + h]], dtype=np.float64)
        rect = min_area_rect(unclip_box(aabb_to_quad(box)[0], 1.5))
        general = quad_to_aabb(rect)[0]
        delta = 1.5 * w * h / (2.0 * (w + h))
        closed = np.array([x0 - delta, y0 - delta,
                           x0 + w + delta, y0 + h + delta])
        assert np.abs(general - closed).max() < 1e-9


def test_stub_kernel_unclips_back_over_the_whole_line():
    """The stand-in's kernel depth never leaves a line's final box inside
    the line. A 46x9 line (structure_seams seed 6, page://000038) used to
    get depth 3, whose 3x40 kernel the unclip re-grew by only 2.09 px:
    the box came back 1 px inside on every side and reordered its page.
    Depth 2 re-grows by 3.35 px, 1 px outside like every other line."""
    from oar_ocr_ray.stages.media import DbDetector

    page = np.full((200, 200), 255, dtype=np.uint8)
    page[128:137, 54:100] = 0
    assert DbDetector()(page).tolist() == [[53, 127, 101, 138]]
    for ratio in (0.5, 1.5, 2.0):  # structure seal, default, general presets
        sess = StubDbSession(unclip_ratio=ratio)
        for h in range(5, 31):  # fixture lines are 8+ px tall
            for w in range(h, 160, 5):
                img = np.full((h + 40, w + 40), 255, dtype=np.uint8)
                img[20:20 + h, 20:20 + w] = 0
                boxes, _ = db_boxes_from_bitmap(
                    _heat(img, sess), unclip_ratio=ratio, score_mode="slow")
                assert len(boxes) == 1, (ratio, h, w)
                x0, y0, x1, y1 = boxes[0]
                assert x0 <= 20 and y0 <= 20, (ratio, h, w, boxes[0])
                assert x1 >= 20 + w and y1 >= 20 + h, (ratio, h, w, boxes[0])
