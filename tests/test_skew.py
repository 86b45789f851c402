"""Skew robustness: a few 'whale' documents carry two orders of magnitude
more media spans than the median doc (the north-star's media-heavy-document
skew case). The pipeline must stay correct — whale span sequences rebuild
exactly through the fan-out and the single shuffle — with no per-doc size
assumption anywhere."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oar_ocr_ray.fixtures import (
    DEFAULT_MEDIA_BUCKETS,
    DOCUMENTS_SCHEMA,
    MEDIA_SCHEMA,
    OUTPUT_SCHEMA,
    _gen_image,
    golden_extract,
    media_bucket,
)
from oar_ocr_ray.pipelines.extract import build_extract_pipeline

from test_extract_e2e import assert_matches_golden, collect_output

N_WHALES = 3
WHALE_MEDIA = 40  # vs 0-1 for the other docs
N_DOCS = 120


def build_skewed_corpus(out_dir: str):
    rng = np.random.default_rng(123)
    doc_dir, media_dir = os.path.join(out_dir, "documents"), os.path.join(out_dir, "media")
    os.makedirs(doc_dir), os.makedirs(media_dir)
    docs, media, golden = [], [], []
    for i in range(N_DOCS):
        doc_id = f"doc-{i:08d}"
        spans, m_rows, k = [], [], 0
        n_media = WHALE_MEDIA if i < N_WHALES else int(rng.random() < 0.3)
        spans.append({"kind": "text", "text": f"lead text {i}", "media_ref": "",
                      "offset": k})
        k += 1
        for _ in range(n_media):
            ref = f"media://{doc_id}/{k}"
            png, w, h, rot, boxes = _gen_image(rng)
            m_rows.append({
                "media_ref": ref, "width": w, "height": h, "rot": rot, "png": png,
                "boxes": [{"x0": b[0], "y0": b[1], "x1": b[2], "y1": b[3],
                           "text": b[4]} for b in boxes],
            })
            spans.append({"kind": "image", "text": "", "media_ref": ref, "offset": k})
            k += 1
        perm = rng.permutation(len(spans))  # stored order is shuffled
        row = {"doc_id": doc_id, "spans": [spans[j] for j in perm]}
        docs.append(row)
        media.extend(m_rows)
        golden.append(golden_extract(row, {r["media_ref"]: r for r in m_rows}))

    files = []
    for f in range(0, N_DOCS, 30):
        p = os.path.join(doc_dir, f"part-{f // 30:05d}.parquet")
        pq.write_table(pa.Table.from_pylist(docs[f:f + 30], schema=DOCUMENTS_SCHEMA), p)
        files.append(p)
    buckets: dict[int, list] = {}
    for r in media:
        buckets.setdefault(media_bucket(r["media_ref"]), []).append(r)
    for b in range(DEFAULT_MEDIA_BUCKETS):
        pq.write_table(pa.Table.from_pylist(buckets.get(b, []), schema=MEDIA_SCHEMA),
                       os.path.join(media_dir, f"bucket-{b:03d}.parquet"))
    gp = os.path.join(out_dir, "golden.parquet")
    pq.write_table(pa.Table.from_pylist(golden, schema=OUTPUT_SCHEMA), gp)
    return files, media_dir, gp


@pytest.mark.usefixtures("ray_session")
def test_whale_docs_match_golden(tmp_path):
    files, media_dir, golden_path = build_skewed_corpus(str(tmp_path / "skew"))
    ds = build_extract_pipeline(files, media_dir, n_parts=8)
    assert_matches_golden(collect_output(ds), golden_path, N_DOCS)


def test_rotate_about_center_semantics():
    """ImageRotationProcessor parity (reference processors.rs:130-182):
    same output dims, bilinear, white fill in the exposed corners, and
    rotate(theta) then rotate(-theta) restores a constant block's interior
    exactly (constant regions are interpolation-invariant)."""
    from oar_ocr_ray.rectify import rotate_about_center

    img = np.full((40, 60), 255, dtype=np.uint8)
    img[10:30, 10:50] = 90
    rot = rotate_about_center(img, 15.0, fill=255)
    assert rot.shape == img.shape
    assert rot[0, 0] == 255 and rot[-1, -1] == 255  # white-filled corners
    back = rotate_about_center(rot, -15.0, fill=255)
    assert (back[15:25, 15:45] == 90).all()  # interior exact
    # sub-gate angles are the caller's no-op (|angle| <= 0.1 never rotates)
    from oar_ocr_ray.stages.media import Recognize

    same = Recognize._maybe_unrotate(img)
    assert same is img  # estimator returns exactly 0 for an aligned rect


def test_skew_protocol_decodes_through_rotation_and_tensor():
    """Anchor-framed skewed lines must decode EXACTLY through every path:
    raw rotated crop, ImageRotation-unrotated crop, and the model-input
    resize of the unrotated crop. A deliberately wrong-sign unrotation at
    the max angle must FAIL (falsifies that the sign convention and the
    estimator are actually load-bearing)."""
    from oar_ocr_ray.fixtures import skew_text_patch
    from oar_ocr_ray.preprocess import normalize_image, ocr_resize_and_pad
    from oar_ocr_ray.rectify import rotate_about_center
    from oar_ocr_ray.stubs import estimate_skew_angle, read_crop_text

    rng = np.random.default_rng(5)
    wrong_sign_failed = 0
    for _ in range(40):
        n = int(rng.integers(1, 13))
        t = "".join(chr(int(rng.integers(32, 127))) for _ in range(n))
        bh0 = int(rng.integers(10, 15))
        p = skew_text_patch(t, bh0)
        max_sin = (bh0 - 5) / p.shape[1]
        theta = min(float(rng.uniform(0.8, 3.5)),
                    float(np.degrees(np.arcsin(max_sin))))
        if rng.random() < 0.5:
            theta = -theta
        pad = int(np.ceil(p.shape[1] * abs(np.sin(np.deg2rad(theta))))) + 3
        canvas = np.full((bh0 + 2 * pad, p.shape[1] + 2 * pad), 255, np.uint8)
        canvas[pad:pad + bh0, pad:pad + p.shape[1]] = p
        rot = rotate_about_center(canvas, theta, fill=255)
        ys, xs = np.nonzero(rot < 128)
        core = rot[ys.min():ys.max() + 1, xs.min():xs.max() + 1]

        assert read_crop_text(core) == t  # raw rotated crop
        est = estimate_skew_angle(core)
        assert abs(est) > 0.1
        unrot = rotate_about_center(core, est, fill=255)
        assert read_crop_text(unrot) == t  # after ImageRotation
        padded, _ = ocr_resize_and_pad(unrot, target_h=48,
                                       max_wh_ratio=unrot.shape[1] / unrot.shape[0])
        norm = normalize_image(padded)
        u8 = np.clip(np.rint((norm[0].astype(np.float64) * 0.229 + 0.485) * 255),
                     0, 255).astype(np.uint8)
        assert read_crop_text(u8) == t  # model-input tensor path
        if read_crop_text(rotate_about_center(core, -2 * est, fill=255)) != t:
            wrong_sign_failed += 1
    assert wrong_sign_failed > 0  # doubling the skew breaks decode somewhere
