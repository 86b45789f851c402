"""UVDoc rectification wired into the flagship preprocess (reference
preprocess.rs:58-94: orient, then rectify; rectification voids orientation
back-mapping and results stay in rectified space)."""

import numpy as np
import pytest

from oar_ocr_ray.fixtures import (
    RECTIFY_TAG_BASE,
    curl_column_map,
    curl_page,
    text_patch,
    write_corpus,
)
from oar_ocr_ray.stubs import StubWarpRectifier, read_crop_text


def _page_with_line(text="warped page line", w=240, h=80, y=30, x=12):
    img = np.full((h, w), 255, dtype=np.uint8)
    p = text_patch(text, 10)
    img[y:y + 10, x:x + p.shape[1]] = p
    return img, (x, y, x + p.shape[1], y + 10)


def test_curl_roundtrip_is_exact():
    """curl warp -> StubWarpRectifier (REAL UVDocRectifier forward with the
    inverse grid) restores the content region bit-exactly."""
    img, (x0, y0, x1, y1) = _page_with_line()
    for k in (8, 11, 16):
        warped = curl_page(img, k)
        assert warped.shape[1] == img.shape[1] + img.shape[1] // k
        assert warped[0, 1] == RECTIFY_TAG_BASE + k
        rect = StubWarpRectifier().forward(warped)
        assert rect.shape == warped.shape  # UVDoc: output dims = input dims
        w = img.shape[1]
        # content region (tag pixel aside) restored exactly
        assert (rect[1:, :w] == img[1:, :w]).all()
        assert (rect[0, 2:w] == img[0, 2:w]).all()


def test_curl_breaks_unrectified_decode_and_rectify_restores_it():
    """The warp is load-bearing: the cell decoder cannot read a curled
    line (non-uniform stretch), and reads it exactly after rectification."""
    img, (x0, y0, x1, y1) = _page_with_line()
    k = 8
    warped = curl_page(img, k)
    cmap = curl_column_map(img.shape[1], k)
    # warped crop of the same line: columns stretched non-uniformly
    wx0 = int(np.searchsorted(cmap, x0))
    wx1 = int(np.searchsorted(cmap, x1 - 1, side="right"))
    # the stretched cells misread (wrong chars or contract violation) —
    # never the true text
    assert read_crop_text(warped[y0:y1, wx0:wx1]) != "warped page line"
    rect = StubWarpRectifier().forward(warped)
    assert read_crop_text(rect[y0:y1, x0:x1]) == "warped page line"


def test_unwarped_page_passes_through_identity():
    img, _ = _page_with_line()
    rect = StubWarpRectifier().forward(img)
    assert (rect == img).all()


N_DOCS = 120


@pytest.fixture(scope="module")
def warp_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("warp_corpus")
    return write_corpus(str(d), N_DOCS, seed=77, n_doc_files=4, warp_frac=0.5)


def _run(corpus, **kw):
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline
    from tests.test_extract_e2e import collect_output

    ds = build_extract_pipeline(
        corpus["doc_files"], corpus["media_dir"], n_parts=8, **kw,
    )
    return collect_output(ds)


def test_flagship_with_rectify_matches_golden(ray_session, warp_corpus):
    """Golden e2e over warped pages with rectify=True: the rectified
    pipeline reproduces the golden span sequences exactly (golden truth is
    in rectified space, per the reference policy)."""
    from tests.test_extract_e2e import assert_matches_golden

    table = _run(warp_corpus, rectify=True)
    assert_matches_golden(table, warp_corpus["golden_path"], N_DOCS)


def test_flagship_without_rectify_fails_on_warped_pages(ray_session, warp_corpus):
    """Negative control: with rectification OFF the warped pages cannot be
    read (cells stretched), so the run must NOT match golden — proving the
    rectify stage is load-bearing in the e2e, not decorative."""
    from tests.test_extract_e2e import assert_matches_golden, spans_by_doc

    table = _run(warp_corpus, rectify=False)
    with pytest.raises(AssertionError):
        assert_matches_golden(table, warp_corpus["golden_path"], N_DOCS)
    # and the failure is exactly the warped-media lines: text spans still match
    import pyarrow.parquet as pq

    golden = spans_by_doc(pq.read_table(warp_corpus["golden_path"]))
    got = spans_by_doc(table)
    for d, spans in golden.items():
        g_text = [s for s in spans if s[0] == "text"]
        r_text = [s for s in got[d] if s[0] == "text"]
        assert [s[:3] for s in r_text] == [s[:3] for s in g_text]


def test_rectify_composes_with_det_model_boundary(ray_session, warp_corpus):
    """rectify + det_session together: the DB model boundary consumes the
    RECTIFIED page (orient -> rectify -> det preprocess -> session)."""
    from tests.test_extract_e2e import assert_matches_golden

    table = _run(warp_corpus, rectify=True, det_model_input=True)
    assert_matches_golden(table, warp_corpus["golden_path"], N_DOCS)


def test_all_seams_on_matches_golden(ray_session, warp_corpus):
    """The full production shape in one run: UVDoc rectify + DB det
    session + CTC rec session, over a corpus with warped, rotated,
    flipped AND skewed pages — every model boundary and preprocess
    policy engaged simultaneously, same golden."""
    from tests.test_extract_e2e import assert_matches_golden

    table = _run(warp_corpus, rectify=True, det_model_input=True,
                 rec_model_input=True)
    assert_matches_golden(table, warp_corpus["golden_path"], N_DOCS)
