"""End-to-end structure pipeline vs the pure-Python golden oracle.

The golden is computed from generation GROUND TRUTH (block/line boxes and
texts as generated); the pipeline must recover identical boxes, labels and
texts from PIXELS through decode -> orient -> layout detect -> text detect
-> split -> recognize -> stitch_page_enhanced -> markdown/html."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from oar_ocr_ray.fixtures import write_structure_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("structure_corpus")
    return write_structure_corpus(str(out), n_pages=60, seed=7)


def _run_structure(corpus, **kw):
    """StructureExtract over the corpus pages in batches of 16. The refs
    manifest is read without its schema metadata (its `n_buckets` is for
    the sharded runner): Ray cannot hash a schema that carries it when it
    concatenates blocks into a batch, and logs so once per batch."""
    import pyarrow as pa
    import ray.data

    from oar_ocr_ray.stages.structure_stage import StructureExtract

    ds = ray.data.read_parquet(corpus["refs_path"], columns=["media_ref"],
                               schema=pa.schema([("media_ref", pa.string())]))
    return ds.map_batches(
        StructureExtract,
        fn_constructor_kwargs={"media_dir": corpus["media_dir"], **kw},
        batch_format="pyarrow", batch_size=16, concurrency=2,
    ).to_pandas().sort_values("media_ref").reset_index(drop=True)


def _assert_golden(out, corpus):
    golden = pq.read_table(corpus["golden_path"]).to_pandas().sort_values(
        "media_ref").reset_index(drop=True)
    assert len(out) == len(golden) == corpus["n_pages"]
    pd.testing.assert_series_equal(out["media_ref"], golden["media_ref"])
    for col in ("n_elements", "labels", "markdown", "html"):
        mism = out[col].to_numpy() != golden[col].to_numpy()
        if mism.any():
            i = int(np.flatnonzero(mism)[0])
            raise AssertionError(
                f"{col} mismatch on {out['media_ref'][i]}:\n"
                f"pipeline: {out[col][i]!r}\ngolden:   {golden[col][i]!r}"
            )


def test_structure_pipeline_matches_golden(ray_session, corpus):
    _assert_golden(_run_structure(corpus), corpus)


def test_structure_pages_cover_label_variety(corpus):
    golden = pq.read_table(corpus["golden_path"]).to_pandas()
    all_labels = set(";".join(golden["labels"]).split(";"))
    # fixture must actually exercise the interesting structure paths
    for expected in ("header", "footer", "doc_title", "paragraph_title",
                     "text", "table", "image", "list", "seal", "formula"):
        assert expected in all_labels, f"no page generated a {expected} block"


def test_structure_rotated_pages_exist_and_match(corpus):
    import pyarrow.parquet as pq2
    import os

    rots = []
    for f in sorted(os.listdir(corpus["media_dir"])):
        t = pq2.read_table(os.path.join(corpus["media_dir"], f), columns=["rot"])
        rots.extend(t["rot"].to_pylist())
    assert any(r != 0 for r in rots), "no rotated page in fixture — orientation path untested"


def test_golden_has_orphan_text_elements(corpus):
    # orphan background lines must surface as promoted 'text' elements on
    # at least one page whose block set doesn't already cover them
    golden = pq.read_table(corpus["golden_path"]).to_pandas()
    assert golden["n_elements"].sum() > 0
    assert (golden["n_elements"] > 0).all()


def test_golden_contains_wired_table_html(corpus):
    golden = pq.read_table(corpus["golden_path"]).to_pandas()
    wired = golden[golden["html"].str.contains('<table border="1"', regex=False)]
    assert len(wired) > 0, "no wired table rendered in fixture corpus"
    # cell content made it into the embedded table structure
    joined = " ".join(wired["html"])
    assert "<td>" in joined and "</td>" in joined


def test_golden_contains_normalized_formula(corpus):
    golden = pq.read_table(corpus["golden_path"]).to_pandas()
    formulas = golden[golden["labels"].str.contains("formula")]
    assert len(formulas) > 0, "no formula block generated in fixture corpus"
    joined = " ".join(formulas["markdown"])
    # normalize_latex ran: spaces inside braces and between symbols collapsed
    assert "$$" in joined
    assert "^{2}" in joined or "_{i}" in joined or "\\mathrm{d}" in joined or "\\operatorname{sin}" in joined


def test_fixture_generates_region_pages(corpus):
    import os

    import pyarrow.parquet as pq2

    n_region_pages = 0
    for f in sorted(os.listdir(corpus["media_dir"])):
        t = pq2.read_table(os.path.join(corpus["media_dir"], f), columns=["regions"])
        n_region_pages += sum(1 for r in t["regions"].to_pylist() if r)
    assert n_region_pages > 0, "no page generated region blocks — hierarchy path untested"


def test_wireless_tables_get_structure_from_lines(corpus):
    # wireless tables (no ruled grid) infer a row structure from their
    # line layout (the wireless-SLANet stand-in) — at least one such table
    # must appear with <tr> rows but without having come from the wired
    # cell path on its page
    golden = pq.read_table(corpus["golden_path"]).to_pandas()
    tabled = golden[golden["labels"].str.contains("table")]
    assert tabled["markdown"].str.contains("<tr>").any()


def test_run_structure_extract_resumable(ray_session, corpus, tmp_path):
    """Sharded structure runner: a killed run (max_shards=1) resumes from
    the manifest, re-running skips committed shards, and the union of
    shard outputs equals the one-shot pipeline result page-for-page."""
    from oar_ocr_ray.pipelines.structure import (
        read_structure_output,
        run_structure_extract,
    )

    out = str(tmp_path / "out")
    r1 = run_structure_extract(corpus["refs_path"], corpus["media_dir"], out,
                               n_shards=4, n_buckets=corpus["n_buckets"],
                               max_shards=1)
    assert r1["shards_processed_now"] == 1 and r1["shards_done"] == 1
    partial = read_structure_output(out)
    assert 0 < len(partial) < corpus["n_pages"]

    r2 = run_structure_extract(corpus["refs_path"], corpus["media_dir"], out,
                               n_shards=4, n_buckets=corpus["n_buckets"])
    assert r2["shards_done"] == 4 and r2["shards_processed_now"] == 3
    full = read_structure_output(out).to_pandas().sort_values(
        "media_ref").reset_index(drop=True)
    assert len(full) == corpus["n_pages"]
    golden = pq.read_table(corpus["golden_path"]).to_pandas().sort_values(
        "media_ref").reset_index(drop=True)
    for col in ("n_elements", "markdown", "html"):
        assert (full[col].to_numpy() == golden[col].to_numpy()).all(), col

    # idempotent: a third run does nothing
    r3 = run_structure_extract(corpus["refs_path"], corpus["media_dir"], out,
                               n_shards=4, n_buckets=corpus["n_buckets"])
    assert r3["shards_processed_now"] == 0

    # drifted shard layout must fail loudly, not silently skip/reprocess
    with pytest.raises(RuntimeError, match="resume mismatch"):
        run_structure_extract(corpus["refs_path"], corpus["media_dir"], out,
                              n_shards=2, n_buckets=corpus["n_buckets"])


def test_structure_corpus_renders_skewed_lines(corpus):
    """The structure fixture must exercise the skew gate: a healthy share
    of pages carries small-angle lines (anchor-framed protocol)."""
    import os

    from oar_ocr_ray.fixtures import SKEW_ANCHOR
    from oar_ocr_ray.png_codec import decode_png

    n_skew = 0
    for f in sorted(os.listdir(corpus["media_dir"])):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(f"{corpus['media_dir']}/{f}", columns=["png"])
        for blob in t["png"].to_pylist():
            img = decode_png(blob)[:, :, 0]
            n_skew += int((img == SKEW_ANCHOR).sum() > 0)
    assert n_skew >= corpus["n_pages"] // 4, f"only {n_skew} skewed pages"


def test_structure_tensor_rec_path_matches_golden(ray_session, corpus):
    """rec_model_input=True routes EVERY structure-path line read (lines,
    seals, fallback OCR, cell splits) through the flagship's model
    boundary — preprocess chain -> StubCtcSession -> real CTC decode with
    the 0/180 retry — via the shared LineReader. Same golden, skewed
    lines included: the rec stack is one stack across both pipelines."""
    _assert_golden(_run_structure(corpus, rec_model_input=True), corpus)


def test_structure_det_seam_matches_golden(ray_session, corpus):
    """det_model_input=True routes the structure page's TEXT detection
    through the SAME DbDetector seam as the flagship (one det stack across
    both pipelines, structure.rs/ocr.rs share DBModel): session heatmap ->
    real DBPostProcess; the ~1px unclip margins survive the stitching
    (overlap match, container split, cell split) and the margin-tolerant
    reads."""
    _assert_golden(_run_structure(corpus, det_model_input=True), corpus)


def test_structure_layout_seam_matches_golden(ray_session, corpus):
    """layout_model_input=True routes layout detection through the model
    boundary: normalized tensor -> StubLayoutSession (N,6) detections ->
    label map + score filter — a real RT-DETR/PicoDet wrapper is the
    layout_session constructor arg."""
    _assert_golden(_run_structure(corpus, layout_model_input=True), corpus)


def test_structure_all_seams_matches_golden(ray_session, corpus):
    """All three structure model boundaries ON together (layout + det +
    rec sessions) — the full production shape of the structure pipeline,
    same golden."""
    _assert_golden(_run_structure(corpus, det_model_input=True,
                                  layout_model_input=True,
                                  rec_model_input=True), corpus)


def test_structure_aux_seams_match_golden(ray_session, corpus):
    """aux_model_input=True routes the remaining neural cores through
    session boundaries — document orientation (PP-LCNet probs), table
    wired/wireless classification, table-cell detection (crop-coord
    detections mapped back to page coords) and region blocks — same
    golden. With this, EVERY neural core in the structure flow is a
    drop-in session constructor arg."""
    _assert_golden(_run_structure(corpus, aux_model_input=True), corpus)


def test_structure_formula_seam_matches_golden(ray_session, corpus):
    """formula_model_input=True recognizes each formula block through the
    dedicated model boundary (crop_margin -> tensor -> session) and merges
    the results via the best-IoU fill_formula_content stream — the
    reference's separate formula pipeline — same golden."""
    _assert_golden(_run_structure(corpus, formula_model_input=True), corpus)


def test_structure_every_seam_on_matches_golden(ray_session, corpus):
    """All EIGHT structure session seams at once: layout + text-det +
    rec + orientation + table-cls + cells + regions + formula."""
    _assert_golden(_run_structure(
        corpus, det_model_input=True, layout_model_input=True,
        rec_model_input=True, aux_model_input=True,
        formula_model_input=True), corpus)


def test_structure_bucket_count_mismatch_fails_loudly(ray_session, corpus):
    """A consumer run whose n_buckets disagrees with the manifest's
    persisted bucket count must refuse loudly — a silent mismatch would
    drop every page whose persisted id the filter never matches while
    all shards commit successfully (the round-4 review finding)."""
    from oar_ocr_ray.pipelines.structure import build_structure_pipeline

    with pytest.raises(ValueError, match="bucket-count mismatch"):
        build_structure_pipeline(corpus["refs_path"], corpus["media_dir"],
                                 buckets=[0, 1], n_buckets=4)


def test_corrupt_page_counted_and_skipped(tmp_path, monkeypatch):
    """A corrupt page blob (bad header, cut header, cut IDAT stream) is
    counted in missing_media and its page skipped; any other error from
    decode is a bug and propagates."""
    import pyarrow as pa

    from oar_ocr_ray.png_codec import encode_png
    from oar_ocr_ray.stages import structure_stage

    png = encode_png(np.full((16, 16, 3), 255, np.uint8))
    blobs = {"page://bad-header": b"\x89PNG-corrupt-" + bytes(8),
             "page://cut-header": png[:10],
             "page://cut-idat": png[: len(png) - 20]}
    stage = structure_stage.StructureExtract(media_dir=str(tmp_path))
    stage.store = blobs  # dict.get is the store's whole read surface
    out = stage(pa.table({"media_ref": list(blobs)}))
    assert out.num_rows == 0 and stage.missing_media == len(blobs)

    def broken_decode(payload):
        raise TypeError("decoder bug")

    monkeypatch.setattr(structure_stage, "decode_png", broken_decode)
    with pytest.raises(TypeError, match="decoder bug"):
        stage(pa.table({"media_ref": ["page://bad-header"]}))
