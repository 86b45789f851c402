"""Fluent builder API (OAROCRBuilder / OARStructureBuilder analogues)."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from oar_ocr_ray.builder import DET_PRESETS, OcrBuilder, StructureBuilder


def test_presets_match_reference_defaults():
    g = DET_PRESETS["general"]
    assert (g.limit_side_len, g.limit_type, g.thresh, g.box_thresh, g.unclip_ratio) == \
        (960, "max", 0.3, 0.6, 2.0)
    s = DET_PRESETS["seal"]
    assert (s.limit_side_len, s.limit_type, s.thresh, s.box_thresh, s.unclip_ratio) == \
        (736, "min", 0.2, 0.6, 0.5)


def test_builder_validation_raises_at_build():
    with pytest.raises(ValueError):
        OcrBuilder().text_type("nope")
    with pytest.raises(ValueError):
        OcrBuilder().det_thresholds(thresh=1.5).build()
    with pytest.raises(ValueError):
        OcrBuilder().det_limit(960, "sideways").build()
    with pytest.raises(ValueError):
        OcrBuilder().stage_mode("threads").build()
    with pytest.raises(ValueError):
        OcrBuilder().rec_batch_size(0).build()
    with pytest.raises(ValueError):
        StructureBuilder().concurrency(0).build()


def test_batch_sizes_default_to_whole_blocks():
    """None (the default) hands each model stage whole blocks and passes
    validation; explicit ints are still checked."""
    kw = OcrBuilder().build().kwargs
    assert kw["det_batch_size"] is None and kw["rec_batch_size"] is None
    OcrBuilder().det_batch_size(None).rec_batch_size(None).build()
    with pytest.raises(ValueError):
        OcrBuilder().det_batch_size(0).build()


def test_general_preset_binds_det_cap():
    p = OcrBuilder().text_type("general").build()
    assert p.det_max_side == 960  # limit 960/max caps the detect resize
    q = OcrBuilder().text_type("seal").build()
    assert q.det_max_side == 4000  # min-mode presets don't cap the flagship


def test_built_ocr_pipeline_matches_golden(ray_session, tmp_path):
    from oar_ocr_ray.fixtures import write_corpus
    from tests.test_extract_e2e import collect_output

    corpus = write_corpus(str(tmp_path / "c"), 60, seed=9, n_doc_files=3)
    ds = (OcrBuilder().n_parts(8).det_concurrency(1).rec_concurrency(1)
          .build().dataset(corpus["doc_files"], corpus["media_dir"]))
    table = collect_output(ds)
    golden = pq.read_table(corpus["golden_path"])
    got = {r["doc_id"]: [(s["kind"], s["text"]) for s in r["spans"]]
           for r in table.to_pylist()}
    want = {r["doc_id"]: [(s["kind"], s["text"]) for s in r["spans"]]
            for r in golden.to_pylist()}
    assert got == want


def test_built_structure_pipeline_runs(ray_session, tmp_path):
    from oar_ocr_ray.fixtures import write_structure_corpus

    corpus = write_structure_corpus(str(tmp_path / "s"), 8, seed=3)
    ds = (StructureBuilder().concurrency(1).batch_size(4)
          .build().dataset(corpus["refs_path"], corpus["media_dir"]))
    df = ds.to_pandas()
    assert len(df) == 8
    assert {"media_ref", "markdown", "html"} <= set(df.columns)


def test_run_forwards_every_builder_knob(monkeypatch, tmp_path):
    """run() must honor the same knobs dataset() does: det/rec concurrency,
    batch sizes, stage_mode and the preset-derived det_max_side all reach
    run_extract (which forwards unknown kwargs to build_extract_pipeline)."""
    import oar_ocr_ray.pipelines.extract as ext

    captured = {}

    def fake_run_extract(doc_files, media_dir, out_dir, **kw):
        captured.update(kw)
        return {"shards": 0}

    monkeypatch.setattr(ext, "run_extract", fake_run_extract)
    pipe = (OcrBuilder().text_type("general").n_parts(5)
            .det_concurrency(8).rec_concurrency(3)
            .det_batch_size(17).rec_batch_size(33)
            .stage_mode("actors").build())
    pipe.run(["docs.parquet"], "media", str(tmp_path / "out"), n_shards=2)
    assert captured["n_parts"] == 5
    assert captured["det_concurrency"] == 8
    assert captured["rec_concurrency"] == 3
    assert captured["det_batch_size"] == 17
    assert captured["rec_batch_size"] == 33
    assert captured["stage_mode"] == "actors"
    assert captured["det_max_side"] == pipe.det_max_side
    assert captured["n_shards"] == 2
