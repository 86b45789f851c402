"""Batched-recognition and seal-seam evidence (round-5 criteria).

The reference feeds ONE rec stack wh-sorted region_batch_size batches in
BOTH pipelines (structure.rs:2140-2216, ocr.rs:733-740). These tests spy
on the session boundary and prove the repo never does per-crop B=1
forwards: the structure path's LineReader sub-batches every recognition
group, and the flagship Recognize batches its flipped 0/180 retries per
first-pass tensor width. The seal path must run its OWN DbDetector with
the seal preset (ocr.rs:264-301) whenever the det seam is on.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from oar_ocr_ray.fixtures import text_patch, write_structure_corpus


class CountingCtcSession:
    """StubCtcSession wrapper recording every forward's batch size."""

    def __init__(self):
        from oar_ocr_ray.stubs import StubCtcSession

        self._inner = StubCtcSession()
        self.batch_sizes: list[int] = []

    def __call__(self, tensor):
        self.batch_sizes.append(int(tensor.shape[0]))
        return self._inner(tensor)


class CountingDbSession:
    """StubDbSession wrapper (seal preset) recording call count."""

    def __init__(self, unclip_ratio: float):
        from oar_ocr_ray.stubs import StubDbSession

        self._inner = StubDbSession(unclip_ratio=unclip_ratio)
        self.calls = 0

    def __call__(self, tensor):
        self.calls += 1
        return self._inner(tensor)


def _line_crops(n: int, seed: int, flip_idx=()):
    rng = np.random.default_rng(seed)
    crops, want = [], []
    for i in range(n):
        t = f"line {i:02d}" + "x" * int(rng.integers(0, 9))
        crops.append(text_patch(t, int(rng.integers(8, 15))))
        want.append(t)
    for i in flip_idx:
        # first-pass decode is empty on a half-turned crop; the flipped
        # retry recovers the text (the fused 0/180 policy)
        crops[i] = np.ascontiguousarray(np.rot90(crops[i], 2))
    return crops, want


def test_linereader_read_many_subbatches_session_calls():
    """20 upright + 4 flipped crops through LineReader(model_input=True):
    the session must see ceil(24/8)=3 wh-sorted first-pass sub-batches
    and a handful of width-grouped retry batches — never one forward per
    crop — while returning every text in input order."""
    from oar_ocr_ray.stages.media import LineReader

    crops, want = _line_crops(24, seed=3, flip_idx=(3, 9, 14, 19))
    # empty / None crops ride along without touching the session
    crops += [np.zeros((0, 0), np.uint8), None]
    want += ["", ""]
    spy = CountingCtcSession()
    reader = LineReader(model_input=True, rec_session=spy)
    assert reader.read_many(crops) == want
    # first pass: 24 crops in sub-batches of region_batch_size=8
    assert spy.batch_sizes[:3] == [8, 8, 8]
    # retries: 4 flipped crops grouped by first-pass tensor width — at
    # most one call per distinct width, never per crop
    retry_calls = spy.batch_sizes[3:]
    assert sum(retry_calls) == 4 and len(retry_calls) <= 3
    # the per-crop ceiling this replaces: >= 24 + 4 calls
    assert len(spy.batch_sizes) <= 6


def test_linereader_read_single_consistent_with_many():
    from oar_ocr_ray.stages.media import LineReader

    crops, want = _line_crops(5, seed=11)
    spy = CountingCtcSession()
    reader = LineReader(model_input=True, rec_session=spy)
    assert [reader.read(c) for c in crops] == want


def _recognize_input(crops) -> pa.Table:
    """A Recognize input block: one crop row per array, its det box the
    whole crop."""
    from oar_ocr_ray.stages.media import BBOX_FIELDS, CROP_FIELDS

    cols = {"doc_id": pa.array(["d"] * len(crops), pa.string()),
            "text": pa.array([""] * len(crops), pa.string())}
    for (name, typ), vals in zip(
        CROP_FIELDS,
        [[c.tobytes() for c in crops],
         [c.shape[0] for c in crops],
         [c.shape[1] for c in crops],
         [c.shape[1] / c.shape[0] for c in crops]],
    ):
        cols[name] = pa.array(vals, typ)
    for (name, typ), vals in zip(
        BBOX_FIELDS,
        [[0.0] * len(crops), [0.0] * len(crops),
         [float(c.shape[1]) for c in crops],
         [float(c.shape[0]) for c in crops]],
    ):
        cols[name] = pa.array(vals, typ)
    return pa.table(cols)


def test_recognize_flipped_retries_batched_per_width():
    """Flagship Recognize: with rec_session_batch=4, 8 upright + 4
    flipped same-geometry crops cost 3 first-pass forwards (wh-sorted
    sub-batches) plus ONE retry forward for the whole flipped group —
    the retry set shares its first-pass tensor width."""
    from oar_ocr_ray.stages.media import Recognize

    texts = [f"Row {i:02d} text" for i in range(12)]  # equal-length -> one wh ratio
    crops = [text_patch(t, 10) for t in texts]  # same bh -> same geometry
    flip_idx = (2, 5, 7, 10)
    for i in flip_idx:
        crops[i] = np.ascontiguousarray(np.rot90(crops[i], 2))
    spy = CountingCtcSession()
    out = Recognize(model_input=True, rec_session=spy,
                    rec_session_batch=4)(_recognize_input(crops)).to_pydict()
    assert out["text"] == texts
    # identical texts -> identical wh ratios -> every sub-batch (and the
    # whole retry group) shares one tensor width: 3 first-pass forwards
    # of 4, then exactly ONE retry forward carrying all 4 flipped crops
    assert spy.batch_sizes == [4, 4, 4, 4]


def test_recognize_preprocess_runs_through_traced_functions(monkeypatch):
    """perfbench's rec.preprocess_s times `preprocess.ocr_resize_and_pad`
    and `preprocess.gray_batch_tensor`, patched on the module. One
    Recognize call over N crops with k flipped retries must resize
    through the former N + k times and build every session tensor
    through the latter, once per session call, so that no preprocess
    work moves out of the timed spans into recognize.self_s."""
    from oar_ocr_ray import preprocess
    from oar_ocr_ray.stages.media import Recognize

    calls = {"ocr_resize_and_pad": 0, "gray_batch_tensor": 0}
    for name in calls:
        def counted(*args, _fn=getattr(preprocess, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(preprocess, name, counted)
    crops, want = _line_crops(11, seed=5, flip_idx=(1, 4, 8))
    spy = CountingCtcSession()
    out = Recognize(model_input=True, rec_session=spy,
                    rec_session_batch=4)(_recognize_input(crops)).to_pydict()
    assert out["text"] == want
    assert calls["ocr_resize_and_pad"] == 11 + 3
    assert sum(spy.batch_sizes) == 11 + 3
    assert calls["gray_batch_tensor"] == len(spy.batch_sizes)


@pytest.fixture(scope="module")
def seal_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("seal_corpus")
    return write_structure_corpus(str(out), n_pages=24, seed=13)


def test_seal_path_routes_through_det_seam_preset(seal_corpus):
    """det seam on: seal-text detection runs its OWN DbDetector with the
    seal preset (thresh 0.2 / box_thresh 0.6 / unclip_ratio 0.5,
    reference ocr.rs:264-301) — the spy session must be exercised on the
    fixture's seal pages and the golden must still match."""
    from oar_ocr_ray.stages.structure_stage import StructureExtract

    spy = CountingDbSession(unclip_ratio=0.5)
    stage = StructureExtract(media_dir=seal_corpus["media_dir"],
                             det_model_input=True, seal_session=spy)
    assert stage.seal_detector is not None
    assert (stage.seal_detector.thresh, stage.seal_detector.box_thresh,
            stage.seal_detector.unclip_ratio) == (0.2, 0.6, 0.5)
    refs = pq.read_table(seal_corpus["refs_path"])
    out = stage(refs).to_pandas().sort_values("media_ref").reset_index(drop=True)
    golden = pq.read_table(seal_corpus["golden_path"]).to_pandas().sort_values(
        "media_ref").reset_index(drop=True)
    assert (out["labels"].to_numpy() == golden["labels"].to_numpy()).all()
    assert (out["markdown"].to_numpy() == golden["markdown"].to_numpy()).all()
    assert golden["labels"].str.contains("seal").any(), "fixture lost seal pages"
    assert spy.calls > 0, "seal session never exercised with det seam on"


def test_seal_detector_off_without_det_seam(seal_corpus):
    from oar_ocr_ray.stages.structure_stage import StructureExtract

    stage = StructureExtract(media_dir=seal_corpus["media_dir"])
    assert stage.seal_detector is None and stage.line_detector is None


def test_model_boundaries_default_to_their_named_stub():
    """Every page- and box-level wrapper builds its own stand-in session
    when none is passed, and keeps a session it is given."""
    from oar_ocr_ray.stages import media

    wrappers = (media.DbDetector, media.LayoutDetector,
                media.OrientationClassifier, media.TableClassifier,
                media.CellDetector, media.RegionDetector,
                media.FormulaRecognizer)
    for cls in wrappers:
        assert type(cls().session).__name__ == cls.STUB, cls.__name__
        sentinel = object()
        assert cls(session=sentinel).session is sentinel, cls.__name__
    assert media.DbDetector(unclip_ratio=0.5).session.unclip_ratio == 0.5


def test_box_level_boundaries_skip_empty_crops():
    """A box that clips to no pixels never reaches the session."""
    from oar_ocr_ray.stages import media

    class Refuse:
        def __call__(self, tensor):
            raise AssertionError("session called on an empty crop")

    page = np.full((40, 60), 255, dtype=np.uint8)
    for box in ([10, 10, 10, 30], [-5, 50, 20, 60], [70, 5, 90, 20]):
        assert media.TableClassifier(session=Refuse())(page, box) == "wireless"
        assert media.CellDetector(session=Refuse())(page, box).shape == (0, 4)
        assert media.FormulaRecognizer(session=Refuse())(page, box) == ""
