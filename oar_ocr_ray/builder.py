"""Fluent pipeline builders — the reference's primary user API re-expressed
as config -> Ray Data DAG factories.

Mirrors /root/reference/src/oarocr/ocr.rs:55-365 (OAROCRBuilder) and
structure.rs:111-1161 (OARStructureBuilder) semantics: per-text-type
detection presets (general: limit 960/max, thresh .3/.6, unclip 2.0;
seal: 736/min, .2/.6, 0.5 — ocr.rs:264-301), validated knobs, and a
build() that yields a pipeline object. Unlike the reference (which owns
ONNX sessions), build() is cheap: the result holds only config and
constructs the lazy Dataset DAG on demand — Ray executes on consumption.

Every knob binds to a real parameter of the Ray stages; validation errors
raise at build time (the reference's config-validation behavior), not
mid-run on a 256-node cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DetPreset:
    """Detection preprocessing/postprocessing preset (model boundary).

    limit_side_len/limit_type drive DetResizeForTest (preprocess.det_resize);
    thresh/box_thresh/unclip_ratio are the DB postprocess parameters
    (geometry.unclip_box / box_score_fast) — carried for the production
    ONNX path, unused by the deterministic stand-in detector."""

    limit_side_len: int
    limit_type: str            # "max" | "min"
    thresh: float
    box_thresh: float
    unclip_ratio: float

    def validate(self) -> "DetPreset":
        if self.limit_type not in ("max", "min"):
            raise ValueError(f"limit_type must be 'max' or 'min', got {self.limit_type!r}")
        if self.limit_side_len <= 0:
            raise ValueError("limit_side_len must be positive")
        for name in ("thresh", "box_thresh"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.unclip_ratio <= 0:
            raise ValueError("unclip_ratio must be positive")
        return self


# ocr.rs:264-301 per-text-type defaults
DET_PRESETS = {
    "general": DetPreset(960, "max", 0.3, 0.6, 2.0),
    "seal": DetPreset(736, "min", 0.2, 0.6, 0.5),
}


class OcrBuilder:
    """Fluent config for the flagship OCR extraction pipeline.

    >>> ds = (OcrBuilder().text_type("general").det_concurrency(4)
    ...       .build().dataset(doc_files, media_dir))

    det_batch_size / rec_batch_size default to None: each model stage gets
    whole blocks (the read makes 2 per cluster CPU). An int cuts blocks
    into batches of that many rows.
    """

    def __init__(self):
        self._preset = DET_PRESETS["general"]
        self._n_parts = 64
        self._det_concurrency = 4
        self._rec_concurrency = 2
        self._det_batch_size = None  # whole blocks
        self._rec_batch_size = None
        self._stage_mode = "tasks"
        self._det_max_side = 4000  # DetResizeForTest max_side_limit cap
        self._rec_model_input = False

    def text_type(self, t: str) -> "OcrBuilder":
        if t not in DET_PRESETS:
            raise ValueError(f"unknown text_type {t!r}; one of {sorted(DET_PRESETS)}")
        self._preset = DET_PRESETS[t]
        return self

    def det_limit(self, side_len: int, limit_type: str) -> "OcrBuilder":
        self._preset = replace(self._preset, limit_side_len=side_len, limit_type=limit_type)
        return self

    def det_thresholds(self, thresh: float | None = None, box_thresh: float | None = None,
                       unclip_ratio: float | None = None) -> "OcrBuilder":
        kw = {k: v for k, v in
              (("thresh", thresh), ("box_thresh", box_thresh), ("unclip_ratio", unclip_ratio))
              if v is not None}
        self._preset = replace(self._preset, **kw)
        return self

    def n_parts(self, n: int) -> "OcrBuilder":
        self._n_parts = n
        return self

    def det_concurrency(self, n: int) -> "OcrBuilder":
        self._det_concurrency = n
        return self

    def rec_concurrency(self, n: int) -> "OcrBuilder":
        self._rec_concurrency = n
        return self

    def det_batch_size(self, n: int | None) -> "OcrBuilder":
        self._det_batch_size = n
        return self

    def rec_batch_size(self, n: int | None) -> "OcrBuilder":
        self._rec_batch_size = n
        return self

    def stage_mode(self, mode: str) -> "OcrBuilder":
        self._stage_mode = mode
        return self

    def rec_model_input(self, on: bool = True) -> "OcrBuilder":
        """Route recognition through the model-boundary tensor chain
        (ocr_resize_and_pad -> normalize_image -> to_batch -> session);
        the session is a Recognize constructor arg — a real ONNX wrapper
        drops in without pipeline changes."""
        self._rec_model_input = on
        return self

    def build(self) -> "OcrPipeline":
        self._preset.validate()
        if self._stage_mode not in ("tasks", "actors"):
            raise ValueError(f"stage_mode must be 'tasks' or 'actors', got {self._stage_mode!r}")
        for name in ("_n_parts", "_det_concurrency", "_rec_concurrency",
                     "_det_batch_size", "_rec_batch_size"):
            v = getattr(self, name)
            if v is None and name.endswith("_batch_size"):
                continue  # whole blocks
            if v < 1:
                raise ValueError(f"{name.lstrip('_')} must be >= 1")
        return OcrPipeline(self)


class OcrPipeline:
    """Built config; constructs the lazy DAG / runs the sharded job."""

    def __init__(self, b: OcrBuilder):
        self.preset = b._preset
        self.kwargs = dict(
            n_parts=b._n_parts,
            det_concurrency=b._det_concurrency,
            rec_concurrency=b._rec_concurrency,
            det_batch_size=b._det_batch_size,
            rec_batch_size=b._rec_batch_size,
            stage_mode=b._stage_mode,
            rec_model_input=b._rec_model_input,
        )
        # the resize preset binds to the detect stage's model-boundary cap
        # only for "max" mode (the flagship path); "min" (seal) presets
        # apply inside the structure stage's seal pass
        self.det_max_side = (
            min(b._det_max_side, b._preset.limit_side_len)
            if b._preset.limit_type == "max" else b._det_max_side
        )

    def dataset(self, doc_files, media_dir: str):
        from .pipelines.extract import build_extract_pipeline

        return build_extract_pipeline(doc_files, media_dir,
                                      det_max_side=self.det_max_side, **self.kwargs)

    def run(self, doc_files, media_dir: str, out_dir: str, **kw):
        from .pipelines.extract import run_extract

        # run() must honor every builder knob exactly like dataset() does:
        # run_extract forwards unknown kwargs to build_extract_pipeline.
        merged = {**self.kwargs, "det_max_side": self.det_max_side, **kw}
        return run_extract(doc_files, media_dir, out_dir, **merged)


class StructureBuilder:
    """Fluent config for the per-page structure pipeline
    (OARStructureBuilder analogue)."""

    def __init__(self):
        self._min_line_area = 9
        self._concurrency = 4
        self._batch_size = 16

    def min_line_area(self, n: int) -> "StructureBuilder":
        self._min_line_area = n
        return self

    def concurrency(self, n: int) -> "StructureBuilder":
        self._concurrency = n
        return self

    def batch_size(self, n: int) -> "StructureBuilder":
        self._batch_size = n
        return self

    def build(self) -> "StructurePipeline":
        if self._min_line_area < 1 or self._concurrency < 1 or self._batch_size < 1:
            raise ValueError("all StructureBuilder knobs must be >= 1")
        return StructurePipeline(self)


class StructurePipeline:
    def __init__(self, b: StructureBuilder):
        self.min_line_area = b._min_line_area
        self.concurrency = b._concurrency
        self.batch_size = b._batch_size

    def dataset(self, refs_files, media_dir: str):
        import ray.data

        from .stages.structure_stage import StructureExtract

        ds = ray.data.read_parquet(refs_files, columns=["media_ref"])
        return ds.map_batches(
            StructureExtract,
            fn_constructor_kwargs={"media_dir": media_dir,
                                   "min_line_area": self.min_line_area},
            batch_format="pyarrow",
            batch_size=self.batch_size,
            concurrency=self.concurrency,
        )
