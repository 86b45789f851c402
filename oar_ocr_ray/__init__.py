"""oar_ocr_ray — a Ray-Data-native extraction engine.

A from-scratch reimplementation of the query/data-processing capabilities of
the reference `owen800q/oar-ocr` (Rust + ONNX Runtime OCR engine), expressed
as `ray.data.Dataset` pipelines: `map_batches` over zero-copy Arrow batches,
model stages as stateless tasks with a per-worker cached stage instance,
explicit `groupby`/`sort`/partitioning for the queries' wide steps, over
tables of interleaved text + media documents.

Layout:
  geometry   — polygon/box math (IoU/IoA, perspective crop, connected comps)
  sorting    — reading-order heuristics (raster quad sort, XY-cut)
  ctc        — CTC greedy decode + word-box geometry
  png_codec  — minimal pure-python PNG encode/decode (zlib, filter 0)
  textproc   — boilerplate strip / whitespace normalize / smart join
  fixtures   — deterministic synthetic corpus generator + golden oracle
  stubs      — deterministic stand-ins for the neural stages
  stages/    — Ray Data stage implementations (explode, media, text, reassemble)
  pipelines/ — end-to-end pipelines (flagship extraction w/ resume)
  functions/ — text analysis, dedup, ANN, window aggregates
  state/     — checkpoint manifests and the sharded commit loop
"""

__version__ = "0.1.0"
