"""Tests of the benchmark's tracer against real Ray Data runs.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each test starts from an empty trace directory, runs the flagship
pipeline with tracing on, and reads the spans back.
"""

import os

import pytest

from perfbench import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("explode", "strip", "detect", "recognize", "pack", "merge")
N_DOCS = 60


@pytest.fixture(scope="module")
def traced_ray(tmp_path_factory):
    import ray
    from ray.data import DataContext

    trace_dir = str(tmp_path_factory.mktemp("trace"))
    ray.init(address="local", num_cpus=2, include_dashboard=False, namespace="perfbench",
             logging_level="ERROR", log_to_driver=False, runtime_env={
                 "env_vars": {"PYTHONPATH": ROOT, tracer.TRACE_DIR_ENV: trace_dir},
                 "worker_process_setup_hook": "perfbench.tracer.install_worker"})
    DataContext.get_current().enable_progress_bars = False
    patches = tracer.install_driver(trace_dir)
    yield trace_dir
    patches.undo()
    ray.shutdown()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    from oar_ocr_ray.fixtures import write_corpus

    return write_corpus(str(tmp_path_factory.mktemp("corpus")), N_DOCS, seed=3,
                        n_doc_files=4)


def _fresh(trace_dir):
    for f in os.listdir(trace_dir):
        os.remove(os.path.join(trace_dir, f))


def _by_stage(roots):
    out = {s: [] for s in STAGES}
    for r in roots:
        if r["root"] in out:
            out[r["root"]].append(r)
    return out


def _total(roots, key):
    return sum(r["counts"].get(key, 0) for r in roots)


def test_every_batch_of_every_stage_gets_a_span(traced_ray, corpus, tmp_path):
    """Each stage's spans equal the batches it processed, and the rows its
    spans saw chain from the input documents to the committed output, so
    no batch of any stage ran unrecorded. Module-level UDFs are the case
    to watch: patching them inside a worker is never seen. (Ray Data
    coalesces blocks before batch-sized stages, so one span per stage
    and task can be correct; the row chain is what shows coverage.)"""
    from oar_ocr_ray.pipelines.extract import run_extract

    _fresh(traced_ray)
    run_extract(corpus["doc_files"], corpus["media_dir"], str(tmp_path / "out"),
                n_shards=2, n_parts=2, det_model_input=True, rec_model_input=True)
    st = _by_stage(tracer.load_roots(traced_ray))
    for stage in STAGES:
        assert st[stage], stage
        assert len(st[stage]) == _total(st[stage], stage + ".batches"), stage

    def rows(stage, which):
        return _total(st[stage], f"{stage}.rows_{which}")

    assert rows("explode", "in") == N_DOCS
    assert rows("strip", "in") == rows("explode", "out")
    assert rows("detect", "in") == rows("strip", "out")
    assert rows("recognize", "in") == rows("detect", "out")
    assert rows("pack", "in") == rows("recognize", "out")
    assert rows("merge", "in") == rows("pack", "out")
    assert rows("merge", "out") == N_DOCS
    # the driver-side runner spans: one build, write and commit per shard
    names = [r["root"] for r in tracer.load_roots(traced_ray) if r["root"].startswith("shard.")]
    assert names == ["shard.build", "shard.write", "shard.commit"] * 2


def test_top_level_spans_cover_the_fused_operator(traced_ray, corpus):
    """The top-level spans of the fused map operator sum to within 10% of
    the task time Ray Data records for that operator."""
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    _fresh(traced_ray)
    ds = build_extract_pipeline(corpus["doc_files"], corpus["media_dir"], n_parts=2,
                                det_model_input=True, rec_model_input=True).materialize()
    summaries, ops = [ds._plan.stats().to_summary()], []
    while summaries:  # upstream operators sit in the summary's parents
        summary = summaries.pop()
        ops.extend(summary.operators_stats)
        summaries.extend(summary.parents)
    fused = [op for op in ops if "MediaDetect" in op.operator_name]
    assert len(fused) == 1, [op.operator_name for op in fused]
    op_busy = fused[0].wall_time["sum"]
    st = _by_stage(tracer.load_roots(traced_ray))
    spans = sum((r["t1"] - r["t0"]) / 1e9
                for s in ("explode", "strip", "detect", "recognize", "pack") for r in st[s])
    assert abs(spans - op_busy) <= 0.10 * op_busy, (spans, op_busy)


def test_recorder_self_time_and_counts(tmp_path):
    """Nested spans: a parent's self time excludes its children, counters
    attach to the open root, and a root is written when it ends."""
    rec = tracer.Recorder(str(tmp_path))
    rec.begin("outer")
    rec.begin("inner")
    rec.count("n", 2)
    rec.end()
    rec.count("n")
    rec.end()
    (root,) = tracer.load_roots(str(tmp_path))
    assert root["root"] == "outer" and root["counts"] == {"n": 3}
    (inner, outer) = root["spans"]
    assert inner[:2] == ["inner", "outer"] and outer[:2] == ["outer", ""]
    assert outer[4] == (outer[3] - outer[2]) - (inner[3] - inner[2])


def test_benchmark_json_lists_the_reported_metrics():
    """BENCHMARK.json's per-layer list is the one layers.py reports."""
    import json

    from perfbench.layers import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER


def test_wrapped_call_that_raises_is_counted(tmp_path):
    """A wrapped layer call that raises (a corrupt blob in decode_png)
    still closes its span and counts under `<span>.errors`."""
    rec = tracer.Recorder(str(tmp_path))

    def decode(data):
        raise ValueError("corrupt")

    traced = tracer._wrap(rec, decode, "decode_png")
    rec.begin("detect")
    with pytest.raises(ValueError):
        traced(b"")
    rec.end()
    (root,) = tracer.load_roots(str(tmp_path))
    assert root["counts"] == {"decode_png.errors": 1}
    assert [s[0] for s in root["spans"]] == ["decode_png", "detect"]
