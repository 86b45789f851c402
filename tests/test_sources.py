"""The Lance substitution seam (BASELINE.md "Environment substitution"):
documents are read through sources.read_documents, which dispatches on
the source format and accepts a `ray.data.read_lance`-shaped injection.
The `lance` package is absent in this container, so the Lance branch is
exercised with a reader DOUBLE — proving column pruning and block sizing
survive the dispatch and the flagship produces identical output through
the seam."""

import numpy as np
import pytest

from oar_ocr_ray.sources import is_lance_source, read_documents


def test_is_lance_source_convention():
    assert is_lance_source("/data/docs.lance")
    assert is_lance_source("/data/docs.lance/")
    assert is_lance_source(["/a/x.lance", "/a/y.lance"])
    assert not is_lance_source("/data/docs.parquet")
    assert not is_lance_source(["/a/x.lance", "/a/y.parquet"])  # mixed
    assert not is_lance_source([])


def test_lance_source_without_package_fails_loudly():
    with pytest.raises(NotImplementedError, match="lance_reader="):
        read_documents("/data/docs.lance")


def test_parquet_dispatch_reads(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    p = str(tmp_path / "d.parquet")
    pq.write_table(pa.table({"doc_id": ["a", "b"], "x": [1, 2]}), p)
    ds = read_documents(p, columns=["doc_id"])
    out = ds.to_pandas()
    assert list(out.columns) == ["doc_id"] and len(out) == 2


class ReaderDouble:
    """read_lance-shaped double: records the call, serves from parquet."""

    def __init__(self, parquet_files):
        self.parquet_files = parquet_files
        self.calls = []

    def __call__(self, source, *, columns=None, override_num_blocks=None):
        import ray.data

        self.calls.append({"source": source, "columns": columns,
                           "override_num_blocks": override_num_blocks})
        return ray.data.read_parquet(
            self.parquet_files, columns=columns,
            override_num_blocks=override_num_blocks)


def test_flagship_identical_through_lance_seam(ray_session, tmp_path):
    """build_extract_pipeline(lance_reader=double) must produce the SAME
    per-document span sequence as the parquet path, with the column
    projection pushed through the seam."""
    from oar_ocr_ray.fixtures import write_corpus
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    meta = write_corpus(str(tmp_path / "c"), 40, seed=5, n_doc_files=4,
                        with_golden=False)
    base = build_extract_pipeline(
        meta["doc_files"], meta["media_dir"], n_parts=8
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    double = ReaderDouble(meta["doc_files"])
    seam = build_extract_pipeline(
        "corpus://docs.lance", meta["media_dir"], n_parts=8,
        lance_reader=double,
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)

    # 2 read blocks per CPU of the cluster (conftest starts Ray with 4)
    assert double.calls == [{"source": "corpus://docs.lance",
                             "columns": ["doc_id", "spans"],
                             "override_num_blocks": 8}]
    assert (base["doc_id"] == seam["doc_id"]).all()
    mism = base["spans"].astype(str).to_numpy() != seam["spans"].astype(str).to_numpy()
    assert not mism.any(), base["doc_id"][np.flatnonzero(mism)[0]]


def test_read_block_count_ignores_n_parts(ray_session, tmp_path):
    """The read is sized from the cluster's CPUs alone: the number of
    `part` keys does not change it."""
    from oar_ocr_ray.fixtures import write_corpus
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    meta = write_corpus(str(tmp_path / "c"), 8, seed=5, n_doc_files=2,
                        with_golden=False)
    double = ReaderDouble(meta["doc_files"])
    for n_parts in (8, 200):
        build_extract_pipeline("corpus://docs.lance", meta["media_dir"],
                               n_parts=n_parts, lance_reader=double)
    assert [c["override_num_blocks"] for c in double.calls] == [8, 8]


def test_extract_build_needs_running_ray(monkeypatch, tmp_path):
    """The read is sized from the running cluster, so building without a
    Ray session fails with a clear error instead of starting one."""
    import ray

    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    with pytest.raises(RuntimeError, match="ray.init"):
        build_extract_pipeline("docs.parquet", str(tmp_path))
