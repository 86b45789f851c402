"""Benchmark harness (driver contract).

Headline: the flagship extraction pipeline (docs/sec) over a cached
deterministic synthetic interleaved corpus; plus per-query timings over
$GRAFT_SF_DIR (default /root/testdata/sf0.1). Ray gets the CPUs this
process may use (affinity, OMP_NUM_THREADS, cgroup quota; see
perfbench.measure.available_cpus), at least queries.MIN_CLUSTER_CPUS and
at most MAX_CPUS; $RAY_GRAFT_CPUS overrides.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ...}

`bench.py --scaling` runs the headline job in two fresh processes
(num_cpus=8 and num_cpus=32) on the same input and reports both
throughputs + scaling efficiency (the sandbox evidence protocol for the
N -> 4N cluster criterion, BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

from oar_ocr_ray.queries import MIN_CLUSTER_CPUS  # noqa: E402
from perfbench.measure import available_cpus  # noqa: E402

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
# Ray starts a worker per CPU it is given: cap what a large host shows
MAX_CPUS = 16
# Ray's num_cpus: the CPUs this process may use, unless RAY_GRAFT_CPUS says
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS")
               or min(max(MIN_CLUSTER_CPUS, available_cpus()), MAX_CPUS))
BENCH_DOCS = int(os.environ.get("BENCH_DOCS", "20000"))
SEED = 42

BENCH_QUERIES = [
    "extract_flagship",  # headline first (cleanest measurement)
    "q1_pricing_summary",
    "q5_nation_revenue",
    "q5_nation_revenue_broadcast",
    "q6_revenue",
    "events_tumbling",
    "events_sessionize",
    "token_counts",
    "word_topk",
    "dedup_exact",
    "dup_ngram_spans",
    "ngram_jaccard_dup_pairs",
    "minhash_bands",
    "ann_topk",
    "tfidf_top_terms",
    "decontaminate",
    "semdedup_prune",
    "lang_id",
    "repetition_scores",
    "pack_sequences",
    "structure_extract",
    # round-3 additions
    "per_source_cap",
    "gopher_filter_cascade",
    "mg_heavy_hitters",
    "bigram_logprob_scores",
    "q13_customer_distribution",
    "q17_small_quantity_revenue",
    # round-4 additions
    "events_window_distinct_users",
    "ccnet_perplexity_buckets",
    "ann_pq_topk",
    # round-5 additions
    "unimax_allocation",
    "dsir_importance_weights",
    "classifier_filter_scores",
    "q7_nation_volume",
    "q8_market_share",
    "q19_disjunctive_revenue",
    "bpe_token_counts",
    # the fact-keyed sums (`queries._keyed_sum`)
    "q3_top_orders",
    "q10_returned_revenue",
    "orders_per_customer_topk",
    "q15_top_supplier",
    # the rest of the `_exchange` joins (q5, q7, q8, q13, q17, q19 are above)
    "q4_order_priority",
    "q12_priority_by_returnflag",
    "q22_idle_customer_balance",
    # round-5: the production stage shape (det + rec session seams ON)
    "extract_flagship_seams",
]


def corpus_dir() -> dict:
    """Generate (once, cached) the bench corpus in /tmp."""
    import json as _json

    from oar_ocr_ray.fixtures import ENCODING_VERSION

    d = os.path.join(
        "/tmp", f"oar_bench_corpus_e{ENCODING_VERSION}_{BENCH_DOCS}_{SEED}"
    )
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return _json.load(f)
    from oar_ocr_ray.fixtures import write_corpus

    meta = write_corpus(d, BENCH_DOCS, seed=SEED, n_doc_files=32, with_golden=False)
    with open(meta_path, "w") as f:
        _json.dump(meta, f)
    return meta


# 20k pages is the criterion regime: at 5k the job is ~3 s and fixed Ray
# overhead dominates the 8->32 ratio (see BASELINE.md round 3). First
# --scaling call generates the corpus once (~10 min, cached in /tmp).
STRUCT_PAGES = int(os.environ.get("BENCH_STRUCT_PAGES", "20000"))
STRUCT_BUCKETS = int(os.environ.get("BENCH_STRUCT_BUCKETS", "64"))


def structure_corpus_dir() -> dict:
    """Generate (once, cached) the structure-page scaling corpus in /tmp."""
    import json as _json

    from oar_ocr_ray.fixtures import ENCODING_VERSION

    d = os.path.join(
        "/tmp",
        f"oar_bench_struct_e{ENCODING_VERSION}_{STRUCT_PAGES}_b{STRUCT_BUCKETS}",
    )
    meta_path = os.path.join(d, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            return _json.load(f)
    from oar_ocr_ray.fixtures import write_structure_corpus

    os.makedirs(d, exist_ok=True)
    # the structure DAG runs one bucket-aligned read task per media
    # bucket; BENCH_STRUCT_BUCKETS overrides for granularity sweeps.
    meta = write_structure_corpus(d, STRUCT_PAGES, seed=7,
                                  n_media_buckets=STRUCT_BUCKETS)
    with open(meta_path, "w") as f:
        _json.dump(meta, f)
    return meta


def run_structure(meta: dict, repeats: int = 3,
                  seams: bool = False) -> tuple[float, int]:
    """Best-of-N wall time for the full PP-StructureV3 page pipeline over
    the scaling corpus — the per-page actor stage has NO shuffle, so it
    should scale embarrassingly with CPUs (the --scaling structure leg).
    The DAG (bucket-local blocks over the bucket-sorted refs manifest)
    comes from the one shared builder in pipelines/structure.py.
    seams=True turns ALL EIGHT session boundaries on (layout + text-det +
    rec + orientation/table-cls/cells/regions + formula) — the production
    configuration's stage shape with the deterministic stand-in sessions."""
    from oar_ocr_ray.pipelines.structure import build_structure_pipeline

    def build():
        kw = dict(det_model_input=True, layout_model_input=True,
                  rec_model_input=True, aux_model_input=True,
                  formula_model_input=True) if seams else {}
        return build_structure_pipeline(
            meta["refs_path"], meta["media_dir"],
            n_buckets=int(meta.get("n_buckets", 32)), **kw,
        )

    build().count()  # warm-up: workers + media store
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        n = build().count()
        times.append(time.perf_counter() - t0)
        assert n == meta["n_pages"], (n, meta["n_pages"])
    return min(times), meta["n_pages"]


def tune_data_context() -> None:
    """Execution knobs for this pipeline (see BASELINE.md):
    - op_resource_reservation_ratio=0: the default 50% per-operator CPU
      reservation capped the fused extract chain at half the cluster;
    - progress bars off for clean stdout."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.op_resource_reservation_ratio = 0.0


def run_flagship(meta: dict, repeats: int = 5,
                 seams: bool = False) -> tuple[float, int]:
    """Best-of-N steady-state wall time (one warm-up run first). Noise on
    this box is strictly additive (scheduler ramp, residual warming), so the
    minimum is the steady-state capability measurement; the full
    distribution trends down over repeats (see BASELINE.md).
    seams=True runs the production stage shape — DB det heatmap + real
    DBPostProcess and the (B,3,48,W) rec tensor chain + real CTC decode
    through the stand-in sessions — instead of the pixel stand-ins."""
    from oar_ocr_ray.pipelines.extract import build_extract_pipeline

    def build(files):
        return build_extract_pipeline(
            meta["doc_files"] if files is None else files, meta["media_dir"],
            det_model_input=seams, rec_model_input=seams,
        )

    # warm-up: spin worker processes + module imports + media object-store
    # load so the timed runs measure steady-state throughput
    build(meta["doc_files"][:2]).count()

    times = []
    for _ in range(repeats):
        ds = build(None)
        t0 = time.perf_counter()
        n = ds.count()
        times.append(time.perf_counter() - t0)
        assert n == meta["n_docs"], (n, meta["n_docs"])
    return min(times), meta["n_docs"]


def main() -> None:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    tune_data_context()

    meta = corpus_dir()
    # warm page cache (untimed read) so we measure compute + shuffle
    import pyarrow.parquet as pq

    for f in meta["doc_files"]:
        pq.read_table(f)

    from oar_ocr_ray.queries import QUERIES

    # warm the worker pool (process spawn + imports) before any timed query
    import ray.data as _rd

    _rd.range(NUM_CPUS * 2).map_batches(
        lambda b: (__import__("pandas") and b), batch_size=1
    ).count()

    qtimes: dict[str, float] = {}
    headline = None
    seams_headline = None
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        if name == "extract_flagship":
            dt, n = run_flagship(meta)
            qtimes[name] = round(dt, 3)
            headline = dt
            continue
        if name == "extract_flagship_seams":
            dt, n = run_flagship(meta, repeats=2, seams=True)
            qtimes[name] = round(dt, 3)
            seams_headline = dt
            continue
        res = QUERIES[name](SF_DIR)
        import ray.data as rd

        if isinstance(res, rd.Dataset):
            res.count()
        qtimes[name] = round(time.perf_counter() - t0, 3)

    out = {
        "metric": "flagship_extract_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "bench_docs": meta["n_docs"],
        "docs_per_sec": round(meta["n_docs"] / headline, 2),
        "flagship_seams_sec": round(seams_headline, 3),
        "seams_docs_per_sec": round(meta["n_docs"] / seams_headline, 2),
    }
    ray.shutdown()
    print(json.dumps(out))


def _burn(seconds: float) -> int:
    t0 = time.perf_counter()
    x = 0
    while time.perf_counter() - t0 < seconds:
        x += 1
    return x


def cpu_capacity_scale(lo: int = 8, hi: int = 32, seconds: float = 2.0) -> float:
    """Measured hardware throughput ratio between `hi` and `lo` parallel
    pure-CPU workers on THIS box. A sandbox's "32 cpus" are not 4x its
    "8 cpus" (SMT / shared memory bandwidth), so this is the physical
    ceiling for any (t_lo / t_hi) job ratio — reported alongside the raw
    efficiency so the cluster criterion (real 4x hardware) is assessable."""
    import multiprocessing as mp

    rates = {}
    for n in (lo, hi):
        with mp.Pool(n) as p:
            rates[n] = sum(p.map(_burn, [seconds] * n))
    return rates[hi] / rates[lo]


def scaling() -> None:
    """Run the headline job — and the shuffle-free structure-page job —
    at num_cpus=8 and 32 in fresh processes."""
    corpus_dir()  # pre-generate so both runs see a warm corpus
    structure_corpus_dir()

    def run(ncpu: int, mode: str) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), **{mode: "1"})
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo = run(8, "BENCH_ONLY_FLAGSHIP")
    time.sleep(30)  # let residual load from the previous Ray session decay
    # (measured: back-to-back legs inflate the second leg's wall time ~30%)
    hi = run(32, "BENCH_ONLY_FLAGSHIP")
    time.sleep(30)
    s_lo = run(8, "BENCH_ONLY_STRUCTURE")
    time.sleep(30)
    s_hi = run(32, "BENCH_ONLY_STRUCTURE")
    time.sleep(30)
    # the production stage shape: det + rec session seams ON (the seams
    # are the configuration a real deployment runs, so the criterion
    # evidence covers them, not just the pixel stand-ins)
    m_lo = run(8, "BENCH_ONLY_FLAGSHIP_SEAMS")
    time.sleep(30)
    m_hi = run(32, "BENCH_ONLY_FLAGSHIP_SEAMS")
    t_lo, t_hi = lo["value"], hi["value"]
    eff = (t_lo / t_hi) / (32 / 8)
    s_eff = (s_lo["value"] / s_hi["value"]) / (32 / 8)
    m_eff = (m_lo["value"] / m_hi["value"]) / (32 / 8)
    hw = cpu_capacity_scale(8, 32)
    print(
        json.dumps(
            {
                "metric": "scaling_efficiency",
                "sec_8": t_lo,
                "sec_32": t_hi,
                "docs_per_sec_8": lo["docs_per_sec"],
                "docs_per_sec_32": hi["docs_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "hardware_capacity_scale_8_to_32": round(hw, 3),
                "efficiency_vs_hardware": round((t_lo / t_hi) / hw, 3),
                "bench_docs": lo.get("bench_docs"),
                "structure_sec_8": s_lo["value"],
                "structure_sec_32": s_hi["value"],
                "pages_per_sec_8": s_lo["pages_per_sec"],
                "pages_per_sec_32": s_hi["pages_per_sec"],
                "structure_scaling_efficiency": round(s_eff, 3),
                "structure_efficiency_vs_hardware": round(
                    (s_lo["value"] / s_hi["value"]) / hw, 3),
                "bench_struct_pages": s_lo.get("bench_struct_pages"),
                "seams_sec_8": m_lo["value"],
                "seams_sec_32": m_hi["value"],
                "seams_docs_per_sec_8": m_lo["docs_per_sec"],
                "seams_docs_per_sec_32": m_hi["docs_per_sec"],
                "seams_scaling_efficiency": round(m_eff, 3),
                "seams_efficiency_vs_hardware": round(
                    (m_lo["value"] / m_hi["value"]) / hw, 3),
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif (os.environ.get("BENCH_ONLY_FLAGSHIP")
          or os.environ.get("BENCH_ONLY_FLAGSHIP_SEAMS")):
        import ray

        seams = bool(os.environ.get("BENCH_ONLY_FLAGSHIP_SEAMS"))
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
        tune_data_context()
        meta = corpus_dir()
        dt, n = run_flagship(meta, repeats=2 if seams else 5,
                             seams=seams)
        ray.shutdown()
        print(json.dumps({
            "metric": ("flagship_seams_sec" if seams else "flagship_extract_sec"),
            "value": round(dt, 3), "unit": "sec",
            "queries": {}, "sf": SF_DIR, "num_cpus": NUM_CPUS,
            "bench_docs": n, "docs_per_sec": round(n / dt, 2),
        }))
    elif os.environ.get("BENCH_ONLY_STRUCTURE"):
        import ray

        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
        tune_data_context()
        meta = structure_corpus_dir()
        st_seams = bool(os.environ.get("BENCH_STRUCT_SEAMS"))
        dt, n = run_structure(meta, repeats=2 if st_seams else 3,
                              seams=st_seams)
        ray.shutdown()
        print(json.dumps({
            "metric": ("structure_seams_sec" if st_seams
                       else "structure_extract_sec"),
            "value": round(dt, 3), "unit": "sec",
            "num_cpus": NUM_CPUS, "bench_struct_pages": n,
            "pages_per_sec": round(n / dt, 2),
        }))
    else:
        main()
