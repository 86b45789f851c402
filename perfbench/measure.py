"""One benchmark run inside a fresh local Ray session (the timed child of
run.py; see README.md for the workloads and metrics).

    python3 -m perfbench.measure --workload media_seams --seed 1 \
        --seconds 10 --trace 0 --work .perfbench_work

Prints a context line and, as the last line, the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time

import pyarrow.parquet as pq

from . import corpus, layers, tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 3          # ray.init + store warm-ups per untraced run (median taken)
MIN_PASSES = 3      # timed passes per untraced run, at least
MIN_TRACE_PASSES = 2  # per session of a traced run
HELD_OUT_SEED = 9001  # kept out of tuning; later claims must also hold on it
MAX_CPUS = 4        # Ray's num_cpus, at most
OBJECT_STORE_MB = 512  # fixed, rather than a share of the host's memory

STRUCTURE_SEAMS = dict(det_model_input=True, layout_model_input=True,
                       rec_model_input=True, aux_model_input=True,
                       formula_model_input=True)
EXTRACT_SEAMS = dict(det_model_input=True, rec_model_input=True)


def _phase(work: str, text: str) -> None:
    """Record the current phase, so run.py can name it if the run hangs."""
    with open(os.path.join(work, "phase"), "w") as f:
        f.write(text)


def _cgroup_cpus() -> int | None:
    """The CPU quota of this process's cgroup (v2, then v1), rounded down;
    None when there is none."""
    def read(path):
        with open(path) as f:
            return f.read().split()

    for files in (["/sys/fs/cgroup/cpu.max"],
                  ["/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                   "/sys/fs/cgroup/cpu/cpu.cfs_period_us"]):
        try:
            quota, period = [w for path in files for w in read(path)]
            if quota not in ("max", "-1"):
                return max(1, int(quota) // int(period))
        except (OSError, ValueError):
            continue
    return None


def available_cpus() -> int:
    """The CPUs this run may use, counted as nproc counts them (affinity,
    then OMP_NUM_THREADS / OMP_THREAD_LIMIT), further limited by the
    cgroup's CPU quota, which affinity does not show."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        try:
            n = min(n, max(1, int(os.environ[var].split(",")[0])))
        except (KeyError, ValueError):
            pass
    quota = _cgroup_cpus()
    return min(n, quota) if quota else n


def sizing() -> dict:
    """Parallelism knobs from the CPUs available, at most MAX_CPUS: a
    larger host would otherwise start a Ray worker per CPU it shows."""
    ncpu = min(available_cpus(), MAX_CPUS)
    return {"ncpu": ncpu, "n_shards": max(2, min(ncpu, corpus.N_DOC_FILES)),
            "n_parts": max(2, ncpu)}


def ray_temp_dir(work: str) -> str | None:
    """Ray's session directory inside the work directory, unless that
    path would make Ray's unix sockets longer than Linux allows (107
    bytes); then None, for Ray's default."""
    temp = os.path.abspath(os.path.join(work, "ray"))
    socket = os.path.join(temp, "session_2026-01-01_00-00-00_000000_0000000",
                          "sockets", "plasma_store")
    return temp if len(socket) <= 107 else None


class WarningCounter(logging.Handler):
    """Counts WARNING-or-worse records from Ray's driver-side loggers.
    Ray Data's logger does not propagate to Ray's, so it needs its own."""

    LOGGERS = ("ray", "ray.data")

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.n = 0

    def emit(self, record):
        self.n += 1


class Session:
    """One local Ray session over one corpus, with the warm-up that makes
    its first timed pass look like the rest."""

    def __init__(self, meta: dict, size: dict, work: str, trace_dir: str | None):
        self.meta, self.size, self.work, self.trace_dir = meta, size, work, trace_dir

    def start(self) -> float:
        """ray.init and the media store's warm-up; their wall time."""
        import ray

        # workers import oar_ocr_ray (and the tracer) from this checkout,
        # whatever directory the driver was started from
        env = {"PYTHONPATH": ROOT}
        runtime_env = {"env_vars": env}
        if self.trace_dir is not None:
            env[tracer.TRACE_DIR_ENV] = self.trace_dir
            runtime_env["worker_process_setup_hook"] = "perfbench.tracer.install_worker"
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=self.size["ncpu"], include_dashboard=False,
                 object_store_memory=OBJECT_STORE_MB << 20,
                 namespace="perfbench", logging_level="WARNING", log_to_driver=False,
                 runtime_env=runtime_env, _temp_dir=ray_temp_dir(self.work))
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        if self.meta["workload"] == "structure_seams":
            _warm_directory_actor(self.meta["media_dir"])
        else:
            from oar_ocr_ray.pipelines import extract

            # fills run_extract's own per-driver cache of put_buckets refs,
            # so the put is set-up time and every pass reuses it
            extract._media_refs_for(self.meta["media_dir"])
        return time.perf_counter() - t0

    def warm(self) -> float:
        """One untimed pass: worker spawn and imports, Ray Data's own
        actors, the workers' stage instances and their store indexes, so
        the first timed pass finds them in place; wall time."""
        t0 = time.perf_counter()
        out_dir = os.path.join(self.work, "warm")
        self.one_pass(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return time.perf_counter() - t0

    def stop(self) -> None:
        import ray

        from oar_ocr_ray.pipelines import extract

        ray.shutdown()
        extract._MEDIA_REFS_CACHE.clear()  # its object refs died with the session

    def one_pass(self, out_dir: str) -> float:
        """Run the workload's sharded runner once into out_dir; its wall
        time."""
        m, s = self.meta, self.size
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        if m["workload"] == "structure_seams":
            from oar_ocr_ray.pipelines.structure import run_structure_extract

            run_structure_extract(m["refs_path"], m["media_dir"], out_dir,
                                  n_shards=s["n_shards"], n_buckets=m["n_buckets"],
                                  **STRUCTURE_SEAMS)
        else:
            from oar_ocr_ray.pipelines.extract import run_extract

            run_extract(m["doc_files"], m["media_dir"], out_dir,
                        n_shards=s["n_shards"], n_parts=s["n_parts"],
                        stage_mode="tasks", **EXTRACT_SEAMS)
        return time.perf_counter() - t0


def _warm_directory_actor(media_dir: str) -> None:
    """Create the structure store's directory actor and have it put every
    bucket, as the first pass would. The actor is named after the media
    directory, so the workers' stores find this one."""
    import ray

    from oar_ocr_ray.stages.media import MediaStore

    store = MediaStore(media_dir)
    actor = store._directory()
    refs = []
    for fname in store._files:
        st = os.stat(os.path.join(media_dir, fname))
        refs.append(actor.get_ref.remote(fname, (st.st_mtime_ns, st.st_size)))
    ray.get(refs)


def check_pass(meta: dict, out_dir: str) -> int:
    """Documents (pages) missing from the committed output or differing
    from the golden, plus any committed beyond the golden's count."""
    if meta["workload"] == "structure_seams":
        from oar_ocr_ray.pipelines.structure import read_structure_output

        cols = ("n_elements", "labels", "markdown", "html")

        def rows_by_key(table):
            rows = table.to_pylist() if table is not None else []
            return {r["media_ref"]: tuple(r[c] for c in cols) for r in rows}, len(rows)

        got, n_got = rows_by_key(read_structure_output(out_dir))
        golden, _ = rows_by_key(pq.read_table(meta["golden_path"]))
    else:
        from oar_ocr_ray.pipelines.extract import read_output

        def rows_by_key(table):
            rows = table.to_pylist() if table is not None else []
            return {r["doc_id"]: [(s["kind"], s["text"], s["media_ref"], s["order"])
                                  for s in r["spans"]] for r in rows}, len(rows)

        got, n_got = rows_by_key(read_output(out_dir))
        golden, _ = rows_by_key(pq.read_table(meta["golden_path"]))
    wrong = sum(got.get(k) != v for k, v in golden.items())
    return wrong + max(0, n_got - len(golden))


def peak_rss_mb() -> float:
    """Sum of VmHWM over this driver and the Ray worker processes."""
    total_kb = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if int(pid) != os.getpid() and not cmd.startswith(b"ray::"):
                continue
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue  # the process ended while being read
    return total_kb / 1024.0


def run_passes(sess: Session, seconds: float, min_passes: int, work: str, label: str):
    """Timed passes until `seconds` have elapsed (at least min_passes).
    Returns (pass walls, pass windows in monotonic ns, failed count)."""
    walls, windows, failed = [], [], 0
    t_start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - t_start < seconds:
        out_dir = os.path.join(work, "out")
        _phase(work, f"{label} pass {len(walls) + 1}")
        a = time.monotonic_ns()
        walls.append(sess.one_pass(out_dir))
        windows.append((a, time.monotonic_ns()))
        _phase(work, f"{label} check {len(walls)}")
        failed += check_pass(sess.meta, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
    return walls, windows, failed


def untraced(meta, size, seconds, work):
    sess = Session(meta, size, work, None)
    setups = []
    for i in range(SETUPS):
        _phase(work, f"setup {i + 1}")
        setups.append(sess.start())
        if i < SETUPS - 1:
            sess.stop()
    _phase(work, "warm-up")
    warm_s = sess.warm()
    walls, _, failed = run_passes(sess, seconds, MIN_PASSES, work, "timed")
    rss = peak_rss_mb()
    sess.stop()
    rate = statistics.median(1.0 / w for w in walls)
    metrics = {
        "docs_per_s": (meta["n_docs"] * rate, "docs/s"),
        "pages_per_s": (meta["n_pages"] * rate, "pages/s"),
        "setup_s": (statistics.median(setups) + warm_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, len(walls), failed, {"pass_s": walls, "setups_s": setups,
                                         "warm_s": warm_s}


def traced(meta, size, seconds, work):
    """An untraced session, then a traced one over the same corpus; the
    per-layer metrics are averages over the traced passes."""
    half = seconds / 2
    sess = Session(meta, size, work, None)
    _phase(work, "untraced setup")
    sess.start()
    sess.warm()
    plain, _, failed = run_passes(sess, half, MIN_TRACE_PASSES, work, "untraced")
    sess.stop()

    trace_dir = os.path.join(work, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    patches = tracer.install_driver(trace_dir)
    warnings = WarningCounter()
    for name in WarningCounter.LOGGERS:
        logging.getLogger(name).addHandler(warnings)
    try:
        sess = Session(meta, size, work, trace_dir)
        _phase(work, "traced setup")
        sess.start()
        sess.warm()
        warnings.n = 0
        walls, windows, failed_t = run_passes(sess, half, MIN_TRACE_PASSES, work, "traced")
        n_warn = warnings.n
        sess.stop()
    finally:
        for name in WarningCounter.LOGGERS:
            logging.getLogger(name).removeHandler(warnings)
        patches.undo()
    roots = tracer.load_roots(trace_dir)
    metrics = layers.per_layer(roots, windows, meta, size["ncpu"])
    metrics["ray.warnings"] = (n_warn / len(walls), "count")
    metrics["trace.overhead_s"] = (walls[-1] - plain[-1], "s")
    failed_t += round(metrics["media.missing"][0] * len(walls))
    return (metrics, len(plain) + len(walls), failed + failed_t,
            {"pass_s": plain, "traced_pass_s": walls})


def source_id() -> dict:
    """The code under test: the git commit when the checkout has one, and
    always a digest of the program and benchmark sources."""
    h = hashlib.sha256()
    for top in ("oar_ocr_ray", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith(".py"):
                    path = os.path.join(d, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    out = {"tree_sha256": h.hexdigest()[:16]}
    if os.path.isdir(".git"):
        try:
            out["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return out


def context(meta, size, seed, work) -> dict:
    import pyarrow
    import ray

    return {
        "workload": meta["workload"], "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "corpus": {k: meta[k] for k in ("size", "n_docs", "n_pages") if k in meta},
        "ncpu": size["ncpu"], "n_shards": size["n_shards"], "n_parts": size["n_parts"],
        "ray_temp_dir": ray_temp_dir(work) or "ray default",
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0], "source": source_id(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus.SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True)
    a = p.parse_args(argv)

    meta = corpus.ensure(a.work, a.workload, a.seed)
    size = sizing()
    run = traced if a.trace else untraced
    metrics, n_passes, failed, detail = run(meta, size, a.seconds, a.work)
    ctx = context(meta, size, a.seed, a.work)
    ctx.update(detail)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": meta["n_docs"] * n_passes,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
