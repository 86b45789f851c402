"""Extraction benchmark entry point.

    python3 perfbench/run.py --workload media_seams --seed 1 --seconds 10 --trace 0

It may be started from any directory; it works in the checkout it belongs
to. Workloads: media_seams, text_heavy, structure_seams (see
perfbench/README.md). --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a traced run.

This process is a watchdog: it stops any Ray left on the host, then runs
corpus generation and the measurement (perfbench/measure.py) as child
processes under one hard deadline. A run that hangs is killed, reported
on stderr with the phase it hung in, and exits non-zero without a result.
The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time

DEADLINE_S = 150  # corpus and measurement; the contract allows 180 for the run
WORK = ".perfbench_work"  # corpora, outputs and traces, inside the checkout
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def ray_stop() -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
                   check=False)


def ray_processes() -> list[int]:
    """Ray's processes on the host: workers (`ray::*`) and everything run
    from Ray's package directory (GCS, raylet, agents, monitors)."""
    spec = importlib.util.find_spec("ray")
    ray_dir = spec.submodule_search_locations[0].encode() if spec else b"\0"
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or ray_dir in cmd:
            pids.append(int(pid))
    return pids


def stop_ray_and_wait(timeout: float = 30.0) -> None:
    """Stop every Ray process on the host and wait until each has ended."""
    if not ray_processes():
        return
    ray_stop()
    end = time.monotonic() + timeout
    while ray_processes() and time.monotonic() < end:
        time.sleep(0.2)
    left = ray_processes()
    if left:
        raise RuntimeError(f"Ray processes still running after ray stop: {left}")


def run_child(args: list[str], deadline: float, what: str) -> str:
    """Run `python3 -m <args>` in its own process group; its stdout.
    Raises RuntimeError naming the phase on a timeout or a failure."""
    proc = subprocess.Popen([sys.executable, "-m"] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        phase = ""
        try:
            with open(os.path.join(WORK, "phase")) as f:
                phase = f.read().strip()
        except OSError:
            pass
        raise RuntimeError(f"{what} passed the {DEADLINE_S} s deadline"
                           + (f" during '{phase}'" if phase else "")) from None
    if proc.returncode != 0:
        sys.stderr.write(out)
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description="extraction benchmark")
    p.add_argument("--workload", required=True,
                   choices=["media_seams", "structure_seams", "text_heavy"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    # work from the checkout this file belongs to, wherever it was started
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isfile(os.path.join("oar_ocr_ray", "__init__.py")):
        print(f"run failed: no oar_ocr_ray/ package in {os.getcwd()}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--work", WORK]
    failures = (RuntimeError, ValueError, OSError, subprocess.SubprocessError)
    try:
        stop_ray_and_wait()
        shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)  # old session logs
        run_child(["perfbench.corpus"] + common, deadline, "corpus generation")
        out = run_child(["perfbench.measure"] + common
                        + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                        deadline, "measurement")
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != RESULT_KEYS:
            raise RuntimeError("measurement printed no result line")
    except failures as e:
        print(f"run failed: {e}", file=sys.stderr)
        lines = None
    try:
        stop_ray_and_wait()  # anything the measurement left behind
    except failures as e:
        print(f"run failed: {e}", file=sys.stderr)
        lines = None
    if lines is None:
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
