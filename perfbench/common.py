"""Process plumbing shared by the workloads: children, RSS, environment."""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "REPRO_BACKEND", "REPRO_RETRIEVAL",
)
STOP_TIMEOUT_S = 30.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size of one process, in MiB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> list[int]:
    """Live descendant pids of ``pid`` (by scanning ``/proc``)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in parents.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS of a process and its live descendants."""
    total = 0.0
    for p in [pid, *descendants(pid)]:
        try:
            total += vm_hwm_mb(p)
        except OSError:
            continue
    return total


def environment() -> dict:
    """Machine and program settings every result records."""
    from repro.backend import get_backend
    from repro.retrieval import get_retrieval

    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {key: deps.get(key, {}).get("name") for key in ("blas", "lapack")}
    except (TypeError, AttributeError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "backend": get_backend().name,
        "retrieval": get_retrieval(),
    }


def stop_process(proc: subprocess.Popen, sig=signal.SIGINT) -> int:
    """Signal a child, wait for it to exit, and kill it if it will not."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=STOP_TIMEOUT_S)
    return proc.returncode


def run_child(args: list[str], ready: str = "READY") -> tuple[float, dict]:
    """Run ``python3 <args>`` to completion; time process start to ``ready``.

    The child prints ``ready`` on its own line once it can serve its
    first operation and writes its result JSON to the path after its
    ``--out`` argument.  Returns ``(setup seconds, result)``.
    """
    out = Path(args[args.index("--out") + 1])
    if out.exists():
        out.unlink()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    setup_s = None
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == ready:
                setup_s = time.perf_counter() - start
            else:
                sys.stderr.write(line)
        code = proc.wait(timeout=STOP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"child {args[0]} exited with {code} (ready seen: {setup_s is not None})")
    result = json.loads(out.read_text()) if out.exists() else {}
    return setup_s, result


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
