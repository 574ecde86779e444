"""What a result needs besides its metrics: an environment stamp and a probe
of host speed that uses no isogeo code."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time

import numpy as np

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ISOGEO_THREADS")


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (KeyError, TypeError):
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _git(root: str) -> dict:
    # Only a checkout that is itself a git work tree is asked, so git never
    # walks up into a directory that holds the checkout.
    if not os.path.exists(os.path.join(root, ".git")):
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"revision": None, "dirty": None}
    if rev.returncode != 0:
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def env_stamp(root: str, seed: int, ambient: dict) -> dict:
    """Versions, BLAS, thread settings and CPU count for one result.

    ``ambient`` holds the thread variables as the benchmark found them; the
    stamp's ``threads`` holds them as the workload ran.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "threads_ambient": ambient,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git": _git(root),
        "seed": seed,
    }


def steal_ticks() -> int | None:
    """Cumulative steal ticks of all CPUs from /proc/stat (read only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def calib_s(repeats: int = 3) -> dict:
    """Median wall times of two fixed numpy kernels.

    ``small`` is a loop of 32x16 matmuls and tanh, the shape of one training
    step, so it slows down with the host phases the workloads feel most.
    ``blas`` is 300x300 matmuls, which use every BLAS thread.
    """
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((32, 16))
    w = rng.standard_normal((32, 16)) / 4.0
    big = rng.standard_normal((300, 300)) / 30.0

    def small():
        for _ in range(3000):
            h = np.tanh(x @ w.T)
            (1.0 - h**2) @ w

    def blas():
        h = big
        for _ in range(40):
            h = np.tanh(h @ big)

    out = {}
    for name, kernel in (("small", small), ("blas", blas)):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        out[name] = statistics.median(times)
    return out
