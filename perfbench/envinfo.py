"""The environment a result was measured in: versions, BLAS threads, cores, commit.

Importing this module does not load numpy, so a caller can set the BLAS
thread variables first.
"""

import ctypes
import hashlib
import os
import platform
import subprocess

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _openblas_runtime():
    """(thread count, config string) reported by the loaded OpenBLAS, or Nones."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return get_threads(), get_config().decode()
    return None, None


def _git_commit(root):
    try:
        proc = subprocess.run(
            ["git", "--git-dir", os.path.join(root, ".git"), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src_dir):
    """sha256 over the package sources, for checkouts that carry no git metadata."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(root, package_dir, blas_threads):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_threads, runtime_config = _openblas_runtime()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime_config": runtime_config,
        "blas_threads_requested": blas_threads,
        "blas_threads_runtime": runtime_threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(package_dir),
    }
