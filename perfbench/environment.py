"""The machine and build facts printed with every benchmark result.

`single_blas_thread` must run before numpy is first imported: OpenBLAS reads
its thread count once, when it loads.
"""

import ctypes
import glob
import hashlib
import os
import platform
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_blas_thread():
    """Run BLAS on one thread, within any nproc.

    The benchmark is one client on a shared host: a BLAS call split over
    every core waits for its slowest thread whenever another tenant holds one
    of them, which measures the neighbours rather than the program.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(package_dir):
    """sha256 over the package's .py files, so runs outside git still name their code."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def describe(root, package_dir):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(package_dir),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "machine": platform.machine(),
    }
