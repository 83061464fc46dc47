"""Process set-up shared by the benchmark's scripts: BLAS threads, imports, machine record.

``pin_blas_threads`` must run before numpy is first imported, because
OpenBLAS reads its thread count once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys

__all__ = ["BLAS_ENV", "pin_blas_threads", "import_experiments", "environment"]

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Set OPENBLAS_NUM_THREADS to the caller's value capped at nproc, else nproc."""
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    nproc = _nproc()
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "").strip()
    threads = min(int(requested), nproc) if requested else nproc
    if threads < 1:
        raise ValueError("OPENBLAS_NUM_THREADS must be at least 1")
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def import_experiments(root: str):
    """``seqamp.experiments`` from ``root/src``, refusing any other copy."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "seqamp", "__init__.py")):
        raise FileNotFoundError(f"no seqamp sources under {src}; "
                                "run from the repository root")
    sys.path.insert(0, src)
    from seqamp import experiments
    if not os.path.abspath(experiments.__file__).startswith(src + os.sep):
        raise ImportError(f"seqamp imported from {experiments.__file__}, not {src}")
    return experiments


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment() -> dict:
    """Versions, CPU and thread settings that the timings depend on."""
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        **{var: os.environ.get(var, "unset") for var in BLAS_ENV},
    }
