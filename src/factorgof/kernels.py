"""Numeric kernels: multivariate normal log-density rows and compensated
reductions over Monte Carlo draws, in numpy, and the single-BLAS-thread
scope that the package's entry points run in."""

import ctypes
import functools
import os
import threading

import numpy as np
from scipy.linalg import solve_triangular

_LOG_2PI = float(np.log(2.0 * np.pi))


def backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# BLAS threading
#
# numpy and scipy each load their own OpenBLAS, and each keeps a worker pool.
# On this package's small matrices the pools cost more than they save: a
# worker woken by scipy keeps spinning while numpy's threaded GEMMs run, and
# threaded reductions round differently from serial ones.  Entry points
# therefore run with every loaded OpenBLAS at one thread and give the
# caller's counts back on return.
# ---------------------------------------------------------------------------


_MAPS = "/proc/self/maps"


@functools.lru_cache(maxsize=None)
def _openblas_pools() -> tuple:
    """``(get, set)`` thread-count functions of each loaded OpenBLAS.

    Empty where none is loaded or the loaded libraries cannot be listed
    (MKL, Accelerate, non-Linux).  A listed library that cannot be opened
    again by its path is skipped.
    """
    try:
        with open(_MAPS, "rb") as fh:
            # The pathname is the sixth field; it may contain spaces and need
            # not be valid UTF-8.  Anonymous mappings have five fields.
            fields = [line.rstrip(b"\n").split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = {os.fsdecode(f[5]) for f in fields if len(f) == 6}
    pools = []
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "openblas" not in name or ".so" not in name:
            continue
        try:
            lib = ctypes.CDLL(path)
        except (OSError, ValueError):
            # dlopen failed; for a path that is not UTF-8 its message cannot
            # be decoded, which ctypes raises as UnicodeDecodeError.
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return tuple(pools)


# The pools are process-wide, so the scope's state is too: one depth count
# shared by every Python thread, and the counts to restore at depth 0.
_scope_lock = threading.Lock()
_scope_depth = 0
_saved_counts = ()


def single_blas_thread(fn):
    """Run ``fn`` with every loaded OpenBLAS at one thread.

    The caller's thread counts are restored when the outermost such call
    returns or raises; nested calls, including calls from other Python
    threads while one is active, leave them alone.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _scope_depth, _saved_counts
        with _scope_lock:
            if _scope_depth == 0:
                pools = _openblas_pools()
                _saved_counts = tuple((set_, get()) for get, set_ in pools)
                for _, set_ in pools:
                    set_(1)
            _scope_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _scope_lock:
                _scope_depth -= 1
                if _scope_depth == 0:
                    for set_, count in _saved_counts:
                        set_(count)

    return wrapper


def mvn_loglik_rows(Y, nu, chol_lower):
    """Log N(y; nu, L L^T) for each row of Y, given the lower Cholesky L."""
    resid = Y - nu
    Z = solve_triangular(chol_lower, resid.T, lower=True).T
    const = -0.5 * Y.shape[1] * _LOG_2PI - float(np.sum(np.log(np.diag(chol_lower))))
    return const - 0.5 * np.einsum("ij,ij->i", Z, Z)


# ---------------------------------------------------------------------------
# compensated reductions
#
# Reductions over draws are BLAS-bound: per-chunk partial sums combined with
# Kahan compensation.  Chunk boundaries are fixed by the row count, so
# results do not depend on how the draws are scheduled.
# ---------------------------------------------------------------------------

_CHUNK = 1024


def _kahan_combine(total, comp, part):
    y = part - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def colmean(X):
    """Column means with chunk-compensated accumulation."""
    total = np.zeros(X.shape[1])
    comp = np.zeros_like(total)
    for start in range(0, X.shape[0], _CHUNK):
        total, comp = _kahan_combine(total, comp, X[start:start + _CHUNK].sum(axis=0))
    return total / X.shape[0]


def _chunked_crossprod_sum(X, W):
    total = np.zeros((X.shape[1], W.shape[1]))
    comp = np.zeros_like(total)
    for start in range(0, X.shape[0], _CHUNK):
        stop = start + _CHUNK
        total, comp = _kahan_combine(total, comp, X[start:stop].T @ W[start:stop])
    return total


def crossprod_mean(X, W):
    """(1/n) X^T W with chunk-compensated accumulation."""
    return _chunked_crossprod_sum(X, W) / X.shape[0]


def covariance(X):
    """Sample covariance with divisor n - 1, centered before the cross product."""
    Xc = X - colmean(X)
    raw = _chunked_crossprod_sum(Xc, Xc) / (X.shape[0] - 1)
    return 0.5 * (raw + raw.T)
