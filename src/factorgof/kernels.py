"""Numeric kernels, in numpy and the standard library only.

* ``mvn_loglik_rows``: multivariate normal log-density rows.
* ``spd_inverse``: the inverse of a positive definite matrix from its
  Cholesky factor.
* ``chi2_sf`` and ``normal_two_sided_p``: the chi-square survival function
  for integer degrees of freedom and the two-sided standard normal p-value.
* ``single_blas_thread``: the single-BLAS-thread scope that the package's
  entry points run in.
"""

import ctypes
import functools
import math
import operator
import os
import threading

import numpy as np

from .errors import ConfigurationError

_LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT2 = math.sqrt(2.0)


def backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# BLAS threading
#
# factorgof loads one OpenBLAS, numpy's, but a caller may load others (scipy
# brings its own), and each keeps a worker pool.  On this package's small
# matrices the pools cost more than they save: a worker woken by another
# pool keeps spinning while numpy's threaded GEMMs run, and threaded
# reductions round differently from serial ones.  Entry points therefore run
# with every loaded OpenBLAS at one thread and give the caller's counts back
# on return.
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
    Z = (Y - nu) @ np.linalg.inv(chol_lower).T
    const = -0.5 * Y.shape[1] * _LOG_2PI - float(np.sum(np.log(np.diag(chol_lower))))
    return const - 0.5 * np.einsum("ij,ij->i", Z, Z)


def spd_inverse(chol_lower):
    """(L L^T)^-1 given the lower Cholesky factor L.

    The product L^-T L^-1 of one array with its own transpose is evaluated
    as a symmetric rank-k update, so the result is exactly symmetric.
    """
    Linv = np.linalg.inv(chol_lower)
    return Linv.T @ Linv


# ---------------------------------------------------------------------------
# p-values
# ---------------------------------------------------------------------------


def chi2_sf(df, x) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1.

    With k = df / 2 and h = x / 2 this is the Poisson sum
    sum_{j < k} exp(-h) h^j / j! for even df, and for odd df
    erfc(sqrt(h)) + sum_{0 < j < k + 1/2} exp(-h) h^(j - 1/2) / Gamma(j + 1/2).
    Each term is formed in log space and exponentiated once, so no power or
    factorial overflows or underflows before the term itself does.  It is 1
    for x <= 0, 0 for x = inf and nan for nan; a df that is not an integer
    >= 1 raises ConfigurationError.
    """
    try:
        df = operator.index(df)
    except TypeError:
        raise ConfigurationError(f"chi-square df must be an integer, got {df!r}") from None
    if df < 1:
        raise ConfigurationError(f"chi-square df must be at least 1, got {df}")
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    half = 0.5 * x
    log_half = math.log(half)
    if df % 2 == 0:
        terms = [math.exp(-half + j * log_half - math.lgamma(j + 1.0))
                 for j in range(df // 2)]
    else:
        terms = [math.erfc(math.sqrt(half))]
        terms += [math.exp(-half + (j - 0.5) * log_half - math.lgamma(j + 0.5))
                  for j in range(1, (df + 1) // 2)]
    # each term may round up, which can lift the sum an ulp above 1
    return min(math.fsum(terms), 1.0)


def normal_two_sided_p(z):
    """2 P(Z > |z|) = erfc(|z| / sqrt 2) for standard normal Z, for a
    scalar or elementwise for an array."""
    z = np.asarray(z, dtype=np.float64)
    p = np.array([math.erfc(abs(t) / _SQRT2) for t in z.ravel().tolist()])
    return p.reshape(z.shape)[()]

