"""Numeric kernels: multivariate normal log-density rows and compensated
reductions over Monte Carlo draws, in numpy."""

import numpy as np
from scipy.linalg import solve_triangular

_LOG_2PI = float(np.log(2.0 * np.pi))


def backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


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
