"""Conventional goodness-of-fit diagnostics.

Likelihood-ratio chi-square against the saturated model plus the usual
descriptive indices, all unadjusted.  Conventions pinned here: the saturated
and baseline models use the divisor-n sample covariance; SRMR averages
squared standardized residuals of variances and covariances (diagonal
included, means excluded); CFI and TLI are stored raw, without clamping.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotConvergedError
from .estimate import DataMatrix, FitResult
from .kernels import chi2_sf, single_blas_thread

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class BaselineReport:
    chi2: float
    df: int
    p: float
    cfi: float
    tli: float
    srmr: float
    rmsea: float
    n: int
    q: int


def _require_converged(fit: FitResult):
    if not fit.converged:
        raise NotConvergedError(
            "diagnostics require a converged fit: " + "; ".join(fit.warnings)
        )


def lr_chi2(fit: FitResult, data: DataMatrix) -> tuple:
    """Likelihood-ratio test of the model against the saturated model.

    Returns (chi2, df, p) with df = m(m+3)/2 - q for mean-structure models.
    """
    return _baseline(fit, data)[:3]


def fit_indices(fit: FitResult, data: DataMatrix) -> tuple:
    """CFI, TLI, SRMR and RMSEA for a converged fit.

    The baseline is the independence-with-means model, whose ML solution is
    analytic (sample means and variances), so it cannot fail to converge.
    """
    return _baseline(fit, data)[3:]


def _baseline(fit: FitResult, data: DataMatrix) -> tuple:
    """(chi2, df, p, cfi, tli, srmr, rmsea) from the data's sample
    covariance S, formed with the DataMatrix, and one log-determinant of S."""
    _require_converged(fit)
    m = data.m
    S = data.S
    sign, logdet = np.linalg.slogdet(S)
    loglik_sat = -0.5 * data.n * (m * _LOG_2PI + logdet + m)
    chi2 = float(max(2.0 * (loglik_sat - fit.loglik), 0.0))
    df = m * (m + 3) // 2 - fit.mapping.q
    p = chi2_sf(df, chi2) if df > 0 else float("nan")

    chi2_base = data.n * float(np.sum(np.log(np.diag(S))) - logdet)
    df_base = m * (m - 1) // 2

    excess = max(chi2 - df, 0.0)
    excess_base = max(chi2_base - df_base, 0.0)
    cfi = 1.0 - excess / max(excess_base, excess, np.finfo(float).tiny)
    if df > 0 and df_base > 0 and chi2_base / df_base != 1.0:
        tli = ((chi2_base / df_base) - (chi2 / df)) / ((chi2_base / df_base) - 1.0)
    else:
        tli = float("nan")
    rmsea = float(np.sqrt(excess / (df * data.n))) if df > 0 else 0.0

    sigma = fit.params.implied_covariance()
    delta_mat = S - sigma
    denom = np.sqrt(np.outer(np.diag(S), np.diag(S)))
    std_resid = delta_mat / denom
    iu = np.triu_indices(m)
    srmr = float(np.sqrt(np.mean(std_resid[iu] ** 2)))

    return chi2, int(df), p, float(cfi), float(tli), srmr, rmsea


@single_blas_thread
def baseline_report(fit: FitResult, data: DataMatrix) -> BaselineReport:
    chi2, df, p, cfi, tli, srmr, rmsea = _baseline(fit, data)
    return BaselineReport(
        chi2=chi2, df=df, p=p, cfi=cfi, tli=tli, srmr=srmr, rmsea=rmsea,
        n=data.n, q=fit.mapping.q,
    )
