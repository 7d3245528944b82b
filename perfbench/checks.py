"""Reference computations the benchmark checks factorgof's outputs against.

Each function recomputes a quantity from its formula with numpy, scipy and
the math module, without calling factorgof, and returns a list of failure
messages (empty when everything agrees).  Nothing here compares against a
stored copy of earlier output.
"""

import math

import numpy as np
from scipy.stats import chi2, multivariate_normal

RTOL = 1e-9


def _mismatch(label, got, want, rtol=RTOL, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{label}: {int(bad.sum())} of {bad.size} values differ; "
                f"first at {i}: {got.flat[i]!r} vs reference {want.flat[i]!r}"]
    return []


def implied_covariance(lam, phi, theta):
    return lam @ phi @ lam.T + np.diag(theta)


def loglik(label, reported, Y, nu, lam, phi, theta):
    """Fitted log-likelihood against scipy's normal density summed over rows."""
    ref = multivariate_normal(mean=nu, cov=implied_covariance(lam, phi, theta)).logpdf(Y)
    return _mismatch(f"{label} loglik", reported, float(np.sum(ref)))


def posterior_weights(Y, points, nu, lam, phi, theta):
    """(n, Q) posterior densities N(x_q; m_i, S) of the latent vector.

    x | y ~ N(S lam' theta^-1 (y - nu), S) with S = (phi^-1 + lam' theta^-1 lam)^-1.
    """
    d = lam.shape[1]
    lam_t = lam / theta[:, None]
    precision = np.linalg.inv(phi) + lam.T @ lam_t
    S = np.linalg.inv(precision)
    means = (Y - nu) @ lam_t @ S
    dev = points[None, :, :] - means[:, None, :]
    quad = np.einsum("nqa,ab,nqb->nq", dev, precision, dev)
    _, logdet_s = np.linalg.slogdet(S)
    return np.exp(-0.5 * (d * math.log(2.0 * math.pi) + logdet_s + quad))


def expected_report(kind, item, Y, points, nu, lam, phi, theta):
    """Reference (eta_hat, eta) per grid point for one battery.

    ``kind`` is "lv-density", "linearity" or "variance"; ``item`` is 0-based.
    """
    W = posterior_weights(Y, points, nu, lam, phi, theta)
    if kind == "lv-density":
        dens = multivariate_normal(mean=np.zeros(lam.shape[1]), cov=phi).pdf(points)
        return W.mean(axis=0), np.atleast_1d(dens)
    line = nu[item] + points @ lam[item]
    denom = W.sum(axis=0)
    if kind == "linearity":
        return (Y[:, item] @ W) / denom, line
    if kind == "variance":
        dev2 = (Y[:, item][:, None] - line[None, :]) ** 2
        return np.einsum("nq,nq->q", dev2, W) / denom, np.full(len(points), theta[item])
    raise ValueError(f"unknown battery kind {kind!r}")


def two_sided_p(z):
    return np.array([math.erfc(abs(v) / math.sqrt(2.0)) for v in z])


def chi2_sf(T, s):
    # chi-square(1) survival is erfc(sqrt(T/2)); other ranks use scipy
    return math.erfc(math.sqrt(T / 2.0)) if s == 1 else float(chi2.sf(T, s))


def report(label, rep, kind, item, Y, points, nu, lam, phi, theta):
    """Check one residual report against the closed-form posterior.

    ``rep`` holds arrays ``coords``, ``eta_hat``, ``eta``, ``residual``,
    ``se``, ``z``, ``p``, ``unstable`` and scalars ``T``, ``s``,
    ``summary_p`` (``T`` is None when the report has no summary).
    """
    errs = _mismatch(f"{label} grid", rep["coords"], points, rtol=0.0, atol=1e-12)
    if errs:
        return errs
    want_hat, want_eta = expected_report(kind, item, Y, points, nu, lam, phi, theta)
    n = Y.shape[0]
    stable = ~rep["unstable"]
    if not stable.any():
        return [f"{label}: every grid point is flagged unstable"]
    errs += _mismatch(f"{label} eta_hat", rep["eta_hat"][stable], want_hat[stable])
    errs += _mismatch(f"{label} eta", rep["eta"], want_eta)
    errs += _mismatch(f"{label} residual", rep["residual"][stable],
                      want_hat[stable] - want_eta[stable], atol=RTOL * np.abs(want_eta[stable]))
    errs += _mismatch(f"{label} z", rep["z"][stable],
                      rep["residual"][stable] / (rep["se"][stable] / math.sqrt(n)))
    errs += _mismatch(f"{label} point p", rep["p"][stable], two_sided_p(rep["z"][stable]),
                      atol=1e-300)
    if rep["T"] is None or not math.isfinite(rep["T"]) or rep["T"] < 0:
        errs.append(f"{label}: summary T is {rep['T']!r}")
    else:
        errs += _mismatch(f"{label} summary p", rep["summary_p"], chi2_sf(rep["T"], rep["s"]),
                          atol=1e-300)
    return errs


def indices(label, doc, Y, nu, lam, phi, theta, q):
    """Conventional indices recomputed from their formulas.

    Chi-square against the saturated model from the ML discrepancy function,
    the independence baseline for CFI and TLI, RMSEA, and SRMR over the
    variances and covariances.
    """
    n, m = Y.shape
    ybar = Y.mean(axis=0)
    S = (Y - ybar).T @ (Y - ybar) / n
    sigma = implied_covariance(lam, phi, theta)
    delta = ybar - nu
    sig_inv = np.linalg.inv(sigma)
    f_ml = (np.linalg.slogdet(sigma)[1] + np.trace(S @ sig_inv) + delta @ sig_inv @ delta
            - np.linalg.slogdet(S)[1] - m)
    x2 = n * f_ml
    df = m * (m + 3) // 2 - q
    x2_base = n * (np.sum(np.log(np.diag(S))) - np.linalg.slogdet(S)[1])
    df_base = m * (m - 1) // 2
    cfi = 1.0 - max(x2 - df, 0.0) / max(x2_base - df_base, x2 - df)
    tli = (x2_base / df_base - x2 / df) / (x2_base / df_base - 1.0)
    rmsea = math.sqrt(max(x2 - df, 0.0) / (df * n))
    sd = np.sqrt(np.diag(S))
    std_resid = (S - sigma) / np.outer(sd, sd)
    srmr = math.sqrt(np.mean(std_resid[np.triu_indices(m)] ** 2))

    errs = []
    if doc["df"] != df:
        errs.append(f"{label} df: {doc['df']} != {df}")
    if doc["n"] != n or doc["q"] != q:
        errs.append(f"{label} n, q: {doc['n']}, {doc['q']} != {n}, {q}")
    errs += _mismatch(f"{label} chi2", doc["chi2"], x2, rtol=1e-8)
    errs += _mismatch(f"{label} p", doc["p"], chi2.sf(x2, df), rtol=1e-6, atol=1e-300)
    errs += _mismatch(f"{label} cfi", doc["cfi"], cfi, rtol=1e-8)
    errs += _mismatch(f"{label} tli", doc["tli"], tli, rtol=1e-8)
    errs += _mismatch(f"{label} rmsea", doc["rmsea"], rmsea, rtol=1e-8)
    errs += _mismatch(f"{label} srmr", doc["srmr"], srmr, rtol=1e-8)
    return errs
