"""Reference computations for the tests: each quantity the engine computes,
formed the obvious way from the model's own pieces, which the engine's fast
paths are compared against.

Every check of a residual covariance goes through the same two steps:
``contributions`` gives each row's contribution G, and ``residual_moments``
gives Var(G), Cov(G), A = E[G s'] and sigma_phi = Cov(G) - A I^-1 A' from G,
the rows' scores and I^-1, over draws or under quadrature weights.
"""

from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from factorgof import RatioBattery, SummaryBattery, kernels, simstudy
from factorgof.estimate import _check_conditioning, _moment_terms, _row_scores
from factorgof.model import lv_logpdf, posterior_log_weights
from factorgof.residuals import _draw_moments, _summary_subset

# ---------------------------------------------------------------------------
# the score, the Hessian and the information
# ---------------------------------------------------------------------------


def reference_score_rows(params, mapping, Y):
    """Per-row score of the log marginal density on the free-parameter scale,
    formed from ``params`` and a fresh factorization of its covariance."""
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    sig_inv = kernels.spd_inverse(params.sigma_cholesky())
    Z = (Y - params.nu) @ sig_inv
    out = np.empty((Y.shape[0], mapping.q))
    if mapping.spec.mean_structure:
        out[:, mapping.nu_slice] = Z
    P = params.lam @ params.phi
    U = Z @ P
    B = sig_inv @ P
    out[:, mapping.lam_slice] = (
        Z[:, mapping.lam_rows] * U[:, mapping.lam_cols]
        - B[mapping.lam_rows, mapping.lam_cols]
    )
    n_phi = len(mapping.phi_rows)
    if n_phi:
        V = Z @ params.lam
        C = params.lam.T @ sig_inv @ params.lam
        base = mapping.phi_slice.start
        for t in range(n_phi):
            a = mapping.phi_rows[t]
            kvec = mapping.dphi[t, a, :]
            out[:, base + t] = V[:, a] * (V @ kvec) - C[a] @ kvec
    out[:, mapping.u_slice] = 0.5 * (Z * Z - np.diag(sig_inv)) * params.theta
    return out


def dense_hessian(v, mapping, ybar, S):
    """Exact Hessian of the mean log-likelihood at v from the sample mean
    ybar and covariance S, built from the (q_c, m, m) stack D of
    dSigma/dv_a over the q_c covariance parameters.

    With E = Sigma^-1 S* Sigma^-1 and G = E - Sigma^-1, the covariance block
    is -tr(Sigma^-1 D_a E D_b) + tr(Sigma^-1 D_a Sigma^-1 D_b)/2
    + tr(G d2Sigma/dv_a dv_b)/2, the intercept block is -Sigma^-1 and the
    intercept-covariance block is -Sigma^-1 D_b Sigma^-1 (ybar - nu).  The
    correlations enter Sigma linearly, through the constant dphi/dphi_ab,
    so only their cross terms with the loadings carry a second derivative.
    """
    t = _moment_terms(v, mapping, ybar, S)
    lam, phi, theta, sig_inv = t.lam, t.phi, t.theta, t.sig_inv
    m = len(theta)
    E = sig_inv @ t.s_star @ sig_inv
    gmat = E - sig_inv
    rows, cols = mapping.lam_rows, mapping.lam_cols
    n_lam, n_phi = len(rows), len(mapping.phi_rows)
    c0 = mapping.lam_slice.start
    nc = mapping.q - c0
    lam_b, phi_b = slice(0, n_lam), slice(n_lam, n_lam + n_phi)
    diag_m = np.arange(m)
    u_b = n_lam + n_phi + diag_m

    D = np.zeros((nc, m, m))
    P = lam @ phi
    D[np.arange(n_lam), rows, :] = P[:, cols].T
    D[np.arange(n_lam), :, rows] += P[:, cols].T
    K = mapping.dphi
    D[phi_b] = lam @ K @ lam.T
    D[u_b, diag_m, diag_m] = theta

    A = sig_inv @ D
    C = E @ D - 0.5 * A
    H = np.zeros((mapping.q, mapping.q))
    hc = H[c0:, c0:]
    hc[...] = -A.reshape(nc, -1) @ C.transpose(0, 2, 1).reshape(nc, -1).T

    hc[lam_b, lam_b] += phi[np.ix_(cols, cols)] * gmat[np.ix_(rows, rows)]
    if n_phi:
        GLK = (gmat @ lam @ K)[:, rows, cols]
        hc[lam_b, phi_b] += GLK.T
        hc[phi_b, lam_b] += GLK
    hc[u_b, u_b] += 0.5 * np.diag(gmat) * theta

    if mapping.spec.mean_structure:
        nu = mapping.nu_slice
        H[nu, nu] = -sig_inv
        H[nu, c0:] = -(A @ (sig_inv @ t.delta)).T
        H[c0:, nu] = H[nu, c0:].T
    return 0.5 * (H + H.T)


def exact_information(v, mapping, params):
    """The exact per-observation information at the free vector v: minus
    the dense Hessian about ybar = nu and S = Sigma of ``params``."""
    return -dense_hessian(v, mapping, params.nu, params.implied_covariance())


def invert_information(info):
    """Symmetric positive definite inverse of an information matrix, after
    the fit's conditioning check, which raises IdentificationError on a
    near-singular one."""
    _check_conditioning(np.linalg.eigvalsh(info))
    return kernels.spd_inverse(np.linalg.cholesky(info))


# ---------------------------------------------------------------------------
# the residual covariance: each row's contribution G, and its moments
# ---------------------------------------------------------------------------


def gauss_hermite(m, n):
    """Product Gauss-Hermite rule for the standard normal in m dimensions:
    nodes (n**m, m) and weights summing to one."""
    x, w = hermegauss(n)
    nodes = np.stack(np.meshgrid(*[x] * m, indexing="ij"), axis=-1).reshape(-1, m)
    weights = np.stack(np.meshgrid(*[w / np.sqrt(2 * np.pi)] * m, indexing="ij"),
                       axis=-1).reshape(-1, m)
    return nodes, np.prod(weights, axis=1)


def contributions(battery, Y, params):
    """Each row's contribution G to a battery's residual covariance: a mean
    battery's values, or W (f - r) / D for a ratio battery, from the rows'
    posterior weights W, the model values r and the latent density D."""
    if not isinstance(battery, RatioBattery):
        return battery.evaluate(Y, params)
    points = battery.grid.points
    W = np.exp(posterior_log_weights(Y, points, params))
    dens = np.exp(lv_logpdf(points, params))
    return W * (battery.evaluate(Y, params) - battery.eta_closed(params)) / dens


def sample_value(battery, Y, params):
    """A battery's sample value on the rows Y: its values' column means, or
    for a ratio battery the W-weighted column means of f, mean(W f) / mean(W)."""
    H = battery.evaluate(Y, params)
    if not isinstance(battery, RatioBattery):
        return H.mean(axis=0)
    W = np.exp(posterior_log_weights(Y, battery.grid.points, params))
    return (H * W).mean(axis=0) / W.mean(axis=0)


class Moments(NamedTuple):
    mean: np.ndarray
    var: np.ndarray
    cov: np.ndarray
    A: np.ndarray
    sigma_phi: np.ndarray


def residual_moments(G, scores, inv_info=None, weights=None):
    """E[G], Var(G), Cov(G), A = E[G s'] and the residual covariance
    sigma_phi = Cov(G) - A I^-1 A' (symmetrized; None without ``inv_info``)
    of the rows' contributions G with scores s: over draws, with the sample
    covariance (divisor M - 1), or under quadrature ``weights`` that sum to
    one."""
    if weights is None:
        mean = G.mean(axis=0)
        cov = np.atleast_2d(np.cov(G, rowvar=False))
        A = G.T @ scores / len(G)
    else:
        Gw = G * weights[:, None]
        mean = Gw.sum(axis=0)
        cov = Gw.T @ G - np.outer(mean, mean)
        A = Gw.T @ scores
    sigma_phi = None
    if inv_info is not None:
        raw = cov - A @ inv_info @ A.T
        sigma_phi = 0.5 * (raw + raw.T)
    return Moments(mean, np.diag(cov).copy(), cov, A, sigma_phi)


def engine_draw_moments(battery, Y, scores, params=None, W=None, dens=None, cols=None):
    """The engine's side of a draw-path comparison: a custom battery's eta,
    Var(G), Cov(G) among ``cols`` (every column by default) and A, as
    ``residuals._draw_moments`` estimates them on the rows Y with the given
    scores, posterior weights W and latent density ``dens``."""
    cols = np.arange(battery.k) if cols is None else cols
    return _draw_moments(battery, params, Y, W, dens, scores, cols)


def column_battery(G):
    """A custom mean battery whose values on any rows are the fixed G."""
    return SummaryBattery(k=G.shape[1], name="columns", _evaluate=lambda Y, p: G)


# ---------------------------------------------------------------------------
# the closed forms' pieces, point by point
# ---------------------------------------------------------------------------


def dense_item_score_moments(points, params, consts, item, order):
    """E[e s | x = x_q] at every point ((Q, q)) for order 1, and
    E[(e^2 - theta_j) s | x = x_q] ((q,)) for order 2, with e the
    deviation of ``item`` from its conditional mean and s the score, from
    the dense change in the gradient for each rank-2 dS, one
    ``_FitConstants.score_change`` each: with t = theta_j u_j, order 1 is
    the change for delta = t plus sum_k x_qk times the change for
    dS = lambda_k t' + t lambda_k', and order 2 the change for dS = 2 t t'.
    The reference for ``_FitConstants.item_scores``."""
    zero = np.zeros(params.m)
    step = np.zeros(params.m)
    step[item] = params.theta[item]
    if order == 2:
        return consts.score_change(zero, 2.0 * np.outer(step, step))
    slopes = [consts.score_change(zero, np.outer(lam_k, step) + np.outer(step, lam_k))
              for lam_k in params.lam.T]
    return consts.score_change(step, np.zeros((params.m, params.m))) + points @ np.array(slopes)


def reference_penalty(battery, params, consts):
    """The diagonal and the summary block of A I^-1 A' for one battery with
    a quadratic form (item, a, b, c) under the fit of ``params`` and
    ``consts`` (its ``_FitConstants``), with A = E[G s'] ((Q, q)) formed point
    by point: a_q times E[s | x_q], the score at each point's conditional
    mean plus ``score_change(0, theta)``, plus b S1_q + c S2 from the fit's
    item table; then (A I^-1) A' on the diagonal and the summary block.  The
    reference for the engine's factored penalty, ``residuals._penalty``."""
    mapping, t, grid = consts.mapping, consts.terms, battery.grid
    points = grid.points
    item, a, b, c = battery._quadratic
    A = np.zeros((len(points), mapping.q))
    if item is not None:
        base, slope, curv = consts.item_scores
        A += b * (base[item] + points @ slope[item]) + c * curv[item]
    if a is not None:
        mean_score = (_row_scores(mapping, t, points @ t.lam.T)
                      + consts.score_change(np.zeros(len(t.nu)), np.diag(t.theta)))
        A += a(params, np.exp(lv_logpdf(points, params)))[:, None] * mean_score
    penalty = A @ consts.inv_information
    sub = _summary_subset(grid)
    return np.einsum("ij,ij->i", penalty, A), penalty[sub] @ A[sub].T


def mixture_lv_logpdf(points):
    """Log-density of the study1 mixture latent law at each row of points,
    one point at a time."""
    mix_mean, mix_cov = simstudy._STUDY1_MIX_MEAN, simstudy._STUDY1_MIX_COV
    inv = np.linalg.inv(mix_cov)
    const = -np.log(2.0 * np.pi) - 0.5 * np.log(np.linalg.det(mix_cov))
    out = np.empty(points.shape[0])
    for i, pt in enumerate(points):
        parts = []
        for mu in (-mix_mean, mix_mean):
            dev = pt - mu
            parts.append(const - 0.5 * dev @ inv @ dev)
        out[i] = np.logaddexp(parts[0], parts[1]) + np.log(0.5)
    return out
