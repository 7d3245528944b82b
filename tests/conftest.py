from dataclasses import dataclass

import numpy as np
import pytest

from factorgof import (
    ConfigurationError,
    ModelSpec,
    ParamSet,
    RatioBattery,
    baseline_report,
    make_grid,
    replication,
)
from factorgof import kernels, simstudy
from factorgof.estimate import _check_conditioning, _moment_terms
from factorgof.residuals import _draw_moments


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def one_factor_spec():
    return ModelSpec(m=6, d=1, loading_pattern=np.ones((6, 1), dtype=int))


@pytest.fixture
def one_factor_params():
    lam = np.array([0.5, 0.6, 0.7, 0.5, 0.6, 0.7])[:, None]
    return ParamSet(
        nu=np.array([0.2, -0.1, 0.0, 0.4, -0.3, 0.1]),
        lam=lam,
        phi=np.eye(1),
        theta=1.0 - lam.ravel() ** 2 + 0.1,
    )


@pytest.fixture
def two_factor_spec():
    pattern = np.zeros((8, 2), dtype=int)
    pattern[:4, 0] = 1
    pattern[4:, 1] = 1
    return ModelSpec(m=8, d=2, loading_pattern=pattern)


@pytest.fixture
def two_factor_params(two_factor_spec):
    lam = np.zeros((8, 2))
    lam[:4, 0] = [0.6, 0.7, 0.5, 0.8]
    lam[4:, 1] = [0.7, 0.6, 0.8, 0.5]
    phi = np.array([[1.0, 0.2], [0.2, 1.0]])
    return ParamSet(
        nu=np.linspace(-0.5, 0.5, 8),
        lam=lam,
        phi=phi,
        theta=1.0 - np.einsum("jk,kl,jl->j", lam, phi, lam) + 0.05,
    )


def random_admissible_free_vector(mapping, rng, scale=0.4):
    """Random free-parameter vector; admissibility holds by construction:
    the correlation slots hold the entries of the positive definite
    correlation matrix Lt Lt', with Lt a unit lower-triangular matrix of
    random entries whose rows are normalized."""
    v = rng.normal(0.0, scale, mapping.q)
    L = np.eye(mapping.spec.d)
    L[mapping.phi_rows, mapping.phi_cols] = v[mapping.phi_slice]
    L /= np.linalg.norm(L, axis=1, keepdims=True)
    v[mapping.phi_slice] = (L @ L.T)[mapping.phi_rows, mapping.phi_cols]
    return v


# ---------------------------------------------------------------------------
# row-by-row reference: the per-row score from the ParamSet's own
# quantities, against which the engine's row-score kernel is tested bit for bit
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


# ---------------------------------------------------------------------------
# dense reference: the Hessian of the mean log-likelihood from one m x m
# slab dSigma/dv per covariance parameter, against which the fit's gathered
# Hessian is tested
# ---------------------------------------------------------------------------


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
# dense reference: the full residual covariance, and the per-row terms of
# the draw path, against which the engine's reductions are tested
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class DenseAcm:
    """Full residual covariance J (sigma_H - A I^-1 A') J' from ``assemble_acm``.

    ``sym_delta`` is the largest asymmetry before symmetrization and
    ``unstable`` flags diagonal entries at or below 1e-12, the engine's floor.
    """

    sigma_phi_hat: np.ndarray
    sym_delta: float
    unstable: np.ndarray


def assemble_acm(jac, A, inv_info, sigma_H):
    """Assemble and symmetrize the full residual covariance.  The engine
    forms only the entries a report reads; this dense assembly is the
    reference those entries are tested against."""
    k = sigma_H.shape[0]
    if A.shape[0] != k or inv_info.shape[0] != A.shape[1] or jac.shape[1] != k:
        raise ConfigurationError(
            f"non-conformable shapes: jac {jac.shape}, A {A.shape}, "
            f"inv_info {inv_info.shape}, sigma_H {sigma_H.shape}"
        )
    raw = jac @ (sigma_H - A @ inv_info @ A.T) @ jac.T
    sigma_phi = 0.5 * (raw + raw.T)
    return DenseAcm(sigma_phi_hat=sigma_phi, sym_delta=float(np.abs(raw - raw.T).max()),
                    unstable=np.diag(sigma_phi) <= 1e-12)


def drawn_ratio_moments(f, W, r, D, scores):
    """Var(G), Cov(G) among every point and A = E[G s'] as the engine's draw
    path estimates them for a ratio battery with values f ((M, Q)), weights
    W, model value r and latent density D, on M draws with scores
    ``scores``."""
    M, Q = W.shape
    battery = RatioBattery(k=Q, name="custom-ratio", _evaluate=lambda Y, p: f,
                           _eta=lambda p: r, grid=make_grid([(-1.0, 1.0, Q)]))
    return _draw_moments(battery, None, np.zeros((M, 1)), W, D, scores, np.arange(Q))[1:]


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


def baseline_means(cfg, *, reps, seed, alpha=0.05):
    """The likelihood-ratio rejection rate and the mean CFI, TLI, SRMR and
    RMSEA of ``baseline_report`` over the converged fits among replications
    0..reps-1 of ``cfg``, summed in replication order."""
    rejections, converged = 0, 0
    sums = dict.fromkeys(("cfi", "tli", "srmr", "rmsea"), 0.0)
    for rep in range(reps):
        data, fit = replication(cfg, seed, rep)
        if not fit.converged:
            continue
        converged += 1
        report = baseline_report(fit, data)
        rejections += report.p < alpha
        for key in sums:
            sums[key] += getattr(report, key)
    return {"lr_rate": rejections / converged,
            **{f"mean_{key}": total / converged for key, total in sums.items()}}


def sample_moments(G, scores):
    """The same three moments of given rows' contributions G: their sample
    variance and covariance, and their mean outer product with the scores."""
    cov = np.atleast_2d(np.cov(G, rowvar=False))
    return np.diag(cov), cov, G.T @ scores / len(G)
