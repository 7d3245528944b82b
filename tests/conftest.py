"""Fixtures and study helpers shared by the tests.  The reference
computations the engine is checked against live in ``reference.py``."""

import numpy as np
import pytest
from hypothesis import settings

from factorgof import ModelSpec, ParamSet, baseline_report, replication

# A Tier-1 run draws the same hypothesis examples every time, so its verdict
# repeats; ``--hypothesis-profile randomized`` searches fresh examples.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("randomized", derandomize=False)
settings.load_profile("derandomized")


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
