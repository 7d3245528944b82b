"""Accuracy of the numeric kernels against direct references."""

import math

import numpy as np
from scipy.stats import multivariate_normal

from factorgof import kernels


def test_backend_reports_active_lane():
    assert kernels.backend() == "numpy"


def test_mvn_loglik_rows_against_scipy(rng):
    m = 5
    A = rng.normal(size=(m, m))
    cov = A @ A.T + m * np.eye(m)
    nu = rng.normal(size=m)
    Y = np.ascontiguousarray(rng.normal(size=(50, m)))
    L = np.linalg.cholesky(cov)
    ref = multivariate_normal(mean=nu, cov=cov).logpdf(Y)
    np.testing.assert_allclose(kernels.mvn_loglik_rows(Y, nu, L), ref, rtol=1e-10)


def test_colmean_matches_mean_and_reference(rng):
    X = np.ascontiguousarray(rng.normal(size=(3000, 4)) + 5.0)
    np.testing.assert_allclose(kernels.colmean(X), X.mean(axis=0), rtol=1e-13)
    # exactly rounded column means as the accuracy reference
    exact = [math.fsum(col) / X.shape[0] for col in X.T]
    np.testing.assert_allclose(kernels.colmean(X), exact, rtol=1e-14)


def test_crossprod_mean_matches_blas(rng):
    X = np.ascontiguousarray(rng.normal(size=(2500, 7)))
    W = np.ascontiguousarray(rng.normal(size=(2500, 3)))
    np.testing.assert_allclose(
        kernels.crossprod_mean(X, W), X.T @ W / 2500, rtol=1e-12, atol=1e-14
    )


def test_covariance_matches_npcov(rng):
    X = np.ascontiguousarray(rng.normal(size=(1200, 5)) + 3.0)
    ref = np.cov(X.T, ddof=1)
    got = kernels.covariance(X)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
    assert np.array_equal(got, got.T)
