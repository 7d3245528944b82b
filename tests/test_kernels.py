"""Accuracy of the numeric kernels against direct references, and the
single-BLAS-thread scope around the entry points."""

import math
import os
import sys
import threading

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from factorgof import (
    ConfigurationError,
    McConfig,
    ModelSpec,
    OptimOptions,
    SummaryBattery,
    Study2Config,
    default_grid,
    fit_ml,
    identity_transformation,
    kernels,
    make_grid,
    mv_linearity_problem,
    run_residual_test,
    simstudy,
    simulate_data,
    study2_paramset,
)
from factorgof.residuals import ResidualProblem


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


# ---------------------------------------------------------------------------
# single-BLAS-thread scope
# ---------------------------------------------------------------------------

# the scope's own lookup, kept so tests that patch it can still read the pools
_openblas_pools = kernels._openblas_pools

needs_openblas = pytest.mark.skipif(not _openblas_pools(), reason="no loaded OpenBLAS found")


def _pool_counts():
    return [get() for get, _ in _openblas_pools()]


@pytest.fixture
def set_caller_threads():
    """Set every loaded OpenBLAS pool to n threads; restored after the test."""
    pools = _openblas_pools()
    saved = _pool_counts()

    def set_all(n):
        for _, set_ in pools:
            set_(n)

    yield set_all
    for (_, set_), n in zip(pools, saved):
        set_(n)


@pytest.fixture(scope="module")
def small_fit():
    params = study2_paramset()
    spec = ModelSpec(m=10, d=1, loading_pattern=np.ones((10, 1), dtype=int))
    data = simulate_data(params, 600, np.random.default_rng(2024))
    fit = fit_ml(data, spec, OptimOptions(info_draws=0))
    assert fit.converged
    return data, fit


def _recording_problem(seen, k=3):
    """A 3-point problem whose battery records the pool counts it runs under
    and returns k components."""

    def evaluate(Y, p):
        seen.append(_pool_counts())
        return Y[:, :k]

    battery = SummaryBattery(k=3, name="record", _evaluate=evaluate, _eta=lambda p: p.nu[:3])
    return ResidualProblem(battery, identity_transformation(3), make_grid([(-1, 1, 3)]))


@needs_openblas
def test_scope_runs_battery_on_one_thread(small_fit, set_caller_threads):
    data, fit = small_fit
    set_caller_threads(2)
    seen = []
    run_residual_test(_recording_problem(seen), fit, data, McConfig(M=1000, seed=1))
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert _pool_counts() == [2] * len(seen[0])


@needs_openblas
def test_scope_restores_counts_after_an_error(small_fit, set_caller_threads):
    data, fit = small_fit
    set_caller_threads(2)
    seen = []
    with pytest.raises(ConfigurationError, match="returned 2 components"):
        run_residual_test(_recording_problem(seen, k=2), fit, data, McConfig(M=1000, seed=1))
    assert seen == [[1] * len(seen[0])]
    assert _pool_counts() == [2] * len(seen[0])
    assert kernels._scope_depth == 0


class _FakePool:
    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


def test_nested_scopes_restore_once_at_outermost_exit(monkeypatch):
    pool = _FakePool(2)
    monkeypatch.setattr(kernels, "_openblas_pools", lambda: ((pool.get, pool.set),))
    inner = []

    def recording_fit_ml(*args, **kwargs):
        out = fit_ml(*args, **kwargs)
        inner.append(pool.count)
        return out

    monkeypatch.setattr(simstudy, "fit_ml", recording_fit_ml)
    simstudy.run_rejection_study(
        Study2Config(n=150), reps=2, seed=3, M=1000, items=(1,), kinds=("linearity",)
    )
    assert inner == [1, 1]
    assert pool.sets == [1, 2]
    assert kernels._scope_depth == 0


def test_scope_does_nothing_without_openblas(small_fit, set_caller_threads, monkeypatch):
    data, fit = small_fit
    set_caller_threads(2)
    n_pools = len(_openblas_pools())
    monkeypatch.setattr(kernels, "_openblas_pools", lambda: ())
    seen = []
    run_residual_test(_recording_problem(seen), fit, data, McConfig(M=1000, seed=1))
    assert seen and all(counts == [2] * n_pools for counts in seen)
    assert _pool_counts() == [2] * n_pools


def _loaded_openblas_paths():
    with open("/proc/self/maps", "rb") as fh:
        return sorted({line[line.index(b"/"):].rstrip(b"\n")
                       for line in fh if b"openblas" in line.lower() and b"/" in line})


def test_lookup_reads_paths_with_spaces_and_skips_unopenable(
        small_fit, set_caller_threads, tmp_path, monkeypatch):
    # Each loaded OpenBLAS is listed again through a symlink in a directory
    # whose path has a space and a byte that is not UTF-8; dlopen resolves it
    # to the library already loaded.  Around them: paths that cannot be
    # opened (one with a space, one not UTF-8) and anonymous mappings.
    real = _openblas_pools()
    set_caller_threads(2)
    spaced = tmp_path / "Jane Doe" / os.fsdecode(b"venv \xff")
    spaced.mkdir(parents=True)
    lines = [b"7f0000000000-7f0000001000 rw-p 00000000 00:00 0",
             b"7f0000001000-7f0000002000 rw-p 00000000 00:00 0 ",
             b"7f0000002000-7f0000003000 r-xp 00000000 08:01 7    "
             + bytes(spaced / "libscipy_openblas64_-missing.so"),
             b"7f0000003000-7f0000004000 r-xp 00000000 08:01 8    "
             + bytes(tmp_path) + b"/\xff\xfe/libopenblas.so.0"]
    for i, path in enumerate(_loaded_openblas_paths()):
        link = spaced / os.path.basename(os.fsdecode(path))
        link.symlink_to(os.fsdecode(path))
        lines.append(b"7f10%08x-7f10%08x r-xp 00000000 08:01 %d    " % (i, i + 1, 100 + i)
                     + bytes(link))
    maps = tmp_path / "maps"
    maps.write_bytes(b"\n".join(lines) + b"\n")

    monkeypatch.setattr(kernels, "_MAPS", str(maps))
    _openblas_pools.cache_clear()
    try:
        found = _openblas_pools()
        assert len(found) == len(real)
        data, fit = small_fit
        seen = []

        def evaluate(Y, p):
            seen.append([get() for get, _ in real])
            return Y[:, :3]

        battery = SummaryBattery(k=3, name="record", _evaluate=evaluate, _eta=lambda p: p.nu[:3])
        problem = ResidualProblem(battery, identity_transformation(3), make_grid([(-1, 1, 3)]))
        refit = fit_ml(data, fit.spec, OptimOptions(info_draws=0))
        assert refit.converged
        run_residual_test(problem, refit, data, McConfig(M=1000, seed=1))
    finally:
        _openblas_pools.cache_clear()
    assert seen and all(counts == [1] * len(real) for counts in seen)
    assert [get() for get, _ in real] == [2] * len(real)


@needs_openblas
def test_outputs_do_not_depend_on_caller_threads(small_fit, set_caller_threads):
    # A case whose T and z differ between one and two OpenBLAS threads when
    # the caller's counts are used.
    data, fit = small_fit
    problem = mv_linearity_problem(default_grid(1), 8)
    runs = []
    for threads in (1, 2):
        set_caller_threads(threads)
        report = run_residual_test(problem, fit, data, McConfig(M=1000, seed=3))
        runs.append((report.summary.T, [pt.z for pt in report.points]))
    assert runs[0] == runs[1]


def test_scope_from_many_threads_restores_once(monkeypatch):
    pool = _FakePool(2)
    monkeypatch.setattr(kernels, "_openblas_pools", lambda: ((pool.get, pool.set),))
    seen = []
    pinned = kernels.single_blas_thread(lambda: seen.append(pool.count))

    def loop():
        for _ in range(300):
            pinned()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 6 * 300 and set(seen) == {1}
    assert pool.count == 2 and kernels._scope_depth == 0
    # every entry at depth 0 pins, every exit back to depth 0 restores
    assert pool.sets[::2] == [1] * (len(pool.sets) // 2)
    assert pool.sets[1::2] == [2] * (len(pool.sets) // 2)
