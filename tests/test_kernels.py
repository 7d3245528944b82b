"""Accuracy of the numeric kernels and of the draw moments' plain numpy
reductions against direct references, and the single-BLAS-thread scope
around the entry points."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from factorgof import (
    ConfigurationError,
    McConfig,
    ModelSpec,
    SummaryBattery,
    Study2Config,
    default_grid,
    fit_ml,
    kernels,
    make_grid,
    mv_linearity_problem,
    run_residual_test,
    simstudy,
    simulate_data,
    study2_paramset,
)

from reference import engine_draw_moments


def test_backend_reports_active_lane():
    assert kernels.backend() == "numpy"


def test_mvn_loglik_rows_against_scipy(rng):
    multivariate_normal = pytest.importorskip("scipy.stats").multivariate_normal
    m = 5
    A = rng.normal(size=(m, m))
    cov = A @ A.T + m * np.eye(m)
    nu = rng.normal(size=m)
    Y = np.ascontiguousarray(rng.normal(size=(50, m)))
    L = np.linalg.cholesky(cov)
    ref = multivariate_normal(mean=nu, cov=cov).logpdf(Y)
    np.testing.assert_allclose(kernels.mvn_loglik_rows(Y, nu, L), ref, rtol=1e-10)


def _rows_battery(k):
    """A custom mean battery whose values are its k-column rows themselves."""
    return SummaryBattery(k=k, name="rows", _evaluate=lambda Y, p: Y)


def test_crossprod_mean_matches_blas(rng):
    X = rng.normal(size=(2500, 7))
    W = rng.normal(size=(2500, 3))
    eta, _, _, A = engine_draw_moments(_rows_battery(7), X, W, cols=np.empty(0, dtype=np.intp))
    np.testing.assert_allclose(eta, X.mean(axis=0), rtol=1e-15)
    np.testing.assert_allclose(A, X.T @ W / 2500, rtol=1e-12, atol=1e-14)


def test_centred_sums_match_covariance(rng):
    # the mean is far from zero, so a sum of squares taken before centring
    # would lose digits; Cov(G) on a reordered subset of the columns
    X = rng.normal(size=(2600, 6)) + 40.0
    cols = np.array([4, 1, 3])
    _, var, cov, _ = engine_draw_moments(_rows_battery(6), X, rng.normal(size=(2600, 2)),
                                         cols=cols)
    ref = np.cov(X.T, ddof=1)
    np.testing.assert_allclose(var, np.diag(ref), rtol=1e-12)
    np.testing.assert_allclose(cov, ref[np.ix_(cols, cols)], rtol=1e-10,
                               atol=1e-9 / (X.shape[0] - 1))
    _, var0, cov0, _ = engine_draw_moments(_rows_battery(6), X, rng.normal(size=(2600, 2)),
                                           cols=np.empty(0, dtype=np.intp))
    assert np.array_equal(var0, var) and cov0.shape == (0, 0)


def test_spd_inverse_is_exactly_symmetric(rng):
    for m in (1, 4, 10, 61):
        A = rng.normal(size=(m, m))
        spd = A @ A.T + m * np.eye(m)
        inv = kernels.spd_inverse(np.linalg.cholesky(spd))
        assert np.array_equal(inv, inv.T)
        np.testing.assert_allclose(inv, np.linalg.inv(spd), rtol=1e-12, atol=0.0)


# x from 0 through 1e-300 up to 3000
_CHI2_X = np.concatenate([[0.0, 1e-300, 1e-100, 1e-20, 1e-8],
                          np.geomspace(1e-4, 3000.0, 120), np.arange(1.0, 3001.0, 37.0)])


def test_chi2_sf_against_scipy():
    chdtrc = pytest.importorskip("scipy.special").chdtrc
    for df in list(range(1, 201)) + [1001]:
        ours = np.array([kernels.chi2_sf(df, x) for x in _CHI2_X])
        ref = chdtrc(df, _CHI2_X)
        keep = ref > 1e-290
        assert keep.sum() > 40
        np.testing.assert_allclose(ours[keep], ref[keep], rtol=1e-11, atol=0.0,
                                   err_msg=f"df={df}")
        # below scipy's reach the sum underflows towards 0, never above it
        assert (ours[~keep] <= 1e-280).all(), df
        assert kernels.chi2_sf(df, 0.0) == 1.0
        assert kernels.chi2_sf(df, np.inf) == 0.0
        assert math.isnan(kernels.chi2_sf(df, np.nan))


def test_chi2_sf_integer_types():
    # numpy integers count as integers
    assert kernels.chi2_sf(np.int64(169), 180.0) == kernels.chi2_sf(169, 180.0)
    chdtrc = pytest.importorskip("scipy.special").chdtrc
    assert kernels.chi2_sf(169, 180.0) == pytest.approx(float(chdtrc(169, 180.0)), rel=1e-11)


@pytest.mark.parametrize("df", [2.0, 1.5, np.float64(3.0), "2", 0, -3, np.int64(0)])
def test_chi2_sf_rejects_bad_df(df):
    with pytest.raises(ConfigurationError):
        kernels.chi2_sf(df, 1.0)


def test_normal_two_sided_p_against_scipy():
    ndtr = pytest.importorskip("scipy.special").ndtr
    z = np.concatenate([np.linspace(-40.0, 40.0, 801), [0.0, 1e-300, -1e-12, 6.5]])
    ref = 2.0 * ndtr(-np.abs(z))
    p = kernels.normal_two_sided_p(z)
    assert p.shape == z.shape
    # past |z| = 37.5 the p-value is subnormal, and scipy's is flushed to zero
    keep = ref > 1e-290
    assert keep.sum() > 700
    np.testing.assert_allclose(p[keep], ref[keep], rtol=1e-12, atol=0.0)
    assert (p[~keep] <= 1e-280).all()
    assert [kernels.normal_two_sided_p(t) for t in z] == p.tolist()
    assert kernels.normal_two_sided_p(0.0) == 1.0
    assert kernels.normal_two_sided_p(np.inf) == 0.0
    assert math.isnan(kernels.normal_two_sided_p(np.nan))
    assert kernels.normal_two_sided_p(np.zeros((2, 3))).shape == (2, 3)


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
    """Set every loaded OpenBLAS pool to n threads; restored after the test.
    The lookup is cached at its first call, and a scipy oracle above may
    have loaded scipy's OpenBLAS since, so it is taken afresh."""
    _openblas_pools.cache_clear()
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
    fit = fit_ml(data, spec)
    assert fit.converged
    return data, fit


def _recording_battery(seen, k=3):
    """A 3-point battery that records the pool counts it runs under and
    returns k components."""

    def evaluate(Y, p):
        seen.append(_pool_counts())
        return Y[:, :k]

    return SummaryBattery(k=3, name="record", _evaluate=evaluate, _eta=lambda p: p.nu[:3],
                          grid=make_grid([(-1, 1, 3)]))


@needs_openblas
def test_scope_runs_battery_on_one_thread(small_fit, set_caller_threads):
    data, fit = small_fit
    set_caller_threads(2)
    seen = []
    run_residual_test(_recording_battery(seen), fit, data, McConfig(M=1000, seed=1))
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert _pool_counts() == [2] * len(seen[0])


@needs_openblas
def test_scope_restores_counts_after_an_error(small_fit, set_caller_threads):
    data, fit = small_fit
    set_caller_threads(2)
    seen = []
    with pytest.raises(ConfigurationError, match="returned 2 components"):
        run_residual_test(_recording_battery(seen, k=2), fit, data, McConfig(M=1000, seed=1))
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
        Study2Config(n=150), reps=2, seed=3, M=1000, items=(1,)
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
    run_residual_test(_recording_battery(seen), fit, data, McConfig(M=1000, seed=1))
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

        battery = SummaryBattery(k=3, name="record", _evaluate=evaluate, _eta=lambda p: p.nu[:3],
                                 grid=make_grid([(-1, 1, 3)]))
        refit = fit_ml(data, fit.spec)
        assert refit.converged
        run_residual_test(battery, refit, data, McConfig(M=1000, seed=1))
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
