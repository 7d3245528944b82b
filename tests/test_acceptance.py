"""Acceptance suite: one test per criterion, one printed verdict line each.

Replication batches are shared across criteria through session fixtures; all
seeds are fixed, so every number below reproduces exactly.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, ncx2

import factorgof as fg
from factorgof.estimate import ParamMapping
from factorgof.model import marginal_logpdf
from factorgof.simstudy import _STUDY1_PHI, model_spec_study2

from conftest import baseline_means, drawn_ratio_moments, mixture_lv_logpdf, sample_moments

pytestmark = pytest.mark.acceptance

CHI2_1_CRIT = 3.841458820694124
Z_99 = 2.5758293035489004  # two-sided 99% normal quantile

# 99% Monte Carlo bands around alpha = .05 at the stated replication counts
BAND_R300 = 0.031
BAND_R200 = 0.040
BAND_R500 = 0.0251


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _in_band(rate: float, halfwidth: float) -> bool:
    return abs(rate - 0.05) <= halfwidth


def _halfwidth_99(rate: float, reps: int) -> float:
    """99% binomial half-width of a rejection rate over ``reps`` replications."""
    return Z_99 * math.sqrt(rate * (1.0 - rate) / reps)


# ---------------------------------------------------------------------------
# shared replication batches
# ---------------------------------------------------------------------------


# The covariance of every bundled battery (linearity, variance and the
# 361-point latent-density battery) is exact, so none of these batches
# draws: their M is provenance only, and the rates carry no Monte Carlo
# noise from the covariance.
@pytest.fixture(scope="session")
def s2_correct():
    return fg.run_rejection_study(
        fg.Study2Config(n=500), reps=500, seed=2201, M=4000, items=(1,),
        collect_raw=True,
    )


@pytest.fixture(scope="session")
def s2_missp():
    return fg.run_rejection_study(
        fg.Study2Config(n=1000, misspecified=True), reps=200, seed=2301,
        M=4000, items=(1, 7, 8, 9),
    )


@pytest.fixture(scope="session")
def s1_correct():
    return fg.run_rejection_study(
        fg.Study1Config(n=500), reps=300, seed=2401, M=10_000,
    )


@pytest.fixture(scope="session")
def s1_missp():
    return fg.run_rejection_study(
        fg.Study1Config(n=1000, misspecified=True), reps=200, seed=2501,
        M=10_000, collect_raw=True,
    )


# ---------------------------------------------------------------------------
# criterion 1: numerical oracle suite
# ---------------------------------------------------------------------------


def test_criterion_1_numerical_oracles(two_factor_params, two_factor_spec,
                                       one_factor_params, one_factor_spec):
    rng = np.random.default_rng(101)
    checks = []

    # Bayes identity in log space
    p = two_factor_params
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=p.m)
        lhs = fg.posterior_lv_density(x, y, p) + fg.marginal_density(y, p)
        rhs = fg.lv_density(x, p) + sum(
            fg.conditional_mv_density(j, y[j], x, p) for j in range(p.m)
        )
        checks.append(abs(lhs - rhs) < 1e-12)

    # posterior normalization by quadrature (d = 1)
    y = rng.normal(size=one_factor_params.m)
    total, _ = quad(
        lambda x: math.exp(fg.posterior_lv_density(np.array([x]), y, one_factor_params)),
        -10, 10,
    )
    checks.append(abs(total - 1.0) < 1e-6)

    # analytic score vs central finite differences
    for spec in (one_factor_spec, two_factor_spec):
        mapping = ParamMapping(spec)
        for _ in range(3):
            v = rng.normal(0, 0.4, mapping.q)
            params = mapping.unpack(v)
            y = rng.normal(size=spec.m)
            analytic = fg.score(params, y, spec)
            fd = np.empty(mapping.q)
            for i in range(mapping.q):
                vp, vm = v.copy(), v.copy()
                vp[i] += 1e-5
                vm[i] -= 1e-5
                fd[i] = (
                    marginal_logpdf(y[None], mapping.unpack(vp))[0]
                    - marginal_logpdf(y[None], mapping.unpack(vm))[0]
                ) / 2e-5
            checks.append(np.allclose(analytic, fd, rtol=1e-5, atol=1e-7))

    # weight-matrix conditions on random PSD matrices
    for k in (4, 6):
        A = rng.normal(size=(k, k))
        sigma = A @ A.T
        for s in (1, 2, k):
            W = fg.truncated_inverse(sigma, s)
            c1 = np.abs(sigma @ W @ sigma @ W @ sigma - sigma @ W @ sigma).max() < 1e-8
            c2 = abs(np.trace(W @ sigma) - s) < 1e-8
            checks.append(c1 and c2)

    # a ratio battery's per-row contributions on the draw path vs the
    # finite-difference derivative of N / D at the model means g = [D r, D],
    # applied to rows of [f W, W]
    g = rng.uniform(0.5, 2.0, 8)
    f = rng.normal(size=(5, 4))
    W = rng.uniform(0.1, 2.0, size=(5, 4))
    fd = np.empty((4, 8))
    for i in range(8):
        gp, gm = g.copy(), g.copy()
        gp[i] += 1e-6
        gm[i] -= 1e-6
        fd[:, i] = (gp[:4] / gp[4:] - gm[:4] / gm[4:]) / 2e-6
    scores = rng.normal(size=(5, 3))
    drawn = drawn_ratio_moments(f, W, g[:4] / g[4:], g[4:], scores)
    want = sample_moments(np.hstack([f * W, W]) @ fd.T, scores)
    checks.append(all(np.allclose(a, b, rtol=1e-6, atol=1e-9) for a, b in zip(drawn, want)))

    # pack/unpack round trip
    for spec in (one_factor_spec, two_factor_spec):
        mapping = ParamMapping(spec)
        for _ in range(5):
            v = rng.normal(0, 0.5, mapping.q)
            checks.append(
                np.abs(mapping.pack(mapping.unpack(v)) - v).max() < 1e-12
            )

    _report("1", all(checks), f"{sum(checks)}/{len(checks)} oracle checks passed")


# ---------------------------------------------------------------------------
# criterion 2: null calibration, one-factor design
# ---------------------------------------------------------------------------


def test_criterion_2_null_calibration(s2_correct):
    table = s2_correct
    assert table.excluded == 0
    # the 11 interior grid points are the summary subgrid of the default grid
    sub_idx = fg.default_grid(1).summary_subset

    details = []
    ok = True
    for kind in ("linearity[1]", "variance[1]"):
        T = np.asarray(table.raw[kind]["T"][:300])
        t_rate = float(np.mean(T > CHI2_1_CRIT))
        ok_t = _in_band(t_rate, BAND_R300)
        ok = ok and ok_t
        details.append(f"{kind}: T rate {t_rate:.3f} ({'in' if ok_t else 'OUT of'} band)")

        z = table.raw[kind]["z"][:300][:, sub_idx]
        pt_rates = np.nanmean(np.abs(z) > 1.959964, axis=0)
        n_in = int(sum(_in_band(r, BAND_R300) for r in pt_rates))
        ok_z = n_in >= 9
        ok = ok and ok_z
        details.append(f"{kind}: pointwise in band at {n_in}/11 interior points")
    _report("2", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 3: power differentiation
# ---------------------------------------------------------------------------


def _predicted_study2_rate(problem, table, *, N, M, data_seed, mc_seed):
    """Large-sample prediction of a study2 summary rejection rate.

    Fits the design of ``table`` on N rows, where the residual e is close to
    its population drift, and takes the exact residual covariance at that
    fit (``M`` and ``mc_seed`` are provenance only).  At that fit
    T = N e'We, so the noncentrality at the table's sample size is T n / N,
    and the predicted rate is the chi-square(1) tail at that noncentrality.
    Returns ``(noncentrality, rate)``.
    """
    cfg = fg.Study2Config(n=N, misspecified=table.misspecified)
    data = fg.generate_study2(cfg, np.random.default_rng(data_seed))
    fit = fg.fit_ml(data, model_spec_study2())
    assert fit.converged
    report = fg.run_residual_test(
        problem, fit, data, fg.McConfig(M=M, seed=mc_seed)
    )
    noncentrality = report.summary.T * table.n / N
    return noncentrality, float(ncx2.sf(CHI2_1_CRIT, 1, noncentrality))


# Each battery must react to the distortion it targets (power checks) and
# react clearly less to the other kind (separation checks).  Neither battery
# promises the nominal level on an item distorted the other way:
#
# * linearity[8] (log-linear variance): the ratio estimator weights rows by
#   the fitted normal posterior, which misstates the marginal law of a
#   heteroscedastic item, so the residual has a real population drift.  Its
#   rate is checked against the noncentral chi-square rate predicted from
#   that drift (noncentrality 1.6-2.1 at n = 1000 over four large samples,
#   rate 0.25-0.30).
# * variance[7] (quadratic mean): the battery is (y - mu_hat(x))^2 about the
#   fitted straight line, so the squared bias of the quadratic mean enters
#   its target although Var(y | x) is constant.  Over 1000 replications the
#   rate is 0.070, above alpha.
def test_criterion_3_power_differentiation(s2_missp):
    table = s2_missp
    rate = {name: acc.summary_rate() for name, acc in table.batteries.items()}
    reps = {name: acc.summary_valid for name, acc in table.batteries.items()}

    def upper(name):
        return rate[name] + _halfwidth_99(rate[name], reps[name])

    def floor(*names):
        weakest = min(names, key=rate.get)
        return rate[weakest] - _halfwidth_99(rate[weakest], reps[weakest])

    def separation(leak, *powers):
        return (upper(leak) < floor(*powers),
                f"{rate[leak]:.3f} + 99% hw = {upper(leak):.3f} < "
                f"{floor(*powers):.3f} = weakest power - 99% hw")

    nc8, pred8 = _predicted_study2_rate(
        fg.mv_linearity_problem(fg.default_grid(1), 8), table,
        N=200_000, M=100_000, data_seed=2311, mc_seed=2312,
    )
    band8 = _halfwidth_99(pred8, reps["linearity[8]"])
    checks = [
        ("T2 power on quadratic-mean item", rate["linearity[7]"] > 0.5,
         f"{rate['linearity[7]']:.3f} > 0.5"),
        ("T2 power on quadratic-mean/log-variance item", rate["linearity[9]"] > 0.5,
         f"{rate['linearity[9]']:.3f} > 0.5"),
        ("T2 separation on log-variance item",
         *separation("linearity[8]", "linearity[7]", "linearity[9]")),
        ("T2 rate on log-variance item vs large-sample drift",
         abs(rate["linearity[8]"] - pred8) <= band8,
         f"{rate['linearity[8]']:.3f} in {pred8:.3f} +/- {band8:.3f} "
         f"(noncentrality {nc8:.2f})"),
        ("T3 power on log-variance item", rate["variance[8]"] > 0.5,
         f"{rate['variance[8]']:.3f} > 0.5"),
        ("T3 power on quadratic-mean/log-variance item", rate["variance[9]"] > 0.5,
         f"{rate['variance[9]']:.3f} > 0.5"),
        ("T3 separation on quadratic-mean item",
         *separation("variance[7]", "variance[8]", "variance[9]")),
    ]
    detail = "; ".join(f"{name}: {msg} [{'ok' if ok else 'violated'}]"
                       for name, ok, msg in checks)
    _report("3", all(ok for _, ok, _ in checks), detail)


# ---------------------------------------------------------------------------
# criterion 4: false detection on a clean item
# ---------------------------------------------------------------------------


def test_criterion_4_false_detection(s2_missp):
    table = s2_missp
    t2 = table.batteries["linearity[1]"].summary_rate()
    t3 = table.batteries["variance[1]"].summary_rate()
    ok = _in_band(t2, BAND_R200) and _in_band(t3, BAND_R200)
    _report("4", ok, f"clean item: T2 rate {t2:.3f}, T3 rate {t3:.3f}, band 0.05 +/- {BAND_R200}")


# ---------------------------------------------------------------------------
# criterion 5: latent-density test, two-factor design
# ---------------------------------------------------------------------------


# The power check fails at s = 1 (0.400 against > 0.5) for a measured
# reason; the covariance is exact, so draw noise plays no part.  The design
# gives both factors the same loadings, and at the generating parameters the
# exact 49 x 49 summary covariance has a nearly tied leading pair,
# lambda2/lambda1 = 0.995, with v1 antisymmetric and v2 symmetric under
# swapping the factors.  The mixture drift is symmetric: it puts 33% of its
# Mahalanobis norm on v2 and none on v1, so the s = 1 noncentrality at
# n = 1000 is 0 there, while s = 2 gives 10.6 (power 0.84).  Each fit breaks
# the tie (lambda2/lambda1 from 0.973 to 1.000 over the s1_missp batch) and
# so fixes which direction is kept.  On these batches s = 2 gives power
# 0.850 and a null rate of 0.067.  The verdict line prints lambda2/lambda1
# at one fit.
def test_criterion_5_lv_density(s1_correct, s1_missp):
    null_rate = s1_correct.batteries["lv-density"].summary_rate()
    ok_null = _in_band(null_rate, BAND_R300)

    power = s1_missp.batteries["lv-density"].summary_rate()
    ok_power = power > 0.5

    # sign pattern of the slice profile against the analytic density gap
    acc = s1_missp.batteries["lv-density"]
    coords = acc.coords
    z = s1_missp.raw["lv-density"]["z"]
    mean_z = np.nanmean(z, axis=0)
    slice_idx = np.where(np.abs(coords[:, 1]) < 1e-9)[0]
    pts = coords[slice_idx]
    mix = np.exp(mixture_lv_logpdf(pts))
    inv = np.linalg.inv(_STUDY1_PHI)
    det = np.linalg.det(_STUDY1_PHI)
    norm = np.exp(-0.5 * np.einsum("ij,jk,ik->i", pts, inv, pts)) / (
        2 * np.pi * np.sqrt(det)
    )
    delta = mix - norm
    strong = (np.abs(delta) >= 0.2 * np.abs(delta).max()) & (np.abs(pts[:, 0]) <= 2.4)
    signs_match = np.sign(mean_z[slice_idx][strong]) == np.sign(delta[strong])
    both_signs = (delta[strong] > 0).any() and (delta[strong] < 0).any()
    ok_signs = signs_match.all() and both_signs

    # leading eigenvalue ratio of the summary covariance, replication 0
    cfg = fg.Study1Config(n=s1_missp.n, misspecified=True)
    data, fit = fg.replication(cfg, s1_missp.seed, 0)
    grid = fg.default_grid(2)
    rep0 = fg.run_residual_test(fg.lv_density_problem(grid), fit, data,
                                fg.McConfig(s=s1_missp.s))
    assert rep0.summary.T == s1_missp.raw["lv-density"]["T"][0]
    eigs = rep0.acm.summary_eigvals
    tie = eigs[1] / eigs[0]

    ok = ok_null and ok_power and ok_signs
    _report("5", ok,
            f"null T1 rate {null_rate:.3f} (band +/-{BAND_R300}); "
            f"power T1 rate {power:.3f} > 0.5; "
            f"slice signs match at {int(signs_match.sum())}/{int(strong.sum())} strong points; "
            f"summary covariance lambda2/lambda1 = {tie:.3f} at replication 0 "
            f"(near-tied leading pair, s = {s1_missp.s} keeps one direction)")


# ---------------------------------------------------------------------------
# criterion 6: conventional diagnostics stay blind
# ---------------------------------------------------------------------------


def test_criterion_6_baseline_blindness():
    base = baseline_means(fg.Study1Config(n=1000, misspecified=True), reps=100, seed=2601)
    checks = [
        ("LR rejection", base["lr_rate"] <= 0.12, f"{base['lr_rate']:.3f} <= 0.12"),
        ("mean CFI", base["mean_cfi"] >= 0.99, f"{base['mean_cfi']:.4f} >= 0.99"),
        ("mean RMSEA", base["mean_rmsea"] <= 0.02, f"{base['mean_rmsea']:.4f} <= 0.02"),
        ("mean SRMR", base["mean_srmr"] <= 0.03, f"{base['mean_srmr']:.4f} <= 0.03"),
    ]
    detail = "; ".join(f"{name} {msg}" for name, _, msg in checks)
    _report("6", all(ok for _, ok, _ in checks), detail)


# ---------------------------------------------------------------------------
# criterion 7: distributional checks under the null
# ---------------------------------------------------------------------------


def test_criterion_7_null_distributions(s2_correct):
    table = s2_correct
    coords = table.batteries["linearity[1]"].coords[:, 0]
    at_zero = int(np.where(np.abs(coords) < 1e-9)[0][0])
    z_sample = table.raw["linearity[1]"]["z"][:, at_zero]
    z_sample = z_sample[np.isfinite(z_sample)]
    ks = kstest(z_sample, "norm")
    ok_ks = ks.pvalue > 0.01

    T = table.raw["linearity[1]"]["T"]
    tail = float(np.mean(T > CHI2_1_CRIT))
    ok_tail = _in_band(tail, BAND_R500)

    _report("7", ok_ks and ok_tail,
            f"KS p={ks.pvalue:.4f} (>0.01) on {len(z_sample)} reps; "
            f"P(T2 > 3.84) = {tail:.4f} in 0.05 +/- {BAND_R500}")


def test_acm_diagonal_tracks_replication_variance(s2_correct):
    # the assembled covariance should predict the spread of the residuals:
    # standardized residuals have variance near one across replications
    for kind in ("linearity[1]", "variance[1]"):
        z = s2_correct.raw[kind]["z"]
        coords = s2_correct.batteries[kind].coords[:, 0]
        for x in (-1.0, 0.0, 1.0):
            col = z[:, np.abs(coords - x) < 1e-9].ravel()
            col = col[np.isfinite(col)]
            assert abs(np.var(col, ddof=1) - 1.0) < 0.25, (kind, x)


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    from factorgof.cli import main

    rng = np.random.default_rng(88)
    data = fg.simulate_data(fg.study2_paramset(), 200, rng)
    csv_path = tmp_path / "data.csv"
    header = ",".join(f"y{j}" for j in range(10))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in data.values)
    csv_path.write_text(header + "\n" + rows + "\n")
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(
        {"m": 10, "d": 1, "loading_pattern": [[1]] * 10, "mean_structure": True}
    ))

    pairs = []
    for label, args in {
        "fit": ["fit", "--data", str(csv_path), "--model", str(model_path),
                "--seed", "3"],
        "test": ["test", "linearity", "--item", "2", "--data", str(csv_path),
                 "--model", str(model_path), "--seed", "5"],
        "simulate": ["simulate", "study2", "--reps", "3", "--n", "150", "--seed", "9"],
        "indices": ["indices", "--data", str(csv_path), "--model", str(model_path)],
    }.items():
        out_a = tmp_path / f"{label}_a.out"
        out_b = tmp_path / f"{label}_b.out"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        pairs.append((label, out_a.read_bytes() == out_b.read_bytes()))

    ok = all(same for _, same in pairs)
    _report("8", ok, "; ".join(f"{label}: {'identical' if same else 'DIFFERS'}"
                               for label, same in pairs))
