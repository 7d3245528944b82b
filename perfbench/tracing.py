"""Outside-in tracing: timing wrappers on the attributes through which one
factorgof module calls another.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each call
site listed in ``SITES`` (a module attribute, or a method on a class) with a
wrapper that records a span and, for some sites, counters computed from the
arguments or the result.  ``Tracer.uninstall`` restores the originals, so
the same process can then rerun an operation untraced.

A span is (name, parent, start, end, process CPU seconds).  Spans stay in
memory until the run ends.  A layer's self time is its span's duration minus
the durations of its direct children; every nanosecond of a traced operation
is therefore the self time of exactly one span, and the root span's self time
is the part no layer span covers.
"""

import importlib
import os
import time
from collections import defaultdict

ROOT = "bench.op"


def _cond_loglik_grid_flops(args, out):
    Y, mu = args[0], args[1]
    n, m = Y.shape
    q = mu.shape[0]
    # GEMM of the cross term, plus the row/column quadratic terms and the add
    return {"gflop": (2.0 * n * q * m + 3.0 * n * m + 3.0 * q * m + 3.0 * n * q) / 1e9}


def _crossprod_mean_flops(args, out):
    X, W = args[0], args[1]
    return {"gflop": 2.0 * X.shape[0] * X.shape[1] * W.shape[1] / 1e9}


def _covariance_flops(args, out):
    n, k = args[0].shape
    return {"gflop": (2.0 * n * k * k + 2.0 * n * k) / 1e9}


def _evaluate_rows(args, out):
    return {"rows": float(out.shape[0])}


def _optimizer_counts(args, out):
    return {"nfev": float(out.nfev)}


def _fit_counts(args, out):
    return {"n_iter": float(out.n_iter)}


def _csv_bytes(args, out):
    return {"bytes": float(os.path.getsize(args[0]))}


# (module or class path, attribute, span name, counter function or None).
# Several call sites may share one span name: each caller looks the callee up
# through its own module, so each binding is wrapped separately.
SITES = (
    ("factorgof.simstudy", "run_rejection_study", "simstudy.run_rejection_study", None),
    ("factorgof.simstudy", "generate_study1", "simstudy.generate", None),
    ("factorgof.simstudy", "generate_study2", "simstudy.generate", None),
    ("factorgof.simstudy", "simulate_data", "estimate.simulate_data", None),
    ("factorgof.simstudy", "fit_ml", "estimate.fit_ml", _fit_counts),
    ("factorgof.simstudy", "run_residual_batch", "residuals.run_residual_batch", None),
    ("factorgof.simstudy", "baseline_report", "baseline.baseline_report", None),
    ("factorgof.cli", "main", "cli.main", None),
    ("factorgof.cli", "ingest_csv", "cli.ingest_csv", _csv_bytes),
    ("factorgof.cli", "load_fit_document", "cli.load_fit_document", None),
    ("factorgof.cli", "fit_ml", "estimate.fit_ml", _fit_counts),
    ("factorgof.cli", "baseline_report", "baseline.baseline_report", None),
    ("factorgof.estimate", "minimize", "estimate.optimizer", _optimizer_counts),
    ("factorgof.estimate", "log_likelihood", "estimate.log_likelihood", None),
    ("factorgof.estimate", "invert_information", "estimate.invert_information", None),
    ("factorgof.estimate", "expected_information", "estimate.expected_information", None),
    ("factorgof.estimate", "simulate_data", "estimate.simulate_data", None),
    ("factorgof.estimate", "monte_carlo_information", "estimate.monte_carlo_information", None),
    ("factorgof.estimate", "score_rows", "estimate.score_rows", None),
    ("factorgof.residuals", "run_residual_batch", "residuals.run_residual_batch", None),
    ("factorgof.residuals", "simulate_data", "estimate.simulate_data", None),
    ("factorgof.residuals", "score_rows", "estimate.score_rows", None),
    ("factorgof.residuals", "monte_carlo_information", "estimate.monte_carlo_information", None),
    ("factorgof.residuals", "invert_information", "estimate.invert_information", None),
    ("factorgof.residuals", "eta_hat", "residuals.eta_hat", None),
    ("factorgof.residuals", "assemble_acm", "residuals.assemble_acm", None),
    ("factorgof.residuals", "chi2_statistic", "residuals.chi2_statistic", None),
    ("factorgof.residuals:SummaryBattery", "evaluate", "batteries.evaluate", _evaluate_rows),
    ("factorgof.batteries", "posterior_log_weights", "model.posterior_log_weights", None),
    ("factorgof.kernels", "mvn_loglik_rows", "kernels.mvn_loglik_rows", None),
    ("factorgof.kernels", "cond_loglik_grid", "kernels.cond_loglik_grid", _cond_loglik_grid_flops),
    ("factorgof.kernels", "crossprod_mean", "kernels.crossprod_mean", _crossprod_mean_flops),
    ("factorgof.kernels", "covariance", "kernels.covariance", _covariance_flops),
    ("factorgof.kernels", "colmean", "kernels.colmean", None),
)


def _resolve(path):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans and counters from wrapped call sites."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.missing = []
        self._stack = []
        self._saved = []

    def reset(self):
        """Drop what was recorded so far; the wrappers stay installed."""
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        perf, cpu = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans[sid] = (name, parent, t0, t1, c1 - c0)
            if count is not None:
                for key, value in count(args, out).items():
                    counters[f"{name}.{key}"] += value
            return out

        return traced

    def install(self):
        """Wrap every site in SITES that exists; record the ones that do not."""
        for path, attr, name, count in SITES:
            try:
                owner = _resolve(path)
            except (ImportError, AttributeError):
                self.missing.append(f"{path}.{attr}")
                continue
            if attr not in vars(owner):
                self.missing.append(f"{path}.{attr}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def summarize(spans, counters, n_ops):
    """Per-name totals and per-operation means.

    Returns {name: {"calls", "s", "self_s", "cpu_s", "self_cpu_s", <counters>}},
    each divided by ``n_ops``.
    """
    child_wall = [0.0] * len(spans)
    child_cpu = [0.0] * len(spans)
    for name, parent, t0, t1, cpu in spans:
        if parent >= 0:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += cpu
    totals = defaultdict(lambda: defaultdict(float))
    for i, (name, parent, t0, t1, cpu) in enumerate(spans):
        row = totals[name]
        row["calls"] += 1
        row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_wall[i]
        row["cpu_s"] += cpu
        row["self_cpu_s"] += cpu - child_cpu[i]
    for key, value in counters.items():
        name, _, field = key.rpartition(".")
        totals[name][field] += value
    return {
        name: {field: value / n_ops for field, value in row.items()}
        for name, row in totals.items()
    }
