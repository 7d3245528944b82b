"""One workload in one fresh process.

Started by ``run.py``; not meant to be run by hand.  With ``--probe`` it only
imports factorgof and prints the monotonic clock, which ``run.py`` turns into
a set-up time.  Otherwise it builds the workload's inputs, runs one untimed
warm-up operation, runs operations until ``--seconds`` have passed, checks
the outputs, and writes a JSON record to ``--out``.

BLAS and kernel-lane settings are left exactly as the caller's environment
has them; the record says what they were.
"""

import argparse
import ctypes
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)

# name, unit
END_TO_END = (("ops_per_s", "1/s"), ("cpu_s_per_op", "s"), ("peak_rss_mb", "MB"))

# (span name, field, unit); every value is a per-operation mean
PER_LAYER = (
    ("model.posterior_log_weights", "calls", "count"),
    ("model.posterior_log_weights", "self_s", "s"),
    ("batteries.evaluate", "calls", "count"),
    ("batteries.evaluate", "rows", "count"),
    ("batteries.evaluate", "self_s", "s"),
    ("kernels.mvn_loglik_rows", "calls", "count"),
    ("kernels.mvn_loglik_rows", "s", "s"),
    ("kernels.mvn_loglik_rows", "cpu_s", "s"),
    ("kernels.cond_loglik_grid", "s", "s"),
    ("kernels.cond_loglik_grid", "gflop", "GFLOP"),
    ("kernels.crossprod_mean", "s", "s"),
    ("kernels.crossprod_mean", "gflop", "GFLOP"),
    ("kernels.covariance", "s", "s"),
    ("kernels.covariance", "gflop", "GFLOP"),
    ("kernels.colmean", "s", "s"),
    ("residuals.assemble_acm", "s", "s"),
    ("residuals.chi2_statistic", "s", "s"),
    ("residuals.run_residual_batch", "self_s", "s"),
    ("residuals.eta_hat", "self_s", "s"),
    ("estimate.optimizer", "s", "s"),
    ("estimate.optimizer", "cpu_s", "s"),
    ("estimate.optimizer", "nfev", "count"),
    ("estimate.fit_ml", "n_iter", "count"),
    ("estimate.fit_ml", "self_s", "s"),
    ("estimate.simulate_data", "s", "s"),
    ("estimate.score_rows", "s", "s"),
    ("estimate.monte_carlo_information", "self_s", "s"),
    ("estimate.invert_information", "s", "s"),
    ("estimate.log_likelihood", "s", "s"),
    ("estimate.expected_information", "s", "s"),
    ("cli.ingest_csv", "s", "s"),
    ("cli.ingest_csv", "bytes", "bytes"),
    ("cli.load_fit_document", "s", "s"),
    ("cli.main", "self_s", "s"),
    ("baseline.baseline_report", "s", "s"),
    ("simstudy.generate", "s", "s"),
    ("simstudy.run_rejection_study", "self_s", "s"),
    ("bench.op", "s", "s"),
    ("bench.op", "self_s", "s"),
)


def per_layer_name(span, field):
    # the root span's fields read as the traced operation time and the
    # part of it no layer span covers
    if span == "bench.op":
        return {"s": "trace.op_s", "self_s": "trace.uncovered_s"}[field]
    return f"{span}.{field}"


def _import_factorgof():
    src = os.path.join(CHECKOUT, "src")
    if not os.path.isfile(os.path.join(src, "factorgof", "__init__.py")):
        sys.exit(f"perfbench: {src}/factorgof not found; run from the repository root")
    sys.path.insert(0, src)
    import factorgof

    if not os.path.abspath(factorgof.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported factorgof from {factorgof.__file__}, not {src}")
    return factorgof


def blas_record():
    """Each loaded OpenBLAS: file, build configuration and thread count."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower() and path.endswith(".so"):
                libs.add(path)
    out = []
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    entry["threads"] = int(threads())
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        out.append(entry)
    return out


def env_record(fg):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "factorgof_backend": fg.backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_record(),
        "env": {key: os.environ.get(key) for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "FACTORGOF_NO_NUMBA", "FACTORGOF_WORKERS")},
    }


def make_workload(fg, name, seed, workdir):
    import workloads

    if name == "study2-items":
        return workloads.StudyWorkload(fg, seed, "study2", M=4000, items=(1, 7, 8, 9), rebuild=3)
    if name == "study1-density":
        return workloads.StudyWorkload(fg, seed, "study1", M=10_000, items=(1,), rebuild=2)
    if name == "cli-session":
        return workloads.CliSession(fg, seed, workdir)
    raise SystemExit(f"perfbench: unknown workload {name!r}")


def run(args):
    fg = _import_factorgof()
    workdir = os.path.join(HERE, "out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, fg, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, fg, workdir):
    import tracing

    wl = make_workload(fg, args.workload, args.seed, workdir)
    tracer = None
    op = wl.run
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        op = tracer.wrap(tracing.ROOT, wl.run)

    attempted = 0
    failed_ops = set()
    errors = []
    outputs = {}

    def attempt(k):
        nonlocal attempted
        attempted += 1
        try:
            outputs[k] = op(k)
        except Exception:
            failed_ops.add(k)
            errors.append(f"op {k} raised:\n{traceback.format_exc()}")

    attempt(0)
    if tracer:
        tracer.reset()

    k = 1
    op_wall = []
    op_cpu = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    while True:
        c1 = time.process_time()
        t1 = time.perf_counter()
        attempt(k)
        t2 = time.perf_counter()
        op_wall.append(t2 - t1)
        op_cpu.append(time.process_time() - c1)
        k += 1
        if t2 >= deadline:
            break
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - c0
    n_timed = k - 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        layers = tracing.summarize(tracer.spans, tracer.counters, n_timed)
        spans = list(tracer.spans)
        tracer.uninstall()

    # checks run untraced, so in a traced run they also compare traced
    # outputs with untraced ones
    for kk, out in outputs.items():
        msgs = wl.check_op(kk, out)
        if msgs:
            failed_ops.add(kk)
            errors.extend(msgs)
    good = {kk: out for kk, out in outputs.items() if kk not in failed_ops}
    by_op, checked = wl.verify(good) if good else ({}, 0)
    for kk, msgs in by_op.items():
        if msgs:
            failed_ops.add(kk)
            errors.extend(msgs)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failed_ops),
        "checks_passed": not errors,
        "errors": errors,
        "checked_ops": checked,
        "timed_ops": n_timed,
        "elapsed_s": elapsed,
        "ops_per_s": n_timed / elapsed,
        "cpu_s_per_op": cpu / n_timed,
        "peak_rss_mb": peak_rss_mb,
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "env": env_record(fg),
        "missing_sites": tracer.missing if tracer else [],
    }
    if layers is not None:
        record["per_layer"] = {
            per_layer_name(span, field): layers.get(span, {}).get(field, 0.0)
            for span, field, _ in PER_LAYER
        }
        record["absent"] = sorted({span for span, _, _ in PER_LAYER if span not in layers})
        record["layers"] = layers
        record["spans"] = spans
    return record


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if not args.probe and not args.out:
        parser.error("--out is required")
    if args.probe:
        _import_factorgof()
        importlib.import_module("factorgof.cli" if args.workload == "cli-session"
                                else "factorgof.simstudy")
        print(repr(time.monotonic()))
        return
    record = run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
