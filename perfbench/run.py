"""factorgof benchmark: one command, three workloads.

    python3 perfbench/run.py --workload study2-items --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload runs in a fresh Python process
(``worker.py``) that imports factorgof from ``src/``.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the same workload runs with timing wrappers
installed and the JSON carries the per-layer metrics instead.  The full
record of each run (environment, BLAS threads, check results) is written to
``perfbench/out/``, and a traced run also writes its spans there.

The exit code is 0 only when every operation ran and every check passed.
See README.md in this directory for the workloads, metrics and checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("study2-items", "study1-density", "cli-session")

# set-up time is the median over this many fresh processes, half of them
# started before the workload and half after, so that a change in machine
# load during the run reaches both halves
SETUP_PROBES = 6
# the whole run, probes included, must end well inside three minutes
RUN_BUDGET_S = 170.0


def setup_samples(workload, count, budget_end):
    """Times from spawning a fresh interpreter until factorgof's entry module
    for the workload is imported and the first operation could start."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, WORKER, "--probe", "--workload", workload],
            cwd=CHECKOUT, capture_output=True, text=True,
            timeout=max(budget_end - t0, 1.0),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe failed with code {proc.returncode}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "factorgof", "__init__.py")):
        raise SystemExit("perfbench: src/factorgof not found next to perfbench/")

    budget_end = time.monotonic() + RUN_BUDGET_S
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(outdir, f"run-{tag}.json")

    samples = []
    if not args.trace:
        samples += setup_samples(args.workload, SETUP_PROBES // 2, budget_end)
    proc = subprocess.run(
        [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out", record_path],
        cwd=CHECKOUT, timeout=max(budget_end - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker failed with code {proc.returncode}")
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not args.trace:
        samples += setup_samples(args.workload, SETUP_PROBES - len(samples), budget_end)

    if args.trace:
        trace_path = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}.json")
        spans = record.pop("spans")
        start = spans[0][2] if spans else 0.0
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed,
                "timed_ops": record["timed_ops"], "ops_per_s": record["ops_per_s"],
                "absent": record["absent"], "missing_sites": record["missing_sites"],
                "layers": record["layers"],
                "spans_fields": ["name", "parent", "start_s", "end_s", "cpu_s"],
                "spans": [[n, p, t0 - start, t1 - start, c] for n, p, t0, t1, c in spans],
            }, fh)
        metrics = {worker.per_layer_name(span, field): {
            "value": record["per_layer"][worker.per_layer_name(span, field)], "unit": unit}
            for span, field, unit in worker.PER_LAYER}
        print(f"# trace written to {os.path.relpath(trace_path, CHECKOUT)}")
        if record["absent"]:
            print(f"# absent on this workload: {', '.join(record['absent'])}")
    else:
        record["setup_s"] = statistics.median(samples)
        record["setup_samples_s"] = samples
        metrics = {"setup_s": {"value": record["setup_s"], "unit": "s"}}
        for name, unit in worker.END_TO_END:
            metrics[name] = {"value": record[name], "unit": unit}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["env"]
    blas = "; ".join(f"{b['library']} threads={b.get('threads')}" for b in env["blas"])
    print(f"# {args.workload} seed={args.seed}: {record['timed_ops']} timed ops in "
          f"{record['elapsed_s']:.2f} s; backend={env['factorgof_backend']} "
          f"nproc={env['nproc']}; {blas}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for err in record["errors"]:
        sys.stderr.write(f"perfbench: check failed: {err}\n")
    correct = record["checks_passed"] and record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
