"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, runs operation ``k`` on
request, and afterwards checks what the operations produced against
``checks``.  Operation ``k`` of a run with seed ``S`` always gets the same
inputs: the study workloads call ``run_rejection_study`` with one replication
and master seed ``S * 100000 + k``; the CLI session runs five ``cli.main``
calls with ``--seed S * 100000 + k`` on a CSV written once per run from ``S``.

factorgof is called through module attributes looked up at call time
(``fg.simstudy.run_rejection_study``, ``fg.cli.main``), so the traced run
goes through the wrappers ``tracing.Tracer`` installs there.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import checks

OP_SEED_STRIDE = 100_000


def op_seed(seed, k):
    return seed * OP_SEED_STRIDE + k


def _points_from_report(report):
    """Array form of an in-memory TestReport, as ``checks.report`` takes it."""
    pts = report.points
    summary = report.summary
    return {
        "coords": np.array([pt.coords for pt in pts]),
        "eta_hat": np.array([pt.eta_hat for pt in pts]),
        "eta": np.array([pt.eta for pt in pts]),
        "residual": np.array([pt.residual for pt in pts]),
        "se": np.array([pt.se for pt in pts]),
        "z": np.array([pt.z for pt in pts]),
        "p": np.array([pt.p for pt in pts]),
        "unstable": np.array([pt.unstable for pt in pts], dtype=bool),
        "T": None if summary is None else summary.T,
        "s": None if summary is None else summary.s,
        "summary_p": None if summary is None else summary.p,
    }


def _kind_item(battery_name):
    """("linearity", 7) from "linearity[7]"; ("lv-density", None) as is."""
    if "[" not in battery_name:
        return battery_name, None
    kind, _, rest = battery_name.partition("[")
    return kind, int(rest.rstrip("]"))


def _same_bits(a, b):
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class StudyWorkload:
    """One operation is one replication of ``run_rejection_study``:
    generate, fit, then every residual test on one shared draw set."""

    def __init__(self, fg, seed, study, M, items, rebuild):
        self.fg = fg
        self.seed = seed
        self.study = study
        self.M = M
        self.items = items
        self.rebuild_count = rebuild
        if study == "study1":
            self.cfg = fg.Study1Config(n=1000, misspecified=True)
            pattern = np.zeros((20, 2), dtype=int)
            pattern[:10, 0] = 1
            pattern[10:, 1] = 1
        else:
            self.cfg = fg.Study2Config(n=1000, misspecified=True)
            pattern = np.ones((10, 1), dtype=int)
        self.pattern = pattern

    def run(self, k):
        table = self.fg.simstudy.run_rejection_study(
            self.cfg, reps=1, seed=op_seed(self.seed, k), M=self.M,
            items=self.items, collect_raw=True,
        )
        return {name: (raw["T"][0], raw["z"][0]) for name, raw in table.raw.items()}

    def check_op(self, k, out):
        errs = []
        for name, (T, z) in out.items():
            if not (math.isfinite(T) and T >= 0):
                errs.append(f"op {k} {name}: summary T is {T!r}")
            if not np.isfinite(z).any():
                errs.append(f"op {k} {name}: no finite pointwise z")
        return errs

    def _rebuild(self, k):
        """Replication 0 of master seed op_seed(k), from public calls only,
        following run_rejection_study's SeedSequence((seed, rep)) derivation."""
        fg = self.fg
        data_seq, mc_seq = np.random.SeedSequence((op_seed(self.seed, k), 0)).spawn(2)
        data_rng = np.random.default_rng(data_seq)
        if self.study == "study1":
            data = fg.generate_study1(self.cfg, data_rng)
        else:
            data = fg.generate_study2(self.cfg, data_rng)
        spec = fg.ModelSpec(m=self.pattern.shape[0], d=self.pattern.shape[1],
                            loading_pattern=self.pattern)
        fit = fg.fit_ml(data, spec, fg.OptimOptions(info_draws=0, max_iter=500))
        grid = fg.default_grid(spec.d)
        if self.study == "study1":
            problems = [fg.lv_density_problem(grid)]
        else:
            problems = ([fg.mv_linearity_problem(grid, j) for j in self.items]
                        + [fg.mv_homoscedasticity_problem(grid, j) for j in self.items])
        mc = fg.McConfig(M=self.M, seed=int(mc_seq.generate_state(1)[0]), s=1)
        return data, fit, grid, fg.run_residual_batch(problems, fit, data, mc)

    def verify(self, outputs):
        """Rebuild the first operations and the last one, and check them.

        ``outputs`` maps operation index to what ``run`` returned.  Returns
        ({operation: [failure messages]}, number of operations checked).
        """
        keys = sorted(outputs)
        chosen = sorted(set(keys[: self.rebuild_count - 1] + keys[-1:]))
        return {k: self._verify_one(k, outputs[k]) for k in chosen}, len(chosen)

    def _verify_one(self, k, out):
        data, fit, grid, reports = self._rebuild(k)
        label = f"op {k}"
        if not fit.converged:
            return [f"{label}: rebuilt fit did not converge: {fit.warnings}"]
        p = fit.params
        Y = data.values
        errs = checks.loglik(label, fit.loglik, Y, p.nu, p.lam, p.phi, p.theta)
        if sorted(r.battery for r in reports) != sorted(out):
            return errs + [f"{label}: batteries {[r.battery for r in reports]} != {sorted(out)}"]
        for rep in reports:
            T, z = out[rep.battery]
            arr = _points_from_report(rep)
            if not (_same_bits(arr["T"], T) and _same_bits(arr["z"], z)):
                errs.append(f"{label} {rep.battery}: rebuilt T {arr['T']!r} "
                            f"differs from the timed run's {T!r} (or z differs)")
            kind, item = _kind_item(rep.battery)
            errs += checks.report(f"{label} {rep.battery}", arr, kind, item,
                                  Y, grid.points, p.nu, p.lam, p.phi, p.theta)
        return errs


# ---------------------------------------------------------------------------
# CLI session
# ---------------------------------------------------------------------------

CLI_ROWS = 20_000
CLI_ITEMS = 10
CLI_OUTPUTS = ("fit.json", "density.tsv", "linearity8.tsv", "variance9.tsv", "indices.json")


def write_study2_csv(path, n, seed):
    """Rows from the study2 misspecified design, drawn here from its
    definition: one standard normal factor; loadings cycle through
    sqrt(.3), sqrt(.5), sqrt(.7) on items 1-7 and are sqrt(.5) on items 8-10;
    error variance 1 - loading^2; items 8 and 10 add -0.1 x^2 to the mean;
    items 9 and 10 scale the error variance by exp(0.3 x)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 20_000)))
    lam = np.array([math.sqrt(v) for v in (0.3, 0.5, 0.7) * 4][:CLI_ITEMS])
    lam[7:] = math.sqrt(0.5)
    quad = np.zeros(CLI_ITEMS)
    quad[[7, 9]] = -0.1
    slope = np.zeros(CLI_ITEMS)
    slope[[8, 9]] = 0.3
    x = rng.standard_normal(n)
    eps = rng.standard_normal((n, CLI_ITEMS))
    mean = np.outer(x, lam) + np.outer(x**2, quad)
    sd = np.sqrt((1.0 - lam**2) * np.exp(np.outer(x, slope)))
    Y = mean + sd * eps
    header = ",".join(f"y{j + 1}" for j in range(CLI_ITEMS))
    np.savetxt(path, Y, fmt="%.17g", delimiter=",", header=header, comments="")


def _read_files(outdir):
    files = {}
    for name in CLI_OUTPUTS:
        with open(os.path.join(outdir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _read_tsv_report(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
    points = [r for r in rows if r["kind"] == "point"]
    summary = [r for r in rows if r["kind"] == "summary"]
    coord_cols = [c for c in header if c.startswith("x")]

    def col(name):
        return np.array([float(r[name]) if r[name] else math.nan for r in points])

    return {
        "coords": np.array([[float(r[c]) for c in coord_cols] for r in points]),
        "eta_hat": col("eta_hat"),
        "eta": col("eta"),
        "residual": col("residual"),
        "se": col("se"),
        "z": col("z"),
        "p": col("p"),
        "unstable": np.array([r["unstable"] == "1" for r in points]),
        "T": float(summary[0]["T"]) if summary else None,
        "s": int(summary[0]["s"]) if summary else None,
        "summary_p": float(summary[0]["p"]) if summary else None,
    }


class CliSession:
    """One operation is one session of five ``cli.main`` calls, each of
    which re-reads the CSV and writes its output file."""

    def __init__(self, fg, seed, workdir):
        import factorgof.cli  # noqa: F401  (binds fg.cli)

        self.fg = fg
        self.seed = seed
        self.workdir = workdir
        self.csv = os.path.join(workdir, "data.csv")
        self.model = os.path.join(workdir, "model.json")
        write_study2_csv(self.csv, CLI_ROWS, seed)
        with open(self.model, "w", encoding="utf-8") as fh:
            json.dump({"m": CLI_ITEMS, "d": 1, "loading_pattern": [[1]] * CLI_ITEMS,
                       "mean_structure": True}, fh)
        self.Y = np.loadtxt(self.csv, delimiter=",", skiprows=1)

    def _calls(self, k, outdir):
        s = str(op_seed(self.seed, k))
        out = dict((name, os.path.join(outdir, name)) for name in CLI_OUTPUTS)
        data = ["--data", self.csv]
        fit = ["--fit", out["fit.json"]]
        return [
            ["fit"] + data + ["--model", self.model, "--seed", s, "--out", out["fit.json"]],
            ["test", "lv-density"] + data + fit + ["--seed", s, "--out", out["density.tsv"]],
            ["test", "linearity", "--item", "8"] + data + fit
            + ["--seed", s, "--out", out["linearity8.tsv"]],
            ["test", "variance", "--item", "9"] + data + fit
            + ["--seed", s, "--out", out["variance9.tsv"]],
            ["indices"] + data + fit + ["--out", out["indices.json"]],
        ]

    def run(self, k, outdir=None):
        # operation 0 keeps its files for the checks; later ones overwrite
        # each other, so the last operation's files are on disk at the end
        outdir = outdir or os.path.join(self.workdir, "first" if k == 0 else "session")
        os.makedirs(outdir, exist_ok=True)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._calls(k, outdir):
                codes.append(self.fg.cli.main(argv))
        return {"codes": codes, "outdir": outdir}

    def check_op(self, k, out):
        if any(code != 0 for code in out["codes"]):
            return [f"op {k}: cli exit codes {out['codes']}"]
        return []

    def verify(self, outputs):
        """Check the files of the first and last operations; rerun the first
        and require byte-identical files.

        ``outputs`` maps operation index to what ``run`` returned.  Returns
        ({operation: [failure messages]}, number of operations checked).
        """
        keys = sorted(outputs)
        by_op = {k: self._check_files(k, _read_files(outputs[k]["outdir"]))
                 for k in sorted({keys[0], keys[-1]})}
        if 0 in outputs:
            first = _read_files(outputs[0]["outdir"])
            again = _read_files(self.run(0, os.path.join(self.workdir, "rerun"))["outdir"])
            by_op[0] += [f"op 0 {name}: rerun is not byte-identical"
                         for name in CLI_OUTPUTS if again[name] != first[name]]
        return by_op, len(by_op)

    def _check_files(self, k, files):
        label = f"op {k}"
        fit = json.loads(files["fit.json"])
        if not fit["converged"]:
            return [f"{label}: fit did not converge: {fit['warnings']}"]
        est = fit["estimates"]
        nu, lam = np.array(est["nu"]), np.array(est["lambda"])
        phi, theta = np.array(est["phi"]), np.array(est["theta"])
        Y = self.Y
        errs = []
        if fit["n"] != Y.shape[0]:
            errs.append(f"{label} fit n {fit['n']} != {Y.shape[0]}")
        errs += checks.loglik(f"{label} fit", fit["loglik"], Y, nu, lam, phi, theta)
        points = np.linspace(-3.0, 3.0, 31)[:, None]
        for name, kind, item in (("density.tsv", "lv-density", None),
                                 ("linearity8.tsv", "linearity", 7),
                                 ("variance9.tsv", "variance", 8)):
            rep = _read_tsv_report(files[name].decode("utf-8"))
            errs += checks.report(f"{label} {name}", rep, kind, item, Y, points,
                                  nu, lam, phi, theta)
        doc = json.loads(files["indices.json"])
        errs += checks.indices(f"{label} indices.json", doc, Y, nu, lam, phi, theta,
                               q=len(fit["free_vector"]))
        return errs
