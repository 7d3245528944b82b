"""Command-line front end and file formats.

Subcommands: ``fit`` (write a fit document), ``test`` (write a residual test
report), ``simulate`` (write a rejection table for a bundled design), and
``indices`` (write conventional fit diagnostics).  This is the only module
that touches the filesystem.

Output files are written atomically and carry a provenance header (tool
version, seed, for a test report that its residual covariance is exact,
grid, input digests) but no timestamps,
so a rerun with the same seed on the same machine is byte-identical; where
OpenBLAS is the BLAS, the caller's BLAS thread count does not change a bit
(``kernels.single_blas_thread``).  Item indices are 1-based on the command
line.
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baseline import baseline_report
from .batteries import _ITEM_PROBLEMS, default_grid, make_grid, make_problem
from .errors import ConfigurationError, DataError, DegenerateCovarianceError, FactorGofError
from .estimate import DataMatrix, FitResult, ParamMapping, fit_ml
from .kernels import single_blas_thread
from .model import ModelSpec
from .residuals import McConfig, run_residual_test
from .simstudy import (
    Study1Config,
    Study2Config,
    model_spec_study1,
    model_spec_study2,
    run_rejection_study,
)


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def _scan(path: str) -> tuple:
    """SHA-256 hex digest of ``path`` and its number of lines, ended by LF,
    CRLF or a lone CR, from one binary pass in chunks.

    UTF-8 never uses CR or LF bytes inside a multi-byte character, so the
    raw bytes are counted; a CRLF split across two chunks counts once.
    """
    digest = hashlib.sha256()
    breaks, last = 0, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
            breaks += chunk.count(b"\n")
            if b"\r" in chunk:
                breaks += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                breaks -= 1
            last = chunk[-1:]
    return digest.hexdigest(), breaks + (last not in (b"\n", b"\r", b""))


@contextlib.contextmanager
def _utf8_text(path: str):
    """``path`` as UTF-8 text; a byte that does not decode raises a DataError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise DataError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".factorgof-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(eq=False)
class CsvData(DataMatrix):
    """A DataMatrix read by ``ingest_csv``, with its file's SHA-256 hex
    digest, which the commands record as ``data_sha256``."""

    sha256: str = None


def ingest_csv(path: str) -> CsvData:
    """Read a comma-delimited file with a header row into a DataMatrix.

    Every data cell must be a finite number; failures report the offending
    line and column.  After the header record, the file is read twice, each
    time in chunks, so it is never held in memory whole: one binary pass
    takes its SHA-256 digest and counts its lines, and ``np.loadtxt``
    parses the body from the path, skipping the header record's lines.  Only
    when the parse or its checks fail is the file re-read row by row, to
    name the first bad line or cell.
    """
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        header = _read_header(path, reader)
        # physical lines of the header record: a quoted name may hold a break
        header_lines = reader.line_num
    digest, lines = _scan(path)
    try:
        with warnings.catch_warnings():
            # a header-only file is reported as "no data rows" below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, delimiter=",", quotechar='"', comments=None, ndmin=2,
                                skiprows=header_lines, encoding="utf-8")
    except ValueError as exc:
        failure = str(exc)
    else:
        failure = None
        if not len(values):
            failure = "no data rows after the header"
        elif values.shape[1] != len(header):
            failure = f"expected {len(header)} fields, got {values.shape[1]}"
        elif not np.isfinite(values).all():
            failure = "non-finite value"
    # np.loadtxt skips empty lines, so one shows as a line beyond header + rows
    if failure is not None or lines != len(values) + header_lines:
        error = _first_row_error(path, header)
        if error is not None:
            raise error
        if failure is not None:
            raise DataError(f"{path}: {failure}")
        # the extra lines are breaks inside quoted fields: the parse stands
    try:
        return CsvData(values, column_names=header, sha256=digest)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_header(path: str, reader) -> list:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    header = [name.strip() for name in header]
    if not header or any(not name for name in header):
        raise DataError(f"{path}: line 1: malformed header")
    return header


def _first_row_error(path: str, header: list):
    """Re-read ``path`` row by row and return a DataError for its first bad
    line or cell, or None if every row is well formed.

    A cell is numeric when ``float`` accepts it and it holds neither an
    underscore nor a non-ASCII character, which ``np.loadtxt`` rejects.
    """
    with _utf8_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        lineno = 1
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                return DataError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                )
            for j, cell in enumerate(row):
                cell = cell.strip()
                problem = None
                if not cell:
                    problem = "empty cell"
                else:
                    try:
                        if "_" in cell or not cell.isascii():
                            raise ValueError(cell)
                        if not math.isfinite(float(cell)):
                            problem = f"non-finite value {cell!r}"
                    except ValueError:
                        problem = f"non-numeric value {cell!r}"
                if problem:
                    return DataError(
                        f"{path}: line {lineno}, column {j + 1} ({header[j]}): {problem}"
                    )
    if lineno == 1:
        return DataError(f"{path}: no data rows after the header")
    return None


def _read_json(path: str):
    with _utf8_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {exc.lineno}: {exc.msg}") from None


def _model_spec(path: str, doc: dict, prefix: str = "") -> ModelSpec:
    """ModelSpec from a model object; ``prefix`` names it in messages."""
    missing = [prefix + key for key in ("m", "d", "loading_pattern") if key not in doc]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    try:
        return ModelSpec(
            m=int(doc["m"]),
            d=int(doc["d"]),
            loading_pattern=np.asarray(doc["loading_pattern"]),
            mean_structure=bool(doc.get("mean_structure", True)),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None


def load_model_file(path: str) -> ModelSpec:
    """Parse a JSON model document: m, d, loading_pattern, mean_structure."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DataError(f"{path}: model document must be a JSON object")
    return _model_spec(path, doc)


def write_fit_document(path, fit: FitResult, data: DataMatrix, inputs: dict,
                       seed: int) -> None:
    """Write ``fit`` as a JSON fit document.  ``seed`` is recorded as
    provenance only: the fit draws no random numbers."""
    doc = {
        "tool": "factorgof",
        "version": __version__,
        "kind": "fit",
        "seed": seed,
        "model": {
            "m": fit.spec.m,
            "d": fit.spec.d,
            "loading_pattern": fit.spec.loading_pattern.tolist(),
            "mean_structure": fit.spec.mean_structure,
        },
        "n": data.n,
        "column_names": data.column_names,
        "estimates": {
            "nu": fit.params.nu.tolist(),
            "lambda": fit.params.lam.tolist(),
            "phi": fit.params.phi.tolist(),
            "theta": fit.params.theta.tolist(),
        },
        "free_vector": fit.free_vector.tolist(),
        "free_labels": fit.mapping.labels,
        "loglik": fit.loglik,
        "converged": fit.converged,
        "gradient_norm": fit.gradient_norm,
        "n_iter": fit.n_iter,
        "warnings": fit.warnings,
        "inv_observed_information": (
            None if fit.inv_observed_information is None
            else fit.inv_observed_information.tolist()
        ),
        "inputs": inputs,
    }
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


_FIT_KEYS = ("model", "free_vector", "loglik", "converged", "gradient_norm", "n_iter",
             "estimates")
_ESTIMATES = (("nu", "nu"), ("lambda", "lam"), ("phi", "phi"), ("theta", "theta"))
_STALE_FREE_VECTOR = ("; the document was edited, or written by an older version whose free "
                      "vector held a transform of phi")


def load_fit_document(path: str) -> FitResult:
    """Reload a fit document so tests can run without refitting.

    Keys that older versions wrote and the fit no longer produces are
    ignored; a missing key or a malformed value raises a DataError.  The
    free vector must reproduce the stored estimates of nu, lambda, phi and
    theta to 1e-12 relative, or a DataError is raised: that refuses a
    hand-edited document, and a fit with d >= 2 written before the free
    vector held the factor correlations phi_ab themselves, whose
    correlation entries would be read as a different model.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != "fit":
        raise DataError(f"{path}: not a fit document")
    missing = [key for key in _FIT_KEYS if key not in doc]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    if not isinstance(doc["model"], dict):
        raise DataError(f"{path}: model must be a JSON object")
    estimates = doc["estimates"]
    if not isinstance(estimates, dict):
        raise DataError(f"{path}: estimates must be a JSON object")
    missing = [f"estimates.{key}" for key, _ in _ESTIMATES if key not in estimates]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    mapping = ParamMapping(_model_spec(path, doc["model"], prefix="model."))
    inv_observed = doc.get("inv_observed_information")
    try:
        fit = FitResult(
            mapping=mapping,
            free_vector=np.asarray(doc["free_vector"], dtype=np.float64),
            loglik=float(doc["loglik"]),
            converged=bool(doc["converged"]),
            gradient_norm=float(doc["gradient_norm"]),
            n_iter=int(doc["n_iter"]),
            inv_observed_information=(
                None if inv_observed is None else np.asarray(inv_observed, dtype=np.float64)
            ),
            warnings=list(doc.get("warnings", [])),
        )
        # unpack here, so a malformed free vector fails on loading
        for key, attr in _ESTIMATES:
            want = np.asarray(estimates[key], dtype=np.float64)
            got = getattr(fit.params, attr)
            if (want.shape != got.shape
                    or not np.abs(got - want).max() <= 1e-12 * np.abs(want).max()):
                raise DataError(f"{path}: the free vector does not reproduce estimates.{key}"
                                f"{_STALE_FREE_VECTOR}")
    except DegenerateCovarianceError as exc:
        raise DataError(f"{path}: {exc}{_STALE_FREE_VECTOR}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
    return fit


# ---------------------------------------------------------------------------
# small formatting helpers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_grid_spec(text: str):
    axes = []
    for part in text.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigurationError(
                f"bad grid spec {part!r}: expected lo:hi:count"
            )
        try:
            axes.append((float(pieces[0]), float(pieces[1]), int(pieces[2])))
        except ValueError:
            raise ConfigurationError(f"bad grid spec {part!r}") from None
    return axes


def _provenance_lines(command: str, pairs: list) -> list:
    lines = [f"# tool=factorgof version={__version__}", f"# command={command}"]
    lines += [f"# {key}={value}" for key, value in pairs]
    return lines


def _resolve_fit(args, data: DataMatrix):
    """Fit from --model or reload from --fit; returns (fit, provenance pairs)."""
    if bool(args.model) == bool(args.fit):
        raise ConfigurationError("exactly one of --model or --fit is required")
    if args.fit:
        fit = load_fit_document(args.fit)
        source = [("fit_sha256", _scan(args.fit)[0])]
    else:
        spec = load_model_file(args.model)
        fit = fit_ml(data, spec)
        source = [("model_sha256", _scan(args.model)[0])]
    if data.m != fit.spec.m:
        raise ConfigurationError(f"data has m={data.m}, model has m={fit.spec.m}")
    return fit, source


def _item_index(args, m: int) -> int:
    if args.item is None:
        raise ConfigurationError(f"--item is required for battery {args.battery!r}")
    if not 1 <= args.item <= m:
        raise IndexError(f"--item {args.item} out of range 1..{m}")
    return args.item - 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_fit(args) -> int:
    data = ingest_csv(args.data)
    spec = load_model_file(args.model)
    fit = fit_ml(data, spec)
    inputs = {
        "data_path": os.path.basename(args.data),
        "data_sha256": data.sha256,
        "model_sha256": _scan(args.model)[0],
    }
    write_fit_document(args.out, fit, data, inputs, seed=args.seed)
    status = "converged" if fit.converged else "NOT CONVERGED"
    print(f"fit written to {args.out} ({status}, loglik={fit.loglik:.4f})")
    return 0 if fit.converged else 1


def _grid_from_flags(grid_spec, summary_spec, d):
    """The grid of --grid, or the default grid's axes for d latent
    variables; without --summary-grid the summary statistic pools every
    grid point."""
    axes = _parse_grid_spec(grid_spec) if grid_spec else default_grid(d).axes
    if len(axes) != d:
        raise ConfigurationError(f"grid has {len(axes)} dimensions, model has d={d}")
    summary_axes = _parse_grid_spec(summary_spec) if summary_spec else axes
    return make_grid(axes, summary_axes)


def _cmd_test(args) -> int:
    data = ingest_csv(args.data)
    fit, source = _resolve_fit(args, data)
    grid = _grid_from_flags(args.grid, args.summary_grid, fit.spec.d)

    item0 = None
    if args.battery in _ITEM_PROBLEMS:
        item0 = _item_index(args, fit.spec.m)
    elif args.item is not None:
        raise ConfigurationError("--item applies only to item-level batteries")
    problem = make_problem(args.battery, grid, item0)
    report = run_residual_test(problem, fit, data, McConfig(seed=args.seed, s=args.s))

    d = fit.spec.d
    coord_cols = [f"x{k + 1}" for k in range(d)]
    pairs = [
        ("battery", args.battery),
        ("item", args.item if args.item is not None else ""),
        ("seed", args.seed), ("covariance", report.config["covariance"]), ("s", args.s),
        ("n", data.n),
        ("grid", grid.label), ("summary_grid", grid.summary_label),
        ("data_sha256", data.sha256),
    ] + source
    lines = _provenance_lines(f"test {args.battery}", pairs)
    lines.append("\t".join(
        ["kind"] + coord_cols
        + ["eta_hat", "eta", "residual", "se", "z", "p", "unstable", "T", "s"]
    ))
    values = zip(*(a.tolist() for a in (report.eta_hat, report.eta, report.residual,
                                        report.se, report.z, report.p)))
    for coords, row, unstable in zip(report.coords.tolist(), values, report.unstable.tolist()):
        lines.append("\t".join(
            ["point"] + [_fmt(c) for c in coords] + [_fmt(v) for v in row]
            + [str(int(unstable)), "", ""]
        ))
    if report.summary is not None:
        s = report.summary
        lines.append("\t".join(
            ["summary"] + [""] * d
            + ["", "", "", "", "", _fmt(s.p), "", _fmt(s.T), str(s.s)]
        ))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"test report written to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.study == "study1":
        cfg = Study1Config(n=args.n, misspecified=args.misspecified)
    else:
        cfg = Study2Config(n=args.n, misspecified=args.misspecified)
    spec = model_spec_study1() if args.study == "study1" else model_spec_study2()
    grid = None
    if args.grid or args.summary_grid:
        grid = _grid_from_flags(args.grid, args.summary_grid, spec.d)
    item0 = _item_index(args, spec.m)
    table = run_rejection_study(
        cfg,
        reps=args.reps,
        seed=args.seed,
        alpha=args.alpha,
        s=args.s,
        items=(item0,),
        grid=grid,
    )

    pairs = [
        ("study", table.study), ("misspecified", int(table.misspecified)),
        ("n", table.n), ("reps", table.reps),
        ("converged", table.converged_reps), ("excluded", table.excluded),
        ("alpha", table.alpha), ("s", table.s),
        ("seed", table.seed),
        ("grid", table.grid_label), ("summary_grid", table.summary_label),
        ("band_halfwidth", _fmt(table.band_halfwidth)),
    ]
    lines = _provenance_lines(f"simulate {args.study}", pairs)
    d = 1 if args.study == "study2" else 2
    coord_cols = [f"x{k + 1}" for k in range(d)]
    lines.append("\t".join(
        ["battery", "kind"] + coord_cols + ["rejections", "valid", "rate", "band_lo", "band_hi"]
    ))
    lo = max(table.alpha - table.band_halfwidth, 0.0)
    hi = table.alpha + table.band_halfwidth
    for name, acc in table.batteries.items():
        rates = acc.point_rates()
        for l in range(len(rates)):
            lines.append("\t".join(
                [name, "point"]
                + [_fmt(float(c)) for c in acc.coords[l]]
                + [str(int(acc.point_rejections[l])), str(int(acc.point_valid[l])),
                   _fmt(float(rates[l])), _fmt(lo), _fmt(hi)]
            ))
        lines.append("\t".join(
            [name, "summary"] + [""] * d
            + [str(acc.summary_rejections), str(acc.summary_valid),
               _fmt(acc.summary_rate()), _fmt(lo), _fmt(hi)]
        ))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"rejection table written to {args.out}")
    return 0


def _cmd_indices(args) -> int:
    data = ingest_csv(args.data)
    fit, source = _resolve_fit(args, data)
    report = baseline_report(fit, data)
    doc = {
        "tool": "factorgof",
        "version": __version__,
        "kind": "indices",
        "chi2": report.chi2,
        "df": report.df,
        "p": report.p,
        "cfi": report.cfi,
        "tli": report.tli,
        "srmr": report.srmr,
        "rmsea": report.rmsea,
        "n": report.n,
        "q": report.q,
        "inputs": dict([("data_sha256", data.sha256)] + source),
    }
    _atomic_write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"indices written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_GRID_HELP = "lo:hi:count per dimension, comma separated"
_SUMMARY_GRID_HELP = "subgrid for the summary statistic (default: all grid points)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorgof",
        description=(
            "Generalized-residual goodness-of-fit diagnostics for linear "
            "normal common factor models."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model by maximum likelihood")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--model", required=True)
    p_fit.add_argument("--out", default="fit.json")
    p_fit.add_argument("--seed", type=int, default=0,
                       help="recorded in the fit document; does not change the fit")
    p_fit.set_defaults(func=_cmd_fit)

    p_test = sub.add_parser("test", help="run one residual test")
    p_test.add_argument("battery", choices=["lv-density", *_ITEM_PROBLEMS])
    p_test.add_argument("--data", required=True)
    p_test.add_argument("--model")
    p_test.add_argument("--fit")
    p_test.add_argument("--grid", help=_GRID_HELP)
    p_test.add_argument("--summary-grid", dest="summary_grid", help=_SUMMARY_GRID_HELP)
    p_test.add_argument("--item", type=int, help="1-based item index")
    p_test.add_argument("--s", type=int, default=1)
    p_test.add_argument("--seed", type=int, default=0,
                        help="recorded in the report; every battery's covariance is "
                             "exact, so it does not change the report")
    p_test.add_argument("--out", default="report.tsv")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a bundled rejection study")
    p_sim.add_argument("study", choices=["study1", "study2"])
    p_sim.add_argument("--reps", type=int, default=300)
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--misspecified", action="store_true")
    p_sim.add_argument("--s", type=int, default=1)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--item", type=int, default=2, help="1-based item index (study2)")
    p_sim.add_argument("--grid", help=_GRID_HELP
                       + " (default: the design's grid and its summary subgrid)")
    p_sim.add_argument("--summary-grid", dest="summary_grid", help=_SUMMARY_GRID_HELP)
    p_sim.add_argument("--out", default="rejections.tsv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ind = sub.add_parser("indices", help="conventional fit diagnostics")
    p_ind.add_argument("--data", required=True)
    p_ind.add_argument("--model")
    p_ind.add_argument("--fit")
    p_ind.add_argument("--out", default="indices.json")
    p_ind.set_defaults(func=_cmd_indices)

    return parser


def _merge_grid_flags(argv):
    """Join grid flags with their values so specs like -3:3:31 parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--summary-grid") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@single_blas_thread
def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_grid_flags(list(argv)))
    try:
        return args.func(args)
    except (FactorGofError, IndexError, OSError) as exc:
        print(f"factorgof: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
