"""Command-line interface: ingestion diagnostics, file outputs, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from factorgof import (DataError, SpecificationError, simulate_data, study1_paramset,
                       study2_paramset)
from factorgof import cli
from factorgof.cli import ingest_csv, load_fit_document, load_model_file, main


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(123)
    params = study2_paramset()
    data = simulate_data(params, 250, rng)
    csv_path = tmp_path / "data.csv"
    header = ",".join(f"y{j}" for j in range(10))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in data.values)
    csv_path.write_text(header + "\n" + rows + "\n")
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "m": 10, "d": 1,
        "loading_pattern": [[1]] * 10,
        "mean_structure": True,
    }))
    return tmp_path, str(csv_path), str(model_path)


def _small_design(tmp_path, d):
    """A CSV and model document: for d = 1, 300 rows of six items (seed 1)
    and a model with a mean structure; for d = 2, 400 rows of eight items
    on two correlated factors with item means 0.3 (seed 2), and a model
    without one, which fits S + ybar ybar'."""
    rng = np.random.default_rng(d)
    if d == 1:
        f = rng.standard_normal((300, 1))
        Y = 0.7 * f + 0.7 * rng.standard_normal((300, 6))
        pattern, mean_structure = [[1]] * 6, True
    else:
        f = rng.standard_normal((400, 2)) @ np.array([[1.0, 0.0], [0.4, 0.9]]).T
        lam = np.kron(np.eye(2), np.full((4, 1), 0.7))
        Y = 0.3 + f @ lam.T + 0.7 * rng.standard_normal((400, 8))
        pattern, mean_structure = [[1, 0]] * 4 + [[0, 1]] * 4, False
    csv_path, model_path = tmp_path / f"data{d}.csv", tmp_path / f"model{d}.json"
    np.savetxt(csv_path, Y, delimiter=",", comments="",
               header=",".join(f"x{j + 1}" for j in range(Y.shape[1])))
    model_path.write_text(json.dumps({"m": Y.shape[1], "d": d, "loading_pattern": pattern,
                                      "mean_structure": mean_structure}))
    return str(csv_path), str(model_path)


def _assert_factorable_inverse(doc):
    """The document's inverse observed information is a finite, exactly
    symmetric q x q matrix that factors by Cholesky."""
    inv = np.asarray(doc["inv_observed_information"], dtype=np.float64)
    q = len(doc["free_vector"])
    assert inv.shape == (q, q)
    assert np.isfinite(inv).all() and np.array_equal(inv, inv.T)
    np.linalg.cholesky(inv)


def _ingest_error(tmp_path, text):
    """Write ``text`` verbatim and return ingest_csv's message without the path."""
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataError) as info:
        ingest_csv(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message[len(f"{path}: "):]


def _ingest_values(tmp_path, text):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode("utf-8"))
    return ingest_csv(str(path))


class TestIngestCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6.5\n")
        dm = ingest_csv(str(path))
        assert dm.n == 3 and dm.m == 2
        assert dm.column_names == ["a", "b"]

    def test_empty_cell_names_row_and_column(self, tmp_path):
        assert _ingest_error(tmp_path, "a,b\n1,2\n3,\n") == "line 3, column 2 (b): empty cell"

    def test_non_numeric_cell(self, tmp_path):
        assert (_ingest_error(tmp_path, "a,b\n1,2\nx,4\n")
                == "line 3, column 1 (a): non-numeric value 'x'")

    def test_header_only(self, tmp_path):
        assert _ingest_error(tmp_path, "a,b\n") == "no data rows after the header"

    def test_empty_file(self, tmp_path):
        assert _ingest_error(tmp_path, "") == "file is empty"

    def test_malformed_header(self, tmp_path):
        assert _ingest_error(tmp_path, "a,,c\n1,2,3\n") == "line 1: malformed header"

    def test_ragged_row(self, tmp_path):
        assert _ingest_error(tmp_path, "a,b\n1,2\n1,2,3\n") == "line 3: expected 2 fields, got 3"

    def test_every_row_ragged(self, tmp_path):
        assert (_ingest_error(tmp_path, "a,b\n1,2,3\n4,5,6\n7,8,9\n")
                == "line 2: expected 2 fields, got 3")

    def test_zero_variance_column(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("a,b\n1,2\n3,2\n5,2\n")
        with pytest.raises(DataError) as info:
            ingest_csv(str(path))
        assert str(info.value) == f"{path}: column b has zero sample variance"

    @pytest.mark.parametrize("text, line", [
        ("a,b\n1,2\n\n3,4\n", 3),
        ("a,b\n\n1,2\n3,4\n", 2),
        ("a,b\n1,2\n3,4\n\n", 4),
        ("a,b\r\n1,2\r\n\r\n3,4\r\n", 3),
    ])
    def test_blank_line_rejected(self, tmp_path, text, line):
        assert _ingest_error(tmp_path, text) == f"line {line}: expected 2 fields, got 0"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_blank_line_across_read_chunks(self, tmp_path, eol):
        # the blank line's two breaks straddle byte 65536 of the file
        row = "1,2" + eol
        pad = (65536 - len("a,b" + eol)) % len(row)
        header = "a,b" + " " * pad + eol
        k = (65536 - len(header)) // len(row)
        text = header + row * k + eol + "3,4" + eol
        assert len((header + row * k).encode()) == 65536
        assert _ingest_error(tmp_path, text) == f"line {k + 2}: expected 2 fields, got 0"

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_well_formed_file_is_not_reread(self, tmp_path, eol, monkeypatch):
        # the line break ending the last row of the first 65536 bytes straddles
        # the read-chunk boundary when it is CRLF
        import factorgof.cli as cli

        monkeypatch.setattr(cli, "_first_row_error", lambda path, header: pytest.fail("re-read"))
        end = 65536 + len(eol) - 1
        pad = (end - len("a,b" + eol)) % (3 + len(eol))
        header = "a,b" + " " * pad + eol
        k = (end - len(header)) // (3 + len(eol))
        text = header + "".join(f"{i % 7},{i % 5}" + eol for i in range(k + 3))
        assert text.encode()[65535:end] == eol.encode()
        assert _ingest_values(tmp_path, text).n == k + 3

    def test_lone_cr_line_breaks(self, tmp_path):
        dm = _ingest_values(tmp_path, "a,b\r1,2\r3,4\r5,7\r")
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        assert _ingest_error(tmp_path, "a,b\r1,2\r\r3,4\r") == "line 3: expected 2 fields, got 0"

    def test_blank_only_body_rejected(self, tmp_path):
        assert _ingest_error(tmp_path, "a,b\n\n") == "line 2: expected 2 fields, got 0"

    def test_whitespace_only_line_rejected(self, tmp_path):
        assert _ingest_error(tmp_path, "a,b\n1,2\n  \n3,4\n") == "line 3: expected 2 fields, got 1"
        assert _ingest_error(tmp_path, "a\n1\n  \n3\n") == "line 3, column 1 (a): empty cell"

    def test_hash_lines_are_data_not_comments(self, tmp_path):
        assert (_ingest_error(tmp_path, "a,b\n1,2\n# note\n3,4\n")
                == "line 3: expected 2 fields, got 1")
        assert (_ingest_error(tmp_path, "a,b\n1,2\n#x,1\n3,4\n")
                == "line 3, column 1 (a): non-numeric value '#x'")
        assert (_ingest_error(tmp_path, "a,b\n1,2\n3,4 # note\n5,6\n")
                == "line 3, column 2 (b): non-numeric value '4 # note'")

    def test_quoted_header_and_cells(self, tmp_path):
        dm = _ingest_values(tmp_path, '"a","b c"\n"1","2.5"\n3,"-4e1"\n5,6\n')
        assert dm.column_names == ["a", "b c"]
        np.testing.assert_array_equal(dm.values, [[1.0, 2.5], [3.0, -40.0], [5.0, 6.0]])

    def test_crlf_and_padded_cells(self, tmp_path):
        dm = _ingest_values(tmp_path, "a , b\r\n 1 ,\t2\r\n3 , 4 \r\n5,6\r\n")
        assert dm.column_names == ["a", "b"]
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_missing_final_newline(self, tmp_path):
        dm = _ingest_values(tmp_path, "a,b\n1,2\n3,4\n5,7")
        np.testing.assert_array_equal(dm.values[-1], [5.0, 7.0])

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400"])
    def test_non_finite_rejected(self, tmp_path, cell):
        assert (_ingest_error(tmp_path, f"a,b\n1,2\n3,4\n5,{cell}\n")
                == f"line 4, column 2 (b): non-finite value {cell!r}")

    def test_first_error_in_file_order_wins(self, tmp_path):
        ragged_first = "a,b\n1,2\n1,2,3\nx,4\n"
        assert _ingest_error(tmp_path, ragged_first) == "line 3: expected 2 fields, got 3"
        cell_first = "a,b\n1,2\nx,4\n1,2,3\n"
        assert _ingest_error(tmp_path, cell_first) == "line 3, column 1 (a): non-numeric value 'x'"
        non_finite_first = "a,b\n1,2\n3,inf\n1,2,3\n"
        assert _ingest_error(tmp_path, non_finite_first) == "line 3, column 2 (b): non-finite value 'inf'"
        non_finite_before_blank = "a,b\n1,2\n3,nan\n\n5,6\n"
        assert (_ingest_error(tmp_path, non_finite_before_blank)
                == "line 3, column 2 (b): non-finite value 'nan'")
        blank_before_cell = "a,b\n1,2\n\n5,y\n"
        assert _ingest_error(tmp_path, blank_before_cell) == "line 3: expected 2 fields, got 0"

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path, cell):
        # float() accepts these; the reader does not
        assert (_ingest_error(tmp_path, f"a,b\n1,2\n3,{cell}\n5,6\n")
                == f"line 3, column 2 (b): non-numeric value {cell!r}")

    def test_blank_line_inside_quoted_cell_accepted(self, tmp_path):
        dm = _ingest_values(tmp_path, 'a,b\n"1\n\n",2\n3,4\n5,7\n')
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_break_inside_a_quoted_name_is_one_header_record(self, tmp_path, eol,
                                                                  monkeypatch):
        # the header record spans two lines, which the parse skips, so the
        # line count matches and the file is not re-read
        import factorgof.cli as cli

        monkeypatch.setattr(cli, "_first_row_error", lambda path, header: pytest.fail("re-read"))
        text = eol.join(['"first' + eol + 'name",b', "1,2", "3,4", "5,7"]) + eol
        dm = _ingest_values(tmp_path, text)
        assert dm.column_names == ["first" + eol + "name", "b"]
        np.testing.assert_array_equal(dm.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
        assert dm.sha256 == hashlib.sha256(text.encode()).hexdigest()

    def test_unexplained_parse_failure_still_raises(self, tmp_path, monkeypatch):
        import factorgof.cli as cli

        monkeypatch.setattr(cli, "_first_row_error", lambda path, header: None)
        message = _ingest_error(tmp_path, "a,b\n1,2\nx,4\n")
        assert "could not convert string 'x'" in message

    def test_parse_is_bit_identical_to_float(self, tmp_path):
        rng = np.random.default_rng(2024)
        n, m = 2000, 5
        values = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-150, 150, size=(n, m))
        values[:, 0] = rng.standard_normal(n)
        values[::7, 1] = 5e-324 * rng.integers(1, 100, size=len(values[::7, 1]))
        lines = [",".join(f"c{j}" for j in range(m))]
        lines += [",".join("%.17g" % v for v in row) for row in values]
        text = "\n".join(lines) + "\n"
        dm = _ingest_values(tmp_path, text)
        reference = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
        assert dm.values.shape == (n, m)
        assert np.array_equal(dm.values.view(np.uint64), reference.view(np.uint64))
        assert np.array_equal(reference, values)


class TestModelFile:
    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "m": 3,\n  "d": 1,\n')
        with pytest.raises(DataError, match="line"):
            load_model_file(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"m": 3}')
        with pytest.raises(DataError, match="missing keys"):
            load_model_file(str(path))


class TestFitCommand:
    def test_writes_fit_document(self, workdir):
        tmp, csv_path, model_path = workdir
        out = str(tmp / "fit.json")
        rc = main(["fit", "--data", csv_path, "--model", model_path, "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "fit" and doc["converged"]
        assert len(doc["free_vector"]) == 30
        assert "inv_information" not in doc and "info_draws" not in doc
        _assert_factorable_inverse(doc)
        fit = load_fit_document(out)
        assert fit.converged
        np.testing.assert_allclose(fit.params.theta, np.exp(np.array(doc["free_vector"])[-10:]))

    @pytest.mark.parametrize("d, max_iter", [(1, 3), (2, 4)])
    def test_start_is_a_few_newton_steps_from_the_fit(self, tmp_path, d, max_iter):
        # both fits start at the principal-axis estimate and end with a
        # full Newton step; the two-factor fit has no mean structure
        csv_path, model_path = _small_design(tmp_path, d)
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", csv_path, "--model", model_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_iter"] <= max_iter and doc["gradient_norm"] < 1e-10
        _assert_factorable_inverse(doc)

    def test_rotationally_unidentified_model_exits_1(self, tmp_path):
        # every loading free on both factors: the fit steps with the
        # Hessian's eigenvalues floored and must stop, unconverged, within
        # 25 iterations; the command writes the document and exits 1
        csv_path, _ = _small_design(tmp_path, 2)
        model_path = tmp_path / "free.json"
        model_path.write_text(json.dumps({"m": 8, "d": 2, "loading_pattern": [[1, 1]] * 8}))
        out = tmp_path / "fit.json"
        assert main(["fit", "--data", csv_path, "--model", str(model_path),
                     "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert not doc["converged"] and doc["n_iter"] <= 25

    def test_one_row_is_a_data_error(self, workdir, capsys):
        # a one-row CSV has no sample variances to start the fit from: fit
        # exits 1 with a DataError that names the row count, writes nothing
        # and warns of nothing but the row count on the way
        tmp, csv_path, model_path = workdir
        path = tmp / "one.csv"
        path.write_text("".join(open(csv_path).readlines()[:2]))
        out = tmp / "fit.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", "--data", str(path), "--model", model_path, "--out", str(out)])
        assert [str(w.message) for w in caught] == ["n=1 <= m=10: too few rows for a stable fit"]
        assert rc == 1
        assert (capsys.readouterr().err
                == "factorgof: error: data has 1 row: a fit needs at least 2\n")
        assert not out.exists()

    def test_overflowing_variance_is_a_data_error(self, workdir, capsys):
        # one entry of 1e200 overflows its column's sample variance: fit
        # exits 1 with the DataError that names the file and the column, writes nothing
        # and raises no overflow warning on the way
        tmp, csv_path, model_path = workdir
        lines = open(csv_path).read().splitlines()
        cells = lines[5].split(",")
        cells[2] = "1e200"
        lines[5] = ",".join(cells)
        path = tmp / "huge.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["fit", "--data", str(path), "--model", model_path, "--out", str(out)])
        assert rc == 1
        assert (capsys.readouterr().err
                == f"factorgof: error: {path}: column y2 has an overflowing sample variance\n")
        assert not out.exists()

    def test_seed_is_provenance_only(self, workdir):
        tmp, csv_path, model_path = workdir
        docs = []
        for seed in ("1", "2"):
            out = str(tmp / f"fit{seed}.json")
            assert main(["fit", "--data", csv_path, "--model", model_path,
                         "--seed", seed, "--out", out]) == 0
            docs.append(json.loads(open(out).read()))
        assert [doc.pop("seed") for doc in docs] == [1, 2]
        assert docs[0] == docs[1]


@pytest.mark.parametrize("case", ["header", "cell", "model", "fit"])
def test_input_that_is_not_utf8_is_a_data_error(workdir, capsys, case):
    # a latin-1 byte 0xE9 in a CSV header, in a body cell far past the
    # first chunk the header read decodes, in a model document or in a fit
    # document: the command exits 1 with a DataError that names the file
    tmp, csv_path, model_path = workdir
    paths = {"data": csv_path, "model": model_path, "fit": str(tmp / "fit.json")}
    assert main(["fit", "--data", csv_path, "--model", model_path, "--out", paths["fit"]]) == 0
    text = open(csv_path, "rb").read()
    last = text.rindex(b"\n", 0, -1) + 1
    assert last > 5 * 8192
    key = {"header": "data", "cell": "data"}.get(case, case)
    bad = tmp / f"bad-{case}"
    if case == "header":
        bad.write_bytes(b"caf\xe9" + text[2:])
    elif case == "cell":
        bad.write_bytes(text[:last] + b"\xe9" + text[last:])
    else:
        bad.write_bytes(open(paths[key], "rb").read().replace(b"{", b'{"caf\xe9": 0, ', 1))
    paths[key] = str(bad)
    flag = "fit" if case == "fit" else "model"
    command = ["test", "lv-density"] if case == "fit" else ["fit"]
    out = tmp / "out"
    rc = main(command + [f"--{flag}", paths[flag], "--data", paths["data"], "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"factorgof: error: {bad}: not UTF-8 text "
                                       "(byte 0xe9: invalid continuation byte)\n")
    assert not out.exists()


class TestFitDocument:
    def _write_fit(self, workdir):
        tmp, csv_path, model_path = workdir
        out = str(tmp / "fit.json")
        assert main(["fit", "--data", csv_path, "--model", model_path, "--out", out]) == 0
        return out

    def test_truncated_document_names_missing_keys(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text('{"kind": "fit"}')
        with pytest.raises(DataError, match=r"missing keys \['model', 'free_vector'"):
            load_fit_document(str(path))

    def test_missing_model_key(self, workdir):
        path = self._write_fit(workdir)
        doc = json.loads(open(path).read())
        del doc["model"]["d"]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(DataError, match=r"missing keys \['model.d'\]"):
            load_fit_document(path)

    def test_malformed_value(self, workdir):
        # each entry must have its JSON type: none is coerced, so "false"
        # is not read as converged, nor a string as a list of warnings
        path = self._write_fit(workdir)
        good = json.loads(open(path).read())
        for key, value, message in (
                ("free_vector", ["abc"] * 30, "could not convert"),
                ("loglik", "abc", "loglik must be a number, got 'abc'"),
                ("gradient_norm", None, "gradient_norm must be a number, got None"),
                ("converged", "false", "converged must be true or false, got 'false'"),
                ("n_iter", 3.7, "n_iter must be an integer, got 3.7"),
                ("n_iter", True, "n_iter must be an integer, got True"),
                ("warnings", "gradient: bad", "warnings must be a list of strings"),
                ("warnings", [1], "warnings must be a list of strings, got \\[1\\]")):
            open(path, "w").write(json.dumps({**good, key: value}))
            with pytest.raises(DataError, match=message):
                load_fit_document(path)

    def test_wrong_length_free_vector(self, workdir, capsys):
        # the document's free vector is unpacked on loading, so a vector
        # one entry short fails there, and on the command line exits 1
        tmp, csv_path, _ = workdir
        path = self._write_fit(workdir)
        doc = json.loads(open(path).read())
        doc["free_vector"] = doc["free_vector"][:-1]
        open(path, "w").write(json.dumps(doc))
        message = r"free vector has shape \(29,\), expected \(30,\)"
        with pytest.raises(SpecificationError, match=message):
            load_fit_document(path)
        rc = main(["indices", "--data", csv_path, "--fit", path, "--out", str(tmp / "x.out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "factorgof: error: free vector has shape (29,), expected (30,)\n"

    def test_truncated_document_on_command_line(self, workdir, capsys):
        tmp, csv_path, _ = workdir
        path = tmp / "short.json"
        path.write_text('{"kind": "fit"}')
        for argv in (["indices"], ["test", "lv-density"]):
            rc = main(argv + ["--data", csv_path, "--fit", str(path),
                              "--out", str(tmp / "x.out")])
            err = capsys.readouterr().err
            assert rc == 1
            assert "missing keys" in err and "Traceback" not in err

    def test_document_without_estimates_is_refused(self, workdir):
        path = self._write_fit(workdir)
        doc = json.loads(open(path).read())
        del doc["estimates"]
        open(path, "w").write(json.dumps(doc))
        with pytest.raises(DataError, match=r"missing keys \['estimates'\]"):
            load_fit_document(path)

    def test_older_two_factor_document_is_refused(self, tmp_path):
        # a two-factor document written when the free vector held the
        # normalized-row transform w = phi / sqrt(1 - phi^2) in place of
        # phi: read as phi it is another model, which its stored estimates
        # expose; an entry that gives no positive definite phi is refused too
        data = simulate_data(study1_paramset(), 300, np.random.default_rng(5))
        csv_path = tmp_path / "data.csv"
        header = ",".join(f"y{j}" for j in range(20))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in data.values)
        csv_path.write_text(header + "\n" + rows + "\n")
        pattern = [[1, 0]] * 10 + [[0, 1]] * 10
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"m": 20, "d": 2, "loading_pattern": pattern}))
        path = str(tmp_path / "fit.json")
        assert main(["fit", "--data", str(csv_path), "--model", str(model_path),
                     "--out", path]) == 0
        doc = json.loads(open(path).read())
        i = doc["free_labels"].index("phi[1,0]")
        phi = doc["free_vector"][i]
        assert load_fit_document(path).params.phi[1, 0] == phi == doc["estimates"]["phi"][1][0]
        for entry, message in ((phi / math.sqrt(1.0 - phi**2), "does not reproduce estimates.phi"),
                               (1.5, "phi is not positive definite")):
            doc["free_vector"][i] = entry
            open(path, "w").write(json.dumps(doc))
            with pytest.raises(DataError, match=message):
                load_fit_document(path)

    def test_older_document_with_mc_information_loads(self, workdir):
        # documents written before the fit stopped drawing its own
        # information carry inv_information and info_draws as well
        path = self._write_fit(workdir)
        doc = json.loads(open(path).read())
        doc["info_draws"] = 10_000
        doc["inv_information"] = doc["inv_observed_information"]
        old = path + ".old"
        open(old, "w").write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        new_fit, old_fit = load_fit_document(path), load_fit_document(old)
        assert old_fit.converged
        np.testing.assert_array_equal(old_fit.free_vector, new_fit.free_vector)
        np.testing.assert_array_equal(old_fit.inv_observed_information,
                                      new_fit.inv_observed_information)


class TestTestCommand:
    def test_report_row_count_and_summary(self, workdir):
        tmp, csv_path, model_path = workdir
        out = str(tmp / "report.tsv")
        rc = main(["test", "lv-density", "--data", csv_path, "--model", model_path,
                   "--grid", "-3:3:31", "--seed", "7", "--out", out])
        assert rc == 0
        lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
        header, *rows = lines
        assert header.split("\t")[:2] == ["kind", "x1"]
        points = [r for r in rows if r.startswith("point")]
        summaries = [r for r in rows if r.startswith("summary")]
        assert len(points) == 31 and len(summaries) == 1

    @pytest.mark.parametrize("grid", ["nan:3:5", "-inf:3:5"])
    def test_non_finite_grid_bound_is_an_error(self, workdir, capsys, grid):
        tmp, csv_path, model_path = workdir
        out = tmp / "x.tsv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["test", "linearity", "--item", "1", "--data", csv_path,
                       "--model", model_path, f"--grid={grid}", "--summary-grid=3:4:1",
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("factorgof: error: grid bounds must be finite")
        assert not out.exists()

    def test_item_zero_rejected(self, workdir, capsys):
        tmp, csv_path, model_path = workdir
        rc = main(["test", "linearity", "--data", csv_path, "--model", model_path,
                   "--item", "0", "--out", str(tmp / "x.tsv")])
        assert rc != 0
        assert "out of range" in capsys.readouterr().err

    def test_item_out_of_range_exits_1(self, workdir, capsys):
        tmp, csv_path, model_path = workdir
        rc = main(["test", "linearity", "--data", csv_path, "--model", model_path,
                   "--item", "99", "--out", str(tmp / "x.tsv")])
        assert rc == 1
        assert capsys.readouterr().err == "factorgof: error: --item 99 out of range 1..10\n"

    def test_bare_index_error_propagates(self, workdir, monkeypatch):
        # main reports only the package's errors and OSError: an IndexError
        # from a fault inside a command is not read as a user error
        tmp, csv_path, model_path = workdir

        def faulty(*args, **kwargs):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr(cli, "run_residual_test", faulty)
        with pytest.raises(IndexError, match="index 3 is out of bounds"):
            main(["test", "linearity", "--data", csv_path, "--model", model_path,
                  "--item", "2", "--out", str(tmp / "x.tsv")])

    def test_missing_item_rejected(self, workdir):
        tmp, csv_path, model_path = workdir
        rc = main(["test", "variance", "--data", csv_path, "--model", model_path,
                   "--out", str(tmp / "x.tsv")])
        assert rc != 0

    def test_byte_identical_reruns(self, workdir):
        tmp, csv_path, model_path = workdir
        out1, out2 = str(tmp / "r1.tsv"), str(tmp / "r2.tsv")
        args = ["test", "linearity", "--item", "2", "--data", csv_path,
                "--model", model_path, "--seed", "3"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_provenance_header(self, workdir):
        tmp, csv_path, model_path = workdir
        out = str(tmp / "prov.tsv")
        assert main(["test", "lv-density", "--data", csv_path, "--model", model_path,
                     "--seed", "13", "--out", out]) == 0
        head = [l for l in open(out).read().splitlines() if l.startswith("#")]
        joined = "\n".join(head)
        assert head[0].startswith("# tool=factorgof version=")
        for key in ("seed=13", "s=1", "grid=", "data_sha256="):
            assert key in joined
        assert not any(l.startswith("# M=") for l in head)
        assert "# covariance=exact" in head
        for kind in ("linearity", "variance", "linearity-direct"):
            assert main(["test", kind, "--item", "2", "--data", csv_path,
                         "--model", model_path, "--out", out]) == 0
            assert "# covariance=exact" in open(out).read().splitlines()

    def test_draw_budget_flag_is_gone(self, workdir, capsys):
        tmp, csv_path, model_path = workdir
        for argv in (["test", "lv-density", "--data", csv_path, "--model", model_path],
                     ["simulate", "study2", "--reps", "1"]):
            with pytest.raises(SystemExit):
                main(argv + ["--M", "1000", "--out", str(tmp / "x.tsv")])
            assert "unrecognized arguments: --M 1000" in capsys.readouterr().err

    def test_fit_roundtrip_matches_refit(self, workdir):
        tmp, csv_path, model_path = workdir
        fit_doc = str(tmp / "fit.json")
        assert main(["fit", "--data", csv_path, "--model", model_path,
                     "--out", fit_doc]) == 0
        out_model = str(tmp / "via_model.tsv")
        out_fit = str(tmp / "via_fit.tsv")
        common = ["test", "variance", "--item", "3", "--data", csv_path,
                  "--seed", "11"]
        assert main(common + ["--model", model_path, "--out", out_model]) == 0
        assert main(common + ["--fit", fit_doc, "--out", out_fit]) == 0
        strip = lambda p: [l for l in open(p).read().splitlines() if not l.startswith("#")]
        assert strip(out_model) == strip(out_fit)

    def test_default_grid_pools_every_point(self, workdir):
        tmp, csv_path, model_path = workdir
        outs = [str(tmp / "default.tsv"), str(tmp / "explicit.tsv")]
        common = ["test", "lv-density", "--data", csv_path, "--model", model_path,
                  "--seed", "4"]
        assert main(common + ["--out", outs[0]]) == 0
        assert main(common + ["--grid", "-3:3:31", "--out", outs[1]]) == 0
        text = open(outs[0], "rb").read()
        assert text == open(outs[1], "rb").read()
        assert b"# summary_grid=-3:3:31\n" in text

    def test_requires_exactly_one_source(self, workdir):
        tmp, csv_path, model_path = workdir
        rc = main(["test", "lv-density", "--data", csv_path,
                   "--out", str(tmp / "x.tsv")])
        assert rc != 0


class TestSimulateCommand:
    def test_small_run_and_determinism(self, workdir):
        tmp, *_ = workdir
        out1, out2 = str(tmp / "s1.tsv"), str(tmp / "s2.tsv")
        args = ["simulate", "study2", "--reps", "3", "--n", "150",
                "--seed", "5", "--item", "2"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        body = [l for l in open(out1).read().splitlines() if not l.startswith("#")]
        # header + 2 batteries x (31 points + 1 summary)
        assert len(body) == 1 + 2 * 32

    def test_grid_without_summary_grid_pools_every_point(self, workdir):
        tmp, *_ = workdir
        out = str(tmp / "grid.tsv")
        assert main(["simulate", "study2", "--reps", "2", "--n", "300",
                     "--grid", "-3:3:7", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert "# summary_grid=-3:3:7" in lines
        summary = [l.split("\t") for l in lines if "\tsummary\t" in l]
        assert [row[0] for row in summary] == ["linearity[1]", "variance[1]"]
        for row in summary:
            rejections, valid, rate = row[3:6]
            assert valid == "2"
            assert np.isfinite(float(rate))
            assert float(rate) == int(rejections) / 2

    def test_summary_grid_without_grid_uses_default_axes(self, workdir, capsys):
        tmp, *_ = workdir
        out = str(tmp / "sub.tsv")
        assert main(["simulate", "study2", "--reps", "1", "--n", "300",
                     "--summary-grid", "-1:1:3", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert "# grid=-3:3:31" in lines
        assert "# summary_grid=-1:1:3" in lines
        rc = main(["simulate", "study2", "--reps", "1", "--n", "300",
                   "--grid", "-3:3:7,-3:3:7", "--out", out])
        assert rc == 1
        assert "grid has 2 dimensions, model has d=1" in capsys.readouterr().err

    def test_item_validation(self, workdir, capsys, monkeypatch):
        tmp, *_ = workdir

        def refuse(*args, **kwargs):
            raise AssertionError("a replication ran before --item was checked")

        monkeypatch.setattr(cli, "run_rejection_study", refuse)
        for item in ("0", "11"):
            rc = main(["simulate", "study2", "--reps", "1", "--n", "120",
                       "--item", item, "--out", str(tmp / "x.tsv")])
            err = capsys.readouterr().err
            assert rc == 1
            assert f"--item {item} out of range 1..10" in err
            assert "Traceback" not in err

    def test_alpha_outside_unit_interval_rejected(self, workdir, capsys):
        tmp, *_ = workdir
        out = tmp / "alpha.tsv"
        rc = main(["simulate", "study2", "--reps", "2", "--n", "300",
                   "--alpha", "1.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "alpha must lie in (0, 1), got 1.5" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestIndicesCommand:
    def test_writes_indices(self, workdir):
        tmp, csv_path, model_path = workdir
        out = str(tmp / "indices.json")
        rc = main(["indices", "--data", csv_path, "--model", model_path, "--out", out])
        assert rc == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "indices"
        assert doc["df"] == 35
        assert 0 <= doc["srmr"] < 0.2


_WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, RefuseScipy())
from factorgof.cli import main

tmp, csv_path, model_path = sys.argv[1:4]
fit_path = f"{tmp}/fit.json"
runs = [
    ["fit", "--data", csv_path, "--model", model_path, "--out", fit_path],
    ["test", "lv-density", "--data", csv_path, "--fit", fit_path,
     "--out", f"{tmp}/lv.tsv"],
    ["test", "variance", "--item", "1", "--data", csv_path, "--fit", fit_path,
     "--out", f"{tmp}/var.tsv"],
    ["indices", "--data", csv_path, "--fit", fit_path, "--out", f"{tmp}/idx.json"],
    ["simulate", "study2", "--reps", "1", "--n", "300", "--out", f"{tmp}/sim.tsv"],
]
print([main(args) for args in runs])
"""


def test_commands_run_where_scipy_cannot_be_imported(workdir):
    # the runtime is numpy-only: every command completes in a process in
    # which any import of scipy fails
    tmp, csv_path, model_path = workdir
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp), csv_path, model_path],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", out.stdout + out.stderr


def test_module_entry_point_version():
    out = subprocess.run(
        [sys.executable, "-m", "factorgof", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"
