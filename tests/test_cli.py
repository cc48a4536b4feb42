import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nbmle
from nbmle import cli
from nbmle.cli import CliInputError, ingest_csv, main, run_verification


def run(args):
    return main([str(a) for a in args])


def simulate_to(tmp_path, name="sim.csv", beta="0.5,-0.3", theta=0.8, n=400,
                seed=11):
    path = tmp_path / name
    code = run(["simulate", "--beta", beta, "--theta", theta, "--n", n,
                "--seed", seed, "--output", path])
    assert code == 0
    return path


def _no_pool(*args, **kwargs):
    raise AssertionError("simulate started a worker pool")


class TestIngest:
    def test_small_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n0,0.5\n2,-1.0\n1,0.25\n")
        ds = ingest_csv(str(f))
        assert ds.n == 3
        assert ds.p == 2
        assert ds.names == ("intercept", "x1")
        np.testing.assert_array_equal(ds.X[:, 0], 1.0)

    def test_no_intercept(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1,x2\n0,0.5,1.0\n2,-1.0,0.5\n1,0.25,2.0\n")
        ds = ingest_csv(str(f), no_intercept=True)
        assert ds.p == 2
        assert ds.names == ("x1", "x2")

    def test_fractional_response_rejected_with_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n0,0.5\n2.5,-1.0\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(f))
        assert "row 3" in str(err.value)
        assert "'y'" in str(err.value)

    def test_non_numeric_cell_rejected_with_location(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("y,x1\n0,0.5\n1,oops\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(f))
        assert "row 3" in str(err.value)
        assert "'x1'" in str(err.value)

    def test_missing_response_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("count,x1\n0,0.5\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(f))
        assert "'y'" in str(err.value)
        assert "count" in str(err.value)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(f))
        assert "empty" in str(err.value)


class TestIngestFastPath:
    """numpy's reader returns what the row parser returns, or defers to it."""

    def check(self, path, monkeypatch, response="y", **kwargs):
        """ingest_csv through numpy's reader and through the row parser
        alone give bit-identical Datasets."""
        assert cli._read_numeric(str(path), response) is not None
        fast = ingest_csv(str(path), response, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_numeric", lambda *args: None)
            rows = ingest_csv(str(path), response, **kwargs)
        assert fast.names == rows.names
        assert fast.y.dtype == rows.y.dtype == np.int64
        assert fast.X.dtype == rows.X.dtype == np.float64
        assert fast.y.shape == rows.y.shape and fast.X.shape == rows.X.shape
        assert fast.y.tobytes() == rows.y.tobytes()
        assert fast.X.tobytes() == rows.X.tobytes()
        return fast

    def test_simulate_output(self, tmp_path, monkeypatch):
        path = simulate_to(tmp_path, beta="0.5,-0.3,0.2", n=3000, seed=8)
        ds = self.check(path, monkeypatch)
        assert ds.n == 3000 and ds.p == 3

    def test_eight_decimal_data(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        x = np.round(rng.standard_normal((500, 3)), 8)
        y = rng.poisson(1.5, 500)
        lines = ["y,x1,x2,x3"] + [f"{c}," + ",".join(f"{v:.8f}" for v in row)
                                  for c, row in zip(y, x)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = self.check(path, monkeypatch)
        np.testing.assert_array_equal(ds.X[:, 1:], x)

    def test_crlf_bom_blank_lines_padding(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfy , x1\r\n\r\n 0 , 1.5 \r\n2,\t-1\r\n"
                         b"\r\n\r\n1,0.25\r\n\r\n")
        ds = self.check(path, monkeypatch)
        assert ds.names == ("intercept", "x1")
        np.testing.assert_array_equal(ds.y, [0, 2, 1])
        np.testing.assert_array_equal(ds.X[:, 1], [1.5, -1.0, 0.25])

    def test_response_in_the_middle(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("a,count,b\n0.5,3,-1\n0.25,0,2\n-0.5,1,0.125\n")
        ds = self.check(path, monkeypatch, response="count")
        assert ds.names == ("intercept", "a", "b")
        np.testing.assert_array_equal(ds.y, [3, 0, 1])
        np.testing.assert_array_equal(ds.X[:, 2], [-1.0, 2.0, 0.125])

    def test_no_intercept(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n0,0.5,1.0\n2,-1.0,0.5\n1,0.25,2.0\n")
        ds = self.check(path, monkeypatch, no_intercept=True)
        assert ds.names == ("x1", "x2")

    def test_underscored_cells_use_the_row_parser(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n1_0,0.5\n2,-1_000.0\n1,0.25\n")
        assert cli._read_numeric(str(path), "y") is None
        ds = ingest_csv(str(path))
        assert ds.n == 3
        assert ds.y[1] == 2

    def test_quoted_cells_read_by_numpy_as_by_the_row_parser(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('y,x1\n"0",0.5\n2,"-1.0"\n1,0.25\n')
        header, body = cli._read_numeric(str(path), "y")
        ref_header, ref_body = cli._read_rows(str(path), "y")
        assert header == ref_header
        assert body.shape == ref_body.shape
        assert body.tobytes() == ref_body.tobytes()
        ds = ingest_csv(str(path))
        assert ds.n == 3
        assert ds.y[1] == 2

    @pytest.mark.parametrize("column", ["y", "x1"])
    @pytest.mark.parametrize("cell", [
        '"1"', ' "1"', '"1" ', '"1"2', '"1""2"', '"1,5"', '""', '"1\n"',
        '"\n1"', '"1\n\n"', '" 1 "', '"1e3"', '"-0.5"', '"nan"', '"0x1"',
        '"1_0"', "'1'", '1"', '"1', '"',
    ])
    def test_quoted_cell_parity(self, tmp_path, column, cell):
        """numpy's reader takes a quoted cell only where csv and float() do,
        with the same value, and otherwise defers to the row parser."""
        path = tmp_path / "d.csv"
        row = f"{cell},0.5" if column == "y" else f"2,{cell}"
        path.write_text(f"y,x1\n{row}\n1,0.25\n")
        fast = cli._read_numeric(str(path), "y")
        try:
            ref = cli._read_rows(str(path), "y")
        except CliInputError:
            assert fast is None
            return
        if fast is not None:
            assert fast[0] == ref[0]
            assert fast[1].shape == ref[1].shape
            assert fast[1].tobytes() == ref[1].tobytes()

    def test_comment_text_in_a_cell_is_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.5\n1,2 # note\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert str(err.value).endswith(
            "non-numeric cell at row 3, column 'x1': '2 # note'")

    def test_cell_numpy_strips_but_float_refuses(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.5\n1,\x1c2\n")
        assert cli._read_numeric(str(path), "y") is None
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert "non-numeric cell at row 3, column 'x1'" in str(err.value)

    def test_whitespace_line_is_not_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y\n1\n \n2\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert "non-numeric cell at row 3, column 'y'" in str(err.value)

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CliInputError) as err:
                ingest_csv(str(path))
        assert caught == []
        assert "no data rows" in str(err.value)


class TestResponseBounds:
    @pytest.mark.parametrize("cell", ["inf", "nan", "1e20", "9007199254740994"])
    def test_unrepresentable_response_is_input_error(self, tmp_path, capsys,
                                                     cell):
        path = tmp_path / "d.csv"
        path.write_text(f"y,x1\n0,0.5\n{cell},-1.0\n1,0.25\n")
        message = (f"response must be a non-negative integer; got {cell!r} "
                   f"at row 3, column 'y'")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert str(err.value).endswith(message)
        capsys.readouterr()
        assert run(["fit", "--input", path]) == 1
        assert capsys.readouterr().err.strip().endswith(message)

    def test_largest_exact_response_is_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.5\n9007199254740992,-1.0\n")
        assert ingest_csv(str(path)).y[1] == 2 ** 53


class TestSimulate:
    def test_same_seed_byte_identical(self, tmp_path):
        a = simulate_to(tmp_path, "a.csv", seed=5)
        b = simulate_to(tmp_path, "b.csv", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_output_bytes_pinned(self, tmp_path):
        path = simulate_to(tmp_path, beta="0.5,-0.3", theta=0.8, n=2000,
                           seed=42)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9cfacdfb822fa352c6f1c5f905494a19475d51c132dd1b8dffdcb56c09e98233")

    def test_stdout_matches_file_across_write_blocks(self, tmp_path, capsys):
        args = ["simulate", "--beta", "0.2,0.1,-0.1", "--theta", 1.5,
                "--n", cli._WRITE_ROWS + 7, "--seed", 3]
        capsys.readouterr()
        assert run(args) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "s.csv"
        assert run(args + ["--output", path]) == 0
        assert path.read_text() == printed
        lines = printed.split("\n")
        assert lines[0] == "y,x1,x2" and lines[-1] == ""
        assert len(lines) == cli._WRITE_ROWS + 9

    # Three full write blocks and five rows more; the digest was recorded
    # before the blocks were formatted in worker processes.
    MULTI_BLOCK = ["simulate", "--beta", "0.0,0.3,-0.2,0.25", "--theta", 0.5,
                   "--n", 196_613, "--seed", 401]
    MULTI_BLOCK_SHA256 = (
        "0541f8a73cf8eb610c9b7ab969d4c36c17414b9249725eb8fad9690a857bacb9")

    def test_multi_block_bytes_pinned(self, tmp_path, capsys, monkeypatch):
        assert 196_613 == 3 * cli._WRITE_ROWS + 5
        path = tmp_path / "m.csv"
        assert run(self.MULTI_BLOCK + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.MULTI_BLOCK_SHA256
        capsys.readouterr()
        assert run(self.MULTI_BLOCK) == 0
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == self.MULTI_BLOCK_SHA256
        # One usable CPU: the blocks are formatted in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        path = tmp_path / "one_cpu.csv"
        assert run(self.MULTI_BLOCK + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.MULTI_BLOCK_SHA256

    def test_one_block_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        simulate_to(tmp_path, n=2000, seed=42)

    def test_workers_bounded_by_blocks_and_joined(self, tmp_path, monkeypatch):
        real = multiprocessing.get_context
        sizes = []

        class Recording:
            def __init__(self, method):
                self.ctx = real(method)

            def Pool(self, processes):
                sizes.append(processes)
                return self.ctx.Pool(processes)

        monkeypatch.setattr(multiprocessing, "get_context", Recording)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        simulate_to(tmp_path, n=2 * cli._WRITE_ROWS + 1, seed=1)
        if "fork" in multiprocessing.get_all_start_methods():
            assert sizes == [3]
        assert multiprocessing.active_children() == []

    def test_different_seed_differs(self, tmp_path):
        a = simulate_to(tmp_path, "a.csv", seed=5)
        b = simulate_to(tmp_path, "b.csv", seed=6)
        assert a.read_bytes() != b.read_bytes()

    def test_mean_past_the_poisson_limit_is_input_error(self, capsys):
        capsys.readouterr()
        assert run(["simulate", "--beta", 50, "--theta", 0.5, "--n", 3,
                    "--seed", 1]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Poisson mean lam*u = ")
        assert captured.err.strip().endswith(
            "exceeds the sampler's limit 9.223372006484771e+18")

    def test_zero_theta_rejected(self, tmp_path):
        code = run(["simulate", "--beta", "0.5", "--theta", "0", "--n", 10,
                    "--seed", 1, "--output", tmp_path / "x.csv"])
        assert code == 1

    def test_intercept_only_mean_within_clt_band(self, tmp_path):
        n = 1_000_000
        path = simulate_to(tmp_path, "big.csv", beta="0.7", theta=0.5, n=n,
                           seed=3)
        lam = math.exp(0.7)
        var = lam * (1.0 + 0.5 * lam)
        lines = path.read_text().strip().split("\n")[1:]
        mean = sum(int(v) for v in lines) / n
        assert abs(mean - lam) < 4.0 * math.sqrt(var / n)


class TestFit:
    def test_roundtrip_recovers_parameters(self, tmp_path):
        path = simulate_to(tmp_path, n=5000, seed=21)
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", path, "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["converged"]
        est = np.array(payload["beta_hat"] + [payload["theta_hat"]])
        se = np.array(payload["se"])
        truth = np.array([0.5, -0.3, 0.8])
        np.testing.assert_array_less(np.abs(est - truth), 3.0 * se)

    def test_malformed_csv_exits_1_without_output(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("y,x1\n0,nope\n")
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", f, "--output", out])
        assert code == 1
        assert not out.exists()

    def test_forced_nonconvergence_exits_2_with_payload(self, tmp_path):
        path = simulate_to(tmp_path, n=2000, seed=9)
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", path, "--output", out, "--max-iter", 1])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["converged"] is False

    def test_text_and_json_encode_identical_numbers(self, tmp_path):
        path = simulate_to(tmp_path, n=800, seed=13)
        out_j = tmp_path / "fit.json"
        out_t = tmp_path / "fit.txt"
        assert run(["fit", "--input", path, "--output", out_j]) == 0
        assert run(["fit", "--input", path, "--output", out_t,
                    "--format", "text"]) == 0
        payload = json.loads(out_j.read_text())
        text = out_t.read_text()
        for value in payload["beta_hat"] + [payload["theta_hat"]] + payload["se"]:
            assert f"{value:.12g}" in text

    def test_expected_info_carries_truncation_report(self, tmp_path):
        path = simulate_to(tmp_path, n=300, seed=2)
        out = tmp_path / "fit.json"
        code = run(["fit", "--input", path, "--output", out,
                    "--info", "expected"])
        assert code == 0
        payload = json.loads(out.read_text())
        trunc = payload["info"]["truncation"]
        assert trunc["chosen"] == "survivor_at_j_plus_1"
        assert len(trunc["cutoffs"]) == 300

    def test_all_zero_response_is_input_error(self, tmp_path):
        f = tmp_path / "z.csv"
        f.write_text("y,x1\n0,0.1\n0,0.7\n0,-0.3\n")
        assert run(["fit", "--input", f]) == 1


class TestVerify:
    def test_default_run_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["all_expected_hold"] is True
        flagged = {
            (e["check"], e["pair"]): e
            for e in payload["entries"]
            if e["expected"] == "FAILS"
        }
        # The chain members that drop the reparameterisation factors are
        # flagged, as designed.
        assert flagged[("digamma_chain", "digamma_diff_vs_scaled_sum")]["verdict"] \
            == "FAILS"
        assert flagged[("trigamma_chain", "trigamma_diff_vs_weighted_sum")]["verdict"] \
            == "FAILS"

    def test_tightened_tolerance_exits_3_but_writes_report(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--output", out, "--tol-first", "1e-14"])
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["all_expected_hold"] is False

    def test_single_zero_point_grid(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "--output", out, "--grid", "0:1"])
        assert code == 0
        payload = json.loads(out.read_text())
        for rep in payload["identity_reports"].values():
            for res in rep["residuals"]:
                assert all(v == 0.0 for v in res.values())

    def test_text_format(self, tmp_path):
        out = tmp_path / "verify.txt"
        code = run(["verify", "--output", out, "--format", "text"])
        assert code == 0
        text = out.read_text()
        assert "HOLDS" in text
        assert "as expected" in text

    def test_bad_grid_is_usage_error(self, tmp_path):
        assert run(["verify", "--grid", "nope"]) == 1


class TestInfo:
    def test_observed_symmetric(self, tmp_path):
        path = simulate_to(tmp_path, n=200, seed=17)
        out = tmp_path / "info.json"
        code = run(["info", "--input", path, "--beta", "0.5,-0.3",
                    "--theta", "0.8", "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        m = np.array(payload["matrices"]["observed"]["matrix"])
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_expected_matches_library_call(self, tmp_path):
        from nbmle import Params, expected_info

        path = simulate_to(tmp_path, n=50, seed=19)
        out = tmp_path / "info.json"
        code = run(["info", "--input", path, "--beta", "0.5,-0.3",
                    "--theta", "0.8", "--info", "expected", "--output", out])
        assert code == 0
        payload = json.loads(out.read_text())
        ds = ingest_csv(str(path))
        ref = expected_info(ds, Params(np.array([0.5, -0.3]), 0.8))
        np.testing.assert_allclose(
            np.array(payload["matrices"]["expected"]["matrix"]), ref.m,
            rtol=1e-12,
        )

    def test_missing_theta_is_usage_error(self, tmp_path):
        path = simulate_to(tmp_path, n=50, seed=19)
        assert run(["info", "--input", path, "--beta", "0.5,-0.3"]) == 1

    def test_beta_length_mismatch(self, tmp_path):
        path = simulate_to(tmp_path, n=50, seed=19)
        assert run(["info", "--input", path, "--beta", "0.5",
                    "--theta", "1.0"]) == 1

    def test_theta_past_trigamma_range_is_input_error(self, tmp_path, capsys):
        # A count past LARGE_COUNT_SWITCH sends the dispersion blocks through
        # trigamma(1/theta), and 1/theta = 1e-200 squares to zero.  The
        # DomainError comes before any block expression can overflow.
        path = tmp_path / "big.csv"
        path.write_text("y,x1\n1000017,0.1\n3,0.2\n0,-0.3\n5,0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["info", "--input", path, "--beta", "1,0.3",
                        "--theta", "1e200", "--info", "observed"])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: trigamma(1e-200) overflows: 1/x^2 is not a finite double")


class TestContract:
    """Usage errors, defaults and formats that the argument layer owns."""

    @pytest.mark.parametrize("command", ["simulate", "info"])
    def test_unparseable_beta_exits_1(self, tmp_path, capsys, command):
        if command == "simulate":
            args = ["simulate", "--theta", 0.8, "--n", 10, "--seed", 1]
        else:
            args = ["info", "--input", simulate_to(tmp_path, n=50),
                    "--theta", 0.8]
        capsys.readouterr()
        assert run(args + ["--beta", "0.5,abc"]) == 1
        assert "cannot parse --beta '0.5,abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flag", [
        (["fit", "--max-iter", 0], "--max-iter"),
        (["fit", "--eps-tail", 0], "--eps-tail"),
        (["fit", "--eps-tail", "nan"], "--eps-tail"),
        (["verify", "--eps-tail", -1], "--eps-tail"),
        (["verify", "--tol-second", "nan"], "--tol-second"),
        (["verify", "--seed", -1], "--seed"),
        (["simulate", "--beta", "0.5", "--theta", 1, "--n", 10, "--seed", -1],
         "--seed"),
        (["simulate", "--beta", "0.5", "--theta", "nan", "--n", 10, "--seed", 1],
         "--theta"),
    ])
    def test_bad_flag_value_exits_1(self, tmp_path, capsys, args, flag):
        if args[0] == "fit":
            args = args + ["--input", simulate_to(tmp_path, n=50)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(args + ["--output", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
        assert not out.exists()

    def test_grid_without_a_valid_point_exits_1(self, capsys):
        capsys.readouterr()
        assert run(["verify", "--grid", "5:-1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: no valid grid points to evaluate\n"

    def test_missing_subcommand_exits_1(self):
        assert run([]) == 1

    def test_verify_seed_recorded(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--grid", "0:1", "--seed", 7, "--output", out]) == 0
        assert json.loads(out.read_text())["seed"] == 7
        assert run(["verify", "--grid", "0:1", "--output", out]) == 0
        assert json.loads(out.read_text())["seed"] == 20260809

    def test_fit_defaults_to_observed_information(self, tmp_path):
        path = simulate_to(tmp_path, n=300, seed=4)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", path, "--output", out]) == 0
        assert json.loads(out.read_text())["info"]["kind"] == "observed"

    def test_info_defaults_to_both(self, tmp_path):
        path = simulate_to(tmp_path, n=50, seed=19)
        out = tmp_path / "info.json"
        assert run(["info", "--input", path, "--beta", "0.5,-0.3",
                    "--theta", 0.8, "--output", out]) == 0
        matrices = json.loads(out.read_text())["matrices"]
        assert set(matrices) == {"observed", "expected"}

    def test_info_text_prints_both_matrices(self, tmp_path):
        path = simulate_to(tmp_path, n=50, seed=19)
        out = tmp_path / "info.txt"
        assert run(["info", "--input", path, "--beta", "0.5,-0.3",
                    "--theta", 0.8, "--format", "text", "--output", out]) == 0
        text = out.read_text()
        assert "observed information matrix:" in text
        assert "expected information matrix:" in text


class TestDeterminism:
    def test_verify_payload_deterministic(self):
        a, _ = run_verification(grid=((2, 1.0),))
        b, _ = run_verification(grid=((2, 1.0),))
        assert a == b


class TestDependencies:
    def test_import_needs_only_numpy(self):
        """scipy and hypothesis are test dependencies; the package and its
        CLI must import without them."""
        code = ("import sys, nbmle, nbmle.cli; "
                "print(sorted({'scipy', 'hypothesis'} & set(sys.modules)))")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(nbmle.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
