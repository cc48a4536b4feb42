import hashlib
import io
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
from nbmle.cli import CliInputError, ingest_csv, main
from nbmle.model import BLOCK_ROWS
from nbmle.verification import run_verification


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
    raise AssertionError("a command started a worker pool")


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

    @pytest.mark.parametrize("text", ["y,x1", "y,x1\n", "y,x1\r\n"])
    def test_header_alone_has_no_data_rows(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        with pytest.raises(CliInputError, match="no data rows$"):
            ingest_csv(str(path))

    def test_non_utf8_header_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"y,x1,x\xff2\n1,2,3\n")
        capsys.readouterr()
        assert run(["fit", "--input", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 1 is not UTF-8 text\n")

    def test_non_utf8_line_past_the_first_blocks_is_input_error(self, tmp_path,
                                                                 capsys):
        lines = [b"y,x1,x2"] + [b"%d,%d.5,2" % (k % 5, k % 7)
                                for k in range(19_999)]
        lines[15_000] = b"\xff\xfe,1,2"
        path = tmp_path / "d.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        capsys.readouterr()
        assert run(["fit", "--input", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 15001 is not UTF-8 text\n")

    @pytest.mark.parametrize("data, line", [
        # A lone \r ends a line, as csv reads it; a blank line counts.
        (b"y,x1\r\n0,0.5\r1,2\n\n\xe2\x82,1\n", 5),
        # A byte-order mark is UTF-8 text; an overlong encoding is not.
        (b"\xef\xbb\xbfy,x1\r\n0,0.5\r\n1,\xc0\xaf\r\n", 3),
    ], ids=["lone_cr", "byte_order_mark"])
    def test_non_utf8_line_number(self, tmp_path, data, line):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(CliInputError, match=f"line {line} is not UTF-8 text$"):
            ingest_csv(str(path))


class RowParserRan(Exception):
    """The row parser was called on a read meant to be numpy's alone."""


class TestIngestFastPath:
    """numpy's reader returns what the row parser returns, or defers to it."""

    @staticmethod
    def by_numpy(monkeypatch, read, *args, **kwargs):
        """read(*args, **kwargs) with every block parsed by numpy, or None
        if a block reaches the row parser."""
        def ran(*_):
            raise RowParserRan
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_rows", ran)
            try:
                return read(*args, **kwargs)
            except RowParserRan:
                return None

    @staticmethod
    def by_rows(monkeypatch, read, *args, **kwargs):
        """read(*args, **kwargs) with every block parsed by the row parser."""
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_numeric", lambda *_: None)
            return read(*args, **kwargs)

    def check(self, path, monkeypatch, response="y", **kwargs):
        """ingest_csv through numpy's reader, in blocks of the current size
        and of two lines, and through the row parser alone give
        bit-identical Datasets."""
        fast = self.by_numpy(monkeypatch, ingest_csv, str(path), response,
                             **kwargs)
        assert fast is not None
        with monkeypatch.context() as m:
            m.setattr(cli, "_READ_LINES", 2)
            small = self.by_numpy(monkeypatch, ingest_csv, str(path),
                                  response, **kwargs)
            assert small is not None
        rows = self.by_rows(monkeypatch, ingest_csv, str(path), response,
                            **kwargs)
        for ds in (fast, small):
            assert ds.names == rows.names
            assert ds.y.dtype == rows.y.dtype == np.int64
            assert ds.X.dtype == rows.X.dtype == np.float64
            assert ds.y.shape == rows.y.shape and ds.X.shape == rows.X.shape
            assert ds.y.tobytes() == rows.y.tobytes()
            assert ds.X.tobytes() == rows.X.tobytes()
        return fast

    @staticmethod
    def same_tables(fast, ref):
        """Two readers' (names, y, X) are equal, bit for bit."""
        assert fast[0] == ref[0]
        for a, b in zip(fast[1:], ref[1:]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

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

    def test_underscored_cells_use_the_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n1_0,0.5\n2,-1_000.0\n1,0.25\n")
        assert self.by_numpy(monkeypatch, cli._read, str(path), "y", 1) is None
        ds = ingest_csv(str(path))
        assert ds.n == 3
        assert ds.y[1] == 2

    def test_quoted_cells_read_by_numpy_as_by_the_row_parser(self, tmp_path,
                                                             monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text('y,x1\n"0",0.5\n2,"-1.0"\n1,0.25\n')
        self.same_tables(
            self.by_numpy(monkeypatch, cli._read, str(path), "y", 1),
            self.by_rows(monkeypatch, cli._read, str(path), "y", 1))
        ds = ingest_csv(str(path))
        assert ds.n == 3
        assert ds.y[1] == 2

    @pytest.mark.parametrize("column", ["y", "x1"])
    @pytest.mark.parametrize("cell", [
        '"1"', ' "1"', '"1" ', '"1"2', '"1""2"', '"1,5"', '""', '"1\n"',
        '"\n1"', '"1\n\n"', '" 1 "', '"1e3"', '"-0.5"', '"nan"', '"0x1"',
        '"1_0"', "'1'", '1"', '"1', '"',
    ])
    def test_quoted_cell_parity(self, tmp_path, monkeypatch, column, cell):
        """numpy's reader takes a quoted cell only where csv and float() do,
        with the same value, and otherwise defers to the row parser."""
        path = tmp_path / "d.csv"
        row = f"{cell},0.5" if column == "y" else f"2,{cell}"
        path.write_text(f"y,x1\n{row}\n1,0.25\n")
        fast = self.by_numpy(monkeypatch, cli._read, str(path), "y", 1)
        try:
            ref = self.by_rows(monkeypatch, cli._read, str(path), "y", 1)
        except CliInputError:
            assert fast is None
            return
        if fast is not None:
            self.same_tables(fast, ref)

    def test_comment_text_in_a_cell_is_non_numeric(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.5\n1,2 # note\n")
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert str(err.value).endswith(
            "non-numeric cell at row 3, column 'x1': '2 # note'")

    def test_cell_numpy_strips_but_float_refuses(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n0,0.5\n1,\x1c2\n")
        assert self.by_numpy(monkeypatch, cli._read, str(path), "y", 1) is None
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


    @pytest.mark.parametrize("lines", [1, 3, 5])
    def test_blocks_crlf_bom_blank_lines(self, tmp_path, monkeypatch, lines):
        """Blank lines before the header, between rows and at the end fall
        on both sides of the block boundaries."""
        rows = [f" {k % 7} , {k / 8}\t" for k in range(40)]
        body = "".join(r + "\r\n" * (1 + k % 3) for k, r in enumerate(rows))
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbf\r\n\r\n"
                         + ("y , x1\r\n" + body + "\r\n\r\n").encode())
        monkeypatch.setattr(cli, "_READ_LINES", lines)
        ds = self.check(path, monkeypatch)
        np.testing.assert_array_equal(ds.y, [k % 7 for k in range(40)])
        np.testing.assert_array_equal(ds.X[:, 1], [k / 8 for k in range(40)])

    @pytest.mark.parametrize("bad, words", [
        ("3,oops", "non-numeric cell at row 27, column 'x1': 'oops'"),
        ("2.5,0.5", "response must be a non-negative integer; got '2.5' at "
                    "row 27, column 'y'"),
        ("3,0.5,1", "row 27 has 3 cells, expected 2"),
    ])
    def test_bad_row_in_a_late_block_named_by_the_row_parser(
            self, tmp_path, monkeypatch, bad, words):
        lines = ["y,x1"] + [f"{k % 5},{k / 4}" for k in range(30)]
        lines[26] = bad
        path = tmp_path / "d.csv"
        # Blank lines ahead of the bad row: rows, not lines, are counted.
        path.write_text("\n\n".join(lines[:9]) + "\n" + "\n".join(lines[9:]))
        monkeypatch.setattr(cli, "_READ_LINES", 4)
        assert self.by_numpy(monkeypatch, cli._read, str(path), "y", 1) is None
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert str(err.value) == f"{path}: {words}"

    def test_block_of_short_rows_named_by_the_row_parser(self, tmp_path,
                                                         monkeypatch):
        # The response is the last column, and a whole block lacks it.
        lines = ["x1,y"] + [f"{k / 4},{k % 5}" for k in range(30)]
        lines[25:29] = ["0.5"] * 4
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "_READ_LINES", 4)
        assert self.by_numpy(monkeypatch, cli._read, str(path), "y", 1) is None
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        assert str(err.value) == f"{path}: row 26 has 1 cells, expected 2"

    def test_quoted_file_read_in_blocks(self, tmp_path, monkeypatch):
        lines = ["y,x1"] + [f'"{k % 4}",{k / 8}' if k % 3 else f'{k % 4},"{k / 8}"'
                            for k in range(30)]
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "_READ_LINES", 2)
        ds = self.check(path, monkeypatch)
        np.testing.assert_array_equal(ds.y, [k % 4 for k in range(30)])

    def same_as_rows(self, path, monkeypatch):
        """ingest_csv and the row parser alone give bit-identical Datasets;
        the blocks that reached the row parser, as (first row, rows)."""
        calls = []
        parse_rows = cli._parse_rows

        def counted(path, lines, header, y_col, first_row):
            body = parse_rows(path, lines, header, y_col, first_row)
            calls.append((first_row, len(body)))
            return body

        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_rows", counted)
            ds = ingest_csv(str(path))
        rows = self.by_rows(monkeypatch, ingest_csv, str(path))
        self.same_tables((ds.names, ds.y, ds.X), (rows.names, rows.y, rows.X))
        return ds, calls

    def test_only_the_refused_block_goes_to_the_row_parser(self, tmp_path,
                                                           monkeypatch):
        lines = ["y,x1"] + [f"{k % 5},{k / 4}" for k in range(30)]
        lines[14] = "3,1_3.25"
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "_READ_LINES", 4)
        ds, calls = self.same_as_rows(path, monkeypatch)
        # Rows 12-15 are the fourth block of four lines.
        assert calls == [(12, 4)]
        assert ds.n == 30 and ds.X[13, 1] == 13.25

    def test_refused_quoted_block_alone_goes_to_the_row_parser(
            self, tmp_path, monkeypatch):
        lines = ["y,x1"] + [f'"{k % 4}",{k / 8}' for k in range(30)]
        lines[25] = '1,"2_0.5"'
        path = tmp_path / "d.csv"
        path.write_text("\n\n".join(lines) + "\n")
        monkeypatch.setattr(cli, "_READ_LINES", 2)
        assert self.by_numpy(monkeypatch, cli._read, str(path), "y", 1) is None
        ds, calls = self.same_as_rows(path, monkeypatch)
        # Blocks of two lines: row 24 and the blank line after it.
        assert calls == [(24, 1)]
        assert ds.n == 30 and ds.X[24, 1] == 20.5

    @pytest.mark.parametrize("lines", [1, 2, 3])
    def test_quoted_cell_across_a_block_boundary(self, tmp_path, monkeypatch,
                                                 lines):
        """A block goes on until its quotes are even in number, so a cell
        whose quotes span lines is read whole, as csv reads the file."""
        rows = [f'{k % 4},"{k / 8}"' for k in range(12)]
        rows[4] = '1,"\n0.5\n"'
        rows[7] = '"2\r\n",0.25'
        path = tmp_path / "d.csv"
        path.write_bytes(("y,x1\r\n" + "\r\n".join(rows) + "\r\n").encode())
        monkeypatch.setattr(cli, "_READ_LINES", lines)
        ds, _ = self.same_as_rows(path, monkeypatch)
        assert ds.n == 12 and ds.X[4, 1] == 0.5 and ds.y[7] == 2


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

    def test_stdout_matches_file_across_write_blocks(self, tmp_path, capfd):
        args = ["simulate", "--beta", "0.2,0.1,-0.1", "--theta", 1.5,
                "--n", BLOCK_ROWS + 7, "--seed", 3]
        capfd.readouterr()
        assert run(args) == 0
        printed = capfd.readouterr().out
        path = tmp_path / "s.csv"
        assert run(args + ["--output", path]) == 0
        assert path.read_text() == printed
        lines = printed.split("\n")
        assert lines[0] == "y,x1,x2" and lines[-1] == ""
        assert len(lines) == BLOCK_ROWS + 9

    # Twelve full write blocks and five rows more; the digest was recorded
    # before the blocks were formatted in worker processes, when they were
    # three blocks of 65,536 rows and five rows more.
    MULTI_BLOCK = ["simulate", "--beta", "0.0,0.3,-0.2,0.25", "--theta", 0.5,
                   "--n", 196_613, "--seed", 401]
    MULTI_BLOCK_SHA256 = (
        "0541f8a73cf8eb610c9b7ab969d4c36c17414b9249725eb8fad9690a857bacb9")

    def test_multi_block_bytes_pinned(self, tmp_path, capfd, monkeypatch):
        assert 196_613 == 12 * BLOCK_ROWS + 5
        path = tmp_path / "m.csv"
        assert run(self.MULTI_BLOCK + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.MULTI_BLOCK_SHA256
        capfd.readouterr()
        assert run(self.MULTI_BLOCK) == 0
        printed = capfd.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == self.MULTI_BLOCK_SHA256
        # One usable CPU: the blocks are formatted in this process.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        path = tmp_path / "one_cpu.csv"
        assert run(self.MULTI_BLOCK + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.MULTI_BLOCK_SHA256

    @pytest.mark.parametrize("cpus", [4, 1])
    def test_multi_block_bytes_through_a_pipe(self, monkeypatch, cpus):
        """The workers, or on one CPU the command, write the blocks straight
        into a real OS pipe, which a reader drains to its end."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        if cpus == 1:
            monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        reader = subprocess.Popen(
            [sys.executable, "-c", "import hashlib, sys; print(hashlib.sha256("
             "sys.stdin.buffer.read()).hexdigest())"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        out = io.TextIOWrapper(reader.stdin, encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", out)
        try:
            code = run(self.MULTI_BLOCK)
        finally:
            monkeypatch.undo()
            out.close()
            digest = reader.stdout.read().decode().strip()
            reader.wait(timeout=60)
        assert code == 0
        assert digest == self.MULTI_BLOCK_SHA256

    @pytest.mark.parametrize("cpus", [4, 1])
    def test_blocks_relay_no_bytes(self, tmp_path, monkeypatch, cpus):
        """Each block is written where it is formatted: the command receives
        None for each, from its workers or from its own calls."""
        results = []
        real = cli.Workers.map

        def recording(self, fn, tasks, *args):
            for result in real(self, fn, tasks, *args):
                results.append(result)
                yield result

        monkeypatch.setattr(cli.Workers, "map", recording)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        simulate_to(tmp_path, n=3 * BLOCK_ROWS + 5, seed=2)
        assert results == [None] * 4

    @pytest.mark.parametrize("n, one_cpu", [(2000, False), (3 * BLOCK_ROWS, True)])
    def test_no_pool_imports_no_multiprocessing(self, tmp_path, n, one_cpu):
        """One block, or one usable CPU: the turns take threading's Condition
        and a fresh command never imports multiprocessing."""
        code = ("import os, sys\n"
                "if sys.argv[1] == 'one':\n"
                "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "from nbmle.cli import main\n"
                "assert main(sys.argv[2:]) == 0\n"
                "print('multiprocessing' in sys.modules)")
        if one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity API on this platform")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(nbmle.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code, "one" if one_cpu else "all", "simulate",
             "--beta", "0.5,-0.3", "--theta", "0.8", "--n", str(n), "--seed", "42",
             "--output", str(tmp_path / "s.csv")],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "False\n"

    # No regressor columns, so each block's redraw draws nothing; three full
    # blocks and five rows more.  The digest was recorded before the
    # regressors were drawn block by block.
    INTERCEPT_ONLY = ["simulate", "--beta", 0.7, "--theta", 0.5,
                      "--n", 3 * BLOCK_ROWS + 5, "--seed", 5]
    INTERCEPT_ONLY_SHA256 = (
        "872d79ca48d1447e45b201d8e0b0a53abbca0a15a86c61c6b813a3992615f4d0")

    def test_intercept_only_bytes_pinned(self, tmp_path, monkeypatch):
        path = tmp_path / "i.csv"
        assert run(self.INTERCEPT_ONLY + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.INTERCEPT_ONLY_SHA256
        assert path.read_text().startswith("y\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        assert run(self.INTERCEPT_ONLY + ["--output", path]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == self.INTERCEPT_ONLY_SHA256

    def test_one_block_starts_no_pool(self, tmp_path, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        simulate_to(tmp_path, n=2000, seed=42)

    def test_overflow_names_its_row_of_the_whole_draw(self, capsys):
        """The means are formed block by block; an overflow in a late block
        names its row of the whole draw, as x'beta over all rows did."""
        n, seed, slope = 200_000, 4, 166.0
        z = np.random.default_rng(seed).standard_normal((n, 1))[:, 0]
        row = int(np.argmax(np.abs(slope * z) > 700.0))
        assert 2 * BLOCK_ROWS < row < n - BLOCK_ROWS
        capsys.readouterr()
        assert run(["simulate", "--beta", f"0,{slope}", "--theta", 1.0,
                    "--n", n, "--seed", seed]) == 1
        assert capsys.readouterr().err == (
            f"error: linear predictor overflows exp() at row {row}: "
            f"x'beta = {float(slope * z[row])!r} (|x'beta| must stay <= 700)\n")

    def test_workers_bounded_by_blocks_and_joined(self, tmp_path, monkeypatch):
        real = multiprocessing.get_context
        sizes = []

        class Recording:
            def __init__(self, method):
                self.ctx = real(method)

            def Pool(self, processes, *args):
                sizes.append(processes)
                return self.ctx.Pool(processes, *args)

        monkeypatch.setattr(multiprocessing, "get_context", Recording)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(64)), raising=False)
        simulate_to(tmp_path, n=2 * BLOCK_ROWS + 1, seed=1)
        if "fork" in multiprocessing.get_all_start_methods():
            assert sizes == [3]
        assert multiprocessing.active_children() == []

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch):
        """`nbmle simulate ... | head -1`: the reader leaves after one line,
        and the command exits 0, silently, with its workers gone."""
        reader = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.stdin.readline()"],
            stdin=subprocess.PIPE)
        out = io.TextIOWrapper(reader.stdin, encoding="utf-8")
        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", out)
        try:
            code = run(["simulate", "--beta", "0.0,0.3,-0.2,0.25", "--theta", 0.5,
                        "--n", 196_613, "--seed", 401])
        finally:
            monkeypatch.undo()
            out.close()
            reader.wait()
        assert code == 0
        assert capsys.readouterr().err == ""
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
        # Every entry carries an expectation and meets it.
        entries = payload["entries"]
        assert len(entries) == 21
        for e in entries:
            assert e["expected"] in ("HOLDS", "FAILS"), e
            assert e["verdict"] == e["expected"], e
        # The expected failures are the gamma-difference routes that miss
        # the reparameterisation factors, and the survivor-at-j tail
        # convention; everything else holds.
        assert {(e["check"], e["pair"]) for e in entries
                if e["expected"] == "FAILS"} == {
            ("digamma_chain", "fd_derivative_vs_digamma_diff"),
            ("digamma_chain", "digamma_diff_vs_scaled_sum"),
            ("trigamma_chain", "fd_second_vs_trigamma_diff"),
            ("trigamma_chain", "trigamma_diff_vs_weighted_sum"),
            ("tail_interchange_survivor_j", "survivor_at_j_vs_double_sum"),
        }

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

    def test_grid_point_with_underflowing_step_is_invalid(self, tmp_path,
                                                          capsys):
        """At theta = 1e-300 the second-difference step squared underflows:
        the point is invalid, not a ZeroDivisionError."""
        assert run(["verify", "--grid", "50:1e-300"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: no valid grid points to evaluate")
        out = tmp_path / "verify.json"
        assert run(["verify", "--grid", "50:1e-300,5:1", "--output", out]) == 3
        reports = json.loads(out.read_text())["identity_reports"]
        assert reports["trigamma_chain"]["invalid_points"] == [[50, 1e-300]]
        assert reports["trigamma_chain"]["grid"] == [[5, 1.0]]

    def test_grid_point_past_ln_gamma_range_is_invalid(self, tmp_path):
        """At theta = 1e-306, ln Gamma(1/theta) is past the double range, so
        the two chain checks that difference it mark the point invalid, as
        trigamma_sum does for trigamma(1e-306), and the run passes."""
        out = tmp_path / "verify.json"
        assert run(["verify", "--grid", "5:1e-306,5:1", "--output", out]) == 0
        reports = json.loads(out.read_text())["identity_reports"]
        for check in ("digamma_chain", "trigamma_chain", "trigamma_sum"):
            assert reports[check]["invalid_points"] == [[5, 1e-306]]
            assert reports[check]["grid"] == [[5, 1.0]]

    def test_count_past_the_summing_range_is_invalid(self):
        """check_trigamma_sum's rewrites sum y terms; at y = 1e9 the point
        is invalid at once rather than a run of 1e9 Python steps."""
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(nbmle.__file__)))

        def verify(grid):
            return subprocess.run(
                [sys.executable, "-m", "nbmle.cli", "verify", "--grid", grid],
                env=env, capture_output=True, text=True, timeout=60)

        alone = verify("1000000000:1")
        assert alone.returncode == 1
        assert alone.stderr.splitlines()[-1] == (
            "error: no valid grid points to evaluate")
        mixed = verify("1000000000:1,5:1")
        assert mixed.returncode == 3
        reports = json.loads(mixed.stdout)["identity_reports"]
        assert {name: r["invalid_points"] for name, r in reports.items()} == {
            "digamma_sum": [], "digamma_chain": [], "trigamma_chain": [],
            "trigamma_sum": [[1000000000, 1.0]]}


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

    def test_theta_past_ln_gamma_range_is_input_error(self, tmp_path, capsys):
        # Past LARGE_COUNT_SWITCH the log sums take ln_gamma(y + 1/theta),
        # which at 1/theta = 1e307 is past the double range: inf, and the
        # range check that follows names theta.
        path = tmp_path / "big.csv"
        path.write_text("y,x1\n1000017,0.1\n3,0.2\n0,-0.3\n5,0.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["info", "--input", path, "--beta", "1,0.3",
                        "--theta", "1e-307", "--info", "observed"])
        assert code == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: theta=1e-307 is out of range: 1/theta^3 overflows")


    @pytest.mark.parametrize("theta, why", [
        ("1e200", "theta=1e+200 is out of range: 1/theta^2 underflows to zero"),
        # 1/theta^3 overflows, and the finite-sum summands would square
        # 1/theta past the double range.
        ("1e-160", "theta=1e-160 is out of range: 1/theta^3 overflows"),
        ("1e-300", "theta=1e-300 is out of range: 1/theta^3 overflows"),
    ])
    def test_theta_past_the_block_range_is_input_error(self, tmp_path, capsys,
                                                        theta, why):
        # Small counts: the finite sums come from the cumulative tables, and
        # the range check refuses theta before any array expression runs, on
        # the expected path before any series or pmf table.
        path = tmp_path / "small.csv"
        path.write_text("y,x1\n17,0.1\n3,0.2\n0,-0.3\n5,0.5\n")
        for info in ("observed", "expected"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["info", "--input", path, "--beta", "1,0.3",
                            "--theta", theta, "--info", info])
            assert code == 1
            assert capsys.readouterr().err.splitlines()[-1] == f"error: {why}"


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

    @pytest.mark.parametrize("grid", ["5:-1", "0:0"])
    def test_grid_without_a_valid_point_exits_1(self, capsys, grid):
        capsys.readouterr()
        assert run(["verify", "--grid", grid]) == 1
        err = capsys.readouterr().err
        assert err == "error: no valid grid points to evaluate\n"

    def test_zero_scale_point_is_invalid(self, tmp_path):
        out = tmp_path / "verify.json"
        assert run(["verify", "--grid", "1:1,0:0", "--output", out]) == 0
        for rep in json.loads(out.read_text())["identity_reports"].values():
            assert rep["grid"] == [[1, 1.0]]
            assert rep["invalid_points"] == [[0, 0.0]]

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


class TestMemory:
    """At n = 200,000, p = 4, ingest holds its n-row data and block
    scratch, and simulate block scratch alone, measured by tracemalloc's
    peak."""

    BIG = dict(beta="0.0,0.3,-0.2,0.25", theta=0.5, n=200_000, seed=1)

    @pytest.mark.parametrize("copy", ["clean", "underscore", "quoted"])
    def test_ingest_holds_y_x_and_block_scratch(self, tmp_path, monkeypatch,
                                                copy):
        """A cell in the last block that only the row parser reads costs one
        block of scratch, and a quoted file streams in blocks like any
        other.  With one usable CPU, where tracemalloc sees every byte."""
        import re
        import tracemalloc

        path = simulate_to(tmp_path, **self.BIG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        lines = path.read_text().splitlines(keepends=True)
        if copy == "underscore":  # .1234 becomes .1_234, the same value
            lines[-2] = re.sub(r"\.(\d)(\d)", r".\1_\2", lines[-2], count=1)
        elif copy == "quoted":
            lines = ['"' + ln[:-1].replace(",", '","') + '"\n' for ln in lines]
        path.write_text("".join(lines))
        del lines
        tracemalloc.start()
        try:
            ds = ingest_csv(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.X.shape == (200_000, 4)
        assert peak < ds.X.nbytes + ds.y.nbytes + 2e6

    def test_simulate_draw_holds_no_design(self, monkeypatch):
        import tracemalloc

        import nbmle.mixture

        class Drawn(Exception):
            pass

        def traced(lam_of, blocks, theta, rng):
            raise Drawn(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(nbmle.mixture, "gamma_states", traced)
        n = self.BIG["n"]
        args = ["simulate", "--beta", self.BIG["beta"], "--theta", 0.5,
                "--seed", 1, "--n"]
        with pytest.raises(Drawn):  # what a first run imports, untraced
            run(args + [1])
        tracemalloc.start()
        try:
            with pytest.raises(Drawn) as drawn:
                run(args + [n])
        finally:
            tracemalloc.stop()
        # The means and one block's scratch: the regressors, 8n per
        # column, are drawn, used and dropped block by block.
        assert drawn.value.args[0] < 8 * n + 2e6

    def test_simulate_holds_no_n_vector(self, tmp_path, monkeypatch):
        """The whole command on one usable CPU, where tracemalloc sees the
        formatting too: one block's draws and text, flat in n.  Holding the
        counts alone would take 8 bytes a row, 3.2 MB here."""
        import tracemalloc

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        simulate_to(tmp_path, **dict(self.BIG, n=1))  # imports, untraced
        tracemalloc.start()
        try:
            simulate_to(tmp_path, **dict(self.BIG, n=2 * self.BIG["n"]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 7e6


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

    def test_cli_import_loads_only_what_every_command_runs(self):
        """The commands import the estimator, the Fisher blocks, the sampler
        and verify when they run; the package resolves its exports lazily."""
        code = ("import sys, nbmle.cli; "
                "print(sorted(m for m in sys.modules if m in {'nbmle.' + k for k "
                "in ('verification', 'identities', 'mixture', 'estimator')})); "
                "from nbmle import fit, mixture_pmf, grad_hess; "
                "print(fit.__module__, mixture_pmf.__module__, grad_hess.__module__)")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(nbmle.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.splitlines() == [
            "[]", "nbmle.estimator nbmle.mixture nbmle.derivatives"]
