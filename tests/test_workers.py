"""The contract of the forked workers that fit and info share.

Every output and every error is the same whether the O(n) passes ran in
workers or in the command's own process: results come back in task order
and are added in block order, and the earliest failing task's error is the
one reported.  No worker outlives its command.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import nbmle
import test_cli as base
from nbmle import cli, derivatives, estimator, model
from nbmle.cli import CliInputError, ingest_csv
from nbmle.exceptions import LinearPredictorOverflow
from nbmle.model import BLOCK_ROWS, Dataset, Params
from nbmle.workers import Workers, condition, shared_empty
from test_cli import _no_pool, run, simulate_to


def many_cpus(monkeypatch, cpus=4):
    """More usable CPUs than the machine may have: more workers than cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)


@pytest.fixture
def ranges(monkeypatch):
    """Bodies of two or more lines read in two to four ranges by workers, in
    blocks of two lines; the counts of ranges that ingest parsed, recorded
    here.  Row blocks of one row make a range of any line.  A file with an
    odd number of quotes may be one range: no cut follows its last quote;
    and so may one of a header and a line."""
    monkeypatch.setattr(model, "BLOCK_ROWS", 1)
    monkeypatch.setattr(cli, "_READ_LINES", 2)
    many_cpus(monkeypatch)
    counts = []
    mapped = Workers.map

    def recorded(self, fn, tasks, *args):
        if fn is cli._parse_range:
            with open(args[0][0], "rb") as fh:
                data = fh.read()
            counts.append(len(tasks))
            assert len(tasks) >= 2 or data.count(b'"') % 2 \
                or data.count(b"\n") <= 2, tasks
        return mapped(self, fn, tasks, *args)

    monkeypatch.setattr(Workers, "map", recorded)
    yield counts


class TestIngestInRanges(base.TestIngest):
    """TestIngest's files, texts and errors, read in ranges."""

    @pytest.fixture(autouse=True)
    def in_ranges(self, ranges):
        yield


class TestIngestFastPathInRanges(base.TestIngestFastPath):
    """TestIngestFastPath's readers agree, and word the same errors, in
    ranges; two tests count the row parser's calls in this process, which
    workers do not."""

    test_only_the_refused_block_goes_to_the_row_parser = None
    test_refused_quoted_block_alone_goes_to_the_row_parser = None

    @pytest.fixture(autouse=True)
    def in_ranges(self, ranges):
        yield


class TestResponseBoundsInRanges(base.TestResponseBounds):
    @pytest.fixture(autouse=True)
    def in_ranges(self, ranges):
        yield


class TestRanges:
    ROWS = [f"{k % 5},{k / 4}" for k in range(40)]

    def error(self, path):
        with pytest.raises(CliInputError) as err:
            ingest_csv(str(path))
        return str(err.value)

    def test_the_earlier_range_names_its_bad_cell(self, tmp_path, ranges):
        rows = list(self.ROWS)
        rows[4], rows[33] = "1,oops", "2,late"
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "\n".join(rows) + "\n")
        assert self.error(path) == (
            f"{path}: non-numeric cell at row 6, column 'x1': 'oops'")
        assert ranges == [4]

    def test_blank_lines_leave_later_row_numbers(self, tmp_path, ranges):
        rows = list(self.ROWS)
        rows[2] += "\n\n\r\n"  # blank lines in the first range
        rows[35] = "3,0.5,1"
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "\n".join(rows) + "\n")
        assert self.error(path) == f"{path}: row 37 has 3 cells, expected 2"
        assert ranges == [4]

    def test_cuts_fall_where_the_quotes_are_even(self, tmp_path, ranges):
        """Each row spans three lines inside one quoted cell; a range that
        began inside it would read a bare '0.25' as a row."""
        rows = [f'{k % 5},"\n{k / 4}\n"' for k in range(40)]
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n" + "\n".join(rows) + "\n")
        ds = ingest_csv(str(path))
        np.testing.assert_array_equal(ds.X[:, 1], [k / 4 for k in range(40)])
        assert ranges == [4]

    @pytest.mark.parametrize("cell, words", [
        ("3.5", "columns [0, 1] are all constant; at most one (the "
                "intercept) is allowed"),
        ("inf", "X contains non-finite entries"),
    ])
    def test_dataset_checks_in_the_workers(self, tmp_path, ranges, cell,
                                           words):
        rows = [f"{k % 5},3.5,{k / 4}" for k in range(40)]
        rows[30] = f"1,{cell},0.5"
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n" + "\n".join(rows) + "\n")
        assert self.error(path) == f"{path}: {words}"
        assert ranges == [4]

    def test_blank_lines_close_up_in_order(self, tmp_path, ranges):
        rows = list(self.ROWS)
        for k in (1, 12, 25):
            rows[k] += "\n\r\n\n"
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n\n" + "\n".join(rows) + "\n\n\n")
        ds = ingest_csv(str(path))
        np.testing.assert_array_equal(ds.y, [k % 5 for k in range(40)])
        np.testing.assert_array_equal(ds.X[:, 1], [k / 4 for k in range(40)])
        assert ranges == [4]


    @pytest.mark.parametrize("head, sep", [("y,x1\r", "\r"),
                                           ("\ufeff\ry,x1\r\r", "\r\r")])
    def test_lone_cr_lines_are_cut_at_cr(self, tmp_path, ranges, head, sep):
        """A file whose lines a lone \r ends, and no \n, is read in ranges
        cut at \r, to the Dataset of one range."""
        path = tmp_path / "d.csv"
        path.write_bytes((head + sep.join(self.ROWS) + "\r").encode())
        ds = ingest_csv(str(path))
        np.testing.assert_array_equal(ds.y, [k % 5 for k in range(40)])
        np.testing.assert_array_equal(ds.X[:, 1], [k / 4 for k in range(40)])
        assert ranges == [4]


class TestLargeCountPath:
    """Past LARGE_COUNT_SWITCH the workers place their own counts among the
    distinct counts, which the Dataset collected: a task carries tables
    sized by the distinct counts, not by n."""

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("large") / "d.csv"
        assert run(["simulate", "--beta", "0.1,0.3,-0.2", "--theta", 0.6,
                    "--n", 3 * BLOCK_ROWS + 5, "--seed", 9,
                    "--output", path]) == 0
        lines = path.read_text().splitlines(keepends=True)
        lines[BLOCK_ROWS + 2] = "1000017" + lines[BLOCK_ROWS + 2][1:]
        path.write_text("".join(lines))
        return path

    def test_same_bytes_on_any_cpu_count(self, data, tmp_path, monkeypatch):
        outputs = []
        for cpus in (4, 1):
            with monkeypatch.context() as m:
                one_cpu(m) if cpus == 1 else many_cpus(m, cpus)
                out = tmp_path / f"{cpus}.json"
                assert run(["fit", "--input", data, "--output", out]) == 0
                outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["converged"]

    @pytest.mark.parametrize("blocks", [2, 6])
    def test_task_arguments_stay_small(self, monkeypatch, blocks):
        import pickle

        from nbmle.special import LARGE_COUNT_SWITCH

        many_cpus(monkeypatch)
        n = blocks * BLOCK_ROWS
        rng = np.random.default_rng([71, n])
        y, X = shared_empty(n, np.int64), shared_empty((n, 2), float)
        y[:] = rng.poisson(3.0, n)
        y[n // 2] = LARGE_COUNT_SWITCH + 17
        X[:, 0], X[:, 1] = 1.0, rng.standard_normal(n)
        sizes, mapped = [], Workers.map

        def recorded(self, fn, tasks, *args):
            if fn is derivatives._block_sums:
                sizes.append(len(pickle.dumps(args)))
            return mapped(self, fn, tasks, *args)

        monkeypatch.setattr(Workers, "map", recorded)
        with Workers() as workers:
            workers.fork((y, X), 4)
            derivatives.grad_hess(Dataset(y, X, workers=workers),
                                  Params(np.array([1.0, 0.1]), 0.5))
        assert len(sizes) == 1 and sizes[0] < 20_000


class TestSameOutputOnAnyCpuCount:
    """fit and info print the same bytes with one usable CPU, where nothing
    is forked, as with four workers, on 3 row blocks and 5 rows."""

    COMMANDS = [
        ["fit"], ["fit", "--info", "expected"], ["fit", "--format", "text"],
        ["info", "--beta", "0.1,0.3,-0.2", "--theta", "0.6", "--info", "both"],
        ["info", "--beta", "0.1,0.3,-0.2", "--theta", "0.6", "--format", "text"],
    ]

    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("same") / "d.csv"
        assert run(["simulate", "--beta", "0.1,0.3,-0.2", "--theta", 0.6,
                    "--n", 3 * BLOCK_ROWS + 5, "--seed", 8,
                    "--output", path]) == 0
        return path

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_same_bytes(self, data, tmp_path, monkeypatch, capsys, command):
        outputs = []
        for cpus in (4, 1):
            with monkeypatch.context() as m:
                if cpus == 1:
                    one_cpu(m)
                else:
                    many_cpus(m, cpus)
                out = tmp_path / f"{cpus}.out"
                assert run(command + ["--input", data, "--output", out]) == 0
                outputs.append(out.read_bytes())
            assert multiprocessing.active_children() == []
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().out == ""

    def test_one_block_starts_no_pool(self, tmp_path, monkeypatch):
        path = simulate_to(tmp_path, n=BLOCK_ROWS, seed=3)
        monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
        many_cpus(monkeypatch)
        for command in self.COMMANDS:
            # simulate_to's two coefficients in place of the three above
            command = ["0.5,-0.3" if a == "0.1,0.3,-0.2" else a for a in command]
            assert run(command + ["--input", path,
                                  "--output", tmp_path / "o.json"]) == 0


def test_a_platform_without_fork_forks_nothing(monkeypatch):
    """Four CPUs but no fork start method: no worker forks, so the write
    turns take threading's Condition and Workers stays in this process."""
    many_cpus(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    assert isinstance(condition(8), threading.Condition)
    with Workers() as workers:
        workers.fork(None, 8)
        assert workers.count == 1


class TestNoWorkerOutlivesItsCommand:
    @pytest.fixture(autouse=True)
    def none_left(self, monkeypatch):
        many_cpus(monkeypatch)
        yield
        assert multiprocessing.active_children() == []

    def test_simulate_fit_info(self, tmp_path):
        path = simulate_to(tmp_path, n=2 * BLOCK_ROWS + 3, seed=4)
        assert multiprocessing.active_children() == []
        assert run(["fit", "--input", path, "--output", tmp_path / "f"]) == 0
        assert multiprocessing.active_children() == []
        assert run(["info", "--input", path, "--beta", "0.5,-0.3", "--theta",
                    0.8, "--output", tmp_path / "i"]) == 0

    def test_bad_cell_in_a_late_range(self, tmp_path, capsys):
        path = simulate_to(tmp_path, n=2 * BLOCK_ROWS + 3, seed=4)
        lines = path.read_text().splitlines(keepends=True)
        lines[-3] = "1,x\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(["fit", "--input", path]) == 1
        row = 2 * BLOCK_ROWS + 2
        assert capsys.readouterr().err == (
            f"error: {path}: non-numeric cell at row {row}, column 'x1': 'x'\n")

    def test_a_block_past_the_link_range(self, tmp_path, capsys):
        path = simulate_to(tmp_path, n=2 * BLOCK_ROWS + 3, seed=4)
        capsys.readouterr()
        assert run(["info", "--input", path, "--beta", "0.5,800", "--theta", 1,
                    "--info", "observed"]) == 1
        assert "linear predictor overflows exp() at row" in capsys.readouterr().err


class TestLateBlockOverflow:
    """A trial point whose late block fails is rejected alike in workers and
    here, under the caller's numpy error state.  The workers are forked
    under the warnings filter of the test, as a command's are forked under
    the filter its process started with."""

    @staticmethod
    def datasets(monkeypatch):
        """The same rows with four workers and with none."""
        many_cpus(monkeypatch)
        n = 3 * BLOCK_ROWS + 5
        rng = np.random.default_rng(5)
        y, X = shared_empty(n, np.int64), shared_empty((n, 3), float)
        y[:] = rng.poisson(2.0, n)
        X[:, 0] = 1.0
        X[:, 1:] = rng.standard_normal((n, 2))
        X[n - 7, 2] = 1e160  # x'beta stays small; the h_bb sums overflow
        X[n - 3, 1] = 50.0   # x'beta passes 700 at beta_1 = 15
        workers = Workers()
        workers.fork((y, X), 4)
        return workers, [Dataset(y, X, workers=workers),
                         Dataset(y.copy(), X.copy())]

    @pytest.mark.parametrize("warn", ["default", "error"])
    def test_trial_rejected_alike(self, monkeypatch, warn):
        with warnings.catch_warnings():
            warnings.simplefilter(warn, RuntimeWarning)
            workers, datasets = self.datasets(monkeypatch)
            with workers:
                for ds in datasets:
                    beta = np.array([0.1, 0.2, 1e-160])
                    assert estimator._trial(ds, beta, 0.0, -np.inf) is None
                    beta[1] = 15.0
                    assert estimator._trial(ds, beta, 0.0, -np.inf) is None

    def test_same_row_named(self, monkeypatch):
        workers, datasets = self.datasets(monkeypatch)
        rows = []
        # The h_bb sums of the block before overflow, unwarned.
        with workers, np.errstate(over="ignore"):
            for ds in datasets:
                with pytest.raises(LinearPredictorOverflow) as err:
                    derivatives.grad_hess(
                        ds, Params(np.array([0.1, 15.0, 0.0]), 1.0))
                rows.append((err.value.row, str(err.value)))
        assert rows[0] == rows[1] and rows[0][0] == 3 * BLOCK_ROWS + 2

    def test_error_state_goes_with_the_blocks(self, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            workers, datasets = self.datasets(monkeypatch)
            with workers:
                for ds in datasets:
                    with pytest.raises(RuntimeWarning, match="overflow"):
                        derivatives.grad_hess(
                            ds, Params(np.array([0.1, 0.2, 1e-160]), 1.0))


class TestJsonStreamed:
    """A JSON payload is written as json.dumps(payload, indent=2) + "\\n"."""

    @pytest.mark.parametrize("command", [
        ["fit", "--input", "{csv}", "--info", "expected"],
        ["info", "--input", "{csv}", "--beta", "0.5,-0.3", "--theta", 0.8],
        ["verify"],
    ], ids=lambda c: c[0])
    def test_same_bytes_as_dumps(self, tmp_path, command):
        csv_path = simulate_to(tmp_path)
        out = tmp_path / "out.json"
        args = [str(a).format(csv=csv_path) for a in command]
        assert run(args + ["--output", out]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_parallel_ingest_memory(tmp_path):
    """The command's peak resident memory plus each worker's stays within
    one interpreter with numpy and 6 MB of block scratch per process, and
    y and X twice (VmHWM; the joined workers' largest ru_maxrss).  tracemalloc
    sees neither the shared rows nor the workers."""
    n = 200_000
    path = simulate_to(tmp_path, beta="0.0,0.3,-0.2,0.25", theta=0.5, n=n,
                       seed=1)
    code = (
        "import os, resource, sys\n"
        "from nbmle.cli import main\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "assert main(['fit', '--input', sys.argv[1], '--output', sys.argv[2]]) == 0\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "print(int(status.split()[0]),\n"
        "      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(nbmle.__file__)))
    base_kb = int(subprocess.run(
        [sys.executable, "-c", "import nbmle.cli\n" + code.split("\n")[4]
         + "\nprint(int(status.split()[0]))"],
        env=env, capture_output=True, text=True, check=True).stdout)
    out = subprocess.run([sys.executable, "-c", code, str(path),
                          str(tmp_path / "fit.json")],
                         env=env, capture_output=True, text=True, check=True)
    parent_kb, worker_kb = map(int, out.stdout.split())
    data_kb = 8 * n * (4 + 1) / 1024
    # y and X once in the command and once across the two workers, which
    # each map the rows they parse and reduce.
    assert parent_kb + 2 * worker_kb < 3 * (base_kb + 6 * 1024) + 2 * data_kb
