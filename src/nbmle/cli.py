"""Command-line interface: fit, simulate, verify, info.

Exit codes: 0 success, 1 input/usage error, 2 non-convergence,
3 verification failure.

This module holds argument parsing, CSV ingestion and the four commands;
the verification program itself lives in nbmle.verification.  Every
default is stated once, in _build_parser, and each command reads the
parsed namespace.  All commands are deterministic given their flags and
seed.  JSON is the canonical output format and carries a schema_version
field; TEXT output renders the same numbers to 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import warnings
from array import array
from itertools import islice

import numpy as np

from .estimator import FitOptions, FitResult, fit
from .exceptions import (
    AllZeroResponseError,
    CollinearColumnsError,
    DomainError,
    LinearPredictorOverflow,
    QuadratureConvergenceError,
    TruncationCapExceeded,
)
from .fisher import InfoKind, expected_info, observed_info
from .mixture import sample_counts
from .model import DEFAULT_EPS_TAIL, Dataset, Params, _row_blocks, link_mean
from .verification import SCHEMA_VERSION, run_verification


class CliInputError(Exception):
    """Any user-input problem that maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise CliInputError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# Counts above 2**53 are not all representable in a float64 cell.
MAX_RESPONSE = 2 ** 53

# Lines per block of a CSV body that numpy parses: the text held at a
# time stays small and flat in n.
_READ_LINES = 1 << 12

# ASCII control characters that numpy strips from a cell as whitespace and
# float() does not; a file holding one is left to the row parser.
_NUMPY_ONLY_SPACE = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def ingest_csv(path: str, response_column: str = "y",
               no_intercept: bool = False) -> Dataset:
    """Load a header-row CSV into a Dataset.

    The response column must hold non-negative integers up to MAX_RESPONSE;
    every other column becomes a regressor.  An all-ones intercept column
    is prepended unless no_intercept is set.  Errors carry row/column
    diagnostics.  The body is parsed block by block, by numpy where it can
    and by the row parser where numpy refuses, straight into y and X.
    """
    lead = 0 if no_intercept else 1
    try:
        names, y, X = _read(path, response_column, lead)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise CliInputError(f"{path}: line {_first_non_utf8_line(path)} "
                            f"is not UTF-8 text") from None
    if X.shape[1] == 0:
        raise CliInputError(f"{path}: no regressor columns and intercept disabled")
    try:
        ds = Dataset(y=y, X=X, names=tuple(names))
    except DomainError as exc:
        raise CliInputError(f"{path}: {exc}") from exc
    print(f"loaded {ds.n} rows, {ds.p} design columns from {path}",
          file=sys.stderr)
    return ds


def _first_non_utf8_line(path: str) -> int:
    """The number of the first line of path that is not UTF-8 text, the
    first line being 1 and a lone \\r ending a line, as csv reads it."""
    with open(path, "rb") as raw:
        lines = (part for line in raw for part in line.splitlines())
        for k, part in enumerate(lines, start=1):
            try:
                part.decode("utf-8")
            except UnicodeDecodeError:
                return k


def _is_response(v):
    """Whether each value of v, an array or a scalar, is a non-negative
    integer up to MAX_RESPONSE."""
    return (v >= 0) & (v <= MAX_RESPONSE) & (v == np.floor(v))


def _read(path: str, response_column: str, lead: int):
    """(design column names, y, X): lead intercept columns, then every
    column but the response, in file order.

    y and X are sized by the line count.  The body is parsed _READ_LINES
    lines at a time, or whole if a quoted cell may span lines: by
    _parse_numeric, and by _parse_rows where that returns None or the file
    holds a byte that numpy alone strips as whitespace.
    """
    lines, quoted, numpy_ok = 1, False, True
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(1 << 20), b""):
            numpy_ok = numpy_ok and not any(c in block for c in _NUMPY_ONLY_SPACE)
            lines += np.count_nonzero(np.frombuffer(block, np.uint8) == 10)
            if b"\r" in block:  # a lone \r ends a line too, as csv reads it
                lines += block.count(b"\r") - block.count(b"\r\n")
            quoted = quoted or b'"' in block
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        # Read by readline, so that tell() can mark where the body starts.
        header = next((r for r in csv.reader(iter(fh.readline, "")) if r), None)
        if header is None:
            raise CliInputError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if response_column not in header:
            raise CliInputError(f"{path}: response column {response_column!r} "
                                f"not found; columns are {header}")
        y_col = header.index(response_column)
        names = ["intercept"] * lead + header[:y_col] + header[y_col + 1:]
        y, X = np.empty(lines, np.int64), np.empty((lines, len(names)))
        body_start, n = fh.tell(), 0
        blocks = ([fh] if quoted
                  else iter(lambda: list(islice(fh, _READ_LINES)), []))
        for block in blocks:
            body = _parse_numeric(block, len(header), y_col) if numpy_ok else None
            if body is None:
                if block is fh:  # the row parser streams the file again
                    fh.seek(body_start)
                body = _parse_rows(path, block, header, y_col, n)
            stop = n + len(body)
            y[n:stop] = body[:, y_col]
            X[n:stop, :lead] = 1.0
            X[n:stop, lead:lead + y_col] = body[:, :y_col]
            X[n:stop, lead + y_col:] = body[:, y_col + 1:]
            n = stop
    if not n:
        raise CliInputError(f"{path}: no data rows")
    return names, y[:n], X[:n]


def _parse_numeric(block, width: int, y_col: int):
    """The rows of block, an open file or a list of lines, parsed by
    numpy's loadtxt into a rows x width array, or None.

    None leaves the block to _parse_rows, which alone words the errors and
    alone reads what float() accepts and loadtxt refuses (digit
    underscores).  Quoted cells are read here, as csv reads them.  An array
    is returned only when _parse_rows would return the same one.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Any warning refuses the block, but a block of blank lines
            # warns only that it holds no data.
            warnings.filterwarnings("ignore", ".*input contained no data")
            body = np.loadtxt(block, delimiter=",", ndmin=2, quotechar='"',
                              comments=None, dtype=float)
    except (ValueError, UserWarning):  # a line that is not UTF-8 too
        return None
    if len(body) and (body.shape[1] != width
                      or not np.all(_is_response(body[:, y_col]))):
        return None
    return body.reshape(-1, width)


def _parse_rows(path: str, lines, header: list, y_col: int, first_row: int):
    """The rows of lines parsed cell by cell with csv and float(), as a
    rows x len(header) array.

    Raises CliInputError naming the row, counted on from the first_row rows
    before lines, and the column of the first bad cell.
    """
    values = array("d")
    rows = (r for r in csv.reader(lines) if r)
    for r, row in enumerate(rows, start=first_row + 2):
        if len(row) != len(header):
            raise CliInputError(f"{path}: row {r} has {len(row)} cells, "
                                f"expected {len(header)}")
        parsed = []
        for j, cell in enumerate(row):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise CliInputError(f"{path}: non-numeric cell at row {r}, "
                                    f"column {header[j]!r}: {cell!r}") from None
        if not _is_response(parsed[y_col]):
            raise CliInputError(
                f"{path}: response must be a non-negative integer; got "
                f"{row[y_col]!r} at row {r}, column {header[y_col]!r}"
            )
        values.extend(parsed)
    return np.frombuffer(values).reshape(-1, len(header))


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_output(args: argparse.Namespace, text: str) -> None:
    with _output(args) as out:
        out.write(text)


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _fit_payload(res: FitResult, names) -> dict:
    se = res.se
    z = None
    if se is not None:
        ests = list(res.beta_hat) + [res.theta_hat]
        z = [e / s if s > 0 else math.nan for e, s in zip(ests, se)]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "names": list(names) + ["theta"],
        **res.to_dict(),
        "z_ratios": z,
    }
    return payload


def _render_fit_text(payload: dict) -> str:
    lines = []
    names = payload["names"]
    ests = payload["beta_hat"] + [payload["theta_hat"]]
    se = payload["se"]
    z = payload["z_ratios"]
    width = max(len(n) for n in names) + 2
    lines.append(f"{'term':<{width}}{'estimate':>20}{'std_error':>20}{'z':>20}")
    for k, name in enumerate(names):
        se_s = _fmt(se[k]) if se is not None else "unavailable"
        z_s = _fmt(z[k]) if z is not None else "unavailable"
        lines.append(f"{name:<{width}}{_fmt(ests[k]):>20}{se_s:>20}{z_s:>20}")
    lines.append(f"log-likelihood: {_fmt(payload['loglik_at_mle'])}")
    lines.append(f"iterations: {payload['iterations']}")
    lines.append(f"converged: {payload['converged']}")
    lines.append(f"boundary_theta: {payload['boundary_theta']}")
    lines.append(f"information: {payload['info']['kind']}")
    trunc = payload["info"]["truncation"]
    if trunc is not None:
        lines.append(
            "truncation: max_cutoff=%d max_tail_bound=%s chosen=%s"
            % (max(trunc["cutoffs"]), _fmt(max(trunc["tail_bounds"])),
               trunc["chosen"])
        )
    if payload["message"]:
        lines.append(f"note: {payload['message']}")
    return "\n".join(lines) + "\n"


def cmd_fit(args: argparse.Namespace) -> int:
    ds = ingest_csv(args.input, args.response, args.no_intercept)
    opts = FitOptions(
        max_iter=args.max_iter,
        info_kind=InfoKind(args.info),
        eps_tail=args.eps_tail,
    )
    res = fit(ds, opts)
    payload = _fit_payload(res, ds.names)
    if args.format == "text":
        _write_output(args, _render_fit_text(payload))
    else:
        _write_output(args, _render_json(payload))
    return 0 if res.converged else 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _format_block(block) -> str:
    """CSV rows of one (counts, regressors) block: str of each count and
    repr of each regressor, so the bytes do not depend on who formats it."""
    y, Z = block
    cols = [map(str, y.tolist())]
    cols += [map(repr, c) for c in Z.T.tolist()]
    return "\n".join(map(",".join, zip(*cols))) + "\n"


@contextlib.contextmanager
def _formatted(blocks: list):
    """_format_block of each block, in order: in min(usable CPUs, blocks)
    forked workers when that is two or more, otherwise here.

    The workers are forked before the pool starts its threads and only
    format; spawned ones would import numpy again, about 0.35 s at n = 1e6
    on two CPUs.  The pool is closed and joined on every path.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(blocks))
    if workers >= 2:
        import multiprocessing  # here, so importing nbmle.cli stays cheap
        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        yield map(_format_block, blocks)
        return
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        yield pool.imap(_format_block, blocks, chunksize=1)
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.close()
        pool.join()


def cmd_simulate(args: argparse.Namespace) -> int:
    beta = np.array(args.beta, dtype=float)
    p = len(beta)
    rng = np.random.default_rng(args.seed)
    Z = rng.standard_normal((args.n, p - 1))
    lam = np.empty(args.n)  # block by block: no n x p design is built
    for s in _row_blocks(args.n):
        X_b = np.hstack([np.ones((len(Z[s]), 1)), Z[s]])
        lam[s] = link_mean(X_b, beta, s.start).lam
    y = sample_counts(lam, args.theta, rng)
    del lam  # freed before any worker is forked
    header = [args.response] + [f"x{j}" for j in range(1, p)]
    blocks = [(y[s], Z[s]) for s in _row_blocks(args.n)]
    # The workers start before anything is written, so none inherits an
    # unflushed output buffer.
    with _formatted(blocks) as texts, _output(args) as out:
        out.write(",".join(header) + "\n")
        out.writelines(texts)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _render_verify_text(payload: dict) -> str:
    lines = [f"verification report (seed {payload['seed']})"]
    for e in payload["entries"]:
        tag = ""
        if e["expected"] is not None:
            match = "as expected" if e["verdict"] == e["expected"] \
                else f"EXPECTED {e['expected']}"
            tag = f" [{match}]"
        pair = f" {e['pair']}" if e.get("pair") else ""
        lines.append(
            f"{e['verdict']:<6} {e['section']}/{e['check']}{pair} "
            f"max_residual={_fmt(e['max_residual'])} tol={_fmt(e['tol'])}{tag}"
        )
    lines.append(f"all expected-HOLDS pairs hold: {payload['all_expected_hold']}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    payload, ok = run_verification(
        grid=args.grid,
        tol_first=args.tol_first,
        tol_second=args.tol_second,
        eps_tail=args.eps_tail,
        seed=args.seed,
    )
    if args.format == "text":
        _write_output(args, _render_verify_text(payload))
    else:
        _write_output(args, _render_json(payload))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    ds = ingest_csv(args.input, args.response, args.no_intercept)
    beta = np.array(args.beta, dtype=float)
    if len(beta) != ds.p:
        raise CliInputError(
            f"--beta has {len(beta)} coefficients but the design has {ds.p} "
            f"columns ({', '.join(ds.names)})"
        )
    params = Params(beta, args.theta)
    matrices = {}
    if args.info in ("observed", "both"):
        matrices["observed"] = observed_info(ds, params).to_dict()
    if args.info in ("expected", "both"):
        matrices["expected"] = expected_info(ds, params, args.eps_tail).to_dict()
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "info",
        "names": list(ds.names) + ["theta"],
        "beta": list(map(float, beta)),
        "theta": args.theta,
        "matrices": matrices,
    }
    if args.format == "text":
        lines = []
        for kind, m in matrices.items():
            lines.append(f"{kind} information matrix:")
            for row in m["matrix"]:
                lines.append("  " + "  ".join(_fmt(v) for v in row))
            if m["truncation"]:
                lines.append(
                    "  truncation: max_cutoff=%d chosen=%s"
                    % (max(m["truncation"]["cutoffs"]), m["truncation"]["chosen"])
                )
        _write_output(args, "\n".join(lines) + "\n")
    else:
        _write_output(args, _render_json(payload))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _checked(kind: type, ok, wanted: str):
    """argparse type: kind(text), refused unless ok(value)."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse words a ValueError with it
    return parse


_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a finite number > 0")
_COUNT = _checked(int, lambda v: v >= 1, "an integer >= 1")
_SEED = _checked(int, lambda v: v >= 0, "an integer >= 0")


def _parse_beta(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise CliInputError(f"cannot parse --beta {text!r}; "
                            f"expected comma-separated floats") from None


def _parse_grid(text: str) -> tuple:
    points = []
    try:
        for tok in text.split(","):
            y_s, scale_s = tok.split(":")
            points.append((int(y_s), float(scale_s)))
    except ValueError:
        raise CliInputError(
            f"cannot parse --grid {text!r}; expected y:scale[,y:scale...]"
        ) from None
    return tuple(points)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbmle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input):
        if needs_input:
            p.add_argument("--input", required=True, help="input CSV path")
            p.add_argument("--response", default="y",
                           help="response column name (default y)")
            p.add_argument("--no-intercept", action="store_true",
                           help="do not prepend an all-ones intercept column")
        p.add_argument("--output", default=None,
                       help="output path (default stdout)")

    p_fit = sub.add_parser("fit", help="maximum-likelihood fit from a CSV")
    p_fit.set_defaults(func=cmd_fit)
    add_io(p_fit, needs_input=True)
    p_fit.add_argument("--format", choices=["json", "text"], default="json")
    p_fit.add_argument("--info", choices=["observed", "expected"],
                       default="observed", help="standard-error source")
    p_fit.add_argument("--eps-tail", type=_POSITIVE, default=DEFAULT_EPS_TAIL)
    p_fit.add_argument("--max-iter", type=_COUNT, default=100)

    p_sim = sub.add_parser("simulate", help="simulate a dataset to CSV")
    p_sim.set_defaults(func=cmd_simulate)
    add_io(p_sim, needs_input=False)
    p_sim.add_argument("--beta", type=_parse_beta, required=True,
                       help="comma-separated coefficients, intercept first")
    p_sim.add_argument("--theta", type=_POSITIVE, required=True,
                       help="dispersion parameter (> 0)")
    p_sim.add_argument("--n", type=_COUNT, required=True)
    p_sim.add_argument("--seed", type=_SEED, required=True)
    p_sim.add_argument("--response", default="y",
                       help="response column name to write")
    p_sim.add_argument("--format", choices=["csv"], default="csv")

    p_ver = sub.add_parser("verify", help="run the numerical verification suite")
    p_ver.set_defaults(func=cmd_verify)
    add_io(p_ver, needs_input=False)
    p_ver.add_argument("--format", choices=["json", "text"], default="json")
    p_ver.add_argument("--seed", type=_SEED, default=20260809)
    p_ver.add_argument("--eps-tail", type=_POSITIVE, default=DEFAULT_EPS_TAIL)
    p_ver.add_argument("--tol-first", type=_POSITIVE, default=1e-6,
                       help="tolerance for first-derivative comparisons")
    p_ver.add_argument("--tol-second", type=_POSITIVE, default=1e-4,
                       help="tolerance for second-derivative comparisons")
    p_ver.add_argument("--grid", type=_parse_grid, default=None,
                       help="identity grid override, y:scale[,y:scale...]")

    p_info = sub.add_parser("info", help="information matrices at given parameters")
    p_info.set_defaults(func=cmd_info)
    add_io(p_info, needs_input=True)
    p_info.add_argument("--format", choices=["json", "text"], default="json")
    p_info.add_argument("--beta", type=_parse_beta, required=True,
                        help="comma-separated coefficients matching the design")
    p_info.add_argument("--theta", type=_POSITIVE, required=True)
    p_info.add_argument("--info", choices=["observed", "expected", "both"],
                        default="both")
    p_info.add_argument("--eps-tail", type=_POSITIVE, default=DEFAULT_EPS_TAIL)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (CliInputError, DomainError, AllZeroResponseError,
            CollinearColumnsError, LinearPredictorOverflow,
            TruncationCapExceeded, QuadratureConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone (`nbmle simulate ... | head -1`).
        # Later writes, and the flush at exit, go to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
