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
import codecs
import contextlib
import csv
import json
import math
import os
import pickle
import sys
import warnings
from array import array
from itertools import islice

import numpy as np

from .exceptions import (
    AllZeroResponseError, CollinearColumnsError, DomainError,
    LinearPredictorOverflow, QuadratureConvergenceError,
    TruncationCapExceeded)
from .model import (
    DEFAULT_EPS_TAIL, SCHEMA_VERSION, Dataset, Params, _row_blocks, link_mean)
from .workers import Workers, condition, shared_empty, usable_cpus


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
               no_intercept: bool = False, workers: Workers | None = None
               ) -> Dataset:
    """Load a header-row CSV into a Dataset.

    The response column must hold non-negative integers up to MAX_RESPONSE;
    every other column becomes a regressor.  An all-ones intercept column
    is prepended unless no_intercept is set.  Errors carry row/column
    diagnostics.  The body is parsed block by block, by numpy where it can
    and by the row parser where numpy refuses, straight into y and X, in
    workers, which the Dataset keeps for its later passes, or in workers
    of its own.
    """
    lead = 0 if no_intercept else 1
    try:
        names, y, X = _read(path, response_column, lead, workers)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise CliInputError(f"{path}: line {_first_non_utf8_line(path)} "
                            f"is not UTF-8 text") from None
    if X.shape[1] == 0:
        raise CliInputError(f"{path}: no regressor columns and intercept disabled")
    try:
        ds = Dataset(y=y, X=X, names=tuple(names), workers=workers)
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


def _read(path: str, response_column: str, lead: int,
          workers: Workers | None = None):
    """(design column names, y, X): lead intercept columns, then every
    column but the response, in file order.

    y and X are sized by _scan's line count, shared when the body spans two
    or more row blocks, and workers (without it, ones of its own, closed on
    return) forked with them.  Each worker's range of the body is parsed
    into its own rows, which then close up over the rows of blank lines.  A
    failed range is parsed again here, for its rows' numbers in the error.
    """
    if workers is None:
        with Workers() as workers:
            return _read(path, response_column, lead, workers)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        read = []  # the header's lines, whose bytes end where the body starts
        header = next((r for r in csv.reader(
            read.append(line) or line for line in iter(fh.readline, "")) if r), None)
        if header is None:
            raise CliInputError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if response_column not in header:
        raise CliInputError(f"{path}: response column {response_column!r} "
                            f"not found; columns are {header}")
    y_col = header.index(response_column)
    names = ["intercept"] * lead + header[:y_col] + header[y_col + 1:]
    cpus = usable_cpus()
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        body_start = len("".join(read).encode()) + 3 * (raw.read(3) == codecs.BOM_UTF8)
        raw.seek(body_start)
        lines, quoted, numpy_ok, cuts = _scan(raw, [
            body_start + k * (size - body_start) // cpus for k in range(1, cpus)])
    count = max(1, min(cpus, len(_row_blocks(lines))))
    marks = [(body_start, 0)] + cuts[cpus // count - 1::cpus // count][:count - 1]
    ranges = [(start, slot, stop) for (start, slot), (_, stop)
              in zip(marks, marks[1:] + [(None, None)])]
    empty = shared_empty if count >= 2 else np.empty
    y, X = empty(lines, np.int64), empty((lines, len(names)), float)
    workers.fork((y, X), count)
    body = (path, header, y_col, lead, numpy_ok, quoted)
    counts = []
    parsed = workers.map(_parse_range, ranges, body)
    for rng in ranges:
        try:
            counts.append(next(parsed))
        except CliInputError:
            _parse_range((y, X), rng, body, sum(counts))
            raise
    n = 0
    for (_, slot, _), rows in zip(ranges, counts):
        if slot != n:  # else numpy would copy the overlapping rows
            y[n:n + rows], X[n:n + rows] = y[slot:slot + rows], X[slot:slot + rows]
        n += rows
    if not n:
        raise CliInputError(f"{path}: no data rows")
    return names, y[:n], X[:n]


def _scan(raw, targets: list, eol: int = 10):
    """(lines, whether a quote occurs, whether numpy may parse it, cuts) of
    raw, a binary file, from its position on.  cuts[k] is (byte, lines
    before it) just past the first line end at or past byte targets[k]
    after which the quotes are even in number, as only a quoted cell spans
    lines.  Lines end at eol: \n, or \r in a file with no \n, which is
    scanned again for it; a file with both and a lone \r has no cuts.
    """
    start = raw.tell()
    lines, lone_cr, quotes, numpy_ok, pos, cuts = 0, 0, 0, True, start, []
    block = b""  # each ends at a \n, so that none splits a \r\n
    for block in iter(lambda: raw.read(1 << 20) + raw.readline(1 << 20), b""):
        numpy_ok = numpy_ok and not any(c in block for c in _NUMPY_ONLY_SPACE)
        lone_cr += block.count(b"\r") - block.count(b"\r\n") if b"\r" in block else 0
        buf = np.frombuffer(block, np.uint8)
        nl = buf == eol
        quote = buf == 34 if quotes or b'"' in block else None
        if len(cuts) < len(targets) and targets[len(cuts)] < pos + len(block):
            ends = np.flatnonzero(nl)
            if quote is not None:  # the parity, summed in 1 byte a count
                ends = ends[np.cumsum(quote, dtype=np.uint8)[ends] % 2
                            == quotes % 2]
            for k in np.searchsorted(ends, np.array(targets[len(cuts):]) - pos):
                if k < len(ends):
                    stop = int(ends[k]) + 1
                    cuts.append((pos + stop, lines + int(np.count_nonzero(nl[:stop]))))
        lines += int(np.count_nonzero(nl))
        quotes += 0 if quote is None else int(np.count_nonzero(quote))
        pos += len(block)
        del nl, quote  # so the next masks reuse, not fault in, the memory
    if eol == 10 and lone_cr and not lines:
        raw.seek(start)
        return _scan(raw, targets, 13)
    mixed = eol == 10 and lone_cr
    lines += (lone_cr if mixed else 0) + (block[-1:] not in b"\r\n")  # unended
    return lines, quotes > 0, numpy_ok, [] if mixed else cuts


def _parse_range(state, rng, body, first_row: int = 0) -> int:
    """Parse the lines of rng = (byte, slot, the next range's slot or None)
    into the rows of (y, X) = state from the slot on; the row count.

    body is (path, header, y_col, lead, numpy_ok, quoted).  Blocks of
    _READ_LINES lines, each going on until its quotes are even in number,
    are parsed by _parse_numeric if numpy_ok, and by _parse_rows, rows
    numbered on from first_row, where that returns None.
    """
    (y, X), (start, slot, stop) = state, rng
    path, header, y_col, lead, numpy_ok, quoted = body
    n = slot
    with open(path, "r", encoding="utf-8", newline="") as fh:
        fh.seek(start)
        text = islice(fh, None if stop is None else stop - slot)
        while block := list(islice(text, _READ_LINES)):
            odd = quoted and "".join(block).count('"') % 2
            while odd and (line := next(text, None)) is not None:
                block.append(line)
                odd ^= line.count('"') % 2
            rows = _parse_numeric(block, len(header), y_col) if numpy_ok else None
            if rows is None:
                rows = _parse_rows(path, block, header, y_col, first_row + n - slot)
            y[n:n + len(rows)] = rows[:, y_col]
            X[n:n + len(rows), :lead] = 1.0
            X[n:n + len(rows), lead:lead + y_col] = rows[:, :y_col]
            X[n:n + len(rows), lead + y_col:] = rows[:, y_col + 1:]
            n += len(rows)
    return n - slot


def _parse_numeric(block, width: int, y_col: int):
    """The rows of block, a list of lines, parsed by
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
            raise CliInputError(f"{path}: response must be a non-negative "
                                f"integer; got {row[y_col]!r} at row {r}, "
                                f"column {header[y_col]!r}")
        values.extend(parsed)
    return np.frombuffer(values).reshape(-1, len(header))


@contextlib.contextmanager
def _output(args: argparse.Namespace):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_output(args: argparse.Namespace, payload: dict, render) -> None:
    """render(payload) with --format text; otherwise the bytes of
    json.dumps(payload, indent=2) and a newline, written as the encoder
    yields them, so that the whole text is never held."""
    with _output(args) as out:
        if args.format == "text":
            out.write(render(payload))
        else:
            out.writelines(json.JSONEncoder(indent=2).iterencode(payload))
            out.write("\n")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _fit_payload(res, names) -> dict:
    ests = list(res.beta_hat) + [res.theta_hat]
    z = None if res.se is None else [e / s if s > 0 else math.nan
                                     for e, s in zip(ests, res.se)]
    return {"schema_version": SCHEMA_VERSION, "command": "fit",
            "names": list(names) + ["theta"], **res.to_dict(), "z_ratios": z}


def _render_fit_text(payload: dict) -> str:
    names = payload["names"]
    ests = payload["beta_hat"] + [payload["theta_hat"]]
    se = payload["se"]
    z = payload["z_ratios"]
    width = max(len(n) for n in names) + 2
    lines = [f"{'term':<{width}}{'estimate':>20}{'std_error':>20}{'z':>20}"]
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
        lines.append("truncation: max_cutoff=%d max_tail_bound=%s chosen=%s" % (
            max(trunc["cutoffs"]), _fmt(max(trunc["tail_bounds"])), trunc["chosen"]))
    if payload["message"]:
        lines.append(f"note: {payload['message']}")
    return "\n".join(lines) + "\n"


def cmd_fit(args: argparse.Namespace) -> int:
    from .estimator import FitOptions, fit  # before the fork, as workers run it
    from .fisher import InfoKind
    opts = FitOptions(max_iter=args.max_iter, info_kind=InfoKind(args.info),
                      eps_tail=args.eps_tail)
    with Workers() as workers:
        ds = ingest_csv(args.input, args.response, args.no_intercept, workers)
        res = fit(ds, opts)
    _write_output(args, _fit_payload(res, ds.names), _render_fit_text)
    return 0 if res.converged else 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _design(s: slice, rng, beta) -> tuple:
    """(X, lam): the intercept, the regressors of rows s drawn from rng, the means."""
    X = np.hstack([np.ones((s.stop - s.start, 1)),
                   rng.standard_normal((s.stop - s.start, len(beta) - 1))])
    return X, link_mean(X, beta, s.start).lam


def _pass_baton(baton, k: int, state) -> None:
    """Hand the Poisson generator state to block k, baton[0]."""
    data = np.frombuffer(pickle.dumps(state), np.uint8)
    baton[2:].view(np.uint8)[:len(data)] = data
    baton[0] = k


def _format_block(state, task) -> None:
    """Write the CSV rows of block k, task = (k, rows, the generator states
    before its regressors and its Gamma variates), to fd, state = (beta,
    theta, baton, turn, fd): str of each count, then repr of each regressor,
    all drawn again.  Block k draws its counts when it holds the baton,
    which the block before passes on with the Poisson state it left, and
    writes, not under the lock, when it holds the write turn, baton[1].  fd
    and its offset are inherited at the fork, so the blocks land in row
    order in a file and a pipe alike, the same bytes whoever formats them."""
    from .mixture import block_counts, generator
    (beta, theta, baton, turn, fd), (k, s, z_state, gamma_state) = state, task
    X, lam = _design(s, generator(z_state), beta)
    with turn:
        turn.wait_for(lambda: baton[0] == k)
        rng = generator(pickle.loads(baton[2:].tobytes()))
        y = block_counts(lam, theta, gamma_state, rng)
        _pass_baton(baton, k + 1, rng.bit_generator.state)
        turn.notify_all()
    cols = [map(str, y.tolist())] + [map(repr, c) for c in X[:, 1:].T.tolist()]
    text = memoryview(("\n".join(map(",".join, zip(*cols))) + "\n").encode())
    with turn:
        turn.wait_for(lambda: baton[1] == k)
    while text:
        text = text[os.write(fd, text):]
    with turn:
        baton[1] = k + 1
        turn.notify_all()


def cmd_simulate(args: argparse.Namespace) -> int:
    """Draw the blocks' means and Gamma variates, keeping generator states,
    so that their errors come before the output exists; write the header,
    then fork the workers, which write the blocks (_format_block).  The
    command holds and relays no rows; the output must have a file descriptor."""
    from .mixture import gamma_states, generator
    beta = np.array(args.beta, dtype=float)
    rng = np.random.default_rng(args.seed)
    blocks, z_states = [], {}  # only generator states are kept
    for s in _row_blocks(args.n):
        z_states[s.start] = rng.bit_generator.state
        blocks.append((s, _design(s, rng, beta)[1].max()))
    gammas = gamma_states(lambda s: _design(s, generator(z_states[s.start]), beta)[1],
                          blocks, args.theta, rng)
    tasks = [(k, s, z_states[s.start], g)
             for k, ((s, _), g) in enumerate(zip(blocks, gammas))]
    baton = shared_empty(64, np.int64)
    _pass_baton(baton, 0, rng.bit_generator.state)
    header = [args.response] + [f"x{j}" for j in range(1, len(beta))]
    with _output(args) as out, Workers() as workers:
        out.write(",".join(header) + "\n")
        out.flush()  # before the fork, so that no worker inherits it unwritten
        workers.fork((beta, args.theta, baton, condition(len(tasks)), out.fileno()),
                     len(tasks))
        for _ in workers.map(_format_block, tasks):  # None each, or an error
            pass
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
    from .verification import run_verification
    payload, ok = run_verification(grid=args.grid, tol_first=args.tol_first,
                                   tol_second=args.tol_second,
                                   eps_tail=args.eps_tail, seed=args.seed)
    _write_output(args, payload, _render_verify_text)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    from .fisher import expected_info, observed_info  # before the fork
    with Workers() as workers:
        ds = ingest_csv(args.input, args.response, args.no_intercept, workers)
        beta = np.array(args.beta, dtype=float)
        if len(beta) != ds.p:
            raise CliInputError(f"--beta has {len(beta)} coefficients but the design "
                                f"has {ds.p} columns ({', '.join(ds.names)})")
        params = Params(beta, args.theta)
        matrices = {}
        if args.info in ("observed", "both"):
            matrices["observed"] = observed_info(ds, params).to_dict()
        if args.info in ("expected", "both"):
            matrices["expected"] = expected_info(ds, params, args.eps_tail).to_dict()
    payload = {"schema_version": SCHEMA_VERSION, "command": "info",
               "names": list(ds.names) + ["theta"], "beta": list(map(float, beta)),
               "theta": args.theta, "matrices": matrices}
    _write_output(args, payload, _render_info_text)
    return 0


def _render_info_text(payload: dict) -> str:
    lines = []
    for kind, m in payload["matrices"].items():
        lines.append(f"{kind} information matrix:")
        for row in m["matrix"]:
            lines.append("  " + "  ".join(_fmt(v) for v in row))
        if m["truncation"]:
            lines.append(
                "  truncation: max_cutoff=%d chosen=%s"
                % (max(m["truncation"]["cutoffs"]), m["truncation"]["chosen"])
            )
    return "\n".join(lines) + "\n"


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
    try:
        return tuple((int(y), float(scale))
                     for y, scale in (tok.split(":") for tok in text.split(",")))
    except ValueError:
        raise CliInputError(
            f"cannot parse --grid {text!r}; expected y:scale[,y:scale...]"
        ) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbmle", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_input, text, formats=("json", "text")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        if needs_input:
            p.add_argument("--input", required=True, help="input CSV path")
            p.add_argument("--response", default="y",
                           help="response column name (default y)")
            p.add_argument("--no-intercept", action="store_true",
                           help="do not prepend an all-ones intercept column")
        p.add_argument("--output", default=None,
                       help="output path (default stdout)")
        p.add_argument("--format", choices=list(formats), default=formats[0])
        return p

    p_fit = add("fit", cmd_fit, True, "maximum-likelihood fit from a CSV")
    p_fit.add_argument("--info", choices=["observed", "expected"],
                       default="observed", help="standard-error source")
    p_fit.add_argument("--eps-tail", type=_POSITIVE, default=DEFAULT_EPS_TAIL)
    p_fit.add_argument("--max-iter", type=_COUNT, default=100)

    p_sim = add("simulate", cmd_simulate, False, "simulate a dataset to CSV", ("csv",))
    p_sim.add_argument("--beta", type=_parse_beta, required=True,
                       help="comma-separated coefficients, intercept first")
    p_sim.add_argument("--theta", type=_POSITIVE, required=True,
                       help="dispersion parameter (> 0)")
    p_sim.add_argument("--n", type=_COUNT, required=True)
    p_sim.add_argument("--seed", type=_SEED, required=True)
    p_sim.add_argument("--response", default="y",
                       help="response column name to write")

    p_ver = add("verify", cmd_verify, False, "run the numerical verification suite")
    p_ver.add_argument("--seed", type=_SEED, default=20260809)
    p_ver.add_argument("--eps-tail", type=_POSITIVE, default=DEFAULT_EPS_TAIL)
    p_ver.add_argument("--tol-first", type=_POSITIVE, default=1e-6,
                       help="tolerance for first-derivative comparisons")
    p_ver.add_argument("--tol-second", type=_POSITIVE, default=1e-4,
                       help="tolerance for second-derivative comparisons")
    p_ver.add_argument("--grid", type=_parse_grid, default=None,
                       help="identity grid override, y:scale[,y:scale...]")

    p_info = add("info", cmd_info, True, "information matrices at given parameters")
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
