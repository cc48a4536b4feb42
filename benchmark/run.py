"""nbmle benchmark: wall time of each CLI command, and per-layer spans.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The benchmark draws its inputs from --seed with numpy and writes
them before any timing starts.  It then runs passes over the workload's
commands, one command at a time (closed loop), until --seconds have
elapsed, with at least two passes.  Every output is checked against scipy
or a property the method must have, outside the timed region.

--trace 0 runs each command as `nbmle <args>` in a fresh child process
and reports the end-to-end metrics (median over passes).  --trace 1 runs
the same commands in-process through nbmle.cli.main with wrappers around
every public function and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child.
THREAD_PIN = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from inputs import DataFile, Spec, write_dataset  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

# The console script `nbmle` is `sys.exit(nbmle.cli:main())`; the children
# run that from the checkout's source tree.  A child prints its own peak
# RSS (VmHWM, in kB) as its last line of stdout: its rusage ru_maxrss would
# also count the benchmark's memory, which the child shares until exec.
_CHILD = """\
import sys
{imports}
try:
    {call}
finally:
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM")).split()[1])
"""
ENTRY = _CHILD.format(imports="from nbmle.cli import main",
                      call="sys.exit(main())")
INGEST_ONLY = _CHILD.format(imports="from nbmle.cli import ingest_csv",
                            call="ingest_csv(sys.argv[1])")
IMPORT_ONLY = "import nbmle.cli"

MIN_PASSES = 2
SETUP_REPEATS = 9

# Small fixed-size commands that every workload also runs, so that each
# run reports every end-to-end metric; README scale, where the fit converged
# on 300 of 300 draws.
# Where a pass is long, the probes repeat within it, so that their medians
# rest on more than a few samples.
PROBE = Spec(n=2_000, beta=(0.5, -0.3), theta=0.8)
LARGE_N = Spec(n=1_000_000, beta=(0.0, 0.3, -0.2, 0.25), theta=0.5)
LARGE_MEAN = Spec(n=300, beta=(5.7, 0.3), theta=0.05)
# large_mean's datasets come from these fixed seeds, not from --seed: at
# these means about half of all draws hit the fit's stall fault, and the
# share of failed operations must not depend on --seed.
LARGE_MEAN_DATA_SEEDS = (0, 1, 2)

COMMANDS = ("simulate", "fit", "info", "verify")

# Per-layer metrics.  A `_s` metric is the time inside that function summed
# over its calls; the others are counts.  simulate_write is cmd_simulate's
# self time (its link_mean and sample_counts spans subtracted), which
# leaves formatting and writing.
LAYER_METRICS = (
    "cli.ingest_csv_s", "cli.simulate_write_s", "mixture.sample_counts_s",
    "estimator.fit_s", "estimator.init_params_s", "estimator.iterations",
    "model.loglik_s", "model.loglik_calls", "model.link_mean_calls",
    "derivatives.grad_hess_s", "derivatives.grad_hess_calls",
    "fisher.observed_info_s", "fisher.expected_info_s",
    "fisher.brute_force_expected_neg_hessian_s", "fisher.series_terms",
    "model.truncated_pmf_sum_s", "mixture.mixture_pmf_s",
    "mixture.mixture_pmf_calls", "identities.run_all_checks_s",
    "special.ln_gamma_calls",
)
SNAPSHOT_KEY = {"cli.simulate_write_s": "cli.cmd_simulate_self_s"}


@dataclass
class Op:
    """One CLI command of a pass, with the check of its output."""

    command: str
    args: list
    output: Path
    check: Callable[[], list]
    ingests: Path | None = None


@dataclass
class PassResult:
    seconds: dict = field(default_factory=lambda: dict.fromkeys(COMMANDS, 0.0))
    peak_rss_mb: float = 0.0
    codes: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def simulate_op(spec: Spec, seed: int, out: Path) -> Op:
    args = ["simulate", "--beta", spec.beta_arg, "--theta", repr(spec.theta),
            "--n", str(spec.n), "--seed", str(seed), "--output", str(out)]
    return Op("simulate", args, out, lambda: oracle.check_simulate(out, spec))


def fit_op(d: DataFile) -> Op:
    out = d.path.with_suffix(".fit.json")
    return Op("fit", ["fit", "--input", str(d.path), "--output", str(out)], out,
              lambda: oracle.check_fit(_load(out), d), ingests=d.path)


def info_op(d: DataFile) -> Op:
    out = d.path.with_suffix(".info.json")
    args = ["info", "--input", str(d.path), "--beta", d.spec.beta_arg,
            "--theta", repr(d.spec.theta), "--info", "both", "--output", str(out)]
    return Op("info", args, out, lambda: oracle.check_info(_load(out), d),
              ingests=d.path)


def verify_op(work: Path) -> Op:
    out = work / "verify.json"
    return Op("verify", ["verify", "--output", str(out)], out,
              lambda: oracle.check_verify(_load(out)))


def build(workload: str, seed: int, work: Path) -> list:
    """Write the workload's inputs and return the operations of one pass."""
    probe = lambda: write_dataset(  # noqa: E731
        "probe", work / "probe.csv", PROBE, np.random.default_rng([2, seed]))
    if workload == "fit_large_n":
        big = write_dataset("large_n", work / "large_n.csv", LARGE_N,
                            np.random.default_rng([1, seed]))
        return ([simulate_op(LARGE_N, seed, work / "sim_large_n.csv"), fit_op(big)]
                + [info_op(probe()), verify_op(work)] * 2)
    if workload == "large_mean":
        data = [write_dataset(f"large_mean_{k}", work / f"large_mean_{k}.csv",
                              LARGE_MEAN, np.random.default_rng([3, k]))
                for k in LARGE_MEAN_DATA_SEEDS]
        ops = []
        for d in data:
            ops += [fit_op(d), info_op(d)]
        return ops + [simulate_op(PROBE, seed, work / "sim_probe.csv"),
                      verify_op(work)] * 2
    if workload == "verify_suite":
        d = probe()
        return [verify_op(work), simulate_op(PROBE, seed, work / "sim_probe.csv"),
                fit_op(d), info_op(d)]
    raise SystemExit(f"unknown workload {workload!r}")


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PIN, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(code: str, args: list, env: dict, err_path: Path):
    """Run `python -c code args` to completion; (seconds, exit code, peak MB).

    The peak is the child's last stdout line in kB, or 0 if it printed none."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        out = proc.stdout.read()
        proc.wait()
        elapsed = time.perf_counter() - start
    proc.stdout.close()
    last = out.split()[-1:]
    peak_kb = int(last[0]) if last and last[0].isdigit() else 0
    return elapsed, proc.returncode, peak_kb / 1024.0


def _flush(path: Path) -> None:
    """Write an output back to disk outside the timed region, so that no
    command runs while the previous one's pages are still being flushed."""
    if path.exists():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run_pass(ops: list, env: dict, err_path: Path, recorder) -> PassResult:
    res = PassResult()
    before = recorder.snapshot() if recorder else None
    for op in ops:
        if op.output.exists():
            op.output.unlink()
        if recorder is None:
            elapsed, code, rss = run_child(ENTRY, op.args, env, err_path)
            res.peak_rss_mb = max(res.peak_rss_mb, rss)
        else:
            elapsed, code = run_in_process(op.args, err_path)
        res.seconds[op.command] += elapsed
        _flush(op.output)
        res.codes.append(code)
        res.errors.append(err_path.read_text(errors="replace").strip()[-300:]
                          if code else "")
    if recorder:
        after = recorder.snapshot()
        res.layers = {k: v - before.get(k, 0) for k, v in after.items()}
    res.digests = [_digest(op.output) for op in ops]
    return res


def run_in_process(args: list, err_path: Path):
    from nbmle import cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(args))
        except Exception:  # a crash is a failed operation, not a harness error
            traceback.print_exc(file=buf)
            code = -1
    elapsed = time.perf_counter() - start
    err_path.write_text(buf.getvalue(), encoding="utf-8")
    return elapsed, code


def measure_setup(env: dict, err_path: Path) -> float:
    """Median wall time of a fresh interpreter that imports nbmle.cli."""
    run_child(IMPORT_ONLY, [], env, err_path)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, code, _ = run_child(IMPORT_ONLY, [], env, err_path)
        if code != 0:
            raise SystemExit("cannot import nbmle.cli: "
                             + err_path.read_text(errors="replace"))
        times.append(elapsed)
    return statistics.median(times)


def ingest_peak_mb(ops: list, env: dict, err_path: Path) -> float:
    """Largest peak RSS of a fresh process that imports nbmle.cli and runs
    ingest_csv on one of the workload's input files.

    tracemalloc would isolate the bytes ingest_csv allocates, but on the
    1e6-row file it takes about ten times the call and 1.7 GB."""
    peak = 0.0
    for path in sorted({op.ingests for op in ops if op.ingests}):
        _, code, rss = run_child(INGEST_ONLY, [str(path)], env, err_path)
        if code == 0:
            peak = max(peak, rss)
    return peak


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pin": THREAD_PIN}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fit_large_n", "large_mean", "verify_suite"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not (SRC / "nbmle" / "cli.py").is_file():
        print(f"error: no nbmle source under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    if a.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    env = child_env()
    recorder = None
    if a.trace:
        sys.path.insert(0, str(SRC))
        recorder = tracing.Recorder()
        tracing.install(recorder)
    work = ROOT / "benchmark" / "work" / f"{a.workload}-{a.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    err_path = work / "stderr.txt"
    try:
        t0 = time.perf_counter()
        ops = build(a.workload, a.seed, work)
        setup_s = None if a.trace else measure_setup(env, err_path)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops, env, err_path, recorder))
            elapsed = time.perf_counter() - start
            if (len(passes) >= MIN_PASSES
                    and elapsed * (1 + 1 / len(passes)) > a.seconds):
                break
        t1 = time.perf_counter()
        problems = check(ops, passes)
        peak_ingest = ingest_peak_mb(ops, env, err_path) if a.trace else None
        print(f"inputs and setup {start - t0:.1f} s, {len(passes)} passes "
              f"{elapsed:.1f} s, checks {time.perf_counter() - t1:.1f} s",
              file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(len(p.codes) for p in passes)
    failed = sum(c != 0 for p in passes for c in p.codes)
    if a.trace:
        metrics, count_problems = layer_metrics(passes, peak_ingest)
        problems += count_problems
    else:
        metrics = end_to_end_metrics(passes, setup_s)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": a.workload, "seed": a.seed, "trace": a.trace,
              "passes": len(passes), "environment": environment(),
              "problems": problems,
              "pass_seconds": [p.seconds for p in passes],
              "pass_layers": [p.layers for p in passes] if a.trace else None,
              "result": result}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{a.workload}-seed{a.seed}-trace{a.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def check(ops: list, passes: list) -> list:
    """Outputs must repeat byte for byte across passes (all commands are
    deterministic); the last pass's outputs of successful commands are
    checked against the oracle."""
    problems = []
    checked = set()
    for k, op in enumerate(ops):
        if len({p.digests[k] for p in passes}) != 1:
            problems.append(f"{' '.join(op.args[:3])}: output differs between passes")
        if id(op) in checked:
            continue
        checked.add(id(op))
        code = passes[-1].codes[k]
        if code == 0:
            problems += op.check()
            continue
        reason = passes[-1].errors[k]
        if op.command == "fit" and op.output.exists():
            reason = _load(op.output)["message"]
        print(f"failed: {' '.join(op.args[:3])} exited {code}: {reason}",
              file=sys.stderr)
    return problems


def end_to_end_metrics(passes: list, setup_s: float) -> dict:
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for cmd in COMMANDS:
        metrics[f"{cmd}_s"] = {
            "value": statistics.median(p.seconds[cmd] for p in passes), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": max(p.peak_rss_mb for p in passes),
                              "unit": "MB"}
    return metrics


def layer_metrics(passes: list, peak_ingest: float):
    metrics = {"cli.ingest_peak_mb": {"value": peak_ingest, "unit": "MB"}}
    problems = []
    for name in LAYER_METRICS:
        values = [p.layers.get(SNAPSHOT_KEY.get(name, name), 0) for p in passes]
        if name.endswith("_s"):
            metrics[name] = {"value": statistics.median(values), "unit": "s"}
            continue
        if len(set(values)) != 1:
            problems.append(f"{name}: count differs between passes {values}")
        metrics[name] = {"value": values[0], "unit": "count"}
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
