"""Benchmark inputs: dataset specifications and the CSVs the program reads.

Every input is drawn here with numpy from a seed and written before any
timing starts; the program under test only ever sees the finished files.
Regressors are written with eight decimals, and the arrays kept for the
output checks hold exactly the values the CSV parser will read back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DECIMALS = 8
_SCALE = 10.0 ** _DECIMALS


@dataclass(frozen=True)
class Spec:
    """NB2 regression design: n rows, coefficients (intercept first), theta."""

    n: int
    beta: tuple
    theta: float

    @property
    def beta_arg(self) -> str:
        return ",".join(repr(b) for b in self.beta)


@dataclass(frozen=True)
class DataFile:
    """A written CSV plus the exact arrays it holds."""

    label: str
    path: Path
    spec: Spec
    y: np.ndarray
    X: np.ndarray  # with the all-ones intercept column the CLI prepends


def draw(spec: Spec, rng: np.random.Generator):
    """Regressors and NB2 counts, independent of the program's own sampler.

    Counts come from numpy's negative binomial with shape 1/theta and
    success probability 1/(1 + theta*lambda), which has mean lambda and
    variance lambda*(1 + theta*lambda).
    """
    p = len(spec.beta)
    Z = np.rint(rng.standard_normal((spec.n, p - 1)) * _SCALE) / _SCALE
    X = np.hstack([np.ones((spec.n, 1)), Z])
    lam = np.exp(X @ np.asarray(spec.beta))
    y = rng.negative_binomial(1.0 / spec.theta, 1.0 / (1.0 + spec.theta * lam))
    return y.astype(np.int64), X


def write_dataset(label: str, path: Path, spec: Spec,
                  rng: np.random.Generator) -> DataFile:
    y, X = draw(spec, rng)
    p = X.shape[1]
    row = "%d" + f",%.{_DECIMALS}f" * (p - 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["y"] + [f"x{j}" for j in range(1, p)]) + "\n")
        for start in range(0, spec.n, 100_000):
            stop = min(start + 100_000, spec.n)
            cols = [y[start:stop].tolist()] + [X[start:stop, j].tolist()
                                               for j in range(1, p)]
            fh.write("\n".join(row % r for r in zip(*cols)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    return DataFile(label, path, spec, y, X)


def read_csv(path: Path):
    """Header and numeric body of a CSV the program wrote."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, body
