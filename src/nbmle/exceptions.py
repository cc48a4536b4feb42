"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class LinearPredictorOverflow(OverflowError):
    """A linear predictor x_i'beta is too large for exp() at double precision."""

    def __init__(self, row: int, value: float):
        self.row = row
        self.value = value
        super().__init__(f"linear predictor overflows exp() at row {row}: "
                         f"x'beta = {value!r} (|x'beta| must stay <= 700)")

    def __reduce__(self):  # raised in a worker, unpickled in the command
        return type(self), (self.row, self.value)


class TruncationCapExceeded(RuntimeError):
    """A truncated infinite series failed to converge within the hard term cap."""


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""

    def __init__(self, message: str, achieved_tol: float):
        self.achieved_tol = achieved_tol
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")


class CollinearColumnsError(ValueError):
    """The design matrix is rank deficient."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        super().__init__("design matrix is singular; collinear column(s): "
                         + ", ".join(self.columns))


class AllZeroResponseError(ValueError):
    """Every response count is zero, so the dispersion is unidentifiable."""


class InformationNotInvertible(ValueError):
    """An information matrix is not positive definite; standard errors unavailable."""
