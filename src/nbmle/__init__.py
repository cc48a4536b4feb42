"""NB2 count-regression maximum likelihood with a numerical verification suite.

The package fits Negative Binomial (NB2) regressions by Newton ascent on
the finite-sum ("gamma-free") form of the likelihood and ships the
machinery to adjudicate, numerically, the digamma/trigamma identities and
Fisher-information tail-sum conventions that relate the finite-sum and
gamma-function formulations.
"""

import importlib

# Each export's module, imported on first use (PEP 562), so that a command
# compiles only the modules it runs.
_EXPORTS = {
    "derivatives": "GradHess finite_diff finite_diff_second grad_hess",
    "estimator": "FitOptions FitResult fit init_params standard_errors",
    "exceptions": "AllZeroResponseError CollinearColumnsError DomainError "
                  "InformationNotInvertible LinearPredictorOverflow "
                  "QuadratureConvergenceError TruncationCapExceeded",
    "fisher": "InfoKind InfoMatrix expected_info expected_trigamma_tail "
              "observed_info",
    "identities": "IdentityId IdentityReport check_digamma_chain "
                  "check_digamma_sum check_trigamma_chain check_trigamma_sum "
                  "default_grid",
    "mixture": "mixture_pmf nb_mean_bruteforce",
    "model": "Dataset LinkValues Params link_mean loglik nb_pmf",
    "special": "digamma ln_gamma sum_log_shifted sum_recip_shifted "
               "sum_recip_sq_shifted sum_trigamma_weights trigamma",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads do not come here
    return value
