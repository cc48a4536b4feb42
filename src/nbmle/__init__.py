"""NB2 count-regression maximum likelihood with a numerical verification suite.

The package fits Negative Binomial (NB2) regressions by Newton ascent on
the finite-sum ("gamma-free") form of the likelihood and ships the
machinery to adjudicate, numerically, the digamma/trigamma identities and
Fisher-information tail-sum conventions that relate the finite-sum and
gamma-function formulations.
"""

from .derivatives import (
    GradHess,
    finite_diff,
    finite_diff_second,
    grad_hess,
    hessian_beta_beta,
    hessian_beta_theta,
    hessian_theta,
    hessian_theta_gamma_form,
    score_beta,
    score_theta,
    score_theta_gamma_form,
)
from .estimator import FitOptions, FitResult, fit, init_params, standard_errors
from .exceptions import (
    AllZeroResponseError,
    CollinearColumnsError,
    DomainError,
    InformationNotInvertible,
    LinearPredictorOverflow,
    QuadratureConvergenceError,
    TruncationCapExceeded,
)
from .fisher import (
    InfoKind,
    InfoMatrix,
    brute_force_expected_neg_hessian,
    expected_info,
    expected_info_beta,
    expected_info_cross,
    expected_info_theta,
    expected_trigamma_tail,
    observed_info,
)
from .identities import (
    IdentityId,
    IdentityReport,
    check_digamma_chain,
    check_digamma_sum,
    check_trigamma_chain,
    check_trigamma_sum,
    default_grid,
)
from .mixture import (
    gamma_density,
    mixture_pmf,
    nb_mean_bruteforce,
    nb_variance_bruteforce,
    poisson_pmf,
    sample_nb,
)
from .model import (
    Dataset,
    LinkValues,
    Params,
    link_mean,
    loglik,
    loglik_alpha,
    nb_pmf,
    nb_pmf_binomial_form,
    tail_prob,
    truncated_pmf_sum,
)
from .special import (
    digamma,
    ln_gamma,
    sum_log_shifted,
    sum_recip_shifted,
    sum_recip_sq_shifted,
    sum_trigamma_weights,
    trigamma,
)

__version__ = "0.1.0"
