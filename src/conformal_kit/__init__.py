"""Split conformal prediction, tolerance regions and risk control.

The package calibrates a threshold lambda_hat on held-out nonconformity
scores so the resulting prediction set carries a distribution-free
finite-sample guarantee: marginal coverage (q_hat), an (eps, delta)
tolerance region (p_hat), or a bounded monotone risk (crc_lambda,
ucb_lambda, ltt_lambda).  Exact binomial and beta-binomial tail
machinery lives in ``dists``, the duality between the guarantees in
``calibration``, coverage-law experiments in ``experiments`` and the
runtime self-checks in ``verify``.
"""

from . import calibration, dists, experiments, predictors, risk, verify
from .calibration import *  # noqa: F403
from .dists import *  # noqa: F403
from .experiments import *  # noqa: F403
from .predictors import *  # noqa: F403
from .risk import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (calibration, dists, experiments, predictors, risk, verify)
    for name in module.__all__
]
