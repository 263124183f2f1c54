"""Maximal-inequality bounds for weighted partial sums, with verification.

The package has three layers:

* analytic: shape/scale/weight descriptors, moment profiles, and the four
  bound calculators (`bounds`),
* empirical: trajectory batches, Monte Carlo and exact event probabilities,
  the demi-margin check, and SLLN trajectories (`sequences`, `simulation`),
* glue: experiment configs and the `hrbounds` command line (`cli`).
"""

from ._digest import event_a_n, event_max_ratio
from .bounds import (
    BOUND_KINDS,
    BoundReport,
    MomentProfile,
    SLLNSeriesReport,
    SLLNSeriesSpec,
    analytic_moment_profile,
    bound_amini,
    bound_hajek_renyi_classic,
    bound_rao,
    bound_theorem1,
    estimate_moment_profile,
    slln_series_check,
)
from .distributions import RandomSequenceSpec, SeedSpec, sample_iid, stable_sample
from .errors import (
    AnalyticProfileUnavailable,
    CertificateError,
    DataError,
    DigestMismatchError,
    EnumerationSizeError,
    HRBoundsError,
    HypothesisViolationError,
    NonIntegrabilityError,
    ParameterDomainError,
    ValidationError,
)
from .sequences import TrajectoryBatch, decompose, partial_sums
from .shape_functions import (
    ScaleFunction,
    ShapeFunction,
    SubadditivityCertificate,
    WeightSequence,
    subadditivity_constant,
)
from .simulation import (
    DEFAULT_DEMI_FAMILY,
    DemiCheckReport,
    MonteCarloEstimate,
    SLLNTrajectoryReport,
    binomial_estimate,
    demi_check,
    enumerate_exact,
    estimate_event_An,
    estimate_max_event,
    slln_trajectory,
    verify_bound,
)

__version__ = "0.8.0"

__all__ = [
    "event_a_n",
    "event_max_ratio",
    "BOUND_KINDS",
    "BoundReport",
    "MomentProfile",
    "SLLNSeriesReport",
    "SLLNSeriesSpec",
    "analytic_moment_profile",
    "bound_amini",
    "bound_hajek_renyi_classic",
    "bound_rao",
    "bound_theorem1",
    "estimate_moment_profile",
    "slln_series_check",
    "RandomSequenceSpec",
    "SeedSpec",
    "sample_iid",
    "stable_sample",
    "AnalyticProfileUnavailable",
    "CertificateError",
    "DataError",
    "DigestMismatchError",
    "EnumerationSizeError",
    "HRBoundsError",
    "HypothesisViolationError",
    "NonIntegrabilityError",
    "ParameterDomainError",
    "ValidationError",
    "TrajectoryBatch",
    "decompose",
    "partial_sums",
    "ScaleFunction",
    "ShapeFunction",
    "SubadditivityCertificate",
    "WeightSequence",
    "subadditivity_constant",
    "DEFAULT_DEMI_FAMILY",
    "DemiCheckReport",
    "MonteCarloEstimate",
    "SLLNTrajectoryReport",
    "binomial_estimate",
    "demi_check",
    "enumerate_exact",
    "estimate_event_An",
    "estimate_max_event",
    "slln_trajectory",
    "verify_bound",
]
