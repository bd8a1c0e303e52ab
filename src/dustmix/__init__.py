"""dustmix: deconvolution of categorical particle-count mixtures.

Count samples collected from known single-source locations and from trace
surfaces are modelled jointly; variational inference with exact
box-constrained hyperparameter updates recovers each source's particle-type
profile and each trace's source mixing proportions, reported as Beta
posterior marginals with highest-density intervals.
"""

from .model import (
    Corpus,
    CorpusValidationError,
    DirichletMatrix,
    FitResult,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    Violation,
    validate_corpus,
)
from .numerics import (
    BetaShape,
    CredibleInterval,
    beta_hpdi,
    beta_summary,
    digamma,
    log_gamma,
)
from .posterior import PosteriorReport, build_report, theta_marginal
from .simulator import ScenarioSpec, StudySpec, generate_sample, profiles_from_counts, run_study
from .vbi import FitConfig, NumericalFailure, fit

__version__ = "0.1.0"

__all__ = [
    "BetaShape",
    "Corpus",
    "CorpusValidationError",
    "CredibleInterval",
    "DirichletMatrix",
    "FitConfig",
    "FitResult",
    "Location",
    "LocationRole",
    "NumericalFailure",
    "ParticleCatalog",
    "PosteriorReport",
    "SampleCounts",
    "ScenarioSpec",
    "StudySpec",
    "Violation",
    "__version__",
    "beta_hpdi",
    "beta_summary",
    "build_report",
    "digamma",
    "fit",
    "generate_sample",
    "log_gamma",
    "profiles_from_counts",
    "run_study",
    "theta_marginal",
    "validate_corpus",
]
