"""Multivariable fractional integral operators of Erdelyi-Kober type,
their pathway extensions, and the statistical machinery (exact samplers,
Mellin transforms, Monte Carlo density checks) that verifies each operator
is a known constant multiple of a joint density.
"""

from .densities import (
    BetaParams,
    DirichletParams,
    GenDirichletParams,
    PathwayDimParams,
    SampleMatrix,
    beta1_pdf,
    beta1_sample,
    dirichlet1_sample,
    gen_dirichlet1_pdf,
    gen_dirichlet1_sample,
    pathway_factor,
    pathway_limit_factor,
    pathway_pdf,
    pathway_sample,
)
from .errors import (
    DomainError,
    EkstatError,
    EmptyRequestError,
    EvaluationError,
    ParameterError,
    PoleError,
    ShapeError,
    SizeError,
    UsageError,
)
from .kober import (
    IDENTITY_IDS,
    DimParams,
    MultiDensity,
    OperatorResult,
    gamma_product,
    kober1_eval,
    kober2_eval,
    operator_image,
    pathway_kober1_eval,
    pathway_kober2_eval,
    predicted_density,
)
from .mc_oracle import (
    TheoremSpec,
    VerificationReport,
    default_probes,
    histogram_estimate,
    make_spec,
    simulate,
    verify,
)
from .mellin import (
    MellinCheckReport,
    MellinResult,
    default_s_grid,
    kober_mellin_ratio,
    mellin_factorization_check,
    mellin_numeric,
)
from .quadrature import QuadratureRule, jacobi_rule
from .transforms import forward, inverse, jacobian, ratio_beta_pairs

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
