"""Distributions, limit laws, and predictors for Fibonacci sequences of
random variables: sequences seeded by two random values where every later
member is the sum of the previous two."""

from .errors import (
    DegenerateSampleError,
    DomainError,
    FibOverflowError,
    FsrvError,
    KsUnreliableWarning,
    NonConvergenceError,
    OutsideSupportError,
)
from .fib_core import MAX_INDEX, PHI, docagne, fib, prefix_sum, ratio
from .joint_predict import (
    JointLaw,
    joint_law,
    joint_normalization_check,
    joint_pdf,
    joint_support,
    predict,
    predict_exponential_4_to_7,
    prediction_curve,
)
from .limits import (
    cdf_limit_exponential_closed,
    cdf_limit_uniform_closed,
    limit_density_law,
    pdf_limit_exponential_closed,
    pdf_limit_numeric,
    pdf_limit_uniform_closed,
    pdf_sum,
    pdf_sum_exponential_closed,
    sum_density_law,
)
from .marginal import (
    DensityLaw,
    FsrvModel,
    LinearForm,
    RatioDiagnostics,
    exponential_model,
    limit_form,
    member_form,
    member_law,
    mode_exponential,
    normal_model,
    pdf_exponential_closed,
    pdf_normal_closed,
    pdf_numeric,
    pdf_uniform_closed,
    ratio_diagnostics,
    sum_form,
    uniform_model,
)
from .numerics import (
    DensityCurve,
    integrate,
    scaled_convolution,
)
from .seeds import (
    Exponential,
    SeedDistribution,
    StandardNormal,
    Tabulated,
    UniformUnit,
    parse_seed_spec,
    tabulated_from_csv,
)
from .simulate import (
    RatioStats,
    SimulationConfig,
    SimulationRun,
    ks_distance,
    ratio_stats,
    run_simulation,
    sample_path,
)

__version__ = "0.1.0"
