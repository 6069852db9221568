"""Design-based estimation of the L1-median of a population of curves."""

from .curves import (
    Curve,
    CurvePopulation,
    TimeGrid,
    inner_product,
    mean_curve,
    norm,
    pointwise_median,
)
from .designs import (
    DESIGNS,
    PpsWr,
    SampleDraw,
    Srswor,
    StrataSpec,
    Stratified,
    Systematic,
    as_seed,
    draw_ppswr,
    draw_srswor,
    draw_stratified,
    draw_systematic,
    joint_inclusion,
    pi_kl_matrix,
    pps_weights_from_curves,
)
from .errors import (
    DesignError,
    EstimationError,
    GridMismatchError,
    LinearizationError,
    MedcurveError,
    ParseError,
)
from .estimators import (
    WeightedSample,
    ht_median,
    ht_weights,
    poststratified_weights,
)
from .linearize import GammaMatrix, LinearizedSet, gamma_matrix, linearized_variables
from .simulate import (
    DesignPlan,
    MonteCarloReport,
    SynthConfig,
    SynthPopulation,
    concat_weeks,
    loss_r_median,
    loss_r_variance,
    monte_carlo_compare,
    standard_design_suite,
    synth_population,
)
from .solver import MedianFit, SolverConfig, l1_median, objective_value, score
from .stratify import (
    Allocation,
    kmeans_strata,
    optimal_allocation,
    proportional_allocation,
    quartile_strata,
)
from .variance import (
    VarianceFunction,
    median_variance,
    variance_estimate,
    variance_estimate_generic,
    variance_function,
    variance_function_generic,
)

__version__ = "0.1.0"
