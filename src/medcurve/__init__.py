"""Design-based estimation of the L1-median of a population of curves."""

from .curves import (
    Curve,
    CurvePopulation,
    TimeGrid,
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
from .linearize import GammaMatrix, LinearizedSet, linearized_variables
from .simulate import (
    DesignPlan,
    MonteCarloReport,
    SynthConfig,
    SynthPopulation,
    loss_r_median,
    loss_r_variance,
    monte_carlo_compare,
    standard_design_suite,
    synth_population,
)
from .solver import MedianFit, SolverConfig, l1_median, objective_value
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
    variance_function,
)

__version__ = "0.1.0"
