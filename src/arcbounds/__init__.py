"""Certified elementary bounds for the arc cosine function.

The package builds two-sided bounds of the shape
c * sqrt(1-x) / (a + sqrt(1+x)) around arccos(x), classifies the
monotonicity regimes that make the constants best possible, sharpens the
bounds through a pointwise-optimized kernel, verifies every claim on
dense grids, and scans a generalized three-parameter family for
monotonicity.
"""

from .analysis import (
    MinimumResult,
    bisect_sign_change,
    find_minimum,
    min_floor_gap,
    min_value_lower,
    slope_factor,
    slope_factor_limit0,
    slope_quadratic,
    slope_quadratic_roots,
    slope_term,
    slope_threshold,
    threshold_gap,
)
from .errors import ConvergenceError, DomainError, RegimeError, SingularFamilyError
from .explore import (
    ScanClassification,
    Verdict,
    classify_family,
    generalized_ratio,
    scan_grid,
)
from .family import (
    A_STAR,
    SQRT2,
    TWO_SQRT2,
    BoundPair,
    Regime,
    arccos_ratio,
    arccos_stable,
    bound_arrays,
    bound_pair,
    bound_ratio,
    classify_regime,
    endpoint_limits,
    lower_constant,
    upper_constant,
)
from .grids import DEFAULT_GRID, SCAN_GRID, GridSpec
from .sharp import (
    A_CROSS,
    ONE_PLUS_SQRT3,
    SharpBounds,
    a_star_pair,
    best_lower,
    best_pair,
    best_upper,
    carlson_pair,
    lambda_lower,
    lower_gain,
    lower_gain_argmax,
    lower_gain_max,
    sqrt3_lower,
)
from .verify import (
    CLAIMS,
    ComparisonResult,
    VerificationReport,
    compare_bounds,
    run_claims,
)

__version__ = "0.1.0"
