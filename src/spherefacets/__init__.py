"""Facet counts and facet-height laws of spherical random polytopes.

The package evaluates, exactly and asymptotically, the expected number
and the height distribution of facets of the convex hull of n i.i.d.
uniform points on the unit sphere in R^d, and cross-validates the
formulas against Monte Carlo facet censuses.
"""

from .logreal import LogReal
from .numerics import (
    BoundsReport,
    check_bounds_suite,
    gauss_beta_norm,
    log_inner_cdf,
    log_norm_cdf,
    log_reg_inc_beta,
    norm_cdf,
    random_bounds_grid,
    scaled_beta_cdf,
)
from .quadrature import QuadratureError
from .exact import (
    FULL_RANGE,
    HeightInterval,
    PolytopeParams,
    TypicalHeightLaw,
    cdf_table,
    expected_facets,
    gamma_statistic_cdf,
    height_integral,
    typical_height_cdf,
    typical_height_quantile,
)
from .asymptotics import (
    AmbiguousFamilyError,
    FacetCountAsymptotic,
    GrowthFamily,
    HausdorffAsymptotic,
    Regime,
    RegimeSpec,
    TypicalHeightAsymptotic,
    classify,
    concentration_height,
    count_rate,
    count_rate_roots,
    facet_count_asymptotic,
    facets_per_vertex_limit,
    glasauer_schneider_constant,
    hausdorff_asymptotic,
    height_rate,
    height_rate_prime,
    height_window,
    limit_height,
    origin_outside_prob,
    parse_family,
    rate_argmax,
    typical_height_asymptotic,
)
from .montecarlo import (
    CensusSummary,
    DegenerateSampleError,
    EnsembleReport,
    EnsembleSpec,
    FacetRecord,
    estimate,
    facet_census,
    ks_distance,
    sample_sphere,
    write_facet_csv,
)

__version__ = "0.1.0"
