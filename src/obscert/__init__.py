"""obscert: certified sup-norm observability constants on measurable sets.

Given a function with a verified derivative-growth certificate and a
doubling (or unique-continuation) certificate, the toolkit computes an
explicit constant C with  sup|f| over the domain <= C * sup|f| over the set,
carrying every proof step with instantiated constants, and validates the
result against brute-force grid oracles.
"""

from .errors import (
    ConfigError,
    HypothesisError,
    InfeasibleError,
    ObscertError,
    ResolutionError,
    SoundnessError,
)
from .geometry import (
    Ball,
    Domain,
    Grid,
    IntervalSet,
    MeasurableSet,
    Segment,
    best_ray_intervals,
    chain_of_balls,
    cover_domain,
    densest_cover_balls,
    read_mask_raster,
    write_mask_raster,
)
from .functions import (
    DoublingCertificate,
    FunctionModel,
    Gaussian,
    GevreyCertificate,
    Polynomial1D,
    Product,
    TrigSum,
    UcpCertificate,
    derive_gevrey,
    estimate_doubling,
    sup_norm,
    verify_gevrey,
    verify_ucp,
)
from .interp import (
    NodeSet,
    PolyBound,
    denominator_lower_bound,
    lagrange_eval,
    poly_sup_bound,
    remainder_bound,
    remainder_empirical_check,
    separate_points,
)
from .certify import (
    EmpiricalRatio,
    ObservabilityCertificate,
    TraceStep,
    certify_auto,
    certify_sigma1,
    certify_sigma_gt1,
    certify_ucp,
    choose_r_sigma1,
    empirical_ratio,
    propagate_doubling,
    soundness_check,
)
from .eigensum import (
    EigenSum,
    GammaParams,
    build_eigensum,
    certify_eigensum,
    doubling_growth_study,
    gamma_params,
    orthogonality_check,
)

__version__ = "0.1.0"
