"""Exact calculus on finite probability spaces.

Core value types: FiniteProbSpace, MeasurePreservingMap, FiniteMeasure,
FiniteRandomVariable, FiltrationDiagram, Martingale, ConsistentMeasureFamily,
FinPseudometricSpace, LipschitzMap.  Everything is immutable: tables are
tuples, and the keyed tables (`MeasurePreservingMap.assign`,
`LipschitzMap.assign`, `FiltrationDiagram.spaces` and `.connect`,
`Martingale.family`, `ConsistentMeasureFamily.family`) are read-only
mappings, so the checks made at construction hold for good (a map's `.assign`
view and a diagram's composites are built on first read, from what was checked).
Values are exact on the rational backend and tolerance-checked on the float backend.
"""

from . import errors
from .diagram import (
    CauchyCertificate,
    ConsistentMeasureFamily,
    DyadicGround,
    FiltrationDiagram,
    IsometryReport,
    Martingale,
    MartingaleCheck,
    cauchy_certificate,
    dyadic_error,
    dyadic_experiment,
    induced_martingale,
    is_martingale,
    isometry_report,
    kolmogorov_extend,
    make_dyadic,
    martingale_limit,
    restrict_measure,
    rn_family,
    second_moment_gap,
    second_moment_identity_report,
    validate,
)
from .finmeas import (
    FiniteMeasure,
    base_measure,
    bound_check,
    make_measure,
    pushforward,
    rho,
    rn_derivative,
    truncate_measure,
    tv_distance,
    zero_measure,
)
from .finprob import (
    FiniteProbSpace,
    MeasurePreservingMap,
    as_equal,
    compose,
    identity_map,
    make_map,
    make_space,
    map_distance,
    uniform_space,
)
from .finrv import (
    FiniteRandomVariable,
    cond_exp,
    cond_exp_residuals,
    constant_rv,
    expectation,
    l1_distance,
    make_rv,
    max_value,
    pullback,
    second_moment,
    truncate_rv,
)
from .metcat import (
    INF,
    FinPseudometricSpace,
    LipschitzMap,
    completion,
    coequalizer,
    coproduct,
    curry,
    equalizer,
    hom,
    hom_distance,
    metric_reflection,
    product,
    projection,
    scale,
    tensor,
    uncurry,
)
from .scalar import EXACT, FLOAT

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
