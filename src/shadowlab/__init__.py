"""Finite-horizon laboratory for pseudo-orbits, their repair, and tracing search."""

from .cesaro import (
    BoundedSequence,
    NullSetExtraction,
    extract_null_set,
    threshold_inequality_holds,
    verify_equivalence,
)
from .concat import BlockPlan, asymptotic_certificate, concatenate
from .density import (
    IndexSet,
    in_M_alpha,
    lower_density_estimate,
    prefix_density,
    prefix_density_exact,
    upper_density_estimate,
)
from .disk_example import (
    DiskExampleInstance,
    aasp_demo,
    build_disk_system,
    make_decaying_instance,
    step_recurrence_holds,
    tracking_inequality_check,
    tracking_inequality_curve,
)
from .dynamics import (
    GeneratorFamily,
    GeneratorMap,
    MetricSpace,
    Word,
    check_self_mapping,
    net,
    orbit,
)
from .errors import (
    DomainError,
    IntegrityError,
    ParameterError,
    PreconditionError,
    RangeError,
    ResourceCapError,
    ShadowlabError,
)
from .pseudo_orbits import (
    JumpRule,
    PseudoOrbit,
    is_asymptotic_average,
    is_average_pseudo_orbit,
    is_ergodic_pseudo_orbit,
    is_pseudo_orbit,
    is_weak_asymptotic_average,
    make_corrupted_orbit,
    true_orbit,
)
from .shadow_search import (
    RefinedSearchResult,
    SearchResult,
    ShadowReport,
    average_shadow_search,
    diameter_bound_check,
    m_alpha_shadow_search,
    markov_inequality_check,
    refined_asymptotic_search,
    trace_report,
)
from .surgery import RepairResult, block_length, repair, select_anchors, window_violation_bound_check
from .verdict import ClassificationVerdict

__version__ = "0.1.0"

__all__ = [
    "BlockPlan", "BoundedSequence", "ClassificationVerdict", "DiskExampleInstance",
    "DomainError", "GeneratorFamily", "GeneratorMap", "IndexSet", "IntegrityError",
    "JumpRule", "MetricSpace", "NullSetExtraction", "ParameterError", "PreconditionError",
    "PseudoOrbit", "RangeError", "RefinedSearchResult", "RepairResult", "ResourceCapError",
    "SearchResult", "ShadowReport", "ShadowlabError", "Word",
    "aasp_demo", "asymptotic_certificate", "average_shadow_search",
    "block_length", "build_disk_system", "check_self_mapping",
    "concatenate", "diameter_bound_check", "extract_null_set", "in_M_alpha",
    "is_asymptotic_average", "is_average_pseudo_orbit", "is_ergodic_pseudo_orbit",
    "is_pseudo_orbit", "is_weak_asymptotic_average", "lower_density_estimate",
    "m_alpha_shadow_search", "make_corrupted_orbit", "make_decaying_instance",
    "markov_inequality_check", "net", "orbit", "prefix_density",
    "prefix_density_exact", "refined_asymptotic_search", "repair", "select_anchors",
    "step_recurrence_holds", "threshold_inequality_holds", "trace_report",
    "tracking_inequality_check", "tracking_inequality_curve", "true_orbit",
    "upper_density_estimate", "verify_equivalence", "window_violation_bound_check",
]
