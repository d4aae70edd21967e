"""Finite-horizon laboratory for pseudo-orbits, their repair, and tracing search."""

from .cesaro import BoundedSequence, NullSetExtraction, extract_null_set, verify_equivalence
from .concat import BlockPlan, asymptotic_certificate, concatenate
from .density import IndexSet, prefix_density, upper_density_estimate
from .disk_example import (
    DiskExampleInstance,
    aasp_demo,
    build_disk_system,
    make_decaying_instance,
    tracking_inequality_curve,
)
from .dynamics import GeneratorFamily, GeneratorMap, JumpRule, MetricSpace, Word, net, orbit
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
    m_alpha_shadow_search,
    refined_asymptotic_search,
    trace_report,
)
from .surgery import RepairResult, block_length, repair, select_anchors
from .verdict import ClassificationVerdict

__version__ = "0.1.0"

__all__ = [
    "BlockPlan", "BoundedSequence", "ClassificationVerdict", "DiskExampleInstance",
    "DomainError", "GeneratorFamily", "GeneratorMap", "IndexSet", "IntegrityError",
    "JumpRule", "MetricSpace", "NullSetExtraction", "ParameterError", "PreconditionError",
    "PseudoOrbit", "RangeError", "RefinedSearchResult", "RepairResult", "ResourceCapError",
    "SearchResult", "ShadowReport", "ShadowlabError", "Word",
    "aasp_demo", "asymptotic_certificate", "average_shadow_search", "block_length",
    "build_disk_system", "concatenate", "extract_null_set", "is_asymptotic_average",
    "is_average_pseudo_orbit", "is_ergodic_pseudo_orbit", "is_pseudo_orbit",
    "is_weak_asymptotic_average", "m_alpha_shadow_search", "make_corrupted_orbit",
    "make_decaying_instance", "net", "orbit", "prefix_density",
    "refined_asymptotic_search", "repair", "select_anchors", "trace_report",
    "tracking_inequality_curve", "true_orbit", "upper_density_estimate",
    "verify_equivalence",
]
