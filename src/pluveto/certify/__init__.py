"""Certificates and mechanical checks for the veto rules' guarantees:
domination-graph matchings, weighted fractional matchings, flow-based cost
bounds with their dual translation, and exact LP worst-case distortion.
"""

from .distortion import (
    DistortionInputError,
    DistortionResult,
    LPInternalError,
    distortion,
    worst_case_distortion,
)
from .domination import (
    PQDominationGraph,
    domination_graph,
    fractional_perfect_matching,
    has_perfect_matching,
    is_fractional_perfect_matching,
    pq_domination_graph,
    verify_veto_matching,
)
from .flow import (
    DualReport,
    FlowAssignment,
    FlowCheck,
    FlowError,
    construct_flow,
    dual_from_flow,
    format_flow,
    parse_flow,
    verify_flow,
)
from .metric import Metric, metric_to_csv
from .simplex import LPResult, LPStatus, linprog_max

__all__ = [
    "DistortionInputError",
    "DistortionResult",
    "LPInternalError",
    "distortion",
    "worst_case_distortion",
    "PQDominationGraph",
    "domination_graph",
    "pq_domination_graph",
    "has_perfect_matching",
    "fractional_perfect_matching",
    "is_fractional_perfect_matching",
    "verify_veto_matching",
    "DualReport",
    "FlowAssignment",
    "FlowCheck",
    "FlowError",
    "construct_flow",
    "dual_from_flow",
    "format_flow",
    "parse_flow",
    "verify_flow",
    "Metric",
    "metric_to_csv",
    "LPResult",
    "LPStatus",
    "linprog_max",
]
