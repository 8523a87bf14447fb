"""Core TOL machinery: labeling, construction, updates, reduction, facades."""

from .butterfly import butterfly_build
from .deletion import delete_vertex
from .frozen import FrozenTOLIndex, freeze
from .index import ReachabilityIndex, TOLIndex
from .insertion import LevelChoice, Placement, choose_level, insert_vertex
from .intern import VertexInterner
from .labeling import TOLLabeling
from .ops import UpdateOp
from .order import LevelOrder
from .protocols import ReachabilityQuerier
from .orders import (
    ORDER_STRATEGIES,
    butterfly_lower_order,
    butterfly_upper_order,
    degree_order_strategy,
    exact_greedy_order,
    exact_scores,
    hierarchical_order_strategy,
    lower_bound_scores,
    random_order_strategy,
    resolve_order_strategy,
    reverse_topological_order_strategy,
    score_function,
    topological_order_strategy,
    upper_bound_scores,
)
from .reduction import ReductionReport, reduce_labels
from .serialize import index_to_dict, load_index, save_index
from .stats import LabelStats, labeling_stats, top_label_holders
from .reference import ancestors_map, descendants_map, reference_tol
from .validation import (
    TOLViolation,
    assert_queries_correct,
    assert_valid_tol,
    find_violations,
)

__all__ = [
    "TOLIndex",
    "ReachabilityIndex",
    "FrozenTOLIndex",
    "freeze",
    "TOLLabeling",
    "VertexInterner",
    "ReachabilityQuerier",
    "LevelOrder",
    "UpdateOp",
    "butterfly_build",
    "insert_vertex",
    "delete_vertex",
    "choose_level",
    "LevelChoice",
    "Placement",
    "reduce_labels",
    "ReductionReport",
    "reference_tol",
    "save_index",
    "load_index",
    "index_to_dict",
    "LabelStats",
    "labeling_stats",
    "top_label_holders",
    "descendants_map",
    "ancestors_map",
    "assert_valid_tol",
    "assert_queries_correct",
    "find_violations",
    "TOLViolation",
    "ORDER_STRATEGIES",
    "resolve_order_strategy",
    "score_function",
    "exact_scores",
    "upper_bound_scores",
    "lower_bound_scores",
    "butterfly_upper_order",
    "butterfly_lower_order",
    "topological_order_strategy",
    "reverse_topological_order_strategy",
    "degree_order_strategy",
    "hierarchical_order_strategy",
    "exact_greedy_order",
    "random_order_strategy",
]
