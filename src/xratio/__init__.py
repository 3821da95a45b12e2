"""xratio: exact and numeric degrees of cross-ratio configurations.

A configuration on n labels is a multiset of n-3 quadruples; its degree
counts the generic fibers of the induced product of cross-ratio maps.
The package computes these degrees exactly (engine), checks them
numerically (oracle), relates them to polygon triangulations (polygon),
and searches for extremal configurations (search).
"""

from .engine import (
    CrossRatioProblem,
    Engine,
    MarkedTree,
    contributing_trees,
    degree,
    normalize,
)
from .oracle import (
    FiberCount,
    PathBudgetError,
    build_system,
    matching_bound,
    numeric_degree,
    solve_total_degree,
)
from .polygon import (
    Triangulation,
    closed_formula_degree,
    diagonal_to_quad,
    enumerate_triangulations,
    inscribed_polygon_triangulation,
    internal_triangle_count,
    random_triangulation,
    triangulation_to_problem,
    triangles_of,
)
from .search import bound_report, exhaustive_cn, heuristic_cn

__version__ = "0.1.0"
