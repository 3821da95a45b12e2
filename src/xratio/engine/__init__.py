"""Exact cross-ratio degree engine."""

from .canon import canonical_key, canonical_relabeling
from .core import Engine, default_engine, degree, normalize
from .instance import CrossRatioProblem
from .trees import MarkedTree, TreeEdge, contributing_trees

__all__ = [
    "CrossRatioProblem",
    "Engine",
    "degree",
    "normalize",
    "default_engine",
    "canonical_key",
    "canonical_relabeling",
    "MarkedTree",
    "TreeEdge",
    "contributing_trees",
]
