"""Exact cross-ratio degree engine."""

from .canon import canonical_key, canonical_relabeling
from .core import (
    DoubleCut,
    Engine,
    ThreeCut,
    default_engine,
    degree,
    double_cut,
    normalize,
    three_cut,
)
from .instance import CrossRatioProblem
from .surplus import surplus_violated
from .trees import MarkedTree, TreeEdge, contributing_trees

__all__ = [
    "CrossRatioProblem",
    "Engine",
    "ThreeCut",
    "DoubleCut",
    "degree",
    "surplus_violated",
    "three_cut",
    "double_cut",
    "normalize",
    "default_engine",
    "canonical_key",
    "canonical_relabeling",
    "MarkedTree",
    "TreeEdge",
    "contributing_trees",
]
