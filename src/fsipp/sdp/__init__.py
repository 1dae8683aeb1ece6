"""Equality-form semidefinite programming: model, builder, solver."""

from .build import LinExpr, LmiHandle, PsdHandle, SdpBuilder, VecHandle
from .model import (LmiBlock, PsdBlock, SdpProblem, SdpSolution,
                    check_solution, tri_index, tri_indices)
from .solver import solve

__all__ = [
    "LinExpr", "LmiBlock", "LmiHandle", "PsdBlock", "PsdHandle", "SdpBuilder",
    "SdpProblem", "SdpSolution", "VecHandle", "check_solution", "solve",
    "tri_index", "tri_indices",
]
