"""Sandpile growth in a walled convex silo, with transport certification."""

from .cones import run
from .fields import height_field, rolling_measure, spill_measure
from .geometry import ConvexDomain
from .regions import build_grid, partition
from .sources import discretize, make_sources
from .verify import build_problem, certify, solve_primal, wasserstein

__all__ = [
    "ConvexDomain",
    "build_grid",
    "build_problem",
    "certify",
    "discretize",
    "height_field",
    "make_sources",
    "partition",
    "rolling_measure",
    "run",
    "solve_primal",
    "spill_measure",
    "wasserstein",
]
