"""Sliding-token reconfiguration solvers for proper interval graphs,
trivially perfect graphs, and caterpillars, with an exact BFS oracle."""

from .caterpillar import mark_locked, prepare_caterpillar, solve_caterpillar
from .crosscheck import CrosscheckReport, Mismatch, crosscheck
from .generate import GenerationError, gen_instance, quadratic_path_instance
from .graphs import (
    Graph,
    ValidationResult,
    find_strong_twins,
    validate_sequence,
)
from .instances import (
    Instance,
    InstanceFormatError,
    parse_instance,
    parse_sequence,
    serialize_instance,
    serialize_sequence,
)
from .intervals import (
    GraphClass,
    IntervalRepresentation,
    RepresentationError,
    parse_representation,
)
from .oracle import OracleResult, SlideSpace, bfs
from .proper import prepare_proper, solve_proper
from .results import SolveResult, SolverInputError
from .trivially_perfect import prepare_tp, solve_tp

__all__ = [
    "CrosscheckReport",
    "GenerationError",
    "Graph",
    "GraphClass",
    "Instance",
    "InstanceFormatError",
    "IntervalRepresentation",
    "Mismatch",
    "OracleResult",
    "RepresentationError",
    "SlideSpace",
    "SolveResult",
    "SolverInputError",
    "ValidationResult",
    "bfs",
    "crosscheck",
    "find_strong_twins",
    "gen_instance",
    "mark_locked",
    "parse_instance",
    "parse_representation",
    "parse_sequence",
    "prepare_caterpillar",
    "prepare_proper",
    "prepare_tp",
    "quadratic_path_instance",
    "serialize_instance",
    "serialize_sequence",
    "solve_caterpillar",
    "solve_proper",
    "solve_tp",
    "validate_sequence",
]

__version__ = "0.1.0"
