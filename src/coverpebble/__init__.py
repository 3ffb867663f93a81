"""Cover pebbling toolkit.

A pebbling move removes two pebbles from a vertex and places one on a
neighbor.  A configuration covers a graph when some move sequence
leaves at least one pebble on every target vertex simultaneously; the
cover pebbling number of a graph is the least size at which every
configuration of that size can do so.

The package provides the graph families the closed forms apply to,
an exhaustive solver that decides single configurations and computes
exact cover pebbling numbers, the closed-form values and bounds, and
constructive solvers that output replayable move certificates.
"""

from .constructive import (
    DiameterStep,
    DiameterTrace,
    format_trace,
    shortest_path,
    solve_diameter,
    solve_multipartite,
    solve_pigeonhole,
    solve_wheel,
)
from .errors import (
    BudgetExceeded,
    DisconnectedGraph,
    IllegalMoveAt,
    InternalAssertion,
    InvalidEdge,
    InvalidSpec,
    LengthMismatch,
    NotCoveredAtEnd,
    ParseError,
    PebblingError,
    PreconditionViolated,
    StrategyIncomplete,
)
from .exact import (
    GammaResult,
    SolveMemo,
    SolveOutcome,
    ThresholdResult,
    composition_count,
    gamma_exact,
    iter_count_vectors,
    solve,
    verify_threshold,
)
from .formulas import (
    BoundReport,
    bound_report,
    diameter_bound,
    gamma_multipartite,
    gamma_wheel,
    stack_cost,
    weighted_cover_bound,
)
from .graphs import (
    FamilySpec,
    Fuse,
    Graph,
    Multipartite,
    Path,
    Star,
    Wheel,
    build_graph,
    format_graph_text,
    generate,
    parse_graph_text,
)
from .pebbles import (
    BinaryWeighting,
    Certificate,
    Configuration,
    PebblingMove,
    format_config,
    format_weighting,
    is_covered,
    is_permissible,
    parse_config,
    parse_weighting,
    stacked,
    validate_certificate,
)

__all__ = [
    "BinaryWeighting",
    "BoundReport",
    "BudgetExceeded",
    "Certificate",
    "Configuration",
    "DiameterStep",
    "DiameterTrace",
    "DisconnectedGraph",
    "FamilySpec",
    "Fuse",
    "GammaResult",
    "Graph",
    "IllegalMoveAt",
    "InternalAssertion",
    "InvalidEdge",
    "InvalidSpec",
    "LengthMismatch",
    "Multipartite",
    "NotCoveredAtEnd",
    "ParseError",
    "Path",
    "PebblingError",
    "PebblingMove",
    "PreconditionViolated",
    "SolveMemo",
    "SolveOutcome",
    "Star",
    "StrategyIncomplete",
    "ThresholdResult",
    "Wheel",
    "bound_report",
    "build_graph",
    "composition_count",
    "diameter_bound",
    "format_config",
    "format_graph_text",
    "format_trace",
    "format_weighting",
    "gamma_exact",
    "gamma_multipartite",
    "gamma_wheel",
    "generate",
    "is_covered",
    "is_permissible",
    "iter_count_vectors",
    "parse_config",
    "parse_graph_text",
    "parse_weighting",
    "shortest_path",
    "solve",
    "solve_diameter",
    "solve_multipartite",
    "solve_pigeonhole",
    "solve_wheel",
    "stack_cost",
    "stacked",
    "validate_certificate",
    "verify_threshold",
    "weighted_cover_bound",
]

__version__ = "0.1.0"
