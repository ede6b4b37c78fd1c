"""Pin-assignment engine for hardware/software interface boards.

Given a pin-capability table and a requested multiset of functions, finds
one feasible, all possible, or the minimum-cost assignment of functions to
physical pins, counts the configuration space exactly, and emits equivalent
Prolog/Alloy model-checking inputs and a DOT visualization of the domain.
"""

from .board import (
    Board,
    BoardParseError,
    FunctionEntry,
    NO_DETAIL,
    Pin,
    board_stats,
    canonical_kind,
    parse_board,
    serialize_board,
)
from .codegen import (
    EmitterOutput,
    emit_alloy_best_assertions,
    emit_alloy_feasibility_assertion,
    emit_alloy_spec,
    emit_graph_dot,
    emit_prolog,
)
from .configops import (
    BoardMismatchError,
    ConfigDiff,
    PinChange,
    apply_diff,
    diff_assignments,
    extend_assignment,
    merge_requests,
)
from .counting import config_space, config_space_board, k_factor
from .request import Request, RequestParseError, parse_request
from .solver import (
    AllPinsUsedWarning,
    Assignment,
    Binding,
    EnumerationLimitError,
    Infeasible,
    Rejection,
    Semantics,
    SolveOptions,
    SolveOutcome,
    Witness,
    check_witness,
    enumerate_all,
    find_best,
    find_feasible,
    iter_assignments,
    quick_reject,
)

__all__ = [
    "AllPinsUsedWarning",
    "Assignment",
    "Binding",
    "Board",
    "BoardMismatchError",
    "BoardParseError",
    "ConfigDiff",
    "EmitterOutput",
    "EnumerationLimitError",
    "FunctionEntry",
    "Infeasible",
    "NO_DETAIL",
    "Pin",
    "PinChange",
    "Rejection",
    "Request",
    "RequestParseError",
    "Semantics",
    "SolveOptions",
    "SolveOutcome",
    "Witness",
    "apply_diff",
    "board_stats",
    "canonical_kind",
    "check_witness",
    "config_space",
    "config_space_board",
    "diff_assignments",
    "emit_alloy_best_assertions",
    "emit_alloy_feasibility_assertion",
    "emit_alloy_spec",
    "emit_graph_dot",
    "emit_prolog",
    "enumerate_all",
    "extend_assignment",
    "find_best",
    "find_feasible",
    "iter_assignments",
    "k_factor",
    "merge_requests",
    "parse_board",
    "parse_request",
    "quick_reject",
    "serialize_board",
]

__version__ = "0.1.0"
