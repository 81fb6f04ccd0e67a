"""Exact solvers for turn-based pursuit games with one selfish cop per player.

The package decides, for a graph, a player count and exact rational payoff
parameters, whether positional trigger profiles exist; solves the underlying
capture-time and discounted games; computes coalition-based state cop
numbers; and sorts graphs into a taxonomy by who can catch the robber and
whether the catcher is predetermined.
"""

from .arena import (
    Arena,
    GameParams,
    Play,
    State,
    all_cops_one_side,
    build_arena,
    format_state,
    parse_state,
    reachable_noncapture,
    simulate,
)
from .classify import Classification, classify, g3_guarantee_test, in_script_g
from .crsolver import (
    CrSolution,
    capture_attribution,
    classic_cop_number,
    classic_cop_win,
    solve_capture_time,
)
from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphFormatError,
    IllegalMoveError,
    MalformedLineError,
    ScarError,
    SelfLoopError,
    StateCountExceededError,
    UniquenessViolationError,
    ValidationError,
)
from .graphs import (
    Graph,
    attach_leaf,
    bridge,
    builtin,
    graph_from_edges,
    load_edge_list,
    parse_edge_list,
    serialize_edge_list,
)
from .positionality import (
    PositionalityVerdict,
    TriggerProfile,
    TriggerRun,
    build_trigger_profile,
    check_positionality,
    positionality_table,
    scan_region,
    simulate_trigger,
)
from .rationals import Q, format_rational, parse_rational
from .scarsolver import GameSolution, opt_move_table, solve_game, terminal_payoff
from .statecop import (
    StateCopReport,
    coalition_winning_set,
    crosscheck_theorem,
    guaranteed_capture,
    state_cop_number,
    state_cop_report,
)

__version__ = "0.1.0"
