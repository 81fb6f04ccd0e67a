"""Exact solvers for turn-based pursuit games with one selfish cop per player.

The package decides, for a graph, a player count and exact rational payoff
parameters, whether positional trigger profiles exist; solves the underlying
capture-time and discounted games; computes coalition-based state cop
numbers; and sorts graphs into a taxonomy by who can catch the robber and
whether the catcher is predetermined.

Each name below is imported from its module on first use (PEP 562), so
`import scar` loads no numpy until a solver is asked for.
"""

import importlib
import sys
import types

_EXPORTS = {
    "arena": "Arena GameParams Play State all_cops_one_side build_arena format_state "
             "parse_state reachable_noncapture simulate",
    "classify": "Classification classify g3_guarantee_test in_script_g",
    "crsolver": "CrSolution capture_attribution classic_cop_number classic_cop_win "
                "solve_capture_time",
    "errors": "DisconnectedGraphError DuplicateEdgeError GraphFormatError IllegalMoveError "
              "MalformedLineError ScarError SelfLoopError StateCountExceededError "
              "UniquenessViolationError ValidationError",
    "graphs": "Graph attach_leaf bridge builtin graph_from_edges load_edge_list "
              "parse_edge_list serialize_edge_list",
    "positionality": "PositionalityVerdict TriggerProfile TriggerRun build_trigger_profile "
                     "check_positionality positionality_table scan_region simulate_trigger",
    "rationals": "Q format_rational parse_rational",
    "scarsolver": "GameSolution opt_move_table solve_game terminal_payoff",
    "statecop": "StateCopReport coalition_winning_set crosscheck_theorem guaranteed_capture "
                "state_cop_number state_cop_report",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

# submodules that stay reachable as attributes of a bare `import scar`
_SUBMODULES = ("arena", "crsolver", "errors", "fixpoint", "graphs", "positionality",
               "rationals", "scarsolver", "statecop")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        # Bound here, so later reads skip this hook, and a tool that swaps a
        # function wherever getattr finds it (perfbench/tracing.py) can save
        # and restore the package's binding through its __dict__.
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading the submodule scar.classify binds it here by that name;
        # `scar.classify` stays the function, as the export table says.
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
