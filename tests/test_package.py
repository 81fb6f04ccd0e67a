"""The package's lazy exports: every name is there, each one resolves to
its module's object, and the name `classify` stays the function."""

import os
import subprocess
import sys
from pathlib import Path

import scar

EXPORTS = sorted("""
    Arena Classification CrSolution DisconnectedGraphError DuplicateEdgeError GameParams
    GameSolution Graph GraphFormatError IllegalMoveError MalformedLineError Play
    PositionalityVerdict Q ScarError SelfLoopError State StateCopReport
    StateCountExceededError TriggerProfile TriggerRun UniquenessViolationError ValidationError
    all_cops_one_side attach_leaf bridge build_arena build_trigger_profile builtin
    capture_attribution check_positionality classic_cop_number classic_cop_win classify
    coalition_winning_set crosscheck_theorem format_rational format_state g3_guarantee_test
    graph_from_edges guaranteed_capture in_script_g load_edge_list opt_move_table
    parse_edge_list parse_rational parse_state positionality_table reachable_noncapture
    scan_region serialize_edge_list simulate simulate_trigger solve_capture_time solve_game
    state_cop_number state_cop_report terminal_payoff
""".split())


def test_all_and_dir_list_every_export():
    assert len(EXPORTS) == 58
    assert sorted(scar.__all__) == EXPORTS
    assert set(EXPORTS) <= set(dir(scar))


def test_a_star_import_binds_every_export_to_its_modules_object():
    namespace: dict = {}
    exec("from scar import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == EXPORTS
    for name, value in namespace.items():
        assert value is getattr(sys.modules[f"scar.{scar._HOME[name]}"], name)


def test_a_resolved_export_is_bound_in_the_package():
    """A tool that swaps a function wherever getattr finds it saves the old
    value from each module's __dict__, the package's included."""
    solve_game = scar.solve_game
    assert vars(scar)["solve_game"] is solve_game is sys.modules["scar.scarsolver"].solve_game


def test_an_unknown_name_is_an_attribute_error():
    assert getattr(scar, "no_such_name", None) is None


def test_submodules_import_from_the_package():
    from scar import fixpoint, statecop

    assert statecop is sys.modules["scar.statecop"]
    assert scar.fixpoint is fixpoint


def test_classify_stays_the_function_when_its_module_loads_first():
    """Loading scar.classify binds the module on the package by that name;
    the export table keeps the function there, in either order."""
    code = ("import sys, scar.classify, scar\n"
            "sys.exit(scar.classify is not sys.modules['scar.classify'].classify)")
    src = str(Path(scar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    got = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert got.returncode == 0
    assert scar.classify is sys.modules["scar.classify"].classify
