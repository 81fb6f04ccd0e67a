"""Capture-time game: values against the reference solver, optimal move
structure, capture attribution, and the classic simultaneous-move game."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scar import (
    ScarError,
    State,
    StateCountExceededError,
    ValidationError,
    build_arena,
    builtin,
    capture_attribution,
    graph_from_edges,
    simulate,
    solve_capture_time,
)
import scar
from scar.arena import Solution
from scar.crsolver import _classic_wins, classic_cop_number, classic_cop_win
from scar.fixpoint import INT_INF

from oracles import (
    capture_times, cell, classic_arena as oracle_classic_arena, classic_cop_win_placement,
    filtered, jacobi_layers,
)
from strategies import connected_graphs


@pytest.mark.parametrize(
    "name, k, n",
    [("path", 2, 3), ("path", 3, 3), ("cycle", 3, 3), ("cycle", 4, 3), ("star", 3, 3), ("path", 2, 4)],
)
def test_values_match_reference(name, k, n):
    g = builtin(name, k)
    a = build_arena(g, n)
    sol = solve_capture_time(a)
    want = capture_times(g, n)
    for s, t in want.items():
        got = sol.capture_time(State(*s))
        assert got == t, f"{s}: {got} != {t}"


def test_p2_hand_values():
    a = build_arena(builtin("path", 2), 3)
    sol = solve_capture_time(a)
    assert sol.capture_time(State((0, 0), 1, 1)) == 1
    assert sol.capture_time(State((0, 0), 1, 2)) == 1
    assert sol.capture_time(State((0, 0), 1, 3)) == 2


def test_cycles_are_always_caught_but_petersen_is_not():
    # two cops corner a robber on any cycle, even stacked on one vertex
    a = build_arena(builtin("cycle", 4), 3)
    sol = solve_capture_time(a)
    assert sol.capture_time(State((0, 0), 2, 3)) == 5
    # on the Petersen graph two cops never force capture
    ap = build_arena(builtin("petersen"), 3)
    solp = solve_capture_time(ap)
    assert solp.capture_time(State((0, 0), 6, 3)) == math.inf
    assert solp.capture_time(State((0, 5), 9, 1)) == math.inf


def test_cop_opt_moves_step_the_value_down():
    a = build_arena(builtin("path", 4), 3)
    sol = solve_capture_time(a)
    for i in range(a.n_states):
        if a.capture_mask[i] or sol.values[i] >= INT_INF:
            continue
        if a.mover_of(i) == 3:
            continue
        for j in sol.opt_indices(i):
            assert sol.values[int(j)] == sol.values[i] - 1


def test_robber_opt_moves_are_argmax():
    a = build_arena(builtin("cycle", 5), 3)
    sol = solve_capture_time(a)
    for i in np.nonzero(a.robber_mover_mask() & ~a.capture_mask)[0]:
        succ = a.succ_indices(int(i))
        best = sol.values[succ].max()
        want = set(map(int, succ[sol.values[succ] == best]))
        assert set(map(int, sol.opt_indices(int(i)))) == want


def test_opt_moves_rejects_capture_states():
    a = build_arena(builtin("path", 2), 3)
    sol = solve_capture_time(a)
    with pytest.raises(ValidationError):
        sol.opt_indices(a.index(State((1, 0), 1, 1)))


def test_greedy_play_realizes_the_capture_time():
    """Following lowest-target optimal moves reproduces T-hat exactly."""
    for name, k in (("path", 3), ("path", 4), ("cycle", 3), ("star", 3)):
        g = builtin(name, k)
        a = build_arena(g, 3)
        sol = solve_capture_time(a)
        table = {
            int(i): int(sol.opt_indices(int(i)).min())
            for i in np.nonzero(~a.capture_mask)[0]
        }
        for i in np.nonzero(~a.capture_mask)[0]:
            t = sol.capture_time(int(i))
            play = simulate(a, int(i), table)
            assert play.capture_time == t


def test_attribution_on_paths():
    a = build_arena(builtin("path", 3), 3)
    sol = solve_capture_time(a)
    # cop 1 steps 0->1, cop 2 waits, the robber is stuck at 2, cop 1 lands:
    # four single-token moves, always credited to cop 1
    cop, t = capture_attribution(sol, State((0, 0), 2, 1))
    assert (cop, t) == (1, 4)
    cop, t = capture_attribution(sol, State((0, 2), 1, 2))
    assert t == 1
    assert cop == 2  # cop 2 is adjacent and moves now


def test_attribution_rejects_bad_queries():
    a = build_arena(builtin("petersen"), 3)
    sol = solve_capture_time(a)
    with pytest.raises(ValidationError):
        capture_attribution(sol, State((0, 0), 0, 1))  # capture state
    with pytest.raises(ValidationError):
        capture_attribution(sol, State((0, 0), 6, 3))  # robber escapes


def test_attribution_never_ambiguous_on_suite(suite_graphs):
    for name in ("p2", "p3", "p4", "c3", "c4", "c5", "k3", "k4", "s3", "tail_cycle"):
        a = build_arena(suite_graphs[name], 3)
        sol = solve_capture_time(a)
        sol.capturer_table()  # raises UniquenessViolationError on ambiguity


def reference_cop_bits(sol):
    """Capture credit built from the table of optimal moves: filter the
    moves by `edge_opt`, then OR each level's rows of successors, in
    increasing value."""
    a = sol.arena
    bits = np.zeros(a.n_states, dtype=np.uint32)
    for j, at in enumerate(a.cops_at_robber(np.arange(a.n_states // a.n_players))):
        bits |= np.repeat(at, a.n_players).astype(np.uint32) << np.uint32(j)
    optimal = filtered(a.moves, sol.edge_opt).table
    finite_nc = np.flatnonzero(~a.capture_mask & sol.finite_mask())
    for t in np.unique(sol.values[finite_nc]):
        level = finite_nc[sol.values[finite_nc] == t]
        bits[level] = np.bitwise_or.reduce(bits[optimal[level]], axis=1)
    return bits


@pytest.mark.parametrize("n", [3, 4])
def test_attribution_matches_the_filtered_table_reference(suite_graphs, n):
    """Rectangular tables (petersen, c5) and ragged ones (p4, s3,
    tail_cycle) alike; no suite graph has a tied capture."""
    for g in suite_graphs.values():
        a = build_arena(g, n)
        sol = solve_capture_time(a)
        want = reference_cop_bits(sol)
        assert np.array_equal(a.quotient().lift(sol._orbit_bits()), want)
        single = np.where(~a.capture_mask & sol.finite_mask(), want, 0)
        capturer = np.zeros(a.n_states, dtype=np.int8)
        for b in range(n - 1):
            capturer[single == 1 << b] = b + 1
        assert np.array_equal(sol.capturer_table(), capturer)


def test_an_arena_read_for_attribution_is_freed_with_its_last_name():
    """The arena memoizes the capture layer as arrays, not as a solution
    that refers back to it, so reference counting alone frees it."""
    gc.disable()
    try:
        a = build_arena(builtin("petersen"), 3)
        solve_capture_time(a).capturer_table()
        gone = weakref.ref(a)
        del a
        assert gone() is None
    finally:
        gc.enable()


def test_witness_play_follows_optimal_moves_to_its_cop(suite_graphs):
    """The play a uniqueness violation would show for one cop's bit."""
    a = build_arena(suite_graphs["tail_cycle"], 3)
    sol = solve_capture_time(a)
    capturer = sol.capturer_table()
    for i in np.flatnonzero(~a.capture_mask & sol.finite_mask())[::7].tolist():
        cop = int(capturer[i])
        play = sol._walk_to_capture(i, 1 << (cop - 1))
        assert len(play) == sol.values[i] + 1
        assert play[-1].cops[cop - 1] == play[-1].robber
        for s, t in zip(play, play[1:]):
            assert a.index(t) in sol.opt_indices(s)


def test_a_witness_play_that_loses_its_cops_bit_is_refused(suite_graphs, monkeypatch):
    """Were no optimal move from a state to keep the cop's bit, the
    witness play would stop there with a ScarError naming its start."""
    a = build_arena(suite_graphs["tail_cycle"], 3)
    sol = solve_capture_time(a)
    q = a.quotient()
    start = int(q.reps[np.flatnonzero(~q.capture & (sol.depths < INT_INF))[0]])
    bits = np.zeros(len(q.reps), dtype=np.uint32)
    bits[q.orbit_of(start)] = 1
    monkeypatch.setattr(type(sol), "_orbit_bits", lambda self: bits)
    with pytest.raises(ScarError, match=r"^capture attribution: cop bit 1 lost along optimal "
                                        rf"play from {a.state_of(start).literal()}$"):
        sol._walk_to_capture(start, 1)


def test_attribution_consistent_with_greedy_play(suite_graphs):
    a = build_arena(suite_graphs["tail_cycle"], 3)
    sol = solve_capture_time(a)
    table = {
        int(i): int(sol.opt_indices(int(i)).min())
        for i in np.nonzero(~a.capture_mask)[0]
    }
    finite = sol.finite_mask() & ~a.capture_mask
    for i in np.nonzero(finite)[0]:
        cop, t = capture_attribution(sol, int(i))
        play = simulate(a, int(i), table)
        assert play.capture_time == t
        assert play.capturing_cops == {cop}


# -- classic (simultaneous relocation) game ----------------------------------


@pytest.mark.parametrize(
    "name, k, want",
    [
        ("path", 5, 1),
        ("cycle", 3, 1),
        ("complete", 4, 1),
        ("star", 3, 1),
        ("cycle", 4, 2),
        ("cycle", 6, 2),
        ("petersen", None, 3),
    ],
)
def test_classic_cop_numbers(name, k, want):
    g = builtin(name, k) if k else builtin(name)
    assert classic_cop_number(g) == want


def test_classic_universal_and_placement_agree_on_suite(suite_graphs):
    """Universal winning implies winning after choosing a start; on these
    graphs the two notions coincide for every k."""
    for name in ("p3", "c4", "k3", "s3", "tail_cycle"):
        g = suite_graphs[name]
        for k in (1, 2):
            universal = classic_cop_win(g, k)
            placed = classic_cop_win_placement(g, k)
            assert universal == placed


def test_classic_cop_number_inf_when_k_max_too_small():
    assert classic_cop_number(builtin("petersen"), k_max=2) == math.inf


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([1, 2, 3]))
def test_classic_wins_match_the_rules(g, k):
    """The classic game's verdict per (cops, robber) cell with the cops to
    move equals the oracle's classic arena solved by plain Jacobi rounds,
    and the universal win holds where every cell is won."""
    offsets, targets, capture, cop_turn = map(np.array, oracle_classic_arena(g, k))
    init = np.where(capture, 0, INT_INF)
    vals = jacobi_layers(offsets, targets, cop_turn, capture, init, INT_INF)
    won = (vals[cop_turn] < INT_INF).reshape(g.vertex_count**k, g.vertex_count)
    assert np.array_equal(_classic_wins(build_arena(g, k + 1)), won)
    assert classic_cop_win(g, k) == won.all()


def test_classic_cop_win_on_the_dodecahedron_stays_small():
    """Three cops on the dodecahedron: the 4-player capture-time game on its
    orbit quotient, whose tracemalloc peak measured 9.6 MB; the classic
    arena's two tables alone held 130 MB."""
    g = builtin("dodecahedron")
    tracemalloc.start()
    try:
        assert classic_cop_win(g, 3) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_classic_state_cap_counts_the_classic_arena():
    """Petersen k=3: the classic arena has 2 * 10^4 states, and the cap is
    checked against that count, not against the 4-player arena's."""
    g = builtin("petersen")
    assert classic_cop_win(g, 3, max_states=20_000) is True
    with pytest.raises(StateCountExceededError, match=r"^classic arena on 10 vertices with k=3 "
                                                      r"cops exceeds the cap of 19999 states$"):
        classic_cop_win_placement(g, 3, max_states=19_999)


def refusal_in_a_child(call: str) -> str:
    """What `call` prints as its refusal, run in a child under RLIMIT_AS
    and a timeout, where computing a power or a stride per token would
    hang or run out of memory."""
    limit = 1_500_000 * 1024
    code = ("import resource; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from scar import StateCountExceededError, build_arena, builtin, "
            "classic_cop_win, graph_from_edges\n"
            f"try:\n    {call}\n"
            "except StateCountExceededError as exc:\n    print(exc)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(scar.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


def test_a_huge_classic_cop_count_is_refused_at_once():
    """10^20 cops on path:3: the classic arena's 2 * 3^(10^20 + 1) states
    are compared with the cap by a bounded loop, so the refusal, naming V
    and k, comes at once."""
    assert refusal_in_a_child("classic_cop_win(builtin('path', 3), 10**20)") == (
        "classic arena on 3 vertices with k=100000000000000000000 cops "
        "exceeds the cap of 10000000 states\n")


def test_a_huge_classic_cop_count_on_one_vertex_is_refused_at_once():
    """10^20 cops on one vertex: the classic arena's 2 * 1^(10^20 + 1)
    states are under the cap, but the arena it is solved on has a turn per
    token, 10^20 + 1 states, and that count is held to the cap too, before
    a stride per token is listed."""
    assert refusal_in_a_child("classic_cop_win(graph_from_edges(1, []), 10**20)") == (
        "classic arena on 1 vertices with k=100000000000000000000 cops "
        "exceeds the cap of 10000000 states\n")


def test_a_huge_player_count_on_one_vertex_is_refused_whatever_the_cap():
    """10^18 players on one vertex under a cap of 10^60: the arena's 10^18
    states fit an int64 index and the cap, but it would list a stride per
    token, so N is held to the default cap and refused at once."""
    assert refusal_in_a_child(
        "build_arena(graph_from_edges(1, []), 10**18, max_states=10**60)") == (
        "arena on 1 vertices with N=1000000000000000000 exceeds the limit "
        "of 10000000 players\n")


def test_three_thousand_cops_on_one_vertex_stay_under_a_mebibyte():
    """The quotient keeps who sits on the robber once per orbit of position
    tuples, not once per orbit: 3,000 cops on one vertex peak at 0.54 MiB
    under tracemalloc, where N copies of that (N-1)-row table held 8.9 MiB."""
    g = graph_from_edges(1, [])
    tracemalloc.start()
    try:
        assert classic_cop_win(g, 3000) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("k_max, named", [(True, "bool"), (1.5, "float"), (0, "got 0")])
def test_classic_cop_number_refuses_a_bad_k_max(k_max, named):
    with pytest.raises(ValidationError, match=named):
        classic_cop_number(builtin("cycle", 4), k_max=k_max)


def test_classic_cop_count_may_be_a_numpy_integer():
    g = builtin("cycle", 4)
    assert classic_cop_win(g, np.int64(2)) is True
    assert classic_cop_win_placement(g, np.int32(1)) is False
    assert classic_cop_number(g, k_max=np.int32(2)) == 2


@pytest.mark.parametrize("k, named", [(True, "bool"), (np.bool_(True), "bool"), (2.0, "float")])
def test_classic_cop_count_refuses_bools_and_floats(k, named):
    with pytest.raises(ValidationError, match=named):
        classic_cop_win(builtin("cycle", 4), k)


def test_the_orbit_edge_mask_is_made_once_per_arena():
    """classify reads the capture game's optimal-edge mask once per cop and
    the positionality tests once per grid point; the arena keeps one
    read-only copy, equal to the mask made afresh."""
    a = build_arena(builtin("petersen"), 3)
    mask = solve_capture_time(a).orbit_edge_opt()
    assert solve_capture_time(a).orbit_edge_opt() is mask
    assert np.array_equal(mask, Solution.orbit_edge_opt(solve_capture_time(a)))
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = not mask[0]
