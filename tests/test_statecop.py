"""State-indexed cop numbers: coalition attractors against the reference
solver, monotonicity, witness minimality, and the classic-game crosscheck."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scar import (
    GameParams,
    Q,
    ValidationError,
    build_arena,
    builtin,
    classic_cop_number,
    classify,
    coalition_winning_set,
    crosscheck_theorem,
    graph_from_edges,
    positionality_table,
    guaranteed_capture,
    State,
    state_cop_number,
    state_cop_report,
)

from scar import statecop
from scar.crsolver import forced_capture_depths
from scar.fixpoint import INT_INF

from oracles import cell, coalition_wins
from strategies import connected_graphs


@pytest.mark.parametrize("name, k, n", [("path", 3, 3), ("cycle", 3, 3), ("path", 2, 4)])
def test_coalition_sets_match_reference(name, k, n):
    g = builtin(name, k)
    a = build_arena(g, n)
    for size in range(1, n):
        for coalition in combinations(range(1, n), size):
            got = coalition_winning_set(a, coalition)
            want = coalition_wins(g, n, coalition)
            for s, w in want.items():
                assert bool(got[a.index(State(*s))]) == w


def test_bigger_coalitions_win_from_more_states(suite_graphs):
    for name in ("p4", "c5", "petersen"):
        a = build_arena(suite_graphs[name], 3)
        w1 = coalition_winning_set(a, (1,))
        w2 = coalition_winning_set(a, (2,))
        w12 = coalition_winning_set(a, (1, 2))
        assert not (w1 & ~w12).any()
        assert not (w2 & ~w12).any()


def test_p2_one_cop_suffices_everywhere():
    a = build_arena(builtin("path", 2), 3)
    for i in a.noncapture_indices():
        assert state_cop_number(a, int(i)) == 1


def test_report_agrees_with_pointwise_queries(suite_graphs):
    for name in ("p3", "c4", "s3"):
        a = build_arena(suite_graphs[name], 3)
        report = state_cop_report(a)
        for i in a.noncapture_indices():
            assert report.value(int(i)) == state_cop_number(a, int(i))


def test_witness_coalitions_are_minimal_winners(suite_graphs):
    a = build_arena(suite_graphs["c5"], 3)
    report = state_cop_report(a)
    for i in a.noncapture_indices():
        v = report.value(int(i))
        coalition = report.witness_coalition(int(i))
        if v == math.inf:
            assert coalition == ()
            continue
        assert len(coalition) == v
        assert guaranteed_capture(a, int(i), coalition)
        for smaller in combinations(range(1, 3), v - 1):
            if smaller:
                assert not guaranteed_capture(a, int(i), smaller)


def test_tail_cycle_split_states(tail_cycle):
    """The cycle-with-tail graph has one-cop states and two-cop states while
    its classic cop number is two."""
    a = build_arena(tail_cycle, 3)
    assert state_cop_number(a, State((2, 6), 4, 3)) == 1
    assert state_cop_number(a, State((5, 4), 2, 3)) == 2
    check = crosscheck_theorem(tail_cycle, 3)
    assert check.agree
    assert check.classic_cop_number == 2
    assert check.max_state_cop_number == 2


def test_petersen_exceeds_two_cops(suite_graphs):
    a = build_arena(suite_graphs["petersen"], 3)
    report = state_cop_report(a)
    assert report.max_over_noncapture() == math.inf
    # a cop sitting next to the robber with the move still captures alone
    assert report.value(State((1, 3), 6, 1)) == 1


def test_crosscheck_on_small_families(suite_graphs):
    for name in ("p2", "p3", "p4", "c3", "c4", "c5", "k3", "k4", "s3", "tail_cycle"):
        check = crosscheck_theorem(suite_graphs[name], 3)
        assert check.agree, name
        assert check.witness is None


def test_crosscheck_reports_sides(suite_graphs):
    check = crosscheck_theorem(suite_graphs["petersen"], 3)
    assert check.agree
    assert check.max_state_cop_number == math.inf
    assert check.classic_cop_number == math.inf  # exceeds the N-1 cutoff
    wide = crosscheck_theorem(suite_graphs["petersen"], 3, k_max=10)
    assert wide.agree and wide.classic_cop_number == 3


@pytest.mark.parametrize("n, k_max", [(4, 3), (3, 10)], ids=["fewer-cops-first", "more-after"])
def test_crosscheck_keeps_one_arena_alive_at_a_time(built_arenas, n, k_max):
    """Petersen needs 3 cops. At N = 4 the classic games of 1 and 2 cops
    run before the N = 4 arena, which answers both its state side and
    the game of 3 cops; at N = 3 with k_max = 10, the game of 3 cops runs
    once the N = 3 arena is freed. One arena per player count, and none
    is alive when the next is made."""
    check = crosscheck_theorem(builtin("petersen"), n, k_max=k_max)
    assert check.agree and check.classic_cop_number == 3
    assert [(players, alive) for _, players, alive in built_arenas] == [(2, 0), (3, 0), (4, 0)]


def test_queries_reject_capture_states_and_bad_coalitions():
    a = build_arena(builtin("path", 3), 3)
    cap = State((1, 0), 1, 2)
    with pytest.raises(ValidationError):
        state_cop_number(a, cap)
    with pytest.raises(ValidationError):
        guaranteed_capture(a, cap, (1,))
    with pytest.raises(ValidationError):
        coalition_winning_set(a, ())
    with pytest.raises(ValidationError):
        coalition_winning_set(a, (3,))  # the robber is not a cop
    with pytest.raises(ValidationError):
        crosscheck_theorem(builtin("path", 3), 3, k_max=1)


def test_report_values_raise_on_capture_rows():
    a = build_arena(builtin("path", 2), 3)
    report = state_cop_report(a)
    with pytest.raises(ValidationError):
        report.value(State((1, 0), 1, 1))


def test_winning_sets_are_cached_per_arena():
    a = build_arena(builtin("cycle", 4), 3)
    first = coalition_winning_set(a, (1,))
    again = coalition_winning_set(a, (1,))
    assert first is again

@pytest.mark.parametrize("n", [3, 4])
def test_the_all_cop_coalition_is_the_capture_time_game(suite_graphs, n):
    """All N-1 cops chase on every move but the robber's, so their winning
    set is read off the capture-time game; it equals a solve of its own."""
    for name, g in suite_graphs.items():
        a = build_arena(g, n)
        cops = range(1, n)
        direct = a.quotient().lift(forced_capture_depths(a, a.quotient().turns(*cops))) < INT_INF
        assert np.array_equal(coalition_winning_set(a, cops), direct), name


def test_an_arena_without_noncapture_states_is_refused_where_a_maximum_is_asked():
    """On one vertex every state is a capture: the maxima over noncapture
    states do not exist, while the per-state answers still do."""
    g = graph_from_edges(1, [])
    a = build_arena(g, 3)
    for ask in (lambda: state_cop_report(a).max_over_noncapture(),
                lambda: classify(a), lambda: crosscheck_theorem(g, 3)):
        with pytest.raises(ValidationError, match="no noncapture state"):
            ask()
    assert classic_cop_number(g) == 1
    positional, nonpositional = positionality_table(a, GameParams(3, Q(1, 2), Q(0)))
    assert positional.all() and nonpositional.all()


def brute_force_sweep(a) -> tuple[np.ndarray, np.ndarray]:
    """c(G|s) per orbit and its first minimal winning coalition, from the
    winning set of every coalition: coalitions are laid down from the
    largest and last, so the smallest and first that wins is left."""
    q, n = a.quotient(), a.n_players
    values = np.where(q.capture, 0, INT_INF)
    witness = np.zeros(len(q.reps), dtype=np.uint32)
    for size in range(n - 1, 0, -1):
        for coalition in reversed(list(combinations(range(1, n), size))):
            won = ~q.capture & statecop.coalition_wins(a, coalition)
            values[won] = size
            witness[won] = sum(1 << (c - 1) for c in coalition)
    return values, witness


def check_sweep_equals_brute_force(g, n) -> None:
    a = build_arena(g, n)
    report = state_cop_report(a)
    values, witness = brute_force_sweep(a)
    assert np.array_equal(report.orbit_values, values)
    assert np.array_equal(report.orbit_witness, witness)


@pytest.mark.parametrize("n", [3, 4])
def test_the_stopping_sweep_equals_a_sweep_over_every_coalition(suite_graphs, n):
    for g in suite_graphs.values():
        check_sweep_equals_brute_force(g, n)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]))
def test_the_stopping_sweep_equals_a_sweep_over_every_coalition_on_random_graphs(g, n):
    check_sweep_equals_brute_force(g, n)


def test_the_sweep_stops_once_no_orbit_is_open(monkeypatch):
    """On path:6 with N=4 cop 1 alone wins from every noncapture state, so
    the sweep solves one coalition game where it solved all three of
    size 1."""
    solved = []
    forced = statecop.forced_capture_depths

    def counted(arena, chasing):
        solved.append(chasing)
        return forced(arena, chasing)

    monkeypatch.setattr(statecop, "forced_capture_depths", counted)
    report = state_cop_report(build_arena(builtin("path", 6), 4))
    assert report.max_over_noncapture() == 1
    assert len(solved) == 1
