"""Discounted per-cop games: terminal payoffs, exact values against the
finite-horizon reference, Bellman residuals, optimal move sets, and the
capture-time cross-solve."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scar import (
    GameParams,
    Q,
    ScarError,
    State,
    ValidationError,
    build_arena,
    builtin,
    opt_move_table,
    simulate,
    solve_capture_time,
    solve_game,
    terminal_payoff,
)
from scar import scarsolver
from scar.fixpoint import INT_INF, check_fixpoint, retrograde
from scar.scarsolver import solve_discounted_capture

from oracles import cell, discounted_values, is_capture, play_payoff, successors
from strategies import connected_graphs


def test_terminal_payoff_single_captor():
    p = GameParams(3, Q(1, 2), Q(0))
    s = State((1, 0), 1, 2)  # only cop 1 on the robber
    assert terminal_payoff(s, 1, p) == 1
    assert terminal_payoff(s, 2, p) == 0


def test_terminal_payoff_bystander_split():
    p = GameParams(4, Q(1, 2), Q(1, 10))
    s = State((2, 0, 2), 2, 1)  # cops 1 and 3 on the robber, cop 2 not
    assert terminal_payoff(s, 2, p) == Q(1, 10)
    assert terminal_payoff(s, 1, p) == Q(9, 10) / 2


def test_terminal_payoff_everyone_on_top():
    p = GameParams(4, Q(1, 2), Q(1, 10))
    s = State((2, 2, 2), 2, 4)
    for m in (1, 2, 3):
        assert terminal_payoff(s, m, p) == Q(1, 3)


def test_terminal_payoff_rejects_noncapture_and_bad_player():
    p = GameParams(3, Q(1, 2), Q(0))
    with pytest.raises(ValidationError):
        terminal_payoff(State((0, 0), 1, 1), 1, p)
    with pytest.raises(ValidationError):
        terminal_payoff(State((1, 0), 1, 1), 3, p)


def test_p2_named_values():
    a = build_arena(builtin("path", 2), 3)
    sol = solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))
    assert sol.value(State((0, 0), 1, 1)) == Q(1, 2)
    assert sol.value(State((0, 0), 1, 2)) == 0
    assert sol.value(State((0, 0), 1, 3)) == Q(1, 4)


def test_p2_opt_move_structure():
    a = build_arena(builtin("path", 2), 3)
    sol = solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))
    # cop 1 to move: walking onto the robber is the unique optimum
    assert sol.opt_moves(State((0, 0), 1, 1)) == (State((1, 0), 1, 2),)
    # robber to move at the tie point gamma = 1/(2-2eps): both moves optimal
    assert set(sol.opt_moves(State((0, 0), 1, 3))) == {
        State((0, 0), 0, 1),
        State((0, 0), 1, 1),
    }
    # cop 2 to move: capturing hands cop 1 a zero, strictly better for the
    # minimizing side than waiting (which leaves cop 1 an eighth)
    assert sol.opt_moves(State((0, 0), 1, 2)) == (State((0, 1), 1, 3),)


def test_capture_only_optimal_for_adverse_cop_above_threshold():
    a = build_arena(builtin("path", 2), 3)
    sol = solve_game(a, 1, GameParams(3, Q(11, 20), Q(1, 5)))
    moves = sol.opt_moves(State((0, 0), 1, 2))
    assert State((0, 1), 1, 3) in moves  # capture stays optimal


@pytest.mark.parametrize(
    "name, k, n",
    [("path", 2, 3), ("path", 3, 3), ("cycle", 3, 3), ("path", 2, 4)],
)
@pytest.mark.parametrize(
    "gamma, epsilon",
    [(Q(1, 2), Q(0)), (Q(1, 4), Q(1, 10)), (Q(3, 4), Q(0)), (Q(2, 3), Q(1, 5))],
)
def test_values_match_reference_exactly(name, k, n, gamma, epsilon):
    g = builtin(name, k)
    if epsilon > Q(1, n - 1):
        pytest.skip("epsilon out of range for this N")
    a = build_arena(g, n)
    for m in range(1, n):
        sol = solve_game(a, m, GameParams(n, gamma, epsilon))
        want = discounted_values(g, n, m, gamma, epsilon)
        for s, v in want.items():
            assert sol.value(State(*s)) == v


def test_bellman_residuals_are_zero(suite_graphs):
    params = GameParams(3, Q(3, 5), Q(1, 8))
    for name in ("p3", "c4", "s3"):
        a = build_arena(suite_graphs[name], 3)
        for m in (1, 2):
            sol = solve_game(a, m, params)
            for i in range(a.n_states):
                if a.capture_mask[i]:
                    assert sol.value(i) == terminal_payoff(a.state_of(i), m, params)
                    continue
                opts = [sol.value(int(j)) for j in a.succ_indices(i)]
                best = max(opts) if a.mover_of(i) == m else min(opts)
                assert sol.value(i) == params.gamma * best


def test_values_bounded_by_unit_interval(suite_graphs):
    a = build_arena(suite_graphs["c5"], 3)
    sol = solve_game(a, 2, GameParams(3, Q(9, 10), Q(1, 3)))
    assert all(0 <= sol.value(i) <= 1 for i in range(a.n_states))


def test_greedy_play_collects_exactly_the_value():
    """All tokens following the lowest-vertex optimal move of one cop's game
    yield that cop precisely the game value."""
    for name, k, n in (("path", 2, 3), ("path", 3, 3), ("cycle", 3, 3)):
        g = builtin(name, k)
        a = build_arena(g, n)
        params = GameParams(n, Q(1, 3), Q(1, 10))
        for m in range(1, n):
            sol = solve_game(a, m, params)
            table = {
                int(i): int(sol.opt_indices(int(i)).min())
                for i in np.nonzero(~a.capture_mask)[0]
            }
            for i in np.nonzero(~a.capture_mask)[0]:
                play = simulate(a, int(i), table)
                cells = [cell(s.cops, s.robber, s.mover) for s in play.states]
                got = play_payoff(cells, m, n, params.gamma, params.epsilon)
                assert got == sol.value(int(i))


def test_opt_move_table_filters_by_mover():
    a = build_arena(builtin("path", 3), 3)
    sol = solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))
    table = opt_move_table(sol, 2)
    assert table  # nonempty
    for s, moves in table.items():
        assert s.mover == 2
        assert moves
        for t in moves:
            assert t.cops[0] == s.cops[0] and t.robber == s.robber


def test_discounted_capture_is_gamma_to_the_capture_time(suite_graphs):
    """The robber's own game collapses to gamma^T-hat with the same optimal
    move sets as the capture-time solve."""
    gamma = Q(1, 2)
    for name in ("p2", "p3", "c3", "c4", "s3", "tail_cycle"):
        a = build_arena(suite_graphs[name], 3)
        cr = solve_capture_time(a)
        disc = solve_discounted_capture(a, gamma)
        for i in range(a.n_states):
            t = cr.values[i]
            want = Q(0) if t >= INT_INF else gamma ** int(t)
            assert disc.value(i) == want
        for i in np.nonzero(~a.capture_mask)[0]:
            assert set(map(int, disc.opt_indices(int(i)))) == set(
                map(int, cr.opt_indices(int(i)))
            )


def test_solve_game_validates_player_and_params():
    a = build_arena(builtin("path", 2), 3)
    with pytest.raises(ValidationError):
        solve_game(a, 3, GameParams(3, Q(1, 2), Q(0)))  # robber has no game
    with pytest.raises(ValidationError):
        solve_game(a, 0, GameParams(3, Q(1, 2), Q(0)))
    with pytest.raises(ValidationError):
        solve_game(a, 1, GameParams(4, Q(1, 2), Q(0)))  # player count mismatch

@st.composite
def small_games(draw):
    """A random connected graph on 2-4 vertices, N in {3, 4} (at most 1024
    states), one cop, and (gamma, epsilon) with epsilon 0, the cap, or a
    random rational below the cap."""
    g = draw(connected_graphs())
    n = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(1, n - 1))
    gamma = draw(st.sampled_from([Q(1, 7), Q(1, 2), Q(99, 100), Q(9999, 10000)]))
    cap = Q(1, n - 1)
    epsilon = draw(
        st.one_of(st.just(Q(0)), st.just(cap), st.fractions(0, cap, max_denominator=30))
    )
    return g, n, m, gamma, epsilon


@settings(max_examples=25, deadline=None)
@given(small_games())
def test_solve_game_matches_oracle_on_random_graphs(game):
    g, n, m, gamma, epsilon = game
    a = build_arena(g, n)
    sol = solve_game(a, m, GameParams(n, gamma, epsilon))
    want = discounted_values(g, n, m, gamma, epsilon)
    for s, v in want.items():
        assert sol.value(State(*s)) == v
    for s in want:
        if is_capture(s):
            continue
        i = a.index(State(*s))
        opts = {a.index(State(*t)): want[t] for t in successors(g, s)}
        best = max(opts.values()) if s[2] == m else min(opts.values())
        assert set(sol.opt_indices(i).tolist()) == {j for j, v in opts.items() if v == best}
    assert len(sol.levels) == len({sol.value(i) for i in range(a.n_states)})


def test_levels_are_distinct_and_ranks_index_them():
    a = build_arena(builtin("path", 3), 3)
    sol = solve_game(a, 1, GameParams(3, Q(1, 2), Q(1, 10)))
    assert list(sol.levels) == sorted(set(sol.levels))
    assert sol.rounds == len(sol.levels) - (sol.levels[0] == 0)
    for i in range(a.n_states):
        assert sol.value(i) == sol.levels[sol.rank[a.orbit(i)]]


def capture_game(a, gamma, coefficient=Q(1)):
    """solve_discounted_capture's instantiation of the engine (keys are
    negated values), as positional arguments."""
    seeds = [(-coefficient, np.flatnonzero(a.capture_mask))]
    return (a.moves, ~a.robber_mover_mask(), a.capture_mask, seeds,
            lambda k: gamma * k, Q(0))


def test_engine_rejects_gamma_outside_unit_interval_and_negative_coefficients():
    a = build_arena(builtin("path", 2), 3)
    for gamma in (Q(0), Q(1), Q(3, 2), 0.5):
        with pytest.raises(ValidationError):
            solve_discounted_capture(a, gamma)
    with pytest.raises(ValidationError, match="above never"):
        retrograde(*capture_game(a, Q(1, 2), Q(-1)))


def test_bellman_check_rejects_a_wrong_table():
    a = build_arena(builtin("path", 3), 3)
    game = capture_game(a, Q(1, 2))
    keys, rank, _ = retrograde(*game)
    sol = solve_discounted_capture(a, Q(1, 2))
    per_state = a.quotient().lift(sol.rank)
    assert keys == [-v for v in reversed(sol.levels)]
    assert np.array_equal(rank, len(keys) - 1 - per_state)
    check_fixpoint(*game, keys, rank)
    moved = int(np.nonzero((~a.capture_mask) & (per_state > 0))[0][0])
    rank[moved] += 1
    with pytest.raises(ScarError, match=f"state {moved} holds"):
        check_fixpoint(*game, keys, rank)
    rank[moved] -= 1
    with pytest.raises(ScarError, match="its equation gives a key outside the levels"):
        check_fixpoint(*capture_game(a, Q(1, 2), Q(1, 3)), keys, rank)
    with pytest.raises(ScarError, match="its equation gives"):
        check_fixpoint(*capture_game(a, Q(1, 3)), keys, rank)


def _same_solution(warm, fresh):
    assert warm.levels == fresh.levels
    assert np.array_equal(warm.rank, fresh.rank)
    assert np.array_equal(warm.orbit_edge_opt(), fresh.orbit_edge_opt())
    assert warm.rounds == fresh.rounds
    assert [warm.value(i) for i in range(warm.arena.n_states)] == [
        fresh.value(i) for i in range(fresh.arena.n_states)
    ]


# ties: gamma = 1/(2-2*eps) on p2 N=3, and the manifest's 1/2 and 1/3
TIES = (Q(1, 3), Q(1, 2))
GAMMAS = (Q(1, 5), Q(1, 4), Q(3, 10), Q(2, 5), Q(5, 9), Q(3, 5), Q(2, 3), Q(3, 4), Q(9, 10))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([3, 4]).flatmap(
        lambda n: st.tuples(connected_graphs(max_vertices=4), st.just(n))
    ),
    st.sampled_from([Q(0), Q(1, 10), Q(1, 4), Q(1, 3)]),
    st.lists(st.sampled_from(GAMMAS), max_size=5, unique=True),
)
def test_a_warm_arena_matches_fresh_solves_along_a_gamma_grid(graph_and_n, eps, gammas):
    """Re-used solutions along an ascending gamma grid, exact ties
    included, equal a fresh solve on a fresh arena at every point."""
    g, n = graph_and_n
    grid = sorted({*gammas, *TIES, 1 / (2 - 2 * eps)})
    warm = build_arena(g, n)
    for gamma in grid:
        params = GameParams(n, gamma, eps)
        fresh = build_arena(g, n)
        for m in range(1, n):
            _same_solution(solve_game(warm, m, params), solve_game(fresh, m, params))


def test_a_solved_game_is_reused_along_gamma_until_its_order_breaks(discounted_runs):
    """On p2 N=3 at eps = 1/10 the levels keep their order over [1/4, 3/10];
    1/3 is an exact tie, and a tied level cannot be carried to 1/2."""
    a = build_arena(builtin("path", 2), 3)
    eps = Q(1, 10)
    first = solve_game(a, 1, GameParams(3, Q(1, 4), eps))
    assert solve_game(a, 1, GameParams(3, Q(1, 4), eps)) is first
    moved = solve_game(a, 1, GameParams(3, Q(3, 10), eps))
    assert len(discounted_runs) == 1
    assert moved.rank is first.rank and moved.levels != first.levels
    _same_solution(moved, solve_game(build_arena(builtin("path", 2), 3), 1,
                                     GameParams(3, Q(3, 10), eps)))
    del discounted_runs[:]
    for gamma in (Q(1, 3), Q(1, 2)):
        solve_game(a, 1, GameParams(3, gamma, eps))
    assert len(discounted_runs) == 2
    solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))  # a new epsilon is solved afresh
    assert len(discounted_runs) == 3


def test_a_reused_solution_must_pass_the_exact_check(monkeypatch, discounted_runs):
    a = build_arena(builtin("path", 2), 3)
    solve_game(a, 1, GameParams(3, Q(1, 4), Q(1, 10)))

    def refuse(*args):
        raise ScarError("check refused")

    monkeypatch.setattr(scarsolver, "check_fixpoint", refuse)
    with pytest.raises(ScarError, match="check refused"):
        solve_game(a, 1, GameParams(3, Q(3, 10), Q(1, 10)))
    assert len(discounted_runs) == 1


def test_a_reused_solution_is_checked_on_integer_keys(monkeypatch, discounted_runs):
    """At gamma = p/q the re-use hands the exact check int keys, seeds and
    never, with k*p divisible by q on every level, so the step k*p // q is
    gamma*k; moving any one level by one unit makes the check fail."""
    a = build_arena(builtin("path", 3), 3)
    eps, gamma = Q(1, 10), Q(3, 10)
    solve_game(a, 1, GameParams(3, Q(1, 4), eps))
    calls = []
    check = scarsolver.check_fixpoint

    def spy(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(scarsolver, "check_fixpoint", spy)
    moved = solve_game(a, 1, GameParams(3, gamma, eps))
    assert len(discounted_runs) == 1 and len(calls) == 1
    *game, levels, rank = calls[0]
    _, _, _, seeds, step, never = game
    assert all(type(k) is int for k in [*levels, *(key for key, _ in seeds), never])
    assert all(k * 3 % 10 == 0 for k in levels)
    assert [step(k) for k in levels] == [gamma * k for k in levels]
    # the keys are -value times one scale
    assert [Q(k, levels[0]) * moved.levels[-1] for k in reversed(levels)] == list(moved.levels)
    _same_solution(moved, solve_game(build_arena(builtin("path", 3), 3), 1,
                                     GameParams(3, gamma, eps)))
    for i in range(len(levels)):
        for unit in (-1, 1):
            off = list(levels)
            off[i] += unit
            with pytest.raises(ScarError):
                check(*game, off, rank)
