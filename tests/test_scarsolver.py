"""Discounted per-cop games: terminal payoffs, exact values against the
finite-horizon reference, Bellman residuals, optimal move sets, and the
capture-time cross-solve."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scar import (
    GameParams,
    Q,
    ScarError,
    State,
    ValidationError,
    build_arena,
    builtin,
    opt_move_table,
    positionality_table,
    simulate,
    solve_capture_time,
    solve_game,
    terminal_payoff,
)
from scar import fixpoint, scarsolver
from scar.fixpoint import INT_INF, check_fixpoint, retrograde

from oracles import (
    cell, discounted_values, is_capture, play_payoff, solve_discounted_capture, successors,
)
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
    """The keys ascend, so the levels, their values, descend; the ranks
    index both, and the unsettled level, worth 0, comes last."""
    a = build_arena(builtin("path", 3), 3)
    sol = solve_game(a, 1, GameParams(3, Q(1, 2), Q(1, 10)))
    assert list(sol.keys) == sorted(set(sol.keys))
    assert list(sol.levels) == [Q(-k, sol.denominator) for k in sol.keys]
    assert list(sol.levels) == sorted(set(sol.levels), reverse=True)
    assert sol.rounds == len(sol.levels) - (sol.levels[-1] == 0)
    for i in range(a.n_states):
        assert sol.value(i) == sol.levels[sol.rank[a.orbit(i)]]


def test_a_fresh_solve_stores_the_engines_keys_and_ranks(monkeypatch):
    """A fresh `solve_game` holds the engine's ascending keys and the very
    rank array it returned on the quotient, with cop m eager."""
    a = build_arena(builtin("path", 3), 3)
    runs = []
    engine = scarsolver.retrograde

    def recorded(*args):
        runs.append((args, engine(*args)))
        return runs[-1][1]

    monkeypatch.setattr(scarsolver, "retrograde", recorded)
    sol = solve_game(a, 2, GameParams(3, Q(1, 2), Q(1, 10)))
    (args, (keys, rank, _)), = runs
    assert args[0] is a.quotient().moves and args[6] is a.quotient().preds
    assert sol.keys == tuple(keys) and sol.rank is rank
    assert sol.eager is args[1] and np.array_equal(sol.eager, a.quotient().turns(2))


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
    assert keys == [-v for v in sol.levels]
    assert np.array_equal(rank, a.quotient().lift(sol.rank))
    check_fixpoint(*game, keys, rank)
    moved = int(np.nonzero((~a.capture_mask) & (rank < len(keys) - 1))[0][0])
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


def test_a_solved_game_is_reused_along_gamma_until_two_keys_tie(discounted_runs):
    """On p2 N=3 at eps = 1/10 the levels keep their order over [1/4, 3/10];
    at 1/3 two keys are equal, an exact tie, and a tied level cannot be
    carried to 1/2. On p3 N=3 the levels reorder from 2/5 to 1/2, and the
    re-sorted solution stands with no run of the engine."""
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
    del discounted_runs[:]
    b = build_arena(builtin("path", 3), 3)
    first = solve_game(b, 1, GameParams(3, Q(2, 5), eps))
    moved = solve_game(b, 1, GameParams(3, Q(1, 2), eps))
    assert len(discounted_runs) == 1
    assert moved.rank is not first.rank and moved.eager is first.eager
    assert moved.symbols != first.symbols and sorted(moved.symbols) == sorted(first.symbols)
    _same_solution(moved, solve_game(build_arena(builtin("path", 3), 3), 1,
                                     GameParams(3, Q(1, 2), eps)))


def test_the_last_solve_kept_is_the_solution_itself(discounted_runs):
    """The arena keeps cop m's last solve as the very `GameSolution` that
    `solve_game` returned, with its own gamma and epsilon; a re-use whose
    levels keep their order shares its seed batches and symbols tuple."""
    a = build_arena(builtin("path", 2), 3)
    eps = Q(1, 10)
    first = solve_game(a, 1, GameParams(3, Q(1, 4), eps))
    assert a.memo(("last_game", 1), list)[0] is first
    assert (first.gamma, first.epsilon) == (Q(1, 4), eps) and first.symbols is not None
    moved = solve_game(a, 1, GameParams(3, Q(3, 10), eps))
    assert len(discounted_runs) == 1 and a.memo(("last_game", 1), list)[0] is moved
    assert (moved.gamma, moved.epsilon) == (Q(3, 10), eps)
    assert moved.seeds is first.seeds and moved.symbols is first.symbols


def _checked_on_integer_keys(call, sol, gamma):
    """The exact check's arguments `call` hold int keys, seeds and never,
    with q dividing every level, so the step k*p // q is gamma*k; the keys
    are -value times sol's one denominator; moving any one level by one
    unit makes the check fail."""
    *game, levels, rank = call
    _, _, _, seeds, step, never = game
    assert all(type(k) is int for k in [*levels, *(key for key, _ in seeds), never])
    assert all(k % gamma.denominator == 0 for k in levels)
    assert [step(k) for k in levels] == [gamma * k for k in levels]
    assert tuple(levels) == sol.keys and rank is sol.rank
    assert [Q(-k, sol.denominator) for k in levels] == list(sol.levels)
    for i in range(len(levels)):
        for unit in (-1, 1):
            off = list(levels)
            off[i] += unit
            with pytest.raises(ScarError):
                check_fixpoint(*game, off, rank)


def _spied(monkeypatch, name: str) -> list:
    """The argument tuples of every call scarsolver makes to its `name`
    from here on."""
    calls, real = [], getattr(scarsolver, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scarsolver, name, spy)
    return calls


def _reused_game(arena, m, gamma):
    """The exact check's game for cop m's last solve on the arena at gamma,
    on the integer keys a re-use made: the quotient's tables, the seeds
    keyed at top 1 above the deepest symbol, the step and never."""
    (last,) = arena.memo(("last_game", m), list)
    top = 1 + max(t for _, t in last.symbols)
    scale, seed_keys, step = scarsolver._integer_game(last.seeds, gamma, top)
    assert scale == last.denominator
    q = arena.quotient()
    return q.moves, last.eager, q.capture, seed_keys, step, 0


def test_levels_that_keep_their_order_are_reused_with_no_exact_check(
        monkeypatch, discounted_runs):
    """Levels whose re-evaluated keys keep their order are re-used with no
    O(edges) check: the very rank array and eager mask, new integer keys,
    which pass the exact check."""
    a = build_arena(builtin("path", 3), 3)
    eps, gamma = Q(1, 10), Q(3, 10)
    first = solve_game(a, 1, GameParams(3, Q(1, 4), eps))
    checks = _spied(monkeypatch, "check_fixpoint")
    moved = solve_game(a, 1, GameParams(3, gamma, eps))
    assert len(discounted_runs) == 1 and checks == []
    assert moved.rank is first.rank and moved.eager is first.eager
    _checked_on_integer_keys((*_reused_game(a, 1, gamma), list(moved.keys), moved.rank),
                             moved, gamma)
    _same_solution(moved, solve_game(build_arena(builtin("path", 3), 3), 1,
                                     GameParams(3, gamma, eps)))


@pytest.mark.parametrize("refused", [True, False])
def test_a_refused_reorder_costs_one_engine_run(monkeypatch, discounted_runs, refused):
    """p3 N=3's levels reorder from 2/5 to 1/2: the re-sorted solution
    is checked once and kept, and a refused check sends the gamma to the
    engine once, whose answer is the fresh one. From 2/3 to 3/4 the check
    refuses the re-sorted ranks by itself."""
    eps = Q(1, 10)

    def refuse(*args):
        raise ScarError("check refused")

    a = build_arena(builtin("path", 3), 3)
    solve_game(a, 1, GameParams(3, Q(2, 5), eps))
    with pytest.MonkeyPatch.context() as patch:
        checks = _spied(patch, "check_fixpoint")
        if refused:
            patch.setattr(scarsolver, "check_fixpoint", refuse)
        moved = solve_game(a, 1, GameParams(3, Q(1, 2), eps))
    assert len(discounted_runs) == 1 + refused
    assert len(checks) == (not refused)
    _same_solution(moved, solve_game(build_arena(builtin("path", 3), 3), 1,
                                     GameParams(3, Q(1, 2), eps)))
    del discounted_runs[:]
    b = build_arena(builtin("path", 3), 3)
    solve_game(b, 1, GameParams(3, Q(2, 3), eps))
    checks = _spied(monkeypatch, "check_fixpoint")
    moved = solve_game(b, 1, GameParams(3, Q(3, 4), eps))
    assert len(discounted_runs) == 2 and len(checks) == 1
    _same_solution(moved, solve_game(build_arena(builtin("path", 3), 3), 1,
                                     GameParams(3, Q(3, 4), eps)))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([3, 4]).flatmap(
        lambda n: st.tuples(connected_graphs(max_vertices=4), st.just(n))
    ),
    st.sampled_from([Q(0), Q(1, 10), Q(1, 4), Q(1, 3)]),
    st.lists(st.fractions(Q(1, 12), Q(11, 12), max_denominator=12), max_size=8),
    st.randoms(use_true_random=False),
)
@example((builtin("path", 3), 3), Q(1, 10), [Q(2, 5), Q(1, 2), Q(2, 3), Q(3, 4)], None)
def test_warm_solves_along_a_random_gamma_walk_equal_fresh_solves(graph_and_n, eps, gammas, rng):
    """Along a random walk of rational gammas with the exact ties mixed
    in, each warm solve, whether re-used as it was, re-sorted after a
    reorder or solved afresh, equals a fresh solve on a fresh arena. A
    re-use at a new gamma that kept its rank array ran no exact check, so
    the check runs here on it and must pass."""
    g, n = graph_and_n
    walk = [*gammas, *TIES, 1 / (2 - 2 * eps)]
    if rng is not None:
        rng.shuffle(walk)
    warm, last = build_arena(g, n), {}
    for gamma in walk:
        params = GameParams(n, gamma, eps)
        fresh = build_arena(g, n)
        for m in range(1, n):
            sol = solve_game(warm, m, params)
            if m in last and sol is not last[m] and sol.rank is last[m].rank:
                check_fixpoint(*_reused_game(warm, m, gamma), list(sol.keys), sol.rank)
            last[m] = sol
            _same_solution(sol, solve_game(fresh, m, params))


def test_a_199_point_gamma_grid_on_path8_runs_the_engine_46_times(
        monkeypatch, discounted_runs):
    """positionality_table on path:8 N=4 at eps = 1/10 along gamma = i/200
    asks 597 games; 46 of them reach the engine, 196 of the 551 re-uses
    reorder their levels and run the exact check, and the tables match a
    cold arena's at every twentieth point."""
    a = build_arena(builtin("path", 8), 4)
    checks = _spied(monkeypatch, "check_fixpoint")
    tables = {}
    for i in range(1, 200):
        params = GameParams(4, Q(i, 200), Q(1, 10))
        tables[i] = positionality_table(a, params)
    assert len(discounted_runs) == 46 and len(checks) == 196
    for i in range(1, 200, 20):
        cold = positionality_table(build_arena(builtin("path", 8), 4),
                                   GameParams(4, Q(i, 200), Q(1, 10)))
        assert all(np.array_equal(x, y) for x, y in zip(tables[i], cold))


def test_a_fresh_solve_is_checked_on_integer_keys(monkeypatch, discounted_runs):
    """A fresh solve at gamma = p/q runs the engine, and so its exact
    check, on integer keys: no Fraction is compared or stepped there."""
    g, eps, gamma = builtin("path", 3), Q(1, 10), Q(3, 10)
    a = build_arena(g, 3)
    solve_capture_time(a)  # the integer game that sets the first scale
    calls = []

    def spy(*args):
        calls.append(args)
        check_fixpoint(*args)

    monkeypatch.setattr(fixpoint, "check_fixpoint", spy)
    fresh = solve_game(a, 1, GameParams(3, gamma, eps))
    assert len(discounted_runs) == 1 and len(calls) == 1
    _checked_on_integer_keys(calls[0], fresh, gamma)
    want = discounted_values(g, 3, 1, gamma, eps)
    assert all(fresh.value(State(*s)) == v for s, v in want.items())


def test_values_are_read_before_the_levels_are_made():
    """`value` is exact on a solution whose Fraction `levels` were never
    read, fresh or re-used; reading a value makes them."""
    g, eps = builtin("path", 3), Q(1, 10)
    a = build_arena(g, 3)
    for gamma in (Q(1, 4), Q(3, 10)):  # the second re-uses the first
        sol = solve_game(a, 1, GameParams(3, gamma, eps))
        assert "levels" not in vars(sol)
        want = discounted_values(g, 3, 1, gamma, eps)
        assert all(sol.value(State(*s)) == v for s, v in want.items())
        assert "levels" in vars(sol)


@settings(max_examples=25, deadline=None)
@given(small_games())
@example((builtin("path", 3), 3, 1, Q(1, 2), Q(1, 10)))
def test_a_scale_too_shallow_for_the_game_grows_until_every_step_is_exact(game):
    """With the exponent started at N, as if capture took no move, a game
    deeper than that is run again at twice the exponent until q divides
    every level, and then equals a Fraction-keyed run of the same game:
    levels, ranks and origins."""
    g, n, m, gamma, epsilon = game
    a, q = build_arena(g, n), gamma.denominator
    runs = []
    engine = scarsolver.retrograde

    def recorded(*args):
        runs.append(args)
        return engine(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scarsolver, "retrograde", recorded)
        patch.setattr(scarsolver, "capture_depths", lambda arena: np.zeros(1, dtype=np.int64))
        sol = solve_game(a, m, GameParams(n, gamma, epsilon))
    moves, eager, frozen, seeds, step, never, preds = runs[-1]
    keys, rank, origins = engine(*runs[-1])
    coefficients = [Q(-key, sol.denominator) for key, _ in seeds]
    levels, want_rank, want_origins = retrograde(
        moves, eager, frozen, [(-c, states) for c, (_, states) in zip(coefficients, seeds)],
        lambda k: gamma * k, Q(0), preds)
    assert levels == [Q(k, sol.denominator) for k in keys]
    assert np.array_equal(rank, want_rank) and origins == want_origins
    # the exponent doubled from N exactly until q divides every level
    scale, top = math.lcm(*(c.denominator for c in coefficients)), n
    while not all((k * scale * q ** (top - 1)).denominator == 1 for k in levels):
        top *= 2
    assert sol.denominator == scale * q**top and len(runs) == (top // n).bit_length()
    assert all(sol.value(State(*s)) == v
               for s, v in discounted_values(g, n, m, gamma, epsilon).items())
