"""Trigger-profile positionality: the two-vertex region formula, witness
soundness, table/single-start agreement, and the concrete trigger
controller."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scar import (
    GameParams,
    IllegalMoveError,
    Q,
    ScarError,
    State,
    ValidationError,
    build_arena,
    build_trigger_profile,
    builtin,
    check_positionality,
    positionality_table,
    reachable_noncapture,
    scan_region,
    simulate_trigger,
    solve_capture_time,
)
from scar import positionality
from scar.cli import main
from scar.positionality import solve_all_games

from oracles import positional_verdicts, trigger_profile_dicts as oracle_trigger_profile
from strategies import connected_graphs


def _p2_arena():
    return build_arena(builtin("path", 2), 3)


@pytest.mark.parametrize(
    "gamma, epsilon, want",
    [
        (Q(1, 2), Q(0), True),
        (Q(3, 4), Q(0), False),
        (Q(1, 2), Q(1, 5), True),
        (Q(9, 16), Q(1, 5), True),
        (Q(5, 8), Q(1, 5), True),
        (Q(2, 5), Q(1, 5), False),  # gamma^2 below eps/(1-eps)
        (Q(3, 4), Q(1, 5), False),  # above 1/(2-2 eps)
    ],
)
def test_two_vertex_region(gamma, epsilon, want):
    a = _p2_arena()
    v = check_positionality(a, State((0, 0), 1, 1), GameParams(3, gamma, epsilon))
    assert v.positional_exists is want


def test_verdict_booleans_never_both_false(suite_graphs):
    for name in ("p3", "c4", "s3"):
        a = build_arena(suite_graphs[name], 3)
        for gamma in (Q(1, 4), Q(1, 2), Q(3, 4)):
            for eps in (Q(0), Q(1, 10)):
                v = check_positionality(
                    a, State((0, 0), 1, 1), GameParams(3, gamma, eps)
                )
                assert v.positional_exists or v.nonpositional_exists


def test_witnesses_name_real_disagreements():
    a = _p2_arena()
    params = GameParams(3, Q(3, 4), Q(0))
    v = check_positionality(a, State((0, 0), 1, 1), params)
    assert not v.positional_exists and v.witnesses
    cr = solve_capture_time(a)
    games = solve_all_games(a, params)
    reach = set(map(int, reachable_noncapture(a, State((0, 0), 1, 1))))
    for mover, m, s in v.witnesses:
        assert mover == s.mover
        idx = a.index(s)
        assert idx in reach
        opt_m = set(map(int, games[m].opt_indices(idx)))
        opt_cr = set(map(int, cr.opt_indices(idx)))
        assert not opt_m & opt_cr


def test_witnesses_list_every_failing_pair_by_state_then_cop():
    """The witnesses, made on first read, equal a pair-by-pair scan of the
    reachable states, ascending, then of the cops; a prefix is made alone."""
    a = build_arena(builtin("star", 4), 4)
    s0, params = State((0, 0, 0), 2, 2), GameParams(4, Q(1, 2), Q(1, 10))
    v = check_positionality(a, s0, params)
    cr = solve_capture_time(a)
    games = solve_all_games(a, params)
    want = []
    for idx in map(int, reachable_noncapture(a, s0)):
        opt_cr = set(cr.opt_indices(idx).tolist())
        want += [(a.mover_of(idx), m, a.state_of(idx)) for m in sorted(games)
                 if not opt_cr & set(games[m].opt_indices(idx).tolist())]
    assert len({s for _, _, s in want}) < len(want)  # some state fails for two cops
    assert v.witness_count == len(v.witnesses) == len(want)
    assert v.witnesses == tuple(want)
    for k in (0, 1, len(want) // 2, len(want) + 1):
        assert v.first_witnesses(k) == tuple(want[:k])


def test_positional_verdicts_carry_no_witnesses():
    a = _p2_arena()
    v = check_positionality(a, State((0, 0), 1, 1), GameParams(3, Q(1, 2), Q(0)))
    assert v.positional_exists and v.witnesses == ()


def _assert_table_agrees_with_single_starts(a, params):
    positional, nonpositional = positionality_table(a, params)
    assert positional.shape == nonpositional.shape == (a.n_states,)
    assert positional[a.capture_mask].all() and nonpositional[a.capture_mask].all()
    for i in a.noncapture_indices():
        one = check_positionality(a, i, params)
        assert positional[i] == one.positional_exists, (one.s0, params)
        assert nonpositional[i] == one.nonpositional_exists, (one.s0, params)


def test_table_agrees_with_single_starts(suite_graphs):
    for name in ("p3", "c4"):
        a = build_arena(suite_graphs[name], 3)
        for gamma, eps in ((Q(1, 2), Q(0)), (Q(51, 100), Q(0)), (Q(1, 4), Q(1, 10))):
            _assert_table_agrees_with_single_starts(a, GameParams(3, gamma, eps))


# four vertices with N=4 would cost ~2 s per example in single-start checks
@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from([3, 4]).flatmap(
        lambda n: st.tuples(connected_graphs(max_vertices=7 - n), st.just(n))
    ),
    st.sampled_from([Q(1, 4), Q(1, 2), Q(51, 100), Q(3, 4)]),
    st.sampled_from([Q(0), Q(1, 10), Q(1, 3)]),
)
def test_table_agrees_with_single_starts_on_random_graphs(graph_and_n, gamma, eps):
    g, n = graph_and_n
    _assert_table_agrees_with_single_starts(build_arena(g, n), GameParams(n, gamma, eps))


@st.composite
def verdict_points(draw):
    """A graph on at most 4 vertices, N in {3, 4}, epsilon 0, 1/10 or the
    cap 1/(N-1), and gamma from a grid with the tie 1/(2-2 eps) where it
    lies below 1."""
    n = draw(st.sampled_from([3, 4]))
    g = draw(connected_graphs(max_vertices=4))
    eps = draw(st.sampled_from([Q(0), Q(1, 10), Q(1, n - 1)]))
    tie = 1 / (2 - 2 * eps)
    gamma = draw(st.sampled_from([Q(1, 4), Q(1, 2), Q(3, 4), *([tie] if tie < 1 else [])]))
    return g, n, gamma, eps


@settings(max_examples=8, deadline=None)
@given(verdict_points())
@example((builtin("path", 3), 3, Q(1, 2), Q(0)))  # the tie at eps = 0, mixed verdicts
@example((builtin("path", 2), 3, Q(5, 9), Q(1, 10)))  # the tie at eps = 1/10
@example((builtin("path", 4), 4, Q(1, 4), Q(0)))  # mixed verdicts
@example((builtin("path", 4), 4, Q(3, 4), Q(1, 3)))  # the tie at the cap
def test_table_matches_the_oracle_verdicts(point):
    """The verdict table equals the oracle's verdicts, from its own game
    values, capture times and a forward search per start, at every
    noncapture start."""
    g, n, gamma, eps = point
    a = build_arena(g, n)
    positional, nonpositional = positionality_table(a, GameParams(n, gamma, eps))
    want = positional_verdicts(g, n, gamma, eps)
    assert len(want) == int((~a.capture_mask).sum())
    for s, verdict in want.items():
        i = a.index(State(*s))
        assert (positional[i], nonpositional[i]) == verdict, (s, gamma, eps)


def test_scan_region_matches_pointwise():
    grid_g = [Q(1, 4), Q(1, 2), Q(3, 4)]
    grid_e = [Q(0), Q(1, 5)]
    s0 = State((0, 0), 1, 1)
    a = _p2_arena()
    rows = scan_region(a, s0, grid_g, grid_e)
    assert len(rows) == 6
    it = iter(rows)
    for eps in grid_e:
        for gamma in grid_g:
            row = next(it)
            assert (row.epsilon, row.gamma) == (eps, gamma)
            one = check_positionality(a, s0, GameParams(3, gamma, eps))
            assert row.positional_exists == one.positional_exists
            assert row.witnesses == one.witnesses


def test_trigger_profile_moves_are_legal():
    """Every table of the profile names a successor at each noncapture
    state and -1 at each capture state, read only; `cooperative` is the
    mover's row of `punishment`."""
    a = build_arena(builtin("path", 3), 3)
    params = GameParams(3, Q(1, 2), Q(0))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    nc = a.noncapture_indices()
    capture = np.ones(a.n_states, dtype=bool)
    capture[nc] = False
    assert profile.punishment.shape == (3, a.n_states)
    for table in (profile.cooperative, *profile.punishment):
        assert not table.flags.writeable
        assert (table[capture] == -1).all()
        for i in nc.tolist():
            assert table[i] in a.succ_indices(i)
    every = np.arange(a.n_states)
    assert np.array_equal(profile.cooperative, profile.punishment[every % 3, every])


@pytest.mark.parametrize("n", [3, 4])
def test_trigger_profile_arrays_equal_the_dict_builder(suite_graphs, n):
    """Entry for entry, on every suite graph at two (gamma, epsilon)
    points: the per-token array build against the per-state dict builder."""
    for name, g in suite_graphs.items():
        a = build_arena(g, n)
        cr = solve_capture_time(a)
        for gamma, eps in ((Q(1, 2), Q(1, 10)), (Q(9, 10), Q(0))):
            games = solve_all_games(a, GameParams(n, gamma, eps))
            profile = build_trigger_profile(cr, games)
            cooperative, punishment = oracle_trigger_profile(a, cr, games)
            want = np.full((n + 1, a.n_states), -1)
            for row, table in zip(want, (cooperative, *punishment.values())):
                row[list(table)] = list(table.values())
            assert np.array_equal(profile.cooperative, want[0]), (name, gamma)
            assert np.array_equal(profile.punishment, want[1:]), (name, gamma)


def test_cooperative_play_captures_without_switching():
    a = _p2_arena()
    params = GameParams(3, Q(1, 2), Q(0))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    run = simulate_trigger(a, profile, State((0, 0), 1, 1))
    assert run.switch_time is None and run.punished_player is None
    assert run.play.capture_time == 1
    assert run.play.capturing_cops == frozenset({1})


def test_robber_deviation_triggers_punishment_and_still_loses():
    g = builtin("path", 3)
    a = build_arena(g, 3)
    params = GameParams(3, Q(1, 2), Q(0))
    cr = solve_capture_time(a)
    profile = build_trigger_profile(cr, solve_all_games(a, params))
    # the robber runs from the cooperative plan at every turn
    dev = profile.cooperative.copy()
    for i in a.noncapture_indices()[2::3].tolist():
        succ = [j for j in a.succ_indices(i).tolist() if j != dev[i]]
        dev[i] = succ[0] if succ else dev[i]
    run = simulate_trigger(a, profile, State((0, 2), 1, 3), deviant=(3, dev))
    assert run.punished_player == 3
    assert run.switch_time is not None
    assert run.play.capture_time != float("inf")  # the chase plan still wins


def test_deviant_must_play_legal_moves():
    a = _p2_arena()
    params = GameParams(3, Q(1, 2), Q(0))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    start = a.index(State((0, 0), 1, 1))
    for nowhere in (a.n_states - 1, -1, a.n_states):
        bad = np.full(a.n_states, nowhere)
        with pytest.raises(IllegalMoveError, match="is not a successor"):
            simulate_trigger(a, profile, start, deviant=(1, bad))


def test_check_rejects_capture_start():
    a = _p2_arena()
    with pytest.raises(ValidationError):
        check_positionality(a, State((0, 1), 1, 1), GameParams(3, Q(1, 2), Q(0)))


def test_a_capture_start_is_refused_before_any_solve(monkeypatch):
    def unexpected(*args):
        raise AssertionError("a game was solved")

    monkeypatch.setattr(positionality, "solve_game", unexpected)
    monkeypatch.setattr(positionality, "solve_capture_time", unexpected)
    a = build_arena(builtin("petersen"), 4)
    start = State((0, 1, 2), 0, 1)
    with pytest.raises(ValidationError, match="^s0 0,1,2;0;1 is a capture state$"):
        check_positionality(a, start, GameParams(4, Q(1, 2), Q(0)))
    with pytest.raises(ValidationError, match="^s0 0,1,2;0;1 is a capture state$"):
        scan_region(a, start, [Q(1, 2)], [Q(0)])


def test_many_starts_solve_each_game_once(discounted_runs):
    a = build_arena(builtin("path", 4), 4)
    params = GameParams(4, Q(1, 2), Q(0))
    for i in a.noncapture_indices()[:20]:
        check_positionality(a, i, params)
    assert len(discounted_runs) == 3


def test_the_table_is_kept_while_the_optimal_edges_are(discounted_runs):
    """Along gamma the table is recomputed only when some game's optimal
    edges change, and matches a cold arena at every point."""
    a = _p2_arena()
    grid = [Q(1, 4), Q(3, 10), Q(1, 3), Q(1, 2), Q(3, 5)]
    tables = [positionality_table(a, GameParams(3, gamma, Q(1, 10))) for gamma in grid]
    assert tables[1][0] is tables[0][0] and tables[1][1] is tables[0][1]
    assert len(discounted_runs) < 2 * len(grid)
    for gamma, (positional, nonpositional) in zip(grid, tables):
        cold = positionality_table(_p2_arena(), GameParams(3, gamma, Q(1, 10)))
        assert np.array_equal(positional, cold[0]) and np.array_equal(nonpositional, cold[1])
        assert not positional.flags.writeable


def test_a_verdict_without_a_trigger_profile_is_a_solver_error(monkeypatch, capsys):
    """Set tests that leave neither kind of profile are a solver fault,
    found once per point over every orbit: a ScarError naming the first
    such orbit's representative and the instance, and exit 3 from the
    CLI, under python -O too."""

    def contradictory(arena, games):
        noncapture = ~arena.quotient().capture
        return np.tile(noncapture, (len(games), 1)), np.zeros_like(noncapture)

    monkeypatch.setattr(positionality, "_orbit_tests", contradictory)
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    a = _p2_arena()
    params = GameParams(3, Q(1, 2), Q(0))
    s0 = State((0, 0), 1, 1)
    with pytest.raises(ScarError, match="at 0,0;1;1 on 2 vertices, N=3, gamma=1/2"):
        check_positionality(a, s0, params)
    with pytest.raises(ScarError, match="at 0,0;1;1 on 2 vertices, N=3, gamma=1/2.*neither"):
        positionality_table(a, params)
    with pytest.raises(ScarError, match="at 0,0;1;1 on 2 vertices, N=3, gamma=1/2"):
        scan_region(a, State((1, 1), 0, 2), [params.gamma], [params.epsilon])
    args = ["poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
            "--gamma", "1/2", "--epsilon", "0"]
    assert main(args) == 3
    assert "solver error: positionality check at 0,0;1;1" in capsys.readouterr().err


def _counted(monkeypatch, name):
    """The argument tuples of every call of positionality's `name` from here on."""
    calls, real = [], getattr(positionality, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(positionality, name, counted)
    return calls


def test_the_three_calls_at_one_point_compute_its_set_tests_once(monkeypatch):
    """positionality_table, check_positionality and scan_region at one
    point of one arena read one record of its set tests, and agree."""
    tests = _counted(monkeypatch, "_orbit_tests")
    a = build_arena(builtin("path", 4), 4)
    params = GameParams(4, Q(1, 4), Q(0))
    s0 = State((0, 3, 1), 2, 1)
    positional, nonpositional = positionality_table(a, params)
    v = check_positionality(a, s0, params)
    (w,) = scan_region(a, s0, [params.gamma], [params.epsilon])
    assert len(tests) == 1
    i = a.index(s0)
    assert (v.positional_exists, v.nonpositional_exists) == (positional[i], nonpositional[i])
    assert v == w and v.witnesses == w.witnesses


def test_scan_region_along_gamma_equals_cold_single_checks(monkeypatch):
    """Along a gamma grid on path:2 N=3, every scan_region verdict equals a
    cold arena's check_positionality, witnesses and their dtypes included,
    and a point whose games kept their rank arrays computes no set tests."""
    ranks = []
    solve_all = positionality.solve_all_games

    def spied(arena, params):
        games = solve_all(arena, params)
        ranks.append([sol.rank for sol in games.values()])
        return games

    monkeypatch.setattr(positionality, "solve_all_games", spied)
    tests = _counted(monkeypatch, "_orbit_tests")
    grid, eps, s0 = [Q(i, 40) for i in range(1, 40)], [Q(1, 10), Q(1, 4)], State((0, 0), 1, 1)
    rows = scan_region(_p2_arena(), s0, grid, eps)
    kept = sum(all(x is y for x, y in zip(*pair)) for pair in zip(ranks, ranks[1:]))
    assert kept and len(tests) == len(rows) - kept
    assert {row.positional_exists for row in rows} == {False, True}
    for row in rows:
        cold = check_positionality(_p2_arena(), s0, GameParams(3, row.gamma, row.epsilon))
        assert row == cold and row.witnesses == cold.witnesses
        for got, want in ((row.fail_states, cold.fail_states), (row.fail_cops, cold.fail_cops)):
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
