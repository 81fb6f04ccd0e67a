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

from oracles import positional_verdicts
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
    rows = scan_region(builtin("path", 2), 3, s0, grid_g, grid_e)
    assert len(rows) == 6
    a = _p2_arena()
    it = iter(rows)
    for eps in grid_e:
        for gamma in grid_g:
            row = next(it)
            assert (row.epsilon, row.gamma) == (eps, gamma)
            one = check_positionality(a, s0, GameParams(3, gamma, eps))
            assert row.positional_exists == one.positional_exists
            assert row.witnesses == one.witnesses


def test_trigger_profile_moves_are_legal():
    a = build_arena(builtin("path", 3), 3)
    params = GameParams(3, Q(1, 2), Q(0))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    nc = set(map(int, a.noncapture_indices()))
    assert set(profile.cooperative) == nc
    for i, j in profile.cooperative.items():
        assert j in set(map(int, a.succ_indices(i)))
    for m in (1, 2, 3):
        assert set(profile.punishment[m]) == nc


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
    dev = {}
    for i in a.noncapture_indices():
        i = int(i)
        if a.mover_of(i) == 3:
            succ = [int(j) for j in a.succ_indices(i) if j != profile.cooperative[i]]
            dev[i] = succ[0] if succ else profile.cooperative[i]
    run = simulate_trigger(a, profile, State((0, 2), 1, 3), deviant=(3, dev))
    assert run.punished_player == 3
    assert run.switch_time is not None
    assert run.play.capture_time != float("inf")  # the chase plan still wins


def test_deviant_must_play_legal_moves():
    a = _p2_arena()
    params = GameParams(3, Q(1, 2), Q(0))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    start = a.index(State((0, 0), 1, 1))
    bad = {int(i): int(a.n_states - 1) for i in a.noncapture_indices()}
    with pytest.raises(IllegalMoveError):
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
        scan_region(builtin("petersen"), 4, start, [Q(1, 2)], [Q(0)])


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
    """Set tests that leave neither kind of profile are a solver fault: a
    ScarError naming the instance, and exit 3 from the CLI, under python -O
    too."""

    def contradictory(arena, cr, games):
        everywhere = np.ones(len(arena.quotient().reps), dtype=bool)
        return {m: ~everywhere for m in games}, everywhere

    monkeypatch.setattr(positionality, "_state_tests", contradictory)
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    a = _p2_arena()
    params = GameParams(3, Q(1, 2), Q(0))
    s0 = State((0, 0), 1, 1)
    with pytest.raises(ScarError, match="at 0,0;1;1 on 2 vertices, N=3, gamma=1/2"):
        check_positionality(a, s0, params)
    with pytest.raises(ScarError, match="at 0,0;1;1 on 2 vertices, N=3, gamma=1/2.*neither"):
        positionality_table(a, params)
    args = ["poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
            "--gamma", "1/2", "--epsilon", "0"]
    assert main(args) == 3
    assert "solver error: positionality check at 0,0;1;1" in capsys.readouterr().err
