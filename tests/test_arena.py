"""State space construction: codec, successor structure, reachability,
parameter validation, play simulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scar import (
    GameParams,
    IllegalMoveError,
    Q,
    State,
    StateCountExceededError,
    ValidationError,
    all_cops_one_side,
    build_arena,
    builtin,
    format_state,
    parse_state,
    reachable_noncapture,
    simulate,
)
from scar.arena import (
    concat_ranges,
    filter_csr,
    is_capture,
    per_edge,
    reverse_csr,
    row_best,
    row_counts,
    row_reader,
    row_width,
)

from oracles import all_states, cell, successors as oracle_successors
from strategies import connected_graphs


def test_state_count():
    a = build_arena(builtin("path", 3), 3)
    assert a.n_states == 3**3 * 3
    assert a.n_players == 3


def test_index_state_round_trip_exhaustive():
    a = build_arena(builtin("path", 3), 3)
    for i in range(a.n_states):
        assert a.index(a.state_of(i)) == i


def test_capture_mask_matches_definition():
    a = build_arena(builtin("cycle", 4), 3)
    for i in range(a.n_states):
        s = a.state_of(i)
        assert bool(a.capture_mask[i]) == (s.robber in s.cops)
        assert a.is_capture(i) == is_capture(s)


def test_mover_cycles_through_successors():
    a = build_arena(builtin("path", 3), 3)
    for i in range(a.n_states):
        nxt = a.mover_of(i) % 3 + 1
        for j in a.succ_indices(i):
            assert a.mover_of(int(j)) == nxt


@pytest.mark.parametrize("name, k, n", [("path", 3, 3), ("cycle", 4, 3), ("path", 2, 4)])
def test_successors_match_reference(name, k, n):
    g = builtin(name, k)
    a = build_arena(g, n)
    for s in all_states(g, n):
        mine = [a.state_of(int(j)) for j in a.succ_indices(a.index(State(*s)))]
        assert [cell(t.cops, t.robber, t.mover) for t in mine] == oracle_successors(g, s)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([2, 3, 4]))
def test_slot_tables_match_the_oracle_and_the_sorted_reverse(g, n):
    """Successors equal the oracle's lists, predecessors equal the sorted
    reverse of the successor table, and both are rectangular exactly when
    the graph is regular."""
    a = build_arena(g, n)
    for s in all_states(g, n):
        want = [a.index(State(*t)) for t in oracle_successors(g, s)]
        assert a.succ_indices(a.index(State(*s))).tolist() == want
    preds = a.predecessors()
    rev = reverse_csr(a.offsets, a.targets)
    for mine, ref in zip(preds, rev):
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref)
    regular = len({len(nb) for nb in g.neighbors}) == 1
    for offsets in (a.offsets, preds[0]):
        assert (row_width(offsets) is not None) == regular


def _one_wide(a):
    """The arena's table filtered to the first edge of every row."""
    keep = np.zeros(len(a.targets), dtype=bool)
    keep[a.offsets[:-1]] = True
    return filter_csr(a.offsets, a.targets, keep)


@pytest.mark.parametrize("name, k, width", [
    ("petersen", None, 4), ("cycle", 5, 3), ("star", 4, None), ("path", 4, None),
])
@pytest.mark.parametrize("one_wide", [False, True])
def test_row_helpers_match_reduceat_and_concat_ranges(name, k, width, one_wide):
    a = build_arena(builtin(name, k) if k else builtin(name), 3)
    offsets, targets = _one_wide(a) if one_wide else (a.offsets, a.targets)
    assert row_width(offsets) == (1 if one_wide else width)
    rng = np.random.default_rng(7)
    n, seg, sizes = a.n_states, offsets[:-1], np.diff(offsets)

    keys = rng.integers(0, 50, n)[targets]
    max_mask = rng.random(n) < 0.5
    want = np.where(max_mask, np.maximum.reduceat(keys, seg), np.minimum.reduceat(keys, seg))
    assert np.array_equal(row_best(offsets, keys, max_mask), want)

    values = rng.integers(0, 9, n)
    assert np.array_equal(per_edge(offsets, values), np.repeat(values, sizes))
    mask = rng.random(len(targets)) < 0.4
    assert np.array_equal(row_counts(offsets, mask), np.add.reduceat(mask, seg, dtype=np.int64))

    read = row_reader(offsets, targets)
    for rows in (rng.choice(n, 40), np.arange(n), np.empty(0, dtype=np.int64)):
        want = targets[concat_ranges(offsets[rows], offsets[rows + 1])]
        assert np.array_equal(read(rows), want)


def test_row_width_reads_the_offsets():
    assert row_width(np.array([0, 2, 4, 6])) == 2
    assert row_width(np.array([0, 1, 3, 4])) is None
    assert row_width(np.array([0, 0, 0])) is None
    assert row_width(np.array([0])) is None


def test_successor_targets_sorted_by_moved_vertex():
    a = build_arena(builtin("star", 3), 3)
    for i in range(a.n_states):
        s = a.state_of(i)
        moved = []
        for j in a.succ_indices(i):
            t = a.state_of(int(j))
            moved.append(t.robber if s.mover == 3 else t.cops[s.mover - 1])
        assert moved == sorted(moved)


def test_state_literal_round_trip():
    s = State((0, 2), 1, 3)
    assert s.literal() == "0,2;1;3"
    assert format_state(s) == "0,2;1;3"
    assert parse_state("0,2;1;3", 3, 4) == s


@pytest.mark.parametrize(
    "text",
    ["", "0;1;2", "0,1;2", "0,1;2;9", "0,9;1;2", "0,1;9;2", "a,b;1;1", "0,1;1;0"],
)
def test_parse_state_rejects(text):
    with pytest.raises(ValidationError):
        parse_state(text, 3, 4)


def test_game_params_validation():
    GameParams(3, Q(1, 2), Q(1, 2))  # cap 1/(N-1) inclusive
    with pytest.raises(ValidationError):
        GameParams(2, Q(1, 2), Q(0))
    with pytest.raises(ValidationError):
        GameParams(3, Q(1), Q(0))
    with pytest.raises(ValidationError):
        GameParams(3, Q(0), Q(0))
    with pytest.raises(ValidationError):
        GameParams(4, Q(1, 2), Q(2, 5))  # above 1/3
    GameParams(4, Q(1, 2), Q(2, 5), allow_wide_epsilon=True)
    with pytest.raises(ValidationError):
        GameParams(4, Q(1, 2), Q(3, 5), allow_wide_epsilon=True)  # above even 1/2


def test_state_count_guard():
    with pytest.raises(StateCountExceededError):
        build_arena(builtin("petersen"), 4, max_states=1000)


def test_reachable_noncapture_on_p2():
    a = build_arena(builtin("path", 2), 3)
    reach = reachable_noncapture(a, State((0, 0), 1, 1))
    states = {a.state_of(int(i)).literal() for i in reach}
    # cops can only wait (moving onto 1 captures); robber may hop over only
    # when it is nobody's loss: the robber moving 1 -> 0 enters capture, so
    # the far side is never seen without a capture in between.
    assert states == {"0,0;1;1", "0,0;1;2", "0,0;1;3"}


def test_reachable_requires_noncapture_start():
    a = build_arena(builtin("path", 2), 3)
    with pytest.raises(ValidationError):
        reachable_noncapture(a, State((1, 0), 1, 1))


def test_reachable_covers_everything_on_rich_graphs():
    g = builtin("cycle", 5)
    a = build_arena(g, 3)
    reach = reachable_noncapture(a, State((0, 1), 3, 1))
    noncapture = int((~a.capture_mask).sum())
    assert len(reach) == noncapture


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=8))
def test_concat_ranges_matches_numpy(pairs):
    starts = np.array([p[0] for p in pairs], dtype=np.int64)
    ends = starts + np.array([p[1] for p in pairs], dtype=np.int64)
    want = np.concatenate([np.arange(s, e) for s, e in zip(starts, ends)]) if pairs else []
    assert concat_ranges(starts, ends).tolist() == list(want)


def test_all_cops_one_side():
    g = builtin("path", 4)
    assert all_cops_one_side(g, State((0, 1), 2, 1))
    assert all_cops_one_side(g, State((3, 3), 1, 2))
    assert not all_cops_one_side(g, State((0, 3), 1, 1))
    assert not all_cops_one_side(g, State((0, 3), 2, 3))
    with pytest.raises(ValidationError):
        all_cops_one_side(builtin("cycle", 4), State((0, 1), 2, 1))


def test_simulate_follows_tables_to_capture():
    g = builtin("path", 2)
    a = build_arena(g, 3)

    def chase(i: int) -> int:
        s = a.state_of(i)
        if s.mover == 3:
            return a.index(State(s.cops, s.robber, 1))
        cops = list(s.cops)
        cops[s.mover - 1] = s.robber  # walk straight at the robber
        return a.index(State(tuple(cops), s.robber, s.mover % 3 + 1))

    play = simulate(a, State((0, 0), 1, 1), chase)
    assert play.capture_time == 1
    assert play.capturing_cops == {1}
    assert not play.cycled


def test_simulate_detects_cycles():
    g = builtin("path", 2)
    a = build_arena(g, 3)

    def stay(i: int) -> int:
        s = a.state_of(i)
        return a.index(State(s.cops, s.robber, s.mover % 3 + 1))

    play = simulate(a, State((0, 0), 1, 1), stay)
    assert play.capture_time == math.inf
    assert play.cycled


def test_simulate_rejects_illegal_moves():
    g = builtin("path", 3)
    a = build_arena(g, 3)

    def teleport(i: int) -> int:
        s = a.state_of(i)
        return a.index(State((2, s.cops[1]), s.robber, 2))

    with pytest.raises(IllegalMoveError):
        simulate(a, State((0, 0), 2, 1), teleport)


def test_queries_accept_numpy_indices():
    """Every query that takes a state also takes its index, as a Python or
    a numpy integer, and refuses an index outside the arena."""
    from scar import (
        build_trigger_profile,
        capture_attribution,
        check_positionality,
        g3_guarantee_test,
        guaranteed_capture,
        positionality_table,
        scan_region,
        solve_capture_time,
        solve_game,
        state_cop_number,
        state_cop_report,
    )
    from scar.positionality import simulate_trigger, solve_all_games

    a = build_arena(builtin("path", 2), 3)
    params = GameParams(3, Q(1, 2), Q(0))
    cr = solve_capture_time(a)
    game = solve_game(a, 1, params)
    report = state_cop_report(a)
    profile = build_trigger_profile(cr, solve_all_games(a, params))
    table = positionality_table(a, params)
    queries = [
        a.is_capture,
        lambda s: reachable_noncapture(a, s).tolist(),
        lambda s: simulate(a, s, profile.cooperative),
        cr.capture_time,
        lambda s: capture_attribution(cr, s),
        lambda s: cr.opt_indices(s).tolist(),
        cr.opt_moves,
        game.value,
        lambda s: guaranteed_capture(a, s, [1]),
        lambda s: state_cop_number(a, s),
        report.value,
        report.witness_coalition,
        lambda s: g3_guarantee_test(a, cr, s),
        lambda s: simulate_trigger(a, profile, s),
        lambda s: check_positionality(a, s, params),
        lambda s: [bool(column[a.index_of(s)]) for column in table],
        lambda s: scan_region(a.graph, 3, s, [Q(1, 2)], [Q(0)]),
    ]
    s = State((0, 0), 1, 1)
    i = a.index(s)
    for query in queries:
        want = query(s)
        assert query(i) == want
        assert query(np.int64(i)) == want
        assert query(np.int32(i)) == want
        with pytest.raises(ValidationError):
            query(np.int64(a.n_states))
    # a verdict names its start as a State however the start was given
    assert check_positionality(a, np.int64(i), params).s0 == s
