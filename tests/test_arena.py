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
    check_positionality,
    classify,
    format_state,
    parse_state,
    positionality_table,
    reachable_noncapture,
    simulate,
    solve_capture_time,
    solve_game,
    state_cop_report,
)
from scar.arena import Csr, concat_ranges, is_capture

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
    rev = a.moves.reverse()
    for mine, ref in zip(preds, rev):
        assert mine.dtype == ref.dtype and np.array_equal(mine, ref)
    regular = len({len(nb) for nb in g.neighbors}) == 1
    for table in (a.moves, preds):
        assert (table.width is not None) == regular


def bincount_reverse(table: Csr) -> tuple[np.ndarray, np.ndarray]:
    """The reverse of `table` with its row sizes counted by np.bincount over
    the targets, the way `Csr.reverse` counted them before."""
    n = len(table.offsets) - 1
    counts = np.bincount(table.targets, minlength=n)
    keys = table.per_edge(np.arange(n, dtype=np.int64)) + table.targets.astype(np.int64) * n
    keys.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets, (keys % n).astype(np.int32)


def same_reverse(table: Csr) -> bool:
    got, (offsets, targets) = table.reverse(), bincount_reverse(table)
    return (got.targets.dtype == targets.dtype and np.array_equal(got.offsets, offsets)
            and np.array_equal(got.targets, targets)
            and got.width == Csr.measured(offsets, targets).width)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=5), min_size=n, max_size=n)))
def test_reverse_takes_its_row_starts_from_the_sorted_keys(rows):
    """Random tables, empty rows and repeated targets included, reverse as
    they did when the row sizes came from np.bincount."""
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    targets = np.array([t for r in rows for t in r], dtype=np.int64)
    assert same_reverse(Csr.of_sizes(sizes, targets))


def test_the_path12_quotient_reverses_as_before():
    q = build_arena(builtin("path", 12), 4).quotient()
    assert same_reverse(q.moves)
    assert all(np.array_equal(x, y) for x, y in zip(q.preds, bincount_reverse(q.moves)))


def test_capture_mask_is_read_only_and_built_on_first_use():
    """No solve on the quotient builds the full capture mask, and once
    built it takes no write that would change later answers."""
    a = build_arena(builtin("path", 4), 3)
    s = parse_state("0,0;3;1", 3, 4)
    assert solve_capture_time(a).capture_time(s) == 7
    state_cop_report(a).max_over_noncapture()
    assert "capture_mask" not in a._memo
    assert np.array_equal(a.capture_mask, [is_capture(a.state_of(i)) for i in range(a.n_states)])
    with pytest.raises(ValueError, match="read-only"):
        a.capture_mask[a.index(s)] = True
    assert solve_capture_time(a).capture_time(s) == 7
    assert not a.is_capture(s)


def _one_wide(a):
    """The arena's table filtered to the first edge of every row."""
    keep = np.zeros(len(a.targets), dtype=bool)
    keep[a.offsets[:-1]] = True
    return a.moves.filter(keep)


@pytest.mark.parametrize("name, k, width", [
    ("petersen", None, 4), ("cycle", 5, 3), ("star", 4, None), ("path", 4, None),
])
@pytest.mark.parametrize("one_wide", [False, True])
def test_row_helpers_match_reduceat_and_concat_ranges(name, k, width, one_wide):
    a = build_arena(builtin(name, k) if k else builtin(name), 3)
    table = _one_wide(a) if one_wide else a.moves
    offsets, targets = table
    assert table.width == (1 if one_wide else width)
    rng = np.random.default_rng(7)
    n, seg, sizes = a.n_states, offsets[:-1], np.diff(offsets)

    keys = rng.integers(0, 50, n)[targets]
    max_mask = rng.random(n) < 0.5
    want = np.where(max_mask, np.maximum.reduceat(keys, seg), np.minimum.reduceat(keys, seg))
    assert np.array_equal(table.row_best(keys, max_mask), want)

    values = rng.integers(0, 9, n)
    assert np.array_equal(table.per_edge(values), np.repeat(values, sizes))
    mask = rng.random(len(targets)) < 0.4
    assert np.array_equal(table.row_counts(mask), np.add.reduceat(mask, seg, dtype=np.int64))

    read = table.row_reader()
    for rows in (rng.choice(n, 40), np.arange(n), np.empty(0, dtype=np.int64)):
        want = targets[concat_ranges(offsets[rows], offsets[rows + 1])]
        assert np.array_equal(read(rows), want)

    rows = np.sort(rng.choice(n, 40))
    edges = concat_ranges(offsets[rows], offsets[rows + 1])
    want = np.minimum.reduceat(keys[edges], np.cumsum(sizes[rows]) - sizes[rows])
    assert np.array_equal(table.row_fold(np.minimum, rows, keys[edges]), want)


def test_package_tables_keep_the_width_decided_at_build(monkeypatch):
    """Every table the package builds carries the width decided from its
    row sizes: no layer measures one, on a regular graph (Petersen) or a
    ragged one (a path)."""

    def measured(offsets, targets):
        raise AssertionError("a table built by the package was measured")

    monkeypatch.setattr(Csr, "measured", measured)
    for g, n, width in ((builtin("petersen"), 4, 4), (builtin("path", 5), 3, None)):
        a = build_arena(g, n)
        assert a.moves.width == a.predecessors().width == width
        solve_capture_time(a).capturer_table()
        state_cop_report(a)
        classify(g, n)
        positionality_table(a, GameParams(n, Q(1, 2), Q(0)))
        solve_game(a, 1, GameParams(n, Q(3, 4), Q(0)))
        assert a.quotient().moves.width == width


def test_shared_tables_are_read_only():
    """The arena's memoized arrays, a game's ranks and optimal edges and
    every table's arrays are shared by later calls, so none takes a write."""
    a = build_arena(builtin("path", 4), 3)
    s = parse_state("0,0;3;1", 3, 4)
    cr = solve_capture_time(a)
    game = solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))
    shared = [cr.values, cr.edge_opt, cr.capturer_table(), game.rank, game.edge_opt,
              a.capture_mask, *a.moves, *a.predecessors(), *a.quotient().moves,
              a.quotient().reps, a.quotient().mix_orbit]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[:1] = array[:1]
    assert cr.capture_time(s) == 7
    assert check_positionality(a, s, GameParams(3, Q(1, 2), Q(0))).positional_exists


@pytest.mark.parametrize("n", [np.int64(3), np.int8(2)])
def test_player_count_may_be_a_numpy_integer(n):
    a = build_arena(builtin("cycle", 4), n)
    assert type(a.n_players) is int and a.n_states == 4**n * n
    assert GameParams(np.int64(3), Q(1, 2), Q(0)).n_players == 3


@pytest.mark.parametrize("n, named", [(True, "bool"), (3.0, "float"), ("3", "str")])
def test_player_count_refuses_bools_and_non_integers(n, named):
    with pytest.raises(ValidationError, match=named):
        build_arena(builtin("cycle", 4), n)
    with pytest.raises(ValidationError, match=named):
        GameParams(n, Q(1, 2), Q(0))


def test_row_width_reads_the_offsets():
    def width(offsets):
        return Csr.measured(np.array(offsets), np.zeros(offsets[-1], dtype=np.int64)).width

    assert width([0, 2, 4, 6]) == 2
    assert width([0, 1, 3, 4]) is None
    assert width([0, 0, 0]) is None
    assert width([0]) is None


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


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]), st.data())
def test_reachable_noncapture_matches_a_breadth_first_search(g, n, data):
    a = build_arena(g, n)
    start = data.draw(st.sampled_from(a.noncapture_indices().tolist()))
    s0 = a.state_of(start)
    first = cell(s0.cops, s0.robber, s0.mover)
    seen, todo = {first}, [first]
    while todo:
        for nxt in oracle_successors(g, todo.pop()):
            if nxt not in seen and nxt[1] not in nxt[0]:
                seen.add(nxt)
                todo.append(nxt)
    want = sorted(a.index(State(*s)) for s in seen)
    assert reachable_noncapture(a, start).tolist() == want


@pytest.mark.parametrize("name, k, n", [
    ("path", 3, 3), ("cycle", 4, 3), ("star", 3, 3), ("complete", 3, 3), ("path", 2, 4),
])
def test_opt_indices_are_the_rows_optimal_edges(name, k, n):
    """One row's optimal moves, read from the row alone, are the row's
    targets that `edge_opt` marks, for both solution types."""
    from scar import solve_capture_time, solve_game

    a = build_arena(builtin(name, k), n)
    for sol in (solve_capture_time(a), solve_game(a, 1, GameParams(n, Q(1, 2), Q(0)))):
        for i in a.noncapture_indices().tolist():
            lo, hi = a.offsets[i], a.offsets[i + 1]
            want = a.targets[lo:hi][sol.edge_opt[lo:hi]]
            assert np.array_equal(sol.opt_indices(i), want)


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
