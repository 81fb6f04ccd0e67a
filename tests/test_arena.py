"""State space construction: codec, successor structure, reachability,
parameter validation, play simulation."""

import math
import tracemalloc

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
    bridge,
    build_arena,
    builtin,
    check_positionality,
    classify,
    format_state,
    graph_from_edges,
    parse_state,
    positionality_table,
    reachable_noncapture,
    simulate,
    solve_capture_time,
    solve_game,
    state_cop_report,
)
from scar.arena import Csr, distinct, is_capture
from scar.classify import _restricted_tables
from scar.graphs import automorphisms

from oracles import (
    all_states, cell, check_cut_tables, check_listing_table, filtered, padded_reverse,
    successors as oracle_successors,
)
from strategies import ASYMMETRIC, connected_graphs


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


def widest(g) -> int:
    """The largest closed neighbourhood of g: every move table's width."""
    return max(len(g.closed_neighborhood(u)) for u in range(g.vertex_count))


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([2, 3, 4]))
def test_slot_tables_match_the_oracle_and_the_sorted_reverse(g, n):
    """Successors equal the oracle's lists, each row padded to the largest
    closed neighbourhood with its last entry, and predecessors equal the
    reverse of the padded table, duplicates kept, each row padded with
    its own index."""
    a = build_arena(g, n)
    assert a.moves.width == widest(g)
    for s in all_states(g, n):
        want = [a.index(State(*t)) for t in oracle_successors(g, s)]
        i = a.index(State(*s))
        assert a.succ_indices(i).tolist() == want
        assert a.moves.table[i].tolist() == want + want[-1:] * (widest(g) - len(want))
    preds = a.predecessors()
    assert preds.targets.dtype == np.int32
    assert preds.table.tolist() == padded_reverse(a.moves.table.tolist())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=1, max_size=5), min_size=n, max_size=n)))
def test_reverse_takes_its_row_starts_from_the_sorted_keys(rows):
    """Random tables, rows of different lengths and repeated targets
    included, pad each row with its last entry and reverse as the
    pair-by-pair oracle does, each reverse row padded with its own index."""
    sizes = [len(r) for r in rows]
    table = Csr.measured(np.cumsum([0, *sizes]), np.concatenate(rows))
    width = max(sizes)
    assert table.table.tolist() == [r + r[-1:] * (width - len(r)) for r in rows]
    back = table.reverse()
    assert back.table.tolist() == padded_reverse(table.table.tolist())
    # `reverse` lists each row once per entry, an entry naming its own row
    # included, so its count is the width; a fresh count, which takes such
    # an entry for a pad, leaves those out
    assert back.listed.tolist() == [width] * len(rows)
    own = [r.count(s) for s, r in enumerate(table.table.tolist())]
    assert Csr(back.table).listed.tolist() == [width - k for k in own]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9), max_size=30))
def test_distinct_keeps_one_copy_of_each_value(values):
    slot = np.full(10, -7, dtype=np.int64)
    got = distinct(np.array(values, dtype=np.int64), slot)
    assert sorted(got.tolist()) == sorted(set(values))


def test_the_path12_quotient_lists_each_reps_predecessors():
    """The quotient's rows are padded with their last orbit (124,416
    entries where the unpadded rows held 117,504), and so are the rows of
    its predecessor table, which lists the orbit of each predecessor of
    each orbit's rep (`check_listing_table`): as wide as the moves, not
    the largest in-degree."""
    a = build_arena(builtin("path", 12), 4)
    q = a.quotient()
    assert q.moves.table.shape == q.preds.table.shape == (41_472, 3) and q.capture[0]
    check_listing_table(a)


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


def unpadded(a) -> list[list[int]]:
    """The arena's successor lists as the rules give them, row by row."""
    return [a.succ_indices(i).tolist() for i in range(a.n_states)]


@pytest.mark.parametrize("name, k, width", [
    ("petersen", None, 4), ("cycle", 5, 3), ("star", 4, None), ("path", 4, None),
])
@pytest.mark.parametrize("one_wide", [False, True])
def test_row_helpers_match_reduceat_and_concat_ranges(name, k, width, one_wide):
    """On the padded table (width None: the unpadded rows differ in length),
    or on it filtered to each row's first entry, every row helper answers as
    `reduceat` and a concatenation of ranges do over the unpadded lists."""
    g = builtin(name, k) if k else builtin(name)
    a = build_arena(g, 3)
    rows = unpadded(a)
    assert (width is None) == (len({len(r) for r in rows}) > 1)
    table = a.moves
    if one_wide:
        table = filtered(table, np.arange(len(table.targets)) % table.width == 0)
        rows = [r[:1] for r in rows]
    assert table.width == (1 if one_wide else widest(g))
    sizes = np.array([len(r) for r in rows])
    offsets, targets = np.r_[0, np.cumsum(sizes)], np.concatenate(rows)
    rng = np.random.default_rng(7)
    n, seg = a.n_states, offsets[:-1]

    state_keys = rng.integers(0, 50, n)
    max_mask = rng.random(n) < 0.5
    keys = state_keys[targets]
    want = np.where(max_mask, np.maximum.reduceat(keys, seg), np.minimum.reduceat(keys, seg))
    assert np.array_equal(table.row_best(state_keys[table.table].T, max_mask), want)
    best = state_keys[table.table] == want[:, None]
    assert np.array_equal(table.best_edges(state_keys, max_mask), best.reshape(-1))

    # marks made per target, as every mask the package counts is: a padded
    # duplicate is marked with its original, which keeps "some" and "all"
    marked, also = rng.random(n) < 0.3, rng.random(n) < 0.6
    marks = np.add.reduceat(marked[targets], seg)
    some, every = marks > 0, np.add.reduceat((marked & also)[targets], seg) == marks
    counts = table.row_counts(marked[table.targets])
    both = table.row_counts((marked & also)[table.targets])
    assert counts.dtype == np.int64
    assert np.array_equal(counts > 0, some) and np.array_equal(both == counts, every)

    read = table.row_reader()
    for chosen in (rng.choice(n, 40), np.arange(n), np.empty(0, dtype=np.int64)):
        want = [t for i in chosen for t in rows[i] + rows[i][-1:] * (table.width - len(rows[i]))]
        assert read(chosen).tolist() == want
        assert np.array_equal(np.stack(list(table.columns(chosen)), 1).ravel(), read(chosen))
        assert np.array_equal(np.stack(list(a.columns(chosen)), 1), a.moves.table[chosen])

    chosen = np.sort(rng.choice(n, 40))
    want = [state_keys[rows[i]].min() for i in chosen]
    assert table.row_fold(np.minimum, state_keys[read(chosen)]).tolist() == want


def test_package_tables_keep_the_width_decided_at_build(monkeypatch):
    """Every table the package builds is rectangular from the start: no
    layer measures one, on a regular graph (Petersen) or a ragged one (a
    path), and the successor tables are as wide as the largest closed
    neighbourhood."""

    def measured(offsets, targets):
        raise AssertionError("a table built by the package was measured")

    monkeypatch.setattr(Csr, "measured", measured)
    for g, n, width in ((builtin("petersen"), 4, 4), (builtin("path", 5), 3, 3)):
        a = build_arena(g, n)
        assert a.moves.width == a.width == width
        assert a.predecessors().width == np.bincount(a.targets).max()
        solve_capture_time(a).capturer_table()
        state_cop_report(a)
        classify(g, n)
        positionality_table(a, GameParams(n, Q(1, 2), Q(0)))
        solve_game(a, 1, GameParams(n, Q(3, 4), Q(0)))
        assert a.quotient().moves.width == width


def test_shared_tables_are_read_only():
    """The arena's memoized arrays, a game's ranks, the verdict table and
    every table's arrays are shared by later calls, so none takes a write."""
    a = build_arena(builtin("path", 4), 3)
    s = parse_state("0,0;3;1", 3, 4)
    cr = solve_capture_time(a)
    game = solve_game(a, 1, GameParams(3, Q(1, 2), Q(0)))
    verdicts = positionality_table(a, GameParams(3, Q(1, 2), Q(0)))
    shared = [cr.values, cr.edge_opt, cr.capturer_table(), game.rank, *verdicts,
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


@pytest.mark.parametrize("s, named", [(True, "bool"), (np.bool_(True), "bool"),
                                      (1.0, "float"), (-1, "-1"), (324, "out of range"),
                                      ((0, 1, 2, 0), "tuple"), ("0,1,2;0;1", "str")])
def test_a_state_index_must_be_an_integer_in_range(s, named):
    """A state given by index is refused unless it is an integer (numpy's
    included, bool not) naming a state: True is not state 1, and a float has
    no digits. `index` takes a State only."""
    a = build_arena(builtin("path", 3), 4)
    sol = solve_capture_time(a)
    for query in (a.index_of, a.state_of, a.is_capture, sol.capture_time, sol.opt_indices):
        with pytest.raises(ValidationError, match=named):
            query(s)
    with pytest.raises(ValidationError, match=f"need a State, got {type(s).__name__}"):
        a.index(s)
    assert a.index_of(np.int32(1)) == 1 and sol.capture_time(np.int64(1)) == sol.capture_time(1)
    assert a.state_of(np.uint16(1)) == a.state_of(1) == State((0, 0, 0), 0, 2)


def test_row_width_reads_the_offsets():
    """Arrays made outside the package are padded row by row with each
    row's own last entry; a table with an empty row, or none, is refused."""

    def rows(offsets, targets):
        return Csr.measured(np.array(offsets), np.array(targets)).table.tolist()

    assert rows([0, 2, 4, 6], [1, 2, 3, 4, 5, 6]) == [[1, 2], [3, 4], [5, 6]]
    assert rows([0, 1, 3, 4], [7, 8, 9, 5]) == [[7, 7], [8, 9], [5, 5]]
    for offsets in ([0, 0, 0], [0, 2, 2], [0]):
        with pytest.raises(ValidationError, match="must hold a move"):
            rows(offsets, [1, 2][: offsets[-1]])


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


def test_the_state_cap_is_exact_and_needs_no_power():
    """V^N * N is compared with the cap exactly, V = 1 included, and a
    count past the cap is never computed: only V and N are named."""
    one = graph_from_edges(1, [])
    for g, n in ((one, 5), (builtin("path", 2), 3), (builtin("path", 3), 4)):
        count = g.vertex_count**n * n
        assert build_arena(g, n, max_states=count).n_states == count
        with pytest.raises(StateCountExceededError, match=rf"\({count} states\) exceeds "
                                                          rf"the cap of {count - 1} states$"):
            build_arena(g, n, max_states=count - 1)
    for g in (one, builtin("path", 3)):
        with pytest.raises(StateCountExceededError, match=rf"^arena on {g.vertex_count} "
                                                          r"vertices with N=10{20} exceeds"):
            build_arena(g, 10**20)


@pytest.mark.parametrize("text, fault", [("0,9;1;2", "has vertex 9 out of range 0..3"),
                                         ("0;1;2", "lists 1 cops; expected 2"),
                                         ("0,1;1;4", "has mover 4 out of range 1..3")])
def test_a_state_is_checked_by_one_rule_whether_parsed_or_indexed(text, fault):
    """A literal is refused by name; a State given to `index` by its own
    literal, with the same fault."""
    with pytest.raises(ValidationError, match=f"^state literal '{text}' {fault}$"):
        parse_state(text, 3, 4)
    cops, robber, mover = text.split(";")
    s = State(tuple(map(int, cops.split(","))), int(robber), int(mover))
    with pytest.raises(ValidationError, match=f"^state {text} {fault}$"):
        build_arena(builtin("path", 4), 3).index(s)


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


@pytest.mark.parametrize("g", [
    builtin("star", 5), builtin("path", 6), bridge(builtin("cycle", 4), 0, builtin("path", 3), 0),
    ASYMMETRIC,
], ids=["star5", "path6", "bridge", "asymmetric"])
@pytest.mark.parametrize("n", [3, 4])
def test_reachable_noncapture_equals_a_search_over_single_rows(g, n):
    """The flood over successor rows made per frontier reaches what a
    breadth-first search over `succ_indices` reaches, from every fifth
    noncapture start."""
    assert automorphisms(ASYMMETRIC).order == 1
    a = build_arena(g, n)
    for start in a.noncapture_indices()[::5][:6].tolist():
        seen, todo = {start}, [start]
        while todo:
            for j in a.succ_indices(todo.pop()).tolist():
                if j not in seen and not a.is_capture(j):
                    seen.add(j)
                    todo.append(j)
        assert reachable_noncapture(a, start).tolist() == sorted(seen)


def test_reachable_noncapture_on_the_dodecahedron_stays_small():
    """Four players on the dodecahedron: every one of the 548,720
    noncapture states is reached, and the flood holds no move table, only
    bool masks and one frontier's rows a column at a time (6.4 MB measured
    under tracemalloc, capture mask included, against 45 MB when the full
    successor table was built)."""
    a = build_arena(builtin("dodecahedron"), 4)
    tracemalloc.start()
    try:
        reach = reachable_noncapture(a, parse_state("0,1,2;3;1", 4, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reach) == 20 * 19**3 * 4
    assert peak < 20 * 2**20


def check_package_tables(g, n: int) -> None:
    """Every move table the package builds for (g, n) is as wide as the
    largest closed neighbourhood. The full arena's exact predecessor table
    fills each row past its in-degree with the row's own index and lists
    every state as often as its row is wide; the quotient's lists its
    moves (`check_listing_table`); cop m's restricted pair is the
    quotient's pair cut to the moves it keeps (`check_cut_tables`)."""
    a = build_arena(g, n)
    q, cr = a.quotient(), solve_capture_time(a)
    moves, preds = a.moves, a.predecessors()
    assert moves.width == q.moves.width == q.preds.width == widest(g)
    degree = np.bincount(moves.targets, minlength=len(preds.table))
    is_pad = np.arange(preds.width) >= degree[:, None]
    own = np.broadcast_to(np.arange(len(preds.table))[:, None], preds.table.shape)
    assert np.array_equal(preds.table[is_pad], own[is_pad])
    assert (preds.listed == moves.width).all()
    assert np.array_equal(preds.listed, Csr(preds.table).listed)  # set by reverse, or counted
    check_listing_table(a)
    for m in range(1, n):
        keep = np.repeat(~q.turns(m), q.moves.width) | cr.orbit_edge_opt()
        check_cut_tables(q.moves, keep, *_restricted_tables(a, cr, m))


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]))
def test_package_tables_are_padded_to_the_widest_row(g, n):
    check_package_tables(g, n)


@pytest.mark.parametrize("n", [3, 4])
def test_suite_tables_are_padded_to_the_widest_row(suite_graphs, n):
    for g in suite_graphs.values():
        check_package_tables(g, n)


@pytest.mark.parametrize("name, k, n", [
    ("path", 3, 3), ("cycle", 4, 3), ("star", 3, 3), ("complete", 3, 3), ("path", 2, 4),
])
def test_opt_indices_are_the_rows_optimal_edges(name, k, n):
    """One row's optimal moves, read from the row alone, lie in the orbits
    that `orbit_edge_opt` marks in the row of the state's orbit, as often
    as it marks them, for both solution types; for the capture-time game
    they are also the row's targets that `edge_opt` marks."""
    from scar import solve_capture_time, solve_game

    a = build_arena(builtin(name, k), n)
    q = a.quotient()
    cr = solve_capture_time(a)
    for sol in (cr, solve_game(a, 1, GameParams(n, Q(1, 2), Q(0)))):
        orbit_opt = sol.orbit_edge_opt()
        for i in a.noncapture_indices().tolist():
            got = sol.opt_indices(i)
            if sol is cr:  # a padded row repeats its last, largest target
                lo, hi = a.offsets[i], a.offsets[i + 1]
                assert np.array_equal(got, np.unique(a.targets[lo:hi][cr.edge_opt[lo:hi]]))
            o = q.orbit_of(i)
            lo = q.moves.offsets[o]
            hi = lo + len(a.succ_indices(int(q.reps[o])))  # the unpadded entries
            want = q.moves.targets[lo:hi][orbit_opt[lo:hi]]
            assert sorted(q.orbit_of(got).tolist()) == sorted(want.tolist())


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
