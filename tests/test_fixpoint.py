"""The retrograde engine against the Jacobi-round reference and the
brute-force oracles, plus its input checks and its exact fixpoint check."""

import tracemalloc
from collections import Counter
from functools import total_ordering

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scar import arena as arena_module, fixpoint
from scar import (
    ScarError,
    State,
    ValidationError,
    build_arena,
    builtin,
    classic_cop_win,
    coalition_winning_set,
    solve_capture_time,
)
from scar.arena import WIDE_FRONTIER, Csr
from scar.crsolver import capture_depths
from scar.fixpoint import INT_INF, check_fixpoint, retrograde, solve_layers

from oracles import (
    INF, capture_credit, capture_times, coalition_wins, filtered, jacobi_layers, listing,
)
from strategies import ASYMMETRIC_20, connected_graphs


def cr_inputs(name, k, n):
    a = build_arena(builtin(name, k) if k else builtin(name), n)
    minimizing = ~a.robber_mover_mask()
    frozen = a.capture_mask.copy()
    init = np.zeros(a.n_states, dtype=np.int64)
    return a, minimizing, frozen, init


@pytest.mark.parametrize("name, k, n", [("path", 4, 3), ("cycle", 5, 3), ("petersen", None, 3)])
def test_matches_jacobi_on_capture_time_instances(name, k, n):
    a, minimizing, frozen, init = cr_inputs(name, k, n)
    got = solve_layers(a.offsets, a.targets, minimizing, frozen, init)
    want = jacobi_layers(a.offsets, a.targets, minimizing, frozen, init, INT_INF)
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.sampled_from([3, 4]), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95), st.floats(0.0, 0.3))
def test_matches_jacobi_on_random_roles(g, n, seed, p_min, p_frozen):
    """Random minimizing/frozen roles and frozen values 0 or INT_INF on real
    successor tables; the predecessor table is passed in or built inside."""
    a = build_arena(g, n)
    rng = np.random.default_rng(seed)
    minimizing = rng.random(a.n_states) < p_min
    frozen = rng.random(a.n_states) < p_frozen
    init = np.where(rng.random(a.n_states) < 0.5, 0, INT_INF).astype(np.int64)
    want = jacobi_layers(a.offsets, a.targets, minimizing, frozen, init, INT_INF)
    got = solve_layers(a.offsets, a.targets, minimizing, frozen, init)
    assert np.array_equal(got, want)
    got = solve_layers(
        a.offsets, a.targets, minimizing, frozen, init, predecessors=a.predecessors()
    )
    assert np.array_equal(got, want)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.sampled_from([3, 4]))
def test_capture_times_and_credit_match_oracle(g, n):
    a = build_arena(g, n)
    sol = solve_capture_time(a)
    bits = a.quotient().lift(sol._orbit_bits())
    times = capture_times(g, n)
    credit = capture_credit(g, n, times)
    for s, t in times.items():
        i = a.index(State(*s))
        assert sol.capture_time(i) == (float("inf") if t == INF else t)
        assert {j + 1 for j in range(n - 1) if bits[i] >> j & 1} == credit[s]


@settings(max_examples=25, deadline=None)
@given(connected_graphs(), st.sampled_from([3, 4]), st.data())
def test_coalition_sets_match_oracle(g, n, data):
    coalition = data.draw(
        st.lists(st.integers(1, n - 1), min_size=1, max_size=n - 1, unique=True)
    )
    a = build_arena(g, n)
    won = coalition_winning_set(a, coalition)
    for s, w in coalition_wins(g, n, coalition).items():
        assert won[a.index(State(*s))] == w


def test_values_are_a_fixpoint_and_layered():
    a, minimizing, frozen, init = cr_inputs("path", 3, 3)
    vals = solve_layers(a.offsets, a.targets, minimizing, frozen, init)
    for i in range(a.n_states):
        succ = vals[a.succ_indices(i)]
        if frozen[i]:
            assert vals[i] == init[i]
            continue
        best = succ.min() if minimizing[i] else succ.max()
        want = INT_INF if best >= INT_INF else best + 1
        assert vals[i] == want


def test_frozen_sinks_can_hold_inf():
    """A frozen INT_INF state must act as a dead end, not a target."""
    a, minimizing, frozen, init = cr_inputs("path", 3, 3)
    frozen2 = frozen.copy()
    init2 = init.copy()
    # freeze one noncapture state at INF: nobody may pass through it for free
    i = int(np.nonzero(~a.capture_mask)[0][0])
    frozen2[i] = True
    init2[i] = INT_INF
    vals = solve_layers(a.offsets, a.targets, minimizing, frozen2, init2)
    assert vals[i] == INT_INF


def test_frozen_values_other_than_zero_or_inf_are_refused():
    a, minimizing, frozen, init = cr_inputs("path", 3, 3)
    init[np.flatnonzero(frozen)[0]] = 5
    with pytest.raises(ValidationError):
        solve_layers(a.offsets, a.targets, minimizing, frozen, init)


def layer_game(a, minimizing, frozen, init):
    """solve_layers' instantiation of the engine, as positional arguments."""
    seeds = [(0, np.flatnonzero(frozen & (init == 0)))]
    return (a.moves, minimizing, frozen, seeds,
            lambda k: min(k + 1, INT_INF), INT_INF)


def test_fixpoint_check_rejects_a_corrupted_table():
    a, minimizing, frozen, init = cr_inputs("petersen", None, 3)
    game = layer_game(a, minimizing, frozen, init)
    levels, rank, _ = retrograde(*game)
    check_fixpoint(*game, levels, rank)
    vals = np.array(levels)[rank]
    assert np.array_equal(vals, solve_layers(a.offsets, a.targets, minimizing, frozen, init))
    top = len(levels) - 1
    finite = np.flatnonzero(~frozen & (rank < top))
    escape = np.flatnonzero(~frozen & (rank == top))
    assert finite.size and escape.size and levels[top] == INT_INF
    for i, wrong in ((finite[-1], rank[finite[-1]] + 1), (finite[0], top),
                     (escape[0], top - 1), (np.flatnonzero(frozen)[0], 1)):
        bad = rank.copy()
        bad[i] = wrong
        with pytest.raises(ScarError, match="its equation gives"):
            check_fixpoint(*game, levels, bad)
    with pytest.raises(ScarError, match="outside the"):
        check_fixpoint(*game, levels, np.where(rank == top, top + 1, rank))
    with pytest.raises(ScarError, match="not strictly ascending"):
        check_fixpoint(*game, [levels[1], levels[0], *levels[2:]], rank)
    # state 1 moves to the target 0 only; a table missing depth 1 is refused
    tiny = (Csr.measured(np.array([0, 1, 2]), np.array([0, 0])), np.array([True, True]),
            np.array([True, False]), [(0, np.array([0]))], game[4], INT_INF)
    check_fixpoint(*tiny, [0, 1], np.array([0, 1]))
    with pytest.raises(ScarError, match="its equation gives a key outside the levels"):
        check_fixpoint(*tiny, [0], np.array([0, 0]))


@total_ordering
class Unhashable:
    """An ordered key that refuses to be hashed."""

    def __init__(self, k):
        self.k = k

    def __eq__(self, other):
        return self.k == other.k

    def __lt__(self, other):
        return self.k < other.k

    def __hash__(self):
        raise AssertionError("the check hashed a key")


def test_fixpoint_check_compares_keys_without_hashing():
    """State 2 moves to 1, 1 to 0, and 0 is seeded: depths 0, 1, 2."""
    key = [Unhashable(k) for k in range(4)]
    never = Unhashable(INT_INF)
    chain = (Csr.measured(np.array([0, 1, 2, 3]), np.array([0, 0, 1])), np.ones(3, dtype=bool),
             np.array([True, False, False]), [(key[0], np.array([0]))],
             lambda k: Unhashable(min(k.k + 1, INT_INF)), never)
    check_fixpoint(*chain, key[:3], np.array([0, 1, 2]))
    check_fixpoint(*chain, [*key[:3], never], np.array([0, 1, 2]))
    with pytest.raises(ScarError, match="state 2 holds .* a key outside the levels"):
        check_fixpoint(*chain, key[:2], np.array([0, 1, 1]))
    with pytest.raises(ScarError, match="state 0 holds"):
        check_fixpoint(*chain, key[:3], np.array([1, 1, 2]))
    with pytest.raises(ScarError, match="state 0 holds .* a key outside the levels"):
        check_fixpoint(*chain, key[1:4], np.array([0, 1, 2]))


def test_every_level_reports_where_its_key_came_from():
    """A chain 2 -> 1 -> 0 from seed state 0 and a self-loop 3 that never
    settles; a second seed at key 1 meets the step from key 0 in a tie."""
    step = lambda k: min(k + 1, INT_INF)
    moves = Csr.measured(np.array([0, 1, 2, 3, 4, 5]), np.array([0, 0, 1, 3, 4]))
    eager = np.ones(5, dtype=bool)
    frozen = np.array([True, False, False, False, True])
    chain = [(0, np.array([0])), (INT_INF, np.array([4]))]
    levels, rank, origins = retrograde(moves, eager, frozen, chain, step, INT_INF)
    assert levels == [0, 1, 2, INT_INF] and rank.tolist() == [0, 1, 2, 3, 3]
    assert origins == [("seed", 0), ("step", 0), ("step", 1), ("never", None)]
    tied = [(0, np.array([0])), (1, np.array([4]))]
    levels, rank, origins = retrograde(moves, eager, frozen, tied, step, INT_INF)
    assert levels == [0, 1, 2, INT_INF] and rank.tolist() == [0, 1, 2, 3, 1]
    assert origins == [("seed", 0), ("tied", None), ("step", 1), ("never", None)]


def test_fixpoint_check_rejects_a_frozen_row_off_its_seed():
    """A frozen row must hold its own seed's rank, never's when unseeded,
    even where that rank would satisfy the row's move equation."""
    a, minimizing, frozen, init = cr_inputs("path", 3, 3)
    sink = int(np.flatnonzero(~frozen)[0])
    frozen[sink], init[sink] = True, INT_INF
    game = layer_game(a, minimizing, frozen, init)
    levels, rank, _ = retrograde(*game)
    check_fixpoint(*game, levels, rank)
    target = int(np.flatnonzero(frozen & (init == 0))[0])
    best = [int(rank[a.succ_indices(i)].min()) for i in (target, sink)]
    for i, wrong in ((target, 1), (target, best[0] + 1), (sink, 0), (sink, best[1] + 1)):
        if wrong == rank[i]:
            continue
        bad = rank.copy()
        bad[i] = wrong
        with pytest.raises(ScarError, match=f"state {i} holds"):
            check_fixpoint(*game, levels, bad)


@pytest.mark.parametrize("name, k", [("petersen", None), ("path", 5)])
def test_bare_arrays_still_serve_the_engine(name, k):
    """Arrays made outside the package stand for the tables: the
    predecessor table unpacks as (offsets, targets), and `solve_layers`
    on the arena's bare arrays, padded or not, answers the capture-time
    game."""
    a = build_arena(builtin(name, k) if k else builtin(name), 3)
    pred_offsets, pred_targets = a.predecessors()
    assert pred_offsets[-1] == len(pred_targets) == a.n_states * a.predecessors().width
    assert a.offsets[-1] == len(a.targets) == a.n_states * a.width
    init = np.where(a.capture_mask, 0, INT_INF).astype(np.int64)
    want = a.quotient().lift(capture_depths(a))
    rows = [a.succ_indices(i) for i in range(a.n_states)]
    unpadded = np.cumsum([0] + [len(r) for r in rows]), np.concatenate(rows)
    for offsets, targets in ((a.offsets, a.targets), unpadded):
        got = solve_layers(offsets, targets, ~a.robber_mover_mask(), a.capture_mask, init)
        assert np.array_equal(got, want)


def test_reverse_csr_lists_every_edge_once_by_target():
    """Every entry of the padded table, duplicates included, is listed once
    in its target's row, ascending by source; the rest of each row names
    the row itself. Petersen's rows need no padding, a star's do."""
    for g in (builtin("petersen"), builtin("star", 3)):
        a = build_arena(g, 3)
        preds = a.moves.reverse()
        assert preds.targets.dtype == np.int32
        real = (np.arange(preds.width) < np.bincount(a.targets)[:, None]).ravel()
        rows = np.repeat(np.arange(a.n_states), a.width)
        want = sorted(zip(a.targets.tolist(), rows.tolist()))
        targets = np.repeat(np.arange(a.n_states), preds.width)[real]
        assert list(zip(targets.tolist(), preds.targets[real].tolist())) == want
        own = np.repeat(np.arange(a.n_states), preds.width)
        assert np.array_equal(preds.targets[~real], own[~real])


class CountingNumpy:
    """numpy as a module sees it, except that calls of `np.bincount` and
    `np.unique` are counted."""

    def __init__(self, calls: Counter):
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("bincount", "unique"):
            return attr

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return attr(*args, **kwargs)

        return counted


@pytest.fixture
def frontier_spy(monkeypatch):
    """watch(module) counts the module's `np.bincount`, `np.unique` and
    `distinct` calls and records the length of every row list that
    `Csr.row_reader` readers return, one per level, and of every frontier's
    successor rows that `Arena.columns` makes; returns (calls, lengths)."""

    def watch(module) -> tuple[Counter, list[int]]:
        calls: Counter = Counter()
        lengths: list[int] = []
        make_reader, make_columns = Csr.row_reader, arena_module.Arena.columns
        distinct = arena_module.distinct

        def recording_columns(arena, rows):
            lengths.append(rows.size * arena.width)
            return make_columns(arena, rows)

        def recording_reader(table):
            read = make_reader(table)

            def recorded(rows):
                out = read(rows)
                lengths.append(out.size)
                return out

            return recorded

        def counted_distinct(values, slot):
            calls["distinct"] += 1
            return distinct(values, slot)

        monkeypatch.setattr(module, "np", CountingNumpy(calls))
        monkeypatch.setattr(module, "distinct", counted_distinct)
        monkeypatch.setattr(Csr, "row_reader", recording_reader)
        monkeypatch.setattr(arena_module.Arena, "columns", recording_columns)
        return calls, lengths

    return watch


@pytest.mark.parametrize("name, k, n", [("petersen", None, 4), ("path", 12, 3)])
def test_wide_and_narrow_frontiers_both_run(frontier_spy, name, k, n):
    """A level or flood frontier whose row list has at least
    n / WIDE_FRONTIER entries is counted over every state, a narrower one
    is counted entry by entry and freed of repeats by `distinct`, with no
    sort; on these arenas both rules run, and the answers equal the
    references."""
    a, every_cop, frozen, init = cr_inputs(name, k, n)
    preds = a.predecessors()
    calls, lengths = frontier_spy(fixpoint)
    # the capture-time game, and cop 1 chasing alone
    for minimizing in (every_cop, np.arange(a.n_states) % n == 0):  # cop 1 moves
        got = solve_layers(a.offsets, a.targets, minimizing, frozen, init, predecessors=preds)
        want = jacobi_layers(a.offsets, a.targets, minimizing, frozen, init, INT_INF)
        assert np.array_equal(got, want)
    wide = sum(WIDE_FRONTIER * p >= a.n_states for p in lengths)
    assert calls["bincount"] == wide > 0
    assert calls["distinct"] == len(lengths) - wide > 0
    assert calls["unique"] == 0

    calls, lengths = frontier_spy(arena_module)
    start = int(np.flatnonzero(~a.capture_mask)[0])
    reach = arena_module.reachable_noncapture(a, start)
    wide = sum(WIDE_FRONTIER * p >= a.n_states for p in lengths)
    assert calls["bincount"] == 0 and 0 < wide < len(lengths)
    assert calls["distinct"] == len(lengths) - wide
    assert calls["unique"] == 0
    # the reference: synchronous rounds from the start over all moves at once
    seen = np.zeros(a.n_states, dtype=bool)
    seen[start] = True
    while True:
        hit = np.zeros(a.n_states, dtype=bool)
        hit[a.targets[np.repeat(seen, np.diff(a.offsets))]] = True
        grown = seen | (hit & ~a.capture_mask)
        if np.array_equal(grown, seen):
            break
        seen = grown
    assert np.array_equal(reach, np.flatnonzero(seen))


def test_equal_keys_merge_by_comparison_alone():
    """The pending batches are matched by comparing keys, never hashing
    them: two seeds with equal keys settle as one level (of mixed origin),
    and a seed that meets a step is tied."""
    key = [Unhashable(k) for k in range(3)]
    never = Unhashable(INT_INF)
    step = lambda k: Unhashable(min(k.k + 1, INT_INF))
    # 2 -> 1 -> 0 and 3 -> 3; states 0 and 4 are frozen, 3 never settles
    moves = Csr.measured(np.array([0, 1, 2, 3, 4, 5]), np.array([0, 0, 1, 3, 4]))
    eager = np.ones(5, dtype=bool)
    frozen = np.array([True, False, False, False, True])
    merged = [(key[0], np.array([0])), (Unhashable(0), np.array([4]))]
    levels, rank, origins = retrograde(moves, eager, frozen, merged, step, never)
    assert [k.k for k in levels] == [0, 1, 2, INT_INF] and rank.tolist() == [0, 1, 2, 3, 0]
    assert origins == [("tied", None), ("step", 0), ("step", 1), ("never", None)]
    meets = [(key[0], np.array([0])), (key[2], np.array([4]))]
    levels, rank, origins = retrograde(moves, eager, frozen, meets, step, never)
    assert [k.k for k in levels] == [0, 1, 2, INT_INF] and rank.tolist() == [0, 1, 2, 3, 2]
    assert origins == [("seed", 0), ("step", 0), ("tied", None), ("never", None)]


def cut_reverse(rows, keep):
    """The reverse of a table given as its rows, pair by pair, with the
    listing of each entry that `keep` leaves unmarked turned into a pad:
    row t lists s once per kept entry of row s naming t, and t itself in
    place of each cut one, then up to the longest row."""
    back = [[] for _ in rows]
    for s, (row, marks) in enumerate(zip(rows, keep)):
        for t, kept in zip(row, marks):
            back[t].append(s if kept else t)
    width = max(map(len, back))
    return [r + [t] * (width - len(r)) for t, r in enumerate(back)]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.sampled_from([3, 4]), st.integers(0, 2**32 - 1),
       st.floats(0.1, 0.9), st.floats(0.05, 0.95))
def test_a_cut_table_with_padded_predecessors_solves_as_the_filtered_table(
        g, n, seed, p_keep, p_min):
    """Random keep masks with at least one kept entry per row, on eager and
    max rows alike: the table with each cut entry replaced by a kept one
    of its row, and its reverse with each cut listing made a pad, solves
    the game of the filtered table and its exact reverse; the engine pays
    each row its kept entries."""
    a = build_arena(g, n)
    rng = np.random.default_rng(seed)
    table = a.moves.table
    keep = rng.random(table.shape) < p_keep
    keep[np.arange(len(table)), rng.integers(0, a.width, len(table))] = True
    fill = table[np.arange(len(table)), keep.argmax(axis=1)]
    moves = Csr(np.where(keep, table, fill[:, None]))
    preds = listing(cut_reverse(table.tolist(), keep.tolist()))
    assert np.array_equal(preds.listed, keep.sum(axis=1))
    minimizing = rng.random(a.n_states) < p_min
    frozen = rng.random(a.n_states) < 0.2
    init = np.where(rng.random(a.n_states) < 0.5, 0, INT_INF).astype(np.int64)
    want = solve_layers(filtered(a.moves, keep), minimizing, frozen, init)
    assert np.array_equal(solve_layers(moves, minimizing, frozen, init, predecessors=preds), want)
    offsets, targets = filtered(a.moves, keep)
    assert np.array_equal(want, jacobi_layers(offsets, targets, minimizing, frozen, init, INT_INF))


def test_a_predecessor_table_without_its_counts_is_refused():
    """Only a table's maker knows its listings: a predecessor table made
    without `listed` is refused, not recounted."""
    a = build_arena(builtin("path", 2), 3)
    game = (a.moves, ~a.robber_mover_mask(), a.capture_mask,
            [(0, np.flatnonzero(a.capture_mask))], lambda k: k + 1, INT_INF)
    levels = retrograde(*game, a.predecessors())[0]
    assert retrograde(*game, listing(a.predecessors().table))[0] == levels
    with pytest.raises(ValidationError, match="needs its listed counts"):
        retrograde(*game, Csr(a.predecessors().table))


def random_listing(rows, rng) -> list[list[int]]:
    """A predecessor table of a table given as its rows, with no row
    naming itself: row t lists each s whose row names t one to three
    times, whatever the number of entries naming it, in a random order
    with up to two pads (t itself) mixed in, then filled with t up to the
    longest row."""
    back = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t in set(row):
            back[t] += [s] * int(rng.integers(1, 4))
    for t, listed in enumerate(back):
        listed += [t] * int(rng.integers(0, 3))
        rng.shuffle(listed)
    width = max(map(len, back))
    return [r + [t] * (width - len(r)) for t, r in enumerate(back)]


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.sampled_from([3, 4]), st.integers(0, 2**32 - 1),
       st.floats(0.05, 0.95), st.floats(0.0, 0.3))
def test_any_listing_table_solves_as_the_exact_reverse(g, n, seed, p_min, p_frozen):
    """A predecessor table need only list each move at least once, with
    `listed` counted from it: the engine then gives the levels, ranks and
    origins it gives on the exact reverse, for random roles and seed
    batches at several keys, never's included."""
    a = build_arena(g, n)
    rng = np.random.default_rng(seed)
    eager = rng.random(a.n_states) < p_min
    frozen = rng.random(a.n_states) < p_frozen
    batch = rng.integers(0, 4, a.n_states)
    seeds = [(key, np.flatnonzero(frozen & (batch == b)))
             for b, key in enumerate((0, 1, 3, INT_INF))]
    game = (a.moves, eager, frozen, seeds, lambda k: min(k + 1, INT_INF), INT_INF)
    levels, rank, origins = retrograde(*game, a.moves.reverse())
    got = retrograde(*game, listing(random_listing(a.moves.table.tolist(), rng)))
    assert got[0] == levels and np.array_equal(got[1], rank) and got[2] == origins


def test_a_max_row_naming_itself_never_settles():
    """A pad names its own row, so a row's entry naming itself is not in
    the count: state 1 (max) moves to 0 or stays and never settles,
    state 2 (min) does the same and settles at once."""
    offsets, targets = np.array([0, 1, 3, 5]), np.array([0, 0, 1, 2, 0])
    minimizing, frozen = np.array([True, False, True]), np.array([True, False, False])
    init = np.array([0, INT_INF, INT_INF])
    got = solve_layers(offsets, targets, minimizing, frozen, init)
    assert got.tolist() == [0, INT_INF, 1]
    assert np.array_equal(got, jacobi_layers(offsets, targets, minimizing, frozen, init, INT_INF))


def test_the_check_peaks_no_higher_than_the_engine_loop(monkeypatch):
    """`retrograde` drops its per-state counts and scratch before it calls
    `check_fixpoint`, and the check builds its wanted ranks in the array
    `arena.row_best` returns, so on the capture solve inside
    classic_cop_win(ASYMMETRIC_20, 3), 640,000 orbits, the check's
    tracemalloc peak is no higher than the engine loop's (it read 75.9
    MiB against 68.7 MiB when it held them all)."""
    engine, check = fixpoint.retrograde, fixpoint.check_fixpoint
    peaks = []

    def traced_engine(*args):
        tracemalloc.reset_peak()
        return engine(*args)

    def traced_check(*args):
        loop = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        check(*args)
        peaks.append((loop, tracemalloc.get_traced_memory()[1]))

    monkeypatch.setattr(fixpoint, "retrograde", traced_engine)
    monkeypatch.setattr(fixpoint, "check_fixpoint", traced_check)
    tracemalloc.start()
    try:
        classic_cop_win(ASYMMETRIC_20, 3)
    finally:
        tracemalloc.stop()
    assert peaks and all(check <= loop for loop, check in peaks), peaks
