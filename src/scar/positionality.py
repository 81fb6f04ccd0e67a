"""Do positional trigger profiles exist? Decided by per-state set tests
on an arena (G, N) that the caller builds.

A trigger profile plays "everyone follows their own favourite plan" until
someone deviates, then switches every token to the deviant's punishment
plan. The profile can be realized positionally iff, at every reachable
noncapture state, each cop's own-game optimal move set meets the robber's
capture-time-optimal set:

    positional_exists  <=>  for all m in {1..N-1} and reachable noncapture s:
                            opt_game_m(s) intersects opt_capture_time(s)
    nonpositional_exists <=> some such opt_game_m(s) is not a subset of
                            opt_capture_time(s)

(The robber's own game m = N is skipped: it *is* the capture-time game, so
its condition holds identically — the test suite re-derives this instead of
assuming it.) Both existence questions reduce to these per-state set tests
because the optimal strategy sets of all games involved are exactly the
products of their per-state arg-opt sets. At least one of the two booleans
is always true.

The set tests are start-independent. Each (gamma, epsilon) point has one
record of them on the arena, `_SetTests`, per orbit of its quotient (every
optimal-move set is constant on orbits): `fails`, which cops' optimal sets
miss the capture-time-optimal set, and `loose`, whether some cop's is not
inside it. A cop's optimal set is never empty, so every failing orbit is
loose; this is checked once per record, and a violation is a solver fault.
The arena keeps the last record with the games' rank arrays, the only part
of a game the tests read, and returns it while `solve_game` hands back the
very same arrays, as it does along a gamma grid while levels keep their order.

A start fails a test iff it reaches a failing orbit. `positionality_table`
answers every start with one backward flood per test, lifted to states and
kept in the record; `check_positionality` and `scan_region` flood forward
once from their start, name the failing states it reaches as witnesses, and
refuse a capture-state start before solving anything.

Verdicts only ever use full arg-opt sets. A concrete profile's tables (for
simulation) are int arrays over the states, each plan's canonical move, to
the lowest target vertex, read one mover token's rows at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arena import (
    Arena,
    GameParams,
    Play,
    State,
    _flood,
    _index_dtype,
    _read_only,
    checked_move,
    reachable_noncapture,
    walk,
)
from .crsolver import CrSolution, solve_capture_time
from .errors import ScarError, ValidationError
from .scarsolver import GameSolution, solve_game


@dataclass(frozen=True)
class PositionalityVerdict:
    """The two existence booleans at s0 and the failing pairs: every
    reachable state where cop m's optimal set misses the capture-time-optimal
    set entirely, as the read-only arrays `fail_states` (its index in an
    arena on `vertex_count` vertices) and `fail_cops` (m), sorted by state,
    then m. Equality does not compare the arrays. `witnesses` lists them as
    (mover n, game m, state), made on first read."""

    n_players: int
    gamma: Fraction
    epsilon: Fraction
    s0: State
    positional_exists: bool
    nonpositional_exists: bool
    vertex_count: int = field(repr=False)
    fail_states: np.ndarray = field(repr=False, compare=False)
    fail_cops: np.ndarray = field(repr=False, compare=False)

    witness_count = property(lambda self: len(self.fail_states))

    @functools.cached_property
    def witnesses(self) -> tuple[tuple[int, int, State], ...]:
        return self.first_witnesses(self.witness_count)

    def first_witnesses(self, k: int) -> tuple[tuple[int, int, State], ...]:
        """The first k of `witnesses`, made without the rest."""
        n, v = self.n_players, self.vertex_count
        idx = self.fail_states[:k]
        digits = idx[:, None] // n // v ** np.arange(n - 1, -1, -1) % v
        return tuple((mover, m, State(tuple(d[:-1]), d[-1], mover)) for mover, m, d in zip(
            (idx % n + 1).tolist(), self.fail_cops[:k].tolist(), digits.tolist()))


@dataclass(eq=False)
class _SetTests:
    """One point's set tests per quotient orbit (see above), the games'
    `ranks` they came from, and `positionality_table`'s answer once made."""

    ranks: list[np.ndarray]
    fails: np.ndarray  # (N-1, orbits): row m-1 for cop m
    failing: np.ndarray  # per orbit: does some cop fail?
    loose: np.ndarray
    table: tuple[np.ndarray, np.ndarray] | None = None


def _orbit_tests(arena: Arena, games: dict[int, GameSolution]) -> tuple[np.ndarray, np.ndarray]:
    """`fails` and `loose` of the solved games, counted on the quotient's rows."""
    q = arena.quotient()
    cr_keep = solve_capture_time(arena).orbit_edge_opt()
    fails = np.empty((len(games), len(q.reps)), dtype=bool)
    loose = np.zeros(len(q.reps), dtype=bool)
    for row, sol in zip(fails, games.values()):
        keep = sol.orbit_edge_opt()
        met = q.moves.row_counts(keep & cr_keep)
        np.equal(met, 0, out=row)
        loose |= met != q.moves.row_counts(keep)
    return fails & ~q.capture, loose & ~q.capture


def _set_tests(arena: Arena, params: GameParams) -> _SetTests:
    """The record at params: its games solved, and its tests made and
    checked unless the kept record has the same rank arrays."""
    games = solve_all_games(arena, params)
    ranks = [sol.rank for sol in games.values()]
    slot = arena.memo("set_tests", lambda: [None])
    if slot[0] is not None and all(x is y for x, y in zip(slot[0].ranks, ranks)):
        return slot[0]
    fails, loose = _orbit_tests(arena, games)
    failing = fails.any(axis=0)
    _read_only((fails, failing, loose))
    neither = np.flatnonzero(failing & ~loose)
    if neither.size:
        rep = arena.state_of(int(arena.quotient().reps[neither[0]]))
        raise ScarError(
            f"positionality check at {rep.literal()} on {arena.graph.vertex_count} vertices, "
            f"N={params.n_players}, gamma={params.gamma}, epsilon={params.epsilon}: "
            "neither a positional nor a nonpositional trigger profile exists")
    slot[0] = _SetTests(ranks, fails, failing, loose)
    return slot[0]


def solve_all_games(arena: Arena, params: GameParams) -> dict[int, GameSolution]:
    """One discounted solve per cop, shared by every start-state query."""
    return {m: solve_game(arena, m, params) for m in range(1, arena.n_players)}


def _verdicts(
    arena: Arena, s0: State | int, points: list[GameParams]
) -> list[PositionalityVerdict]:
    """The verdict at s0 at each point, from one flood of the noncapture
    states s0 reaches; the failing pairs are listed by state, then cop, the
    cops read only at the reached states whose orbit fails."""
    idx = arena.index_of(s0)
    if arena.is_capture(idx):
        raise ValidationError(f"s0 {arena.state_of(idx).literal()} is a capture state")
    s0, reach = arena.state_of(idx), reachable_noncapture(arena, idx)
    orbits = arena.quotient().orbit_of(reach)
    out = []
    for params in points:
        tests = _set_tests(arena, params)
        failed = np.flatnonzero(tests.failing[orbits])
        at, cops = np.nonzero(tests.fails[:, orbits[failed]].T)
        out.append(PositionalityVerdict(
            params.n_players, params.gamma, params.epsilon, s0, not failed.size,
            bool(tests.loose[orbits].any()), arena.graph.vertex_count,
            *_read_only((reach[failed[at]], cops + 1))))
    return out


def check_positionality(
    arena: Arena, s0: State | int, params: GameParams
) -> PositionalityVerdict:
    return _verdicts(arena, s0, [params])[0]


def positionality_table(arena: Arena, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """The verdict booleans at every start at once: (positional,
    nonpositional), two bool arrays indexed by state. Each comes from one
    backward reachability sweep over the quotient's orbits, lifted to
    states: can the start reach a state failing the intersection / subset
    test? Capture rows hold True in both, as the set tests are vacuous
    there. The arrays are kept in the point's record and shared with later
    calls: read only."""
    tests = _set_tests(arena, params)
    if tests.table is None:
        q = arena.quotient()
        positional = ~_flood(q.preds, tests.failing, q.capture)
        nonpositional = _flood(q.preds, tests.loose, q.capture) | q.capture
        tests.table = _read_only((q.lift(positional), q.lift(nonpositional)))
    return tests.table


def scan_region(
    arena: Arena,
    s0: State | int,
    gamma_grid: list[Fraction],
    epsilon_grid: list[Fraction],
    allow_wide_epsilon: bool = False,
) -> list[PositionalityVerdict]:
    """One verdict per (epsilon, gamma) grid point, epsilon outermost, with
    the capture-time solution and the reachable set shared. Every point is
    checked before anything is flooded or solved."""
    points = [GameParams(arena.n_players, gamma, eps, allow_wide_epsilon)
              for eps in epsilon_grid for gamma in gamma_grid]
    return _verdicts(arena, s0, points)


# ---------------------------------------------------------------------------
# concrete trigger profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TriggerProfile:
    """Canonical move tables: read-only int arrays of successor indices,
    indexed by state, -1 at capture states. Row m-1 of `punishment`
    (N, states) is the plan everyone switches to once player m deviates:
    cop m's own game, and the capture-time game for the robber (m = N).
    `cooperative` is each mover's own plan, punishment[mover-1, s]."""

    cooperative: np.ndarray
    punishment: np.ndarray


def build_trigger_profile(cr: CrSolution, games: dict[int, GameSolution]) -> TriggerProfile:
    """The profile's tables, one mover token at a time, its rows and their
    orbits read once: at each noncapture state where the token moves, each
    plan's canonical move, its row's first optimal column (lowest target)."""
    arena = cr.arena
    n = arena.n_players
    if sorted(games) != list(range(1, n)):
        raise ValidationError(f"need one solved game per cop 1..{n - 1}")
    plans = [*(games[m] for m in range(1, n)), cr]
    punishment = np.full((n, arena.n_states), -1, dtype=_index_dtype(arena.n_states))
    noncapture = arena.noncapture_indices()
    for token in range(1, n + 1):
        rows = noncapture[token - 1::n]
        targets, orbits, at = arena.successor_rows(rows)
        for table, plan in zip(punishment, plans):
            table[rows] = targets[np.arange(len(rows)), plan.best(orbits, at).argmax(axis=1)]
    every = np.arange(arena.n_states)
    return TriggerProfile(*_read_only((punishment[every % n, every], punishment)))


@dataclass(frozen=True)
class TriggerRun:
    """A simulated trigger play. switch_time is the 1-based move number of
    the first deviation (None if the play never left cooperative mode);
    punished_player is the deviant it reacted to."""

    play: Play
    switch_time: int | None
    punished_player: int | None


def simulate_trigger(
    arena: Arena, profile: TriggerProfile, s0: State | int,
    deviant: tuple[int, object] | None = None, max_steps: int | None = None,
) -> TriggerRun:
    """Run the trigger controller from s0, optionally replacing one player's
    moves with an alternative table (anything indexed by state, such as an
    array or a dict). Everyone follows profile.cooperative until the
    deviant's chosen move first differs from it; from the next move on the
    others follow the deviant's row of profile.punishment. The deviant
    keeps playing its own table throughout."""
    dev_player, dev_table = deviant if deviant is not None else (None, None)
    if dev_player is not None and not 1 <= dev_player <= arena.n_players:
        raise ValidationError(f"deviant player {dev_player} out of range")
    switch: list[int] = []  # the first deviation's 1-based move number, once made

    def step(cur: int, t: int) -> tuple[int, bool]:
        nxt = int((profile.punishment[dev_player - 1] if switch else profile.cooperative)[cur])
        if arena.mover_of(cur) == dev_player:
            own = checked_move(arena, cur, int(dev_table[cur]))
            if not switch and own != nxt:
                switch.append(t)
            nxt = own
        return nxt, bool(switch)

    play = walk(arena, arena.index_of(s0), step,
                4 * arena.n_states if max_steps is None else max_steps)
    return TriggerRun(play, switch[0] if switch else None, dev_player if switch else None)
