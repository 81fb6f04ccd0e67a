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

A start fails a test iff it reaches a failing state, so `positionality_table`
answers every start at once with one backward flood per test from the
failing states. `check_positionality` and `scan_region` keep a forward flood
from their one start instead: their witness lists name the failing states
that this start reaches. Both refuse a capture-state start before solving
anything.

The tests and the table's floods run on the arena's orbit quotient: every
optimal-move set is constant on orbits, and a state reaches a failing
orbit exactly when its own orbit does in the quotient. Only the table's
two arrays are lifted to states.

The tests read nothing of a game but its ranks. `solve_game` hands back
the same solution at the same (gamma, epsilon), and a solution re-used at
another gamma whose levels keep their order keeps its rank array, so along
a gamma grid the ranks are often the very objects of the previous point; the arena keeps the last
table with the rank arrays it came from, and returns it while they are
the same.

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


def _state_tests(
    arena: Arena, cr: CrSolution, games: dict[int, GameSolution]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-orbit outcomes of the two set tests, counted on the rows of the
    arena's quotient: meets[m][i] — cop m's optimal edge set at orbit i
    intersects the capture-time-optimal set; inside[i] — every cop's is
    contained in it. Capture rows are vacuously True. Start-independent."""
    q = arena.quotient()
    cr_keep = cr.orbit_edge_opt()
    meets: dict[int, np.ndarray] = {}
    inside = np.ones(len(q.reps), dtype=bool)
    for m, sol in games.items():
        keep = sol.orbit_edge_opt()
        met = q.moves.row_counts(keep & cr_keep)
        opt = q.moves.row_counts(keep)
        meets[m] = q.capture | (met > 0)
        inside &= q.capture | (met == opt)
    return meets, inside


def _no_profile(arena: Arena, params: GameParams, s0: State) -> ScarError:
    """A trigger profile always exists, so a start with neither kind is a
    solver fault."""
    return ScarError(
        f"positionality check at {s0.literal()} on {arena.graph.vertex_count} vertices, "
        f"N={params.n_players}, gamma={params.gamma}, epsilon={params.epsilon}: "
        "neither a positional nor a nonpositional trigger profile exists"
    )


def _verdict(
    arena: Arena, params: GameParams, s0: State, reachable: np.ndarray
) -> PositionalityVerdict:
    """The verdict at s0, whose reachable noncapture states are given: the
    games at `params` are solved and tested, and the failing pairs listed."""
    games = solve_all_games(arena, params)
    meets, inside = _state_tests(arena, solve_capture_time(arena), games)
    orbits = arena.quotient().orbit_of(reachable)
    fails = {m: reachable[~meets[m][orbits]] for m in sorted(meets)}
    states = np.concatenate(list(fails.values()))
    nonpositional = not inside[orbits].all()
    if states.size and not nonpositional:
        raise _no_profile(arena, params, s0)
    # reachable is ascending, so a stable sort by state keeps each state's m ascending
    order = np.argsort(states, kind="stable")
    cops = np.repeat(list(fails), [len(f) for f in fails.values()])[order]
    return PositionalityVerdict(params.n_players, params.gamma, params.epsilon, s0,
                                not states.size, nonpositional, arena.graph.vertex_count,
                                *_read_only((states[order], cops)))


def solve_all_games(arena: Arena, params: GameParams) -> dict[int, GameSolution]:
    """One discounted solve per cop, shared by every start-state query."""
    return {m: solve_game(arena, m, params) for m in range(1, arena.n_players)}


def _start(arena: Arena, s0: State | int) -> tuple[State, np.ndarray]:
    """A start state, which must not be a capture state, and the
    noncapture states it reaches."""
    idx = arena.index_of(s0)
    if arena.is_capture(idx):
        raise ValidationError(f"s0 {arena.state_of(idx).literal()} is a capture state")
    return arena.state_of(idx), reachable_noncapture(arena, idx)


def check_positionality(
    arena: Arena, s0: State | int, params: GameParams
) -> PositionalityVerdict:
    return _verdict(arena, params, *_start(arena, s0))


def positionality_table(arena: Arena, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """The verdict booleans at every start at once: (positional,
    nonpositional), two bool arrays indexed by state. The games are solved
    once and each array comes from one backward reachability sweep over
    the quotient's orbits, lifted to states: can the start reach a state
    failing the intersection / subset test? Capture rows hold True in both,
    as the set tests are vacuous there. The arrays are shared with later
    calls that find the same games' ranks: read only."""
    games = solve_all_games(arena, params)
    ranks = [sol.rank for sol in games.values()]
    kept = arena.memo("last_positionality_table", lambda: [None])
    if kept[0] is not None:
        kept_ranks, table = kept[0]
        if all(x is y for x, y in zip(kept_ranks, ranks)):
            return table
    meets, inside = _state_tests(arena, solve_capture_time(arena), games)
    q = arena.quotient()
    sees_fail = _flood(q.preds, ~np.logical_and.reduce(list(meets.values())), q.capture)
    sees_loose = _flood(q.preds, ~inside, q.capture)
    positional, nonpositional = ~sees_fail, sees_loose | q.capture
    neither = np.flatnonzero(~(positional | nonpositional))
    if neither.size:
        raise _no_profile(arena, params, arena.state_of(int(q.reps[neither[0]])))
    table = _read_only((q.lift(positional), q.lift(nonpositional)))
    kept[0] = (ranks, table)
    return table


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
    s0, reach = _start(arena, s0)
    return [_verdict(arena, params, s0, reach) for params in points]


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
