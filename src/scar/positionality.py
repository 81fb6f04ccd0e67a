"""Do positional trigger profiles exist? Decided by per-state set tests.

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

The tests read nothing of a game but its optimal edges. `solve_game` hands
back the same solution at the same (gamma, epsilon), and a solution re-used
at another gamma keeps its optimal edges, so along a gamma grid the edge
arrays are often the very objects of the previous point; the arena keeps
the last table with the edge arrays it came from, and returns it while they
are the same.

Verdicts only ever use full arg-opt sets. Concrete tables (for simulation)
use the canonical tie-break: the move with the lowest target vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arena import (
    DEFAULT_MAX_STATES,
    Arena,
    GameParams,
    Play,
    State,
    _flood,
    build_arena,
    checked_move,
    finished_play,
    reachable_noncapture,
    row_counts,
)
from .crsolver import CrSolution, solve_capture_time
from .errors import ScarError, ValidationError
from .graphs import Graph
from .scarsolver import GameSolution, solve_game


@dataclass(frozen=True)
class PositionalityVerdict:
    n_players: int
    gamma: Fraction
    epsilon: Fraction
    s0: State
    positional_exists: bool
    nonpositional_exists: bool
    # (mover n, game m, state) for every reachable state where cop m's
    # optimal set misses the capture-time-optimal set entirely
    witnesses: tuple[tuple[int, int, State], ...]


def _state_tests(
    arena: Arena, cr: CrSolution, games: dict[int, GameSolution]
) -> tuple[dict[int, np.ndarray], np.ndarray]:
    """Per-state outcomes of the two set tests: meets[m][i] — cop m's
    optimal edge set at state i intersects the capture-time-optimal set;
    inside[i] — every cop's is contained in it. Capture rows are vacuously
    True. Start-independent."""
    cr_keep = cr.edge_opt
    nc = ~arena.capture_mask
    meets: dict[int, np.ndarray] = {}
    inside = np.ones(arena.n_states, dtype=bool)
    for m, sol in games.items():
        keep = sol.edge_opt
        met = row_counts(arena.offsets, keep & cr_keep)
        opt = row_counts(arena.offsets, keep)
        meets[m] = ~nc | (met > 0)
        inside &= ~nc | (met == opt)
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
    arena: Arena,
    tests: tuple[dict[int, np.ndarray], np.ndarray],
    params: GameParams,
    s0: State,
    reachable: np.ndarray,
) -> PositionalityVerdict:
    meets, inside = tests
    fail_pairs: list[tuple[int, int]] = []
    for m in sorted(meets):
        fail_pairs.extend((int(i), m) for i in reachable[~meets[m][reachable]])
    nonpositional = not inside[reachable].all()
    if fail_pairs and not nonpositional:
        raise _no_profile(arena, params, s0)
    fail_pairs.sort()
    witnesses = tuple(
        (arena.mover_of(i), m, arena.state_of(i)) for i, m in fail_pairs
    )
    return PositionalityVerdict(params.n_players, params.gamma, params.epsilon, s0,
                                not fail_pairs, nonpositional, witnesses)


def solve_all_games(arena: Arena, params: GameParams) -> dict[int, GameSolution]:
    """One discounted solve per cop, shared by every start-state query."""
    return {m: solve_game(arena, m, params) for m in range(1, arena.n_players)}


def _start(arena: Arena, s0: State | int) -> int:
    """The index of a start state, which must not be a capture state."""
    idx = arena.index_of(s0)
    if arena.capture_mask[idx]:
        raise ValidationError(f"s0 {arena.state_of(idx).literal()} is a capture state")
    return idx


def check_positionality(
    arena: Arena, s0: State | int, params: GameParams
) -> PositionalityVerdict:
    idx = _start(arena, s0)
    cr = solve_capture_time(arena)
    games = solve_all_games(arena, params)
    tests = _state_tests(arena, cr, games)
    return _verdict(arena, tests, params, arena.state_of(idx), reachable_noncapture(arena, idx))


def positionality_table(arena: Arena, params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """The verdict booleans at every start at once: (positional,
    nonpositional), two bool arrays indexed by state. The games are solved
    once and each array comes from one backward reachability sweep: can the
    start reach a state failing the intersection / subset test? Capture rows
    hold True in both, as the set tests are vacuous there. The arrays are
    shared with later calls that find the same optimal edges: read only."""
    games = solve_all_games(arena, params)
    edges = [sol.edge_opt for sol in games.values()]
    kept = arena.memo("last_positionality_table", lambda: [None])
    if kept[0] is not None:
        kept_edges, table = kept[0]
        if all(x is y for x, y in zip(kept_edges, edges)):
            return table
    meets, inside = _state_tests(arena, solve_capture_time(arena), games)
    pred_offsets, pred_targets = arena.predecessors()
    sees_fail = _flood(pred_offsets, pred_targets,
                       ~np.logical_and.reduce(list(meets.values())), arena.capture_mask)
    sees_loose = _flood(pred_offsets, pred_targets, ~inside, arena.capture_mask)
    positional, nonpositional = ~sees_fail, sees_loose | arena.capture_mask
    neither = np.flatnonzero(~(positional | nonpositional))
    if neither.size:
        raise _no_profile(arena, params, arena.state_of(int(neither[0])))
    positional.flags.writeable = nonpositional.flags.writeable = False
    kept[0] = (edges, (positional, nonpositional))
    return positional, nonpositional


def scan_region(
    g: Graph,
    n_players: int,
    s0: State | int,
    gamma_grid: list[Fraction],
    epsilon_grid: list[Fraction],
    allow_wide_epsilon: bool = False,
    max_states: int = DEFAULT_MAX_STATES,
) -> list[PositionalityVerdict]:
    """One verdict per (epsilon, gamma) grid point, epsilon outermost, with
    the arena, the capture-time solution and the reachable set shared."""
    arena = build_arena(g, n_players, max_states)
    idx = _start(arena, s0)
    s0 = arena.state_of(idx)
    cr = solve_capture_time(arena)
    reach = reachable_noncapture(arena, idx)
    out = []
    for eps in epsilon_grid:
        for gamma in gamma_grid:
            params = GameParams(n_players, gamma, eps, allow_wide_epsilon)
            games = solve_all_games(arena, params)
            tests = _state_tests(arena, cr, games)
            out.append(_verdict(arena, tests, params, s0, reach))
    return out


# ---------------------------------------------------------------------------
# concrete trigger profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerProfile:
    """Canonical move tables (state index -> successor index, noncapture
    states only). cooperative[s] is the mover's own-plan move; punishment[m]
    is the table everyone switches to once player m deviates (m = N for the
    robber, whose punishment plan is the capture-time game's)."""

    cooperative: dict[int, int]
    punishment: dict[int, dict[int, int]]


def build_trigger_profile(cr: CrSolution, games: dict[int, GameSolution]) -> TriggerProfile:
    arena = cr.arena
    n = arena.n_players
    if sorted(games) != list(range(1, n)):
        raise ValidationError(f"need one solved game per cop 1..{n - 1}")
    cooperative: dict[int, int] = {}
    punishment: dict[int, dict[int, int]] = {m: {} for m in range(1, n + 1)}
    for i in arena.noncapture_indices():
        i = int(i)
        mover = arena.mover_of(i)
        own = cr if mover == n else games[mover]
        cooperative[i] = int(own.opt_indices(i).min())
        for m in range(1, n):
            punishment[m][i] = int(games[m].opt_indices(i).min())
        punishment[n][i] = int(cr.opt_indices(i).min())
    return TriggerProfile(cooperative, punishment)


@dataclass(frozen=True)
class TriggerRun:
    """A simulated trigger play. switch_time is the 1-based move number of
    the first deviation (None if the play never left cooperative mode);
    punished_player is the deviant it reacted to."""

    play: Play
    switch_time: int | None
    punished_player: int | None


def simulate_trigger(
    arena: Arena,
    profile: TriggerProfile,
    s0: State | int,
    deviant: tuple[int, dict[int, int]] | None = None,
    max_steps: int | None = None,
) -> TriggerRun:
    """Run the trigger controller from s0, optionally replacing one player's
    moves with an alternative table. Everyone follows profile.cooperative
    until the deviant's chosen move first differs from it; from the next
    move on the others follow profile.punishment[deviant]. The deviant keeps
    playing its own table throughout."""
    idx = arena.index_of(s0)
    if max_steps is None:
        max_steps = 4 * arena.n_states
    dev_player, dev_table = deviant if deviant is not None else (None, None)
    if dev_player is not None and not 1 <= dev_player <= arena.n_players:
        raise ValidationError(f"deviant player {dev_player} out of range")

    trail = [idx]
    punishing = False
    switch_time: int | None = None
    visited = {(False, idx)}
    cycled = False
    while not arena.capture_mask[trail[-1]] and len(trail) <= max_steps:
        cur = trail[-1]
        mover = arena.mover_of(cur)
        if dev_player is not None and mover == dev_player:
            nxt = checked_move(arena, cur, int(dev_table[cur]))
            if not punishing and nxt != profile.cooperative[cur]:
                punishing = True
                switch_time = len(trail)  # this move's 1-based number
        elif punishing:
            nxt = profile.punishment[dev_player][cur]
        else:
            nxt = profile.cooperative[cur]
        trail.append(nxt)
        key = (punishing, nxt)
        if key in visited:
            cycled = True
            break
        visited.add(key)

    play = finished_play(arena, trail, cycled)
    return TriggerRun(play, switch_time, dev_player if switch_time is not None else None)
