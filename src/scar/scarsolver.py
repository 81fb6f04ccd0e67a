"""Per-player discounted payoff games, solved exactly over the rationals.

For each cop m there is a zero-sum-in-spirit game on the shared arena: token
m maximizes its own expected payoff, every other token (the remaining cops
and the robber) minimizes it. A play that reaches a capture state after t
token moves pays gamma^t times a terminal coefficient that depends on who
sits on the robber:

    every cop captures at once   -> 1/(N-1) each,
    m is one of K < N-1 captors  -> (1-eps)/K,
    m is not a captor            -> eps/(N-1-K),
    the robber is never caught   -> 0.

Every coefficient is >= 0 and 0 < gamma < 1, so each value is c * gamma^t for
a terminal class c and the game is a reachability game. It is solved by the
package's one retrograde engine, `fixpoint.retrograde`, on keys -value with
step gamma*k and never = 0: one seed batch per terminal class (captor count
K and whether m is a captor), cop m eager. Levels settle in decreasing order
of value, as Dijkstra's algorithm settles distances; states never settled
are worth 0, and values that are exactly equal share one level. No float
enters.

A solution stores the ascending tuple of values `levels` and one int rank
per state. Every solve ends with the engine's exact check of every Bellman
equation; the fixpoint is unique for gamma < 1, so passing it proves the
answer.

The engine also reports where each level came from, so every level is a
symbol c * gamma^t: a terminal coefficient c reached t moves from capture,
or 0 for the states never settled. `solve_game` keeps the last solution of
each cop's game on the arena with its symbols. Asked again at the same
(gamma, epsilon), it returns that solution. At a new gamma with the same
epsilon, it re-evaluates the symbols from the top value down and stops at
the first pair that is not strictly descending. If none is, the run at the
new gamma would settle the same levels in the same order, so the old ranks,
rounds and optimal moves stand with the new values, and the same exact
check proves them. A level where a seed met a step (an exact tie, such as
gamma = 1/(2-2*eps) on a path) has no single symbol, and the next gamma is
solved afresh.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arena import Arena, GameParams, OptimalMoves, State
from .errors import ValidationError
from .fixpoint import check_fixpoint, retrograde

Q0 = Fraction(0)


def terminal_payoff(s: State, m: int, params: GameParams) -> Fraction:
    """Terminal coefficient for cop m at capture state s (before discounting)."""
    n = params.n_players
    if len(s.cops) != n - 1:
        raise ValidationError(f"state has {len(s.cops)} cops; expected {n - 1}")
    if not 1 <= m <= n - 1:
        raise ValidationError(f"payoffs are defined for cops 1..{n - 1}, got {m}")
    captors = sum(1 for c in s.cops if c == s.robber)
    if captors == 0:
        raise ValidationError(f"{s.literal()} is not a capture state")
    if captors == n - 1:
        return Fraction(1, n - 1)
    if s.cops[m - 1] == s.robber:
        return (1 - params.epsilon) / captors
    return params.epsilon / (n - 1 - captors)


class GameSolution(OptimalMoves):
    """Exact value table for one player's discounted game on an arena: the
    ascending distinct values `levels` and each state's `rank` into them."""

    def __init__(
        self,
        arena: Arena,
        levels: tuple[Fraction, ...],
        rank: np.ndarray,
        rounds: int,
        max_mask: np.ndarray,
    ):
        self.arena = arena
        self.levels = levels
        self.rank = rank
        rank.flags.writeable = False
        self.rounds = rounds  # settled levels
        self._max_mask = max_mask
        self._edge_opt: np.ndarray | None = None

    def value(self, s: State | int) -> Fraction:
        return self.levels[self.rank[self.arena.index_of(s)]]

    @property
    def edge_opt(self) -> np.ndarray:
        """Boolean per CSR edge: does the move attain the mover's optimum
        under the roles this game was solved with? False on capture rows. Read-only."""
        if self._edge_opt is None:
            moves = self.arena.moves
            eo = moves.best_edges(self.rank, self._max_mask)
            eo &= ~moves.per_edge(self.arena.capture_mask)
            eo.flags.writeable = False
            self._edge_opt = eo
        return self._edge_opt

    def _row_keys(self, idx: int, row: np.ndarray) -> tuple[np.ndarray, bool]:
        return self.rank[row], self._max_mask[idx]

    def _with_levels(self, levels: tuple[Fraction, ...]) -> GameSolution:
        """The same ranks, rounds and optimal moves under other level values."""
        moved = copy.copy(self)
        moved.levels = levels
        return moved


@dataclass(frozen=True)
class _Solved:
    """The last solve of one cop's game on an arena, with the seed batches
    it was solved from. `symbols` holds one (c, t) per level, value
    c * gamma^t, aligned with `solution.levels`; None when a level was
    tied."""

    gamma: Fraction
    epsilon: Fraction
    seeds: list[tuple[Fraction, np.ndarray]]
    solution: GameSolution
    symbols: tuple[tuple[Fraction, int], ...] | None


def _engine_game(arena: Arena, gamma: Fraction, max_mask: np.ndarray, seeds: list) -> tuple:
    """The engine's arguments for a discounted game from the capture states'
    seed batches `(coefficient, states)`: keys -value, step gamma*k, never 0."""
    return (
        arena.moves,
        max_mask,
        arena.capture_mask,
        [(-c, states) for c, states in seeds],
        lambda key: gamma * key,
        Q0,
    )


def _discounted(
    arena: Arena, gamma: Fraction, max_mask: np.ndarray, seeds: list
) -> tuple[GameSolution, tuple[tuple[Fraction, int], ...] | None]:
    """Run the engine and rank the values in ascending order; returns the
    solution and its level symbols (None when a level is tied)."""
    keys, rank, origins = retrograde(
        *_engine_game(arena, gamma, max_mask, seeds), arena.predecessors()
    )
    symbols: list[tuple[Fraction, int]] | None = []
    for kind, at in origins:
        if kind == "seed":
            symbols.append((seeds[at][0], 0))
        elif kind == "step":
            c, t = symbols[at]
            symbols.append((c, t + 1))
        elif kind == "never":
            symbols.append((Q0, 0))
        else:
            symbols = None
            break
    levels = tuple(-key for key in reversed(keys))
    rounds = len(keys) - (keys[-1] == Q0)
    sol = GameSolution(arena, levels, len(keys) - 1 - rank, rounds, max_mask)
    return sol, None if symbols is None else tuple(reversed(symbols))


def _reordered(arena: Arena, last: _Solved, gamma: Fraction) -> GameSolution | None:
    """last's solution at discount gamma, or None when a level was tied or
    the symbols' values there are not strictly descending from the top
    down (checked pair by pair, stopping at the first pair out of order).
    The moved solution passes the engine's exact check before it is
    returned; a failure there is a ScarError, not a fallback."""
    if last.symbols is None:
        return None
    values: list[Fraction] = []
    for c, t in reversed(last.symbols):
        value = c * gamma**t
        if values and not value < values[-1]:
            return None
        values.append(value)
    old = last.solution
    check_fixpoint(
        *_engine_game(arena, gamma, old._max_mask, last.seeds),
        [-v for v in values],
        len(values) - 1 - old.rank,
    )
    return old._with_levels(tuple(reversed(values)))


def _terminal_classes(arena: Arena, player: int) -> list[tuple[State, np.ndarray]]:
    """Cop `player`'s terminal classes: one (representative, capture state
    indices) per captor count K and whether the player is a captor.
    Memoized on the arena."""

    def build() -> list[tuple[State, np.ndarray]]:
        cap_idx = np.flatnonzero(arena.capture_mask)
        at = arena.cops_at_robber(cap_idx // arena.n_players)
        terminal_class = 2 * at.sum(axis=0) + at[player - 1]
        _, reps, inverse = np.unique(terminal_class, return_index=True, return_inverse=True)
        return [
            (arena.state_of(int(cap_idx[rep])), cap_idx[inverse == k])
            for k, rep in enumerate(reps.tolist())
        ]

    return arena.memo(("terminal_classes", player), build)


def solve_game(arena: Arena, player: int, params: GameParams) -> GameSolution:
    """Solve cop `player`'s discounted game on the arena, re-using the last
    solve of this game on the arena where that is proven to hold."""
    n = arena.n_players
    if params.n_players != n:
        raise ValidationError(
            f"params are for {params.n_players} players, arena has {n}"
        )
    if not 1 <= player <= n - 1:
        raise ValidationError(f"player must be a cop in 1..{n - 1}, got {player}")
    slot = arena.memo(("last_game", player), lambda: [None])
    last: _Solved | None = slot[0]
    if last is not None and last.epsilon == params.epsilon:
        if last.gamma == params.gamma:
            return last.solution
        sol = _reordered(arena, last, params.gamma)
        if sol is not None:
            slot[0] = dataclasses.replace(last, gamma=params.gamma, solution=sol)
            return sol
    # one seed batch per distinct terminal coefficient, so that equal
    # coefficients do not count as a tie
    merged: dict[Fraction, list[np.ndarray]] = {}
    for rep, states in _terminal_classes(arena, player):
        merged.setdefault(terminal_payoff(rep, player, params), []).append(states)
    seeds = [(c, np.concatenate(parts)) for c, parts in merged.items()]
    sol, symbols = _discounted(arena, params.gamma, arena.mover_mask(player), seeds)
    slot[0] = _Solved(params.gamma, params.epsilon, seeds, sol, symbols)
    return sol


def solve_discounted_capture(arena: Arena, gamma: Fraction) -> GameSolution:
    """The survival-time game in discounted form: every cop maximizes
    gamma^(capture time) with terminal coefficient 1, the robber minimizes
    it (gamma < 1, so small capture times are worth more). Its value is
    gamma**T and its optimal-move sets match the capture-time game's
    exactly, which the test suite uses as a cross-check."""
    if not isinstance(gamma, Fraction) or not 0 < gamma < 1:
        raise ValidationError(f"gamma must be a rational in (0,1), got {gamma}")
    seeds = [(Fraction(1), np.flatnonzero(arena.capture_mask))]
    return _discounted(arena, gamma, ~arena.robber_mover_mask(), seeds)[0]


def opt_move_table(sol: GameSolution, token: int) -> dict[State, tuple[State, ...]]:
    """Optimal moves of `token` in sol's game, at every noncapture state where
    it is token's turn to move."""
    a = sol.arena
    if not 1 <= token <= a.n_players:
        raise ValidationError(f"token {token} out of range 1..{a.n_players}")
    table: dict[State, tuple[State, ...]] = {}
    for idx in a.noncapture_indices():
        if a.mover_of(int(idx)) == token:
            table[a.state_of(int(idx))] = sol.opt_moves(a.state_of(int(idx)))
    return table
