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
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arena import Arena, GameParams, OptimalMoves, State
from .errors import ValidationError
from .fixpoint import retrograde

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
        self.rounds = rounds  # settled levels
        self._max_mask = max_mask
        self._edge_opt: np.ndarray | None = None
        self._values: tuple[Fraction, ...] | None = None

    def value(self, s: State | int) -> Fraction:
        return self.levels[self.rank[self.arena.index_of(s)]]

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The value of every state, in index order (built on first use)."""
        if self._values is None:
            self._values = tuple(self.levels[r] for r in self.rank.tolist())
        return self._values

    @property
    def edge_opt(self) -> np.ndarray:
        """Boolean per CSR edge: does the move attain the mover's optimum
        under the roles this game was solved with? False on capture rows."""
        if self._edge_opt is None:
            a = self.arena
            eo = self._best_edges(self.rank, self._max_mask)
            eo[np.repeat(a.capture_mask, np.diff(a.offsets))] = False
            self._edge_opt = eo
        return self._edge_opt


def _discounted(
    arena: Arena, gamma: Fraction, max_mask: np.ndarray, seeds: list
) -> GameSolution:
    """Run the engine on keys -value from the capture states' seed batches
    `(coefficient, states)`, and rank the values in ascending order."""
    keys, rank = retrograde(
        arena.offsets,
        arena.targets,
        max_mask,
        arena.capture_mask,
        [(-c, states) for c, states in seeds],
        lambda key: gamma * key,
        Q0,
        arena.predecessors(),
    )
    levels = tuple(-key for key in reversed(keys))
    rounds = len(keys) - (keys[-1] == Q0)
    return GameSolution(arena, levels, len(keys) - 1 - rank, rounds, max_mask)


def solve_game(arena: Arena, player: int, params: GameParams) -> GameSolution:
    """Solve cop `player`'s discounted game on the arena."""
    n = arena.n_players
    if params.n_players != n:
        raise ValidationError(
            f"params are for {params.n_players} players, arena has {n}"
        )
    if not 1 <= player <= n - 1:
        raise ValidationError(f"player must be a cop in 1..{n - 1}, got {player}")
    # one seed per terminal class 2K + [m is a captor], K the number of captors
    cap_idx = np.flatnonzero(arena.capture_mask)
    captors = sum(arena.cop_at_robber(j)[cap_idx].astype(np.int64) for j in range(1, n))
    terminal_class = 2 * captors + arena.cop_at_robber(player)[cap_idx]
    _, reps, inverse = np.unique(terminal_class, return_index=True, return_inverse=True)
    seeds = [
        (terminal_payoff(arena.state_of(int(cap_idx[rep])), player, params), cap_idx[inverse == k])
        for k, rep in enumerate(reps.tolist())
    ]
    return _discounted(arena, params.gamma, arena.mover_mask(player), seeds)


def solve_discounted_capture(arena: Arena, gamma: Fraction) -> GameSolution:
    """The survival-time game in discounted form: every cop maximizes
    gamma^(capture time) with terminal coefficient 1, the robber minimizes
    it (gamma < 1, so small capture times are worth more). Its value is
    gamma**T and its optimal-move sets match the capture-time game's
    exactly, which the test suite uses as a cross-check."""
    if not isinstance(gamma, Fraction) or not 0 < gamma < 1:
        raise ValidationError(f"gamma must be a rational in (0,1), got {gamma}")
    seeds = [(Fraction(1), np.flatnonzero(arena.capture_mask))]
    return _discounted(arena, gamma, ~arena.robber_mover_mask(), seeds)


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
