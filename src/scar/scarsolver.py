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
a terminal class c and the game is a reachability game with nonnegative
costs. It is solved by retrograde analysis in decreasing order of value, as
Dijkstra's algorithm settles distances: a heap of distinct Fraction values,
each holding a numpy batch of states, is seeded with one batch per terminal
class (captor count K and whether m is a captor). Popping the largest value
settles its whole batch as one level. Along the predecessor table a
maximizing predecessor is then worth gamma times that value at once (no
later level is larger), and a minimizing one when its last successor has
settled (every other successor settled at a value no smaller). States never
settled are worth 0. Values that are exactly equal share one level; no float enters.

A solution stores the ascending tuple of levels and one int rank per state.
Before it is returned, a vectorised Bellman check runs over the ranks: every
distinct (state rank, best-successor rank) pair on noncapture rows must
satisfy level = gamma * level exactly, and every distinct (rank, terminal
class) pair on capture rows must carry the class coefficient. The fixpoint
is unique for gamma < 1, so passing the check proves the answer.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np

from .arena import Arena, GameParams, OptimalMoves, State, concat_ranges, row_best
from .errors import ScarError, ValidationError

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
        player: int,
        gamma: Fraction,
        levels: tuple[Fraction, ...],
        rank: np.ndarray,
        rounds: int,
        max_mask: np.ndarray,
    ):
        self.arena = arena
        self.player = player
        self.gamma = gamma
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


def _solve(
    arena: Arena,
    player: int,
    gamma: Fraction,
    max_mask: np.ndarray,
    terminal_class: np.ndarray,
    coeffs: list[Fraction],
) -> GameSolution:
    """Settle exact values in decreasing order. terminal_class gives each
    capture state's index into coeffs (it is ignored elsewhere)."""
    if not isinstance(gamma, Fraction) or not 0 < gamma < 1:
        raise ValidationError(f"gamma must be a rational in (0,1), got {gamma}")
    if any(c < 0 for c in coeffs):
        raise ValidationError(f"terminal coefficients must be >= 0, got {coeffs}")
    capture = arena.capture_mask
    pred_offsets, pred_targets = arena.predecessors()

    batches: dict[Fraction, list[np.ndarray]] = {}
    heap: list[Fraction] = []  # negated keys of batches

    def push(value: Fraction, states: np.ndarray) -> None:
        if value not in batches:
            batches[value] = []
            heapq.heappush(heap, -value)
        batches[value].append(states)

    cap_idx = np.nonzero(capture)[0]
    for k, c in enumerate(coeffs):
        if c > 0:
            states = cap_idx[terminal_class[cap_idx] == k]
            if states.size:
                push(c, states)

    queued = capture.copy()  # capture states never settle from successors
    remaining = np.diff(arena.offsets)
    settled = np.full(arena.n_states, -1, dtype=np.int64)  # pop order
    popped: list[Fraction] = []
    while heap:
        v = -heapq.heappop(heap)
        batch = np.concatenate(batches.pop(v))
        settled[batch] = len(popped)
        popped.append(v)
        preds = pred_targets[concat_ranges(pred_offsets[batch], pred_offsets[batch + 1])]
        preds = preds[~queued[preds]]
        if preds.size == 0:
            continue
        is_max = max_mask[preds]
        ready = np.unique(preds[is_max])
        mins, hits = np.unique(preds[~is_max], return_counts=True)
        remaining[mins] -= hits
        ready = np.concatenate((ready, mins[remaining[mins] == 0]))
        if ready.size:
            queued[ready] = True
            push(gamma * v, ready)

    # ascending levels; every unsettled state shares the level 0 at rank 0
    zero = bool((settled < 0).any())
    levels = tuple(([Q0] if zero else []) + popped[::-1])
    rank = np.where(settled < 0, 0, len(levels) - 1 - settled)
    sol = GameSolution(arena, player, gamma, levels, rank, len(popped), max_mask)
    _check_bellman(sol, terminal_class, coeffs)
    return sol


def _check_bellman(sol: GameSolution, terminal_class: np.ndarray, coeffs: list) -> None:
    """Raise unless the ranked table satisfies every equation of the game
    exactly, checked once per distinct (rank, best-successor rank) and
    (rank, terminal class) pair."""
    a, levels, rank = sol.arena, sol.levels, sol.rank
    where = f"discounted game of player {sol.player} on {a.n_states} states"
    if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ScarError(f"{where}: levels are not strictly ascending")
    nc = ~a.capture_mask
    best = row_best(a, rank[a.targets], sol._max_mask)
    size = len(levels)
    for key in np.unique(rank[nc] * size + best[nc]).tolist():
        r, b = divmod(key, size)
        if levels[r] != sol.gamma * levels[b]:
            raise ScarError(f"{where}: Bellman residual at level {levels[r]}")
    cap = a.capture_mask
    for key in np.unique(rank[cap] * len(coeffs) + terminal_class[cap]).tolist():
        r, k = divmod(key, len(coeffs))
        if levels[r] != coeffs[k]:
            raise ScarError(f"{where}: capture level {levels[r]} != coefficient {coeffs[k]}")


def solve_game(arena: Arena, player: int, params: GameParams) -> GameSolution:
    """Solve cop `player`'s discounted game on the arena."""
    n = arena.n_players
    if params.n_players != n:
        raise ValidationError(
            f"params are for {params.n_players} players, arena has {n}"
        )
    if not 1 <= player <= n - 1:
        raise ValidationError(f"player must be a cop in 1..{n - 1}, got {player}")
    # terminal class 2K + [m is a captor], K the number of captors
    captors = sum(arena.cop_at_robber(j).astype(np.int64) for j in range(1, n))
    terminal_class = 2 * captors + arena.cop_at_robber(player)
    coeffs = [Q0] * (2 * n)
    classes, reps = np.unique(terminal_class[arena.capture_mask], return_index=True)
    cap_idx = np.nonzero(arena.capture_mask)[0]
    for k, rep in zip(classes.tolist(), cap_idx[reps].tolist()):
        coeffs[k] = terminal_payoff(arena.state_of(rep), player, params)
    max_mask = arena.mover_mask(player)
    return _solve(arena, player, params.gamma, max_mask, terminal_class, coeffs)


def solve_discounted_capture(arena: Arena, gamma: Fraction) -> GameSolution:
    """The survival-time game in discounted form: every cop maximizes
    gamma^(capture time) with terminal coefficient 1, the robber minimizes
    it (gamma < 1, so small capture times are worth more). Its value is
    gamma**T and its optimal-move sets match the capture-time game's
    exactly, which the test suite uses as a cross-check."""
    terminal_class = np.zeros(arena.n_states, dtype=np.int64)
    max_mask = ~arena.robber_mover_mask()
    return _solve(arena, arena.n_players, gamma, max_mask, terminal_class, [Fraction(1)])


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
