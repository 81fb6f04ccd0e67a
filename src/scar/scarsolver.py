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
never = 0: one seed batch per terminal class (captor count K and whether m
is a captor), cop m eager. Levels settle in decreasing order of value, as
Dijkstra's algorithm settles distances; states never settled are worth 0,
and values that are exactly equal share one level. No float or Fraction
enters the engine: for gamma = p/q the keys are the Python ints -value * D,
D = B * q^T for the coefficients' least common denominator B, on which the
step k*p // q is exact to depth T. T starts N above the capture-time
game's deepest finite depth, and a run that steps deeper runs again at 2T.

A `GameSolution` holds the engine's keys and its rank per orbit of the
arena's quotient (`Arena.quotient()`, see `arena`), where the game is
solved. Every solve ends with the engine's exact check of every Bellman
equation on the quotient; the fixpoint is unique for gamma < 1, so
passing it proves the answer.

The engine also reports where each level came from, so every level is a
symbol c * gamma^t: a terminal coefficient c reached t moves from capture,
or 0 for the states never settled. `solve_game` keeps the last solution of
each cop's game on the arena with its symbols. Asked again at the same
(gamma, epsilon), it returns that solution. At a new gamma = p/q with the
same epsilon, it re-evaluates the symbols as integer keys, with T one
above the largest t, and re-uses the solution with no run of the engine
where one of two proofs holds. If the keys ascend as before, every row's
best successor keeps its rank, so every equation holds as it did if each
level's step, never and each seed key land on the same levels as at the
old gamma (`_Solved.landings`, O(levels)); the old ranks, rounds and
optimal moves stand with the new values. A step that lands elsewhere, as
by a coincidence of values at one gamma, goes to the engine's exact check,
where a failure is a ScarError. If the keys reorder, all distinct, the
symbols are sorted and the ranks remapped with one take, and the result
stands if it passes the exact check. It then holds its rows' steps by
their symbols, not by a coincidence of values at this gamma: the rows of a
level all step from the one level whose key steps onto its key, and the
level of its symbol stepped back is that level, so a later re-use can
check it as the first proof does. Anything else goes to the engine, as
does a level where a seed met a step (an exact tie, such as
gamma = 1/(2-2*eps) on a path), which has no single symbol. The fixpoint
is unique for gamma < 1, so a re-used answer is the fresh one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arena import Arena, GameParams, Solution, State
from .crsolver import capture_depths
from .errors import ScarError, ValidationError
from .fixpoint import INT_INF, check_fixpoint, level_steps, rank_of, retrograde


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


@dataclass(eq=False)
class GameSolution(Solution):
    """Exact value table for one player's discounted game on an arena, a
    `Solution` whose rank indexes the engine's ascending int `keys`, each
    -value * `denominator`: the distinct values, descending, are the
    Fractions `levels` in the same order, made on first read. Cop m's
    game has cop m eager, as the engine solved it."""

    keys: tuple[int, ...]
    denominator: int

    levels = functools.cached_property(
        lambda self: tuple(Fraction(-k, self.denominator) for k in self.keys))
    rounds = property(lambda self: len(self.keys) - (self.keys[-1] == 0))  # settled

    def value(self, s: State | int) -> Fraction:
        return self.levels[self.rank[self.arena.orbit(s)]]


@dataclass(frozen=True)
class _Solved:
    """The last solve of one cop's game on an arena, with the seed batches
    it was solved from. `symbols` holds one (a, t) per level, value
    a * gamma^t / B for the int a and the seeds' least common denominator
    B, aligned with `solution.keys`; None when a level was tied."""

    gamma: Fraction
    epsilon: Fraction
    seeds: list[tuple[Fraction, np.ndarray]]
    solution: GameSolution
    symbols: tuple[tuple[int, int], ...] | None

    @functools.cached_property
    def landings(self) -> tuple[list[int], list[int]]:
        """Where the equations land, as indices of levels: each level's
        step, then never and each seed key. Made on first read, so a
        fresh solve pays nothing for it."""
        keys = list(self.solution.keys)
        seed_keys, step = _integer_game(self.seeds, self.gamma, self.solution.denominator)
        return level_steps(keys, step), [rank_of(keys, k) for k in (0, *(k for k, _ in seed_keys))]


class _TooDeep(ScarError):
    """A key that q does not divide was stepped: the scale is too shallow."""


def _integer_game(seeds: list, gamma: Fraction, scale: int):
    """(the seed batches keyed -c * scale, the step k*p // q); the step
    raises _TooDeep on a key q does not divide."""
    p, q = gamma.numerator, gamma.denominator

    def step(key: int) -> int:
        whole, rest = divmod(key, q)
        if rest:
            raise _TooDeep
        return whole * p

    return [(-c.numerator * (scale // c.denominator), orbits) for c, orbits in seeds], step


def _scale(seeds: list, gamma: Fraction, top: int) -> int:
    """D = B * q^T at T = top (see above)."""
    return math.lcm(*(c.denominator for c, _ in seeds)) * gamma.denominator**top


def _discounted(
    arena: Arena, gamma: Fraction, eager: np.ndarray, seeds: list
) -> tuple[GameSolution, tuple[tuple[int, int], ...] | None]:
    """Run the engine on the arena's quotient from the capture orbits' seed
    batches `(coefficient, orbits)`, on `_integer_game`'s keys, with the
    value's maximizers `eager`; returns the solution and its level symbols
    (None when a level is tied)."""
    q, depths = arena.quotient(), capture_depths(arena)
    top = arena.n_players + int(depths.max(where=depths < INT_INF, initial=0))
    while True:
        scale = _scale(seeds, gamma, top)
        seed_keys, step = _integer_game(seeds, gamma, scale)
        try:
            keys, rank, origins = retrograde(q.moves, eager, q.capture, seed_keys,
                                             step, 0, q.preds)
            break
        except _TooDeep:
            top *= 2
    symbols: list[tuple[int, int]] | None = []
    for kind, at in origins:
        if kind == "seed":
            symbols.append((-seed_keys[at][0] // gamma.denominator**top, 0))
        elif kind == "step":
            a, t = symbols[at]
            symbols.append((a, t + 1))
        elif kind == "never":
            symbols.append((0, 0))
        else:
            symbols = None
            break
    sol = GameSolution(arena, rank, eager, tuple(keys), scale)
    return sol, None if symbols is None else tuple(symbols)


def _reordered(arena: Arena, last: _Solved, gamma: Fraction) -> _Solved | None:
    """last's solve re-used at discount gamma by one of the two proofs
    above, on `_integer_game`'s keys with top 1 above the largest t; None
    when a level was tied, two keys are equal or a re-sorted solution
    fails the exact check. A solution whose order holds but whose steps
    land elsewhere is checked exactly, and a failure there is a
    ScarError, not a fallback."""
    if last.symbols is None:
        return None
    p, q = gamma.numerator, gamma.denominator
    top = 1 + max(t for _, t in last.symbols)
    keys = [-a * p**t * q ** (top - t) for a, t in last.symbols]  # -value * D
    old, quotient = last.solution, arena.quotient()
    scale = _scale(last.seeds, gamma, top)
    seed_keys, step = _integer_game(last.seeds, gamma, scale)
    game = (quotient.moves, old.eager, quotient.capture, seed_keys, step, 0)

    def solved(keys: list[int], rank: np.ndarray, symbols: tuple) -> _Solved:
        sol = GameSolution(arena, rank, old.eager, tuple(keys), scale)
        return _Solved(gamma, last.epsilon, last.seeds, sol, symbols)

    if all(lo < hi for lo, hi in zip(keys, keys[1:])):
        moved = solved(keys, old.rank, last.symbols)
        if moved.landings != last.landings:
            check_fixpoint(*game, keys, old.rank)
        return moved
    order = sorted(range(len(keys)), key=keys.__getitem__)
    keys = [keys[i] for i in order]
    if any(lo == hi for lo, hi in zip(keys, keys[1:])):
        return None
    where = np.empty(len(order), dtype=old.rank.dtype)
    where[order] = np.arange(len(order))
    rank = where.take(old.rank)
    try:
        check_fixpoint(*game, keys, rank)
    except ScarError:
        return None
    return solved(keys, rank, tuple(last.symbols[i] for i in order))


def _terminal_classes(arena: Arena, player: int) -> list[tuple[State, np.ndarray]]:
    """Cop `player`'s terminal classes: one (representative, capture
    orbits) per captor count K and whether the player is a captor.
    Memoized on the arena."""

    def build() -> list[tuple[State, np.ndarray]]:
        q = arena.quotient()
        cap = np.flatnonzero(q.capture)
        at = q.at_robber[:, cap // arena.n_players]
        terminal_class = 2 * at.sum(axis=0) + at[player - 1]
        _, first, inverse = np.unique(terminal_class, return_index=True, return_inverse=True)
        return [
            (arena.state_of(int(q.reps[cap[i]])), cap[inverse == k])
            for k, i in enumerate(first.tolist())
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
        moved = _reordered(arena, last, params.gamma)
        if moved is not None:
            slot[0] = moved
            return moved.solution
    # one seed batch per distinct terminal coefficient, so that equal
    # coefficients do not count as a tie
    merged: dict[Fraction, list[np.ndarray]] = {}
    for rep, orbits in _terminal_classes(arena, player):
        merged.setdefault(terminal_payoff(rep, player, params), []).append(orbits)
    seeds = [(c, np.concatenate(parts)) for c, parts in merged.items()]
    sol, symbols = _discounted(arena, params.gamma, arena.quotient().turns(player), seeds)
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
    q = arena.quotient()
    seeds = [(Fraction(1), np.flatnonzero(q.capture))]
    return _discounted(arena, gamma, ~q.turns(arena.n_players), seeds)[0]


def opt_move_table(sol: GameSolution, token: int) -> dict[State, tuple[State, ...]]:
    """Optimal moves of `token` in sol's game, at every noncapture state where
    it is token's turn to move, read from all of those rows at once."""
    a = sol.arena
    if not 1 <= token <= a.n_players:
        raise ValidationError(f"token {token} out of range 1..{a.n_players}")
    rows = a.noncapture_indices()[token - 1::a.n_players]
    targets, opt = sol.optimal(rows)
    return {a.state_of(i): tuple(map(a.state_of, dict.fromkeys(row[keep].tolist())))
            for i, row, keep in zip(rows.tolist(), targets, opt)}
