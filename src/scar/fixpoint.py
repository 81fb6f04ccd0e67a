"""One exact retrograde engine for every reachability game in the package.

A game is a successor table (an `arena.Csr`), an `eager` mask, a `frozen`
mask, seed batches `(key, states)` of frozen states, a monotone `step` on
keys and a top key `never` that `step` fixes. Its equations are

    key[s] = its seed's key (never when unseeded)   if frozen[s]
    key[s] = step(smallest successor key)           if eager[s]
    key[s] = step(largest successor key)            otherwise

When step(k) > k below never, their only solution is the one `retrograde`
builds in time linear in the edges: the attractor construction of
reachability games (Grädel, Thomas & Wilke, eds., Automata, Logics, and
Infinite Games, LNCS 2500, 2002), smallest key first, as Dijkstra's
algorithm settles distances. The pending batches are kept in a list
ascending by key, found by bisection, so keys are compared and never hashed;
the smallest is settled as a level. Each listing of a state in the level's
predecessor rows takes one from its count, and a state whose count reaches 0
is pushed at step(key). The count starts at 1 for eager states, which settle
on their first settled successor, and at the state's listings (`Csr.listed`)
elsewhere; a frozen or pushed state holds INT_INF, which no listing brings
to 0. The predecessor table need only be a listing table (see `arena.Csr`),
so a game on a subset of a table's moves needs no table of its own.

How a level is counted depends on the length p of its predecessor list, out
of n states. A wide level (16p >= n; 16 is `arena.WIDE_FRONTIER`) is counted
over every state at once with one `np.bincount`, and its ready states are
read back with `flatnonzero`. A narrow one counts its predecessors entry
by entry with the unbuffered `np.subtract.at` and keeps one copy of each
ready state with `arena.distinct`; nothing is sorted. A batch's states
come in no set order, and that order reaches no rank, level or origin: a
level's states all take one rank, and the counts fall the same in any
order. The engine stays linear: a wide level's O(n) work is at most 16
times the predecessor entries it gathered. This is the top-down/bottom-up
switch of Beamer, Asanović & Patterson, Direction-optimizing breadth-first
search (SC 2012).

The engine returns the ascending keys, one int rank per state and one
origin per level, and ends with `check_fixpoint`, a vectorised exact check
of every equation over the ranks: O(edges) numpy work plus one `step` per
level. Passing it proves the answer. The origins cost O(levels): a level
is `("seed", i)` when all its states came from seed batch i, `("step", r)`
when all were pushed at step(levels[r]), `("never", None)` for the
unsettled rest, and `("tied", None)` when it merged batches of different
origins. Without a tie, every key is a seed key or a chain of steps from
one, and every settled state that is not frozen sits one step above its
best successor: it was pushed at the step of the level where its count
reached 0, its first settled successor's if eager, else its last's. That
invariant lets `scarsolver` re-evaluate a solved game at another discount
without a new run, and with no check while the levels keep their order.
Instantiations:

- `solve_layers`: key = depth, step k+1, never = INT_INF. Capture-time
  solve (cops eager), which also answers the classic simultaneous-move
  game, coalition attractors, and classify's guarantee tests on the
  quotient's tables cut to a cop's optimal moves.
- `scarsolver`: key = -value * B * q^T in Python ints for gamma = p/q,
  step k*p // q, never = 0. The per-cop discounted games.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .arena import WIDE_FRONTIER, Csr, distinct, row_best
from .errors import ScarError, ValidationError

INT_INF = 2**62


def retrograde(
    moves: Csr,
    eager: np.ndarray,
    frozen: np.ndarray,
    seeds: list[tuple[object, np.ndarray]],
    step,
    never,
    predecessors: Csr | None = None,
) -> tuple[list, np.ndarray, list[tuple[str, int | None]]]:
    """Solve the game on the table `moves`; returns (ascending keys, int
    rank per state, origin per level).

    Every row of the table must hold a move, and every seeded state must
    be frozen. A seed keyed `never` is left unsettled and a key above it is
    refused. `predecessors` is a listing table of `moves` with its
    `listed` (see `Csr`); without it, `moves.reverse` sorts the entries.
    """
    if predecessors is None:
        predecessors = moves.reverse()
    elif predecessors.listed is None:
        raise ValidationError("a predecessor table needs its listed counts")
    read_preds = predecessors.row_reader()
    pending: list = []  # keys of the unsettled batches, ascending
    batches: list = []  # per pending key: [origin, state arrays]

    def push(key, states: np.ndarray, origin: tuple[str, int]) -> None:
        i = bisect_left(pending, key)
        if i < len(pending) and pending[i] == key:
            batch = batches[i]
            if batch[0] != origin:
                batch[0] = ("tied", None)
            batch[1].append(states)
        else:
            pending.insert(i, key)
            batches.insert(i, [origin, [states]])

    for i, (key, states) in enumerate(seeds):
        if key > never:
            raise ValidationError(f"seed key {key} lies above never ({never})")
        if key < never and states.size:
            push(key, states, ("seed", i))

    remaining = predecessors.listed.astype(np.int64)
    remaining[eager] = 1
    remaining[frozen] = INT_INF
    n = len(remaining)
    rank = np.full(n, -1, dtype=np.int32 if n < 2**31 else np.int64)
    slot = np.empty(n, dtype=np.int64)  # `distinct`'s scratch
    levels: list = []
    origins: list[tuple[str, int | None]] = []
    while pending:
        key = pending.pop(0)
        origin, parts = batches.pop(0)
        batch = parts[0] if len(parts) == 1 else np.concatenate(parts)
        rank[batch] = len(levels)
        levels.append(key)
        origins.append(origin)
        preds = read_preds(batch)
        if WIDE_FRONTIER * preds.size >= n:
            remaining -= np.bincount(preds, minlength=n)
            ready = np.flatnonzero(remaining <= 0)
        else:
            np.subtract.at(remaining, preds, 1)
            ready = distinct(preds[remaining.take(preds) <= 0], slot)
        if ready.size:
            remaining[ready] = INT_INF
            push(step(key), ready, ("step", len(levels) - 1))
    del remaining, slot  # the check then runs on no more than the loop held
    unsettled = rank < 0
    if unsettled.any():
        rank[unsettled] = len(levels)
        levels.append(never)
        origins.append(("never", None))
    del unsettled
    check_fixpoint(moves, eager, frozen, seeds, step, never, levels, rank)
    return levels, rank, origins


def check_fixpoint(
    moves: Csr,
    eager: np.ndarray,
    frozen: np.ndarray,
    seeds: list[tuple[object, np.ndarray]],
    step,
    never,
    levels: list,
    rank: np.ndarray,
) -> None:
    """Raise ScarError unless (levels, rank) satisfies every equation of the
    game on the table `moves` exactly: levels strictly ascend, a frozen row
    holds its seed's rank (never's when unseeded), and any other row holds
    the level its best successor's level steps onto.
    Keys are only compared, never hashed, and a key not found ranks -1,
    which no row holds."""
    n = len(rank)
    where = f"retrograde solve on {n} states"
    if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ScarError(f"{where}: levels are not strictly ascending")
    if n and not 0 <= rank.min() <= rank.max() < len(levels):
        raise ScarError(f"{where}: a rank lies outside the {len(levels)} levels")

    # nxt[r]: the level that level r steps onto, or -1, found by one merge
    # walk, as `step` is monotone
    nxt, lo = [], 0
    for key in levels:
        stepped = step(key)
        while lo < len(levels) and levels[lo] < stepped:
            lo += 1
        nxt.append(lo if lo < len(levels) and levels[lo] == stepped else -1)
    # want[s]: the rank s's equation gives, made over its best successor's
    # rank with no other array of n entries
    want = row_best((rank.take(column) for column in moves.table.T), ~eager)
    want = np.array(nxt, dtype=rank.dtype)[want]
    want[frozen] = rank_of(levels, never)
    for key, states in seeds:
        want[states[frozen[states]]] = rank_of(levels, key)
    bad = np.flatnonzero(want != rank)
    if bad.size:
        i = int(bad[0])
        gives = levels[want[i]] if want[i] >= 0 else "a key outside the levels"
        raise ScarError(
            f"{where}: state {i} holds {levels[rank[i]]}, "
            f"its equation gives {gives} ({bad.size} states wrong)"
        )


def rank_of(levels: list, key) -> int:
    """The index of `key` in the ascending `levels`, or -1 where it is not
    one of them."""
    r = bisect_left(levels, key)
    return r if r < len(levels) and levels[r] == key else -1


def solve_layers(moves: Csr, *game: np.ndarray, predecessors: Csr | None = None) -> np.ndarray:
    """The integer game `solve_layers(moves, minimizing, frozen, init)`:
    returns the int64 value array (INT_INF = never)

        val[s] = init[s]                   if frozen[s]  (0 or INT_INF)
        val[s] = 1 + min over successors   if minimizing[s]
        val[s] = 1 + max over successors   otherwise

    A state ends up finite exactly when the min side can force the play into
    a frozen 0 state, and the finite value is the number of token moves it
    needs against worst-case max-side play. `init` is ignored off `frozen`.
    Bare offsets and targets of a table with no empty row may stand for
    `moves` (`Csr.measured`).
    """
    if not isinstance(moves, Csr):
        moves, game = Csr.measured(moves, game[0]), game[1:]
    minimizing, frozen, init = game
    minimizing = np.asarray(minimizing, dtype=bool)
    frozen = np.asarray(frozen, dtype=bool)
    held = init[frozen]
    if not ((held == 0) | (held == INT_INF)).all():
        raise ValidationError("a frozen state must hold 0 or INT_INF")
    seeds = [(0, np.flatnonzero(frozen & (init == 0)))]
    depths, rank, _ = retrograde(moves, minimizing, frozen, seeds,
                                 lambda d: min(d + 1, INT_INF), INT_INF, predecessors)
    return np.array(depths, dtype=np.int64)[rank]
