"""One exact retrograde engine for every reachability game in the package.

A game is a CSR successor table, an `eager` mask, a `frozen` mask, seed
batches `(key, states)` of frozen states, a monotone `step` on keys and a
top key `never` that `step` fixes. Its equations are

    key[s] = its seed's key (never when unseeded)   if frozen[s]
    key[s] = step(smallest successor key)           if eager[s]
    key[s] = step(largest successor key)            otherwise

When step(k) > k below never, their only solution is the one `retrograde`
builds in time linear in the edges: the attractor construction of
reachability games (Grädel, Thomas & Wilke, eds., Automata, Logics, and
Infinite Games, LNCS 2500, 2002), smallest key first, as Dijkstra's
algorithm settles distances. The pending batches are kept in a list
ascending by key, found by bisection, so keys are compared and never
hashed; the smallest is settled as a level. Over the predecessor CSR every
unsettled predecessor of the level loses one remaining successor, and a
state whose count reaches 0 is pushed at step(key). The count starts at 1
for eager states, which settle on their first settled successor, and at the
out-degree elsewhere, which settle on their last. The rest take `never`.

How a level is counted depends on the length p of its predecessor list, out
of n states. A wide level (16p >= n; 16 is `arena.WIDE_FRONTIER`) is counted
over every state at once with one `np.bincount`, and its ready states are
read back with `flatnonzero`; a narrow one is sorted and counted with
`np.unique`. Both give the ready states in ascending order, so the levels do
not depend on the rule. The engine stays linear: a wide level's O(n) work is
at most 16 times the predecessor entries it gathered. This is the
top-down/bottom-up switch of Beamer, Asanović & Patterson,
Direction-optimizing breadth-first search (SC 2012).

The engine returns the ascending keys, one int rank per state and one
origin per level, and ends with `check_fixpoint`, a vectorised exact check
of every equation over the ranks: O(edges) numpy work plus one `step` per
level. Passing it proves the answer. The origins cost O(levels): a level is
`("seed", i)` when all its states came from seed batch i, `("step", r)` when
all were pushed at step(levels[r]), `("never", None)` for the unsettled
rest, and `("tied", None)` when it merged batches of different origins.
Without a tie, every key is a seed key or a chain of steps from one, which
is what lets `scarsolver` re-evaluate a solved game at another discount
(and re-prove it with `check_fixpoint`) without a new run. Instantiations:

- `solve_layers`: key = depth, step k+1, never = INT_INF. Capture-time
  solve (cops eager), which also answers the classic simultaneous-move
  game, coalition attractors, and guarantee tests on restricted move
  tables.
- `scarsolver`: key = -value, step gamma*k, never = 0. The per-cop
  discounted games and the discounted capture-time game.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .arena import WIDE_FRONTIER, reverse_csr, row_best, row_reader
from .errors import ScarError, ValidationError

INT_INF = 2**62


def retrograde(
    offsets: np.ndarray,
    targets: np.ndarray,
    eager: np.ndarray,
    frozen: np.ndarray,
    seeds: list[tuple[object, np.ndarray]],
    step,
    never,
    predecessors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[list, np.ndarray, list[tuple[str, int | None]]]:
    """Solve the game; returns (ascending keys, int rank per state, origin
    per level).

    Every row of the table must hold a move, and every seeded state must
    be frozen. A seed keyed `never` is left unsettled and a key above it is
    refused. `predecessors` is the table's reverse CSR. Every solve in
    the package passes one: `Arena.predecessors()`, built from the
    table's structure, or the orbit quotient's and classify's restricted
    table's, sorted once by `reverse_csr`; for a table passed without one
    `reverse_csr` sorts the edges here.
    """
    if predecessors is None:
        predecessors = reverse_csr(offsets, targets)
    read_preds = row_reader(*predecessors)
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

    queued = np.array(frozen, dtype=bool)  # frozen states never settle from successors
    remaining = np.where(eager, 1, np.diff(offsets))
    n = len(queued)
    rank = np.full(n, -1, dtype=np.int32 if n < 2**31 else np.int64)
    levels: list = []
    origins: list[tuple[str, int | None]] = []
    while pending:
        key = pending.pop(0)
        origin, parts = batches.pop(0)
        batch = np.concatenate(parts)
        rank[batch] = len(levels)
        levels.append(key)
        origins.append(origin)
        preds = read_preds(batch)
        if WIDE_FRONTIER * preds.size >= n:
            remaining -= np.bincount(preds, minlength=n)
            ready = np.flatnonzero((remaining <= 0) & ~queued)
        else:
            preds, hits = np.unique(preds[~queued[preds]], return_counts=True)
            remaining[preds] -= hits
            ready = preds[remaining[preds] <= 0]
        if ready.size:
            queued[ready] = True
            push(step(key), ready, ("step", len(levels) - 1))
    unsettled = rank < 0
    if unsettled.any():
        rank[unsettled] = len(levels)
        levels.append(never)
        origins.append(("never", None))
    check_fixpoint(offsets, targets, eager, frozen, seeds, step, never, levels, rank)
    return levels, rank, origins


def check_fixpoint(
    offsets: np.ndarray,
    targets: np.ndarray,
    eager: np.ndarray,
    frozen: np.ndarray,
    seeds: list[tuple[object, np.ndarray]],
    step,
    never,
    levels: list,
    rank: np.ndarray,
) -> None:
    """Raise ScarError unless (levels, rank) satisfies every equation of the
    game exactly: levels strictly ascend, a frozen row holds its seed's rank
    (never's when unseeded), and any other row holds nxt[best successor
    rank], where nxt[r] is the rank of step(levels[r]). Keys are only
    compared, never hashed: nxt comes from one merge walk, which finds
    every step of a monotone `step`, and a key not found ranks -1, which no
    row holds."""
    n = len(rank)
    where = f"retrograde solve on {n} states"
    if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ScarError(f"{where}: levels are not strictly ascending")
    if n and not 0 <= rank.min() <= rank.max() < len(levels):
        raise ScarError(f"{where}: a rank lies outside the {len(levels)} levels")

    top = len(levels)

    def rank_of(key) -> int:
        r = bisect_left(levels, key)
        return r if r < top and levels[r] == key else -1

    nxt = np.empty(top, dtype=rank.dtype)
    lo = 0
    for r, key in enumerate(levels):
        stepped = step(key)
        while lo < top and levels[lo] < stepped:
            lo += 1
        nxt[r] = lo if lo < top and levels[lo] == stepped else -1
    held = np.full(n, rank_of(never), dtype=rank.dtype)
    for key, states in seeds:
        held[states] = rank_of(key)
    best = row_best(offsets, rank[targets], ~eager)
    want = np.where(frozen, held, nxt[best])
    bad = np.flatnonzero(want != rank)
    if bad.size:
        i = int(bad[0])
        gives = levels[want[i]] if want[i] >= 0 else "a key outside the levels"
        raise ScarError(
            f"{where}: state {i} holds {levels[rank[i]]}, "
            f"its equation gives {gives} ({bad.size} states wrong)"
        )


def solve_layers(
    offsets: np.ndarray,
    targets: np.ndarray,
    minimizing: np.ndarray,
    frozen: np.ndarray,
    init: np.ndarray,
    predecessors: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The integer game: returns the int64 value array (INT_INF = never)

        val[s] = init[s]                   if frozen[s]  (0 or INT_INF)
        val[s] = 1 + min over successors   if minimizing[s]
        val[s] = 1 + max over successors   otherwise

    A state ends up finite exactly when the min side can force the play into
    a frozen 0 state, and the finite value is the number of token moves it
    needs against worst-case max-side play. `init` is ignored off `frozen`.
    """
    minimizing = np.asarray(minimizing, dtype=bool)
    frozen = np.asarray(frozen, dtype=bool)
    held = init[frozen]
    if not ((held == 0) | (held == INT_INF)).all():
        raise ValidationError("a frozen state must hold 0 or INT_INF")
    seeds = [(0, np.flatnonzero(frozen & (init == 0)))]
    depths, rank, _ = retrograde(offsets, targets, minimizing, frozen, seeds,
                                 lambda d: min(d + 1, INT_INF), INT_INF, predecessors)
    return np.array(depths, dtype=np.int64)[rank]
