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
algorithm settles distances. A heap pops one seed batch per key and settles
it as a level. Over the predecessor CSR every unsettled predecessor of the
level loses one remaining successor (one `np.unique` count per level), and
a state whose count reaches 0 is pushed at step(key). The count starts at 1
for eager states, which settle on their first settled successor, and at the
out-degree elsewhere, which settle on their last. The rest take `never`.

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
  solve (cops eager), coalition attractors, guarantee tests on restricted
  move tables, and the classic simultaneous-move game.
- `scarsolver`: key = -value, step gamma*k, never = 0. The per-cop
  discounted games and the discounted capture-time game.
"""

from __future__ import annotations

import heapq

import numpy as np

from .arena import concat_ranges, reverse_csr, row_best
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

    Every seeded state must be frozen. A seed keyed `never` is left
    unsettled and a key above it is refused. `predecessors` is the table's
    reverse CSR (`arena.reverse_csr`) when the caller has it cached; it is
    built here otherwise.
    """
    pred_offsets, pred_targets = (
        reverse_csr(offsets, targets) if predecessors is None else predecessors
    )
    batches: dict = {}  # key -> [origin, state arrays]; keys hash once per push
    heap: list = []

    def push(key, states: np.ndarray, origin: tuple[str, int]) -> None:
        batch = batches.get(key)
        if batch is None:
            heapq.heappush(heap, key)
            batches[key] = [origin, [states]]
        else:
            if batch[0] != origin:
                batch[0] = ("tied", None)
            batch[1].append(states)

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
    while heap:
        key = heapq.heappop(heap)
        origin, parts = batches.pop(key)
        batch = np.concatenate(parts)
        rank[batch] = len(levels)
        levels.append(key)
        origins.append(origin)
        preds = pred_targets[concat_ranges(pred_offsets[batch], pred_offsets[batch + 1])]
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
    rank], where nxt[r] is the rank of step(levels[r])."""
    n = len(rank)
    where = f"retrograde solve on {n} states"
    if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
        raise ScarError(f"{where}: levels are not strictly ascending")
    if n and not 0 <= rank.min() <= rank.max() < len(levels):
        raise ScarError(f"{where}: a rank lies outside the {len(levels)} levels")
    at = {key: r for r, key in enumerate(levels)}
    nxt = np.array([at.get(step(key), -1) for key in levels], dtype=rank.dtype)
    held = np.full(n, at.get(never, -1), dtype=rank.dtype)
    for key, states in seeds:
        held[states] = at.get(key, -1)
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
