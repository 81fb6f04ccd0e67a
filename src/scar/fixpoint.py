"""Integer min-max layer solve over a CSR successor table.

One routine serves every reachability-flavoured solve in the package:

    val[s] = init[s]                          if frozen[s]  (0 or INT_INF)
    val[s] = 1 + min over successors          if minimizing[s]
    val[s] = 1 + max over successors          otherwise

with INT_INF for "never". A state ends up finite exactly when the min side
can force the play into a frozen 0 state, and the finite value is the number
of token moves it needs against worst-case max-side play.

Instantiations: capture-time solve (cops minimize), coalition attractors
(coalition minimizes, everyone else maximizes), guarantee tests on restricted
move tables, and the classic simultaneous-move game.

The table is built by retrograde analysis, the attractor construction of
reachability games (Grädel, Thomas & Wilke, eds., Automata, Logics, and
Infinite Games, LNCS 2500, 2002), in time linear in the edges: layer d is
the frontier of states settled at d. Over the predecessor CSR, every
unsettled predecessor of the frontier loses one remaining successor; a
state settles at d + 1 when its count reaches 0. The count starts at 1 for
minimizing states and at the out-degree for maximizing ones. States never
settled keep INT_INF.

Every solve ends with `check_fixpoint`, a vectorised exact check of every
equation above. Its only solution is the distance table, so passing the
check proves the answer.
"""

from __future__ import annotations

import numpy as np

from .arena import concat_ranges, reverse_csr
from .errors import ScarError, ValidationError

INT_INF = 2**62


def solve_layers(
    offsets: np.ndarray,
    targets: np.ndarray,
    minimizing: np.ndarray,
    frozen: np.ndarray,
    init: np.ndarray,
    predecessors: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Solve the layered game; returns the int64 value array (INT_INF = never).

    `frozen` states keep their `init` value, which must be 0 (a target) or
    INT_INF (a dead sink); `init` is ignored elsewhere. `predecessors` is the
    table's reverse CSR (`arena.reverse_csr`) when the caller has it cached;
    it is built here otherwise.
    """
    minimizing = np.asarray(minimizing, dtype=bool)
    frozen = np.asarray(frozen, dtype=bool)
    held = init[frozen]
    if not ((held == 0) | (held == INT_INF)).all():
        raise ValidationError("a frozen state must hold 0 or INT_INF")
    pred_offsets, pred_targets = (
        reverse_csr(offsets, targets) if predecessors is None else predecessors
    )
    remaining = np.where(minimizing, 1, np.diff(offsets))
    unsettled = ~frozen
    frontier = np.flatnonzero(frozen & (init == 0))
    vals = np.full(len(frozen), INT_INF, dtype=np.int64)
    vals[frontier] = 0
    depth = 0
    while frontier.size:
        preds = pred_targets[concat_ranges(pred_offsets[frontier], pred_offsets[frontier + 1])]
        preds, hits = np.unique(preds[unsettled[preds]], return_counts=True)
        remaining[preds] -= hits
        frontier = preds[remaining[preds] <= 0]
        depth += 1
        vals[frontier] = depth
        unsettled[frontier] = False
    check_fixpoint(offsets, targets, minimizing, frozen, init, vals)
    return vals


def check_fixpoint(
    offsets: np.ndarray,
    targets: np.ndarray,
    minimizing: np.ndarray,
    frozen: np.ndarray,
    init: np.ndarray,
    vals: np.ndarray,
) -> None:
    """Raise ScarError unless vals satisfies every equation of the game
    exactly: frozen rows hold init, every other row 1 + the min or max of
    its successors (INT_INF when that is INT_INF). An INT_INF minimizing row
    thus has only INT_INF successors and an INT_INF maximizing row at least
    one."""
    succ = vals[targets]
    seg = offsets[:-1]
    best = np.where(
        minimizing, np.minimum.reduceat(succ, seg), np.maximum.reduceat(succ, seg)
    )
    want = np.where(frozen, init, np.where(best >= INT_INF, INT_INF, best + 1))
    bad = np.flatnonzero(want != vals)
    if bad.size:
        i = int(bad[0])
        raise ScarError(
            f"layer solve on {len(vals)} states: state {i} holds {int(vals[i])}, "
            f"its equation gives {int(want[i])} ({bad.size} states wrong)"
        )
