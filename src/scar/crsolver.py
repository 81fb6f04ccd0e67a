"""Joint capture-time game and the classic simultaneous-move game.

The capture-time game plays on an `Arena`: every cop move minimizes, the
robber move maximizes, capture states count 0, and the value of a state is
the number of token moves the cops need to force a capture (INT_INF when the
robber escapes forever). This single table drives everything downstream:
optimal-move sets, attribution of the capture to one cop, the invariant-check
targets, and the punishment play for the robber.

The table is constant on orbits of the graph's automorphisms, so it is
solved and kept per orbit of `Arena.quotient()`, and so is the capture credit.

`classic_cop_win` answers the textbook pursuit variant, where all k cops
relocate at once and then the robber moves, with the capture-time game for
N = k+1 players read at the states where cop 1 moves. The cops are one team
with one objective, so moving them one at a time within a block decides
nothing a joint move does not; the robber stays put inside the block, and a
capture in the middle of the block is a capture in both games.
"""

from __future__ import annotations

import math

import numpy as np

from .arena import (
    DEFAULT_MAX_STATES,
    INFINITY,
    Arena,
    Solution,
    State,
    capped_count,
    count_of,
    walk,
)
from .errors import ScarError, UniquenessViolationError, ValidationError
from .fixpoint import INT_INF, solve_layers
from .graphs import Graph


class CrSolution(Solution):
    """The capture-time game as a `Solution` whose rank is its value,
    `depths`, per orbit of the arena's quotient, the cops eager; and the
    capture attribution read from it. The per-state tables (`values`,
    `capturer_table()`) are lifted on first read. The arena memoizes every
    table, as arrays that do not refer back."""

    depths = property(lambda self: self.rank)

    # -- values ---------------------------------------------------------------

    values = property(lambda self: self.arena.lifted("capture_values", self.depths))

    def capture_time(self, s: State | int) -> int | float:
        v = self.depths[self.arena.orbit(s)]
        return INFINITY if v >= INT_INF else int(v)

    def finite_mask(self) -> np.ndarray:
        return self.values < INT_INF

    # -- optimal moves ----------------------------------------------------------

    @property
    def edge_opt(self) -> np.ndarray:
        """Boolean per CSR edge: does this move attain the mover's optimum?

        Cop movers keep value-minimizing moves, the robber keeps maximizing
        ones. At a state of value INT_INF the cop rows keep every move (all
        are equally hopeless) and the robber rows keep exactly the moves that
        stay at INT_INF.
        """
        a = self.arena
        return a.memo(
            "capture_edge_opt", lambda: a.moves.best_edges(self.values, a.robber_mover_mask())
        )

    def orbit_edge_opt(self) -> np.ndarray:
        """`Solution.orbit_edge_opt`, memoized on the arena: the
        positionality tests read it again and again."""
        return self.arena.memo("capture_orbit_edge_opt", super().orbit_edge_opt)

    # -- attribution ------------------------------------------------------------

    def _orbit_bits(self) -> np.ndarray:
        """Per orbit of the arena's quotient, the bitmask of cops that can
        be credited with capture. Memoized on the arena.

        Capture states carry the cops sitting on the robber. A finite
        noncapture state carries the union over all optimal plays from it,
        computed level by level in increasing value. Every optimal move
        steps the value down by exactly one, and every move to a successor
        of value one less is optimal (it attains the row's minimum for a
        cop and its maximum for the robber), so a level of value t ORs the
        bits of its successors of value t-1, which are already resolved,
        in one column sweep over the level's rows.
        Automorphisms map optimal plays onto ones with the same captors.
        """
        a, q = self.arena, self.arena.quotient()

        def build() -> np.ndarray:
            bits, values = np.zeros(q.at_robber.shape[1], dtype=np.uint32), self.depths
            for j, at in enumerate(q.at_robber):
                bits |= at.astype(np.uint32) << np.uint32(j)
            bits = bits.repeat(a.n_players)  # orbit i is tuple orbit i // N
            finite_nc = np.flatnonzero(~q.capture & (values < INT_INF))
            depth = values[finite_nc]
            if depth.size:
                # a small unsigned dtype lets the stable sort run as a radix sort
                order = np.argsort(depth.astype(np.min_scalar_type(depth.max())), kind="stable")
                by_value, depth = finite_nc[order], depth[order]
                cuts = np.flatnonzero(np.diff(depth)) + 1
                read = q.moves.row_reader()
                for level, t in zip(np.split(by_value, cuts), depth[np.r_[0, cuts]]):
                    succ = read(level)
                    succ_bits = np.where(values.take(succ) == t - 1, bits.take(succ), np.uint32(0))
                    bits[level] = q.moves.row_fold(np.bitwise_or, succ_bits)
            return bits

        return a.memo("cop_bits", build)

    def _walk_to_capture(self, start: int, bit: int) -> tuple[State, ...]:
        bits, q = self._orbit_bits(), self.arena.quotient()

        def step(cur: int, _) -> tuple[int, bool]:
            targets, opt = self.optimal(np.array([cur]))
            kept = targets[opt & (bits.take(q.orbit_of(targets)) & bit != 0)]
            if not kept.size:  # pragma: no cover - bits are unions over these successors
                raise ScarError(f"capture attribution: cop bit {bit} lost along optimal "
                                f"play from {self.arena.state_of(start).literal()}")
            return int(kept[0]), False

        return walk(self.arena, start, step, int(self.depths[q.orbit_of(start)])).states

    def orbit_capturer(self) -> np.ndarray:
        """int8 per orbit: the unique capturing cop on finite noncapture
        orbits, 0 elsewhere. Raises UniquenessViolationError (with two
        witness plays) if any state admits optimal captures by two cops."""
        return self.arena.memo("orbit_capturer", self._capturer)

    def capturer_table(self) -> np.ndarray:
        """`orbit_capturer()` per state."""
        return self.arena.lifted("capturer", self.orbit_capturer())

    def _capturer(self) -> np.ndarray:
        a, q = self.arena, self.arena.quotient()
        bits = self._orbit_bits()
        finite_nc = ~q.capture & (self.depths < INT_INF)
        multi = finite_nc & ((bits & (bits - 1)) != 0)
        if multi.any():
            at = np.flatnonzero(multi)[0]  # its representative is the first such state
            idx, m = int(q.reps[at]), int(bits[at])
            first = m & -m
            second_m = m & ~first
            second = second_m & -second_m
            raise UniquenessViolationError(
                f"state {a.state_of(idx).literal()} admits optimal captures by "
                f"cop {first.bit_length()} and cop {second.bit_length()}",
                play_a=self._walk_to_capture(idx, first),
                play_b=self._walk_to_capture(idx, second),
            )
        capturer = np.zeros(len(bits), dtype=np.int8)
        for b in range(a.n_players - 1):
            capturer[finite_nc & (bits == np.uint32(1 << b))] = b + 1
        return capturer


def forced_capture_depths(arena: Arena, chasing: np.ndarray) -> np.ndarray:
    """Per orbit of the arena's quotient, the moves to a capture that the
    movers of the orbits marked in `chasing` can force while every other
    mover flees; INT_INF where they cannot."""
    q = arena.quotient()
    init = np.where(q.capture, 0, INT_INF).astype(np.int64)
    return solve_layers(q.moves, chasing, q.capture, init, predecessors=q.preds)


def capture_depths(arena: Arena) -> np.ndarray:
    """The capture-time game's value per orbit, memoized on the arena."""
    cops = range(1, arena.n_players)
    return arena.memo(
        "capture_depths", lambda: forced_capture_depths(arena, arena.quotient().turns(*cops))
    )


def solve_capture_time(arena: Arena) -> CrSolution:
    """Solve the joint capture-time game on the arena (its tables are
    memoized on the arena)."""
    return CrSolution(arena, capture_depths(arena), ~arena.quotient().turns(arena.n_players))


def capture_attribution(sol: CrSolution, s: State | int) -> tuple[int, int]:
    """(capturing cop, capture time) for a noncapture state of finite value."""
    orbit = sol.arena.orbit(s, "attribution is defined for noncapture states")
    t = sol.depths[orbit]
    if t >= INT_INF:
        raise ValidationError("attribution is defined only where capture is forced")
    return int(sol.orbit_capturer()[orbit]), int(t)


# ---------------------------------------------------------------------------
# classic simultaneous-move pursuit
# ---------------------------------------------------------------------------


def _classic_wins(graph: Graph, cop_count: int, max_states: int) -> np.ndarray:
    """Per (cops, robber) cell, a (V^k, V) bool array: can k cops moving
    first force a capture in the classic game?"""
    v, k = graph.vertex_count, count_of(cop_count, 1, "at least one cop")
    named = f"classic arena on {v} vertices with k={k} cops"
    capped_count(2, v, k + 1, max_states, named)
    capped_count(k + 1, v, 0, max_states, named)  # the arena's turns; implied above unless V = 1
    arena = Arena(graph, k + 1, max_states=(k + 1) * v ** (k + 1))
    cop_1_moves = capture_depths(arena).reshape(-1, k + 1)[arena.quotient().mix_orbit, 0]
    return (cop_1_moves < INT_INF).reshape(v**k, v)


def classic_cop_win(graph: Graph, cop_count: int, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Do k cops win the simultaneous-move game from *every* start (cops to
    move first)?"""
    return bool(_classic_wins(graph, cop_count, max_states).all())


def classic_cop_win_placement(
    graph: Graph, cop_count: int, max_states: int = DEFAULT_MAX_STATES
) -> bool:
    """Variant where the cops choose their starting tuple first and the robber
    answers with the worst vertex for them."""
    return bool(_classic_wins(graph, cop_count, max_states).all(axis=1).any())


def classic_cop_number(
    graph: Graph, k_max: int | None = None, max_states: int = DEFAULT_MAX_STATES
) -> int | float:
    """Least k <= k_max with classic_cop_win, else math.inf. k_max defaults
    to the vertex count (every graph is caught by that many cops)."""
    k_max = graph.vertex_count if k_max is None else count_of(k_max, 1, "k_max of at least 1")
    for k in range(1, k_max + 1):
        if classic_cop_win(graph, k, max_states):
            return k
    return math.inf
