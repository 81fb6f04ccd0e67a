"""State-indexed cop numbers via coalition reachability games.

c(G|s) asks: from state s, how many cops must cooperate to force a capture
when every other token — the robber *and* the cops left out of the coalition
— plays adversarially? A coalition of size k wins from s iff s is finite in
the fixpoint where coalition movers minimize and everyone else maximizes;
any capture state counts as a win, even one an adversarial cop blunders
into. Reachability games are positionally determined, so the attractor
decision is exact despite the definition quantifying over arbitrary
strategy profiles.

The subset search enumerates coalitions by increasing size (there are at
most 2^(N-1) - 1 of them and N stays small), caching each winning set on the
arena so sweeps, single queries and the classifier share work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arena import DEFAULT_MAX_STATES, Arena, State, build_arena
from .errors import ValidationError
from .fixpoint import INT_INF
from .graphs import Graph
from .crsolver import capture_depths, classic_cop_number, forced_capture_depths


def _coalition_key(arena: Arena, coalition) -> frozenset[int]:
    cs = frozenset(int(c) for c in coalition)
    n = arena.n_players
    if not cs or not all(1 <= c <= n - 1 for c in cs):
        raise ValidationError(
            f"coalition must be a nonempty subset of cops 1..{n - 1}, got {sorted(cs)}"
        )
    return cs


def coalition_winning_set(arena: Arena, coalition) -> np.ndarray:
    """Boolean per state: can this cop coalition force reaching a capture
    state against adversarial play of all other tokens? Cached on the arena.
    The coalition of all N-1 cops chases on every move but the robber's,
    which is the capture-time game, so it reads that game's values."""
    cs = _coalition_key(arena, coalition)

    def build() -> np.ndarray:
        if len(cs) == arena.n_players - 1:
            return capture_depths(arena) < INT_INF
        return forced_capture_depths(arena, arena.mover_mask(*cs)) < INT_INF

    return arena.memo(("coalition", cs), build)


def guaranteed_capture(arena: Arena, s: State | int, coalition) -> bool:
    idx = arena.index_of(s)
    if arena.capture_mask[idx]:
        raise ValidationError("guaranteed capture is asked from noncapture states")
    return bool(coalition_winning_set(arena, coalition)[idx])


def state_cop_number(arena: Arena, s: State | int) -> int | float:
    """Least coalition size that wins from s; math.inf when even all
    N-1 cops together cannot force a capture."""
    idx = arena.index_of(s)
    if arena.capture_mask[idx]:
        raise ValidationError("the state cop number is defined on noncapture states")
    n = arena.n_players
    for size in range(1, n):
        for coalition in combinations(range(1, n), size):
            if coalition_winning_set(arena, coalition)[idx]:
                return size
    return math.inf


@dataclass
class StateCopReport:
    """c(G|s) over the whole arena. values uses INT_INF for infinity and 0 on
    capture rows (where the number is undefined); witness_bits packs the
    first minimal winning coalition as a bitmask (bit j-1 = cop j)."""

    arena: Arena
    values: np.ndarray
    witness_bits: np.ndarray

    def value(self, s: State | int) -> int | float:
        idx = self.arena.index_of(s)
        if self.arena.capture_mask[idx]:
            raise ValidationError("the state cop number is defined on noncapture states")
        v = self.values[idx]
        return math.inf if v >= INT_INF else int(v)

    def witness_coalition(self, s: State | int) -> tuple[int, ...]:
        bits = int(self.witness_bits[self.arena.index_of(s)])
        return tuple(j + 1 for j in range(self.arena.n_players - 1) if bits >> j & 1)

    def max_over_noncapture(self) -> int | float:
        m = int(self.values[self.arena.noncapture_indices()].max())
        return math.inf if m >= INT_INF else m


def state_cop_report(arena: Arena) -> StateCopReport:
    """Sweep c(G|s) for every noncapture state, with minimal witnesses."""
    n = arena.n_players
    values = np.full(arena.n_states, INT_INF, dtype=np.int64)
    values[arena.capture_mask] = 0
    witness = np.zeros(arena.n_states, dtype=np.uint32)
    open_mask = ~arena.capture_mask
    for size in range(1, n):
        for coalition in combinations(range(1, n), size):
            won = coalition_winning_set(arena, coalition)
            newly = open_mask & won
            values[newly] = size
            witness[newly] = sum(1 << (c - 1) for c in coalition)
            open_mask &= ~won
        if not open_mask.any():
            break
    return StateCopReport(arena, values, witness)


@dataclass(frozen=True)
class TheoremCrosscheck:
    """Both sides of the classic-vs-state cop number equivalence: the classic
    simultaneous-move cop number (math.inf = exceeds k_max) against the max
    of c(G|s) over noncapture states, with a witness when they disagree."""

    n_players: int
    classic_cop_number: int | float
    max_state_cop_number: int | float
    agree: bool
    witness: str | None = None


def _hardest_state(g: Graph, n_players: int, max_states: int) -> tuple[int | float, str]:
    """max c(G|s) over noncapture states, and a state attaining it. Its
    arena is freed on return, before the classic arena is built."""
    arena = build_arena(g, n_players, max_states)
    report = state_cop_report(arena)
    nc = arena.noncapture_indices()
    at = int(nc[np.argmax(report.values[nc])])
    return report.max_over_noncapture(), arena.state_of(at).literal()


def crosscheck_theorem(
    g: Graph, n_players: int, k_max: int | None = None, max_states: int = DEFAULT_MAX_STATES
) -> TheoremCrosscheck:
    """classic c(G) = K <= N-1 should match max_s c(G|s) = K, and c(G) > N-1
    should match max_s c(G|s) = inf."""
    if k_max is None:
        k_max = n_players - 1
    if k_max < n_players - 1:
        raise ValidationError(f"k_max must be at least N-1 = {n_players - 1}")
    state_side, hardest = _hardest_state(g, n_players, max_states)
    classic_side = classic_cop_number(g, k_max, max_states)
    if state_side == math.inf:
        agree = classic_side > n_players - 1  # including inf from the k_max cutoff
    else:
        agree = classic_side == state_side
    return TheoremCrosscheck(n_players, classic_side, state_side, agree,
                             None if agree else hardest)
