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
arena so sweeps, single queries and the classifier share work. The sweep
stops as soon as no noncapture orbit is left open, even inside a size: a
later coalition would only mark open orbits, so values and witnesses are
those of the full sweep. On path:12 with N=4, where cop 1 alone wins
from every noncapture orbit, that is one coalition game instead of three.
Winning sets and c(G|s) are constant on orbits of the graph's
automorphisms, so they are solved and kept per orbit of
`Arena.quotient()`, like the capture times.
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


def coalition_wins(arena: Arena, coalition) -> np.ndarray:
    """Boolean per orbit of the arena's quotient: can this cop coalition
    force reaching a capture state against adversarial play of all other
    tokens? Cached on the arena. The coalition of all N-1 cops chases on
    every move but the robber's, which is the capture-time game, so it
    reads that game's values."""
    cs = _coalition_key(arena, coalition)

    def build() -> np.ndarray:
        if len(cs) == arena.n_players - 1:
            return capture_depths(arena) < INT_INF
        return forced_capture_depths(arena, arena.quotient().turns(*cs)) < INT_INF

    return arena.memo(("coalition", cs), build)


def coalition_winning_set(arena: Arena, coalition) -> np.ndarray:
    """`coalition_wins` per state."""
    cs = _coalition_key(arena, coalition)
    return arena.lifted(("coalition_states", cs), coalition_wins(arena, cs))


def guaranteed_capture(arena: Arena, s: State | int, coalition) -> bool:
    at = arena.orbit(s, "guaranteed capture is asked from noncapture states")
    return bool(coalition_wins(arena, coalition)[at])


def state_cop_number(arena: Arena, s: State | int) -> int | float:
    """Least coalition size that wins from s; math.inf when even all
    N-1 cops together cannot force a capture."""
    at = arena.orbit(s, "the state cop number is defined on noncapture states")
    n = arena.n_players
    for size in range(1, n):
        for coalition in combinations(range(1, n), size):
            if coalition_wins(arena, coalition)[at]:
                return size
    return math.inf


@dataclass(frozen=True)
class StateCopReport:
    """c(G|s) over the whole arena, per orbit of its quotient.
    orbit_values uses INT_INF for infinity and 0 on capture orbits (where
    the number is undefined); orbit_witness packs the first minimal winning
    coalition as a bitmask (bit j-1 = cop j). `values` and `witness_bits`
    are the per-state tables, lifted on first read."""

    arena: Arena
    orbit_values: np.ndarray
    orbit_witness: np.ndarray

    values = property(lambda self: self.arena.lifted("scn_values", self.orbit_values))
    witness_bits = property(lambda self: self.arena.lifted("scn_witness", self.orbit_witness))

    def value(self, s: State | int) -> int | float:
        at = self.arena.orbit(s, "the state cop number is defined on noncapture states")
        v = self.orbit_values[at]
        return math.inf if v >= INT_INF else int(v)

    def witness_coalition(self, s: State | int) -> tuple[int, ...]:
        bits = int(self.orbit_witness[self.arena.orbit(s)])
        return tuple(j + 1 for j in range(self.arena.n_players - 1) if bits >> j & 1)

    def max_over_noncapture(self) -> int | float:
        nc = ~self.arena.quotient().capture
        if not nc.any():
            raise ValidationError("the arena has no noncapture state")
        m = int(self.orbit_values[nc].max())
        return math.inf if m >= INT_INF else m


def state_cop_report(arena: Arena) -> StateCopReport:
    """Sweep c(G|s) for every noncapture orbit, with minimal witnesses,
    until no noncapture orbit is open. Memoized on the arena."""

    def sweep() -> tuple[np.ndarray, np.ndarray]:
        q, n = arena.quotient(), arena.n_players
        values = np.where(q.capture, 0, INT_INF)
        witness = np.zeros(len(q.reps), dtype=np.uint32)
        open_mask = ~q.capture
        by_size = (c for size in range(1, n) for c in combinations(range(1, n), size))
        for coalition in by_size:
            if not open_mask.any():
                break
            won = coalition_wins(arena, coalition)
            newly = open_mask & won
            values[newly] = len(coalition)
            witness[newly] = sum(1 << (c - 1) for c in coalition)
            open_mask &= ~won
        return values, witness

    return StateCopReport(arena, *arena.memo("state_cop", sweep))


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


def _hardest_state(
    g: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES
) -> tuple[int | float, str]:
    """max c(G|s) over noncapture states, and a state attaining it. Its
    arena is freed on return, before the classic arena is built."""
    report = state_cop_report(build_arena(g, n_players, max_states))
    hardest, q = report.max_over_noncapture(), report.arena.quotient()
    at = np.argmax(np.where(q.capture, -1, report.orbit_values))  # reps ascend
    return hardest, report.arena.state_of(int(q.reps[at])).literal()


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
    return _verdict(n_players, classic_cop_number(g, k_max, max_states), state_side, hardest)


def _verdict(
    n_players: int, classic_side: int | float, state_side: int | float, hardest: str
) -> TheoremCrosscheck:
    """The crosscheck of both sides, `hardest` its witness if they disagree."""
    if state_side == math.inf:
        agree = classic_side > n_players - 1  # including inf from the k_max cutoff
    else:
        agree = classic_side == state_side
    return TheoremCrosscheck(n_players, classic_side, state_side, agree,
                             None if agree else hardest)
