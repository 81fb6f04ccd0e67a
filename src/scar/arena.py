"""The move structure shared by every solver in the package.

A position assigns one vertex to each of N tokens: cops 1..N-1 and the robber
(token N). A *state* is a position plus whose turn it is; turns cycle
1, 2, ..., N, 1, ... and exactly one token moves per turn, either staying put
or crossing one edge. Time is counted in single token moves throughout.

A state is a *capture* state when some cop shares the robber's vertex.
Capture states are absorbing: they keep successor lists (the move structure
is defined uniformly) but every solver treats them as terminal.

States are packed densely: index = ((x1*V + x2)*V + ... + xN)*N + (mover-1),
so |states| = V^N * N. Successor lists are stored in CSR form and are
ordered by ascending target vertex of the moving token.

Both move tables are built slot by slot, on first use. Row s of the
successor table lists s with the mover's token moved to each vertex of
its closed neighbourhood, the turn advanced; slot r of the row is the
r-th such vertex, so the table is written in max(deg)+1 vectorised
passes, one per slot. The predecessors of s are s with the *previous*
mover's token moved the same way and the turn stepped back (moves are
symmetric), so the predecessor table comes from the same builder, already
ascending, with no sort. Only positionality, the discounted games and
reachability build full tables; `succ_indices` makes one row alone, and
`simulate` checks each move against it.

The integer layers (capture time, attribution, coalitions, classify's
guarantee games) run on the orbit quotient: a graph automorphism applied
to every token preserves moves, captures, captors and turns, so their
answers are constant on orbits. Row i of the quotient is the row of orbit
i's smallest state (`_slots` on those rows), each target replaced by its
orbit, duplicates kept. Those multiplicities differ with orbit sizes, so
no structure gives its predecessor table: `reverse_csr` sorts it, cheaply
at that size, and stays here for it. The trivial group gives the arena.

On a regular graph every row of both tables has width deg+1. The row
helpers (`row_best`, `row_counts`, `row_fold`, `per_edge`, `row_reader`)
work such a rectangular table as a `(rows, width)` view: a min/max or sum
sweep over the columns and a plain row gather. Ragged tables take
`reduceat` and `concat_ranges`. Each table's width is decided once, from
its row sizes when the package builds the table (`_decided`), and looked
up by its offsets array from then on; offsets made elsewhere are measured
on every call.

`reachable_noncapture` floods the successor table one frontier at a time,
with the width rule of `fixpoint.retrograde`: a frontier whose successor
list has at least n/16 entries (n states, `WIDE_FRONTIER` = 16) is marked
in a fresh bool array and read back with `flatnonzero`, a narrower one is
sorted with `np.unique`. Either way the next frontier is ascending, and the flood
stays linear in the edges it reads.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllegalMoveError, StateCountExceededError, ValidationError
from .graphs import Graph, automorphism_generators, is_path_graph, path_order

INFINITY = math.inf

DEFAULT_MAX_STATES = 10**7

# A frontier whose row list holds at least n / WIDE_FRONTIER entries, out of
# n states, is counted over every state at once instead of being sorted.
WIDE_FRONTIER = 16


def count_of(n, least: int, need: str) -> int:
    """n as an int, refused with "need <need>" unless it is an integer of
    at least `least`. Any integer type counts, numpy's included, but bool."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValidationError(f"need {need}, got {type(n).__name__} {n!r}")
    if n < least:
        raise ValidationError(f"need {need}, got {n}")
    return int(n)


@dataclass(frozen=True)
class GameParams:
    """Player count and payoff parameters for the discounted games.

    gamma is the per-move discount in (0,1); epsilon in [0, 1/(N-1)] splits a
    cop's payoff between "I captured" and "someone else captured". Passing
    allow_wide_epsilon=True relaxes the epsilon cap to 1/2.
    """

    n_players: int
    gamma: Fraction
    epsilon: Fraction
    allow_wide_epsilon: bool = False

    def __post_init__(self):
        n = count_of(self.n_players, 3, "at least 3 players (2 cops)")
        object.__setattr__(self, "n_players", n)
        if not isinstance(self.gamma, Fraction) or not 0 < self.gamma < 1:
            raise ValidationError(f"gamma must be a rational in (0,1), got {self.gamma}")
        cap = Fraction(1, 2) if self.allow_wide_epsilon else Fraction(1, n - 1)
        if not isinstance(self.epsilon, Fraction) or not 0 <= self.epsilon <= cap:
            raise ValidationError(
                f"epsilon must be a rational in [0, {cap}]"
                f"{' (wide)' if self.allow_wide_epsilon else ''}, got {self.epsilon}"
            )


@dataclass(frozen=True)
class State:
    """Cop positions (ordered, cops are distinguishable), robber position,
    and the 1-based index of the token that moves next."""

    cops: tuple[int, ...]
    robber: int
    mover: int

    def literal(self) -> str:
        return format_state(self)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.literal()


def format_state(s: State) -> str:
    """Render as the CLI literal "c1,...,ck;r;n"."""
    return ",".join(str(c) for c in s.cops) + f";{s.robber};{s.mover}"


def parse_state(text: str, n_players: int, vertex_count: int) -> State:
    """Parse "c1,...,ck;r;n" (0-based vertices, 1-based mover)."""
    parts = text.strip().split(";")
    if len(parts) != 3:
        raise ValidationError(f"state literal must have three ';' fields: {text!r}")
    try:
        cops = tuple(int(c) for c in parts[0].split(","))
        robber = int(parts[1])
        mover = int(parts[2])
    except ValueError:
        raise ValidationError(f"non-integer field in state literal {text!r}") from None
    if len(cops) != n_players - 1:
        raise ValidationError(
            f"state literal {text!r} lists {len(cops)} cops; expected {n_players - 1}"
        )
    for v in (*cops, robber):
        if not 0 <= v < vertex_count:
            raise ValidationError(f"vertex {v} out of range in state literal {text!r}")
    if not 1 <= mover <= n_players:
        raise ValidationError(f"mover {mover} out of range 1..{n_players} in {text!r}")
    return State(cops, robber, mover)


class Arena:
    """Dense state space + CSR successor table for one (graph, N) pair."""

    def __init__(self, graph: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES):
        n_players = count_of(n_players, 2, "at least 2 players")
        v = graph.vertex_count
        n_states = v**n_players * n_players
        if n_states > max_states:
            raise StateCountExceededError(
                f"arena would hold {n_states} states (> cap {max_states})"
            )
        self.graph = graph
        self.n_players = n_players
        self.n_states = n_states
        self._strides = [v ** (n_players - j) for j in range(1, n_players + 1)]
        self._memo: dict = {}
        self.capture_mask = np.logical_or.reduce(
            [self.cop_at_robber(j) for j in range(1, n_players)]
        )

    # -- construction -------------------------------------------------------

    # the successor table's int64 offsets and targets, built on first use
    offsets = property(lambda self: self.memo("successors", lambda: self._slots(False))[0])
    targets = property(lambda self: self.memo("successors", lambda: self._slots(False))[1])

    def _slots(self, back: bool, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The CSR table whose row s lists s with one token moved to each
        vertex of that token's closed neighbourhood, in ascending order: the
        mover's token with the turn advanced (successors), or with `back`
        the previous mover's token with the turn stepped back
        (predecessors). One vectorised pass per neighbour rank. With `rows`,
        an ascending int64 array of states, the table holds only their rows."""
        n, v = self.n_players, self.graph.vertex_count
        sizes, hop = closed_hops(self.graph)
        width, narrowest = hop.shape[1], int(sizes.min())
        stride = np.array(self._strides, dtype=np.int64) * n
        advance = np.where(np.arange(n) < n - 1, 1, 1 - n)
        turn = -advance if back else advance
        # shift[r, t*v + u]: the index change when token t moves from u to
        # the r-th vertex of its closed neighbourhood
        shift = (hop.T[:, None, :] * stride[:, None] + turn[:, None]).reshape(width, n * v)

        idx = np.arange(self.n_states, dtype=np.int64) if rows is None else rows
        token = (idx - int(back)) % n
        vertex = idx // stride[token] % v
        key = token * v + vertex
        widths = sizes[vertex]
        del token, vertex
        offsets = np.zeros(len(idx) + 1, dtype=np.int64)
        np.cumsum(widths, out=offsets[1:])
        targets = np.empty(offsets[-1], np.int32 if back and self.n_states < 2**31 else np.int64)
        first = offsets[:-1]
        for r in range(width):
            if r < narrowest:
                # every row has slot r; on a rectangular table it is every
                # width-th cell, a strided write rather than a scatter
                cells = slice(r, None, width) if narrowest == width else first + r
                targets[cells] = idx + shift[r][key]
            else:
                at = np.flatnonzero(widths > r)
                targets[first[at] + r] = idx[at] + shift[r][key[at]]
        return _decided(offsets, widths), targets

    # -- state codec --------------------------------------------------------

    def index(self, s: State) -> int:
        n, v = self.n_players, self.graph.vertex_count
        if len(s.cops) != n - 1:
            raise ValidationError(f"state has {len(s.cops)} cops; arena expects {n - 1}")
        if not 1 <= s.mover <= n:
            raise ValidationError(f"mover {s.mover} out of range")
        mix = 0
        for x in (*s.cops, s.robber):
            if not 0 <= x < v:
                raise ValidationError(f"vertex {x} out of range")
            mix = mix * v + x
        return mix * n + (s.mover - 1)

    def index_of(self, s: State | int) -> int:
        """The index of s, given as a State or as an index already (any
        integer type, numpy's included)."""
        if isinstance(s, State) or not isinstance(s, numbers.Integral):
            return self.index(s)
        if not 0 <= s < self.n_states:
            raise ValidationError(f"state index {s} out of range")
        return int(s)

    def state_of(self, idx: int) -> State:
        n, v = self.n_players, self.graph.vertex_count
        if not 0 <= idx < self.n_states:
            raise ValidationError(f"state index {idx} out of range")
        mover = idx % n + 1
        mix = idx // n
        digits = []
        for _ in range(n):
            digits.append(mix % v)
            mix //= v
        digits.reverse()
        return State(tuple(digits[:-1]), digits[-1], mover)

    # -- queries ------------------------------------------------------------

    def is_capture(self, s: State | int) -> bool:
        return bool(self.capture_mask[self.index_of(s)])

    def mover_of(self, idx: int) -> int:
        return idx % self.n_players + 1

    def succ_indices(self, idx: int) -> np.ndarray:
        """Row idx of the successor table, computed on its own."""
        n, token = self.n_players, idx % self.n_players
        stride = self._strides[token] * n
        u, step = idx // stride % self.graph.vertex_count, 1 if token < n - 1 else 1 - n
        return idx + step + (np.array(self.graph.closed_neighborhood(u)) - u) * stride

    def successors(self, s: State) -> list[State]:
        return [self.state_of(int(j)) for j in self.succ_indices(self.index(s))]

    def noncapture_indices(self) -> np.ndarray:
        return np.nonzero(~self.capture_mask)[0]

    def mover_mask(self, *tokens: int) -> np.ndarray:
        """Per state: is the token to move one of `tokens`?"""
        turn = np.isin(np.arange(1, self.n_players + 1), tokens)
        return np.tile(turn, self.n_states // self.n_players)

    def robber_mover_mask(self) -> np.ndarray:
        return self.mover_mask(self.n_players)

    def memo(self, key, build):
        """The table derived from this arena under `key`, made by `build()`
        on first use and kept for the arena's lifetime."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def cop_at_robber(self, m: int) -> np.ndarray:
        """Per state: does cop m sit on the robber's vertex? Memoized."""
        if not 1 <= m <= self.n_players - 1:
            raise ValidationError(f"cop {m} out of range 1..{self.n_players - 1}")

        def build() -> np.ndarray:
            v = self.graph.vertex_count
            mixes = np.arange(v**self.n_players, dtype=np.int64)
            at = (mixes // self._strides[m - 1]) % v == mixes % v
            return np.repeat(at, self.n_players)

        return self.memo(("cop_at_robber", m), build)

    def predecessors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR table of predecessor lists, equal to `reverse_csr(offsets,
        targets)`: int64 offsets and, while state ids fit, int32 sources in
        ascending order. Memoized."""
        return self.memo("predecessors", lambda: self._slots(back=True))

    def quotient(self) -> Quotient:
        """The orbit quotient under `automorphism_generators`. Memoized."""
        return self.memo("quotient", lambda: _quotient(self))


@dataclass(frozen=True)
class Quotient:
    """An arena's orbits under graph automorphisms acting on every token:
    orbit i stands for its smallest state `reps[i]` (ascending), and its row
    lists the orbit of each of reps[i]'s successors, in order, duplicates
    kept. State s lies in orbit `mix_orbit[s // N] * N + s % N`."""

    n_players: int
    mix_orbit: np.ndarray  # per position tuple, the index of its orbit of tuples
    reps: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    predecessors: tuple[np.ndarray, np.ndarray]

    def lift(self, per_orbit: np.ndarray) -> np.ndarray:
        """Per state, the entry of its orbit."""
        return per_orbit.reshape(-1, self.n_players)[self.mix_orbit].reshape(-1)


def _orbit_labels(gens: list[tuple[int, ...]], v: int, n: int) -> np.ndarray:
    """Per position tuple (mixed radix V), the smallest tuple of its orbit
    under the group `gens` generate: each round lowers every label to its
    image's under each generator, then jumps pointers (label[label]), until
    a fixpoint. Images are made afresh each round, in O(V^N) memory."""
    label = np.arange(v**n, dtype=np.int64)
    while True:
        moved = label
        for p in gens:
            image = functools.reduce(np.add.outer, [np.multiply(p, v**k) for k in range(n)][::-1])
            moved = np.minimum(moved, moved[image.ravel()])
        moved = moved[moved]
        if np.array_equal(moved, label):
            return label
        label = moved


def _quotient(arena: Arena) -> Quotient:
    n, v = arena.n_players, arena.graph.vertex_count
    label = _orbit_labels(automorphism_generators(arena.graph), v, n)
    roots = label == np.arange(v**n)
    mix_orbit = (np.cumsum(roots) - 1)[label]
    reps = (np.flatnonzero(roots)[:, None] * n + np.arange(n)).ravel()
    if len(reps) == arena.n_states:  # the trivial group: the arena itself
        return Quotient(n, mix_orbit, reps, arena.offsets, arena.targets, arena.predecessors())
    offsets, targets = arena._slots(back=False, rows=reps)
    targets = mix_orbit[targets // n] * n + targets % n
    return Quotient(n, mix_orbit, reps, offsets, targets, reverse_csr(offsets, targets))


def closed_hops(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex u, the size of its closed neighbourhood, and the table
    whose row u lists c - u for each member c, ascending, padded with zeros
    to the largest size."""
    nbhd = [graph.closed_neighborhood(u) for u in range(graph.vertex_count)]
    sizes = np.array([len(c) for c in nbhd], dtype=np.int64)
    hop = np.zeros((len(nbhd), int(sizes.max())), dtype=np.int64)
    for u, c in enumerate(nbhd):
        hop[u, : len(c)] = np.subtract(c, u)
    return sizes, hop


def reverse_csr(offsets: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The predecessor CSR of a successor CSR: int64 offsets and, while
    state ids fit, int32 sources, each list in ascending order. A sort of
    every edge, for tables with no structure to build it from."""
    n = len(offsets) - 1
    rows = per_edge(offsets, np.arange(n, dtype=np.int64))
    # ordered by target, then source; equal keys are equal entries
    keys = np.asarray(targets, dtype=np.int64) * n + rows
    del rows
    keys.sort()
    np.remainder(keys, n, out=keys)
    pred_offsets = np.zeros(n + 1, dtype=np.int64)
    counts = np.bincount(targets, minlength=n)
    np.cumsum(counts, out=pred_offsets[1:])
    return _decided(pred_offsets, counts), keys.astype(np.int32 if n < 2**31 else np.int64)


# A memo of `_measured` for the tables the package builds, under
# id(offsets); a weak reference to the offsets array drops the entry when
# the array dies, before its id can be reused.
_widths: dict[int, tuple[weakref.ref, int | None]] = {}


def _decided(offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Record the row width of a table just built from its row sizes, once,
    and return its offsets; `row_width` looks the width up from then on.
    The offsets must not change afterwards."""
    key = id(offsets)
    width = int(sizes[0]) if sizes.size and sizes.min() == sizes.max() > 0 else None
    _widths[key] = (weakref.ref(offsets, lambda _: _widths.pop(key, None)), width)
    return offsets


def row_width(offsets: np.ndarray) -> int | None:
    """The common width d >= 1 of every row of a CSR table, or None when
    the rows differ or there are none. The row helpers below read a table
    with width d as a `(rows, d)` array. Decided when the package built
    the table, measured for offsets made elsewhere."""
    known = _widths.get(id(offsets))
    if known is not None and known[0]() is offsets:
        return known[1]
    return _measured(offsets)


def _measured(offsets: np.ndarray) -> int | None:
    n = len(offsets) - 1
    if n <= 0:
        return None
    d, rest = divmod(int(offsets[-1]), n)
    if rest or d == 0 or not np.array_equal(offsets, np.arange(0, d * n + 1, d)):
        return None
    return d


def _columns(ufunc, table: np.ndarray, dtype=None) -> np.ndarray:
    """ufunc folded across the columns of a 2-D array: one pass per column."""
    out = table[:, 0].astype(dtype or table.dtype)
    for c in range(1, table.shape[1]):
        ufunc(out, table[:, c], out=out)
    return out


def per_edge(offsets: np.ndarray, row_values: np.ndarray) -> np.ndarray:
    """Each row's value repeated once per edge of the row."""
    d = row_width(offsets)
    return np.repeat(row_values, np.diff(offsets) if d is None else d)


def row_counts(offsets: np.ndarray, edge_mask: np.ndarray) -> np.ndarray:
    """Per row of a CSR table with no empty row, how many of its edges
    edge_mask marks (int64)."""
    d = row_width(offsets)
    if d is not None:
        return _columns(np.add, edge_mask.reshape(-1, d), np.int64)
    return np.add.reduceat(edge_mask, offsets[:-1], dtype=np.int64)


def row_fold(ufunc, offsets: np.ndarray, rows: np.ndarray, edge_values: np.ndarray) -> np.ndarray:
    """ufunc folded over each of `rows` (none of them empty), given one
    value per edge of those rows in the order `row_reader` lists them."""
    d = row_width(offsets)
    if d is not None:
        return _columns(ufunc, edge_values.reshape(-1, d))
    sizes = offsets[rows + 1] - offsets[rows]
    return ufunc.reduceat(edge_values, np.cumsum(sizes) - sizes)


def row_best(offsets: np.ndarray, succ_keys: np.ndarray, max_mask: np.ndarray) -> np.ndarray:
    """Per row of a CSR table with no empty row, the best of its
    successors' keys (succ_keys holds one key per edge): the largest on
    max_mask rows, the smallest elsewhere."""
    d = row_width(offsets)
    if d is not None:
        table = succ_keys.reshape(-1, d)
        return np.where(max_mask, _columns(np.maximum, table), _columns(np.minimum, table))
    seg = offsets[:-1]
    return np.where(
        max_mask, np.maximum.reduceat(succ_keys, seg), np.minimum.reduceat(succ_keys, seg)
    )


def row_reader(offsets: np.ndarray, targets: np.ndarray):
    """A function from an array of row indices to the concatenation of
    those rows of a CSR table."""
    d = row_width(offsets)
    if d is None:
        return lambda rows: targets[concat_ranges(offsets[rows], offsets[rows + 1])]
    table = targets.reshape(-1, d)
    return lambda rows: table[rows].ravel()


def filter_csr(
    offsets: np.ndarray, targets: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR table holding only the edges marked in `keep`."""
    new_offsets = np.zeros(len(offsets), dtype=np.int64)
    counts = row_counts(offsets, keep)
    np.cumsum(counts, out=new_offsets[1:])
    return _decided(new_offsets, counts), targets[keep]


class OptimalMoves:
    """Optimal-move lookups shared by the solution types. A subclass sets
    `arena` and defines `_opt_keys()`, the per-state keys and the mask of
    rows that take the largest successor key (the smallest elsewhere): the
    moves to a row's best key are its mover's optimal moves."""

    arena: Arena

    def _best_edges(self) -> np.ndarray:
        """Per edge of the arena's table: is it one of its row's best?"""
        return best_edges(self.arena.offsets, self.arena.targets, *self._opt_keys())

    def opt_indices(self, s: State | int) -> np.ndarray:
        """The optimal successors of noncapture state s, ascending: the
        targets of row s whose key equals the row's best."""
        idx = self.arena.index_of(s)
        if self.arena.capture_mask[idx]:
            raise ValidationError("no moves are defined from a capture state")
        keys, max_mask = self._opt_keys()
        row = self.arena.succ_indices(idx)
        succ = keys[row]
        return row[succ == (succ.max() if max_mask[idx] else succ.min())]

    def opt_moves(self, s: State | int) -> tuple[State, ...]:
        return tuple(self.arena.state_of(int(j)) for j in self.opt_indices(s))


def best_edges(offsets, targets, keys, max_mask) -> np.ndarray:
    """Per edge of a CSR table with no empty row: is the target's key its
    row's best, the largest on max_mask rows and the smallest elsewhere?"""
    sv = keys[targets]
    return sv == per_edge(offsets, row_best(offsets, sv, max_mask))


def build_arena(
    graph: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES
) -> Arena:
    return Arena(graph, n_players, max_states=max_states)


def is_capture(s: State) -> bool:
    """Position-only capture test (no arena needed)."""
    return s.robber in s.cops


def concat_ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Concatenation of arange(starts[i], ends[i]) without a Python loop."""
    counts = ends - starts
    keep = counts > 0
    starts, counts = starts[keep], counts[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    step = np.ones(int(counts.sum()), dtype=np.int64)
    step[0] = starts[0]
    cuts = np.cumsum(counts[:-1])
    step[cuts] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(step)


def _flood(offsets: np.ndarray, targets: np.ndarray, seed: np.ndarray,
           blocked: np.ndarray) -> np.ndarray:
    """Mask of states reachable from the seed mask without ever stepping
    into (or out of) a blocked state; seeds are included as-is."""
    read = row_reader(offsets, targets)
    n = len(blocked)
    seen = seed & ~blocked
    fresh = ~(seen | blocked)  # states a step may still enter
    frontier = np.flatnonzero(seen)
    while frontier.size:
        nbrs = read(frontier)
        if WIDE_FRONTIER * nbrs.size >= n:
            hit = np.zeros(n, dtype=bool)
            hit[nbrs] = True
            frontier = np.flatnonzero(hit & fresh)
        else:
            nbrs = np.unique(nbrs)
            frontier = nbrs[fresh[nbrs]]
        fresh[frontier] = False
        seen[frontier] = True
    return seen


def reachable_noncapture(arena: Arena, s0: State | int) -> np.ndarray:
    """Sorted indices of every noncapture state reachable from s0 along
    successor steps that never enter a capture state (s0 included)."""
    start = arena.index_of(s0)
    if arena.capture_mask[start]:
        raise ValidationError("reachability is defined from a noncapture state")
    seed = np.zeros(arena.n_states, dtype=bool)
    seed[start] = True
    return np.nonzero(_flood(arena.offsets, arena.targets, seed, arena.capture_mask))[0]


@dataclass(frozen=True)
class Play:
    """A simulated trajectory. capture_time is the number of token moves
    before the first capture state (inf when the play provably cycles or the
    step budget ran out); capturing_cops lists the 1-based cop indices at the
    robber's vertex when capture happened."""

    states: tuple[State, ...]
    capture_time: int | float
    capturing_cops: frozenset[int]
    cycled: bool = False


def simulate(arena: Arena, s0: State | int, profile, max_steps: int | None = None) -> Play:
    """Run a positional profile from s0.

    `profile` maps a noncapture state index to the chosen successor index
    (a dict or a callable). Deterministic profiles must repeat a state before
    2*|states| moves, so the default budget makes the inf verdict certain.
    """
    idx = arena.index_of(s0)
    if max_steps is None:
        max_steps = 2 * arena.n_states
    choose = profile if callable(profile) else profile.__getitem__
    trail = [idx]
    visited = {idx}
    cycled = False
    while not arena.capture_mask[trail[-1]] and len(trail) <= max_steps:
        nxt = checked_move(arena, trail[-1], int(choose(trail[-1])))
        trail.append(nxt)
        if nxt in visited:
            cycled = True
            break
        visited.add(nxt)
    return finished_play(arena, trail, cycled)


def checked_move(arena: Arena, cur: int, nxt: int) -> int:
    """nxt, refused with IllegalMoveError unless it is a successor of cur."""
    if nxt not in arena.succ_indices(cur):
        raise IllegalMoveError(
            f"{arena.state_of(nxt).literal()} is not a successor of "
            f"{arena.state_of(cur).literal()}"
        )
    return nxt


def finished_play(arena: Arena, trail: list[int], cycled: bool) -> Play:
    """The Play of a finished trail of state indices: a capture, with its
    time and captors, if the trail ends in one, else an escape."""
    states = tuple(arena.state_of(i) for i in trail)
    if arena.capture_mask[trail[-1]]:
        fin = states[-1]
        cops = frozenset(i + 1 for i, c in enumerate(fin.cops) if c == fin.robber)
        return Play(states, len(trail) - 1, cops)
    return Play(states, INFINITY, frozenset(), cycled=cycled)


def all_cops_one_side(g: Graph, s: State) -> bool:
    """On a path graph: do all cops sit strictly on one side of the robber?

    Raises ValidationError when g is not a path.
    """
    if not is_path_graph(g):
        raise ValidationError("one-side test is defined on path graphs only")
    pos = {v: i for i, v in enumerate(path_order(g))}
    rp = pos[s.robber]
    return all(pos[c] < rp for c in s.cops) or all(pos[c] > rp for c in s.cops)
