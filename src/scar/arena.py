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
no structure gives its predecessor table: `Csr.reverse` sorts it, cheaply
at that size. The trivial group gives the arena. Their answers stay per
orbit: a single state reads its orbit (`Arena.orbit`), a summary weighs
orbits by their sizes (`Quotient.count`), and a per-state table is lifted
(`Arena.lifted`) only when a caller reads one. The capture test is read
off the digits of a state, so no full `capture_mask` is built for them.

Every table is a `Csr`, which carries its width: d when every row holds
d >= 1 entries, as both tables do with d = deg+1 on a regular graph, else
None. Its row methods (`row_best`, `row_counts`, `row_fold`, `per_edge`,
`row_reader`) work a table of width d as a `(rows, d)` view, a column
sweep and a plain row gather, and a ragged one with `reduceat` and
`concat_ranges`. Each builder decides the width from the row sizes it
has, and the arrays are read-only; `Csr.measured` reads the width off
arrays made outside the package.

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

    # -- construction -------------------------------------------------------

    # the successor table, built on first use, and its int64 arrays
    moves = property(lambda self: self.memo("successors", lambda: self._slots(False)))
    offsets = property(lambda self: self.moves.offsets)
    targets = property(lambda self: self.moves.targets)

    def _slots(self, back: bool, rows: np.ndarray | None = None) -> Csr:
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
        targets = np.empty(widths.sum(), np.int32 if back and self.n_states < 2**31 else np.int64)
        table = Csr.of_sizes(widths, targets.view())  # read-only; written through `targets`
        first = table.offsets[:-1]
        for r in range(width):
            if r < narrowest:
                # every row has slot r; on a rectangular table it is every
                # width-th cell, a strided write rather than a scatter
                cells = slice(r, None, width) if narrowest == width else first + r
                targets[cells] = idx + shift[r][key]
            else:
                at = np.flatnonzero(widths > r)
                targets[first[at] + r] = idx[at] + shift[r][key[at]]
        return table

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
        digits = [idx // n // stride % v for stride in self._strides]
        return State(tuple(digits[:-1]), digits[-1], idx % n + 1)

    # -- queries ------------------------------------------------------------

    # per state: does some cop share the robber's vertex? Built on first use
    capture_mask = property(lambda self: self.memo("capture_mask", lambda: np.repeat(
        self.cops_at_robber(np.arange(self.n_states // self.n_players)).any(axis=0),
        self.n_players)))

    def cops_at_robber(self, mixes: np.ndarray) -> np.ndarray:
        """Per cop m (row m-1) and position tuple (a state index // N): does
        cop m sit on the robber's vertex?"""
        v = self.graph.vertex_count
        return np.array([mixes // stride % v == mixes % v for stride in self._strides[:-1]])

    def is_capture(self, s: State | int) -> bool:
        return is_capture(self.state_of(self.index_of(s)))

    def orbit(self, s: State | int, refusal: str | None = None) -> int:
        """The quotient orbit of s; a capture state is refused with `refusal`, if given."""
        idx = self.index_of(s)
        if refusal and self.is_capture(idx):
            raise ValidationError(refusal)
        return int(self.quotient().orbit_of(idx))

    def lifted(self, key, per_orbit: np.ndarray) -> np.ndarray:
        """A per-orbit array of the quotient, per state. Memoized."""
        return self.memo(key, lambda: self.quotient().lift(per_orbit))

    def mover_of(self, idx: int) -> int:
        return idx % self.n_players + 1

    def succ_indices(self, idx: int) -> np.ndarray:
        """Row idx of the successor table, computed on its own."""
        n, token = self.n_players, idx % self.n_players
        stride = self._strides[token] * n
        u, step = idx // stride % self.graph.vertex_count, 1 if token < n - 1 else 1 - n
        return idx + step + (np.array(self.graph.closed_neighborhood(u)) - u) * stride

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
        on first use and kept for the arena's lifetime, its arrays read-only
        since every later caller shares them."""
        if key not in self._memo:
            self._memo[key] = _read_only(build())
        return self._memo[key]

    def predecessors(self) -> Csr:
        """The table of predecessor lists, equal to `moves.reverse()`: int64
        offsets and, while state ids fit, int32 sources in ascending order.
        Memoized."""
        return self.memo("predecessors", lambda: self._slots(back=True))

    def quotient(self) -> Quotient:
        """The orbit quotient under `automorphism_generators`. Memoized."""
        return self.memo("quotient", lambda: _quotient(self))


@dataclass(frozen=True)
class Quotient:
    """An arena's orbits under graph automorphisms acting on every token:
    orbit i holds `sizes[i]` states (made on each read), the smallest
    `reps[i]`, ascending, so the first state with a property constant on
    orbits is the rep of the first orbit with it. `at_robber[m-1, i]` says
    if cop m sits on the robber there, `capture[i]` if any does. Row i of
    `moves` lists the orbit of each of reps[i]'s successors, in order,
    duplicates kept, and `preds` is the reverse of `moves`."""

    n_players: int
    mix_orbit: np.ndarray  # per position tuple, the index of its orbit of tuples
    reps: np.ndarray
    at_robber: np.ndarray
    capture: np.ndarray
    moves: Csr
    preds: Csr

    sizes = property(lambda self: np.repeat(np.bincount(self.mix_orbit), self.n_players))

    def orbit_of(self, idx):
        """The orbit of state idx (an int or an int array)."""
        return self.mix_orbit[idx // self.n_players] * self.n_players + idx % self.n_players

    def count(self, mask: np.ndarray) -> int:
        """How many states lie in the orbits that mask marks."""
        return int(self.sizes[mask].sum())

    def turns(self, *tokens: int) -> np.ndarray:
        """Per orbit: is the token to move one of `tokens`?"""
        turn = np.isin(np.arange(1, self.n_players + 1), tokens)
        return np.tile(turn, len(self.reps) // self.n_players)

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
    is_root = label == np.arange(v**n)
    roots, mix_orbit = np.flatnonzero(is_root), (np.cumsum(is_root) - 1)[label]
    del label, is_root  # V^N entries each, not needed while the tables are built
    reps = (roots[:, None] * n + np.arange(n)).ravel()
    if len(reps) == arena.n_states:  # the trivial group: the arena itself
        moves, preds = arena.moves, arena.predecessors()
    else:
        moves = arena._slots(back=False, rows=reps)
        orbits = mix_orbit[moves.targets // n] * n + moves.targets % n
        moves = Csr.of_sizes(np.diff(moves.offsets), orbits)  # its own, writable row starts
        preds = moves.reverse()
    at_robber = np.repeat(arena.cops_at_robber(roots), n, axis=1)
    capture = at_robber.any(axis=0)
    _read_only((mix_orbit, reps, at_robber, capture))
    return Quotient(n, mix_orbit, reps, at_robber, capture, moves, preds)


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


def _read_only(value):
    """value, with every ndarray in it (in tuples and lists too) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


def _columns(ufunc, table: np.ndarray, dtype=None) -> np.ndarray:
    """ufunc folded across the columns of a 2-D array: one pass per column."""
    out = table[:, 0].astype(dtype or table.dtype)
    for c in range(1, table.shape[1]):
        ufunc(out, table[:, c], out=out)
    return out


@dataclass(frozen=True, eq=False)
class Csr:
    """A table in CSR form: row i lists targets[offsets[i]:offsets[i+1]].
    `width` is d when every row holds d >= 1 entries, else None; the
    methods read a table of width d as a `(rows, d)` array. Both arrays
    are read-only, so the width stays true. Unpacks as (offsets, targets)."""

    offsets: np.ndarray
    targets: np.ndarray
    width: int | None

    def __post_init__(self):
        # numpy copies a read-only array passed as reduceat indices or as
        # bincount input, so those read the row starts and the targets
        # through views taken before the arrays turn read-only
        object.__setattr__(self, "_starts", self.offsets[:-1])
        object.__setattr__(self, "_targets", self.targets.view())
        self.offsets.flags.writeable = self.targets.flags.writeable = False

    def __iter__(self):
        return iter((self.offsets, self.targets))

    @classmethod
    def of_sizes(cls, sizes: np.ndarray, targets: np.ndarray) -> Csr:
        """Row i holds the next sizes[i] entries of `targets`; the width comes from the sizes."""
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        width = int(sizes[0]) if sizes.size and sizes.min() == sizes.max() > 0 else None
        return cls(offsets, targets, width)

    @classmethod
    def measured(cls, offsets, targets) -> Csr:
        """The table of arrays made elsewhere, its width read off the offsets."""
        offsets, targets = np.asarray(offsets).view(), np.asarray(targets).view()
        n = len(offsets) - 1
        d = int(offsets[-1]) // n if n > 0 else 0
        same = d > 0 and np.array_equal(offsets, np.arange(0, d * n + 1, d))
        return cls(offsets, targets, d if same else None)

    def per_edge(self, row_values: np.ndarray) -> np.ndarray:
        """Each row's value repeated once per edge of the row."""
        return np.repeat(row_values, np.diff(self.offsets) if self.width is None else self.width)

    def row_counts(self, edge_mask: np.ndarray) -> np.ndarray:
        """Per row (none empty), how many of its edges edge_mask marks (int64)."""
        if self.width is not None:
            return _columns(np.add, edge_mask.reshape(-1, self.width), np.int64)
        return np.add.reduceat(edge_mask, self._starts, dtype=np.int64)

    def row_fold(self, ufunc, rows: np.ndarray, edge_values: np.ndarray) -> np.ndarray:
        """ufunc folded over each of `rows` (none of them empty), given one
        value per edge of those rows in the order `row_reader` lists them."""
        if self.width is not None:
            return _columns(ufunc, edge_values.reshape(-1, self.width))
        sizes = self.offsets[rows + 1] - self.offsets[rows]
        return ufunc.reduceat(edge_values, np.cumsum(sizes) - sizes)

    def row_best(self, succ_keys: np.ndarray, max_mask: np.ndarray) -> np.ndarray:
        """Per row (none empty), the best of its edges' `succ_keys`: the
        largest on max_mask rows, the smallest elsewhere."""
        if self.width is not None:
            table = succ_keys.reshape(-1, self.width)
            return np.where(max_mask, _columns(np.maximum, table), _columns(np.minimum, table))
        seg = self._starts
        return np.where(
            max_mask, np.maximum.reduceat(succ_keys, seg), np.minimum.reduceat(succ_keys, seg)
        )

    def row_reader(self):
        """A function from row indices to the concatenation of those rows."""
        offsets, targets = self
        if self.width is None:
            return lambda rows: targets[concat_ranges(offsets[rows], offsets[rows + 1])]
        table = targets.reshape(-1, self.width)
        return lambda rows: table[rows].ravel()

    def best_edges(self, keys: np.ndarray, max_mask: np.ndarray) -> np.ndarray:
        """Per edge (no row empty): is the target's key its row's best, the
        largest on max_mask rows and the smallest elsewhere?"""
        sv = keys[self.targets]
        return sv == self.per_edge(self.row_best(sv, max_mask))

    def filter(self, keep: np.ndarray) -> Csr:
        """The table holding only the edges marked in `keep`."""
        return Csr.of_sizes(self.row_counts(keep), self.targets[keep])

    def reverse(self) -> Csr:
        """The predecessor table: int64 offsets and, while state ids fit,
        int32 sources, each list in ascending order. A sort of every edge,
        for tables with no structure to build it from."""
        n = len(self.offsets) - 1
        counts = np.bincount(self._targets, minlength=n)
        # ordered by target, then source; equal keys are equal entries
        keys = self.per_edge(np.arange(n, dtype=np.int64))
        keys += np.asarray(self.targets, dtype=np.int64) * n
        keys.sort()
        np.remainder(keys, n, out=keys)
        return Csr.of_sizes(counts, keys.astype(np.int32 if n < 2**31 else np.int64))


class OptimalMoves:
    """Optimal-move lookups shared by the solution types. A subclass sets
    `arena` and defines `_row_keys(idx, row)`: the keys of the states in
    `row`, the successors of state idx, and whether idx's mover takes the
    largest key (the smallest otherwise). The moves to a row's best key
    are its mover's optimal moves."""

    arena: Arena

    def opt_indices(self, s: State | int) -> np.ndarray:
        """The optimal successors of noncapture state s, ascending: the
        targets of row s whose key equals the row's best."""
        idx = self.arena.index_of(s)
        if self.arena.is_capture(idx):
            raise ValidationError("no moves are defined from a capture state")
        row = self.arena.succ_indices(idx)
        succ, largest = self._row_keys(idx, row)
        return row[succ == (succ.max() if largest else succ.min())]

    def opt_moves(self, s: State | int) -> tuple[State, ...]:
        return tuple(self.arena.state_of(int(j)) for j in self.opt_indices(s))


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


def _flood(moves: Csr, seed: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Mask of states reachable from the seed mask along `moves` without
    ever stepping into (or out of) a blocked state; seeds are included
    as-is."""
    read = moves.row_reader()
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
    return np.nonzero(_flood(arena.moves, seed, arena.capture_mask))[0]


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
