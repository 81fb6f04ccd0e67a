"""The move structure shared by every solver in the package.

A position assigns one vertex to each of N tokens: cops 1..N-1 and the robber
(token N). A *state* is a position plus whose turn it is; turns cycle
1, 2, ..., N, 1, ... and exactly one token moves per turn, either staying put
or crossing one edge. Time is counted in single token moves throughout.

A state is a *capture* state when some cop shares the robber's vertex.
Capture states are absorbing: they keep successor lists (the move structure
is defined uniformly) but every solver treats them as terminal.

States are packed densely: index = ((x1*V + x2)*V + ... + xN)*N + (mover-1),
so |states| = V^N * N. Row s of the successor table lists s with the
mover's token moved to each vertex of its closed neighbourhood, in
ascending order, the turn advanced. Every move table is a `Csr`, a
read-only `(rows, width)` array whose shorter rows repeat their last
entry, so every layer runs the same column sweeps and row gathers on every
graph. The successor table's width is the largest closed neighbourhood,
max(deg)+1.

A move changes a state's index by an amount that depends only on the
mover t and its vertex u, so one memoized shift table (`Arena._shift`, row
t*V + u, made from the padded closed neighbourhoods of `Arena._hops`)
gives any rows of the successor table: `Arena.columns(rows)` one column
at a time, `_slots` the full table in one gather. No solver builds the
full table. A solved game's optimal moves at any states are one read of
their rows (`Solution.optimal`); `succ_indices` makes one row alone, and
a simulated play (`walk`) checks each move against it.

Every solver (capture time, attribution, coalitions, classify's guarantee
games, the discounted games, the positionality tests) runs on the quotient
by Aut(G) (`graphs.automorphisms`): an automorphism applied to every token
keeps moves, captures, captors and turns, so answers are constant on orbits.
Row i of the quotient is the row of orbit i's smallest state, each target
replaced by its orbit, duplicates and padding kept, under every group, the
trivial one included. Its predecessor table is a listing table (see
`Csr`): row i holds the orbit of each predecessor of orbit i's smallest
state, since an automorphism carries a move of P's rep into t's orbit
onto a move of a state of P's orbit into t's rep, and back. A move
changes one token, so moving token j of each orbit's tuple gives both
tables' rows at once (the previous mover j of a turn-(j+1) state came
from its closed neighbourhood), with no sort (`_quotient`). The exact
reverse (`Csr.reverse`) is made only for a full arena's `predecessors()`
and a table handed to `fixpoint.retrograde` alone. Answers stay per
orbit: a single state reads its orbit (`Arena.orbit`), a summary weighs
orbits by their sizes (`Quotient.count`), and a per-state table is lifted
(`Arena.lifted`) only when a caller reads one. The capture test is read
off the digits of a state, or per position tuple (`noncapture_tuples`),
so no full `capture_mask` is built for them, for a play or for a flood
from one start. A solved game is a `Solution`. The orbits are labelled
one vertex orbit at a time, down its Schreier tree (`_tuple_orbits`).

`_flood` spreads from a seed one frontier at a time over the rows of a
`Csr`, a wide frontier marked and a narrow one kept by `distinct` as
`fixpoint.retrograde` counts its levels, with no sort.
`reachable_noncapture` floods forward from one start by the same rule,
but over position tuples: every state of a level has the same mover, so
a level is a set of V^N tuples and a step moves that one token, with a
tuple holding a cop on the robber's vertex never entered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IllegalMoveError, StateCountExceededError, ValidationError
from .graphs import Automorphisms, Graph, automorphisms, is_path_graph, path_order
from .limits import DEFAULT_MAX_STATES, arena_size, capped_count, count_of

INFINITY = math.inf

# A frontier whose row list holds at least n / WIDE_FRONTIER entries, out of
# n states, is counted over every state at once instead of being sorted.
WIDE_FRONTIER = 16

# The quotient build gathers its per-entry arrays in blocks of about this
# many entries, so its temporaries stay small on large arenas.
CHUNK = 2**15


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
        state = State(cops, int(parts[1]), int(parts[2]))
    except ValueError:
        raise ValidationError(f"non-integer field in state literal {text!r}") from None
    return checked_state(state, n_players, vertex_count, f"state literal {text!r}")


def checked_state(s: State, n_players: int, vertex_count: int, named: str | None = None) -> State:
    """s, unless it lacks n_players - 1 cops, a vertex in range or a mover
    in 1..n_players; a refusal names s by `named`, else by its literal."""
    bad = [x for x in (*s.cops, s.robber) if not 0 <= x < vertex_count]
    if len(s.cops) != n_players - 1:
        fault = f"lists {len(s.cops)} cops; expected {n_players - 1}"
    elif bad:
        fault = f"has vertex {bad[0]} out of range 0..{vertex_count - 1}"
    elif not 1 <= s.mover <= n_players:
        fault = f"has mover {s.mover} out of range 1..{n_players}"
    else:
        return s
    raise ValidationError(f"{named or f'state {format_state(s)}'} {fault}")


class Arena:
    """Dense state space + CSR successor table for one (graph, N) pair."""

    def __init__(self, graph: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES):
        n_players = count_of(n_players, 2, "at least 2 players")
        v = graph.vertex_count
        named = f"arena on {arena_size(v, n_players)}"
        self.n_states = capped_count(n_players, v, n_players, max_states, named)
        # a stride per token is listed at once: the count keeps N below 64 on
        # a graph with an edge, but a one-vertex graph has only N states, so
        # there N is held to the default cap whatever max_states says
        if n_players > DEFAULT_MAX_STATES:
            raise StateCountExceededError(
                f"{named} exceeds the limit of {DEFAULT_MAX_STATES} players")
        self.graph = graph
        self.n_players = n_players
        self._strides = [v ** (n_players - j) for j in range(1, n_players + 1)]
        self._memo: dict = {}

    # -- construction -------------------------------------------------------

    # the successor table, built on first use, and its int64 arrays
    moves = property(lambda self: self.memo("successors", lambda: Csr(self._slots())))
    offsets = property(lambda self: self.moves.offsets)
    targets = property(lambda self: self.moves.targets)
    # the successor table's row width: the largest closed neighbourhood
    width = property(lambda self: self._hops().shape[1])

    def _hops(self) -> np.ndarray:
        """Row u: the change from vertex u to each member of its closed
        neighbourhood, in ascending order, padded to the largest size with
        the last (int64). Memoized."""

        def build() -> np.ndarray:
            nbhd = [self.graph.closed_neighborhood(u) for u in range(self.graph.vertex_count)]
            width = max(map(len, nbhd))
            return np.array([np.subtract(c + c[-1:] * (width - len(c)), u)
                             for u, c in enumerate(nbhd)], dtype=np.int64)

        return self.memo("hops", build)

    def _shift(self) -> np.ndarray:
        """Row t*V + u: the index change of each move of token t from vertex
        u, the turn advanced, in the order of `_hops()` row u. Memoized."""

        def build() -> np.ndarray:
            n, hop = self.n_players, self._hops()
            stride = np.array(self._strides, dtype=np.int64)[:, None, None] * n
            advance = np.where(np.arange(n) < n - 1, 1, 1 - n)[:, None, None]
            return (hop * stride + advance).reshape(-1, hop.shape[1])

        return self.memo("shift", build)

    def _key(self, rows: np.ndarray) -> np.ndarray:
        """Per state of `rows`, its row of `_shift()`: mover t and vertex u."""
        n, v = self.n_players, self.graph.vertex_count
        token = rows % n
        return token * v + rows // (np.array(self._strides, dtype=np.int64) * n)[token] % v

    def _slots(self) -> np.ndarray:
        """The full successor table as an (n_states, width) int64 array:
        one gather off `_shift()`."""
        rows = np.arange(self.n_states)
        table = self._shift()[self._key(rows)]
        table += rows[:, None]
        return table

    def columns(self, rows: np.ndarray):
        """The successor table's entries at `rows`, one array per column,
        each made only when the one before it has been read."""
        shift, key = self._shift(), self._key(rows)
        return (rows + shift[key, r] for r in range(shift.shape[1]))

    def successor_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The successor rows of `rows` as one (rows, width) array padded as
        `columns` pads, each entry's orbit and each row's orbit."""
        q = self.quotient()
        targets = np.stack(list(self.columns(rows)), axis=-1)
        return targets, q.orbit_of(targets), q.orbit_of(rows)

    # -- state codec --------------------------------------------------------

    def index(self, s: State) -> int:
        n, v = self.n_players, self.graph.vertex_count
        if not isinstance(s, State):
            raise ValidationError(f"need a State, got {type(s).__name__} {s!r}")
        checked_state(s, n, v)
        mix = 0
        for x in (*s.cops, s.robber):
            mix = mix * v + x
        return mix * n + (s.mover - 1)

    def index_of(self, s: State | int) -> int:
        """The index of s, given as a State or as an index already (any
        integer type, numpy's included, but bool)."""
        if isinstance(s, State):
            return self.index(s)
        if count_of(s, 0, "a State or a state index") >= self.n_states:
            raise ValidationError(f"state index {s} out of range")
        return int(s)

    def state_of(self, idx: State | int) -> State:
        """The state at idx, given as `index_of` takes it."""
        n, v = self.n_players, self.graph.vertex_count
        idx = self.index_of(idx)
        digits = [idx // n // stride % v for stride in self._strides]
        return State(tuple(digits[:-1]), digits[-1], idx % n + 1)

    # -- queries ------------------------------------------------------------

    # per state: does some cop share the robber's vertex? Built on first use
    capture_mask = property(lambda self: self.memo("capture_mask", lambda: np.repeat(
        ~self.noncapture_tuples(), self.n_players)))

    def cops_at_robber(self, mixes: np.ndarray) -> np.ndarray:
        """Per cop m (row m-1) and position tuple (a state index // N): does
        cop m sit on the robber's vertex?"""
        v = self.graph.vertex_count
        return np.array([mixes // stride % v == mixes % v for stride in self._strides[:-1]])

    def noncapture_tuples(self) -> np.ndarray:
        """Per position tuple (a state index // N): does no cop sit on the
        robber's vertex? One bool pass per cop, with its axis and the
        robber's viewed apart, and no integer array over the tuples."""
        n, v = self.n_players, self.graph.vertex_count
        free = np.ones(v**n, dtype=bool)
        apart = ~np.eye(v, dtype=bool)[:, None, :]  # (cop's vertex, 1, robber's vertex)
        for m in range(n - 1):
            view = free.reshape(v**m, v, -1, v)
            view &= apart
        return free

    def is_capture(self, s: State | int) -> bool:
        return is_capture(self.state_of(s))

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
        """Row idx of the successor table, computed on its own, unpadded."""
        key = int(self._key(np.int64(idx)))
        u = key % self.graph.vertex_count
        return idx + self._shift()[key, :len(self.graph.closed_neighborhood(u))]

    def noncapture_indices(self) -> np.ndarray:
        """The noncapture states, ascending, from `noncapture_tuples`: each
        position tuple's N states in a row, so the states where token t
        moves are the slice [t-1::N]."""
        mixes = np.flatnonzero(self.noncapture_tuples())
        return (mixes[:, None] * self.n_players + np.arange(self.n_players)).reshape(-1)

    def robber_mover_mask(self) -> np.ndarray:
        """Per state: is the robber to move?"""
        return _turns(self.n_players, self.n_states, (self.n_players,))

    def memo(self, key, build):
        """The table derived from this arena under `key`, made by `build()`
        on first use and kept for the arena's lifetime, its arrays read-only
        since every later caller shares them."""
        if key not in self._memo:
            self._memo[key] = _read_only(build())
        return self._memo[key]

    def predecessors(self) -> Csr:
        """The reverse of `moves` (`Csr.reverse`). Memoized."""
        return self.memo("predecessors", lambda: self.moves.reverse())

    def quotient(self) -> Quotient:
        """The orbit quotient under `automorphisms`. Memoized."""
        return self.memo("quotient", lambda: _quotient(self))


@dataclass(frozen=True)
class Quotient:
    """An arena's orbits under graph automorphisms acting on every token:
    orbit i holds `sizes[i]` states (unsigned, of the least width that holds
    the largest), the smallest `reps[i]`, ascending, so the first state
    with a property constant on orbits is the rep of the first orbit with
    it. `at_robber[m-1, i // N]` says if cop m sits on the robber in orbit
    i (the N orbits of one orbit of position tuples share it), and
    `capture[i]` if any cop does. Row i of `moves` lists the orbit of each
    of reps[i]'s successors, in order, duplicates kept, padded like the
    arena's rows; `preds` is a listing table of `moves` (see `Csr`), row
    i the orbit of each of reps[i]'s predecessors, `listed` from the build."""

    n_players: int
    mix_orbit: np.ndarray  # per position tuple, the index of its orbit of tuples (unsigned)
    reps: np.ndarray
    sizes: np.ndarray
    at_robber: np.ndarray
    capture: np.ndarray
    moves: Csr
    preds: Csr

    def orbit_of(self, idx):
        """The orbit of state idx (an int or an int array); int64, since
        the narrow `mix_orbit` would wrap when multiplied by N."""
        mix = self.mix_orbit[idx // self.n_players].astype(np.int64)
        return mix * self.n_players + idx % self.n_players

    def count(self, mask: np.ndarray) -> int:
        """How many states lie in the orbits that mask marks."""
        return int(self.sizes[mask].sum())

    def turns(self, *tokens: int) -> np.ndarray:
        """Per orbit: is the token to move one of `tokens`?"""
        return _turns(self.n_players, len(self.reps), tokens)

    def lift(self, per_orbit: np.ndarray) -> np.ndarray:
        """Per state, the entry of its orbit."""
        return per_orbit.reshape(-1, self.n_players)[self.mix_orbit].reshape(-1)


def _turns(n_players: int, rows: int, tokens: tuple[int, ...]) -> np.ndarray:
    """Per row of a table whose turns cycle 1..n_players: is the token to
    move one of `tokens`?"""
    turn = np.zeros(n_players, dtype=bool)
    turn[[t - 1 for t in tokens]] = True
    return np.tile(turn, rows // n_players)


def _tuple_orbits(group: Automorphisms, v: int, n: int):
    """The orbits of the position tuples (mixed radix V, first token most
    significant) under `group`, as `automorphisms` gives one: (mix_orbit,
    each tuple's orbit index in a (V, V^(N-1)) table of the least unsigned
    dtype; roots, each orbit's least tuple, ascending; counts, each
    orbit's size).

    The maps in the group sending x1 to the least vertex m of its orbit
    are Stab(m)·u for any one of them, u, so the least image of (x1, tail)
    is m followed by the least image of u(tail) under Stab(m), and its
    orbit holds |orbit(m)| times that tail's count under Stab(m). So per
    vertex orbit only m's V^(N-1) tails are labelled (`_tail_ranks`), row m
    of `mix_orbit` being offset(m), the orbits of the smaller m, plus their
    ranks; down the orbit's Schreier tree, (p(x), tail) shares (x, p⁻¹(tail))'s
    orbit, so row p(x) is row x, as a (V,)*(N-1) array, taken through p⁻¹
    along each token's axis."""
    k = n - 1
    tails = v**k
    labelled, roots, counts = [], [], []
    offset = 0
    for tree, stab in group.orbits:
        m, size = tree[0][0], len(tree)
        tail_roots, rank = _tail_ranks(stab, v, k)
        roots.append(tail_roots + m * tails)
        counts.append(np.full(len(tail_roots), size) if rank is None else size * np.bincount(rank))
        labelled.append((m, tree, offset, rank))
        offset += len(tail_roots)
    mix_orbit = np.empty((v, tails), dtype=np.min_scalar_type(offset))
    inverses = [np.array(sorted(range(v), key=p.__getitem__)) for p in group.generators]
    for m, tree, offset, rank in labelled:
        mix_orbit[m] = np.add(np.arange(tails) if rank is None else rank, offset, dtype=np.int64)
        for y, x, i in tree[1:]:
            row = mix_orbit[x].reshape((v,) * k)
            for axis in range(k):
                row = row.take(inverses[i], axis=axis)
            mix_orbit[y] = row.reshape(-1)
    return mix_orbit, np.concatenate(roots), np.concatenate(counts)


def _tail_ranks(stab, v: int, k: int):
    """The k-tuples (mixed radix V) under the group `stab` generates: (the
    least tuple of each orbit, ascending; per tuple the rank of its orbit
    among them, in the least unsigned dtype, or None when `stab` is empty
    and every tuple is its own orbit)."""
    every = np.arange(v**k)
    if not stab:
        return every, None
    label = _tail_labels(np.array(stab, dtype=_index_dtype(len(every))), k)
    is_root = label == every
    roots = np.flatnonzero(is_root)
    rank = np.cumsum(is_root, dtype=np.min_scalar_type(len(roots)))
    rank -= 1  # tuple 0 is a root, so no rank wraps
    return roots, np.take(rank, label)


def _tail_labels(perms: np.ndarray, k: int) -> np.ndarray:
    """Per k-tuple (mixed radix V), the least tuple of its orbit under the
    rows of `perms`: each one's image of the tuples is made once, in perms'
    dtype, then each round lowers every label to its image's under each of
    them and jumps pointers (label[label]), until a fixpoint."""
    rows, v = perms.shape
    images = np.zeros((rows, 1), dtype=perms.dtype)
    for _ in range(k):  # one more token, least significant, at a time
        images = ((images * v)[:, :, None] + perms[:, None, :]).reshape(rows, -1)
    label = np.arange(images.shape[1])
    while True:
        moved = label.copy()
        for image in images:
            np.minimum(moved, np.take(moved, image), out=moved)
        moved = np.take(moved, moved)
        if np.array_equal(moved, label):
            return label
        label = moved


def _quotient(arena: Arena) -> Quotient:
    n, v = arena.n_players, arena.graph.vertex_count
    mix_orbit, roots, counts = _tuple_orbits(automorphisms(arena.graph), v, n)
    mix_orbit = mix_orbit.reshape(-1)
    reps = (roots[:, None] * n + np.arange(n)).ravel()
    # one gather per token of every column at once, by blocks of roots whose
    # entries number at most max(roots, CHUNK): no temporary outgrows one
    # int64 per root
    dtype = _index_dtype(len(reps))
    moves, preds = (np.empty((len(reps), arena.width), dtype=dtype) for _ in range(2))
    listed = np.zeros((len(roots), n), dtype=np.int64)  # [o, j]: token j's gathers naming o
    step = max(1, max(len(roots), CHUNK) // arena.width)
    for j, stride in enumerate(arena._strides):
        hop = arena._hops().T * stride  # (width, V): column c's change from each vertex
        for lo in range(0, len(roots), step):
            block = roots[lo:lo + step]
            at = np.take(hop, block // stride % v, axis=1)
            at += block
            mix = mix_orbit[at]  # (width, block): one gather per token and block
            listed[:, j] += np.bincount(mix.reshape(-1), minlength=len(roots))
            orbit = np.multiply(mix, n, dtype=dtype)
            end = (lo + len(block)) * n
            np.add(orbit, (j + 1) % n, out=moves[lo * n + j:end:n].T)
            np.add(orbit, j, out=preds[lo * n + (j + 1) % n:end:n].T)
    at_robber = arena.cops_at_robber(roots)
    capture = np.repeat(at_robber.any(axis=0), n)
    sizes = np.repeat(counts.astype(np.min_scalar_type(counts.max())), n)
    _read_only((mix_orbit, reps, sizes, at_robber, capture))
    listed = listed.reshape(-1).astype(np.min_scalar_type(listed.max()))
    return Quotient(n, mix_orbit, reps, sizes, at_robber, capture, Csr(moves), Csr(preds, listed))


def _index_dtype(size: int):
    """int32 for indices below `size` while they fit, else int64."""
    return np.int32 if size < 2**31 else np.int64


def _read_only(value):
    """value, with every ndarray in it (in tuples and lists too) read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


@dataclass(frozen=True, eq=False)
class Csr:
    """A read-only table of rows that all hold `width` >= 1 entries: row i
    is `table[i]`. A row with fewer moves repeats its last one, which
    changes no min, max, OR, "some entry" or "every entry" test over it,
    and a count of marked entries counts it as often as its original.
    Unpacks as CSR (offsets, targets) arrays.

    A predecessor table of a move table is a *listing* table: row t lists
    each row that names t, at least once and as often as it likes, and
    holds nothing else but pads, entries naming t itself. Its `listed`,
    set by the table's maker, counts each state's listings (unsigned);
    a move table leaves it None. `fixpoint.retrograde` pays a max row's
    count one listing at a time, so it settles with its last successor
    however often each is listed, and reads row t only once t is settled,
    so a pad pays nothing and a max row listed in its own row is never
    paid in full. A game on a subset of the moves keeps the table: `moves`
    repeats a kept entry of a row in place of a cut move, the cut move's
    listings become pads, and `listed` is lowered to match."""

    table: np.ndarray
    listed: np.ndarray | None = None

    def __post_init__(self):
        _read_only((self.table, self.listed))

    width = property(lambda self: self.table.shape[1])
    targets = property(lambda self: self.table.reshape(-1))

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        return _read_only(np.arange(0, self.table.size + 1, self.width))

    def __iter__(self):
        return iter((self.offsets, self.targets))

    @classmethod
    def measured(cls, offsets, targets) -> Csr:
        """The table of CSR arrays made elsewhere, each row padded with its
        own last entry; no row may be empty."""
        offsets, targets = np.asarray(offsets), np.asarray(targets)
        sizes = np.diff(offsets)
        if not sizes.size or sizes.min() < 1:
            raise ValidationError("every row of a move table must hold a move")
        # per row, the slot each column reads: its own while it has one, else its last
        slots = np.minimum(np.arange(sizes.max()), sizes[:, None] - 1)
        return cls(targets[offsets[:-1, None] + slots])

    def row_fold(self, ufunc, edge_values: np.ndarray, dtype=None) -> np.ndarray:
        """ufunc folded over each row, given one value per entry of some
        rows in the order `row_reader` lists them: one pass per column."""
        table = edge_values.reshape(-1, self.width)
        out = table[:, 0].astype(dtype or table.dtype)
        for c in range(1, self.width):
            ufunc(out, table[:, c], out=out)
        return out

    def row_counts(self, edge_mask: np.ndarray) -> np.ndarray:
        """Per row, how many of its entries edge_mask marks (int64)."""
        return self.row_fold(np.add, edge_mask, np.int64)

    def row_reader(self):
        """A function from row indices to the concatenation of those rows
        (`take` along the rows: a 2-D fancy index gathers far slower), as
        intp. The table stays int32 while its entries fit; the rows read
        are widened once, as numpy converts a narrower index array again
        at every gather or scatter it indexes."""
        table = self.table
        return lambda rows: table.take(rows, axis=0).reshape(-1).astype(np.intp, copy=False)

    def columns(self, rows: np.ndarray):
        """The entries of `rows`, one array per column: views of one `take`."""
        return self.table.take(rows, axis=0).T

    def reverse(self) -> Csr:
        """The exact reverse, duplicates kept, a listing table: row t lists
        every (row s, column) entry naming t by its s, ascending, then pads
        with t up to the largest in-degree, and `listed` is the width, an
        entry naming its own row included. `_flood` reads row t only once t
        is seen, so it steps into no pad. Sources are int32 while they fit."""
        n, width = self.table.shape
        degree = np.bincount(self.table.reshape(-1), minlength=n)
        # ordered by target, then source; equal keys are equal entries
        keys = np.multiply(self.table, n, dtype=np.int64)
        keys += np.arange(n)[:, None]
        keys = keys.reshape(-1)
        keys.sort()
        np.remainder(keys, n, out=keys)
        own = np.arange(n, dtype=_index_dtype(n))[:, None]
        preds = np.repeat(own, int(degree.max()), axis=1)
        preds[np.arange(preds.shape[1]) < degree[:, None]] = keys  # row-major: by target
        return Csr(preds, np.full(n, width, dtype=np.min_scalar_type(width)))


def row_best(columns, max_mask: np.ndarray) -> np.ndarray:
    """Per row, the largest of its entries' keys on max_mask rows, the
    smallest elsewhere, given one array of keys per column (a generator
    need not hold a key per entry at once)."""
    columns = iter(columns)
    largest = next(columns).copy()
    smallest = largest.copy()
    for column in columns:
        np.maximum(largest, column, out=largest)
        np.minimum(smallest, column, out=smallest)
    np.copyto(smallest, largest, where=max_mask)
    return smallest


@dataclass(eq=False)
class Solution:
    """A game solved on an arena's orbit quotient, held as the engine
    returns it (`fixpoint.retrograde`): per orbit its `rank`, which orders
    the orbits as the engine's keys do, and whether its mover is `eager`.
    An eager mover takes its row's smallest rank, every other mover the
    largest; the moves to that rank are its optimal moves. `rank` is made
    read-only."""

    arena: Arena
    rank: np.ndarray
    eager: np.ndarray

    def __post_init__(self):
        self.rank.flags.writeable = False

    def optimal(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`Arena.successor_rows(rows)`'s rows, and which entries are `best`."""
        targets, orbits, at = self.arena.successor_rows(rows)
        return targets, self.best(orbits, at)

    def best(self, orbits: np.ndarray, at) -> np.ndarray:
        """Per entry of rows in orbits `at` (an index or a slice) with
        targets in `orbits`: is its rank the mover's best, the row's least
        if eager, else its largest?"""
        rank = self.rank[orbits]
        return rank == row_best(rank.T, ~self.eager[at])[..., None]

    def opt_indices(self, s: State | int) -> np.ndarray:
        """The optimal successors of noncapture state s, ascending, each
        once."""
        idx = self.arena.index_of(s)
        self.arena.orbit(idx, "no moves are defined from a capture state")
        targets, opt = self.optimal(np.array([idx]))
        return np.unique(targets[opt])

    def orbit_edge_opt(self) -> np.ndarray:
        """Per edge of the quotient's move table: does the move attain its
        mover's optimum? Capture rows are marked too; no caller reads them."""
        return self.best(self.arena.quotient().moves.table, slice(None)).reshape(-1)

    def opt_moves(self, s: State | int) -> tuple[State, ...]:
        return tuple(self.arena.state_of(int(j)) for j in self.opt_indices(s))


def build_arena(
    graph: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES
) -> Arena:
    return Arena(graph, n_players, max_states=max_states)


def is_capture(s: State) -> bool:
    """Position-only capture test (no arena needed)."""
    return s.robber in s.cops


def distinct(values: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """values without repeats, in no set order, found without a sort: each
    value writes its positions into `slot`, a scratch array indexed by
    value, and only the position that stays is kept."""
    at = np.arange(values.size)
    slot[values] = at
    return values[slot[values] == at]


def _flood(table: Csr, seed: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Mask of states reachable from the seed mask along the rows of
    `table` without ever stepping into (or out of) a blocked state; seeds
    are included as-is."""
    n = len(blocked)
    seen = seed & ~blocked
    fresh = ~(seen | blocked)  # states a step may still enter
    frontier = np.flatnonzero(seen)
    slot = np.empty(n, dtype=np.int64)
    while frontier.size:
        if WIDE_FRONTIER * frontier.size * table.width >= n:
            hit = np.zeros(n, dtype=bool)
            for column in table.columns(frontier):
                hit[column] = True
            frontier = np.flatnonzero(hit & fresh)
        else:
            nbrs = np.concatenate(list(table.columns(frontier)))
            frontier = distinct(nbrs[fresh.take(nbrs)], slot)
        fresh[frontier] = False
        seen[frontier] = True
    return seen


def reachable_noncapture(arena: Arena, s0: State | int) -> np.ndarray:
    """Sorted indices of every noncapture state reachable from s0 along
    successor steps that never enter a capture state (s0 included).

    Every state of one level has the same mover t, so a level is a set of
    position tuples (mixes, below V^N) and a step moves token t alone;
    `WIDE_FRONTIER` picks the form of each. A wide level is a bool mask
    over the tuples, viewed as (V^t, V, V^(N-1-t)) with token t's axis
    moved first: as moves are symmetric, a tuple with t at x is reached
    when the level holds it with t at some u in x's closed neighbourhood,
    so the step ORs one gather along that axis per column of the padded
    neighbourhoods. A narrow level is an array of mixes whose successors
    are kept by `distinct`. `seen` is (V^N, N), so its flat order is the
    state index."""
    start = arena.index_of(s0)
    if arena.is_capture(start):
        raise ValidationError("reachability is defined from a noncapture state")
    n, v = arena.n_players, arena.graph.vertex_count
    tuples, hops = v**n, arena._hops()
    nbhd = hops + np.arange(v)[:, None]
    shifts = [hops * v ** (n - 1 - t) for t in range(n)]  # a narrow step's mix changes
    # a wide step gathers column 0 of the neighbourhoods for every vertex,
    # then each later column only for the vertices whose entry differs from
    # the one before (a pad repeats it), all of them as a slice
    later = []
    for before, column in zip(nbhd.T, nbhd.T[1:]):
        rows = np.flatnonzero(column != before)
        later.append((slice(None), column) if rows.size == v else (rows, column[rows]))
    free = arena.noncapture_tuples()
    seen = np.zeros((tuples, n), dtype=bool)
    # `distinct`'s scratch: a narrow level lists fewer than V^N successors
    slot = np.empty(tuples, dtype=_index_dtype(tuples))
    mix, t = divmod(start, n)
    seen[mix, t] = True
    level, size = np.array([mix]), 1
    while size:  # token t moves from every state of the level
        stride, shift = v ** (n - 1 - t), shifts[t]
        t = (t + 1) % n
        entered = seen[:, t]  # the successors' column, a view: marking it marks seen
        if WIDE_FRONTIER * size * nbhd.shape[1] >= tuples:
            if level.dtype != bool:
                mask = np.zeros(tuples, dtype=bool)
                mask[level] = True
                level = mask
            # the mover's axis first, so that each gather copies whole blocks
            level = np.ascontiguousarray(level.reshape(-1, v, stride).swapaxes(0, 1))
            hit = level[nbhd[:, 0]]
            for rows, sources in later:
                hit[rows] |= level[sources]
            level = hit.swapaxes(0, 1).reshape(-1)
            level &= free
            level &= ~entered
            size = np.count_nonzero(level)
            entered |= level
        else:
            if level.dtype == bool:
                level = np.flatnonzero(level)
            level = (level[:, None] + shift[level // stride % v]).reshape(-1)
            level = distinct(level[free[level] & ~entered[level]], slot)
            size = level.size
            entered[level] = True
    return np.flatnonzero(seen)


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
    (an array, a dict or a callable). Deterministic profiles must repeat a
    state before 2*|states| moves, so the default budget makes the inf
    verdict certain.
    """
    choose = profile if callable(profile) else profile.__getitem__
    return walk(arena, arena.index_of(s0),
                lambda cur, _: (checked_move(arena, cur, int(choose(cur))), False),
                2 * arena.n_states if max_steps is None else max_steps)


def checked_move(arena: Arena, cur: int, nxt: int) -> int:
    """nxt, refused with IllegalMoveError unless it is a successor of cur;
    a nxt that is no state is named by its index."""
    if nxt not in arena.succ_indices(cur):
        named = arena.state_of(nxt).literal() if 0 <= nxt < arena.n_states else f"state index {nxt}"
        raise IllegalMoveError(f"{named} is not a successor of {arena.state_of(cur).literal()}")
    return nxt


def walk(arena: Arena, start: int, step, max_steps: int) -> Play:
    """The Play from state index `start`, where step(cur, t) gives the
    t-th move's target and the walker's mode after it (False at the
    start). It ends at a capture, found from the state's digits, after
    `max_steps` moves, or at a (mode, state) pair seen before, which a
    deterministic walker repeats forever."""
    trail, seen, cycled = [start], {(False, start)}, False
    while not cycled and not arena.is_capture(trail[-1]) and len(trail) <= max_steps:
        nxt, mode = step(trail[-1], len(trail))
        trail.append(nxt)
        cycled = (mode, nxt) in seen
        seen.add((mode, nxt))
    states = tuple(map(arena.state_of, trail))
    if is_capture(states[-1]):
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
