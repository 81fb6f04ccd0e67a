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
read-only `(rows, width)` array: a row with fewer entries than the widest
repeats its last one. A repeat changes no min, max, OR, "some entry" or
"every entry" test over the row, and a count of marked entries counts it
as often as its original, so every layer runs the same column sweeps and
row gathers on every graph. The successor table's width is the largest
closed neighbourhood, max(deg)+1.

A move changes a state's index by an amount that depends only on the
mover t and its vertex u, so one memoized shift table (`Arena._shift`, row
t*V + u, padded with its last entry) gives any rows of the successor
table: `Arena.columns(rows)` one column at a time, `_slots` the full table
in one gather. No solver builds the full table; `succ_indices` makes one
row alone, and `simulate` checks each move against it.

Every solver (capture time, attribution, coalitions, classify's guarantee
games, the discounted games and the positionality tests) runs on the orbit
quotient: a graph automorphism applied to every token preserves moves,
captures, captors and turns, so their answers are constant on orbits.
Row i of the quotient is the row of orbit i's smallest state, each target
replaced by its orbit, duplicates and padding kept, under every group, the
trivial one included. Those multiplicities differ with orbit sizes, so no
structure gives its predecessor table: `Csr.reverse` sorts it, cheaply at
that size, and fills each row to the largest in-degree with the row's own
index, which no solve or flood reads before that row is settled. Their
answers stay per orbit: a single state reads its orbit (`Arena.orbit`), a
summary weighs orbits by their sizes (`Quotient.count`), and a per-state
table is lifted (`Arena.lifted`) only when a caller reads one. The capture
test is read off the digits of a state, so no full `capture_mask` is built
for them.

`_orbit_labels` finds the orbits one token at a time: a position tuple's
first token goes to the least vertex m of its orbit under Aut(G), by a
product of generators that a breadth-first search over the vertices finds,
and the other N-1 tokens are carried along in one gather. Where the
stabiliser of m is not trivial, the carried tails are then lowered to
their least images under it: its Schreier generators, sifted by Sims'
filter, propagate minima over the V^(N-1) tails. The group work is plain
Python on permutation tuples of V points.

`_flood` spreads from a seed one frontier at a time over the rows of a
`Csr` or, for `reachable_noncapture`, over an arena's successor rows made
per frontier, with the width rule of `fixpoint.retrograde`: a frontier
whose rows hold at least n/16 entries (n states, `WIDE_FRONTIER` = 16) is
marked in a fresh bool array one column at a time and read back with
`flatnonzero`; a narrower one keeps its unseen entries, one copy of each
by `distinct`, with no sort. The next frontier's order is then not set,
and nothing reads it; the flood stays linear in the entries it reads.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import itemgetter, ne

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
    moves = property(lambda self: self.memo("successors", lambda: Csr(self._slots())))
    offsets = property(lambda self: self.moves.offsets)
    targets = property(lambda self: self.moves.targets)
    # the successor table's row width: the largest closed neighbourhood
    width = property(lambda self: self._shift().shape[1])

    def _shift(self) -> np.ndarray:
        """Row t*V + u: the index change of each move of token t from vertex
        u, the turn advanced, one per member of u's closed neighbourhood in
        ascending order, padded to the largest size with the last. Memoized."""

        def build() -> np.ndarray:
            n = self.n_players
            nbhd = [self.graph.closed_neighborhood(u) for u in range(self.graph.vertex_count)]
            width = max(map(len, nbhd))
            hop = np.array([np.subtract(c + c[-1:] * (width - len(c)), u)
                            for u, c in enumerate(nbhd)], dtype=np.int64)
            stride = np.array(self._strides, dtype=np.int64)[:, None, None] * n
            advance = np.where(np.arange(n) < n - 1, 1, 1 - n)[:, None, None]
            return (hop * stride + advance).reshape(-1, width)

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
        """Row idx of the successor table, computed on its own, unpadded."""
        key = int(self._key(np.int64(idx)))
        u = key % self.graph.vertex_count
        return idx + self._shift()[key, :len(self.graph.closed_neighborhood(u))]

    def noncapture_indices(self) -> np.ndarray:
        return np.nonzero(~self.capture_mask)[0]

    def mover_mask(self, *tokens: int) -> np.ndarray:
        """Per state: is the token to move one of `tokens`?"""
        turn = [t in tokens for t in range(1, self.n_players + 1)]
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
        """The reverse of `moves` (`Csr.reverse`). Memoized."""
        return self.memo("predecessors", lambda: self.moves.reverse())

    def quotient(self) -> Quotient:
        """The orbit quotient under `automorphism_generators`. Memoized."""
        return self.memo("quotient", lambda: _quotient(self))


@dataclass(frozen=True)
class Quotient:
    """An arena's orbits under graph automorphisms acting on every token:
    orbit i holds `sizes[i]` states (unsigned, of the least width that holds
    the largest), the smallest `reps[i]`, ascending, so the first state
    with a property constant on orbits is the rep of the first orbit with
    it. `at_robber[m-1, i]` says if cop m sits on the robber there,
    `capture[i]` if any does. Row i of `moves` lists the orbit of each of
    reps[i]'s successors, in order, duplicates kept, padded like the
    arena's rows, and `preds` is the exact reverse of `moves`
    (`Csr.reverse`)."""

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
        turn = [t in tokens for t in range(1, self.n_players + 1)]
        return np.tile(turn, len(self.reps) // self.n_players)

    def lift(self, per_orbit: np.ndarray) -> np.ndarray:
        """Per state, the entry of its orbit."""
        return per_orbit.reshape(-1, self.n_players)[self.mix_orbit].reshape(-1)


Perm = tuple[int, ...]


def _orbit_labels(gens: list[Perm], v: int, n: int) -> np.ndarray:
    """Per position tuple (mixed radix V, first token most significant),
    the smallest tuple of its orbit under the group G that `gens` generate,
    found one token at a time. The least image of (x1, tail) starts with
    the least vertex m of x1's orbit; the maps in G sending x1 to m are
    Stab(m)·u for any one of them, u, so its tail is the least image of
    u(tail) under Stab(m). One gather moves every vertex's tails by its u;
    where Stab(m) is not trivial, `_tail_labels` then labels the tails
    under its Schreier generators, sifted by Sims' filter."""
    cosets = _cosets(gens, v)
    home = {x: (m, back) for m, coset in cosets.items() for x, (_, back) in coset.items()}
    least = np.array([[home[x][0]] for x in range(v)], dtype=np.int64)
    label = _images(np.array([home[x][1] for x in range(v)], dtype=np.int64), n - 1)
    for coset in cosets.values():
        stab = _stabiliser(gens, coset) if n > 1 else []
        if stab:
            tail = _tail_labels(stab, v, n - 1)
            for x in coset:  # a row at a time: a view, not a fancy-indexed copy
                label[x] = tail[label[x]]
    label += least * v ** (n - 1)
    return label.reshape(-1)


def _images(perms: np.ndarray, k: int) -> np.ndarray:
    """Row r: the index (mixed radix V) of perms[r] applied to each k-tuple,
    in the order of the k-tuples' own indices."""
    rows, v = perms.shape
    image = np.zeros((rows, 1), dtype=np.int64)
    for _ in range(k):  # one more token, least significant, at a time
        image = ((image * v)[:, :, None] + perms[:, None, :]).reshape(rows, -1)
    return image


def _tail_labels(gens: list[Perm], v: int, k: int) -> np.ndarray:
    """Per k-tuple (mixed radix V), the smallest tuple of its orbit under
    ⟨gens⟩: each round lowers every label to its image's under each
    generator, then jumps pointers (label[label]), until a fixpoint. Each
    generator's image of the k-tuples is made once."""
    images = _images(np.array(gens, dtype=np.int64), k)
    label = np.arange(v**k, dtype=np.int64)
    while True:
        moved = label.copy()
        for image in images:
            np.minimum(moved, moved[image], out=moved)
        moved = moved[moved]
        if np.array_equal(moved, label):
            return label
        label = moved


def _cosets(gens: list[Perm], v: int) -> dict[int, dict[int, tuple[Perm, Perm]]]:
    """Per orbit of ⟨gens⟩ on the vertices, keyed by its least vertex m,
    ascending: per vertex x of the orbit, a product t of generators with
    t(m) = x, found by a breadth-first search, and its inverse."""
    cosets: dict[int, dict[int, tuple[Perm, Perm]]] = {}
    seen: set[int] = set()
    ident = tuple(range(v))
    for m in range(v):
        if m in seen:
            continue
        coset, queue = {m: (ident, ident)}, [m]
        for x in queue:
            for p in gens:
                if p[x] not in coset:
                    pt = _compose(p, coset[x][0])
                    coset[p[x]] = pt, _inverse(pt)
                    queue.append(p[x])
        cosets[m] = coset
        seen.update(coset)
    return cosets


def _stabiliser(gens: list[Perm], coset: dict[int, tuple[Perm, Perm]]) -> list[Perm]:
    """Generators of the stabiliser of an orbit's least vertex m, given
    the orbit's `_cosets` entry: the distinct Schreier generators
    t_{s(x)}^-1 · s · t_x, over the orbit's vertices x and generators s,
    sifted by `_sims_filter`. Empty when the stabiliser is trivial."""
    schreier = (_compose(coset[s[x]][1], _compose(s, t)) for x, (t, _) in coset.items()
                for s in gens)
    return _sims_filter(dict.fromkeys(schreier))


def _sims_filter(perms) -> list[Perm]:
    """Generators of the group `perms` generate, at most one per pair (i,
    j) of a first moved point i and its image j: each permutation is kept
    if its pair is new, else replaced by the kept one's inverse times it,
    which fixes i as well, and sifted on; an identity is dropped."""
    kept: dict[tuple[int, int], tuple[Perm, Perm]] = {}
    for p in perms:
        points = range(len(p))
        while (i := next(compress(points, map(ne, p, points)), None)) is not None:
            if (i, p[i]) not in kept:
                kept[i, p[i]] = p, _inverse(p)
                break
            p = _compose(kept[i, p[i]][1], p)
    return [p for p, _ in kept.values()]


def _compose(p: Perm, q: Perm) -> Perm:
    """p·q: i goes to p[q[i]], for permutations of V >= 2 points (a
    one-vertex graph has no generator to compose)."""
    return itemgetter(*q)(p)


def _inverse(p: Perm) -> Perm:
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def _quotient(arena: Arena) -> Quotient:
    n, v = arena.n_players, arena.graph.vertex_count
    label = _orbit_labels(automorphism_generators(arena.graph), v, n)
    is_root = np.zeros(v**n, dtype=bool)
    is_root[label] = True  # each label is a root, and each root its own label
    roots = np.flatnonzero(is_root)
    # no int64 V^N temporary: the least width that holds the orbit count;
    # tuple 0 is a root, so no running count is 0 and the - 1 cannot wrap
    mix_orbit = (np.cumsum(is_root, dtype=np.min_scalar_type(len(roots))) - 1)[label]
    del label, is_root  # V^N entries each, not needed while the tables are built
    reps = (roots[:, None] * n + np.arange(n)).ravel()
    # one column at a time, so the states' rows are never held whole
    table = np.empty((len(reps), arena.width), dtype=np.int32 if len(reps) < 2**31 else np.int64)
    for r, states in enumerate(arena.columns(reps)):
        table[:, r] = mix_orbit[states // n].astype(np.int64) * n + states % n
    moves = Csr(table)
    preds = moves.reverse()
    at_robber = np.repeat(arena.cops_at_robber(roots), n, axis=1)
    capture = at_robber.any(axis=0)
    counts = np.bincount(mix_orbit)  # held for the quotient's life: the least dtype
    sizes = np.repeat(counts.astype(np.min_scalar_type(counts.max())), n)
    _read_only((mix_orbit, reps, sizes, at_robber, capture))
    return Quotient(n, mix_orbit, reps, sizes, at_robber, capture, moves, preds)


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
    changes no min, max, OR, "some entry" or "every entry" test over it.
    Unpacks as CSR (offsets, targets) arrays."""

    table: np.ndarray

    def __post_init__(self):
        self.table.flags.writeable = False

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
        return cls(targets[offsets[:-1, None] + _pad_slots(sizes)])

    def per_edge(self, row_values: np.ndarray) -> np.ndarray:
        """Each row's value repeated once per entry of the row."""
        return np.repeat(row_values, self.width)

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

    def row_best(self, succ_keys: np.ndarray, max_mask: np.ndarray) -> np.ndarray:
        """Per row, the best of its entries' `succ_keys`: the largest on
        max_mask rows, the smallest elsewhere."""
        return np.where(max_mask, self.row_fold(np.maximum, succ_keys),
                        self.row_fold(np.minimum, succ_keys))

    def row_reader(self):
        """A function from row indices to the concatenation of those rows."""
        table = self.table
        return lambda rows: table[rows].ravel()

    def columns(self, rows: np.ndarray):
        """The entries of `rows`, one array per column."""
        return (self.table[rows, c] for c in range(self.width))

    def best_edges(self, keys: np.ndarray, max_mask: np.ndarray) -> np.ndarray:
        """Per entry: is the target's key its row's best, the largest on
        max_mask rows and the smallest elsewhere?"""
        sv = keys[self.targets]
        return sv == self.per_edge(self.row_best(sv, max_mask))

    def filter(self, keep: np.ndarray) -> Csr:
        """The table of the entries marked in `keep`, at least one per row,
        each row padded with its own last kept entry."""
        keep = keep.reshape(self.table.shape)
        count = keep.sum(axis=1)
        kept_first = np.argsort(~keep, axis=1, kind="stable")
        slots = np.take_along_axis(kept_first, _pad_slots(count), 1)
        return Csr(np.take_along_axis(self.table, slots, 1))

    def reverse(self) -> Csr:
        """The exact reverse, duplicates kept: row t lists every (row s,
        column) entry naming t by its s, ascending, then repeats t itself up
        to the largest in-degree. `retrograde` reads row t only once t is
        settled and `_flood` only once t is seen, so neither steps into a
        pad. Sources are int32 while they fit."""
        n, width = self.table.shape
        # ordered by target, then source; equal keys are equal entries
        keys = np.multiply(self.table, n, dtype=np.int64)
        keys += np.arange(n)[:, None]
        keys = keys.reshape(-1)
        keys.sort()
        degree = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n))
        np.remainder(keys, n, out=keys)
        own = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)[:, None]
        preds = np.repeat(own, int(degree.max()), axis=1)
        preds[np.arange(preds.shape[1]) < degree[:, None]] = keys  # row-major: by target
        return Csr(preds)


def _pad_slots(count: np.ndarray) -> np.ndarray:
    """Per row holding count >= 1 entries, the slot each of max(count)
    columns reads: its own while the row has it, else the row's last."""
    return np.minimum(np.arange(count.max()), count[:, None] - 1)


class OptimalMoves:
    """Optimal-move lookups shared by the solution types. A subclass sets
    `arena` and, per orbit of its quotient, `keys` and `maximizer`: whether
    the orbit's mover takes the largest key (the smallest otherwise). The
    moves to a row's best key are its mover's optimal moves."""

    arena: Arena
    keys: np.ndarray
    maximizer: np.ndarray

    def opt_indices(self, s: State | int) -> np.ndarray:
        """The optimal successors of noncapture state s, ascending: the
        targets of row s whose key equals the row's best."""
        a, idx = self.arena, self.arena.index_of(s)
        largest = self.maximizer[a.orbit(idx, "no moves are defined from a capture state")]
        row = a.succ_indices(idx)
        succ = self.keys[a.quotient().orbit_of(row)]
        return row[succ == (succ.max() if largest else succ.min())]

    def orbit_edge_opt(self) -> np.ndarray:
        """Per edge of the quotient's move table: does the move attain its
        mover's optimum? Capture rows are marked too; no caller reads them."""
        return self.arena.quotient().moves.best_edges(self.keys, self.maximizer)

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


def _flood(table, seed: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """Mask of states reachable from the seed mask along the rows of
    `table` (a `Csr`, or an `Arena` for its successors) without ever
    stepping into (or out of) a blocked state; seeds are included as-is."""
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
            frontier = distinct(nbrs[fresh[nbrs]], slot)
        fresh[frontier] = False
        seen[frontier] = True
    return seen


def reachable_noncapture(arena: Arena, s0: State | int) -> np.ndarray:
    """Sorted indices of every noncapture state reachable from s0 along
    successor steps that never enter a capture state (s0 included)."""
    start = arena.index_of(s0)
    if arena.is_capture(start):
        raise ValidationError("reachability is defined from a noncapture state")
    seed = np.zeros(arena.n_states, dtype=bool)
    seed[start] = True
    return np.flatnonzero(_flood(arena, seed, arena.capture_mask))


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
