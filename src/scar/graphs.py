"""Finite simple connected undirected graphs with dense 0-based vertex ids.

Deliberately minimal: neighbour tuples, the named constructions the solvers and
the verification suite need, and Aut(G), found once per graph (`automorphisms`).
Vertex ids are 0..n-1; every constructor validates simplicity and connectivity.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from itertools import groupby

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphFormatError,
    MalformedLineError,
    SelfLoopError,
    ValidationError,
)


class _Frozen:
    """A value set once from its `__slots__`, as a frozen dataclass is
    (whose module would import `inspect` into every CLI process): equal and
    hashed by its fields, shown by those in `_shown`, read-only."""

    __slots__ = ()
    _shown: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Graph(_Frozen):
    """Immutable simple graph: `Graph(vertex_count, neighbors)`, where
    `neighbors[v]` is a sorted tuple."""

    __slots__ = ("vertex_count", "neighbors")
    _shown = ("vertex_count",)
    vertex_count: int
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of (u, v) pairs with u < v."""
        out = []
        for u in range(self.vertex_count):
            for v in self.neighbors[u]:
                if u < v:
                    out.append((u, v))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """Moves available to a token at v: stay, or cross an edge."""
        return tuple(sorted((v, *self.neighbors[v])))


def graph_from_edges(vertex_count: int, edges) -> Graph:
    """Build and validate a Graph from an iterable of (u, v) pairs."""
    if vertex_count < 1:
        raise ValidationError("graph needs at least one vertex")
    seen: set[tuple[int, int]] = set()
    adj: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValidationError(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    g = Graph(vertex_count, tuple(tuple(sorted(nb)) for nb in adj))
    _check_connected(g)
    return g


def _check_connected(g: Graph) -> None:
    reached = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.neighbors[u]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if len(reached) != g.vertex_count:
        missing = sorted(set(range(g.vertex_count)) - reached)
        raise DisconnectedGraphError(f"graph is disconnected; unreachable vertices {missing}")


def parse_edge_list(text: str) -> Graph:
    """Parse a UTF-8 edge list: one `u v` pair per line, `#` comments allowed.

    Vertex ids must be the dense range 0..max. Diagnostics distinguish
    malformed lines, self-loops, duplicate edges and disconnected inputs.
    """
    edges: list[tuple[int, int]] = []
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLineError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLineError(f"line {lineno}: expected integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise MalformedLineError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        max_v = max(max_v, u, v)
    if max_v < 0:
        raise MalformedLineError("edge list holds no edges")
    # the first gap in the sorted ids: work bounded by the edges, not the ids
    gap = next((i for i, u in enumerate(sorted({u for e in edges for u in e})) if u != i), None)
    if gap is not None:
        raise ValidationError(f"vertex ids are not dense: {gap} unused below max id {max_v}")
    return graph_from_edges(max_v + 1, edges)


def serialize_edge_list(g: Graph) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def load_edge_list(path) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read edge list {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"edge list {path!r} is not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# named constructions

# Hamiltonian-cycle chord offsets for the dodecahedral graph (20 vertices,
# cubic): vertex i also joins vertex (i + _DODECA_CHORDS[i]) mod 20.
_DODECA_CHORDS = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4] * 2


def path(k: int) -> Graph:
    if k < 2:
        raise ValidationError("path needs k >= 2 vertices")
    return graph_from_edges(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    if k < 3:
        raise ValidationError("cycle needs k >= 3 vertices")
    return graph_from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete(k: int) -> Graph:
    if k < 2:
        raise ValidationError("complete graph needs k >= 2 vertices")
    return graph_from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def star(k: int) -> Graph:
    """Center vertex 0 plus k leaves, k >= 3."""
    if k < 3:
        raise ValidationError("star needs k >= 3 leaves")
    return graph_from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer 5-cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))                # spokes
    return graph_from_edges(10, edges)


def dodecahedron() -> Graph:
    edges = [(i, (i + 1) % 20) for i in range(20)]
    for i, off in enumerate(_DODECA_CHORDS):
        j = (i + off) % 20
        if i < j:
            edges.append((i, j))
    return graph_from_edges(20, edges)


_BUILTINS = {
    "path": (path, True),
    "cycle": (cycle, True),
    "complete": (complete, True),
    "star": (star, True),
    "petersen": (petersen, False),
    "dodecahedron": (dodecahedron, False),
}


def family(name: str) -> tuple:
    """(builder, whether it takes a size K) of a named family; an unknown
    name is refused, naming the known ones."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValidationError(f"unknown builtin graph {name!r}; know {sorted(_BUILTINS)}") from None


def builtin(name: str, k: int | None = None) -> Graph:
    """Look up a named family, e.g. builtin("path", 4) or builtin("petersen")."""
    fn, wants_k = family(name)
    if wants_k:
        if k is None:
            raise ValidationError(f"builtin {name!r} needs a size parameter")
        return fn(k)
    if k is not None:
        raise ValidationError(f"builtin {name!r} takes no size parameter")
    return fn()


def attach_leaf(g: Graph, v: int) -> Graph:
    """Return g plus one new vertex (id = g.vertex_count) joined to v."""
    if not 0 <= v < g.vertex_count:
        raise ValidationError(f"vertex {v} not in graph")
    return graph_from_edges(g.vertex_count + 1, list(g.edges) + [(v, g.vertex_count)])


def bridge(g: Graph, u: int, h: Graph, w: int) -> Graph:
    """Disjoint union of g and h (h's ids shifted by g.vertex_count), plus
    one edge between g's vertex u and h's vertex w."""
    if not 0 <= u < g.vertex_count:
        raise ValidationError(f"vertex {u} not in first graph")
    if not 0 <= w < h.vertex_count:
        raise ValidationError(f"vertex {w} not in second graph")
    shift = g.vertex_count
    edges = list(g.edges)
    edges += [(a + shift, b + shift) for a, b in h.edges]
    edges.append((u, w + shift))
    return graph_from_edges(g.vertex_count + h.vertex_count, edges)


def path_order(g: Graph) -> list[int]:
    """Vertices of a path graph in linear order, starting from the
    lower-numbered endpoint. Raises ValidationError if g is not a path."""
    degs = [g.degree(v) for v in range(g.vertex_count)]
    if g.vertex_count == 2:
        ends = [0, 1]
    else:
        ends = [v for v, d in enumerate(degs) if d == 1]
        if len(ends) != 2 or any(d > 2 for d in degs):
            raise ValidationError("graph is not a path")
    order = [min(ends)]
    prev = None
    while len(order) < g.vertex_count:
        nxt = [x for x in g.neighbors[order[-1]] if x != prev]
        if len(nxt) != 1:
            raise ValidationError("graph is not a path")
        prev = order[-1]
        order.append(nxt[0])
    return order


Perm = tuple[int, ...]


def is_automorphism(g: Graph, perm) -> bool:
    """Is perm, a list of vertex images, a bijection mapping edges onto edges?"""
    return sorted(perm) == list(range(g.vertex_count)) and all(
        tuple(sorted(perm[w] for w in nb)) == g.neighbors[p] for p, nb in zip(perm, g.neighbors))


class Automorphisms(_Frozen):
    """A group of graph automorphisms, `Automorphisms(generators, order,
    orbits)`: generators, order, and per vertex orbit, by ascending least
    vertex m, (its Schreier tree, breadth first from (m, None, None),
    (y, x, i) per vertex y = generators[i][x] with x listed before it;
    generators of Stab(m), none if trivial)."""

    __slots__ = _shown = ("generators", "order", "orbits")
    generators: tuple[Perm, ...]
    order: int
    orbits: tuple[tuple[tuple[tuple[int, int | None, int | None], ...], tuple[Perm, ...]], ...]


@functools.lru_cache(maxsize=32)
def automorphisms(g: Graph) -> Automorphisms:
    """Aut(g), kept per graph value for the process in a small LRU. A
    search rooted at 0 gives it and Stab(0); another orbit's Stab(m) is the
    group if the orbit is {m}, trivial if the orbit is as large as the group,
    else from a search rooted at m given m's orbit."""
    gens, order = _search(g, 0, {0})
    orbits, seen = [], set()
    for m in (m for m in range(g.vertex_count) if m not in seen):
        tree, reached = [(m, None, None)], {m}
        for x, _, _ in tree:
            for i, p in enumerate(gens):
                if p[x] not in reached:
                    reached.add(p[x])
                    tree.append((p[x], x, i))
        stab = ([p for p in gens if p[0] == 0] if m == 0 else gens if len(tree) == 1
                else () if len(tree) == order else _search(g, m, reached)[0])
        orbits.append((tuple(tree), tuple(stab)))
        seen |= reached
    return Automorphisms(tuple(gens), order, tuple(orbits))


def _search(g: Graph, first: int, orbit: set[int]) -> tuple[list[Perm], int]:
    """Generators of Aut(g) and its order by individualisation-refinement
    (McKay and Piperno, Practical graph isomorphism II, 2014), given the
    orbit of `first` when known, else {first}. A node is a partition (lab, the
    vertices in order; pos, their positions; cell and end, each vertex's
    cell's first and each cell's end position), refined to equitable. The
    first path makes `first`, then the least vertex of the first cell of
    two or more, a cell of its own, down to a leaf whose cells of two or
    more are joined pairwise wholly or not at all (`_plain`): any map
    keeping its cells is an automorphism. From the deepest level i up,
    each vertex of the cell b_i came from, outside b_i's orbit under the
    maps found so far, is tried (`_leaf_like`). So the maps found at level
    i and below generate the stabiliser of b_0..b_(i-1), a strong
    generating set for the base b_0, b_1, ... (Seress, Permutation Group
    Algorithms, 2003, ch. 4): the order is the product of orbit sizes."""
    nbrs, v = g.neighbors, g.vertex_count
    node = (list(range(v)), list(range(v)), [0] * v, [v] * v)
    _refine(nbrs, *node, {u: len(nb) for u, nb in enumerate(nbrs)})
    path: list = []
    while not (path and _plain(nbrs, node)):
        x = min(_big_cells(node)[0]) if path else first
        child = tuple(list(a) for a in node)
        path.append((node, x, _refine(nbrs, *child, {x: 1})))
        node = child
    gens, order = [], 1
    for cell in _big_cells(node):  # a transposition and a cycle generate Sym(cell)
        for moved in (cell[:2], cell)[:len(cell) - 1]:
            gens.append(tuple(map(dict(zip(moved, moved[1:] + moved[:1])).get, range(v), range(v))))
        order *= math.factorial(len(cell))
    for i in reversed(range(len(path))):
        at, b, _ = path[i]
        lab, _, cell, end = at
        seen = _closure(orbit if i == 0 else {b}, gens)
        for w in sorted(lab[cell[b]:end[cell[b]]]) if i or len(orbit) == 1 else ():
            if w not in seen and (p := _leaf_like(g, at, w, path[i:], node[0])):
                gens.append(p)
                seen = _closure(seen, gens)
        order *= len(seen)
    return gens, order


def _leaf_like(g: Graph, node, w: int, path: list, leaf: list[int]) -> Perm | None:
    """An automorphism mapping the first path's leaf (vertex order `leaf`)
    position by position onto a leaf below node's child at w, found depth
    first, a node j levels down pruned unless its refinement's trace is
    that of path[j]. If any automorphism maps leaf onto leaf, the position
    map does, the two differing by a map that keeps the cells."""
    stack = [(node, iter([w]))]
    while stack:
        if (x := next(stack[-1][1], None)) is None:
            stack.pop()
            continue
        child = tuple(list(a) for a in stack[-1][0])
        if _refine(g.neighbors, *child, {x: 1}) != path[len(stack) - 1][2]:
            continue
        if len(stack) < len(path):
            stack.append((child, iter(sorted(_big_cells(child)[0]))))
            continue
        if is_automorphism(g, perm := tuple(b for _, b in sorted(zip(leaf, child[0])))):
            return perm
    return None


def _refine(nbrs, lab, pos, cell, end, count: dict[int, int]) -> tuple:
    """Split a node's cells in place by `count` ({x: 1} makes x a cell of
    its own), then by each vertex's neighbours in each splitter cell
    queued, until equitable, moving only counted vertices, to the end of
    their cell by count. A split cell not queued queues all its parts but
    its first largest. The trace, (cell, uncounted part's size, counts)
    per split, is alike at nodes that an automorphism maps one onto the
    other."""
    trace, queue, queued = [], [], set()
    while True:
        for c, hit in groupby(sorted(count, key=cell.__getitem__), cell.__getitem__):
            e, hit = end[c], sorted(hit, key=count.__getitem__)
            keys, k = [count[u] for u in hit], e - len(hit)
            if k == c and keys[0] == keys[-1]:
                continue
            trace.append((c, k - c, *keys))
            for i, u in enumerate(hit, k):
                lab[pos[u]], pos[lab[i]] = lab[i], pos[u]
                lab[i], pos[u] = u, i
            cuts = [c] * (k > c) + [k + i for i, n in enumerate(keys) if not i or n != keys[i - 1]]
            for a, b in zip(cuts, cuts[1:] + [e]):
                end[a] = b
                for u in lab[a:b] if a >= k else ():
                    cell[u] = a
            if c not in queued:
                sizes = [end[a] - a for a in cuts]
                cuts.pop(sizes.index(max(sizes)))
            queue += [a for a in cuts if a not in queued]
            queued.update(cuts)
        if not queue:
            return tuple(trace)
        queued.discard(s := queue.pop())
        count = Counter(u for w in lab[s:end[s]] for u in nbrs[w])


def _plain(nbrs, node) -> bool:
    """Is each cell of two or more joined to each such cell wholly or not
    at all? One vertex per cell tells, the partition being equitable."""
    lab, _, cell, end = node
    big = {c: end[c] - c for c in set(cell) if end[c] > c + 1}
    counts = (Counter(cell[u] for u in nbrs[lab[c]]) for c in big)
    return all(n[d] in (0, size - (c == d)) for c, n in zip(big, counts) for d, size in big.items())


def _big_cells(node) -> list[list[int]]:
    lab, _, cell, end = node
    return [lab[c:end[c]] for c in sorted(set(cell)) if end[c] > c + 1]


def _closure(points, gens: list[Perm]) -> set[int]:
    seen, queue = set(points), list(points)
    for y in queue:
        new = {p[y] for p in gens} - seen
        seen |= new
        queue += new
    return seen


def is_path_graph(g: Graph) -> bool:
    try:
        path_order(g)
        return True
    except ValidationError:
        return False
