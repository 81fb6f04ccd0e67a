"""Finite simple connected undirected graphs with dense 0-based vertex ids.

This is deliberately minimal: adjacency sets, the named constructions the
solvers and the verification suite need, and an automorphism search. Vertex ids are
always 0..n-1; every constructor validates simplicity and connectivity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GraphFormatError,
    MalformedLineError,
    SelfLoopError,
    ValidationError,
)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph. `neighbors[v]` is a sorted tuple."""

    vertex_count: int
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)

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

    def adjacency(self) -> dict[int, set[int]]:
        """Mutable dict-of-sets view (a copy)."""
        return {v: set(nb) for v, nb in enumerate(self.neighbors)}


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
    used = {u for e in edges for u in e}
    if used != set(range(max_v + 1)):
        missing = sorted(set(range(max_v + 1)) - used)
        raise ValidationError(f"vertex ids are not dense: {missing} unused below max id {max_v}")
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


def builtin(name: str, k: int | None = None) -> Graph:
    """Look up a named family, e.g. builtin("path", 4) or builtin("petersen")."""
    try:
        fn, wants_k = _BUILTINS[name]
    except KeyError:
        raise ValidationError(f"unknown builtin graph {name!r}; know {sorted(_BUILTINS)}") from None
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


def distance(g: Graph, u: int, v: int) -> int:
    """BFS distance in edges."""
    if u == v:
        return 0
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in g.neighbors[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    raise ValidationError(f"no path from {u} to {v}")  # unreachable on connected graphs


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


# Work the automorphism search may do before it settles for the generators
# found so far. Any subgroup of Aut(G) gives a correct orbit quotient, so
# running out costs speed, never an answer.
SEARCH_EFFORT = 100_000


def is_automorphism(g: Graph, perm) -> bool:
    """Is perm, a list of vertex images, a bijection mapping edges onto edges?"""
    return sorted(perm) == list(range(g.vertex_count)) and all(
        tuple(sorted(perm[w] for w in nb)) == g.neighbors[p] for p, nb in zip(perm, g.neighbors))


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of Aut(g), each checked with `is_automorphism`: a
    stabiliser-chain search over the base b_0 = 0, b_1, ... in BFS order.
    From the last base point to the first, it fixes b_0..b_{i-1} and seeks
    an automorphism sending b_i to each vertex not yet in b_i's orbit under
    the generators found so far, extending the map in base order with
    images among the neighbours of the BFS parent's image. Once
    SEARCH_EFFORT is spent (1 + deg b per candidate image of b) it returns
    the generators found so far, of a subgroup. Either way, the ones that
    fix 0 (all found before the first that moves it) generate the
    stabiliser of 0 in the group the list generates, as the orbit
    quotient's labelling assumes."""
    v, nbrs = g.vertex_count, g.neighbors
    order, parent = [0], [-1] * v
    for u in order:
        for w in nbrs[u]:
            if w and parent[w] < 0:
                parent[w] = u
                order.append(w)
    effort = SEARCH_EFFORT
    image: list[int] = []
    used: set[int] = set()

    def extend(k0: int, first: list[int]) -> tuple[int, ...] | None:
        """Complete the map, fixed on order[:k0], to an automorphism that
        sends order[k0] into `first`."""
        nonlocal effort
        k, tried = k0, [iter(first)]
        while k < v and effort >= 0:
            if len(tried) == k - k0:  # entering level k
                tried.append(iter([c for c in nbrs[image[parent[order[k]]]] if c not in used]))
            b = order[k]
            mapped = {image[w] for w in nbrs[b] if image[w] >= 0}
            for c in tried[-1]:
                effort -= 1 + len(nbrs[b])
                if len(nbrs[c]) == len(nbrs[b]) and mapped == used.intersection(nbrs[c]):
                    image[b] = c
                    used.add(c)
                    k += 1
                    break
            else:
                tried.pop()
                if k == k0:
                    return None
                k -= 1
                used.discard(image[order[k]])
                image[order[k]] = -1
        return tuple(image) if k == v else None

    gens: list[tuple[int, ...]] = []
    for i in reversed(range(v)):
        orbit, grow = {order[i]}, set()
        for c in range(v) if i == 0 else nbrs[parent[order[i]]]:
            while grow:  # close the orbit under the generators found so far
                grow = {p[x] for p in gens for x in grow} - orbit
                orbit |= grow
            if c in orbit or c in order[:i]:
                continue
            used = set(order[:i])
            image = [w if w in used else -1 for w in range(v)]
            perm = extend(i, [c])
            if effort < 0:
                return gens
            if perm is not None and is_automorphism(g, perm):
                gens.append(perm)
                grow = set(orbit)
    return gens


def is_path_graph(g: Graph) -> bool:
    try:
        path_order(g)
        return True
    except ValidationError:
        return False
