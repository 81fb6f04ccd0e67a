"""Hypothesis strategies and fixed graphs shared by the property tests."""

from hypothesis import strategies as st

from scar import attach_leaf, bridge, builtin, graph_from_edges


@st.composite
def connected_graphs(draw, max_vertices=4):
    """A random connected graph on 2..max_vertices vertices: a random
    spanning tree plus a random set of extra edges."""
    v = draw(st.integers(2, max_vertices))
    tree = [(draw(st.integers(0, u - 1)), u) for u in range(1, v)]
    others = [(a, b) for b in range(v) for a in range(b) if (a, b) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return graph_from_edges(v, tree + extra)


@st.composite
def petersen_constructions(draw):
    """The manifest's G3 and G3Prime constructions, at drawn vertices:
    Petersen with a leaf (G3 at N = 3), or Petersen bridged to path:3
    (G3Prime at N = 3)."""
    petersen = builtin("petersen")
    if draw(st.booleans()):
        return attach_leaf(petersen, draw(st.integers(0, 9)))
    return bridge(petersen, draw(st.integers(0, 9)), builtin("path", 3), draw(st.integers(0, 2)))


# graphs whose only automorphism is the identity: 6 vertices, and 20
# vertices with 34 edges (a random spanning tree plus random edges, at
# most 5 neighbours a vertex), whose 4-player quotient has one orbit per
# state
ASYMMETRIC = graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)])
ASYMMETRIC_20 = graph_from_edges(20, [
    (0, 1), (0, 10), (0, 11), (0, 15), (1, 2), (1, 3), (1, 14), (2, 4), (2, 9), (2, 18),
    (3, 6), (3, 7), (3, 11), (3, 12), (4, 5), (4, 11), (4, 15), (5, 7), (6, 8), (6, 10),
    (6, 14), (7, 13), (7, 16), (8, 15), (9, 14), (9, 17), (10, 11), (10, 19), (11, 13),
    (12, 14), (12, 19), (13, 16), (13, 17), (15, 19),
])


def paley(q: int):
    """The Paley graph of a prime q = 1 mod 4: a joined to b when b - a
    is a nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    return graph_from_edges(q, [(a, b) for b in range(q) for a in range(b) if b - a in squares])
