"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from scar import graph_from_edges


@st.composite
def connected_graphs(draw, max_vertices=4):
    """A random connected graph on 2..max_vertices vertices: a random
    spanning tree plus a random set of extra edges."""
    v = draw(st.integers(2, max_vertices))
    tree = [(draw(st.integers(0, u - 1)), u) for u in range(1, v)]
    others = [(a, b) for b in range(v) for a in range(b) if (a, b) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    return graph_from_edges(v, tree + extra)
