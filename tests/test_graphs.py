import pytest
from hypothesis import given, strategies as st

from scar import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    MalformedLineError,
    SelfLoopError,
    ValidationError,
    attach_leaf,
    bridge,
    builtin,
    parse_edge_list,
    serialize_edge_list,
)
from scar.graphs import (
    complete,
    cycle,
    graph_from_edges,
    is_path_graph,
    path,
    path_order,
    petersen,
    star,
)


def test_path_shape():
    g = path(4)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.closed_neighborhood(1) == (0, 1, 2)
    assert g.degree(0) == 1


def test_cycle_and_complete_degrees():
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    assert all(complete(4).degree(v) == 3 for v in range(4))


def test_star_is_center_plus_leaves():
    g = star(3)
    assert g.vertex_count == 4
    assert g.degree(0) == 3
    assert all(g.degree(v) == 1 for v in range(1, 4))


def test_petersen_is_cubic():
    g = petersen()
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert all(g.degree(v) == 3 for v in range(10))


def test_dodecahedron_is_cubic():
    g = builtin("dodecahedron")
    assert g.vertex_count == 20
    assert g.edge_count == 30
    assert all(g.degree(v) == 3 for v in range(20))
    # girth 5: no triangles or squares through vertex 0
    for u in g.neighbors[0]:
        assert not set(g.neighbors[0]) & set(g.neighbors[u])


def test_builtin_lookup_errors():
    with pytest.raises(ValidationError):
        builtin("moebius")
    with pytest.raises(ValidationError):
        builtin("path")  # size required
    with pytest.raises(ValidationError):
        builtin("petersen", 3)  # size forbidden


def test_parse_and_serialize_round_trip():
    g = builtin("cycle", 5)
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_parse_accepts_comments_and_blank_lines():
    g = parse_edge_list("# a triangle\n0 1\n\n1 2 # back\n0 2\n")
    assert g == complete(3)


@pytest.mark.parametrize(
    "text, err",
    [
        ("0 1 2", MalformedLineError),
        ("0 x", MalformedLineError),
        ("", MalformedLineError),
        ("0 0", SelfLoopError),
        ("0 1\n1 0", DuplicateEdgeError),
        ("0 1\n2 3", DisconnectedGraphError),
        ("0 2", ValidationError),  # vertex 1 missing below the max id
    ],
)
def test_parse_rejects_bad_input(text, err):
    with pytest.raises(err):
        parse_edge_list(text)


def test_attach_leaf_and_bridge():
    g = attach_leaf(cycle(4), 2)
    assert g.vertex_count == 5
    assert g.neighbors[4] == (2,)
    h = bridge(path(2), 1, path(3), 0)
    assert h.vertex_count == 5
    assert (1, 2) in h.edges  # the bridge edge
    assert (3, 4) in h.edges  # shifted copy of the second path


def test_path_order():
    assert path_order(path(5)) in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0])


@given(st.integers(min_value=2, max_value=8))
def test_paths_are_paths_and_cycles_are_not(k):
    assert is_path_graph(path(k))
    if k >= 3:
        assert not is_path_graph(cycle(k))
        assert not is_path_graph(star(k))


def test_attach_leaf_breaks_path_recognition_only_when_internal():
    assert is_path_graph(attach_leaf(path(3), 0))  # still a path (P4)
    assert not is_path_graph(attach_leaf(path(3), 1))  # a star


def test_graph_from_edges_validates_range():
    with pytest.raises(ValidationError):
        graph_from_edges(2, [(0, 5)])
