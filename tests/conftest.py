import pathlib

import pytest

from scar import Graph, attach_leaf, bridge, builtin, load_edge_list, scarsolver

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def tail_cycle() -> Graph:
    """4-cycle with a path of length 3 attached: the smallest graph where
    one cop catches the robber from some states but not from others."""
    return load_edge_list(DATA / "tail_cycle.edges")


@pytest.fixture(scope="session")
def suite_graphs(tail_cycle) -> dict[str, Graph]:
    pet = builtin("petersen")
    return {
        "p2": builtin("path", 2),
        "p3": builtin("path", 3),
        "p4": builtin("path", 4),
        "p5": builtin("path", 5),
        "c3": builtin("cycle", 3),
        "c4": builtin("cycle", 4),
        "c5": builtin("cycle", 5),
        "c6": builtin("cycle", 6),
        "k3": builtin("complete", 3),
        "k4": builtin("complete", 4),
        "s3": builtin("star", 3),
        "petersen": pet,
        "tail_cycle": tail_cycle,
        "petersen_leaf": attach_leaf(pet, 0),
        "petersen_p3": bridge(pet, 0, builtin("path", 3), 0),
        "petersen_c4": bridge(pet, 0, builtin("cycle", 4), 0),
    }


@pytest.fixture
def discounted_runs(monkeypatch) -> list:
    """A list that gains one entry per run of the engine on a discounted
    game from here on: a fresh solve adds one, a re-used solution none."""
    runs = []
    engine = scarsolver.retrograde

    def counted(*args):
        runs.append(1)
        return engine(*args)

    monkeypatch.setattr(scarsolver, "retrograde", counted)
    return runs
