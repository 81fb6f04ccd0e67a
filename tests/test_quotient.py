"""The orbit quotient of an arena: the automorphisms it is built from,
its orbit counts, every integer layer on it against the same layers with
the trivial group and against the oracles, and the commands that never
build the full move table."""

import json
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scar.arena as arena_module
import scar.graphs as graphs_module
from scar import (
    State,
    UniquenessViolationError,
    build_arena,
    builtin,
    graph_from_edges,
    simulate,
    solve_capture_time,
    state_cop_report,
)
from scar.arena import Arena, _orbit_labels
from scar.classify import _guarantee_winning_sets
from scar.cli import main
from scar.fixpoint import INT_INF
from scar.graphs import automorphism_generators

from oracles import INF, capture_credit, capture_times, coalition_wins, guarantee_wins
from strategies import connected_graphs


def heawood():
    """The Heawood graph, LCF notation [5, -5]^7."""
    ring = [(i, (i + 1) % 14) for i in range(14)]
    return graph_from_edges(14, ring + [(i, (i + 5) % 14) for i in range(0, 14, 2)])


def maps_edges_onto_edges(g, perm) -> bool:
    edges = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
    return sorted(perm) == list(range(g.vertex_count)) and edges == set(g.edges)


# state orbits by Burnside's lemma over a brute-force automorphism search
@pytest.mark.parametrize("graph, n, orbits", [
    (heawood(), 4, 800),
    (builtin("petersen"), 4, 428),
    (builtin("dodecahedron"), 4, 5472),
    (builtin("cycle", 8), 4, 1040),
    (builtin("star", 6), 4, 208),
], ids=["heawood", "petersen", "dodecahedron", "cycle8", "star6"])
def test_orbit_counts_match_burnside(graph, n, orbits):
    gens = automorphism_generators(graph)
    assert gens and all(maps_edges_onto_edges(graph, p) for p in gens)
    q = build_arena(graph, n).quotient()
    assert len(q.reps) == orbits
    assert np.array_equal(q.reps, np.sort(q.reps))


@pytest.mark.parametrize("graph, count, pair_orbits", [
    (builtin("complete", 39), 38, 2),
    (builtin("star", 40), 39, 5),
], ids=["complete39", "star40"])
def test_generator_search_on_symmetric_groups_ends_within_its_effort(
    monkeypatch, graph, count, pair_orbits
):
    """complete:39 needs 30,381 effort units and star:40 1,638; a cap of
    40,000 leaves both searches whole: every generator, and the orbits of
    the full symmetric group on pairs of tokens."""
    monkeypatch.setattr(graphs_module, "SEARCH_EFFORT", 40_000)
    gens = automorphism_generators(graph)
    assert len(gens) == count
    assert all(maps_edges_onto_edges(graph, p) for p in gens)
    v = graph.vertex_count
    label = _orbit_labels(gens, v, 2)
    assert np.count_nonzero(label == np.arange(v * v)) == pair_orbits


def integer_layers(a) -> dict:
    """Every integer layer solved on the arena's quotient, per state."""
    cr = solve_capture_time(a)
    report = state_cop_report(a)
    out = {"values": cr.values, "bits": cr._cop_bits(),
           "scn": report.values, "witness": report.witness_bits}
    try:
        out["capturer"] = cr.capturer_table()
    except UniquenessViolationError:
        out["capturer"] = None
    for m in range(1, a.n_players):
        out[m] = np.stack(_guarantee_winning_sets(a, cr, m))
    return out


def oracle_layers(g, n) -> dict:
    a = build_arena(g, n)
    times = capture_times(g, n)
    credit = capture_credit(g, n, times)
    index = {s: a.index(State(*s)) for s in times}
    values = np.zeros(a.n_states, dtype=np.int64)
    bits = np.zeros(a.n_states, dtype=np.uint32)
    capturer = np.zeros(a.n_states, dtype=np.int8)
    for s, t in times.items():
        values[index[s]] = INT_INF if t == INF else t
        bits[index[s]] = sum(1 << (j - 1) for j in credit[s])
        if 0 < t < INF and len(credit[s]) == 1:
            capturer[index[s]] = min(credit[s])
    ambiguous = any(0 < t < INF and len(credit[s]) > 1 for s, t in times.items())
    scn = np.where(a.capture_mask, 0, INT_INF)
    witness = np.zeros(a.n_states, dtype=np.uint32)
    for size in range(1, n):
        for coalition in combinations(range(1, n), size):
            for s, won in coalition_wins(g, n, coalition).items():
                if won and scn[index[s]] == INT_INF:
                    scn[index[s]] = size
                    witness[index[s]] = sum(1 << (c - 1) for c in coalition)
    out = {"values": values, "bits": bits, "scn": scn, "witness": witness,
           "capturer": None if ambiguous else capturer}
    for m in range(1, n):
        out[m] = np.zeros((2, a.n_states), dtype=bool)
        for adversarial in (0, 1):
            for s, won in guarantee_wins(g, n, m, times, adversarial).items():
                out[m][adversarial, index[s]] = won
    return out


def same_layers(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        (got[k] is None and want[k] is None)
        or (got[k] is not None and want[k] is not None and np.array_equal(got[k], want[k]))
        for k in got
    )


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]))
def test_layers_on_the_quotient_equal_the_trivial_group_and_the_oracles(g, n):
    """The quotient under Aut(g), under the subgroup a starved search
    finds, and under the trivial group (the arena itself) give the same
    tables, and they are the oracles' tables."""
    full = integer_layers(build_arena(g, n))
    with mock.patch.object(graphs_module, "SEARCH_EFFORT", 6):
        assert same_layers(integer_layers(build_arena(g, n)), full)
    with mock.patch.object(arena_module, "automorphism_generators", lambda graph: []):
        trivial = build_arena(g, n)
        assert len(trivial.quotient().reps) == trivial.n_states
        assert same_layers(integer_layers(trivial), full)
    assert same_layers(full, oracle_layers(g, n))


# stdout of each command on Petersen N=4 before the quotient existed
PETERSEN_N4 = [
    (("cr-solve",), {"escape_states": 0, "forced_capture_states": 29160,
                     "max_finite_capture_time": 8, "n_states": 40000}),
    (("cr-solve", "--state", "0,2,5;6;1"),
     {"capture_time": 6, "capturing_cop": 2,
      "optimal_moves": ["1,2,5;6;2", "4,2,5;6;2"], "state": "0,2,5;6;1"}),
    (("scn",), {"c_state_counts": {"1": 11790, "2": 2040, "3": 15330, "inf": 0},
                "max_c_state": 3, "noncapture_states": 29160}),
    (("scn", "--state", "1,3,5;6;4"),
     {"c_state": 3, "state": "1,3,5;6;4", "witness_coalition": [1, 2, 3]}),
    (("classify",), {"class": "NotInG",
                     "evidence": {"c1_robber_state_count": 60,
                                  "c1_robber_witness": "0,2,6;1;4",
                                  "max_state_cop_number": 3},
                     "g3_adversarial_variant": False, "g3_exists_variant": False}),
]


def test_commands_answer_without_the_full_move_table(capsys, monkeypatch):
    real = Arena._slots

    def rows_only(self, back, rows=None):
        if rows is None:
            raise AssertionError("a full move table was built")
        return real(self, back, rows)

    monkeypatch.setattr(Arena, "_slots", rows_only)
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    for argv, want in PETERSEN_N4:
        code = main([argv[0], "--builtin", "petersen", "--n", "4", *argv[1:]])
        out = capsys.readouterr().out
        assert (code, out) == (0, json.dumps(want, indent=2, sort_keys=True) + "\n"), argv


def test_simulate_plays_without_the_full_move_table(monkeypatch):
    """simulate checks each move against its own row, so a capture-time-
    optimal play from every finite start of Petersen N=3 builds no table."""
    a = build_arena(builtin("petersen"), 3)
    sol = solve_capture_time(a)
    finite = np.flatnonzero(sol.finite_mask() & ~a.capture_mask)

    def no_table(self, back, rows=None):
        raise AssertionError("a move table was built")

    monkeypatch.setattr(Arena, "_slots", no_table)
    for i in finite[:: max(1, len(finite) // 50)]:
        play = simulate(a, int(i), lambda j: sol.opt_indices(j)[0])
        assert play.capture_time == sol.capture_time(int(i))
