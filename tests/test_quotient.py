"""The orbit quotient of an arena: the automorphisms it is built from,
its orbit counts, every integer layer on it against the same layers with
the trivial group and against the oracles, the discounted games and the
verdicts under every group, and the commands and solvers that never build
the full move table."""

import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import tempfile
import tracemalloc
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scar.arena as arena_module
import scar.graphs as graphs_module
import scar.scarsolver as scarsolver_module
import scar.statecop as statecop_module
from scar import (
    DisconnectedGraphError,
    GameParams,
    Q,
    State,
    UniquenessViolationError,
    bridge,
    build_arena,
    build_trigger_profile,
    builtin,
    check_positionality,
    graph_from_edges,
    load_edge_list,
    positionality_table,
    scan_region,
    simulate,
    simulate_trigger,
    solve_capture_time,
    solve_game,
    state_cop_report,
)
from scar.arena import Arena, Csr, Quotient, _tuple_orbits
from scar.classify import _guarantee_winning_sets
from scar.cli import main
from scar.fixpoint import INT_INF
from scar.graphs import Automorphisms, automorphisms, is_automorphism, serialize_edge_list
from scar.positionality import solve_all_games
from scar.scarsolver import solve_discounted_capture
from scar.statecop import _hardest_state

from oracles import (
    INF, capture_credit, capture_times, coalition_wins, guarantee_wins, padded_reverse,
)
from strategies import ASYMMETRIC, ASYMMETRIC_20, connected_graphs, paley


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
    # 4 turns times the 15 partitions of 4 tokens by shared vertex
    (builtin("complete", 39), 4, 60),
    (builtin("star", 30), 4, 208),
], ids=["heawood", "petersen", "dodecahedron", "cycle8", "star6", "complete39", "star30"])
def test_orbit_counts_match_burnside(graph, n, orbits):
    gens = automorphisms(graph).generators
    assert gens and all(maps_edges_onto_edges(graph, p) for p in gens)
    q = build_arena(graph, n).quotient()
    assert len(q.reps) == orbits
    assert np.array_equal(q.reps, np.sort(q.reps))


def closure(gens, v) -> set:
    """Every element of the group `gens` generate, by a brute-force search."""
    ident = tuple(range(v))
    group, queue = {ident}, [ident]
    for g in queue:
        for p in gens:
            h = tuple(p[x] for x in g)
            if h not in group:
                group.add(h)
                queue.append(h)
    return group


def least_images(group, v, n) -> np.ndarray:
    """Per n-tuple (mixed radix v), the smallest index among its images
    under every element of `group`."""
    tuples = np.array(list(product(range(v), repeat=n)))
    images = np.array(sorted(group))[:, tuples]  # element, tuple, token
    return (images @ v ** np.arange(n - 1, -1, -1)).min(axis=0)


def group_of(gens, v) -> Automorphisms:
    """The group `gens` generate, found by brute force and laid out as
    `automorphisms` lays out Aut(G): per orbit a Schreier tree over `gens`
    from its least vertex m, here found depth first (any order listing
    each parent before its children serves), and every element fixing m
    but the identity as the stabiliser's generators."""
    group = sorted(closure(gens, v))
    orbits, seen = [], set()
    for m in range(v):
        if m not in seen:
            tree, stack = [(m, None, None)], [m]
            seen.add(m)
            while stack:
                x = stack.pop()
                for i, p in enumerate(gens):
                    if p[x] not in seen:
                        seen.add(p[x])
                        tree.append((p[x], x, i))
                        stack.append(p[x])
            stab = tuple(p for p in group if p[m] == m and p != tuple(range(v)))
            orbits.append((tuple(tree), stab))
    return Automorphisms(tuple(gens), len(group), tuple(orbits))


def one_generator(g) -> Automorphisms:
    """The subgroup of Aut(g) that its first generator generates, a
    proper subgroup whenever Aut(g) needs more than one."""
    return group_of(automorphisms(g).generators[:1], g.vertex_count)


def trivial_group(g) -> Automorphisms:
    return group_of([], g.vertex_count)


def labels_are_orbit_minima(group, v, n) -> None:
    """Tuple by tuple: `mix_orbit` names the rank of its least image under
    `group` among all least images, in the least unsigned dtype, the roots
    are those least images, ascending, and the counts are how many tuples
    share each."""
    least = least_images(closure(group.generators, v), v, n)
    roots, counts = np.unique(least, return_counts=True)
    mix_orbit, got_roots, got_counts = _tuple_orbits(group, v, n)
    assert mix_orbit.dtype == np.min_scalar_type(len(roots))
    assert np.array_equal(mix_orbit.reshape(-1), np.searchsorted(roots, least))
    assert np.array_equal(got_roots, roots) and np.array_equal(got_counts, counts)


def moves_are_the_orbits_of_the_successors(graph, group, n, chunk) -> None:
    """With `CHUNK` set to chunk, so the quotient build gathers a few roots
    at a time (chunk 1) or all at once, the quotient under `group` labels
    the tuples as `_tuple_orbits` does, and row i of its moves is the
    orbit of each of reps[i]'s successors in the full table."""
    a = build_arena(graph, n)
    with (mock.patch.object(arena_module, "CHUNK", chunk),
          mock.patch.object(arena_module, "automorphisms", lambda _: group)):
        q = a.quotient()
    assert np.array_equal(q.mix_orbit, _tuple_orbits(group, graph.vertex_count, n)[0].reshape(-1))
    assert np.array_equal(q.moves.table, q.orbit_of(a.moves.table[q.reps]))


def is_aut_g_as_laid_out(g, group) -> None:
    """The generators are automorphisms of g and generate `order` of
    them, every one there is (brute force, up to 7 vertices); the orbits
    come by ascending least vertex m and cover the vertices; each orbit's
    tree lists m's images once each, from m, every other entry (y, x, i)
    an edge y = generators[i][x] from a vertex listed before it; and the
    stabiliser's generators fix m and generate order/|orbit| elements."""
    v = g.vertex_count
    assert all(is_automorphism(g, p) for p in group.generators)
    elements = closure(group.generators, v)
    assert len(elements) == group.order
    if v <= 7:
        assert elements == {p for p in permutations(range(v)) if is_automorphism(g, p)}
    least = [tree[0][0] for tree, _ in group.orbits]
    assert least == sorted(least) and sum(len(tree) for tree, _ in group.orbits) == v
    for tree, stab in group.orbits:
        m = tree[0][0]
        assert tree[0] == (m, None, None)
        assert sorted(y for y, _, _ in tree) == sorted({p[m] for p in elements})
        listed = {m}
        for y, x, i in tree[1:]:
            assert x in listed and group.generators[i][x] == y
            listed.add(y)
        assert all(p[m] == m and p in elements for p in stab)
        assert len(tree) * len(closure(stab, v)) == group.order


def test_aut_orders_equal_brute_force_on_every_labelled_graph_to_five_vertices():
    """All 772 labelled connected graphs on 1 to 5 vertices: the order of
    Aut(G) as found is the number of vertex permutations that map edges
    onto edges."""
    graphs = 0
    for v in range(1, 6):
        pairs = list(combinations(range(v), 2))
        for chosen in range(1 << len(pairs)):
            edges = [e for i, e in enumerate(pairs) if chosen >> i & 1]
            try:
                g = graph_from_edges(v, edges)
            except DisconnectedGraphError:
                continue
            graphs += 1
            brute = sum(is_automorphism(g, p) for p in permutations(range(v)))
            assert automorphisms(g).order == brute
    assert graphs == 772


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_vertices=7))
def test_aut_is_every_automorphism_with_its_orbits_and_stabilisers(g):
    is_aut_g_as_laid_out(g, automorphisms(g))


@pytest.mark.parametrize("graph, order", [
    *[(paley(q), q * (q - 1) // 2) for q in (5, 13, 17, 29, 37, 41, 53, 61)],
    (builtin("petersen"), 120), (builtin("dodecahedron"), 120), (heawood(), 336),
    (builtin("star", 6), 720), (builtin("complete", 39), math.factorial(39)),
], ids=[*(f"paley{q}" for q in (5, 13, 17, 29, 37, 41, 53, 61)),
        "petersen", "dodecahedron", "heawood", "star6", "complete39"])
def test_aut_orders_of_named_graphs(graph, order):
    """Paley(q) has q(q-1)/2 automorphisms (x -> ax + b, a a nonzero
    square mod q); a search that stopped early found 18 of Paley(37)'s 666
    and none but the identity of Paley(41)'s, (53)'s or (61)'s."""
    group = automorphisms(graph)
    assert group.order == order
    assert all(is_automorphism(graph, p) for p in group.generators)
    for tree, stab in group.orbits:
        assert all(p[tree[0][0]] == tree[0][0] for p in stab)


def test_the_paley41_file_and_its_quotient():
    """tests/data/paley41.edges is Paley(41), whose 820 automorphisms leave
    255 orbits of N=3 states out of 206,763: a search that stopped early
    found only the identity, and so one orbit per state."""
    g = load_edge_list(pathlib.Path(__file__).parent / "data" / "paley41.edges")
    assert g == paley(41) and g.edge_count == 410
    q = build_arena(g, 3).quotient()
    assert len(q.reps) == 255 and q.count(np.ones(len(q.reps), bool)) == 41**3 * 3


@pytest.mark.parametrize("graph, count, pair_orbits, cycle, cyclic_pair_orbits", [
    (builtin("complete", 39), 39, 2, (*range(1, 39), 0), 39),
    (builtin("star", 40), 40, 5, (0, *range(2, 41), 1), 43),
], ids=["complete39", "star40"])
def test_the_search_finds_the_symmetric_groups_whole(graph, count, pair_orbits, cycle,
                                                     cyclic_pair_orbits):
    """The symmetric group on complete:39's vertices and on star:40's
    leaves is found whole: count! automorphisms, with the symmetric
    group's orbits on pairs of tokens. Under the cyclic subgroup that one
    cycle of those count vertices generates, a pair of them has one orbit
    per difference."""
    group = automorphisms(graph)
    v = graph.vertex_count
    assert group.order == math.factorial(count)
    assert all(is_automorphism(graph, p) for p in (*group.generators, cycle))
    assert len(_tuple_orbits(group, v, 2)[1]) == pair_orbits
    assert len(_tuple_orbits(group_of([cycle], v), v, 2)[1]) == cyclic_pair_orbits


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=6), st.sampled_from([2, 3, 4]))
def test_labels_are_brute_force_orbit_minima(g, n):
    """Under Aut(g), with its breadth-first trees, and under the subgroup
    one of its generators generates and the trivial group, with
    depth-first trees, the labels are the brute-force orbit minima."""
    for group in (automorphisms(g), one_generator(g), trivial_group(g)):
        labels_are_orbit_minima(group, g.vertex_count, n)


@pytest.mark.parametrize("graph, orders", [
    (bridge(builtin("star", 3), 0, builtin("star", 3), 0), [36, 12]),
    (builtin("path", 7), [1, 1, 1, 2]),
], ids=["two_stars", "path7"])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("chunk", [1, arena_module.CHUNK])
def test_labels_past_six_vertices_are_brute_force_orbit_minima(graph, orders, n, chunk):
    """Two 3-stars bridged at their centres have two vertex orbits, each
    with a nontrivial stabiliser, the second's found by a search rooted at
    its least vertex; path:7 has three trivial stabilisers, then Z2 at its
    middle. Each vertex orbit's tails are numbered from its own offset by
    its own ranks, so the labels are the brute-force orbit minima; so
    are they under one generator's subgroup, a proper one on the two
    stars, and the trivial group. Under each, the quotient's moves are the
    orbits of the successors, gathered a few roots at a time and all at
    once."""
    v = graph.vertex_count
    group, sub = automorphisms(graph), one_generator(graph)
    assert [len(closure(stab, v)) for _, stab in group.orbits] == orders
    assert sub.order < group.order or group.order == 2
    for each in (group, sub, trivial_group(graph)):
        labels_are_orbit_minima(each, v, n)
        moves_are_the_orbits_of_the_successors(graph, each, n, chunk)


# A 4-cycle numbered 0, 2, 1, 3 around, a 6-cycle 0, 2, 1, 5, 4, 3 with
# the chord (2, 4), and the Heawood graph, whose stabilisers of 0 are Z2,
# Z2 and of order 24.
@pytest.mark.parametrize("graph", [
    graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
    graph_from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 5), (2, 4), (3, 4), (4, 5)]),
    heawood(),
], ids=["c4", "c6_chord", "heawood"])
def test_each_orbits_maps_and_stabiliser_are_aut_gs(graph):
    """Each vertex orbit's tree reaches its vertices from its least vertex
    m along generator edges, and its stabiliser's generators fix m and
    generate Stab(m), |orbit| times its order being |Aut(G)|."""
    is_aut_g_as_laid_out(graph, automorphisms(graph))


def test_a_second_quotient_of_an_equal_graph_runs_no_search(monkeypatch):
    """The group is kept per graph value for the process, in a bounded
    LRU: a quotient of a graph built afresh, equal to one seen before,
    runs no search, whatever group a test hands an arena in between."""
    calls = []
    search = graphs_module._search
    monkeypatch.setattr(graphs_module, "_search", lambda *args: calls.append(1) or search(*args))
    automorphisms.cache_clear()
    first = build_arena(heawood(), 3).quotient()
    with mock.patch.object(arena_module, "automorphisms", trivial_group):
        assert len(build_arena(heawood(), 3).quotient().reps) == 14**3 * 3
    again = build_arena(heawood(), 3).quotient()
    assert np.array_equal(again.reps, first.reps) and len(first.reps) < 14**3 * 3
    assert len(calls) == 1 and automorphisms(heawood()).order == 336
    assert automorphisms.cache_info().maxsize == 32


@pytest.mark.parametrize("graph, orbits", [
    (builtin("path", 2000), 1000),
    (builtin("star", 1000), 2),
], ids=["path2000", "star1000"])
def test_the_group_holds_under_a_mebibyte(graph, orbits):
    """Per vertex orbit a Schreier tree, a parent and a generator per
    vertex, not a V-entry map per vertex: the group of path:2000 holds
    under 1 MiB, and so does star:1000's (maps held 15.7 and 7.8 MiB)."""
    tracemalloc.start()
    try:
        group = automorphisms.__wrapped__(graph)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(group.orbits) == orbits
    assert held < 2**20


@pytest.mark.parametrize("graph, n, dtype", [
    (builtin("path", 7), 3, np.uint8),  # 175 tuple orbits: times N wraps in uint8
    (builtin("cycle", 8), 4, np.uint16),  # 260 tuple orbits
], ids=["path7", "cycle8"])
def test_orbit_of_and_lift_past_255_orbits(graph, n, dtype):
    """`mix_orbit` has the least width that holds the tuple orbits, and
    `orbit_of` (of arrays and of numpy scalars of any width) and `lift` name
    each state's orbit: the one whose rep is its least image."""
    a = build_arena(graph, n)
    q = a.quotient()
    v = graph.vertex_count
    assert len(q.reps) > 255 and q.mix_orbit.dtype == dtype
    least = least_images(closure(automorphisms(graph).generators, v), v, n)
    want = np.searchsorted(q.reps, np.repeat(least * n, n) + np.tile(np.arange(n), v**n))
    assert np.array_equal(q.reps[want] // n, np.repeat(least, n))
    assert np.array_equal(q.orbit_of(np.arange(a.n_states)), want)
    assert np.array_equal(q.lift(np.arange(len(q.reps))), want)
    for i in range(a.n_states - 1, 0, -97):
        for scalar in (np.int64, np.int32, np.uint16, np.uint32):
            assert q.orbit_of(scalar(i)) == want[i] == a.orbit(scalar(i))


def integer_layers(a) -> dict:
    """Every integer layer solved on the arena's quotient, per state."""
    cr = solve_capture_time(a)
    report = state_cop_report(a)
    out = {"values": cr.values, "bits": a.quotient().lift(cr._orbit_bits()),
           "scn": report.values, "witness": report.witness_bits}
    try:
        out["capturer"] = cr.capturer_table()
    except UniquenessViolationError:
        out["capturer"] = None
    for m in range(1, a.n_players):
        out[m] = np.stack([a.quotient().lift(_guarantee_winning_sets(a, cr, m, adversarial))
                           for adversarial in (False, True)])
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
    """The quotient under Aut(g), under the subgroup one of its
    generators generates, and under the trivial group (the arena itself)
    give the same tables, and they are the oracles' tables."""
    full = integer_layers(build_arena(g, n))
    with mock.patch.object(arena_module, "automorphisms", one_generator):
        assert same_layers(integer_layers(build_arena(g, n)), full)
    with mock.patch.object(arena_module, "automorphisms", trivial_group):
        trivial = build_arena(g, n)
        assert len(trivial.quotient().reps) == trivial.n_states
        assert same_layers(integer_layers(trivial), full)
    assert same_layers(full, oracle_layers(g, n))


def command_outputs(g, n) -> dict:
    """What cr-solve, scn and classify print for (g, n), read per orbit,
    and the hardest state of the theorem crosscheck."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.edges")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_edge_list(g))
        out = {}
        for command in ("cr-solve", "scn", "classify"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = main([command, "--graph", path, "--n", str(n)])
            out[command] = json.loads(buf.getvalue()) if code == 0 else code
    out["hardest"] = _hardest_state(g, n, 10**7)
    return out


def per_state_outputs(g, n) -> dict:
    """The same answers from the lifted per-state tables: counts are sums
    over states, and a witness is the first state with its property."""
    a = build_arena(g, n)
    cr, report = solve_capture_time(a), state_cop_report(a)
    nc, finite, vals = ~a.capture_mask, cr.finite_mask(), report.values
    rm = a.robber_mover_mask()

    def literal(mask) -> str:
        return a.state_of(int(np.flatnonzero(mask)[0])).literal()

    def number(v):
        return "inf" if v >= INT_INF else int(v)

    hardest = int(vals[nc].max())
    out = {
        "cr-solve": {"n_states": a.n_states, "forced_capture_states": int((finite & nc).sum()),
                     "escape_states": int((~finite).sum()),
                     "max_finite_capture_time": number(cr.values[finite].max())},
        "scn": {"noncapture_states": int(nc.sum()), "max_c_state": number(hardest),
                "c_state_counts": {**{str(k): int((nc & (vals == k)).sum()) for k in range(1, n)},
                                   "inf": int((nc & (vals >= INT_INF)).sum())}},
        "hardest": (math.inf if hardest >= INT_INF else hardest, literal(nc & (vals == hardest))),
    }
    evidence = {"max_state_cop_number": number(hardest)}
    inf_nc, mid = nc & (vals >= INT_INF), nc & (vals >= 2) & (vals < INT_INF)
    if inf_nc.any():
        evidence["escape_witness"] = literal(inf_nc)
    c1_rm = rm & nc & (vals == 1)
    exists = adversarial = np.ones(a.n_states, dtype=bool)
    if c1_rm.any():
        evidence["c1_robber_state_count"] = int(c1_rm.sum())
        evidence["c1_robber_witness"] = literal(c1_rm)
        try:
            capturer = cr.capturer_table()
        except UniquenessViolationError:
            out["classify"] = 3
            return out
        q = a.quotient()
        for m in np.unique(capturer[c1_rm]):
            w_exists, w_adv = (q.lift(_guarantee_winning_sets(a, cr, int(m), adversarial))
                               for adversarial in (False, True))
            exists = exists & ~(c1_rm & (capturer == m) & ~w_exists)
            adversarial = adversarial & ~(c1_rm & (capturer == m) & ~w_adv)
    exists_ok, adversarial_ok = bool(exists.all()), bool(adversarial.all())
    if exists_ok != adversarial_ok:
        evidence["guarantee_variants_disagree"] = True
    if not inf_nc.any():
        klass = "NotInG"
    elif mid.any():
        klass = "G1"
        evidence["g1_witness"] = literal(mid)
        evidence["g1_witness_value"] = int(vals[mid][0])
    elif not (rm & nc & (vals < INT_INF)).any():
        klass = "G2"
    elif exists_ok:
        klass = "G3"
    else:
        klass = "G3Prime"
        evidence["guarantee_failure_state"] = literal(~exists)
    out["classify"] = {"class": klass, "evidence": evidence,
                       "g3_exists_variant": exists_ok, "g3_adversarial_variant": adversarial_ok}
    return out


# the full Aut(g), the subgroup one of its generators generates, the trivial group
GROUPS = (
    contextlib.nullcontext,
    lambda: mock.patch.object(arena_module, "automorphisms", one_generator),
    lambda: mock.patch.object(arena_module, "automorphisms", trivial_group),
)


def same_summaries_under_every_group(g, n) -> None:
    want = per_state_outputs(g, n)
    for group in GROUPS:
        with group():
            assert command_outputs(g, n) == want
            assert per_state_outputs(g, n) == want


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]))
def test_orbit_summaries_equal_the_per_state_tables(g, n):
    """Counts weighted by orbit size, maxima over orbits and first witnesses
    read as the representative of the first orbit equal the same quantities
    read off the lifted per-state tables, under every group."""
    same_summaries_under_every_group(g, n)


def discounted_layers(a, params) -> dict:
    """Every cop's discounted values, the discounted capture game's, cop
    1's optimal moves and the verdict table, per state."""
    states = range(a.n_states)
    out = {m: list(map(solve_game(a, m, params).value, states)) for m in range(1, a.n_players)}
    out["capture"] = list(map(solve_discounted_capture(a, params.gamma).value, states))
    cop_1 = solve_game(a, 1, params)
    out["opt"] = [cop_1.opt_indices(i).tolist() for i in a.noncapture_indices().tolist()]
    out["verdicts"] = [table.tolist() for table in positionality_table(a, params)]
    return out


@settings(max_examples=10, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]),
       st.sampled_from([Q(1, 4), Q(1, 2), Q(3, 4)]), st.sampled_from([Q(0), Q(1, 10), Q(1, 3)]))
def test_discounted_layers_are_the_same_under_every_group(g, n, gamma, eps):
    """The discounted games and the verdicts, solved on the quotient under
    Aut(g), under the subgroup one of its generators generates and under
    the trivial group,
    give the same per-state answers."""
    answers = []
    for group in GROUPS:
        with group():
            answers.append(discounted_layers(build_arena(g, n), GameParams(n, gamma, eps)))
    assert answers[0] == answers[1] == answers[2]


@pytest.mark.parametrize("name", ["tail_cycle", "petersen", "petersen_leaf", "petersen_p3",
                                  "petersen_c4", "s3", "k4"])
def test_orbit_summaries_equal_the_per_state_tables_in_every_class(suite_graphs, name):
    """Graphs on at most five vertices are all NotInG; these reach NotInG,
    G1, G2, G3 and G3Prime with N=3, so every witness of classify is read."""
    same_summaries_under_every_group(suite_graphs[name], 3)


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


# the same commands on path:5 N=3 (whose group is the reflection alone)
PATH5_N3 = [
    (("cr-solve",), {"escape_states": 0, "forced_capture_states": 240,
                     "max_finite_capture_time": 11, "n_states": 375}),
    (("cr-solve", "--state", "0,4;2;1"),
     {"capture_time": 4, "capturing_cop": 1, "optimal_moves": ["1,4;2;2"],
      "state": "0,4;2;1"}),
    (("scn",), {"c_state_counts": {"1": 240, "2": 0, "inf": 0}, "max_c_state": 1,
                "noncapture_states": 240}),
    (("scn", "--state", "0,4;2;3"), {"c_state": 1, "state": "0,4;2;3", "witness_coalition": [1]}),
    (("classify",), {"class": "NotInG",
                     "evidence": {"c1_robber_state_count": 80, "c1_robber_witness": "0,0;1;3",
                                  "max_state_cop_number": 1},
                     "g3_adversarial_variant": False, "g3_exists_variant": False}),
]


def refuse_full_tables(monkeypatch) -> None:
    """Make `Arena._slots` refuse to build the full successor table, from
    which the full predecessor table is made too; the quotient's rows are
    still made, from the arena's columns."""

    def refused(self):
        raise AssertionError("a full move table was built")

    monkeypatch.setattr(Arena, "_slots", refused)


def test_commands_answer_without_the_full_move_table(capsys, monkeypatch):
    """Nor do they expand a per-orbit table to every state, or build the
    full capture mask: they read orbits and weigh them by their sizes."""

    def refused(*args):
        raise AssertionError("a per-state table was built")

    refuse_full_tables(monkeypatch)
    monkeypatch.setattr(Quotient, "lift", refused)
    monkeypatch.setattr(Arena, "capture_mask", property(refused))
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    for graph, n, pinned in (("petersen", "4", PETERSEN_N4), ("path:5", "3", PATH5_N3)):
        for argv, want in pinned:
            code = main([argv[0], "--builtin", graph, "--n", n, *argv[1:]])
            out = capsys.readouterr().out
            assert (code, out) == (0, json.dumps(want, indent=2, sort_keys=True) + "\n"), argv


# gamma = 1/2, eps = 1/10 with N = 4: per cop, the sum of its values over
# every state; the discounted capture game's sum and rounds; the starts
# with a positional and with a nonpositional profile, capture states included
DISCOUNTED_N4 = (
    (("star", 6), (Q(143051, 96), Q(89003, 60), Q(711349, 480)), (Q(144809, 32), 7),
     (3556, 9604)),
    (("petersen",), (Q(14125, 3), Q(15277, 3), Q(125699, 24)), (Q(2024315, 128), 9),
     (10840, 40000)),
)


@pytest.mark.parametrize("spec, games, capture, verdicts", DISCOUNTED_N4)
def test_games_and_verdicts_answer_without_the_full_move_table(monkeypatch, spec, games,
                                                                capture, verdicts):
    """The discounted games and the verdict table are solved on the
    quotient, and only the verdicts are lifted to states."""
    refuse_full_tables(monkeypatch)
    a = build_arena(builtin(*spec), 4)
    params = GameParams(4, Q(1, 2), Q(1, 10))
    for m, want in enumerate(games, 1):
        assert sum(map(solve_game(a, m, params).value, range(a.n_states))) == want
    disc = solve_discounted_capture(a, Q(1, 2))
    assert (sum(map(disc.value, range(a.n_states))), disc.rounds) == capture
    positional, nonpositional = positionality_table(a, params)
    assert (int(positional.sum()), int(nonpositional.sum())) == verdicts


@pytest.mark.parametrize("spec, witnesses", [(("star", 6), 1968), (("petersen",), 14160)])
def test_a_single_start_check_builds_no_predecessor_table(monkeypatch, spec, witnesses):
    """check_positionality and scan_region flood forward from their start
    over successor rows made per frontier, which name their witnesses; the
    games and the tests run on the quotient, so neither full table is
    built."""
    refuse_full_tables(monkeypatch)
    s0, params = State((0, 0, 0), 2, 2), GameParams(4, Q(1, 2), Q(1, 10))
    v = check_positionality(build_arena(builtin(*spec), 4), s0, params)
    (w,) = scan_region(builtin(*spec), 4, s0, [params.gamma], [params.epsilon])
    for verdict in (v, w):
        assert (verdict.positional_exists, verdict.nonpositional_exists,
                len(verdict.witnesses)) == (False, True, witnesses)


def test_simulate_plays_without_the_full_move_table(monkeypatch):
    """simulate checks each move against its own row, so a capture-time-
    optimal play from every finite start of Petersen N=3 builds no table."""
    a = build_arena(builtin("petersen"), 3)
    sol = solve_capture_time(a)
    finite = np.flatnonzero(sol.finite_mask() & ~a.capture_mask)

    refuse_full_tables(monkeypatch)
    for i in finite[:: max(1, len(finite) // 50)]:
        play = simulate(a, int(i), lambda j: sol.opt_indices(j)[0])
        assert play.capture_time == sol.capture_time(int(i))


def test_trigger_plays_read_no_capture_mask_and_no_full_table(monkeypatch):
    """The profile is built one mover token at a time, and a cooperative
    play and a trigger run test capture from each state's digits: neither
    the full capture mask nor a full move table is built."""

    def refused(*args):
        raise AssertionError("the full capture mask was built")

    refuse_full_tables(monkeypatch)
    monkeypatch.setattr(Arena, "capture_mask", property(refused))
    a = build_arena(builtin("path", 6), 4)
    params = GameParams(4, Q(1, 2), Q(1, 10))
    profile = build_trigger_profile(solve_capture_time(a), solve_all_games(a, params))
    start = State((0, 1, 2), 5, 1)
    play = simulate(a, start, profile.cooperative)
    run = simulate_trigger(a, profile, start)
    assert run.play == play and run.switch_time is None
    assert (play.capture_time, play.capturing_cops) == (11, frozenset({3}))


def listing_answers(a, params) -> dict:
    """Every answer read through the quotient's predecessor table: the
    capture depths, every coalition's winning orbits, both guarantee
    variants per cop, the verdict table, and (levels, rank, origins) of
    each discounted engine run, cop 1's game and the discounted capture
    game among them."""
    runs = []
    engine = scarsolver_module.retrograde

    def recorded(*args):
        levels, rank, origins = engine(*args)
        runs.append((levels, rank.tolist(), origins))
        return levels, rank, origins

    with mock.patch.object(scarsolver_module, "retrograde", recorded):
        cr = solve_capture_time(a)
        n = a.n_players
        out = {"depths": cr.depths.tolist()}
        for size in range(1, n):
            for coalition in combinations(range(1, n), size):
                out[coalition] = statecop_module.coalition_wins(a, coalition).tolist()
        for m in range(1, n):
            for adversarial in (False, True):
                out["guarantee", m, adversarial] = _guarantee_winning_sets(
                    a, cr, m, adversarial).tolist()
        solve_game(a, 1, params)
        solve_discounted_capture(a, params.gamma)
        out["verdicts"] = [table.tolist() for table in positionality_table(a, params)]
    out["engine"] = runs
    return out


def same_answers_as_the_exact_reverse(g, n) -> None:
    """The quotient's listing table and the exact reverse of its moves
    (`padded_reverse`), put in its place, give identical answers."""
    params = GameParams(n, Q(1, 2), Q(1, 10))
    exact = build_arena(g, n)
    q = exact.quotient()
    exact._memo["quotient"] = dataclasses.replace(
        q, preds=Csr(np.array(padded_reverse(q.moves.table.tolist()))))
    assert exact.quotient().preds.width >= q.preds.width
    assert listing_answers(build_arena(g, n), params) == listing_answers(exact, params)


@pytest.mark.parametrize("n", [3, 4])
def test_the_listing_table_answers_as_the_exact_reverse_on_the_suite(suite_graphs, n):
    for g in (*suite_graphs.values(), ASYMMETRIC):
        same_answers_as_the_exact_reverse(g, n)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]), st.booleans())
def test_the_listing_table_answers_as_the_exact_reverse(g, n, under_trivial):
    """On random graphs, and under the trivial group, where the quotient
    is the arena itself, as on an asymmetric graph."""
    with (mock.patch.object(arena_module, "automorphisms", trivial_group)
          if under_trivial else contextlib.nullcontext()):
        same_answers_as_the_exact_reverse(g, n)


def test_an_asymmetric_quotient_lists_no_wider_than_its_moves():
    """Aut(G) is trivial, so the quotient has one orbit per state: the
    predecessor table is as wide as the moves (6), not the largest
    in-degree of the padded table (10), and the build holds no sort keys
    (48 MiB peak under tracemalloc, against 94 MiB when the table was
    the sorted exact reverse)."""
    assert automorphisms(ASYMMETRIC_20).order == 1
    a = build_arena(ASYMMETRIC_20, 4)
    tracemalloc.start()
    try:
        q = a.quotient()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.reps) == a.n_states == 640_000
    assert q.preds.width == q.moves.width == 6
    assert peak < 64 * 2**20


def test_a_symmetric_quotient_build_holds_no_int64_per_tuple():
    """complete:39 N=4 has 39^4 = 2,313,441 position tuples in 15 orbits.
    The build labels only the 39^3 tails under the stabiliser of vertex 0,
    so its tracemalloc peak stays under 24 MiB (35.8 MiB when every tuple
    had an int64 label) and under 8 bytes per tuple: no int64 array of
    39^4 entries exists at any point of it."""
    a = build_arena(builtin("complete", 39), 4)
    tracemalloc.start()
    try:
        q = a.quotient()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.reps) == 60 and q.mix_orbit.dtype == np.uint8
    assert peak < 24 * 2**20 and peak < 8 * 39**4
