"""Taxonomy classifier: verdicts on the specimen graphs plus coherence
between the classes and the sweeps they are defined from."""

import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scar import (
    Classification,
    State,
    ValidationError,
    attach_leaf,
    bridge,
    build_arena,
    builtin,
    classify,
    g3_guarantee_test,
    in_script_g,
    solve_capture_time,
    state_cop_report,
)
from scar.arena import Csr
from scar.fixpoint import INT_INF, solve_layers

from oracles import check_cut_tables, filtered
from strategies import connected_graphs, petersen_constructions

# the package exports the function `classify` under the module's name
classify_module = importlib.import_module("scar.classify")


def test_membership_in_script_g(suite_graphs):
    for name in ("p2", "p5", "k3", "c5", "k4", "s3"):
        assert not in_script_g(suite_graphs[name], 3), name
    for name in ("petersen", "petersen_leaf", "petersen_p3", "petersen_c4"):
        assert in_script_g(suite_graphs[name], 3), name


def test_specimen_classes(suite_graphs):
    want = {
        "p5": "NotInG",
        "k3": "NotInG",
        "petersen": "G2",
        "petersen_leaf": "G3",
        "petersen_p3": "G3Prime",
        "petersen_c4": "G1",
    }
    for name, klass in want.items():
        got = classify(suite_graphs[name], 3)
        assert got.klass == klass, name


def test_g3_variant_flags(suite_graphs):
    leaf = classify(suite_graphs["petersen_leaf"], 3)
    assert leaf.g3_exists_variant
    spur = classify(suite_graphs["petersen_p3"], 3)
    assert not spur.g3_exists_variant
    assert "guarantee_failure_state" in spur.evidence


def test_evidence_matches_sweeps(suite_graphs):
    got = classify(suite_graphs["petersen_c4"], 3)
    a = build_arena(suite_graphs["petersen_c4"], 3)
    report = state_cop_report(a)
    lit = got.evidence["g1_witness"]
    cops, robber, mover = lit.split(";")
    s = State(tuple(int(x) for x in cops.split(",")), int(robber), int(mover))
    assert report.value(s) == got.evidence["g1_witness_value"] >= 2
    assert got.evidence["max_state_cop_number"] == "inf"


def test_full_coalition_matches_capture_time(suite_graphs):
    """c(G|s) is infinite exactly where the capture-time game is: the full
    coalition leaves nobody to play adversarially."""
    for name in ("petersen", "tail_cycle", "c5"):
        a = build_arena(suite_graphs[name], 3)
        cr = solve_capture_time(a)
        report = state_cop_report(a)
        nc = np.asarray(a.noncapture_indices())
        assert (
            (report.values[nc] >= INT_INF) == (np.asarray(cr.values)[nc] >= INT_INF)
        ).all()


def test_g2_means_every_robber_turn_is_free(suite_graphs):
    a = build_arena(suite_graphs["petersen"], 3)
    report = state_cop_report(a)
    rm = a.robber_mover_mask()
    nc = ~a.capture_mask
    assert (report.values[rm & nc] >= INT_INF).all()


def test_guarantee_test_on_leaf_graph(suite_graphs):
    g = suite_graphs["petersen_leaf"]
    a = build_arena(g, 3)
    cr = solve_capture_time(a)
    report = state_cop_report(a)
    rm = np.asarray(a.robber_mover_mask())
    c1 = np.nonzero(rm & ~a.capture_mask & (report.values == 1))[0]
    assert c1.size
    for i in c1:
        assert g3_guarantee_test(a, cr, int(i))


def test_guarantee_test_preconditions(suite_graphs):
    g = suite_graphs["petersen"]
    a = build_arena(g, 3)
    cr = solve_capture_time(a)
    with pytest.raises(ValidationError):
        g3_guarantee_test(a, cr, State((0, 0), 0, 1))  # capture state
    with pytest.raises(ValidationError):
        g3_guarantee_test(a, cr, State((0, 2), 6, 3))  # robber escapes
    # finite time but two cops needed
    a2 = build_arena(builtin("cycle", 5), 3)
    cr2 = solve_capture_time(a2)
    with pytest.raises(ValidationError):
        g3_guarantee_test(a2, cr2, State((0, 0), 2, 3))


def test_small_graphs_stay_out_at_four_players():
    got = classify(builtin("path", 3), 4)
    assert got.klass == "NotInG"
    assert got.evidence["max_state_cop_number"] != "inf"


@pytest.mark.parametrize("n", [3, 4])
def test_restricted_tables_cut_the_quotient_and_solve_as_the_filtered_table(suite_graphs, n):
    """Cop m's restricted pair is the quotient's pair cut to the moves it
    keeps, with no sort: every other move and m's capture-time-optimal
    ones. Both guarantee games solved on it equal the same games on the
    filtered table and its exact reverse."""
    for name, g in suite_graphs.items():
        a = build_arena(g, n)
        cr = solve_capture_time(a)
        q = a.quotient()
        init = np.where(q.at_robber.repeat(n, axis=1), 0, INT_INF).astype(np.int64)
        for m in range(1, n):
            keep = np.repeat(~q.turns(m), q.moves.width) | cr.orbit_edge_opt()
            check_cut_tables(q.moves, keep, *classify_module._restricted_tables(a, cr, m))
            table = filtered(q.moves, keep)
            for adversarial, chasing in ((False, q.turns(m)), (True, np.zeros_like(q.capture))):
                want = solve_layers(table, chasing, q.capture, init[m - 1],
                                    predecessors=table.reverse()) < INT_INF
                got = classify_module._guarantee_winning_sets(a, cr, m, adversarial)
                assert np.array_equal(got, want), (name, m, adversarial)


@pytest.mark.parametrize("n", [3, 4])
def test_restricted_listed_counts_equal_a_fresh_count(suite_graphs, n):
    """The cut predecessor table's `listed`, set as the quotient's less a
    count of the listings cut, is what counting its entries gives."""
    for name, g in suite_graphs.items():
        a = build_arena(g, n)
        cr = solve_capture_time(a)
        for m in range(1, n):
            _, preds = classify_module._restricted_tables(a, cr, m)
            assert "listed" in preds.__dict__  # set, not counted
            assert np.array_equal(preds.listed, Csr(preds.table).listed), (name, m)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_vertices=5), st.sampled_from([3, 4]))
def test_the_adversarial_winning_set_lies_inside_the_canonical_one(g, n):
    """Handing cop m's tie choices to the adversary only shrinks its
    attractor, which is what lets `classify` skip the adversarial game
    once the canonical test fails."""
    a = build_arena(g, n)
    cr = solve_capture_time(a)
    for m in range(1, n):
        w_exists = classify_module._guarantee_winning_sets(a, cr, m)
        w_adv = classify_module._guarantee_winning_sets(a, cr, m, adversarial_ties=True)
        assert not (w_adv & ~w_exists).any(), m


def eager_classification(g, n) -> Classification:
    """classify's answer read off per-state tables, with both guarantee
    games solved for every credited cop: the G3Prime witness is the least
    state failing any cop's canonical test."""
    a = build_arena(g, n)
    q, cr, report = a.quotient(), solve_capture_time(a), state_cop_report(a)
    vals, nc, rm = report.values, ~a.capture_mask, a.robber_mover_mask()

    def witness(mask):
        return a.state_of(int(np.flatnonzero(mask)[0])).literal()

    evidence = {"max_state_cop_number": classify_module._int_or_inf(report.max_over_noncapture())}
    inf_nc, mid = nc & (vals >= INT_INF), nc & (vals >= 2) & (vals < INT_INF)
    if inf_nc.any():
        evidence["escape_witness"] = witness(inf_nc)
    c1_rm = rm & nc & (vals == 1)
    if c1_rm.any():
        evidence["c1_robber_state_count"] = int(c1_rm.sum())
        evidence["c1_robber_witness"] = witness(c1_rm)
    capturer = cr.capturer_table()
    fails = {adversarial: np.zeros(a.n_states, dtype=bool) for adversarial in (False, True)}
    for m in np.unique(capturer[c1_rm]):
        for adversarial, failed in fails.items():
            wins = q.lift(classify_module._guarantee_winning_sets(a, cr, int(m), adversarial))
            failed |= c1_rm & (capturer == m) & ~wins
    exists_ok, adversarial_ok = (not fails[adversarial].any() for adversarial in (False, True))
    if exists_ok != adversarial_ok:
        evidence["guarantee_variants_disagree"] = True
    if not inf_nc.any():
        klass = "NotInG"
    elif mid.any():
        klass = "G1"
        evidence["g1_witness"] = witness(mid)
        evidence["g1_witness_value"] = int(vals[mid][0])
    elif not (rm & nc & (vals < INT_INF)).any():
        klass = "G2"
    elif exists_ok:
        klass = "G3"
    else:
        klass = "G3Prime"
        evidence["guarantee_failure_state"] = witness(fails[False])
    return Classification(klass, evidence, exists_ok, adversarial_ok)


@pytest.mark.parametrize("n", [3, 4])
def test_variant_flags_equal_an_eager_solve_of_both_variants(suite_graphs, n):
    """On every suite graph: class, evidence and both flags."""
    for name, g in suite_graphs.items():
        assert classify(g, n) == eager_classification(g, n), name


def test_classify_equals_an_eager_solve_of_every_cop():
    """Stopping at the first failing cop changes no class, evidence or flag,
    on small random graphs and on the manifest's Petersen constructions at
    N = 3, which put G3 and G3Prime among the classes drawn."""
    drawn = set()

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(st.tuples(connected_graphs(max_vertices=5), st.sampled_from([3, 4])),
                     st.tuples(petersen_constructions(), st.just(3))))
    @example((attach_leaf(builtin("petersen"), 4), 3))
    @example((bridge(builtin("petersen"), 7, builtin("path", 3), 1), 3))
    def check(case):
        got = classify(*case)
        assert got == eager_classification(*case)
        drawn.add(got.klass)

    check()
    assert {"G3", "G3Prime"} <= drawn


def counted_solves(monkeypatch) -> list:
    """A list that grows by one at each game the classify module solves."""
    solves = []
    solve = classify_module.solve_layers

    def counted(*args, **kwargs):
        solves.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(classify_module, "solve_layers", counted)
    return solves


def test_classify_stops_at_the_first_cop_whose_canonical_test_fails(monkeypatch):
    """path:12, N=4: every cop is credited somewhere and the class is
    NotInG, so once cop 1's canonical test fails both flags are False and
    1 guarantee game is solved, not 3 (or 6). `g3_guarantee_test` still
    solves either variant on demand, each once."""
    solves = counted_solves(monkeypatch)
    got = classify(builtin("path", 12), 4)
    assert got.klass == "NotInG"
    assert not got.g3_exists_variant and not got.g3_adversarial_variant
    assert len(solves) == 1
    a = build_arena(builtin("path", 6), 4)
    cr = solve_capture_time(a)
    q = a.quotient()
    c1_rm = q.turns(4) & ~q.capture & (state_cop_report(a).orbit_values == 1)
    s = int(q.reps[c1_rm][0])
    for adversarial in (True, False, True, False):
        g3_guarantee_test(a, cr, s, adversarial_ties=adversarial)
    assert len(solves) == 1 + 2


@pytest.mark.parametrize("end, capturer_of_witness", [(0, 1), (2, 2)])
def test_a_g3_candidate_solves_every_cops_canonical_game(monkeypatch, end, capturer_of_witness):
    """petersen_p3 (the path bridged at its end `end`; both labellings of
    one graph), N=3, is G3Prime: cop 1 fails 8 of its 50 credited orbits
    and cop 2 8 of its 30, and the witness is the least failing orbit over
    both, which is cop 2's under the second labelling. So both canonical
    games are solved (and no adversarial one)."""
    g = bridge(builtin("petersen"), 0, builtin("path", 3), end)
    a = build_arena(g, 3)
    q, cr = a.quotient(), solve_capture_time(a)
    c1_rm = q.turns(3) & ~q.capture & (state_cop_report(a).orbit_values == 1)
    capturer = cr.orbit_capturer()
    firsts = {}
    for m, credited, failing in ((1, 50, 8), (2, 30, 8)):
        sub = c1_rm & (capturer == m)
        failed = sub & ~classify_module._guarantee_winning_sets(a, cr, m)
        assert (sub.sum(), failed.sum()) == (credited, failing)
        firsts[m] = a.state_of(int(q.reps[failed][0])).literal()
    solves = counted_solves(monkeypatch)
    got = classify(g, 3)
    assert got.klass == "G3Prime"
    assert len(solves) == 2
    want = eager_classification(g, 3).evidence["guarantee_failure_state"]
    assert got.evidence["guarantee_failure_state"] == want == firsts[capturer_of_witness]
