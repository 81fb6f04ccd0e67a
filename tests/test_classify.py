"""Taxonomy classifier: verdicts on the specimen graphs plus coherence
between the classes and the sweeps they are defined from."""

import importlib

import numpy as np
import pytest

from scar import (
    State,
    ValidationError,
    build_arena,
    builtin,
    classify,
    g3_guarantee_test,
    in_script_g,
    solve_capture_time,
    state_cop_report,
)
from scar.arena import concat_ranges, filter_csr, per_edge, reverse_csr
from scar.fixpoint import INT_INF

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
def test_restricted_tables_equal_the_filtered_table_and_its_sorted_reverse(suite_graphs, n):
    """Cop m's restricted game lives on the orbit quotient: orbit i's row
    lists the orbits of the moves that the arena's filtered table keeps at
    the orbit's representative, in order, and the predecessor table is its
    sorted reverse."""
    for name, g in suite_graphs.items():
        a = build_arena(g, n)
        cr = solve_capture_time(a)
        q = a.quotient()
        orbit = q.lift(np.arange(len(q.reps)))
        for m in range(1, n):
            (offsets, targets), preds = classify_module._restricted_tables(a, cr, m)
            keep = per_edge(a.offsets, ~a.mover_mask(m)) | cr.edge_opt
            want_offsets, want_targets = filter_csr(a.offsets, a.targets, keep)
            rows = concat_ranges(want_offsets[q.reps], want_offsets[q.reps + 1])
            assert np.array_equal(np.diff(offsets), np.diff(want_offsets)[q.reps]), (name, m)
            assert np.array_equal(targets, orbit[want_targets[rows]]), (name, m)
            for mine, ref in zip(preds, reverse_csr(offsets, targets)):
                assert mine.dtype == ref.dtype and np.array_equal(mine, ref), (name, m)
