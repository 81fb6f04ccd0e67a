"""Acceptance gate: thirteen pinned criteria, one printed PASS/FAIL line
each. All comparisons are exact (rational arithmetic end to end); the only
tolerances anywhere are the wall-clock budgets asserted inline."""

import functools
import time

import numpy as np
import pytest

from scar import (
    GameParams,
    Q,
    State,
    all_cops_one_side,
    build_arena,
    builtin,
    classic_cop_number,
    classify,
    coalition_winning_set,
    crosscheck_theorem,
    positionality_table,
    simulate,
    solve_capture_time,
    solve_game,
    state_cop_number,
    state_cop_report,
    terminal_payoff,
)
from scar.fixpoint import INT_INF
from scar.verifysuite import load_manifest, run_case

from oracles import cell, discounted_values, play_payoff, solve_discounted_capture

GAMMA3 = (Q(1, 4), Q(1, 2), Q(3, 4))


def _report(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num:2d}: {desc}")
                raise
            print(f"PASS criterion {num:2d}: {desc}")

        return wrapper

    return deco


def _table(g, n, gamma, eps):
    """(positional, nonpositional) at every noncapture start."""
    a = build_arena(g, n)
    nc = a.noncapture_indices()
    return tuple(column[nc] for column in positionality_table(a, GameParams(n, gamma, eps)))


@_report(1, "two-vertex region formula over the 7 x 39 grid, under 5s")
def test_criterion_01():
    t0 = time.perf_counter()
    a = build_arena(builtin("path", 2), 3)
    nc = a.noncapture_indices()
    assert len(nc) == 6
    for eps in (Q(0), Q(1, 10), Q(1, 5), Q(3, 10), Q(2, 5), Q(9, 20), Q(1, 2)):
        for k in range(1, 40):
            gamma = Q(k, 40)
            want = (
                eps < Q(1, 2)
                and gamma * gamma >= eps / (1 - eps)
                and gamma <= Q(1) / (2 - 2 * eps)
            )
            positional, _ = positionality_table(a, GameParams(3, gamma, eps))
            assert (positional[nc] == want).all(), (eps, gamma)
    assert time.perf_counter() - t0 < 5


@_report(2, "two vertices, four and five players, positive epsilon: never positional")
def test_criterion_02():
    for n in (4, 5):
        for eps in (Q(1, 10), Q(1, 4)):
            for gamma in GAMMA3:
                positional, _ = _table(builtin("path", 2), n, gamma, eps)
                assert positional.size and not positional.any()


@_report(3, "two vertices, four players, eps 0: positional iff gamma <= 1/3")
def test_criterion_03():
    for gamma, want in ((Q(1, 4), True), (Q(1, 3), True), (Q(2, 5), False), (Q(3, 4), False)):
        positional, nonpositional = _table(builtin("path", 2), 4, gamma, Q(0))
        assert (positional == want).all(), gamma
        assert nonpositional.all(), gamma


@_report(4, "positive epsilon on P3, K3, S3, C4 at three gammas: never positional")
def test_criterion_04():
    for g in (builtin("path", 3), builtin("complete", 3), builtin("star", 3), builtin("cycle", 4)):
        for gamma in GAMMA3:
            positional, _ = _table(g, 3, gamma, Q(1, 10))
            assert positional.size and not positional.any()


@_report(5, "paths: positional iff cops on one side and gamma <= 1/2, under 10s")
def test_criterion_05():
    t0 = time.perf_counter()
    for g in (builtin("path", 3), builtin("path", 4)):
        a = build_arena(g, 3)
        nc = a.noncapture_indices()
        one_side = np.array([all_cops_one_side(g, a.state_of(int(i))) for i in nc])
        for gamma in (Q(1, 4), Q(1, 2), Q(51, 100), Q(3, 4)):
            positional, _ = positionality_table(a, GameParams(3, gamma, Q(0)))
            off = np.flatnonzero(positional[nc] != (one_side & (gamma <= Q(1, 2))))
            assert not off.size, (g.vertex_count, gamma, a.state_of(int(nc[off[0]])))
    assert time.perf_counter() - t0 < 10


@_report(6, "eps 0 on small non-path graphs and four-player Petersen: never positional")
def test_criterion_06():
    t0 = time.perf_counter()
    small = [
        builtin("complete", 3),
        builtin("star", 3),
        builtin("cycle", 4),
        builtin("cycle", 5),
        builtin("complete", 4),
    ]
    for g in small:
        for gamma in GAMMA3:
            positional, _ = _table(g, 3, gamma, Q(0))
            assert positional.size and not positional.any()
    positional, _ = _table(builtin("petersen"), 4, Q(1, 2), Q(0))
    assert positional.size == 29160
    assert not positional.any()
    assert time.perf_counter() - t0 <= 600


@_report(7, "taxonomy verdicts for the seven specimen graphs")
def test_criterion_07(suite_graphs):
    t0 = time.perf_counter()
    assert classify(build_arena(suite_graphs["petersen"], 3)).klass == "G2"
    assert classify(build_arena(builtin("dodecahedron"), 3)).klass == "G2"
    assert classify(build_arena(suite_graphs["petersen_leaf"], 3)).klass == "G3"
    assert classify(build_arena(suite_graphs["petersen_p3"], 3)).klass == "G3Prime"
    assert classify(build_arena(suite_graphs["p5"], 3)).klass == "NotInG"
    assert classify(build_arena(suite_graphs["k3"], 3)).klass == "NotInG"
    # the intermediate-coalition verdict is asserted against this package's
    # own sweep: states needing exactly two cops must exist
    a = build_arena(suite_graphs["petersen_c4"], 3)
    vals = state_cop_report(a).values
    nc = ~a.capture_mask
    assert (nc & (vals == 2)).any()
    assert (nc & (vals >= INT_INF)).any()
    assert classify(a).klass == "G1"
    assert time.perf_counter() - t0 <= 600


@_report(8, "three-player Petersen at eps 0: positional at every start and gamma")
def test_criterion_08(suite_graphs):
    for gamma in (Q(1, 10), Q(1, 2), Q(9, 10)):
        positional, _ = _table(suite_graphs["petersen"], 3, gamma, Q(0))
        assert positional.size == 2430
        assert positional.all()


@_report(9, "Petersen with a leaf: positional at 1/2, not at 51/100")
def test_criterion_09(suite_graphs):
    g = suite_graphs["petersen_leaf"]
    at_half, _ = _table(g, 3, Q(1, 2), Q(0))
    assert at_half.size and at_half.all()
    above, _ = _table(g, 3, Q(51, 100), Q(0))
    assert not above.any()


@_report(10, "the intermediate-coalition specimen is never positional")
def test_criterion_10(suite_graphs):
    g = suite_graphs["petersen_c4"]
    for eps in (Q(0), Q(1, 10)):
        for gamma in (Q(1, 4), Q(1, 2)):
            positional, _ = _table(g, 3, gamma, eps)
            assert positional.size and not positional.any()


@_report(11, "cycle-with-tail: state cop numbers 1 and 2, classic number 2")
def test_criterion_11(tail_cycle):
    a = build_arena(tail_cycle, 3)
    assert state_cop_number(a, State((2, 6), 4, 3)) == 1
    assert state_cop_number(a, State((5, 4), 2, 3)) == 2
    assert classic_cop_number(tail_cycle) == 2


@_report(12, "classic vs state cop number crosscheck over 26 graph/N pairs")
def test_criterion_12():
    case = next(c for c in load_manifest() if c["kind"] == "crosscheck")
    assert len(case["pairs"]) == 26
    result = run_case(case)
    assert result.passed, result.detail


@_report(13, "exact-arithmetic property suite on all arenas under 5000 states")
def test_criterion_13(suite_graphs):
    _oracle_agreement()
    _monotone_iterates()
    _greedy_realizes_values()
    _attribution_unique(suite_graphs)
    _opt_sets_coincide(suite_graphs)
    _coalitions_monotone(suite_graphs)


def _oracle_agreement():
    pairs = [("path", 2, 3), ("path", 3, 3), ("cycle", 3, 3), ("path", 2, 4)]
    for name, k, n in pairs:
        g = builtin(name, k)
        a = build_arena(g, n)
        assert a.n_states <= 5000
        for gamma in GAMMA3:
            for eps in (Q(0), Q(1, 10)):
                for m in range(1, n):
                    params = GameParams(n, gamma, eps)
                    sol = solve_game(a, m, params)
                    want = discounted_values(g, n, m, gamma, eps)
                    for s, v in want.items():
                        assert sol.value(State(*s)) == v
                    # residual check: every noncapture row satisfies its
                    # Bellman equation exactly, capture rows the payoff rule
                    for i in range(a.n_states):
                        if a.capture_mask[i]:
                            assert sol.value(i) == terminal_payoff(
                                a.state_of(i), m, params
                            )
                        else:
                            tv = [sol.value(int(j)) for j in a.succ_indices(i)]
                            best = max(tv) if a.mover_of(i) == m else min(tv)
                            assert sol.value(i) == gamma * best


def _monotone_iterates():
    a = build_arena(builtin("path", 3), 3)
    params = GameParams(3, Q(1, 2), Q(1, 10))
    table = [
        terminal_payoff(a.state_of(i), 1, params) if a.capture_mask[i] else Q(0)
        for i in range(a.n_states)
    ]
    for _ in range(12):
        nxt = list(table)
        for i in np.nonzero(~a.capture_mask)[0]:
            tv = [table[int(j)] for j in a.succ_indices(int(i))]
            nxt[i] = params.gamma * (max(tv) if a.mover_of(int(i)) == 1 else min(tv))
        assert all(b >= a_ for a_, b in zip(table, nxt))
        table = nxt


def _greedy_realizes_values():
    for name, k in (("path", 2), ("path", 3), ("cycle", 3)):
        g = builtin(name, k)
        a = build_arena(g, 3)
        params = GameParams(3, Q(1, 3), Q(1, 10))
        for m in (1, 2):
            sol = solve_game(a, m, params)
            table = {
                int(i): int(sol.opt_indices(int(i)).min())
                for i in a.noncapture_indices()
            }
            for i in a.noncapture_indices():
                play = simulate(a, int(i), table)
                cells = [cell(s.cops, s.robber, s.mover) for s in play.states]
                assert play_payoff(cells, m, 3, params.gamma, params.epsilon) == sol.value(int(i))


def _attribution_unique(suite_graphs):
    for name in ("p2", "p3", "p4", "p5", "c3", "c4", "c5", "c6", "k3", "k4", "s3",
                 "tail_cycle", "petersen", "petersen_leaf"):
        a = build_arena(suite_graphs[name], 3)
        assert a.n_states <= 5000
        solve_capture_time(a).capturer_table()  # raises if any tie were possible


def _opt_sets_coincide(suite_graphs):
    for name in ("p2", "p3", "c3", "c4", "s3"):
        a = build_arena(suite_graphs[name], 3)
        cr = solve_capture_time(a)
        disc = solve_discounted_capture(a, Q(1, 2))
        for i in a.noncapture_indices():
            assert set(map(int, disc.opt_indices(int(i)))) == set(
                map(int, cr.opt_indices(int(i)))
            )


def _coalitions_monotone(suite_graphs):
    for name in ("p4", "c5", "tail_cycle", "petersen"):
        a = build_arena(suite_graphs[name], 3)
        w1 = coalition_winning_set(a, (1,))
        w2 = coalition_winning_set(a, (2,))
        w12 = coalition_winning_set(a, (1, 2))
        assert not (w1 & ~w12).any() and not (w2 & ~w12).any()