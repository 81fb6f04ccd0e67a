"""Packaged verification manifest: schema, filtering, a green run, cases
of every kind that must fail, and malformed manifests and cases that must
be refused."""

import json
import types

import numpy as np
import pytest

from scar import ValidationError, statecop, verifysuite
from scar.verifysuite import build_recipe, load_manifest, run_case, run_suite


def test_manifest_loads_with_unique_ids():
    cases = load_manifest()
    assert len(cases) >= 25
    ids = [c["id"] for c in cases]
    assert len(set(ids)) == len(ids)
    for case in cases:
        assert case["kind"] in {
            "poscheck",
            "classify",
            "scn",
            "classic-copnumber",
            "crosscheck",
        }
        assert case["basis"] in {"external", "derived", "trivial"}


def test_recipes_build_connected_graphs():
    for case in load_manifest():
        recipes = (
            [case["graph"]]
            if "graph" in case
            else [p["graph"] for p in case["pairs"]]
        )
        for recipe in recipes:
            g = build_recipe(recipe)
            assert g.vertex_count >= 2


def test_every_case_passes():
    results = run_suite()
    bad = [r for r in results if not r.passed]
    assert not bad, [(r.case_id, r.detail) for r in bad]


def test_the_region_case_reuses_solved_games_along_gamma(discounted_runs):
    """p2-n3-region asks 2 games at 39 x 7 points; a solved game is
    re-used wherever its levels keep their order or re-sort into a proven
    solution, and 39 of the 546 games reach the engine."""
    case = next(c for c in load_manifest() if c["id"] == "p2-n3-region")
    assert run_case(case).passed
    assert len(discounted_runs) == 39


def test_no_case_builds_one_arena_twice(built_arenas):
    """taxonomy-petersen-c4 sweeps and classifies one arena, and
    copnumber-crosscheck builds one per (graph, players): its 12 graphs at
    N = 2, 3 and 4, the arena of each pair's N also answering the classic
    game of N-1 cops. 66 arenas for the whole manifest."""
    counts = {}
    for case in load_manifest():
        del built_arenas[:]
        assert run_case(case).passed
        games = [(g, n) for g, n, _ in built_arenas]
        assert len(set(games)) == len(games), case["id"]
        counts[case["id"]] = len(games)
    assert (counts["taxonomy-petersen-c4"], counts["copnumber-crosscheck"]) == (1, 36)
    assert sum(counts.values()) == 66


def test_the_crosscheck_case_solves_each_game_once(monkeypatch):
    """complete:3 is listed as both c3 and k3, and the N = 3 and N = 4
    pairs of a graph share the classic games with k = 1 and 2: each
    (graph, N) is swept, and each (graph, k) solved, once."""
    sweeps, classic = [], []
    hardest, wins = statecop._state_side, statecop._classic_wins
    monkeypatch.setattr(statecop, "_state_side",
                        lambda a: sweeps.append((a.graph, a.n_players)) or hardest(a))
    monkeypatch.setattr(statecop, "_classic_wins",
                        lambda a: classic.append((a.graph, a.n_players - 1)) or wins(a))
    case = next(c for c in load_manifest() if c["id"] == "copnumber-crosscheck")
    assert run_case(case) == run_case(case)  # each run keeps its own memo
    assert run_case(case).passed
    assert len(sweeps) == 3 * 24 and len(set(sweeps)) == 24
    assert len(set(classic)) * 3 == len(classic)


def test_filtering_by_id_substring():
    results = run_suite(["p2-n3"])
    assert results
    assert all("p2-n3" in r.case_id for r in results)
    assert run_suite(["no-such-case-anywhere"]) == []


def test_single_case_runner_matches_suite():
    case = load_manifest()[0]
    res = run_case(case)
    assert res.case_id == case["id"]
    assert res.passed


def _poscheck(expect, gamma_grid, graph=None, **extra):
    return {
        "id": "synthetic", "kind": "poscheck", "basis": "derived",
        "graph": graph or {"builtin": "path", "k": 2}, "n": 3,
        "s0": "all-noncapture", "gamma_grid": gamma_grid, "epsilon_grid": ["0"],
        "expect": expect, **extra,
    }


@pytest.mark.parametrize(
    "case, detail",
    [
        (_poscheck({"positional": {"gamma_at_most": "3/4"}}, ["1/2", "3/4"]),
         "6/12 points off; first: positional_exists=False (expected True) "
         "at s0=0,0;1;1 gamma=3/4 epsilon=0"),
        # a mismatch in both verdicts at one start reports the positional one
        (_poscheck({"nonpositional": {"const": False}, "positional": {"const": True}},
                   ["3/4"]),
         "12/6 points off; first: positional_exists=False (expected True) "
         "at s0=0,0;1;1 gamma=3/4 epsilon=0"),
        (_poscheck({"positional": {"one_side_and_gamma_at_most": "3/4"}}, ["1/2", "3/4"],
                   graph={"builtin": "path", "k": 3}),
         "30/72 points off; first: positional_exists=False (expected True) "
         "at s0=0,0;1;1 gamma=3/4 epsilon=0"),
        (_poscheck({"positional": {"const": True}}, ["3/4"], s0="1,1;0;2"),
         "1/1 points off; first: positional_exists=False (expected True) "
         "at s0=1,1;0;2 gamma=3/4 epsilon=0"),
    ],
    ids=["gamma-cap", "both-verdicts", "one-side", "literal-start"],
)
def test_a_wrong_poscheck_expectation_fails(case, detail):
    res = run_case(case)
    assert (res.case_id, res.passed, res.detail) == ("synthetic", False, detail)


@pytest.mark.parametrize(
    "case, message",
    [
        (_poscheck({"positional": {"const": True}}, ["1/2"], s0="0,1;1;1"),
         "start state 0,1;1;1 is a capture state"),
        (_poscheck({"positonal": {"const": True}}, ["1/2"]), "unrecognized verdict 'positonal'"),
    ],
    ids=["capture-start", "misspelt-verdict"],
)
def test_a_malformed_poscheck_case_is_refused(case, message):
    with pytest.raises(ValidationError, match=message):
        run_case(case)


def _case(kind, **fields):
    return {"id": "synthetic", "kind": kind, "basis": "derived",
            "graph": {"builtin": "path", "k": 2}, **fields}


@pytest.mark.parametrize(
    "case, detail",
    [
        (_case("classify", n=3, expect="G3"),
         "class=NotInG (expected G3); evidence={'max_state_cop_number': 1, "
         "'c1_robber_state_count': 2, 'c1_robber_witness': '0,0;1;3'}"),
        (_case("classify", n=3, expect="NotInG", require_sweep_value=2),
         "specimen lacks a state with cop number 2; pick another graph"),
        (_case("scn", n=3, state="0,0;1;1", expect=2), "c(G|0,0;1;1)=1 (expected 2)"),
        (_case("scn", n=3, state="0,0;1;1", expect="inf"), "c(G|0,0;1;1)=1 (expected inf)"),
        (_case("classic-copnumber", k_max=2, expect=2), "classic cop number 1 (expected 2)"),
        (_case("classic-copnumber", k_max=2, expect="inf"),
         "classic cop number 1 (expected inf)"),
    ],
    ids=["classify", "classify-specimen", "scn", "scn-inf", "classic", "classic-inf"],
)
def test_a_wrong_expectation_fails_in_every_kind(case, detail):
    res = run_case(case)
    assert (res.case_id, res.passed, res.detail) == ("synthetic", False, detail)


def test_a_crosscheck_whose_sides_disagree_fails(monkeypatch):
    """The theorem holds on every graph, so the classic side is made
    wrong: with no k below N winning, every pair disagrees, and each is
    named by its label ("?" without one) with the hardest state."""
    monkeypatch.setattr(statecop, "_classic_wins", lambda a: np.array([False]))
    case = _case("crosscheck", pairs=[
        {"graph": {"builtin": "path", "k": 2}, "label": "p2", "n": 3},
        {"graph": {"builtin": "cycle", "k": 4}, "n": 3},
    ])
    res = run_case(case)
    assert (res.passed, res.detail) == (
        False, "p2 n=3: classic=inf max_state=1 witness=0,0;1;1; "
               "? n=3: classic=inf max_state=2 witness=0,0;1;3")


@pytest.mark.parametrize(
    "cases, message",
    [
        ([{"id": "a", "kind": "scn"}], "manifest case missing 'basis'"),
        ([{"id": "a", "kind": "scn", "basis": "folklore"}], "unknown basis tag in case a"),
        ([{"id": "a", "kind": "scn", "basis": "trivial"}] * 2, "duplicate case id a"),
    ],
    ids=["missing-field", "unknown-basis", "duplicate-id"],
)
def test_a_malformed_manifest_is_refused(monkeypatch, tmp_path, cases, message):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "verification_suite.json").write_text(json.dumps(cases))
    monkeypatch.setattr(verifysuite, "resources",
                        types.SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(ValidationError, match=message):
        load_manifest()


@pytest.mark.parametrize(
    "case, message",
    [
        (_case("classify", n=3, expect="G1", graph={"petersen": True}),
         "unrecognized graph recipe"),
        (_case("pursuit"), "unknown case kind 'pursuit' in case synthetic"),
        ({key: value for key, value in _poscheck({"positional": {"const": True}}, ["1/2"]).items()
          if key != "s0"}, "case synthetic: no start state s0"),
    ],
    ids=["unknown-recipe", "unknown-kind", "poscheck-without-s0"],
)
def test_a_malformed_case_is_refused(case, message):
    with pytest.raises(ValidationError, match=message):
        run_case(case)
