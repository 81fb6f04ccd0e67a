"""Runner for the packaged verification manifest.

The manifest (data/verification_suite.json) pins, for a fixed catalogue of
small graphs, the verdicts this package must reproduce: positionality
regions, taxonomy classes, state cop numbers, and the classic-vs-state cop
number cross-check. Each case records a `basis` tag for where its expected
value comes from: "external" (pinned from outside sources), "derived"
(computed by an independent oracle and frozen), or "trivial".

`run_suite` executes every case (optionally filtered by id substring) and
returns structured results; the CLI renders them as PASS/FAIL lines.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import numpy as np

from .arena import Arena, GameParams, all_cops_one_side, build_arena, parse_state
from .classify import classify
from .crsolver import classic_cop_number
from .errors import ValidationError
from .graphs import Graph, attach_leaf, bridge, builtin, graph_from_edges
from .positionality import positionality_table
from .rationals import parse_rational
from .statecop import _sides, _verdict, state_cop_report


# the verdict booleans a poscheck case can pin, in the order mismatches are reported
_VERDICTS = ("positional", "nonpositional")


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    passed: bool
    detail: str


def load_manifest() -> list[dict]:
    text = (
        resources.files("scar").joinpath("data/verification_suite.json").read_text()
    )
    cases = json.loads(text)
    seen = set()
    for case in cases:
        for field in ("id", "kind", "basis"):
            if field not in case:
                raise ValidationError(f"manifest case missing {field!r}: {case}")
        if case["basis"] not in ("external", "derived", "trivial"):
            raise ValidationError(f"unknown basis tag in case {case['id']}")
        if case["id"] in seen:
            raise ValidationError(f"duplicate case id {case['id']}")
        seen.add(case["id"])
    return cases


def build_recipe(recipe: dict) -> Graph:
    """Graph recipes: {"builtin": name, "k": int?} | {"edges": [[u,v],...]}
    | {"leaf_on": recipe, "at": v} | {"bridge": [recipe, u, recipe, w]}."""
    if "builtin" in recipe:
        return builtin(recipe["builtin"], recipe.get("k"))
    if "edges" in recipe:
        edges = [tuple(e) for e in recipe["edges"]]
        n = 1 + max(max(e) for e in edges)
        return graph_from_edges(n, edges)
    if "leaf_on" in recipe:
        return attach_leaf(build_recipe(recipe["leaf_on"]), recipe["at"])
    if "bridge" in recipe:
        ra, u, rb, w = recipe["bridge"]
        return bridge(build_recipe(ra), u, build_recipe(rb), w)
    raise ValidationError(f"unrecognized graph recipe {recipe}")


def _starts(case: dict, g: Graph, arena: Arena) -> np.ndarray:
    """The indices of the case's start states, all noncapture: its `s0`,
    a state literal or "all-noncapture"."""
    if "s0" not in case:
        raise ValidationError(f"case {case['id']}: no start state s0")
    if case["s0"] == "all-noncapture":
        return arena.noncapture_indices()
    s0 = parse_state(case["s0"], case["n"], g.vertex_count)
    if arena.is_capture(s0):
        raise ValidationError(f"case {case['id']}: start state {s0.literal()} is a capture state")
    return np.array([arena.index(s0)])


def _expected(form: dict, gamma: Fraction, eps: Fraction, one_side):
    """Closed-form expectations a case can pin a verdict against: one bool
    for every start, or one per start. one_side() gives the starts' one-side
    tests."""
    if "const" in form:
        return bool(form["const"])
    if "two_cop_window" in form:
        # the exact window for two cops on one edge: eps < 1/2, gamma^2 >=
        # eps/(1-eps), gamma <= 1/(2-2*eps); boundaries exact, no radicals
        return (
            eps < Fraction(1, 2)
            and gamma * gamma >= eps / (1 - eps)
            and gamma <= 1 / (2 - 2 * eps)
        )
    if "gamma_at_most" in form:
        return gamma <= parse_rational(form["gamma_at_most"])
    if "one_side_and_gamma_at_most" in form:
        return one_side() & (gamma <= parse_rational(form["one_side_and_gamma_at_most"]))
    raise ValidationError(f"unrecognized expectation form {form}")


def _grid(case: dict, key: str) -> list[Fraction]:
    return [parse_rational(x) for x in case[key]]


def _run_poscheck(case: dict) -> CaseResult:
    g = build_recipe(case["graph"])
    n = case["n"]
    arena = build_arena(g, n)
    starts = _starts(case, g, arena)
    one_side = functools.cache(
        lambda: np.array([all_cops_one_side(g, arena.state_of(int(i))) for i in starts])
    )
    bad, points, first = 0, 0, None
    for eps in _grid(case, "epsilon_grid"):
        for gamma in _grid(case, "gamma_grid"):
            params = GameParams(n, gamma, eps, case.get("allow_wide_epsilon", False))
            table = dict(zip(_VERDICTS, positionality_table(arena, params)))
            points += starts.size
            misses = []  # (start position, verdict order, message)
            for key, form in case["expect"].items():
                if key not in table:
                    raise ValidationError(f"unrecognized verdict {key!r} in case {case['id']}")
                got = table[key][starts]
                want = np.broadcast_to(_expected(form, gamma, eps, one_side), got.shape)
                off = np.flatnonzero(got != want)
                bad += off.size
                if off.size:
                    at = off[0]
                    misses.append((at, _VERDICTS.index(key),
                                   f"{key}_exists={got[at]} (expected {want[at]})"))
            if misses and first is None:
                at, _, what = min(misses)
                s0 = arena.state_of(int(starts[at])).literal()
                first = f"{what} at s0={s0} gamma={gamma} epsilon={eps}"
    if bad:
        return CaseResult(case["id"], False, f"{bad}/{points} points off; first: {first}")
    return CaseResult(case["id"], True, f"{points} grid points match")


def _run_classify(case: dict) -> CaseResult:
    arena = build_arena(build_recipe(case["graph"]), case["n"])
    if "require_sweep_value" in case:
        wanted = case["require_sweep_value"]
        nc = ~arena.quotient().capture
        if not (state_cop_report(arena).orbit_values[nc] == wanted).any():
            return CaseResult(case["id"], False, f"specimen lacks a state with cop number "
                              f"{wanted}; pick another graph")
    got = classify(arena)
    if got.klass != case["expect"]:
        return CaseResult(case["id"], False, f"class={got.klass} (expected {case['expect']}); "
                          f"evidence={got.evidence}")
    return CaseResult(case["id"], True, f"class={got.klass}")


def _run_scn(case: dict) -> CaseResult:
    arena = build_arena(build_recipe(case["graph"]), case["n"])
    s = parse_state(case["state"], case["n"], arena.graph.vertex_count)
    got = state_cop_report(arena).value(s)
    want = float("inf") if case["expect"] == "inf" else case["expect"]
    if got != want:
        return CaseResult(case["id"], False, f"c(G|{s.literal()})={got} (expected {want})")
    return CaseResult(case["id"], True, f"c(G|{s.literal()})={got}")


def _run_classic(case: dict) -> CaseResult:
    got = classic_cop_number(build_recipe(case["graph"]), case["k_max"])
    want = float("inf") if case["expect"] == "inf" else case["expect"]
    if got != want:
        return CaseResult(case["id"], False, f"classic cop number {got} (expected {want})")
    return CaseResult(case["id"], True, f"classic cop number {got}")


def _run_crosscheck(case: dict) -> CaseResult:
    """`crosscheck_theorem` on every pair, with one arena per distinct
    (graph, players) in the case (`statecop._sides`): a graph can be
    listed under two labels, and its N = 3 and N = 4 pairs share the
    classic games."""
    pairs = [(json.dumps(entry["graph"], sort_keys=True), entry["n"]) for entry in case["pairs"]]
    sides = {}
    for recipe in dict.fromkeys(recipe for recipe, _ in pairs):
        ns = {n for r, n in pairs if r == recipe}
        sides[recipe] = _sides(build_recipe(json.loads(recipe)), ns, max(ns) - 1)
    bad = []
    for entry, (recipe, n) in zip(case["pairs"], pairs):
        states, classic = sides[recipe]
        rep = _verdict(n, classic if classic < n else math.inf, *states[n])
        if not rep.agree:
            bad.append(
                f"{entry.get('label', '?')} n={n}: classic={rep.classic_cop_number} "
                f"max_state={rep.max_state_cop_number} witness={rep.witness}"
            )
    if bad:
        return CaseResult(case["id"], False, "; ".join(bad))
    return CaseResult(case["id"], True, f"{len(case['pairs'])} graph/N pairs agree")


_RUNNERS = {
    "poscheck": _run_poscheck,
    "classify": _run_classify,
    "scn": _run_scn,
    "classic-copnumber": _run_classic,
    "crosscheck": _run_crosscheck,
}


def run_case(case: dict) -> CaseResult:
    kind = case["kind"]
    if kind not in _RUNNERS:
        raise ValidationError(f"unknown case kind {kind!r} in case {case['id']}")
    return _RUNNERS[kind](case)


def run_suite(
    patterns: list[str] | None = None, cases: list[dict] | None = None
) -> list[CaseResult]:
    cases = load_manifest() if cases is None else cases
    if patterns:
        cases = [c for c in cases if any(p in c["id"] for p in patterns)]
    return [run_case(c) for c in cases]
