"""Graph taxonomy: who is needed to catch the robber, and is the catcher
predetermined?

The decision tree, driven entirely by the state cop number sweep and the
capture-time solution:

- NotInG: no noncapture state has c(G|s) = inf (the full coalition catches
  from everywhere).
- G1: some noncapture state needs an intermediate coalition, 2 <= c < inf.
- G2: from every noncapture state where the robber moves, c(G|s) = inf.
- Otherwise some robber-to-move states have c(G|s) = 1, and the class is G3
  when at every such state the cop credited with the capture can force a
  capture *by itself* — restricted to its capture-time-optimal moves, against
  arbitrary behaviour of the robber and of the other cops, where a capture
  that does not involve it counts as a loss. If any such state fails the
  test, the class is G3Prime.

The guarantee test comes in two strengths. The canonical one lets the
designated cop choose among its optimal moves (a reach-while-avoid game,
existential at that cop's turns). The conservative variant hands those tie
choices to the adversary as well, asking the capture to be inevitable. Both
are reported; when they disagree the classifier logs it and follows the
canonical one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .arena import (
    DEFAULT_MAX_STATES,
    Arena,
    State,
    best_edges,
    build_arena,
    filter_csr,
    per_edge,
    reverse_csr,
)
from .crsolver import CrSolution, solve_capture_time
from .errors import ValidationError
from .fixpoint import INT_INF, solve_layers
from .graphs import Graph
from .statecop import state_cop_number, state_cop_report

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Classification:
    klass: str  # NotInG | G1 | G2 | G3 | G3Prime
    evidence: dict
    g3_exists_variant: bool
    g3_adversarial_variant: bool


def in_script_g(g: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES) -> bool:
    """Can the robber escape forever from somewhere, even against all cops?"""
    arena = build_arena(g, n_players, max_states)
    cr = solve_capture_time(arena)
    return bool((cr.values[arena.noncapture_indices()] >= INT_INF).any())


def _restricted_tables(arena: Arena, cr: CrSolution, m: int):
    """Cop m's restricted game on the arena's orbit quotient: the quotient's
    table with cop m's rows cut to their capture-time-optimal moves, and its
    predecessor table."""
    q = arena.quotient()
    keep = per_edge(q.offsets, ~arena.mover_mask(m)[q.reps])
    keep |= best_edges(q.offsets, q.targets, cr.values[q.reps], arena.robber_mover_mask()[q.reps])
    table = filter_csr(q.offsets, q.targets, keep)
    return table, reverse_csr(*table)


def _guarantee_winning_sets(
    arena: Arena, cr: CrSolution, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """States from which cop m, moving only along its capture-time-optimal
    edges, reaches a capture state it takes part in, no matter what every
    other token does: (canonical, adversarial-ties). Captures without m are
    absorbing losses. Both variants are solved in one build over one
    restricted table of the orbit quotient and memoized on the arena."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        q = arena.quotient()
        m_rows = arena.mover_mask(m)[q.reps]
        (offsets, targets), preds = _restricted_tables(arena, cr, m)
        capture = arena.capture_mask[q.reps]
        wanted = capture & arena.cop_at_robber(m)[q.reps]
        init = np.where(wanted, 0, INT_INF).astype(np.int64)
        return tuple(
            q.lift(solve_layers(offsets, targets, minimizing, capture, init,
                                predecessors=preds) < INT_INF)
            for minimizing in (m_rows, np.zeros_like(m_rows))
        )

    return arena.memo(("guarantee", m), build)


def g3_guarantee_test(
    arena: Arena, crsol: CrSolution, s: State | int, adversarial_ties: bool = False
) -> bool:
    idx = arena.index_of(s)
    if arena.capture_mask[idx]:
        raise ValidationError("the guarantee test is asked from noncapture states")
    if crsol.values[idx] >= INT_INF:
        raise ValidationError("the guarantee test needs a finite capture time")
    if state_cop_number(arena, idx) != 1:
        raise ValidationError("the guarantee test needs a state with cop number 1")
    m = int(crsol.capturer_table()[idx])
    return bool(_guarantee_winning_sets(arena, crsol, m)[adversarial_ties][idx])


def _fmt(value: int | float) -> int | str:
    return "inf" if value == math.inf or value >= INT_INF else int(value)


def classify(g: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES) -> Classification:
    arena = build_arena(g, n_players, max_states)
    cr = solve_capture_time(arena)
    report = state_cop_report(arena)
    vals = report.values
    nc = ~arena.capture_mask
    rm = arena.robber_mover_mask()

    evidence: dict = {"max_state_cop_number": _fmt(report.max_over_noncapture())}

    inf_nc = nc & (vals >= INT_INF)
    if inf_nc.any():
        evidence["escape_witness"] = arena.state_of(int(np.nonzero(inf_nc)[0][0])).literal()

    mid = nc & (vals >= 2) & (vals < INT_INF)
    robber_all_inf = not (rm & nc & (vals < INT_INF)).any()

    # guarantee variants over every robber-to-move state with c(G|s) = 1
    c1_rm = rm & nc & (vals == 1)
    exists_ok, adversarial_ok = True, True
    first_fail: int | None = None
    idxs = np.nonzero(c1_rm)[0]
    if idxs.size:
        evidence["c1_robber_state_count"] = int(idxs.size)
        evidence["c1_robber_witness"] = arena.state_of(int(idxs[0])).literal()
        capturer = cr.capturer_table()
        for m in np.unique(capturer[idxs]):
            sub = idxs[capturer[idxs] == int(m)]
            w_exists, w_adv = _guarantee_winning_sets(arena, cr, int(m))
            fails = sub[~w_exists[sub]]
            if fails.size:
                exists_ok = False
                first_fail = int(fails[0]) if first_fail is None else min(first_fail, int(fails[0]))
            if (~w_adv[sub]).any():
                adversarial_ok = False
    if exists_ok != adversarial_ok:
        evidence["guarantee_variants_disagree"] = True
        log.warning(
            "guarantee-test variants disagree (existential=%s, adversarial-ties=%s); "
            "classification follows the existential variant",
            exists_ok,
            adversarial_ok,
        )

    if not inf_nc.any():
        klass = "NotInG"
    elif mid.any():
        klass = "G1"
        at = int(np.nonzero(mid)[0][0])
        evidence["g1_witness"] = arena.state_of(at).literal()
        evidence["g1_witness_value"] = int(vals[at])
    elif robber_all_inf:
        klass = "G2"
    elif exists_ok:
        klass = "G3"
    else:
        klass = "G3Prime"
        evidence["guarantee_failure_state"] = arena.state_of(first_fail).literal()

    return Classification(klass, evidence, exists_ok, adversarial_ok)
