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
    build_arena,
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
    return bool((solve_capture_time(arena).depths[~arena.quotient().capture] >= INT_INF).any())


def _restricted_tables(arena: Arena, cr: CrSolution, m: int):
    """Cop m's restricted game on the arena's orbit quotient: the quotient's
    table with cop m's rows cut to their capture-time-optimal moves, and its
    predecessor table."""
    q = arena.quotient()
    keep = q.moves.per_edge(~q.turns(m))
    keep |= q.moves.best_edges(cr.depths, q.turns(arena.n_players))
    table = q.moves.filter(keep)
    return table, table.reverse()


def _guarantee_winning_sets(
    arena: Arena, cr: CrSolution, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Orbits from which cop m, moving only along its capture-time-optimal
    edges, reaches a capture state it takes part in, no matter what every
    other token does: (canonical, adversarial-ties). Captures without m are
    absorbing losses. Both are solved over one restricted table of the
    orbit quotient and memoized on the arena."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        q = arena.quotient()
        m_rows = q.turns(m)
        moves, preds = _restricted_tables(arena, cr, m)
        init = np.where(q.at_robber[m - 1], 0, INT_INF).astype(np.int64)
        return tuple(
            solve_layers(moves, minimizing, q.capture, init, predecessors=preds) < INT_INF
            for minimizing in (m_rows, np.zeros_like(m_rows))
        )

    return arena.memo(("guarantee", m), build)


def g3_guarantee_test(
    arena: Arena, crsol: CrSolution, s: State | int, adversarial_ties: bool = False
) -> bool:
    at = arena.orbit(s, "the guarantee test is asked from noncapture states")
    if crsol.depths[at] >= INT_INF:
        raise ValidationError("the guarantee test needs a finite capture time")
    if state_cop_number(arena, s) != 1:
        raise ValidationError("the guarantee test needs a state with cop number 1")
    m = int(crsol.orbit_capturer()[at])
    return bool(_guarantee_winning_sets(arena, crsol, m)[adversarial_ties][at])


def _int_or_inf(value: int | float) -> int | str:
    return "inf" if value == math.inf or value >= INT_INF else int(value)


def classify(g: Graph, n_players: int, max_states: int = DEFAULT_MAX_STATES) -> Classification:
    """The class of (g, N), read off the orbits of the arena's quotient:
    counts are weighted by orbit size, and the first state with a property
    is the representative of the first orbit with it."""
    arena = build_arena(g, n_players, max_states)
    q = arena.quotient()
    cr = solve_capture_time(arena)
    report = state_cop_report(arena)
    vals = report.orbit_values
    nc = ~q.capture
    rm = q.turns(n_players)

    def witness(mask: np.ndarray) -> str:
        return arena.state_of(int(q.reps[mask][0])).literal()

    evidence: dict = {"max_state_cop_number": _int_or_inf(report.max_over_noncapture())}

    inf_nc = nc & (vals >= INT_INF)
    if inf_nc.any():
        evidence["escape_witness"] = witness(inf_nc)

    mid = nc & (vals >= 2) & (vals < INT_INF)
    robber_all_inf = not (rm & nc & (vals < INT_INF)).any()

    # guarantee variants over every robber-to-move orbit with c(G|s) = 1
    c1_rm = rm & nc & (vals == 1)
    exists_ok, adversarial_ok = True, True
    fails = np.zeros(len(vals), dtype=bool)
    if c1_rm.any():
        evidence["c1_robber_state_count"] = q.count(c1_rm)
        evidence["c1_robber_witness"] = witness(c1_rm)
        capturer = cr.orbit_capturer()
        for m in np.unique(capturer[c1_rm]):
            sub = c1_rm & (capturer == m)
            w_exists, w_adv = _guarantee_winning_sets(arena, cr, int(m))
            fails |= sub & ~w_exists
            adversarial_ok &= not (sub & ~w_adv).any()
        exists_ok = not fails.any()
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
        evidence["g1_witness"] = witness(mid)
        evidence["g1_witness_value"] = int(vals[mid][0])
    elif robber_all_inf:
        klass = "G2"
    elif exists_ok:
        klass = "G3"
    else:
        klass = "G3Prime"
        evidence["guarantee_failure_state"] = witness(fails)

    return Classification(klass, evidence, exists_ok, adversarial_ok)
