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

The classifier solves only the guarantee games its answer reads. Both
flags are conjunctions over the designated cops, and giving the adversary
more choices only shrinks an attractor (Grädel, Thomas & Wilke, eds.,
Automata, Logics, and Infinite Games, LNCS 2500, 2002), so the adversarial
winning set lies inside the canonical one and fails wherever that fails:
one cop whose canonical set misses one of its orbits sets both flags
False. So the canonical games are solved cop by cop, ascending, up to the
first such cop, and the adversarial ones only when every canonical test
passed; a G3 candidate alone solves every cop's canonical game, since its
G3Prime witness is the least failing orbit over all of them.
`g3_guarantee_test` solves either variant on demand; each is memoized on
the arena on its own. Both run on the orbit quotient's tables cut to the
cop's optimal moves with no sort (`_restricted_tables`), made for each
solve and not kept.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .arena import (
    DEFAULT_MAX_STATES,
    Arena,
    Csr,
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


def _restricted_tables(arena: Arena, cr: CrSolution, m: int) -> tuple[Csr, Csr]:
    """Cop m's restricted game, cut from the orbit quotient's own tables
    without a sort, as a listing table allows (`arena.Csr`): each move of
    cop m that is not capture-time-optimal is cut. Cop m minimizes, so its
    optimal moves in a row are those reaching the row's least capture
    time, read from the depths of m's own rows alone. A move's optimality
    depends only on its target's orbit, so every copy of a listing is cut
    alike. A move passes the turn, so cop m's moves leave the orbits where
    m moves and are listed only in the rows of the orbits where the next
    token moves; no other row changes."""
    q = arena.quotient()
    src, dst = np.flatnonzero(q.turns(m)), np.flatnonzero(q.turns(m % arena.n_players + 1))
    rows = q.moves.table.take(src, axis=0)
    reach = cr.depths.take(rows)
    first = reach.argmin(axis=1)[:, None]
    fill = np.take_along_axis(rows, first, axis=1)  # an optimal move of each row
    low = np.take_along_axis(reach, first, axis=1)
    moves = q.moves.table.copy()
    moves[src] = np.where(reach != low, fill, rows)
    # the optimal moves of a row all reach its least depth
    best = cr.depths.copy()
    best[src] = low[:, 0]
    rows = q.preds.table.take(dst, axis=0)
    cut = cr.depths[dst, None] != best[rows]
    preds = q.preds.table.copy()
    preds[dst] = np.where(cut, dst[:, None], rows)
    listed = q.preds.listed - np.bincount(rows[cut], minlength=len(preds))
    return Csr(moves), Csr.listing(preds, listed)


def _guarantee_winning_sets(
    arena: Arena, cr: CrSolution, m: int, adversarial_ties: bool = False
) -> np.ndarray:
    """Orbits from which cop m, moving only along its capture-time-optimal
    edges, reaches a capture state it takes part in, no matter what every
    other token does; with `adversarial_ties`, m's choice among those
    edges goes to the adversary too. Captures without m are absorbing
    losses. Each variant is solved over the restricted tables, made for
    that solve alone, and memoized on the arena."""

    def build() -> np.ndarray:
        q = arena.quotient()
        moves, preds = _restricted_tables(arena, cr, m)
        chasing = np.zeros(len(q.reps), dtype=bool) if adversarial_ties else q.turns(m)
        at = q.at_robber[m - 1].repeat(arena.n_players)
        init = np.where(at, 0, INT_INF).astype(np.int64)
        return solve_layers(moves, chasing, q.capture, init, predecessors=preds) < INT_INF

    return arena.memo(("guarantee", m, adversarial_ties), build)


def g3_guarantee_test(
    arena: Arena, crsol: CrSolution, s: State | int, adversarial_ties: bool = False
) -> bool:
    at = arena.orbit(s, "the guarantee test is asked from noncapture states")
    if crsol.depths[at] >= INT_INF:
        raise ValidationError("the guarantee test needs a finite capture time")
    if state_cop_number(arena, s) != 1:
        raise ValidationError("the guarantee test needs a state with cop number 1")
    m = int(crsol.orbit_capturer()[at])
    return bool(_guarantee_winning_sets(arena, crsol, m, adversarial_ties)[at])


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
        credited = {int(m): c1_rm & (capturer == m) for m in np.unique(capturer[c1_rm])}
        # past the first failing cop, only a G3 candidate's witness reads on
        g3_candidate = inf_nc.any() and not mid.any() and not robber_all_inf
        for m, sub in credited.items():
            fails |= sub & ~_guarantee_winning_sets(arena, cr, m)
            if not g3_candidate and fails.any():
                break
        exists_ok = not fails.any()
        # the adversarial winning set lies inside the canonical one, so it
        # is solved only when the canonical test passed for every cop
        adversarial_ok = exists_ok and not any(
            (sub & ~_guarantee_winning_sets(arena, cr, m, adversarial_ties=True)).any()
            for m, sub in credited.items())
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
