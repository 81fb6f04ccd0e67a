"""Reference solvers used to cross-check the package, written against the
rules directly: plain dict-based finite-horizon backward induction over
(cops, robber, mover) tuples, no shared code with the solvers under test.

Horizons are grown until two consecutive tables agree, which is a fixpoint
of the (deterministic) one-step operator and hence the game value.

`jacobi_layers` is the reference for the CSR-level layer solve: synchronous
rounds of the min-max operator over every state, from all-INT_INF down to
the greatest fixpoint.

The last helpers are not independent: `listing_counts` recounts a hand-built
predecessor table's listings, and `solve_discounted_capture` and
`classic_cop_win_placement` pose other games to the package's own solvers,
whose answers the tests compare with the capture-time game's and the
classic arena's.
"""

from fractions import Fraction
from itertools import product

import numpy as np

INF = float("inf")


def cell(cops, robber, mover):
    return (tuple(cops), robber, mover)


def is_capture(state):
    cops, robber, _ = state
    return robber in cops


def all_states(g, n_players):
    verts = range(g.vertex_count)
    for spots in product(verts, repeat=n_players):
        for mover in range(1, n_players + 1):
            yield cell(spots[:-1], spots[-1], mover)


def successors(g, state):
    """Moving token steps inside its closed neighborhood; mover cycles."""
    cops, robber, mover = state
    n = len(cops) + 1
    nxt = mover % n + 1
    here = robber if mover == n else cops[mover - 1]
    out = []
    for v in sorted(set(g.neighbors[here]) | {here}):
        if mover == n:
            out.append(cell(cops, v, nxt))
        else:
            moved = list(cops)
            moved[mover - 1] = v
            out.append(cell(moved, robber, nxt))
    return out


def _stabilize(g, n_players, step, initial):
    states = list(all_states(g, n_players))
    table = {s: initial(s) for s in states}
    for _ in range(len(states) + 2):
        new = {s: step(s, table) for s in states}
        if new == table:
            return table
        table = new
    raise AssertionError("reference table did not stabilize")


def payoff_coeff(state, m, n_players, epsilon):
    """Cop m's undiscounted payoff at a capture state."""
    cops, robber, _ = state
    captors = [i + 1 for i, c in enumerate(cops) if c == robber]
    assert captors, "payoff asked at a noncapture state"
    if len(captors) == n_players - 1:
        return Fraction(1, n_players - 1)
    if m in captors:
        return (1 - epsilon) / len(captors)
    return epsilon / (n_players - 1 - len(captors))


def discounted_values(g, n_players, player, gamma, epsilon):
    """Exact values of the game where cop `player` maximizes its own
    discounted capture payoff and every other token minimizes it."""

    def initial(s):
        if is_capture(s):
            return payoff_coeff(s, player, n_players, epsilon)
        return Fraction(0)

    def step(s, table):
        if is_capture(s):
            return table[s]
        opts = [table[t] for t in successors(g, s)]
        best = max(opts) if s[2] == player else min(opts)
        return gamma * best

    return _stabilize(g, n_players, step, initial)


def capture_times(g, n_players):
    """Optimal number of moves until capture (cops minimize, robber
    maximizes), INF where the robber escapes forever."""

    def initial(s):
        return 0 if is_capture(s) else INF

    def step(s, table):
        if is_capture(s):
            return 0
        opts = [table[t] for t in successors(g, s)]
        best = max(opts) if s[2] == n_players else min(opts)
        return best + 1 if best < INF else INF

    return _stabilize(g, n_players, step, initial)


def coalition_wins(g, n_players, coalition):
    """States from which the coalition of cops forces the game into capture
    no matter how every other token behaves."""
    team = set(coalition)

    def initial(s):
        return is_capture(s)

    def step(s, table):
        if is_capture(s):
            return True
        opts = [table[t] for t in successors(g, s)]
        return any(opts) if s[2] in team else all(opts)

    return _stabilize(g, n_players, step, initial)


def guarantee_wins(g, n_players, m, times, adversarial_ties):
    """States from which cop m, moving only along moves to a successor of
    least capture time (`times` from capture_times), reaches a capture it
    takes part in whatever every other token does; with adversarial_ties
    the adversary also picks among m's least moves. A capture without m is
    a loss."""

    def initial(s):
        cops, robber, _ = s
        return cops[m - 1] == robber

    def step(s, table):
        if is_capture(s):
            return table[s]
        opts = successors(g, s)
        if s[2] != m:
            return all(table[t] for t in opts)
        least = min(times[t] for t in opts)
        kept = [table[t] for t in opts if times[t] == least]
        return all(kept) if adversarial_ties else any(kept)

    return _stabilize(g, n_players, step, initial)


def play_payoff(states, m, n_players, gamma, epsilon):
    """Discounted payoff cop m collects from a finished trajectory."""
    if not is_capture(states[-1]):
        return Fraction(0)
    t = len(states) - 1
    return gamma**t * payoff_coeff(states[-1], m, n_players, epsilon)


def capture_credit(g, n_players, times):
    """Per state, the set of cops credited with the capture: the cops on
    the robber at a capture state; at a noncapture state of finite capture
    time (`times` from capture_times) the union over its successors one move
    closer to capture; empty where the robber escapes."""
    credit = {}
    for s in sorted(times, key=times.get):
        t = times[s]
        cops, robber, _ = s
        if t == 0:
            credit[s] = {i + 1 for i, c in enumerate(cops) if c == robber}
        elif t == INF:
            credit[s] = set()
        else:
            credit[s] = set().union(*(credit[u] for u in successors(g, s) if times[u] == t - 1))
    return credit


def filtered(table, keep):
    """The `Csr` of the entries of `table` that `keep` marks, at least one
    per row, in order, each row padded with its own last kept entry: the
    kept entries of each row moved to its front by a stable sort."""
    from scar.arena import Csr

    keep = keep.reshape(table.table.shape)
    count = keep.sum(axis=1)
    kept_first = np.argsort(~keep, axis=1, kind="stable")
    pad = np.minimum(np.arange(count.max()), count[:, None] - 1)
    slots = np.take_along_axis(kept_first, pad, 1)
    return Csr(np.take_along_axis(table.table, slots, 1))


def listing_counts(table):
    """Per row index i of a predecessor table given as an array, how many
    entries outside row i name i, in the least unsigned dtype: the
    `Csr.listed` its maker sets, every entry naming its own row taken for
    a pad."""
    n = len(table)
    own = np.arange(n, dtype=table.dtype)
    count = np.zeros(n, dtype=np.int64)
    for column in table.T:  # a column at a time: no temporary of every entry
        count += np.bincount(column[column != own], minlength=n)
    return count.astype(np.min_scalar_type(count.max(initial=0)))


def listing(rows):
    """The `Csr` of a predecessor table built by hand, given as its rows,
    with its `listed` counted by `listing_counts`."""
    from scar.arena import Csr

    table = np.array(rows)
    return Csr(table, listing_counts(table))


def check_cut_tables(full, keep, moves, preds):
    """Assert that the `Csr` pair (moves, preds) is the table `full`, which
    names no row's own index, cut to the entries `keep` marks: each row of
    moves holds exactly its row's kept targets, in full's shape; preds
    lists each kept entry (s, t), at least once, as s in row t, lists no
    other pair, and fills the rest of row t with t itself; and
    `preds.listed` counts each row's listings."""
    table, keep = full.table, keep.reshape(full.table.shape)
    rows = np.broadcast_to(np.arange(len(table))[:, None], table.shape)
    assert not (table == rows).any()
    assert moves.table.shape == table.shape
    same = moves.table[:, :, None] == table[:, None, :]
    assert (same & keep[:, None, :]).any(axis=2).all()  # every entry is kept
    assert (same.any(axis=1) | ~keep).all()  # every kept target is there
    own = np.broadcast_to(np.arange(len(preds.table))[:, None], preds.table.shape)
    listing = preds.table != own
    got = set(zip(own[listing].tolist(), preds.table[listing].tolist()))
    assert got == set(zip(table[keep].tolist(), rows[keep].tolist()))
    assert np.array_equal(preds.listed, np.bincount(preds.table[listing], minlength=len(table)))


def check_listing_table(a):
    """Assert that the predecessor table of arena a's quotient lists its
    moves: the pairs (t, P) of P in row t of `preds` are the pairs of t
    in row P of `moves`; row t holds the orbit of each predecessor of
    reps[t] in the full arena (`Arena.predecessors()`), in order, padded
    with the last; and `listed` counts each orbit's entries, none of
    which names its own row."""
    from scar.arena import Csr

    q = a.quotient()
    moves, preds = q.moves.table, q.preds.table
    assert preds.shape == moves.shape
    rows = np.broadcast_to(np.arange(len(moves))[:, None], moves.shape)
    assert not (preds == rows).any()
    assert (set(zip(moves.ravel().tolist(), rows.ravel().tolist()))
            == set(zip(rows.ravel().tolist(), preds.ravel().tolist())))
    # the exact reverse lists each predecessor, ascending, once per entry
    # naming the row (a padded row names its last target again), then
    # pads with the row itself
    full = a.predecessors().table[q.reps]
    first = np.ones(full.shape, dtype=bool)
    first[:, 1:] = full[:, 1:] != full[:, :-1]
    once = filtered(Csr(full), first & (full != q.reps[:, None]))
    assert np.array_equal(preds, q.orbit_of(once.table))
    assert np.array_equal(q.preds.listed, np.bincount(preds.ravel(), minlength=len(preds)))


def padded_reverse(rows):
    """The reverse of a table given as its rows, pair by pair: row t lists
    every row that names t, once per entry, ascending, then t itself up to
    the largest such count."""
    back = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t in row:
            back[t].append(s)
    width = max(map(len, back))
    return [r + [t] * (width - len(r)) for t, r in enumerate(back)]


def jacobi_layers(offsets, targets, minimizing, frozen, init, int_inf):
    """val = init on frozen rows, 1 + min/max over successors elsewhere,
    iterated in synchronous rounds from int_inf until nothing changes."""
    seg = offsets[:-1]
    vals = np.where(frozen, init, int_inf).astype(np.int64)
    for _ in range(len(vals) + 2):
        sv = vals[targets]
        best = np.where(minimizing, np.minimum.reduceat(sv, seg), np.maximum.reduceat(sv, seg))
        new = np.where(frozen, vals, np.where(best >= int_inf, int_inf, best + 1))
        assert (new <= vals).all(), "a round increased a value"
        if np.array_equal(new, vals):
            return vals
        vals = new
    raise AssertionError("reference rounds did not stabilize")


def classic_arena(g, k):
    """The classic k-cop game's tables, written out from its rules: states
    (cops, robber, turn) at index (mix(cops)*V + robber)*2 + turn, turn 0
    for the cops, who relocate jointly to any tuple of closed-neighbourhood
    vertices (lexicographic order); the robber then steps likewise. Returns
    (offsets, targets, capture, cop_turn) as lists."""
    v = g.vertex_count
    closed = [sorted(set(g.neighbors[u]) | {u}) for u in range(v)]

    def index(cops, robber, turn):
        mix = 0
        for c in cops:
            mix = mix * v + c
        return (mix * v + robber) * 2 + turn

    offsets, targets, capture, cop_turn = [0], [], [], []
    for cops in product(range(v), repeat=k):
        for robber in range(v):
            for turn in (0, 1):
                if turn == 0:
                    moves = [index(c, robber, 1) for c in product(*(closed[x] for x in cops))]
                else:
                    moves = [index(cops, r, 0) for r in closed[robber]]
                targets.extend(moves)
                offsets.append(len(targets))
                capture.append(robber in cops)
                cop_turn.append(turn == 0)
    return offsets, targets, capture, cop_turn


def positional_verdicts(g, n_players, gamma, epsilon):
    """(positional, nonpositional) per noncapture start, from the rules:
    each cop m's optimal successors (by `discounted_values`) must meet the
    capture-time-optimal ones (by `capture_times`) at every noncapture
    state the start reaches without passing a capture, for a positional
    profile; a nonpositional one needs some such state where they are not
    contained in them. Reachability is a forward search from each start."""
    times = capture_times(g, n_players)
    games = [discounted_values(g, n_players, m, gamma, epsilon) for m in range(1, n_players)]

    def optimal(s, table, maximizer):
        opts = successors(g, s)
        best = max(table[t] for t in opts) if maximizer else min(table[t] for t in opts)
        return {t for t in opts if table[t] == best}

    meets, inside = {}, {}
    for s in all_states(g, n_players):
        if is_capture(s):
            continue
        chase = optimal(s, times, s[2] == n_players)
        own = [optimal(s, table, s[2] == m) for m, table in enumerate(games, 1)]
        meets[s] = all(opt & chase for opt in own)
        inside[s] = all(opt <= chase for opt in own)

    verdicts = {}
    for start in meets:
        seen, todo = {start}, [start]
        while todo:
            for t in successors(g, todo.pop()):
                if t not in seen and not is_capture(t):
                    seen.add(t)
                    todo.append(t)
        verdicts[start] = (all(meets[s] for s in seen), not all(inside[s] for s in seen))
    return verdicts


def trigger_profile_dicts(arena, cr, games):
    """The trigger profile built one noncapture state at a time, as dicts
    of successor indices: (cooperative, punishment), punishment[m] being
    player m's plan (cop m's game `games[m]`, the capture-time game `cr`
    for the robber, m = N) and cooperative[s] the mover's own plan. Each
    plan moves to the lowest successor index that is optimal by value,
    read off the full successor table: in player m's plan, player m
    maximizes (its payoff, or the capture time) and everyone else
    minimizes it."""
    n = arena.n_players
    lift = arena.quotient().lift
    values = {m: [-games[m].keys[r] for r in lift(games[m].rank).tolist()] for m in games}
    values[n] = lift(cr.depths).tolist()
    table = arena.moves.table.tolist()
    cooperative, punishment = {}, {m: {} for m in values}
    for s in arena.noncapture_indices().tolist():
        mover, row = s % n + 1, table[s]
        for m, value in values.items():
            got = [value[t] for t in row]
            best = max(got) if mover == m else min(got)
            punishment[m][s] = min(t for t, v in zip(row, got) if v == best)
        cooperative[s] = punishment[mover][s]
    return cooperative, punishment


def solve_discounted_capture(arena, gamma):
    """The survival-time game in discounted form, solved by the package's
    discounted engine (`scarsolver._discounted`): every cop maximizes
    gamma^(capture time) with terminal coefficient 1, the robber minimizes
    it (gamma < 1, so small capture times are worth more). Its value is
    gamma**T and its optimal-move sets match the capture-time game's
    exactly, a cross-check of the engine's discounted instantiation."""
    from scar import ValidationError
    from scar.scarsolver import _discounted

    if not isinstance(gamma, Fraction) or not 0 < gamma < 1:
        raise ValidationError(f"gamma must be a rational in (0,1), got {gamma}")
    q = arena.quotient()
    seeds = [(Fraction(1), np.flatnonzero(q.capture))]
    return _discounted(arena, gamma, None, ~q.turns(arena.n_players), seeds)


def classic_cop_win_placement(graph, cop_count, max_states=None):
    """The classic game's variant where the cops choose their starting
    tuple first and the robber answers with the worst vertex for them,
    read off the package's per-cell verdicts (`crsolver._classic_wins`)."""
    from scar.crsolver import DEFAULT_MAX_STATES, _classic_arena, _classic_wins

    cap = DEFAULT_MAX_STATES if max_states is None else max_states
    wins = _classic_wins(_classic_arena(graph, cop_count, cap))
    return bool(wins.all(axis=1).any())
