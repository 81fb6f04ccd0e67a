"""Spans around calls into each scar module, written outside the package.

`Tracer.install` swaps every traced public function or method for a wrapper
that records a span (name, start, end, parent) and swaps the originals back
on `remove`. Functions are replaced in the package and in every `scar.*`
module that imported them by name, so calls made through those names are
seen too. Spans stay in memory; `summary` turns them into inclusive and
self times per name.

`probe_layers` calls the integer layers one by one on a fresh arena under a
tracer, which gives per-layer times that do not depend on which queries a
workload happens to issue.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function, span name)
FUNCTIONS = (
    ("scar.arena", "reachable_noncapture", "arena.reachable"),
    ("scar.fixpoint", "solve_layers", "fixpoint.solve_layers"),
    ("scar.crsolver", "solve_capture_time", "crsolver.capture_time"),
    ("scar.crsolver", "classic_cop_number", "crsolver.classic"),
    ("scar.statecop", "state_cop_report", "statecop.coalition_sweep"),
    ("scar.statecop", "crosscheck_theorem", "statecop.crosscheck"),
    ("scar.classify", "classify", "classify.classify"),
    ("scar.classify", "g3_guarantee_test", "classify.guarantee"),
    ("scar.scarsolver", "solve_game", "scarsolver.solve_game"),
    ("scar.positionality", "check_positionality", "positionality.check"),
    ("scar.positionality", "check_positionality_many", "positionality.check_many"),
    ("scar.positionality", "scan_region", "positionality.scan"),
    ("scar.verifysuite", "run_case", "verifysuite.case"),
    ("scar.cli", "main", "cli.main"),
)

# (module, class, attribute, span name); properties are wrapped on their getter
METHODS = (
    ("scar.arena", "Arena", "__init__", "arena.build"),
    ("scar.arena", "Arena", "predecessors", "arena.predecessors"),
    ("scar.crsolver", "CrSolution", "edge_opt", "crsolver.edge_opt"),
    ("scar.crsolver", "CrSolution", "capturer_table", "crsolver.attribution"),
    ("scar.scarsolver", "GameSolution", "edge_opt", "scarsolver.edge_opt"),
)

# spans whose results are kept for counters and digests
KEEP_RESULTS = {
    "scarsolver.solve_game", "positionality.check", "positionality.scan", "cli.main",
}

# inclusive public calls whose self time is reported as derived
DERIVED_SELF = ("classify.classify", "positionality.check", "positionality.scan")


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_seconds: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_RESULTS

        def traced(*args, **kwargs):
            label = name
            if name == "verifysuite.case":
                label = f"verifysuite.case.{args[0]['kind']}"
            span = Span(label, 0.0, parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_seconds += span.seconds
            if keep:
                span.args, span.result = args, out
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced name that exists; a name the package no longer
        has simply yields no spans."""
        for mod_name, fn_name, span_name in FUNCTIONS:
            original = getattr(_module(mod_name), fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                in_scar = name == "scar" or name.startswith("scar.")
                if in_scar and getattr(mod, fn_name, None) is original:
                    self._set(mod, fn_name, wrapped)
        for mod_name, cls_name, attr, span_name in METHODS:
            cls = getattr(_module(mod_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            if isinstance(original, property):
                self._set(cls, attr, property(self._wrap(span_name, original.fget)))
            else:
                self._set(cls, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span, name: str) -> list[Span]:
        at = next(i for i, s in enumerate(self.spans) if s is span)
        return [s for s in self.spans if s.parent == at and s.name == name]

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            row["calls"] += 1
            row["seconds"] += s.seconds
            row["self_seconds"] += s.self_seconds
        return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def table_digests(sol, capturer, report) -> dict[str, str]:
    """Digests of the capture-time values, the capturer table and the state
    cop numbers with their witness coalitions."""
    return {
        "capture_time": sha256(sol.values.astype("<i8").tobytes()),
        "capturer": sha256(capturer.astype("i1").tobytes()),
        "state_cop": sha256(
            report.values.astype("<i8").tobytes() + report.witness_bits.astype("<u4").tobytes()
        ),
    }


def game_key(arena, player: int, params) -> str:
    graph = sha256(repr(arena.graph.neighbors).encode())[:16]
    return (
        f"graph={graph} n={arena.n_players} cop={player} gamma={params.gamma} "
        f"epsilon={params.epsilon} wide={params.allow_wide_epsilon}"
    )


def game_values(sol) -> list:
    """One cop's game value at every state, through the public `value`."""
    return [sol.value(i) for i in range(sol.arena.n_states)]


def game_values_digest(sol) -> str:
    """Digest of one cop's game values, each written a/b."""
    return sha256("\n".join(f"{v.numerator}/{v.denominator}" for v in game_values(sol)).encode())


def games_digest(tracer: Tracer) -> dict:
    """Count and combined digest of every distinct game the traced calls
    solved. A game solved twice with different values lists both digests, so
    the combined digest changes."""
    seen: dict[str, set[str]] = {}
    for span in tracer.named("scarsolver.solve_game"):
        if span.result is not None:
            arena, player, params = span.args[:3]
            seen.setdefault(game_key(arena, player, params), set()).add(
                game_values_digest(span.result)
            )
    lines = sorted(f"{key} {' '.join(sorted(d))}" for key, d in seen.items())
    return {"count": len(seen), "sha256": sha256("\n".join(lines).encode())}


def value_bits(sol) -> int:
    return max(max(v.numerator.bit_length(), v.denominator.bit_length())
               for v in game_values(sol))


@dataclass
class Probe:
    """One probe chain: per-layer seconds, counts and table digests."""

    seconds: dict[str, float]
    counts: dict[str, int]
    digests: dict[str, str]


def probe_layers(graph, n_players: int, start: str) -> Probe:
    """Call each integer layer once, in dependency order, on a fresh arena."""
    import numpy as np

    import scar
    from scar import fixpoint

    INT_INF = fixpoint.INT_INF
    tracer = Tracer()
    # the traced names are looked up after install, so the calls go through spans
    with tracer:
        arena = scar.build_arena(graph, n_players)
        pred_offsets, pred_targets = arena.predecessors()
        scar.reachable_noncapture(arena, scar.parse_state(start, n_players, graph.vertex_count))
        init = np.where(arena.capture_mask, 0, INT_INF).astype(np.int64)
        cop_moves = ~arena.robber_mover_mask()
        direct = fixpoint.solve_layers(
            arena.offsets, arena.targets, cop_moves, arena.capture_mask, init
        )
        sol = scar.solve_capture_time(arena)
        sol.edge_opt
        capturer = sol.capturer_table()
        report = scar.state_cop_report(arena)
        nc = ~arena.capture_mask
        c1 = nc & (report.values == 1) & sol.finite_mask()
        c1_robber = c1 & arena.robber_mover_mask()
        pick = c1_robber if c1_robber.any() else c1
        scar.g3_guarantee_test(arena, sol, int(np.flatnonzero(pick)[0]))

    seconds = {}
    for span_name in ("arena.build", "arena.predecessors", "arena.reachable",
                      "crsolver.capture_time", "crsolver.edge_opt",
                      "crsolver.attribution", "statecop.coalition_sweep",
                      "classify.guarantee"):
        (span,) = [s for s in tracer.named(span_name) if s.parent == -1]
        seconds[f"{span_name}_s"] = span.seconds
    top_solves = [s for s in tracer.named("fixpoint.solve_layers") if s.parent == -1]
    seconds["fixpoint.solve_layers_s"] = top_solves[0].seconds
    (sweep,) = tracer.named("statecop.coalition_sweep")
    finite = direct[direct < INT_INF]
    counts = {
        "arena.states": int(arena.n_states),
        "arena.edges": int(len(arena.targets)),
        "arena.csr_bytes": int(arena.offsets.nbytes + arena.targets.nbytes),
        "arena.pred_bytes": int(pred_offsets.nbytes + pred_targets.nbytes),
        "fixpoint.depth": int(finite.max()),
        "statecop.coalitions_solved": len(tracer.children(sweep, "fixpoint.solve_layers")),
        "classify.c1_robber_states": int(c1_robber.sum()),
    }
    digests = table_digests(sol, capturer, report)
    digests["fixpoint_direct"] = sha256(direct.astype("<i8").tobytes())
    return Probe(seconds, counts, digests)
