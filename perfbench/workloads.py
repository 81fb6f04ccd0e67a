"""The benchmark's workloads: which CLI queries each one issues, built from a seed.

Every workload is closed-loop: one process issues one query at a time and
waits for it. The seed only picks start states from the pinned pools below
and the order of the probes (and of the README examples); the program sees
nothing but the resulting argument lists. A pass is one run of the
workload's whole query list. The commands keep a fixed order, because the
order alone moved a pass's time by several percent between seeds (through
the allocator's state), which would blur a comparison of two commits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

HEAWOOD = "perfbench/heawood.edges"

# The README's command-line examples (verify aside), in the README's order.
README_EXAMPLES = (
    ("arena-stats", "--builtin", "petersen", "--n", "3"),
    ("cr-solve", "--builtin", "petersen", "--n", "3"),
    ("cr-solve", "--builtin", "petersen", "--n", "3", "--state", "0,2;6;1"),
    ("scn", "--builtin", "petersen", "--n", "3"),
    ("scn", "--builtin", "petersen", "--n", "3", "--state", "1,3;6;1"),
    ("classify", "--builtin", "petersen", "--n", "3"),
    ("poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
     "--gamma", "1/2", "--epsilon", "0"),
    ("scan", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
     "--gamma-grid", "1/4,1/2,3/4", "--epsilon-grid", "0,1/10", "--csv"),
)

# Pinned pools of noncapture start states (finite capture time where the
# query attributes a capture).
PATH12_PROBES = (
    "1,7,9;8;2", "7,0,0;10;4", "10,5,2;8;2", "9,10,6;0;2", "9,4,10;2;3", "0,9,3;6;4",
    "3,1,8;4;1", "1,5,4;3;4", "6,1,2;4;1", "9,4,5;2;3", "5,6,4;2;2", "5,9,8;11;2",
)
HEAWOOD_PROBES = (
    "12,12,3;11;2", "12,9,4;11;4", "0,11,11;3;1", "1,5,1;0;1", "1,3,9;4;1", "5,5,5;7;1",
    "12,6,6;13;3", "2,7,3;10;3", "10,13,9;6;2", "12,0,12;13;1", "9,13,11;10;3",
    "12,10,4;13;2",
)
PATH14_STARTS = (
    "3,11;10;3", "9,8;1;1", "8,11;1;1", "2,1;8;1", "5,13;9;1", "9,10;7;1", "7,9;2;2",
    "10,1;7;2",
)
CYCLE8_STARTS = ("2,6,4;0;4", "3,4,7;1;2", "1,1,6;0;3", "4,5,6;1;2", "5,5,5;7;2", "1,6,6;2;4")
STAR6_STARTS = ("5,6,2;1;3", "2,2,6;0;1", "3,2,6;0;2", "6,3,6;4;1", "6,1,2;0;2", "5,0,1;2;3")

PROBES_PER_PASS = 3

# `scar verify ID` runs every manifest case whose id contains ID, so the
# three other taxonomy-petersen-* cases run under "taxonomy-petersen" and
# each of the 30 cases runs once per pass.
VERIFY_PATTERNS = (
    "p2-n3-region", "p2-n4-eps-positive", "p2-n5-eps-positive", "p2-n4-eps0-window",
    "eps-positive-nonpos-p3", "eps-positive-nonpos-k3", "eps-positive-nonpos-s3",
    "eps-positive-nonpos-c4", "path-one-side-p3", "path-one-side-p4",
    "nonpath-small-copnum-k3", "nonpath-small-copnum-s3", "nonpath-small-copnum-c4",
    "nonpath-small-copnum-c5", "nonpath-small-copnum-k4", "nonpath-small-copnum-petersen-n4",
    "class-two-all-gamma", "leafy-boundary", "class-one-nonpos", "taxonomy-petersen",
    "taxonomy-dodecahedron", "taxonomy-p5", "taxonomy-k3", "tail-cycle-statecop-s1",
    "tail-cycle-statecop-s2", "tail-cycle-classic", "copnumber-crosscheck",
)


@dataclass(frozen=True)
class Query:
    """One CLI invocation. `command` names the latency it is reported under;
    `cached` queries get the pass's fresh --cache-dir appended."""

    command: str
    argv: tuple[str, ...]
    cached: bool = False

    @property
    def key(self) -> str:
        """The query's entry in the pinned references."""
        return " ".join(self.argv)


def graph_flags(spec: str) -> tuple[str, ...]:
    if spec.endswith(".edges"):
        return ("--graph", spec)
    return ("--builtin", spec)


def load_graph(spec: str):
    from scar import builtin, load_edge_list

    if spec.endswith(".edges"):
        return load_edge_list(spec)
    name, _, k = spec.partition(":")
    return builtin(name, int(k)) if k else builtin(name)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (graph spec, N) of every arena the queries build; the first one is
    # the instance the traced run probes layer by layer
    arenas: tuple[tuple[str, int], ...]
    # state of the first arena that the probes start reachability from
    probe_state: str
    # setup also builds every arena of the packaged verify manifest
    manifest_arenas: bool = False

    def queries(self, seed: int) -> list[Query]:
        return _BUILDERS[self.name](self, random.Random(seed))

    def all_queries(self) -> list[Query]:
        """Every query any seed can issue (what the references pin)."""
        return _POOL_QUERIES[self.name](self)


def _graph_args(w: Workload) -> tuple[str, ...]:
    spec, n = w.arenas[0]
    return (*graph_flags(spec), "--n", str(n))


def _capture_summaries(w: Workload) -> list[Query]:
    g = _graph_args(w)
    return [Query("cr_solve", ("cr-solve", *g)), Query("scn", ("scn", *g)),
            Query("classify", ("classify", *g))]


def _cr_probe(w: Workload, state: str) -> Query:
    return Query("cr_probe", ("cr-solve", *_graph_args(w), "--state", state))


def _capture_queries(w: Workload, probes: tuple[str, ...], rng: random.Random) -> list[Query]:
    cr_solve, scn, classify = _capture_summaries(w)
    picked = [_cr_probe(w, s) for s in rng.sample(probes, PROBES_PER_PASS)]
    return [cr_solve, *picked, scn, classify]


def _scan_query(s0: str) -> Query:
    return Query("scan", ("scan", "--builtin", "path:14", "--n", "3", "--s0", s0,
                          "--gamma-grid", "1/2,99/100", "--epsilon-grid", "0,1/10"))


def _poscheck_cycle(s0: str) -> Query:
    return Query("poscheck", ("poscheck", "--builtin", "cycle:8", "--n", "4", "--s0", s0,
                              "--gamma", "1/2", "--epsilon", "0"))


def _poscheck_star(s0: str) -> Query:
    return Query("poscheck", ("poscheck", "--builtin", "star:6", "--n", "4", "--s0", s0,
                              "--gamma", "3/4", "--epsilon", "1/10"))


def _discounted_queries(w: Workload, rng: random.Random) -> list[Query]:
    return [
        _scan_query(rng.choice(PATH14_STARTS)),
        _poscheck_cycle(rng.choice(CYCLE8_STARTS)),
        _poscheck_star(rng.choice(STAR6_STARTS)),
    ]


def _verify_queries(w: Workload, rng: random.Random) -> list[Query]:
    examples = list(README_EXAMPLES)
    rng.shuffle(examples)
    return (
        [Query("verify", ("verify", p)) for p in VERIFY_PATTERNS]
        + [Query("readme_cold", argv, cached=True) for argv in examples]
        + [Query("readme_warm", argv, cached=True) for argv in examples]
    )


_BUILDERS = {
    "capture-deep": lambda w, rng: _capture_queries(w, PATH12_PROBES, rng),
    "capture-shallow": lambda w, rng: _capture_queries(w, HEAWOOD_PROBES, rng),
    "discounted-scan": _discounted_queries,
    "verify-cli": _verify_queries,
}

_POOL_QUERIES = {
    "capture-deep": lambda w: _capture_summaries(w) + [_cr_probe(w, s) for s in PATH12_PROBES],
    "capture-shallow": lambda w: (
        _capture_summaries(w) + [_cr_probe(w, s) for s in HEAWOOD_PROBES]
    ),
    "discounted-scan": lambda w: (
        [_scan_query(s) for s in PATH14_STARTS]
        + [_poscheck_cycle(s) for s in CYCLE8_STARTS]
        + [_poscheck_star(s) for s in STAR6_STARTS]
    ),
    "verify-cli": lambda w: [Query("verify", ("verify", p)) for p in VERIFY_PATTERNS]
    + [Query("readme_cold", argv, cached=True) for argv in README_EXAMPLES],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "capture-deep",
            "path:12 N=4: 82,944 states, captures up to 42 moves deep, so the "
            "integer fixpoint runs ~42 full rounds per solve",
            (("path:12", 4),),
            "1,7,9;8;2",
        ),
        Workload(
            "capture-shallow",
            "Heawood graph N=4: 153,664 states and 614,656 moves but captures at "
            "most 11 deep; all 7 coalitions are solved",
            ((HEAWOOD, 4),),
            "12,12,3;11;2",
        ),
        Workload(
            "discounted-scan",
            "exact Fraction games: scan on path:14 N=3 at gamma 1/2 and 99/100, "
            "plus poscheck on cycle:8 and star:6 with N=4",
            (("path:14", 3), ("cycle:8", 4), ("star:6", 4)),
            "3,11;10;3",
        ),
        Workload(
            "verify-cli",
            "the 30-case verify manifest case by case, then the README examples cold "
            "and warm through --cache-dir: many small arenas, fixed costs per call",
            (("petersen", 3), ("path:2", 3)),
            "0,2;6;1",
            manifest_arenas=True,
        ),
    )
}
