"""Child process of the benchmark: runs one workload in-process through
`scar.cli.main`, checks every answer against the pinned references, and
prints its raw samples as one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

MODE is `setup` (import scar.cli and build the workload's arenas, nothing
else, and report how long that took), `run` (untraced passes until S seconds have passed) or `trace`
(one warm-up pass, then untraced and traced passes alternately until S
seconds have passed, then the layer probes). The checkout's `src` is imported, never an installed
copy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS_PATH = os.path.join(HERE, "refs.json")
PROBE_CHAINS = 3
KERNEL_EVERY = 0.2  # seconds of queries between reference kernel runs
MAX_ERRORS = 5

sys.path.insert(1, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, Query, load_graph  # noqa: E402


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class OpResult:
    command: str
    seconds: float
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    scaled: float = 0.0  # seconds at reference speed


def normalize(query: Query, stdout: str) -> str:
    """The compared form of a query's stdout. `fixpoint_backend` describes the
    environment, not the answer, so arena-stats is compared without it."""
    if query.argv[0] == "arena-stats":
        data = json.loads(stdout)
        data.pop("fixpoint_backend", None)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"
    return stdout


def call_cli(argv: tuple[str, ...]) -> tuple[float, object, str, str]:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call; an
    exception escaping main is reported as the exit code."""
    from scar import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception:  # a crash in the program is a failed operation
        code = "exception"
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _case_lines(text: str) -> dict[str, str]:
    return {
        line.split()[1].rstrip(":"): line
        for line in text.splitlines()
        if line.startswith(("PASS ", "FAIL "))
    }


def check(query: Query, code, stdout: str, stderr: str, expected: str) -> tuple[int, list[str]]:
    """(operations attempted, one message per failed operation). Each
    manifest case a `verify` query runs is one operation; any other query
    is one."""
    where = f"{query.key}: "
    if query.command == "verify":
        want, got = _case_lines(expected), _case_lines(stdout)
        errors = [where + f"case {cid} gave {got.get(cid)!r}, pinned {line!r}"
                  for cid, line in want.items() if got.get(cid) != line]
        if not errors and (code != 0 or set(got) != set(want)):
            errors = [where + f"exit {code}, cases {sorted(set(got) ^ set(want))}"]
        return len(want), errors
    if code != 0:
        return 1, [where + f"exit {code}: {stderr.strip()[-300:]}"]
    try:
        same = normalize(query, stdout) == expected
    except json.JSONDecodeError:
        same = False
    return 1, [] if same else [where + "stdout differs from the pinned reference"]


def run_query(query: Query, refs: dict, cache_dir: str | None) -> OpResult:
    argv = query.argv + (("--cache-dir", cache_dir) if query.cached else ())
    seconds, code, stdout, stderr = call_cli(argv)
    expected = refs["stdout"].get(query.key)
    if expected is None:
        return OpResult(query.command, seconds, 1, 1, [f"{query.key}: no pinned reference"])
    attempted, errors = check(query, code, stdout, stderr, expected)
    return OpResult(query.command, seconds, attempted, len(errors), errors)


def run_pass(queries: list[Query], refs: dict, ref) -> tuple[float, float, list[OpResult]]:
    """Seconds of the whole query list (the sum of its calls) as measured
    and at reference speed, and each query's result. `ref` is a
    calibrate.Reference; it runs before the first query and again once at
    least KERNEL_EVERY seconds of queries have run, and the calls in between
    are rescaled by the mean of the two runs around them. Cached queries
    share one fresh cache directory, removed afterwards.

    Each CLI command normally runs in a process of its own, which frees
    everything on exit. Here the arrays a query leaves in reference cycles
    (an arena and its cached solution) are collected before the next query,
    outside the timed calls, so no query pays for its predecessor's garbage.
    """
    from calibrate import at_reference_speed

    cache_dir = None
    if any(q.cached for q in queries):
        cache_dir = tempfile.mkdtemp(prefix=".perfbench-cache-", dir=ROOT)
    try:
        ops: list[OpResult] = []
        pending: list[OpResult] = []
        before = ref.seconds()
        for i, q in enumerate(queries):
            gc.collect()
            pending.append(run_query(q, refs, cache_dir))
            if sum(o.seconds for o in pending) >= KERNEL_EVERY or i == len(queries) - 1:
                gc.collect()  # the kernel's arrays should not stack on a query's garbage
                after = ref.seconds()
                for o in pending:
                    o.scaled = at_reference_speed(o.seconds, (before + after) / 2)
                ops += pending
                pending, before = [], after
        return sum(o.seconds for o in ops), sum(o.scaled for o in ops), ops
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)


def environment() -> dict:
    import numpy

    import scar

    backend_name = getattr(scar, "backend_name", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend_name() if backend_name else "(no backend_name)",
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup(workload) -> dict:
    """Import the CLI and build every arena the workload's queries build.
    Timed from before the first import of numpy or scar (calibrate imports
    numpy, which is why this module imports it only inside functions), and
    rescaled by the median of three reference kernel runs made right
    afterwards in the same process, after one untimed run that pays the
    kernel's own first touches."""
    start = time.perf_counter()
    from scar import build_arena
    from scar import cli  # noqa: F401

    for spec, n in workload.arenas:
        build_arena(load_graph(spec), n)
    if workload.manifest_arenas:
        from scar.verifysuite import build_recipe, load_manifest

        for case in load_manifest():
            for entry in case.get("pairs", [case]):
                if "graph" in entry and "n" in entry:
                    build_arena(build_recipe(entry["graph"]), entry["n"])
    seconds = time.perf_counter() - start
    from calibrate import Reference, at_reference_speed

    ref = Reference()
    ref.seconds()
    kernel = statistics.median(ref.seconds() for _ in range(3))
    return {"seconds": seconds, "scaled": at_reference_speed(seconds, kernel)}


def run(workload, seed: int, seconds: float, refs: dict) -> dict:
    from calibrate import Reference

    queries = workload.queries(seed)
    ref = Reference()
    passes, scaled, ops = [], [], []
    start = time.perf_counter()
    while True:
        wall, at_ref, pass_ops = run_pass(queries, refs, ref)
        passes.append(wall)
        scaled.append(at_ref)
        ops += pass_ops
        if time.perf_counter() - start >= seconds:
            break
    return {
        "passes": passes,
        "scaled_passes": scaled,
        "ops": [[o.command, o.seconds, o.scaled, o.attempted, o.failed] for o in ops],
        "errors": [e for o in ops for e in o.errors][:MAX_ERRORS],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": [q.key for q in queries],
        "env": environment(),
    }


def _table_errors(got: dict, want: dict) -> tuple[int, list[str]]:
    errors = [f"table digest {k}: got {got.get(k)}, pinned {v}"
              for k, v in want.items() if got.get(k) != v]
    errors += [f"table digest {k}: not pinned" for k in got if k not in want]
    return len(set(want) | set(got)), errors


def game_groups(solves) -> list[dict]:
    """Discounted solves grouped by instance and (gamma, epsilon) point."""
    from tracing import value_bits

    groups: dict[str, dict] = {}
    for s in solves:
        arena, params = s.args[0], s.args[2]
        key = (f"{arena.graph.vertex_count}v N={arena.n_players} ({arena.n_states} states) "
               f"gamma={params.gamma} epsilon={params.epsilon}")
        g = groups.setdefault(key, {"point": key, "games": 0, "seconds": 0.0,
                                    "rounds": 0, "max_value_bits": 0})
        g["games"] += 1
        g["seconds"] += s.seconds
        g["rounds"] = max(g["rounds"], s.result.rounds)
        g["max_value_bits"] = max(g["max_value_bits"], value_bits(s.result))
    return sorted(groups.values(), key=lambda g: -g["seconds"])


def trace(workload, seed: int, seconds: float, refs: dict) -> dict:
    from calibrate import Reference, at_reference_speed
    from tracing import (
        DERIVED_SELF,
        Tracer,
        game_values,
        games_digest,
        probe_layers,
        value_bits,
    )

    queries = workload.queries(seed)
    ref = Reference()
    # the first pass in a process pays for first-touch allocations, which
    # would land on whichever side of the comparison ran first
    _, _, ops = run_pass(queries, refs, ref)
    untraced, traced = [], []
    first: Tracer | None = None
    start = time.perf_counter()
    while True:
        _, at_ref, pass_ops = run_pass(queries, refs, ref)
        untraced.append(at_ref)
        ops += pass_ops
        tracer = Tracer()
        with tracer:
            _, at_ref, pass_ops = run_pass(queries, refs, ref)
        traced.append(at_ref)
        ops += pass_ops
        if first is None:
            first = tracer
        if time.perf_counter() - start >= seconds:
            break

    attempted = sum(o.attempted for o in ops)
    errors = [e for o in ops for e in o.errors]

    games = games_digest(first)
    attempted += 1
    if games != refs["games"]:
        errors.append(f"games: solved {games}, pinned {refs['games']}")

    spec, n_players = workload.arenas[0]
    graph = load_graph(spec)
    probes = []
    before = ref.seconds()
    for _ in range(PROBE_CHAINS):
        probe = probe_layers(graph, n_players, workload.probe_state)
        after = ref.seconds()
        probe.seconds = {k: at_reference_speed(v, (before + after) / 2)
                         for k, v in probe.seconds.items()}
        before = after
        want = dict(refs["tables"])
        want["fixpoint_direct"] = want["capture_time"]
        n, errs = _table_errors(probe.digests, want)
        attempted += n
        errors += errs
        probes.append(probe)

    layers = {name: statistics.median(p.seconds[name] for p in probes)
              for name in probes[0].seconds}
    layers.update(probes[0].counts)

    def kept(name):  # spans whose call returned; a raising call is a failed op above
        return [s for s in first.named(name) if s.result is not None]

    solves = kept("scarsolver.solve_game")
    verdicts = [s.result for s in kept("positionality.check")]
    verdicts += [v for s in kept("positionality.scan") for v in s.result]
    cli_calls = [s for s in first.named("cli.main") if s.args]
    hits = [s for s in cli_calls if "--cache-dir" in s.args[0] and s.child_seconds == 0.0]
    misses = [s for s in cli_calls if "--cache-dir" in s.args[0] and s.child_seconds > 0.0]
    layers.update({
        "scarsolver.rounds": sum(s.result.rounds for s in solves),
        "scarsolver.distinct_values": max((len(set(game_values(s.result))) for s in solves),
                                          default=0),
        "scarsolver.max_value_bits": max((value_bits(s.result) for s in solves), default=0),
        "positionality.witnesses": sum(len(v.witnesses) for v in verdicts),
        "cli.cache_hits": len(hits),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    })

    summary = first.summary()
    report = {
        "spans": summary,
        "derived_self": {k: summary[k]["self_seconds"] for k in DERIVED_SELF if k in summary},
        "cache": {
            "cli.cache_hit_s": sum(s.seconds for s in hits),
            "cli.cache_miss_s": sum(s.seconds for s in misses),
            "cli.cache_misses": len(misses),
        },
        "games": game_groups(solves),
        "untraced_passes": untraced,
        "traced_passes": traced,
    }
    return {
        "layers": layers,
        "report": report,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:MAX_ERRORS],
        "env": environment(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)
    if args.mode == "setup":
        print(json.dumps(setup(workload)))
        return 0
    refs = load_refs()[workload.name]
    mode = run if args.mode == "run" else trace
    print(json.dumps(mode(workload, args.seed, args.seconds, refs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
