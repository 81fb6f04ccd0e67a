"""Command-line front end: JSON reports, scan tables, result caching, and
the packaged verification suite.

Exit codes: 0 success, 1 verification-suite failures, 2 invalid input or a
request too large for memory, 3 solver failure (a failed self-check or an
attribution violation).
A cache entry that cannot be written is reported as a warning on stderr and
leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile

from .arena import DEFAULT_MAX_STATES, GameParams, State, build_arena, parse_state
from .classify import _int_or_inf, classify
from .crsolver import capture_attribution, solve_capture_time
from .errors import ScarError, ValidationError
from .fixpoint import INT_INF
from .graphs import Graph, builtin, load_edge_list, serialize_edge_list
from .positionality import check_positionality, scan_region
from .rationals import format_rational, parse_rational
from .statecop import state_cop_report
from .verifysuite import load_manifest, run_suite

WITNESS_CAP = 50


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_graph(args) -> Graph:
    if getattr(args, "graph", None) and getattr(args, "builtin", None):
        raise ValidationError("give either --graph or --builtin, not both")
    if getattr(args, "graph", None):
        return load_edge_list(args.graph)
    if getattr(args, "builtin", None):
        name, _, k = args.builtin.partition(":")
        if k:
            try:
                size = int(k)
            except ValueError:
                raise ValidationError(f"bad builtin size in {args.builtin!r}") from None
            return builtin(name, size)
        return builtin(name)
    raise ValidationError("a graph is required: --graph FILE or --builtin NAME[:K]")


def _grid(args, field: str) -> list:
    """The rationals of a comma-separated grid option; an empty grid is bad
    input."""
    values = [parse_rational(part) for part in getattr(args, field).split(",") if part.strip()]
    if not values:
        raise ValidationError(f"--{field.replace('_', '-')} lists no values")
    return values


# -- subcommands ------------------------------------------------------------


def cmd_arena_stats(args) -> tuple[str, int]:
    g = _load_graph(args)
    arena = build_arena(g, args.n, args.max_states)
    v, n = g.vertex_count, args.n
    # a position is a capture unless every cop avoids the robber's vertex
    captures = n * (v**n - v * (v - 1) ** (n - 1))
    # the mover sits on vertex u in N V^(N-1) states, each with deg(u) + 1 moves
    return _dump(
        {
            "vertices": g.vertex_count,
            "edges": g.edge_count,
            "n_players": args.n,
            "n_states": arena.n_states,
            "capture_states": captures,
            "noncapture_states": arena.n_states - captures,
            "move_edges": arena.n_states // g.vertex_count * (2 * g.edge_count + g.vertex_count),
        }
    ), 0


def cmd_cr_solve(args) -> tuple[str, int]:
    g = _load_graph(args)
    arena = build_arena(g, args.n, args.max_states)
    sol = solve_capture_time(arena)
    if args.state is None:
        q, finite = arena.quotient(), sol.depths < INT_INF
        report = {
            "n_states": arena.n_states,
            "forced_capture_states": q.count(finite & ~q.capture),
            "escape_states": q.count(~finite),
            "max_finite_capture_time": _int_or_inf(int(sol.depths[finite].max())),
        }
        return _dump(report), 0
    s = parse_state(args.state, args.n, g.vertex_count)
    t = sol.capture_time(s)
    report = {"state": s.literal(), "capture_time": _int_or_inf(t)}
    if not arena.is_capture(s):
        report["optimal_moves"] = [m.literal() for m in sol.opt_moves(s)]
        if t != math.inf:
            cop, _ = capture_attribution(sol, s)
            report["capturing_cop"] = cop
    return _dump(report), 0


def cmd_scn(args) -> tuple[str, int]:
    g = _load_graph(args)
    arena = build_arena(g, args.n, args.max_states)
    report = state_cop_report(arena)
    if args.state is not None:
        s = parse_state(args.state, args.n, g.vertex_count)
        value = report.value(s)
        out = {"state": s.literal(), "c_state": _int_or_inf(value)}
        if value != math.inf:
            out["witness_coalition"] = list(report.witness_coalition(s))
        return _dump(out), 0
    q = arena.quotient()
    nc, vals = ~q.capture, report.orbit_values
    counts = {str(size): q.count(nc & (vals == size)) for size in range(1, args.n)}
    counts["inf"] = q.count(nc & (vals >= INT_INF))
    return _dump(
        {
            "noncapture_states": q.count(nc),
            "c_state_counts": counts,
            "max_c_state": _int_or_inf(report.max_over_noncapture()),
        }
    ), 0


def cmd_classify(args) -> tuple[str, int]:
    g = _load_graph(args)
    got = classify(g, args.n, args.max_states)
    return _dump(
        {
            "class": got.klass,
            "evidence": got.evidence,
            "g3_exists_variant": got.g3_exists_variant,
            "g3_adversarial_variant": got.g3_adversarial_variant,
        }
    ), 0


def _verdict_json(v) -> dict:
    witnesses = [
        {"n": n, "m": m, "state": s.literal()} for n, m, s in v.first_witnesses(WITNESS_CAP)
    ]
    return {
        "n_players": v.n_players,
        "gamma": format_rational(v.gamma),
        "epsilon": format_rational(v.epsilon),
        "s0": v.s0.literal(),
        "positional_exists": v.positional_exists,
        "nonpositional_exists": v.nonpositional_exists,
        "witness_count": v.witness_count,
        "witnesses": witnesses,
    }


def cmd_poscheck(args) -> tuple[str, int]:
    g = _load_graph(args)
    params = GameParams(
        args.n,
        parse_rational(args.gamma),
        parse_rational(args.epsilon),
        args.allow_wide_epsilon,
    )
    arena = build_arena(g, args.n, args.max_states)
    s0 = parse_state(args.s0, args.n, g.vertex_count)
    verdict = check_positionality(arena, s0, params)
    return _dump(_verdict_json(verdict)), 0


def cmd_scan(args) -> tuple[str, int]:
    g = _load_graph(args)
    s0 = parse_state(args.s0, args.n, g.vertex_count)
    rows = scan_region(
        g,
        args.n,
        s0,
        _grid(args, "gamma_grid"),
        _grid(args, "epsilon_grid"),
        args.allow_wide_epsilon,
        args.max_states,
    )
    table = [
        {
            "epsilon": format_rational(v.epsilon),
            "gamma": format_rational(v.gamma),
            "positional_exists": v.positional_exists,
            "nonpositional_exists": v.nonpositional_exists,
            "witness_count": v.witness_count,
        }
        for v in rows
    ]
    if args.csv:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(table[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(table)
        return buf.getvalue().rstrip("\n"), 0
    return _dump({"n_players": args.n, "s0": s0.literal(), "rows": table}), 0


def cmd_verify(args) -> tuple[str, int]:
    ids = [case["id"] for case in load_manifest()]
    for pattern in args.ids:
        if not any(pattern in case_id for case_id in ids):
            raise ValidationError(f"no manifest case id contains {pattern!r}")
    results = run_suite(args.ids or None)
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.case_id}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    if args.json:
        text = _dump(
            {
                "passed": passed,
                "total": len(results),
                "results": [
                    {"id": r.case_id, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            }
        )
    else:
        lines.append(f"passed {passed}/{len(results)}")
        text = "\n".join(lines)
    return text, 0 if passed == len(results) else 1


# -- plumbing -----------------------------------------------------------------


@functools.cache
def _package_digest() -> str:
    """sha256 over the package's own sources and manifest, so that an entry
    written by any other version of the package is a miss."""
    root = pathlib.Path(__file__).parent
    h = hashlib.sha256()
    for path in [*sorted(root.glob("*.py")), root / "data" / "verification_suite.json"]:
        h.update(f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def _cache_key(args, command: str) -> str | None:
    cache_dir = args.cache_dir or os.environ.get("SCAR_CACHE_DIR")
    if not cache_dir:
        return None
    request = {"command": command, "package": _package_digest()}
    if getattr(args, "graph", None) or getattr(args, "builtin", None):
        request["graph"] = serialize_edge_list(_load_graph(args))
    for field in ("n", "max_states", "allow_wide_epsilon", "csv", "state", "s0"):
        if hasattr(args, field):
            request[field] = getattr(args, field)
    for field in ("gamma", "epsilon"):
        if getattr(args, field, None) is not None:
            request[field] = format_rational(parse_rational(getattr(args, field)))
    for field in ("gamma_grid", "epsilon_grid"):
        if getattr(args, field, None) is not None:
            request[field] = [format_rational(x) for x in _grid(args, field)]
    blob = json.dumps(request, sort_keys=True).encode()
    return os.path.join(cache_dir, hashlib.sha256(blob).hexdigest() + ".json")


def _read_cache(path: str) -> str | None:
    """The cached output at path, or None when the entry is missing,
    unreadable or not one this program wrote (it is then overwritten)."""
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    output = entry.get("output") if isinstance(entry, dict) else None
    return output if isinstance(output, str) else None


def _write_cache(path: str, text: str) -> None:
    """Write the entry through a unique temporary file, so concurrent
    writers never share one and readers never see a partial entry."""
    cache_dir = os.path.dirname(path)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump({"output": text}, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _out_of_memory(args) -> str:
    """What ran out of memory, named by the size of the request's arena."""
    if not hasattr(args, "n"):
        return "out of memory"
    v = _load_graph(args).vertex_count
    return (f"out of memory on {v} vertices with N={args.n} "
            f"({v**args.n * args.n} states); try a smaller graph or N")


def _add_graph_flags(p):
    p.add_argument("--graph", help="edge-list file (lines 'u v', 0-based)")
    p.add_argument("--builtin", help="named graph: path:K, cycle:K, complete:K, "
                                     "star:K, petersen, dodecahedron")
    p.add_argument("--n", type=int, required=True, help="number of players N")
    p.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES,
                   dest="max_states")


def _add_common(p):
    p.add_argument("--json", action="store_true", help="JSON output (the default)")
    p.add_argument("--cache-dir", dest="cache_dir", default=None,
                   help="cache reports here (also honours SCAR_CACHE_DIR)")


@functools.cache  # the parser does not depend on the arguments; one per process
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="scar",
        description="Exact solvers for selfish-cop pursuit games on graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arena-stats", help="state-space dimensions")
    _add_graph_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_arena_stats)

    p = sub.add_parser("cr-solve", help="capture-time game: values and optimal moves")
    _add_graph_flags(p)
    _add_common(p)
    p.add_argument("--state", help='state literal "c1,...;r;mover"')
    p.set_defaults(func=cmd_cr_solve)

    p = sub.add_parser("scn", help="state cop numbers")
    _add_graph_flags(p)
    _add_common(p)
    p.add_argument("--state", help='state literal "c1,...;r;mover"')
    p.set_defaults(func=cmd_scn)

    p = sub.add_parser("classify", help="place (graph, N) in the taxonomy")
    _add_graph_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("poscheck", help="positional / nonpositional existence at one point")
    _add_graph_flags(p)
    _add_common(p)
    p.add_argument("--gamma", required=True, help="discount, rational 'a/b'")
    p.add_argument("--epsilon", required=True, help="payoff split, rational 'a/b'")
    p.add_argument("--s0", required=True, help='start state literal "c1,...;r;mover"')
    p.add_argument("--allow-wide-epsilon", action="store_true",
                   dest="allow_wide_epsilon")
    p.set_defaults(func=cmd_poscheck)

    p = sub.add_parser("scan", help="verdict table over a (gamma, epsilon) grid")
    _add_graph_flags(p)
    _add_common(p)
    p.add_argument("--gamma-grid", required=True, dest="gamma_grid",
                   help="comma-separated rationals")
    p.add_argument("--epsilon-grid", required=True, dest="epsilon_grid",
                   help="comma-separated rationals")
    p.add_argument("--s0", required=True, help='start state literal')
    p.add_argument("--allow-wide-epsilon", action="store_true",
                   dest="allow_wide_epsilon")
    p.add_argument("--csv", action="store_true", help="emit a CSV table")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run the packaged verification suite")
    _add_common(p)
    p.add_argument("ids", nargs="*", help="only cases whose id contains any of these")
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cache_path = None
        if args.command != "verify":
            cache_path = _cache_key(args, args.command)
            cached = _read_cache(cache_path) if cache_path else None
            if cached is not None:
                print(cached)
                return 0
        text, code = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {_out_of_memory(args)}", file=sys.stderr)
        return 2
    except ScarError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    print(text)
    if cache_path and code == 0:
        try:
            _write_cache(cache_path, text)
        except OSError as exc:
            print(f"warning: result not cached: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
