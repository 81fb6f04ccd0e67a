"""The scar benchmark: one workload, measured in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the checkout's `src` is what gets measured.
With `--trace 0` it times the set-up (several fresh interpreters that
import `scar.cli` and build the workload's arenas) and then the workload's
query list, pass after pass for S seconds, in one more fresh child, with
tracing off. Times are reported at reference speed: each is rescaled by a
fixed reference kernel run next to it (see calibrate.py), and the report
lines show them as measured too. With `--trace 1` a child alternates untraced and traced passes
for S seconds and then probes the integer layers one by one.

Every answer is checked against `perfbench/refs.json`; a wrong one counts as
a failed operation. The report goes to stdout, and its last line is one
JSON object with `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json declares for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
RUN_DEADLINE = 170  # seconds; a run must end within 180
GAME_LINES = 12

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def declared_metrics() -> dict[str, dict[str, str]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SCAR_CACHE_DIR", None)  # a cache would answer the capture queries
    # the same dict and set layouts in every run; random hashing moved the
    # verify-cli passes between processes
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_result(workload: str, seed: int, seconds: float, mode: str,
                  deadline: float) -> dict:
    """The JSON result of one fresh worker process."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child still running at the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_id() -> dict[str, str]:
    """The commit when the checkout is a git repository, and always a digest
    of the measured sources."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "scar")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": h.hexdigest()[:16]}


def describe(values: list[float], unit: str, what: str) -> str:
    med = statistics.median(values)
    return (f"{med:.4f} {unit}  median of {len(values)} {what} "
            f"(min {min(values):.4f}, max {max(values):.4f})")


def measure(workload: str, seed: int, seconds: float, deadline: float,
            lines: list[str]) -> tuple[dict, int, int]:
    samples = [worker_result(workload, seed, seconds, "setup", deadline)
               for _ in range(SETUP_SAMPLES)]
    setup = [s["seconds"] for s in samples]
    setup_scaled = [s["scaled"] for s in samples]
    res = worker_result(workload, seed, seconds, "run", deadline)
    ops = res["ops"]
    attempted = sum(o[3] for o in ops)
    failed = sum(o[4] for o in ops)
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "solve_s": statistics.median(res["scaled_passes"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines.append(f"env: {json.dumps(res['env'], sort_keys=True)}")
    lines.append(f"queries per pass: {len(res['queries'])}")
    lines.append("times at reference speed, then as measured:")
    lines.append(f"setup_s      {describe(setup_scaled, 's', 'fresh interpreters')}")
    lines.append(f"             {describe(setup, 's', 'as measured')}")
    lines.append(f"solve_s      {describe(res['scaled_passes'], 's', 'passes')}")
    lines.append(f"             {describe(res['passes'], 's', 'as measured')}")
    for command in dict.fromkeys(o[0] for o in ops):
        lines.append(f"{command + '_s':<12} "
                     f"{describe([o[2] for o in ops if o[0] == command], 's', 'calls')}")
        lines.append(f"             "
                     f"{describe([o[1] for o in ops if o[0] == command], 's', 'as measured')}")
    lines.append(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  one fresh child process")
    lines.append(f"error_rate   {failed / attempted:.4f}  ({failed} of {attempted} operations failed)")
    lines.extend(f"failure: {e}" for e in res["errors"])
    return metrics, attempted, failed


def measure_traced(workload: str, seed: int, seconds: float, deadline: float,
                   lines: list[str]) -> tuple[dict, int, int]:
    res = worker_result(workload, seed, seconds, "trace", deadline)
    report = res["report"]
    lines.append(f"env: {json.dumps(res['env'], sort_keys=True)}")
    lines.append("passes at reference speed, untraced: "
                 + ", ".join(f"{x:.4f}" for x in report["untraced_passes"]))
    lines.append("passes at reference speed, traced:   "
                 + ", ".join(f"{x:.4f}" for x in report["traced_passes"]))
    lines.append("spans of the first traced pass, as measured: name, calls, inclusive s, self s")
    for name, row in sorted(report["spans"].items()):
        lines.append(f"  {name:<36} {row['calls']:>6} {row['seconds']:>10.4f} "
                     f"{row['self_seconds']:>10.4f}")
    for name, value in report["derived_self"].items():
        lines.append(f"  {name}.self_s (derived: inclusive minus traced children) {value:.4f}")
    for name, value in report["cache"].items():
        lines.append(f"  {name} {value:.4f}" if name.endswith("_s") else f"  {name} {value}")
    groups = report["games"]
    if groups:
        lines.append(f"discounted solves, {len(groups)} (instance, gamma, epsilon) points, "
                     f"slowest {min(len(groups), GAME_LINES)}:")
    for g in groups[:GAME_LINES]:
        lines.append(f"  {g['point']}: {g['games']} games, {g['seconds']:.4f} s, "
                     f"at most {g['rounds']} rounds, max value bits {g['max_value_bits']}")
    lines.extend(f"failure: {e}" for e in res["errors"])
    return res["layers"], res["attempted"], res["failed"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="scar benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE
    if not os.path.isfile(os.path.join(ROOT, "src", "scar", "__init__.py")):
        print(f"error: no scar sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    lines = [f"workload {args.workload}: {WORKLOADS[args.workload].why}",
             f"seed {args.seed}, {args.seconds:g} s per run, trace {args.trace}, "
             f"{json.dumps(source_id(), sort_keys=True)}"]
    measure_fn = measure_traced if args.trace else measure
    try:
        values, attempted, failed = measure_fn(args.workload, args.seed, args.seconds,
                                               deadline, lines)
    except BenchError as exc:
        print("\n".join(lines), flush=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(declared):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(declared)}",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
