"""Regenerate refs.json, the pinned answers every benchmark run is checked
against, from the scar sources in this checkout:

    python3 perfbench/pin.py

Pins the normalized stdout of every query any seed can issue, the digests of
the full capture-time, capturer and state-cop tables on each workload's
probed instance, and the digest of every discounted game a traced pass
solves. Run it only when an answer is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

from calibrate import Reference
from worker import REFS_PATH, ROOT, call_cli, normalize, run_pass
from workloads import WORKLOADS, load_graph


def pin_workload(workload) -> dict:
    from tracing import Tracer, games_digest, probe_layers

    stdout = {}
    for query in workload.all_queries():
        _, code, out, err = call_cli(query.argv)
        if code != 0 and query.command != "verify":
            raise SystemExit(f"{query.key}: exit {code}\n{err}")
        stdout[query.key] = normalize(query, out)
        print(f"pinned {workload.name}: {query.key}", file=sys.stderr)

    spec, n = workload.arenas[0]
    tables = probe_layers(load_graph(spec), n, workload.probe_state).digests
    tables.pop("fixpoint_direct")

    tracer = Tracer()
    refs = {"stdout": stdout, "tables": tables}
    with tracer:
        run_pass(workload.queries(0), refs, Reference())
    refs["games"] = games_digest(tracer)
    return refs


def main() -> int:
    os.chdir(ROOT)
    refs = {name: pin_workload(w) for name, w in WORKLOADS.items()}
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
