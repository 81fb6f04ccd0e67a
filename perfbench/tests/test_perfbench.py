"""Tests of the benchmark itself: its answer gate and its declared metrics.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import worker  # noqa: E402
from calibrate import Reference  # noqa: E402
from workloads import README_EXAMPLES, Query  # noqa: E402

RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def declared(key: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("query, pinned_text", [
    (Query("readme_cold", README_EXAMPLES[1]), '"n_states": 3000'),  # cr-solve, petersen N=3
    (Query("verify", ("verify", "tail-cycle-statecop-s1")), "PASS tail-cycle-statecop-s1"),
])
def test_pinned_answer_passes_and_altered_answer_fails(query, pinned_text):
    refs = worker.load_refs()["verify-cli"]
    _, _, ops = worker.run_pass([query], refs, Reference())
    assert [(o.attempted, o.failed) for o in ops] == [(1, 0)]

    pinned = refs["stdout"][query.key]
    assert pinned_text in pinned
    altered = dict(refs, stdout=dict(refs["stdout"]))
    altered["stdout"][query.key] = pinned.replace(pinned_text, pinned_text + "1")
    _, _, ops = worker.run_pass([query], altered, Reference())
    assert [(o.attempted, o.failed) for o in ops] == [(1, 1)]


def test_each_verify_case_is_one_operation():
    refs = worker.load_refs()["verify-cli"]
    query = Query("verify", ("verify", "taxonomy-petersen"))
    pinned = refs["stdout"][query.key]
    assert worker.check(query, 0, pinned, "", pinned) == (4, [])

    failing = pinned.replace("PASS taxonomy-petersen-c4", "FAIL taxonomy-petersen-c4")
    attempted, errors = worker.check(query, 1, failing, "", pinned)
    assert attempted == 4 and len(errors) == 1


def test_run_counts_a_failed_operation_against_altered_refs(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    refs_path = tmp_path / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    summary = "cr-solve --graph perfbench/heawood.edges --n 4"
    refs["capture-shallow"]["stdout"][summary] += " "
    refs_path.write_text(json.dumps(refs))

    proc = subprocess.run(RUN + ["--workload", "capture-shallow", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_printed_metrics_match_benchmark_json():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(RUN + ["--workload", "capture-shallow", "--seed", "2",
                                     "--seconds", "1", "--trace", trace],
                              cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == declared(key)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(RUN + ["--workload", "capture-deep", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_skips_names_the_package_lacks(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "FUNCTIONS", tracing.FUNCTIONS + (
        ("scar.fixpoint", "no_such_function", "missing.function"),
        ("scar.no_such_module", "f", "missing.module"),
    ))
    monkeypatch.setattr(tracing, "METHODS", tracing.METHODS + (
        ("scar.arena", "NoSuchClass", "f", "missing.class"),
        ("scar.arena", "Arena", "no_such_method", "missing.method"),
    ))
    with tracing.Tracer() as tracer:
        _, code, _, _ = worker.call_cli(("cr-solve", "--builtin", "path:2", "--n", "3"))
    assert code == 0
    assert {s.name for s in tracer.spans} >= {"cli.main", "arena.build", "crsolver.capture_time"}
