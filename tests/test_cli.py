"""Command-line front end: output shapes, exit codes, determinism, and the
request cache."""

import json
import os
from pathlib import Path

import pytest

from scar import Arena, build_arena, builtin, cli, positionality
from scar.cli import main

DATA = Path(__file__).parent / "data"
TAIL = str(DATA / "tail_cycle.edges")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_arena_stats_shape(capsys):
    code, out, _ = run(capsys, "arena-stats", "--builtin", "path:2", "--n", "3")
    assert code == 0
    got = json.loads(out)
    assert got["vertices"] == 2 and got["edges"] == 1
    assert got["n_states"] == 24
    assert got["capture_states"] + got["noncapture_states"] == 24
    assert set(got) == {
        "vertices", "edges", "n_players", "n_states", "capture_states",
        "noncapture_states", "move_edges",
    }


def test_arena_stats_counts_the_moves_without_building_them(capsys, monkeypatch):
    """move_edges is N V^(N-1) (2E + V), the length of the successor table,
    so complete:39 N=4 answers without allocating its 360,896,796 targets."""
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    for spec, n in [("petersen", 3), ("path:5", 4), ("star:4", 3), ("cycle:4", 2)]:
        name, _, k = spec.partition(":")
        g = builtin(name, int(k)) if k else builtin(name)
        _, out, _ = run(capsys, "arena-stats", "--builtin", spec, "--n", str(n))
        assert json.loads(out)["move_edges"] == len(build_arena(g, n).targets), spec

    def unbuilt(*args):
        raise AssertionError("a move table was built")

    monkeypatch.setattr(Arena, "_slots", unbuilt)
    code, out, _ = run(capsys, "arena-stats", "--builtin", "complete:39", "--n", "4")
    assert (code, json.loads(out)["move_edges"]) == (0, 360_896_796)


def test_cr_solve_summary_and_state(capsys):
    code, out, _ = run(capsys, "cr-solve", "--graph", TAIL, "--n", "3")
    assert code == 0
    got = json.loads(out)
    assert got["n_states"] == 7 * 7 * 7 * 3
    assert got["escape_states"] == 0  # two cops always win here
    assert got["max_finite_capture_time"] >= 1

    code, out, _ = run(
        capsys, "cr-solve", "--graph", TAIL, "--n", "3", "--state", "2,6;4;3"
    )
    got = json.loads(out)
    assert got["capture_time"] >= 1
    assert got["optimal_moves"]
    assert got["capturing_cop"] in (1, 2)


def test_cr_solve_escape_state(capsys):
    code, out, _ = run(
        capsys, "cr-solve", "--builtin", "petersen", "--n", "3", "--state", "0,2;6;3"
    )
    assert code == 0
    assert json.loads(out)["capture_time"] == "inf"


def test_scn_state_and_sweep(capsys):
    code, out, _ = run(capsys, "scn", "--graph", TAIL, "--n", "3", "--state", "2,6;4;3")
    assert code == 0
    got = json.loads(out)
    assert got["c_state"] == 1
    assert got["witness_coalition"] in ([1], [2])

    code, out, _ = run(capsys, "scn", "--graph", TAIL, "--n", "3")
    got = json.loads(out)
    assert set(got["c_state_counts"]) == {"1", "2", "inf"}
    assert got["max_c_state"] == 2
    assert got["c_state_counts"]["inf"] == 0


def test_classify_petersen(capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "petersen", "--n", "3")
    assert code == 0
    got = json.loads(out)
    assert got["class"] == "G2"
    assert got["evidence"]["max_state_cop_number"] == "inf"


def test_poscheck_verdicts(capsys):
    base = ["poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1"]
    code, out, _ = run(capsys, *base, "--gamma", "1/2", "--epsilon", "0")
    assert code == 0
    got = json.loads(out)
    assert got["positional_exists"] is True
    assert got["gamma"] == "1/2" and got["epsilon"] == "0"

    code, out, _ = run(capsys, *base, "--gamma", "3/4", "--epsilon", "0")
    got = json.loads(out)
    assert got["positional_exists"] is False
    assert got["witness_count"] >= 1
    assert got["witnesses"][0].keys() == {"n", "m", "state"}


def test_scan_csv_table(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--builtin",
        "path:2",
        "--n",
        "3",
        "--s0",
        "0,0;1;1",
        "--gamma-grid",
        "1/4,1/2,3/4",
        "--epsilon-grid",
        "0",
        "--csv",
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "epsilon,gamma,positional_exists,nonpositional_exists,witness_count"
    assert len(lines) == 4
    assert lines[1].startswith("0,1/4,True")
    assert lines[3].startswith("0,3/4,False")


def test_scan_json_rows(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--builtin",
        "path:2",
        "--n",
        "3",
        "--s0",
        "0,0;1;1",
        "--gamma-grid",
        "1/2",
        "--epsilon-grid",
        "0,1/5",
    )
    got = json.loads(out)
    assert [r["epsilon"] for r in got["rows"]] == ["0", "1/5"]


def test_identical_requests_print_identical_bytes(capsys):
    argv = ["classify", "--builtin", "petersen", "--n", "3"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_cache_round_trip(capsys, tmp_path):
    argv = [
        "poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
        "--gamma", "1/2", "--epsilon", "0", "--cache-dir", str(tmp_path),
    ]
    _, first, _ = run(capsys, *argv)
    entries = list(tmp_path.iterdir())
    assert len(entries) == 1
    stamp = entries[0].stat().st_mtime_ns
    _, second, _ = run(capsys, *argv)
    assert second == first
    assert entries[0].stat().st_mtime_ns == stamp  # replayed, not recomputed


def test_cache_misses_an_entry_from_another_package_version(capsys, tmp_path, monkeypatch):
    argv = ["arena-stats", "--builtin", "path:2", "--n", "3", "--cache-dir", str(tmp_path)]
    _, want, _ = run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    entry.write_text(json.dumps({"output": "stale"}), encoding="utf-8")
    assert run(capsys, *argv)[1] == "stale\n"  # same package: replayed
    monkeypatch.setattr(cli, "_package_digest", lambda: "another version", raising=False)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, want)  # computed again, not replayed
    assert len(list(tmp_path.iterdir())) == 2


def test_failed_cache_write_warns_and_keeps_the_exit_code(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = ["arena-stats", "--builtin", "path:2", "--n", "3"]
    _, want, _ = run(capsys, *argv)
    code, out, err = run(capsys, *argv, "--cache-dir", str(not_a_dir))
    assert (code, out) == (0, want)
    assert err.startswith("warning: ") and err.count("\n") == 1


def test_cache_distinguishes_requests(capsys, tmp_path):
    base = [
        "poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
        "--epsilon", "0", "--cache-dir", str(tmp_path),
    ]
    run(capsys, *base, "--gamma", "1/2")
    run(capsys, *base, "--gamma", "3/4")
    assert len(list(tmp_path.iterdir())) == 2


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SCAR_CACHE_DIR", str(tmp_path))
    run(capsys, "arena-stats", "--builtin", "path:2", "--n", "3")
    assert len(list(tmp_path.iterdir())) == 1


def test_verify_filtered(capsys):
    code, out, _ = run(capsys, "verify", "p2-n3")
    assert code == 0
    assert "PASS p2-n3-region" in out
    assert out.rstrip().endswith("passed 1/1")


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json", "p2-n3")
    assert code == 0
    got = json.loads(out)
    assert got["passed"] == got["total"] == 1
    assert got["results"][0]["id"] == "p2-n3-region"


@pytest.mark.parametrize(
    "argv",
    [
        ["arena-stats", "--builtin", "path:2", "--graph", "x.edges", "--n", "3"],
        ["arena-stats", "--n", "3"],
        ["arena-stats", "--graph", "/nonexistent/file.edges", "--n", "3"],
        ["arena-stats", "--builtin", "nosuchgraph", "--n", "3"],
        ["arena-stats", "--builtin", "path:two", "--n", "3"],
        ["cr-solve", "--builtin", "path:2", "--n", "3", "--state", "9,9;9;9"],
        ["poscheck", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
         "--gamma", "3/2", "--epsilon", "0"],
        ["arena-stats", "--builtin", "petersen", "--n", "6", "--max-states", "1000"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_verify_refuses_a_pattern_that_matches_no_case(capsys):
    code, out, err = run(capsys, "verify", "p2-n3", "nosuchcase")
    assert (code, out, err) == (2, "", "error: no manifest case id contains 'nosuchcase'\n")


def test_a_graph_file_that_is_not_utf8_is_one_error_line_with_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"\xff\xfe0 1\n")
    code, out, err = run(capsys, "cr-solve", "--graph", str(bad), "--n", "3")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: edge list {str(bad)!r} is not UTF-8 text")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--gamma-grid", "--epsilon-grid"], ids=["gamma", "epsilon"])
@pytest.mark.parametrize("empty", ["", " , "], ids=["empty", "blank"])
def test_scan_refuses_an_empty_grid(capsys, monkeypatch, flag, empty):
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    grids = {"--gamma-grid": "1/2", "--epsilon-grid": "0", flag: empty}
    code, out, err = run(capsys, "scan", "--builtin", "path:2", "--n", "3", "--s0", "0,0;1;1",
                         *(part for item in grids.items() for part in item))
    assert (code, out, err) == (2, "", f"error: {flag} lists no values\n")


def test_error_paths_are_not_cached(capsys, tmp_path):
    argv = [
        "arena-stats", "--builtin", "nosuchgraph", "--n", "3",
        "--cache-dir", str(tmp_path),
    ]
    code, _, _ = run(capsys, *argv)
    assert code == 2
    assert list(tmp_path.iterdir()) == []

@pytest.mark.parametrize(
    "bad_entry",
    ['{"output": "trunc', '{"foo": 1}', '["output"]', '{"output": 7}', "\xff\xfe"],
    ids=["truncated", "foreign", "list", "non-string", "not-utf8"],
)
def test_bad_cache_entry_is_a_miss_and_is_overwritten(capsys, tmp_path, bad_entry):
    argv = ["arena-stats", "--builtin", "path:2", "--n", "3", "--cache-dir", str(tmp_path)]
    _, first, _ = run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(bad_entry.encode("latin-1"))
    code, second, err = run(capsys, *argv)
    assert (code, second, err) == (0, first, "")
    (rewritten,) = tmp_path.iterdir()  # no temporary file left behind
    assert rewritten == entry
    assert json.loads(entry.read_text(encoding="utf-8")) == {"output": first.rstrip("\n")}


def test_poscheck_refuses_a_capture_start_with_exit_2(capsys, monkeypatch):
    def unexpected(*args):
        raise AssertionError("a game was solved")

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(positionality, "solve_game", unexpected)
    code, out, err = run(capsys, "poscheck", "--builtin", "petersen", "--n", "4",
                         "--s0", "0,1,2;0;1", "--gamma", "1/2", "--epsilon", "0")
    assert (code, out, err) == (2, "", "error: s0 0,1,2;0;1 is a capture state\n")


def test_running_out_of_memory_is_one_error_line_with_exit_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "build_arena", exhausted)
    code, out, err = run(capsys, "arena-stats", "--builtin", "complete:39", "--n", "4")
    assert (code, out) == (2, "")
    assert err == ("error: out of memory on 39 vertices with N=4 (9253764 states); "
                   "try a smaller graph or N\n")
