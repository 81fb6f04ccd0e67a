"""Command-line front end: output shapes, exit codes, determinism, and the
request cache."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scar import Arena, build_arena, builtin, cli, positionality, verifysuite
from scar import arena as arena_module
from scar.cli import main

DATA = Path(__file__).parent / "data"
TAIL = str(DATA / "tail_cycle.edges")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_the_readme_library_example_runs_as_written():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_the_parser_is_built_once_per_process(capsys):
    """Every call of main parses with the same parser object."""
    assert cli.build_parser() is cli.build_parser()
    first = cli.build_parser()
    run(capsys, "arena-stats", "--builtin", "path:2", "--n", "3")
    assert cli.build_parser() is first


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
    """move_edges is N V^(N-1) (2E + V), the number of moves, and
    capture_states is N (V^N - V (V-1)^(N-1)), so complete:39 N=4 answers
    without allocating its 360,896,796 moves or its capture mask."""
    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    for spec, n in [("petersen", 3), ("path:5", 4), ("star:4", 3), ("cycle:4", 2)]:
        name, _, k = spec.partition(":")
        a = build_arena(builtin(name, int(k)) if k else builtin(name), n)
        _, out, _ = run(capsys, "arena-stats", "--builtin", spec, "--n", str(n))
        got = json.loads(out)
        assert got["move_edges"] == sum(len(a.succ_indices(i)) for i in range(a.n_states)), spec
        assert got["capture_states"] == a.capture_mask.sum(), spec

    def unbuilt(*args):
        raise AssertionError("a per-state table was built")

    monkeypatch.setattr(Arena, "_slots", unbuilt)
    monkeypatch.setattr(Arena, "capture_mask", property(unbuilt))
    code, out, _ = run(capsys, "arena-stats", "--builtin", "complete:39", "--n", "4")
    got = json.loads(out)
    assert (code, got["move_edges"], got["capture_states"]) == (0, 360_896_796, 693_732)


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
    stale = json.loads(entry.read_text(encoding="utf-8")) | {"output": "stale"}
    entry.write_text(json.dumps(stale), encoding="utf-8")
    assert run(capsys, *argv)[1] == "stale\n"  # same package and request: replayed
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


def test_verify_filtered(capsys, monkeypatch):
    """The manifest is read once per call, for the id check and the run."""
    reads = []
    load = verifysuite.load_manifest

    def counted():
        reads.append(1)
        return load()

    monkeypatch.setattr(verifysuite, "load_manifest", counted)
    code, out, _ = run(capsys, "verify", "p2-n3")
    assert code == 0 and len(reads) == 1
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
    assert json.loads(entry.read_text(encoding="utf-8"))["output"] == first.rstrip("\n")


def test_poscheck_refuses_a_capture_start_with_exit_2(capsys, monkeypatch):
    def unexpected(*args):
        raise AssertionError("a game was solved")

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(positionality, "solve_game", unexpected)
    code, out, err = run(capsys, "poscheck", "--builtin", "petersen", "--n", "4",
                         "--s0", "0,1,2;0;1", "--gamma", "1/2", "--epsilon", "0")
    assert (code, out, err) == (2, "", "error: s0 0,1,2;0;1 is a capture state\n")


def test_scan_refuses_a_bad_grid_point_before_it_floods_or_solves(capsys, monkeypatch):
    """epsilon 9/10 is past 1/(N-1), and epsilon 0 before it in the grid
    is not answered first: every point is checked before the reachability
    flood and before any game is solved."""
    def unexpected(*args):
        raise AssertionError("scan flooded or solved before it checked its grid")

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(positionality, "solve_game", unexpected)
    monkeypatch.setattr(positionality, "reachable_noncapture", unexpected)
    code, out, err = run(capsys, "scan", "--builtin", "path:20", "--n", "4", "--s0", "0,1,2;10;1",
                         "--gamma-grid", "1/2,2/3,3/4,4/5", "--epsilon-grid", "0,9/10")
    assert (code, out, err) == (2, "", "error: epsilon must be a rational in [0, 1/3], got 9/10\n")


GRAPH_COMMANDS = [
    ["arena-stats"], ["cr-solve"], ["scn"], ["classify"],
    ["poscheck", "--s0", "0,1;2;1", "--gamma", "1/2", "--epsilon", "0"],
    ["scan", "--s0", "0,1;2;1", "--gamma-grid", "1/2,3/4", "--epsilon-grid", "0,1/4"],
]


@pytest.mark.parametrize("command", GRAPH_COMMANDS, ids=[argv[0] for argv in GRAPH_COMMANDS])
def test_each_graph_command_builds_one_arena_and_a_cache_hit_none(
        capsys, tmp_path, built_arenas, command):
    argv = [*command, "--builtin", "petersen", "--n", "3", "--cache-dir", str(tmp_path)]
    cold = run(capsys, *argv)
    assert cold[0] == 0 and [n for _, n, _ in built_arenas] == [3]
    del built_arenas[:]
    assert run(capsys, *argv) == cold and built_arenas == []


@pytest.mark.parametrize("command", GRAPH_COMMANDS, ids=[argv[0] for argv in GRAPH_COMMANDS])
def test_only_verify_takes_json(capsys, command):
    """`--json` changes only verify's output; the graph commands print JSON
    anyway, and argparse refuses the flag there."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--builtin", "petersen", "--n", "3", "--json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


def test_running_out_of_memory_is_one_error_line_with_exit_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(arena_module, "build_arena", exhausted)
    code, out, err = run(capsys, "arena-stats", "--builtin", "complete:39", "--n", "4")
    assert (code, out) == (2, "")
    assert err == ("error: out of memory on 39 vertices with N=4 (9253764 states); "
                   "try a smaller graph or N\n")


def test_the_graph_is_loaded_once_per_run(capsys, monkeypatch, tmp_path):
    """The cache key, the command and an out-of-memory message all read
    the one graph the run loaded."""
    loads = []

    def counted(*args):
        loads.append(args)
        return builtin(*args)

    def exhausted(*args):
        raise MemoryError

    monkeypatch.delenv("SCAR_CACHE_DIR", raising=False)
    monkeypatch.setattr(cli, "builtin", counted)
    assert run(capsys, "arena-stats", "--builtin", "path:3", "--n", "3",
               "--cache-dir", str(tmp_path))[0] == 0
    assert len(loads) == 1
    monkeypatch.setattr(arena_module, "build_arena", exhausted)
    code, out, err = run(capsys, "cr-solve", "--builtin", "path:3", "--n", "3")
    assert (code, out, len(loads)) == (2, "", 2)
    assert err == "error: out of memory on 3 vertices with N=3 (81 states); try a smaller graph or N\n"


# a child's address space: numpy imports well within it, and a request
# that tried to build what it should refuse runs out of it at once
CHILD_LIMIT = 1_500_000 * 1024


def run_child(*argv, timeout=60, script="sys.exit(main(sys.argv[1:]))", stdout=subprocess.PIPE):
    """`scar` with argv in a child under RLIMIT_AS and a timeout, so a
    hang or a runaway allocation shows as a failure, not as a stuck or
    killed test run. `script` runs in the child with `sys` and the CLI's
    `main` imported; its stdout goes to `stdout`, captured by default."""
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_LIMIT}, {CHILD_LIMIT}))\n"
            f"from scar.cli import main\n{script}")
    env = {k: v for k, v in os.environ.items() if k != "SCAR_CACHE_DIR"}
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    env["OPENBLAS_NUM_THREADS"] = "1"
    return subprocess.run([sys.executable, "-c", code, *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("argv, message", [
    # V^N * N is compared with the cap by a bounded loop, not computed
    (["--builtin", "path:3", "--n", "99999999999999999999"],
     "error: arena on 3 vertices with N=99999999999999999999 exceeds the cap of 10000000 "
     "states\n"),
    # and the refusal prints the count only when it is small
    (["--builtin", "path:3", "--n", "100000"],
     "error: arena on 3 vertices with N=100000 exceeds the cap of 10000000 states\n"),
    # K bounds V before the graph is built
    (["--builtin", "path:100000000", "--n", "3"],
     "error: path:100000000 has at least 100000000 vertices, so its arenas exceed the cap "
     "of 10000000 states\n"),
], ids=["huge-n", "large-n", "huge-k"])
def test_oversized_requests_are_refused_before_anything_is_built(argv, message):
    got = run_child("cr-solve", *argv)
    assert (got.returncode, got.stdout, got.stderr) == (2, "", message)


@pytest.mark.parametrize("argv, message", [
    (["arena-stats", "--builtin", "cycle:99999999999999999999", "--n", "4"],
     "error: cycle:99999999999999999999 has at least 99999999999999999999 vertices, so its "
     "arenas exceed the cap of 9223372036854775807 states\n"),
    (["cr-solve", "--builtin", "path:3", "--n", "50"],
     "error: arena on 3 vertices with N=50 exceeds the cap of 9223372036854775807 states\n"),
], ids=["huge-k", "huge-n"])
def test_a_state_count_must_fit_an_int64_index_whatever_the_cap(argv, message):
    """Under a cap of 60 nines, a builtin's 2K^2 bound and an arena's
    count stop at 2^63 - 1, before the graph or any table is built."""
    start = time.perf_counter()
    got = run_child(*argv, "--max-states", "9" * 60, timeout=30)
    assert (got.returncode, got.stdout, got.stderr) == (2, "", message)
    assert time.perf_counter() - start < 5.0


def test_a_sparse_edge_list_names_its_first_missing_id(tmp_path):
    """The gap is found in the sorted used ids, not in every id below the
    largest."""
    sparse = tmp_path / "sparse.edges"
    sparse.write_text("0 99999999999999999999\n", encoding="utf-8")
    got = run_child("cr-solve", "--graph", str(sparse), "--n", "3")
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr == ("error: vertex ids are not dense: 1 unused below max id "
                          "99999999999999999999\n")


def test_an_unknown_family_is_named_before_its_size_is_bounded(capsys, tmp_path):
    code, out, err = run(capsys, "arena-stats", "--builtin", "nosuch:4", "--n", "3",
                         "--max-states", "1", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown builtin graph 'nosuch'")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["classify", "--builtin", "complete:3000", "--n", "0"], "need at least 2 players, got 0"),
    (["poscheck", "--builtin", "complete:3000", "--n", "2", "--s0", "0;1;1", "--gamma", "1/2",
      "--epsilon", "0"], "need at least 3 players (2 cops), got 2"),
], ids=["classify", "poscheck"])
def test_a_bad_player_count_is_refused_before_the_graph_is_built(argv, message):
    """complete:3000 takes seconds to build; the refusal reads N alone."""
    start = time.perf_counter()
    got = run_child(*argv, "--max-states", "100000000000", timeout=30)
    assert (got.returncode, got.stdout, got.stderr) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("forged", [None, {"command": "scn"}], ids=["no-request", "another"])
def test_a_cache_entry_serves_only_its_own_request(capsys, tmp_path, forged):
    """An entry at the right path but without this request, or with another
    one, is recomputed and overwritten."""
    argv = ["cr-solve", "--builtin", "petersen", "--n", "3", "--cache-dir", str(tmp_path)]
    _, want, _ = run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    real = json.loads(entry.read_text(encoding="utf-8"))
    bogus = {"output": "bogus"}
    if forged is not None:
        bogus["request"] = real["request"] | forged
    entry.write_text(json.dumps(bogus), encoding="utf-8")
    assert run(capsys, *argv) == (0, want, "")
    assert json.loads(entry.read_text(encoding="utf-8")) == real


# after main returns (or argparse exits), the child prints its exit code,
# whether numpy was imported, and the package's modules it loaded
IMPORTS = """
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("scar."))
print(code, "numpy" in sys.modules, *loaded, file=sys.stderr)
"""


def imports_of(*argv):
    """(exit code, numpy imported?, scar modules loaded) of one child run."""
    got = run_child(*argv, script=IMPORTS)
    code, numpy, *loaded = got.stderr.splitlines()[-1].split()
    return int(code), numpy == "True", set(loaded)


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["cr-solve", "--builtin", "path:3"], 2),  # no --n: argparse's usage error
    (["cr-solve", "--builtin", "path:3", "--n", "x"], 2),
    (["cr-solve", "--builtin", "path:100000000", "--n", "3"], 2),  # 2K^2 over the cap
    (["arena-stats", "--builtin", "nosuch:4", "--n", "3", "--max-states", "1"], 2),
    (["classify", "--builtin", "petersen", "--n", "0"], 2),
], ids=["help", "usage", "bad-int", "2k2", "nosuch", "bad-n"])
def test_refusals_import_no_numpy(argv, code):
    assert imports_of(*argv)[:2] == (code, False)


def test_a_warm_cache_hit_imports_no_numpy(tmp_path):
    argv = ["cr-solve", "--builtin", "petersen", "--n", "3", "--cache-dir", str(tmp_path)]
    cold = run_child(*argv)
    assert cold.returncode == 0
    assert imports_of(*argv)[:2] == (0, False)
    assert run_child(*argv).stdout == cold.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_reader_that_closed_stdout_leaves_exit_0_and_a_quiet_stderr(
        tmp_path, monkeypatch, unbuffered):
    """`scar cr-solve ... | head -c 1`, made certain: the pipe's read end
    is closed before the child starts, so its first write fails. Solved
    and then read from the cache, the answer was made: exit 0, nothing
    on stderr, and the solved answer is still cached."""
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    argv = ["cr-solve", "--builtin", "petersen", "--n", "3", "--cache-dir", str(tmp_path)]
    for _ in ("solved", "cached"):
        read, write = os.pipe()
        os.close(read)
        try:
            got = run_child(*argv, stdout=write)
        finally:
            os.close(write)
        assert (got.returncode, got.stderr) == (0, "")
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]
    assert run_child(*argv).stdout == run_child(*argv[:-2]).stdout


def test_cr_solve_imports_only_its_own_solvers():
    code, numpy, loaded = imports_of("cr-solve", "--builtin", "petersen", "--n", "3")
    assert (code, numpy) == (0, True)
    assert {"scar.crsolver", "scar.fixpoint"} <= loaded
    assert not loaded & {"scar.positionality", "scar.scarsolver", "scar.statecop",
                         "scar.classify", "scar.verifysuite"}


# the CLI contract, drawn: every command with extreme sizes, ids, caps,
# rationals, state literals and graph files, and corrupt cache entries.
# A tame vector draws each field from the first list of its pair, a wild
# one from both; a tame vector names an arena of at most 40,000 states, so
# that it ends in well under a second.
SIZES = (["3", "4"], ["-1", "0", "1", "2", "99999999999999999999", "x", ""])
PLAYERS = (["3", "4"], ["-1", "0", "1", "2", "99999999999999999999", "x"])
CAPS = ([None, "10000000"], ["-1", "0", "1", "100", "9" * 60])
WILD_RATIONALS = ["1", "-1/2", "3/2", "1/0", "0/0", "x", "", "1e-3", "1/99999999999999999999",
                  "99999999999999999998/99999999999999999999"]
GAMMAS = (["1/2", "3/4", "99/100", "1/10"], ["0", *WILD_RATIONALS])
EPSILONS = (["0", "1/10"], ["1/2", "99/100", *WILD_RATIONALS])
STATES = ["9,9;9;9", "-1,0;1;1", "0;1;1", "", ";;", "a,b;c;d", "0,0;1;0",
          "0,0;1;99999999999999999999", "0,0,0,0,0;0;1"]
EDGE_FILES = {
    "not-utf8": b"\xff\xfe0 1\n", "sparse": b"0 99999999999999999999\n", "loop": b"0 0\n",
    "empty": b"", "twice": b"0 1\n1 0\n", "apart": b"0 1\n2 3\n", "words": b"0 x\n",
    "negative": b"-1 0\n", "one-field": b"0\n",
}
CORRUPT = st.sampled_from(['{"output": "trunc', '{"foo": 1}', '["output"]', '{"output": 7}',
                           "\xff\xfe", "", "null"])


@st.composite
def cli_vectors(draw, files: dict[str, str]) -> list[str]:
    wild = draw(st.booleans())

    def pick(values: tuple[list, list]):
        tame, other = values
        return draw(st.sampled_from(tame + other if wild else tame))

    def state() -> str:
        """A noncapture state of a tame arena on vertices 0..2, or a wild
        literal."""
        if wild and draw(st.booleans()):
            return draw(st.sampled_from(STATES))
        cops = int(n) - 1 if n in PLAYERS[0] else 2
        robber = draw(st.sampled_from("012"))
        at = draw(st.lists(st.sampled_from("012".replace(robber, "")), min_size=cops,
                           max_size=cops))
        return f"{','.join(at)};{robber};{draw(st.integers(1, cops + 1))}"

    command = draw(st.sampled_from(["arena-stats", "cr-solve", "scn", "classify", "poscheck",
                                    "scan", "verify"]))
    if command == "verify":
        ids = (["p2-n3-region", "taxonomy-k3", "tail-cycle-classic"], ["nosuchcase"])
        return [command, *(pick(ids) for _ in range(draw(st.integers(1, 2))))]
    graph = pick((["path", "cycle", "complete", "star", "petersen", "tail"],
                  ["dodecahedron", "nosuch", *sorted(files.keys() - {"tail"})]))
    if graph in files:
        argv = [command, "--graph", files[graph]]
    elif graph in ("petersen", "dodecahedron"):
        argv = [command, "--builtin", graph]
    else:
        argv = [command, "--builtin", f"{graph}:{pick(SIZES)}"]
    n = pick(PLAYERS)
    argv += ["--n", n]
    cap = pick(CAPS)
    if cap is not None:
        argv += ["--max-states", cap]
    if command in ("cr-solve", "scn") and draw(st.booleans()):
        argv += ["--state", state()]
    if command in ("poscheck", "scan"):
        argv += ["--s0", state()]
        if command == "poscheck":
            argv += ["--gamma", pick(GAMMAS), "--epsilon", pick(EPSILONS)]
        else:
            for flag, grid in (("--gamma-grid", GAMMAS), ("--epsilon-grid", EPSILONS)):
                argv += [flag, ",".join(pick(grid) for _ in range(draw(st.integers(1, 3))))]
        if draw(st.booleans()):
            argv.append("--allow-wide-epsilon")
    return argv


# runs each vector of argv[1]'s JSON list, writes "exit CODE" to stderr
# after each, and overwrites every cache entry with argv[2]'s text if given
BATCH = """
import json, pathlib
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a vector with exit 2
        code = exc.code
    print(f"exit {code}", file=sys.stderr, flush=True)
    if len(sys.argv) > 2:
        for entry in pathlib.Path(sys.argv[2]).glob("*.json"):
            entry.write_bytes(sys.argv[3].encode("latin-1"))
"""


@settings(max_examples=20, deadline=None)
@given(st.data(), st.none() | CORRUPT)
def test_drawn_argv_vectors_end_with_a_documented_exit_code(tmp_path_factory, data, corrupt):
    """A few drawn vectors per child, one child at a time: each ends in
    time with exit 0, 2 or 3, and nothing prints a traceback. With a cache,
    the vectors run twice, each entry corrupted after every run."""
    tmp = tmp_path_factory.mktemp("cli")
    files = {"tail": TAIL, "missing": str(tmp / "missing.edges")}
    for name, text in EDGE_FILES.items():
        (tmp / f"{name}.edges").write_bytes(text)
        files[name] = str(tmp / f"{name}.edges")
    vectors = data.draw(st.lists(cli_vectors(files), min_size=1, max_size=3))
    extra = []
    if corrupt is not None:
        vectors = [[*argv, "--cache-dir", str(tmp / "cache")] for argv in vectors] * 2
        extra = [str(tmp / "cache"), corrupt]
    got = run_child(json.dumps(vectors), *extra, timeout=30, script=BATCH)
    codes = re.findall(r"^exit (\S+)$", got.stderr, re.M)
    assert "Traceback" not in got.stderr, got.stderr
    assert got.returncode == 0 and len(codes) == len(vectors), got.stderr
    assert set(codes) <= {"0", "2", "3"}, (vectors, got.stderr)
