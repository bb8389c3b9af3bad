import hashlib

import pytest

from riftpuzzles.cli import main

PATH6 = "0 0\n1 0\n2 0\n3 0\n4 0\n5 0\n"
SQUARE = "0 0\n1 0\n0 1\n1 1\n"
TRIANGLE = "3\n0 1\n1 2\n2 0\n"
FORK = "3\n0 1\n0 2\n1 2\n2 0\n"
STUCK_CLOCK = "4\n0 2\n1 2\n2 2\n3 2\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_solve_clock_unsolvable(tmp_path, capsys):
    path = doc(tmp_path, "stuck.clock", STUCK_CLOCK)
    code, out, _ = run(capsys, "solve", "clock", path)
    assert code == 1
    assert out == "UNSOLVABLE\n"


def test_solve_clock_roundtrips_through_verify(tmp_path, capsys):
    inst = doc(tmp_path, "a.clock", "")
    code, out, _ = run(capsys, "gen", "solvable-clock", "--max-v", "9", "--seed", "4")
    assert code == 0
    (tmp_path / "a.clock").write_text(out)
    code, out, _ = run(capsys, "solve", "clock", inst)
    assert code == 0
    sol = doc(tmp_path, "a.sol", out)
    code, out, _ = run(capsys, "verify", "clock", inst, sol)
    assert code == 0
    assert out == "ok\n"


def test_verify_rejects_wrong_clock_solution(tmp_path, capsys):
    inst = doc(tmp_path, "b.clock", "4\n0 1\n1 1\n")
    sol = doc(tmp_path, "b.sol", "0 cw\n0 cw\n")
    code, out, _ = run(capsys, "verify", "clock", inst, sol)
    assert code == 2
    assert out.startswith("violation:")


def test_reduce_dcb_threshold_line(tmp_path, capsys):
    path = doc(tmp_path, "p.grid", PATH6)
    code, out, _ = run(capsys, "reduce", "dcb", path)
    assert code == 0
    assert out.splitlines()[0] == "threshold 77"


def test_reduce_gadget_square(tmp_path, capsys):
    path = doc(tmp_path, "sq.grid", SQUARE)
    code, out, _ = run(capsys, "reduce", "dcb", path, "--gadget")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "threshold 44"
    assert lines[1] == "detects ham-cycle"


def test_solve_dcb_threshold_exit(tmp_path, capsys):
    grid = doc(tmp_path, "p.grid", PATH6)
    code, out, _ = run(capsys, "reduce", "dcb", grid)
    board = doc(tmp_path, "p.bond", out.split("\n", 1)[1])
    code, out, _ = run(capsys, "solve", "dcb", board, "--threshold", "77")
    assert code == 0
    assert out.splitlines()[0] == "length 65.0"
    code, _, _ = run(capsys, "solve", "dcb", board, "--threshold", "64")
    assert code == 1


def test_solve_dcb_threshold_on_a_cut_region_is_no(tmp_path, capsys):
    # the gadget's corridor break severs the bridge (0,1)-(0,2): no walk
    # exists, which decide_dcb and sweep dcb read as "no"
    grid = doc(tmp_path, "u.grid", "0 0\n0 1\n0 2\n1 0\n1 2\n")
    code, out, _ = run(capsys, "reduce", "dcb", grid, "--gadget")
    assert out.splitlines()[:2] == ["threshold 65", "detects ham-cycle"]
    board = doc(tmp_path, "u.bond", out.split("\n", 2)[2])
    assert run(capsys, "solve", "dcb", board, "--threshold", "65") == (1, "UNSOLVABLE\n", "")
    code, out, err = run(capsys, "solve", "dcb", board)
    assert (code, out, err) == (3, "", "invalid input: region does not connect all crystals\n")


def test_solve_and_verify_tile(tmp_path, capsys):
    grid = doc(tmp_path, "sq.grid", SQUARE)
    code, out, _ = run(capsys, "reduce", "tile", grid)
    assert code == 0
    board = doc(tmp_path, "sq.tile", out)
    code, out, _ = run(capsys, "solve", "tile", board)
    assert code == 0
    sol = doc(tmp_path, "sq.path", out)
    code, out, _ = run(capsys, "verify", "tile", board, sol)
    assert code == 0
    assert out == "ok\n"


def test_verify_cert_clean(tmp_path, capsys):
    d = doc(tmp_path, "tri.digraph", TRIANGLE)
    code, out, _ = run(capsys, "reduce", "clock", d)
    assert code == 0
    cert = doc(tmp_path, "tri.cert", out)
    code, out, _ = run(capsys, "verify", "cert", cert)
    assert code == 0
    assert "digraph yes" in out and "clock yes" in out


def test_verify_cert_refuses_labels_that_do_not_match_the_digraph(tmp_path, capsys):
    # a second out-arc whose secondary node and label are deleted, and a
    # vertex whose only arc is deleted: the audit once crashed on both (exit 1)
    code, cert, _ = run(capsys, "reduce", "clock", doc(tmp_path, "fork.digraph", FORK))
    assert code == 0
    for dropped, message in [
        ({"label 0 1 110", "node 110 12"}, "line 12: label (0,1) missing"),
        ({"arc 2 0"}, "line 13: every vertex needs outdegree 1 or 2"),
    ]:
        text = "".join(line + "\n" for line in cert.splitlines() if line not in dropped)
        got = run(capsys, "verify", "cert", doc(tmp_path, "bad.cert", text))
        assert got == (3, "", f"input error: {message}\n")


def test_move_graph_built_once_per_certificate(tmp_path, capsys, monkeypatch):
    import riftpuzzles.hands_of_time as hands_of_time

    code, cert, _ = run(capsys, "reduce", "clock", doc(tmp_path, "fork.digraph", FORK))
    assert code == 0
    builds = []
    digraph = hands_of_time.Digraph
    monkeypatch.setattr(hands_of_time, "Digraph", lambda *args: builds.append(args) or digraph(*args))
    code, _, _ = run(capsys, "verify", "cert", doc(tmp_path, "fork.cert", cert))
    assert code == 0 and len(builds) == 1
    builds.clear()
    code, out, _ = run(capsys, "sweep", "clock", "--count", "12", "--max-v", "5")
    assert out.startswith("pass ") and len(builds) == 12


def test_bond_board_beyond_the_tile_limit_exits_3(tmp_path, capsys):
    text = "model grid\nstart free\ntile {0} 0\ncrystal {0} 0\n"
    assert run(capsys, "solve", "dcb", doc(tmp_path, "near.bond", text.format(2**51))) == (0, "length 0.0\n", "")
    for x in (2**52, -(2**52)):
        code, out, err = run(capsys, "solve", "dcb", doc(tmp_path, "far.bond", text.format(x)))
        assert (code, out) == (3, "") and "strictly between -2**52 and 2**52" in err


def spy_metric_builds(monkeypatch, fresh):
    """Count distance-matrix builds; with `fresh`, every crystal_metric call
    starts on an empty cache, as before the cache existed."""
    from riftpuzzles import crystal_bonds

    builds = []
    for name in ("euclidean_geodesic_matrix", "grid_distance_matrix"):
        build = getattr(crystal_bonds, name)
        monkeypatch.setattr(crystal_bonds, name, lambda *args, build=build: builds.append(1) or build(*args))
    metric = crystal_bonds.crystal_metric

    def uncached(board):
        crystal_bonds._metric_of.cache_clear()
        return metric(board)

    monkeypatch.setattr(crystal_bonds, "crystal_metric", uncached if fresh else metric)
    crystal_bonds._metric_of.cache_clear()
    return builds


def test_verify_dcb_reuses_the_metric_solve_dcb_built(tmp_path, capsys, monkeypatch):
    boards = []
    for seed in (1, 2, 3):
        for model, side, crystals in (("grid", 14, 12), ("euclid", 12, 10)):
            _, text, _ = run(
                capsys, "gen", "bond-board", "--seed", str(seed), "--box", f"{side}x{side}",
                "--max-v", str(crystals), "--model", model,
            )
            boards.append(doc(tmp_path, f"{model}{seed}.bond", text))

    def transcript():
        out = []
        for i, board in enumerate(boards):
            solved = run(capsys, "solve", "dcb", board)
            walk = doc(tmp_path, f"{i}.walk", solved[1])
            wrong = doc(tmp_path, f"{i}.wrong", solved[1].replace("length ", "length 1"))
            out += [solved, run(capsys, "verify", "dcb", board, walk), run(capsys, "verify", "dcb", board, wrong)]
        return out

    with monkeypatch.context() as patch:
        builds = spy_metric_builds(patch, fresh=True)
        want = transcript()
        assert len(builds) == 3 * len(boards)
    builds = spy_metric_builds(monkeypatch, fresh=False)
    assert transcript() == want
    assert len(builds) == len(boards)
    assert [code for code, _, _ in want] == [0, 0, 2] * len(boards)


def test_sweep_cb_oracle_builds_one_metric_per_item(capsys, monkeypatch):
    argv = ("sweep", "cb-oracle", "--count", "20")
    with monkeypatch.context() as patch:
        builds = spy_metric_builds(patch, fresh=True)
        want = run(capsys, *argv)
        assert len(builds) == 4 * 20
    builds = spy_metric_builds(monkeypatch, fresh=False)
    assert run(capsys, *argv) == want == (0, "pass 20 fail 0\n", "")
    assert len(builds) == 20


def test_sweep_tile_trial_passes(capsys):
    code, out, _ = run(capsys, "sweep", "tile-trial", "--box", "2x3", "--max-v", "6")
    assert code == 0
    assert out.splitlines()[-1].startswith("pass ")
    assert " fail 0" in out


def test_sweep_dcb_passes(capsys):
    # the 2x3 box includes a staircase whose gadget break severs a bridge,
    # leaving the crystals unreachable; that must count as a clean "no"
    code, out, _ = run(capsys, "sweep", "dcb", "--box", "2x3", "--max-v", "6")
    assert code == 0
    assert " fail 0" in out


def test_sweep_dcb_decides_each_graph_once(capsys, monkeypatch):
    # the gadget's Hamiltonian-path answer reuses the one the plain
    # reduction was checked against
    import riftpuzzles.cli as cli
    from riftpuzzles.graphs import enumerate_grid_graphs, has_ham_path_grid

    calls = []
    monkeypatch.setattr(cli, "has_ham_path_grid", lambda g: calls.append(g) or has_ham_path_grid(g))
    code, out, _ = run(capsys, "sweep", "dcb", "--box", "2x3", "--max-v", "6")
    assert code == 0 and " fail 0" in out
    assert calls == [g for g in enumerate_grid_graphs(2, 3, 6) if len(g) >= 2]


def test_sweep_clock_reports_counterexample(capsys):
    # the subdivision detour can block the clock even when the digraph has a
    # covering path, so a long enough seeded run must surface a mismatch
    code, out, _ = run(capsys, "sweep", "clock", "--count", "20", "--max-v", "7")
    assert code == 2
    assert "fail" in out
    assert "first counterexample:" in out
    assert "circumference" in out


def test_sweep_jobs_output_is_deterministic(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # so --jobs 2 runs on any machine
    argv = ["sweep", "geo-oracle", "--box", "4x4", "--count", "8"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert (code1, out1) == (code2, out2) == (0, "pass 8 fail 0\n")


def test_sweep_jobs_above_the_cpu_count_exits_3_before_any_pool(capsys, monkeypatch):
    import concurrent.futures

    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda *a, **k: pools.append(k))
    for cpus in (1, None):  # an unknown count counts as one CPU
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        code, out, err = run(capsys, "sweep", "geo-oracle", "--count", "2", "--jobs", "2")
        assert (code, out) == (3, "") and "--jobs wants at most the CPU count 1, got 2" in err
    assert pools == []


def test_import_loads_no_process_pool():
    import os
    import subprocess
    import sys

    import riftpuzzles

    src = os.path.dirname(os.path.dirname(riftpuzzles.__file__))
    probe = "import sys, riftpuzzles.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert result.stdout == "False\n"


def test_gen_is_deterministic(capsys):
    argv = ["gen", "digraph", "--max-v", "5", "--count", "3", "--seed", "11"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.count("---\n") == 2


def test_gen_kinds_parse_back(tmp_path, capsys):
    from riftpuzzles.instance_io import parse

    for kind, parsed_as in [
        ("grid-graph", "grid-graph"),
        ("digraph", "digraph"),
        ("bond-board", "bond-board"),
        ("clock", "clock"),
        ("solvable-clock", "clock"),
    ]:
        code, out, _ = run(capsys, "gen", kind, "--seed", "3")
        assert code == 0, kind
        parse(parsed_as, out)


def test_usage_error_exits_3(capsys):
    code, _, err = run(capsys, "solve", "nonsense", "x")
    assert code == 3
    assert "error:" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "solve", "clock", "/nonexistent/x.clock")
    assert code == 3
    assert "input error:" in err


@pytest.mark.parametrize("argv", [("solve", "tile"), ("render", "clock")])
@pytest.mark.parametrize("name", ["", "missing.doc"], ids=["directory", "missing"])
def test_unreadable_input_exits_3(tmp_path, capsys, argv, name):
    # a document that cannot be read decides nothing: exit 3 with the OS's
    # own message, never a traceback with exit 1 ("unsolvable")
    path = tmp_path / name
    with pytest.raises(OSError) as raised:
        open(path, encoding="utf-8")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (3, "", f"input error: {raised.value}\n")


def test_verify_refuses_both_documents_on_stdin(capsys, monkeypatch):
    import io

    stdin = io.StringIO("5\n0 1\n")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "clock", "-", "-")
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert stdin.tell() == 0  # refused before anything was read


def test_parse_error_exits_3(tmp_path, capsys):
    bad = doc(tmp_path, "bad.clock", "4\n0 zero\n")
    code, _, err = run(capsys, "solve", "clock", bad)
    assert code == 3
    assert "line 2" in err


def test_repeated_start_line_exits_3(tmp_path, capsys):
    # read as a free start before repeated single-valued lines were refused
    bad = doc(tmp_path, "twice.bond", "model grid\nstart 0 0\nstart free\ntile 0 0\ncrystal 0 0\n")
    code, out, err = run(capsys, "solve", "dcb", bad)
    assert (code, out, err) == (3, "", "input error: line 3: repeated start line\n")


def test_budget_exhausted_exits_3(tmp_path, capsys):
    text = "26\n" + "".join(f"{i} {1 + (i * 7) % 13}\n" for i in range(26))
    path = doc(tmp_path, "big.clock", text)
    code, _, err = run(capsys, "solve", "clock", path, "--budget", "10")
    assert code == 3
    assert "gave up" in err


def test_budget_applies_to_small_clocks(tmp_path, capsys):
    text = "10\n" + "".join(f"{i} {1 + (i * 3) % 5}\n" for i in range(10))
    path = doc(tmp_path, "small.clock", text)
    code, out, err = run(capsys, "solve", "clock", path, "--budget", "1")
    assert (code, out, err) == (3, "", "gave up: no verdict within 1 nodes\n")


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(STUCK_CLOCK))
    code, out, _ = run(capsys, "solve", "clock", "-")
    assert code == 1
    assert out == "UNSOLVABLE\n"


def test_render_smoke(tmp_path, capsys):
    grid = doc(tmp_path, "sq.grid", SQUARE)
    code, out, _ = run(capsys, "render", "grid-graph", grid)
    assert code == 0
    assert out == "oo\noo\n"

    d = doc(tmp_path, "tri.digraph", TRIANGLE)
    code, out, _ = run(capsys, "render", "digraph", d)
    assert code == 0
    assert "0 -> 1" in out

    code, out, _ = run(capsys, "reduce", "tile", grid)
    board = doc(tmp_path, "sq.tile", out)
    code, out, _ = run(capsys, "render", "tile-board", board)
    assert code == 0
    assert "S" in out and "F" in out and "offset" not in out

    code, out, _ = run(capsys, "reduce", "dcb", grid)
    bond = doc(tmp_path, "sq.bond", out.split("\n", 1)[1])
    code, out, _ = run(capsys, "render", "bond-board", bond)
    assert code == 0
    assert "bond 0-4" in out

    clock = doc(tmp_path, "c.clock", "4\n0 1\n1 1\n")
    code, out, _ = run(capsys, "render", "clock", clock)
    assert code == 0
    assert "circumference 4" in out


def test_bad_box_exits_3(capsys):
    code, _, err = run(capsys, "sweep", "geo-oracle", "--box", "four")
    assert code == 3
    assert "WxH" in err


# `solve dcb` stdout on seeded Euclidean boards, pinned byte for byte:
# (seed, box side, crystals, first line, sha256 of the whole output)
EUCLID_SOLVE_PINS = [
    (1, 30, 40, "length 537.2316915289106",
     "04229ba74ea0976d78d8c8431d62e3baac39a41babdda4afa9d66b8777cf1bd9"),
    (2, 50, 60, "length 1201.9747855247915",
     "9b8f034dd1f031d9dfd954f06c95d56bee3dcc6084b2a9e6df06fe7fa1c896c7"),
    (2026, 80, 80, "length 2931.0234413988574",
     "c472712c065b5137a771ef7e54075221a168cb0a7dce88ee467456ecbeec4324"),
]


@pytest.mark.parametrize(
    "seed,side,crystals,first,digest", EUCLID_SOLVE_PINS, ids=("30x30", "50x50", "80x80")
)
def test_solve_dcb_euclid_output_pinned(tmp_path, capsys, seed, side, crystals, first, digest):
    code, board, _ = run(
        capsys, "gen", "bond-board", "--seed", str(seed), "--box", f"{side}x{side}",
        "--max-v", str(crystals), "--model", "euclid",
    )
    assert code == 0
    code, out, _ = run(capsys, "solve", "dcb", doc(tmp_path, "b.bond", board))
    assert code == 0
    assert out.splitlines()[0] == first
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# CLI bytes pinned exactly, captured before the verdict, tile-helper and
# grid-BFS merges: every verify kind's violation line, a full bond-board
# rendering with a start tile, and a 16-odd-crystal grid-model solve.

PATH6_WALK = "".join(f"visit {i}\n" for i in (0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 11, 5))


@pytest.mark.parametrize(
    "kind,instance,solution,line",
    [
        ("tile", "S*F\n", "0 0\n2 0\n",
         "violation: consecutive steps must be orthogonally adjacent at (2, 0)\n"),
        ("clock", "4\n0 1\n1 1\n", "0 cw\n0 cw\n", "violation: empty-node selection (0)\n"),
        ("clock", "4\n0 1\n1 1\n2 1\n", "0 cw\n2 cw\n", "violation: illegal move ((0, 2))\n"),
    ],
    ids=("tile", "clock-empty", "clock-illegal"),
)
def test_verify_violation_lines_pinned(tmp_path, capsys, kind, instance, solution, line):
    code, out, _ = run(
        capsys, "verify", kind, doc(tmp_path, "i.doc", instance), doc(tmp_path, "s.doc", solution)
    )
    assert (code, out) == (2, line)


@pytest.mark.parametrize(
    "walk,line",
    [
        ("length 65.0\nvisit 0\nvisit 6\nvisit 1\n", "violation: missing bond ((1, 7))\n"),
        ("length 64.0\n" + PATH6_WALK, "violation: length mismatch (65)\n"),
    ],
    ids=("missing-bond", "length-mismatch"),
)
def test_verify_dcb_violation_lines_pinned(tmp_path, capsys, walk, line):
    code, out, _ = run(capsys, "reduce", "dcb", doc(tmp_path, "p.grid", PATH6))
    board = doc(tmp_path, "p.bond", out.split("\n", 1)[1])
    code, out, _ = run(capsys, "verify", "dcb", board, doc(tmp_path, "p.walk", walk))
    assert (code, out) == (2, line)
    code, out, _ = run(
        capsys, "verify", "dcb", board, doc(tmp_path, "ok.walk", "length 65.0\n" + PATH6_WALK)
    )
    assert (code, out) == (0, "ok\n")


def test_verify_dcb_rejects_non_finite_length(tmp_path, capsys):
    # a NaN length compares unequal to nothing, so it once verified as ok
    code, out, _ = run(capsys, "reduce", "dcb", doc(tmp_path, "p.grid", PATH6))
    board = doc(tmp_path, "p.bond", out.split("\n", 1)[1])
    for length in ("nan", "inf"):
        walk = doc(tmp_path, "p.walk", f"length {length}\n" + PATH6_WALK)
        code, out, err = run(capsys, "verify", "dcb", board, walk)
        assert (code, out) == (3, "")
        assert err == f"input error: line 1: walk length must be finite, got {length}\n"


def test_render_bond_board_pinned(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce", "dcb", doc(tmp_path, "sq.grid", SQUARE), "--gadget")
    board = doc(tmp_path, "g.bond", out.split("\n", 2)[2])
    code, out, _ = run(capsys, "render", "bond-board", board)
    assert code == 0
    assert out == (
        "#Sbf......hd\n"
        "###########.\n"
        "ji.########.\n"
        "##.########.\n"
        "##.########.\n"
        "##.########.\n"
        "##.########.\n"
        "##.########.\n"
        "##.########g\n"
        "##ae.......c\n"
        "bond 0-4\nbond 1-5\nbond 2-6\nbond 3-7\nbond 8-9\n"
    )


def test_solve_dcb_grid_spider_output_pinned(tmp_path, capsys):
    # one hub with 15 two-crystal legs: 16 odd-degree crystals, the
    # matching limit
    import random

    from riftpuzzles.crystal_bonds import BondBoard
    from riftpuzzles.geometry import gen_random_region, tile_center
    from riftpuzzles.instance_io import serialize

    rng = random.Random(7)
    region = gen_random_region(rng.randrange(2**32), 30, 30, 600)
    picks = rng.sample(sorted(region.tiles), 32)
    bonds = [(0 if s == 0 else 2 * leg + 1, 2 * leg + 1 + s) for leg in range(15) for s in range(2)]
    board = BondBoard(
        region, tuple(map(tile_center, picks[:31])), tile_center(picks[31]), tuple(bonds), "grid"
    )
    code, out, _ = run(capsys, "solve", "dcb", doc(tmp_path, "s.bond", serialize(board)))
    assert code == 0
    assert out.splitlines()[0] == "length 573.0"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5472d50987424e52834150d8ed14a9efd9954bb9266898415bda51dfd384141f"
    )


# stdout of every gen, reduce and render kind, pinned by sha256; captured
# before gen, reduce and render became table-driven

L_SHAPE = "0 0\n1 0\n2 0\n2 1\n2 2\n1 2\n"


def sha(out):
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("grid-graph", "--seed", "5", "--count", "3", "--box", "7x5"),
         "827dd50a63feedcccd5578d1a7952f9050b09b1adfe776ee2e8d938274b1729c"),
        (("grid-graph", "--seed", "2", "--max-v", "9"),
         "495bbdc133ebd6594677a86bf5397e04a82a7f0852c79e152d588cde49a0a219"),
        (("digraph", "--seed", "5", "--count", "3", "--max-v", "7"),
         "f7ca0d2ffea6ada1c8d784442ab79e2b2672c9e588aafcdafbf7fcd0d222694f"),
        (("digraph", "--seed", "1"),
         "764b7cd96bda35dd0e34ce712809cc3f4659622fe8ec1e4a2f1b913015868864"),
        (("bond-board", "--seed", "5", "--count", "2", "--box", "12x12", "--max-v", "9",
          "--model", "grid"),
         "05862f3d8b15bec98d7095a2c8b6b659b1282711c715db2d195a959715525755"),
        (("bond-board", "--seed", "5", "--count", "2", "--box", "12x12", "--max-v", "9",
          "--model", "euclid"),
         "d8f8c1616498125ee1f24e3ed3bc42e64cff23b120ef6c479ce3fad366874145"),
        (("bond-board", "--seed", "8"),
         "29230761d26c1ec591b959f6657d56547206cc3f1da5363d7fcb2ae49dc41445"),
        (("clock", "--seed", "5", "--count", "3", "--max-v", "9"),
         "cefc6fb1e3bee4cae9ed8ffd7f28dee566d0ce5b459f17cbc2dffbde9ffd2ad3"),
        (("clock", "--seed", "1"),
         "89bfd30837eddef957d390c3f6e79c8cddf03fccaf46a3e087fb70a397047074"),
        (("solvable-clock", "--seed", "5", "--count", "3", "--max-v", "9"),
         "04d5fad0e35c73a39ab097afa8881247de6c186848c206908fb2d72b08025d7a"),
        (("solvable-clock", "--seed", "1"),
         "4bbec132b9f0f562d9d0f5d566cc40d9861a25a34814b2f3e2c8f54ada2b2978"),
    ],
)
def test_gen_output_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0
    assert sha(out) == digest


@pytest.mark.parametrize(
    "argv,source,digest",
    [
        (("tile",), L_SHAPE, "e4ac785ec2e7e709b99994ceaa28756cad3e44258fb061090a557fc51caf085c"),
        (("dcb",), L_SHAPE, "f4d64e01e5a30daa84c45cb0bec226db60b11184d4355cde55cce4108b0ac9a3"),
        (("dcb", "--gadget"), L_SHAPE,
         "d9aaa22e46896f5459271c13591660efc7bcfed3fb85b87ba7f5f420742016d6"),
        (("dcb", "--gadget"), PATH6,
         "436464e52fc99e6522fab4a11cb1aa6a155a9d6c25b77052dca9be825fa78863"),
        (("clock",), "4\n0 1\n1 2\n2 3\n3 0\n1 3\n",
         "c718ade6259e7739cfbc5325b74d78a093ee039d5e165bffdc019d965f0ff966"),
        # second arcs on either side of j and past it: m < j, k < j < m, j < k
        (("clock",), "4\n0 1\n0 2\n1 0\n1 3\n2 0\n2 1\n3 0\n",
         "982b0e3db46e714933032d91572471166dd624e6bebc5cbad6c25bef85b1ffe1"),
    ],
    ids=("tile", "dcb", "dcb-gadget-cycle", "dcb-gadget-path", "clock", "clock-all-placements"),
)
def test_reduce_output_pinned(tmp_path, capsys, argv, source, digest):
    code, out, _ = run(capsys, "reduce", argv[0], doc(tmp_path, "in.doc", source), *argv[1:])
    assert code == 0
    assert sha(out) == digest


@pytest.mark.parametrize(
    "kind,produce,digest",
    [
        ("grid-graph", ("gen", "grid-graph", "--seed", "3", "--box", "8x6"),
         "488356d488a8125dbec71449ca83267677494dd6ec1e00cec860bd3e71e76c46"),
        ("digraph", ("gen", "digraph", "--seed", "3", "--max-v", "6"),
         "57658cd96acf90e8722b0dedac18074c269988d50236d7a1044bb3b21e2880c5"),
        ("tile-board", ("reduce", "tile", "{grid}"),
         "9d013cebc083c3be6dff79fa98538e1c6b2c740e415967bed0b1c30a1c1d7f2d"),
        ("bond-board", ("gen", "bond-board", "--seed", "3", "--box", "10x10", "--max-v", "8"),
         "7b3a8b4391f53233bc1662490499bff8e3b9f38cd34f2db3017291fde06f37ac"),
        ("bond-board", ("reduce", "dcb", "{grid}", "--gadget"),
         "0e29debe7536b0785b65a320a4de77da36c2f8bb93f0f4f858f340a89d7f1562"),
        ("clock", ("gen", "clock", "--seed", "3", "--max-v", "6"),
         "ebc59b65270d8e80d64b1900ac4ebc069eb63c2d1b0c653dda67f58391506f06"),
        ("clock", None, "1c3c7cd743c21f1a292a8143fa7a1e326ff08c624ea4769ee2039d1e80ec8f8a"),
    ],
    ids=("grid-graph", "digraph", "tile-board", "bond-board", "bond-board-start", "clock",
         "clock-empty"),
)
def test_render_output_pinned(tmp_path, capsys, kind, produce, digest):
    if produce is None:
        text = "4\n"
    else:
        grid = doc(tmp_path, "l.grid", L_SHAPE)
        code, text, _ = run(capsys, *(a.format(grid=grid) for a in produce))
        assert code == 0
        if produce[1] == "dcb":
            text = text.split("\n", 2)[2]
    code, out, _ = run(capsys, "render", kind, doc(tmp_path, "in.doc", text))
    assert code == 0
    assert sha(out) == digest


# Every library function the command tables call, with a command line that
# must call it.  A run-time tracer rebinds these names on riftpuzzles.cli
# after import, so a table holding a function captured at import time would
# run the original and escape the trace.
REBOUND = [
    ("parse", ("render", "clock", "{clock}")),
    ("serialize", ("gen", "digraph")),
    ("solve_tile_trial", ("solve", "tile", "{tile}")),
    ("solve_crystal_bonds", ("solve", "dcb", "{tree}")),
    ("brute_force_crystal_bonds", ("solve", "dcb", "{forest}")),
    ("solve_clock", ("solve", "clock", "{clock}")),
    ("reduce_grid_to_tile_trial", ("reduce", "tile", "{grid}")),
    ("reduce_grid_to_dcb", ("reduce", "dcb", "{grid}")),
    ("apply_start_gadget", ("reduce", "dcb", "{grid}", "--gadget")),
    ("reduce_digraph_to_phot", ("reduce", "clock", "{digraph}")),
    ("verify_tile_path", ("verify", "tile", "{tile}", "{path}")),
    ("verify_bond_walk", ("verify", "dcb", "{tree}", "{walk}")),
    ("verify_clock_solution", ("verify", "clock", "{clock}", "{moves}")),
    ("audit_certificate", ("verify", "cert", "{cert}")),
    ("evaluate_certificate", ("verify", "cert", "{cert}")),
    ("gen_random_region", ("gen", "grid-graph")),
    ("gen_random_digraph", ("gen", "digraph")),
    ("gen_random_tree_board", ("gen", "bond-board")),
    ("gen_random_clock", ("gen", "clock")),
    ("gen_solvable_clock", ("gen", "solvable-clock")),
    ("clock_to_digraph", ("render", "clock", "{clock}")),
    ("tile_of", ("render", "bond-board", "{tree}")),
    ("enumerate_grid_graphs", ("sweep", "tile-trial", "--box", "2x2", "--max-v", "3")),
    ("has_ham_cycle_grid", ("sweep", "tile-trial", "--box", "2x2", "--max-v", "3")),
    ("has_ham_path_grid", ("sweep", "dcb", "--box", "2x2", "--max-v", "3")),
    ("decide_dcb", ("sweep", "dcb", "--box", "2x2", "--max-v", "3")),
    ("euclidean_geodesic", ("sweep", "geo-oracle", "--box", "3x3", "--count", "2")),
    ("fine_grid_distance", ("sweep", "geo-oracle", "--box", "3x3", "--count", "2")),
    ("tile_center", ("sweep", "geo-oracle", "--box", "3x3", "--count", "2")),
]


@pytest.fixture(scope="module")
def rebound_docs(tmp_path_factory):
    """Input documents for REBOUND's command lines, made with the CLI."""
    import contextlib
    import io

    root = tmp_path_factory.mktemp("rebound")

    def save(name, text):
        (root / name).write_text(text)
        return str(root / name)

    def out(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, argv
        return buf.getvalue()

    docs = {"grid": save("sq.grid", SQUARE), "digraph": save("tri.digraph", TRIANGLE)}
    docs["tile"] = save("sq.tile", out("reduce", "tile", docs["grid"]))
    docs["path"] = save("sq.path", out("solve", "tile", docs["tile"]))
    docs["tree"] = save("tree.bond", out("gen", "bond-board", "--seed", "3"))
    docs["walk"] = save("tree.walk", out("solve", "dcb", docs["tree"]))
    docs["forest"] = save("p.bond", out("reduce", "dcb", save("p.grid", PATH6)).split("\n", 1)[1])
    docs["clock"] = save("c.clock", out("gen", "solvable-clock", "--seed", "4", "--max-v", "6"))
    docs["moves"] = save("c.moves", out("solve", "clock", docs["clock"]))
    docs["cert"] = save("tri.cert", out("reduce", "clock", docs["digraph"]))
    return docs


def test_rebound_list_covers_every_library_function():
    import inspect

    import riftpuzzles.cli as cli

    library = {
        name for name, value in vars(cli).items()
        if inspect.isfunction(value) and not name.startswith("_")
        and value.__module__ != cli.__name__
    }
    assert library == {name for name, _ in REBOUND}


@pytest.mark.parametrize("name,argv", REBOUND, ids=[name for name, _ in REBOUND])
def test_commands_call_names_rebound_after_import(capsys, monkeypatch, rebound_docs, name, argv):
    import riftpuzzles.cli as cli

    original = getattr(cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, _, err = run(capsys, *(a.format(**rebound_docs) for a in argv))
    assert code == 0, err
    assert calls, f"{' '.join(argv)} did not call the rebound {name}"


def test_one_parser_serves_every_call(capsys, monkeypatch, rebound_docs):
    import riftpuzzles.cli as cli

    lines = dict.fromkeys(argv for _, argv in REBOUND)
    good = [tuple(a.format(**rebound_docs) for a in argv) for argv in lines]
    assert {argv[0] for argv in good} == {"solve", "reduce", "verify", "gen", "sweep", "render"}
    unknown_kind = ("solve", "nope", rebound_docs["tile"])
    bad_box = ("gen", "grid-graph", "--box", "3")  # raised from inside argparse
    fresh = {}
    for argv in [unknown_kind, bad_box, *good]:
        cli._build_parser.cache_clear()
        fresh[argv] = run(capsys, *argv)
    assert fresh[unknown_kind][0] == fresh[bad_box][0] == 3

    builds = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    # each usage error is followed by a valid call on the same parser
    for argv in [unknown_kind, *good, bad_box, *good]:
        assert run(capsys, *argv) == fresh[argv], argv
    assert builds.count("riftpuzzles") == 1
