import hashlib
import sys

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
    # exists, which decide_dcb and sweep dcb read as "no"; the euclid metric
    # finds the cut by its tile flood
    grid = doc(tmp_path, "u.grid", "0 0\n0 1\n0 2\n1 0\n1 2\n")
    code, out, _ = run(capsys, "reduce", "dcb", grid, "--gadget")
    assert out.splitlines()[:3] == ["threshold 65", "detects ham-cycle", "model grid"]
    for model in ("grid", "euclid"):
        board = doc(tmp_path, "u.bond", out.split("\n", 2)[2].replace("model grid", f"model {model}"))
        assert run(capsys, "solve", "dcb", board, "--threshold", "65") == (1, "UNSOLVABLE\n", "")
        assert run(capsys, "solve", "dcb", board) == (3, "", "invalid input: region does not connect all crystals\n")


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


def test_verify_cert_refuses_a_solution_document(tmp_path, capsys, monkeypatch):
    import io

    code, text, _ = run(capsys, "reduce", "clock", doc(tmp_path, "tri.digraph", TRIANGLE))
    assert code == 0
    cert = doc(tmp_path, "tri.cert", text)
    refused = (3, "", "error: verify cert takes no solution document\n")
    assert run(capsys, "verify", "cert", cert, "/nonexistent/sol") == refused
    stdin = io.StringIO(text)
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, "verify", "cert", "-", cert) == refused
    assert stdin.tell() == 0  # refused before anything was read


def test_verify_cert_prints_the_audit_and_exits_2(tmp_path, capsys):
    # one spacer moved off its construction value, so it lands on neither
    # target: both verdicts still agree (the path 1, 2, 0 ends on the spacer),
    # so only the audit makes this a failure
    code, cert, _ = run(capsys, "reduce", "clock", doc(tmp_path, "fork.digraph", FORK))
    assert code == 0 and "node 122 100\n" in cert
    bad = doc(tmp_path, "bad.cert", cert.replace("node 122 100\n", "node 122 101\n"))
    assert run(capsys, "verify", "cert", bad) == (
        2,
        "node 122: 101 here, 100 in the construction\n"
        "intended arc (122, 22) missing from the move graph\n"
        "intended arc (122, 222) missing from the move graph\n"
        "digraph yes\nclock yes\n",
        "",
    )


def test_verify_cert_flags_stored_verdicts_that_disagree(tmp_path, capsys):
    code, cert, _ = run(capsys, "reduce", "clock", doc(tmp_path, "tri.digraph", TRIANGLE))
    assert code == 0
    fresh = "digraph yes\nclock yes\n"
    stored = doc(tmp_path, "same.cert", cert + "verdict digraph yes\nverdict clock yes\n")
    assert run(capsys, "verify", "cert", stored) == (0, fresh, "")
    # each verdict line is optional; one stored verdict that agrees is not stale
    for verdicts in ("verdict clock yes\n", "verdict digraph yes\n"):
        one = doc(tmp_path, "one.cert", cert + verdicts)
        assert run(capsys, "verify", "cert", one) == (0, fresh, ""), verdicts
    for verdicts in (
        "verdict digraph no\nverdict clock no\n",
        "verdict clock no\n",
        "verdict digraph no\nverdict clock yes\n",
    ):
        stale = doc(tmp_path, "stale.cert", cert + verdicts)
        got = run(capsys, "verify", "cert", stale)
        assert got == (2, fresh + "stored verdicts disagree with recomputation\n", ""), verdicts


def test_verify_cert_refuses_labels_that_do_not_match_the_digraph(tmp_path, capsys):
    # a second out-arc whose spacer node and label are deleted, and a
    # vertex whose only arc is deleted: the audit once crashed on both (exit 1)
    code, cert, _ = run(capsys, "reduce", "clock", doc(tmp_path, "fork.digraph", FORK))
    assert code == 0
    for dropped, message in [
        ({"label 0 1 122", "node 122 100"}, "line 12: label (0,1) missing"),
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
    """Count metric builds (the grid engine every metric builds first) and
    segment walks; with `fresh`, every crystal_metric call starts on an
    empty cache, as before the cache existed."""
    from riftpuzzles import crystal_bonds, geometry

    builds, walks = [], []
    for module, name, log in (
        (crystal_bonds, "_GridDistances", builds), (geometry, "_walk", walks),
    ):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, build=build, log=log: log.append(1) or build(*args))
    metric = crystal_bonds.crystal_metric

    def uncached(board):
        crystal_bonds._metric_of.cache_clear()
        return metric(board)

    monkeypatch.setattr(crystal_bonds, "crystal_metric", uncached if fresh else metric)
    crystal_bonds._metric_of.cache_clear()
    return builds, walks


def test_verify_dcb_reuses_the_metric_solve_dcb_built(tmp_path, capsys, monkeypatch):
    from riftpuzzles import instance_io
    from riftpuzzles.instance_io import parse
    from test_geometry import euclidean_geodesic_matrix

    boards, texts = [], []
    for seed in (1, 2, 3):
        for model, side, crystals in (("grid", 14, 12), ("euclid", 12, 10)):
            _, text, _ = run(
                capsys, "gen", "bond-board", "--seed", str(seed), "--box", f"{side}x{side}",
                "--max-v", str(crystals), "--model", model,
            )
            boards.append(doc(tmp_path, f"{model}{seed}.bond", text))
            texts.append(text)

    reads, bulk = [], instance_io._bulk_bond_board
    monkeypatch.setattr(instance_io, "_bulk_bond_board", lambda text: reads.append(text) or bulk(text))

    def transcript(walks):
        # every op's result, and the segment walks each `verify dcb` of the
        # solver's own walk ran
        out, verify_walks = [], []
        instance_io._parse_bond_board.cache_clear()
        for i, board in enumerate(boards):
            reads.clear()
            solved = run(capsys, "solve", "dcb", board)
            walk = doc(tmp_path, f"{i}.walk", solved[1])
            wrong = doc(tmp_path, f"{i}.wrong", solved[1].replace("length ", "length 1"))
            before = len(walks)
            checked = run(capsys, "verify", "dcb", board, walk)
            verify_walks.append(len(walks) - before)
            out += [solved, checked, run(capsys, "verify", "dcb", board, wrong)]
            # the solve and both verifies read the board document once
            assert reads == [texts[i]]
        return out, verify_walks

    with monkeypatch.context() as patch:
        builds, walks = spy_metric_builds(patch, fresh=True)
        want, fresh_walks = transcript(walks)
        assert len(builds) == 3 * len(boards)
        for text, count in zip(texts, fresh_walks):
            board = parse("bond-board", text)
            if board.distance_model == "grid":
                assert count == 0
                continue
            before = len(walks)
            euclidean_geodesic_matrix(board.region, list(board.crystals) + [board.start])
            # a fresh verify walks only the pairs it reads
            assert 0 < count < len(walks) - before, (text, count)
    builds, walks = spy_metric_builds(monkeypatch, fresh=False)
    got, cached_walks = transcript(walks)
    assert got == want
    # one metric per board, and verify reads only entries solve already read
    assert len(builds) == len(boards)
    assert cached_walks == [0] * len(boards)
    assert [code for code, _, _ in want] == [0, 0, 2] * len(boards)


def test_sweep_cb_oracle_builds_one_metric_per_item(capsys, monkeypatch):
    argv = ("sweep", "cb-oracle", "--count", "20")
    with monkeypatch.context() as patch:
        builds, _ = spy_metric_builds(patch, fresh=True)
        want = run(capsys, *argv)
        assert len(builds) == 4 * 20
    builds, _ = spy_metric_builds(monkeypatch, fresh=False)
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


def test_enumerated_graphs_are_not_flooded_again(tmp_path, capsys, monkeypatch):
    # the sweeps' graphs come from the enumerator, which builds only connected
    # sets; a parsed graph is flooded once by the reduction's refusal
    from test_graphs import spy_floods

    floods = spy_floods(monkeypatch)
    assert run(capsys, "sweep", "tile-trial", "--box", "3x4", "--max-v", "9") == (0, "pass 1039 fail 0\n", "")
    assert run(capsys, "sweep", "dcb", "--box", "3x3", "--max-v", "7") == (0, "pass 199 fail 0\n", "")
    assert floods == []
    path = doc(tmp_path, "sq.grid", SQUARE)
    for verb in ("tile", "dcb"):
        floods.clear()
        assert run(capsys, "reduce", verb, path)[0] == 0
        assert len(floods) == 1, verb


def test_sweep_clock_reports_counterexample(capsys, monkeypatch):
    # a clock solver that never finds a selection order disagrees with every
    # digraph that has a Hamiltonian path: the sweep prints the first such
    # certificate and exits 2
    import riftpuzzles.hands_of_time as hands_of_time

    argv = ("sweep", "clock", "--count", "20", "--max-v", "7")
    assert run(capsys, *argv) == (0, "pass 20 fail 0\n", "")
    monkeypatch.setattr(hands_of_time, "solve_clock", lambda *args, **kwargs: None)
    assert run(capsys, *argv) == (
        2,
        "pass 3 fail 17\nfirst counterexample:\nvertices 2\narc 0 1\narc 1 0\ncircumference 2000\n"
        "node 2 20\nnode 22 20\nlabel 0 0 2\nlabel 1 0 22\nverdict digraph yes\nverdict clock no\n",
        "",
    )


def test_reduce_clock_refuses_a_third_vertex_on_one_out_pair(tmp_path, capsys):
    # vertices 0, 3 and 4 all point at 1 and 2, which have two midpoints
    path = doc(tmp_path, "triple.digraph", "5\n0 1\n0 2\n1 0\n2 0\n3 1\n3 2\n4 1\n4 2\n")
    assert run(capsys, "reduce", "clock", path) == (
        3, "", "invalid input: vertex 4 is the third to point at 1 and 2\n"
    )


def negated(referee):
    return lambda *args: not referee(*args)


def doubled(referee):
    return lambda *args: 2 * referee(*args)


# (family's referee in riftpuzzles.cli, how it is broken, command line,
# stdout): a sweep whose referee is wrong must report the first item it
# disagrees on
BROKEN_REFEREES = [
    ("has_ham_cycle_grid", negated, ("tile-trial", "--box", "2x2", "--max-v", "4"),
     "pass 0 fail 9\nfirst counterexample:\n0 0\n0 1\n"),
    ("has_ham_path_grid", negated, ("dcb", "--box", "2x2", "--max-v", "4"),
     "pass 0 fail 9\nfirst counterexample:\n0 0\n0 1\n"),
    # the plain reduction still agrees; only the square's cycle gadget is
    # checked against the broken referee
    ("has_ham_cycle_grid", negated, ("dcb", "--box", "2x2", "--max-v", "4"),
     "pass 8 fail 1\nfirst counterexample:\n0 0\n0 1\n1 0\n1 1\n"),
    ("fine_grid_distance", doubled, ("geo-oracle", "--box", "4x4", "--count", "10"),
     "pass 2 fail 8\nfirst counterexample:\nseed 0 p (1.5, 0.5) q (2.5, 0.5) exact 1.0 fine 2.0\n"),
]


@pytest.mark.parametrize(
    "name,wrap,argv,out", BROKEN_REFEREES, ids=["tile-trial", "dcb-path", "dcb-gadget", "geo-oracle"]
)
def test_sweep_reports_a_broken_referee(capsys, monkeypatch, name, wrap, argv, out):
    import riftpuzzles.cli as cli

    monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    assert run(capsys, "sweep", *argv) == (2, out, "")


def one_longer(board, walk):
    # the same bonds in the same order, claiming one more step than it walks
    return walk.visit_sequence, walk.total_length + 1


def with_detour(board, walk):
    # a valid walk one step longer: back to the crystal before the last
    from riftpuzzles.crystal_bonds import crystal_metric

    seq = walk.visit_sequence
    return seq + (seq[-2],), walk.total_length + crystal_metric(board)[seq[-1]][seq[-2]]


@pytest.mark.parametrize("worse", [one_longer, with_detour])
def test_sweep_cb_oracle_reports_a_longer_referee_walk(capsys, monkeypatch, worse):
    import riftpuzzles.cli as cli
    from riftpuzzles.crystal_bonds import BondWalk, gen_random_tree_board
    from riftpuzzles.instance_io import serialize

    referee = cli.brute_force_crystal_bonds
    monkeypatch.setattr(cli, "brute_force_crystal_bonds", lambda b: BondWalk(*worse(b, referee(b))))
    first = serialize(gen_random_tree_board(0, box_w=8, box_h=8, r=5, model="grid"))
    code, out, err = run(capsys, "sweep", "cb-oracle", "--count", "3")
    assert (code, out, err) == (2, "pass 0 fail 3\nfirst counterexample:\n" + first, "")


# (command line, a call each item makes once, items begun, stderr, the state
# budget if not the default): items were checked before the give-up, yet no
# partial count is printed
# each names the item that gave up and the tally of the items before it
GIVE_UPS = [
    # the subset DPs of items 1-14 hold at most 37 sets; item 15's, on 16
    # vertices, holds 128
    (("clock", "--count", "20", "--max-v", "20"), "evaluate_certificate", 15,
     "gave up: item 15 (14 passed, 0 failed before it): over 127 vertex sets in all by size 15 of 16\n", 127),
    # item 153, the 18-vertex path, reduces to 18 bonds: 2^18 bond masks
    (("dcb", "--box", "18x1", "--max-v", "18"), "has_ham_path_grid", 153,
     "gave up: item 153 (152 passed, 0 failed before it): over 200000 bond masks for 18 bonds\n", None),
    (("clock", "--count", "5", "--budget", "3"), "evaluate_certificate", 2,
     "gave up: item 2 (1 passed, 0 failed before it): no verdict within 3 nodes\n", None),
    # the enumeration counts the box's one-cell sets before it builds any
    (("tile-trial", "--box", "1000000x1000000", "--max-v", "3"), "reduce_grid_to_tile_trial", 0,
     "gave up: item 1 (0 passed, 0 failed before it): over 200000 connected sets in all by size 1 in box 1000000x1000000\n",
     None),
]


@pytest.mark.parametrize("argv,name,begun,err,budget", GIVE_UPS, ids=["clock", "dcb", "clock-budget", "tile-trial"])
def test_a_sweep_that_gives_up_prints_nothing_on_stdout(capsys, monkeypatch, argv, name, begun, err, budget):
    import riftpuzzles.cli as cli
    from riftpuzzles import graphs

    if budget is not None:
        monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", budget)
    calls = []
    call = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a) or call(*a, **k))
    assert run(capsys, "sweep", *argv) == (3, "", err)
    assert len(calls) == begun


@pytest.mark.parametrize(
    "argv,err",
    [
        (("clock", "--count", "0"), "--count wants at least 1, got 0"),
        (("geo-oracle", "--count", "-3"), "--count wants at least 1, got -3"),
        (("cb-oracle", "--count", "0"), "--count wants at least 1, got 0"),
        (("tile-trial", "--max-v", "1"), "sweep tile-trial has no items; nothing was checked"),
    ],
)
def test_sweep_that_would_check_nothing_exits_3(capsys, argv, err):
    # `pass 0 fail 0` would read as an all-pass
    assert run(capsys, "sweep", *argv) == (3, "", f"error: {err}\n")


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


# running an imported module again as __main__ warns that it is already loaded
@pytest.mark.filterwarnings("ignore:.*found in sys.modules:RuntimeWarning")
def test_module_run_as_a_script_exits_with_the_status(capsys, monkeypatch):
    import runpy

    monkeypatch.setattr("sys.argv", ["riftpuzzles", "solve", "clock", "/nonexistent/x.clock"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_module("riftpuzzles.cli", run_name="__main__")
    assert exited.value.code == 3
    assert capsys.readouterr().err.startswith("input error: ")


CLOCK_SWEEP = ["sweep", "clock", "--count", "200", "--max-v", "16", "--seed", "5"]


def test_closed_stdout_exits_3_not_1(capsys, monkeypatch):
    # a reader that closed its end (`| head -c 5`) decided nothing about the
    # sweep: gave up, never exit 1, the code for "unsolvable"
    import errno
    import io

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(CLOCK_SWEEP) == 3
    assert capsys.readouterr().err == "gave up: standard output was closed\n"


def test_closed_stdout_descriptor_points_at_devnull(capsys):
    # buffered output meets the closed pipe at main's flush; the descriptor
    # then leads to os.devnull, so closing the stream cannot raise again
    import contextlib
    import os

    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as out, contextlib.redirect_stdout(out):
        assert main(["gen", "digraph", "--seed", "3"]) == 3
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == "gave up: standard output was closed\n"


def test_closed_pipe_exits_3_without_a_traceback():
    # the reader closes its end before the sweep writes a byte
    import os
    import subprocess
    import sys

    import riftpuzzles

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(riftpuzzles.__file__))}
    argv = [sys.executable, "-m", "riftpuzzles.cli", *CLOCK_SWEEP]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (3, "gave up: standard output was closed\n")


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


def reduced_board(tmp_path, capsys, grid):
    # `reduce dcb`'s board, less its threshold line, and that threshold
    code, out, _ = run(capsys, "reduce", "dcb", doc(tmp_path, "g.grid", grid))
    threshold, board = out.split("\n", 1)
    assert code == 0 and threshold.startswith("threshold ")
    return doc(tmp_path, "g.bond", board), int(threshold.split()[1])


def test_solve_dcb_threshold_past_eight_bonds(tmp_path, capsys):
    # the full 3x3 grid's reduction: 9 bonds on 18 crystals, a table of
    # 2^9 * 18 = 9,216 entries, within the state budget
    code, grid, _ = run(capsys, "gen", "grid-graph", "--box", "3x3", "--max-v", "9", "--seed", "1")
    assert code == 0 and len(grid.splitlines()) == 9
    board, threshold = reduced_board(tmp_path, capsys, grid)
    assert threshold == 170
    code, walk, err = run(capsys, "solve", "dcb", board, "--threshold", "170")
    assert (code, walk.splitlines()[0], err) == (0, "length 153.0", "")
    assert walk.count("\nvisit ") == 18
    assert run(capsys, "verify", "dcb", board, doc(tmp_path, "g.walk", walk)) == (0, "ok\n", "")


def test_solve_dcb_past_the_table_budget_gives_up(tmp_path, capsys):
    # the 13-vertex path's reduction: the postman needs one tree, and the
    # brute force's table would fill 2^13 * 26 = 212,992 entries
    board, _ = reduced_board(tmp_path, capsys, "".join(f"{x} 0\n" for x in range(13)))
    assert run(capsys, "solve", "dcb", board) == (
        3, "", "gave up: over 200000 table entries for 13 bonds on 26 crystals\n")


def test_sweep_clock_past_sixteen_vertices(capsys):
    # digraphs of 2 to 40 vertices: the subset DP holds at most 301 sets
    assert run(capsys, "sweep", "clock", "--count", "100", "--max-v", "40", "--seed", "7") == (0, "pass 100 fail 0\n", "")


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


@pytest.mark.parametrize(
    "kind,text,err",
    [
        ("grid-graph", "0 0\n0 9007199254740992\n1 1\n", "a 2x9007199254740993 picture of 3 marks"),
        ("bond-board", "model grid\nstart free\ntile 0 0\ntile 0 100000\ncrystal 0 0\n",
         "a 1x100001 picture of 2 marks"),
    ],
)
def test_render_refuses_a_picture_far_larger_than_its_marks(tmp_path, capsys, kind, text, err):
    # a few lines must not ask for an unbounded picture: it would end in a
    # MemoryError and exit 1, the code for "unsolvable"
    import time

    began = time.perf_counter()
    code, out, got = run(capsys, "render", kind, doc(tmp_path, "far.doc", text))
    assert time.perf_counter() - began < 1.0
    assert (code, out, got) == (3, "", f"invalid input: {err} is too large to draw\n")


def far_l_board(model, far):
    """Two crystals on tiles (0,0) and (1,0), and an L of tiles at x = far."""
    return (f"model {model}\nstart 0 0\ntile 0 0\ntile 1 0\ntile {far} 0\ntile {far + 1} 0\ntile {far} 1\n"
            "crystal 1 0\ncrystal 0 0\nbond 0 1\n")


BIG = 10**400
PAST_FLOAT = "input error: line 7: int too large to convert to float"


@pytest.mark.parametrize(
    "command,text,err",
    [
        ("solve dcb", f"model grid\nstart 0 0\ntile 0 0\ntile 1 0\ncrystal 1 0\ncrystal {BIG} 0\nbond 0 1\n",
         PAST_FLOAT),
        ("render bond-board", f"model grid\nstart {BIG} 0\ntile 0 0\ntile 1 0\ncrystal 1 0\ncrystal 0 0\nbond 0 1\n",
         PAST_FLOAT),
        ("render grid-graph", f"0 0\n{2**63} 0\n",
         "invalid input: a 9223372036854775809x1 picture of 2 marks is too large to draw"),
    ],
    ids=("crystal", "start", "picture"),
)
def test_coordinates_past_the_float_range_exit_3(tmp_path, capsys, monkeypatch, command, text, err):
    # each used to escape as an OverflowError: a traceback and exit 1, the
    # code for "unsolvable"
    from riftpuzzles import instance_io

    argv = (*command.split(), doc(tmp_path, "far.doc", text))
    assert run(capsys, *argv) == (3, "", err + "\n")
    if "grid-graph" not in command:  # the line reader gives what the bulk reader gave
        monkeypatch.setattr(instance_io, "_bulk_bond_board", lambda text: None)
        instance_io._parse_bond_board.cache_clear()
        assert run(capsys, *argv) == (3, "", err + "\n")


@pytest.mark.parametrize("model,far", [("grid", BIG), ("euclid", 2**60), ("euclid", BIG)])
def test_a_far_l_off_the_crystals_is_solved(tmp_path, capsys, monkeypatch, model, far):
    # the grid model reads no corner, and the euclid model keeps its corners
    # as integers, so none has to fit in a float
    from riftpuzzles import instance_io

    board = doc(tmp_path, "far.bond", far_l_board(model, far))
    walk = doc(tmp_path, "far.walk", "length 1.0\nvisit 1\nvisit 0\n")
    for _ in range(2):  # the bulk reader, then the line reader
        assert run(capsys, "solve", "dcb", board) == (0, "length 1.0\nvisit 1\nvisit 0\n", "")
        assert run(capsys, "verify", "dcb", board, walk) == (0, "ok\n", "")
        monkeypatch.setattr(instance_io, "_bulk_bond_board", lambda text: None)
        instance_io._parse_bond_board.cache_clear()


PAST_INDEX = f"error: --box wants sides of at most {sys.maxsize}, got "


@pytest.mark.parametrize(
    "argv,line",
    [
        (("reduce", "dcb", "far.grid"), "invalid input: int too large to convert to float"),
        (("reduce", "dcb", "far.grid", "--gadget"), "invalid input: int too large to convert to float"),
        (("gen", "grid-graph", "--box", f"{10**20}x1"), PAST_INDEX + f"'{10**20}x1'"),
        (("gen", "bond-board", "--box", f"1x{10**20}"), PAST_INDEX + f"'1x{10**20}'"),
        (("sweep", "geo-oracle", "--box", f"{10**20}x1", "--count", "1"), PAST_INDEX + f"'{10**20}x1'"),
    ],
    ids=("reduce", "reduce-gadget", "gen-grid", "gen-bond", "sweep-geo"),
)
def test_numbers_past_a_float_or_an_index_exit_3(tmp_path, capsys, argv, line):
    # each used to escape as an OverflowError: a traceback and exit 1.  A
    # --box side past sys.maxsize then read "invalid input: cannot fit 'int'
    # into an index-sized integer"; it is refused before anything is sized
    # from it, and sides that fit an index stay untested, as they would be allocated
    doc(tmp_path, "far.grid", f"{BIG} 0\n{BIG + 1} 0\n")
    assert run(capsys, *(str(tmp_path / a) if a.endswith(".grid") else a for a in argv)) == (3, "", line + "\n")


def test_thresholds_past_the_float_range_are_decided(tmp_path, capsys):
    # the tolerance comes off the walk's length, so the int threshold never
    # becomes a float; it used to exit 3 with "int too large to convert to float"
    from riftpuzzles.crystal_bonds import decide_dcb
    from riftpuzzles.instance_io import parse

    text = "model grid\nstart 0 0\ntile 0 0\ntile 1 0\ncrystal 1 0\ncrystal 0 0\nbond 0 1\n"
    board, walk = doc(tmp_path, "near.bond", text), "length 1.0\nvisit 1\nvisit 0\n"
    assert run(capsys, "solve", "dcb", board, "--threshold", str(BIG)) == (0, walk, "")
    assert run(capsys, "solve", "dcb", board, "--threshold", str(-BIG)) == (1, walk, "")
    assert decide_dcb(parse("bond-board", text), BIG) and not decide_dcb(parse("bond-board", text), -BIG)


def test_solve_dcb_threshold_agrees_with_decide_dcb(tmp_path, capsys):
    # "length - EPS <= threshold, and a cut board is no" is written twice:
    # `solve dcb --threshold` reads it off the walk it prints (the postman's
    # on a tree, the brute force's readback on a forest), decide_dcb off the
    # bond table's optimum; on both sides of the solved length they agree
    import math

    from riftpuzzles.crystal_bonds import BondBoard, decide_dcb, gen_random_tree_board
    from riftpuzzles.instance_io import parse, serialize

    boards = []
    for seed in range(6):
        for model in ("grid", "euclid"):
            tree = gen_random_tree_board(seed, r=5 + seed % 5, model=model)  # 4 to 8 bonds
            bonds, cut = tree.required_bonds, seed % len(tree.required_bonds)
            boards += [tree, BondBoard(tree.region, tree.crystals, tree.start, bonds[:cut] + bonds[cut + 1 :], model)]
    answers = []
    for board in boards:
        path = doc(tmp_path, "board.bond", serialize(board))
        _, out, _ = run(capsys, "solve", "dcb", path)
        length = float(out.split()[1])
        for threshold in (math.ceil(length) - 1, math.ceil(length)):
            code, _, _ = run(capsys, "solve", "dcb", path, "--threshold", str(threshold))
            answers.append((code, decide_dcb(board, threshold)))
    assert sum(not board.connected for board in boards) == len(boards) // 2
    for model in ("grid", "euclid"):
        text = f"model {model}\nstart 0 0\ntile 0 0\ntile 1 0\ntile 5 0\ncrystal 1 0\ncrystal 5 0\nbond 0 1\n"
        code, _, _ = run(capsys, "solve", "dcb", doc(tmp_path, "cut.bond", text), "--threshold", "100")
        answers.append((code, decide_dcb(parse("bond-board", text), 100)))
    assert {code for code, _ in answers} == {0, 1}
    assert [code == 0 for code, _ in answers] == [yes for _, yes in answers]


@pytest.mark.parametrize("n", [400, 1000])
def test_connected_staircases_render_and_reduce(tmp_path, capsys, n):
    # a diagonal staircase's box grows with the square of its vertex count,
    # and a connected set must still be drawn: as a grid graph, and as the
    # tile board `reduce tile` writes and reads back
    from riftpuzzles.graphs import GridGraph
    from riftpuzzles.instance_io import parse, serialize
    from riftpuzzles.tile_trial import reduce_grid_to_tile_trial

    g = GridGraph(frozenset(((i + 1) // 2, i // 2) for i in range(n)))
    path = doc(tmp_path, "stair.grid", serialize(g))
    code, out, err = run(capsys, "render", "grid-graph", path)
    assert (code, err, out.count("o")) == (0, "", n)
    assert len(out.splitlines()) == n // 2 and {len(row) for row in out.splitlines()} == {n // 2 + 1}
    code, out, err = run(capsys, "reduce", "tile", path)
    assert (code, err) == (0, "")
    board = parse("tile-board", out)
    assert board == reduce_grid_to_tile_trial(g) and serialize(board) == out
    assert run(capsys, "render", "tile-board", doc(tmp_path, "stair.tile", out))[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "tile", "--gadget"),
        ("reduce", "clock", "--gadget"),
        ("solve", "tile", "--threshold", "1"),
        ("solve", "clock", "--threshold", "0"),
        ("solve", "dcb", "--budget", "1"),
        ("sweep", "tile-trial", "--budget", "1"),
        ("sweep", "geo-oracle", "--budget", "0"),
        ("sweep", "dcb", "--model", "euclid"),
        ("verify", "tile", "--budget", "1"),
        ("verify", "dcb", "--budget", "1"),
        ("verify", "clock", "--budget", "1"),
        ("sweep", "clock", "--box", "3x3"),
        ("sweep", "cb-oracle", "--box", "3x3"),
        ("sweep", "tile-trial", "--count", "5", "--seed", "3", "--box", "2x2"),
        ("sweep", "geo-oracle", "--max-v", "9", "--count", "1"),
        ("sweep", "cb-oracle", "--max-v", "9", "--count", "1"),
        ("gen", "digraph", "--box", "5x5"),
        ("gen", "clock", "--box", "5x5"),
        ("gen", "solvable-clock", "--box", "5x5"),
        ("gen", "grid-graph", "--model", "euclid"),
        ("gen", "clock", "--model", "grid"),
    ],
)
def test_option_the_kind_would_ignore_is_refused(capsys, argv):
    # refused before any document is read, so none need exist
    verb, kind, option = argv[:3]
    document = () if verb in ("sweep", "gen") else ("missing.doc",)
    code, out, err = run(capsys, verb, kind, *document, *argv[2:])
    assert (code, out, err) == (3, "", f"error: {verb} {kind} takes no {option}\n")


def test_bad_box_exits_3(capsys):
    code, _, err = run(capsys, "sweep", "geo-oracle", "--box", "four")
    assert code == 3
    assert "WxH" in err


def test_refusals_pinned(tmp_path, capsys):
    code, board, _ = run(capsys, "reduce", "tile", doc(tmp_path, "sq.grid", SQUARE))
    assert code == 0
    for argv, err in [
        (("gen", "grid-graph", "--box", "3xa"), "error: --box wants integers, got '3xa'"),
        (("verify", "tile", doc(tmp_path, "sq.tile", board)), "error: verify tile needs a solution document"),
        (("gen", "digraph", "--max-v", "1"), "invalid input: need at least 2 vertices"),
        (("sweep", "tile-trial", "--box", "0x3"), "error: --box wants positive sides, got '0x3'"),
        (("gen", "grid-graph", "--box", "0x0"), "error: --box wants positive sides, got '0x0'"),
        (("sweep", "geo-oracle", "--box", "0x4"), "error: --box wants positive sides, got '0x4'"),
        (("gen", "bond-board", "--box", "1x1"), "invalid input: a 1x1 box holds fewer than 7 crystals"),
        (("gen", "bond-board", "--box", "3x3", "--max-v", "10"), "invalid input: a 3x3 box holds fewer than 10 crystals"),
        (("gen", "bond-board", "--count", "0"), "error: --count wants at least 1, got 0"),
        (("gen", "bond-board", "--count", "-2"), "error: --count wants at least 1, got -2"),
        (("gen", "bond-board", "--max-v", "-1"), "error: --max-v wants at least 0, got -1"),
        (("sweep", "clock", "--max-v", "-1"), "error: --max-v wants at least 2, got -1"),
        (("sweep", "clock", "--max-v", "1"), "error: --max-v wants at least 2, got 1"),
        (("solve", "tile", doc(tmp_path, "sq.tile", board), "--budget", "-1"), "error: --budget wants at least 1, got -1"),
        (("solve", "tile", doc(tmp_path, "sq.tile", board), "--budget", "0"), "error: --budget wants at least 1, got 0"),
        (("solve", "clock", doc(tmp_path, "one.clock", "2\n0 1\n1 1\n"), "--budget", "-2"),
         "error: --budget wants at least 1, got -2"),
        (("verify", "cert", "missing.cert", "--budget", "0"), "error: --budget wants at least 1, got 0"),
        (("sweep", "clock", "--budget", "0"), "error: --budget wants at least 1, got 0"),
        (("sweep", "clock", "--count", "0", "--budget", "0"), "error: --count wants at least 1, got 0"),
        # sweeps run in one process
        (("sweep", "geo-oracle", "--count", "2", "--jobs", "2"), "error: unrecognized arguments: --jobs 2"),
    ]:
        assert run(capsys, *argv) == (3, "", err + "\n"), argv


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_search_out_of_stack_or_memory_gives_up(tmp_path, capsys, monkeypatch, error):
    # exit 1 would read as "unsolvable"; the search decided nothing
    from riftpuzzles import cli

    def spent(*args, **kwargs):
        raise error

    code, board, _ = run(capsys, "reduce", "tile", doc(tmp_path, "sq.grid", SQUARE))
    assert code == 0
    monkeypatch.setattr(cli, "solve_tile_trial", spent)
    got = run(capsys, "solve", "tile", doc(tmp_path, "sq.tile", board))
    assert got == (3, "", f"gave up: {str(error) or type(error).__name__}\n")


def test_solve_dcb_solves_past_the_former_matching_limit(tmp_path, capsys):
    # a hub with 17 one-crystal legs: the hub and the 17 feet are odd, two
    # more than the former subset-DP matching took
    from riftpuzzles.crystal_bonds import BondBoard
    from riftpuzzles.geometry import TileRegion, tile_center
    from riftpuzzles.instance_io import serialize

    tiles = sorted((x, y) for x in range(6) for y in range(3))
    board = BondBoard(
        TileRegion(frozenset(tiles)), tuple(map(tile_center, tiles)), None,
        tuple((0, leg) for leg in range(1, 18)), "grid",
    )
    path = doc(tmp_path, "spider.bond", serialize(board))
    code, out, err = run(capsys, "solve", "dcb", path)
    assert (code, err) == (0, "")
    assert run(capsys, "verify", "dcb", path, doc(tmp_path, "spider.walk", out)) == (0, "ok\n", "")


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
        ("tile", "S*F\n", "1 0\n2 0\n", "violation: path must begin at the start tile at (1, 0)\n"),
        ("tile", "S*F\n", "0 0\n1 0\n", "violation: path must end at the finish tile at (1, 0)\n"),
        ("clock", "4\n0 1\n1 1\n", "0 cw\n0 cw\n", "violation: empty-node selection (0)\n"),
        ("clock", "4\n0 1\n1 1\n2 1\n", "0 cw\n2 cw\n", "violation: illegal move ((0, 2))\n"),
        # three nodes, one taken: the detail is the count left, not taken or in all
        ("clock", "4\n0 1\n1 1\n2 1\n", "0 cw\n", "violation: incomplete (2)\n"),
        # index 2 is the start's row of the metric: read as a crystal, this
        # walk would cover the bond at the length it claims
        ("dcb", "model grid\nstart 0 0\ntile 0 0\ntile 1 0\ncrystal 1 0\ncrystal 0 0\nbond 0 1\n",
         "length 1.0\nvisit 2\nvisit 1\nvisit 0\n", "violation: bad crystal index (2)\n"),
    ],
    ids=("tile", "tile-start", "tile-finish", "clock-empty", "clock-illegal", "clock-incomplete", "dcb-start-row"),
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


def test_solve_dcb_grid_80x80_output_pinned(tmp_path, capsys):
    # the 80x80 board CI solves and verifies: a large bitboard, read in bulk
    code, text, _ = run(capsys, "gen", "bond-board", "--model", "grid", "--box", "80x80", "--max-v", "60", "--seed", "7")
    assert code == 0 and text.count("\ntile ") == 4266
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cc2f2129ebf17511936d4c149cccbf10cb055110c297729f1586c0b68449fcd3"
    )
    code, out, _ = run(capsys, "solve", "dcb", doc(tmp_path, "g.bond", text))
    assert code == 0
    assert out.splitlines()[0] == "length 2827.0"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bb3e0e8adfc4180fbb56a09efe056386201de1166e05c237cc56c7790422aa48"
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
        # the region grower at the sizes that use it most: long frontier
        # lists, many dead picks and index draws of up to 10 bits
        (("bond-board", "--model", "grid", "--box", "80x80", "--max-v", "60", "--seed", "7"),
         "cc2f2129ebf17511936d4c149cccbf10cb055110c297729f1586c0b68449fcd3"),
        (("bond-board", "--model", "euclid", "--box", "30x30", "--max-v", "40", "--seed", "7"),
         "96db6a1f6c135ffe25794a5bdabf870df4361091ebd208a28fa5b336ec5dc9ff"),
        (("grid-graph", "--box", "160x160", "--seed", "1"),
         "94eaab7fe449b07e511166edeac1f13d12dffa10d35c43275c76b93a4183ed00"),
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
         "d4805b0ea66efa7a2aa008782273316f04140c2f8a27cfbee288c1a307c4129c"),
        # a straight jump (1), spacers at the near midpoint (0, 2) and one at
        # the far midpoint (3, on 0's out-pair)
        (("clock",), "4\n0 1\n0 2\n1 3\n2 0\n2 1\n3 1\n3 2\n",
         "edad5091cc3652b7567241d8b2fe1f776f9c109ab0cc0846aee1e5576e5dee40"),
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
