import hashlib

import pytest

from riftpuzzles.cli import main

PATH6 = "0 0\n1 0\n2 0\n3 0\n4 0\n5 0\n"
SQUARE = "0 0\n1 0\n0 1\n1 1\n"
TRIANGLE = "3\n0 1\n1 2\n2 0\n"
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


def test_sweep_clock_reports_counterexample(capsys):
    # the subdivision detour can block the clock even when the digraph has a
    # covering path, so a long enough seeded run must surface a mismatch
    code, out, _ = run(capsys, "sweep", "clock", "--count", "20", "--max-v", "7")
    assert code == 2
    assert "fail" in out
    assert "first counterexample:" in out
    assert "circumference" in out


def test_sweep_jobs_output_is_deterministic(capsys):
    argv = ["sweep", "geo-oracle", "--box", "4x4", "--count", "8"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv, "--jobs", "2")
    assert (code1, out1) == (code2, out2) == (0, "pass 8 fail 0\n")


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


def test_parse_error_exits_3(tmp_path, capsys):
    bad = doc(tmp_path, "bad.clock", "4\n0 zero\n")
    code, _, err = run(capsys, "solve", "clock", bad)
    assert code == 3
    assert "line 2" in err


def test_budget_exhausted_exits_3(tmp_path, capsys):
    text = "26\n" + "".join(f"{i} {1 + (i * 7) % 13}\n" for i in range(26))
    path = doc(tmp_path, "big.clock", text)
    code, _, err = run(capsys, "solve", "clock", path, "--budget", "10")
    assert code == 3
    assert "gave up" in err


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
