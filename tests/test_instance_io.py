import random

import pytest

from riftpuzzles.crystal_bonds import (
    BondBoard,
    apply_start_gadget,
    brute_force_crystal_bonds,
    gen_random_tree_board,
    reduce_grid_to_dcb,
)
from riftpuzzles.geometry import gen_random_region, tile_center
from riftpuzzles.graphs import (
    Digraph,
    GridGraph,
    gen_random_digraph,
    enumerate_grid_graphs,
)
from riftpuzzles.hands_of_time import (
    ClockInstance,
    ClockSolution,
    evaluate_certificate,
    gen_random_clock,
    gen_solvable_clock,
    reduce_digraph_to_phot,
    solve_clock,
)
from riftpuzzles.instance_io import KINDS, ParseError, kind_of, parse, serialize
from riftpuzzles.tile_trial import TilePath, reduce_grid_to_tile_trial, solve_tile_trial

DOMINO = GridGraph(frozenset({(0, 0), (1, 0)}))


def roundtrip(x):
    text = serialize(x)
    back = parse(kind_of(x), text)
    assert back == x, text
    assert serialize(back) == text
    return text


def test_grid_graph_roundtrip():
    text = roundtrip(DOMINO)
    assert text == "0 0\n1 0\n"


def test_digraph_roundtrip():
    d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
    assert roundtrip(d) == "3\n0 1\n1 2\n2 0\n"
    assert roundtrip(Digraph(2, ()))


def test_tile_board_roundtrip():
    board = reduce_grid_to_tile_trial(DOMINO)
    text = roundtrip(board)
    assert text.startswith("offset -1 -2\n")
    square = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    path = solve_tile_trial(reduce_grid_to_tile_trial(square))
    assert path is not None
    roundtrip(path)


def test_tile_board_origin_needs_no_offset():
    board = parse("tile-board", "S*F\n")
    assert board.start == (0, 0) and board.finish == (2, 0)
    assert serialize(board) == "S*F\n"


def test_tile_board_rejections():
    with pytest.raises(ParseError, match="more than one start"):
        parse("tile-board", "SSF\n")
    with pytest.raises(ParseError, match="no finish"):
        parse("tile-board", "S.\n")
    with pytest.raises(ParseError, match="unknown cell"):
        parse("tile-board", "S?F\n")
    with pytest.raises(ParseError, match="line 1"):
        parse("tile-board", "")


def test_bond_board_roundtrip():
    board, _ = reduce_grid_to_dcb(DOMINO)
    text = roundtrip(board)
    assert "start free\n" in text and "model grid\n" in text
    gadget, _, _ = apply_start_gadget(board, DOMINO)
    assert "start -1 0\n" in roundtrip(gadget)
    walk = brute_force_crystal_bonds(board)
    assert "length " in roundtrip(walk)


def test_bond_board_rejections():
    with pytest.raises(ParseError, match="missing model"):
        parse("bond-board", "start free\ntile 0 0\n")
    with pytest.raises(ParseError, match="missing start"):
        parse("bond-board", "model grid\ntile 0 0\n")
    with pytest.raises(ParseError, match="forest|cycle"):
        parse(
            "bond-board",
            "model grid\nstart free\n"
            "tile 0 0\ntile 1 0\ntile 2 0\n"
            "crystal 0 0\ncrystal 1 0\ncrystal 2 0\n"
            "bond 0 1\nbond 1 2\nbond 0 2\n",
        )


def test_clock_roundtrip_and_dense_form():
    cert = reduce_digraph_to_phot(Digraph(3, ((0, 1), (1, 2), (2, 0))))
    text = roundtrip(cert.instance)
    assert text == "111\n0 1\n1 10\n11 11\n"
    dense = parse("clock", "dense 4\n2\n2\n2\n2\n")
    assert dense == ClockInstance.dense([2, 2, 2, 2])
    sol = solve_clock(ClockInstance.dense([1, 1]))
    assert roundtrip(sol) == "0 cw\n1 cw\n"


def test_clock_rejections():
    with pytest.raises(ParseError, match="value must be >= 1"):
        parse("clock", "10\n3 0\n")
    with pytest.raises(ParseError, match="value must be >= 1"):
        parse("clock", "dense 2\n0\n1\n")
    with pytest.raises(ParseError, match="outside"):
        parse("clock", "10\n3 9\n")
    with pytest.raises(ParseError, match="needs 3 values"):
        parse("clock", "dense 3\n1\n1\n")
    with pytest.raises(ParseError, match="direction"):
        parse("clock-solution", "0 up\n")


def test_certificate_roundtrip_with_and_without_verdicts():
    cert = reduce_digraph_to_phot(Digraph(3, ((0, 1), (1, 2), (2, 0))))
    text = roundtrip(cert)
    assert "verdict" not in text
    filled = evaluate_certificate(cert)
    text2 = roundtrip(filled)
    assert "verdict digraph yes\nverdict clock yes\n" in text2


def test_certificate_rejections():
    with pytest.raises(ParseError, match="missing vertices"):
        parse("certificate", "circumference 11\n")
    with pytest.raises(ParseError, match="injective"):
        parse(
            "certificate",
            "vertices 2\narc 0 1\narc 1 0\ncircumference 11\n"
            "node 0 1\nnode 1 1\nlabel 0 0 0\nlabel 1 0 0\n",
        )


def test_unknown_kind_and_type():
    with pytest.raises(ParseError):
        parse("nonsense", "")
    with pytest.raises(TypeError):
        serialize(object())
    assert len(KINDS) == 9


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse("grid-graph", "0 0\n1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse("digraph", "2\n0 1\nx y\n")


def random_values(kind, count):
    """Seeded sample of serializable values of one kind."""
    rng = random.Random(KINDS.index(kind))
    out = []
    for i in range(count):
        if kind == "grid-graph":
            for g in enumerate_grid_graphs(2, 3, 6):
                out.append(g)
                if len(out) == count:
                    break
            while len(out) < count:
                out.append(GridGraph(frozenset({(0, i), (0, i + 1)})))
        elif kind == "digraph":
            out.append(gen_random_digraph(2 + i % 7, i))
        elif kind == "tile-board":
            gs = [g for g in enumerate_grid_graphs(2, 3, 6) if len(g) >= 2]
            out.append(reduce_grid_to_tile_trial(gs[i % len(gs)]))
        elif kind == "tile-path":
            # any orthogonal walk is a value of the type; board rules are
            # the verifier's job
            x, y = rng.randrange(-5, 5), rng.randrange(-5, 5)
            steps = [(x, y)]
            for _ in range(rng.randrange(1, 12)):
                dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
                x, y = x + dx, y + dy
                steps.append((x, y))
            out.append(TilePath(tuple(steps)))
        elif kind == "bond-board":
            out.append(
                gen_random_tree_board(
                    i, box_w=5, box_h=5, r=2 + i % 4,
                    model="grid" if i % 2 else "euclid",
                )
            )
        elif kind == "bond-walk":
            board = gen_random_tree_board(i, box_w=5, box_h=5, r=2 + i % 4)
            out.append(brute_force_crystal_bonds(board))
        elif kind == "clock":
            out.append(gen_random_clock(2 + i % 9, i))
        elif kind == "clock-solution":
            sol = solve_clock(gen_solvable_clock(3 + i % 8, i))
            assert sol is not None
            out.append(sol)
        elif kind == "certificate":
            cert = reduce_digraph_to_phot(gen_random_digraph(2 + i % 6, i))
            out.append(evaluate_certificate(cert) if i % 3 == 0 else cert)
        if len(out) >= count:
            break
    return out[:count]


def test_random_roundtrips_all_kinds():
    for kind in KINDS:
        for value in random_values(kind, 40):
            assert kind_of(value) == kind
            roundtrip(value)
