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


def test_bond_board_tile_limit():
    text = "model euclid\nstart free\ntile {0} 0\ntile {0} 1\ncrystal {0} 0\ncrystal {0} 1\nbond 0 1\n"
    board = parse("bond-board", text.format(2**51))
    assert board.crystals == (tile_center((2**51, 0)), tile_center((2**51, 1)))
    for x in (2**52, -(2**52)):
        with pytest.raises(ParseError, match=r"line 7: point .* strictly between -2\*\*52 and 2\*\*52"):
            parse("bond-board", text.format(x))


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


# Malformed documents and the exact ParseError each raises, captured before
# the parsers shared two line readers.  The first malformed line wins; a
# missing required line, and then the type's own invariants, are reported
# only after the whole document has been read.
MALFORMED = [
    ("grid-short-row", "grid-graph", "0 0\n1\n", "line 2: expected 2 fields, got 1"),
    ("grid-bad-int", "grid-graph", "0 0\n1 x\n", "line 2: expected integers, got '1 x'"),
    ("grid-three-fields", "grid-graph", "0 0 0\n", "line 1: expected 2 fields, got 3"),
    ("grid-empty", "grid-graph", "", "line 1: grid graph must have at least one vertex"),
    ("grid-blank-lines", "grid-graph", "\n\n  \n",
     "line 1: grid graph must have at least one vertex"),
    ("grid-bad-after-blanks", "grid-graph", "\n0 0\n\n2 y\n",
     "line 4: expected integers, got '2 y'"),
    ("digraph-empty", "digraph", "", "line 1: missing vertex count"),
    ("digraph-bad-count", "digraph", "\n\nx\n", "line 3: expected integers, got 'x'"),
    ("digraph-two-count", "digraph", "2 3\n", "line 1: expected 1 fields, got 2"),
    ("digraph-long-arc", "digraph", "2\n0 1 2\n", "line 2: expected 2 fields, got 3"),
    ("digraph-arc-range", "digraph", "2\n0 5\n", "line 1: arc (0,5) outside vertex range"),
    ("digraph-bad-before-range", "digraph", "2\n0 x\n0 9\n",
     "line 2: expected integers, got '0 x'"),
    ("digraph-negative", "digraph", "\n-1\n", "line 2: digraph must have at least one vertex"),
    ("digraph-range-late", "digraph", "3\n0 1\n\n1 2\n2 7\n",
     "line 1: arc (2,7) outside vertex range"),
    ("tile-empty", "tile-board", "", "line 1: board has no rows"),
    ("tile-offset-short", "tile-board", "offset 1\nSF\n", "line 1: offset needs two integers"),
    ("tile-offset-bad", "tile-board", "offset a b\nSF\n",
     "line 1: expected integers, got 'offset a b'"),
    ("tile-offset-only", "tile-board", "offset 1 2\n", "line 1: board has no rows"),
    ("tile-offset-after-blanks", "tile-board", "\n\noffset 1 2\n", "line 3: board has no rows"),
    ("tile-two-starts", "tile-board", "SSF\n", "line 1: more than one start tile"),
    ("tile-two-finishes", "tile-board", "S.\n.FF\n", "line 2: more than one finish tile"),
    ("tile-no-finish", "tile-board", "S.\n\n", "line 1: board has no finish tile"),
    ("tile-no-start", "tile-board", ".F\n", "line 1: board has no start tile"),
    ("tile-unknown-cell", "tile-board", "S?F\n", "line 1: unknown cell '?'"),
    ("tile-unknown-second-row", "tile-board", "S*F\n.?\n", "line 2: unknown cell '?'"),
    ("tile-bad-before-missing", "tile-board", "..\n.x\n", "line 2: unknown cell 'x'"),
    ("path-short", "tile-path", "0 0\n0\n", "line 2: expected 2 fields, got 1"),
    ("path-bad-int", "tile-path", "0 0\nx y\n", "line 2: expected integers, got 'x y'"),
    ("path-empty", "tile-path", "", "line 1: path must be nonempty"),
    ("path-late", "tile-path", "0 0\n0 1\n\n0 2 2\n", "line 4: expected 2 fields, got 3"),
    ("bond-missing-model", "bond-board", "start free\ntile 0 0\n", "line 2: missing model line"),
    ("bond-missing-start", "bond-board", "model grid\ntile 0 0\n", "line 2: missing start line"),
    ("bond-missing-both", "bond-board", "tile 0 0\n\n", "line 1: missing model line"),
    ("bond-empty", "bond-board", "", "line 1: missing model line"),
    ("bond-bad-before-missing-model", "bond-board", "tile 0 x\n",
     "line 1: expected integers, got '0 x'"),
    ("bond-bad-before-missing-start", "bond-board", "model grid\ntile 0 0\ncrystal 0\n",
     "line 3: expected 2 fields, got 1"),
    ("bond-unknown-keyword", "bond-board", "model grid\nstart free\nwall 0 0\n",
     "line 3: unknown keyword 'wall'"),
    ("bond-unknown-before-missing", "bond-board", "wall 0 0\n", "line 1: unknown keyword 'wall'"),
    ("bond-tab-keyword", "bond-board", "model grid\nstart free\ntile\t0 0\n",
     "line 3: unknown keyword 'tile\\t0'"),
    ("bond-double-space", "bond-board", "model grid\nstart free\ntile 0 0\ntile  0 x\n",
     "line 4: expected integers, got ' 0 x'"),
    ("bond-start-no-fields", "bond-board", "model grid\nstart\n",
     "line 2: expected 2 fields, got 0"),
    ("bond-start-free-extra", "bond-board", "model grid\nstart free x\n",
     "line 2: expected integers, got 'free x'"),
    ("bond-start-bad", "bond-board", "model grid\nstart 0 x\ntile 0 0\n",
     "line 2: expected integers, got '0 x'"),
    ("bond-empty-model", "bond-board", "model\nstart free\ntile 0 0\ncrystal 0 0\n",
     "line 4: distance model must be one of ('grid', 'euclid')"),
    ("bond-bad-model", "bond-board", "model taxicab\nstart free\ntile 0 0\ncrystal 0 0\n",
     "line 4: distance model must be one of ('grid', 'euclid')"),
    ("bond-duplicate-model-rejected", "bond-board",
     "model grid\nmodel taxicab\nstart free\ntile 0 0\ncrystal 0 0\n",
     "line 2: repeated model line"),
    ("bond-duplicate-start-rejected", "bond-board",
     "model grid\nstart 0 0\nstart 9 9\ntile 0 0\ncrystal 0 0\n",
     "line 3: repeated start line"),
    ("bond-duplicate-start-bad", "bond-board", "model grid\nstart 0 0\nstart free\nstart x\n",
     "line 3: repeated start line"),
    ("bond-duplicate-start-free-rejected", "bond-board",
     "model grid\nstart 9 9\nstart free\ntile 0 0\ncrystal 0 0\ncrystal 0 0\n",
     "line 3: repeated start line"),
    ("bond-crystal-off-region", "bond-board", "model grid\nstart free\ntile 0 0\ncrystal 3 3\n",
     "line 4: point (3.5, 3.5) is not a region tile center"),
    ("bond-cycle", "bond-board",
     "model grid\nstart free\ntile 0 0\ntile 1 0\ntile 2 0\ncrystal 0 0\ncrystal 1 0\n"
     "crystal 2 0\nbond 0 1\nbond 1 2\nbond 0 2\n",
     "line 11: required bonds must form a forest"),
    ("bond-bond-range", "bond-board", "model grid\nstart free\ntile 0 0\ncrystal 0 0\nbond 0 4\n",
     "line 5: bond (0,4) references a missing crystal"),
    ("walk-empty", "bond-walk", "", "line 1: missing length line"),
    ("walk-late-visit-first", "bond-walk", "\n\nvisit 0\n", "line 3: missing length line"),
    ("walk-bare-length", "bond-walk", "length\n", "line 1: bad length in 'length'"),
    ("walk-bad-visit-before-missing", "bond-walk", "visit 0\nvisit x\n",
     "line 2: expected integers, got 'x'"),
    ("walk-bad-length", "bond-walk", "length abc\nvisit 0\n",
     "line 1: bad length in 'length abc'"),
    ("walk-bad-visit", "bond-walk", "length 5\nvisit x\n", "line 2: expected integers, got 'x'"),
    ("walk-long-visit", "bond-walk", "length 5\nvisit 0 1\n", "line 2: expected 1 fields, got 2"),
    ("walk-unknown-keyword", "bond-walk", "length 5\nvist 0\n", "line 2: unknown keyword 'vist'"),
    ("walk-duplicate-length", "bond-walk", "length 5\nlength 6\n",
     "line 2: unknown keyword 'length'"),
    ("walk-negative", "bond-walk", "length -1\nvisit 0\n",
     "line 1: walk length cannot be negative"),
    ("walk-negative-late", "bond-walk", "\nlength -1\n\nvisit 0\n",
     "line 2: walk length cannot be negative"),
    ("walk-bad-before-negative", "bond-walk", "length -1\nvisit 0\nvisit y\n",
     "line 3: expected integers, got 'y'"),
    ("clock-empty", "clock", "", "line 1: missing circumference"),
    ("clock-bad-circumference", "clock", "x\n", "line 1: expected integer circumference, got 'x'"),
    ("clock-two-field-header", "clock", "10 0\n",
     "line 1: expected integer circumference, got '10 0'"),
    ("clock-zero-value", "clock", "10\n3 0\n", "line 2: value must be >= 1, got 0"),
    ("clock-value-before-field", "clock", "10\n3 0\n4 x\n", "line 2: value must be >= 1, got 0"),
    ("clock-field-before-value", "clock", "10\n3 x\n3 0\n",
     "line 2: expected integers, got '3 x'"),
    ("clock-outside", "clock", "10\n3 9\n", "line 1: value 9 at position 3 outside [1, 5]"),
    ("clock-occupied-twice", "clock", "\n10\n3 1\n3 2\n", "line 2: position 3 occupied twice"),
    ("clock-small", "clock", "1\n", "line 1: circumference must be at least 2"),
    ("dense-no-count", "clock", "dense\n1\n", "line 1: dense header needs a count"),
    ("densely-no-count", "clock", "densely\n1\n", "line 1: dense header needs a count"),
    ("dense-bad-count", "clock", "dense x\n1\n", "line 1: expected integer count, got 'x'"),
    ("dense-zero-value", "clock", "dense 2\n0\n1\n", "line 2: value must be >= 1, got 0"),
    ("dense-too-few", "clock", "dense 3\n1\n1\n", "line 3: dense clock needs 3 values, got 2"),
    ("dense-none", "clock", "dense 2\n", "line 1: dense clock needs 2 values, got 0"),
    ("dense-two-fields", "clock", "dense 2\n1 1\n", "line 2: expected 1 fields, got 2"),
    ("dense-value-before-field", "clock", "dense 1\n0\nx\n", "line 2: value must be >= 1, got 0"),
    ("dense-field-before-count", "clock", "dense 2\n1\nx\n", "line 3: expected integers, got 'x'"),
    ("dense-value-too-big", "clock", "dense 3\n1\n1\n5\n",
     "line 1: value 5 at position 2 outside [1, 1]"),
    ("solution-direction", "clock-solution", "0 up\n",
     "line 1: direction must be cw or ccw, got 'up'"),
    ("solution-one-field", "clock-solution", "0\n",
     "line 1: expected `position direction`, got '0'"),
    ("solution-bad-position", "clock-solution", "x cw\n",
     "line 1: expected integer position, got 'x'"),
    ("solution-late", "clock-solution", "0 cw\n1 ccw\n\n2 sideways cw\n",
     "line 4: expected `position direction`, got '2 sideways cw'"),
    ("solution-upper-case", "clock-solution", "0 cw\n0 CW\n",
     "line 2: direction must be cw or ccw, got 'CW'"),
    ("cert-missing-vertices", "certificate", "circumference 11\n",
     "line 1: missing vertices line"),
    ("cert-missing-circumference", "certificate", "vertices 2\n",
     "line 1: missing circumference line"),
    ("cert-empty", "certificate", "", "line 1: missing vertices line"),
    ("cert-bad-vertices", "certificate", "vertices x\ncircumference 11\n",
     "line 1: expected integers, got 'x'"),
    ("cert-bad-before-missing", "certificate", "arc 0 x\n",
     "line 1: expected integers, got '0 x'"),
    ("cert-bad-late-before-missing", "certificate", "vertices 2\n\narc 0 1\nlabel 0 1\n",
     "line 4: expected 3 fields, got 2"),
    ("cert-duplicate-vertices-rejected", "certificate",
     "vertices 3\nvertices 2\narc 0 2\ncircumference 11\n",
     "line 2: repeated vertices line"),
    ("cert-duplicate-circumference", "certificate",
     "vertices 2\ncircumference 11\n\ncircumference 11\n",
     "line 4: repeated circumference line"),
    ("cert-duplicate-vertices-bad", "certificate", "vertices 2\nvertices\ncircumference 11\n",
     "line 2: expected 1 fields, got 0"),
    ("cert-verdict-maybe", "certificate", "vertices 2\nverdict digraph maybe\n",
     "line 2: bad verdict line 'verdict digraph maybe'"),
    ("cert-verdict-graph", "certificate", "vertices 2\nverdict graph yes\n",
     "line 2: bad verdict line 'verdict graph yes'"),
    ("cert-verdict-short", "certificate", "vertices 2\nverdict digraph\n",
     "line 2: bad verdict line 'verdict digraph'"),
    ("cert-verdict-long", "certificate", "vertices 2\nverdict digraph yes extra\n",
     "line 2: bad verdict line 'verdict digraph yes extra'"),
    ("cert-verdict-bare", "certificate", "vertices 2\nverdict\n",
     "line 2: bad verdict line 'verdict'"),
    ("cert-verdict-double-space", "certificate", "vertices 2\nverdict  digraph maybe\n",
     "line 2: bad verdict line 'verdict  digraph maybe'"),
    ("cert-verdict-repeated", "certificate",
     "vertices 2\nverdict clock yes\nverdict digraph no\nverdict clock no\narc 0 x\n",
     "line 4: repeated verdict clock line"),
    ("cert-verdict-before-missing", "certificate", "verdict clock sure\nvertices 2\n",
     "line 1: bad verdict line 'verdict clock sure'"),
    ("cert-zero-node", "certificate", "vertices 2\nnode 0 0\n",
     "line 2: value must be >= 1, got 0"),
    ("cert-short-label", "certificate", "vertices 2\nlabel 0 0\n",
     "line 2: expected 3 fields, got 2"),
    ("cert-unknown-keyword", "certificate", "vertices 2\nedge 0 1\n",
     "line 2: unknown keyword 'edge'"),
    ("cert-bad-circumference", "certificate", "vertices 2\ncircumference x\n",
     "line 2: expected integers, got 'x'"),
    ("cert-not-injective", "certificate",
     "vertices 2\narc 0 1\narc 1 0\ncircumference 11\nnode 0 1\nnode 1 1\nlabel 0 0 0\n"
     "label 1 0 0\n",
     "line 8: label map is not injective"),
    ("cert-label-missing", "certificate",
     "vertices 3\narc 0 1\narc 0 2\narc 1 2\narc 2 0\ncircumference 111\nnode 0 1\nnode 1 10\n"
     "node 11 11\nlabel 0 0 0\nlabel 1 0 1\nlabel 2 0 11\n",
     "line 12: label (0,1) missing"),
    ("cert-label-without-arc", "certificate",
     "vertices 3\narc 0 1\narc 1 2\narc 2 0\ncircumference 111\nnode 0 1\nnode 1 10\n"
     "node 11 11\nnode 110 12\nlabel 0 0 0\nlabel 0 1 110\nlabel 1 0 1\nlabel 2 0 11\n",
     "line 13: label (0,1) names no out-arc"),
    ("cert-vertex-without-arcs", "certificate",
     "vertices 3\narc 0 1\narc 1 2\ncircumference 111\nnode 0 1\nnode 1 10\nnode 11 11\n"
     "label 0 0 0\nlabel 1 0 1\nlabel 2 0 11\n",
     "line 10: every vertex needs outdegree 1 or 2"),
    ("cert-node-outside", "certificate", "vertices 1\ncircumference 4\nnode 9 1\n",
     "line 3: position 9 outside [0, 4)"),
]


@pytest.mark.parametrize(
    "kind,text,message", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_documents_pinned(kind, text, message):
    with pytest.raises(ParseError) as exc:
        parse(kind, text)
    assert str(exc.value) == message
