import dataclasses
import gc
import math
import random
import time
from collections import Counter

import pytest

from riftpuzzles import cli, crystal_bonds, instance_io
from riftpuzzles.crystal_bonds import (
    MODELS,
    REWIRE_LIMIT,
    BondBoard,
    BondWalk,
    UnreachableCrystal,
    apply_start_gadget,
    brute_force_crystal_bonds,
    crystal_metric,
    decide_dcb,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    rural_postman_connected,
    solve_crystal_bonds,
    verify_bond_walk,
)
from riftpuzzles.geometry import EPS, TileRegion, gen_random_region, pinch_corners, tile_center, tile_of
from riftpuzzles.graphs import (
    GridGraph,
    InstanceTooLarge,
    enumerate_grid_graphs,
    has_ham_cycle_grid,
    has_ham_path_grid,
)
from riftpuzzles.instance_io import parse, serialize
from test_geometry import euclidean_geodesic_matrix


def corridor(n):
    return TileRegion(frozenset((x, 0) for x in range(n)))


def trio_board(start_tile):
    # crystals B, A, C at consecutive tile centers; bonds A-B and A-C
    return BondBoard(
        corridor(3),
        (tile_center((0, 0)), tile_center((1, 0)), tile_center((2, 0))),
        tile_center(start_tile),
        ((0, 1), (1, 2)),
        "grid",
    )


def test_board_validation():
    region = corridor(3)
    a, b, c = tile_center((0, 0)), tile_center((1, 0)), tile_center((2, 0))
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), a, ((0, 1),), "manhattan")
    with pytest.raises(ValueError):
        BondBoard(region, ((0.0, 0.0),), None, (), "grid")  # corner, not center
    with pytest.raises(ValueError):
        BondBoard(region, (a, a), None, (), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 0),), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 1), (1, 0)), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b, c), None, ((0, 1), (1, 2), (0, 2)), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 2),), "grid")
    with pytest.raises(ValueError):
        BondWalk((0,), -1.0)
    for length in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="finite"):
            BondWalk((0,), float(length))


def test_board_and_walk_store_sequences_as_tuples():
    a, b = tile_center((0, 0)), tile_center((1, 0))
    board = BondBoard(corridor(2), [a, b], None, ((0, 1),), "grid")
    assert board.crystals == (a, b) and board == BondBoard(corridor(2), (a, b), None, ((0, 1),), "grid")
    walk = BondWalk([0, 1], 1)
    assert walk.visit_sequence == (0, 1) and walk.total_length == 1.0
    assert hash(walk) == hash(BondWalk((0, 1), 1.0))


def test_board_refuses_tile_centers_no_float_holds():
    # below 2**52 a float holds x + 0.5 exactly; the center of tile 2**52
    # rounds to its wall, and tile -2**52 sits at the limit's other side
    for x, ok in ((2**51, True), (2**52 - 1, True), (1 - 2**52, True), (2**52, False), (-(2**52), False)):
        region = TileRegion(frozenset({(x, 0), (x, 1)}))
        for start in (None, tile_center((x, 1))):
            args = (region, (tile_center((x, 0)),), start, (), "euclid")
            if ok:
                assert BondBoard(*args).crystals == (tile_center((x, 0)),)
            else:
                with pytest.raises(ValueError, match=r"strictly between -2\*\*52 and 2\*\*52"):
                    BondBoard(*args)
    far = TileRegion(frozenset({(0, 0), (2**52, 0)}))
    with pytest.raises(ValueError, match=r"2\*\*52"):
        BondBoard(far, (tile_center((0, 0)),), tile_center((2**52, 0)), (), "grid")


def test_connected_flag():
    region = corridor(4)
    pts = tuple(tile_center((x, 0)) for x in range(4))
    assert BondBoard(region, pts, None, ((0, 1), (1, 2), (2, 3)), "grid").connected
    assert not BondBoard(region, pts, None, ((0, 1), (2, 3)), "grid").connected
    assert BondBoard(region, pts[:1], None, (), "grid").connected


def test_metric_examples():
    b = trio_board((0, 0))
    m = crystal_metric(b)
    assert m[0][1] == 1 and m[1][2] == 1 and m[0][2] == 2
    assert all(m[i][i] == 0 for i in range(3))
    assert m[3][0] == 0  # start coincides with crystal B
    split = TileRegion(frozenset({(0, 0), (5, 5)}))
    bad = BondBoard(
        split, (tile_center((0, 0)), tile_center((5, 5))), None, ((0, 1),), "grid"
    )
    with pytest.raises(UnreachableCrystal):
        crystal_metric(bad)


def spy_builds(monkeypatch):
    """Count the engines crystal_metric builds, on an empty cache: a grid
    engine for every metric, whose last row checks the points are joined,
    and a euclid engine for a euclid metric."""
    builds = []
    for name in ("_Geodesics", "_GridDistances"):
        build = getattr(crystal_bonds, name)
        monkeypatch.setattr(
            crystal_bonds, name, lambda *args, build=build, name=name: builds.append(name) or build(*args)
        )
    crystal_bonds._metric_of.cache_clear()
    return builds


def test_equal_boards_share_one_metric(monkeypatch):
    builds = spy_builds(monkeypatch)
    for model in MODELS:
        text = serialize(gen_random_tree_board(5, 9, 9, 8, model))
        first = parse("bond-board", text)
        assert parse("bond-board", text) is first  # a process keeps the last board parsed
        instance_io._parse_bond_board.cache_clear()
        second = parse("bond-board", text)
        assert first == second and first is not second and first.region is not second.region
        assert crystal_metric(first) is crystal_metric(second)
    assert builds == ["_GridDistances", "_GridDistances", "_Geodesics"]


def test_metric_cache_never_serves_another_board(monkeypatch):
    builds = spy_builds(monkeypatch)
    ends = (tile_center((0, 0)), tile_center((2, 0)))
    straight = BondBoard(corridor(3), ends, None, ((0, 1),), "grid")
    bent = dataclasses.replace(straight, region=TileRegion(frozenset({(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)})))
    # a metric's rows are read on demand; read every entry
    assert [list(row) for row in crystal_metric(straight)] == [[0, 2], [2, 0]]
    assert [list(row) for row in crystal_metric(bent)] == [[0, 4], [4, 0]]
    square = TileRegion(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    diagonal = BondBoard(square, (tile_center((0, 0)), tile_center((1, 1))), None, ((0, 1),), "grid")
    assert [list(row) for row in crystal_metric(diagonal)] == [[0, 2], [2, 0]]
    assert [list(row) for row in crystal_metric(dataclasses.replace(diagonal, distance_model="euclid"))] == [
        [0, math.sqrt(2)], [math.sqrt(2), 0]
    ]
    with_start = dataclasses.replace(diagonal, start=tile_center((1, 0)))
    assert [list(row) for row in crystal_metric(with_start)] == [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    # five metrics: one engine each, and the euclid one's grid engine too
    assert len(builds) == 6


def brute_force_afresh(board):
    """brute_force_crystal_bonds on an empty metric memo."""
    crystal_bonds._metric_of.cache_clear()
    return brute_force_crystal_bonds(board)


def same_walk(a, b):
    return (a.visit_sequence, a.total_length.hex()) == (b.visit_sequence, b.total_length.hex())


def spy_seeds(monkeypatch):
    """On an empty cache, log each grid engine's first fill (the cut check) as
    ("seeded", whether it held entries before it), and each row it floods."""
    log, engines = [], []
    fill, flood = crystal_bonds._GridDistances.fill, crystal_bonds._GridDistances._flood

    def first_fill(self, i):
        if not any(e is self for e in engines):
            engines.append(self)
            log.append(("seeded", any(d is not None for row in self.table for d in row)))
        return fill(self, i)

    def logged_flood(self, i, *rest):
        log.append(("flood", i))
        return flood(self, i, *rest)

    monkeypatch.setattr(crystal_bonds._GridDistances, "fill", first_fill)
    monkeypatch.setattr(crystal_bonds._GridDistances, "_flood", logged_flood)
    crystal_bonds._metric_of.cache_clear()
    return log


def seeded_and_flooded(log):
    return [v for kind, v in log if kind == "seeded"], {i for kind, i in log if kind == "flood"}


def fresh_grid_rows(board):
    """The board's grid metric from an engine of its own, every entry read."""
    points = board.crystals + ((board.start,) if board.start else ())
    engine = crystal_bonds._GridDistances(board.region.tiles, [tile_of(p) for p in points])
    return [list(row) for row in engine.rows()]


LEAF_PATH = GridGraph(frozenset({(0, 0), (1, 0), (2, 0), (2, 1)}))


def test_path_gadget_floods_only_its_start_row(monkeypatch):
    # its start tile is a dead end, so the plain board's crystal distances hold
    board, threshold = reduce_grid_to_dcb(LEAF_PATH)
    gadget, gadget_threshold, _ = apply_start_gadget(board, LEAF_PATH)
    log = spy_seeds(monkeypatch)
    assert decide_dcb(board, threshold)
    seeded, flooded = seeded_and_flooded(log)
    assert seeded == [False] and len(flooded) > 1
    log.clear()
    assert decide_dcb(gadget, gadget_threshold)
    assert seeded_and_flooded(log) == ([True], {len(gadget.crystals)})
    # forgotten by cache_clear: a fresh build floods crystal rows too
    crystal_bonds._metric_of.cache_clear()
    log.clear()
    assert decide_dcb(gadget, gadget_threshold)
    seeded, flooded = seeded_and_flooded(log)
    assert seeded == [False] and flooded > {len(gadget.crystals)}


def test_seeds_only_a_grid_region_grown_by_dead_ends(monkeypatch):
    u = TileRegion(frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2)}))
    crystals = tuple(tile_center(t) for t in ((0, 2), (1, 0), (2, 2), (0, 0)))
    board = BondBoard(u, crystals, None, ((0, 2), (1, 3)), "grid")
    # (1, 2) bridges the U's arms, two neighbours: A-C falls from 6 to 2
    bridged = dataclasses.replace(board, region=TileRegion(u.tiles | {(1, 2)}))
    # (3, 0) hangs off (2, 0) alone, and the start on it extends the points
    spur = dataclasses.replace(board, region=TileRegion(u.tiles | {(3, 0)}), start=tile_center((3, 0)))
    square = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    cycle_board, _ = reduce_grid_to_dcb(square)
    cycle_gadget, _, detects = apply_start_gadget(cycle_board, square)
    assert detects == "ham-cycle" and not cycle_board.region.tiles < cycle_gadget.region.tiles
    path_board, _ = reduce_grid_to_dcb(LEAF_PATH)
    path_gadget = apply_start_gadget(path_board, LEAF_PATH)[0]
    euclid = [dataclasses.replace(b, distance_model="euclid") for b in (path_board, path_gadget)]
    cases = [
        (board, bridged, False), (board, spur, True), (bridged, spur, False),
        (board, dataclasses.replace(spur, crystals=crystals[::-1]), False),
        (cycle_board, cycle_gadget, False), (*euclid, False), (path_board, euclid[1], False),
        (euclid[0], path_gadget, False),
    ]
    log = spy_seeds(monkeypatch)
    for first, second, want in cases:
        crystal_bonds._metric_of.cache_clear()
        log.clear()
        [list(row) for row in crystal_metric(first)]
        got = [list(row) for row in crystal_metric(second)]
        assert seeded_and_flooded(log)[0] == [False, want], (first, second)
        crystal_bonds._metric_of.cache_clear()
        assert got == [list(row) for row in crystal_metric(second)]
    crystal_bonds._metric_of.cache_clear()
    assert crystal_metric(board)[0][2] == 6 and crystal_metric(bridged)[0][2] == 2


def test_every_seeded_metric_equals_one_built_afresh(monkeypatch):
    # `sweep dcb --box 3x3 --max-v 7`'s 398 boards, decided in its order
    log = spy_seeds(monkeypatch)
    graphs = [g for g in enumerate_grid_graphs(3, 3, 7) if len(g) >= 2]
    seeded_boards = 0
    for g in graphs:
        board, threshold = reduce_grid_to_dcb(g)
        gadget, gadget_threshold, _ = apply_start_gadget(board, g)
        for b, t in ((board, threshold), (gadget, gadget_threshold)):
            log.clear()
            decide_dcb(b, t)
            if seeded_and_flooded(log)[0] == [True]:
                assert [list(row) for row in crystal_metric(b)] == fresh_grid_rows(b)
                seeded_boards += 1
    assert (len(graphs), seeded_boards) == (199, 157)


def test_bond_table_never_serves_another_board():
    # crystals A, B, C, D on a U; bridging its arms shortens A-C from 6 to 2
    # and leaves every other crystal distance as it was
    u = TileRegion(frozenset({(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2)}))
    crystals = tuple(tile_center(t) for t in ((0, 2), (1, 0), (2, 2), (0, 0)))
    board = BondBoard(u, crystals, None, ((0, 2), (1, 3)), "grid")
    rebonded = dataclasses.replace(board, required_bonds=((0, 1), (1, 3)))
    bridged = dataclasses.replace(board, region=TileRegion(u.tiles | {(1, 2)}))
    rows, bridged_rows = ([list(row) for row in crystal_metric(b)] for b in (board, bridged))
    assert [(i, j) for i in range(4) for j in range(4) if rows[i][j] != bridged_rows[i][j]] == [(0, 2), (2, 0)]
    # an int metric, then the equal float one of the euclid model
    line = BondBoard(corridor(5), tuple(tile_center((x, 0)) for x in (0, 1, 3, 4)), None, ((0, 1), (2, 3)), "grid")
    floats = dataclasses.replace(line, distance_model="euclid")
    assert [list(row) for row in crystal_metric(line)] == [list(row) for row in crystal_metric(floats)]
    assert type(crystal_metric(line)[0][1]) is int and type(crystal_metric(floats)[0][1]) is float
    for first, second in ((board, rebonded), (rebonded, board), (board, bridged), (bridged, board), (line, floats)):
        brute_force_afresh(first)
        got = brute_force_crystal_bonds(second)
        assert same_walk(got, brute_force_afresh(second)), (first, second)


def test_bond_table_of_a_cut_board_is_never_built(monkeypatch):
    split = TileRegion(frozenset({(0, 0), (1, 0), (5, 5), (6, 5)}))
    crystals = tuple(tile_center(t) for t in ((0, 0), (1, 0), (5, 5), (6, 5)))
    cut = BondBoard(split, crystals, None, ((0, 1), (2, 3)), "grid")
    whole = trio_board((1, 0))
    built, table = [], crystal_bonds._bond_table
    monkeypatch.setattr(crystal_bonds, "_bond_table", lambda *args: built.append(args[1]) or table(*args))
    want = brute_force_afresh(whole)
    for _ in range(3):
        with pytest.raises(UnreachableCrystal):
            brute_force_crystal_bonds(cut)
        assert not decide_dcb(cut, 100)
    # the cut board built no table, and the whole board's walk is the same
    assert same_walk(brute_force_crystal_bonds(whole), want)
    assert built == [whole.required_bonds] * 2


def test_metric_of_a_cut_board_raises_every_time(monkeypatch):
    builds = spy_builds(monkeypatch)
    split = TileRegion(frozenset({(0, 0), (5, 5)}))
    cut = BondBoard(split, (tile_center((0, 0)), tile_center((5, 5))), None, ((0, 1),), "grid")
    whole = trio_board((0, 0))
    counts = []
    for board in (cut, cut, whole, cut, whole):
        if board is cut:
            with pytest.raises(UnreachableCrystal):
                crystal_metric(board)
        else:
            assert [list(row) for row in crystal_metric(board)][0] == [0, 1, 2, 0]
        counts.append(len(builds))
    # a cut board is built on every call and never evicts the last good one
    assert counts == [1, 2, 3, 4, 4]


def test_euclid_metric_is_cut_exactly_when_the_full_matrix_holds_an_inf():
    # the tile flood that guards the on-demand metric against the inf entries
    # a full matrix would hold: scattered tiles meet at pinches, and every
    # fifth region adds a far cluster that the bitboard cannot pack
    rng = random.Random(26)
    cut = pinched = 0
    for n in range(300):
        w = rng.choice((4, 5, 6, 8))
        cells = [(x, y) for x in range(w) for y in range(w)]
        tiles = rng.sample(cells, rng.randint(w, w * w * 4 // 5))
        if n % 5 == 4:
            tiles += [(x + 10**7, y) for x, y in rng.sample(cells, 3)]
        points = [tile_center(t) for t in rng.sample(tiles, min(len(tiles), rng.randint(2, 6)))]
        board = BondBoard(TileRegion(frozenset(tiles)), tuple(points[1:]), points[0], (), "euclid")
        pinched += bool(pinch_corners(board.region))
        holds_inf = any(math.inf in row for row in euclidean_geodesic_matrix(board.region, points[1:] + points[:1]))
        crystal_bonds._metric_of.cache_clear()
        try:
            crystal_metric(board)
        except UnreachableCrystal:
            assert holds_inf, (sorted(tiles), points)
            cut += 1
        else:
            assert not holds_inf, (sorted(tiles), points)
    assert 50 < cut < 250 and pinched > 150, (cut, pinched)


def test_metric_rows_are_read_only():
    m = crystal_metric(trio_board((0, 0)))
    with pytest.raises(TypeError):
        m[0][1] = 5
    with pytest.raises(TypeError):
        m[0] = (0, 0, 0, 0)
    assert crystal_metric(trio_board((0, 0)))[0][1] == 1


def test_metric_euclid_straight_line():
    b = BondBoard(
        corridor(3),
        (tile_center((0, 0)), tile_center((2, 0))),
        None,
        ((0, 1),),
        "euclid",
    )
    m = crystal_metric(b)
    assert abs(m[0][1] - 2.0) < 1e-12


def test_single_bond_cost():
    region = corridor(3)
    b = BondBoard(
        region,
        (tile_center((0, 0)), tile_center((2, 0))),
        tile_center((1, 0)),
        ((0, 1),),
        "grid",
    )
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 3  # 1 to either crystal, 2 across
    assert verify_bond_walk(b, walk).ok
    assert brute_force_crystal_bonds(b).total_length == 3


def test_trio_start_at_end_walks_through():
    walk = solve_crystal_bonds(trio_board((0, 0)))
    assert walk.total_length == 2
    assert walk.visit_sequence == (0, 1, 2)


def test_trio_start_at_middle_pays_backtrack():
    b = trio_board((1, 0))
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 3
    assert brute_force_crystal_bonds(b).total_length == 3
    assert verify_bond_walk(b, walk).ok


def test_star_tree_needs_one_deadhead():
    region = TileRegion(frozenset({(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}))
    pts = tuple(tile_center(t) for t in ((1, 1), (1, 0), (0, 1), (2, 1)))
    b = BondBoard(region, pts, tile_center((1, 1)), ((0, 1), (0, 2), (0, 3)), "grid")
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 5
    assert brute_force_crystal_bonds(b).total_length == 5
    assert verify_bond_walk(b, walk).ok


def test_rural_postman_rejects_disconnected_required_set():
    b = trio_board((0, 0))
    m = crystal_metric(b)
    with pytest.raises(ValueError):
        rural_postman_connected(m, [(0, 1)] + [(2, 2)], 3)
    # a connected required set may close a cycle; only a split is refused
    assert rural_postman_connected(m, [(0, 1), (1, 2), (0, 2)], 3) == ((0, 1, 2, 0), 4)
    with pytest.raises(ValueError):
        solve_crystal_bonds(
            BondBoard(corridor(4), tuple(tile_center((x, 0)) for x in range(4)),
                      None, ((0, 1), (2, 3)), "grid")
        )


@pytest.mark.parametrize(
    "edges,want",
    [
        ([(0, 1), (1, 2), (0, 2)], ((0, 1, 2, 0), 6)),
        ([(1, 2), (2, 3), (1, 3)], ((1, 2, 3, 1), 5)),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], ((0, 1, 2, 3, 0), 6)),
    ],
)
def test_free_start_closed_tour_enters_at_the_first_crystal(edges, want):
    # no start and no odd crystal: only closed tours compete, all at one
    # cost, and the first touched crystal opens the tour
    metric = [[0, 2, 3, 1], [2, 0, 1, 2], [3, 1, 0, 2], [1, 2, 2, 0]]
    got = rural_postman_connected(metric, edges)
    assert got == want
    assert type(got[1]) is int  # an integer metric keeps an integer total


def test_empty_bond_set():
    b = BondBoard(corridor(2), (tile_center((0, 0)),), None, (), "grid")
    walk = brute_force_crystal_bonds(b)
    assert walk.visit_sequence == () and walk.total_length == 0
    assert verify_bond_walk(b, walk).ok
    assert solve_crystal_bonds(b).total_length == 0


def test_verify_rejects_bad_walks():
    b = trio_board((0, 0))
    good = solve_crystal_bonds(b)
    missing = verify_bond_walk(b, BondWalk((0, 1), 1.0))
    assert not missing.ok and missing.rule == "missing bond" and missing.detail == (1, 2)
    lied = verify_bond_walk(b, BondWalk(good.visit_sequence, good.total_length - 1))
    assert not lied.ok and lied.rule == "length mismatch"
    alien = verify_bond_walk(b, BondWalk((0, 7), 1.0))
    assert not alien.ok and alien.rule == "bad crystal index"


def test_solver_matches_oracle_on_random_boards():
    for seed in range(25):
        model = "grid" if seed % 2 == 0 else "euclid"
        board = gen_random_tree_board(seed, box_w=6, box_h=6, r=3 + seed % 4, model=model)
        got = solve_crystal_bonds(board)
        want = brute_force_crystal_bonds(board)
        assert abs(got.total_length - want.total_length) <= 1e-9, seed
        assert verify_bond_walk(board, got).ok
        assert verify_bond_walk(board, want).ok


def test_adding_a_bond_never_helps():
    for seed in range(12):
        board = gen_random_tree_board(seed + 100, box_w=6, box_h=6, r=5)
        rng = random.Random(seed)
        bonds = list(board.required_bonds)
        rng.shuffle(bonds)
        prev = 0.0
        for cut in range(1, len(bonds) + 1):
            partial = BondBoard(
                board.region, board.crystals, board.start,
                tuple(bonds[:cut]), board.distance_model,
            )
            length = brute_force_crystal_bonds(partial).total_length
            assert length >= prev - 1e-9
            prev = length


def top_down_brute_force(board):
    """brute_force_crystal_bonds's former form: a memoized recursion
    `after(mask, last)` returning (cost, tuple of (u, w) bond steps), with
    the root state's candidates tried in a separate loop."""
    bonds = board.required_bonds
    if not bonds:
        return BondWalk((), 0.0)
    metric = crystal_metric(board)
    start_index = None if board.start is None else len(board.crystals)
    full = (1 << len(bonds)) - 1
    memo = {}

    def after(mask, last):
        if mask == full:
            return 0.0, ()
        key = (mask, last)
        if key in memo:
            return memo[key]
        best = (math.inf, ())
        for i, (p, q) in enumerate(bonds):
            if mask & (1 << i):
                continue
            for u, w in ((p, q), (q, p)):
                tail_cost, tail = after(mask | (1 << i), w)
                cand = metric[last][u] + metric[u][w] + tail_cost
                if cand < best[0]:
                    best = (cand, ((u, w),) + tail)
        memo[key] = best
        return best

    best = (math.inf, ())
    for i, (p, q) in enumerate(bonds):
        for u, w in ((p, q), (q, p)):
            tail_cost, tail = after(1 << i, w)
            first_leg = 0.0 if start_index is None else metric[start_index][u]
            cand = first_leg + metric[u][w] + tail_cost
            if cand < best[0]:
                best = (cand, ((u, w),) + tail)

    seq = []
    for u, w in best[1]:
        if not seq or seq[-1] != u:
            seq.append(u)
        seq.append(w)
    return BondWalk(tuple(seq), best[0])


def connects_all_crystals(board):
    try:
        crystal_metric(board)
    except UnreachableCrystal:
        return False
    return True


def test_brute_force_matches_former_recursion():
    # same recurrence, same candidate sums and the same strict < in bond,
    # then orientation, order: equal walks and bit-equal lengths
    boards = []
    for g in enumerate_grid_graphs(3, 3, 7):
        if len(g) == 7:
            board, _ = reduce_grid_to_dcb(g)
            boards += [board, apply_start_gadget(board, g)[0]]
    for seed in range(130):
        model = ("grid", "euclid")[seed % 2]
        board = gen_random_tree_board(seed + 300, box_w=6, box_h=6, r=2 + seed % 7, model=model)
        boards += [board, dataclasses.replace(board, start=None)]
    # a gadget whose corridor break severs a bridge has no walk at all
    boards = [b for b in boards if connects_all_crystals(b)]
    assert len(boards) >= 300
    assert sum(len(b.required_bonds) == 8 and b.start is not None for b in boards) >= 10
    for board in boards:
        got = brute_force_crystal_bonds(board)
        want = top_down_brute_force(board)
        assert got.visit_sequence == want.visit_sequence, board
        assert got.total_length.hex() == want.total_length.hex(), board


def former_matching_cost(metric, members, table, partner, mask):
    """The subset DP the postman matched with before its blossom matching:
    the cheapest pairing of the set bits of `mask` over `members`.  Each
    solved mask stores its cost in `table` and, in `partner`, the partner
    its lowest bit took: the first in bit order under a strict <."""
    if mask in table:
        return table[mask]
    low = (mask & -mask).bit_length() - 1
    row = metric[members[low]]
    best, choice = math.inf, 0
    rest = mask & ~(1 << low)
    m = rest
    while m:
        bit = m & -m
        sub = former_matching_cost(metric, members, table, partner, rest ^ bit)
        j = bit.bit_length() - 1
        cand = row[members[j]] + sub
        if cand < best:
            best, choice = cand, j
        m ^= bit
    table[mask] = best
    partner[mask] = choice
    return best


def former_postman(metric, required_edges, start_index=None):
    """rural_postman_connected as it was with the subset DP: every ordered
    pair of odd ends, then every closed tour, as candidate walks; min keeps
    the first cheapest, and its deadheads are read back along the recorded
    partners.  Returns the walk, its length and the deadhead pairs."""
    touched = sorted({v for e in required_edges for v in e})
    degree = Counter(v for e in required_edges for v in e)
    odd = [v for v in touched if degree[v] % 2 == 1]
    required_weight = sum(metric[a][b] for a, b in required_edges)
    table, partner = {0: 0.0}, {}
    full = (1 << len(odd)) - 1
    walks = [(a, full & ~(1 << i) & ~(1 << j)) for i, a in enumerate(odd) for j in range(len(odd)) if i != j]
    walks += [(u, full) for u in touched]
    legs = [0] * len(metric) if start_index is None else metric[start_index]

    def cost(walk):
        return required_weight + former_matching_cost(metric, odd, table, partner, walk[1]) + legs[walk[0]]

    a, mask = min(walks, key=cost)
    pairs = []
    while mask:
        low, j = (mask & -mask).bit_length() - 1, partner[mask]
        pairs.append((odd[low], odd[j]))
        mask &= ~(1 << low) & ~(1 << j)
    trail = crystal_bonds._euler_trail(touched, list(required_edges) + pairs, a)
    return tuple(trail), sum(metric[u][w] for u, w in zip(trail, trail[1:])) + legs[trail[0]], pairs


def deadheads(monkeypatch, metric, required_edges, start_index):
    """The new postman's walk, its length and the deadhead pairs it handed
    to the Euler trail."""
    seen = []

    def spy(vertices, edges, start):
        seen.append(edges[len(required_edges):])
        return euler_trail(vertices, edges, start)

    euler_trail = crystal_bonds._euler_trail
    with monkeypatch.context() as patch:
        patch.setattr(crystal_bonds, "_euler_trail", spy)
        trail, length = rural_postman_connected(metric, required_edges, start_index)
    return trail, length, seen[0]


def spider_board(seed, side, legs, leg_len):
    """Grid board whose bonds are `legs` chains from one hub: an odd `legs`
    gives legs + 1 odd-degree crystals."""
    rng = random.Random(seed)
    region = gen_random_region(rng.randrange(2**32), side, side, side * side * 2 // 3)
    r = 1 + legs * leg_len
    picks = rng.sample(sorted(region.tiles), r + 1)
    bonds = [
        (1 + leg * leg_len + step - 1 if step else 0, 1 + leg * leg_len + step)
        for leg in range(legs)
        for step in range(leg_len)
    ]
    return BondBoard(
        region, tuple(map(tile_center, picks[:r])), tile_center(picks[r]), tuple(bonds), "grid"
    )


def test_recorded_partners_match_former_reconstruction(monkeypatch):
    # the matching's tie order is the subset DP's: the same first crystal,
    # the same end and the same partners give the same walk, bit for bit
    boards = [gen_random_tree_board(seed, 30, 30, 40, "euclid") for seed in range(4)]
    boards += [spider_board(seed, 30, 15, 2) for seed in range(3)]
    boards += [spider_board(seed, 50, 13, 3) for seed in range(3, 5)]
    for seed in range(120):
        model = ("grid", "euclid")[seed % 2]
        board = gen_random_tree_board(seed + 700, box_w=7, box_h=7, r=2 + seed % 11, model=model)
        boards += [board, dataclasses.replace(board, start=None)]
    assert sum(board.distance_model == "euclid" for board in boards) >= 120

    odd_counts = Counter()
    for board in boards:
        metric = crystal_metric(board)
        start = None if board.start is None else len(board.crystals)
        bonds = list(board.required_bonds)
        trail, length, pairs = deadheads(monkeypatch, metric, bonds, start)
        want_trail, want_length, want_pairs = former_postman(metric, bonds, start)
        odd_counts[sum(d % 2 for d in Counter(v for bond in bonds for v in bond).values())] += 1
        assert sorted(map(sorted, pairs)) == sorted(map(sorted, want_pairs)), board
        assert trail == want_trail, board
        assert float(length).hex() == float(want_length).hex(), board
        assert solve_crystal_bonds(board) == BondWalk(trail, length)
    assert odd_counts[16] >= 3 and odd_counts[14] >= 2


def test_matching_cost_matches_former_recursion(monkeypatch):
    # a hub with n - 1 legs of one crystal each has n odd crystals; on
    # random weights, a third of them tie-heavy integers 0-5, the matching
    # takes the DP's cost and the DP's pairs, and so the same walk.  A start
    # on a float board stays off the crystals: a leg equal to a deadhead
    # ties two walks in the reals, and the DP's float sums break that tie by
    # rounding
    rng = random.Random(15)
    for trial in range(240):
        n = 2 + 2 * (trial % 8)
        tied = trial % 3 == 0
        size = n + 3
        metric = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(a):
                metric[a][b] = metric[b][a] = rng.randint(0, 5) if tied else rng.uniform(0.5, 60)
        members = sorted(rng.sample(range(size), n))
        starts = range(size) if tied else sorted(set(range(size)) - set(members))
        hub, start = members[0], rng.choice([None, *starts])
        bonds = [(hub, leaf) for leaf in members[1:]]
        trail, length, pairs = deadheads(monkeypatch, metric, bonds, start)
        want_trail, want_length, want_pairs = former_postman(metric, bonds, start)
        cost = sum(metric[a][b] for a, b in pairs)
        assert math.isclose(cost, sum(metric[a][b] for a, b in want_pairs), abs_tol=1e-9), (trial, metric)
        assert sorted(map(sorted, pairs)) == sorted(map(sorted, want_pairs)), (trial, metric)
        assert (trail, float(length).hex()) == (want_trail, float(want_length).hex())


def test_spiders_past_the_former_limit_solve_within_a_second():
    # the subset DP refused more than 16 odd crystals; the matching is cubic
    for legs in (19, 31, 47):
        board = spider_board(legs, 30, legs, 2)
        began = time.perf_counter()
        walk = solve_crystal_bonds(board)
        assert verify_bond_walk(board, walk).ok
        assert time.perf_counter() - began < 1.0, legs
        degree = Counter(v for bond in board.required_bonds for v in bond)
        assert sum(d % 2 for d in degree.values()) == legs + 1


def test_solve_leaves_no_reference_cycle():
    # the matching's tables on a 48-odd-crystal board are freed when the
    # postman returns, not when the cyclic collector runs
    board = spider_board(0, 30, 47, 1)
    gc.collect()
    gc.disable()
    try:
        solve_crystal_bonds(board)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_bond_limit():
    board = gen_random_tree_board(3, box_w=6, box_h=6, r=10)
    assert len(board.required_bonds) == 9
    with pytest.raises(InstanceTooLarge, match="limited to 8 bonds"):
        brute_force_crystal_bonds(board)


def test_reduce_domino_shape():
    g = GridGraph(frozenset({(0, 0), (1, 0)}))
    board, threshold = reduce_grid_to_dcb(g)
    assert threshold == 9
    assert len(board.region) == 6
    assert board.start is None and board.distance_model == "grid"
    assert board.crystals[:2] == (tile_center((0, 0)), tile_center((5, 0)))
    assert board.crystals[2:] == (tile_center((1, 0)), tile_center((4, 0)))
    assert board.required_bonds == ((0, 2), (1, 3))
    assert not board.connected
    m = crystal_metric(board)
    assert m[0][1] == 5  # adjacent vertices sit one scaled edge apart
    assert decide_dcb(board, threshold)


def test_reduce_square_vertex_spacing():
    g = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    board, threshold = reduce_grid_to_dcb(g)
    assert threshold == (4 - 1) * 9 + 8
    m = crystal_metric(board)
    assert m[0][1] == 9 and m[0][2] == 9 and m[1][3] == 9
    vertex_partner = [m[i][4 + i] for i in range(4)]
    assert vertex_partner == [1, 1, 1, 1]


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_grid_to_dcb(GridGraph(frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        reduce_grid_to_dcb(GridGraph(frozenset({(0, 0), (3, 3)})))


def test_gadget_leaf_branch():
    g = GridGraph(frozenset({(0, 0), (1, 0), (2, 0)}))
    board, threshold = reduce_grid_to_dcb(g)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-path"
    assert gthreshold == threshold == (3 - 1) * 7 + 6
    assert gadget.start == tile_center((-1, 0))
    assert len(gadget.region) == len(board.region) + 1
    assert gadget.required_bonds == board.required_bonds
    assert decide_dcb(gadget, gthreshold)


def test_gadget_cycle_branch_square():
    g = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    board, _ = reduce_grid_to_dcb(g)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-cycle"
    assert gthreshold == 44
    assert gadget.start == tile_center((-1, 9))
    assert (0, 8) not in gadget.region.tiles
    assert {(-1, 7), (-2, 7)} <= gadget.region.tiles
    assert gadget.required_bonds[-1] == (8, 9)
    assert decide_dcb(gadget, gthreshold)


def test_gadget_cycle_branch_rejects_cycleless_graph():
    # P-pentomino: leftmost column has no leaf, five vertices admit no cycle
    g = GridGraph(frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}))
    assert has_ham_path_grid(g) and not has_ham_cycle_grid(g)
    board, threshold = reduce_grid_to_dcb(g)
    assert decide_dcb(board, threshold)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-cycle"
    assert not decide_dcb(gadget, gthreshold)


def test_gadget_refuses_a_board_it_built():
    g = GridGraph(frozenset({(0, 0), (1, 0), (2, 0)}))
    board, _ = reduce_grid_to_dcb(g)
    gadget, _, _ = apply_start_gadget(board, g)
    with pytest.raises(ValueError, match="^board is not an unmodified reduction output$"):
        apply_start_gadget(gadget, g)


def test_sweep_dcb_builds_no_bond_table(monkeypatch, capsys):
    # decide_dcb searches on its own; the table serves the brute force alone
    def refuse(*args):
        raise AssertionError("sweep dcb built a bond table")

    monkeypatch.setattr(crystal_bonds, "_bond_table", refuse)
    assert cli.main(["sweep", "dcb", "--box", "3x3", "--max-v", "7"]) == 0
    assert capsys.readouterr().out == "pass 199 fail 0\n"


def test_gadget_refuses_a_graph_whose_anchor_is_isolated():
    # the board's size matches, but the graph is not the one it was reduced from
    board, _ = reduce_grid_to_dcb(GridGraph(frozenset({(0, 0), (1, 0)})))
    apart = GridGraph(frozenset({(0, 0), (0, 2)}))
    want = "^topmost leftmost vertex is isolated: not the graph the board was reduced from$"
    with pytest.raises(ValueError, match=want):
        apply_start_gadget(board, apart)


def test_reduction_equivalence_small_sweep():
    for g in enumerate_grid_graphs(2, 2, 4):
        if len(g) < 2:
            continue
        board, threshold = reduce_grid_to_dcb(g)
        assert decide_dcb(board, threshold) == has_ham_path_grid(g), sorted(g.vertices)
        gadget, gthreshold, detects = apply_start_gadget(board, g)
        want = has_ham_path_grid(g) if detects == "ham-path" else has_ham_cycle_grid(g)
        assert decide_dcb(gadget, gthreshold) == want, sorted(g.vertices)


def trees_and_forests():
    """gen_random_tree_board trees of 4 to 9 crystals, each with one bond
    dropped and with every bond dropped, under both models, each with its
    start and without."""
    for seed in range(24):
        for model in MODELS:
            tree = gen_random_tree_board(seed, 6, 6, 4 + seed % 6, model)
            bonds, cut = tree.required_bonds, seed % len(tree.required_bonds)
            forest = dataclasses.replace(tree, required_bonds=bonds[:cut] + bonds[cut + 1 :])
            for board in (tree, forest, dataclasses.replace(tree, required_bonds=())):
                yield board
                yield dataclasses.replace(board, start=None)


def test_decide_dcb_agrees_with_the_brute_force_around_the_optimum():
    # decide_dcb prunes by a bound; the brute force fills its whole table
    checked = Counter()
    for board in trees_and_forests():
        opt = brute_force_afresh(board).total_length
        floor = math.floor(opt)
        for t in (floor - 1, floor, math.ceil(opt), opt, opt - EPS / 2, opt + EPS / 2, opt - 2 * EPS, opt + 2 * EPS):
            want = opt - EPS <= t
            assert decide_dcb(board, t) == want, (board, t)
            checked[want] += 1
    assert checked == {True: 1632, False: 672}


def test_decide_dcb_agrees_with_the_brute_force_on_the_sweep_boards():
    # `sweep dcb --box 3x3 --max-v 7`'s boards and gadgets, at the threshold and one below
    checked = Counter()
    for g in enumerate_grid_graphs(3, 3, 7):
        if len(g) < 2:
            continue
        board, threshold = reduce_grid_to_dcb(g)
        gadget, gadget_threshold, _ = apply_start_gadget(board, g)
        for b, t in ((board, threshold), (gadget, gadget_threshold)):
            try:
                opt = brute_force_crystal_bonds(b).total_length
            except UnreachableCrystal:
                opt = math.inf
            for limit in (t, t - 1):
                want = opt - EPS <= limit
                assert decide_dcb(b, limit) == want, (sorted(g.vertices), b.start, limit)
                checked[limit == t, want] += 1
    # the construction's slack: each verdict holds one below its threshold too
    assert checked == {(True, True): 280, (True, False): 118, (False, True): 280, (False, False): 118}


def test_generator_is_deterministic_and_bounded():
    assert gen_random_tree_board(7, box_w=7, box_h=7, r=20) == gen_random_tree_board(7, box_w=7, box_h=7, r=20)
    odd_counts = Counter()
    # more crystals than 16, so only the rewire cap keeps the bound
    for seed in range(8):
        for r in (17, 24, 32, 40):
            board = gen_random_tree_board(seed, box_w=8, box_h=8, r=r)
            assert len(board.crystals) == r and board.connected
            degree = Counter(c for bond in board.required_bonds for c in bond)
            odd_counts[sum(1 for c in range(r) if degree[c] % 2)] += 1
    assert max(odd_counts) <= 2 + 2 * REWIRE_LIMIT == 16
    assert len(odd_counts) > 3
    assert gen_random_tree_board(8, model="euclid").distance_model == "euclid"
