"""The grid BFS engine against a plain per-cell reference.

Dense tile sets and sets in a small bounding box run as bitboards (one int,
a pad column per row), sparse ones in a large box as sets of tiles, by
the same level rule; both must give the reference's values and types, an int step count
or math.inf when cut off, in any read order.  The connectivity check, a
row of the on-demand engine with no math.inf in it, must give the
reference's verdict on both sides of the packing rule.  A solve reads only
the entries it needs, so it starts fewer floods than it has points.  A
euclid solve packs its region once for the flood and the corner pass, and a
geo-oracle sweep item once for the corner pass and the fine-grid oracle's
flood.
"""

import math
import random
import time
from collections import deque
from itertools import chain

import pytest

from riftpuzzles import crystal_bonds, geometry
from riftpuzzles.cli import main
from riftpuzzles.crystal_bonds import (
    BondBoard,
    apply_start_gadget,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    rural_postman_connected,
    solve_crystal_bonds,
    verify_bond_walk,
)
from riftpuzzles.geometry import TileRegion, gen_random_region, grid_distance, tile_center
from riftpuzzles.geometry import _PACK_DENSITY, _Bitboard, _connected, _GridDistances, _packed
from riftpuzzles.graphs import enumerate_grid_graphs


def reference_bfs(tiles, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x, y = v = queue.popleft()
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in tiles and nxt not in dist:
                dist[nxt] = dist[v] + 1
                queue.append(nxt)
    return dist


def reference_matrix(tiles, targets):
    rows = []
    for src in targets:
        dist = reference_bfs(tiles, src)
        rows.append([dist.get(t, math.inf) for t in targets])
    return rows


def grid_distance_matrix(region, tiles):
    """Every entry of the grid BFS engine, as lists."""
    return [list(row) for row in _GridDistances(region.tiles, tiles).rows()]


def packable(tiles):
    return _packed(frozenset(tiles)) is not None


def joined(cells, tiles):
    """The solver's connectivity check: the engine's last row, completed,
    holds no math.inf."""
    return math.inf not in _GridDistances(cells, tiles).rows()[-1]


def assert_same(got, want):
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is type(w), (g, w)


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same(g, w)


def seeded_tile_sets(count):
    """Connected regions and scattered sets in boxes of at most 14x14, some
    shifted to negative coordinates; all of them pack."""
    rng = random.Random(20261018)
    for seed in range(count):
        w, h = rng.randint(1, 14), rng.randint(1, 14)
        if seed % 2:
            tiles = gen_random_region(seed, w, h, rng.randint(1, w * h)).tiles
        else:
            cells = [(x, y) for x in range(w) for y in range(h)]
            per_tile = rng.choice((1, 1.5, 2, 3, 4, 5, 6, 8, 12))
            tiles = rng.sample(cells, max(1, int(len(cells) / per_tile)))
        dx, dy = rng.choice(((0, 0), (-20, 3), (5, -40), (-7, -7)))
        yield rng, frozenset((x + dx, y + dy) for x, y in tiles)


def wide_scattered_sets(count):
    """Scattered sets whose bounding box holds more than `_PACK_BOX` cells
    and, mostly, more than `_PACK_DENSITY` cells per tile: the set-of-tiles
    side of the packing rule.  Some are shifted to negative coordinates."""
    rng = random.Random(20261020)
    for _ in range(count):
        w, h = rng.randint(70, 130), rng.randint(70, 130)
        per_tile = rng.choice((3, 5, 8, 20, 100))
        tiles = set()
        while len(tiles) < max(2, w * h // per_tile):
            tiles.add((rng.randrange(w), rng.randrange(h)))
        tiles |= {(0, 0), (w - 1, h - 1)}  # spans the whole box
        dx, dy = rng.choice(((0, 0), (-200, 3), (5, -400), (-70, -70)))
        yield rng, frozenset((x + dx, y + dy) for x, y in tiles)


def test_engine_matches_reference_on_seeded_sets():
    packed = sparse = 0
    for rng, tiles in chain(seeded_tile_sets(300), wide_scattered_sets(50)):
        region = TileRegion(tiles)
        order = sorted(tiles)
        targets = rng.sample(order, min(len(order), rng.randint(1, 12)))
        targets += rng.sample(targets, min(2, len(targets)))  # duplicate tiles
        assert_same_rows(grid_distance_matrix(region, targets), reference_matrix(tiles, targets))
        for _ in range(3):
            a, b = rng.choice(order), rng.choice(order)
            assert_same([grid_distance(region, a, b)], [reference_bfs(tiles, a).get(b, math.inf)])
        assert _connected(tiles) == (len(reference_bfs(tiles, order[0])) == len(tiles))
        if packable(tiles):
            packed += 1
        else:
            sparse += 1
    assert packed >= 100 and sparse >= 30


def test_packed_sets_each_tile_bit_and_refuses_by_the_box_rule():
    # the packer's single walk against an independent per-tile construction
    checked = refused = 0
    for _, tiles in chain(seeded_tile_sets(300), wide_scattered_sets(50)):
        xs, ys = [x for x, _ in tiles], [y for _, y in tiles]
        width, height = max(xs) - min(xs) + 1, max(ys) - min(ys) + 1
        board = _packed(tiles)
        if width * height > max(geometry._PACK_BOX, _PACK_DENSITY * len(tiles)):
            assert board is None
            refused += 1
            continue
        assert board[:3] == (min(xs), min(ys), width + 1)
        assert board.cells == sum(1 << board.index(t) for t in tiles)
        checked += 1
    assert checked >= 300 and refused >= 30


def test_a_level_rule_that_steps_back_fails_fast(monkeypatch):
    # a rule that forgets the level below lets the frontier step back and
    # forth, so it never empties; both floods stop after one level per cell
    def bouncing(cells, frontier, below):
        return {(x + dx, y + dy) for x, y in frontier for dx, dy in geometry.ORTHO_STEPS} & cells

    monkeypatch.setattr(geometry, "_set_level", bouncing)
    tiles = frozenset({(x, 0) for x in range(100)} | {(0, y) for y in range(100)} | {(50, 50)})
    assert not packable(tiles)  # the per-cell side, where _set_level steps
    with pytest.raises(AssertionError, match="ran past 200 levels"):
        _connected(tiles)
    with pytest.raises(AssertionError, match="ran past 200 levels"):
        _GridDistances(tiles, [(99, 0), (50, 50)]).fill(0)


def test_dcb_sweep_boards_pack():
    # the reduction boards' corridors leave 8-9 bounding-box cells per tile,
    # but their boxes are small, so their distance matrices run bitboards
    boards = spread = 0
    for g in enumerate_grid_graphs(3, 3, 7):
        if len(g) < 2:
            continue
        board, _ = reduce_grid_to_dcb(g)
        gadget, _, _ = apply_start_gadget(board, g)
        for tiles in (board.region.tiles, gadget.region.tiles):
            assert packable(tiles)
            boards += 1
            xs = [x for x, _ in tiles]
            ys = [y for _, y in tiles]
            box = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)
            spread += box > _PACK_DENSITY * len(tiles)
    assert boards == 398 and spread >= 300


def test_side_columns_do_not_wrap_between_rows():
    # a U: (5, y) and (0, y + 1) would be neighbours if a shift wrapped a
    # row's last column into the next row's first
    tiles = {(0, y) for y in range(7)} | {(5, y) for y in range(7)} | {(x, 0) for x in range(6)}
    region = TileRegion(frozenset(tiles))
    assert grid_distance(region, (5, 4), (0, 5)) == 4 + 5 + 5
    # two bars with no bottom row are separate components
    bars = frozenset(t for t in tiles if t[1] > 0)
    assert grid_distance(TileRegion(bars), (5, 4), (0, 5)) == math.inf
    assert not _connected(bars)
    assert packable(tiles) and packable(bars)
    # and on the bars' own bitboard, where the pad column keeps them apart
    assert not joined(bars, [(5, 4), (0, 5)])


def test_the_top_east_tile_joins_its_row_and_column():
    # a bar on the bitboard's top row and one on its east column meet only at
    # the top bit, which a level steps from by shifting past the board and back
    tiles = frozenset({(x, 6) for x in range(9)} | {(8, y) for y in range(7)})
    assert packable(tiles)
    targets = [(0, 6), (8, 6), (8, 0), (4, 6), (8, 3)]
    assert_same_rows(grid_distance_matrix(TileRegion(tiles), targets), reference_matrix(tiles, targets))
    assert grid_distance(TileRegion(tiles), (0, 6), (8, 0)) == 8 + 6
    assert not joined(tiles - {(8, 6)}, [(0, 6), (8, 0)])


def test_engine_rows_match_reference_in_any_read_order():
    # seeded single entries first, each resuming a flood or starting one,
    # then whole rows, each completed by one call: no read order may change
    # a value or its type
    rng = random.Random(30)
    seen = dict.fromkeys(("packed", "refused", "cut", "repeated"), 0)
    for _, tiles in chain(seeded_tile_sets(120), wide_scattered_sets(30)):
        order = sorted(tiles)
        targets = rng.sample(order, min(len(order), rng.randint(1, 10)))
        targets += rng.sample(targets, min(2, len(targets)))  # a start on a crystal's tile
        want = reference_matrix(tiles, targets)
        pairs = [(i, j) for i in range(len(targets)) for j in range(len(targets))]
        for reads in (0, 1, len(pairs) // 3, len(pairs)):
            rows = _GridDistances(tiles, targets).rows()
            for i, j in rng.sample(pairs, reads):
                assert_same([rows[i][j]], [want[i][j]])
            for i in rng.sample(range(len(rows)), len(rows)):
                assert_same(list(rows[i]), want[i])
        seen["packed" if packable(tiles) else "refused"] += 1
        seen["cut"] += any(math.inf in row for row in want)
        seen["repeated"] += len(set(targets)) < len(targets)
    assert min(seen.values()) >= 20, seen


def test_a_spider_solve_starts_fewer_floods_than_it_has_points(monkeypatch):
    # an 80x80 grid board with a 15-legged bond tree: the postman reads the
    # bond pairs, the pairs of the 16 odd crystals and the start row, and
    # every read fills both halves of the table
    rng = random.Random(80)
    region = gen_random_region(rng.randrange(2**32), 80, 80, 80 * 80 * 2 // 3)
    legs, leg_len = 15, 4
    picks = rng.sample(sorted(region.tiles), 2 + legs * leg_len)
    # leg l is crystals l * leg_len + 1 .. (l + 1) * leg_len, hung from the hub, crystal 0
    bonds = [
        (leg * leg_len + step if step else 0, leg * leg_len + step + 1) for leg in range(legs) for step in range(leg_len)
    ]
    sources = set()
    flood = _GridDistances._flood
    monkeypatch.setattr(_GridDistances, "_flood", lambda self, i, *rest: sources.add(i) or flood(self, i, *rest))
    solved = []
    # the board, then the board with a tile 10^9 away, which `_packed` refuses:
    # the sets of tiles must start the same floods and give the same walk
    for tiles in (region.tiles, region.tiles | {(10**9, 10**9)}):
        crystals, start = tuple(map(tile_center, picks[:-1])), tile_center(picks[-1])
        board = BondBoard(TileRegion(tiles), crystals, start, tuple(bonds), "grid")
        assert packable(tiles) == (tiles == region.tiles) and board.connected
        sources.clear()
        crystal_bonds._metric_of.cache_clear()
        walk = solve_crystal_bonds(board)
        assert verify_bond_walk(board, walk).ok
        solved.append((sorted(sources), walk.visit_sequence, walk.total_length))
    # advancing the deeper of a read's two floods starts 32 of them here;
    # always flooding from the row's tile starts 47, from the column's 44
    assert 0 < len(solved[0][0]) <= 32 < len(picks), solved[0][0]
    assert solved[1] == solved[0]
    # the walk a full matrix gives
    full = grid_distance_matrix(region, picks)
    assert solved[0][1:] == rural_postman_connected(full, bonds, len(picks) - 1)


def test_single_tile_and_duplicate_targets():
    one = TileRegion(frozenset({(-3, -9)}))
    assert_same_rows(grid_distance_matrix(one, [(-3, -9)] * 3), [[0, 0, 0]] * 3)
    assert _connected({(-3, -9)})
    line = TileRegion(frozenset((x, 0) for x in range(4)))
    assert_same_rows(
        grid_distance_matrix(line, [(3, 0), (0, 0), (3, 0)]),
        [[0, 3, 0], [3, 0, 3], [0, 3, 0]],
    )


def test_far_apart_tiles_keep_the_per_cell_path(tmp_path, capsys):
    # packing these would take a 10^18-bit int; under either model
    doc = tmp_path / "far.bond"
    for model in ("grid", "euclid"):
        doc.write_text(
            f"model {model}\nstart 0 0\ntile 0 0\ntile 1 0\ntile 1000000000 1000000000\n"
            "tile 1000000001 1000000000\ncrystal 1 0\ncrystal 1000000000 1000000000\n"
            "bond 0 1\n"
        )
        began = time.perf_counter()
        code = main(["solve", "dcb", str(doc)])
        captured = capsys.readouterr()
        assert time.perf_counter() - began < 5.0
        assert code == 3
        assert captured.out == ""
        assert captured.err == "invalid input: region does not connect all crystals\n"


def test_staircase_runs_per_cell_and_matches_reference():
    tiles = frozenset(t for i in range(1000) for t in ((i, i), (i + 1, i)))
    assert len(tiles) == 2000 and not packable(tiles)
    targets = [(0, 0), (1000, 999), (500, 500), (250, 249), (1000, 999)]
    assert_same_rows(
        grid_distance_matrix(TileRegion(tiles), targets), reference_matrix(tiles, targets)
    )
    assert _connected(tiles)


def test_a_per_cell_row_stops_once_it_has_its_tiles():
    # a refused set's row floods only until every tile it lacks is reached,
    # not the source's whole piece
    tiles = frozenset(t for i in range(1000) for t in ((i, i), (i + 1, i)))
    near = [(500, 500), (503, 502), (498, 497), (500, 500)]
    assert not packable(tiles)
    assert grid_distance(TileRegion(tiles), near[0], near[1]) == 5
    engine = _GridDistances(tiles, near)
    assert_same_rows([list(row) for row in engine.rows()], reference_matrix(tiles, near))
    # the tiles lie within 10 steps of each other: no flood passes depth 10
    depths = [depth for _, _, depth in engine.floods.values()]
    assert depths and max(depths) <= 2 * 10 + 1 < len(tiles), depths
    one = _GridDistances(tiles, [(0, 0)])
    assert list(one.rows()[0]) == [0] and one.floods[0][2] == 0


def test_an_entry_stops_its_flood_at_the_other_tile():
    # reading one entry floods to its depth and no further, though a tile of
    # the table lies on the way and another far beyond, on either carrier
    corridor = frozenset((x, 0) for x in range(100))
    staircase = frozenset(t for i in range(1000) for t in ((i, i), (i + 1, i)))
    for tiles, targets in ((corridor, [(0, 0), (1, 0), (2, 0), (99, 0)]),
                           (staircase, [(0, 0), (1, 0), (1, 1), (1000, 999)])):
        engine = _GridDistances(tiles, targets)
        assert engine.distance(0, 2) == 2
        assert [depth for _, _, depth in engine.floods.values()] == [2]
        assert engine.table[0][3] is engine.table[2][3] is None
    assert packable(corridor) and not packable(staircase)


def test_large_dense_region_packs_and_matches_reference():
    # past the 4,300-digit limit CPython puts on int(str) in other bases
    tiles = gen_random_region(3, 80, 80, 3000).tiles
    assert packable(tiles)
    rng = random.Random(3)
    targets = rng.sample(sorted(tiles), 8)
    assert_same_rows(
        grid_distance_matrix(TileRegion(tiles), targets), reference_matrix(tiles, targets)
    )


def serpentine(width, rows):
    """Rows `width` long joined at alternate ends by one tile: a corridor
    about rows * width tiles long."""
    tiles = {(x, 2 * r) for r in range(rows) for x in range(width)}
    tiles |= {(width - 1 if r % 2 == 0 else 0, 2 * r + 1) for r in range(rows - 1)}
    return tiles


def flood_boards(count):
    """Compact regions, serpentines, 2xL and Lx2 ladders, scattered sets and
    a U whose side columns would meet if a shift wrapped, some shifted to
    negative coordinates."""
    rng = random.Random(20261019)
    u_shape = {(0, y) for y in range(9)} | {(6, y) for y in range(9)} | {(x, 0) for x in range(7)}
    for case in range(count):
        kind = case % 6
        if kind == 0:
            w, h = rng.randint(1, 16), rng.randint(1, 16)
            tiles = gen_random_region(case, w, h, rng.randint(1, w * h)).tiles
        elif kind == 1:
            tiles = serpentine(rng.randint(2, 14), rng.randint(2, 12))
        elif kind == 2:
            tiles = {(x, y) for x in range(2) for y in range(rng.randint(1, 200))}
        elif kind == 3:
            tiles = {(x, y) for x in range(rng.randint(1, 200)) for y in range(2)}
        elif kind == 4:
            w, h = rng.randint(1, 14), rng.randint(1, 14)
            cells = [(x, y) for x in range(w) for y in range(h)]
            tiles = rng.sample(cells, rng.randint(1, len(cells)))
        else:
            tiles = u_shape
        dx, dy = rng.choice(((0, 0), (-20, 3), (5, -40), (-7, -7)))
        yield rng, sorted((x + dx, y + dy) for x, y in tiles)


def assert_joined(cells, tiles):
    """`joined` gives the per-cell flood's verdict, which it returns."""
    want = set(tiles) <= reference_bfs(cells, tiles[0]).keys()
    assert joined(cells, tiles) == want, (sorted(cells), tiles)
    return want


def test_joined_matches_per_cell_flood():
    verdicts, packed = set(), 0
    for rng, tiles in flood_boards(360):
        for _ in range(4):
            keep = rng.choice((1.0, 1.0, 0.9, 0.7, 0.5))
            cells = {t for t in tiles if rng.random() < keep} or {tiles[0]}
            need = rng.sample(sorted(cells), rng.randint(1, min(len(cells), 4)))
            verdicts.add(assert_joined(cells, need))
            packed += packable(cells)
    assert verdicts == {False, True} and packed >= 1000
    # sets `_packed` refuses flood as sets of tiles: needs within one piece, then
    # scattered over the set
    verdicts, refused = set(), 0
    for rng, tiles in wide_scattered_sets(30):
        if packable(tiles):
            continue
        refused += 1
        a = rng.choice(sorted(tiles))
        piece = sorted(reference_bfs(tiles, a))
        verdicts.add(assert_joined(tiles, [a] + rng.sample(piece, min(3, len(piece)))))
        verdicts.add(assert_joined(tiles, rng.sample(sorted(tiles), 3)))
    assert verdicts == {False, True} and refused >= 20
    # a corridor and a 2x200 ladder whole, then with a middle BFS level
    # closed, which cuts off the far end
    for tiles in ([(x, 0) for x in range(14)], [(x, y) for x in range(2) for y in range(200)]):
        dist = reference_bfs(set(tiles), tiles[0])
        far = max(tiles, key=dist.get)
        assert assert_joined(set(tiles), [tiles[0], far])
        cut = {t for t in tiles if dist[t] != dist[far] // 2}
        assert not assert_joined(cut, [tiles[0], far])


def test_joined_crosses_a_serpentine_both_ways():
    # the flood from each end of a turning corridor must reach the other
    # and stop at a cut
    tiles = serpentine(9, 20)
    assert packable(tiles)
    ends = (0, 0), (0, 38)
    for seed, far in (ends, ends[::-1]):
        assert assert_joined(tiles, [seed, far])
        assert not assert_joined(tiles - {(4, 20)}, [seed, far])  # mid-row: splits the corridor


def test_a_euclid_solve_packs_its_region_once():
    # the crystal flood and the corner pass share `_packed`'s board
    _packed.cache_clear()
    crystal_bonds._metric_of.cache_clear()
    board = gen_random_tree_board(3, 30, 30, 40, "euclid")
    assert verify_bond_walk(board, solve_crystal_bonds(board)).ok
    assert _packed.cache_info().misses == 1
    # the kept board is the one a fresh pack builds
    assert _packed(board.region.tiles) == _packed.__wrapped__(board.region.tiles) is not None
    # another tile set gets its own board
    other = frozenset(serpentine(9, 20))
    assert _packed(other) == _packed.__wrapped__(other) != _packed(board.region.tiles)
    assert _packed.cache_info().misses == 3


def test_a_geo_oracle_item_packs_its_region_once(monkeypatch):
    # the corner pass and the fine-grid oracle's reachability flood share
    # one board; every fifth seed adds a far-away twin cluster
    built = []
    monkeypatch.setattr(geometry, "_Bitboard", lambda *fields: built.append(fields) or _Bitboard(*fields))
    for seed in range(10):
        _packed.cache_clear()
        assert main(["sweep", "geo-oracle", "--box", "5x5", "--count", "1", "--seed", str(seed)]) == 0
        assert len(built) == 1 and _packed.cache_info().misses == 1, seed
        built.clear()
