"""The grid BFS engine against a plain per-cell reference.

Dense tile sets and sets in a small bounding box run as bitboards (one int,
a pad column per row), sparse ones in a large box through the per-cell
loop; both must give the reference's values and types: an int step count,
or math.inf when cut off.  The searches' flood, `_reaches`, must give the
reference's verdict whether it stays on plain levels or switches to
whole-run fill rounds.
"""

import math
import random
import time
from collections import deque
from itertools import chain

from riftpuzzles import graphs
from riftpuzzles.cli import main
from riftpuzzles.crystal_bonds import apply_start_gadget, reduce_grid_to_dcb
from riftpuzzles.geometry import TileRegion, gen_random_region, grid_distance, grid_distance_matrix
from riftpuzzles.graphs import _PACK_DENSITY, _connected, _pack, _reaches, enumerate_grid_graphs


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


def packable(tiles):
    return _pack(tiles, _PACK_DENSITY) is not None


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
    and, mostly, more than `_PACK_DENSITY` cells per tile: the per-cell side
    of the packing rule.  Some are shifted to negative coordinates."""
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
    board = _pack(bars)
    assert not _reaches(1 << board.index((5, 4)), board.cells, 1 << board.index((0, 5)), board.stride)


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
    # packing these would take a 10^18-bit int
    doc = tmp_path / "far.bond"
    doc.write_text(
        "model grid\nstart 0 0\ntile 0 0\ntile 1 0\ntile 1000000000 1000000000\n"
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


def end_floods():
    """Corridors whose floods from their first tile end one level before, at
    and one level after the switch to fill rounds, and a 2x200 ladder."""
    for length in range(graphs._FIRST_LEVELS, graphs._FIRST_LEVELS + 3):
        yield [(x, 0) for x in range(length)]
    yield [(x, y) for x in range(2) for y in range(200)]


def assert_flood(tiles, seed, open_cells, need):
    """`_reaches` gives the per-cell flood's verdict, which it returns."""
    board = _pack(tiles)
    bit = {t: 1 << board.index(t) for t in tiles}
    lost = 1 << (board.stride - 1)  # the tile solver's pad-bit marker
    open_ = sum(bit[t] for t in open_cells)
    need_bits = sum(bit[t] for t in need)
    want = need <= reference_bfs(open_cells, seed).keys()  # the seed, open or not, counts
    assert _reaches(bit[seed], open_, need_bits, board.stride) == want, (tiles, seed)
    assert not _reaches(bit[seed], open_, need_bits | lost, board.stride)
    return want


def test_reaches_matches_per_cell_flood(monkeypatch):
    fills = []  # the verdicts of floods deep enough for fill rounds
    run_fill = graphs._run_fill
    monkeypatch.setattr(graphs, "_run_fill", lambda *args: fills.append(run_fill(*args)) or fills[-1])
    verdicts = set()
    for rng, tiles in flood_boards(360):
        for _ in range(4):
            keep = rng.choice((1.0, 1.0, 0.9, 0.7, 0.5))
            open_cells = {t for t in tiles if rng.random() < keep}
            seed = rng.choice(tiles)  # open or not
            pick = rng.random()
            if pick < 0.3:
                need = open_cells | {seed}
            elif pick < 0.5:
                need = set(rng.sample(sorted(open_cells), min(len(open_cells), 3)))
            else:
                need = set(rng.sample(tiles, rng.randint(0, min(len(tiles), 4))))
            verdicts.add(assert_flood(tiles, seed, open_cells, need))
    assert verdicts == {False, True}
    assert len(fills) >= 100 and set(fills) == {False, True}
    # whole, only a flood deeper than _FIRST_LEVELS fills; with a middle
    # BFS level closed, the far end is cut off
    for tiles in end_floods():
        dist = reference_bfs(set(tiles), tiles[0])
        depth = max(dist.values())
        calls = len(fills)
        assert assert_flood(tiles, tiles[0], set(tiles), set(tiles))
        assert len(fills) == calls + (depth > graphs._FIRST_LEVELS)
        cut = set(tiles) - {t for t in tiles if dist[t] == depth // 2}
        assert not assert_flood(tiles, tiles[0], cut, cut)


def test_reaches_fill_rounds_turn_every_way():
    # a serpentine needs fill rounds that run both ways along its rows; the
    # flood from each end of the corridor must reach the other and stop at
    # a cut
    tiles = sorted(serpentine(9, 20))
    ends = (0, 0), (0, 38)
    board = _pack(tiles)
    bit = {t: 1 << board.index(t) for t in tiles}
    open_ = sum(bit.values())
    for seed, far in (ends, ends[::-1]):
        assert _reaches(bit[seed], open_, open_, board.stride)
        assert _reaches(bit[seed], open_, bit[far], board.stride)
        # a closed seed still counts as reached
        assert _reaches(bit[seed], open_ ^ bit[seed], open_, board.stride)
        cut = (4, 20)  # mid-row: splits the corridor
        assert not _reaches(bit[seed], open_ ^ bit[cut], open_ ^ bit[cut], board.stride)
