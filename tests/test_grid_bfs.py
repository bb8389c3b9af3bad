"""The grid BFS engine against a plain per-cell reference.

Dense tile sets run as bitboards (one int, a pad column per row), sparse
ones through the per-cell loop; both must give the reference's values and
types: an int step count, or math.inf when cut off.
"""

import math
import random
import time
from collections import deque

from riftpuzzles.cli import main
from riftpuzzles.geometry import TileRegion, gen_random_region, grid_distance, grid_distance_matrix
from riftpuzzles.graphs import _PACK_DENSITY, _connected, _pack


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
    """Connected regions and scattered sets, some shifted to negative
    coordinates, with densities on both sides of the packing rule."""
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


def test_engine_matches_reference_on_seeded_sets():
    packed = sparse = 0
    for rng, tiles in seeded_tile_sets(300):
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
