import heapq
import math
import random
import time
from fractions import Fraction

import pytest

from riftpuzzles.crystal_bonds import gen_random_tree_board
from riftpuzzles.geometry import (
    PointOutsideRegion,
    TileRegion,
    euclidean_geodesic,
    euclidean_geodesic_matrix,
    fine_grid_distance,
    gen_random_region,
    grid_distance,
    grid_distance_matrix,
    pinch_corners,
    region_contains_point,
    segment_admissible,
    tile_center,
)
from riftpuzzles.geometry import _classify_corners, _point_in

SQRT2 = math.sqrt(2.0)


def region(*tiles):
    return TileRegion(frozenset(tiles))


def test_pinch_corner_detection():
    assert pinch_corners(region((0, 0), (1, 1))) == frozenset({(1, 1)})
    # a third tile orthogonally adjacent to both dissolves the pinch
    assert pinch_corners(region((0, 0), (1, 0), (1, 1))) == frozenset()
    assert pinch_corners(region((0, 0), (1, 0))) == frozenset()
    # anti-diagonal orientation
    assert pinch_corners(region((1, 0), (0, 1))) == frozenset({(1, 1)})


def test_point_membership():
    r = region((0, 0))
    assert region_contains_point(r, (0.5, 0.5))
    assert region_contains_point(r, (0.0, 0.0))  # closed squares include corners
    assert region_contains_point(r, (1.0, 1.0))
    assert not region_contains_point(r, (1.5, 0.5))


def _small_tile_sets(seed, count):
    """Scattered tile sets (pinches and lone corners) and random regions."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(-2, 4) for y in range(-2, 4)]
    for n in range(count):
        if n % 2:
            yield gen_random_region(rng.randrange(1 << 30), 6, 6, rng.randint(1, 20)).tiles
        else:
            yield frozenset(rng.sample(cells, rng.randint(1, 12)))


def test_point_in_matches_fraction_reference():
    # the point (x/s, y/s) as an exact rational against every closed square
    rng = random.Random(31)
    seen = set()
    for tiles in _small_tile_sets(31, 200):
        for s in (1, 2, 3, 5, 8, 32):
            for _ in range(25):
                x, y = rng.randint(-3 * s, 7 * s), rng.randint(-3 * s, 7 * s)
                px, py = Fraction(x, s), Fraction(y, s)
                want = any(tx <= px <= tx + 1 and ty <= py <= ty + 1 for tx, ty in tiles)
                assert _point_in(tiles, x, y, s) == want, (sorted(tiles), x, y, s)
                seen.add((want, x % s == 0 or y % s == 0))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_classify_corners_matches_brute_force_count():
    # every lattice point of the bounding box, with the tile in each of its
    # four quadrants (dx, dy) looked up on its own
    quadrants = [(dx, dy) for dx in (-1, 1) for dy in (-1, 1)]
    reflex_seen = pinch_seen = 0
    for tiles in _small_tile_sets(47, 300):
        xs = [x for x, _ in tiles]
        ys = [y for _, y in tiles]
        pinches, reflex = set(), []
        for cx in range(min(xs), max(xs) + 2):
            for cy in range(min(ys), max(ys) + 2):
                filled = {q for q in quadrants if (cx + min(q[0], 0), cy + min(q[1], 0)) in tiles}
                if len(filled) == 3:
                    reflex.append(((cx, cy), next(q for q in quadrants if q not in filled)))
                elif filled in ({(-1, -1), (1, 1)}, {(-1, 1), (1, -1)}):
                    pinches.add((cx, cy))
        assert _classify_corners(tiles) == (frozenset(pinches), reflex), sorted(tiles)
        reflex_seen += len(reflex)
        pinch_seen += len(pinches)
    assert reflex_seen > 400 and pinch_seen > 150


def test_geodesic_straight_corridor():
    r = region((0, 0), (1, 0), (2, 0))
    d = euclidean_geodesic(r, tile_center((0, 0)), tile_center((2, 0)))
    assert abs(d - 2.0) < 1e-9


def test_geodesic_l_corridor_cuts_corner():
    # the corner (1,1) has three surrounding tiles, so it is passable and the
    # diagonal through it is the shortest route
    r = region((0, 0), (1, 0), (1, 1))
    d = euclidean_geodesic(r, tile_center((0, 0)), tile_center((1, 1)))
    assert abs(d - SQRT2) < 1e-9


def test_geodesic_blocked_by_pinch():
    r = region((0, 0), (1, 1))
    d = euclidean_geodesic(r, tile_center((0, 0)), tile_center((1, 1)))
    assert d == math.inf


def test_geodesic_point_outside():
    r = region((0, 0))
    with pytest.raises(PointOutsideRegion):
        euclidean_geodesic(r, (0.5, 0.5), (3.5, 3.5))


def test_geodesic_bends_around_hole():
    # 3x3 ring with the center missing: path must bend at two reflex corners
    tiles = [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    r = region(*tiles)
    d = euclidean_geodesic(r, tile_center((0, 1)), tile_center((2, 1)))
    # checked against the fine oracle band instead of a hand-derived value
    fine = fine_grid_distance(r, tile_center((0, 1)), tile_center((2, 1)), 16)
    assert d <= fine + 1e-9 <= 1.09 * d + 1e-9
    assert d > 2.0 + 1e-9  # strictly longer than the straight line


def test_grid_distance_bfs():
    r = region((0, 0), (1, 0), (2, 0), (2, 1))
    assert grid_distance(r, (0, 0), (2, 1)) == 3
    assert grid_distance(r, (0, 0), (0, 0)) == 0
    assert grid_distance(region((0, 0), (2, 0)), (0, 0), (2, 0)) == math.inf
    with pytest.raises(PointOutsideRegion):
        grid_distance(r, (0, 0), (9, 9))


def test_fine_grid_l_corridor_band():
    r = region((0, 0), (1, 0), (1, 1))
    p, q = tile_center((0, 0)), tile_center((1, 1))
    fine = fine_grid_distance(r, p, q, 16)
    assert SQRT2 - 1e-9 <= fine <= 1.09 * SQRT2 + 1e-9


def test_fine_grid_straight_is_exact():
    r = region((0, 0), (1, 0), (2, 0))
    fine = fine_grid_distance(r, tile_center((0, 0)), tile_center((2, 0)), 8)
    assert abs(fine - 2.0) < 1e-9


def test_fine_grid_respects_pinch():
    r = region((0, 0), (1, 1))
    assert fine_grid_distance(r, tile_center((0, 0)), tile_center((1, 1)), 4) == math.inf


def test_fine_grid_off_lattice_rejected():
    r = region((0, 0))
    with pytest.raises(ValueError):
        fine_grid_distance(r, (0.3, 0.3), (0.5, 0.5), 4)


def test_query_points_past_the_tile_limit_rejected():
    # BondBoard's rule: below 2**52 a float holds x + 0.5 exactly, and the
    # center of tile 2**52 rounds to its wall
    for x, ok in ((2**52 - 1, True), (1 - 2**52, True), (2**52, False), (-(2**52), False)):
        r = region((x, 0), (x, 1))
        p, q = tile_center((x, 0)), tile_center((x, 1))
        for distance in (euclidean_geodesic, lambda r, p, q: fine_grid_distance(r, p, q, 2)):
            if ok:
                assert distance(r, p, q) == distance(r, q, p) == 1.0
            else:
                for a, b in ((p, q), (q, p)):
                    with pytest.raises(ValueError, match=r"strictly between -2\*\*52 and 2\*\*52"):
                        distance(r, a, b)


def _random_cases(count, seed0):
    rng = random.Random(seed0)
    cases = []
    while len(cases) < count:
        seed = rng.randrange(1 << 30)
        r = gen_random_region(seed, 6, 6, rng.randint(3, 18))
        tiles = sorted(r.tiles)
        a = tiles[rng.randrange(len(tiles))]
        b = tiles[rng.randrange(len(tiles))]
        cases.append((r, tile_center(a), tile_center(b)))
    return cases


def test_metric_axioms_on_random_regions():
    for r, p, q in _random_cases(40, 11):
        pts = [p, q]
        m = euclidean_geodesic_matrix(r, pts)
        assert m[0][0] == 0.0 and m[1][1] == 0.0
        assert abs(m[0][1] - m[1][0]) < 1e-9  # symmetry
        if m[0][1] < math.inf:
            assert m[0][1] >= -1e-9


def test_triangle_inequality_euclid_and_grid():
    rng = random.Random(7)
    for _ in range(25):
        r = gen_random_region(rng.randrange(1 << 30), 6, 6, rng.randint(4, 16))
        tiles = sorted(r.tiles)
        picks = [tiles[rng.randrange(len(tiles))] for _ in range(3)]
        m = euclidean_geodesic_matrix(r, [tile_center(t) for t in picks])
        g = grid_distance_matrix(r, picks)
        for i in range(3):
            for j in range(3):
                for l in range(3):
                    if m[i][j] < math.inf and m[j][l] < math.inf:
                        assert m[i][l] <= m[i][j] + m[j][l] + 1e-9
                    if g[i][j] < math.inf and g[j][l] < math.inf:
                        assert g[i][l] <= g[i][j] + g[j][l]


def test_geodesic_at_most_grid_distance():
    # the polyline through tile centers of a BFS path is admissible
    for r, p, q in _random_cases(40, 23):
        a = (int(p[0]), int(p[1]))
        b = (int(q[0]), int(q[1]))
        ge = euclidean_geodesic(r, p, q)
        gd = grid_distance(r, a, b)
        if gd == math.inf:
            assert ge == math.inf
        else:
            assert ge <= gd + 1e-9


def test_fine_oracle_band_random():
    violations = 0
    for r, p, q in _random_cases(60, 5):
        ge = euclidean_geodesic(r, p, q)
        fg = fine_grid_distance(r, p, q, 16)
        if ge == math.inf or fg == math.inf:
            if not (ge == math.inf and fg == math.inf):
                violations += 1
            continue
        if not (ge - 1e-9 <= fg <= 1.09 * ge + 1e-9):
            violations += 1
    assert violations == 0


def test_gen_random_region_connected_and_seeded():
    r1 = gen_random_region(42, 8, 8, 20)
    r2 = gen_random_region(42, 8, 8, 20)
    assert r1 == r2
    assert grid_distance_matrix(r1, sorted(r1.tiles))  # no exception
    tiles = sorted(r1.tiles)
    m = grid_distance_matrix(r1, tiles)
    assert all(m[0][j] < math.inf for j in range(len(tiles)))  # connected


def former_gen_random_region(seed, box_w, box_h, n_tiles):
    """gen_random_region's former tiles: it removed a dead frontier tile by
    value, with a linear search of the frontier."""
    rng = random.Random(seed)
    start = (rng.randrange(box_w), rng.randrange(box_h))
    tiles = {start}
    frontier = [start]
    while len(tiles) < n_tiles and frontier:
        x, y = frontier[rng.randrange(len(frontier))]
        options = [
            (x + dx, y + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if 0 <= x + dx < box_w and 0 <= y + dy < box_h and (x + dx, y + dy) not in tiles
        ]
        if not options:
            frontier.remove((x, y))
            continue
        nxt = options[rng.randrange(len(options))]
        tiles.add(nxt)
        frontier.append(nxt)
    return frozenset(tiles)


def test_gen_random_region_matches_former_generator():
    rng = random.Random(13)
    cases = [(rng.randrange(1 << 30), 1, 1, n) for n in (1, 2, 5)]
    cases += [(seed, 80, 80, 4266) for seed in (1, 2)] + [(3, 50, 50, 1666), (4, 30, 30, 600)]
    for _ in range(300):
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        # some draw, the whole box, or more than the box holds
        n = rng.choice((rng.randint(1, w * h), w * h, w * h + rng.randint(1, 5)))
        cases.append((rng.randrange(1 << 30), w, h, n))
    for seed, w, h, n in cases:
        tiles = gen_random_region(seed, w, h, n).tiles
        assert tiles == former_gen_random_region(seed, w, h, n), (seed, w, h, n)
        assert len(tiles) == min(n, w * h)


# Reference segment oracle: cut the segment at every grid-line crossing,
# probe each piece's midpoint and each crossing point with an EPS tolerance.
# Floating point throughout, and shares no code with the integer cell walk.

ORACLE_EPS = 1e-9


def _float_cells(p):
    def span(v):
        if abs(v - round(v)) < ORACLE_EPS:
            return [round(v) - 1, round(v)]
        return [math.floor(v)]

    return [(cx, cy) for cx in span(p[0]) for cy in span(p[1])]


def _float_point_ok(tiles, pinches, p):
    x, y = p
    if abs(x - round(x)) < ORACLE_EPS and abs(y - round(y)) < ORACLE_EPS:
        if (round(x), round(y)) in pinches:
            return False
    return any(cell in tiles for cell in _float_cells(p))


def float_segment_admissible(tiles, pinches, p, q):
    (px, py), (qx, qy) = p, q
    if not _float_point_ok(tiles, pinches, p) or not _float_point_ok(tiles, pinches, q):
        return False
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    if length < ORACLE_EPS:
        return True
    ts = [0.0, 1.0]
    for d, start, end in ((dx, px, qx), (dy, py, qy)):
        if abs(d) > ORACLE_EPS:
            lo, hi = sorted((start, end))
            for g in range(math.ceil(lo - ORACLE_EPS), math.floor(hi + ORACLE_EPS) + 1):
                t = (g - start) / d
                if ORACLE_EPS < t < 1 - ORACLE_EPS:
                    ts.append(t)
    ts.sort()
    t_eps = ORACLE_EPS / max(length, 1.0)
    for t1, t2 in zip(ts, ts[1:]):
        if t2 - t1 > t_eps:
            tm = (t1 + t2) / 2
            if not any(c in tiles for c in _float_cells((px + tm * dx, py + tm * dy))):
                return False
    return all(_float_point_ok(tiles, pinches, (px + t * dx, py + t * dy)) for t in ts[1:-1])


def _centres_and_corners(r):
    corners = {(x + a, y + b) for x, y in r.tiles for a in (0, 1) for b in (0, 1)}
    return [tile_center(t) for t in sorted(r.tiles)] + [
        (float(x), float(y)) for x, y in sorted(corners)
    ]


def test_segment_walk_matches_float_oracle():
    rng = random.Random(2)
    pairs = 0
    seen = set()
    for n in range(300):
        w = rng.choice((5, 6))
        if n % 2:
            r = gen_random_region(rng.randrange(1 << 30), w, w, rng.randint(3, 9))
        else:
            # scattered tiles: pinches everywhere
            cells = [(x, y) for x in range(w) for y in range(w)]
            r = TileRegion(frozenset(rng.sample(cells, rng.randint(3, 7))))
        pinches = pinch_corners(r)
        pts = _centres_and_corners(r)
        for i, p in enumerate(pts):
            for q in pts[i:]:
                want = float_segment_admissible(r.tiles, pinches, p, q)
                assert segment_admissible(r, pinches, p, q) == want, (sorted(r.tiles), p, q)
                assert segment_admissible(r, pinches, q, p) == want, (sorted(r.tiles), q, p)
                pairs += 1
                seen.add((bool(pinches), want))
    assert pairs > 60_000
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_segment_hand_cases():
    pinched = region((0, 0), (1, 1))
    ell = region((0, 0), (1, 0), (1, 1))  # corner (1,1) is reflex, (0,1) missing
    cases = [
        # diagonal through a pinch, and the same diagonal with the pinch filled
        (pinched, (0.5, 0.5), (1.5, 1.5), False),
        (pinched, (0.0, 0.0), (2.0, 2.0), False),
        (ell, (0.5, 0.5), (1.5, 1.5), True),
        # along the grid line y=1 through the pinch (1,1), then with it filled
        (pinched, (0.0, 1.0), (2.0, 1.0), False),
        (ell, (0.0, 1.0), (2.0, 1.0), True),
        (region((0, 0), (1, 1), (0, 1)), (1.0, 0.0), (1.0, 2.0), True),
        (pinched, (1.0, 0.0), (1.0, 2.0), False),
        # grazing a boundary wall, and crossing it
        (region((0, 0), (1, 0)), (0.0, 0.0), (2.0, 0.0), True),
        (region((0, 0), (1, 0)), (0.5, 1.0), (2.0, 1.0), True),
        (region((0, 0), (1, 0)), (0.5, 1.0), (1.5, 1.5), False),
        (ell, (0.0, 1.0), (1.0, 2.0), False),
        # p == q: inside, on a wall, on a pinch, outside
        (ell, (0.5, 0.5), (0.5, 0.5), True),
        (ell, (1.0, 2.0), (1.0, 2.0), True),
        (pinched, (1.0, 1.0), (1.0, 1.0), False),
        (ell, (0.5, 1.5), (0.5, 1.5), False),
        # reflex corner (1,1) met head-on from the quadrant opposite the
        # missing one: ending there is fine, going on enters the hole
        (ell, (1.5, 0.5), (1.0, 1.0), True),
        (ell, (2.0, 0.0), (1.0, 1.0), True),
        (ell, (1.5, 0.5), (0.5, 1.5), False),
        (ell, (2.0, 0.0), (0.0, 2.0), False),
    ]
    for r, p, q, want in cases:
        pinches = pinch_corners(r)
        assert float_segment_admissible(r.tiles, pinches, p, q) == want, (p, q)
        assert segment_admissible(r, pinches, p, q) == want, (p, q)
        assert segment_admissible(r, pinches, q, p) == want, (q, p)


def test_segment_exact_off_half_lattice():
    # dyadic points are scaled exactly; no tolerance moves a point onto a wall
    r = region((0, 0))
    assert region_contains_point(r, (1.0, 0.25))
    assert not region_contains_point(r, (1.0 + 2.0**-40, 0.25))
    assert segment_admissible(r, frozenset(), (0.0, 0.0), (1.0, 1.0 - 2.0**-40))
    assert not segment_admissible(r, frozenset(), (0.0, 0.0), (1.0, 1.0 + 2.0**-40))


def _criterion_7_region(seed):
    return gen_random_region(seed, 5, 5, 16)


def test_fine_grid_twin_cluster_is_unreachable():
    base = _criterion_7_region(4)
    far = [(x + 7, y) for x, y in sorted(gen_random_region(5, 5, 5, 8).tiles)]
    r = TileRegion(base.tiles | frozenset(far))
    p, q = tile_center(sorted(base.tiles)[0]), tile_center(far[0])
    assert fine_grid_distance(r, p, q, 16) == math.inf
    assert euclidean_geodesic(r, p, q) == math.inf


def test_fine_grid_hand_values_on_criterion_7_regions():
    cases = [
        # straight runs along a full row or column
        (0, (0, 4), (4, 4), 4.0),
        (0, (4, 2), (4, 4), 2.0),
        (2, (0, 0), (4, 0), 4.0),
        # L-shaped: a straight leg and a diagonal leg
        (0, (1, 1), (4, 2), 2.0 + SQRT2),
        (2, (0, 3), (3, 2), 2.0 + SQRT2),
        (1, (0, 0), (3, 3), 3.0 * SQRT2),
    ]
    for seed, a, b, want in cases:
        r = _criterion_7_region(seed)
        got = fine_grid_distance(r, tile_center(a), tile_center(b), 16)
        assert abs(got - want) <= 1e-12 * want, (seed, a, b, got)


def test_fine_grid_hand_values_around_holes():
    # the path must bend at two reflex corners, each leg octile-straight
    ring = region(*[(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)])
    cup = region((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (2, 2))
    for r, p, q, want in [
        (ring, (0.5, 1.5), (2.5, 1.5), 1.0 + SQRT2),
        (cup, (0.5, 2.5), (2.5, 2.5), 3.0 + SQRT2),
    ]:
        got = fine_grid_distance(r, p, q, 16)
        assert abs(got - want) <= 1e-12 * want, (p, q, got)


def former_fine_grid_distance(r, p, q, k):
    """fine_grid_distance's former A*: a step rule per move direction and a
    flat distance table over the fine lattice of the bounding box."""
    if k < 2:
        raise ValueError("subdivision k must be at least 2")
    pinches = pinch_corners(r)
    tiles = r.tiles

    def cells_at(v):
        c, rem = divmod(v, k)
        return (c - 1, c) if rem == 0 else (c,)

    def to_node(pt):
        i, j = round(pt[0] * k), round(pt[1] * k)
        if abs(pt[0] * k - i) > 1e-6 or abs(pt[1] * k - j) > 1e-6:
            raise ValueError(f"point {pt} is not on the 1/{k} sublattice")
        return (i, j)

    def node_tiles(i, j):
        return [(cx, cy) for cx in cells_at(i) for cy in cells_at(j) if (cx, cy) in tiles]

    def node_ok(i, j):
        if i % k == 0 and j % k == 0 and (i // k, j // k) in pinches:
            return False
        return bool(node_tiles(i, j))

    def h_step_ok(i, j):
        cx = i // k
        if j % k == 0:
            return (cx, j // k) in tiles or (cx, j // k - 1) in tiles
        return (cx, j // k) in tiles

    def v_step_ok(i, j):
        cy = j // k
        if i % k == 0:
            return (i // k, cy) in tiles or (i // k - 1, cy) in tiles
        return (i // k, cy) in tiles

    src, dst = to_node(p), to_node(q)
    if not node_ok(*src) or not node_ok(*dst):
        return math.inf
    if src == dst:
        return 0.0
    if math.isinf(grid_distance(r, node_tiles(*src)[0], node_tiles(*dst)[0])):
        return math.inf
    i0 = k * min(x for x, _ in tiles)
    j0 = k * min(y for _, y in tiles)
    height = k * (max(y for _, y in tiles) + 1) - j0 + 1
    width = k * (max(x for x, _ in tiles) + 1) - i0 + 1
    ti, tj = dst

    def octile(i, j):
        a, b = abs(i - ti), abs(j - tj)
        return abs(a - b) + SQRT2 * min(a, b)

    dist = [math.inf] * (width * height)
    dist[(src[0] - i0) * height + src[1] - j0] = 0.0
    heap = [(octile(*src), 0.0, src[0], src[1])]
    while heap:
        _, d, i, j = heapq.heappop(heap)
        if i == ti and j == tj:
            return d / k
        if d > dist[(i - i0) * height + j - j0] + 1e-9:
            continue
        moves = []
        if h_step_ok(i, j):
            moves.append((i + 1, j, 1.0))
        if h_step_ok(i - 1, j):
            moves.append((i - 1, j, 1.0))
        if v_step_ok(i, j):
            moves.append((i, j + 1, 1.0))
        if v_step_ok(i, j - 1):
            moves.append((i, j - 1, 1.0))
        if (i // k, j // k) in tiles:
            moves.append((i + 1, j + 1, SQRT2))
        if ((i - 1) // k, (j - 1) // k) in tiles:
            moves.append((i - 1, j - 1, SQRT2))
        if ((i - 1) // k, j // k) in tiles:
            moves.append((i - 1, j + 1, SQRT2))
        if (i // k, (j - 1) // k) in tiles:
            moves.append((i + 1, j - 1, SQRT2))
        for ni, nj, w in moves:
            if not node_ok(ni, nj):
                continue
            nd = d + w
            at = (ni - i0) * height + nj - j0
            if nd < dist[at] - 1e-9:
                dist[at] = nd
                heapq.heappush(heap, (nd + octile(ni, nj), nd, ni, nj))
    return math.inf


def test_fine_grid_matches_former_oracle():
    rng = random.Random(14)
    queries = reached = 0
    while queries < 4500:
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        tiles = set(gen_random_region(rng.randrange(1 << 30), w, h, rng.randint(1, w * h)).tiles)
        if rng.randrange(3) == 0:
            # scattered extra tiles make pinches and cut-off parts
            tiles.update((rng.randrange(w), rng.randrange(h)) for _ in range(rng.randint(1, 4)))
        r = TileRegion(frozenset(tiles))
        for _ in range(15):
            k = rng.choice((2, 3, 4, 5, 8, 16))
            # endpoints on the 1/k lattice of the box widened by one step
            p, q = [(rng.randint(-1, k * w + 1) / k, rng.randint(-1, k * h + 1) / k) for _ in "pq"]
            got = fine_grid_distance(r, p, q, k)
            assert got.hex() == former_fine_grid_distance(r, p, q, k).hex(), (sorted(tiles), p, q, k)
            queries += 1
            reached += got < math.inf
    assert 1000 < reached < 3500


def test_fine_grid_memory_follows_the_explored_nodes():
    # tiles 10**18 apart: a table over the bounding box cannot even be sized
    near = region((0, 0), (1, 0), (1, 1), (2, 1))
    far = TileRegion(near.tiles | {(10**18, 10**18), (10**18, 0), (2**52 - 1, 0)})
    p, q = (0.25, 0.5), (2.75, 1.5)
    want = fine_grid_distance(near, p, q, 8)
    assert want < math.inf
    assert fine_grid_distance(far, p, q, 8).hex() == want.hex()
    assert fine_grid_distance(far, p, (2**52 - 0.5, 0.5), 8) == math.inf
    # no float holds the center 10**18 + 0.5 of a far tile, so it is refused
    with pytest.raises(ValueError, match=r"strictly between -2\*\*52 and 2\*\*52"):
        fine_grid_distance(far, p, (10**18 + 0.5, 0.5), 8)


# Reference matrix: the full-Dijkstra construction, built on the public
# segment_admissible.  Every query point runs Dijkstra to exhaustion over the
# same nodes (query points, then reflex corners in sorted order), the same
# adjacency order and the same EPS tests, so its floats are the ones the
# matrix must reproduce bit for bit.

REF_EPS = 1e-9


def _reflex_corners(tiles):
    corners = {(x + a, y + b) for x, y in tiles for a in (0, 1) for b in (0, 1)}
    out = []
    for cx, cy in sorted(corners):
        sw, se = (cx - 1, cy - 1) in tiles, (cx, cy - 1) in tiles
        nw, ne = (cx - 1, cy) in tiles, (cx, cy) in tiles
        if sw + se + nw + ne == 3:
            mx = -1 if not (sw and nw) else 1
            my = -1 if not (sw and se) else 1
            out.append(((float(cx), float(cy)), mx * my))
    return out


def reference_geodesic_matrix(r, points):
    pinches = pinch_corners(r)
    reflex = _reflex_corners(r.tiles)
    nodes = list(points) + [c for c, _ in reflex]
    quadrant = [0] * len(points) + [m for _, m in reflex]
    n = len(nodes)
    adj = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            (xi, yi), (xj, yj) = nodes[i], nodes[j]
            dxdy = (xj - xi) * (yj - yi)
            if dxdy * quadrant[i] > 0 or dxdy * quadrant[j] > 0:
                continue
            if segment_admissible(r, pinches, nodes[i], nodes[j]):
                w = math.hypot(xi - xj, yi - yj)
                adj[i].append((j, w))
                adj[j].append((i, w))
    result = []
    for src in range(len(points)):
        dist = [math.inf] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + REF_EPS:
                continue
            for v, w in adj[u]:
                if d + w < dist[v] - REF_EPS:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        result.append(dist[: len(points)])
    return result


def _identity_cases():
    rng = random.Random(77)
    cases = []
    # the benchmark's board sizes, and smaller ones
    for seed, size, r in [(1, 30, 40), (2, 30, 40), (3, 30, 40), (4, 50, 60), (5, 50, 60)]:
        board = gen_random_tree_board(seed, size, size, r, model="euclid")
        cases.append((board.region, list(board.crystals) + [board.start]))
    for seed in range(60):
        size = 5 + seed % 8
        board = gen_random_tree_board(seed, size, size, 4 + seed % 6, model="euclid")
        points = list(board.crystals)
        # the start on a crystal's centre: a pair with p == q
        cases.append((board.region, points + [points[seed % len(points)]]))
    for n in range(60):
        # scattered tiles, pinches everywhere; some query points on corners
        w = rng.choice((5, 6, 8))
        cells = [(x, y) for x in range(w) for y in range(w)]
        tiles = rng.sample(cells, rng.randint(4, 2 * w))
        r = TileRegion(frozenset(tiles))
        corners = sorted({(x + a, y + b) for x, y in tiles for a in (0, 1) for b in (0, 1)})
        points = [tile_center(t) for t in rng.sample(tiles, min(len(tiles), 5))]
        points += [(float(x), float(y)) for x, y in rng.sample(corners, 3)]
        cases.append((r, points))
    for n in range(40):
        # twin clusters: rows of inf between them, near and far apart
        base = gen_random_region(rng.randrange(1 << 30), 6, 6, rng.randint(8, 20))
        gap = (8, 10**7)[n % 2]
        far = gen_random_region(rng.randrange(1 << 30), 5, 5, rng.randint(5, 12))
        r = TileRegion(base.tiles | {(x + gap, y) for x, y in far.tiles})
        picks = rng.sample(sorted(r.tiles), 6)
        cases.append((r, [tile_center(t) for t in picks]))
    for n in range(60):
        # off-centre dyadic points with mixed denominators
        r = gen_random_region(rng.randrange(1 << 30), 9, 9, rng.randint(15, 50))
        tiles = sorted(r.tiles)
        points = []
        for _ in range(rng.randint(3, 8)):
            x, y = tiles[rng.randrange(len(tiles))]
            points.append((x + rng.randrange(9) / 8, y + rng.randrange(5) / 4))
        cases.append((r, points))
    return cases


def test_matrix_bit_identical_to_full_dijkstra():
    cases = _identity_cases()
    assert len(cases) >= 200
    finite = unreachable = 0
    for r, points in cases:
        got = euclidean_geodesic_matrix(r, points)
        want = reference_geodesic_matrix(r, points)
        assert [[d.hex() for d in row] for row in got] == [
            [d.hex() for d in row] for row in want
        ], (sorted(r.tiles), points)
        flat = [d for row in got for d in row]
        finite += sum(0 < d < math.inf for d in flat)
        unreachable += flat.count(math.inf)
    assert finite > 10_000 and unreachable > 1_000


def test_sparse_region_is_not_walked_cell_by_cell():
    # tiles 10^9, 2^52 - 1 or 10^18 apart: the walk must stop at the first
    # gap, not cover the bounding box
    for far in (10**9, 2**52 - 1, 10**18):
        r = region((0, 0), (far, far))
        p, q = (0.5, 0.5), (float(far), float(far))
        start = time.perf_counter()
        if far < 2**52:
            assert euclidean_geodesic_matrix(r, [p, q]) == [[0.0, math.inf], [math.inf, 0.0]]
        else:  # a query point past the tile limit
            with pytest.raises(ValueError, match=r"strictly between -2\*\*52 and 2\*\*52"):
                euclidean_geodesic_matrix(r, [p, q])
        assert not segment_admissible(r, frozenset(), p, q)
        assert not segment_admissible(r, frozenset(), q, p)
        assert time.perf_counter() - start < 1.0
