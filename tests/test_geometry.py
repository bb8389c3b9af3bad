import math
import random

import pytest

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
