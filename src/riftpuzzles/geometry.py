"""Geometry of tile regions: pinch corners, geodesics, and distance oracles.

A region is a union of closed unit squares ("tiles") on the integer lattice.
Movement happens anywhere inside the closed union, except that pinch corners
(lattice points where exactly two tiles meet diagonally with no orthogonal
neighbor shared by both) are impassable points.

Three distance notions live here:

* ``grid_distance``    -- orthogonal tile steps (BFS between tiles, on the
  shared bitboard engine of ``graphs`` when the region is dense enough),
* ``euclidean_geodesic`` -- true shortest path length, via Dijkstra over a
  reduced visibility graph: the query points plus the region's reflex
  corners, keeping only corner pairs that can be bitangent.  Two query
  points that see each other are at their straight distance, so Dijkstra
  runs only until the query points a source does not see are settled,
* ``fine_grid_distance`` -- 8-connected shortest path on a 1/k sublattice,
  an upper distance oracle used to sanity-check the geodesics.  One rule
  admits all eight moves: the target node and the move's midpoint lie in
  the region.  Its A* keeps distances per reached node, so memory follows
  the nodes it explores, not the region's bounding box.

Point membership and segment visibility are exact integer predicates: every
float is a dyadic rational, so scaling by the common power-of-two
denominator puts all coordinates and cell walls on integers, and the
segment test walks the crossed cells without rounding.  Unreachable queries
return ``math.inf``.  The absolute epsilon of 1e-9 is used only where
``sqrt`` lengths are summed.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .graphs import ORTHO_STEPS, _grid_distances

Tile = tuple[int, int]
Point = tuple[float, float]

EPS = 1e-9


class PointOutsideRegion(ValueError):
    """A geodesic query point does not lie in the closed region."""


@dataclass(frozen=True)
class TileRegion:
    """Union of closed unit squares; tile (x, y) spans [x,x+1] x [y,y+1]."""

    tiles: frozenset[Tile]

    def __post_init__(self) -> None:
        if not isinstance(self.tiles, frozenset):
            object.__setattr__(self, "tiles", frozenset(self.tiles))
        if not self.tiles:
            raise ValueError("region must contain at least one tile")

    def __len__(self) -> int:
        return len(self.tiles)


def tile_center(tile: Tile) -> Point:
    return (tile[0] + 0.5, tile[1] + 0.5)


def tile_of(p: Point) -> Tile:
    """The tile whose half-open square [x, x+1) x [y, y+1) holds p; the
    inverse of tile_center."""
    return (math.floor(p[0]), math.floor(p[1]))


def _exact_tile(p: Point) -> Tile:
    """tile_of(p), refused at +-2**52 or beyond: a float holds the center
    x + 0.5 of every tile with |x| < 2**52, but rounds that of 2**52 to its wall."""
    t = tile_of(p)
    if abs(t[0]) >= 2**52 or abs(t[1]) >= 2**52:
        raise ValueError(f"point {p}: tile coordinates must lie strictly between -2**52 and 2**52")
    return t


def _classify_corners(
    tiles: frozenset[Tile],
) -> tuple[frozenset[Tile], list[tuple[Tile, Tile]]]:
    """One pass over the lattice corners of the region.

    Returns the pinch corners and, in sorted order, each reflex corner
    (exactly three surrounding tiles, the only possible bend points) with
    the direction (mx, my) of its missing quadrant.
    """
    corners = set()
    for x, y in tiles:
        corners.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
    pinches = set()
    reflex = []
    for cx, cy in sorted(corners):
        sw = (cx - 1, cy - 1) in tiles
        se = (cx, cy - 1) in tiles
        nw = (cx - 1, cy) in tiles
        ne = (cx, cy) in tiles
        count = sw + se + nw + ne
        if count == 3:
            mx = -1 if not (sw and nw) else 1
            my = -1 if not (sw and se) else 1
            reflex.append(((cx, cy), (mx, my)))
        elif count == 2 and sw == ne:
            pinches.add((cx, cy))
    return frozenset(pinches), reflex


def pinch_corners(region: TileRegion) -> frozenset[Tile]:
    """Lattice corners where exactly two tiles meet only diagonally."""
    return _classify_corners(region.tiles)[0]


def _scaled(*coords: float) -> tuple[int, list[int]]:
    """(s, ints) with every coordinate equal to its int over s, exactly.

    Cell walls then sit at the multiples of s.
    """
    ratios = [c.as_integer_ratio() for c in coords]
    s = math.lcm(*(d for _, d in ratios))
    return s, [n * (s // d) for n, d in ratios]


def _point_in(tiles: frozenset[Tile], x: int, y: int, s: int) -> bool:
    """Some tile's closed square holds the point (x, y) / s."""
    cx, rx = divmod(x, s)
    cy, ry = divmod(y, s)
    return (
        (cx, cy) in tiles
        or (not rx and (cx - 1, cy) in tiles)
        or (not ry and ((cx, cy - 1) in tiles or (not rx and (cx - 1, cy - 1) in tiles)))
    )


def region_contains_point(region: TileRegion, p: Point) -> bool:
    s, (x, y) = _scaled(*p)
    return _point_in(region.tiles, x, y, s)


def _line_walk(
    tiles: frozenset[Tile],
    pinches: frozenset[Tile],
    u0: int,
    u1: int,
    line: int,
    s: int,
    flip: bool,
) -> bool:
    """Segment from u0 to u1 (scaled) along grid line number `line`.

    The line runs along x, or along y when flip is set.  Either cell beside
    the line covers a piece, and no lattice point on it may be a pinch.
    """
    lo, hi = min(u0, u1), max(u0, u1)
    for cu in range(lo // s, (hi - 1) // s + 1):
        below, above = ((line - 1, cu), (line, cu)) if flip else ((cu, line - 1), (cu, line))
        if below not in tiles and above not in tiles:
            return False
    for lu in range(-(-lo // s), hi // s + 1):
        if ((line, lu) if flip else (lu, line)) in pinches:
            return False
    return True


def segment_admissible(
    region: TileRegion, pinches: frozenset[Tile], p: Point, q: Point
) -> bool:
    """True when the closed segment p-q stays in the region and avoids pinches.

    Exact: coordinates are scaled to integers, and the cells the segment
    crosses are walked in order (Amanatides & Woo 1987), comparing the next
    x- and y-wall crossings by cross-multiplication.  The walk stops at the
    first cell that is not a tile; a lattice point crossed on both axes at
    once must not be a pinch.
    """
    s, (x0, y0, x1, y1) = _scaled(p[0], p[1], q[0], q[1])
    for x, y in ((x0, y0), (x1, y1)):
        if x % s == 0 and y % s == 0 and (x // s, y // s) in pinches:
            return False
    return _walk(region.tiles, pinches, s, x0, y0, x1, y1)


def _walk(
    tiles: frozenset[Tile], pinches: frozenset[Tile], s: int, x0: int, y0: int, x1: int, y1: int
) -> bool:
    """The cell walk of segment_admissible, on coordinates scaled by s.

    Both endpoints must already lie off the pinches.
    """
    dx = x1 - x0
    dy = y1 - y0
    if dx == 0 and dy == 0:
        return _point_in(tiles, x0, y0, s)
    if dy == 0 and y0 % s == 0:
        return _line_walk(tiles, pinches, x0, x1, y0 // s, s, False)
    if dx == 0 and x0 % s == 0:
        return _line_walk(tiles, pinches, y0, y1, x0 // s, s, True)
    # first cell entered and the distance from p to its next wall on each axis;
    # an axis the segment does not move along gets no wall count below
    if dx > 0:
        sx, cx = 1, x0 // s
        ax = (cx + 1) * s - x0
    else:
        sx, cx = -1, (x0 - 1) // s
        ax = x0 - cx * s
    if dy > 0:
        sy, cy = 1, y0 // s
        ay = (cy + 1) * s - y0
    else:
        sy, cy = -1, (y0 - 1) // s
        ay = y0 - cy * s
    adx = abs(dx)
    ady = abs(dy)
    # walls crossed strictly before q on each axis
    nx = -(-(adx - ax) // s) if adx > ax else 0
    ny = -(-(ady - ay) // s) if ady > ay else 0
    # sign of (x-crossing time - y-crossing time), kept incrementally
    e = ax * ady - ay * adx
    step_x = s * ady
    step_y = s * adx
    if (cx, cy) not in tiles:
        return False
    while nx or ny:
        if e < 0:
            cx += sx
            e += step_x
            nx -= 1
        elif e > 0:
            cy += sy
            e -= step_y
            ny -= 1
        else:
            if (cx + (sx > 0), cy + (sy > 0)) in pinches:
                return False
            cx += sx
            cy += sy
            e += step_x - step_y
            nx -= 1
            ny -= 1
        if (cx, cy) not in tiles:
            return False
    return True


def euclidean_geodesic_matrix(region: TileRegion, points: list[Point]) -> list[list[float]]:
    """Pairwise geodesic distances between query points.

    Builds one visibility graph over the query points plus the region's
    reflex corners and runs Dijkstra from each query point.  A pair is not
    tested when it meets a corner head-on, from the quadrant opposite the
    missing one (or from inside it): a shortest path never bends there, so
    only pairs that can be bitangent at their corner ends are kept
    (Lozano-Pérez & Wesley 1979).  All nodes are scaled to integers once,
    by their common denominator, for segment_admissible's cell walk.

    Two query points that see each other are at their straight distance:
    no path is shorter, and Dijkstra's EPS test keeps the value the source's
    own relaxation gives.  So each run stops once every query point the
    source does not see has been popped, and a source that sees them all
    pops only itself.
    """
    pinches, reflex = _classify_corners(region.tiles)
    for p in points:
        _exact_tile(p)
        if not region_contains_point(region, p):
            raise PointOutsideRegion(f"point {p} is outside the region")
    nodes: list[Point] = list(points) + [(float(cx), float(cy)) for (cx, cy), _ in reflex]
    # mx*my of each node's missing quadrant; 0 for query points
    quadrant = [0] * len(points) + [mx * my for _, (mx, my) in reflex]
    # every node as integers over the common power-of-two denominator s; a
    # node on a pinch sees nothing
    s, coords = _scaled(*(c for node in nodes for c in node))
    scaled = list(zip(coords[::2], coords[1::2]))
    free = [x % s or y % s or (x // s, y // s) not in pinches for x, y in scaled]
    tiles = region.tiles
    n = len(nodes)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        if not free[i]:
            continue
        xi, yi = nodes[i]
        mi = quadrant[i]
        ai, bi = scaled[i]
        for j in range(i + 1, n):
            xj, yj = nodes[j]
            dxdy = (xj - xi) * (yj - yi)
            if dxdy * mi > 0 or dxdy * quadrant[j] > 0 or not free[j]:
                continue
            if _walk(tiles, pinches, s, ai, bi, *scaled[j]):
                w = math.hypot(xi - xj, yi - yj)
                adj[i].append((j, w))
                adj[j].append((i, w))
    k = len(points)
    result = []
    for src in range(k):
        # the query points src does not see, and src itself
        need = set(range(k)).difference(v for v, _ in adj[src])
        dist = [math.inf] * n
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] + EPS:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v] - EPS:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            need.discard(u)
            if not need:
                break
        result.append(dist[:k])
    return result


def euclidean_geodesic(region: TileRegion, p: Point, q: Point) -> float:
    """Length of the shortest admissible path from p to q (inf if none)."""
    return euclidean_geodesic_matrix(region, [p, q])[0][1]


def grid_distance(region: TileRegion, a: Tile, b: Tile) -> float:
    """Orthogonal tile steps between two tiles of the region (inf if cut off)."""
    return grid_distance_matrix(region, [a, b])[0][1]


def grid_distance_matrix(region: TileRegion, tiles: list[Tile]) -> list[list[float]]:
    """Pairwise orthogonal-step distances between the given tiles.

    The region is packed once; each tile's BFS stops as soon as it has
    reached every later tile in the list, and fills both halves of the
    matrix.
    """
    for t in tiles:
        if t not in region.tiles:
            raise PointOutsideRegion(f"tile {t} not in region")
    return _grid_distances(region.tiles, tiles)


def fine_grid_distance(region: TileRegion, p: Point, q: Point, k: int) -> float:
    """Shortest 8-connected path on the 1/k sublattice of the region.

    Nodes are lattice multiples of 1/k; pinch corners are removed.  A move
    to one of the eight neighbouring nodes is admissible when its target is
    a node and its midpoint, a point of the 1/(2k) lattice, lies in the
    closed region.  That is exact: k divides the tile size, so a move's
    interior lies inside one cell, or on the wall between two with its
    midpoint on that wall, and meets no lattice corner.  Any returned
    length is that of a real admissible path, hence an upper bound on the
    Euclidean geodesic.  Both endpoints must lie on the sublattice.

    A tile-level BFS answers unreachable queries first; otherwise A* with
    the octile heuristic (consistent, so the result stays exact) keeps its
    distances keyed by node, so memory follows the nodes it reaches, not
    the region's bounding box.
    """
    if k < 2:
        raise ValueError("subdivision k must be at least 2")
    pinches = pinch_corners(region)

    def to_node(pt: Point) -> tuple[int, int]:
        _exact_tile(pt)
        # each c * k within 1e-6 of its nearest integer, measured exactly: a
        # float product drops the fraction of a large coordinate
        ratios = [c.as_integer_ratio() for c in pt]
        node = tuple((2 * a * k + b) // (2 * b) for a, b in ratios)
        if any(10**6 * abs(a * k - i * b) > b for (a, b), i in zip(ratios, node)):
            raise ValueError(f"point {pt} is not on the 1/{k} sublattice")
        return node

    tiles = region.tiles

    def node_tile(i: int, j: int) -> Tile:
        # a tile holding the node; c // k and (c - 1) // k differ only on a wall
        cols, rows = (i // k, (i - 1) // k), (j // k, (j - 1) // k)
        return next((cx, cy) for cx in cols for cy in rows if (cx, cy) in tiles)

    def node_ok(i: int, j: int) -> bool:
        if i % k == 0 and j % k == 0 and (i // k, j // k) in pinches:
            return False
        return _point_in(tiles, i, j, k)

    src = to_node(p)
    dst = to_node(q)
    if not node_ok(*src) or not node_ok(*dst):
        return math.inf
    if src == dst:
        return 0.0
    # a node off the pinches lies in tiles of one edge-connected component
    # (a diagonal pair meeting at a non-pinch corner shares a third tile)
    if math.isinf(grid_distance(region, node_tile(*src), node_tile(*dst))):
        return math.inf

    ti, tj = dst
    sqrt2 = math.sqrt(2.0)

    def octile(i: int, j: int) -> float:
        a = abs(i - ti)
        b = abs(j - tj)
        return abs(a - b) + sqrt2 * min(a, b)

    moves = [(di, dj, sqrt2 if di and dj else 1.0) for di in (1, -1, 0) for dj in (1, -1, 0) if di or dj]
    dist = {src: 0.0}
    heap = [(octile(*src), 0.0, *src)]
    while heap:
        _, d, i, j = heapq.heappop(heap)
        if i == ti and j == tj:
            return d / k
        if d > dist[i, j] + EPS:
            continue
        for di, dj, w in moves:
            ni, nj = i + di, j + dj
            if not _point_in(tiles, 2 * i + di, 2 * j + dj, 2 * k) or not node_ok(ni, nj):
                continue
            nd = d + w
            if nd < dist.get((ni, nj), math.inf) - EPS:
                dist[ni, nj] = nd
                heapq.heappush(heap, (nd + octile(ni, nj), nd, ni, nj))
    return math.inf


def gen_random_region(seed: int, box_w: int, box_h: int, n_tiles: int) -> TileRegion:
    """Seeded random connected region grown inside a box."""
    rng = random.Random(seed)
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    start = (rng.randrange(box_w), rng.randrange(box_h))
    tiles = {start}
    frontier = [start]
    while len(tiles) < n_tiles and frontier:
        i = rng.randrange(len(frontier))
        x, y = frontier[i]
        options = [
            (x + dx, y + dy)
            for dx, dy in ORTHO_STEPS
            if 0 <= x + dx < box_w and 0 <= y + dy < box_h and (x + dx, y + dy) not in tiles
        ]
        if not options:
            del frontier[i]  # every tile enters the frontier once
            continue
        nxt = options[rng.randrange(len(options))]
        tiles.add(nxt)
        frontier.append(nxt)
    return TileRegion(frozenset(tiles))
