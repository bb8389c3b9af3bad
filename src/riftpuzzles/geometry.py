"""Geometry of tile regions: pinch corners, geodesics, and distance oracles.

A region is a union of closed unit squares ("tiles") on the integer lattice.
Movement happens anywhere inside the closed union, except that pinch corners
(lattice points where exactly two tiles meet diagonally with no orthogonal
neighbor shared by both) are impassable points.

Three distance notions live here:

* ``grid_distance``    -- orthogonal tile steps (BFS between tiles),
* ``euclidean_geodesic`` -- true shortest path length, via Dijkstra over a
  reduced visibility graph: the query points plus the region's reflex
  corners, keeping only corner pairs that can be bitangent,
* ``fine_grid_distance`` -- 8-connected shortest path on a 1/k sublattice,
  an upper distance oracle used to sanity-check the geodesics.

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
from collections import deque
from dataclasses import dataclass

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

    def __contains__(self, tile: Tile) -> bool:
        return tile in self.tiles

    def __len__(self) -> int:
        return len(self.tiles)


def tile_center(tile: Tile) -> Point:
    return (tile[0] + 0.5, tile[1] + 0.5)


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


def _cells_at(v: int, s: int) -> tuple[int, ...]:
    """Cell indices whose closed span [c*s, (c+1)*s] holds coordinate v."""
    c, r = divmod(v, s)
    return (c - 1, c) if r == 0 else (c,)


def _point_in(tiles: frozenset[Tile], x: int, y: int, s: int) -> bool:
    return any((cx, cy) in tiles for cx in _cells_at(x, s) for cy in _cells_at(y, s))


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
    tiles = region.tiles
    s, (x0, y0, x1, y1) = _scaled(p[0], p[1], q[0], q[1])
    for x, y in ((x0, y0), (x1, y1)):
        if x % s == 0 and y % s == 0 and (x // s, y // s) in pinches:
            return False
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
    (Lozano-Pérez & Wesley 1979).
    """
    pinches, reflex = _classify_corners(region.tiles)
    for p in points:
        if not region_contains_point(region, p):
            raise PointOutsideRegion(f"point {p} is outside the region")
    nodes: list[Point] = list(points) + [(float(cx), float(cy)) for (cx, cy), _ in reflex]
    # mx*my of each node's missing quadrant; 0 for query points
    quadrant = [0] * len(points) + [mx * my for _, (mx, my) in reflex]
    n = len(nodes)
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = nodes[i]
        mi = quadrant[i]
        for j in range(i + 1, n):
            xj, yj = nodes[j]
            dxdy = (xj - xi) * (yj - yi)
            if dxdy * mi > 0 or dxdy * quadrant[j] > 0:
                continue
            if segment_admissible(region, pinches, nodes[i], nodes[j]):
                w = math.hypot(xi - xj, yi - yj)
                adj[i].append((j, w))
                adj[j].append((i, w))
    k = len(points)
    result = [[math.inf] * k for _ in range(k)]
    for src in range(k):
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
        for dst in range(k):
            result[src][dst] = dist[dst]
        result[src][src] = 0.0
    return result


def euclidean_geodesic(region: TileRegion, p: Point, q: Point) -> float:
    """Length of the shortest admissible path from p to q (inf if none)."""
    return euclidean_geodesic_matrix(region, [p, q])[0][1]


def grid_distance(region: TileRegion, a: Tile, b: Tile) -> float:
    """Orthogonal tile steps between two tiles of the region (inf if cut off)."""
    if a not in region.tiles or b not in region.tiles:
        raise PointOutsideRegion(f"tile {a if a not in region.tiles else b} not in region")
    if a == b:
        return 0
    dist = {a: 0}
    queue = deque([a])
    while queue:
        x, y = queue.popleft()
        d = dist[(x, y)]
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nxt in region.tiles and nxt not in dist:
                if nxt == b:
                    return d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    return math.inf


def grid_distance_matrix(region: TileRegion, tiles: list[Tile]) -> list[list[float]]:
    """Pairwise orthogonal-step distances between the given tiles."""
    for t in tiles:
        if t not in region.tiles:
            raise PointOutsideRegion(f"tile {t} not in region")
    n = len(tiles)
    result = [[math.inf] * n for _ in range(n)]
    index = {}
    for i, t in enumerate(tiles):
        index.setdefault(t, []).append(i)
    for i, src in enumerate(tiles):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x, y = queue.popleft()
            d = dist[(x, y)]
            for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nxt in region.tiles and nxt not in dist:
                    dist[nxt] = d + 1
                    queue.append(nxt)
        for j, dst in enumerate(tiles):
            if dst in dist:
                result[i][j] = dist[dst]
    return result


def fine_grid_distance(region: TileRegion, p: Point, q: Point, k: int) -> float:
    """Shortest 8-connected path on the 1/k sublattice of the region.

    Nodes are lattice multiples of 1/k; pinch corners are removed.  Every
    move's interior stays inside a single cell row/column (k divides the
    tile size), so admissibility is exact integer arithmetic.  Any returned
    length is the length of a real admissible path, hence an upper bound on
    the Euclidean geodesic.  Both endpoints must lie on the sublattice.

    A tile-level BFS answers unreachable queries first; otherwise A* with
    the octile heuristic (consistent, so the result stays exact) searches
    a flat distance table over the sublattice of the bounding box.
    """
    if k < 2:
        raise ValueError("subdivision k must be at least 2")
    pinches = pinch_corners(region)

    def to_node(pt: Point) -> tuple[int, int]:
        i = round(pt[0] * k)
        j = round(pt[1] * k)
        if abs(pt[0] * k - i) > 1e-6 or abs(pt[1] * k - j) > 1e-6:
            raise ValueError(f"point {pt} is not on the 1/{k} sublattice")
        return (i, j)

    tiles = region.tiles

    def node_tiles(i: int, j: int) -> list[Tile]:
        return [(cx, cy) for cx in _cells_at(i, k) for cy in _cells_at(j, k) if (cx, cy) in tiles]

    def node_ok(i: int, j: int) -> bool:
        if i % k == 0 and j % k == 0 and (i // k, j // k) in pinches:
            return False
        return bool(node_tiles(i, j))

    def h_step_ok(i: int, j: int) -> bool:
        # interior of the step from (i,j) to (i+1,j)
        cx = i // k
        if j % k == 0:
            return (cx, j // k) in tiles or (cx, j // k - 1) in tiles
        return (cx, j // k) in tiles

    def v_step_ok(i: int, j: int) -> bool:
        cy = j // k
        if i % k == 0:
            return (i // k, cy) in tiles or (i // k - 1, cy) in tiles
        return (i // k, cy) in tiles

    src = to_node(p)
    dst = to_node(q)
    if not node_ok(*src) or not node_ok(*dst):
        return math.inf
    if src == dst:
        return 0.0
    # a node off the pinches lies in tiles of one edge-connected component
    # (a diagonal pair meeting at a non-pinch corner shares a third tile)
    if math.isinf(grid_distance(region, node_tiles(*src)[0], node_tiles(*dst)[0])):
        return math.inf

    i0 = k * min(x for x, _ in tiles)
    j0 = k * min(y for _, y in tiles)
    height = k * (max(y for _, y in tiles) + 1) - j0 + 1
    width = k * (max(x for x, _ in tiles) + 1) - i0 + 1
    ti, tj = dst
    sqrt2 = math.sqrt(2.0)

    def octile(i: int, j: int) -> float:
        a = abs(i - ti)
        b = abs(j - tj)
        return abs(a - b) + sqrt2 * min(a, b)

    dist = [math.inf] * (width * height)
    dist[(src[0] - i0) * height + src[1] - j0] = 0.0
    heap = [(octile(*src), 0.0, src[0], src[1])]
    while heap:
        _, d, i, j = heapq.heappop(heap)
        if i == ti and j == tj:
            return d / k
        if d > dist[(i - i0) * height + j - j0] + EPS:
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
        # a diagonal step's interior lies strictly inside one cell
        if (i // k, j // k) in tiles:
            moves.append((i + 1, j + 1, sqrt2))
        if ((i - 1) // k, (j - 1) // k) in tiles:
            moves.append((i - 1, j - 1, sqrt2))
        if ((i - 1) // k, j // k) in tiles:
            moves.append((i - 1, j + 1, sqrt2))
        if (i // k, (j - 1) // k) in tiles:
            moves.append((i + 1, j - 1, sqrt2))
        for ni, nj, w in moves:
            if not node_ok(ni, nj):
                continue
            nd = d + w
            at = (ni - i0) * height + nj - j0
            if nd < dist[at] - EPS:
                dist[at] = nd
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
    return TileRegion(frozenset(tiles))
