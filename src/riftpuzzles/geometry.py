"""Geometry of tile regions: pinch corners, geodesics, and distance oracles.

A region is a union of closed unit squares ("tiles") on the integer lattice.
Movement happens anywhere inside the closed union, except that pinch corners
(lattice points where exactly two tiles meet diagonally with no orthogonal
neighbor shared by both) are impassable points.

Three distance notions live here:

* ``grid_distance``    -- orthogonal tile steps (BFS between tiles, on the
  shared bitboard engine of ``graphs`` when the region is dense enough),
* ``euclidean_geodesic`` -- true shortest path length, over a reduced
  visibility graph of the query points and the reflex corners, keeping only
  corner pairs that can be bitangent.  Query points are never bend points,
  so Dijkstra runs over the corners only; a query point out of sight takes
  its distance from the settled corners in pop order, by the same EPS rule.
  ``_Geodesics`` computes each entry when it is first read, so a caller
  walks only the segments its entries need.  The corner pass that finds
  the reflex corners and the pinches runs on the bitboard of ``graphs``
  (a few shifts and masks over the whole region), or, for a region too
  sparse to pack, tile by tile; and the bitangent test runs on the
  coordinates before any segment is looked up or walked,
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

from .graphs import ORTHO_STEPS, _grid_distances, _packed

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

    A region that `_packed` packs is classified all at once on its bitboard:
    corner (x, y) takes the bit of tile (x, y), its north-east tile, and
    shifts by 1, by the stride and by both bring in its north-west,
    south-east and south-west tiles.  The empty pad column ending each row
    keeps a shift from wrapping a tile into the next row, and holds the
    corners on the east edge.  A region too sparse to pack looks up the
    four tiles of each corner of each tile, so its cost follows the tile
    count, not the bounding box.
    """
    pinches, reflex = set(), []
    board = _packed(frozenset(tiles))
    if board is None:
        corners = set()
        for x, y in tiles:
            corners.update(((x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)))
        for cx, cy in corners:
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
    else:
        x0, y0, stride, ne = board
        nw = ne << 1
        se = ne << stride
        sw = se << 1
        # each reflex mask with its missing quadrant, then the pinch mask
        for mask, quadrant in (
            (nw & se & sw & ~ne, (1, 1)),
            (ne & se & sw & ~nw, (-1, 1)),
            (ne & nw & sw & ~se, (1, -1)),
            (ne & nw & se & ~sw, (-1, -1)),
            ((sw & ne & ~(se | nw)) | (se & nw & ~(sw | ne)), None),
        ):
            while mask:
                low = mask & -mask
                cy, cx = divmod(low.bit_length() - 1, stride)
                if quadrant:
                    reflex.append(((x0 + cx, y0 + cy), quadrant))
                else:
                    pinches.add((x0 + cx, y0 + cy))
                mask ^= low
    reflex.sort()
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


class _Geodesics:
    """Geodesic distances between query points, each computed when first
    read; rows() gives them as a tuple of read-only _Row views.

    The nodes are the query points, then the reflex corners in sorted order,
    scaled to integers once by their common denominator for the cell walk.
    A pair that meets a corner head-on, from the quadrant opposite the
    missing one (or from inside it), is not tested: a shortest path never
    bends there, so only pairs that can be bitangent at their corner ends
    are kept (Lozano-Pérez & Wesley 1979).  That test is a sign check on the
    coordinates, so a node's corner edges apply it to every corner first,
    and only the pairs it keeps meet the visibility memo and the cell walk.
    A node on a pinch sees nothing.

    Query points are never bend points, so Dijkstra runs over the corners
    only.  Entry (i, j) is the straight length when the pair sees each
    other; otherwise j scans the corners settled from i, in pop order, and
    keeps d + w whenever that beats its value by more than EPS: the updates
    a full Dijkstra from i makes to it.  Pair visibility, each node's corner
    edges and each source's settled corners are kept, so no read order
    changes a value.
    """

    def __init__(self, region: TileRegion, points: list[Point]) -> None:
        pinches, reflex = _classify_corners(region.tiles)
        for p in points:
            _exact_tile(p)
            if not region_contains_point(region, p):
                raise PointOutsideRegion(f"point {p} is outside the region")
        self.nodes = list(points) + [(float(cx), float(cy)) for (cx, cy), _ in reflex]
        # mx*my of each node's missing quadrant; 0 for query points
        self.quadrant = [0] * len(points) + [mx * my for _, (mx, my) in reflex]
        s, coords = _scaled(*(c for node in self.nodes for c in node))
        self.scaled = list(zip(coords[::2], coords[1::2]))
        self.free = [x % s or y % s or (x // s, y // s) not in pinches for x, y in self.scaled]
        self.walk_args = (region.tiles, pinches, s)
        self.sight: dict[tuple[int, int], float | None] = {}  # (i, j), i < j -> length or None
        self.corner_edges: dict[int, dict[int, float]] = {}
        self.settled: dict[int, list[tuple[int, float]]] = {}
        self.k = len(points)
        # index, coordinates and quadrant of each corner; three tiles meet at
        # a reflex corner, so none is a pinch
        self.corner_nodes = [(v, *self.nodes[v], self.quadrant[v]) for v in range(self.k, len(self.nodes))]

    def rows(self) -> tuple[_Row, ...]:
        # the rows refer to the engine, never the reverse: no reference cycle
        # keeps an evicted engine alive until the cyclic collector runs
        return tuple(_Row(self, i) for i in range(self.k))

    def _edge(self, i: int, j: int) -> float | None:
        """The length of segment i-j when it is admissible, else None; a
        pair with a corner end must pass the bitangent test first."""
        i, j = key = (i, j) if i < j else (j, i)
        if key not in self.sight:
            seen = self.free[i] and self.free[j] and _walk(*self.walk_args, *self.scaled[i], *self.scaled[j])
            (xi, yi), (xj, yj) = self.nodes[i], self.nodes[j]
            self.sight[key] = math.hypot(xi - xj, yi - yj) if seen else None
        return self.sight[key]

    def _corners(self, u: int) -> dict[int, float]:
        """Node u's edges to the reflex corners; only the pairs that pass
        the bitangent test reach the memo and the cell walk."""
        if u not in self.corner_edges:
            edges = self.corner_edges[u] = {}
            if self.free[u]:
                (xu, yu), qu = self.nodes[u], self.quadrant[u]
                tangent = [
                    v for v, x, y, q in self.corner_nodes
                    if v != u and (d := (x - xu) * (y - yu)) * q <= 0 and d * qu <= 0
                ]
                for v in tangent:
                    w = self._edge(u, v)
                    if w is not None:
                        edges[v] = w
        return self.corner_edges[u]

    def _settled(self, src: int) -> list[tuple[int, float]]:
        """The corners Dijkstra settles from src, in pop order, with their distances."""
        if src not in self.settled:
            heap = sorted((w, v) for v, w in self._corners(src).items())
            dist = {v: w for w, v in heap}
            settled = self.settled[src] = []
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + EPS:
                    continue
                settled.append((u, d))
                for v, w in self._corners(u).items():
                    if d + w < dist.get(v, math.inf) - EPS:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
        return self.settled[src]

    def entry(self, i: int, j: int) -> float:
        best = 0.0 if i == j else self._edge(i, j)
        if best is None:
            best, near = math.inf, self._corners(j)
            for u, d in self._settled(i):
                if u in near and d + near[u] < best - EPS:
                    best = d + near[u]
        return best


class _Row:
    """Row i of a _Geodesics; an entry is computed on its first read, then kept."""

    def __init__(self, geodesics: _Geodesics, i: int) -> None:
        self.geodesics, self.i, self.memo = geodesics, i, [None] * geodesics.k

    def __len__(self) -> int:
        return len(self.memo)

    def __getitem__(self, j: int) -> float:
        d = self.memo[j]
        if d is None:
            d = self.memo[j] = self.geodesics.entry(self.i, j % len(self.memo))
        return d


def euclidean_geodesic_matrix(region: TileRegion, points: list[Point]) -> list[list[float]]:
    """Pairwise geodesic distances between query points: every entry of a
    _Geodesics, row i from a Dijkstra over the reflex corners from point i."""
    return [list(row) for row in _Geodesics(region, points).rows()]


def euclidean_geodesic(region: TileRegion, p: Point, q: Point) -> float:
    """Length of the shortest admissible path from p to q (inf if none)."""
    return _Geodesics(region, [p, q]).entry(0, 1)


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
