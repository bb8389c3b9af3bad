"""Geometry of tile regions: pinch corners, geodesics, and distance oracles.

A region is a union of closed unit squares ("tiles") on the integer lattice.
Movement happens anywhere inside the closed union, except that pinch corners
(lattice points where exactly two tiles meet diagonally with no orthogonal
neighbor shared by both) are impassable points.

Three distance notions live here:

* ``grid_distance``    -- orthogonal tile steps.  One grid BFS serves the
  package.  Its level rule, the frontier's neighbouring cells less the
  level below (the lattice is bipartite), steps a set of tiles, or with
  three shifts and a mask a set that `_packed` turns into one Python int, a
  row per stride of width + 1 bits, when its bounding box holds at most
  ``_PACK_BOX`` cells or at most ``_PACK_DENSITY`` cells per tile.
  Connectivity floods a set of tiles, and `_GridDistances` computes each
  distance on first read, resuming a source's BFS only as far as the reads
  need.  A region joins its points when a completed row holds no math.inf,
* ``euclidean_geodesic`` -- true shortest path length, over a reduced
  visibility graph of the query points and the reflex corners, keeping only
  corner pairs that can be bitangent.  Query points are never bend points,
  so Dijkstra runs over the corners only; a query point out of sight takes
  its distance from the settled corners in pop order, by the same EPS rule.
  ``_Geodesics`` computes each entry when it is first read, so a caller
  walks only the segments its entries need.  The corner pass that finds
  the reflex corners and the pinches is one table of masks, evaluated on
  the grid BFS's bitboard or, for a region too sparse to pack, on
  translated copies of its tile set; and the bitangent test runs on the
  coordinates before any segment is looked up or walked,
* ``fine_grid_distance`` -- 8-connected shortest path on a 1/k sublattice,
  an upper distance oracle used to sanity-check the geodesics.  One rule
  admits all eight moves: the target node and the move's midpoint lie in
  the region.  Its A* keeps distances per reached node, so memory follows
  the nodes it explores, not the region's bounding box.

Point membership, segment visibility and the geodesic nodes are exact
integers: every float is a dyadic rational, so scaling by the common
power-of-two denominator puts all coordinates and cell walls on integers,
the segment test walks the crossed cells without rounding, and a length is
rounded once, from exact differences.  Unreachable queries return
``math.inf``.  The absolute epsilon of 1e-9 is used only where ``sqrt``
lengths are summed.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter, or_
from typing import AbstractSet, Collection, Iterator, NamedTuple, Sequence

Tile = tuple[int, int]
Point = tuple[float, float]

ORTHO_STEPS: tuple[Tile, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

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


_PACK_BOX = 4096  # 64 words
_PACK_DENSITY = 4


class _Bitboard(NamedTuple):
    """A tile set packed into one int: tile (x, y) is bit (y-y0)*stride + x-x0.

    The stride is the bounding-box width plus one, so every row ends in an
    empty pad column and a one-bit shift never wraps a tile into the next
    row.  One BFS level is then three shifts and a mask.
    """

    x0: int
    y0: int
    stride: int
    cells: int

    def index(self, v: Tile) -> int:
        return (v[1] - self.y0) * self.stride + v[0] - self.x0


@lru_cache(maxsize=1)
def _packed(tiles: frozenset[Tile]) -> _Bitboard | None:
    """`tiles` as a bitboard, or None when its bounding box holds more than
    `_PACK_BOX` cells and more than `_PACK_DENSITY` cells per tile.  The last
    set's board is kept, so a region flooded and corner-classified packs once."""
    cells = list(tiles)  # one walk of the set; the box comes from its distinct columns
    xs, ys = set(map(itemgetter(0), cells)), set(map(itemgetter(1), cells))
    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0 + 1, max(ys) - y0 + 1
    if width * height > max(_PACK_BOX, _PACK_DENSITY * len(tiles)):
        return None
    stride = width + 1
    size = stride * height
    # one ASCII digit per bit ("1" is 49), most significant first, for int(..., 2)
    digits = bytearray(b"0") * size
    top = size - 1 + y0 * stride + x0
    for x, y in cells:
        digits[top - y * stride - x] = 49
    return _Bitboard(x0, y0, stride, int(digits, 2))


def _set_level(cells: AbstractSet[Tile], frontier: Collection[Tile], below: AbstractSet[Tile]) -> set[Tile]:
    """The BFS level after `frontier` on a set of tiles: its neighbouring
    cells in `cells`, less the level below."""
    near = {(x + dx, y + dy) for x, y in frontier for dx, dy in ORTHO_STEPS}
    return (near & cells) - below


def _bits(mask: int) -> Iterator[int]:
    """The indices of the bits set in `mask`, highest first."""
    while mask:
        k = mask.bit_length() - 1
        yield k
        mask ^= 1 << k


class _Row:
    """Read-only row i of an on-demand table: `compute_entry(i, j)` fills an
    entry on first read, `compute_rest(i)` the rest when iterated."""

    def __init__(self, compute_entry, compute_rest, memo: list, i: int) -> None:
        self.compute_entry, self.compute_rest, self.memo, self.i = compute_entry, compute_rest, memo, i

    def __len__(self) -> int:
        return len(self.memo)

    def __getitem__(self, j: int) -> float:
        d = self.memo[j]
        if d is None:
            d = self.memo[j] = self.compute_entry(self.i, j % len(self.memo))
        return d

    def __iter__(self) -> Iterator[float]:
        if None in self.memo:
            self.compute_rest(self.i)
        return iter(self.memo)


class _GridDistances:
    """Orthogonal-step distances between `tiles` (cells) through `cells`,
    each computed when first read: an int, or math.inf when cut off.

    Each source's BFS keeps its frontier, the level below and its depth
    between reads.  An entry advances the deeper of its two floods until
    the other tile is reached, a row its flood until every tile it lacks
    is, and each tile a level meets fills both halves of the table.  A set
    `_packed` packs carries its levels as bitboards, its tiles keyed by bit
    index; a refused set carries them as sets of tiles, keyed by tile.
    Method names differ from `_Geodesics`'s, for test_referee_independence.
    """

    def __init__(self, cells: Collection[Tile], tiles: Sequence[Tile]) -> None:
        self.table: list[list[float | None]] = [[None] * len(tiles) for _ in tiles]
        self.floods: dict = {}  # a source -> (frontier, below, depth)
        self.cells = frozenset(cells)
        self.board = _packed(self.cells)
        if self.board is None:
            keys, self.empty = tiles, frozenset()
            self.starts: list = [frozenset((t,)) for t in tiles]
        else:
            keys, self.empty = [self.board.index(t) for t in tiles], 0
            self.starts = [1 << k for k in keys]
        self.columns: dict = {}  # a tile's key -> its places
        for j, k in enumerate(keys):
            self.columns.setdefault(k, []).append(j)
        self.targets = reduce(or_, self.starts, self.empty)

    def rows(self) -> tuple[_Row, ...]:
        return tuple(_Row(self.distance, self.fill, row, i) for i, row in enumerate(self.table))

    def distance(self, i: int, j: int) -> float:
        if self.table[i][j] is None:
            # the deeper flood, on a tie j's: a walk reads (u, w), then (w, x)
            if self.floods.get(j, (0, 0, -1))[2] >= self.floods.get(i, (0, 0, -1))[2]:
                i, j = j, i
            self._flood(i, self.starts[j], self.targets)
        return self.table[i][j]

    def fill(self, i: int) -> list[float]:
        row, need = self.table[i], self.empty
        for b, d in zip(self.starts, row):
            if d is None:
                need |= b
        self._flood(i, need, need)
        return row

    def _flood(self, i: int, need, targets) -> None:
        """Advance the BFS from tiles[i] until it reaches every tile of `need` or
        can go no further, filling each tile of `targets`, which holds all row i lacks."""
        row, table, columns, cells, board = self.table[i], self.table, self.columns, self.cells, self.board
        stride, every = (board.stride, board.cells) if board else (0, 0)
        frontier, below, d = self.floods.get(i) or (self.starts[i], self.empty, 0)
        for d in range(d, len(cells) + 1):  # a cell's depth is below the cell count
            if not frontier:
                break
            hit = frontier & targets
            if hit:
                need -= need & hit
                if board is None:
                    for k in hit:
                        for j in columns[k]:
                            row[j] = table[j][i] = d
                else:
                    while hit:  # a bitboard's bits, read from the top
                        k = hit.bit_length() - 1
                        hit ^= 1 << k
                        for j in columns[k]:
                            row[j] = table[j][i] = d
            if not need:
                break
            if board is None:
                frontier, below = _set_level(cells, frontier, below), frontier
            else:  # the same rule by three shifts and a mask; below lies in every, and
                # the east and north steps shifted down by stride + 1 are the south and west
                step = (frontier << 1) | (frontier << stride)
                frontier, below = (step | step >> (stride + 1)) & (every ^ below), frontier
        else:
            raise AssertionError(f"grid BFS from source {i} ran past {len(cells)} levels")
        self.floods[i] = frontier, below, d
        if not frontier:  # the flood is over: what row i lacks is cut off
            for j in [j for j, e in enumerate(row) if e is None]:
                row[j] = table[j][i] = math.inf


def _connected(cells: AbstractSet[Tile]) -> bool:
    frontier, below, reached = {next(iter(cells))}, set(), 1
    for _ in range(len(cells)):  # at most one level per cell
        frontier, below = _set_level(cells, frontier, below), frontier
        if not frontier:
            return reached == len(cells)
        reached += len(frontier)
    raise AssertionError(f"flood ran past {len(cells)} levels")


def _classify_corners(
    tiles: frozenset[Tile],
) -> tuple[frozenset[Tile], list[tuple[Tile, Tile]]]:
    """One pass over the lattice corners of the region.

    Returns the pinch corners and, in sorted order, each reflex corner
    (exactly three surrounding tiles, the only possible bend points) with
    the direction (mx, my) of its missing quadrant.

    Each quadrant is the set of corners with a tile there, and one table of
    masks, "not X" written ``every ^ X`` for ``every`` the union of the four,
    picks the corners out of them.  On the bitboard of a region `_packed`
    packs, corner (x, y) takes the bit of tile (x, y), its north-east tile,
    and shifts by 1, by the stride and by both bring in its north-west,
    south-east and south-west tiles; the empty pad column ending each row
    keeps a shift from wrapping a tile into the next row, and holds the
    corners on the east edge.  A region too sparse to pack holds each
    quadrant as a translated copy of its tile set, so its cost follows the
    tile count, not the bounding box.
    """
    board = _packed(frozenset(tiles))
    if board is None:
        ne, nw, se, sw = ({(x + dx, y + dy) for x, y in tiles} for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)))
        corners = iter
    else:
        x0, y0, stride, ne = board
        nw, se, sw = ne << 1, ne << stride, ne << (stride + 1)
        corners = lambda mask: ((x0 + k % stride, y0 + k // stride) for k in _bits(mask))
    every = ne | nw | se | sw
    pinches, reflex = set(), []
    # each reflex mask with its missing quadrant, then the pinch mask
    for mask, quadrant in (
        (nw & se & sw & (every ^ ne), (1, 1)),
        (ne & se & sw & (every ^ nw), (-1, 1)),
        (ne & nw & sw & (every ^ se), (1, -1)),
        (ne & nw & se & (every ^ sw), (-1, -1)),
        ((sw & ne & (every ^ (se | nw))) | (se & nw & (every ^ (sw | ne))), None),
    ):
        if quadrant:
            reflex += [(corner, quadrant) for corner in corners(mask)]
        else:
            pinches.update(corners(mask))
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


def _walk(
    tiles: frozenset[Tile], pinches: frozenset[Tile], s: int, x0: int, y0: int, x1: int, y1: int
) -> bool:
    """True when the closed segment (x0, y0)-(x1, y1), on coordinates scaled
    by s, stays in the tiles and meets no pinch; both endpoints must already
    lie off the pinches.

    Exact: the cells the segment crosses are walked in order (Amanatides &
    Woo 1987), comparing the next x- and y-wall crossings by
    cross-multiplication.  The walk stops at the first cell that is not a
    tile; a lattice point crossed on both axes at once must not be a pinch.
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
    kept only as integers over their common denominator s, so a corner never
    has to fit in a float; a length is the hypot of exact differences over s.
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
        # mx*my of each node's missing quadrant; 0 for query points
        self.quadrant = [0] * len(points) + [mx * my for _, (mx, my) in reflex]
        s, coords = _scaled(*(c for p in points for c in p), *(c for corner, _ in reflex for c in corner))
        self.scaled = list(zip(coords[::2], coords[1::2]))
        self.free = [x % s or y % s or (x // s, y // s) not in pinches for x, y in self.scaled]
        self.walk_args = (region.tiles, pinches, s)
        self.sight: dict[tuple[int, int], float | None] = {}  # (i, j), i < j -> length or None
        self.corner_edges: dict[int, dict[int, float]] = {}
        self.settled: dict[int, list[tuple[int, float]]] = {}
        self.table: list[list[float | None]] = [[None] * len(points) for _ in points]
        # index, scaled coordinates and quadrant of each corner; three tiles
        # meet at a reflex corner, so none is a pinch
        self.corner_nodes = [(v, *self.scaled[v], self.quadrant[v]) for v in range(len(points), len(self.scaled))]

    def rows(self) -> tuple[_Row, ...]:
        return tuple(_Row(self.entry, self.complete, row, i) for i, row in enumerate(self.table))

    def _edge(self, i: int, j: int) -> float | None:
        """The length of segment i-j when it is admissible, else None; a
        pair with a corner end must pass the bitangent test first."""
        i, j = key = (i, j) if i < j else (j, i)
        if key not in self.sight:
            (xi, yi), (xj, yj) = self.scaled[i], self.scaled[j]
            seen = self.free[i] and self.free[j] and _walk(*self.walk_args, xi, yi, xj, yj)
            s = self.walk_args[2]
            self.sight[key] = math.hypot((xi - xj) / s, (yi - yj) / s) if seen else None
        return self.sight[key]

    def _corners(self, u: int) -> dict[int, float]:
        """Node u's edges to the reflex corners; only the pairs that pass
        the bitangent test reach the memo and the cell walk."""
        if u not in self.corner_edges:
            edges = self.corner_edges[u] = {}
            if self.free[u]:
                (xu, yu), qu = self.scaled[u], self.quadrant[u]
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

    def complete(self, i: int) -> None:
        self.table[i][:] = [self.entry(i, j) if d is None else d for j, d in enumerate(self.table[i])]


def euclidean_geodesic(region: TileRegion, p: Point, q: Point) -> float:
    """Length of the shortest admissible path from p to q (inf if none)."""
    return _Geodesics(region, [p, q]).entry(0, 1)


def grid_distance(region: TileRegion, a: Tile, b: Tile) -> float:
    """Orthogonal tile steps between two tiles of the region (inf if cut off)."""
    if outside := [t for t in (a, b) if t not in region.tiles]:
        raise PointOutsideRegion(f"tile {outside[0]} not in region")
    return _GridDistances(region.tiles, [a, b]).distance(0, 1)


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
        # two steps inside a tile on both axes: every move's target and midpoint lie inside it
        inner = 1 < i % k < k - 1 and 1 < j % k < k - 1
        for di, dj, w in moves:
            ni, nj = i + di, j + dj
            if not inner and (not _point_in(tiles, 2 * i + di, 2 * j + dj, 2 * k) or not node_ok(ni, nj)):
                continue
            nd = d + w
            if nd < dist.get((ni, nj), math.inf) - EPS:
                dist[ni, nj] = nd
                heapq.heappush(heap, (nd + octile(ni, nj), nd, ni, nj))
    return math.inf


# a cell's free steps as ORTHO_STEPS indices, by its free-neighbour mask (bit b: step b)
_FREE_STEPS = tuple(tuple(b for b in range(4) if mask >> b & 1) for mask in range(16))


def gen_random_region(seed: int, box_w: int, box_h: int, n_tiles: int) -> TileRegion:
    """Seeded random connected region grown inside a box, on a byte per cell
    of the part of the box it can reach: 1 while the cell is free.  Each index
    is drawn as ``randrange(m)`` draws it in CPython 3.10 to 3.13: by
    ``getrandbits(m.bit_length())`` until the result is below m."""
    rng = random.Random(seed)
    if n_tiles < 1:
        raise ValueError("need at least one tile")
    sx, sy = rng.randrange(box_w), rng.randrange(box_h)
    x0, y0 = max(0, sx - n_tiles), max(0, sy - n_tiles)
    w, h = min(box_w, sx + n_tiles) - x0, min(box_h, sy + n_tiles) - y0
    up = w + 1  # w cells and a taken one per row, and a taken row above and below
    free = bytearray(bytes(up) + (b"\1" * w + b"\0") * h + bytes(up))
    start = (sy - y0 + 1) * up + sx - x0
    free[start] = 0
    east, west, south, north = steps = [dx + dy * up for dx, dy in ORTHO_STEPS]
    tiles, frontier, getrandbits = [start], [start], rng.getrandbits
    while len(tiles) < n_tiles and frontier:
        k = (m := len(frontier)).bit_length()
        while (i := getrandbits(k)) >= m:
            pass
        c = frontier[i]
        options = _FREE_STEPS[free[c + east] | free[c + west] << 1 | free[c + south] << 2 | free[c + north] << 3]
        if not options:
            del frontier[i]  # every tile enters the frontier once
            continue
        k = (m := len(options)).bit_length()
        while (j := getrandbits(k)) >= m:
            pass
        nxt = c + steps[options[j]]
        free[nxt] = 0
        tiles.append(nxt)
        frontier.append(nxt)
    rows, cols = zip(*map(divmod, tiles, [up] * len(tiles)))
    return TileRegion(frozenset(zip(map(x0.__add__, cols), map((y0 - 1).__add__, rows))))
