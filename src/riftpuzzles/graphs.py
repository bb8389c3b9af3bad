"""Grid graphs, digraphs, exact Hamiltonicity oracles, and the Euler trail.

A grid graph is an induced subgraph of the integer lattice: two vertices are
adjacent exactly when their Euclidean distance is 1.  The oracles referee
the puzzle reductions: grid Hamiltonicity is a frontier DP whose states grow
with the box's narrower side, and directed paths a subset DP.

One grid BFS serves the package.  Its level rule, the frontier's
neighbouring cells less the level below (the lattice is bipartite), steps a
set of tiles, or with four shifts and a mask a set that `_packed` turns
into one Python int, a row per stride of width + 1 bits, when its bounding
box holds at most ``_PACK_BOX`` cells or at most ``_PACK_DENSITY`` cells
per tile.  Connectivity floods a set of tiles, and `_GridDistances`
computes each distance on first read, resuming a source's BFS only as far
as the reads need.  A region joins its points when a completed row holds
no math.inf.  One Hierholzer trail, `_euler_trail`, walks the Crystal
Bonds postman and the Tile Trial path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import or_
from typing import AbstractSet, Collection, Iterator, NamedTuple, Sequence, TypeVar

Vertex = tuple[int, int]
T = TypeVar("T")

ORTHO_STEPS: tuple[Vertex, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

# subset-DP oracle refuses anything bigger than this
DIRECTED_SEARCH_LIMIT = 16

# grid Hamiltonicity gives up past this many frontier states at one vertex,
# or past 20 times as many summed over its scan (about a second)
FRONTIER_STATE_LIMIT = 10_000
_SCAN_STATE_LIMIT = 20 * FRONTIER_STATE_LIMIT

ENUM_BOX_LIMIT = 12


class InstanceTooLarge(ValueError):
    """An exact oracle or the enumeration refused an instance past its
    documented size limit, before any search."""


class BudgetExhausted(RuntimeError):
    """A search ran out of its node or state budget before reaching a verdict."""


@dataclass(frozen=True)
class Verdict:
    """A verifier's answer: ok, or the first broken rule and its detail."""

    ok: bool
    rule: str = ""
    detail: object = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class GridGraph:
    """Finite set of lattice points with implicit unit-distance adjacency."""

    vertices: frozenset[Vertex]

    def __post_init__(self) -> None:
        if not isinstance(self.vertices, frozenset):
            object.__setattr__(self, "vertices", frozenset(self.vertices))
        if not self.vertices:
            raise ValueError("grid graph must have at least one vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: Vertex) -> list[Vertex]:
        x, y = v
        return [(x + dx, y + dy) for dx, dy in ORTHO_STEPS if (x + dx, y + dy) in self.vertices]

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def is_connected(self) -> bool:
        return _connected(self.vertices)

    def sorted_vertices(self) -> list[Vertex]:
        return sorted(self.vertices)


_PACK_BOX = 4096  # 64 words
_PACK_DENSITY = 4


class _Bitboard(NamedTuple):
    """A tile set packed into one int: tile (x, y) is bit (y-y0)*stride + x-x0.

    The stride is the bounding-box width plus one, so every row ends in an
    empty pad column and a one-bit shift never wraps a tile into the next
    row.  One BFS level is then four shifts and a mask.
    """

    x0: int
    y0: int
    stride: int
    cells: int

    def index(self, v: Vertex) -> int:
        return (v[1] - self.y0) * self.stride + v[0] - self.x0


@lru_cache(maxsize=1)
def _packed(tiles: frozenset[Vertex]) -> _Bitboard | None:
    """`tiles` as a bitboard, or None when its bounding box holds more than
    `_PACK_BOX` cells and more than `_PACK_DENSITY` cells per tile.  The last
    set's board is kept, so a region flooded and corner-classified packs once."""
    xs, ys = zip(*tiles)
    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0 + 1, max(ys) - y0 + 1
    if width * height > max(_PACK_BOX, _PACK_DENSITY * len(tiles)):
        return None
    stride = width + 1
    size = stride * height
    # one ASCII digit per bit ("1" is 49), most significant first, for int(..., 2)
    digits = bytearray(b"0") * size
    top = size - 1 + y0 * stride + x0
    for x, y in tiles:
        digits[top - y * stride - x] = 49
    return _Bitboard(x0, y0, stride, int(digits, 2))


def _set_level(cells: AbstractSet[Vertex], frontier: Collection[Vertex], below: AbstractSet[Vertex]) -> set[Vertex]:
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

    def __init__(self, cells: Collection[Vertex], tiles: Sequence[Vertex]) -> None:
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
        while frontier:
            hit = frontier & targets
            if hit:
                need -= need & hit
                for k in hit if board is None else _bits(hit):
                    for j in columns[k]:
                        row[j] = table[j][i] = d
            if not need:
                break
            if board is None:
                frontier, below = _set_level(cells, frontier, below), frontier
            else:  # the same rule by four shifts and a mask; below lies in every
                step = (frontier << 1) | (frontier >> 1) | (frontier << stride) | (frontier >> stride)
                frontier, below = step & (every ^ below), frontier
            d += 1
        self.floods[i] = frontier, below, d
        if not frontier:  # the flood is over: what row i lacks is cut off
            for j in [j for j, e in enumerate(row) if e is None]:
                row[j] = table[j][i] = math.inf


def _connected(cells: AbstractSet[Vertex]) -> bool:
    if not cells:
        return False
    frontier, below, reached = {next(iter(cells))}, set(), 1
    while frontier:
        frontier, below = _set_level(cells, frontier, below), frontier
        reached += len(frontier)
    return reached == len(cells)


def _euler_trail(vertices: list[T], edges: list[tuple[T, T]], start: T) -> list[T]:
    """Open Euler trail through every edge of a connected multigraph,
    starting at `start` (Hierholzer): the postman's walk and the tile path."""
    adj: dict[T, list[tuple[T, int]]] = {v: [] for v in vertices}
    for eid, (a, b) in enumerate(edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    for v in adj:
        adj[v].sort(reverse=True)
    used = [False] * len(edges)
    stack = [start]
    trail = []
    while stack:
        v = stack[-1]
        while adj[v] and used[adj[v][-1][1]]:
            adj[v].pop()
        if adj[v]:
            w, eid = adj[v].pop()
            used[eid] = True
            stack.append(w)
        else:
            trail.append(stack.pop())
    trail.reverse()
    if len(trail) != len(edges) + 1:
        raise AssertionError("required multigraph is not connected")
    return trail


def grid_edges(g: GridGraph) -> set[tuple[Vertex, Vertex]]:
    """Unordered adjacency pairs, each reported once as (min, max)."""
    edges = set()
    for x, y in g.vertices:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in g.vertices:
                edges.add(((x, y), nxt))
    return edges


def has_ham_cycle_grid(g: GridGraph) -> bool:
    """Hamiltonian-cycle test; graphs on fewer than 4 vertices fail."""
    return _ham_frontier(g, cycle=True)


def has_ham_path_grid(g: GridGraph) -> bool:
    """Hamiltonian-path test; a single vertex counts as a path."""
    return _ham_frontier(g, cycle=False)


# (edge right, edge up) a vertex may add, by [has a right][has an upper] neighbour
_MOVES = (((0, 0),), ((0, 0), (0, 1))), (((0, 0), (1, 0)), ((0, 0), (0, 1), (1, 0), (1, 1)))


def _ham_frontier(g: GridGraph, cycle: bool) -> bool:
    """Frontier DP over the vertices in row order, rows across the narrower
    side of the box (the transfer-matrix method: Knuth's SIMPATH, TAOCP 4A
    7.1.4; Kawahara, Inoue, Iwashita & Minato, 2017).  A state is the path
    ends placed (at most 2) and the tour's edges from the vertices seen to
    the rest, keyed by the vertex each enters (from the left, then up, in
    visiting order) and labelled by segment, renumbered by first occurrence.
    A loop may close, or a segment finish, only at the last vertex, with an
    empty frontier: that one rule covers degree, connectivity and parity.
    Raises BudgetExhausted past `FRONTIER_STATE_LIMIT` states at one vertex
    or `_SCAN_STATE_LIMIT` in all.
    """
    xs, ys = zip(*g.vertices)
    order = sorted(g.vertices) if max(xs) - min(xs) > max(ys) - min(ys) else sorted(zip(ys, xs))
    cells = set(order)
    most = 0 if cycle else 2  # path ends a finished tour has
    states = {(0,): 0}  # labels -> path ends; a label seen once has a path end
    seen = 0
    for i, (r, c) in enumerate(order):
        below, up = (r - 1, c) in cells, (r + 1, c) in cells
        moves = _MOVES[(r, c + 1) in cells][up]
        new = {}
        for s, ends in states.items():
            a, b, rest = (s[0], s[1], s[2:]) if below else (s[0], 0, s[1:])
            if a and b and a != b:  # two segments join
                rest = tuple([a if x == b else x for x in rest])
            label = a or b or -1  # -1 starts a segment
            for h, u in moves:
                degree = (a > 0) + (b > 0) + h + u
                placed = ends + 2 - degree
                if degree > 2 or placed > most:
                    continue
                t = (label * h, *rest, label * u) if up else (label * h, *rest)
                if label not in t:  # the segment is finished
                    if i == len(order) - 1 and placed == most:
                        return True
                    continue
                new[tuple([t.index(x) + 1 if x else 0 for x in t])] = placed
        if len(new) > FRONTIER_STATE_LIMIT:
            raise BudgetExhausted(f"over {FRONTIER_STATE_LIMIT} frontier states at vertex {i + 1} of {len(order)}")
        seen += len(new)
        if seen > _SCAN_STATE_LIMIT:
            raise BudgetExhausted(f"over {_SCAN_STATE_LIMIT} frontier states in all by vertex {i + 1} of {len(order)}")
        if not new:
            break
        states = new
    return False


def enumerate_grid_graphs(box_w: int, box_h: int, max_vertices: int) -> Iterator[GridGraph]:
    """Yield every connected induced grid graph inside a box, each exactly once.

    Cells live at (0..box_w-1, 0..box_h-1).  Enumeration order is by vertex
    count, then lexicographic, so the stream is deterministic.  Only
    connected sets are built: those of each size grow from the last size's
    by one neighbouring cell (Redelmeier, 1981), as bitmasks over the cells
    in (x, y) order, and a size is yielded sorted by its cells' index tuples,
    the order `itertools.combinations` gives.
    """
    if box_w < 1 or box_h < 1:
        raise ValueError("box dimensions must be positive")
    if box_w * box_h > ENUM_BOX_LIMIT:
        raise InstanceTooLarge(f"box {box_w}x{box_h} exceeds the {ENUM_BOX_LIMIT}-cell enumeration limit")
    cells = [(x, y) for x in range(box_w) for y in range(box_h)]
    index = {v: i for i, v in enumerate(cells)}
    near = [sum(1 << index[x + dx, y + dy] for dx, dy in ORTHO_STEPS if (x + dx, y + dy) in index) for x, y in cells]

    def members(s: int) -> list[int]:
        return [i for i in range(len(cells)) if s >> i & 1]

    sets = [1 << i for i in range(len(cells))]
    for size in range(1, min(max_vertices, len(cells)) + 1):
        if size > 1:
            grown = set()
            for s in sets:
                rim, rest = 0, s
                while rest:
                    low = rest & -rest
                    rim |= near[low.bit_length() - 1]
                    rest ^= low
                rim &= ~s
                while rim:
                    low = rim & -rim
                    grown.add(s | low)
                    rim ^= low
            sets = sorted(grown, key=members)
        for s in sets:
            yield GridGraph(frozenset(cells[i] for i in members(s)))


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..vertex_count-1 with explicit arcs."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    _succ: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)  # tail -> heads

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("digraph must have at least one vertex")
        object.__setattr__(self, "arcs", tuple((int(s), int(t)) for s, t in self.arcs))
        seen = set()
        succ: dict[int, tuple[int, ...]] = {}
        for s, t in self.arcs:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"arc ({s},{t}) outside vertex range")
            if s == t:
                raise ValueError(f"self-loop at vertex {s}")
            if (s, t) in seen:
                raise ValueError(f"duplicate arc ({s},{t})")
            seen.add((s, t))
            succ[s] = succ.get(s, ()) + (t,)
        object.__setattr__(self, "_succ", succ)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """Heads of v's arcs, in arc order."""
        return self._succ.get(v, ())

    @property
    def outdeg12(self) -> bool:
        """True when every vertex has outdegree 1 or 2."""
        return len(self._succ) == self.vertex_count and all(len(heads) <= 2 for heads in self._succ.values())


def has_directed_ham_path(d: Digraph) -> bool:
    """Subset-DP Hamiltonian path oracle (any endpoints).

    Keeps, per path length, each set some path visits and the vertices it
    can end on; an empty layer ends the search, and at out-degree 2 (the
    package's digraphs) few of the 2^n sets are reached.  Trusted reference:
    exact for vertex_count <= DIRECTED_SEARCH_LIMIT, refuses larger instances.
    """
    n = d.vertex_count
    if n > DIRECTED_SEARCH_LIMIT:
        raise InstanceTooLarge(f"{n} vertices exceeds the directed search limit {DIRECTED_SEARCH_LIMIT}")
    succ_mask = [0] * n
    for s, t in d.arcs:
        succ_mask[s] |= 1 << t
    # layer[mask]: the vertices a path visiting exactly `mask` can end on
    layer = {1 << v: 1 << v for v in range(n)}
    for _ in range(n - 1):
        grown: dict[int, int] = {}
        for mask, ends in layer.items():
            while ends:
                end = ends & -ends
                fresh = succ_mask[end.bit_length() - 1] & ~mask
                while fresh:
                    bit = fresh & -fresh
                    grown[mask | bit] = grown.get(mask | bit, 0) | bit
                    fresh ^= bit
                ends ^= end
        if not grown:
            return False
        layer = grown
    return True


def gen_random_digraph(v: int, seed: int) -> Digraph:
    """Seeded random digraph with per-vertex outdegree 1 or 2."""
    if v < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    arcs = []
    for s in range(v):
        deg = rng.randint(1, min(2, v - 1))
        targets = rng.sample([t for t in range(v) if t != s], deg)
        for t in sorted(targets):
            arcs.append((s, t))
    return Digraph(v, tuple(arcs))
