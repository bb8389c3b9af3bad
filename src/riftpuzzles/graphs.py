"""Grid graphs, digraphs, and exhaustive Hamiltonicity oracles.

A grid graph is an induced subgraph of the integer lattice: two vertices are
adjacent exactly when their Euclidean distance is 1.  The oracles here are
deliberately brute force; they referee the puzzle reductions on small
instances and are not meant to scale.

One grid BFS serves the package (connectivity, the Hamiltonian search's
remainder prune, grid distances, the Tile Trial prune).  Connectivity is
asked once per set, so it floods cell by cell.  Where one set is flooded
many times, a tile set whose bounding box holds at most ``_PACK_BOX`` cells,
or at most ``_PACK_DENSITY`` cells per tile, is packed into one Python int,
a row per stride of width + 1 bits, and a BFS level is four shifts and a
mask over the whole set.  Sparser sets with a larger box keep a per-cell
loop, so far-apart tiles never cost a bounding-box-sized int.  Distances are
symmetric, so the BFS from the i-th tile of a list stops once it has reached
every later tile and fills both halves of the matrix.  Reachability alone
(both prunes) need not pay per level: a flood that is still going after a
fixed dozen levels switches to rounds that each fill whole row and column
runs, so a long corridor costs a few rounds per turn instead of a level per
tile.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Collection, Iterable, Iterator, NamedTuple

Vertex = tuple[int, int]

ORTHO_STEPS: tuple[Vertex, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

# subset-DP oracle refuses anything bigger than this
DIRECTED_SEARCH_LIMIT = 16

ENUM_BOX_LIMIT = 12


class InstanceTooLarge(ValueError):
    """An exact oracle was asked to search beyond its documented limit."""


class BudgetExhausted(RuntimeError):
    """A search ran out of its node budget before reaching a verdict."""


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


# A tile set is packed into a bitboard when its bounding box holds at most
# _PACK_BOX cells (64 words, whatever the density) or at most _PACK_DENSITY
# cells per tile; sparser sets with a larger box (far-apart tiles in a grid
# or bond document) keep the per-cell BFS, whose cost and memory follow the
# tile count instead of the bounding box.
_PACK_BOX = 4096
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


def _pack(cells: Collection[Vertex], max_density: float = math.inf) -> _Bitboard | None:
    """`cells` as a bitboard, or None when its bounding box holds more than
    `_PACK_BOX` cells and more than `max_density` cells per tile."""
    xs = [x for x, _ in cells]
    ys = [y for _, y in cells]
    x0, y0 = min(xs), min(ys)
    width, height = max(xs) - x0 + 1, max(ys) - y0 + 1
    if width * height > max(_PACK_BOX, max_density * len(cells)):
        return None
    stride = width + 1
    size = stride * height
    # one ASCII digit per bit (49 is "1"), most significant first, read by
    # int(..., 2)
    digits = bytearray(b"0") * size
    top = size - 1 + y0 * stride + x0
    for x, y in cells:
        digits[top - y * stride - x] = 49
    return _Bitboard(x0, y0, stride, int(digits, 2))


# Plain levels a flood runs before it hands over to fill rounds.  One
# `_run_fill` call costs about 17 levels on a 6x6 to 12x12 board (CPython
# 3.11), so the many floods that end sooner never pay for it.
_FIRST_LEVELS = 12


def _reaches(seed: int, open_: int, need: int, stride: int) -> bool:
    """True when a flood from `seed` through the `open_` bits covers `need`.

    `seed` need not be open itself; the flood stops as soon as it succeeds,
    and a `need` bit that is neither open nor the seed fails it at once.
    It runs plain BFS levels of four shifts each, and a flood still going
    after `_FIRST_LEVELS` of them switches to `_run_fill`, whose rounds
    cross whole runs of open bits, so a corridor costs a few rounds per
    turn, not a level per tile.
    """
    if need & ~(open_ | seed):
        return False
    frontier = seed
    unseen = open_ & ~seed
    for _ in range(_FIRST_LEVELS):
        if not need & unseen:
            return True
        step = (frontier << 1) | (frontier >> 1) | (frontier << stride) | (frontier >> stride)
        frontier = step & unseen
        if not frontier:
            return False
        unseen ^= frontier
    return not need & unseen or _run_fill(open_ & ~unseen, open_, need & unseen, stride)


def _run_fill(reached: int, open_: int, need: int, stride: int) -> bool:
    """True when flooding the `open_` bits from `reached`, a subset of them,
    covers `need`; in rounds that each cross whole runs of open bits.

    A carry-add floods every row run toward higher bits: adding a reached
    bit to a run of ones carries through to the run's end, where the empty
    pad column stops it.  Doubling steps flood toward lower bits and along
    columns: a step with shift k adds a bit whose k-th neighbour in that
    direction is reached when every bit in between is open, so after shifts
    1, 2, 4, ... the flood has crossed every run it touched.  Rounds repeat
    until `need` is covered or one adds nothing.
    """
    # (shift k, the bits that start k / unit open cells in a line toward
    # their k-th neighbour): such a bit joins once that neighbour has
    lower: list[tuple[int, int]] = []
    for unit in (1, stride):
        k, run = unit, open_
        while run:
            lower.append((k, run))
            run &= run >> k
            k <<= 1
    higher: list[tuple[int, int]] = []
    k, run = stride, open_
    while run:
        higher.append((k, run))
        run &= run << k
        k <<= 1
    while True:
        was = reached
        reached |= open_ & (((open_ + reached) ^ open_) | reached)
        for k, run in lower:
            reached |= run & (reached >> k)
        for k, run in higher:
            reached |= run & (reached << k)
        if not need & ~reached:
            return True
        if reached == was:
            return False


def _grid_bfs(
    cells: Collection[Vertex], start: Vertex, targets: Iterable[Vertex] | None = None
) -> dict[Vertex, int]:
    """Per-cell orthogonal-step distances from `start` through `cells`.

    Stops once every tile of `targets`, when given, has its distance.  The
    path for connectivity, for sparse tile sets and for callers that need
    the reached cells.
    """
    dist = {start: 0}
    left = set() if targets is None else set(targets) - {start}
    if targets is not None and not left:
        return dist
    queue = deque([start])
    while queue:
        x, y = v = queue.popleft()
        d = dist[v] + 1
        for dx, dy in ORTHO_STEPS:
            nxt = (x + dx, y + dy)
            if nxt in cells and nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
                if nxt in left:
                    left.discard(nxt)
                    if not left:
                        return dist
    return dist


def _grid_distances(cells: Collection[Vertex], tiles: list[Vertex]) -> list[list[float]]:
    """Orthogonal-step distance between each pair of `tiles` through
    `cells`: an int, or math.inf when cut off.  Every tile must be a cell.

    The BFS from ``tiles[i]`` stops once it has reached every later tile and
    writes both ``rows[i][j]`` and ``rows[j][i]``: step counts on the
    undirected lattice are symmetric.  Packable sets run a level-synchronous
    bitboard BFS, the others `_grid_bfs`.
    """
    n = len(tiles)
    rows = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0
    board = _pack(cells, _PACK_DENSITY)
    if board is None:
        for i, src in enumerate(tiles):
            dist = _grid_bfs(cells, src, tiles[i + 1 :])
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = dist.get(tiles[j], math.inf)
        return rows
    stride = board.stride
    index = [board.index(t) for t in tiles]
    columns: dict[int, list[int]] = {}
    for j, k in enumerate(index):
        columns.setdefault(k, []).append(j)
    later = 0  # the bits of tiles[i + 1:]
    for i in range(n - 1, -1, -1):
        frontier, left = 1 << index[i], later
        unseen = board.cells ^ frontier
        d = 0
        while frontier:
            hit = frontier & left
            if hit:
                left ^= hit
                while hit:
                    low = hit & -hit
                    for j in columns[low.bit_length() - 1]:
                        if j > i:
                            rows[i][j] = rows[j][i] = d
                    hit ^= low
            if not left:
                break
            step = (frontier << 1) | (frontier >> 1) | (frontier << stride) | (frontier >> stride)
            frontier = step & unseen
            unseen ^= frontier
            d += 1
        later |= 1 << index[i]
    return rows


def _connected(cells: Collection[Vertex]) -> bool:
    return bool(cells) and len(_grid_bfs(cells, next(iter(cells)))) == len(cells)


def grid_edges(g: GridGraph) -> set[tuple[Vertex, Vertex]]:
    """Unordered adjacency pairs, each reported once as (min, max)."""
    edges = set()
    for x, y in g.vertices:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in g.vertices:
                edges.add(((x, y), nxt))
    return edges


def _colour_excess(g: GridGraph) -> int:
    """How many more vertices one colour class has than the other, a vertex
    (x, y) being coloured (x + y) mod 2.  Every edge joins the two classes,
    so a Hamiltonian path alternates them: it needs an excess of at most 1,
    and a cycle needs none (Itai, Papadimitriou & Szwarcfiter, 1982)."""
    odd = sum((x + y) & 1 for x, y in g.vertices)
    return abs(len(g) - 2 * odd)


def has_ham_cycle_grid(g: GridGraph) -> bool:
    """Exhaustive Hamiltonian-cycle test; graphs on fewer than 4 vertices fail."""
    if len(g) < 4 or _colour_excess(g):
        return False
    if any(g.degree(v) < 2 for v in g.vertices) or not g.is_connected():
        return False
    start = min(g.vertices)
    return _ham_search(g, [start], start)


def has_ham_path_grid(g: GridGraph) -> bool:
    """Exhaustive Hamiltonian-path test; a single vertex counts as a path."""
    if _colour_excess(g) > 1 or not g.is_connected():
        return False
    return _ham_search(g, g.sorted_vertices(), None)


def _ham_search(g: GridGraph, starts: list[Vertex], anchor: Vertex | None) -> bool:
    """Backtracking search for a Hamiltonian path from any of `starts`.

    With an anchor the path must end beside it, closing a cycle through the
    anchor; without one any covering path counts.  `g` must be connected,
    which bounds its bitboard by its vertex count squared.  One loop keeps a
    neighbour iterator per path vertex on an explicit stack, so its depth is
    not bounded by the interpreter's recursion limit; the root iterator
    offers the starts in order, and every deeper one its vertex's neighbours.
    """
    board = _pack(g.vertices)
    bit = {v: 1 << board.index(v) for v in g.vertices}
    anchor_bit = 0 if anchor is None else bit[anchor]
    path: list[Vertex] = []
    free = board.cells
    stack: list[Iterator[Vertex]] = [iter(starts)]
    while stack:
        for nxt in stack[-1]:
            if free & bit[nxt]:
                free ^= bit[nxt]
                path.append(nxt)
                # every unvisited vertex and the cycle anchor, if any, must
                # stay reachable from the new head through unvisited
                # territory; with none left, that is the goal test: only a
                # head beside the anchor passes
                open_ = free | anchor_bit
                grow = _reaches(bit[nxt], open_, open_, board.stride)
                if grow and not free:
                    return True
                stack.append(iter(g.neighbors(nxt) if grow else ()))
                break
        else:
            stack.pop()
            if path:
                free ^= bit[path.pop()]
    return False


def enumerate_grid_graphs(box_w: int, box_h: int, max_vertices: int) -> Iterator[GridGraph]:
    """Yield every connected induced grid graph inside a box, each exactly once.

    Cells live at (0..box_w-1, 0..box_h-1).  Enumeration order is by vertex
    count, then lexicographic, so the stream is deterministic.
    """
    if box_w < 1 or box_h < 1:
        raise ValueError("box dimensions must be positive")
    if box_w * box_h > ENUM_BOX_LIMIT:
        raise InstanceTooLarge(f"box {box_w}x{box_h} exceeds the {ENUM_BOX_LIMIT}-cell enumeration limit")
    cells = [(x, y) for x in range(box_w) for y in range(box_h)]
    cells.sort()
    top = min(max_vertices, len(cells))
    for size in range(1, top + 1):
        for combo in combinations(cells, size):
            if _connected(set(combo)):
                yield GridGraph(frozenset(combo))


@dataclass(frozen=True)
class Digraph:
    """Directed graph on vertices 0..vertex_count-1 with explicit arcs."""

    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    _succ: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("digraph must have at least one vertex")
        object.__setattr__(self, "arcs", tuple((int(s), int(t)) for s, t in self.arcs))
        seen = set()
        succ = [[] for _ in range(self.vertex_count)]
        for s, t in self.arcs:
            if not (0 <= s < self.vertex_count and 0 <= t < self.vertex_count):
                raise ValueError(f"arc ({s},{t}) outside vertex range")
            if s == t:
                raise ValueError(f"self-loop at vertex {s}")
            if (s, t) in seen:
                raise ValueError(f"duplicate arc ({s},{t})")
            seen.add((s, t))
            succ[s].append(t)
        object.__setattr__(self, "_succ", tuple(map(tuple, succ)))

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """Heads of v's arcs, in arc order."""
        return self._succ[v]

    @property
    def outdeg12(self) -> bool:
        """True when every vertex has outdegree 1 or 2."""
        return all(len(heads) in (1, 2) for heads in self._succ)


def has_directed_ham_path(d: Digraph) -> bool:
    """Subset-DP Hamiltonian path oracle (any endpoints).

    Trusted reference: exact for vertex_count <= DIRECTED_SEARCH_LIMIT,
    refuses larger instances.
    """
    n = d.vertex_count
    if n > DIRECTED_SEARCH_LIMIT:
        raise InstanceTooLarge(f"{n} vertices exceeds the directed search limit {DIRECTED_SEARCH_LIMIT}")
    succ_mask = [0] * n
    for s, t in d.arcs:
        succ_mask[s] |= 1 << t
    full = (1 << n) - 1
    # dp[mask] = bitmask of vertices that can end a path visiting exactly `mask`
    dp = [0] * (full + 1)
    for v in range(n):
        dp[1 << v] = 1 << v
    for mask in range(1, full + 1):
        ends = dp[mask]
        while ends:
            end = ends & -ends
            fresh = succ_mask[end.bit_length() - 1] & ~mask
            while fresh:
                bit = fresh & -fresh
                dp[mask | bit] |= bit
                fresh ^= bit
            ends ^= end
    return dp[full] != 0


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
