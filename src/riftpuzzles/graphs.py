"""Grid graphs, digraphs, and exhaustive Hamiltonicity oracles.

A grid graph is an induced subgraph of the integer lattice: two vertices are
adjacent exactly when their Euclidean distance is 1.  The oracles here are
deliberately brute force; they referee the puzzle reductions on small
instances and are not meant to scale.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator

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


def _grid_bfs(
    cells: frozenset[Vertex] | set[Vertex], start: Vertex, goal: Vertex | None = None
) -> dict[Vertex, int]:
    """Orthogonal-step distances from `start` through `cells`.

    Stops once `goal`, when given, leaves the queue.
    """
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x, y = v = queue.popleft()
        if v == goal:
            break
        d = dist[v] + 1
        for dx, dy in ORTHO_STEPS:
            nxt = (x + dx, y + dy)
            if nxt in cells and nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    return dist


def _connected(cells: frozenset[Vertex] | set[Vertex]) -> bool:
    if not cells:
        return False
    return len(_grid_bfs(cells, next(iter(cells)))) == len(cells)


def grid_edges(g: GridGraph) -> set[tuple[Vertex, Vertex]]:
    """Unordered adjacency pairs, each reported once as (min, max)."""
    edges = set()
    for x, y in g.vertices:
        for nxt in ((x + 1, y), (x, y + 1)):
            if nxt in g.vertices:
                edges.add(((x, y), nxt))
    return edges


def has_ham_cycle_grid(g: GridGraph) -> bool:
    """Exhaustive Hamiltonian-cycle test; graphs on fewer than 4 vertices fail."""
    if len(g) < 4:
        return False
    if any(g.degree(v) < 2 for v in g.vertices):
        return False
    start = min(g.vertices)
    return _ham_search(g, start, start)


def has_ham_path_grid(g: GridGraph) -> bool:
    """Exhaustive Hamiltonian-path test; a single vertex counts as a path."""
    if len(g) == 1:
        return True
    if not g.is_connected():
        return False
    return any(_ham_search(g, start, None) for start in g.sorted_vertices())


def _ham_search(g: GridGraph, start: Vertex, anchor: Vertex | None) -> bool:
    """Backtracking search for a Hamiltonian path beginning at `start`.

    With an anchor the path must end beside it, closing a cycle through the
    anchor; without one any covering path counts.
    """
    n = len(g)
    path = [start]
    visited = {start}

    def extend() -> bool:
        if len(path) == n:
            return anchor is None or anchor in g.neighbors(path[-1])
        if not _remainder_connected(g, visited, path[-1], anchor):
            return False
        for nxt in g.neighbors(path[-1]):
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                if extend():
                    return True
                path.pop()
                visited.remove(nxt)
        return False

    return extend()


def _remainder_connected(
    g: GridGraph, visited: set[Vertex], current: Vertex, must_reach: Vertex | None
) -> bool:
    # every unvisited vertex (and the cycle anchor, if any) must still be
    # reachable from the path head through unvisited territory
    remaining = g.vertices - visited
    if not remaining:
        return True
    allowed = set(remaining)
    allowed.add(current)
    if must_reach is not None:
        allowed.add(must_reach)
    seen = _grid_bfs(allowed, current).keys()
    if must_reach is not None and must_reach not in seen:
        return False
    return remaining <= seen


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
    if n == 1:
        return True
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
        if not ends:
            continue
        v = 0
        while ends:
            if ends & 1:
                fresh = succ_mask[v] & ~mask
                w = 0
                m = fresh
                while m:
                    if m & 1:
                        dp[mask | (1 << w)] |= 1 << w
                    m >>= 1
                    w += 1
            ends >>= 1
            v += 1
    return dp[full] != 0


def symmetric_orientation(g: GridGraph) -> Digraph:
    """Both orientations of every grid edge, vertices indexed in sorted order."""
    order = g.sorted_vertices()
    index = {v: i for i, v in enumerate(order)}
    arcs = []
    for a, b in sorted(grid_edges(g)):
        arcs.append((index[a], index[b]))
        arcs.append((index[b], index[a]))
    return Digraph(len(order), tuple(arcs))


def gen_random_digraph(v: int, seed: int, min_out: int = 1, max_out: int = 2) -> Digraph:
    """Seeded random digraph with per-vertex outdegree in [min_out, max_out]."""
    if v < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    arcs = []
    for s in range(v):
        cap = min(max_out, v - 1)
        lo = min(min_out, cap)
        deg = rng.randint(lo, cap)
        targets = rng.sample([t for t in range(v) if t != s], deg)
        for t in sorted(targets):
            arcs.append((s, t))
    return Digraph(v, tuple(arcs))
