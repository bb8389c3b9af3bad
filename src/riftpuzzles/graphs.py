"""Grid graphs, digraphs, exact Hamiltonicity oracles, and the Euler trail.

A grid graph is an induced subgraph of the integer lattice: two vertices are
adjacent exactly when their Euclidean distance is 1.  The oracles referee
the puzzle reductions: grid Hamiltonicity is a frontier DP whose states grow
with the box's narrower side, and directed paths a subset DP.  Connectivity
floods a set of tiles by the grid BFS of ``geometry``, once per graph.  One
Hierholzer trail, `_euler_trail`, walks the Crystal Bonds postman and the
Tile Trial path.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, TypeVar

from .geometry import ORTHO_STEPS, _connected

Vertex = tuple[int, int]
T = TypeVar("T")

# grid Hamiltonicity gives up past this many frontier states at one vertex,
# or past 20 times as many summed over its scan (about a second); the grid
# enumeration, the directed subset DP, decide_dcb and the bond brute force
# hold no more states than the scan does
FRONTIER_STATE_LIMIT = 10_000
_SCAN_STATE_LIMIT = 20 * FRONTIER_STATE_LIMIT


class BudgetExhausted(RuntimeError):
    """A search gave up without a verdict: it ran out of its node or state
    budget, or it refused an instance past its size limit before starting."""


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
        """Whether the vertices form one component.  A graph floods once and
        keeps the answer; `enumerate_grid_graphs` yields its graphs with the
        answer set, since it builds only connected sets."""
        return self._flooded

    @cached_property
    def _flooded(self) -> bool:
        return _connected(self.vertices)

    def sorted_vertices(self) -> list[Vertex]:
        return sorted(self.vertices)


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
    Two screens it implies come first: a tour alternates the two lattice
    colours, so their counts differ by at most 1 (path) or 0 (cycle), and at
    most 2 vertices (path) or 0 (cycle) have degree below 2.  Raises
    BudgetExhausted past `FRONTIER_STATE_LIMIT` states at one vertex or
    `_SCAN_STATE_LIMIT` in all.
    """
    vs = g.vertices
    most = 0 if cycle else 2  # path ends a finished tour has
    if abs(2 * sum((x + y) & 1 for x, y in vs) - len(vs)) > most // 2:
        return False
    if sum(((x + 1, y) in vs) + ((x - 1, y) in vs) + ((x, y + 1) in vs) + ((x, y - 1) in vs) < 2 for x, y in vs) > most:
        return False
    xs, ys = zip(*vs)
    order = sorted(vs) if max(xs) - min(xs) > max(ys) - min(ys) else sorted(zip(ys, xs))
    cells = set(order)
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
    by one neighbouring cell (Redelmeier, 1981), as ascending tuples of the
    cells' indices in (x, y) order, and a size is yielded sorted, the order
    `itertools.combinations` gives.  Raises BudgetExhausted once the sets
    built, of every size so far, pass `_SCAN_STATE_LIMIT`; the box's one-cell
    sets are counted before any is built.  Each graph is yielded already known
    connected, so `GridGraph.is_connected` does not flood it again.
    """
    if box_w < 1 or box_h < 1:
        raise ValueError("box dimensions must be positive")
    held = box_w * box_h
    if held > _SCAN_STATE_LIMIT:
        raise BudgetExhausted(f"over {_SCAN_STATE_LIMIT} connected sets in all by size 1 in box {box_w}x{box_h}")
    cells = [(x, y) for x in range(box_w) for y in range(box_h)]
    index = {v: i for i, v in enumerate(cells)}
    near = [[index[x + dx, y + dy] for dx, dy in ORTHO_STEPS if (x + dx, y + dy) in index] for x, y in cells]
    sets = [(i,) for i in range(len(cells))]
    for size in range(1, min(max_vertices, len(cells)) + 1):
        if size > 1:
            grown = set()
            for s in sets:
                for j in {j for i in s for j in near[i]}.difference(s):
                    t = list(s)
                    insort(t, j)
                    grown.add(tuple(t))
                if held + len(grown) > _SCAN_STATE_LIMIT:
                    raise BudgetExhausted(f"over {_SCAN_STATE_LIMIT} connected sets in all by size {size} in box {box_w}x{box_h}")
            held += len(grown)
            sets = sorted(grown)
        for s in sets:
            g = GridGraph(frozenset(cells[i] for i in s))
            g.__dict__["_flooded"] = True
            yield g


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
    package's digraphs) few of the 2^n sets are reached.  Two vertices with
    no in-arc refute a path, before any table of n entries is built, and
    one is its only start.  Trusted reference: exact, it raises
    BudgetExhausted once the sets its layers hold, of every size so far,
    pass `_SCAN_STATE_LIMIT`; the complete 16-vertex digraph holds 65,535.
    """
    n = d.vertex_count
    entered = {t for _, t in d.arcs}
    if n - len(entered) > 1:
        return False
    succ_mask = [0] * n
    for s, t in d.arcs:
        succ_mask[s] |= 1 << t
    # the empty path ends on vertex n, which steps to the start, else to all
    succ_mask.append(sum(1 << v for v in range(n) if v not in entered) or (1 << n) - 1)
    # layer[mask]: the vertices a path visiting exactly `mask` can end on;
    # room: the sets the budget still allows
    layer, room = {0: 1 << n}, _SCAN_STATE_LIMIT
    for size in range(1, n + 1):
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
            if len(grown) > room:
                raise BudgetExhausted(f"over {_SCAN_STATE_LIMIT} vertex sets in all by size {size} of {n}")
        if not grown:
            return False
        room -= len(grown)
        layer = grown
    return True


def gen_random_digraph(v: int, seed: int) -> Digraph:
    """Seeded random digraph with per-vertex outdegree 1 or 2; a vertex is
    drawn again if two earlier ones already hold its pair of out-neighbors."""
    if v < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    arcs, drawn = [], []
    for s in range(v):
        while True:
            deg = rng.randint(1, min(2, v - 1))
            heads = sorted(rng.sample([t for t in range(v) if t != s], deg))
            if deg == 1 or drawn.count(heads) < 2:
                break
        drawn.append(heads)
        arcs.extend((s, t) for t in heads)
    return Digraph(v, tuple(arcs))
