"""Crystal-bonding walks: optimal solving over a crystal metric, a brute-force
oracle for the disconnected variant, and the reduction from grid-graph
Hamiltonian paths with its start-tile gadget.

A board holds crystals at tile centers and a set of required bonds.  A bond
forms exactly when its two crystals are visited consecutively; the solver
minimizes total walking distance under the board's distance model.  When the
bond graph is one tree the optimum is a connected rural-postman walk over the
metric closure; when it may be disconnected, only the exhaustive oracle
applies (optimizing that variant is as hard as Hamiltonian path).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .geometry import (
    Point,
    TileRegion,
    euclidean_geodesic_matrix,
    grid_distance_matrix,
    gen_random_region,
    tile_center,
    tile_of,
    _exact_tile,
)
from .graphs import GridGraph, InstanceTooLarge, Verdict, grid_edges

MODELS = ("grid", "euclid")

# metric-closure matching is exact subset DP; beyond this the table explodes
ODD_SET_LIMIT = 16


class UnreachableCrystal(ValueError):
    """Some crystal (or the start) cannot be walked to within the region."""


@dataclass(frozen=True)
class BondBoard:
    """Crystals indexed by position in `crystals`; bonds are index pairs.

    `start` is a tile-center point, or None for the free-start variant used
    by the hardness reduction.  The bond graph must always be a forest.
    """

    region: TileRegion
    crystals: tuple[Point, ...]
    start: Point | None
    required_bonds: tuple[tuple[int, int], ...]
    distance_model: str

    def __post_init__(self) -> None:
        if not isinstance(self.crystals, tuple):
            object.__setattr__(self, "crystals", tuple(self.crystals))
        if self.distance_model not in MODELS:
            raise ValueError(f"distance model must be one of {MODELS}")
        for p in self.crystals + (() if self.start is None else (self.start,)):
            t = _exact_tile(p)
            if t not in self.region.tiles or p != tile_center(t):
                raise ValueError(f"point {p} is not a region tile center")
        if len(set(self.crystals)) != len(self.crystals):
            raise ValueError("crystal positions must be pairwise distinct")
        norm = []
        for a, b in self.required_bonds:
            if not (0 <= a < len(self.crystals) and 0 <= b < len(self.crystals)):
                raise ValueError(f"bond ({a},{b}) references a missing crystal")
            if a == b:
                raise ValueError("a crystal cannot bond with itself")
            norm.append((min(a, b), max(a, b)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate required bond")
        object.__setattr__(self, "required_bonds", tuple(norm))
        # a simple graph is a forest exactly when it has r - |bonds| components
        r = len(self.crystals)
        if len(set(_roots(r, self.required_bonds))) != r - len(norm):
            raise ValueError("required bonds must form a forest")

    @property
    def connected(self) -> bool:
        """True when the bonds form one tree spanning every crystal."""
        r = len(self.crystals)
        return r >= 1 and len(self.required_bonds) == r - 1


@dataclass(frozen=True)
class BondWalk:
    """Crystal visit order plus the walking distance it costs."""

    visit_sequence: tuple[int, ...]
    total_length: float

    def __post_init__(self) -> None:
        if not isinstance(self.visit_sequence, tuple):
            object.__setattr__(self, "visit_sequence", tuple(self.visit_sequence))
        object.__setattr__(self, "total_length", float(self.total_length))
        # a NaN would pass every length comparison a verifier makes
        if not math.isfinite(self.total_length):
            raise ValueError(f"walk length must be finite, got {self.total_length!r}")
        if self.total_length < 0:
            raise ValueError("walk length cannot be negative")


def crystal_metric(board: BondBoard) -> tuple[tuple[float, ...], ...]:
    """Pairwise walking distances over the crystals, start appended last.

    Row/column i < r is crystal i; when the board has a start point it
    occupies the final index r.  Raises UnreachableCrystal if any pair is
    separated.  A process keeps the last metric built, keyed on the region,
    the points and the distance model, so an equal board (a walk solved,
    then verified) reuses it; its rows are tuples, so no caller can change
    it.  A separated board caches nothing and raises on every call.
    """
    points = board.crystals if board.start is None else board.crystals + (board.start,)
    return _metric_of(board.region, points, board.distance_model)


@lru_cache(maxsize=1)
def _metric_of(
    region: TileRegion, points: tuple[Point, ...], model: str
) -> tuple[tuple[float, ...], ...]:
    if model == "grid":
        matrix = grid_distance_matrix(region, [tile_of(p) for p in points])
    else:
        matrix = euclidean_geodesic_matrix(region, list(points))
    for row in matrix:
        for d in row:
            if math.isinf(d):
                raise UnreachableCrystal("region does not connect all crystals")
    return tuple(map(tuple, matrix))


def _roots(n: int, edges) -> list[int]:
    """Union-find root of each vertex 0..n-1 once every edge has joined its
    ends; vertices share a root exactly when the edges connect them."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return [find(v) for v in range(n)]


def _matching_cost(
    metric: list[list[float]], members: list[int], table: dict, partner: bytearray, mask: int
) -> float:
    """Cost of the cheapest pairing of the set bits of `mask` over `members`.
    Each mask it solves stores its cost in `table`, and in `partner` the
    partner its lowest bit took: the first in bit order under a strict <.
    A submask already in `table` is read there; only a miss recurses."""
    if mask in table:
        return table[mask]
    low = (mask & -mask).bit_length() - 1
    row = metric[members[low]]
    best, choice = math.inf, 0
    rest = mask & ~(1 << low)
    m = rest
    while m:
        bit = m & -m
        sub = table.get(rest ^ bit)
        if sub is None:
            sub = _matching_cost(metric, members, table, partner, rest ^ bit)
        j = bit.bit_length() - 1
        cand = row[members[j]] + sub
        if cand < best:
            best, choice = cand, j
        m ^= bit
    table[mask] = best
    partner[mask] = choice
    return best


def _min_matching(
    metric: list[list[float]], members: list[int]
) -> tuple[Callable[[int], float], Callable[[int], list[tuple[int, int]]]]:
    """Exact minimum-weight perfect matching of an even subset.

    Returns (cost, pairs): cost(mask) is the cheapest way to pair up exactly
    the set bits of a bitmask over `members`, and pairs(mask) reads one such
    pairing back along the partner each solved mask recorded for its lowest
    bit.  Subset DP, solved on demand, so only the masks a caller reaches
    are filled; len(members) stays small, and a partner index fits in a
    byte.  No function refers to itself, so no cycle keeps the table alive.
    """
    partner = bytearray(1 << len(members))

    def pairs(mask: int) -> list[tuple[int, int]]:
        out = []
        while mask:
            low, j = (mask & -mask).bit_length() - 1, partner[mask]
            out.append((members[low], members[j]))
            mask &= ~(1 << low) & ~(1 << j)
        return out

    return partial(_matching_cost, metric, members, {0: 0.0}, partner), pairs


def _euler_trail(
    vertices: list[int], edges: list[tuple[int, int]], start: int
) -> list[int]:
    """Open Euler trail through every edge, starting at `start` (Hierholzer)."""
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vertices}
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


def rural_postman_connected(
    metric: list[list[float]],
    required_edges: list[tuple[int, int]],
    start_index: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Minimum walk covering each required edge as a consecutive pair.

    The required edges must be connected over the vertices they touch.  Let O
    be the odd-degree vertices of the required multigraph.  Each ordered
    endpoint choice (a, b) from O costs the required weight plus a minimum
    perfect matching of the remaining odd vertices (deadheads through the
    metric closure) plus the leg from the start.  Closed tours compete too:
    pairing up all of O and re-entering at any covered vertex u costs the
    required weight plus the full matching plus the leg to u, and beats every
    open walk when the start sits beside an even-degree crystal (the open
    endpoints are then both far away, while the full matching is cheap).  The
    cheapest candidate's deadheads, read back from the partners its matching
    recorded, are unrolled with the required edges into an Euler trail.  The
    legs are the start's metric row, or a row of int zeros when start_index
    is None: the walk may then begin at any crystal, every closed tour costs
    the same, and an integer metric keeps an integer total.
    """
    if not required_edges:
        return (), 0.0
    touched = sorted({v for e in required_edges for v in e})
    roots = _roots(len(metric), required_edges)
    if len({roots[v] for v in touched}) > 1:
        raise ValueError("required edges are disconnected; use the exhaustive oracle")

    degree = Counter(v for e in required_edges for v in e)
    odd = [v for v in touched if degree[v] % 2 == 1]
    if len(odd) > ODD_SET_LIMIT:
        raise InstanceTooLarge(f"{len(odd)} odd-degree crystals exceed {ODD_SET_LIMIT}")
    required_weight = sum(metric[a][b] for a, b in required_edges)

    matching, pairs = _min_matching(metric, odd)
    full = (1 << len(odd)) - 1
    # (first crystal, mask of the odd crystals to match): the open walks,
    # then the closed tours; min keeps the first cheapest
    walks = [(a, full & ~(1 << i) & ~(1 << j)) for i, a in enumerate(odd) for j in range(len(odd)) if i != j]
    walks += [(u, full) for u in touched]
    legs = [0] * len(metric) if start_index is None else metric[start_index]
    a, mask = min(walks, key=lambda walk: required_weight + matching(walk[1]) + legs[walk[0]])
    trail = _euler_trail(touched, list(required_edges) + pairs(mask), a)
    return tuple(trail), sum(metric[u][w] for u, w in zip(trail, trail[1:])) + legs[trail[0]]


def solve_crystal_bonds(board: BondBoard) -> BondWalk:
    """Optimal bonding walk for a standard (single spanning tree) board."""
    if not board.connected:
        raise ValueError("bond graph must be a single spanning tree")
    metric = crystal_metric(board)
    start_index = None if board.start is None else len(board.crystals)
    seq, total = rural_postman_connected(metric, list(board.required_bonds), start_index)
    return BondWalk(seq, total)


def brute_force_crystal_bonds(board: BondBoard) -> BondWalk:
    """Exhaustive optimum over every bond ordering and traversal direction.

    One bottom-up table over (covered-bond mask, crystal last stood on),
    filled from the full mask down to the root state (0, start); the walk is
    read back along each entry's first step.  Independent of the
    rural-postman pipeline; used as its exactness oracle and as the decision
    routine for reduced (disconnected) instances.
    """
    bonds = board.required_bonds
    if len(bonds) > 8:
        raise InstanceTooLarge("exhaustive search is limited to 8 bonds")
    if not bonds:
        return BondWalk((), 0.0)
    metric = crystal_metric(board)
    root = None if board.start is None else len(board.crystals)
    free_start = [0.0] * len(metric)
    full = (1 << len(bonds)) - 1
    # table[mask][last] = (cost, step): the cheapest way to walk the bonds
    # outside `mask` from `last`, and its first step (mask | bond bit, u, w)
    table: list[dict] = [{} for _ in range(full)]
    table.append({x: (0.0, None) for bond in bonds for x in bond})
    for mask in range(full - 1, -1, -1):
        # the crystals a covered bond can leave the walk on, and the mask's
        # first steps, bond by bond, each orientation in turn:
        # (u, metric[u][w], cost of the rest from w, step)
        lasts, steps = set(), []
        for i, (p, q) in enumerate(bonds):
            bit = 1 << i
            if mask & bit:
                lasts.update((p, q))
                continue
            after = table[mask | bit]
            for u, w in ((p, q), (q, p)):
                steps.append((u, metric[u][w], after[w][0], (mask | bit, u, w)))
        row = table[mask]
        for last in lasts or (root,):
            lead = free_start if last is None else metric[last]
            best, first = math.inf, None
            for u, hop, tail, step in steps:
                cand = lead[u] + hop + tail
                if cand < best:
                    best, first = cand, step
            row[last] = (best, first)

    seq: list[int] = []
    step = table[0][root][1]
    while step is not None:
        mask, u, w = step
        if not seq or seq[-1] != u:
            seq.append(u)
        seq.append(w)
        step = table[mask][w][1]
    return BondWalk(tuple(seq), table[0][root][0])


def verify_bond_walk(board: BondBoard, walk: BondWalk) -> Verdict:
    """Check bond coverage and the claimed total length (1e-9 tolerance)."""
    r = len(board.crystals)
    for i in walk.visit_sequence:
        if not (0 <= i < r):
            return Verdict(False, "bad crystal index", i)
    pairs = {
        (min(a, b), max(a, b))
        for a, b in zip(walk.visit_sequence, walk.visit_sequence[1:])
    }
    for bond in board.required_bonds:
        if bond not in pairs:
            return Verdict(False, "missing bond", bond)
    metric = crystal_metric(board)
    total = sum(
        metric[a][b] for a, b in zip(walk.visit_sequence, walk.visit_sequence[1:])
    )
    if board.start is not None and walk.visit_sequence:
        total += metric[len(board.crystals)][walk.visit_sequence[0]]
    if abs(total - walk.total_length) > 1e-9:
        return Verdict(False, "length mismatch", total)
    return Verdict(True)


def reduce_grid_to_dcb(g: GridGraph) -> tuple[BondBoard, int]:
    """Blow a grid graph up into a disconnected-bonds board plus a budget.

    Vertices are scaled by 2v+1 and each graph edge becomes a straight
    corridor of 2v intermediate tiles, so walking one former edge costs
    exactly 2v+1 steps.  Every vertex crystal is bonded to a partner crystal
    on the first adjacent tile in east/north/west/south order.  A walk within
    the returned threshold (v-1)(2v+1) + 2v exists exactly when the graph has
    a Hamiltonian path; without one, every covering walk crosses at least
    v(2v+1) tiles.
    """
    v = len(g)
    if v < 2 or not g.is_connected():
        raise ValueError("reduction needs a connected graph with at least 2 vertices")
    scale = 2 * v + 1
    tiles = set()
    for x, y in g.vertices:
        tiles.add((scale * x, scale * y))
    for (ax, ay), (bx, by) in grid_edges(g):
        dx, dy = bx - ax, by - ay
        for step in range(1, scale):
            tiles.add((scale * ax + dx * step, scale * ay + dy * step))
    region = TileRegion(frozenset(tiles))

    vertices = g.sorted_vertices()
    crystals = [tile_center((scale * x, scale * y)) for x, y in vertices]
    for x, y in vertices:
        sx, sy = scale * x, scale * y
        for cand in ((sx + 1, sy), (sx, sy + 1), (sx - 1, sy), (sx, sy - 1)):
            if cand in tiles:
                crystals.append(tile_center(cand))
                break
        else:
            raise AssertionError("connected graph vertex lost all corridors")
    bonds = tuple((i, v + i) for i in range(v))
    board = BondBoard(region, tuple(crystals), None, bonds, "grid")
    return board, (v - 1) * scale + 2 * v


def apply_start_gadget(board: BondBoard, g: GridGraph) -> tuple[BondBoard, int, str]:
    """Pin the player's start to a far-side tile of a reduced board.

    Returns (new board, decision threshold, detected property).  A leftmost
    degree-1 vertex just gets a start tile to its west and the board keeps
    detecting Hamiltonian paths (degree-1 vertices are forced path endpoints,
    so pinning the start there is harmless).  Otherwise the topmost vertex of
    the leftmost column has degree exactly 2 with corridors east and south;
    the start goes to its west, the first south-corridor tile is removed, and
    the broken corridor grows a two-tile westward hook carrying one new
    bonded crystal pair.  Reaching that hook forces a full tour back to the
    anchor's neighborhood, so a walk within v(2v+1) + 2v exists exactly when
    the graph has a Hamiltonian cycle.
    """
    v = len(g)
    if len(board.crystals) != 2 * v or board.start is not None:
        raise ValueError("board is not an unmodified reduction output")
    scale = 2 * v + 1
    min_x = min(x for x, _ in g.vertices)
    column = [p for p in g.vertices if p[0] == min_x]
    leaf_anchors = sorted(p for p in column if g.degree(p) == 1)
    ax, ay = leaf_anchors[0] if leaf_anchors else max(column, key=lambda p: p[1])
    if not leaf_anchors and g.degree((ax, ay)) != 2:
        raise AssertionError("topmost leftmost vertex must have degree 2 here")
    sax, say = scale * ax, scale * ay
    start_tile = (sax - 1, say)
    # the cycle branch's westward hook; it cuts the anchor's south corridor
    hook = [] if leaf_anchors else [(sax - 1, say - 2), (sax - 2, say - 2)]
    tiles = board.region.tiles | {start_tile, *hook}
    if hook:
        tiles -= {(sax, say - 1)}
    crystals = board.crystals + tuple(tile_center(t) for t in hook)
    bonds = board.required_bonds + (((2 * v, 2 * v + 1),) if hook else ())
    out = BondBoard(TileRegion(tiles), crystals, tile_center(start_tile), bonds, "grid")
    return out, (v if hook else v - 1) * scale + 2 * v, "ham-cycle" if hook else "ham-path"


def decide_dcb(board: BondBoard, threshold: float) -> bool:
    """True when some covering walk is no longer than the threshold.

    A region that fails to connect the crystals has no covering walk at all
    (the optimum is infinite), which the start gadget can produce when its
    corridor break severs a bridge of the source graph; that is a plain
    "no" rather than an error.
    """
    try:
        walk = brute_force_crystal_bonds(board)
    except UnreachableCrystal:
        return False
    return walk.total_length <= threshold + 1e-9


def gen_random_tree_board(
    seed: int,
    box_w: int = 8,
    box_h: int = 8,
    r: int = 7,
    model: str = "grid",
) -> BondBoard:
    """Random connected region with a random spanning bond tree.

    The tree starts as a chain and gets a few leaf rewires, which keeps the
    number of odd-degree crystals at or below ODD_SET_LIMIT regardless of r.
    """
    rng = random.Random(seed)
    n_tiles = max(r + 1, (box_w * box_h * 2) // 3)
    region = gen_random_region(rng.randrange(2**32), box_w, box_h, n_tiles)
    tiles = sorted(region.tiles)
    crystal_tiles = rng.sample(tiles, r)
    crystals = tuple(tile_center(t) for t in crystal_tiles)
    start = tile_center(rng.choice(tiles))

    order = list(range(r))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    degree = [0] * r
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    rewires = rng.randint(0, max(0, (ODD_SET_LIMIT - 2) // 2)) if r > 3 else 0
    for _ in range(rewires):
        leaves = [i for i in range(r) if degree[i] == 1]
        leaf = rng.choice(leaves)
        neighbor = next(
            (b if a == leaf else a) for a, b in edges if leaf in (a, b)
        )
        c = rng.choice([c for c in range(r) if c not in (leaf, neighbor)])
        edges.remove((min(leaf, neighbor), max(leaf, neighbor)))
        edges.add((min(leaf, c), max(leaf, c)))
        degree[neighbor] -= 1
        degree[c] += 1
    return BondBoard(region, crystals, start, tuple(sorted(edges)), model)
