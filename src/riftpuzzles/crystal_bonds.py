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
from dataclasses import dataclass
from typing import Callable

from .geometry import (
    Point,
    TileRegion,
    euclidean_geodesic_matrix,
    grid_distance_matrix,
    gen_random_region,
    tile_center,
    tile_of,
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
            t = tile_of(p)
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
        # forest check: union-find over bond endpoints
        parent = list(range(len(self.crystals)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.required_bonds:
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("required bonds must form a forest")
            parent[ra] = rb

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
        if self.total_length < 0:
            raise ValueError("walk length cannot be negative")


def crystal_metric(board: BondBoard) -> list[list[float]]:
    """Pairwise walking distances over the crystals, start appended last.

    Row/column i < r is crystal i; when the board has a start point it
    occupies the final index r.  Raises UnreachableCrystal if any pair is
    separated.
    """
    points = list(board.crystals)
    if board.start is not None:
        points.append(board.start)
    if board.distance_model == "grid":
        matrix = grid_distance_matrix(board.region, [tile_of(p) for p in points])
    else:
        matrix = euclidean_geodesic_matrix(board.region, points)
    for row in matrix:
        for d in row:
            if math.isinf(d):
                raise UnreachableCrystal("region does not connect all crystals")
    return matrix


def _min_matching(metric: list[list[float]], members: list[int]) -> Callable[[int], float]:
    """Exact minimum-weight perfect matching cost of an even subset.

    The returned function takes a bitmask over `members` and gives the
    cheapest way to pair up exactly the set bits.  Subset DP, solved on
    demand, so only the masks a caller reaches are filled; len(members)
    stays small.
    """
    table = {0: 0.0}

    def solve(mask: int) -> float:
        if mask in table:
            return table[mask]
        low = (mask & -mask).bit_length() - 1
        best = math.inf
        rest = mask & ~(1 << low)
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            cand = metric[members[low]][members[j]] + solve(rest & ~(1 << j))
            if cand < best:
                best = cand
            m &= m - 1
        table[mask] = best
        return best

    return solve


def _matching_pairs(
    metric: list[list[float]], members: list[int], matching: Callable[[int], float], mask: int
) -> list[tuple[int, int]]:
    """Recover one optimal pairing for the given subset mask."""
    pairs = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            nxt = rest & ~(1 << j)
            cost = metric[members[low]][members[j]] + matching(nxt)
            if abs(cost - matching(mask)) <= 1e-12 * max(1.0, abs(cost)):
                pairs.append((members[low], members[j]))
                mask = nxt
                break
            m &= m - 1
        else:
            raise AssertionError("matching table reconstruction failed")
    return pairs


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
    cheapest candidate overall is unrolled into an Euler trail.  With
    start_index None the walk may begin at any crystal and open walks always
    win, since the full matching contains each reduced one.
    """
    if not required_edges:
        return (), 0.0
    touched = sorted({v for e in required_edges for v in e})
    adj = {v: set() for v in touched}
    for a, b in required_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {touched[0]}
    frontier = [touched[0]]
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if seen != set(touched):
        raise ValueError("required edges are disconnected; use the exhaustive oracle")

    degree = {v: 0 for v in touched}
    for a, b in required_edges:
        degree[a] += 1
        degree[b] += 1
    odd = [v for v in touched if degree[v] % 2 == 1]
    if len(odd) > ODD_SET_LIMIT:
        raise InstanceTooLarge(f"{len(odd)} odd-degree crystals exceed {ODD_SET_LIMIT}")
    required_weight = sum(metric[a][b] for a, b in required_edges)

    matching = _min_matching(metric, odd)
    pos = {v: i for i, v in enumerate(odd)}
    full = (1 << len(odd)) - 1
    best = None
    for a in odd:
        for b in odd:
            if a == b:
                continue
            mask = full & ~(1 << pos[a]) & ~(1 << pos[b])
            cost = required_weight + matching(mask)
            if start_index is not None:
                cost += metric[start_index][a]
            if best is None or cost < best[0]:
                best = (cost, a, mask)
    closed_entries = touched if start_index is not None else touched[:1]
    for u in closed_entries:
        cost = required_weight + matching(full)
        if start_index is not None:
            cost += metric[start_index][u]
        if best is None or cost < best[0]:
            best = (cost, u, full)
    cost, a, mask = best
    deadheads = _matching_pairs(metric, odd, matching, mask)
    trail = _euler_trail(touched, list(required_edges) + deadheads, a)
    total = sum(metric[u][w] for u, w in zip(trail, trail[1:]))
    if start_index is not None:
        total += metric[start_index][trail[0]]
    return tuple(trail), total


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

    Independent of the rural-postman pipeline; used as its exactness oracle
    and as the decision routine for reduced (disconnected) instances.
    """
    bonds = board.required_bonds
    if len(bonds) > 8:
        raise InstanceTooLarge("exhaustive search is limited to 8 bonds")
    if not bonds:
        return BondWalk((), 0.0)
    metric = crystal_metric(board)
    start_index = None if board.start is None else len(board.crystals)
    full = (1 << len(bonds)) - 1
    memo: dict[tuple[int, int], tuple[float, tuple]] = {}

    def after(mask: int, last: int) -> tuple[float, tuple]:
        if mask == full:
            return 0.0, ()
        key = (mask, last)
        if key in memo:
            return memo[key]
        best = (math.inf, ())
        for i, (p, q) in enumerate(bonds):
            if mask & (1 << i):
                continue
            for u, w in ((p, q), (q, p)):
                tail_cost, tail = after(mask | (1 << i), w)
                cand = metric[last][u] + metric[u][w] + tail_cost
                if cand < best[0]:
                    best = (cand, ((u, w),) + tail)
        memo[key] = best
        return best

    best = (math.inf, ())
    for i, (p, q) in enumerate(bonds):
        for u, w in ((p, q), (q, p)):
            tail_cost, tail = after(1 << i, w)
            first_leg = 0.0 if start_index is None else metric[start_index][u]
            cand = first_leg + metric[u][w] + tail_cost
            if cand < best[0]:
                best = (cand, ((u, w),) + tail)

    seq: list[int] = []
    for u, w in best[1]:
        if not seq or seq[-1] != u:
            seq.append(u)
        seq.append(w)
    return BondWalk(tuple(seq), best[0])


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
    if leaf_anchors:
        ax, ay = leaf_anchors[0]
        sax, say = scale * ax, scale * ay
        start_tile = (sax - 1, say)
        region = TileRegion(board.region.tiles | {start_tile})
        out = BondBoard(
            region,
            board.crystals,
            tile_center(start_tile),
            board.required_bonds,
            "grid",
        )
        return out, (v - 1) * scale + 2 * v, "ham-path"

    ax, ay = max(column, key=lambda p: p[1])
    if g.degree((ax, ay)) != 2:
        raise AssertionError("topmost leftmost vertex must have degree 2 here")
    sax, say = scale * ax, scale * ay
    start_tile = (sax - 1, say)
    hook = [(sax - 1, say - 2), (sax - 2, say - 2)]
    tiles = (board.region.tiles | {start_tile, *hook}) - {(sax, say - 1)}
    region = TileRegion(tiles)
    crystals = board.crystals + tuple(tile_center(t) for t in hook)
    bonds = board.required_bonds + ((2 * v, 2 * v + 1),)
    out = BondBoard(region, crystals, tile_center(start_tile), bonds, "grid")
    return out, v * scale + 2 * v, "ham-cycle"


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
    max_odd: int = ODD_SET_LIMIT,
) -> BondBoard:
    """Random connected region with a random spanning bond tree.

    The tree starts as a chain and gets a few leaf rewires, which keeps the
    number of odd-degree crystals at or below max_odd regardless of r.
    """
    import random

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
    rewires = rng.randint(0, max(0, (max_odd - 2) // 2)) if r > 3 else 0
    for _ in range(rewires):
        leaves = [i for i in range(r) if degree[i] == 1]
        leaf = rng.choice(leaves)
        neighbor = next(
            (b if a == leaf else a) for a, b in edges if leaf in (a, b)
        )
        choices = [c for c in range(r) if c not in (leaf, neighbor)]
        if not choices:
            break
        c = rng.choice(choices)
        edges.remove((min(leaf, neighbor), max(leaf, neighbor)))
        edges.add((min(leaf, c), max(leaf, c)))
        degree[neighbor] -= 1
        degree[c] += 1
    return BondBoard(region, crystals, start, tuple(sorted(edges)), model)
