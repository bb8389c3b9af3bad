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
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass

from .geometry import (
    EPS,
    Point,
    TileRegion,
    gen_random_region,
    tile_center,
    tile_of,
    _exact_tile,
    _Geodesics,
    _GridDistances,
    _scaled,
)
from .graphs import ORTHO_STEPS, GridGraph, InstanceTooLarge, Verdict, grid_edges, _euler_trail

MODELS = ("grid", "euclid")

# leaf rewires of a random bond tree: a chain's two odd crystals, plus two per rewire
REWIRE_LIMIT = 7


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


def crystal_metric(board: BondBoard) -> Sequence[Sequence[float]]:
    """Pairwise walking distances over the crystals, start appended last.

    Row/column i < r is crystal i; when the board has a start point it
    occupies the final index r.  The metric is a tuple of read-only
    geometry._Row views, grid or euclid, computing each entry on first read.
    Raises UnreachableCrystal if any pair is separated, as the grid engine's
    last row shows under either model.  A process keeps the last metric
    built, keyed on the region, the points and the distance model, so an
    equal board (a walk solved, then verified) reuses it and the entries
    already read.  A separated board caches nothing and raises each time.
    Under `grid` the last metric seeds the next one when its points extend
    the last's and its region adds only tiles with at most one orthogonal
    neighbour: such a dead end lies on no shortest walk between other
    tiles, so the exact int entries already computed hold.  A `euclid`
    metric, whose corners and pinches a new tile moves, is never seeded.
    """
    points = board.crystals if board.start is None else board.crystals + (board.start,)
    return _metric_of(board.region, points, board.distance_model)


# the last metric built: (region, points, model), its rows, and its table under grid
_LAST: list = []


def _metric_of(region: TileRegion, points: tuple[Point, ...], model: str) -> Sequence[Sequence[float]]:
    key = (region, points, model)
    if _LAST and _LAST[0] == key:
        return _LAST[1]
    grid = _GridDistances(region.tiles, [tile_of(p) for p in points])
    if _LAST and model == _LAST[0][2] == "grid":  # crystal_metric's seed rule
        (last, last_points, _), tiles = _LAST[0], region.tiles
        if points[: len(last_points)] == last_points and last.tiles < tiles and all(
            sum((x + dx, y + dy) in tiles for dx, dy in ORTHO_STEPS) <= 1 for x, y in tiles - last.tiles
        ):
            for row, old in zip(grid.table, _LAST[2]):
                row[: len(old)] = old
    if points and math.inf in grid.fill(len(points) - 1):
        raise UnreachableCrystal("region does not connect all crystals")
    rows = grid.rows() if model == "grid" else _Geodesics(region, list(points)).rows()
    _LAST[:] = key, rows, grid.table if model == "grid" else None
    return rows


_metric_of.cache_clear = _LAST.clear


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


class _Blossom:
    """Minimum-cost perfect matching of the complete graph on len(cost)
    vertices (an even number) under symmetric integer costs: Edmonds'
    primal-dual blossom algorithm in its dense O(n^3) form (Galil, 1986).
    It maximizes the weights top - cost with doubled duals, so every step is
    an integer; no vertex dual is bounded below, so the matching is perfect.
    Vertices are 1..n, blossoms n+1..2n, 0 is none; no method recurses."""

    def __init__(self, cost: list[list[int]]) -> None:
        n = self.n = self.nx = len(cost)
        top, m = max(map(max, cost)) + 1, 2 * n + 1
        self.w2 = [[0] * (n + 1)] + [[0] + [2 * (top - c) for c in row] for row in cost]
        self.lab = [0] + [top] * n + [0] * n
        # g[x][y]: the least-slack edge (vertex of x, vertex of y) between two tops
        self.g = [[None] + [(u, v) for v in range(1, n + 1)] + [None] * n for u in range(n + 1)]
        self.g += [[None] * m for _ in range(n)]
        self.flower: list[list[int]] = [[] for _ in range(m)]
        # label: 0 outer, 1 inner, -1 free; slack[x]: the outer vertex u whose
        # edge g[u][x] has the least slack, sv[x], into a free or outer top x
        # st[x]: the top blossom holding x; pa[x]: the outer vertex inner top x hangs from
        self.match, self.slack, self.sv, self.pa, self.label = ([0] * m for _ in range(5))
        self.st, self.queue = list(range(n + 1)) + [0] * n, deque()

    def mate(self) -> list[int]:
        while self.phase():
            pass
        return [self.match[u] - 1 for u in range(1, self.n + 1)]

    def delta(self, e: tuple[int, int]) -> int:
        return self.lab[e[0]] + self.lab[e[1]] - self.w2[e[0]][e[1]]

    def note_slack(self, u: int, x: int) -> None:
        d = self.delta(self.g[u][x])
        if not self.slack[x] or d < self.sv[x]:
            self.slack[x], self.sv[x] = u, d

    def reset_slack(self, x: int) -> None:
        self.slack[x] = 0
        for u in range(1, self.n + 1):
            if self.st[u] != x and self.label[self.st[u]] == 0:
                self.note_slack(u, x)

    def nested(self, x: int) -> list[int]:
        out = [x]
        for y in out:
            out += self.flower[y]
        return out

    def push(self, x: int) -> None:
        self.queue.extend([x] if x <= self.n else [y for y in self.nested(x) if y <= self.n])

    def orient(self, b: int, v: int) -> tuple[int, int]:
        """The member of b's cycle that holds vertex v, and its place in the
        cycle, reversed first if that makes the place even."""
        fl = self.flower[b]
        xr = next(xs for xs in fl if v in self.nested(xs))
        if fl.index(xr) % 2:
            fl[1:] = fl[:0:-1]
        return xr, fl.index(xr)

    def set_match(self, u: int, v: int) -> None:
        todo = [(u, v)]
        while todo:
            u, v = todo.pop()
            e = self.g[u][v]
            self.match[u] = e[1]
            if u > self.n:
                xr, pr = self.orient(u, e[0])
                fl = self.flower[u]
                todo += [(fl[i], fl[i ^ 1]) for i in range(pr)] + [(xr, v)]
                self.flower[u] = fl[pr:] + fl[:pr]

    def augment(self, u: int, v: int) -> None:
        while True:
            xnv = self.st[self.match[u]]
            self.set_match(u, v)
            if not xnv:
                return
            self.set_match(xnv, self.st[self.pa[xnv]])
            u, v = self.st[self.pa[xnv]], xnv

    def lca(self, u: int, v: int) -> int:
        """Where the tree paths up from u and v meet; 0 in two trees."""
        seen = set()
        for x in (u, v):
            while x:
                if x in seen:
                    return x
                seen.add(x)
                x = self.st[self.match[x]]
                x = x and self.st[self.pa[x]]
        return 0

    def add_blossom(self, u: int, a: int, v: int) -> None:
        n, st, g = self.n, self.st, self.g
        b = next(b for b in range(n + 1, 2 * n + 1) if b > self.nx or not st[b])
        self.nx = max(self.nx, b)
        self.lab[b], self.label[b], self.match[b] = 0, 0, self.match[a]
        fl = [a]
        for x, back in ((u, True), (v, False)):
            path = []
            while x != a:
                y = st[self.match[x]]
                path += [x, y]
                self.push(y)
                x = st[self.pa[y]]
            fl += path[::-1] if back else path
        self.flower[b] = fl
        for y in self.nested(b):
            st[y] = b
        g[b] = [None] * (2 * n + 1)  # the first member fills row and column b
        for xs in fl:
            for x in range(1, self.nx + 1):
                e = g[xs][x]
                if g[b][x] is None or (e and self.delta(e) < self.delta(g[b][x])):
                    g[b][x], g[x][b] = e, g[x][xs]
        self.reset_slack(b)

    def expand(self, b: int) -> None:
        for x in self.flower[b]:
            for y in self.nested(x):
                self.st[y] = x
        xr, pr = self.orient(b, self.g[b][self.pa[b]][0])
        fl = self.flower[b]
        for i in range(0, pr, 2):
            xs, xns = fl[i], fl[i + 1]
            self.pa[xs] = self.g[xns][xs][0]
            self.label[xs], self.label[xns], self.slack[xs] = 1, 0, 0
            self.reset_slack(xns)
            self.push(xns)
        self.label[xr], self.pa[xr] = 1, self.pa[b]
        for xs in fl[pr + 1 :]:
            self.label[xs] = -1
            self.reset_slack(xs)
        self.st[b] = 0

    def found(self, e: tuple[int, int]) -> bool:
        """Grow a tree, shrink a blossom or augment on the tight edge e."""
        u, v = self.st[e[0]], self.st[e[1]]
        if self.label[v] == -1:
            self.pa[v], self.label[v] = e[0], 1
            nu = self.st[self.match[v]]
            self.slack[v] = self.slack[nu] = self.label[nu] = 0
            self.push(nu)
        elif self.label[v] == 0:
            a = self.lca(u, v)
            if not a:
                self.augment(u, v)
                self.augment(v, u)
                return True
            self.add_blossom(u, a, v)
        return False

    def phase(self) -> bool:
        """Grow every free vertex's tree until one augmentation, if any."""
        n, nx, st, lab, label, slack, sv = self.n, self.nx, self.st, self.lab, self.label, self.slack, self.sv
        w2, found = self.w2, self.found
        label[1 : nx + 1], slack[1 : nx + 1] = [-1] * nx, [0] * nx
        self.queue.clear()
        roots = [x for x in range(1, nx + 1) if st[x] == x and not self.match[x]]
        for x in roots:
            self.pa[x] = label[x] = 0
            self.push(x)
        while roots:
            while self.queue:
                u = self.queue.popleft()
                top, lu, wu = st[u], lab[u], w2[u]
                for v in range(1, n + 1) if label[top] != 1 else ():
                    x = st[v]
                    if x == top or label[x] == 1:
                        continue
                    dl = lu + lab[v] - wu[v]
                    if not dl:
                        if found((u, v)):
                            return True
                        top = st[u]
                    elif x > n:
                        self.note_slack(u, x)  # u's least slack into x, whichever v of x this is
                    elif not slack[x] or dl < sv[x]:
                        slack[x], sv[x] = u, dl
            tops = [x for x in range(1, self.nx + 1) if st[x] == x]
            # the dual step: an inner blossom's dual, or a free or outer top's least slack
            d = min([lab[b] // 2 for b in tops if b > n and label[b] == 1]
                    + [sv[x] // (2 + label[x]) for x in tops if slack[x] and label[x] != 1])
            for u in range(1, n + 1):
                lab[u] += (-d, d, 0)[label[st[u]]]
            for x in tops:
                lab[x] += (2 * d, -2 * d, 0)[label[x]] if x > n else 0
                sv[x] -= (2 + label[x]) * d if slack[x] and label[x] != 1 else 0
            self.queue.clear()
            for x in tops:
                if st[x] == x and slack[x] and label[x] != 1 and st[slack[x]] != x and not sv[x]:
                    if self.found(self.g[slack[x]][x]):
                        return True
            for b in range(n + 1, self.nx + 1):
                if st[b] == b and label[b] == 1 and lab[b] == 0:
                    self.expand(b)
        return False


def rural_postman_connected(
    metric: list[list[float]],
    required_edges: list[tuple[int, int]],
    start_index: int | None = None,
) -> tuple[tuple[int, ...], float]:
    """Minimum walk covering each required edge as a consecutive pair.

    The required edges must be connected over the vertices they touch.  One
    perfect matching over T = O + {S, Z}, where O holds the odd-degree
    vertices, picks the walk's first crystal (S's partner), its end (Z's
    partner) and its deadheads (Edmonds & Johnson, 1973).  Two crystals of O
    cost their metric distance, S and u the leg to u, Z and u nothing, and S
    and Z a closed tour: the leg to the first cheapest touched crystal.  The
    legs are the start's metric row, or int zeros when start_index is None.
    Costs are scaled to exact integers, and a penalty below one unit keeps
    the walk the former subset DP chose among equal ones: the first crystal
    earliest in O, closed tours last; then the end earliest in O; then, for
    each unpaired crystal of O in order, the earliest partner.
    """
    if not required_edges:
        return (), 0.0
    touched = sorted({v for e in required_edges for v in e})
    roots = _roots(len(metric), required_edges)
    if len({roots[v] for v in touched}) > 1:
        raise ValueError("required edges are disconnected; use the exhaustive oracle")

    degree = Counter(v for e in required_edges for v in e)
    odd = [v for v in touched if degree[v] % 2 == 1]
    legs = [0] * len(metric) if start_index is None else metric[start_index]
    tour = min(touched, key=legs.__getitem__)
    # T is O in order, then S = k and Z = k + 1.  A pair costs its scaled length
    # in units of power[k + 2], plus its rank among the choices of the end that
    # picks it (S, then Z, then O in order) at that end's place; all sum below a unit
    k = len(odd)
    power = [(k + 1) ** p for p in range(k + 3)]
    pairs = {(i, j): (metric[odd[i]][odd[j]], j, k - 1 - i) for i in range(k) for j in range(i + 1, k)}
    pairs.update({(i, k): (legs[odd[i]], i, k + 1) for i in range(k)})
    pairs.update({(i, k + 1): (0, i, k) for i in range(k)})
    pairs[k, k + 1] = (legs[tour], k, k + 1)
    _, units = _scaled(*(length for length, _, _ in pairs.values()))
    cost = [[0] * (k + 2) for _ in range(k + 2)]
    for ((i, j), (_, rank, place)), length in zip(pairs.items(), units):
        cost[i][j] = cost[j][i] = length * power[k + 2] + rank * power[place]
    mate = _Blossom(cost).mate()
    deadheads = [(odd[i], odd[j]) for i, j in enumerate(mate[:k]) if i < j < k]
    first = tour if mate[k] == k + 1 else odd[mate[k]]
    trail = _euler_trail(touched, list(required_edges) + deadheads, first)
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

    `_bond_table` gives the links and the table of costs over (covered-bond
    mask, crystal last stood on); only the root, mask 0, reads the start.
    The walk is read back as each mask's first move in the links' order
    that meets the cost left.  No bonds cost 0 and build no metric.
    Independent of the rural-postman pipeline and of `decide_dcb`'s search;
    used as the exactness oracle of both.
    """
    bonds = board.required_bonds
    if len(bonds) > 8:
        raise InstanceTooLarge("exhaustive search is limited to 8 bonds")
    if not bonds:
        return BondWalk((), 0.0)
    metric = crystal_metric(board)
    r = len(board.crystals)
    rows = [tuple(row)[:r] for row in metric[:r]]
    links, cost = _bond_table(rows, bonds)
    lead = [0.0] * r if board.start is None else metric[r]
    best = left = min(lead[u] + hop + cost[bit][w] for bit, p, pq, q, qp in links
                      for u, hop, w in ((p, pq, q), (q, qp, p)))
    seq, mask = [], 0
    for _ in links:
        # the table's own sums in its order: the first to meet the cost left is the move its strict < kept
        bit, u, w = next((bit, u, w) for bit, p, pq, q, qp in links if not mask & bit
                         for u, hop, w in ((p, pq, q), (q, qp, p)) if lead[u] + hop + cost[mask | bit][w] == left)
        if not seq or seq[-1] != u:
            seq.append(u)
        seq.append(w)
        mask |= bit
        left, lead = cost[mask][w], rows[w]
    return BondWalk(tuple(seq), best)


def _bond_table(metric: Sequence[Sequence[float]], bonds: tuple[tuple[int, int], ...]) -> tuple[list, list]:
    """The links, (bit, p, metric[p][q], q, metric[q][p]) for each bond
    (p, q), and cost[mask][last], the cheapest walk of the bonds outside
    `mask` from a crystal a covered bond ends on, for each mask >= 1.  Every
    mask, the root and the readback try the links in order, p to q, then q
    to p.  Only `brute_force_crystal_bonds` builds one, afresh per call."""
    r, full = len(metric), (1 << len(bonds)) - 1
    # ends[mask]: the crystals a covered bond can leave the walk on, as bits
    ends = [0] * (full + 1)
    for mask in range(1, full + 1):
        p, q = bonds[(mask & -mask).bit_length() - 1]
        ends[mask] = ends[mask & (mask - 1)] | 1 << p | 1 << q
    links = [(1 << i, p, metric[p][q], q, metric[q][p]) for i, (p, q) in enumerate(bonds)]
    cost: list = [None] * full + [[0.0] * r]
    for mask in range(full - 1, 0, -1):
        moves = []
        for bit, p, pq, q, qp in links:
            if not mask & bit:
                after = cost[mask | bit]
                moves += ((p, pq, after[q]), (q, qp, after[p]))
        row = [math.inf] * r
        lasts = ends[mask]
        while lasts:
            last = (lasts & -lasts).bit_length() - 1
            lasts &= lasts - 1
            lead = metric[last]
            best = math.inf
            for u, hop, tail in moves:
                cand = lead[u] + hop + tail
                if cand < best:
                    best = cand
            row[last] = best
        cost[mask] = row
    return links, cost


def verify_bond_walk(board: BondBoard, walk: BondWalk) -> Verdict:
    """Check bond coverage and the claimed total length (EPS tolerance)."""
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
    if abs(total - walk.total_length) > EPS:
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
    bonds = tuple((i, v + i) for i in range(v))
    board = BondBoard(region, tuple(crystals), None, bonds, "grid")
    return board, (v - 1) * scale + 2 * v


def apply_start_gadget(board: BondBoard, g: GridGraph) -> tuple[BondBoard, int, str]:
    """Pin the player's start to a far-side tile of a reduced board.

    Returns (new board, decision threshold, detected property).  A leftmost
    degree-1 vertex just gets a start tile to its west and the board keeps
    detecting Hamiltonian paths (degree-1 vertices are forced path endpoints,
    so pinning the start there is harmless).  Otherwise the topmost vertex of
    the leftmost column has degree exactly 2 with corridors east and south
    (in a connected graph; where it is isolated, the graph is refused);
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
        raise ValueError("topmost leftmost vertex is isolated: not the graph the board was reduced from")
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

    A forward search over the brute force's states (covered-bond mask, last
    crystal) in increasing mask order, each kept at its cheapest cost and
    expanded once (Held & Karp, 1962).  A move is dropped when its cost plus
    a bound on the rest is over the threshold (Land & Doig, 1960): every leg
    after the first leaves a covered bond's crystal, so each uncovered bond
    costs at least its shorter traversal plus its cheapest entry from another
    bond's crystal (0 at a shared one).  "Yes" once a full-mask state
    survives.  The tolerance comes off the cost, and a float compares with
    an int exactly, so any int threshold is decided.  In the brute force's
    order: over 8 bonds is refused; no bonds cost 0; a region that cuts the
    crystals apart (the start gadget's corridor break can sever a bridge)
    is a plain "no".  Whole crystal rows are read, so in `sweep dcb` a path
    gadget's metric is seeded from the plain board's (see crystal_metric).
    """
    bonds = board.required_bonds
    if len(bonds) > 8:
        raise InstanceTooLarge("exhaustive search is limited to 8 bonds")
    if not bonds:
        return -EPS <= threshold
    try:
        metric = crystal_metric(board)
    except UnreachableCrystal:
        return False
    r = len(board.crystals)
    leads = [tuple(row)[:r] for row in metric[:r]]
    leads.append([0.0] * r if board.start is None else metric[r])
    links = [(1 << i, p, leads[p][q], q, leads[q][p]) for i, (p, q) in enumerate(bonds)]
    # rest[m]: the least the bonds of m add to a walk that has covered another bond
    rest = [0.0]
    for bit, p, pq, q, qp in links:
        others = {x for b in bonds if b != (p, q) for x in b}
        charge = min(pq, qp) + min([leads[x][p] for x in others] + [leads[x][q] for x in others], default=0.0)
        rest += [t + charge for t in rest]
    full = len(rest) - 1
    states: list = [{} for _ in rest]
    states[0][r] = 0.0  # the root stands on the start, or anywhere at no cost
    for mask, here in enumerate(states[:full]):
        if not here:
            continue
        if states[full]:
            return True
        todo = [(states[mask | bit], rest[full ^ mask ^ bit] - EPS, p, pq, q, qp)
                for bit, p, pq, q, qp in links if not mask & bit]
        for last, cost in here.items():
            lead = leads[last]
            # p to q, then q to p; at the full mask floor is -EPS, so c - EPS <= threshold
            for after, floor, p, pq, q, qp in todo:
                c = cost + lead[p] + pq
                if c + floor <= threshold and c < after.get(q, math.inf):
                    after[q] = c
                c = cost + lead[q] + qp
                if c + floor <= threshold and c < after.get(p, math.inf):
                    after[p] = c
    return bool(states[full])


def gen_random_tree_board(
    seed: int,
    box_w: int = 8,
    box_h: int = 8,
    r: int = 7,
    model: str = "grid",
) -> BondBoard:
    """Random connected region with a random spanning bond tree.

    The tree starts as a chain and gets at most REWIRE_LIMIT leaf rewires,
    so it has at most 16 odd-degree crystals whatever r is.
    """
    if box_w * box_h < r:
        raise ValueError(f"a {box_w}x{box_h} box holds fewer than {r} crystals")
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
    rewires = rng.randint(0, REWIRE_LIMIT) if r > 3 else 0
    for _ in range(rewires):
        degree = Counter(v for e in edges for v in e)
        leaves = [i for i in range(r) if degree[i] == 1]
        leaf = rng.choice(leaves)
        neighbor = next(
            (b if a == leaf else a) for a, b in edges if leaf in (a, b)
        )
        c = rng.choice([c for c in range(r) if c not in (leaf, neighbor)])
        edges.remove((min(leaf, neighbor), max(leaf, neighbor)))
        edges.add((min(leaf, c), max(leaf, c)))
    return BondBoard(region, crystals, start, tuple(sorted(edges)), model)
