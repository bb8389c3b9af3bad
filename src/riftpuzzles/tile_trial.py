"""The step-limit tile puzzle: boards, path verification, an exact solver
exponential only in the board's width, and the reduction from grid-graph
Hamiltonian cycles, whose hardness needs wide or holed boards.

A board is a set of tiles with step capacities 1 or 2.  The player walks
orthogonally from the start tile to the finish tile, may stand on each tile
at most its capacity, and must touch every crystal tile at least once.

The solver refutes a board where a crystal's edges cannot carry 2 steps or
an end's 1, then walks a frontier DP's states depth first.  A state's moves
at a tile depend only on the state and the rules of the tile and its
neighbours, so they are memoized across tiles and boards, for up to
`FRONTIER_STATE_LIMIT` recent pairs of a state and a tile's context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .graphs import (
    FRONTIER_STATE_LIMIT,
    ORTHO_STEPS,
    _SCAN_STATE_LIMIT,
    BudgetExhausted,
    GridGraph,
    Verdict,
    _euler_trail,
)

Tile = tuple[int, int]


@dataclass(frozen=True)
class TileBoard:
    """Capacities map tiles to 1 or 2; start and finish are plain tiles.

    The board keeps its own copy of the capacities, so later edits to the
    caller's dict cannot reach a validated board.
    """

    capacities: dict[Tile, int] = field(hash=False)
    crystals: frozenset[Tile]
    start: Tile
    finish: Tile

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacities", dict(self.capacities))
        if not isinstance(self.crystals, frozenset):
            object.__setattr__(self, "crystals", frozenset(self.crystals))
        tiles = self.capacities
        if not tiles:
            raise ValueError("board must have at least one tile")
        for t, cap in tiles.items():
            if cap not in (1, 2):
                raise ValueError(f"capacity at {t} must be 1 or 2")
        if not self.crystals <= set(tiles):
            raise ValueError("crystals must sit on board tiles")
        if self.start not in tiles or self.finish not in tiles:
            raise ValueError("start and finish must be board tiles")
        if self.start == self.finish:
            raise ValueError("start and finish must differ")
        for name, t in (("start", self.start), ("finish", self.finish)):
            if t in self.crystals or tiles[t] != 1:
                raise ValueError(f"{name} must be an ordinary capacity-1 tile")


@dataclass(frozen=True)
class TilePath:
    """Sequence of tiles, consecutive ones orthogonally adjacent."""

    steps: tuple[Tile, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))
        if not self.steps:
            raise ValueError("path must be nonempty")


def verify_tile_path(board: TileBoard, path: TilePath) -> Verdict:
    """Check a path against all board rules; report the first violation."""
    steps = path.steps
    if steps[0] != board.start:
        return Verdict(False, "path must begin at the start tile", steps[0])
    used: dict[Tile, int] = {}
    prev = None
    for i, t in enumerate(steps):
        if t not in board.capacities:
            return Verdict(False, "step leaves the board", t)
        if prev is not None:
            dx, dy = t[0] - prev[0], t[1] - prev[1]
            if (dx, dy) not in ORTHO_STEPS:
                return Verdict(False, "consecutive steps must be orthogonally adjacent", t)
        used[t] = used.get(t, 0) + 1
        if used[t] > board.capacities[t]:
            return Verdict(False, "capacity exceeded", t)
        prev = t
    if steps[-1] != board.finish:
        return Verdict(False, "path must end at the finish tile", steps[-1])
    for c in sorted(board.crystals):
        if c not in used:
            return Verdict(False, "crystal never visited", c)
    return Verdict(True)


def solve_tile_trial(board: TileBoard, node_budget: int | None = None) -> TilePath | None:
    """Exact solver: a frontier DP over the multiset of the walk's steps.

    Returns a valid path or None when provably unsolvable.  A multiset of
    grid edges is a valid walk's step set exactly when it is connected, the
    start and finish have degree 1, every other tile even degree at most
    twice its capacity, and every crystal degree at least 2 (Euler, 1736).
    First, by `_carry`, a crystal's edges that carry fewer than 2 steps, or
    an end's that carry none, refute the board before any state.  The tile
    order is `graphs._ham_frontier`'s.  A state is the steps from the tiles
    seen to the rest, each with its count and a component label.
    A component may close only when nothing else is open and no start,
    finish or crystal is left.  The states are walked depth first in the
    move order of `_transitions`, each expanded once; the first that may
    close is the answer, and the steps on the stack are its multiset.
    Moves are memoized for the last `FRONTIER_STATE_LIMIT` pairs of a state
    and a tile's context.  Raises BudgetExhausted past `FRONTIER_STATE_LIMIT`
    states expanded at one tile or `node_budget` (default 200,000) in all.
    """
    caps = board.capacities
    rule = {t: (1 if t in (board.start, board.finish) else 2 * cap, t in board.crystals) for t, cap in caps.items()}
    for (x, y), here in rule.items():  # an edge carries 1 or 2 steps: a tile with 2 neighbours has its need
        need = 2 if here[1] else here[0] == 1  # a crystal takes 2 steps, an end 1
        near = [rule[v] for v in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if v in rule] if need else ()
        if len(near) < 2 and sum(_carry(here, there) for there in near) < need:
            return None
    xs, ys = zip(*caps)
    wide = max(xs) - min(xs) > max(ys) - min(ys)
    # scan position (row, column) -> board tile, in scan order
    tile = dict(sorted((v if wide else v[::-1], v) for v in caps))
    contexts = [((r - 1, c) in tile, rule[t], rule.get(tile.get((r, c + 1))), rule.get(tile.get((r + 1, c)))) for (r, c), t in tile.items()]
    last = max(i for i, t in enumerate(tile.values()) if rule[t][0] == 1 or rule[t][1])
    limit = _SCAN_STATE_LIMIT if node_budget is None else node_budget
    n = len(tile)
    done: list[set[tuple[int, ...]]] = [set() for _ in range(n)]  # per tile, the states expanded there
    taken = [0] * n  # taken[i]: the steps right << 2 | up into tile i on the stack's walk
    stack = [iter([((0,), 0)])]  # stack[i]: the moves into tile i not yet tried; slots are label << 2 | steps
    expanded = 0
    while stack:
        i = len(stack) - 1
        seen = done[i]
        for s, steps in stack[i]:
            if s not in seen:
                break
        else:
            stack.pop()
            continue
        seen.add(s)
        if len(seen) > FRONTIER_STATE_LIMIT:
            raise BudgetExhausted(f"over {FRONTIER_STATE_LIMIT} frontier states at tile {i + 1} of {n}")
        expanded += 1
        if expanded > limit:
            raise BudgetExhausted(f"over {limit} frontier states in all by tile {i + 1} of {n}")
        taken[i] = steps
        moves, closes = _transitions(s, *contexts[i])
        if closes and i >= last:
            edges = []
            for (r, c), steps in zip(tile, taken[1 : i + 1]):
                for end, count in ((r, c + 1), steps >> 2), ((r + 1, c), steps & 3):
                    edges += [(tile[r, c], tile[end])] * count if count else []
            return TilePath(tuple(_euler_trail(sorted({v for e in edges for v in e}), edges, board.start)))
        if i + 1 < n:
            stack.append(iter(moves))
    return None


@lru_cache(maxsize=FRONTIER_STATE_LIMIT)
def _transitions(s: tuple[int, ...], below: bool, *rules: tuple[int, bool] | None) -> tuple[tuple, bool]:
    """The moves of state s at a tile with the three rules `_fits` takes and
    a neighbour below (the previous row) or not: each next state's key with
    its steps right << 2 | up, in `_fits` order, and whether the state may
    close its one component there with nothing else open."""
    a, b, rest = (s[0], s[1], s[2:]) if below else (s[0], 0, s[1:])
    la, lb = a >> 2, b >> 2
    if la and lb and la != lb:  # two components join
        rest = tuple([la << 2 | x & 3 if x >> 2 == lb else x for x in rest])
    label = la or lb or -1  # -1 starts a component
    closing = (la or lb) and label not in [x >> 2 for x in rest]
    moves, closes = [], False
    up = rules[2] is not None  # a tile above takes a slot
    for h, u in _fits(*rules)[a & 3][b & 3]:
        if closing and not (h or u):
            closes = not any(rest)
            continue
        slots = (h and label << 2 | h, *rest, u and label << 2 | u) if up else (h and label << 2 | h, *rest)
        labels = [x >> 2 for x in slots]
        moves.append((tuple([labels.index(x >> 2) + 1 << 2 | x & 3 if x else 0 for x in slots]), h << 2 | u))
    return tuple(moves), closes


@lru_cache(maxsize=None)
def _fits(here: tuple[int, bool], right: tuple[int, bool] | None, up: tuple[int, bool] | None) -> tuple:
    """[a][b] -> the (right, up) step counts a tile may add to a steps in
    from the left and b from below, by the rules (most steps, 1 at an end;
    is a crystal) of the tile and its neighbours, None off the board.  An
    edge carries 2 steps only where a walk may need both: a third can always
    go, as can a doubled dead end onto a tile that is not a crystal."""
    most, crystal = here

    def ok(steps: tuple[int, ...]) -> bool:
        degree = sum(steps)
        if degree > most or (most - degree) % 2 or crystal and degree < 2:
            return False
        return crystal or degree != 2 or 2 not in steps

    moves = [(h, u) for h in range(_carry(here, right) + 1) for u in range(_carry(here, up) + 1)]
    return tuple(tuple(tuple(m for m in moves if ok((a, b, *m))) for b in range(3)) for a in range(3))


def _carry(here: tuple[int, bool], there: tuple[int, bool] | None) -> int:
    """The most steps an edge carries, by the rules of its two tiles (None off the board)."""
    if there is None:
        return 0
    return 2 if 4 in (here[0], there[0]) and all(m == 4 or x for m, x in (here, there)) else 1


def reduce_grid_to_tile_trial(g: GridGraph) -> TileBoard:
    """Build a board solvable exactly when g has a Hamiltonian cycle.

    Every vertex becomes a capacity-1 crystal tile.  The bottommost vertex
    (minimal y, then minimal x) is upgraded to capacity 2 and joined by two
    capacity-2 connector tiles to a capacity-1 corridor row two rows below
    the graph, running from the start at the far left to the finish at the
    far right.  A solving walk must climb the connector, trace a Hamiltonian
    cycle through the crystals, and come back down, spending both uses of
    the three capacity-2 tiles.

    Two-vertex graphs are the one degenerate case: a twice-steppable vertex
    tile would let the walk double back over the single edge, faking a closed
    tour, so there the chosen vertex keeps capacity 1 and the board is
    unsolvable, matching the absence of a cycle.
    """
    if len(g) < 2 or not g.is_connected():
        raise ValueError("reduction needs a connected graph with at least 2 vertices")
    xs = [x for x, _ in g.vertices]
    min_x, max_x = min(xs), max(xs)
    chosen = min(g.vertices, key=lambda v: (v[1], v[0]))
    x0, y0 = chosen  # y0 is the lowest row

    caps: dict[Tile, int] = {v: 1 for v in g.vertices}
    if len(g) >= 3:
        caps[chosen] = 2
    caps[(x0, y0 - 1)] = 2
    caps[(x0, y0 - 2)] = 2
    corridor_y = y0 - 2
    for x in range(min_x - 1, max_x + 2):
        caps.setdefault((x, corridor_y), 1)
    start = (min_x - 1, corridor_y)
    finish = (max_x + 1, corridor_y)
    return TileBoard(
        capacities=caps,
        crystals=frozenset(g.vertices),
        start=start,
        finish=finish,
    )
