"""The step-limit tile puzzle: boards, path verification, an exact solver
exponential only in the board's width, and the reduction from grid-graph
Hamiltonian cycles, whose hardness needs wide or holed boards.

A board is a set of tiles with step capacities 1 or 2.  The player walks
orthogonally from the start tile to the finish tile, may stand on each tile
at most its capacity, and must touch every crystal tile at least once.
"""

from __future__ import annotations

from array import array
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
    The scan is `graphs._ham_frontier`'s.  A state is the steps from the
    tiles seen to the rest, each with its count and a component label.  A
    component may close only when nothing else is open and no start, finish
    or crystal is left; one back-pointer per state gives back its multiset.
    Raises BudgetExhausted past `FRONTIER_STATE_LIMIT` states at one tile or
    `node_budget` (default 200,000) in all.
    """
    caps = board.capacities
    xs, ys = zip(*caps)
    wide = max(xs) - min(xs) > max(ys) - min(ys)
    # scan position (row, column) -> board tile, in scan order
    tile = dict(sorted((v if wide else v[::-1], v) for v in caps))
    rule = {v: (1 if t in (board.start, board.finish) else 2 * caps[t], t in board.crystals) for v, t in tile.items()}
    last = max(i for i, (most, crystal) in enumerate(rule.values()) if most == 1 or crystal)
    limit = _SCAN_STATE_LIMIT if node_budget is None else node_budget
    states: list[tuple[int, ...]] = [(0,)]  # slots are label << 2 | steps, 0 when empty
    back: list[array] = []
    seen = 0
    for i, (r, c) in enumerate(tile):
        up = (r + 1, c) in tile
        fits = _fits(rule[r, c], rule.get((r, c + 1)), rule.get((r + 1, c)))
        new: dict[tuple[int, ...], int] = {}
        for k, s in enumerate(states):
            a, b, rest = (s[0], s[1], s[2:]) if (r - 1, c) in tile else (s[0], 0, s[1:])
            la, lb = a >> 2, b >> 2
            if la and lb and la != lb:  # two components join
                rest = tuple([la << 2 | x & 3 if x >> 2 == lb else x for x in rest])
            label = la or lb or -1  # -1 starts a component
            closing = (la or lb) and label not in [x >> 2 for x in rest]
            for h, u in fits[a & 3][b & 3]:
                if closing and not (h or u):
                    if i >= last and not any(rest):
                        return _trail(board, tile, back, i, k << 4)
                    continue
                slots = (h and label << 2 | h, *rest, u and label << 2 | u) if up else (h and label << 2 | h, *rest)
                labels = [x >> 2 for x in slots]
                key = tuple([labels.index(x >> 2) + 1 << 2 | x & 3 if x else 0 for x in slots])
                if key not in new:
                    new[key] = k << 4 | h << 2 | u
        if len(new) > FRONTIER_STATE_LIMIT:
            raise BudgetExhausted(f"over {FRONTIER_STATE_LIMIT} frontier states at tile {i + 1} of {len(tile)}")
        seen += len(new)
        if seen > limit:
            raise BudgetExhausted(f"over {limit} frontier states in all by tile {i + 1} of {len(tile)}")
        if not new:
            break
        back.append(array("l", new.values()))
        states = list(new)
    return None


@lru_cache(maxsize=None)
def _fits(here: tuple[int, bool], right: tuple[int, bool] | None, up: tuple[int, bool] | None) -> tuple:
    """[a][b] -> the (right, up) step counts a tile may add to a steps in
    from the left and b from below, by the rules (most steps, 1 at an end;
    is a crystal) of the tile and its neighbours, None off the board.  An
    edge carries 2 steps only where a walk may need both: a third can always
    go, as can a doubled dead end onto a tile that is not a crystal."""
    most, crystal = here

    def carry(there: tuple[int, bool] | None) -> int:
        if there is None:
            return 0
        return 2 if 4 in (most, there[0]) and all(m == 4 or x for m, x in (here, there)) else 1

    def ok(steps: tuple[int, ...]) -> bool:
        degree = sum(steps)
        if degree > most or (most - degree) % 2 or crystal and degree < 2:
            return False
        return crystal or degree != 2 or 2 not in steps

    moves = [(h, u) for h in range(carry(right) + 1) for u in range(carry(up) + 1)]
    return tuple(tuple(tuple(m for m in moves if ok((a, b, *m))) for b in range(3)) for a in range(3))


def _trail(board: TileBoard, tile: dict[Tile, Tile], back: list[array], i: int, pointer: int) -> TilePath:
    """An Euler trail from the start of the steps `pointer`, at scan position i, leads back to."""
    steps: list[tuple[Tile, Tile]] = []
    for j, (r, c) in reversed(list(enumerate(tile))[: i + 1]):
        for end, count in ((r, c + 1), pointer >> 2 & 3), ((r + 1, c), pointer & 3):
            steps += [(tile[r, c], tile[end])] * count if count else []
        if j:
            pointer = back[j - 1][pointer >> 4]
    return TilePath(tuple(_euler_trail(sorted({v for e in steps for v in e}), steps, board.start)))


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
