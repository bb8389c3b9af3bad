"""The step-limit tile puzzle: boards, path verification, exact solving,
and the reduction from grid-graph Hamiltonian cycles.

A board is a set of tiles with step capacities 1 or 2.  The player walks
orthogonally from the start tile to the finish tile, may stand on each tile
at most its capacity, and must touch every crystal tile at least once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import (
    ORTHO_STEPS,
    BudgetExhausted,
    GridGraph,
    Verdict,
    _grid_bfs,
    _pack,
    _reaches,
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
    """Exact backtracking solver.

    Returns a valid path or None when provably unsolvable.  Raises
    BudgetExhausted when the budget runs out first.  Prunes branches
    where the finish or any untouched crystal is no longer reachable through
    residual capacity: one bitboard flood (`_reaches`) from the path head
    over the open mask, the tiles with capacity left, which each step
    updates in place.  The flood runs plain BFS levels while it is shallow
    and whole-run fill rounds once it is deep, so on a long corridor, such
    as a 2xL ladder's reduction, a step's prune costs a few rounds rather
    than about L levels.
    """
    caps = board.capacities
    finish = board.finish
    path = [board.start]
    # Only the start's component is ever reached, and a connected set packs
    # into at most (tile count)^2 bits however far apart a board built in
    # code puts its parts.  A finish or crystal outside it maps to a pad
    # bit, which no flood reaches, so the root prune fails.
    component = _grid_bfs(caps, board.start)
    packed = _pack(component)
    stride = packed.stride
    bit = {t: 1 << packed.index(t) for t in component}
    lost = 1 << (stride - 1)
    finish_bit = bit.get(finish, lost)
    pending = 0
    for c in board.crystals:
        pending |= bit.get(c, lost)
    open_ = packed.cells ^ bit[board.start]
    # the capacity-2 tiles not yet stepped on: a step onto one leaves it open
    spare = sum(b for t, b in bit.items() if caps[t] == 2)
    nodes = 0

    def dfs(pos: Tile) -> bool:
        nonlocal nodes, open_, pending, spare
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            raise BudgetExhausted(f"no verdict within {node_budget} nodes")
        if not _reaches(bit[pos], open_, pending | finish_bit, stride):
            return False
        x, y = pos
        for dx, dy in ORTHO_STEPS:
            nxt = (x + dx, y + dy)
            b = bit.get(nxt, 0)
            if not open_ & b:
                continue
            was_pending = pending & b
            once = spare & b
            pending ^= was_pending
            spare ^= once
            open_ ^= b ^ once
            path.append(nxt)
            if nxt == finish:
                if not pending:
                    return True
            elif dfs(nxt):
                return True
            pending ^= was_pending
            spare ^= once
            open_ ^= b ^ once
            path.pop()
        return False

    if dfs(board.start):
        return TilePath(tuple(path))
    return None


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
