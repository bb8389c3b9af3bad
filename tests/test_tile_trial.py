import random
import time
from collections import deque

import pytest

from riftpuzzles.geometry import gen_random_region
from riftpuzzles.graphs import (
    FRONTIER_STATE_LIMIT,
    BudgetExhausted,
    GridGraph,
    enumerate_grid_graphs,
    has_ham_cycle_grid,
)
from riftpuzzles.tile_trial import (
    TileBoard,
    TilePath,
    reduce_grid_to_tile_trial,
    solve_tile_trial,
    verify_tile_path,
)

from test_graphs import holed_boards


def straight_board():
    # S . F with a crystal in the middle
    caps = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    return TileBoard(caps, frozenset({(1, 0)}), (0, 0), (2, 0))


def test_board_validation():
    with pytest.raises(ValueError):
        TileBoard({(0, 0): 3, (1, 0): 1}, frozenset(), (0, 0), (1, 0))
    with pytest.raises(ValueError):
        TileBoard({(0, 0): 1, (1, 0): 1}, frozenset({(5, 5)}), (0, 0), (1, 0))
    with pytest.raises(ValueError):
        TileBoard({(0, 0): 1}, frozenset(), (0, 0), (0, 0))
    with pytest.raises(ValueError):  # start may not carry a crystal
        TileBoard({(0, 0): 1, (1, 0): 1}, frozenset({(0, 0)}), (0, 0), (1, 0))
    with pytest.raises(ValueError, match="^board must have at least one tile$"):
        TileBoard({}, frozenset(), (0, 0), (1, 0))
    with pytest.raises(ValueError, match="^start and finish must be board tiles$"):
        TileBoard({(0, 0): 1, (1, 0): 1}, frozenset(), (5, 5), (1, 0))


def test_board_stores_crystals_frozen():
    board = TileBoard({(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(1, 0)}, (0, 0), (2, 0))
    assert type(board.crystals) is frozenset and board == straight_board()


def test_board_is_hashable_and_owns_its_capacities():
    import pickle

    caps = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    board = TileBoard(caps, frozenset({(1, 0)}), (0, 0), (2, 0))
    assert hash(board) == hash(straight_board())
    assert board == straight_board()
    caps[(1, 0)] = 7
    assert board.capacities[(1, 0)] == 1
    assert board == straight_board()
    back = pickle.loads(pickle.dumps(board))
    assert back == board and hash(back) == hash(board)


def test_verify_accepts_simple_path():
    b = straight_board()
    assert verify_tile_path(b, TilePath(((0, 0), (1, 0), (2, 0)))).ok


def test_verify_first_violation_is_reported():
    b = TileBoard(
        {(0, 0): 1, (1, 0): 1, (2, 0): 1},
        frozenset({(1, 0)}),
        (0, 0),
        (2, 0),
    )
    # S C S C F revisits the start before re-walking the crystal
    res = verify_tile_path(b, TilePath(((0, 0), (1, 0), (0, 0), (1, 0), (2, 0))))
    assert not res.ok
    assert res.rule == "capacity exceeded"
    assert res.detail == (0, 0)


def test_verify_rejects_teleport_and_wrong_ends():
    b = straight_board()
    res = verify_tile_path(b, TilePath(((0, 0), (2, 0))))
    assert not res.ok and "adjacent" in res.rule
    res = verify_tile_path(b, TilePath(((1, 0), (2, 0))))
    assert not res.ok and "start" in res.rule
    res = verify_tile_path(b, TilePath(((0, 0), (1, 0))))
    assert not res.ok and "finish" in res.rule
    res = verify_tile_path(b, TilePath(((0, 0), (1, 0), (2, 0), (2, 1))))
    assert not res.ok and res.rule == "step leaves the board"


def test_verify_missed_crystal():
    caps = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (1, 1): 1}
    b = TileBoard(caps, frozenset({(1, 1)}), (0, 0), (2, 0))
    res = verify_tile_path(b, TilePath(((0, 0), (1, 0), (2, 0))))
    assert not res.ok and res.rule == "crystal never visited" and res.detail == (1, 1)


def test_solver_finds_path_and_it_verifies():
    b = straight_board()
    path = solve_tile_trial(b)
    assert path is not None
    assert verify_tile_path(b, path).ok


def test_solver_detects_unsolvable():
    # crystal on a dead end that burns the only corridor tile
    caps = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (1, 1): 1}
    b = TileBoard(caps, frozenset({(1, 1)}), (0, 0), (2, 0))
    assert solve_tile_trial(b) is None
    # doubling the junction capacity fixes it
    caps2 = dict(caps)
    caps2[(1, 0)] = 2
    b2 = TileBoard(caps2, frozenset({(1, 1)}), (0, 0), (2, 0))
    path = solve_tile_trial(b2)
    assert path is not None and verify_tile_path(b2, path).ok


def test_solver_budget():
    g = GridGraph(frozenset((x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)))
    board = reduce_grid_to_tile_trial(g)
    with pytest.raises(BudgetExhausted, match="^over 2 frontier states in all by tile "):
        solve_tile_trial(board, node_budget=2)


def test_reduction_shape_unit_square():
    g = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    b = reduce_grid_to_tile_trial(g)
    assert b.crystals == g.vertices
    assert b.capacities[(0, 0)] == 2
    assert b.capacities[(0, -1)] == 2
    assert b.capacities[(0, -2)] == 2
    assert sorted(t for t, c in b.capacities.items() if c == 2) == [(0, -2), (0, -1), (0, 0)]
    assert b.start == (-1, -2)
    assert b.finish == (2, -2)
    corridor = [t for t in b.capacities if t[1] == -2]
    assert sorted(corridor) == [(-1, -2), (0, -2), (1, -2), (2, -2)]


def test_reduction_counts():
    # two-vertex graphs skip the vertex upgrade (no cycle to close)
    for g in enumerate_grid_graphs(3, 3, 6):
        if len(g) < 2:
            continue
        b = reduce_grid_to_tile_trial(g)
        assert len(b.crystals) == len(g)
        expected = 3 if len(g) >= 3 else 2
        assert sum(1 for c in b.capacities.values() if c == 2) == expected


def test_reduction_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_grid_to_tile_trial(GridGraph(frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        reduce_grid_to_tile_trial(GridGraph(frozenset({(0, 0), (5, 5)})))


def test_reduction_equivalence_spot_checks():
    square = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    assert solve_tile_trial(reduce_grid_to_tile_trial(square)) is not None
    domino = GridGraph(frozenset({(0, 0), (1, 0)}))
    assert solve_tile_trial(reduce_grid_to_tile_trial(domino)) is None


def test_reduction_equivalence_small_sweep():
    for g in enumerate_grid_graphs(2, 2, 4):
        if len(g) < 2:
            continue
        board = reduce_grid_to_tile_trial(g)
        solvable = solve_tile_trial(board) is not None
        assert solvable == has_ham_cycle_grid(g), sorted(g.vertices)


def per_cell_solver(board):
    """The backtracking search the frontier DP replaced, as it was before
    its bitboard prune: a per-cell BFS over the tiles with capacity left,
    run anew at every node."""
    caps, finish = board.capacities, board.finish
    used = {board.start: 1}
    path = [board.start]
    pending = set(board.crystals)

    def reachable_ok(pos):
        seen = {pos}
        queue = deque([pos])
        while queue:
            x, y = queue.popleft()
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nxt = (x + dx, y + dy)
                if nxt in seen or nxt not in caps or used.get(nxt, 0) >= caps[nxt]:
                    continue
                seen.add(nxt)
                queue.append(nxt)
        return finish in seen and pending <= seen

    def dfs(pos):
        if not reachable_ok(pos):
            return False
        x, y = pos
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (x + dx, y + dy)
            if nxt not in caps or used.get(nxt, 0) >= caps[nxt]:
                continue
            was_pending = nxt in pending
            used[nxt] = used.get(nxt, 0) + 1
            path.append(nxt)
            pending.discard(nxt)
            if nxt == finish:
                if not pending:
                    return True
            elif dfs(nxt):
                return True
            if was_pending:
                pending.add(nxt)
            used[nxt] -= 1
            path.pop()
        return False

    return TilePath(tuple(path)) if dfs(board.start) else None


def test_solver_agrees_with_the_per_cell_solver():
    boards = [reduce_grid_to_tile_trial(g) for g in enumerate_grid_graphs(3, 3, 9) if len(g) >= 2]
    rng = random.Random(7)
    for i in range(50):
        region = gen_random_region(rng.randrange(2**32), 6, 6, 20 + i % 11)
        boards.append(reduce_grid_to_tile_trial(GridGraph(region.tiles)))
    assert len(boards) == 209 + 50
    verdicts = set()
    for board in boards + random_boards(1000):
        path = solve_tile_trial(board)
        assert (path is None) == (per_cell_solver(board) is None), board
        assert path is None or verify_tile_path(board, path).ok, (board, path)
        verdicts.add(path is None)
    assert verdicts == {False, True}
    # a budget gives up or gives the same verdict
    for board in boards[::20] + random_boards(200):
        want = per_cell_solver(board) is None
        for budget in (1, 2, 5, 13, 40):
            try:
                assert (solve_tile_trial(board, budget) is None) == want
            except BudgetExhausted:
                pass


def random_boards(count):
    """Boards unlike the reduction's: mixed capacities, and start, finish
    and crystals anywhere, so the start is often a cut tile."""
    rng = random.Random(11)
    boards = []
    while len(boards) < count:
        tiles = sorted(gen_random_region(rng.randrange(2**32), 4, 4, rng.randint(4, 12)).tiles)
        start, finish = rng.sample(tiles, 2)
        caps = {t: rng.choice((1, 1, 2)) for t in tiles}
        caps[start] = caps[finish] = 1
        others = [t for t in tiles if t not in (start, finish)]
        crystals = frozenset(rng.sample(others, rng.randint(0, len(others))))
        boards.append(TileBoard(caps, crystals, start, finish))
    return boards


def test_long_ladder_reduction_still_solves():
    # the walk is about 1,500 steps long; the scan keeps no frame per step
    ladder = GridGraph(frozenset((x, y) for x in range(500) for y in range(2)))
    board = reduce_grid_to_tile_trial(ladder)
    path = solve_tile_trial(board)
    assert path is not None and verify_tile_path(board, path).ok


def test_far_apart_board_parts_are_not_packed():
    # the scan visits tiles, not their bounding box, so a board built in
    # code may scatter them; a crystal among them is unreachable
    far = (10**18, 10**18)
    caps = {(0, 0): 1, (1, 0): 1, (2, 0): 1, far: 1}
    assert solve_tile_trial(TileBoard(caps, frozenset({(1, 0)}), (0, 0), (2, 0))) == TilePath(
        ((0, 0), (1, 0), (2, 0))
    )
    assert solve_tile_trial(TileBoard(caps, frozenset({far}), (0, 0), (2, 0))) is None
    assert solve_tile_trial(TileBoard(caps, frozenset(), (0, 0), far)) is None


def test_holed_board_reductions_decided_within_a_second():
    # the backtracking search ran for over 3 s on three of these five
    boards = list(holed_boards())
    assert len(boards) == 5
    for g in boards:
        board = reduce_grid_to_tile_trial(g)
        began = time.perf_counter()
        path = solve_tile_trial(board)
        assert time.perf_counter() - began < 1.0, sorted(g.vertices)
        assert (path is not None) == has_ham_cycle_grid(g)
        assert path is None or verify_tile_path(board, path).ok


def test_wide_board_gives_up_at_the_state_cap():
    # a 14x14 square's rows cross 14 columns, far past the cap
    square = GridGraph(frozenset((x, y) for x in range(14) for y in range(14)))
    board = reduce_grid_to_tile_trial(square)
    began = time.perf_counter()
    with pytest.raises(BudgetExhausted, match=f"^over {FRONTIER_STATE_LIMIT} frontier states at tile "):
        solve_tile_trial(board)
    assert time.perf_counter() - began < 2.0
