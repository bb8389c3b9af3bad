import hashlib
import random
import time
from collections import deque

import pytest

from riftpuzzles import tile_trial
from riftpuzzles.geometry import gen_random_region
from riftpuzzles.graphs import (
    FRONTIER_STATE_LIMIT,
    BudgetExhausted,
    GridGraph,
    enumerate_grid_graphs,
    has_ham_cycle_grid,
)
from riftpuzzles.instance_io import serialize
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


def square(w, h):
    return GridGraph(frozenset((x, y) for x in range(w) for y in range(h)))


def test_wide_reductions_with_a_cycle_solve_within_a_second():
    # the breadth-first scan gave up on these: it expanded every state of a
    # tile before the next, so a solvable board cost as much as a refutation
    for w, h in ((12, 12), (14, 14), (16, 16), (8, 1000)):
        board = reduce_grid_to_tile_trial(square(w, h))
        began = time.perf_counter()
        path = solve_tile_trial(board)
        assert time.perf_counter() - began < 1.0, (w, h)
        assert path is not None and verify_tile_path(board, path).ok, (w, h)


def test_wide_board_gives_up_at_the_state_cap():
    # a 30x30 square's rows cross 30 columns, far past the cap
    board = reduce_grid_to_tile_trial(square(30, 30))
    began = time.perf_counter()
    with pytest.raises(BudgetExhausted, match=f"^over {FRONTIER_STATE_LIMIT} frontier states at tile "):
        solve_tile_trial(board)
    assert time.perf_counter() - began < 2.0


def test_wide_board_without_a_cycle_gives_up():
    # an odd square has no Hamiltonian cycle, and refuting it takes every state
    with pytest.raises(BudgetExhausted, match="^over 200000 frontier states in all by tile "):
        solve_tile_trial(reduce_grid_to_tile_trial(square(11, 11)))


# sha256 over serialize(path), or "UNSOLVABLE\n", of each board in turn: the
# reduction boards' paths as the breadth-first scan gave them, the random
# boards' as the depth-first walk, which completes another walk on 103 of them
PATH_DIGESTS = {
    "3x4/9": "7af3045d9b31da61611b72d88d4223c461ba60ebf5d8b984f4f5b11bdb8c6b0a",
    "2x6/12": "e254426b6fa55f8522d23e4f9b7a09551bcffa65bc1194202c12180b04da63db",
    "random": "2a490a2337e70fc2fd8fc61921020ba0d0dbf1058f2fc0dc73327a8ecb53ed92",
    "2x500": "1c02323a7985357fa292ef13007d5c4a26e6df0b0c11da4eaff908fdc29de064",
    "holed": "028bfb9ee640fe66d7d7b976d772d12f3d974806e90788f847f946c66cb2c340",
    "10x10": "88e8e01cfd46d3f7b18d15bdd4b0e2a342d8d995c60fe218aefe9b1c44c2c5c4",
}


def pinned_boards():
    return {
        "3x4/9": [reduce_grid_to_tile_trial(g) for g in enumerate_grid_graphs(3, 4, 9) if len(g) >= 2],
        "2x6/12": [reduce_grid_to_tile_trial(g) for g in enumerate_grid_graphs(2, 6, 12) if len(g) >= 2],
        "random": random_boards(1000),
        "2x500": [reduce_grid_to_tile_trial(square(500, 2))],
        "holed": [reduce_grid_to_tile_trial(g) for g in holed_boards()],
        "10x10": [reduce_grid_to_tile_trial(square(10, 10))],
    }


def path_digest(boards, solve):
    digest = hashlib.sha256()
    for board in boards:
        path = solve(board)
        digest.update(("UNSOLVABLE\n" if path is None else serialize(path)).encode())
    return digest.hexdigest()


def test_paths_pinned():
    for name, boards in pinned_boards().items():
        assert path_digest(boards, solve_tile_trial) == PATH_DIGESTS[name], name


def test_cold_transition_cache_gives_the_same_paths():
    def cold(board):
        tile_trial._transitions.cache_clear()
        return solve_tile_trial(board)

    for name, boards in pinned_boards().items():
        assert path_digest(boards, cold) == PATH_DIGESTS[name], name


def budget_messages(boards):
    """Per board and each of six budgets, "solved", "unsolvable" or the
    message of the give-up, where the budget counts the states expanded."""
    messages = []
    for board in boards:
        for budget in (1, 2, 5, 13, 40, 100):
            try:
                messages.append("unsolvable" if solve_tile_trial(board, budget) is None else "solved")
            except BudgetExhausted as exc:
                messages.append(str(exc))
    counts = messages.count("solved"), messages.count("unsolvable"), len(messages)
    return counts, hashlib.sha256("\n".join(messages).encode()).hexdigest()


def test_budget_messages_pinned():
    boards = [reduce_grid_to_tile_trial(g) for g in enumerate_grid_graphs(3, 4, 9) if len(g) >= 2]
    # every 37th board: the carry screen refutes 81 of the former give-ups
    # before any state, at every budget
    assert budget_messages(boards[::37]) == (
        (6, 146, 174),
        "26ecf34a62a767face8bf082ee14fe431fa5e9c4fdd35a77fd455856ed7e5c23",
    )
    # every 5th of the 125 boards the screen passes (the first state given
    # up at budget 0): their messages are the unscreened walk's, 93 give-ups
    walked = []
    for board in boards:
        try:
            solve_tile_trial(board, 0)
        except BudgetExhausted:
            walked.append(board)
    assert len(walked) == 125
    assert budget_messages(walked[::5]) == (
        (9, 48, 150),
        "0b684a6a86f820910b84b41f97adb4dabc641e2bd8ffd670a8986d3f5907f609",
    )


def former_frontier_dp(board):
    """solve_tile_trial's former form, as a verdict: the same states and
    moves, scanned breadth first, every state of a tile before the next."""
    caps = board.capacities
    xs, ys = zip(*caps)
    wide = max(xs) - min(xs) > max(ys) - min(ys)
    tile = dict(sorted((v if wide else v[::-1], v) for v in caps))
    rule = {v: (1 if t in (board.start, board.finish) else 2 * caps[t], t in board.crystals) for v, t in tile.items()}
    last = max(i for i, (most, crystal) in enumerate(rule.values()) if most == 1 or crystal)
    states = [(0,)]
    for i, (r, c) in enumerate(tile):
        context = (r - 1, c) in tile, rule[r, c], rule.get((r, c + 1)), rule.get((r + 1, c))
        new = {}
        for s in states:
            moves, closes = tile_trial._transitions(s, *context)
            if closes and i >= last:
                return True
            new.update(dict.fromkeys(key for key, _ in moves))
        states = list(new)
    return False


def test_depth_first_walk_expands_the_former_scans_states(monkeypatch):
    # each state is expanded once, so a refutation makes exactly the former
    # scan's _transitions calls, or none when the carry screen refutes it
    calls = 0
    transitions = tile_trial._transitions

    def counted(*args):
        nonlocal calls
        calls += 1
        return transitions(*args)

    monkeypatch.setattr(tile_trial, "_transitions", counted)
    unsolvable = screened = 0
    for name, boards in pinned_boards().items():
        for board in boards:
            calls = 0
            path = solve_tile_trial(board)
            walked = calls
            calls = 0
            assert former_frontier_dp(board) == (path is not None), (name, board)
            assert path is None or verify_tile_path(board, path).ok, (name, board)
            if path is None:
                assert walked in (0, calls), (name, board)
                screened += walked == 0
                unsolvable += 1
    assert (screened, unsolvable > 1000) == (1756, True), (screened, unsolvable)


def test_carry_screen_refutes_before_any_state_at_its_exact_bound():
    # node_budget 0 gives up at the first state expanded: a board the screen
    # refutes answers None, and any other board gives up
    kite = [(0, 0), (0, 1), (-1, 1), (0, 2), (-1, 2)]
    # the leaf crystal (1, 0) beside the capacity-2 chosen vertex (0, 0): their
    # edge carries 2 steps, enough for a crystal, so the walk refutes it
    beside_chosen = reduce_grid_to_tile_trial(GridGraph(frozenset(kite + [(1, 0)])))
    assert beside_chosen.capacities[0, 0] == 2
    # the leaf crystal (1, 2) beside the ordinary crystal (0, 2): 1 step
    beside_ordinary = reduce_grid_to_tile_trial(GridGraph(frozenset(kite + [(1, 2)])))
    assert solve_tile_trial(beside_chosen) is None and solve_tile_trial(beside_ordinary) is None
    with pytest.raises(BudgetExhausted):
        solve_tile_trial(beside_chosen, 0)
    assert solve_tile_trial(beside_ordinary, 0) is None
    # an end: a start with no neighbour carries nothing, and one with a
    # neighbour carries its 1 step
    apart = TileBoard({(0, 0): 1, (5, 5): 1}, frozenset(), (0, 0), (5, 5))
    assert solve_tile_trial(apart, 0) is None
    with pytest.raises(BudgetExhausted):
        solve_tile_trial(straight_board(), 0)
