import pytest

from riftpuzzles.graphs import (
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
    with pytest.raises(BudgetExhausted):
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
