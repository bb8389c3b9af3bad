"""The exhaustive searches, the grid Hamiltonicity and Tile Trial DPs and
the bond matching keep their own stacks: each decides an instance whose search would go far
deeper than 50 frames with only 50 frames to spare.
"""

import sys

from riftpuzzles.crystal_bonds import (
    BondBoard,
    apply_start_gadget,
    brute_force_crystal_bonds,
    reduce_grid_to_dcb,
    solve_crystal_bonds,
    verify_bond_walk,
)
from riftpuzzles.geometry import TileRegion, tile_center
from riftpuzzles.graphs import GridGraph, enumerate_grid_graphs, has_ham_cycle_grid, has_ham_path_grid
from riftpuzzles.hands_of_time import gen_solvable_clock, solve_clock, verify_clock_solution
from riftpuzzles.tile_trial import reduce_grid_to_tile_trial, solve_tile_trial, verify_tile_path


def depth():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def test_searches_run_within_fifty_spare_frames():
    clock = gen_solvable_clock(40, 3)
    g = next(g for g in enumerate_grid_graphs(3, 3, 7) if len(g) == 7)
    board, _ = reduce_grid_to_dcb(g)
    gadget = apply_start_gadget(board, g)[0]
    assert len(gadget.required_bonds) == 8
    ladder = GridGraph(frozenset((x, y) for x in range(2) for y in range(5000)))
    # its solving walk is about 6,000 steps long
    tile_board = reduce_grid_to_tile_trial(GridGraph(frozenset((x, y) for x in range(2000) for y in range(2))))
    # a hub with 47 one-crystal legs: 48 odd crystals for the matching
    tiles = sorted((x, y) for x in range(7) for y in range(7))
    spider = BondBoard(
        TileRegion(frozenset(tiles)), tuple(map(tile_center, tiles[:48])), tile_center(tiles[48]),
        tuple((0, leg) for leg in range(1, 48)), "grid",
    )
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 50)
    try:
        solution = solve_clock(clock)
        walk = brute_force_crystal_bonds(gadget)
        has_cycle = has_ham_cycle_grid(ladder)
        has_path = has_ham_path_grid(ladder)
        bonds = solve_crystal_bonds(spider)
        path = solve_tile_trial(tile_board)
    finally:
        sys.setrecursionlimit(old)
    assert solution is not None and verify_clock_solution(clock, solution).ok
    assert walk.visit_sequence
    assert has_cycle and has_path
    assert verify_bond_walk(spider, bonds).ok
    assert path is not None and verify_tile_path(tile_board, path).ok
