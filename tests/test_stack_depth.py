"""The exhaustive searches keep their own stacks: each decides an instance
whose search goes far deeper than 50 frames with only 50 frames to spare.
"""

import sys

from riftpuzzles.crystal_bonds import apply_start_gadget, brute_force_crystal_bonds, reduce_grid_to_dcb
from riftpuzzles.graphs import GridGraph, enumerate_grid_graphs, has_ham_path_grid
from riftpuzzles.hands_of_time import gen_solvable_clock, solve_clock, verify_clock_solution


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
    ladder = GridGraph(frozenset((x, y) for x in range(2) for y in range(300)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth() + 50)
    try:
        solution = solve_clock(clock)
        walk = brute_force_crystal_bonds(gadget)
        has_path = has_ham_path_grid(ladder)
    finally:
        sys.setrecursionlimit(old)
    assert solution is not None and verify_clock_solution(clock, solution).ok
    assert walk.visit_sequence
    assert has_path
