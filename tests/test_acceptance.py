"""Acceptance suite: one test per advertised guarantee.

Each test prints a single `criterion N: pass|FAIL (...)` line with its
measured numbers, then asserts.  Criterion 4 states a biconditional: a
digraph has a Hamiltonian path exactly when its clock is solvable.  The
reduction places a spacer before each branch, so no detour blocks the clock
side, and every criterion is expected to pass.
"""

import math
import time

from riftpuzzles.crystal_bonds import (
    apply_start_gadget,
    brute_force_crystal_bonds,
    decide_dcb,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    solve_crystal_bonds,
    verify_bond_walk,
)
from riftpuzzles.geometry import (
    TileRegion,
    euclidean_geodesic,
    fine_grid_distance,
    gen_random_region,
    tile_center,
)
from riftpuzzles.graphs import (
    GridGraph,
    enumerate_grid_graphs,
    gen_random_digraph,
    has_directed_ham_path,
    has_ham_cycle_grid,
    has_ham_path_grid,
)
from riftpuzzles.hands_of_time import (
    audit_certificate,
    gen_solvable_clock,
    jump_value,
    reduce_digraph_to_phot,
    solve_clock,
    verify_clock_solution,
)
from riftpuzzles.instance_io import KINDS, kind_of, parse, serialize
from riftpuzzles.tile_trial import (
    reduce_grid_to_tile_trial,
    solve_tile_trial,
    verify_tile_path,
)

from test_instance_io import random_values

FIGURE_FIXTURE = GridGraph(frozenset((x, 0) for x in range(6)))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'pass' if ok else 'FAIL'} ({detail})", flush=True)


def reduction_family(max_v: int):
    # reductions declare |g| >= 2, so singletons sit outside the sweep
    return [g for g in enumerate_grid_graphs(3, 3, max_v) if len(g) >= 2]


def test_criterion_1_tile_trial_reduction_equivalence():
    t0 = time.monotonic()
    family = reduction_family(8)
    mismatches = [
        sorted(g.vertices)
        for g in family
        if (solve_tile_trial(reduce_grid_to_tile_trial(g)) is not None)
        != has_ham_cycle_grid(g)
    ]
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 300
    report(1, ok, f"{len(family)} boards, {len(mismatches)} mismatches, {elapsed:.1f}s")
    assert ok, mismatches[:3]


def test_criterion_2_crystal_bond_reduction_equivalence():
    t0 = time.monotonic()
    family = reduction_family(6)
    mismatches = []
    for g in family:
        board, threshold = reduce_grid_to_dcb(g)
        if decide_dcb(board, threshold) != has_ham_path_grid(g):
            mismatches.append(("plain", sorted(g.vertices)))
        gadgeted, gthreshold, detects = apply_start_gadget(board, g)
        want = (
            has_ham_path_grid(g) if detects == "ham-path" else has_ham_cycle_grid(g)
        )
        if decide_dcb(gadgeted, gthreshold) != want:
            mismatches.append((detects, sorted(g.vertices)))
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 600
    report(2, ok, f"{len(family)} boards x2 verdicts, {len(mismatches)} mismatches, {elapsed:.1f}s")
    assert ok, mismatches[:3]


def test_criterion_3_six_vertex_path_datapoint():
    board, threshold = reduce_grid_to_dcb(FIGURE_FIXTURE)
    optimum = brute_force_crystal_bonds(board).total_length
    ok = threshold == 77 and optimum == 65.0 and board.distance_model == "grid"
    report(3, ok, f"threshold {threshold}, optimum {optimum}")
    assert ok


def test_criterion_4_clock_reduction_equivalence():
    t0 = time.monotonic()
    mismatches = 0
    for i in range(200):
        digraph = gen_random_digraph(2 + i % 6, i)
        cert = reduce_digraph_to_phot(digraph)
        clock_solvable = solve_clock(cert.instance) is not None
        if clock_solvable != has_directed_ham_path(digraph):
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 300
    report(4, ok, f"200 digraphs, {mismatches} mismatches, {elapsed:.1f}s")
    assert ok, (
        f"{mismatches} instances where the clock verdict disagrees with the "
        "source digraph's Hamiltonian path verdict"
    )


def test_criterion_5_no_stray_landing_audit():
    problems = []
    for i in range(200):
        cert = reduce_digraph_to_phot(gen_random_digraph(2 + i % 6, i))
        problems.extend(audit_certificate(cert))
    for v in range(2, 8):
        values = [jump_value(j, k) for j in range(v) for k in range(j + 1, v)]
        if len(set(values)) < len(values):
            problems.append(f"landmark distances collide below v = {v}")
    ok = not problems
    report(5, ok, f"200 certificates audited, {len(problems)} violations")
    assert ok, problems[:5]


def test_criterion_6_bond_solver_matches_oracle():
    t0 = time.monotonic()
    bad = 0
    for i in range(100):
        model = "grid" if i % 2 == 0 else "euclid"
        board = gen_random_tree_board(i, box_w=8, box_h=8, r=2 + i % 6, model=model)
        got = solve_crystal_bonds(board).total_length
        want = brute_force_crystal_bonds(board).total_length
        if (got != want) if model == "grid" else (abs(got - want) > 1e-9):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 300
    report(6, ok, f"100 boards both models, {bad} length gaps, {elapsed:.1f}s")
    assert ok


def test_criterion_7_geodesic_oracle_band():
    t0 = time.monotonic()
    bad = 0
    unreachable = 0
    for seed in range(200):
        w = h = 5
        region = gen_random_region(seed, w, h, max(2, 2 * w * h // 3))
        tiles = sorted(region.tiles)
        if seed % 5 == 4:
            # far twin cluster: both metrics must call the gap unreachable
            extra = gen_random_region(seed + 1, w, h, max(2, w * h // 3))
            far = [(x + w + 2, y) for x, y in sorted(extra.tiles)]
            region = TileRegion(frozenset(tiles) | frozenset(far))
            p = tile_center(tiles[seed % len(tiles)])
            q = tile_center(far[seed % len(far)])
        else:
            p = tile_center(tiles[seed % len(tiles)])
            q = tile_center(tiles[(seed * 7 + 3) % len(tiles)])
        exact = euclidean_geodesic(region, p, q)
        fine = fine_grid_distance(region, p, q, 16)
        if math.isinf(exact) or math.isinf(fine):
            unreachable += 1
            if not (math.isinf(exact) and math.isinf(fine)):
                bad += 1
        elif not (exact <= fine + 1e-9 and fine <= 1.09 * exact + 1e-9):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    report(7, ok, f"200 cases ({unreachable} unreachable), {bad} violations, {elapsed:.1f}s")
    assert ok


def test_criterion_8_roundtrips_and_verifier_closure():
    t0 = time.monotonic()
    bad = 0
    for kind in KINDS:
        for value in random_values(kind, 500):
            text = serialize(value)
            back = parse(kind, text)
            if back != value or serialize(back) != text or kind_of(value) != kind:
                bad += 1

    checked = 0
    for g in (g for g in enumerate_grid_graphs(2, 3, 6) if len(g) >= 2):
        board = reduce_grid_to_tile_trial(g)
        path = solve_tile_trial(board)
        if path is not None:
            checked += 1
            if not verify_tile_path(board, path).ok:
                bad += 1
    for i in range(40):
        board = gen_random_tree_board(
            i, box_w=6, box_h=6, r=2 + i % 5, model="grid" if i % 2 else "euclid"
        )
        checked += 1
        if not verify_bond_walk(board, solve_crystal_bonds(board)).ok:
            bad += 1
    for i in range(60):
        instance = gen_solvable_clock(3 + i % 10, i)
        solution = solve_clock(instance)
        checked += 1
        if solution is None or not verify_clock_solution(instance, solution).ok:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    report(
        8,
        ok,
        f"{len(KINDS)}x500 round-trips, {checked} solver outputs verified, "
        f"{bad} violations, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_9_large_board_runtime():
    results = []
    for model in ("grid", "euclid"):
        board = gen_random_tree_board(2026, box_w=30, box_h=30, r=40, model=model)
        t0 = time.monotonic()
        walk = solve_crystal_bonds(board)
        elapsed = time.monotonic() - t0
        results.append((model, elapsed, verify_bond_walk(board, walk).ok))
    ok = all(elapsed < 60 and verified for _, elapsed, verified in results)
    report(9, ok, ", ".join(f"{m} {e:.2f}s" for m, e, _ in results))
    assert ok, results
