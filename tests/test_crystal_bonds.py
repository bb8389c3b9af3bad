import dataclasses
import gc
import math
import random
from collections import Counter

import pytest

from riftpuzzles import crystal_bonds
from riftpuzzles.crystal_bonds import (
    MODELS,
    ODD_SET_LIMIT,
    BondBoard,
    BondWalk,
    UnreachableCrystal,
    apply_start_gadget,
    brute_force_crystal_bonds,
    crystal_metric,
    decide_dcb,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    rural_postman_connected,
    solve_crystal_bonds,
    verify_bond_walk,
)
from riftpuzzles.geometry import TileRegion, gen_random_region, tile_center
from riftpuzzles.graphs import (
    GridGraph,
    InstanceTooLarge,
    enumerate_grid_graphs,
    has_ham_cycle_grid,
    has_ham_path_grid,
)
from riftpuzzles.instance_io import parse, serialize


def corridor(n):
    return TileRegion(frozenset((x, 0) for x in range(n)))


def trio_board(start_tile):
    # crystals B, A, C at consecutive tile centers; bonds A-B and A-C
    return BondBoard(
        corridor(3),
        (tile_center((0, 0)), tile_center((1, 0)), tile_center((2, 0))),
        tile_center(start_tile),
        ((0, 1), (1, 2)),
        "grid",
    )


def test_board_validation():
    region = corridor(3)
    a, b, c = tile_center((0, 0)), tile_center((1, 0)), tile_center((2, 0))
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), a, ((0, 1),), "manhattan")
    with pytest.raises(ValueError):
        BondBoard(region, ((0.0, 0.0),), None, (), "grid")  # corner, not center
    with pytest.raises(ValueError):
        BondBoard(region, (a, a), None, (), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 0),), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 1), (1, 0)), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b, c), None, ((0, 1), (1, 2), (0, 2)), "grid")
    with pytest.raises(ValueError):
        BondBoard(region, (a, b), None, ((0, 2),), "grid")
    with pytest.raises(ValueError):
        BondWalk((0,), -1.0)
    for length in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="finite"):
            BondWalk((0,), float(length))


def test_board_refuses_tile_centers_no_float_holds():
    # below 2**52 a float holds x + 0.5 exactly; the center of tile 2**52
    # rounds to its wall, and tile -2**52 sits at the limit's other side
    for x, ok in ((2**51, True), (2**52 - 1, True), (1 - 2**52, True), (2**52, False), (-(2**52), False)):
        region = TileRegion(frozenset({(x, 0), (x, 1)}))
        for start in (None, tile_center((x, 1))):
            args = (region, (tile_center((x, 0)),), start, (), "euclid")
            if ok:
                assert BondBoard(*args).crystals == (tile_center((x, 0)),)
            else:
                with pytest.raises(ValueError, match=r"strictly between -2\*\*52 and 2\*\*52"):
                    BondBoard(*args)
    far = TileRegion(frozenset({(0, 0), (2**52, 0)}))
    with pytest.raises(ValueError, match=r"2\*\*52"):
        BondBoard(far, (tile_center((0, 0)),), tile_center((2**52, 0)), (), "grid")


def test_connected_flag():
    region = corridor(4)
    pts = tuple(tile_center((x, 0)) for x in range(4))
    assert BondBoard(region, pts, None, ((0, 1), (1, 2), (2, 3)), "grid").connected
    assert not BondBoard(region, pts, None, ((0, 1), (2, 3)), "grid").connected
    assert BondBoard(region, pts[:1], None, (), "grid").connected


def test_metric_examples():
    b = trio_board((0, 0))
    m = crystal_metric(b)
    assert m[0][1] == 1 and m[1][2] == 1 and m[0][2] == 2
    assert all(m[i][i] == 0 for i in range(3))
    assert m[3][0] == 0  # start coincides with crystal B
    split = TileRegion(frozenset({(0, 0), (5, 5)}))
    bad = BondBoard(
        split, (tile_center((0, 0)), tile_center((5, 5))), None, ((0, 1),), "grid"
    )
    with pytest.raises(UnreachableCrystal):
        crystal_metric(bad)


def spy_builds(monkeypatch):
    """Count the distance matrices crystal_metric builds, on an empty cache."""
    builds = []
    for name in ("euclidean_geodesic_matrix", "grid_distance_matrix"):
        build = getattr(crystal_bonds, name)
        monkeypatch.setattr(
            crystal_bonds, name, lambda *args, build=build, name=name: builds.append(name) or build(*args)
        )
    crystal_bonds._metric_of.cache_clear()
    return builds


def test_equal_boards_share_one_metric(monkeypatch):
    builds = spy_builds(monkeypatch)
    for model in MODELS:
        text = serialize(gen_random_tree_board(5, 9, 9, 8, model))
        first, second = parse("bond-board", text), parse("bond-board", text)
        assert first == second and first is not second and first.region is not second.region
        assert crystal_metric(first) is crystal_metric(second)
    assert builds == ["grid_distance_matrix", "euclidean_geodesic_matrix"]


def test_metric_cache_never_serves_another_board(monkeypatch):
    builds = spy_builds(monkeypatch)
    ends = (tile_center((0, 0)), tile_center((2, 0)))
    straight = BondBoard(corridor(3), ends, None, ((0, 1),), "grid")
    bent = dataclasses.replace(straight, region=TileRegion(frozenset({(0, 0), (0, 1), (1, 1), (2, 1), (2, 0)})))
    assert crystal_metric(straight) == ((0, 2), (2, 0))
    assert crystal_metric(bent) == ((0, 4), (4, 0))
    square = TileRegion(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    diagonal = BondBoard(square, (tile_center((0, 0)), tile_center((1, 1))), None, ((0, 1),), "grid")
    assert crystal_metric(diagonal) == ((0, 2), (2, 0))
    assert crystal_metric(dataclasses.replace(diagonal, distance_model="euclid")) == (
        (0, math.sqrt(2)), (math.sqrt(2), 0)
    )
    with_start = dataclasses.replace(diagonal, start=tile_center((1, 0)))
    assert crystal_metric(with_start) == ((0, 2, 1), (2, 0, 1), (1, 1, 0))
    assert len(builds) == 5


def test_metric_of_a_cut_board_raises_every_time(monkeypatch):
    builds = spy_builds(monkeypatch)
    split = TileRegion(frozenset({(0, 0), (5, 5)}))
    cut = BondBoard(split, (tile_center((0, 0)), tile_center((5, 5))), None, ((0, 1),), "grid")
    whole = trio_board((0, 0))
    counts = []
    for board in (cut, cut, whole, cut, whole):
        if board is cut:
            with pytest.raises(UnreachableCrystal):
                crystal_metric(board)
        else:
            assert crystal_metric(board)[0] == (0, 1, 2, 0)
        counts.append(len(builds))
    # a cut board is built on every call and never evicts the last good one
    assert counts == [1, 2, 3, 4, 4]


def test_metric_rows_are_read_only():
    m = crystal_metric(trio_board((0, 0)))
    with pytest.raises(TypeError):
        m[0][1] = 5
    with pytest.raises(TypeError):
        m[0] = (0, 0, 0, 0)
    assert crystal_metric(trio_board((0, 0)))[0][1] == 1


def test_metric_euclid_straight_line():
    b = BondBoard(
        corridor(3),
        (tile_center((0, 0)), tile_center((2, 0))),
        None,
        ((0, 1),),
        "euclid",
    )
    m = crystal_metric(b)
    assert abs(m[0][1] - 2.0) < 1e-12


def test_single_bond_cost():
    region = corridor(3)
    b = BondBoard(
        region,
        (tile_center((0, 0)), tile_center((2, 0))),
        tile_center((1, 0)),
        ((0, 1),),
        "grid",
    )
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 3  # 1 to either crystal, 2 across
    assert verify_bond_walk(b, walk).ok
    assert brute_force_crystal_bonds(b).total_length == 3


def test_trio_start_at_end_walks_through():
    walk = solve_crystal_bonds(trio_board((0, 0)))
    assert walk.total_length == 2
    assert walk.visit_sequence == (0, 1, 2)


def test_trio_start_at_middle_pays_backtrack():
    b = trio_board((1, 0))
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 3
    assert brute_force_crystal_bonds(b).total_length == 3
    assert verify_bond_walk(b, walk).ok


def test_star_tree_needs_one_deadhead():
    region = TileRegion(frozenset({(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}))
    pts = tuple(tile_center(t) for t in ((1, 1), (1, 0), (0, 1), (2, 1)))
    b = BondBoard(region, pts, tile_center((1, 1)), ((0, 1), (0, 2), (0, 3)), "grid")
    walk = solve_crystal_bonds(b)
    assert walk.total_length == 5
    assert brute_force_crystal_bonds(b).total_length == 5
    assert verify_bond_walk(b, walk).ok


def test_rural_postman_rejects_disconnected_required_set():
    b = trio_board((0, 0))
    m = crystal_metric(b)
    with pytest.raises(ValueError):
        rural_postman_connected(m, [(0, 1)] + [(2, 2)], 3)
    # a connected required set may close a cycle; only a split is refused
    assert rural_postman_connected(m, [(0, 1), (1, 2), (0, 2)], 3) == ((0, 1, 2, 0), 4)
    with pytest.raises(ValueError):
        solve_crystal_bonds(
            BondBoard(corridor(4), tuple(tile_center((x, 0)) for x in range(4)),
                      None, ((0, 1), (2, 3)), "grid")
        )


@pytest.mark.parametrize(
    "edges,want",
    [
        ([(0, 1), (1, 2), (0, 2)], ((0, 1, 2, 0), 6)),
        ([(1, 2), (2, 3), (1, 3)], ((1, 2, 3, 1), 5)),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], ((0, 1, 2, 3, 0), 6)),
    ],
)
def test_free_start_closed_tour_enters_at_the_first_crystal(edges, want):
    # no start and no odd crystal: only closed tours compete, all at one
    # cost, and the first touched crystal opens the tour
    metric = [[0, 2, 3, 1], [2, 0, 1, 2], [3, 1, 0, 2], [1, 2, 2, 0]]
    got = rural_postman_connected(metric, edges)
    assert got == want
    assert type(got[1]) is int  # an integer metric keeps an integer total


def test_empty_bond_set():
    b = BondBoard(corridor(2), (tile_center((0, 0)),), None, (), "grid")
    walk = brute_force_crystal_bonds(b)
    assert walk.visit_sequence == () and walk.total_length == 0
    assert verify_bond_walk(b, walk).ok
    assert solve_crystal_bonds(b).total_length == 0


def test_verify_rejects_bad_walks():
    b = trio_board((0, 0))
    good = solve_crystal_bonds(b)
    missing = verify_bond_walk(b, BondWalk((0, 1), 1.0))
    assert not missing.ok and missing.rule == "missing bond" and missing.detail == (1, 2)
    lied = verify_bond_walk(b, BondWalk(good.visit_sequence, good.total_length - 1))
    assert not lied.ok and lied.rule == "length mismatch"
    alien = verify_bond_walk(b, BondWalk((0, 7), 1.0))
    assert not alien.ok and alien.rule == "bad crystal index"


def test_solver_matches_oracle_on_random_boards():
    for seed in range(25):
        model = "grid" if seed % 2 == 0 else "euclid"
        board = gen_random_tree_board(seed, box_w=6, box_h=6, r=3 + seed % 4, model=model)
        got = solve_crystal_bonds(board)
        want = brute_force_crystal_bonds(board)
        assert abs(got.total_length - want.total_length) <= 1e-9, seed
        assert verify_bond_walk(board, got).ok
        assert verify_bond_walk(board, want).ok


def test_adding_a_bond_never_helps():
    for seed in range(12):
        board = gen_random_tree_board(seed + 100, box_w=6, box_h=6, r=5)
        rng = random.Random(seed)
        bonds = list(board.required_bonds)
        rng.shuffle(bonds)
        prev = 0.0
        for cut in range(1, len(bonds) + 1):
            partial = BondBoard(
                board.region, board.crystals, board.start,
                tuple(bonds[:cut]), board.distance_model,
            )
            length = brute_force_crystal_bonds(partial).total_length
            assert length >= prev - 1e-9
            prev = length


def top_down_brute_force(board):
    """brute_force_crystal_bonds's former form: a memoized recursion
    `after(mask, last)` returning (cost, tuple of (u, w) bond steps), with
    the root state's candidates tried in a separate loop."""
    bonds = board.required_bonds
    if not bonds:
        return BondWalk((), 0.0)
    metric = crystal_metric(board)
    start_index = None if board.start is None else len(board.crystals)
    full = (1 << len(bonds)) - 1
    memo = {}

    def after(mask, last):
        if mask == full:
            return 0.0, ()
        key = (mask, last)
        if key in memo:
            return memo[key]
        best = (math.inf, ())
        for i, (p, q) in enumerate(bonds):
            if mask & (1 << i):
                continue
            for u, w in ((p, q), (q, p)):
                tail_cost, tail = after(mask | (1 << i), w)
                cand = metric[last][u] + metric[u][w] + tail_cost
                if cand < best[0]:
                    best = (cand, ((u, w),) + tail)
        memo[key] = best
        return best

    best = (math.inf, ())
    for i, (p, q) in enumerate(bonds):
        for u, w in ((p, q), (q, p)):
            tail_cost, tail = after(1 << i, w)
            first_leg = 0.0 if start_index is None else metric[start_index][u]
            cand = first_leg + metric[u][w] + tail_cost
            if cand < best[0]:
                best = (cand, ((u, w),) + tail)

    seq = []
    for u, w in best[1]:
        if not seq or seq[-1] != u:
            seq.append(u)
        seq.append(w)
    return BondWalk(tuple(seq), best[0])


def connects_all_crystals(board):
    try:
        crystal_metric(board)
    except UnreachableCrystal:
        return False
    return True


def test_brute_force_matches_former_recursion():
    # same recurrence, same candidate sums and the same strict < in bond,
    # then orientation, order: equal walks and bit-equal lengths
    boards = []
    for g in enumerate_grid_graphs(3, 3, 7):
        if len(g) == 7:
            board, _ = reduce_grid_to_dcb(g)
            boards += [board, apply_start_gadget(board, g)[0]]
    for seed in range(130):
        model = ("grid", "euclid")[seed % 2]
        board = gen_random_tree_board(seed + 300, box_w=6, box_h=6, r=2 + seed % 7, model=model)
        boards += [board, dataclasses.replace(board, start=None)]
    # a gadget whose corridor break severs a bridge has no walk at all
    boards = [b for b in boards if connects_all_crystals(b)]
    assert len(boards) >= 300
    assert sum(len(b.required_bonds) == 8 and b.start is not None for b in boards) >= 10
    for board in boards:
        got = brute_force_crystal_bonds(board)
        want = top_down_brute_force(board)
        assert got.visit_sequence == want.visit_sequence, board
        assert got.total_length.hex() == want.total_length.hex(), board


def former_matching_pairs(metric, members, matching, mask):
    """rural_postman_connected's former deadhead reconstruction: walk the
    cost table again and take, for the lowest bit, the first partner whose
    candidate cost lies within a 1e-12 relative tolerance of the optimum."""
    pairs = []
    while mask:
        low = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << low)
        m = rest
        while m:
            j = (m & -m).bit_length() - 1
            nxt = rest & ~(1 << j)
            cost = metric[members[low]][members[j]] + matching(nxt)
            if abs(cost - matching(mask)) <= 1e-12 * max(1.0, abs(cost)):
                pairs.append((members[low], members[j]))
                mask = nxt
                break
            m &= m - 1
        else:
            raise AssertionError("matching table reconstruction failed")
    return pairs


def spider_board(seed, side, legs, leg_len):
    """Grid board whose bonds are `legs` chains from one hub: an odd `legs`
    gives legs + 1 odd-degree crystals."""
    rng = random.Random(seed)
    region = gen_random_region(rng.randrange(2**32), side, side, side * side * 2 // 3)
    r = 1 + legs * leg_len
    picks = rng.sample(sorted(region.tiles), r + 1)
    bonds = [
        (1 + leg * leg_len + step - 1 if step else 0, 1 + leg * leg_len + step)
        for leg in range(legs)
        for step in range(leg_len)
    ]
    return BondBoard(
        region, tuple(map(tile_center, picks[:r])), tile_center(picks[r]), tuple(bonds), "grid"
    )


def test_recorded_partners_match_former_reconstruction(monkeypatch):
    # the recorded partner is the first one in lowest-bit order that reaches
    # the optimum under the same strict <; the former reconstruction took
    # the first one within 1e-12 of it, and no board here tells them apart
    boards = [gen_random_tree_board(seed, 30, 30, 40, "euclid") for seed in range(4)]
    boards += [spider_board(seed, 30, 15, 2) for seed in range(3)]
    boards += [spider_board(seed, 50, 13, 3) for seed in range(3, 5)]
    for seed in range(120):
        model = ("grid", "euclid")[seed % 2]
        board = gen_random_tree_board(seed + 700, box_w=7, box_h=7, r=2 + seed % 11, model=model)
        boards += [board, dataclasses.replace(board, start=None)]
    assert sum(board.distance_model == "euclid" for board in boards) >= 120

    recorded = crystal_bonds._min_matching

    def former(metric, members):
        cost = recorded(metric, members)[0]
        return cost, lambda mask: former_matching_pairs(metric, members, cost, mask)

    odd_counts = Counter()
    for board in boards:
        metric = crystal_metric(board)
        degree = Counter(v for bond in board.required_bonds for v in bond)
        odd = sorted(v for v, d in degree.items() if d % 2)
        odd_counts[len(odd)] += 1
        # every mask the postman can read back: all odd crystals, or all
        # but an open walk's two ends
        cost, pairs = recorded(metric, odd)
        full = (1 << len(odd)) - 1
        masks = [full] + [full & ~(1 << i) & ~(1 << j) for j in range(len(odd)) for i in range(j)]
        for mask in masks:
            cost(mask)
            assert pairs(mask) == former_matching_pairs(metric, odd, cost, mask), board
        got = solve_crystal_bonds(board)
        with monkeypatch.context() as patch:
            patch.setattr(crystal_bonds, "_min_matching", former)
            want = solve_crystal_bonds(board)
        assert got.visit_sequence == want.visit_sequence, board
        assert got.total_length.hex() == want.total_length.hex(), board
    assert odd_counts[16] >= 3 and odd_counts[14] >= 2


def former_matching_cost(metric, members, table, partner, mask):
    """_matching_cost's former form: it recursed on every submask and
    returned at once on a memo hit."""
    if mask in table:
        return table[mask]
    low = (mask & -mask).bit_length() - 1
    best, choice = math.inf, 0
    rest = mask & ~(1 << low)
    m = rest
    while m:
        j = (m & -m).bit_length() - 1
        sub = former_matching_cost(metric, members, table, partner, rest & ~(1 << j))
        cand = metric[members[low]][members[j]] + sub
        if cand < best:
            best, choice = cand, j
        m &= m - 1
    table[mask] = best
    partner[mask] = choice
    return best


def test_matching_cost_matches_former_recursion():
    # the same masks in the same bit order, the same sums and the same
    # strict <: bit-equal costs and the same recorded partners, ties too
    rng = random.Random(15)
    for n in range(2, 17, 2):
        for tied in (False, True):
            size = n + 3
            metric = [[0.0] * size for _ in range(size)]
            for a in range(size):
                for b in range(a):
                    metric[a][b] = metric[b][a] = float(rng.randint(1, 3)) if tied else rng.uniform(0.5, 60)
            members = sorted(rng.sample(range(size), n))
            full = (1 << n) - 1
            masks = [full] + [full & ~(1 << i) & ~(1 << j) for i in range(n) for j in range(i)]
            rng.shuffle(masks)
            got, want = ({0: 0.0}, bytearray(1 << n)), ({0: 0.0}, bytearray(1 << n))
            for mask in masks:
                cost = crystal_bonds._matching_cost(metric, members, *got, mask)
                assert cost.hex() == former_matching_cost(metric, members, *want, mask).hex()
            assert {k: v.hex() for k, v in got[0].items()} == {k: v.hex() for k, v in want[0].items()}
            assert got[1] == want[1], (n, tied)


def test_solve_leaves_no_reference_cycle():
    # the matching table and partner array of a 16-odd-crystal board are
    # freed when the postman returns, not when the cyclic collector runs
    board = spider_board(0, 30, 15, 2)
    gc.collect()
    gc.disable()
    try:
        solve_crystal_bonds(board)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_brute_force_bond_limit():
    board = gen_random_tree_board(3, box_w=6, box_h=6, r=10)
    assert len(board.required_bonds) == 9
    with pytest.raises(InstanceTooLarge, match="limited to 8 bonds"):
        brute_force_crystal_bonds(board)


def test_reduce_domino_shape():
    g = GridGraph(frozenset({(0, 0), (1, 0)}))
    board, threshold = reduce_grid_to_dcb(g)
    assert threshold == 9
    assert len(board.region) == 6
    assert board.start is None and board.distance_model == "grid"
    assert board.crystals[:2] == (tile_center((0, 0)), tile_center((5, 0)))
    assert board.crystals[2:] == (tile_center((1, 0)), tile_center((4, 0)))
    assert board.required_bonds == ((0, 2), (1, 3))
    assert not board.connected
    m = crystal_metric(board)
    assert m[0][1] == 5  # adjacent vertices sit one scaled edge apart
    assert decide_dcb(board, threshold)


def test_reduce_square_vertex_spacing():
    g = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    board, threshold = reduce_grid_to_dcb(g)
    assert threshold == (4 - 1) * 9 + 8
    m = crystal_metric(board)
    assert m[0][1] == 9 and m[0][2] == 9 and m[1][3] == 9
    vertex_partner = [m[i][4 + i] for i in range(4)]
    assert vertex_partner == [1, 1, 1, 1]


def test_reduce_rejects_bad_input():
    with pytest.raises(ValueError):
        reduce_grid_to_dcb(GridGraph(frozenset({(0, 0)})))
    with pytest.raises(ValueError):
        reduce_grid_to_dcb(GridGraph(frozenset({(0, 0), (3, 3)})))


def test_gadget_leaf_branch():
    g = GridGraph(frozenset({(0, 0), (1, 0), (2, 0)}))
    board, threshold = reduce_grid_to_dcb(g)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-path"
    assert gthreshold == threshold == (3 - 1) * 7 + 6
    assert gadget.start == tile_center((-1, 0))
    assert len(gadget.region) == len(board.region) + 1
    assert gadget.required_bonds == board.required_bonds
    assert decide_dcb(gadget, gthreshold)


def test_gadget_cycle_branch_square():
    g = GridGraph(frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))
    board, _ = reduce_grid_to_dcb(g)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-cycle"
    assert gthreshold == 44
    assert gadget.start == tile_center((-1, 9))
    assert (0, 8) not in gadget.region.tiles
    assert {(-1, 7), (-2, 7)} <= gadget.region.tiles
    assert gadget.required_bonds[-1] == (8, 9)
    assert decide_dcb(gadget, gthreshold)


def test_gadget_cycle_branch_rejects_cycleless_graph():
    # P-pentomino: leftmost column has no leaf, five vertices admit no cycle
    g = GridGraph(frozenset({(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}))
    assert has_ham_path_grid(g) and not has_ham_cycle_grid(g)
    board, threshold = reduce_grid_to_dcb(g)
    assert decide_dcb(board, threshold)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    assert detects == "ham-cycle"
    assert not decide_dcb(gadget, gthreshold)


def test_reduction_equivalence_small_sweep():
    for g in enumerate_grid_graphs(2, 2, 4):
        if len(g) < 2:
            continue
        board, threshold = reduce_grid_to_dcb(g)
        assert decide_dcb(board, threshold) == has_ham_path_grid(g), sorted(g.vertices)
        gadget, gthreshold, detects = apply_start_gadget(board, g)
        want = has_ham_path_grid(g) if detects == "ham-path" else has_ham_cycle_grid(g)
        assert decide_dcb(gadget, gthreshold) == want, sorted(g.vertices)


def test_generator_is_deterministic_and_bounded():
    assert gen_random_tree_board(7, box_w=7, box_h=7, r=20) == gen_random_tree_board(7, box_w=7, box_h=7, r=20)
    odd_counts = Counter()
    # more crystals than ODD_SET_LIMIT, so only the rewire cap keeps the bound
    for seed in range(8):
        for r in (17, 24, 32, 40):
            board = gen_random_tree_board(seed, box_w=8, box_h=8, r=r)
            assert len(board.crystals) == r and board.connected
            degree = Counter(c for bond in board.required_bonds for c in bond)
            odd_counts[sum(1 for c in range(r) if degree[c] % 2)] += 1
    assert max(odd_counts) <= ODD_SET_LIMIT
    assert len(odd_counts) > 3
    assert gen_random_tree_board(8, model="euclid").distance_model == "euclid"
