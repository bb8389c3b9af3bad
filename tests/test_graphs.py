import itertools
import random
import time
import tracemalloc

import pytest

from riftpuzzles import geometry, graphs
from riftpuzzles.graphs import (
    BudgetExhausted,
    Digraph,
    GridGraph,
    enumerate_grid_graphs,
    gen_random_digraph,
    grid_edges,
    has_directed_ham_path,
    has_ham_cycle_grid,
    has_ham_path_grid,
)
from riftpuzzles.hands_of_time import clock_to_digraph, gen_random_clock


def gg(*verts):
    return GridGraph(frozenset(verts))


def test_grid_edges_implicit_adjacency():
    g = gg((0, 0), (1, 0), (1, 1), (3, 3))
    assert grid_edges(g) == {((0, 0), (1, 0)), ((1, 0), (1, 1))}


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        GridGraph(frozenset())


def test_graph_stores_vertices_frozen():
    g = GridGraph({(0, 0), (1, 0)})
    assert type(g.vertices) is frozenset and g == gg((0, 0), (1, 0))
    assert hash(g) == hash(gg((0, 0), (1, 0)))


def test_failed_verdict_is_false():
    assert bool(graphs.Verdict(False, "rule", 1)) is False
    assert bool(graphs.Verdict(True)) is True


def test_ham_cycle_small_cases():
    # fewer than 4 vertices can never close a cycle
    assert not has_ham_cycle_grid(gg((0, 0)))
    assert not has_ham_cycle_grid(gg((0, 0), (1, 0)))
    assert not has_ham_cycle_grid(gg((0, 0), (1, 0), (2, 0)))
    # unit square is the smallest cycle
    assert has_ham_cycle_grid(gg((0, 0), (1, 0), (0, 1), (1, 1)))
    # 2x3 block cycles, 1x4 path does not
    assert has_ham_cycle_grid(gg(*[(x, y) for x in range(3) for y in range(2)]))
    assert not has_ham_cycle_grid(gg((0, 0), (1, 0), (2, 0), (3, 0)))
    # two unit squares joined by a bridge two tiles long: colour-balanced,
    # every degree at least 2, a Hamiltonian path leaves the minimum vertex,
    # but it cannot come back
    dumbbell = [(x, y) for x in (0, 1, 4, 5) for y in (0, 1)] + [(2, 0), (3, 0)]
    assert has_ham_path_grid(gg(*dumbbell)) and not has_ham_cycle_grid(gg(*dumbbell))


def test_ham_cycle_parity_obstruction():
    # odd number of vertices in a bipartite lattice: no Hamiltonian cycle
    block = [(x, y) for x in range(3) for y in range(3)]
    assert not has_ham_cycle_grid(gg(*block))


def test_ham_path_small_cases():
    assert has_ham_path_grid(gg((4, 7)))
    assert has_ham_path_grid(gg((0, 0), (1, 0), (2, 0)))
    assert not has_ham_path_grid(gg((0, 0), (2, 0)))  # disconnected
    # plus-shape: center has 4 leaves, no Hamiltonian path
    plus = gg((1, 1), (0, 1), (2, 1), (1, 0), (1, 2))
    assert not has_ham_path_grid(plus)


def test_long_ladder_searched_without_recursion():
    # 2x1000 ladders: a search would take 2,000 path steps, deeper than the
    # default recursion limit allows for one frame per step; the DP keeps a
    # few states per vertex whichever side the rows run across
    for w, h in ((2, 1000), (1000, 2)):
        g = gg(*[(x, y) for x in range(w) for y in range(h)])
        assert has_ham_cycle_grid(g)
        assert has_ham_path_grid(g)


def test_colour_imbalanced_graphs_have_no_tour():
    # odd area: one colour class has a vertex more, so no cycle
    for w, h in ((5, 5), (3, 7)):
        assert not has_ham_cycle_grid(gg(*[(x, y) for x in range(w) for y in range(h)]))
    # the plus: four leaves of one colour round a centre of the other
    assert not has_ham_path_grid(gg((1, 1), (0, 1), (2, 1), (1, 0), (1, 2)))


def former_colour_excess(g):
    odd = sum((x + y) & 1 for x, y in g.vertices)
    return abs(len(g) - 2 * odd)


def level_flood(seed, open_, need, stride):
    """True when a bitboard flood from `seed` through the `open_` bits
    covers `need`, one BFS level at a time."""
    seen = frontier = seed
    unseen = open_ & ~seed
    while need & ~seen:
        step = (frontier << 1) | (frontier >> 1) | (frontier << stride) | (frontier >> stride)
        frontier = step & unseen
        if not frontier:
            return False
        unseen ^= frontier
        seen |= frontier
    return True


def former_ham_search(g, cycle):
    """The backtracking search the frontier DP replaced, with its colour,
    degree and connectivity pre-checks: an explicit stack of neighbour
    iterators, each step pruned by a bitboard flood that must still reach
    every unvisited vertex and, for a cycle, the anchor it has to close on."""
    if cycle and (len(g) < 4 or former_colour_excess(g) or any(g.degree(v) < 2 for v in g.vertices)):
        return False
    if former_colour_excess(g) > 1 or not g.is_connected():
        return False
    starts = [min(g.vertices)] if cycle else g.sorted_vertices()
    board = geometry._packed(g.vertices)
    bit = {v: 1 << board.index(v) for v in g.vertices}
    anchor_bit = bit[starts[0]] if cycle else 0
    path, free, stack = [], board.cells, [iter(starts)]
    while stack:
        for nxt in stack[-1]:
            if free & bit[nxt]:
                free ^= bit[nxt]
                path.append(nxt)
                open_ = free | anchor_bit
                grow = level_flood(bit[nxt], open_, open_, board.stride)
                if grow and not free:
                    return True
                stack.append(iter(g.neighbors(nxt) if grow else ()))
                break
        else:
            stack.pop()
            if path:
                free ^= bit[path.pop()]
    return False


def test_frontier_dp_matches_former_search():
    # every enumeration Tier-1 sweeps, both orientations of the narrow boxes
    total = 0
    for box in ((3, 4, 9), (2, 6, 12), (6, 2, 12), (3, 3, 9), (1, 12, 12), (12, 1, 12)):
        for g in enumerate_grid_graphs(*box):
            total += 1
            for cycle, dp in ((True, has_ham_cycle_grid), (False, has_ham_path_grid)):
                assert dp(g) == former_ham_search(g, cycle), (cycle, sorted(g.vertices))
    assert total == 1051 + 2 * 681 + 218 + 2 * 78


def holed_boards():
    """The seeded holed boards: width 2-6, length 4-30, each cell kept with
    probability 0.9; the 5x15 and 5x16 ones among the first 250."""
    rng = random.Random(1)
    for _ in range(250):
        w, length = rng.randint(2, 6), rng.randint(4, 30)
        cells = {(x, y) for x in range(w) for y in range(length) if rng.random() < 0.9}
        if (w, length) in ((5, 15), (5, 16)):
            yield gg(*cells)


def test_holed_boards_decided_within_a_second():
    boards = list(holed_boards())
    assert [len(g) for g in boards] == [76, 69, 72, 72, 66]
    for g in boards:
        for oracle in (has_ham_cycle_grid, has_ham_path_grid):
            began = time.perf_counter()
            oracle(g)
            assert time.perf_counter() - began < 1.0, (oracle.__name__, sorted(g.vertices))
    assert [(has_ham_cycle_grid(g), has_ham_path_grid(g)) for g in boards] == [
        (False, False), (False, True), (False, True), (False, False), (False, False),
    ]


def test_far_apart_vertices_decided_at_once():
    g = gg((0, 0), (0, 2**53), (1, 1))
    began = time.perf_counter()
    assert not has_ham_cycle_grid(g) and not has_ham_path_grid(g)
    assert time.perf_counter() - began < 1.0


def test_wide_board_gives_up_at_the_state_cap():
    # a 30x30 square: its rows cross 30 columns, far past the cap
    square = gg(*[(x, y) for x in range(30) for y in range(30)])
    for oracle in (has_ham_cycle_grid, has_ham_path_grid):
        began = time.perf_counter()
        with pytest.raises(BudgetExhausted) as refused:
            oracle(square)
        assert str(refused.value).startswith(f"over {graphs.FRONTIER_STATE_LIMIT} frontier states at vertex ")
        assert time.perf_counter() - began < 1.0


def test_frontier_caps_pinned_at_their_exact_sizes(monkeypatch):
    # the 4x4 square's path scan peaks at 66 states, at vertex 10, and keeps
    # 500 in all before its last vertex answers: each cap at that size lets
    # it answer, and one less refuses at the vertex where it is passed
    square = gg(*[(x, y) for x in range(4) for y in range(4)])
    for peak, total, message in (
        (66, 500, None),
        (65, 500, "over 65 frontier states at vertex 10 of 16"),
        (66, 499, "over 499 frontier states in all by vertex 15 of 16"),
    ):
        monkeypatch.setattr(graphs, "FRONTIER_STATE_LIMIT", peak)
        monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", total)
        if message is None:
            assert has_ham_path_grid(square)
        else:
            with pytest.raises(BudgetExhausted) as refused:
                has_ham_path_grid(square)
            assert str(refused.value) == message


def test_grid_screens_refute_before_the_dp_at_their_exact_bounds(monkeypatch):
    # with no state allowed the DP gives up at its first vertex, so a graph a
    # screen refutes answers False and any other gives up
    line = gg((0, 0), (1, 0), (2, 0))  # colours 2 and 1; two vertices of degree 1
    notched = gg(*[(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 0)])  # colours 5 and 3
    fork = gg((0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (1, 2))  # colours 3 and 3; three of degree 1
    tailed = gg((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0))  # colours 3 and 3; one of degree 1
    odd = gg(*[(x, y) for x in range(3) for y in range(3)])  # colours 5 and 4
    unit = gg((0, 0), (1, 0), (0, 1), (1, 1))
    answers = {
        has_ham_path_grid: {line: True, notched: False, fork: False, tailed: True},
        has_ham_cycle_grid: {unit: True, odd: False, tailed: False},
    }
    for oracle, cases in answers.items():
        for g, want in cases.items():
            assert oracle(g) == want, (oracle, g)
    monkeypatch.setattr(graphs, "FRONTIER_STATE_LIMIT", 0)
    for oracle, cases in answers.items():
        for g, want in cases.items():
            if want:
                with pytest.raises(BudgetExhausted):
                    oracle(g)
            else:
                assert not oracle(g), (oracle, g)
    # a 31x31 square: its colours differ by 1, so it has no cycle, found at once
    # where the DP would give up
    monkeypatch.undo()
    assert not has_ham_cycle_grid(gg(*[(x, y) for x in range(31) for y in range(31)]))


# long rectangles in both orientations, and away from the origin: the span,
# not the coordinates, picks the scan direction
NARROW_SCANS = {
    "40x2": [(x, y) for x in range(40) for y in range(2)],
    "2x40": [(x, y) for x in range(2) for y in range(40)],
    "2x40+500x": [(x + 500, y) for x in range(2) for y in range(40)],
    "40x2+500y": [(x, y + 500) for x in range(40) for y in range(2)],
}


@pytest.mark.parametrize("name", NARROW_SCANS)
def test_both_frontier_dps_scan_across_the_narrow_side(monkeypatch, name):
    # across the 2-wide side a scan keeps a handful of states per vertex; along
    # the 40-long side it passes these caps, which the verdicts alone never show
    from riftpuzzles import tile_trial
    from riftpuzzles.tile_trial import reduce_grid_to_tile_trial, solve_tile_trial, verify_tile_path

    monkeypatch.setattr(graphs, "FRONTIER_STATE_LIMIT", 30)
    monkeypatch.setattr(tile_trial, "FRONTIER_STATE_LIMIT", 60)
    g = gg(*NARROW_SCANS[name])
    assert has_ham_cycle_grid(g)
    board = reduce_grid_to_tile_trial(g)
    path = solve_tile_trial(board)
    assert path is not None and verify_tile_path(board, path).ok


def test_long_board_gives_up_at_the_scan_cap():
    # 8 wide and 1,000 long: under the cap at each vertex, but the states
    # summed over the scan pass theirs within seconds (the whole scan would
    # take minutes)
    board = gg(*[(x, y) for x in range(8) for y in range(1000)])
    began = time.perf_counter()
    with pytest.raises(BudgetExhausted) as refused:
        has_ham_path_grid(board)
    assert str(refused.value).startswith(f"over {graphs._SCAN_STATE_LIMIT} frontier states in all by vertex ")
    assert time.perf_counter() - began < 10.0


def test_ham_cycle_matches_permutation_brute_force():
    # fix the minimum vertex, try every order of the rest, close the loop
    def naive(g):
        first, *rest = g.sorted_vertices()
        if len(g) < 3:
            return False
        edges = grid_edges(g)
        for perm in itertools.permutations(rest):
            ring = (first, *perm, first)
            if all((min(a, b), max(a, b)) in edges for a, b in zip(ring, ring[1:])):
                return True
        return False

    graphs = list(enumerate_grid_graphs(3, 3, 8))
    assert len(graphs) > 200
    assert sum(has_ham_cycle_grid(g) for g in graphs) > 5
    for g in graphs:
        assert has_ham_cycle_grid(g) == naive(g), sorted(g.vertices)


def test_ham_path_matches_permutation_brute_force():
    def naive(g):
        edges = grid_edges(g)
        return any(
            all((min(a, b), max(a, b)) in edges for a, b in zip(order, order[1:]))
            for order in itertools.permutations(g.sorted_vertices())
        )

    graphs = list(enumerate_grid_graphs(3, 3, 6))
    assert sum(has_ham_path_grid(g) for g in graphs) > 20
    for g in graphs:
        assert has_ham_path_grid(g) == naive(g), sorted(g.vertices)


def test_cycle_implies_path():
    for g in enumerate_grid_graphs(3, 3, 7):
        if has_ham_cycle_grid(g):
            assert has_ham_path_grid(g)


def test_enumerate_tiny_boxes():
    assert len(list(enumerate_grid_graphs(1, 1, 1))) == 1
    # 2x1 box: two singletons and the domino
    graphs = list(enumerate_grid_graphs(2, 1, 2))
    assert len(graphs) == 3
    # a fresh flood: the enumerated graphs' own answer is the enumerator's claim
    assert all(geometry._connected(g.vertices) for g in graphs)


def test_enumerate_no_duplicates_and_connected():
    seen = set()
    for g in enumerate_grid_graphs(3, 3, 9):
        assert g.vertices not in seen
        seen.add(g.vertices)
        assert geometry._connected(g.vertices)
    # pinned: connected induced subgraphs of the 3x3 box, by brute subset scan
    assert len(seen) == 218


def spy_floods(monkeypatch):
    """The vertex sets `GridGraph.is_connected` floods from now on."""
    floods = []
    monkeypatch.setattr(graphs, "_connected", lambda cells: floods.append(cells) or geometry._connected(cells))
    return floods


def test_enumerated_graphs_carry_the_flood_answer(monkeypatch):
    every = list(enumerate_grid_graphs(5, 3, 15))
    assert len(every) == 5726
    floods = spy_floods(monkeypatch)
    assert [g.is_connected() for g in every] == [geometry._connected(g.vertices) for g in every]
    assert floods == []


@pytest.mark.parametrize("cells, connected", [({(0, 0), (1, 0), (1, 1)}, True), ({(0, 0), (2, 0)}, False)])
def test_a_built_graph_floods_once(monkeypatch, cells, connected):
    floods = spy_floods(monkeypatch)
    g = GridGraph(frozenset(cells))
    assert g.is_connected() is g.is_connected() is connected
    assert floods == [g.vertices]
    # the kept answer is no field: equality, hash and repr are the vertices'
    fresh = GridGraph(frozenset(cells))
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)


def former_enumeration(box_w, box_h, max_vertices):
    """The enumerator before it grew connected sets: every subset of each
    size in `combinations` order, kept when one flood from its first cell
    reaches the rest."""
    cells = [(x, y) for x in range(box_w) for y in range(box_h)]
    for size in range(1, min(max_vertices, len(cells)) + 1):
        for combo in itertools.combinations(cells, size):
            seen, todo = {combo[0]}, [combo[0]]
            while todo:
                x, y = todo.pop()
                for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if nxt in combo and nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
            if len(seen) == size:
                yield gg(*combo)


def test_enumeration_matches_the_subset_scan():
    # every box of at most 12 cells and every max_v from 0 past its cells;
    # each max_v's stream is the former full stream cut at that size
    boxes = [(w, h) for w in range(1, 13) for h in range(1, 13) if w * h <= 12]
    assert len(boxes) == 35
    for w, h in boxes:
        full = list(former_enumeration(w, h, w * h))
        for max_v in range(w * h + 2):
            want = [g for g in full if len(g) <= max_v]
            assert list(enumerate_grid_graphs(w, h, max_v)) == want, (w, h, max_v)


def test_enumerate_box_limit(monkeypatch):
    # the sets built, of every size so far, may not pass the budget; a box's
    # one-cell sets are counted before any is built, so this box costs nothing
    with pytest.raises(BudgetExhausted, match=r"^over 200000 connected sets in all by size 1 in box 1000000x1000000$"):
        next(enumerate_grid_graphs(10**6, 10**6, 3))
    # a 3x3 box holds 9 one-cell sets, 12 of two cells and 22 of three
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 8)
    with pytest.raises(BudgetExhausted, match=r"^over 8 connected sets in all by size 1 in box 3x3$"):
        next(enumerate_grid_graphs(3, 3, 0))
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 21)
    assert len(list(enumerate_grid_graphs(3, 3, 2))) == 21
    yielded = []
    with pytest.raises(BudgetExhausted, match=r"^over 21 connected sets in all by size 3 in box 3x3$"):
        yielded.extend(enumerate_grid_graphs(3, 3, 3))
    assert yielded == list(enumerate_grid_graphs(3, 3, 2))
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 43)
    assert len(list(enumerate_grid_graphs(3, 3, 3))) == 43
    for box in ((0, 3), (3, 0), (-1, 2)):
        with pytest.raises(ValueError, match="box dimensions must be positive"):
            list(enumerate_grid_graphs(*box, 3))


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Digraph(2, ((0, 5),))
    d = Digraph(3, ((0, 1), (1, 2), (2, 0), (2, 1)))
    assert d.outdeg12
    assert not Digraph(2, ((0, 1),)).outdeg12  # vertex 1 has outdegree 0


def random_digraph(v, seed, max_out):
    """Seeded digraph with per-vertex outdegree 1 to `max_out`.  At
    max_out = 2 it is the former `gen_random_digraph`, which kept a third
    vertex on one pair of out-neighbors."""
    rng = random.Random(seed)
    arcs = []
    for s in range(v):
        deg = rng.randint(1, min(max_out, v - 1))
        arcs += ((s, t) for t in sorted(rng.sample([t for t in range(v) if t != s], deg)))
    return Digraph(v, tuple(arcs))


def holds_a_shared_triple(d):
    """True when three vertices have the same pair of out-neighbors."""
    pairs = [tuple(sorted(d.out_neighbors(s))) for s in range(d.vertex_count)]
    return any(pairs.count(pair) > 2 for pair in pairs if len(pair) == 2)


def test_random_digraphs_redraw_only_a_third_vertex_on_one_out_pair():
    # the clock reduction has two midpoints per out-pair: no draw holds a
    # third vertex on one, and every draw the former generator made without
    # one keeps its arcs
    redrawn = 0
    for v in range(2, 17):
        for seed in range(200):
            got, former = gen_random_digraph(v, seed), random_digraph(v, seed, 2)
            assert not holds_a_shared_triple(got), (v, seed)
            assert got == former or holds_a_shared_triple(former), (v, seed)
            redrawn += got != former
    assert redrawn > 0


def test_directed_ham_path_basics():
    assert has_directed_ham_path(Digraph(1, ()))
    assert has_directed_ham_path(Digraph(3, ((0, 1), (1, 2))))
    assert not has_directed_ham_path(Digraph(3, ((0, 1), (0, 2))))
    # direction matters
    assert not has_directed_ham_path(Digraph(3, ((1, 0), (1, 2))))
    # two vertices with no in-arc, 0 and 1, cannot both start a path
    assert not has_directed_ham_path(Digraph(3, ((0, 2), (1, 2))))
    # the one vertex with no in-arc, 2, starts it
    assert has_directed_ham_path(Digraph(3, ((0, 1), (1, 0), (2, 1))))
    assert has_directed_ham_path(Digraph(3, ((1, 0), (1, 2), (0, 1))))
    # against every vertex order, at out-degree up to 1, 2 or 3
    for v in range(2, 7):
        for seed in range(40):
            d = random_digraph(v, seed, 1 + seed % 3)
            arcs = set(d.arcs)
            orders = itertools.permutations(range(v))
            want = any(set(zip(order, order[1:])) <= arcs for order in orders)
            assert has_directed_ham_path(d) == want, d


def test_directed_ham_path_limit(monkeypatch):
    # the sets held, of every size so far, may not pass the state budget; the
    # complete 10-vertex digraph holds every nonempty set: 10, 45, 120, ... 1
    complete = Digraph(10, tuple((s, t) for s in range(10) for t in range(10) if s != t))
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 1023)
    assert has_directed_ham_path(complete)
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 1022)
    with pytest.raises(BudgetExhausted, match=r"^over 1022 vertex sets in all by size 10 of 10$"):
        has_directed_ham_path(complete)
    # a budget passed part way names the size whose layer passed it
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 55)
    with pytest.raises(BudgetExhausted, match=r"^over 55 vertex sets in all by size 3 of 10$"):
        has_directed_ham_path(complete)
    # the one-vertex sets count too
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 9)
    with pytest.raises(BudgetExhausted, match=r"^over 9 vertex sets in all by size 1 of 10$"):
        has_directed_ham_path(complete)
    # two vertices with no in-arc refute a path before n entries are built
    assert not has_directed_ham_path(Digraph(2**53, ((0, 1),)))
    # past the former 16-vertex limit: a 17-cycle holds 17 sets of each size
    monkeypatch.setattr(graphs, "_SCAN_STATE_LIMIT", 17 * 17)
    assert has_directed_ham_path(Digraph(17, tuple((i, (i + 1) % 17) for i in range(17))))


def test_the_two_hamiltonian_referees_agree():
    # the grid frontier DP and the digraph subset DP share no code; on a grid
    # graph's symmetric digraph they answer the same question
    graphs = list(enumerate_grid_graphs(5, 3, 15))
    with_path = 0
    for g in graphs:
        index = {v: i for i, v in enumerate(sorted(g.vertices))}
        arcs = tuple((index[a], index[b]) for u, v in sorted(grid_edges(g)) for a, b in ((u, v), (v, u)))
        want = has_directed_ham_path(Digraph(len(index), arcs))
        assert has_ham_path_grid(g) == want, g
        with_path += want
    assert (len(graphs), with_path) == (5726, 2454)


def former_directed_dp(d):
    """has_directed_ham_path's former form: the same subset DP, stepping
    from every mask in increasing order, whether a path reaches it or not."""
    n = d.vertex_count
    succ_mask = [0] * n
    for s, t in d.arcs:
        succ_mask[s] |= 1 << t
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    for v in range(n):
        dp[1 << v] = 1 << v
    for mask in range(1, full + 1):
        ends = dp[mask]
        while ends:
            end = ends & -ends
            fresh = succ_mask[end.bit_length() - 1] & ~mask
            while fresh:
                bit = fresh & -fresh
                dp[mask | bit] |= bit
                fresh ^= bit
            ends ^= end
    return dp[full] != 0


def test_directed_oracle_matches_the_former_all_masks_dp():
    # sparse digraphs, where the reached sets are few, and complete ones,
    # where every set is reached
    digraphs = [Digraph(1, ())]
    digraphs += [random_digraph(v, seed, out) for v in range(2, 15) for out in (1, 2, 3) for seed in range(52)]
    digraphs += [Digraph(v, tuple(itertools.permutations(range(v), 2))) for v in range(2, 11)]
    digraphs += [clock_to_digraph(gen_random_clock(n, seed)) for n in range(2, 17) for seed in range(20)]
    assert len(digraphs) >= 2_000
    verdicts = [has_directed_ham_path(d) for d in digraphs]
    assert verdicts == [former_directed_dp(d) for d in digraphs]
    assert 500 < sum(verdicts) < len(digraphs) - 500, sum(verdicts)


def test_directed_oracle_keeps_only_the_reached_sets():
    # 16 vertices at out-degree 1 or 2: a 2^16-entry table per call peaked
    # near 530 KB; the sets some path reaches take a few KB
    for seed in range(8):
        d = gen_random_digraph(16, seed)
        tracemalloc.start()
        try:
            has_directed_ham_path(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (seed, peak)


def every_start_directed_dp(d):
    """has_directed_ham_path with a path seeded at every vertex, even where
    one vertex has no in-arc and so must start any path."""
    n = d.vertex_count
    succ_mask = [0] * n
    for s, t in d.arcs:
        succ_mask[s] |= 1 << t
    layer = {1 << v: 1 << v for v in range(n)}
    for _ in range(n - 1):
        grown = {}
        for mask, ends in layer.items():
            while ends:
                end = ends & -ends
                fresh = succ_mask[end.bit_length() - 1] & ~mask
                while fresh:
                    bit = fresh & -fresh
                    grown[mask | bit] = grown.get(mask | bit, 0) | bit
                    fresh ^= bit
                ends ^= end
        if not grown:
            return False
        layer = grown
    return True


def test_directed_oracle_seeds_only_the_vertex_with_no_in_arc():
    # each digraph has exactly one vertex with no in-arc; seeding it alone
    # keeps a few KB of sets where seeding every vertex keeps 11-24 KB
    def peak(oracle, d):
        tracemalloc.start()
        try:
            return oracle(d), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for seed in (14, 23, 29, 36):
        d = gen_random_digraph(16, seed)
        assert len({t for _, t in d.arcs}) == 15, seed
        (got, used), (want, every) = peak(has_directed_ham_path, d), peak(every_start_directed_dp, d)
        assert got == want and 2 * used < every, (seed, used, every)


def symmetric_orientation(g: GridGraph) -> Digraph:
    """Both orientations of every grid edge, vertices indexed in sorted order."""
    order = g.sorted_vertices()
    index = {v: i for i, v in enumerate(order)}
    arcs = []
    for a, b in sorted(grid_edges(g)):
        arcs.append((index[a], index[b]))
        arcs.append((index[b], index[a]))
    return Digraph(len(order), tuple(arcs))


def test_directed_oracle_agrees_with_grid_path_oracle():
    # independent routes: frontier DP on the lattice vs subset DP on the
    # symmetric orientation
    for g in enumerate_grid_graphs(3, 3, 7):
        assert has_directed_ham_path(symmetric_orientation(g)) == has_ham_path_grid(g)


def test_directed_oracle_brute_comparison_random():
    # compare subset DP against naive permutation search on tiny digraphs
    def naive(d):
        arcset = set(d.arcs)
        for perm in itertools.permutations(range(d.vertex_count)):
            if all((perm[i], perm[i + 1]) in arcset for i in range(len(perm) - 1)):
                return True
        return False

    for seed in range(80):
        v = 2 + seed % 5
        d = gen_random_digraph(v, seed)
        assert has_directed_ham_path(d) == naive(d)


def test_gen_random_digraph_shape():
    for seed in range(30):
        d = gen_random_digraph(2 + seed % 6, seed)
        assert d.outdeg12
    assert gen_random_digraph(5, 3) == gen_random_digraph(5, 3)
    for seed in range(30):
        assert random_digraph(2 + seed % 6, seed, 2) == gen_random_digraph(2 + seed % 6, seed)
