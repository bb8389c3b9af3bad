import itertools
import random

import pytest

from riftpuzzles import graphs
from riftpuzzles.graphs import (
    Digraph,
    GridGraph,
    InstanceTooLarge,
    enumerate_grid_graphs,
    gen_random_digraph,
    grid_edges,
    has_directed_ham_path,
    has_ham_cycle_grid,
    has_ham_path_grid,
)


def gg(*verts):
    return GridGraph(frozenset(verts))


def test_grid_edges_implicit_adjacency():
    g = gg((0, 0), (1, 0), (1, 1), (3, 3))
    assert grid_edges(g) == {((0, 0), (1, 0)), ((1, 0), (1, 1))}


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        GridGraph(frozenset())


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
    # 2x1000 ladders: 2,000 path steps, deeper than the default recursion
    # limit allows for one frame per step, each pruned by a flood that
    # crosses the ladder's length in fill rounds, not one level per rung
    for w, h in ((2, 1000), (1000, 2)):
        g = gg(*[(x, y) for x in range(w) for y in range(h)])
        assert has_ham_cycle_grid(g)
        assert has_ham_path_grid(g)


def test_colour_imbalance_decided_without_search(monkeypatch):
    def search(*args):
        raise AssertionError("searched a colour-imbalanced graph")

    monkeypatch.setattr(graphs, "_ham_search", search)
    # odd area: one colour class has a vertex more, so no cycle
    for w, h in ((5, 5), (3, 7)):
        assert not has_ham_cycle_grid(gg(*[(x, y) for x in range(w) for y in range(h)]))
    # the plus: four leaves of one colour round a centre of the other
    assert not has_ham_path_grid(gg((1, 1), (0, 1), (2, 1), (1, 0), (1, 2)))


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


def test_cycle_implies_path():
    for g in enumerate_grid_graphs(3, 3, 7):
        if has_ham_cycle_grid(g):
            assert has_ham_path_grid(g)


def test_enumerate_tiny_boxes():
    assert len(list(enumerate_grid_graphs(1, 1, 1))) == 1
    # 2x1 box: two singletons and the domino
    graphs = list(enumerate_grid_graphs(2, 1, 2))
    assert len(graphs) == 3
    assert all(g.is_connected() for g in graphs)


def test_enumerate_no_duplicates_and_connected():
    seen = set()
    for g in enumerate_grid_graphs(3, 3, 9):
        assert g.vertices not in seen
        seen.add(g.vertices)
        assert g.is_connected()
    # pinned: connected induced subgraphs of the 3x3 box, by brute subset scan
    assert len(seen) == 218


def test_enumerate_box_limit():
    with pytest.raises(InstanceTooLarge):
        list(enumerate_grid_graphs(4, 4, 3))


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
    """Seeded digraph with per-vertex outdegree 1 to `max_out`, drawn as
    `gen_random_digraph` draws its outdegree-1-or-2 ones."""
    rng = random.Random(seed)
    arcs = []
    for s in range(v):
        deg = rng.randint(1, min(max_out, v - 1))
        arcs += ((s, t) for t in sorted(rng.sample([t for t in range(v) if t != s], deg)))
    return Digraph(v, tuple(arcs))


def test_directed_ham_path_basics():
    assert has_directed_ham_path(Digraph(1, ()))
    assert has_directed_ham_path(Digraph(3, ((0, 1), (1, 2))))
    assert not has_directed_ham_path(Digraph(3, ((0, 1), (0, 2))))
    # direction matters
    assert not has_directed_ham_path(Digraph(3, ((1, 0), (1, 2))))
    assert has_directed_ham_path(Digraph(3, ((1, 0), (1, 2), (0, 1))))
    # against every vertex order, at out-degree up to 1, 2 or 3
    for v in range(2, 7):
        for seed in range(40):
            d = random_digraph(v, seed, 1 + seed % 3)
            arcs = set(d.arcs)
            orders = itertools.permutations(range(v))
            want = any(set(zip(order, order[1:])) <= arcs for order in orders)
            assert has_directed_ham_path(d) == want, d


def test_directed_ham_path_limit():
    big = Digraph(17, tuple((i, (i + 1) % 17) for i in range(17)))
    with pytest.raises(InstanceTooLarge):
        has_directed_ham_path(big)


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
    # independent routes: backtracking on the lattice vs subset DP on the
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
