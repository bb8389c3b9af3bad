import itertools

import pytest

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
    symmetric_orientation,
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


def test_directed_ham_path_basics():
    assert has_directed_ham_path(Digraph(1, ()))
    assert has_directed_ham_path(Digraph(3, ((0, 1), (1, 2))))
    assert not has_directed_ham_path(Digraph(3, ((0, 1), (0, 2))))
    # direction matters
    assert not has_directed_ham_path(Digraph(3, ((1, 0), (1, 2))))
    assert has_directed_ham_path(Digraph(3, ((1, 0), (1, 2), (0, 1))))


def test_directed_ham_path_limit():
    big = Digraph(17, tuple((i, (i + 1) % 17) for i in range(17)))
    with pytest.raises(InstanceTooLarge):
        has_directed_ham_path(big)


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
