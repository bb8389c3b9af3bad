import itertools

import pytest

from riftpuzzles.graphs import Digraph, gen_random_digraph, has_directed_ham_path
from riftpuzzles.hands_of_time import (
    DEFAULT_NODE_BUDGET,
    BudgetExhausted,
    ClockInstance,
    ClockSolution,
    ReductionCertificate,
    audit_certificate,
    clock_to_digraph,
    evaluate_certificate,
    gen_random_clock,
    gen_solvable_clock,
    intended_position_arcs,
    jump_value,
    reduce_digraph_to_phot,
    repunit,
    solve_clock,
    verify_clock_solution,
)
from riftpuzzles.hands_of_time import _moves_from_indices

THREE_CYCLE = Digraph(3, ((0, 1), (1, 2), (2, 0)))


def is_dense(c):
    return len(c.occupied) == c.circumference


def test_jump_value_examples():
    # the gap between landmarks 2*R_(j+1) and 2*R_(k+1)
    assert jump_value(0, 1) == 22 - 2 == 20
    assert jump_value(0, 2) == 220
    assert jump_value(1, 3) == 2222 - 22 == 2200
    assert jump_value(3, 1) == 2200
    assert jump_value(4, 4) == 0
    with pytest.raises(ValueError):
        jump_value(-1, 2)


def test_instance_validation():
    with pytest.raises(ValueError):
        ClockInstance(1, ())
    with pytest.raises(ValueError):
        ClockInstance(10, ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        ClockInstance(10, ((10, 1),))
    with pytest.raises(ValueError):
        ClockInstance(10, ((3, 0),))
    with pytest.raises(ValueError):
        ClockInstance(10, ((3, 6),))
    dense = ClockInstance.dense([1, 1])
    assert is_dense(dense) and dense.circumference == 2
    sparse = ClockInstance(111, {11: 11, 0: 1, 1: 10})
    assert sparse.positions == (0, 1, 11) and not is_dense(sparse)
    with pytest.raises(ValueError):
        ClockSolution(((0, "up"),))


def test_three_cycle_reduction():
    # landmarks 2, 22 and 222 on a circle of 2*10^4; no vertex branches, so
    # each primary jumps straight to the next landmark
    cert = reduce_digraph_to_phot(THREE_CYCLE)
    assert cert.instance.circumference == 20000
    assert cert.instance.occupied_map == {2: 20, 22: 200, 222: 220}
    assert cert.label_map == {(0, 0): 2, (1, 0): 22, (2, 0): 222}
    sol = solve_clock(cert.instance)
    assert sol is not None
    assert [p for p, _ in sol.moves] == [2, 22, 222]
    assert verify_clock_solution(cert.instance, sol).ok
    assert audit_certificate(cert) == []


def test_wraparound_secondary_example():
    # vertices 0 and 1 both point at 2 and 3: 0's spacer takes the midpoint
    # (222 + 2222)/2, and 1's the other one, N/2 further, whose jumps wrap
    d = Digraph(4, ((0, 2), (0, 3), (1, 2), (1, 3), (2, 1), (3, 0)))
    cert = reduce_digraph_to_phot(d)
    n = cert.instance.circumference
    assert n == 200000
    assert cert.label_map[(0, 1)] == 1222 == (222 + 2222) // 2
    assert cert.label_map[(1, 1)] == 1222 + n // 2 == 101222
    occ = cert.instance.occupied_map
    assert occ[1222] == 1000 and occ[101222] == 99000
    assert {(101222 + 99000) % n, (101222 - 99000) % n} == {222, 2222}
    assert occ[2] == 1220 and occ[22] == n // 2 - 1200 == 98800
    assert (22 - 98800) % n == 101222
    assert audit_certificate(cert) == []
    assert solve_clock(cert.instance) is not None


def test_all_outdeg_two_shape():
    d = Digraph(4, ((0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (3, 0), (3, 2)))
    cert = reduce_digraph_to_phot(d)
    primaries = [lbl for lbl, _ in cert.labels if lbl[1] == 0]
    secondaries = [lbl for lbl, _ in cert.labels if lbl[1] == 1]
    assert len(primaries) == 4 and len(secondaries) == 4
    assert audit_certificate(cert) == []


def test_reduce_rejects_bad_digraphs():
    with pytest.raises(ValueError):
        reduce_digraph_to_phot(Digraph(3, ((0, 1), (1, 2))))  # vertex 2 outdeg 0
    with pytest.raises(ValueError):
        reduce_digraph_to_phot(
            Digraph(4, ((0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)))
        )
    with pytest.raises(ValueError, match="^need at least 2 vertices$"):
        reduce_digraph_to_phot(Digraph(1, ()))
    # a pair of out-neighbors has two midpoints, so two vertices can share it
    shared = ((0, 1), (0, 2), (1, 0), (2, 0), (3, 1), (3, 2))
    assert audit_certificate(reduce_digraph_to_phot(Digraph(5, shared + ((4, 0),)))) == []
    with pytest.raises(ValueError, match="^vertex 4 is the third to point at 1 and 2$"):
        reduce_digraph_to_phot(Digraph(5, shared + ((4, 1), (4, 2))))


def test_size_refusals_pinned():
    with pytest.raises(ValueError, match="^repunit needs k >= 0$"):
        repunit(-1)
    with pytest.raises(ValueError, match="^need n >= 2$"):
        gen_solvable_clock(1, 0)


def test_certificate_validation():
    cert = reduce_digraph_to_phot(THREE_CYCLE)
    with pytest.raises(ValueError):
        ReductionCertificate(cert.source, cert.instance, (((0, 0), 0), ((1, 0), 0)))
    with pytest.raises(ValueError):
        ReductionCertificate(cert.source, cert.instance, (((0, 0), 1), ((1, 0), 0)))


def test_move_graph_examples():
    two = clock_to_digraph(ClockInstance.dense([1, 1]))
    assert set(two.arcs) == {(0, 1), (1, 0)}
    four = clock_to_digraph(ClockInstance.dense([2, 2, 2, 2]))
    assert set(four.arcs) == {(0, 2), (2, 0), (1, 3), (3, 1)}
    cert = reduce_digraph_to_phot(THREE_CYCLE)
    graph = clock_to_digraph(cert.instance)
    positions = cert.instance.positions
    actual = {(positions[s], positions[t]) for s, t in graph.arcs}
    assert actual == intended_position_arcs(cert)
    with pytest.raises(ValueError):
        clock_to_digraph(ClockInstance(5, ()))


def test_solve_dense_examples():
    assert solve_clock(ClockInstance.dense([1, 1])) is not None
    assert solve_clock(ClockInstance.dense([2, 2, 2, 2])) is None


def test_coinciding_directions_recorded_cw():
    sol = solve_clock(ClockInstance.dense([1, 1]))
    assert sol is not None
    assert all(d == "cw" for _, d in sol.moves)


def test_verifier_rules():
    inst = ClockInstance.dense([1, 1])
    assert verify_clock_solution(inst, ClockSolution(((0, "cw"), (1, "cw")))).ok
    revisit = verify_clock_solution(
        inst, ClockSolution(((0, "cw"), (1, "cw"), (0, "cw")))
    )
    assert not revisit.ok and revisit.rule == "empty-node selection"
    empty = verify_clock_solution(inst, ClockSolution(((0, "cw"), (5, "cw"))))
    assert not empty.ok and empty.rule == "empty-node selection"
    bad_hop = ClockInstance.dense([1, 2, 1, 2])
    wrong = verify_clock_solution(bad_hop, ClockSolution(((0, "cw"), (3, "cw"))))
    assert not wrong.ok and wrong.rule == "illegal move"
    short = verify_clock_solution(inst, ClockSolution(((0, "cw"),)))
    assert not short.ok and short.rule == "incomplete"
    assert verify_clock_solution(ClockInstance(7, ()), ClockSolution(())).ok


def test_gen_random_clock():
    assert gen_random_clock(2, 0).occupied_map == {0: 1, 1: 1}
    for seed in range(5):
        inst = gen_random_clock(5, seed)
        assert all(1 <= m <= 2 for _, m in inst.occupied)
    assert gen_random_clock(9, 3) == gen_random_clock(9, 3)
    with pytest.raises(ValueError):
        gen_random_clock(1, 0)


def test_gen_solvable_clock_is_solvable():
    for seed in range(12):
        n = 4 + seed
        inst = gen_solvable_clock(n, seed)
        assert is_dense(inst)
        sol = solve_clock(inst)
        assert sol is not None, (n, seed)
        assert verify_clock_solution(inst, sol).ok


def test_cross_oracle_on_dense_instances():
    # the direct position search and the graph oracle must always agree
    for seed in range(60):
        n = 4 + seed % 7
        inst = gen_random_clock(n, seed)
        direct = solve_clock(inst) is not None
        via_graph = has_directed_ham_path(clock_to_digraph(inst))
        assert direct == via_graph, (n, seed)


def test_census_of_every_full_clock_up_to_seven_nodes():
    # every value assignment, not a sample: the position search against the
    # digraph oracle, and every solution it finds through the verifier
    clocks = solvable = 0
    for n in range(2, 8):
        for values in itertools.product(range(1, n // 2 + 1), repeat=n):
            inst = ClockInstance.dense(values)
            sol = solve_clock(inst)
            assert (sol is not None) == has_directed_ham_path(clock_to_digraph(inst)), inst
            if sol is not None:
                assert verify_clock_solution(inst, sol).ok, inst
                solvable += 1
            clocks += 1
    assert (clocks, solvable) == (2966, 2552)


def test_backtracking_strategy_and_budget():
    inst = gen_solvable_clock(26, 5)  # 26 occupied nodes
    sol = solve_clock(inst)
    assert sol is not None and verify_clock_solution(inst, sol).ok
    # a solution puts all 26 nodes on the path, so 10 cannot reach one
    with pytest.raises(BudgetExhausted, match="^no verdict within 10 nodes$"):
        solve_clock(inst, budget=10)
    # the degree prunes refute this one within the same 10 nodes
    assert solve_clock(gen_random_clock(26, 1), budget=10) is None


def test_budget_applies_at_every_size():
    for seed in range(5):
        with pytest.raises(BudgetExhausted, match="no verdict within 1 nodes"):
            solve_clock(gen_solvable_clock(10, seed), budget=1)
    # each start and each step costs one node: walking 0, 1, ..., 9 needs 10
    ring = ClockInstance.dense([1] * 10)
    assert solve_clock(ring, budget=10) is not None
    with pytest.raises(BudgetExhausted):
        solve_clock(ring, budget=9)


def subset_dp_solve_clock(c):
    """solve_clock's former engine up to 22 nodes: a recursive search over
    (visited mask, last node) that memoizes every failing state."""
    count = len(c.occupied)
    if count == 0:
        return ClockSolution(())
    graph = clock_to_digraph(c)
    succs = [graph.out_neighbors(i) for i in range(count)]
    full = (1 << count) - 1
    dead = set()

    def extend(mask, last):
        if mask == full:
            return (last,)
        if (mask, last) in dead:
            return None
        for nxt in succs[last]:
            bit = 1 << nxt
            if not mask & bit:
                tail = extend(mask | bit, nxt)
                if tail is not None:
                    return (last,) + tail
        dead.add((mask, last))
        return None

    for s in range(count):
        seq = extend(1 << s, s)
        if seq is not None:
            return _moves_from_indices(c, seq)
    return None


def test_backtracker_matches_former_subset_dp():
    # the memo only skipped failing subtrees and both engines try starts and
    # successors in the same order, so the first path found is the same
    cases = []
    for seed in range(160):
        v = 2 + seed % 10
        cases.append(reduce_digraph_to_phot(gen_random_digraph(v, seed + 500)).instance)
    for seed in range(80):
        n = 4 + seed % 19
        cases.append(gen_random_clock(n, seed))
        cases.append(gen_solvable_clock(n, seed + 80))
    assert len(cases) >= 300
    assert max(len(c.occupied) for c in cases) == 22
    solved = 0
    for c in cases:
        got = solve_clock(c)
        assert got == subset_dp_solve_clock(c), c
        solved += got is not None
    assert 0 < solved < len(cases)


def former_solve_clock(c, budget=None):
    """solve_clock's former loop, kept verbatim: the same depth-first search
    with no degree prune."""
    count = len(c.occupied)
    if count == 0:
        return ClockSolution(())
    graph = clock_to_digraph(c)
    succs = [graph.out_neighbors(i) for i in range(count)]
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    remaining = limit
    on_path = [False] * count
    path: list[int] = []
    # the root iterator offers every start; each deeper one, its node's successors
    stack = [iter(range(count))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if path:
                on_path[path.pop()] = False
            continue
        if on_path[nxt]:
            continue
        remaining -= 1
        if remaining < 0:
            raise BudgetExhausted(f"no verdict within {limit} nodes")
        on_path[nxt] = True
        path.append(nxt)
        if len(path) == count:
            return _moves_from_indices(c, path)
        stack.append(iter(succs[nxt]))
    return None


def test_pruned_search_finds_the_former_loops_first_solution():
    # a prune drops only branches with no solution, and the order of starts
    # and successors is kept, so both find the same first solution
    cases = [reduce_digraph_to_phot(gen_random_digraph(v, seed)).instance for v in range(2, 17) for seed in range(12)]
    for seed in range(60):
        n = 4 + seed % 17
        cases += [gen_random_clock(n, seed + 300), gen_solvable_clock(n, seed + 400)]
    solved = 0
    for c in cases:
        got = solve_clock(c)
        assert got == former_solve_clock(c), c
        solved += got is not None
    assert 100 < solved < len(cases) - 100, solved


def test_degree_screens_answer_before_the_first_node():
    # budget 0 gives up at the first node put on the path
    two_sources = ClockInstance.dense([1, 2, 1, 2])  # nodes 0 and 2 have no in-arc
    assert {t for _, t in clock_to_digraph(two_sources).arcs} == {1, 3}
    assert solve_clock(two_sources, budget=0) is None
    two_sinks = ClockInstance(100, {0: 10, 10: 3, 90: 3})  # 0 -> 10, 0 -> 90, and no arc out of either
    assert clock_to_digraph(two_sinks).arcs == ((0, 1), (0, 2))
    assert solve_clock(two_sinks, budget=0) is None
    for c in two_sources, two_sinks:
        assert former_solve_clock(c) is None


def test_the_one_node_with_no_in_arc_is_the_only_start():
    # node 3 is entered by no arc: the path 3, 1, 0, 2 costs 4 nodes, where
    # trying starts 0, 1 and 2 first would cost more
    c = ClockInstance.dense([2, 1, 2, 2])
    assert 3 not in {t for _, t in clock_to_digraph(c).arcs}
    assert solve_clock(c, budget=4) == former_solve_clock(c) == _moves_from_indices(c, [3, 1, 0, 2])
    with pytest.raises(BudgetExhausted):
        former_solve_clock(c, budget=4)


def test_a_long_planted_clock_is_solved():
    # the unpruned search spent its 2,000,000 nodes on this clock and gave up;
    # the pruned one puts exactly 486 nodes on the path
    c = gen_solvable_clock(40, 2)
    sol = solve_clock(c, budget=486)
    assert sol is not None and verify_clock_solution(c, sol).ok
    with pytest.raises(BudgetExhausted, match="^no verdict within 485 nodes$"):
        solve_clock(c, budget=485)


def test_empty_instance_is_trivially_solved():
    inst = ClockInstance(9, ())
    sol = solve_clock(inst)
    assert sol == ClockSolution(())
    assert verify_clock_solution(inst, sol).ok


def test_audits_clean_on_random_reductions():
    for seed in range(40):
        v = 2 + seed % 7
        cert = reduce_digraph_to_phot(gen_random_digraph(v, seed + 1000))
        assert audit_certificate(cert) == [], (v, seed)
    # landmark distances are pairwise distinct: 2 * 10^(j+1) * R_(k-j) names j < k
    values = [jump_value(j, k) for j in range(12) for k in range(j + 1, 12)]
    assert len(set(values)) == len(values)


def test_solvable_clock_always_implies_source_ham_path():
    # one direction of the reduction holds unconditionally
    for seed in range(60):
        v = 2 + seed % 6
        cert = evaluate_certificate(reduce_digraph_to_phot(gen_random_digraph(v, seed)))
        if cert.clock_verdict:
            assert cert.digraph_verdict, (v, seed)


def test_census_of_every_digraph_up_to_four_vertices():
    # every move graph is exactly the intended one, and every clock verdict
    # is the digraph's, in both directions
    digraphs = [d for v in (2, 3, 4) for d in outdeg12_digraphs(v)]
    assert len(digraphs) == 1 + 3**3 + 6**4 == 1324
    for d in digraphs:
        cert = reduce_digraph_to_phot(d)
        assert audit_certificate(cert) == [], d
        assert (solve_clock(cert.instance) is not None) == has_directed_ham_path(d), d


def test_former_detour_counterexample_now_solves():
    """The former construction put a vertex's second-arc node after the
    branch, so a source Hamiltonian path that left the vertex by its first
    arc stranded that node: this 4-vertex digraph has the path 3,2,0,1, yet
    its former clock admitted no selection order.  With the spacer before
    the branch its clock is solvable, which every permutation of the nodes
    confirms independently of the solver, and each selection order less its
    spacers is a Hamiltonian path of the digraph."""
    d = Digraph(4, ((0, 1), (0, 2), (1, 2), (2, 0), (2, 1), (3, 2)))
    assert has_directed_ham_path(d)
    cert = reduce_digraph_to_phot(d)
    assert audit_certificate(cert) == []
    sol = solve_clock(cert.instance)
    assert sol is not None and verify_clock_solution(cert.instance, sol).ok

    occ = cert.instance.occupied_map
    n = cert.instance.circumference
    vertex = {p: j for (j, t), p in cert.labels if t == 0}
    legal = [
        order
        for order in itertools.permutations(occ)
        if all(b in ((a + occ[a]) % n, (a - occ[a]) % n) for a, b in zip(order, order[1:]))
    ]
    assert legal
    for order in legal:
        path = [vertex[p] for p in order if p in vertex]
        assert all(b in d.out_neighbors(a) for a, b in zip(path, path[1:])), order


def test_audit_names_what_differs_from_the_construction():
    d = Digraph(4, ((0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (3, 0), (3, 2)))
    cert = reduce_digraph_to_phot(d)
    n = cert.instance.circumference
    lab = cert.label_map
    a, b = lab[(0, 1)], lab[(1, 1)]
    occ = cert.instance.occupied_map
    swapped = ReductionCertificate(d, cert.instance, tuple({**lab, (0, 1): b, (1, 1): a}.items()))
    assert f"label (0, 1): {b} here, {a} in the construction" in audit_certificate(swapped)
    nudged = ReductionCertificate(d, ClockInstance(n, {**occ, a: occ[a] + 1}), cert.labels)
    assert audit_certificate(nudged)[0] == f"node {a}: {occ[a] + 1} here, {occ[a]} in the construction"
    wider = ReductionCertificate(d, ClockInstance(10 * n, occ), cert.labels)
    assert audit_certificate(wider)[0] == f"circumference {10 * n} here, {n} in the construction"


# Former code kept as a reference.  The audit once ran digit-argument checks
# on top of its exact move-graph check.  The stray-digit check still holds of
# the construction, and the mutation test below shows the rebuild and the
# move-graph check flag every certificate it flags, and more.


def outdeg12_digraphs(v):
    """Every digraph on v vertices with outdegree 1 or 2 at each vertex."""
    heads = [
        [outs for size in (1, 2) for outs in itertools.combinations([t for t in range(v) if t != s], size)]
        for s in range(v)
    ]
    for pick in itertools.product(*heads):
        yield Digraph(v, tuple((s, t) for s, outs in enumerate(pick) for t in outs))


def test_spacers_sit_at_the_midpoints_of_their_targets():
    # the placement rule stated on its own: primaries on the landmarks, each
    # spacer at one of its two targets' midpoints and landing on both
    digraphs = [gen_random_digraph(v, seed) for v in range(2, 17) for seed in range(100)]
    digraphs += [d for v in (3, 4) for d in outdeg12_digraphs(v)]
    assert len(digraphs) == 1500 + 3**3 + 6**4
    far = 0
    for d in digraphs:
        cert = reduce_digraph_to_phot(d)
        n, occ, lab = cert.instance.circumference, cert.instance.occupied_map, cert.label_map
        assert n == 2 * 10 ** (d.vertex_count + 1), d
        for j in range(d.vertex_count):
            targets = {lab[(t, 0)] for t in d.out_neighbors(j)}
            head = p = lab[(j, 0)]
            assert p == 2 * repunit(j + 1), d
            if len(targets) == 2:
                head = lab[(j, 1)]
                assert head in (sum(targets) // 2, sum(targets) // 2 + n // 2), d
                assert {(head + occ[head]) % n, (head - occ[head]) % n} == targets, d
                far += head >= n // 2
                targets = {head}
            assert targets <= {(p + occ[p]) % n, (p - occ[p]) % n}, d
    assert far > 0


def former_stray_targets(cert):
    """(node_position, landing_position, node_kind) for every possible move
    that is not an intended arc."""
    n = cert.instance.circumference
    intended = intended_position_arcs(cert)
    secondary = {pos for (j, t), pos in cert.labels if t == 1}
    strays = []
    for p, m in cert.instance.occupied:
        kind = "secondary" if p in secondary else "primary"
        for q in sorted({(p + m) % n, (p - m) % n}):
            if (p, q) not in intended:
                strays.append((p, q, kind))
    return strays


def former_check_stray_digits(cert):
    """Occupied positions use only decimal digits 0..2; stray landings from
    secondaries always contain a digit 3 or larger, and no stray landing of
    any kind is occupied."""
    problems = []
    occupied = set(cert.instance.positions)
    for p in cert.instance.positions:
        if any(ch not in "012" for ch in str(p)):
            problems.append(f"occupied position {p} uses a digit above 2")
    for p, q, kind in former_stray_targets(cert):
        if q in occupied:
            problems.append(f"stray landing from {p} hits occupied {q}")
        if kind == "secondary" and all(ch in "012" for ch in str(q)):
            problems.append(f"secondary stray target {q} has no digit above 2")
    return problems


def mutants(cert):
    """The certificate with one node's position (mod N) or value moved by
    +-10^i, for every i below N's digit count; labels follow a moved node.
    Mutants that certificate or clock validation refuses are left out."""
    n = cert.instance.circumference
    for p, m in cert.instance.occupied:
        rest = {q: value for q, value in cert.instance.occupied if q != p}
        for i in range(len(str(n))):
            for delta in (10**i, -(10**i)):
                for q, value in (((p + delta) % n, m), (p, m + delta)):
                    if q in rest:
                        continue
                    labels = tuple((label, q if pos == p else pos) for label, pos in cert.labels)
                    try:
                        yield ReductionCertificate(cert.source, ClockInstance(n, {**rest, q: value}), labels)
                    except ValueError:
                        continue


def test_audit_flags_every_mutant_the_former_checks_flag():
    total = former_flagged = 0
    for seed in range(24):
        cert = reduce_digraph_to_phot(gen_random_digraph(2 + seed % 6, seed + 3000))
        assert former_check_stray_digits(cert) == []
        for mutant in mutants(cert):
            total += 1
            former_flagged += bool(former_check_stray_digits(mutant))
            problems = audit_certificate(mutant)
            # the rebuild names every mutant, and the move-graph check on its
            # own flags every one, those the former check flags among them
            assert problems[0].startswith("node "), (mutant, problems)
            assert any(" arc " in line for line in problems), (mutant, problems)
    assert 0 < former_flagged < total
