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
    check_jump_values_distinct,
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
    assert jump_value(0, 1) == 1
    assert jump_value(0, 2) == 11
    assert jump_value(1, 3) == 110
    assert jump_value(3, 1) == 110
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
    cert = reduce_digraph_to_phot(THREE_CYCLE)
    assert cert.instance.circumference == 111
    assert cert.instance.occupied_map == {0: 1, 1: 10, 11: 11}
    assert cert.label_map == {(0, 0): 0, (1, 0): 1, (2, 0): 11}
    sol = solve_clock(cert.instance)
    assert sol is not None
    assert [p for p, _ in sol.moves] == [0, 1, 11]
    assert verify_clock_solution(cert.instance, sol).ok
    assert audit_certificate(cert) == []


def test_wraparound_secondary_example():
    # vertex 0 points at 1 and 2: its second direction wraps below zero
    d = Digraph(3, ((0, 1), (0, 2), (1, 2), (2, 1)))
    cert = reduce_digraph_to_phot(d)
    assert cert.label_map[(0, 1)] == 110
    assert cert.instance.occupied_map[110] == 12
    assert (0 - 1) % 111 == 110
    assert (110 + 12) % 111 == 11 == repunit(2)
    assert audit_certificate(cert) == []


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
    assert check_jump_values_distinct(12) == []


def test_solvable_clock_always_implies_source_ham_path():
    # one direction of the reduction holds unconditionally
    for seed in range(60):
        v = 2 + seed % 6
        cert = evaluate_certificate(reduce_digraph_to_phot(gen_random_digraph(v, seed)))
        if cert.clock_verdict:
            assert cert.digraph_verdict, (v, seed)


def test_second_arc_detours_can_block_solutions():
    """A vertex's second arc adds a detour node that a complete solution must
    consume, but a selection order can take at most one detour per vertex it
    leaves plus its two ends.  So a source Hamiltonian path that skips second
    arcs need not survive the construction: this 4-vertex digraph has the
    path 3,2,0,1 yet its clock admits no selection order at all (checked here
    against every permutation, independently of the solver)."""
    d = Digraph(4, ((0, 1), (0, 2), (1, 2), (2, 0), (2, 1), (3, 2)))
    assert has_directed_ham_path(d)
    cert = reduce_digraph_to_phot(d)
    assert audit_certificate(cert) == []
    assert solve_clock(cert.instance) is None

    from itertools import permutations

    occ = cert.instance.occupied_map
    n = cert.instance.circumference
    for order in permutations(occ):
        legal = all(
            b == (a + occ[a]) % n or b == (a - occ[a]) % n
            for a, b in zip(order, order[1:])
        )
        assert not legal, order


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


# Former code kept as references.  The construction once placed each
# secondary node by one of three formulas, chosen by how j orders against k
# and m; the reflection rule must reproduce them node for node.  The audit
# once ran digit-argument checks on top of its exact move-graph check: the
# mutation test below shows the rebuild and the move-graph check flag every
# certificate these did.


def former_vertex_cases(d):
    """(j, k, m, case) per vertex; m is None and case '' for outdegree 1."""
    for j in range(d.vertex_count):
        outs = sorted(d.out_neighbors(j))
        if len(outs) == 1:
            yield j, outs[0], None, ""
        elif outs[1] < j:
            yield j, outs[0], outs[1], "a"
        elif outs[0] < j:
            yield j, outs[0], outs[1], "b"
        else:
            yield j, outs[0], outs[1], "c"


def former_reduce_digraph_to_phot(d):
    """(circumference, nodes, labels) of the construction's former placement
    of each secondary node: one formula per order of j against k and m."""
    v = d.vertex_count
    n = repunit(v)
    occupied, labels = {}, {}
    for j, k, m, case in former_vertex_cases(d):
        occupied[repunit(j)] = jump_value(j, k)
        labels[(j, 0)] = repunit(j)
        if case == "a":
            pos = repunit(j) + jump_value(j, k)
            value = jump_value(j, m) + jump_value(j, k)
        elif case == "b":
            pos = repunit(j) + jump_value(j, k)
            value = jump_value(j, m) - jump_value(j, k)
        elif case == "c":
            pos = (repunit(v - 1) + 10 ** (v - 1) + jump_value(0, j) - jump_value(j, k)) % n
            value = jump_value(j, m) + jump_value(j, k)
        else:
            continue
        occupied[pos] = value
        labels[(j, 1)] = pos
    return n, occupied, labels


def outdeg12_digraphs(v):
    """Every digraph on v vertices with outdegree 1 or 2 at each vertex."""
    heads = [
        [outs for size in (1, 2) for outs in itertools.combinations([t for t in range(v) if t != s], size)]
        for s in range(v)
    ]
    for pick in itertools.product(*heads):
        yield Digraph(v, tuple((s, t) for s, outs in enumerate(pick) for t in outs))


def test_reflection_matches_former_three_way_placement():
    digraphs = [gen_random_digraph(v, seed) for v in range(2, 17) for seed in range(100)]
    digraphs += [d for v in (3, 4) for d in outdeg12_digraphs(v)]
    assert len(digraphs) == 1500 + 3**3 + 6**4
    cases = set()
    for d in digraphs:
        cert = reduce_digraph_to_phot(d)
        got = (cert.instance.circumference, cert.instance.occupied_map, cert.label_map)
        assert got == former_reduce_digraph_to_phot(d), d
        cases.update(case for *_, case in former_vertex_cases(d))
    assert cases == {"", "a", "b", "c"}


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


def former_check_secondary_wrap_offsets(cert):
    """Wrap-around secondaries sit in the topmost gap with offsets whose
    leading decimal digit is 8 or 9, far from every primary."""
    problems = []
    v = cert.source.vertex_count
    lab = cert.label_map
    base = repunit(v - 1)
    for j, k, m, case in former_vertex_cases(cert.source):
        if case != "c":
            continue
        offset = lab[(j, 1)] - base
        if offset <= 0:
            problems.append(f"wrap secondary of vertex {j} below the top gap")
        elif str(offset)[0] not in "89":
            problems.append(f"wrap secondary offset {offset} leads with {str(offset)[0]}")
        elif 9 * offset < 8 * 10 ** (v - 1) + 1:
            problems.append(f"wrap secondary offset {offset} under the 8/9 bound")
    return problems


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
        assert former_check_secondary_wrap_offsets(cert) == former_check_stray_digits(cert) == []
        for mutant in mutants(cert):
            total += 1
            former = former_check_secondary_wrap_offsets(mutant) + former_check_stray_digits(mutant)
            former_flagged += bool(former)
            problems = audit_certificate(mutant)
            # the rebuild names every mutant, and the move-graph check on its
            # own flags every one the former checks flag
            assert problems[0].startswith("node "), (mutant, problems)
            assert any(" arc " in line for line in problems) or not former, (mutant, former)
    assert 0 < former_flagged < total
