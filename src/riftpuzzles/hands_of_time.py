"""Clock puzzles: pick any occupied node, then repeatedly jump by the value
just consumed, clockwise or counterclockwise, never landing on an empty node,
until every occupied node is gone.

Instances are sparse: the circumference N may be astronomically larger than
the number of occupied nodes, so positions and values are arbitrary-precision
integers and nothing ever iterates over empty positions.  The reduction from
outdegree-{1,2} digraphs produces such instances, vertex j at 2*R_(j+1) on a
circle of N = 2*10^(v+1) and a spacer before each branch, with a certificate
naming each occupied node's role, which audit_certificate checks against a
rebuild and against the exact move graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property

from .graphs import BudgetExhausted, Digraph, Verdict, has_directed_ham_path

DEFAULT_NODE_BUDGET = 2_000_000

DIRECTIONS = ("cw", "ccw")


def repunit(k: int) -> int:
    """1 repeated k times in decimal; 0 for k = 0."""
    if k < 0:
        raise ValueError("repunit needs k >= 0")
    return (10**k - 1) // 9


def jump_value(j: int, k: int) -> int:
    """Distance between the landmarks of j and k, 2*R_(j+1) and 2*R_(k+1)
    with R the repunit.  Symmetric; zero when j == k."""
    if j < 0 or k < 0:
        raise ValueError("landmark indices must be nonnegative")
    return 2 * abs(repunit(k + 1) - repunit(j + 1))


@dataclass(frozen=True)
class ClockInstance:
    """Occupied nodes of a clock with the given circumference.

    occupied holds (position, value) pairs, normalized to sorted order.  A
    dict also works as constructor input.  Values obey 1 <= m <= N // 2:
    larger jumps are indistinguishable from their mirror image.
    """

    circumference: int
    occupied: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = int(self.circumference)
        if n < 2:
            raise ValueError("circumference must be at least 2")
        object.__setattr__(self, "circumference", n)
        items = self.occupied.items() if isinstance(self.occupied, dict) else self.occupied
        pairs = sorted((int(p), int(m)) for p, m in items)
        seen = set()
        for p, m in pairs:
            if not 0 <= p < n:
                raise ValueError(f"position {p} outside [0, {n})")
            if p in seen:
                raise ValueError(f"position {p} occupied twice")
            seen.add(p)
            if not 1 <= m <= n // 2:
                raise ValueError(f"value {m} at position {p} outside [1, {n // 2}]")
        object.__setattr__(self, "occupied", tuple(pairs))

    @classmethod
    def dense(cls, values) -> "ClockInstance":
        vals = list(values)
        return cls(len(vals), tuple(enumerate(vals)))

    @property
    def occupied_map(self) -> dict[int, int]:
        return dict(self.occupied)

    @property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.occupied)

    @cached_property
    def _move_graph(self) -> Digraph:
        """clock_to_digraph's result, built on first use and kept."""
        if not self.occupied:
            raise ValueError("no occupied nodes")
        index = {p: i for i, p in enumerate(self.positions)}
        n = self.circumference
        arcs = []
        for i, (p, m) in enumerate(self.occupied):
            for q in sorted({(p + m) % n, (p - m) % n}):
                if q in index:
                    arcs.append((i, index[q]))
        return Digraph(len(index), tuple(arcs))


@dataclass(frozen=True)
class ClockSolution:
    """Selection order as (position, direction) pairs.

    The direction on each move describes the hop to the next position; the
    last move's direction is meaningless and canonically "cw".
    """

    moves: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        norm = []
        for p, d in self.moves:
            if d not in DIRECTIONS:
                raise ValueError(f"direction must be cw or ccw, got {d!r}")
            norm.append((int(p), d))
        object.__setattr__(self, "moves", tuple(norm))


@dataclass(frozen=True)
class ReductionCertificate:
    """Digraph, the clock built from it, and the role of each occupied node.

    labels maps (j, 0) to vertex j's primary position, the landmark
    2*R_(j+1), and (j, 1) to the spacer before its branch.  Verdicts are
    filled in by evaluate_certificate and stay None until then.
    """

    source: Digraph
    instance: ClockInstance
    labels: tuple[tuple[tuple[int, int], int], ...]
    digraph_verdict: bool | None = None
    clock_verdict: bool | None = None

    def __post_init__(self) -> None:
        norm = sorted(((int(j), int(t)), int(p)) for (j, t), p in self.labels)
        object.__setattr__(self, "labels", tuple(norm))
        positions = [p for _, p in norm]
        if len(set(positions)) != len(positions):
            raise ValueError("label map is not injective")
        occupied = set(self.instance.positions)
        for (j, t), p in norm:
            if p not in occupied:
                raise ValueError(f"label ({j},{t}) points at empty position {p}")
        if len(norm) != len(occupied):
            raise ValueError("unlabeled occupied positions")
        d = self.source
        if not d.outdeg12:
            raise ValueError("every vertex needs outdegree 1 or 2")
        # (j, 0) per vertex, (j, 1) per second out-arc: before any landmark of j
        want = {(j, t) for j in range(d.vertex_count) for t in range(len(d.out_neighbors(j)))}
        stray = sorted(want.symmetric_difference(label for label, _ in norm))
        if stray:
            j, t = stray[0]
            raise ValueError(f"label ({j},{t}) {'missing' if stray[0] in want else 'names no out-arc'}")
        for (j, t), p in norm:
            if t == 0 and p != 2 * repunit(j + 1):
                raise ValueError(f"primary ({j},0) must sit at {2 * repunit(j + 1)}, got {p}")

    @property
    def label_map(self) -> dict[tuple[int, int], int]:
        return dict(self.labels)


def reduce_digraph_to_phot(d: Digraph) -> ReductionCertificate:
    """Clock instance solvable only by walking the digraph vertex to vertex.

    Vertex j's primary node sits at the landmark P_j = 2*R_(j+1) on a circle
    of N = 2*10^(v+1), and jumps jump_value(j, k) to P_k if k is its only
    out-neighbor.  With two, k < m, it jumps to a spacer at (P_k + P_m)/2
    whose value, its circular distance to P_k, lands on P_k and on P_m.  A
    second vertex with the same out-pair takes the other midpoint, N/2 away;
    a third is refused.  A spacer's only in-arc is from its vertex, so each
    selection order less its spacers is a Hamiltonian path, and conversely.
    """
    if d.vertex_count < 2:
        raise ValueError("need at least 2 vertices")
    if not d.outdeg12:
        raise ValueError("every vertex needs outdegree 1 or 2")
    n = 2 * 10 ** (d.vertex_count + 1)
    occupied: dict[int, int] = {}
    labels: dict[tuple[int, int], int] = {}
    for j in range(d.vertex_count):
        k, *second = sorted(d.out_neighbors(j))
        labels[j, 0] = p = 2 * repunit(j + 1)
        occupied[p] = jump_value(j, k)
        for m in second:
            spacer = repunit(k + 1) + repunit(m + 1)
            spacer += n // 2 * (spacer in occupied)
            if spacer in occupied:
                raise ValueError(f"vertex {j} is the third to point at {k} and {m}")
            labels[j, 1] = spacer
            occupied[spacer], occupied[p] = (min((spacer - q) % n, (q - spacer) % n) for q in (2 * repunit(k + 1), p))
    return ReductionCertificate(d, ClockInstance(n, occupied), tuple(labels.items()))


def clock_to_digraph(c: ClockInstance) -> Digraph:
    """Directed move graph over the occupied nodes.

    Vertex i is the i-th occupied position in sorted order.  An arc points
    wherever a cw or ccw jump lands on another occupied node; the two
    directions collapse to one arc when the value is exactly N/2.  Built
    once per instance: a certificate's audit and its solve share it.
    """
    return c._move_graph


def _moves_from_indices(c: ClockInstance, seq) -> ClockSolution:
    n = c.circumference
    moves = []
    for i, j in zip(seq, seq[1:]):
        p, m = c.occupied[i]
        q = c.occupied[j][0]
        moves.append((p, "cw" if (p + m) % n == q else "ccw"))
    moves.append((c.occupied[seq[-1]][0], "cw"))
    return ClockSolution(tuple(moves))


def solve_clock(c: ClockInstance, budget: int | None = None) -> ClockSolution | None:
    """Complete selection order, or None when none exists.

    One depth-first search over occupied nodes on an explicit stack: starts
    in position order, then successors in move-graph order, pruned by each
    node's in- and out-neighbours off the path (Rubin, 1974).  Two nodes
    with no in-arc, or two with no out-arc, refute the clock; one with no
    in-arc is the only start.  A push cuts its branch when a successor of
    the old head that the new head does not reach has no in-neighbour off
    the path left, or two nodes off the path have no out-neighbour there.
    No cut drops a solution.  Each node put on the path costs one unit of
    `budget` (default DEFAULT_NODE_BUDGET); running out raises BudgetExhausted.
    """
    count = len(c.occupied)
    if count == 0:
        return ClockSolution(())
    graph = clock_to_digraph(c)
    succs = [graph.out_neighbors(i) for i in range(count)]
    preds: list[list[int]] = [[] for _ in range(count)]
    for s, t in graph.arcs:
        preds[t].append(s)
    ins, outs = [len(p) for p in preds], [len(s) for s in succs]  # neighbours off the path
    starts = [i for i in range(count) if not ins[i]]
    ends = outs.count(0)  # nodes off the path with no out-neighbour off it
    if len(starts) > 1 or ends > 1:
        return None
    limit = DEFAULT_NODE_BUDGET if budget is None else budget
    remaining = limit
    on_path = [False] * count
    path: list[int] = []
    # the root iterator offers every start; each deeper one, its node's successors
    stack = [iter(starts or range(count))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            if path:
                old = path.pop()
                on_path[old] = False
                ends += not outs[old]
                for t in succs[old]:
                    ins[t] += 1
                for s in preds[old]:
                    ends -= not outs[s] and not on_path[s]
                    outs[s] += 1
            continue
        if on_path[nxt]:
            continue
        remaining -= 1
        if remaining < 0:
            raise BudgetExhausted(f"no verdict within {limit} nodes")
        on_path[nxt] = True
        ends -= not outs[nxt]
        for t in succs[nxt]:
            ins[t] -= 1
        for s in preds[nxt]:
            outs[s] -= 1
            ends += not outs[s] and not on_path[s]
        path.append(nxt)
        if len(path) == count:
            return _moves_from_indices(c, path)
        passed = succs[path[-2]] if len(path) > 1 else ()  # the old head's successors
        cut = ends > 1 or any(not ins[x] and not on_path[x] and x not in succs[nxt] for x in passed)
        stack.append(iter(() if cut else succs[nxt]))
    return None


def verify_clock_solution(c: ClockInstance, s: ClockSolution) -> Verdict:
    """Check the selection order against the rules.

    Rules reported: "empty-node selection" (never-occupied or already
    consumed position), "illegal move" (hop disagrees with the recorded
    direction and value), "incomplete" (occupied nodes left over).
    """
    occ = c.occupied_map
    n = c.circumference
    consumed: set[int] = set()
    prev: tuple[int, str] | None = None
    for p, direction in s.moves:
        if p not in occ or p in consumed:
            return Verdict(False, "empty-node selection", p)
        if prev is not None:
            pp, dd = prev
            m = occ[pp]
            want = (pp + m) % n if dd == "cw" else (pp - m) % n
            if p != want:
                return Verdict(False, "illegal move", (pp, p))
        consumed.add(p)
        prev = (p, direction)
    if len(consumed) != len(occ):
        return Verdict(False, "incomplete", len(occ) - len(consumed))
    return Verdict(True)


def gen_random_clock(n: int, seed: int) -> ClockInstance:
    """Dense instance with values uniform on [1, n // 2]."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    return ClockInstance.dense(rng.randint(1, n // 2) for _ in range(n))


def gen_solvable_clock(n: int, seed: int) -> ClockInstance:
    """Dense instance with a planted selection order.

    Each node's value is the shorter way around to its successor in a random
    permutation, so walking the permutation solves the instance; the last
    node's value is free.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    values = [0] * n
    for a, b in zip(order, order[1:]):
        delta = (b - a) % n
        values[a] = min(delta, n - delta)
    values[order[-1]] = rng.randint(1, n // 2)
    return ClockInstance.dense(values)


def evaluate_certificate(cert: ReductionCertificate, budget: int | None = None) -> ReductionCertificate:
    """Certificate with both verdict fields filled in.

    The digraph side uses the trusted Hamiltonian-path oracle; the clock side
    runs solve_clock on the constructed instance.  Deliberately two separate
    search implementations, so agreement between the verdicts is evidence.
    """
    digraph_verdict = has_directed_ham_path(cert.source)
    clock_verdict = solve_clock(cert.instance, budget=budget) is not None
    return replace(cert, digraph_verdict=digraph_verdict, clock_verdict=clock_verdict)


def intended_position_arcs(cert: ReductionCertificate) -> set[tuple[int, int]]:
    """Arcs the construction wants, as (from_position, to_position) pairs:
    primary to its out-neighbor's primary, or to its spacer and from there
    to both out-neighbors' primaries."""
    lab = cert.label_map
    d = cert.source
    arcs = set()
    for j in range(d.vertex_count):
        hops = [lab[(j, t)] for t in range(len(d.out_neighbors(j)))]  # primary, then any spacer
        arcs.update(zip(hops, hops[1:]))
        arcs.update((hops[-1], lab[(t, 0)]) for t in d.out_neighbors(j))
    return arcs


def audit_certificate(cert: ReductionCertificate) -> list[str]:
    """Problems found in a certificate; an empty list means clean.

    The clock and labels must equal reduce_digraph_to_phot's rebuild; the
    first differing node and label are named.  The move graph must equal the
    intended arcs: that check reads only the clock, so it also finds a fault
    of the construction, which a rebuild repeats.
    """
    built = reduce_digraph_to_phot(cert.source)
    clock, n = cert.instance, built.instance.circumference
    problems = []
    if clock.circumference != n:
        problems.append(f"circumference {clock.circumference} here, {n} in the construction")
    for kind, got, want in (
        ("node", clock.occupied_map, built.instance.occupied_map),
        ("label", cert.label_map, built.label_map),
    ):
        key = min((key for key in got.keys() | want.keys() if got.get(key) != want.get(key)), default=None)
        if key is not None:
            problems.append(f"{kind} {key}: {got.get(key)} here, {want.get(key)} in the construction")
    positions = clock.positions
    actual = {(positions[s], positions[t]) for s, t in clock_to_digraph(clock).arcs}
    intended = intended_position_arcs(cert)
    problems += [f"intended arc {arc} missing from the move graph" for arc in sorted(intended - actual)]
    problems += [f"unintended arc {arc} in the move graph" for arc in sorted(actual - intended)]
    return problems
