"""Clock puzzles: pick any occupied node, then repeatedly jump by the value
just consumed, clockwise or counterclockwise, never landing on an empty node,
until every occupied node is gone.

Instances are sparse: the circumference N may be astronomically larger than
the number of occupied nodes, so positions and values are arbitrary-precision
integers and nothing ever iterates over empty positions.  The reduction from
outdegree-{1,2} digraphs produces such instances (N is the repunit with one
digit per vertex) together with a certificate naming which absolute position
plays which role, so its arithmetic can be audited wholesale: every reachable
landing either hits the intended node or provably falls on an empty one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .graphs import BudgetExhausted, Digraph, Verdict, has_directed_ham_path

DEFAULT_NODE_BUDGET = 2_000_000

DIRECTIONS = ("cw", "ccw")


def repunit(k: int) -> int:
    """1 repeated k times in decimal; 0 for k = 0."""
    if k < 0:
        raise ValueError("repunit needs k >= 0")
    return (10**k - 1) // 9


def jump_value(j: int, k: int) -> int:
    """Distance between landmark positions j and k: the sum of 10^i for i
    from min(j,k) to max(j,k)-1.  Symmetric; zero when j == k."""
    if j < 0 or k < 0:
        raise ValueError("landmark indices must be nonnegative")
    lo, hi = min(j, k), max(j, k)
    return repunit(hi) - repunit(lo)


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

    @property
    def is_dense(self) -> bool:
        return len(self.occupied) == self.circumference


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

    labels maps (j, 0) to vertex j's primary position and (j, 1) to the
    secondary position inserted for vertex j's second arc.  Verdicts are
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
            if t == 0 and p != repunit(j):
                raise ValueError(f"primary ({j},0) must sit at {repunit(j)}, got {p}")
        if len(norm) != len(occupied):
            raise ValueError("unlabeled occupied positions")

    @property
    def label_map(self) -> dict[tuple[int, int], int]:
        return dict(self.labels)


def reduce_digraph_to_phot(d: Digraph) -> ReductionCertificate:
    """Clock instance solvable only by walking the digraph vertex to vertex.

    Vertex j's primary node sits at the repunit position R_j with value
    jump_value(j, k) toward its first out-neighbor k.  A second arc to m
    (labeled so k < m) adds one secondary node reachable by the primary's
    other direction, whose value then lands exactly on R_m; its position and
    value depend on how j orders against k and m.  All values fit [1, N//2]
    and all positions are distinct; both are rechecked here because a
    violation would falsify the whole construction.
    """
    if d.vertex_count < 2:
        raise ValueError("need at least 2 vertices")
    if not d.outdeg12:
        raise ValueError("every vertex needs outdegree 1 or 2")
    v = d.vertex_count
    n = repunit(v)
    occupied: dict[int, int] = {}
    labels: dict[tuple[int, int], int] = {}

    def place(pos, value, label):
        assert 0 <= pos < n and 1 <= value <= n // 2, (label, pos, value)
        assert pos not in occupied, (label, pos)
        occupied[pos] = value
        labels[label] = pos

    for j in range(v):
        outs = sorted(d.out_neighbors(j))
        k = outs[0]
        place(repunit(j), jump_value(j, k), (j, 0))
        if len(outs) == 2:
            m = outs[1]
            if m < j:
                pos = repunit(j) + jump_value(j, k)
                value = jump_value(j, m) + jump_value(j, k)
            elif k < j:
                pos = repunit(j) + jump_value(j, k)
                value = jump_value(j, m) - jump_value(j, k)
            else:
                pos = (repunit(v - 1) + 10 ** (v - 1) + jump_value(0, j) - jump_value(j, k)) % n
                value = jump_value(j, m) + jump_value(j, k)
            place(pos, value, (j, 1))

    instance = ClockInstance(n, occupied)
    return ReductionCertificate(d, instance, tuple(labels.items()))


def clock_to_digraph(c: ClockInstance) -> Digraph:
    """Directed move graph over the occupied nodes.

    Vertex i is the i-th occupied position in sorted order.  An arc points
    wherever a cw or ccw jump lands on another occupied node; the two
    directions collapse to one arc when the value is exactly N/2.
    """
    if not c.occupied:
        raise ValueError("no occupied nodes")
    index = {p: i for i, p in enumerate(c.positions)}
    n = c.circumference
    arcs = []
    for i, (p, m) in enumerate(c.occupied):
        for q in sorted({(p + m) % n, (p - m) % n}):
            if q in index:
                arcs.append((i, index[q]))
    return Digraph(len(index), tuple(arcs))


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
    in position order, then successors in move-graph order.  Each node put on
    the path costs one unit of `budget` (default DEFAULT_NODE_BUDGET); running
    out raises BudgetExhausted rather than returning a wrong answer.
    """
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


def _vertex_cases(d: Digraph):
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


def intended_position_arcs(cert: ReductionCertificate) -> set[tuple[int, int]]:
    """Arcs the construction wants, as (from_position, to_position) pairs:
    primary to each out-neighbor's primary via the secondary for the second
    arc."""
    lab = cert.label_map
    arcs = set()
    for j, k, m, _ in _vertex_cases(cert.source):
        arcs.add((lab[(j, 0)], lab[(k, 0)]))
        if m is not None:
            arcs.add((lab[(j, 0)], lab[(j, 1)]))
            arcs.add((lab[(j, 1)], lab[(m, 0)]))
    return arcs


def _stray_targets(cert: ReductionCertificate) -> list[tuple[int, int, str]]:
    """(node_position, landing_position, node_kind) for every possible move
    that is not an intended arc.  Outdegree-2 primaries have none: both of
    their directions are intended."""
    occ = cert.instance.occupied_map
    n = cert.instance.circumference
    intended = intended_position_arcs(cert)
    lab = cert.label_map
    secondary = {pos for (j, t), pos in lab.items() if t == 1}
    strays = []
    for p, m in cert.instance.occupied:
        kind = "secondary" if p in secondary else "primary"
        for q in sorted({(p + m) % n, (p - m) % n}):
            if (p, q) not in intended:
                strays.append((p, q, kind))
    return strays


def check_jump_values_distinct(v: int) -> list[str]:
    """Landmark distances are pairwise distinct over index pairs below v."""
    problems = []
    seen: dict[int, tuple[int, int]] = {}
    for j in range(v):
        for k in range(j + 1, v):
            val = jump_value(j, k)
            if val in seen:
                problems.append(f"jump_value({j},{k}) collides with {seen[val]}")
            else:
                seen[val] = (j, k)
    return problems


def check_secondary_wrap_offsets(cert: ReductionCertificate) -> list[str]:
    """Wrap-around secondaries sit in the topmost gap with offsets whose
    leading decimal digit is 8 or 9, far from every primary."""
    problems = []
    v = cert.source.vertex_count
    lab = cert.label_map
    base = repunit(v - 1)
    for j, k, m, case in _vertex_cases(cert.source):
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


def check_stray_digits(cert: ReductionCertificate) -> list[str]:
    """Occupied positions use only decimal digits 0..2; stray landings from
    secondaries always contain a digit 3 or larger (overshoot analysis), and
    no stray landing of any kind is occupied."""
    problems = []
    occupied = set(cert.instance.positions)
    for p in cert.instance.positions:
        if any(ch not in "012" for ch in str(p)):
            problems.append(f"occupied position {p} uses a digit above 2")
    for p, q, kind in _stray_targets(cert):
        if q in occupied:
            problems.append(f"stray landing from {p} hits occupied {q}")
        if kind == "secondary" and all(ch in "012" for ch in str(q)):
            problems.append(f"secondary stray target {q} has no digit above 2")
    return problems


def audit_certificate(cert: ReductionCertificate) -> list[str]:
    """All construction checks at once: the move graph must equal the
    intended arcs exactly, and the three digit arguments that guarantee it
    must hold.  Empty result means clean."""
    problems = []
    positions = cert.instance.positions
    graph = clock_to_digraph(cert.instance)
    actual = {(positions[s], positions[t]) for s, t in graph.arcs}
    intended = intended_position_arcs(cert)
    for arc in sorted(intended - actual):
        problems.append(f"intended arc {arc} missing from the move graph")
    for arc in sorted(actual - intended):
        problems.append(f"unintended arc {arc} in the move graph")
    problems.extend(check_jump_values_distinct(cert.source.vertex_count))
    problems.extend(check_secondary_wrap_offsets(cert))
    problems.extend(check_stray_digits(cert))
    return problems
