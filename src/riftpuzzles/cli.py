"""Command line front end.

Subcommands: solve, reduce, verify, gen, sweep, render.  Documents go in and
out in the instance_io text formats; `-` reads standard input.  Exit status
is the interesting result: 0 for solvable/valid/all-pass, 1 for unsolvable or
over-threshold, 2 for a failed verification or a sweep counterexample, 3 for
usage and input errors (including exhausted search budgets, which decide
nothing).

Identical command lines with identical seeds print identical bytes; sweeps
keep that guarantee under --jobs by merging worker results in input order.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from .crystal_bonds import (
    BondBoard,
    apply_start_gadget,
    brute_force_crystal_bonds,
    decide_dcb,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    solve_crystal_bonds,
    verify_bond_walk,
)
from .geometry import (
    TileRegion,
    euclidean_geodesic,
    fine_grid_distance,
    gen_random_region,
    tile_center,
    tile_of,
)
from .graphs import (
    BudgetExhausted,
    GridGraph,
    InstanceTooLarge,
    enumerate_grid_graphs,
    gen_random_digraph,
    has_ham_cycle_grid,
    has_ham_path_grid,
)
from .hands_of_time import (
    audit_certificate,
    clock_to_digraph,
    evaluate_certificate,
    gen_random_clock,
    gen_solvable_clock,
    reduce_digraph_to_phot,
    solve_clock,
    verify_clock_solution,
)
from .instance_io import ParseError, parse, serialize
from .tile_trial import (
    reduce_grid_to_tile_trial,
    solve_tile_trial,
    verify_tile_path,
)

EXIT_OK = 0
EXIT_NO = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_USAGE = 3

FINE_K = 16
RATIO_BOUND = 1.09


class CliError(Exception):
    """Usage problem; main() turns it into exit status 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 3
        raise CliError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _box(text: str) -> tuple[int, int]:
    w, sep, h = text.partition("x")
    if not sep:
        raise CliError(f"--box wants WxH, got {text!r}")
    try:
        return int(w), int(h)
    except ValueError:
        raise CliError(f"--box wants integers, got {text!r}")


def _build_parser() -> _Parser:
    top = _Parser(prog="riftpuzzles", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("kind", choices=("tile", "dcb", "clock"))
    solve.add_argument("input", help="document path or -")
    solve.add_argument("--threshold", type=int, help="dcb: exit 1 when the optimum exceeds this")
    solve.add_argument("--budget", type=int, help="search node budget")

    reduce = sub.add_parser("reduce", help="construct a hardness instance")
    reduce.add_argument("kind", choices=("tile", "dcb", "clock"))
    reduce.add_argument("input", help="grid-graph or digraph document path, or -")
    reduce.add_argument("--gadget", action="store_true", help="dcb: pin the start tile")

    verify = sub.add_parser("verify", help="check a solution or certificate")
    verify.add_argument("kind", choices=("tile", "dcb", "clock", "cert"))
    verify.add_argument("instance", help="instance document path or -")
    verify.add_argument("solution", nargs="?", help="solution document path (not for cert)")
    verify.add_argument("--budget", type=int)

    gen = sub.add_parser("gen", help="emit seeded random instances")
    gen.add_argument(
        "kind",
        choices=("grid-graph", "digraph", "bond-board", "clock", "solvable-clock"),
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--box", type=_box, default=(6, 6), help="WxH sampling box")
    gen.add_argument("--max-v", type=int, help="size parameter (vertices, crystals, or clock nodes)")
    gen.add_argument("--model", choices=("grid", "euclid"), default="grid")

    sweep = sub.add_parser("sweep", help="run an equivalence family")
    sweep.add_argument(
        "family",
        choices=("tile-trial", "dcb", "clock", "cb-oracle", "geo-oracle"),
    )
    sweep.add_argument("--box", type=_box, default=(3, 3))
    sweep.add_argument("--max-v", type=int, default=6)
    sweep.add_argument("--count", type=int, default=100)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--budget", type=int)
    sweep.add_argument("--model", choices=("grid", "euclid"))

    render = sub.add_parser("render", help="ASCII picture of a document")
    render.add_argument(
        "kind",
        choices=("grid-graph", "digraph", "tile-board", "bond-board", "clock"),
    )
    render.add_argument("input", help="document path or -")
    return top


# solve


def _cmd_solve(args) -> int:
    if args.kind == "tile":
        board = parse("tile-board", _read(args.input))
        path = solve_tile_trial(board, node_budget=args.budget)
        if path is None:
            print("UNSOLVABLE")
            return EXIT_NO
        sys.stdout.write(serialize(path))
        return EXIT_OK
    if args.kind == "dcb":
        board = parse("bond-board", _read(args.input))
        walk = solve_crystal_bonds(board) if board.connected else brute_force_crystal_bonds(board)
        sys.stdout.write(serialize(walk))
        if args.threshold is not None and walk.total_length > args.threshold + 1e-9:
            return EXIT_NO
        return EXIT_OK
    instance = parse("clock", _read(args.input))
    solution = solve_clock(instance, budget=args.budget)
    if solution is None:
        print("UNSOLVABLE")
        return EXIT_NO
    sys.stdout.write(serialize(solution))
    return EXIT_OK


# reduce


def _cmd_reduce(args) -> int:
    if args.kind == "clock":
        digraph = parse("digraph", _read(args.input))
        sys.stdout.write(serialize(reduce_digraph_to_phot(digraph)))
        return EXIT_OK
    graph = parse("grid-graph", _read(args.input))
    if args.kind == "tile":
        sys.stdout.write(serialize(reduce_grid_to_tile_trial(graph)))
        return EXIT_OK
    board, threshold = reduce_grid_to_dcb(graph)
    if args.gadget:
        board, threshold, detects = apply_start_gadget(board, graph)
        print(f"threshold {threshold}")
        print(f"detects {detects}")
    else:
        print(f"threshold {threshold}")
    sys.stdout.write(serialize(board))
    return EXIT_OK


# verify


def _cmd_verify(args) -> int:
    if args.kind == "cert":
        cert = parse("certificate", _read(args.instance))
        problems = audit_certificate(cert)
        for p in problems:
            print(p)
        fresh = evaluate_certificate(cert, budget=args.budget)
        print(f"digraph {'yes' if fresh.digraph_verdict else 'no'}")
        print(f"clock {'yes' if fresh.clock_verdict else 'no'}")
        stale = (cert.digraph_verdict, cert.clock_verdict) != (None, None) and (
            cert.digraph_verdict,
            cert.clock_verdict,
        ) != (fresh.digraph_verdict, fresh.clock_verdict)
        if stale:
            print("stored verdicts disagree with recomputation")
        if problems or stale or fresh.digraph_verdict != fresh.clock_verdict:
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK
    if args.solution is None:
        raise CliError(f"verify {args.kind} needs a solution document")
    # (instance kind, solution kind, verifier, violation line); built per
    # call, so a verifier rebound on this module after import is the one
    # that runs
    instance_kind, solution_kind, verify, violation = {
        "tile": ("tile-board", "tile-path", verify_tile_path, "violation: {} at {}"),
        "dcb": ("bond-board", "bond-walk", verify_bond_walk, "violation: {} ({})"),
        "clock": ("clock", "clock-solution", verify_clock_solution, "violation: {} ({})"),
    }[args.kind]
    instance = parse(instance_kind, _read(args.instance))
    solution = parse(solution_kind, _read(args.solution))
    verdict = verify(instance, solution)
    if verdict.ok:
        print("ok")
        return EXIT_OK
    print(violation.format(verdict.rule, verdict.detail))
    return EXIT_COUNTEREXAMPLE


# gen


def _cmd_gen(args) -> int:
    w, h = args.box
    docs = []
    for i in range(args.count):
        seed = args.seed + i
        if args.kind == "grid-graph":
            size = args.max_v if args.max_v else max(2, 2 * w * h // 3)
            region = gen_random_region(seed, w, h, size)
            docs.append(serialize(GridGraph(region.tiles)))
        elif args.kind == "digraph":
            docs.append(serialize(gen_random_digraph(args.max_v or 5, seed)))
        elif args.kind == "bond-board":
            board = gen_random_tree_board(
                seed, box_w=w, box_h=h, r=args.max_v or 7, model=args.model
            )
            docs.append(serialize(board))
        elif args.kind == "clock":
            docs.append(serialize(gen_random_clock(args.max_v or 8, seed)))
        else:
            docs.append(serialize(gen_solvable_clock(args.max_v or 8, seed)))
    sys.stdout.write("---\n".join(docs))
    return EXIT_OK


# sweep workers; top level so ProcessPoolExecutor can pickle them


def _sweep_tile_item(g: GridGraph) -> tuple[bool, str]:
    board = reduce_grid_to_tile_trial(g)
    got = solve_tile_trial(board) is not None
    want = has_ham_cycle_grid(g)
    return got == want, serialize(g)


def _sweep_dcb_item(g: GridGraph) -> tuple[bool, str]:
    board, threshold = reduce_grid_to_dcb(g)
    if decide_dcb(board, threshold) != has_ham_path_grid(g):
        return False, serialize(g)
    gadget, gthreshold, detects = apply_start_gadget(board, g)
    want = has_ham_path_grid(g) if detects == "ham-path" else has_ham_cycle_grid(g)
    if decide_dcb(gadget, gthreshold) != want:
        return False, serialize(g)
    return True, serialize(g)


def _sweep_clock_item(task: tuple[int, int, int | None]) -> tuple[bool, str]:
    v, seed, budget = task
    cert = reduce_digraph_to_phot(gen_random_digraph(v, seed))
    problems = audit_certificate(cert)
    cert = evaluate_certificate(cert, budget=budget)
    ok = not problems and cert.digraph_verdict == cert.clock_verdict
    return ok, serialize(cert)


def _sweep_cb_item(task: tuple[int, str]) -> tuple[bool, str]:
    seed, model = task
    board = gen_random_tree_board(seed, box_w=8, box_h=8, r=5 + seed % 3, model=model)
    got = solve_crystal_bonds(board)
    want = brute_force_crystal_bonds(board)
    ok = (
        abs(got.total_length - want.total_length) <= 1e-9
        and verify_bond_walk(board, got).ok
        and verify_bond_walk(board, want).ok
    )
    return ok, serialize(board)


def _sweep_geo_item(task: tuple[int, int, int]) -> tuple[bool, str]:
    seed, w, h = task
    region = gen_random_region(seed, w, h, max(2, 2 * w * h // 3))
    tiles = sorted(region.tiles)
    if seed % 5 == 4:
        # far-away twin cluster: distances between the parts must be
        # unreachable under both metrics
        shift = w + 2
        extra = gen_random_region(seed + 1, w, h, max(2, w * h // 3))
        tiles2 = [(x + shift, y) for x, y in sorted(extra.tiles)]
        region = TileRegion(frozenset(tiles) | frozenset(tiles2))
        p = tile_center(tiles[seed % len(tiles)])
        q = tile_center(tiles2[seed % len(tiles2)])
    else:
        p = tile_center(tiles[seed % len(tiles)])
        q = tile_center(tiles[(seed * 7 + 3) % len(tiles)])
    exact = euclidean_geodesic(region, p, q)
    fine = fine_grid_distance(region, p, q, FINE_K)
    detail = f"seed {seed} p {p} q {q} exact {exact!r} fine {fine!r}"
    if math.isinf(exact) or math.isinf(fine):
        return math.isinf(exact) and math.isinf(fine), detail
    ok = exact <= fine + 1e-9 and fine <= RATIO_BOUND * exact + 1e-9
    return ok, detail


def _run_items(worker, items, jobs: int) -> list[tuple[bool, str]]:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, items))
    return [worker(item) for item in items]


def _cmd_sweep(args) -> int:
    w, h = args.box
    if args.family == "tile-trial":
        items = [g for g in enumerate_grid_graphs(w, h, args.max_v) if len(g) >= 2]
        results = _run_items(_sweep_tile_item, items, args.jobs)
    elif args.family == "dcb":
        items = [g for g in enumerate_grid_graphs(w, h, args.max_v) if len(g) >= 2]
        results = _run_items(_sweep_dcb_item, items, args.jobs)
    elif args.family == "clock":
        span = max(1, args.max_v - 1)
        items = [(2 + i % span, args.seed + i, args.budget) for i in range(args.count)]
        results = _run_items(_sweep_clock_item, items, args.jobs)
    elif args.family == "cb-oracle":
        models = (args.model,) if args.model else ("grid", "euclid")
        items = [(args.seed + i, models[i % len(models)]) for i in range(args.count)]
        results = _run_items(_sweep_cb_item, items, args.jobs)
    else:
        items = [(args.seed + i, w, h) for i in range(args.count)]
        results = _run_items(_sweep_geo_item, items, args.jobs)

    passed = sum(1 for ok, _ in results if ok)
    failed = len(results) - passed
    print(f"pass {passed} fail {failed}")
    if failed:
        first = next(detail for ok, detail in results if not ok)
        print("first counterexample:")
        sys.stdout.write(first if first.endswith("\n") else first + "\n")
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# render


def _render_grid(points, mark) -> str:
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    rows = []
    for y in range(max(ys), min(ys) - 1, -1):
        rows.append(
            "".join(mark((x, y)) for x in range(min(xs), max(xs) + 1))
        )
    return "\n".join(rows) + "\n"


def _cmd_render(args) -> int:
    text = _read(args.input)
    if args.kind == "grid-graph":
        g = parse("grid-graph", text)
        sys.stdout.write(_render_grid(g.vertices, lambda t: "o" if t in g.vertices else "."))
        return EXIT_OK
    if args.kind == "digraph":
        d = parse("digraph", text)
        for s, t in d.arcs:
            print(f"{s} -> {t}")
        return EXIT_OK
    if args.kind == "tile-board":
        board = parse("tile-board", text)
        doc = serialize(board)
        if doc.startswith("offset"):
            doc = doc.split("\n", 1)[1]
        sys.stdout.write(doc)
        return EXIT_OK
    if args.kind == "bond-board":
        board = parse("bond-board", text)
        crystal_tile = {tile_of(p): i for i, p in enumerate(board.crystals)}
        start_tile = None if board.start is None else tile_of(board.start)

        def mark(t):
            if t not in board.region.tiles:
                return "#"
            if t == start_tile:
                return "S"
            if t in crystal_tile:
                i = crystal_tile[t]
                return chr(ord("a") + i) if i < 26 else "+"
            return "."

        sys.stdout.write(_render_grid(board.region.tiles, mark))
        for i, j in board.required_bonds:
            print(f"bond {i}-{j}")
        return EXIT_OK
    instance = parse("clock", text)
    print(f"circumference {instance.circumference}")
    for p, m in instance.occupied:
        print(f"  {p}: {m}")
    if instance.occupied:
        graph = clock_to_digraph(instance)
        positions = instance.positions
        for s, t in graph.arcs:
            print(f"  {positions[s]} -> {positions[t]}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "sweep": _cmd_sweep,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstanceTooLarge, BudgetExhausted) as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
