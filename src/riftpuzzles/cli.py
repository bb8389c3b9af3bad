"""Command line front end.

Subcommands: solve, reduce, verify, gen, sweep, render.  Documents go in and
out in the instance_io text formats; `-` reads standard input.  Exit status
is the interesting result: 0 for solvable/valid/all-pass, 1 for unsolvable or
over-threshold, 2 for a failed verification or a sweep counterexample, 3 for
usage and input errors (including searches that exhaust their budget, the
stack or memory, and a reader that closed stdout, which decide nothing).

Identical command lines with identical seeds print identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

from .crystal_bonds import (
    MODELS,
    BondBoard,
    UnreachableCrystal,
    apply_start_gadget,
    brute_force_crystal_bonds,
    decide_dcb,
    gen_random_tree_board,
    reduce_grid_to_dcb,
    solve_crystal_bonds,
    verify_bond_walk,
)
from .geometry import (
    EPS,
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
from .instance_io import ParseError, _picture, _tile_rows, parse, serialize
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


class _Unreadable(Exception):
    """A document that could not be read; main() reports it as an input error."""


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:  # a missing file, a directory, no permission
        raise _Unreadable(exc) from exc


def _box(text: str) -> tuple[int, int]:
    w, sep, h = text.partition("x")
    if not sep:
        raise CliError(f"--box wants WxH, got {text!r}")
    try:
        box = int(w), int(h)
    except ValueError:
        raise CliError(f"--box wants integers, got {text!r}")
    if min(box) < 1:
        raise CliError(f"--box wants positive sides, got {text!r}")
    if max(box) > sys.maxsize:  # the stdlib would refuse it without naming the option
        raise CliError(f"--box wants sides of at most {sys.maxsize}, got {text!r}")
    return box


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> _Parser:
    top = _Parser(prog="riftpuzzles", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.set_defaults(run=_cmd_solve)
    solve.add_argument("kind", choices=tuple(_SOLVERS))
    solve.add_argument("input", help="document path or -")
    solve.add_argument("--threshold", type=int, help="dcb: exit 1 when the optimum exceeds this")
    solve.add_argument("--budget", type=int, help="clock: search nodes; tile: frontier states")

    reduce = sub.add_parser("reduce", help="construct a hardness instance")
    reduce.set_defaults(run=_cmd_reduce)
    reduce.add_argument("kind", choices=tuple(_REDUCERS))
    reduce.add_argument("input", help="grid-graph or digraph document path, or -")
    reduce.add_argument("--gadget", action="store_true", default=None, help="dcb: pin the start tile")

    verify = sub.add_parser("verify", help="check a solution or certificate")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("kind", choices=(*_VERIFIERS, "cert"))
    verify.add_argument("instance", help="instance document path or -")
    verify.add_argument("solution", nargs="?", help="solution document path (not for cert)")
    verify.add_argument("--budget", type=int)

    gen = sub.add_parser("gen", help="emit seeded random instances")
    gen.set_defaults(run=_cmd_gen)
    gen.add_argument("kind", choices=tuple(_GENERATORS))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--box", type=_box, help="WxH sampling box (default 6x6)")
    gen.add_argument("--max-v", type=int, help="size parameter (vertices, crystals, or clock nodes)")
    gen.add_argument("--model", choices=MODELS, help="bond-board distance model (default grid)")

    sweep = sub.add_parser("sweep", help="run an equivalence family")
    sweep.set_defaults(run=_cmd_sweep)
    sweep.add_argument("kind", choices=tuple(_SWEEPS), metavar="family")
    sweep.add_argument("--box", type=_box, help="WxH box (default 3x3)")
    sweep.add_argument("--max-v", type=int)
    sweep.add_argument("--count", type=int)
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--budget", type=int)
    sweep.add_argument("--model", choices=MODELS)

    render = sub.add_parser("render", help="ASCII picture of a document")
    render.set_defaults(run=_cmd_render)
    render.add_argument("kind", choices=tuple(_RENDERERS))
    render.add_argument("input", help="document path or -")
    return top


# Each verb but `verify cert` reads a module-level table keyed by its kind
# (or sweep family), which also gives the parser its choices.  Entries reach
# this module's globals through lambdas or private functions, which look the
# names up at call time: a function rebound here after import is the one run.

# solve

# kind -> (instance kind, solver called as solve(instance, args))
_SOLVERS = {
    "tile": ("tile-board", lambda b, args: solve_tile_trial(b, node_budget=args.budget)),
    "dcb": (
        "bond-board",
        lambda b, args: (solve_crystal_bonds if b.connected else brute_force_crystal_bonds)(b),
    ),
    "clock": ("clock", lambda c, args: solve_clock(c, budget=args.budget)),
}


def _cmd_solve(args) -> int:
    instance_kind, solve = _SOLVERS[args.kind]
    try:
        solution = solve(parse(instance_kind, _read(args.input)), args)
    except UnreachableCrystal:
        # a region that cuts the crystals apart: "no" under --threshold, as in decide_dcb
        if args.threshold is None:
            raise
        solution = None
    if solution is None:
        print("UNSOLVABLE")
        return EXIT_NO
    sys.stdout.write(serialize(solution))
    # a float compares with an int exactly, so a threshold past the float range is decided too
    over = args.kind == "dcb" and args.threshold is not None and solution.total_length - EPS > args.threshold
    return EXIT_NO if over else EXIT_OK


# reduce


def _reduce_dcb(graph: GridGraph, args) -> str:
    board, threshold = reduce_grid_to_dcb(graph)
    if not args.gadget:
        return f"threshold {threshold}\n" + serialize(board)
    board, threshold, detects = apply_start_gadget(board, graph)
    return f"threshold {threshold}\ndetects {detects}\n" + serialize(board)


# kind -> (input kind, reducer returning the output text)
_REDUCERS = {
    "tile": ("grid-graph", lambda graph, args: serialize(reduce_grid_to_tile_trial(graph))),
    "dcb": ("grid-graph", _reduce_dcb),
    "clock": ("digraph", lambda digraph, args: serialize(reduce_digraph_to_phot(digraph))),
}


def _cmd_reduce(args) -> int:
    input_kind, reduce = _REDUCERS[args.kind]
    sys.stdout.write(reduce(parse(input_kind, _read(args.input)), args))
    return EXIT_OK


# verify

# kind -> (instance kind, solution kind, verifier, violation detail); `cert`
# takes no solution document and is handled apart
_VERIFIERS = {
    "tile": ("tile-board", "tile-path", lambda i, s: verify_tile_path(i, s), "{} at {}"),
    "dcb": ("bond-board", "bond-walk", lambda i, s: verify_bond_walk(i, s), "{} ({})"),
    "clock": ("clock", "clock-solution", lambda i, s: verify_clock_solution(i, s), "{} ({})"),
}


def _cmd_verify(args) -> int:
    if args.kind == "cert":
        if args.solution is not None:
            raise CliError("verify cert takes no solution document")
        cert = parse("certificate", _read(args.instance))
        problems = audit_certificate(cert)
        for p in problems:
            print(p)
        fresh = evaluate_certificate(cert, budget=args.budget)
        print(f"digraph {'yes' if fresh.digraph_verdict else 'no'}")
        print(f"clock {'yes' if fresh.clock_verdict else 'no'}")
        # each verdict line is optional: compare only those the certificate stores
        pairs = ((cert.digraph_verdict, fresh.digraph_verdict), (cert.clock_verdict, fresh.clock_verdict))
        stale = any(stored not in (None, now) for stored, now in pairs)
        if stale:
            print("stored verdicts disagree with recomputation")
        if problems or stale or fresh.digraph_verdict != fresh.clock_verdict:
            return EXIT_COUNTEREXAMPLE
        return EXIT_OK
    if args.solution is None:
        raise CliError(f"verify {args.kind} needs a solution document")
    if args.instance == args.solution == "-":
        raise CliError(f"verify {args.kind} cannot read both documents from stdin")
    instance_kind, solution_kind, verify, detail = _VERIFIERS[args.kind]
    instance = parse(instance_kind, _read(args.instance))
    solution = parse(solution_kind, _read(args.solution))
    verdict = verify(instance, solution)
    if verdict.ok:
        print("ok")
        return EXIT_OK
    print("violation: " + detail.format(verdict.rule, verdict.detail))
    return EXIT_COUNTEREXAMPLE


# gen

# kind -> generator called as generate(seed, w, h, args) for a WxH box; an
# unset or zero --max-v means the kind's default size
_GENERATORS = {
    "grid-graph": lambda seed, w, h, args: GridGraph(
        gen_random_region(seed, w, h, args.max_v or max(2, 2 * w * h // 3)).tiles
    ),
    "digraph": lambda seed, w, h, args: gen_random_digraph(args.max_v or 5, seed),
    "bond-board": lambda seed, w, h, args: gen_random_tree_board(
        seed, box_w=w, box_h=h, r=args.max_v or 7, model=args.model or "grid"
    ),
    "clock": lambda seed, w, h, args: gen_random_clock(args.max_v or 8, seed),
    "solvable-clock": lambda seed, w, h, args: gen_solvable_clock(args.max_v or 8, seed),
}


def _cmd_gen(args) -> int:
    generate = _GENERATORS[args.kind]
    if (args.max_v or 0) < 0:  # 0 is --max-v's default
        raise CliError(f"--max-v wants at least 0, got {args.max_v}")
    docs = [serialize(generate(args.seed + i, *(args.box or (6, 6)), args)) for i in range(args.count)]
    sys.stdout.write("---\n".join(docs))
    return EXIT_OK


# sweep families: each reads the arguments and yields, per item, ok and the
# text printed when it is the first failing item, which the document sweeps
# build only when not ok


def _box_graphs(args):
    w, h = args.box or (3, 3)
    return (g for g in enumerate_grid_graphs(w, h, args.max_v) if len(g) >= 2)


def _sweep_tile(args):
    for g in _box_graphs(args):
        board = reduce_grid_to_tile_trial(g)
        ok = (solve_tile_trial(board) is not None) == has_ham_cycle_grid(g)
        yield ok, "" if ok else serialize(g)


def _sweep_dcb(args):
    for g in _box_graphs(args):
        board, threshold = reduce_grid_to_dcb(g)
        has_path = has_ham_path_grid(g)
        gadget, gthreshold, detects = apply_start_gadget(board, g)
        want = has_path if detects == "ham-path" else has_ham_cycle_grid(g)
        ok = decide_dcb(board, threshold) == has_path and decide_dcb(gadget, gthreshold) == want
        yield ok, "" if ok else serialize(g)


def _sweep_clock(args):
    if args.max_v < 2:
        raise CliError(f"--max-v wants at least 2, got {args.max_v}")
    for i in range(args.count):
        cert = reduce_digraph_to_phot(gen_random_digraph(2 + i % (args.max_v - 1), args.seed + i))
        problems = audit_certificate(cert)
        cert = evaluate_certificate(cert, budget=args.budget)
        ok = not problems and cert.digraph_verdict == cert.clock_verdict
        yield ok, "" if ok else serialize(cert)


def _sweep_cb(args):
    models = (args.model,) if args.model else MODELS
    for i in range(args.count):
        seed = args.seed + i
        board = gen_random_tree_board(seed, box_w=8, box_h=8, r=5 + seed % 3, model=models[i % len(models)])
        got = solve_crystal_bonds(board)
        want = brute_force_crystal_bonds(board)
        ok = (
            abs(got.total_length - want.total_length) <= EPS
            and verify_bond_walk(board, got).ok
            and verify_bond_walk(board, want).ok
        )
        yield ok, "" if ok else serialize(board)


def _sweep_geo(args):
    w, h = args.box or (3, 3)
    for seed in range(args.seed, args.seed + args.count):
        region = gen_random_region(seed, w, h, max(2, 2 * w * h // 3))
        tiles = sorted(region.tiles)
        p = tile_center(tiles[seed % len(tiles)])
        if seed % 5 == 4:
            # far-away twin cluster: distances between the parts must be
            # unreachable under both metrics
            shift = w + 2
            extra = gen_random_region(seed + 1, w, h, max(2, w * h // 3))
            tiles2 = [(x + shift, y) for x, y in sorted(extra.tiles)]
            region = TileRegion(frozenset(tiles) | frozenset(tiles2))
            q = tile_center(tiles2[seed % len(tiles2)])
        else:
            q = tile_center(tiles[(seed * 7 + 3) % len(tiles)])
        exact = euclidean_geodesic(region, p, q)
        fine = fine_grid_distance(region, p, q, FINE_K)
        detail = f"seed {seed} p {p} q {q} exact {exact!r} fine {fine!r}"
        if math.isinf(exact) or math.isinf(fine):
            yield math.isinf(exact) and math.isinf(fine), detail
        else:
            yield exact <= fine + EPS and fine <= RATIO_BOUND * exact + EPS, detail


# family -> generator of (ok, detail) per item
_SWEEPS = {
    "tile-trial": _sweep_tile,
    "dcb": _sweep_dcb,
    "clock": _sweep_clock,
    "cb-oracle": _sweep_cb,
    "geo-oracle": _sweep_geo,
}


def _cmd_sweep(args) -> int:
    for option, default in (("count", 100), ("seed", 0), ("max_v", 6)):
        if getattr(args, option) is None:
            setattr(args, option, default)
    results = []
    try:
        for result in _SWEEPS[args.kind](args):
            results.append(result)
    except BudgetExhausted as exc:
        # say which item gave up and how far the sweep got
        done, passed = len(results), sum(1 for ok, _ in results if ok)
        raise BudgetExhausted(f"item {done + 1} ({passed} passed, {done - passed} failed before it): {exc}") from exc
    if not results:
        # a sweep that checked nothing must not read as an all-pass
        raise CliError(f"sweep {args.kind} has no items; nothing was checked")
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


def _render_bond_board(board: BondBoard) -> str:
    marks = dict.fromkeys(board.region.tiles, ".")
    marks.update({tile_of(p): chr(ord("a") + i) if i < 26 else "+" for i, p in enumerate(board.crystals)})
    if board.start is not None:
        marks[tile_of(board.start)] = "S"
    return _picture(marks, "#") + "".join(f"bond {i}-{j}\n" for i, j in board.required_bonds)


def _render_clock(instance) -> str:
    lines = [f"circumference {instance.circumference}"]
    lines += [f"  {p}: {m}" for p, m in instance.occupied]
    if instance.occupied:
        positions = instance.positions
        arcs = clock_to_digraph(instance).arcs
        lines += [f"  {positions[s]} -> {positions[t]}" for s, t in arcs]
    return "".join(line + "\n" for line in lines)


# document kind -> renderer returning the picture
_RENDERERS = {
    "grid-graph": lambda g: _picture(dict.fromkeys(g.vertices, "o"), "."),
    "digraph": lambda d: "".join(f"{s} -> {t}\n" for s, t in d.arcs),
    "tile-board": _tile_rows,
    "bond-board": _render_bond_board,
    "clock": _render_clock,
}


def _cmd_render(args) -> int:
    sys.stdout.write(_RENDERERS[args.kind](parse(args.kind, _read(args.input))))
    return EXIT_OK


# verb -> {option defaulting to None: the kinds that read it}; other kinds
# refuse it (--box and gen's --model take their defaults where they are read,
# sweep's --count, --seed and --max-v in _cmd_sweep)
_READERS = {
    "solve": {"threshold": {"dcb"}, "budget": {"tile", "clock"}},
    "reduce": {"gadget": {"dcb"}},
    "verify": {"budget": {"cert"}},
    "gen": {"box": {"grid-graph", "bond-board"}, "model": {"bond-board"}},
    "sweep": {
        "box": {"tile-trial", "dcb", "geo-oracle"}, "budget": {"clock"}, "model": {"cb-oracle"},
        "count": {"clock", "cb-oracle", "geo-oracle"}, "seed": {"clock", "cb-oracle", "geo-oracle"},
        "max_v": {"tile-trial", "dcb", "clock"},
    },
}


def main(argv=None) -> int:
    """Run one command line and return its exit status.  Repeated calls in
    one process reuse one parser; each call parses into a fresh namespace."""
    try:
        args = _build_parser().parse_args(argv)
        for option, kinds in _READERS.get(args.command, {}).items():
            if getattr(args, option) is not None and args.kind not in kinds:
                raise CliError(f"{args.command} {args.kind} takes no --{option.replace('_', '-')}")
        # below 1 these print an empty set, a sweep of nothing or a budget no search spent
        for option in ("count", "budget"):
            if (value := getattr(args, option, None)) is not None and value < 1:
                raise CliError(f"--{option} wants at least 1, got {value}")
        status = args.run(args)
        sys.stdout.flush()  # a closed pipe raises here, while it can still set the status
        return status
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull so the flush at exit
        # cannot raise again (the Python docs' SIGPIPE note); a StringIO has no fd
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        print("gave up: standard output was closed", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, _Unreadable) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExhausted, RecursionError, MemoryError) as exc:
        print(f"gave up: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError) as exc:  # OverflowError: a number past a float or an index
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
