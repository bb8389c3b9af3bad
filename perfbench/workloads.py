"""Workload inputs and the checks on their outputs.

A workload is a list of items; one pass runs every item once.  An item is
one puzzle instance driven through the CLI as one or more ops (calls of
``riftpuzzles.cli.main``), each chained on the previous op's output.  Its
checks run outside the timed region: every op's exit status and output are
compared with what the construction, an independent oracle or the CLI
contract says they must be.

All inputs come from the workload seed, so the same seed gives the same
documents.
"""

from __future__ import annotations

import random
from pathlib import Path

from riftpuzzles.crystal_bonds import BondBoard, gen_random_tree_board
from riftpuzzles.geometry import gen_random_region, tile_center
from riftpuzzles.graphs import (
    GridGraph,
    enumerate_grid_graphs,
    gen_random_digraph,
    has_ham_cycle_grid,
)
from riftpuzzles.instance_io import serialize

WORKLOADS = ("euclid", "grid", "reductions")

# Sizes per workload.  "full" is what the benchmark measures; "smoke" is a
# tiny version of the same mix that the self-test runs in seconds.
SIZES = {
    "euclid": {
        # (box side, crystals, boards, every n-th pass): many 30x30 boards
        # average out the spread of random region shapes; a 50x50 board on
        # every fourth pass keeps op_tail_ms inside the 30x30 cluster
        "full": {"boards": ((30, 40, 4, 1), (50, 60, 1, 4)), "geo_chunks": 1, "geo_box": "5x5"},
        "smoke": {"boards": ((8, 6, 1, 1),), "geo_chunks": 1, "geo_box": "4x4"},
    },
    "grid": {
        # (box side, legs, leg length): 13 legs give 14 odd-degree crystals,
        # 15 legs give 16, the matching's documented limit
        "full": {
            "spiders": (
                (30, 15, 2), (30, 15, 2), (50, 13, 3), (50, 15, 3), (50, 15, 3), (80, 13, 4),
                (80, 15, 4),
            )
        },
        "smoke": {"spiders": ((12, 13, 1),)},
    },
    "reductions": {
        "full": {
            "tile_sweep": ("3x4", 9),
            "dcb_sweep": ("3x3", 7),
            "clock_chunks": 8,
            "clock_chunk": 25,
            "clock_max_v": 16,
            "certs": 10,
            "random_graphs": 6,
            "odd_rects": ((5, 5), (3, 7)),
            "even_rects": ((4, 5), (4, 6), (6, 6)),
            "ladders": ((290, 310), (470, 500)),
        },
        "smoke": {
            "tile_sweep": ("3x3", 5),
            "dcb_sweep": ("2x3", 4),
            "clock_chunks": 1,
            "clock_chunk": 5,
            "clock_max_v": 6,
            "certs": 2,
            "random_graphs": 1,
            "odd_rects": ((3, 3),),
            "even_rects": ((2, 4),),
            "ladders": ((8, 10), (470, 500)),
        },
    },
}

# Seconds one full-size pass takes at the seed commit on a 2-CPU x86-64
# machine; a run does round(--seconds / this) passes.
NOMINAL_PASS_S = {"euclid": 3.3, "grid": 3.3, "reductions": 4.0}

# A 2xL ladder has a Hamiltonian cycle for every L >= 2; the reduced board's
# solving walk is about 3L steps long and the seed's solver recurses once per
# step, so lengths past roughly L = 330 raise RecursionError.  Both sides of
# that boundary stay in the workload.

CERT_VERTICES = range(4, 17)
RANDOM_GRAPH_BOX = (6, 6)
RANDOM_GRAPH_SIZES = range(20, 31)


class Item:
    """One puzzle instance: run() drives its ops and checks each outcome."""

    def __init__(self, label: str) -> None:
        self.label = label

    def facts(self) -> dict:
        """Exact counts computed from the inputs (not from the program)."""
        return {}

    def run(self, runner) -> None:
        raise NotImplementedError


class BondItem(Item):
    """`solve dcb` then `verify dcb`; the walk counts only if verify says ok."""

    def __init__(self, label: str, board: BondBoard, workdir: Path) -> None:
        super().__init__(label)
        self.board_path = workdir / f"{label}.bond"
        self.walk_path = workdir / f"{label}.walk"
        self.board_path.write_text(serialize(board), encoding="utf-8")
        degree = [0] * len(board.crystals)
        for a, b in board.required_bonds:
            degree[a] += 1
            degree[b] += 1
        self.odd = sum(d % 2 for d in degree)

    def facts(self) -> dict:
        return {"crystal_bonds.odd_crystals": self.odd, "solve_dcb_ops": 1}

    def run(self, runner) -> None:
        solve = runner.op(f"{self.label}:solve", ["solve", "dcb", str(self.board_path)])
        if not runner.expect_exit(solve, 0):
            return
        if not solve.out.strip():
            runner.wrong(solve, "solve dcb printed no walk")
            return
        self.walk_path.write_text(solve.out, encoding="utf-8")
        verify = runner.op(
            f"{self.label}:verify",
            ["verify", "dcb", str(self.board_path), str(self.walk_path)],
        )
        if verify.exc is None and verify.out != "ok\n":
            runner.wrong(verify, f"verify dcb rejected the solver's walk: {verify.out.strip()}")
            return
        if runner.expect_exit(verify, 0):
            runner.items(1)


class SweepItem(Item):
    """One `sweep` op; exit 2 with a counterexample is a verdict, not a failure."""

    def __init__(self, label: str, argv: list[str], expected: int | None) -> None:
        super().__init__(label)
        self.argv = argv
        self.family = argv[1]
        self.expected = expected  # None: count of enumerated graphs, found lazily

    def _expected_count(self) -> int:
        if self.expected is None:
            w, h = (int(v) for v in self.argv[self.argv.index("--box") + 1].split("x"))
            max_v = int(self.argv[self.argv.index("--max-v") + 1])
            self.expected = sum(1 for g in enumerate_grid_graphs(w, h, max_v) if len(g) >= 2)
        return self.expected

    def run(self, runner) -> None:
        res = runner.op(self.label, self.argv)
        if not runner.expect_exit(res, 0, 2):
            return
        lines = res.out.splitlines()
        words = lines[0].split() if lines else []
        if len(words) != 4 or words[0] != "pass" or words[2] != "fail":
            runner.wrong(res, f"sweep summary line malformed: {lines[:1]}")
            return
        passed, failed = int(words[1]), int(words[3])
        if passed + failed != self._expected_count():
            runner.wrong(res, f"sweep decided {passed + failed} items, expected {self.expected}")
            return
        if (res.rc == 2) != (failed > 0) or (failed and lines[1:2] != ["first counterexample:"]):
            runner.wrong(res, "sweep exit status disagrees with its summary")
            return
        runner.exact(f"counterexamples.{self.family}", failed)
        runner.exact(f"sweep_items.{self.family}", passed + failed)
        runner.items(passed + failed)


class CertItem(Item):
    """`reduce clock` then `verify cert`, which must print both verdicts."""

    def __init__(self, label: str, vertices: int, seed: int, workdir: Path) -> None:
        super().__init__(label)
        self.digraph_path = workdir / f"{label}.digraph"
        self.cert_path = workdir / f"{label}.cert"
        self.digraph_path.write_text(serialize(gen_random_digraph(vertices, seed)), encoding="utf-8")

    def run(self, runner) -> None:
        red = runner.op(f"{self.label}:reduce", ["reduce", "clock", str(self.digraph_path)])
        if not runner.expect_exit(red, 0):
            return
        self.cert_path.write_text(red.out, encoding="utf-8")
        ver = runner.op(f"{self.label}:verify", ["verify", "cert", str(self.cert_path)])
        if not runner.expect_exit(ver, 0, 2):
            return
        lines = ver.out.splitlines()
        digraph = [ln for ln in lines if ln in ("digraph yes", "digraph no")]
        clock = [ln for ln in lines if ln in ("clock yes", "clock no")]
        if len(digraph) != 1 or len(clock) != 1:
            runner.wrong(ver, f"verify cert verdict lines missing: {lines}")
            return
        agree = digraph[0].split()[1] == clock[0].split()[1]
        if ver.rc == 0 and not agree:
            runner.wrong(ver, "verify cert exited 0 with disagreeing verdicts")
            return
        runner.exact("cert_disagreements", int(ver.rc == 2))
        runner.items(1)


class TileItem(Item):
    """`reduce tile`, `solve tile`, and `verify tile` when a path comes back.

    The verdict must match `expect` (known from the construction) or, when
    that is None, the grid-graph Hamiltonian-cycle oracle.
    """

    def __init__(self, label: str, graph: GridGraph, expect: bool | None, workdir: Path) -> None:
        super().__init__(label)
        self.graph = graph
        self.expect = expect
        self.graph_path = workdir / f"{label}.grid"
        self.board_path = workdir / f"{label}.tile"
        self.path_path = workdir / f"{label}.path"
        self.graph_path.write_text(serialize(graph), encoding="utf-8")

    def run(self, runner) -> None:
        red = runner.op(f"{self.label}:reduce", ["reduce", "tile", str(self.graph_path)])
        if not runner.expect_exit(red, 0):
            return
        self.board_path.write_text(red.out, encoding="utf-8")
        solve = runner.op(f"{self.label}:solve", ["solve", "tile", str(self.board_path)])
        if not runner.expect_exit(solve, 0, 1):
            return
        if self.expect is None:
            self.expect = has_ham_cycle_grid(self.graph)
        if (solve.rc == 0) != self.expect:
            runner.wrong(solve, f"solve tile verdict {solve.rc == 0}, construction says {self.expect}")
            return
        if solve.rc == 1:
            if solve.out != "UNSOLVABLE\n":
                runner.wrong(solve, "solve tile exited 1 without UNSOLVABLE")
                return
            runner.items(1)
            return
        self.path_path.write_text(solve.out, encoding="utf-8")
        ver = runner.op(
            f"{self.label}:verify",
            ["verify", "tile", str(self.board_path), str(self.path_path)],
        )
        if ver.exc is None and ver.out != "ok\n":
            runner.wrong(ver, f"verify tile rejected the solver's path: {ver.out.strip()}")
            return
        if runner.expect_exit(ver, 0):
            runner.items(1)


def _interleave(*groups: list[Item]) -> list[Item]:
    """Round-robin merge, so every stretch of a pass has the same mix."""
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for g in groups:
            if i < len(g):
                out.append(g[i])
    return out


def spider_board(seed: int, side: int, legs: int, leg_len: int) -> BondBoard:
    """Grid-model board whose bond tree is a spider: one hub, `legs` chains.

    The hub (degree `legs`) and the leg ends have odd degree, so an odd
    `legs` gives legs + 1 odd-degree crystals.
    """
    rng = random.Random(seed)
    region = gen_random_region(rng.randrange(2**32), side, side, (side * side * 2) // 3)
    r = 1 + legs * leg_len
    picks = rng.sample(sorted(region.tiles), r + 1)
    crystals = tuple(tile_center(t) for t in picks[:r])
    bonds = []
    for leg in range(legs):
        prev = 0
        for step in range(leg_len):
            node = 1 + leg * leg_len + step
            bonds.append((prev, node))
            prev = node
    return BondBoard(region, crystals, tile_center(picks[r]), tuple(bonds), "grid")


def build(workload: str, seed: int, size: str, passes: int, workdir: Path) -> list[list[Item]]:
    """Generate the run's passes and write their documents.

    Each pass draws fresh inputs from (workload, seed, pass index), so a run
    averages over passes * items distinct instances; the same arguments
    always give the same documents.
    """
    return [_build_pass(workload, seed, i, SIZES[workload][size], workdir) for i in range(passes)]


def _build_pass(workload: str, seed: int, index: int, cfg: dict, workdir: Path) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}:{index}")
    tag = f"p{index}-"
    if workload == "euclid":
        boards = []
        for side, r, count, every in cfg["boards"]:
            for i in range(count if index % every == 0 else 0):
                board = gen_random_tree_board(rng.randrange(2**32), side, side, r, "euclid")
                boards.append(BondItem(f"{tag}euclid{side}-{i}", board, workdir))
        geo = [
            SweepItem(
                f"{tag}geo{i}",
                ["sweep", "geo-oracle", "--box", cfg["geo_box"], "--count", "5",
                 "--seed", str(5 * rng.randrange(10**8))],
                5,
            )
            for i in range(cfg["geo_chunks"])
        ]
        return _interleave(boards, geo)

    if workload == "grid":
        return [
            BondItem(
                f"{tag}spider{side}x{legs}-{i}",
                spider_board(rng.randrange(2**32), side, legs, leg_len),
                workdir,
            )
            for i, (side, legs, leg_len) in enumerate(cfg["spiders"])
        ]

    sweeps = [
        SweepItem(f"{tag}sweep-{family}", ["sweep", family, "--box", box, "--max-v", str(max_v)], None)
        for family, (box, max_v) in (("tile-trial", cfg["tile_sweep"]), ("dcb", cfg["dcb_sweep"]))
    ]
    chunk = str(cfg["clock_chunk"])
    clocks = [
        SweepItem(
            f"{tag}clock{i}",
            ["sweep", "clock", "--count", chunk, "--max-v", str(cfg["clock_max_v"]),
             "--seed", str(rng.randrange(10**8))],
            cfg["clock_chunk"],
        )
        for i in range(cfg["clock_chunks"])
    ]
    certs = []
    # sizes cycle with the pass index, not the seed, so every seed runs the
    # same mix of sizes and only the graphs themselves differ
    for i in range(cfg["certs"]):
        v = CERT_VERTICES[(index * cfg["certs"] + i) % len(CERT_VERTICES)]
        certs.append(CertItem(f"{tag}cert{i}-v{v}", v, rng.randrange(2**32), workdir))
    tiles = []
    bw, bh = RANDOM_GRAPH_BOX
    for i in range(cfg["random_graphs"]):
        n = RANDOM_GRAPH_SIZES[(index * cfg["random_graphs"] + i) % len(RANDOM_GRAPH_SIZES)]
        g = GridGraph(gen_random_region(rng.randrange(2**32), bw, bh, n).tiles)
        tiles.append(TileItem(f"{tag}random{i}-n{n}", g, None, workdir))
    for w, h in cfg["odd_rects"]:
        tiles.append(TileItem(f"{tag}rect{w}x{h}", _rect(w, h), False, workdir))
    for w, h in cfg["even_rects"]:
        tiles.append(TileItem(f"{tag}rect{w}x{h}", _rect(w, h), True, workdir))
    for lo, hi in cfg["ladders"]:
        length = rng.randint(lo, hi)
        tiles.append(TileItem(f"{tag}ladder2x{length}", _rect(length, 2), True, workdir))
    return _interleave(sweeps, clocks, certs, tiles)


def _rect(w: int, h: int) -> GridGraph:
    return GridGraph(frozenset((x, y) for x in range(w) for y in range(h)))
