"""Mutation fuzzing of the command line (mutation-based fuzzing; Zeller et
al., *The Fuzzing Book*).

Seed documents come from `gen`, `reduce` and `solve`.  Each mutant changes
one to three lines of a seed: a field set to 0, -1, 2^53, nan, 1e400, x or 10^400,
or a line dropped, duplicated, truncated or swapped.  It then goes in
process through every `solve`, `reduce`, `render` and `verify` command that
reads its kind.  Every call must end within its alarm with an exit status
of 0 to 3, and no exception may escape `cli.main`.

Bond-board mutants also go through both of `instance_io`'s readers: the
bulk reader of serializer-form documents and the line reader.  They must
give equal values, or errors of the same type and message.
"""

import contextlib
import io
import random
import signal
import time

import pytest

from riftpuzzles import instance_io
from riftpuzzles.cli import main
from riftpuzzles.crystal_bonds import MODELS, apply_start_gadget, gen_random_tree_board, reduce_grid_to_dcb
from riftpuzzles.graphs import GridGraph
from riftpuzzles.instance_io import parse, serialize

FIELDS = ("0", "-1", str(2**53), "nan", "1e400", "x", str(10**400))
MUTANTS_PER_SEED = 30
CALL_SECONDS = 1.0


class CallTimedOut(Exception):
    pass


def _alarm(signum, frame):
    raise CallTimedOut


@pytest.fixture
def alarmed():
    previous = signal.signal(signal.SIGALRM, _alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def call(*argv):
    """`cli.main(argv)` under the alarm: its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue()


def mutate(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            fields = lines[i].split() or [""]
            fields[rng.randrange(len(fields))] = rng.choice(FIELDS)
            lines[i] = " ".join(fields)
        elif op == 1:
            del lines[i]
        elif op == 2:
            lines.insert(i, lines[i])
        elif op == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return "".join(line + "\n" for line in lines)


def seeds(write):
    """(document text, the command lines that read it, with DOC for its
    path), built from `gen`, `reduce` and `solve` outputs."""
    grid = call("gen", "grid-graph", "--box", "3x3", "--seed", "4")[1]
    small = call("gen", "grid-graph", "--box", "2x2", "--seed", "1")[1]
    digraph = call("gen", "digraph", "--max-v", "4", "--seed", "1")[1]
    bonds = call("gen", "bond-board", "--box", "4x4", "--max-v", "3", "--seed", "2")[1]
    clock = call("gen", "solvable-clock", "--max-v", "5", "--seed", "3")[1]
    tile = call("reduce", "tile", write(grid))[1]
    # the bond-board part of `reduce dcb`, after its threshold lines
    gadget = "model" + call("reduce", "dcb", "--gadget", write(small))[1].split("model", 1)[1]
    cert = call("reduce", "clock", write(digraph))[1]
    path = call("solve", "tile", write(tile))[1]
    walk = call("solve", "dcb", write(bonds))[1]
    moves = call("solve", "clock", write(clock))[1]
    grid_verbs = [
        ("reduce", "tile", "DOC"), ("reduce", "dcb", "DOC"), ("reduce", "dcb", "--gadget", "DOC"),
        ("render", "grid-graph", "DOC"),
    ]
    bond_verbs = [
        ("solve", "dcb", "DOC"), ("solve", "dcb", "--threshold", "9", "DOC"), ("render", "bond-board", "DOC"),
        ("verify", "dcb", "DOC", write(walk)),
    ]
    return [
        (grid, grid_verbs),
        (small, grid_verbs),
        (digraph, [("reduce", "clock", "DOC"), ("render", "digraph", "DOC")]),
        (bonds, bond_verbs),
        (gadget, bond_verbs),
        (clock, [("solve", "clock", "DOC"), ("render", "clock", "DOC"), ("verify", "clock", "DOC", write(moves))]),
        (tile, [("solve", "tile", "DOC"), ("render", "tile-board", "DOC"), ("verify", "tile", "DOC", write(path))]),
        (cert, [("verify", "cert", "DOC")]),
        (path, [("verify", "tile", write(tile), "DOC")]),
        (walk, [("verify", "dcb", write(bonds), "DOC")]),
        (moves, [("verify", "clock", write(clock), "DOC")]),
    ]


def writer(tmp_path):
    names = iter(range(10**6))

    def write(text):
        path = tmp_path / f"{next(names)}.doc"
        path.write_text(text)
        return str(path)

    return write


def test_mutated_documents_exit_0_to_3(tmp_path, alarmed):
    write = writer(tmp_path)
    began = time.perf_counter()
    rng = random.Random(7)
    calls = 0
    for text, verbs in seeds(write):
        assert text
        for _ in range(MUTANTS_PER_SEED):
            mutant = write(mutate(text, rng))
            for argv in verbs:
                assert call(*(mutant if arg == "DOC" else arg for arg in argv))[0] in (0, 1, 2, 3), argv
                calls += 1
    assert calls == MUTANTS_PER_SEED * 28
    assert time.perf_counter() - began < 2.0


def test_vast_indices_in_small_documents_answer_at_once(tmp_path, alarmed):
    # found by mutation: a digraph of 2^53 vertices used to build a list per
    # vertex, and a certificate label 2^53 a 2^53-digit repunit
    write = writer(tmp_path)
    digraph = write("9007199254740992\n0 1\n1 0\n")
    cert = write("vertices 2\narc 0 1\narc 1 0\ncircumference 11\nnode 0 1\nnode 1 1\n"
                 "label 9007199254740992 0 0\nlabel 1 0 1\n")
    assert call("render", "digraph", digraph) == (0, "0 -> 1\n1 -> 0\n", "")
    outdegree = "invalid input: every vertex needs outdegree 1 or 2\n"
    assert call("reduce", "clock", digraph) == (3, "", outdegree)
    assert call("verify", "cert", cert) == (3, "", "input error: line 8: label (0,0) missing\n")


def outcome(text):
    """`parse("bond-board", text)`: its value, or its error's type and message."""
    try:
        return parse("bond-board", text)
    except Exception as exc:
        return type(exc), str(exc)


def test_bulk_and_line_readers_agree_on_mutants(monkeypatch):
    graph = GridGraph(frozenset({(0, 0), (1, 0), (1, 1), (0, 1), (2, 1)}))
    board, _ = reduce_grid_to_dcb(graph)
    boards = [board, apply_start_gadget(board, graph)[0]]  # start free, start -1 0
    boards += [gen_random_tree_board(seed, 6, 6, 2 + seed, model) for seed in range(6) for model in MODELS]
    rng = random.Random(11)
    docs = [serialize(b) for b in boards]
    texts = docs + [mutate(doc, rng) for doc in docs for _ in range(150)]
    bulk = sum(instance_io._bulk_bond_board(text) is not None for text in texts)
    assert len(docs) < bulk < len(texts)  # both readers are exercised
    got = [outcome(text) for text in texts]
    monkeypatch.setattr(instance_io, "_bulk_bond_board", lambda text: None)
    instance_io._parse_bond_board.cache_clear()  # no text is answered from the memo
    for text, value in zip(texts, got):
        assert outcome(text) == value, text
