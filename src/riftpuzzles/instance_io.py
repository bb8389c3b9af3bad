"""Line-oriented text formats for every instance and solution type.

serialize() is byte-deterministic and parse(kind, text) returns an equal
value, validating all type invariants on the way in.  Formats are plain
UTF-8 with LF endings so reduction fixtures stay diffable.

Grammars (one value per document):

grid-graph      `x y` per vertex, sorted.
digraph         first line vertex count, then `src dst` per arc in order.
tile-board      optional `offset X Y` naming the bottom-left corner when it
                is not (0,0); then one row per line, top row first, using
                `#` void, `.` tile, `2` twice-steppable tile, `*` crystal,
                `@` twice-steppable crystal, `S` start, `F` finish.
tile-path       `x y` per step in order.
bond-board      `model grid|euclid`; `start X Y` (tile) or `start free`;
                `tile x y` sorted; `crystal x y` in index order;
                `bond i j` per required bond in order.
bond-walk       `length <repr float>`, then `visit i` per crystal index.
clock           first line the circumference, then `position value` per
                occupied node, sorted.  Dense input may instead start with
                `dense n` followed by n value lines in clock order.
clock-solution  `position cw|ccw` per move in order.
certificate     `vertices v`; `arc s t` per source arc; `circumference N`;
                `node position value` per occupied node; `label j t position`
                sorted; optional `verdict digraph yes|no` and
                `verdict clock yes|no`.
"""

from __future__ import annotations

from .crystal_bonds import BondBoard, BondWalk
from .geometry import TileRegion, tile_center, tile_of
from .graphs import Digraph, GridGraph
from .hands_of_time import ClockInstance, ClockSolution, ReductionCertificate
from .tile_trial import TileBoard, TilePath

KINDS = (
    "grid-graph",
    "digraph",
    "tile-board",
    "tile-path",
    "bond-board",
    "bond-walk",
    "clock",
    "clock-solution",
    "certificate",
)


class ParseError(ValueError):
    """Malformed document text; the message carries a 1-based line number."""


def _fail(lineno: int, message: str):
    raise ParseError(f"line {lineno}: {message}")


def _ints(lineno: int, line: str, count: int) -> list[int]:
    parts = line.split()
    if len(parts) != count:
        _fail(lineno, f"expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError:
        _fail(lineno, f"expected integers, got {line!r}")


def _lines(text: str) -> list[tuple[int, str]]:
    """Nonempty lines with their 1-based numbers."""
    out = []
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            out.append((i, line))
    return out


def _invariant(lineno: int, build):
    """Run a constructor, converting its complaint into a located error."""
    try:
        return build()
    except ParseError:
        raise
    except ValueError as exc:
        _fail(lineno, str(exc))


# grid-graph


def _serialize_grid_graph(g: GridGraph) -> str:
    return "".join(f"{x} {y}\n" for x, y in g.sorted_vertices())


def _parse_grid_graph(text: str) -> GridGraph:
    vertices = []
    last = 1
    for lineno, line in _lines(text):
        x, y = _ints(lineno, line, 2)
        vertices.append((x, y))
        last = lineno
    return _invariant(last, lambda: GridGraph(frozenset(vertices)))


# digraph


def _serialize_digraph(d: Digraph) -> str:
    out = [f"{d.vertex_count}\n"]
    out.extend(f"{s} {t}\n" for s, t in d.arcs)
    return "".join(out)


def _parse_digraph(text: str) -> Digraph:
    rows = _lines(text)
    if not rows:
        _fail(1, "missing vertex count")
    (first_no, first), rest = rows[0], rows[1:]
    (v,) = _ints(first_no, first, 1)
    arcs = []
    for lineno, line in rest:
        s, t = _ints(lineno, line, 2)
        arcs.append((s, t))
    return _invariant(first_no, lambda: Digraph(v, tuple(arcs)))


# tile-board

_CELL_GLYPHS = {"#", ".", "2", "*", "@", "S", "F"}


def _serialize_tile_board(b: TileBoard) -> str:
    tiles = b.capacities
    xs = [x for x, _ in tiles]
    ys = [y for _, y in tiles]
    x0, y0 = min(xs), min(ys)
    out = []
    if (x0, y0) != (0, 0):
        out.append(f"offset {x0} {y0}\n")
    for y in range(max(ys), y0 - 1, -1):
        row = []
        for x in range(x0, max(xs) + 1):
            t = (x, y)
            if t not in tiles:
                row.append("#")
            elif t == b.start:
                row.append("S")
            elif t == b.finish:
                row.append("F")
            elif t in b.crystals:
                row.append("@" if tiles[t] == 2 else "*")
            else:
                row.append("2" if tiles[t] == 2 else ".")
        out.append("".join(row) + "\n")
    return "".join(out)


def _parse_tile_board(text: str) -> TileBoard:
    rows = _lines(text)
    x0, y0 = 0, 0
    if rows and rows[0][1].startswith("offset"):
        lineno, line = rows[0]
        parts = line.split()
        if len(parts) != 3:
            _fail(lineno, "offset needs two integers")
        _, ox, oy = parts
        try:
            x0, y0 = int(ox), int(oy)
        except ValueError:
            _fail(lineno, f"expected integers, got {line!r}")
        rows = rows[1:]
    if not rows:
        _fail(1, "board has no rows")
    caps: dict[tuple[int, int], int] = {}
    crystals = set()
    start = finish = None
    max_y = y0 + len(rows) - 1
    for r, (lineno, line) in enumerate(rows):
        y = max_y - r
        for c, ch in enumerate(line):
            if ch not in _CELL_GLYPHS:
                _fail(lineno, f"unknown cell {ch!r}")
            if ch == "#":
                continue
            t = (x0 + c, y)
            caps[t] = 2 if ch in "2@" else 1
            if ch in "*@":
                crystals.add(t)
            elif ch == "S":
                if start is not None:
                    _fail(lineno, "more than one start tile")
                start = t
            elif ch == "F":
                if finish is not None:
                    _fail(lineno, "more than one finish tile")
                finish = t
    last = rows[-1][0]
    if start is None:
        _fail(last, "board has no start tile")
    if finish is None:
        _fail(last, "board has no finish tile")
    return _invariant(last, lambda: TileBoard(caps, frozenset(crystals), start, finish))


# tile-path


def _serialize_tile_path(p: TilePath) -> str:
    return "".join(f"{x} {y}\n" for x, y in p.steps)


def _parse_tile_path(text: str) -> TilePath:
    steps = []
    last = 1
    for lineno, line in _lines(text):
        x, y = _ints(lineno, line, 2)
        steps.append((x, y))
        last = lineno
    return _invariant(last, lambda: TilePath(tuple(steps)))


# bond-board


def _serialize_bond_board(b: BondBoard) -> str:
    out = [f"model {b.distance_model}\n"]
    if b.start is None:
        out.append("start free\n")
    else:
        sx, sy = tile_of(b.start)
        out.append(f"start {sx} {sy}\n")
    out.extend(f"tile {x} {y}\n" for x, y in sorted(b.region.tiles))
    out.extend(f"crystal {x} {y}\n" for x, y in map(tile_of, b.crystals))
    out.extend(f"bond {i} {j}\n" for i, j in b.required_bonds)
    return "".join(out)


def _parse_bond_board(text: str) -> BondBoard:
    model = None
    start_tile = None
    start_free = False
    tiles = []
    crystals = []
    bonds = []
    last = 1
    for lineno, line in _lines(text):
        last = lineno
        key, _, rest = line.partition(" ")
        if key == "model":
            model = rest.strip()
        elif key == "start":
            if rest.strip() == "free":
                start_free = True
            else:
                x, y = _ints(lineno, rest, 2)
                start_tile = (x, y)
        elif key == "tile":
            x, y = _ints(lineno, rest, 2)
            tiles.append((x, y))
        elif key == "crystal":
            x, y = _ints(lineno, rest, 2)
            crystals.append((x, y))
        elif key == "bond":
            i, j = _ints(lineno, rest, 2)
            bonds.append((i, j))
        else:
            _fail(lineno, f"unknown keyword {key!r}")
    if model is None:
        _fail(last, "missing model line")
    if not start_free and start_tile is None:
        _fail(last, "missing start line")
    start = None if start_free else tile_center(start_tile)
    return _invariant(
        last,
        lambda: BondBoard(
            TileRegion(frozenset(tiles)),
            tuple(tile_center(t) for t in crystals),
            start,
            tuple(bonds),
            model,
        ),
    )


# bond-walk


def _serialize_bond_walk(w: BondWalk) -> str:
    out = [f"length {w.total_length!r}\n"]
    out.extend(f"visit {i}\n" for i in w.visit_sequence)
    return "".join(out)


def _parse_bond_walk(text: str) -> BondWalk:
    rows = _lines(text)
    if not rows or not rows[0][1].startswith("length "):
        _fail(1, "missing length line")
    lineno, line = rows[0]
    try:
        length = float(line.split(None, 1)[1])
    except (IndexError, ValueError):
        _fail(lineno, f"bad length in {line!r}")
    visits = []
    for lineno, line in rows[1:]:
        key, _, rest = line.partition(" ")
        if key != "visit":
            _fail(lineno, f"unknown keyword {key!r}")
        (i,) = _ints(lineno, rest, 1)
        visits.append(i)
    return _invariant(rows[0][0], lambda: BondWalk(tuple(visits), length))


# clock


def _serialize_clock(c: ClockInstance) -> str:
    out = [f"{c.circumference}\n"]
    out.extend(f"{p} {m}\n" for p, m in c.occupied)
    return "".join(out)


def _parse_clock(text: str) -> ClockInstance:
    rows = _lines(text)
    if not rows:
        _fail(1, "missing circumference")
    first_no, first = rows[0]
    if first.startswith("dense"):
        parts = first.split()
        if len(parts) != 2:
            _fail(first_no, "dense header needs a count")
        try:
            n = int(parts[1])
        except ValueError:
            _fail(first_no, f"expected integer count, got {parts[1]!r}")
        values = []
        for lineno, line in rows[1:]:
            (m,) = _ints(lineno, line, 1)
            if m < 1:
                _fail(lineno, f"value must be >= 1, got {m}")
            values.append(m)
        if len(values) != n:
            _fail(rows[-1][0], f"dense clock needs {n} values, got {len(values)}")
        return _invariant(first_no, lambda: ClockInstance.dense(values))
    try:
        n = int(first)
    except ValueError:
        _fail(first_no, f"expected integer circumference, got {first!r}")
    pairs = []
    for lineno, line in rows[1:]:
        p, m = _ints(lineno, line, 2)
        if m < 1:
            _fail(lineno, f"value must be >= 1, got {m}")
        pairs.append((p, m))
    return _invariant(first_no, lambda: ClockInstance(n, tuple(pairs)))


# clock-solution


def _serialize_clock_solution(s: ClockSolution) -> str:
    return "".join(f"{p} {d}\n" for p, d in s.moves)


def _parse_clock_solution(text: str) -> ClockSolution:
    moves = []
    for lineno, line in _lines(text):
        parts = line.split()
        if len(parts) != 2:
            _fail(lineno, f"expected `position direction`, got {line!r}")
        pos, direction = parts
        try:
            p = int(pos)
        except ValueError:
            _fail(lineno, f"expected integer position, got {pos!r}")
        if direction not in ("cw", "ccw"):
            _fail(lineno, f"direction must be cw or ccw, got {direction!r}")
        moves.append((p, direction))
    return ClockSolution(tuple(moves))


# certificate


def _serialize_certificate(c: ReductionCertificate) -> str:
    out = [f"vertices {c.source.vertex_count}\n"]
    out.extend(f"arc {s} {t}\n" for s, t in c.source.arcs)
    out.append(f"circumference {c.instance.circumference}\n")
    out.extend(f"node {p} {m}\n" for p, m in c.instance.occupied)
    out.extend(f"label {j} {t} {p}\n" for (j, t), p in c.labels)
    for name, verdict in (("digraph", c.digraph_verdict), ("clock", c.clock_verdict)):
        if verdict is not None:
            out.append(f"verdict {name} {'yes' if verdict else 'no'}\n")
    return "".join(out)


def _parse_certificate(text: str) -> ReductionCertificate:
    vertices = None
    circumference = None
    arcs = []
    nodes = []
    labels = []
    verdicts: dict[str, bool] = {}
    last = 1
    for lineno, line in _lines(text):
        last = lineno
        key, _, rest = line.partition(" ")
        if key == "vertices":
            (vertices,) = _ints(lineno, rest, 1)
        elif key == "arc":
            s, t = _ints(lineno, rest, 2)
            arcs.append((s, t))
        elif key == "circumference":
            (circumference,) = _ints(lineno, rest, 1)
        elif key == "node":
            p, m = _ints(lineno, rest, 2)
            if m < 1:
                _fail(lineno, f"value must be >= 1, got {m}")
            nodes.append((p, m))
        elif key == "label":
            j, t, p = _ints(lineno, rest, 3)
            labels.append(((j, t), p))
        elif key == "verdict":
            parts = rest.split()
            if len(parts) != 2 or parts[0] not in ("digraph", "clock") or parts[1] not in ("yes", "no"):
                _fail(lineno, f"bad verdict line {line!r}")
            verdicts[parts[0]] = parts[1] == "yes"
        else:
            _fail(lineno, f"unknown keyword {key!r}")
    if vertices is None:
        _fail(last, "missing vertices line")
    if circumference is None:
        _fail(last, "missing circumference line")
    return _invariant(
        last,
        lambda: ReductionCertificate(
            Digraph(vertices, tuple(arcs)),
            ClockInstance(circumference, tuple(nodes)),
            tuple(labels),
            verdicts.get("digraph"),
            verdicts.get("clock"),
        ),
    )


_SERIALIZERS = {
    GridGraph: ("grid-graph", _serialize_grid_graph),
    Digraph: ("digraph", _serialize_digraph),
    TileBoard: ("tile-board", _serialize_tile_board),
    TilePath: ("tile-path", _serialize_tile_path),
    BondBoard: ("bond-board", _serialize_bond_board),
    BondWalk: ("bond-walk", _serialize_bond_walk),
    ClockInstance: ("clock", _serialize_clock),
    ClockSolution: ("clock-solution", _serialize_clock_solution),
    ReductionCertificate: ("certificate", _serialize_certificate),
}

_PARSERS = {
    "grid-graph": _parse_grid_graph,
    "digraph": _parse_digraph,
    "tile-board": _parse_tile_board,
    "tile-path": _parse_tile_path,
    "bond-board": _parse_bond_board,
    "bond-walk": _parse_bond_walk,
    "clock": _parse_clock,
    "clock-solution": _parse_clock_solution,
    "certificate": _parse_certificate,
}


def kind_of(x) -> str:
    """Document kind tag for a value, by exact type."""
    entry = _SERIALIZERS.get(type(x))
    if entry is None:
        raise TypeError(f"no document format for {type(x).__name__}")
    return entry[0]


def serialize(x) -> str:
    entry = _SERIALIZERS.get(type(x))
    if entry is None:
        raise TypeError(f"no document format for {type(x).__name__}")
    return entry[1](x)


def parse(kind: str, text: str):
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ParseError(f"unknown document kind {kind!r}")
    return parser(text)
