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

Errors name a 1-based line, and the first malformed line wins.  A missing
required line is reported only after the whole document has been read, at
the last nonempty line (line 1 when there is none), and the value's own
invariants are checked last.  A repeated `model`, `start`, `vertices` or
`circumference` line, or a second `verdict` line of the same name, is an
error at the repeat.  A bond-walk length must be finite: a NaN would pass
the verifier's length check.

A bond board in the serializer's own form (`model`, `start`, then the
`tile`, `crystal` and `bond` blocks, LF endings, a final newline) is read in
bulk: each block's integers are converted by one `json.loads` call.  Any
other text is read line by line, the path that reports errors, and so is a
block that call refuses: a leading zero, or a field past the digit limit.
A process keeps the last bond board parsed, keyed on its exact text, so a
verify right after a solve reads the document once; a BondBoard is deeply
immutable, so its callers can share it.  Tile boards are not kept: a
TileBoard's capacities are a dict its callers could change.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

from .crystal_bonds import BondBoard, BondWalk
from .geometry import TileRegion, tile_center, tile_of
from .graphs import Digraph, GridGraph
from .hands_of_time import ClockInstance, ClockSolution, ReductionCertificate
from .tile_trial import TileBoard, TilePath


class ParseError(ValueError):
    """Malformed document text; the message carries a 1-based line number."""


def _fail(lineno: int, message: str):
    raise ParseError(f"line {lineno}: {message}")


def _ints(lineno: int, line: str, count: int) -> tuple[int, ...]:
    parts = line.split()
    if len(parts) != count:
        _fail(lineno, f"expected {count} fields, got {len(parts)}")
    try:
        return tuple(map(int, parts))
    except ValueError:
        _fail(lineno, f"expected integers, got {line!r}")


def _int(lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(lineno, f"expected integer {what}, got {text!r}")


def _clock_ints(lineno: int, line: str, count: int) -> tuple[int, ...]:
    """`_ints` whose last field is a clock value, which must be at least 1."""
    fields = _ints(lineno, line, count)
    if fields[-1] < 1:
        _fail(lineno, f"value must be >= 1, got {fields[-1]}")
    return fields


def _lines(text: str) -> list[tuple[int, str]]:
    """Nonempty lines with their 1-based numbers."""
    return [(i, line) for i, raw in enumerate(text.split("\n"), start=1) if (line := raw.strip())]


def _rows(rows: list[tuple[int, str]], count: int, read=_ints) -> list[tuple]:
    """Positional lines, each read by `read` as `count` fields, in order."""
    return [read(lineno, line, count) for lineno, line in rows]


def _serialize_pairs(pairs) -> str:
    """Positional `a b` lines, the inverse of `_rows(..., 2)`."""
    return "".join(f"{a} {b}\n" for a, b in pairs)


def _last_lineno(rows: list[tuple[int, str]]) -> int:
    """Where a missing line is reported: the last nonempty line, or 1."""
    return rows[-1][0] if rows else 1


def _keyed(rows, fields: dict, once: dict[str, int]) -> tuple[dict[str, list], int]:
    """Keyed lines `key rest`, their values listed per key in document order,
    and the number of the last line (1 when there is none).

    `rows` are nonempty (lineno, text) lines as `_lines` gives them.
    `fields` maps each key to (read, count), called as read(lineno, rest,
    count); any other key is an error.  `once` maps a key to the number of
    leading words that name what its line sets, and a line that sets a name
    again is an error at the repeat (after its own fields have been read).
    Nothing here decides which keys must appear, so a missing line is
    reported only after every line has been read.
    """
    values = {key: [] for key in fields}
    slots = {key: (read, count, values[key].append) for key, (read, count) in fields.items()}
    named = set()
    for lineno, line in rows:
        key, _, rest = line.partition(" ")
        slot = slots.get(key)
        if slot is None:
            _fail(lineno, f"unknown keyword {key!r}")
        read, count, add = slot
        value = read(lineno, rest, count)
        if key in once:
            name = " ".join(line.split()[: once[key]])
            if name in named:
                _fail(lineno, f"repeated {name} line")
            named.add(name)
        add(value)
    return values, _last_lineno(rows)


def _invariant(lineno: int, build):
    """Run a constructor, converting its complaint, or a coordinate past the
    float range (OverflowError), into a located error."""
    try:
        return build()
    except (ValueError, OverflowError) as exc:
        _fail(lineno, str(exc))


# grid-graph and tile-path: one `x y` point per line


def _parse_points(text: str, build):
    rows = _lines(text)
    points = _rows(rows, 2)
    return _invariant(_last_lineno(rows), lambda: build(points))


# digraph


def _serialize_digraph(d: Digraph) -> str:
    return f"{d.vertex_count}\n" + _serialize_pairs(d.arcs)


def _parse_digraph(text: str) -> Digraph:
    rows = _lines(text)
    if not rows:
        _fail(1, "missing vertex count")
    (v,) = _ints(*rows[0], 1)
    arcs = tuple(_rows(rows[1:], 2))
    return _invariant(rows[0][0], lambda: Digraph(v, arcs))


# tile-board

# glyph -> (capacity, crystal) of an unmarked tile; `#` is void, and the
# marked start and finish tiles have capacity 1
_GLYPHS = {".": (1, False), "2": (2, False), "*": (1, True), "@": (2, True)}
_GLYPH_OF = {cell: glyph for glyph, cell in _GLYPHS.items()}
_ENDS = {"S": "start", "F": "finish"}


def _picture(marks: dict, blank: str) -> str:
    """The bounding box of the tiles `marks` names, one line per row, top row
    first: each cell is its tile's mark, or `blank` for a tile with none.
    A box past (marks + 64)^2 cells, which no connected set of marks nears,
    is refused (ValueError): far-apart marks must not ask for a vast picture."""
    xs, ys = zip(*marks)
    columns = range(min(xs), max(xs) + 1)
    rows = range(max(ys), min(ys) - 1, -1)
    # by their ends: len() of a range past sys.maxsize raises OverflowError
    width, height = columns.stop - columns.start, rows.start - rows.stop
    if width * height > (len(marks) + 64) ** 2:
        raise ValueError(f"a {width}x{height} picture of {len(marks)} marks is too large to draw")
    return "".join("".join([marks.get((x, y), blank) for x in columns]) + "\n" for y in rows)


def _tile_rows(b: TileBoard) -> str:
    """A tile board's document without its offset line: its glyph rows."""
    glyph = {t: _GLYPH_OF[cap, t in b.crystals] for t, cap in b.capacities.items()}
    glyph.update({b.start: "S", b.finish: "F"})
    return _picture(glyph, "#")


def _serialize_tile_board(b: TileBoard) -> str:
    x0, y0 = map(min, zip(*b.capacities))
    return ("" if (x0, y0) == (0, 0) else f"offset {x0} {y0}\n") + _tile_rows(b)


def _parse_tile_board(text: str) -> TileBoard:
    rows = _lines(text)
    last = _last_lineno(rows)
    x0, y0 = 0, 0
    if rows and rows[0][1].startswith("offset"):
        lineno, line = rows.pop(0)
        parts = line.split()
        if len(parts) != 3:
            _fail(lineno, "offset needs two integers")
        try:
            x0, y0 = int(parts[1]), int(parts[2])
        except ValueError:
            _fail(lineno, f"expected integers, got {line!r}")
    if not rows:
        _fail(last, "board has no rows")
    caps: dict[tuple[int, int], int] = {}
    crystals = set()
    ends: dict[str, tuple[int, int]] = {}
    max_y = y0 + len(rows) - 1
    for r, (lineno, line) in enumerate(rows):
        y = max_y - r
        for c, ch in enumerate(line):
            if ch == "#":
                continue
            t = (x0 + c, y)
            if ch in _GLYPHS:
                caps[t], crystal = _GLYPHS[ch]
                if crystal:
                    crystals.add(t)
            elif ch in _ENDS:
                if ch in ends:
                    _fail(lineno, f"more than one {_ENDS[ch]} tile")
                ends[ch] = t
                caps[t] = 1
            else:
                _fail(lineno, f"unknown cell {ch!r}")
    for ch, name in _ENDS.items():
        if ch not in ends:
            _fail(last, f"board has no {name} tile")
    return _invariant(last, lambda: TileBoard(caps, frozenset(crystals), ends["S"], ends["F"]))


# bond-board


def _serialize_bond_board(b: BondBoard) -> str:
    start = "free" if b.start is None else "{} {}".format(*tile_of(b.start))
    out = [f"model {b.distance_model}\nstart {start}\n"]
    out.extend(f"tile {x} {y}\n" for x, y in sorted(b.region.tiles))
    out.extend(f"crystal {x} {y}\n" for x, y in map(tile_of, b.crystals))
    out.extend(f"bond {i} {j}\n" for i, j in b.required_bonds)
    return "".join(out)


_BOND_BOARD_LINES = {
    "model": (lambda n, rest, k: rest.strip(), 1),
    # None stands for `start free`
    "start": (lambda n, rest, k: None if rest.strip() == "free" else _ints(n, rest, k), 2),
    "tile": (_ints, 2),
    "crystal": (_ints, 2),
    "bond": (_ints, 2),
}

# the serializer's head, and a line out of form in a block of `key` lines
_BOND_HEAD = re.compile(r"model (grid|euclid)\nstart (?:free|(-?[0-9]+) (-?[0-9]+))\n")
_OUT_OF_FORM = {key: re.compile(rf"\n(?!{key} -?[0-9]+ -?[0-9]+\n|\Z)") for key in ("tile", "crystal", "bond")}


def _bulk_bond_board(text: str) -> tuple[dict[str, list], int] | None:
    """`_keyed`'s result for a document in the serializer's form, or None."""
    head = _BOND_HEAD.match(text)
    if head is None:
        return None
    cuts = [head.end(), text.find("\ncrystal ", head.end() - 1) + 1]
    cuts += [text.find("\nbond ", cuts[1] - 1) + 1, len(text)]
    if 0 in cuts:  # no crystal or no bond line
        return None
    try:  # json refuses a leading zero, and both readers a field past the digit limit
        got = {"model": [head[1]], "start": [None if head[2] is None else (int(head[2]), int(head[3]))]}
        for key, lo, hi in zip(_OUT_OF_FORM, cuts, cuts[1:]):
            if _OUT_OF_FORM[key].search(text, lo - 1, hi):  # from the newline before the block
                return None
            # each line is `key a b\n`, so the block's fields read as one JSON list
            csv = text[lo:hi].replace(key + " ", "").replace(" ", ",").replace("\n", ",")
            fields = iter(json.loads(f"[{csv[:-1]}]"))
            got[key] = list(zip(fields, fields))
    except ValueError:
        return None
    return got, text.count("\n")


@lru_cache(maxsize=1)  # a verify right after a solve reads the same text
def _parse_bond_board(text: str) -> BondBoard:
    got, last = _bulk_bond_board(text) or _keyed(_lines(text), _BOND_BOARD_LINES, {"model": 1, "start": 1})
    if not got["model"]:
        _fail(last, "missing model line")
    if not got["start"]:
        _fail(last, "missing start line")
    (start,) = got["start"]
    return _invariant(
        last,
        lambda: BondBoard(
            TileRegion(frozenset(got["tile"])),
            tuple(map(tile_center, got["crystal"])),
            None if start is None else tile_center(start),
            tuple(got["bond"]),
            got["model"][0],
        ),
    )


# bond-walk


def _serialize_bond_walk(w: BondWalk) -> str:
    out = [f"length {w.total_length!r}\n"]
    out.extend(f"visit {i}\n" for i in w.visit_sequence)
    return "".join(out)


def _parse_bond_walk(text: str) -> BondWalk:
    rows = _lines(text)
    has_length = bool(rows) and rows[0][1].partition(" ")[0] == "length"
    if has_length:
        lineno, line = rows[0]
        try:
            length = float(line.split(None, 1)[1])
        except (IndexError, ValueError):
            _fail(lineno, f"bad length in {line!r}")
    visits = tuple(i for (i,) in _keyed(rows[has_length:], {"visit": (_ints, 1)}, {})[0]["visit"])
    if not has_length:
        _fail(_last_lineno(rows), "missing length line")
    return _invariant(lineno, lambda: BondWalk(visits, length))


# clock


def _serialize_clock(c: ClockInstance) -> str:
    return f"{c.circumference}\n" + _serialize_pairs(c.occupied)


def _parse_clock(text: str) -> ClockInstance:
    rows = _lines(text)
    if not rows:
        _fail(1, "missing circumference")
    first_no, first = rows[0]
    if first.startswith("dense"):
        parts = first.split()
        if len(parts) != 2:
            _fail(first_no, "dense header needs a count")
        n = _int(first_no, parts[1], "count")
        values = [m for (m,) in _rows(rows[1:], 1, _clock_ints)]
        if len(values) != n:
            _fail(rows[-1][0], f"dense clock needs {n} values, got {len(values)}")
        return _invariant(first_no, lambda: ClockInstance.dense(values))
    n = _int(first_no, first, "circumference")
    pairs = tuple(_rows(rows[1:], 2, _clock_ints))
    return _invariant(first_no, lambda: ClockInstance(n, pairs))


# clock-solution


def _read_move(lineno: int, line: str, count: int) -> tuple[int, str]:
    parts = line.split()
    if len(parts) != count:
        _fail(lineno, f"expected `position direction`, got {line!r}")
    position = _int(lineno, parts[0], "position")
    if parts[1] not in ("cw", "ccw"):
        _fail(lineno, f"direction must be cw or ccw, got {parts[1]!r}")
    return position, parts[1]


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


def _read_verdict(lineno: int, rest: str, count: int) -> tuple[str, bool]:
    parts = rest.split()
    if len(parts) != count or parts[0] not in ("digraph", "clock") or parts[1] not in ("yes", "no"):
        # the stripped line was `verdict`, or `verdict ` and then `rest`
        _fail(lineno, f"bad verdict line {('verdict ' + rest).rstrip()!r}")
    return parts[0], parts[1] == "yes"


_CERTIFICATE_LINES = {
    "vertices": (_ints, 1),
    "arc": (_ints, 2),
    "circumference": (_ints, 1),
    "node": (_clock_ints, 2),
    "label": (_ints, 3),
    "verdict": (_read_verdict, 2),
}


def _parse_certificate(text: str) -> ReductionCertificate:
    got, last = _keyed(
        _lines(text), _CERTIFICATE_LINES, {"vertices": 1, "circumference": 1, "verdict": 2}
    )
    if not got["vertices"]:
        _fail(last, "missing vertices line")
    if not got["circumference"]:
        _fail(last, "missing circumference line")
    verdicts = dict(got["verdict"])
    return _invariant(
        last,
        lambda: ReductionCertificate(
            Digraph(got["vertices"][0][0], tuple(got["arc"])),
            ClockInstance(got["circumference"][0][0], tuple(got["node"])),
            tuple(((j, t), p) for j, t, p in got["label"]),
            verdicts.get("digraph"),
            verdicts.get("clock"),
        ),
    )


# kind -> (value type, serializer, parser)
_FORMATS = {
    "grid-graph": (
        GridGraph,
        lambda g: _serialize_pairs(g.sorted_vertices()),
        lambda text: _parse_points(text, lambda points: GridGraph(frozenset(points))),
    ),
    "digraph": (Digraph, _serialize_digraph, _parse_digraph),
    "tile-board": (TileBoard, _serialize_tile_board, _parse_tile_board),
    "tile-path": (
        TilePath,
        lambda p: _serialize_pairs(p.steps),
        lambda text: _parse_points(text, lambda points: TilePath(tuple(points))),
    ),
    "bond-board": (BondBoard, _serialize_bond_board, _parse_bond_board),
    "bond-walk": (BondWalk, _serialize_bond_walk, _parse_bond_walk),
    "clock": (ClockInstance, _serialize_clock, _parse_clock),
    "clock-solution": (
        ClockSolution,
        lambda s: _serialize_pairs(s.moves),
        lambda text: ClockSolution(tuple(_rows(_lines(text), 2, _read_move))),
    ),
    "certificate": (ReductionCertificate, _serialize_certificate, _parse_certificate),
}

KINDS = tuple(_FORMATS)
_KIND_OF_TYPE = {value_type: kind for kind, (value_type, _, _) in _FORMATS.items()}


def kind_of(x) -> str:
    """Document kind tag for a value, by exact type."""
    kind = _KIND_OF_TYPE.get(type(x))
    if kind is None:
        raise TypeError(f"no document format for {type(x).__name__}")
    return kind


def serialize(x) -> str:
    return _FORMATS[kind_of(x)][1](x)


def parse(kind: str, text: str):
    entry = _FORMATS.get(kind)
    if entry is None:
        raise ParseError(f"unknown document kind {kind!r}")
    return entry[2](text)
