"""JSON documents for tile systems and compiled simulators.

Both document kinds serialize canonically: keys sorted, two-space
indent, integers only, one trailing newline.  Serializing the same
object twice yields identical bytes, so documents and reports diff
cleanly.  Validation errors name the offending field by path.

System documents go through json.dumps.  Compiled documents are
rendered directly from the compiler output, because with an indent
json.dumps runs its pure-Python encoder; tests/test_serialize.py pins
that text to json.dumps of compiled_document byte for byte.  The text
comes in chunks (compiled_chunks), so compile writes it without holding
it whole, and verify compares a file with it byte for byte before it
falls back on comparing JSON values.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape

from .errors import DanglingTileId, EmptyAssembly, NegativeStrength, SchemaError
from .model import INFINITE, TAS, Glue, Supertile, TileSet, TileType

SIDES = ("north", "east", "south", "west")


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fail(path, message):
    raise SchemaError(f"{path}: {message}")


def _require(obj, path, keys, optional=()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            _fail(path, f"missing field {key!r}")
    for key in obj:
        if key not in keys and key not in optional:
            _fail(path, f"unknown field {key!r}")


def _int(value, path):
    if not isinstance(value, int) or isinstance(value, bool):
        _fail(path, f"expected an integer, got {value!r}")
    return value


class _Memo(dict):
    """A dict that builds each missing value from its key on first lookup,
    so a hit costs one C-level subscript."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _glue_obj(g: Glue) -> dict:
    return {"label": g.label, "strength": g.strength}


def _tile_obj(t: TileType, glue_objs: _Memo) -> dict:
    """A tile's document object; glue_objs is a _Memo(_glue_obj)."""
    tid, north, east, south, west = t
    return {"id": tid, "north": glue_objs[north], "east": glue_objs[east],
            "south": glue_objs[south], "west": glue_objs[west]}


def _parse_glue(obj, path) -> Glue:
    _require(obj, path, ("label", "strength"))
    label = obj["label"]
    if not isinstance(label, str):
        _fail(f"{path}.label", f"expected a string, got {label!r}")
    strength = _int(obj["strength"], f"{path}.strength")
    if strength < 0:
        raise NegativeStrength(
            f"{path}.strength: strength {strength} < 0 on glue {label!r}")
    try:
        return Glue(label, strength)
    except ValueError as e:
        _fail(path, str(e))


def tas_document(tas: TAS) -> dict:
    """The document form of a system; default states are left implicit."""
    glue_objs = _Memo(_glue_obj)
    doc = {
        "temperature": tas.tau,
        "tiles": [_tile_obj(t, glue_objs) for t in tas.tile_set],
    }
    # TAS has validated and merged the entries, so one singleton per tile,
    # each of infinite count, is exactly the default state
    if not (len(tas.initial_state) == len(tas.tile_set)
            and all(st.size == 1 and count == INFINITE
                    for st, count in tas.initial_state)):
        doc["initial_state"] = [_state_obj(st, count)
                                for st, count in tas.initial_state]
    return doc


def _state_obj(st: Supertile, count) -> dict:
    return {
        "count": "inf" if count == INFINITE else count,
        "placement": [{"x": x, "y": y, "tile": tid}
                      for (x, y), tid in sorted(st.cells.items())],
    }


def serialize_tas(tas: TAS) -> str:
    return _dumps(tas_document(tas))


def _parse_placement(entries, path, ts) -> Supertile:
    if not isinstance(entries, list):
        _fail(path, "expected a list of cells")
    cells = {}
    for j, cell in enumerate(entries):
        where = f"{path}[{j}]"
        _require(cell, where, ("x", "y", "tile"))
        x = _int(cell["x"], f"{where}.x")
        y = _int(cell["y"], f"{where}.y")
        tid = cell["tile"]
        if not isinstance(tid, str):
            _fail(f"{where}.tile", f"expected a tile id, got {tid!r}")
        if tid not in ts:
            raise DanglingTileId(
                f"{where}.tile: {tid!r} is not a declared tile id")
        if (x, y) in cells:
            _fail(where, f"duplicate cell ({x}, {y})")
        cells[(x, y)] = tid
    # n connected cells fit an n x n box; refuse a sparser placement,
    # never stable, before a Supertile builds rows as wide as its box
    xs, ys = {x for x, _ in cells}, {y for _, y in cells}
    if cells and max(max(xs) - min(xs), max(ys) - min(ys)) >= len(cells):
        _fail(path, f"{len(cells)} cells too far apart to connect: not stable")
    try:
        return Supertile(cells)
    except EmptyAssembly:
        _fail(path, "placement needs at least one tile")


def parse_tas(text: str) -> TAS:
    """Parse a system document; errors carry line or field context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"line {e.lineno} column {e.colno}: {e.msg}") from None
    _require(doc, "document", ("temperature", "tiles"),
             optional=("initial_state",))
    tau = _int(doc["temperature"], "temperature")
    if not isinstance(doc["tiles"], list) or not doc["tiles"]:
        _fail("tiles", "expected a non-empty list")
    tiles = []
    for i, obj in enumerate(doc["tiles"]):
        path = f"tiles[{i}]"
        _require(obj, path, ("id",), optional=SIDES)
        tid = obj["id"]
        if not isinstance(tid, str) or not tid:
            _fail(f"{path}.id", f"expected a non-empty string, got {tid!r}")
        glues = {side: _parse_glue(obj[side], f"{path}.{side}")
                 for side in SIDES if side in obj}
        tiles.append(TileType(tid, **glues))
    try:
        ts = TileSet(tiles)
    except ValueError as e:
        _fail("tiles", str(e))
    state = None
    if "initial_state" in doc:
        entries = doc["initial_state"]
        if not isinstance(entries, list):
            _fail("initial_state", "expected a list")
        state = []
        for i, obj in enumerate(entries):
            path = f"initial_state[{i}]"
            _require(obj, path, ("placement",), optional=("count",))
            raw = obj.get("count", "inf")
            if raw == "inf":
                count = INFINITE
            else:
                count = _int(raw, f"{path}.count")
                if count < 1:
                    _fail(f"{path}.count", f"expected a positive count, got {count}")
            st = _parse_placement(obj["placement"], f"{path}.placement", ts)
            state.append((st, count))
    try:
        return TAS(ts, tau, state)
    except ValueError as e:
        _fail("document", str(e))


def compiled_document(comp) -> dict:
    """The document form of a compiler output.

    Together with the source system document this is everything verify
    needs: the method tag lets verify rerun the deterministic compiler
    and cross-check this document against the fresh result, then reuse
    the fresh decoder.  The anchor table is included so the mapping
    from block anchors to source tiles is inspectable on its own; it is
    also the decoder's alignment key, since blocks are read at anchor
    cells.  Each distinct glue's object is built once and shared by
    every tile side that carries it, so the document is read-only.
    """
    glue_objs = _Memo(_glue_obj)
    return {
        "format": "twoham-compiled",
        "method": comp.variant,
        "temperature": comp.tau,
        "scale": comp.m,
        "universal_tiles": [_tile_obj(t, glue_objs)
                            for t in comp.universal_tiles],
        "input_supertiles": [_state_obj(st, count)
                             for st, count in comp.input_supertiles],
        "decoder": {
            "kind": "block-anchor",
            "anchors": [[uid, tid] for uid, tid
                        in sorted(comp.anchors.items())],
        },
    }


def _end(sep, pad) -> str:
    """The end of a JSON array whose items are rendered one indent level
    below pad; sep is still "[\\n" if no item was written."""
    return "[]" if sep == "[\n" else f"\n{pad}]"


def compiled_chunks(comp):
    """The text of compiled_document(comp), written without building it,
    as non-empty chunks: one per anchor, placement cell and universal
    tile, each led by the "[\\n" or ",\\n" before it, and a few joints.

    A compiled document runs to megabytes, and json.dumps with an indent
    encodes it in pure Python, so the text is put together here from
    fixed templates instead.  Joined, the chunks are byte-identical to
    _dumps(compiled_document(comp)): keys in sorted order, strings
    escaped by the C function json.dumps itself uses.  A caller that
    writes or compares them as they come never holds the whole text.
    The loops are written out flat, since each generator a chunk passes
    through costs more than its f-string.
    """
    yield '{\n  "decoder": {\n    "anchors": '
    sep = "[\n"
    for uid, tid in sorted(comp.anchors.items()):
        yield f'{sep}      [\n        {_escape(uid)},\n        {_escape(tid)}\n      ]'
        sep = ",\n"
    yield _end(sep, "    ")
    yield (',\n    "kind": "block-anchor"\n  },\n'
           '  "format": "twoham-compiled",\n  "input_supertiles": ')
    sep = "[\n"
    for st, count in comp.input_supertiles:
        count = '"inf"' if count == INFINITE else count
        yield f'{sep}    {{\n      "count": {count},\n      "placement": '
        cell_sep = "[\n"
        for (x, y), tid in sorted(st.cells.items()):
            yield (f'{cell_sep}        {{\n          "tile": {_escape(tid)},\n'
                   f'          "x": {x},\n          "y": {y}\n        }}')
            cell_sep = ",\n"
        yield _end(cell_sep, "      ") + "\n    }"
        sep = ",\n"
    yield _end(sep, "  ")
    yield (f',\n  "method": {_escape(comp.variant)},\n'
           f'  "scale": {comp.m},\n  "temperature": {comp.tau},\n'
           f'  "universal_tiles": ')
    glue = _Memo(lambda g: (f'{{\n        "label": {_escape(g.label)},\n'
                            f'        "strength": {g.strength}\n      }}'))
    sep = "[\n"
    for tid, north, east, south, west in comp.universal_tiles:
        yield (f'{sep}    {{\n      "east": {glue[east]},\n'
               f'      "id": {_escape(tid)},\n'
               f'      "north": {glue[north]},\n'
               f'      "south": {glue[south]},\n'
               f'      "west": {glue[west]}\n    }}')
        sep = ",\n"
    yield _end(sep, "  ") + "\n}\n"


def serialize_compiled(comp) -> str:
    """The text of compiled_document(comp); see compiled_chunks.

    Lemma: this text equals _dumps(compiled_document(comp)) byte for byte
    (pinned in tests/test_serialize.py), and json.loads of it gives back
    compiled_document(comp).  So a text equal to it has the same JSON
    value, and a byte comparison accepts only what the value comparison
    accepts; a copy in another layout still needs the latter.
    """
    return "".join(compiled_chunks(comp))


def parse_compiled(text: str) -> dict:
    """Shape-check a compiled document; verify recompiles to trust it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(
            f"line {e.lineno} column {e.colno}: {e.msg}") from None
    _require(doc, "document",
             ("format", "method", "temperature", "scale",
              "universal_tiles", "input_supertiles", "decoder"))
    if doc["format"] != "twoham-compiled":
        _fail("format", f"not a compiled-simulator document: {doc['format']!r}")
    _int(doc["temperature"], "temperature")
    _int(doc["scale"], "scale")
    if not isinstance(doc["method"], str):
        _fail("method", f"expected a string, got {doc['method']!r}")
    return doc
