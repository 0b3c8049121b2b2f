"""Core objects of two-handed tile assembly.

A tile type is a unit square carrying one glue per side.  Two glues on
abutting faces interact only when their labels are equal, their strengths
are equal, and that strength is positive; everything else contributes
nothing and never blocks placement.  A supertile is the translation class
of a finite placement of tiles, and it is stable at temperature tau when
its binding graph is connected and no cut of the graph severs less than
tau worth of glue.  Two supertiles combine by translating one against the
other so that they touch without overlap and the union is stable.  For
two stable supertiles that is the same as a seam of strength at least
tau: a cut of the union either splits one of them, severing at least tau
inside it, or is exactly the seam.

A supertile is identified by a Karp-Rabin key over its normalized
cells, H = sum of w(tile) * X**x * Y**y mod a prime.  The key is
translation covariant, so a union's key follows from its parents' keys
in constant time.  Keying by hash(rows) would be less code, but it costs
O(box area) per union, and it made 4x4 weak1 simulator exploration 23 %
slower.  Equal keys only nominate an equal supertile: equality compares
packed rows, one int per row with a 32-bit code per cell, which are
equal exactly when the cells are.  A union packs its rows from its
parents' rows in O(height) big-int operations, and overlap tests read
rows too, so a union builds no cell dict, nor a SHA-1 fingerprint, until
one is read.  Open faces are one flat (direction, glue) table, which a
compiled piece declares (Supertile.declared), a parsed seed reads off
its rows, visiting open sides only, and a union derives from its
parents' faces and rows.  A union keeps its parents for good,
but they feed only its block offsets (representation.BlockReader), its
cells and its faces: blocks are read off its own rows (window).
"""

from __future__ import annotations

import hashlib
import math
import struct
from collections import namedtuple
from itertools import chain, compress
from operator import attrgetter

from . import mincut
from .errors import EmptyAssembly, NegativeStrength, UnknownTileId

NORTH, EAST, SOUTH, WEST = "N", "E", "S", "W"
DIRECTIONS = (NORTH, EAST, SOUTH, WEST)
OFFSET = {NORTH: (0, 1), EAST: (1, 0), SOUTH: (0, -1), WEST: (-1, 0)}
OPPOSITE = {NORTH: SOUTH, SOUTH: NORTH, EAST: WEST, WEST: EAST}

NULL_LABEL = ""
INFINITE = math.inf


_GLUE_FIELDS = namedtuple("Glue", ("label", "strength"))


class Glue(tuple):
    """A side marking: label plus non-negative integer strength.

    An immutable (label, strength) pair, so the hashing and equality of
    the glue-keyed face and pairing indexes run as tuple code in C.
    """

    __slots__ = ()
    label = _GLUE_FIELDS.label
    strength = _GLUE_FIELDS.strength

    def __new__(cls, label, strength):
        if not isinstance(strength, int) or isinstance(strength, bool):
            raise NegativeStrength(f"strength must be an integer, got {strength!r}")
        if strength < 0:
            raise NegativeStrength(f"strength {strength} < 0 on glue {label!r}")
        if label == NULL_LABEL and strength != 0:
            raise ValueError("the null label is reserved for strength-0 sides")
        return tuple.__new__(cls, (label, strength))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Glue(label={self.label!r}, strength={self.strength!r})"


NULL_GLUE = Glue(NULL_LABEL, 0)


def interaction(a: Glue, b: Glue) -> int:
    """Strength with which two abutting glues bind (0 for any mismatch)."""
    if a.strength > 0 and a.label == b.label and a.strength == b.strength:
        return a.strength
    return 0


_TILE_FIELDS = namedtuple("TileType", ("id", "north", "east", "south", "west"))
_SIDE = {NORTH: 1, EAST: 2, SOUTH: 3, WEST: 4}


class TileType(tuple):
    """A unit square: an id and one glue per side.

    An immutable (id, north, east, south, west) tuple, built the way Glue
    is, so its fields are C getters and the per-cell readers unpack it.
    """

    __slots__ = ()
    id = _TILE_FIELDS.id
    north = _TILE_FIELDS.north
    east = _TILE_FIELDS.east
    south = _TILE_FIELDS.south
    west = _TILE_FIELDS.west

    def __new__(cls, id, north=NULL_GLUE, east=NULL_GLUE, south=NULL_GLUE,
                west=NULL_GLUE):
        return tuple.__new__(cls, (id, north, east, south, west))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return (f"TileType(id={self.id!r}, north={self.north!r}, "
                f"east={self.east!r}, south={self.south!r}, west={self.west!r})")

    def glue(self, direction: str) -> Glue:
        return self[_SIDE[direction]]


class _TileTable(dict):
    """Tile id -> tile type; a lookup of an unknown id raises UnknownTileId,
    so readers subscript it cell by cell with no check of their own."""

    __slots__ = ()

    def __missing__(self, tile_id):
        raise UnknownTileId(f"no tile type with id {tile_id!r}")


class TileSet:
    """An ordered collection of tile types with unique ids.  The id table
    is filled in one pass; only when it is shorter than the tile list are
    the ids scanned again, to name the first duplicate.

    ``glues`` lists every distinct positive-strength glue in declaration
    order (tiles in order, sides north, east, south, west), which fixes a
    deterministic index for each glue.  It is built on first read, which
    the compilers make of a source tile set and nothing of a universal one.
    """

    __slots__ = ("tiles", "_by_id", "glues")

    def __init__(self, tiles):
        self.tiles = tiles = tuple(tiles)
        self._by_id = _TileTable(zip(map(attrgetter("id"), tiles), tiles))
        if len(self._by_id) != len(tiles):
            seen = set()
            for t in tiles:
                if t.id in seen:
                    raise ValueError(f"duplicate tile id {t.id!r}")
                seen.add(t.id)

    def __getattr__(self, name):
        # only reached while the glues slot is unset
        if name == "glues":
            sides = dict.fromkeys(chain.from_iterable(t[1:] for t in self.tiles))
            self.glues = glues = tuple(g for g in sides if g.strength > 0)
            return glues
        raise AttributeError(name)

    def tile(self, tile_id: str) -> TileType:
        return self._by_id[tile_id]

    def __len__(self):
        return len(self.tiles)

    def __iter__(self):
        return iter(self.tiles)

    def __contains__(self, tile_id):
        return tile_id in self._by_id


# Karp-Rabin key basis.  The modulus is the Mersenne prime 2**61 - 1,
# CPython's own hash modulus, so a key is its own hash.  The rows hold
# X**i and Y**j mod the modulus and grow on demand.
_KEY_MOD = (1 << 61) - 1
_KEY_X = 0x2545F4914F6CDD1D % _KEY_MOD
_KEY_Y = 0x1D8E4E27C47D124F % _KEY_MOD
_XP = [1]
_YP = [1]


def _power_rows(width: int, height: int):
    """The power rows, grown to at least width and height entries."""
    while len(_XP) < width:
        _XP.append(_XP[-1] * _KEY_X % _KEY_MOD)
    while len(_YP) < height:
        _YP.append(_YP[-1] * _KEY_Y % _KEY_MOD)
    return _XP, _YP


# Row codes.  A supertile's rows hold one int per row y with a 32-bit
# field per cell at bit 32 * x, the code of the cell's tile id in _CODES:
# id -> n | 1 << 31, n counting the ids interned before it, and _IDS[n]
# maps the code back.  Both tables are process-wide, never cleared, and
# grow by each distinct tile id seen.  packed_rows interns them, for a
# supertile's rows and for decode too: it packs a dict block into its
# window (rep.decode_block) and, when an anchored representation is
# built, the cells it checks of each piece.
# Row lemma: codes are nonzero and injective (for fewer than 2**31 ids)
# and cells are normalized, so equal row tuples hold exactly when the
# cells are equal, whatever the keys and tile sets; the same holds for
# the windows cut from rows (window), so a window is an exact memo key
# for its block; and the top bit of every occupied field makes the rows
# occupancy masks too.
_CODES = {}
_IDS = []


def packed_rows(cells: dict, height: int) -> tuple:
    """The height rows that hold cells, (x, y) -> tile id with x, y >= 0,
    interning each new id: a supertile's rows, and for a block inside
    the m x m square with height m, its window (window_block's
    inverse)."""
    rows = [0] * height
    codes = _CODES
    for (x, y), t in cells.items():
        code = codes.get(t)
        if code is None:
            code = codes[t] = len(codes) | 1 << 31
            _IDS.append(t)
        rows[y] |= code << (x << 5)
    return tuple(rows)


def window(st, x0: int, y0: int, m: int) -> tuple:
    """The m x m window of st whose lower-left cell is (x0, y0): rows y0
    to y0 + m - 1, each cut to its m fields from x0 on, with 0 for an
    empty row or one outside the box; x0 and y0 may be negative or run
    past the box.  By the row lemma, equal windows hold equal blocks,
    whatever the supertiles and their keys."""
    lo, hi = max(y0, 0), min(y0 + m, st.height)
    if lo >= hi:
        return (0,) * m
    cut = ((1 << (m << 5)) - 1).__and__
    band = st.rows[lo:hi]
    if x0 >= 0:
        band = map(cut, map((x0 << 5).__rrshift__, band))
    else:
        band = map(cut, map((-x0 << 5).__rlshift__, band))
    return (0,) * (lo - y0) + tuple(band) + (0,) * (y0 + m - hi)


def row_masks(cells, occupancy: bool = False) -> list:
    """(y, mask) for each window row y that cells touch, in order, the
    mask covering their fields there: win[y] & mask keeps those cells'
    codes, or, with occupancy, only their top bits, which equal the mask
    exactly when all of them are occupied (row lemma)."""
    bits = 1 << 31 if occupancy else 0xFFFFFFFF
    masks = {}
    for x, y in cells:
        masks[y] = masks.get(y, 0) | bits << (x << 5)
    return sorted(masks.items())


def window_id(win: tuple, x: int, y: int):
    """The tile id at the occupied cell (x, y) of win."""
    return _IDS[win[y] >> (x << 5) & 0x7FFFFFFF]


def window_block(win: tuple) -> dict:
    """The block a window holds: in-block (i, j) -> tile id.  Fields are
    read as little-endian 32-bit words, which is how they sit in the int
    whatever the host's byte order."""
    m = len(win)
    unpack, size, ids = struct.Struct(f"<{m}I").unpack, m << 2, _IDS
    block = {}
    for j, row in enumerate(win):
        if row:
            codes = unpack(row.to_bytes(size, "little"))
            for i in compress(range(m), codes):
                block[(i, j)] = ids[codes[i] & 0x7FFFFFFF]
    return block


def _fingerprint(cells) -> str:
    return hashlib.sha1(repr(sorted(cells.items())).encode()).hexdigest()


by_fingerprint = attrgetter("fingerprint")


class Supertile:
    """Canonical representative of a translation class of placements.

    The placement is shifted so both coordinate minima are 0.  ``key`` is
    the Karp-Rabin key of that shifted form and is the hash; equality
    compares ``rows`` (see the row lemma above), so two supertiles whose
    keys collide stay distinct.  ``fingerprint`` is the SHA-1 of the
    sorted cells, and it, a union's ``cells`` and the ``rows`` of a
    supertile built from cells are slots filled on first read, after
    which every read is a plain slot read.  Cells must be treated as
    read-only.

    ``parents`` is a union's construction record, ((a, ax, ay), (b, bx,
    by)): each parent with the shift that places it in the union, a
    first.  It is None for a supertile built from cells.

    ``rows`` hold codes from ``_CODES``, which with its inverse ``_IDS``
    is process-wide, never cleared, and grows by each distinct tile id
    seen (49,785 ids for one weak1 compilation of a 5x5 square, about
    135 bytes each, 8 of them the ``_IDS`` slot).
    """

    __slots__ = ("cells", "rows", "fingerprint", "key", "size", "width",
                 "height", "_faces_ts", "_faces", "parents")

    def __init__(self, cells: dict):
        if not cells:
            raise EmptyAssembly("a supertile needs at least one tile")
        xs = [x for x, _ in cells]
        ys = [y for _, y in cells]
        minx, miny = min(xs), min(ys)
        if minx or miny:
            cells = {(x - minx, y - miny): t for (x, y), t in cells.items()}
        else:
            cells = dict(cells)
        self.cells = cells
        self.size = len(cells)
        self.width = width = 1 + max(xs) - minx
        self.height = height = 1 + max(ys) - miny
        xp, yp = _power_rows(width, height)
        key = 0
        for (x, y), t in cells.items():
            key += hash(t) * xp[x] * yp[y]
        self.key = key % _KEY_MOD
        self._faces_ts = self._faces = self.parents = None

    @classmethod
    def declared(cls, cells: dict, faces: dict, ts: TileSet) -> Supertile:
        """Supertile(cells) whose faces(ts) is faces, in normalized
        coordinates, taken on trust: the caller proves it is the table
        _row_faces would read off the rows (the declared-faces lemma of
        compiled.py), so no row is read for it."""
        st = cls(cells)
        st._faces_ts, st._faces = ts, faces
        return st

    @classmethod
    def union(cls, a: Supertile, b: Supertile, offset, ts: TileSet):
        """The union of a and b with b translated by offset; no overlap.

        The box, the key (from the parents' keys) and the rows (a's rows
        shifted into place, then b's ORed in, exact as the parents are
        disjoint; a zero shift is skipped, as it still copies a big int)
        are computed here.  Cells, built on first read, keep the order of
        Supertile(merged dict): a's, then b's.  faces(ts) derives from the
        parents' faces, visiting their positive open faces where a row read
        visits every open side: 39 ms against 1.8 s for the 4,350 unions
        of a 4x4 weak1 simulator.  Reading the cells of a union whose
        parents are not built stores nothing on the unions under it (see
        _gathered), so a chain of any length reads its cells without
        recursion, in memory linear in its size; each union keeps only its
        rows, about 4 bytes per cell of its box.
        """
        ox, oy = offset
        ax = -ox if ox < 0 else 0
        ay = -oy if oy < 0 else 0
        bx, by = ox + ax, oy + ay
        st = cls.__new__(cls)
        st.size = a.size + b.size
        width, height = a.width + ax, a.height + ay
        if b.width + bx > width:
            width = b.width + bx
        if b.height + by > height:
            height = b.height + by
        st.width, st.height = width, height
        xp, yp = _XP, _YP
        if len(xp) < width or len(yp) < height:
            _power_rows(width, height)
        st.key = (a.key * xp[ax] * yp[ay] + b.key * xp[bx] * yp[by]) % _KEY_MOD
        shift, rows = ax << 5, [0] * ay
        rows += [r << shift for r in a.rows] if shift else a.rows
        rows += [0] * (height - len(rows))
        shift = bx << 5
        for y, row in enumerate(b.rows, by):
            rows[y] |= row << shift if shift else row
        st.rows = tuple(rows)
        st._faces_ts, st._faces, st.parents = ts, None, ((a, ax, ay), (b, bx, by))
        return st

    def __getattr__(self, name):
        # only reached while the cells, rows or fingerprint slot is unset
        if name == "cells":
            self.cells = cells = _gathered(self)
            return cells
        if name == "rows":
            self.rows = rows = packed_rows(self.cells, self.height)
            return rows
        if name == "fingerprint":
            self.fingerprint = fp = _fingerprint(self.cells)
            return fp
        raise AttributeError(name)

    @property
    def sort_key(self):
        return (self.size, self.fingerprint)

    def __eq__(self, other):
        if not isinstance(other, Supertile):
            return NotImplemented
        return self is other or (self.key == other.key
                                 and self.size == other.size
                                 and self.rows == other.rows)

    def __hash__(self):
        return self.key

    def __repr__(self):
        return f"<Supertile {self.size} tiles {self.fingerprint[:10]}>"

    def faces(self, ts: TileSet) -> dict:
        """Positive glues on open sides, one flat table: (direction, glue)
        -> sorted coordinates of the cells showing that glue there with no
        cell beyond.  A supertile declared under ts holds its table from
        the start, and a union built with ts whose parents both hold their
        faces derives its own from theirs; every other read, a supertile
        built from cells first of all, takes its rows (_row_faces).
        """
        if self._faces_ts is ts:
            if self._faces is not None:
                return self._faces
            (a, _, _), (b, _, _) = self.parents
            if a._faces is not None and b._faces is not None:
                self._faces = self._union_faces(ts)
                return self._faces
        self._faces_ts, self._faces = ts, _row_faces(self.rows, self.width, ts)
        return self._faces

    def _union_faces(self, ts: TileSet) -> dict:
        # a parent's open face stays open unless the top bit of the other's
        # field there is set; only a face both parents show is re-sorted
        (a, ax, ay), (b, bx, by) = self.parents
        faces = {}
        for pfaces, sx, sy, rows, qx, qy in ((a.faces(ts), ax, ay, b.rows, bx, by),
                                             (b.faces(ts), bx, by, a.rows, ax, ay)):
            h = len(rows)
            for dg, coords in pfaces.items():
                dx, dy = OFFSET[dg[0]]
                cx, cy = sx + dx - qx, sy + dy - qy
                kept = tuple([(x + sx, y + sy) for x, y in coords
                              if not 0 <= y + cy < h or x + cx < 0
                              or not rows[y + cy] >> ((x + cx) << 5 | 31) & 1])
                if kept:
                    shown = faces.get(dg)
                    faces[dg] = kept if shown is None else tuple(sorted(shown + kept))
        return faces


def _row_faces(rows: tuple, width: int, ts: TileSet) -> dict:
    """Supertile.faces off the rows.  o holds the top bits of row y, its
    occupancy, so o & ~rows[y + 1], o & ~(o >> 32), o & ~rows[y - 1] and
    o & ~(o << 32) are its cells open to the north, east, south and west.
    Only open sides are read, through _IDS and the tile table, so an
    unknown id with an open side raises UnknownTileId."""
    size = width << 2
    top = int.from_bytes(b"\0\0\0\x80" * width, "little")
    unpack = struct.Struct(f"<{width}I").unpack
    tiles, ids, pad = ts._by_id, _IDS, (0, *rows, 0)
    faces = {}
    for y, row in enumerate(rows):
        o = row & top
        codes = unpack(row.to_bytes(size, "little"))
        sides = (o & ~pad[y + 2], o & ~(o >> 32), o & ~pad[y], o & ~(o << 32))
        for d, side, m in zip(DIRECTIONS, (1, 2, 3, 4), sides):
            for x in compress(range(width), m.to_bytes(size, "little")[3::4]):
                g = tiles[ids[codes[x] & 0x7FFFFFFF]][side]
                if g.strength:
                    faces.setdefault((d, g), []).append((x, y))
    return {dg: tuple(sorted(coords)) for dg, coords in faces.items()}


_cells_slot = Supertile.cells.__get__


def _gathered(st) -> dict:
    """The cells of a union st, copied from the nearest built cells under
    it with their cumulative shifts, a's before b's, through an explicit
    stack: a long chain of unions built one Supertile.union at a time
    cannot exhaust recursion, and nothing is stored on the unions under
    st.  A parent shared down two paths is copied once per path, at each
    path's shift.  Only the cells slot says whether a supertile's cells
    are built: a union's faces come from its parents' faces and rows."""
    cells = {}
    stack = list(st.parents[::-1])
    while stack:
        u, sx, sy = stack.pop()
        try:
            built = _cells_slot(u)
        except AttributeError:
            (a, ax, ay), (b, bx, by) = u.parents
            stack += ((b, sx + bx, sy + by), (a, sx + ax, sy + ay))
            continue
        for (x, y), t in built.items():
            cells[(x + sx, y + sy)] = t
    return cells


def binding_graph(cells: dict, ts: TileSet) -> dict:
    """Weighted adjacency over occupied coordinates.

    An edge appears exactly where abutting glues interact; mismatched or
    zero-strength abutments yield no edge and never block anything.
    """
    tiles = ts._by_id
    adj = {v: {} for v in cells}
    for v, tid in cells.items():
        x, y = v
        _, n, e, _, _ = tiles[tid]
        # equal positive glues interact at their strength
        u = (x + 1, y)
        if e.strength > 0 and u in cells and tiles[cells[u]].west == e:
            adj[v][u] = adj[u][v] = e.strength
        u = (x, y + 1)
        if n.strength > 0 and u in cells and tiles[cells[u]].south == n:
            adj[v][u] = adj[u][v] = n.strength
    return adj


def is_tau_stable(cells: dict, ts: TileSet, tau: int) -> bool:
    """Connected binding graph whose every cut weighs at least tau.

    Singletons are stable for every tau; any larger assembly is the cut
    check over its binding graph, which merges the cells joined by edges
    of weight >= tau before it cuts anything.
    """
    if not cells:
        raise EmptyAssembly("stability of an empty assembly is undefined")
    if len(cells) == 1:
        return True
    return mincut.stability_cut_ok(binding_graph(cells, ts), tau)


def interface_strength(a: Supertile, b: Supertile, ts: TileSet, offset) -> int:
    """Total interaction strength across the seam when b sits at offset.

    b must not overlap a.  This is the model's definition of the seam,
    summed from cells alone over each side of b that abuts a cell of a:
    the oracle for SeamIndex.seams, which reads faces.  The library never
    calls it.
    """
    ox, oy = offset
    acells, tiles = a.cells, ts._by_id
    total = 0
    for (x, y), tid in b.cells.items():
        for d, (dx, dy) in OFFSET.items():
            atid = acells.get((x + ox + dx, y + oy + dy))
            if atid is not None:
                total += interaction(tiles[tid].glue(d), tiles[atid].glue(OPPOSITE[d]))
    return total


def _disjoint_at(a: Supertile, b: Supertile, ox: int, oy: int) -> bool:
    """No cell of b placed at (ox, oy) lands on a cell of a: over the
    shared rows, each pair of rows shifted into line ANDs to 0, since
    every occupied field has its top bit set."""
    y0 = max(0, oy)
    pairs = zip(a.rows[y0:], b.rows[y0 - oy:])
    if ox >= 0:
        shift = ox << 5
        for p, q in pairs:
            if p >> shift & q:
                return False
    else:
        shift = -ox << 5
        for p, q in pairs:
            if p & q >> shift:
                return False
    return True


class SeamIndex:
    """Supertiles in insertion order, and their flat face tables merged
    into one index under the tables' own (direction, glue) keys, then by
    size; seams() looks each face (d, g) up under (opposite(d), g).
    """

    __slots__ = ("ts", "members", "_faces")

    def __init__(self, ts: TileSet):
        self.ts = ts
        self.members = []
        self._faces = {}  # (direction, glue) -> size -> [(position, coords)]

    def add(self, st: Supertile):
        position = len(self.members)
        self.members.append(st)
        for dg, coords in st.faces(self.ts).items():
            self._faces.setdefault(dg, {}).setdefault(st.size, []).append(
                (position, coords))

    def seams(self, a: Supertile, room: int) -> dict:
        """Seam strength keyed by (position, ox, oy) of a against every
        member of at most room tiles placed at (ox, oy), summed in one
        pass over a's open faces against the index (see
        combination_offsets).  A placement no glue pair reaches is absent
        and has seam 0; an overlapping placement may appear and means
        nothing.
        """
        seam = {}
        get = seam.get
        index = self._faces
        for (d, g), coords in a.faces(self.ts).items():
            by_size = index.get((OPPOSITE[d], g))
            if by_size is None:
                continue
            s, (dx, dy) = g.strength, OFFSET[d]
            facing = [(x + dx, y + dy) for x, y in coords]
            for size, entries in by_size.items():
                if size > room:
                    continue
                for p, bcoords in entries:
                    for ax, ay in facing:
                        for bx, by in bcoords:
                            k = (p, ax - bx, ay - by)
                            seam[k] = get(k, 0) + s
        return seam

    def unions(self, a: Supertile, room: int, tau: int) -> list:
        """(member, offset, union) for every stable union of a with a
        member of at most room tiles placed at offset.

        Members come in insertion order and each member's offsets in
        sorted order.  Only a seam of at least tau gets the overlap test
        and a union.
        """
        out = []
        members = self.members
        seam = self.seams(a, room)
        for p, ox, oy in sorted(k for k, w in seam.items() if w >= tau):
            b = members[p]
            if _disjoint_at(a, b, ox, oy):
                out.append((b, (ox, oy), Supertile.union(a, b, (ox, oy), self.ts)))
        return out


def combination_offsets(a: Supertile, b: Supertile, ts: TileSet, tau: int):
    """Every placement of b against a that yields a stable union.

    Precondition: a and b are both tau-stable.  Returns (offset, child)
    pairs in sorted offset order.  Under the precondition the union is
    stable iff the seam weighs at least tau: a cut either splits a or b,
    severing at least tau inside it, or is exactly the seam.  So no cut
    check runs on the union.

    Seam lemma: with b at offset o and no overlap, the seam strength is
    the sum of g.strength over every pair of a face of a under (d, g) and
    a face of b under (opp(d), g) in their face tables that abuts at o.
    A table lists every positive open side, whether it was read off rows
    or derived.  A cell of a facing a cell of b is open in a, because b is
    there and a is not, and likewise for b; and abutting glues interact
    only when they are equal.  So the seam at every offset can be summed
    from the face pairs alone, an offset that no pair reaches has seam 0,
    and filtering on seam >= tau before testing for overlap keeps the
    same placements as the reverse order.  This is SeamIndex.unions with
    the single member b, the kernel explore runs against all its members.
    """
    seams = SeamIndex(ts)
    seams.add(b)
    return [(offset, child) for _, offset, child in seams.unions(a, b.size, tau)]


def combine(a: Supertile, b: Supertile, ts: TileSet, tau: int) -> list:
    """The combination set of a and b: deduplicated, in the sorted order
    of the first offset that yields each child.

    Both inputs must be tau-stable (see combination_offsets); every
    producible supertile is.  No fingerprint is computed.
    """
    return list(dict.fromkeys(
        c for _, c in combination_offsets(a, b, ts, tau)))


def _valid_count(c) -> bool:
    if c == INFINITE:
        return True
    return isinstance(c, int) and not isinstance(c, bool) and c > 0


class TAS:
    """A tile assembly system: tile set, initial state, temperature.

    The initial state is a multiset of stable supertiles with positive
    (possibly infinite) counts; by default it holds infinitely many copies
    of each singleton tile.  The constructor checks the tile ids of every
    initial supertile in cell order, so the first unknown id is the one
    reported, and then its tau-stability with is_tau_stable.  Only
    simulator_tas skips both, through _of_stable, for seeds the block
    lemma of compiled.py proves; every other caller, parse_tas included,
    is checked.

    ``initial_state`` merges equal supertiles, found by Supertile
    equality as explore finds them, and lists them by size, breaking a
    size tie by fingerprint: the (size, fingerprint) order.  Only a
    supertile that shares its size with another is hashed, so a seed of
    unique size costs no SHA-1.
    """

    __slots__ = ("tile_set", "tau", "initial_state")

    def __init__(self, tile_set: TileSet, tau: int, initial_state=None):
        self._merge(tile_set, tau, initial_state)
        known = tile_set._by_id.keys()
        for st, _ in self.initial_state:
            if not known >= set(st.cells.values()):
                for tid in st.cells.values():
                    tile_set.tile(tid)
            if not is_tau_stable(st.cells, tile_set, tau):
                raise ValueError(
                    f"initial supertile {st.fingerprint[:10]} is not {tau}-stable")

    @classmethod
    def _of_stable(cls, tile_set: TileSet, tau: int, initial_state) -> TAS:
        """A TAS over initial supertiles that the caller has proved
        tau-stable over ids of tile_set: merged and ordered as the
        constructor does, with neither the id check nor the stability
        check run."""
        tas = cls.__new__(cls)
        tas._merge(tile_set, tau, initial_state)
        return tas

    def _merge(self, tile_set, tau, initial_state):
        if not isinstance(tau, int) or isinstance(tau, bool) or tau < 1:
            raise ValueError(f"temperature must be a positive integer, got {tau!r}")
        self.tile_set = tile_set
        self.tau = tau
        if initial_state is None:
            initial_state = [(Supertile({(0, 0): t.id}), INFINITE) for t in tile_set]
        merged = {}
        for st, count in initial_state:
            if not isinstance(st, Supertile):
                st = Supertile(st)
            if not _valid_count(count):
                raise ValueError(f"count must be a positive integer or INFINITE, got {count!r}")
            c = merged.get(st)
            if c is not None:
                count = INFINITE if INFINITE in (c, count) else c + count
            merged[st] = count  # an equal key keeps the first supertile
        by_size = {}
        for pair in merged.items():
            by_size.setdefault(pair[0].size, []).append(pair)
        state = []
        for size in sorted(by_size):
            tied = by_size[size]
            if len(tied) > 1:  # only a size tie reads fingerprints
                tied.sort(key=lambda pair: pair[0].fingerprint)
            state += tied
        self.initial_state = tuple(state)
