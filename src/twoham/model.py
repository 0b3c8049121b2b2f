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
slower.  Equal keys only nominate an equal supertile: equality
compares packed rows, one int per row with a 32-bit code per cell, which
are equal exactly when the cells are.  A union packs its rows from its
parents' rows in O(height) big-int operations, and overlap tests and its
open faces read rows too, so a union builds no cell dict, nor a SHA-1
fingerprint, until one is read.  A union keeps its parents for good: the
block reader (representation.py) reads a union through its parents'
readings.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple
from itertools import chain
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
    """An ordered collection of tile types with unique ids.

    ``glues`` lists every distinct positive-strength glue in declaration
    order (tiles in order, sides north, east, south, west), which fixes a
    deterministic index for each glue.
    """

    __slots__ = ("tiles", "_by_id", "glues")

    def __init__(self, tiles):
        self.tiles = tiles = tuple(tiles)
        self._by_id = by_id = _TileTable()
        for t in tiles:
            if t.id in by_id:
                raise ValueError(f"duplicate tile id {t.id!r}")
            by_id[t.id] = t
        sides = dict.fromkeys(chain.from_iterable(t[1:] for t in tiles))
        self.glues = tuple(g for g in sides if g.strength > 0)

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
# id -> n | 1 << 31, n counting the ids interned before it.  The table is
# process-wide, never cleared, and grows with the number of distinct tile
# ids seen.  Row lemma: codes are nonzero and injective (for fewer than
# 2**31 ids) and cells are normalized, so equal row tuples hold exactly
# when the cells are equal, whatever the keys and tile sets; and the top
# bit of every occupied field makes the rows occupancy masks too.
_CODES = {}


def _packed(cells: dict, height: int) -> tuple:
    rows = [0] * height
    codes = _CODES
    for (x, y), t in cells.items():
        code = codes.get(t)
        if code is None:
            code = codes[t] = len(codes) | 1 << 31
        rows[y] |= code << (x << 5)
    return tuple(rows)


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

    ``rows`` hold codes from ``_CODES``, a process-wide table that is never
    cleared and grows by each distinct tile id seen (49,785 ids for one
    weak1 compilation of a 5x5 square, about 120 bytes each).
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
        self._seal(None, None)

    @classmethod
    def union(cls, a: Supertile, b: Supertile, offset, ts: TileSet):
        """The union of a and b with b translated by offset; no overlap.

        The box, the key (from the parents' keys) and the rows (each
        parent's rows shifted into place and ORed, which the parents'
        disjointness makes exact) are computed here.  Cells, built on
        first read, keep the order of Supertile(merged dict): a's, then
        b's.  faces(ts) is derived on first use from the parents' faces
        and rows when both parents hold their faces, which costs their
        open faces rather than every cell; that is what pays on the large
        supertiles of a compiled simulator.  Reading the cells of a union
        whose parents are not built stores nothing on the unions under it
        (see _gathered), so a chain of any length reads its cells without
        recursion, in memory linear in its size; each union keeps only its
        rows, about 4 bytes per cell of its box.
        """
        ox, oy = offset
        ax, ay = max(0, -ox), max(0, -oy)
        bx, by = ox + ax, oy + ay
        st = cls.__new__(cls)
        st.size = a.size + b.size
        st.width = width = max(a.width + ax, b.width + bx)
        st.height = height = max(a.height + ay, b.height + by)
        xp, yp = _power_rows(width, height)
        st.key = (a.key * xp[ax] * yp[ay] + b.key * xp[bx] * yp[by]) % _KEY_MOD
        parents = ((a, ax, ay), (b, bx, by))
        rows = [0] * height
        for p, sx, sy in parents:
            shift = sx << 5
            for y, row in enumerate(p.rows, sy):
                rows[y] |= row << shift
        st.rows = tuple(rows)
        st._seal(ts, parents)
        return st

    def _seal(self, faces_ts, parents):
        self._faces_ts = faces_ts
        self._faces = None
        self.parents = parents

    def __getattr__(self, name):
        # only reached while the cells, rows or fingerprint slot is unset
        if name == "cells":
            self.cells = cells = _gathered(self)
            return cells
        if name == "rows":
            self.rows = rows = _packed(self.cells, self.height)
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
        """Positive glues on open faces, per direction: glue -> coordinates.

        A union whose parents both hold their faces derives its own from
        theirs on the first call with the tile set it was built with;
        any other union, and any other TileSet object, gets a scan.
        """
        if self._faces_ts is ts:
            if self._faces is not None:
                return self._faces
            (a, _, _), (b, _, _) = self.parents
            if a._faces is not None and b._faces is not None:
                self._faces = self._union_faces(ts)
                return self._faces
        cells = self.cells
        faces = {NORTH: {}, EAST: {}, SOUTH: {}, WEST: {}}
        fn, fe, fs, fw = faces.values()
        tiles = ts._by_id
        for (x, y), tid in cells.items():
            _, n, e, s, w = tiles[tid]
            if n.strength > 0 and (x, y + 1) not in cells:
                fn.setdefault(n, []).append((x, y))
            if e.strength > 0 and (x + 1, y) not in cells:
                fe.setdefault(e, []).append((x, y))
            if s.strength > 0 and (x, y - 1) not in cells:
                fs.setdefault(s, []).append((x, y))
            if w.strength > 0 and (x - 1, y) not in cells:
                fw.setdefault(w, []).append((x, y))
        self._faces = {d: {g: tuple(sorted(cs)) for g, cs in by.items()}
                       for d, by in faces.items()}
        self._faces_ts = ts
        return self._faces

    def _union_faces(self, ts: TileSet) -> dict:
        # a parent's open face stays open unless the other parent covers
        # it, which the top bit of the other's field there tells
        (a, ax, ay), (b, bx, by) = self.parents
        sides = ((a.faces(ts), ax, ay, b.rows, bx, by),
                 (b.faces(ts), bx, by, a.rows, ax, ay))
        faces = {}
        for d in DIRECTIONS:
            dx, dy = OFFSET[d]
            by_glue = {}
            for pfaces, sx, sy, rows, qx, qy in sides:
                cx, cy, h = sx + dx - qx, sy + dy - qy, len(rows)
                for g, coords in pfaces[d].items():
                    kept = [(x + sx, y + sy) for x, y in coords
                            if not 0 <= y + cy < h or x + cx < 0
                            or not rows[y + cy] >> ((x + cx) << 5 | 31) & 1]
                    if kept:
                        by_glue.setdefault(g, []).extend(kept)
            faces[d] = {g: tuple(sorted(cs)) for g, cs in by_glue.items()}
        return faces


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

    Singletons are stable for every tau.  An edge of weight >= tau never
    crosses a cut lighter than tau, so when the heavy edges, read straight
    off the cells, already join every cell, every cut weighs at least
    tau; only otherwise is the binding graph built for the cut check.
    """
    if not cells:
        raise EmptyAssembly("stability of an empty assembly is undefined")
    if len(cells) == 1:
        return True
    tiles = ts._by_id
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = v = stack.pop()
        _, n, e, s, w = tiles[cells[v]]
        # equal glues of strength >= tau >= 1 interact at full strength
        if n.strength >= tau:
            u = (x, y + 1)
            if u not in seen and u in cells and tiles[cells[u]].south == n:
                seen.add(u)
                stack.append(u)
        if e.strength >= tau:
            u = (x + 1, y)
            if u not in seen and u in cells and tiles[cells[u]].west == e:
                seen.add(u)
                stack.append(u)
        if s.strength >= tau:
            u = (x, y - 1)
            if u not in seen and u in cells and tiles[cells[u]].north == s:
                seen.add(u)
                stack.append(u)
        if w.strength >= tau:
            u = (x - 1, y)
            if u not in seen and u in cells and tiles[cells[u]].east == w:
                seen.add(u)
                stack.append(u)
    if len(seen) == len(cells):
        return True
    return mincut.stability_cut_ok(binding_graph(cells, ts), tau)


def interface_strength(a: Supertile, b: Supertile, ts: TileSet, offset) -> int:
    """Total interaction strength across the seam when b sits at offset.

    b must not overlap a.  This is the model's definition of the seam,
    kept as the oracle for the pass in SeamIndex.seams; the library
    itself never calls it.  An interaction pairs an open face of b with
    an open face of a carrying the same positive glue, so the sum runs
    over b's positive open faces whose glue a shows on an opposite open
    face.
    """
    ox, oy = offset
    acells = a.cells
    afaces = a.faces(ts)
    total = 0
    for d, by_glue in b.faces(ts).items():
        dx, dy = OFFSET[d]
        opp = OPPOSITE[d]
        facing = afaces[opp]
        for g, coords in by_glue.items():
            if g not in facing:
                continue
            for (bx, by) in coords:
                atid = acells.get((bx + ox + dx, by + oy + dy))
                if atid is not None and ts.tile(atid).glue(opp) == g:
                    total += g.strength
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
    """Supertiles in insertion order, their open faces indexed by
    (direction, glue) and then by size for the seam pass of seams().
    """

    __slots__ = ("ts", "members", "_faces")

    def __init__(self, ts: TileSet):
        self.ts = ts
        self.members = []
        self._faces = {}  # (direction, glue) -> size -> [(position, coords)]

    def add(self, st: Supertile):
        position = len(self.members)
        self.members.append(st)
        for d, by_glue in st.faces(self.ts).items():
            for g, coords in by_glue.items():
                self._faces.setdefault((d, g), {}).setdefault(
                    st.size, []).append((position, coords))

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
        for d, by_glue in a.faces(self.ts).items():
            dx, dy = OFFSET[d]
            opp = OPPOSITE[d]
            for g, coords in by_glue.items():
                by_size = index.get((opp, g))
                if by_size is None:
                    continue
                s = g.strength
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
    the sum of g.strength over every pair (open face of a in direction d
    carrying g, open face of b in direction opp(d) carrying g) that abuts
    at o.  A cell of a facing a cell of b is open in a, because b is
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


def combine(a: Supertile, b: Supertile, ts: TileSet, tau: int,
            members=None) -> list:
    """The combination set of a and b: deduplicated, in the sorted order
    of the first offset that yields each child.

    Both inputs must be tau-stable (see combination_offsets); every
    producible supertile is.  members, if given, maps each known
    supertile to itself, as ProducibleSet.supertiles does; it is only
    read.
    A child equal to a member comes back as that member, found by the
    dict lookup without building the child's cells.  No fingerprint is
    computed.
    """
    known = {} if members is None else members
    return list(dict.fromkeys(
        known.get(c, c) for _, c in combination_offsets(a, b, ts, tau)))


def _valid_count(c) -> bool:
    if c == INFINITE:
        return True
    return isinstance(c, int) and not isinstance(c, bool) and c > 0


class TAS:
    """A tile assembly system: tile set, initial state, temperature.

    The initial state is a multiset of stable supertiles with positive
    (possibly infinite) counts; by default it holds infinitely many copies
    of each singleton tile.  Construction validates stability and tile ids
    of every initial supertile.

    ``initial_state`` merges equal supertiles, found by Supertile
    equality as explore finds them, and lists them by size, breaking a
    size tie by fingerprint: the (size, fingerprint) order.  Only a
    supertile that shares its size with another is hashed, so a seed of
    unique size costs no SHA-1.
    """

    __slots__ = ("tile_set", "tau", "initial_state")

    def __init__(self, tile_set: TileSet, tau: int, initial_state=None):
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
        known = tile_set._by_id.keys()
        for st, _ in state:
            if not known >= set(st.cells.values()):
                for tid in st.cells.values():
                    tile_set.tile(tid)
            if not is_tau_stable(st.cells, tile_set, tau):
                raise ValueError(
                    f"initial supertile {st.fingerprint[:10]} is not {tau}-stable")
        self.initial_state = tuple(state)
