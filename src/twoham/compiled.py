"""Shared container and building blocks for compiler output.

A compiled simulator packages the universal tile set, the preformed input
supertiles with their counts, the block scale, the anchor table, the
representation used to read simulator assemblies back, the relations the
compiler claims, the per-block size budget, and whatever per-compilation
metadata the decoder needs.  Compilers differ only in how they fill these
fields.

Both compilers read blocks the same way: every macrotile has a solid k x k
body whose lower-left cell carries a tile type used nowhere else, its
anchor, and anchored_rep's one check reads the cells each compiler names
against the anchored tile's own macrotile.

Block lemma: every seed a compiler builds is tau-stable over universal
tile ids, so simulator_tas does not re-check it.  Each piece (a strong
macrotile; a weak megatile, gadget or completion) is 4-connected and
shows faces only outward, so wire_tiles joins every adjacency inside it
with equal strength-tau glues, and place_piece puts it in its seed
whole.  A cut that splits a piece severs at least tau, and bonds between
pieces only add weight.  A strong seed has one macrotile per source
cell, and the arms of interacting neighbours bind pad to pad at min(s,
tau).  In a weak seed (weak._loaded_union) each gadget binds its
megatile at tau and each completion binds its gadget at tau - 1 and that
megatile at 1, so a cut that splits a megatile from its attachments
severs at least tau, and an interface's two gadgets bind at min(s, tau).
Any other cut splits the source seed, which its TAS proved tau-stable,
and weighs at least that cut capped at tau.  Weak's gadget and
completion seeds are single pieces.  tests/test_compiled.py checks the
lemma against the validating path.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BodyTooSmall, CorruptMacrotile
from .model import (DIRECTIONS, NULL_GLUE, TAS, Glue, TileType, packed_rows,
                    row_masks, window_block, window_id)
from .representation import BlockRepresentation


class CompiledSimulator:
    """One compilation of a source system into a block-scale simulator.

    anchors maps the universal id of each macrotile's body anchor cell to
    its source tile id.  claims names the relation checks (keys of
    relations.CHECKS) that verify runs by default.  budget is the
    simulator tiles one source tile can cost, attached pieces included,
    so a target-side size bound times budget covers every assembly whose
    image fits that bound.
    """

    __slots__ = ("variant", "tau", "universal_tiles", "input_supertiles",
                 "m", "anchors", "rep", "meta", "claims", "budget")

    def __init__(self, variant, tau, universal_tiles, input_supertiles,
                 m, anchors, rep, meta, claims, budget):
        self.variant = variant
        self.tau = tau
        self.universal_tiles = universal_tiles
        self.input_supertiles = tuple(input_supertiles)
        self.m = m
        self.anchors = anchors
        self.rep = rep
        self.meta = meta
        self.claims = tuple(claims)
        self.budget = budget

    def simulator_tas(self) -> TAS:
        """The compiled system as a runnable TAS, its seeds trusted by the
        block lemma: merged and ordered as TAS(universal_tiles, tau,
        list(input_supertiles)) does, without its id and stability checks.
        """
        return TAS._of_stable(self.universal_tiles, self.tau, self.input_supertiles)

    def __repr__(self):
        return (f"<CompiledSimulator {self.variant} m={self.m} "
                f"tiles={len(self.universal_tiles)} "
                f"inputs={len(self.input_supertiles)}>")


class Piece(namedtuple("Piece", ("cells", "faces"))):
    """Cells and outward faces of one rigid piece in its block frame.

    cells maps (x, y) to a universal tile id; faces maps a cell to the
    list of (direction, Glue) pairs it shows outward.
    """

    __slots__ = ()


def anchored_rep(m, k, corner, pieces, coords) -> BlockRepresentation:
    """Block representation that reads a block at its body anchor cell.

    pieces maps each source tile id to its macrotile in the block frame,
    whose cell at (corner, corner) is its anchor.  A block decodes only
    when its k x k body, lower-left there, is complete; the cell there
    must then be an anchor, and the block must hold at every cell of
    coords what the anchored tile's own piece holds (a cell or none).
    Otherwise it is a CorruptMacrotile, naming the first differing cell.

    The block is read as its window (model.window), row by row: the body
    is complete when each body row, masked to the top bits of its k body
    fields, equals that mask; the anchor is the corner field; and each
    row that coords touches, masked to the fields of coords, must equal
    the anchored piece's row masked the same way, which is packed once
    per tile.  Row-mask lemma: codes are nonzero and injective and an
    empty field is 0 (model's row lemma), so those masked rows are equal
    exactly when the block and the piece agree at every cell of coords,
    and the check skips no cell.  Only a mismatch turns the window into
    a dict, to name the first differing cell in coords order.

    Lemma: the check never fires on a simulator member.  The block lemma
    places pieces whole and never overlapping, so a complete anchored
    body brings its whole piece, and no other piece reaches coords (the
    megatile body for weak; for strong, strong._read_cells).

    Only alignments that put an anchor cell on the body corner can
    decode, so those are the candidate offsets; a BlockReader takes a
    union's from its parents', whose anchor cells, shifted, are its own.
    """
    span = range(corner, corner + k)
    body = row_masks(((x, y) for x in span for y in span), occupancy=True)
    read = row_masks(coords)
    anchors = {lay.cells[(corner, corner)]: tid for tid, lay in pieces.items()}
    want = {}
    for tid, lay in pieces.items():
        rows = packed_rows({xy: lay.cells[xy] for xy in coords
                            if xy in lay.cells}, m)
        want[tid] = tuple(rows[y] for y, _ in read)

    def decode(win):
        for y, mask in body:
            if win[y] & mask != mask:
                return None
        tid = anchors.get(window_id(win, corner, corner))
        if tid is None:
            raise CorruptMacrotile("body anchor cell is no macrotile anchor")
        if tuple(win[y] & mask for y, mask in read) != want[tid]:
            block, own = window_block(win), pieces[tid].cells
            xy = next(xy for xy in coords if block.get(xy) != own.get(xy))
            raise CorruptMacrotile(
                f"block mixes {tid!r} with foreign cells at {xy}")
        return tid

    return BlockRepresentation(m, decode, anchors, corner)


def framed_code(length, index):
    """1, the index in length - 2 bits (most significant first), then 0."""
    bits = length - 2
    code = [1]
    code.extend((index >> (bits - 1 - i)) & 1 for i in range(bits))
    code.append(0)
    return code


def tooth_offsets(start, code, flip):
    """Where each bit's tooth starts along a side.

    Bit p with value v sits at start + 4p + 2(v ^ flip), so a code and its
    framed complement, written with opposite flips, interlock.
    """
    return [start + 4 * p + 2 * (bit ^ flip) for p, bit in enumerate(code)]


def place_piece(union, cells, m, bx, by):
    """Copy a piece's cells into union at block (bx, by) of scale m; a
    piece that lands on a placed cell is a BodyTooSmall (block lemma)."""
    size, dx, dy = len(union), m * bx, m * by
    for (x, y), uid in cells.items():
        union[(x + dx, y + dy)] = uid
    if len(union) - size < len(cells):
        raise BodyTooSmall(f"a piece placed at block {(bx, by)} lands on a placed cell")


def wire_tiles(cells, faces, prefix, strength, glues):
    """Tile types for one rigid piece, in the iteration order of cells.

    Interior adjacencies get coordinate-keyed glues of the given strength,
    labelled prefix:x,y:v or prefix:x,y:h after the lower or left cell of
    the pair, one Glue object per adjacency, shared by the two tiles it
    joins; faces maps a cell to the (direction, Glue) pairs it shows
    outward, which override.  glues is the glue table that one
    compilation passes to every call, keyed on prefix, strength,
    coordinates and orientation: each interior glue is built once per
    compile and shared by every piece wired under that prefix and
    strength.

    Lemma: a wired label holds a colon, so it is never the null label,
    and the strength is checked once per call by the validating Glue
    constructor, so every glue built here with tuple.__new__ meets Glue's
    invariants.  Equal glues are equal values, so sharing objects
    changes no tile set, document or verdict.
    """
    Glue(f"{prefix}:", strength)  # NegativeStrength on a bad strength
    vertical, horizontal = glues.setdefault((prefix, strength), ({}, {}))
    new = tuple.__new__
    north, east, south, west = sides = {}, {}, {}, {}
    for xy in cells:
        x, y = xy
        above = (x, y + 1)
        if above in cells:
            g = vertical.get(xy)
            if g is None:
                g = vertical[xy] = new(Glue, (f"{prefix}:{x},{y}:v", strength))
            north[xy] = south[above] = g
        right = (x + 1, y)
        if right in cells:
            g = horizontal.get(xy)
            if g is None:
                g = horizontal[xy] = new(Glue, (f"{prefix}:{x},{y}:h", strength))
            east[xy] = west[right] = g
    by_direction = dict(zip(DIRECTIONS, sides))
    for xy, shown in faces.items():
        for d, g in shown:
            by_direction[d][xy] = g
    return [new(TileType, (uid, north.get(xy, NULL_GLUE), east.get(xy, NULL_GLUE),
                           south.get(xy, NULL_GLUE), west.get(xy, NULL_GLUE)))
            for xy, uid in cells.items()]
