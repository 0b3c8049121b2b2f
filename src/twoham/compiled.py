"""Shared container and building blocks for compiler output.

A compiled simulator packages the universal tile set, the preformed input
supertiles with their counts, the block scale, the anchor table, the
representation used to read simulator assemblies back, the relations the
compiler claims, the per-block size budget, and whatever per-compilation
metadata the decoder needs.  Compilers differ only in how they fill these
fields.

Both compilers read blocks the same way: every macrotile has a solid k x k
body whose lower-left cell carries a tile type used nowhere else, its
anchor.  anchored_rep builds the block representation from that table, so
the anchors are the one alignment key, and each compiler adds only its
own consistency check on a block that already has a complete body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CorruptMacrotile
from .model import DIRECTIONS, NULL_GLUE, TAS, Glue, TileType
from .representation import AnchorHint, BlockRepresentation


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
        """The compiled system as a runnable TAS."""
        return TAS(self.universal_tiles, self.tau, list(self.input_supertiles))

    def __repr__(self):
        return (f"<CompiledSimulator {self.variant} m={self.m} "
                f"tiles={len(self.universal_tiles)} "
                f"inputs={len(self.input_supertiles)}>")


@dataclass
class Piece:
    """Cells and outward faces of one rigid piece in its block frame.

    cells maps (x, y) to a universal tile id; faces maps a cell to the
    list of (direction, Glue) pairs it shows outward.
    """

    cells: dict
    faces: dict


def anchored_rep(m, k, corner, anchors, check) -> BlockRepresentation:
    """Block representation that reads a block at its body anchor cell.

    A block decodes only when its k x k body, lower-left at (corner,
    corner), is complete; the cell there must then be an anchor, or the
    block is a CorruptMacrotile.  check(block, tile_id) runs the
    compiler's own consistency test and returns the tile id.  Only
    alignments that put an anchor cell on the body corner can decode,
    so those, and no others, are the candidate offsets.  The hint is
    data, an AnchorHint, so a BlockReader takes a union's offsets from
    its parents': a union's anchor cells are its parents' anchor cells,
    shifted, and no pass over its cells looks for them.
    """
    body = {(x, y) for x in range(corner, corner + k)
            for y in range(corner, corner + k)}

    def decode(block):
        if not block.keys() >= body:
            return None
        tid = anchors.get(block[(corner, corner)])
        if tid is None:
            raise CorruptMacrotile("body anchor cell is no macrotile anchor")
        return check(block, tid)

    return BlockRepresentation(m, decode, AnchorHint(m, anchors, corner))


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
    """Copy a piece's cells into union at block (bx, by) of scale m."""
    for (x, y), uid in cells.items():
        union[(x + m * bx, y + m * by)] = uid


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
