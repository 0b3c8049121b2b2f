"""Block representation functions: reading scaled assemblies as tile images.

A representation carries a scale m and a decoder from m x m blocks of
simulator tiles to simulated tile ids.  Decoding a supertile tries block
grids at every offset, or only at the offsets a registered hint function
proposes (the compilers read blocks at anchor cells and propose exactly
the offsets that put one on a body corner; see compiled.anchored_rep),
and succeeds when exactly one grid alignment produces a non-empty
image.  Each alignment is one pass over the cells: the blocks it yields
give both the image and, through their keys, the fuzz rule.  Distinct
non-empty images at two alignments mean the supertile cannot be read at
all, which is reported loudly rather than resolved by preference.
"""

from __future__ import annotations

from .errors import AmbiguousAlignment
from .model import Supertile

__all__ = [
    "BlockRepresentation",
    "DecodedImage",
    "blocks_at",
    "decode_supertile",
    "fits_single_block",
]


def blocks_at(s: Supertile, m: int, ox: int, oy: int) -> dict:
    """Partition cells into m-blocks for the grid anchored at (ox, oy).

    Keys are block coordinates; values map in-block (i, j) to tile ids.
    Cells are normalized, so the divisions come from one table per
    column and one per row.
    """
    cols = [divmod(x - ox, m) for x in range(s.width)]
    rows = [divmod(y - oy, m) for y in range(s.height)]
    blocks = {}
    for (x, y), tid in s.cells.items():
        bx, i = cols[x]
        by, j = rows[y]
        block = blocks.get((bx, by))
        if block is None:
            block = blocks[(bx, by)] = {}
        block[(i, j)] = tid
    return blocks


class BlockRepresentation:
    """Scale plus block decoder, with an optional alignment hint.

    decode_block takes one non-empty block (dict of in-block coordinate to
    simulator tile id) and returns a simulated tile id or None.  The empty
    block always decodes to None and is never passed in.

    candidate_offsets, when given, maps a supertile to the grid offsets
    worth trying; it must cover every offset that could decode to a
    non-empty image, and exists so anchored decoders can skip the full
    m * m scan.
    """

    __slots__ = ("m", "decode_block", "candidate_offsets")

    def __init__(self, m, decode_block, candidate_offsets=None):
        if m < 1:
            raise ValueError(f"scale must be positive, got {m}")
        self.m = m
        self.decode_block = decode_block
        self.candidate_offsets = candidate_offsets

    @classmethod
    def from_table(cls, m, table):
        """Lookup-table decoder; keys are sorted (i, j, tile id) tuples.

        This is the paper's table form of a representation function, a
        model concept the tests check the relations against.
        """
        frozen = {}
        for key, out in table.items():
            frozen[tuple(sorted(key))] = out

        def decode(block):
            key = tuple(sorted((i, j, t) for (i, j), t in block.items()))
            return frozen.get(key)

        return cls(m, decode)

    def offsets_for(self, s: Supertile):
        if self.candidate_offsets is not None:
            return list(self.candidate_offsets(s))
        return [(ox, oy) for ox in range(self.m) for oy in range(self.m)]


class DecodedImage:
    """One successful reading of a simulator supertile.

    image maps block coordinates to simulated tile ids and is non-empty;
    supertile is its canonical translation class.  occupied holds the
    keys of every non-empty block at this alignment, and clean records
    the fuzz rule over them: each sits on or orthogonally next to the
    image domain, or the source occupies a single block.
    """

    __slots__ = ("offset", "image", "supertile", "clean")

    def __init__(self, offset, image, occupied):
        self.offset = offset
        self.image = image
        self.supertile = Supertile(image)
        self.clean = len(occupied) <= 1 or all(
            (bx, by) in image or (bx + 1, by) in image
            or (bx - 1, by) in image or (bx, by + 1) in image
            or (bx, by - 1) in image
            for bx, by in occupied)

    def __repr__(self):
        return (f"<DecodedImage {self.supertile.size} tiles at offset "
                f"{self.offset} clean={self.clean}>")


def fits_single_block(s: Supertile, m: int) -> bool:
    """Whether some alignment puts the whole supertile in one m-block."""
    return s.width <= m and s.height <= m


def decode_supertile(s: Supertile, rep: BlockRepresentation):
    """Read a supertile through the block grid; None when nothing decodes.

    Exactly one alignment class may produce a non-empty image.  Multiple
    alignments producing the same image are harmless (the lowest offset
    is reported); different images raise AmbiguousAlignment.
    """
    found = None
    for ox, oy in sorted(rep.offsets_for(s)):
        blocks = blocks_at(s, rep.m, ox, oy)
        image = {}
        for key, block in blocks.items():
            tid = rep.decode_block(block)
            if tid is not None:
                image[key] = tid
        if not image:
            continue
        img = DecodedImage((ox, oy), image, blocks)
        if found is None:
            found = img
        elif found.supertile != img.supertile:
            raise AmbiguousAlignment(
                f"supertile {s.fingerprint[:10]} decodes to distinct images "
                f"at offsets {found.offset} and {(ox, oy)}")
    return found
