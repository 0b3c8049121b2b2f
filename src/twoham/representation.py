"""Block representation functions: reading scaled assemblies as tile images.

A representation carries a scale m and a decoder from m x m blocks of
simulator tiles to simulated tile ids.  Decoding a supertile tries block
grids at every offset, or, for a representation with anchors, only at
the offsets that put an anchor cell on the in-block corner (the
compilers read blocks at anchor cells; see compiled.anchored_rep), and
succeeds when exactly one grid alignment produces a non-empty image.
Each alignment's blocks give both the image and, through their keys, the
fuzz rule.  Distinct non-empty images at two alignments mean the
supertile cannot be read at all, which is reported loudly rather than
resolved by preference.

decode_supertile reads a supertile's cells, one pass per alignment: the
generic path and the oracle.  BlockReader gives the same readings from a
union's parents' readings, with only the seam blocks read again.
"""

from __future__ import annotations

from .errors import AmbiguousAlignment
from .model import Supertile

__all__ = [
    "BlockReader",
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
    """Scale plus block decoder, with optional anchors.

    decode_block takes one non-empty block (dict of in-block coordinate to
    simulator tile id) and returns a simulated tile id or None.  The empty
    block always decodes to None and is never passed in.

    anchors, when given, holds the simulator tile ids one of which a block
    must show at in-block (corner, corner) to decode, so the only offsets
    worth trying are those that put an anchor cell there: one per anchor
    cell, and a BlockReader takes a union's from its parents'.  Without
    anchors all m * m offsets are tried.
    """

    __slots__ = ("m", "decode_block", "anchors", "corner", "_every_offset")

    def __init__(self, m, decode_block, anchors=None, corner=0):
        if m < 1:
            raise ValueError(f"scale must be positive, got {m}")
        self.m = m
        self.decode_block = decode_block
        self.anchors = anchors
        self.corner = corner
        if anchors is None:
            self._every_offset = tuple(
                (ox, oy) for ox in range(m) for oy in range(m))

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
        """The grid offsets worth trying on s, in sorted order."""
        if self.anchors is None:
            return self._every_offset
        m, c, anchors = self.m, self.corner, self.anchors
        return sorted({((x - c) % m, (y - c) % m)
                       for (x, y), uid in s.cells.items() if uid in anchors})


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


def _first_image(s, readings):
    """The reading at the lowest offset with a non-empty image, from
    (offset, image, blocks) triples in offset order; None when every
    image is empty.  Equal images at two offsets are harmless, distinct
    ones raise AmbiguousAlignment."""
    found = None
    for offset, image, blocks in readings:
        if not image:
            continue
        img = DecodedImage(offset, image, blocks)
        if found is None:
            found = img
        elif found.supertile != img.supertile:
            raise AmbiguousAlignment(
                f"supertile {s.fingerprint[:10]} decodes to distinct images "
                f"at offsets {found.offset} and {offset}")
    return found


def decode_supertile(s: Supertile, rep: BlockRepresentation):
    """Read a supertile through the block grid; None when nothing decodes.

    Exactly one alignment class may produce a non-empty image.  Multiple
    alignments producing the same image are harmless (the lowest offset
    is reported); different images raise AmbiguousAlignment.
    """
    def readings():
        for ox, oy in rep.offsets_for(s):
            blocks = blocks_at(s, rep.m, ox, oy)
            image = {}
            for key, block in blocks.items():
                tid = rep.decode_block(block)
                if tid is not None:
                    image[key] = tid
            yield (ox, oy), image, blocks

    return _first_image(s, readings())


_UNREAD = object()


class BlockReader:
    """decode_supertile for one representation, with every reading of a
    supertile at an offset memoized and a union read off its parents.

    Union lemma.  Let a parent p sit in the union u at shift (sx, sy)
    (Supertile.parents), and read u at offset (ox, oy).  Write
    ox - sx = qx * m + px with 0 <= px < m, and likewise y.  p's cell
    (x, y) is u's cell (x + sx, y + sy), which lies in u's block
    ((x - px) // m - qx, (y - py) // m - qy) at in-block coordinate
    ((x - px) % m, (y - py) % m).  So p's cells fall in the blocks p has
    at offset (px, py), their keys moved by the whole blocks (-qx, -qy)
    and their in-block coordinates unchanged.  A block that only one
    parent touches is that parent's block, the same content and so the
    same decode; only a seam block, touched by both parents, is merged
    and decoded again.  u's cells are a's cells, then b's, so its blocks
    come in blocks_at's order: a's, then b's that a lacks, and a seam
    block's fragments merge in cell order too.

    A reading maps block keys to [content, decode] pairs that every
    reading holding the same block shares.  The content is a tuple of
    block fragments, merged only to be decoded: the one block dict of a
    supertile built from cells, or, for a seam block, its parents'
    fragments, a's then b's, so the readings hold no cell twice.  The
    decode is filled in the first time some supertile is read at an
    offset whose blocks include it, so decode_block runs only on a block
    that decode_supertile also reads for that supertile at that offset,
    and on each block once.  A decode that raises is not kept, so the
    same exception comes back on the next read.  Supertiles built from
    cells are read by blocks_at.

    Readings, and with anchors the candidate offsets, are memoized by
    supertile, so a supertile equal to one read before gets that one's
    reading: the same image, in the first one's block order.  With
    anchors the offsets come from the parents too; without them all
    m * m offsets are read and kept.
    """

    __slots__ = ("rep", "_readings", "_offsets")

    def __init__(self, rep: BlockRepresentation):
        self.rep = rep
        self._readings = {}  # (supertile, ox, oy) -> {block key: [content, decode]}
        self._offsets = {}   # supertile -> its sorted candidate offsets

    def offsets(self, s: Supertile):
        """s's candidate offsets, in sorted order.  With anchors a union's
        are its parents' offsets moved by their shifts mod m: an anchor
        cell of p at (x, y) proposes ((x - c) % m, (y - c) % m), and in
        the union it sits at (x + sx, y + sy)."""
        rep = self.rep
        if rep.anchors is None:
            return rep.offsets_for(s)
        return _bottom_up(self._offsets, s, _parent_supertiles,
                          rep.offsets_for, self._union_offsets)

    def _union_offsets(self, u):
        m = self.rep.m
        return sorted({((ox + sx) % m, (oy + sy) % m)
                       for p, sx, sy in u.parents
                       for ox, oy in self._offsets[p]})

    def blocks(self, s: Supertile, ox: int, oy: int) -> dict:
        """s's reading at offset (ox, oy): block key -> [content, decode]."""
        return _bottom_up(self._readings, (s, ox, oy), self._parent_readings,
                          self._leaf_reading, self._union_reading)

    def _parent_readings(self, key):
        u, ox, oy = key
        m = self.rep.m
        return u.parents and [(p, (ox - sx) % m, (oy - sy) % m)
                              for p, sx, sy in u.parents]

    def _leaf_reading(self, key):
        u, ox, oy = key
        return {k: [(block,), _UNREAD]
                for k, block in blocks_at(u, self.rep.m, ox, oy).items()}

    def _union_reading(self, key):
        u, ox, oy = key
        m = self.rep.m
        blocks = {}
        for p, sx, sy in u.parents:
            qx, px = divmod(ox - sx, m)
            qy, py = divmod(oy - sy, m)
            for (kx, ky), pair in self._readings[p, px, py].items():
                k = kx - qx, ky - qy
                seam = blocks.get(k)
                blocks[k] = pair if seam is None else [
                    seam[0] + pair[0], _UNREAD]
        return blocks

    def decode(self, s: Supertile):
        """decode_supertile(s, rep): the same DecodedImage or None, or the
        same exception."""
        decode_block = self.rep.decode_block

        def readings():
            for ox, oy in self.offsets(s):
                blocks = self.blocks(s, ox, oy)
                image = {}
                for key, pair in blocks.items():
                    tid = pair[1]
                    if tid is _UNREAD:
                        block = {}
                        for fragment in pair[0]:
                            block.update(fragment)
                        tid = pair[1] = decode_block(block)
                    if tid is not None:
                        image[key] = tid
                yield (ox, oy), image, blocks

        return _first_image(s, readings())


def _bottom_up(memo, key, deps, leaf, union):
    """memo[key], filled in parents first without recursion, so that a
    long chain of unions cannot exhaust the stack.  deps(k) is None for
    a supertile built from cells, whose entry is leaf(k); otherwise it
    lists the keys that union(k) reads from memo."""
    got = memo.get(key)
    if got is not None:
        return got
    stack = [key]
    while stack:
        k = stack[-1]
        if k not in memo:
            needed = deps(k)
            if needed is None:
                memo[k] = leaf(k)
            else:
                missing = [d for d in needed if d not in memo]
                if missing:
                    stack += missing
                    continue
                memo[k] = union(k)
        stack.pop()
    return memo[key]


def _parent_supertiles(u):
    return u.parents and [p for p, _, _ in u.parents]
