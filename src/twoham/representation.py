"""Block representation functions: reading scaled assemblies as tile images.

A representation carries a scale m and a decoder from m x m blocks of
simulator tiles to simulated tile ids, each block given as its window:
the tuple of m packed rows that model.window cuts.  Decoding a supertile
tries block grids at every offset, or, for a representation with
anchors, only at the offsets that put an anchor cell on the in-block
corner (the compilers read blocks at anchor cells; see
compiled.anchored_rep), and succeeds when exactly one grid alignment
produces a non-empty image.
Each alignment's blocks give both the image and, through their keys, the
fuzz rule.  Distinct non-empty images at two alignments mean the
supertile cannot be read at all, which is reported loudly rather than
resolved by preference.

There is one reader, BlockReader: it cuts each block as a window of the
supertile's packed rows (model.window) and decodes each distinct window
once.  decode_supertile is a fresh BlockReader's decode.
"""

from __future__ import annotations

from .errors import AmbiguousAlignment
from .model import Supertile, packed_rows, window, window_block

__all__ = [
    "BlockReader",
    "BlockRepresentation",
    "DecodedImage",
    "decode_supertile",
    "fits_single_block",
]


class BlockRepresentation:
    """Scale plus block decoder, with optional anchors.

    decode_window takes the window of one non-empty block (model.window:
    m packed rows, a 32-bit code per cell) and returns a simulated tile
    id or None.  The empty window always decodes to None and is never
    passed in.  By the row lemma (model) a decoder may read the window
    with row masks: codes are nonzero and injective and an empty field
    is 0, so two windows agree on a set of cells exactly when their rows,
    masked to those cells' fields, are equal.  decode_block is the
    adapter for a block held as a dict of in-block coordinate to tile id.

    anchors, when given, holds the simulator tile ids one of which a block
    must show at in-block (corner, corner) to decode, so the only offsets
    worth trying are those that put an anchor cell there: one per anchor
    cell, and a BlockReader takes a union's from its parents'.  Without
    anchors all m * m offsets are tried.
    """

    __slots__ = ("m", "decode_window", "anchors", "corner", "_every_offset")

    def __init__(self, m, decode_window, anchors=None, corner=0):
        if m < 1:
            raise ValueError(f"scale must be positive, got {m}")
        self.m = m
        self.decode_window = decode_window
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

        def decode(win):
            key = tuple(sorted((i, j, t)
                               for (i, j), t in window_block(win).items()))
            return frozen.get(key)

        return cls(m, decode)

    def decode_block(self, block):
        """decode_window of the window that holds block, a dict of
        in-block (i, j) -> tile id inside the m x m block."""
        return self.decode_window(packed_rows(block, self.m))

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


def decode_supertile(s: Supertile, rep: BlockRepresentation):
    """Read a supertile through the block grid; None when nothing decodes.

    Exactly one alignment class may produce a non-empty image.  Multiple
    alignments producing the same image are harmless (the lowest offset
    is reported); different images raise AmbiguousAlignment.
    """
    return BlockReader(rep).decode(s)


class BlockReader:
    """decode_supertile for one representation, with each distinct block
    decoded once.

    A block is read as its window of the supertile's rows, and by the
    row lemma (model) equal windows hold equal blocks, so the decode of
    every window is memoized by the window itself, across supertiles.
    A decode that raises is not kept, so the same exception comes back
    on the next read.  With anchors, candidate offsets are memoized by
    supertile too, and a union's come from its parents'.
    """

    __slots__ = ("rep", "_offsets", "_decoded")

    def __init__(self, rep: BlockRepresentation):
        self.rep = rep
        self._offsets = {}  # supertile -> its sorted candidate offsets
        self._decoded = {}  # window -> decode

    def offsets(self, s: Supertile):
        """s's candidate offsets, in sorted order.  With anchors a union's
        are its parents' offsets moved by their shifts mod m: an anchor
        cell of p at (x, y) proposes ((x - c) % m, (y - c) % m), and in
        the union it sits at (x + sx, y + sy).  Parents come first,
        through an explicit stack, so a long chain of unions cannot
        exhaust recursion."""
        rep = self.rep
        if rep.anchors is None:
            return rep.offsets_for(s)
        memo, m = self._offsets, rep.m
        stack = [s]
        while stack:
            u = stack[-1]
            if u in memo:
                stack.pop()
            elif u.parents is None:
                memo[u] = rep.offsets_for(u)
            else:
                missing = [p for p, _, _ in u.parents if p not in memo]
                if missing:
                    stack += missing
                else:
                    memo[u] = sorted({((ox + sx) % m, (oy + sy) % m)
                                      for p, sx, sy in u.parents
                                      for ox, oy in memo[p]})
        return memo[s]

    def decode(self, s: Supertile):
        """The DecodedImage of s at its lowest offset with a non-empty
        image, or None; AmbiguousAlignment when two offsets give distinct
        images."""
        m, decode_window = self.rep.m, self.rep.decode_window
        memo = self._decoded
        found = None
        for ox, oy in self.offsets(s):
            image, occupied = {}, []
            for by in range(-oy // m, (s.height - 1 - oy) // m + 1):
                for bx in range(-ox // m, (s.width - 1 - ox) // m + 1):
                    win = window(s, ox + m * bx, oy + m * by, m)
                    if not any(win):
                        continue
                    occupied.append((bx, by))
                    tid = memo.get(win, memo)
                    if tid is memo:  # not decoded yet
                        tid = memo[win] = decode_window(win)
                    if tid is not None:
                        image[(bx, by)] = tid
            if not image:
                continue
            img = DecodedImage((ox, oy), image, occupied)
            if found is None:
                found = img
            elif found.supertile != img.supertile:
                raise AmbiguousAlignment(
                    f"supertile {s.fingerprint[:10]} decodes to distinct "
                    f"images at offsets {found.offset} and {img.offset}")
        return found
