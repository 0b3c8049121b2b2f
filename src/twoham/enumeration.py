"""Indexed enumeration of canonical tile sets, plus equivalence checking.

The enumerator walks, for each glue count in succession, every assignment
of strengths 1..tau to those glues (a base-(tau+1) counter, so assignments
with 0 digits occur and denote unusable glues), builds the complete list
of tile types over those glues, and hands out the power set of that list
one subset at a time.  Indices are global across all blocks and the order
is frozen: subsets follow a binary counter whose lowest bit is the first
tile constructed.

The walk skips whole blocks arithmetically, so an index deep inside a
block that could never be materialized raises instead of looping forever.

`get_nth_tas` keeps the tile list of the last block it built.  A block's
indices are contiguous, so a sweep in index order builds each block's
list once, and one cached block is enough.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapExceeded, FeasibilityCapExceeded
from .model import DIRECTIONS, NULL_GLUE, OPPOSITE, Glue, TileSet, TileType, interaction

_SUBSET_CAP = 1 << 16
_MAX_GLUE_COUNT = 8
_BIJECTION_CAP = 8


class CanonicalTileSet:
    """A tile set whose glue labels are the integers 0..|G|-1 as strings.

    glue_strengths and subset_index are populated by the enumerator and
    absent (None) when the value came from relabeling an arbitrary set.
    """

    __slots__ = ("tile_set", "num_glues", "glue_strengths", "subset_index")

    def __init__(self, tile_set, num_glues, glue_strengths=None, subset_index=None):
        self.tile_set = tile_set
        self.num_glues = num_glues
        self.glue_strengths = glue_strengths
        self.subset_index = subset_index

    def __repr__(self):
        return (f"<CanonicalTileSet |T|={len(self.tile_set)} "
                f"|G|={self.num_glues}>")


def _digits_lsd(value, base, width):
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return out


def full_tile_list(num_glues, strengths):
    """Every tile type over the given glues, in side-code counter order.

    Side codes run N, E, S, W from the most significant digit; code 0 is
    a blank side, code d >= 1 is glue d-1 at its assigned strength (kept
    even when that strength is 0, matching the literal counter).
    """
    base = num_glues + 1
    tiles = []
    for n in range(1, base ** 4):
        s0, s1, s2, s3 = _digits_lsd(n, base, 4)
        sides = []
        for code in (s3, s2, s1, s0):
            if code == 0:
                sides.append(NULL_GLUE)
            else:
                sides.append(Glue(str(code - 1), strengths[code - 1]))
        tiles.append(TileType(f"t{n}", *sides))
    return tiles


@lru_cache(maxsize=1)
def _block_tiles(num_glues, strengths):
    return tuple(full_tile_list(num_glues, strengths))


def get_nth_tas(n, tau) -> CanonicalTileSet:
    """The n-th tile set in the frozen enumeration order (0-indexed).

    The tiles are picked from the cached tile list of the last block,
    keyed by glue count and strengths (the same list at every tau), so
    tile sets from one block share their tile types.  Tile types and
    glues are immutable tuples, so that sharing changes nothing a caller
    can reach.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"index must be a non-negative integer, got {n!r}")
    if not isinstance(tau, int) or isinstance(tau, bool) or tau < 1:
        raise ValueError(f"temperature must be a positive integer, got {tau!r}")
    remaining = n
    base = tau + 1
    for num_glues in range(1, _MAX_GLUE_COUNT + 1):
        tile_count = (num_glues + 1) ** 4 - 1
        block = 1 << tile_count
        # strength numerals run from all 1s to all taus, lsd first
        start = sum(base ** i for i in range(num_glues))
        span = block * (base ** num_glues - start)
        if remaining >= span:
            remaining -= span
            continue
        offset, remaining = divmod(remaining, block)
        if remaining >= _SUBSET_CAP:
            raise FeasibilityCapExceeded(
                f"index {n} sits {remaining} subsets into a block; "
                f"the budget is {_SUBSET_CAP}")
        strengths = tuple(_digits_lsd(start + offset, base, num_glues))
        tiles = _block_tiles(num_glues, strengths)
        chosen = [tiles[i] for i in range(tile_count) if (remaining >> i) & 1]
        return CanonicalTileSet(TileSet(chosen), num_glues, strengths,
                                remaining)
    raise FeasibilityCapExceeded(
        f"index {n} lies beyond every block with at most "
        f"{_MAX_GLUE_COUNT} glues")


def canonicalize_tileset(ts: TileSet) -> CanonicalTileSet:
    """Relabel positive glues to first-occurrence integer labels.

    Scanning order is tiles as declared, sides north, east, south, west.
    Zero-strength sides come out blank; everything else is unchanged.
    """
    mapping = {}
    for t in ts:
        for d in DIRECTIONS:
            g = t.glue(d)
            if g.strength > 0 and g.label not in mapping:
                mapping[g.label] = str(len(mapping))
    tiles = []
    for t in ts:
        sides = []
        for d in DIRECTIONS:
            g = t.glue(d)
            if g.strength > 0:
                sides.append(Glue(mapping[g.label], g.strength))
            else:
                sides.append(NULL_GLUE)
        tiles.append(TileType(t.id, *sides))
    return CanonicalTileSet(TileSet(tiles), len(mapping))


def _bind(a: TileType, b: TileType, d) -> int:
    return interaction(a.glue(d), b.glue(OPPOSITE[d]))


def functionally_equivalent(t1: TileSet, t2: TileSet) -> bool:
    """Whether some bijection of tile types preserves all binding strengths.

    Checks every ordered tile pair on every side; exact strengths must
    survive the mapping in both directions.  Exhaustive over bijections,
    hence the size cap.
    """
    tiles1 = list(t1)
    tiles2 = list(t2)
    if len(tiles1) != len(tiles2):
        return False
    n = len(tiles1)
    if n > _BIJECTION_CAP:
        raise CapExceeded(f"bijection search over {n} tiles exceeds the cap "
                          f"of {_BIJECTION_CAP}")
    if n == 0:
        return True

    def table(tiles):
        return [[tuple(_bind(a, b, d) for d in DIRECTIONS) for b in tiles]
                for a in tiles]

    b1 = table(tiles1)
    b2 = table(tiles2)
    assign = [-1] * n
    used = [False] * n

    def place(i):
        if i == n:
            return True
        for j in range(n):
            if used[j]:
                continue
            good = True
            for k in range(i + 1):
                jk = j if k == i else assign[k]
                if b1[i][k] != b2[j][jk] or b1[k][i] != b2[jk][j]:
                    good = False
                    break
            if good:
                assign[i] = j
                used[j] = True
                if place(i + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    return place(0)
