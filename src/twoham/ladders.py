"""Half-ladder systems: the mirror-matching counterexample family.

A half-ladder is a one-tile-wide vertical column of odd height with rungs
(two-tile horizontal pegs) on exactly tau of its alternating column tiles.
Left half-ladders grow rungs east, right half-ladders west, and the only
glue the two sides share is a strength-1 glue at the rung tips.  Two
half-ladders therefore need tau aligned rung tips to bind, which is what
makes the family a sharp probe for simulators running below temperature.
"""

from __future__ import annotations

import itertools

from .errors import HeightTooSmall
from .model import TAS, Glue, Supertile, TileSet, TileType

LEFT = "LEFT"
RIGHT = "RIGHT"

# x offset that puts a right half-ladder's rung tips against a left one's,
# with rows aligned
ALIGNED_OFFSET = (3, 0)


class HalfLadder:
    __slots__ = ("side", "height", "rung_positions", "supertile")

    def __init__(self, side, height, rung_positions, supertile):
        self.side = side
        self.height = height
        self.rung_positions = tuple(sorted(rung_positions))
        self.supertile = supertile

    def __repr__(self):
        return f"<HalfLadder {self.side} h={self.height} rungs={self.rung_positions}>"


def _rung_sets(height: int, tau: int) -> list:
    """All C(height, tau) rung position sets, in lex order."""
    if height < tau:
        raise HeightTooSmall(
            f"height {height} cannot carry {tau} rungs on distinct column tiles")
    return list(itertools.combinations(range(height), tau))


def build_ladder_system(tau: int) -> TAS:
    """Eight tile types; every glue has strength tau except the rung tip."""
    if tau < 2:
        raise ValueError("the ladder construction needs temperature at least 2")

    def g(label, strength=None):
        return Glue(label, tau if strength is None else strength)

    mid = g("mid", 1)
    tiles = [
        TileType("A2", north=g("cA"), south=g("cB"), east=g("rA")),
        TileType("A3", north=g("cB"), south=g("cA")),
        TileType("A1", west=g("rA"), east=g("rB")),
        TileType("A0", west=g("rB"), east=mid),
        TileType("B2", north=g("dA"), south=g("dB"), west=g("sA")),
        TileType("B3", north=g("dB"), south=g("dA")),
        TileType("B1", east=g("sA"), west=g("sB")),
        TileType("B0", east=g("sB"), west=mid),
    ]
    return TAS(TileSet(tiles), tau)


def _column_tile(side, row):
    if side == LEFT:
        return "A2" if row % 2 == 0 else "A3"
    return "B2" if row % 2 == 0 else "B3"


def half_ladder_cells(side, height, rung_positions) -> dict:
    """Cells in single-tile growth order: column bottom-up, then each rung
    outward (witness_sequence replays this order)."""
    col_x = 0 if side == LEFT else 2
    cells = {(col_x, row): _column_tile(side, row) for row in range(2 * height - 1)}
    for p in rung_positions:
        if side == LEFT:
            cells[(1, 2 * p)] = "A1"
            cells[(2, 2 * p)] = "A0"
        else:
            cells[(1, 2 * p)] = "B1"
            cells[(0, 2 * p)] = "B0"
    return cells


def make_half_ladder(sys: TAS, side, height, rung_positions) -> HalfLadder:
    rungs = tuple(sorted(set(rung_positions)))
    if len(rungs) != sys.tau:
        raise ValueError(f"a half-ladder carries exactly {sys.tau} rungs, got {rungs}")
    if any(p < 0 or p >= height for p in rungs):
        raise ValueError(f"rung positions {rungs} outside 0..{height - 1}")
    st = Supertile(half_ladder_cells(side, height, rungs))
    return HalfLadder(side, height, rungs, st)


def enumerate_half_ladders(sys: TAS, height: int, side) -> list:
    """All C(height, tau) half-ladders of one side, rung sets in lex order."""
    return [make_half_ladder(sys, side, height, rungs)
            for rungs in _rung_sets(height, sys.tau)]


def mirror(ladder: HalfLadder) -> HalfLadder:
    """The right half-ladder with the same rung positions."""
    if ladder.side != LEFT:
        raise ValueError("mirror is defined on left half-ladders")
    st = Supertile(half_ladder_cells(RIGHT, ladder.height, ladder.rung_positions))
    return HalfLadder(RIGHT, ladder.height, ladder.rung_positions, st)


def witness_sequence(ladder: HalfLadder) -> list:
    """Single-tile growth order: column bottom-up, then each rung outward.

    Returns the list of successive supertiles; every consecutive pair
    differs by one tile whose attachment has strength tau, so replaying it
    through combine certifies producibility.
    """
    cells = list(half_ladder_cells(ladder.side, ladder.height,
                                   ladder.rung_positions).items())
    return [Supertile(dict(cells[:k])) for k in range(1, len(cells) + 1)]


def binding_strength_matrix(height: int, tau: int) -> list:
    """Aligned-offset interface strengths over LEFT x RIGHT, lex order.

    Entry [i][j] counts the shared rung positions of the i-th left and
    j-th right half-ladder, which equals the glue strength across the
    seam when their columns are row-aligned.  Both sides enumerate the
    same rung sets, so the matrix is read off those alone.
    """
    if tau < 2:
        raise ValueError("the ladder construction needs temperature at least 2")
    rungs = [set(r) for r in _rung_sets(height, tau)]
    return [[len(left & right) for right in rungs] for left in rungs]
