"""Shared container and building blocks for compiler output.

A compiled simulator packages the universal tile set, the preformed input
supertiles with their counts, the block scale, the representation used to
read simulator assemblies back, the relations the compiler claims, the
per-block size budget, and whatever per-compilation metadata the decoder
needs.  Compilers differ only in how they fill these fields.
"""

from __future__ import annotations

from .model import EAST, NORTH, NULL_GLUE, SOUTH, TAS, WEST, Glue, TileType


class CompiledSimulator:
    """One compilation of a source system into a block-scale simulator.

    claims names the relation checks (keys of relations.CHECKS) that
    verify runs by default.  budget is the simulator tiles one source
    tile can cost, attached pieces included, so a target-side size bound
    times budget covers every assembly whose image fits that bound.
    """

    __slots__ = ("variant", "tau", "universal_tiles", "input_supertiles",
                 "m", "rep", "meta", "claims", "budget")

    def __init__(self, variant, tau, universal_tiles, input_supertiles,
                 m, rep, meta, claims, budget):
        self.variant = variant
        self.tau = tau
        self.universal_tiles = universal_tiles
        self.input_supertiles = tuple(input_supertiles)
        self.m = m
        self.rep = rep
        self.meta = meta
        self.claims = tuple(claims)
        self.budget = budget

    def simulator_tas(self, tau=None) -> TAS:
        """The compiled system as a runnable TAS.

        tau overrides the simulator temperature, which exists so probes can
        rerun a compilation under a deliberately wrong threshold.
        """
        return TAS(self.universal_tiles, self.tau if tau is None else tau,
                   list(self.input_supertiles))

    def __repr__(self):
        return (f"<CompiledSimulator {self.variant} m={self.m} "
                f"tiles={len(self.universal_tiles)} "
                f"inputs={len(self.input_supertiles)}>")


def framed_code(length, index):
    """1, the index in length - 2 bits (most significant first), then 0."""
    bits = length - 2
    code = [1]
    code.extend((index >> (bits - 1 - i)) & 1 for i in range(bits))
    code.append(0)
    return code


def wire_tiles(cells, faces, prefix, strength):
    """Tile types for one rigid piece, in the iteration order of cells.

    Interior adjacencies get coordinate-keyed glues of the given strength;
    faces maps a cell to the (direction, Glue) pairs it shows outward.
    """
    tiles = []
    for (x, y), uid in cells.items():
        sides = {}
        if (x, y + 1) in cells:
            sides[NORTH] = Glue(f"{prefix}:{x},{y}:v", strength)
        if (x, y - 1) in cells:
            sides[SOUTH] = Glue(f"{prefix}:{x},{y - 1}:v", strength)
        if (x + 1, y) in cells:
            sides[EAST] = Glue(f"{prefix}:{x},{y}:h", strength)
        if (x - 1, y) in cells:
            sides[WEST] = Glue(f"{prefix}:{x - 1},{y}:h", strength)
        for d, g in faces.get((x, y), ()):
            sides[d] = g
        tiles.append(TileType(uid, north=sides.get(NORTH, NULL_GLUE),
                              east=sides.get(EAST, NULL_GLUE),
                              south=sides.get(SOUTH, NULL_GLUE),
                              west=sides.get(WEST, NULL_GLUE)))
    return tiles


def solid_square_offsets(side, anchor_x, anchor_y, m):
    """Alignment hint: grid offsets that put a solid square at the anchor.

    Any side x side solid square has a cell whose largest-solid-square
    value reaches side under the standard corner dynamic program, so
    collecting the implied anchors covers every alignment that could
    decode a body.  Supertiles without such a square get no candidates.
    """
    def offsets(s):
        dp = {}
        out = set()
        for xy in sorted(s.cells):
            x, y = xy
            d = min(dp.get((x - 1, y), 0),
                    dp.get((x, y - 1), 0),
                    dp.get((x - 1, y - 1), 0)) + 1
            dp[xy] = d
            if d >= side:
                out.add(((x - side + 1 - anchor_x) % m,
                         (y - side + 1 - anchor_y) % m))
        return sorted(out)
    return offsets
