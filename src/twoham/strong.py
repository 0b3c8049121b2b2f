"""Macrotile compiler preserving binding strengths.

Each tile type becomes a k x k solid body centred in a 2k x 2k block,
plus one arm per positive glue.  An arm is a one-cell-wide backbone along
a lane assigned to the glue, a pad of interlocking pegs that encodes the
glue's index, a strength region whose outward glues reproduce the glue's
binding strength, and a single base tag whose distance from the body
records which pad slot the arm uses.  Arms for the same glue on facing
sides meet pad to pad when two bodies sit exactly one block apart; arms
for different glues occupy disjoint pad intervals and slide past each
other without touching, so a simulated mismatch neither binds nor blocks.

Geometry, in a tile's own block frame with the body on [h, h+k) squared
and h = k/2; the side table _ARMS both writes and reads it:

* a glue with index g in the declared order gets grid coordinates
  (i, j) = (g // L, g % L) where L = ceil(sqrt(|G|)); j picks the lane
  row r = h + 3 + 6j and i the pad slot x_p = 2 + i*(P + 1) in the gap.
* a west arm has its backbone on row r+1 from x = x_p - h to the body,
  its pad on rows {r-1, r} from x = x_p - h, its strength cells on row r
  and its tag at (h-2-i, r+2).  An east arm mirrors it below: backbone
  on row r-2 from the body to h+k+x_p+P, pad on rows {r-1, r} from
  x = h+k+x_p, strength cells on row r-1, tag at (h+k+1+i, r-3).  Both
  pads cover the gap interval [x_p, x_p + P), so they meet exactly at
  the one-block offset.
* a north arm is an east arm and a south arm a west arm with x and y
  swapped, with two exceptions: the peg sub-slot parity below, and a
  south arm lists its two peg rows in the opposite order.
* the peg code is the glue index framed as 1 <bits> 0, one 2x2 peg per
  bit: bit p of value v sits at the pad start + 4p + 2(v ^ flip), flip
  0 on west and north arms and 1 on east and south ones.  The framed
  complement interlocks; every other overlap collides on the frame bits.
* the pad ends with the strength region.  The strength-preserving
  variant (STRONG2) places tau cells there, the last str(g) of which
  carry a unit-strength binding glue, so matched pads bind with total
  strength exactly str(g).  The single-cell variant (STRONG1) places one
  cell carrying one glue of strength str(g).

Interior cohesion uses coordinate-keyed glue labels at the simulated
temperature on every interior adjacency, so each macrotile is rigid and
none of its labels can ever bind across distinct blocks.

Blocks are read at their body anchor cell (compiled.anchored_rep),
which names the simulated tile.  The one check then reads the four
lines just outside the body, where backbones meet it on their lanes,
and every base tag cell: a block that differs there from the anchored
tile's own macrotile is a corrupt macrotile.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .compiled import (CompiledSimulator, Piece, anchored_rep, framed_code,
                       piece_supertile, seed_of, tooth_offsets, wire_tiles)
from .errors import BodyTooSmall
from .model import (DIRECTIONS, EAST, NORTH, SOUTH, WEST, Glue, TAS,
                    TileSet, TileType)

STRONG2 = "strong2"
STRONG1 = "strong1"
VARIANTS = (STRONG2, STRONG1)


def _side_count(n):
    # smallest L with L*L >= n
    if n <= 0:
        return 0
    return math.isqrt(n - 1) + 1


class _Geometry(namedtuple("_Geometry", (
        "variant", "tau", "n_glues", "ell", "framed", "s_len", "pad", "k",
        "h", "m"))):
    __slots__ = ()

    def pad_offset(self, i):
        return 2 + i * (self.pad + 1)

    def lane_row(self, j):
        return self.h + 3 + 6 * j


def _geometry(n_glues, tau, variant) -> _Geometry:
    ell = _side_count(n_glues)
    framed = max(1, (n_glues - 1).bit_length()) + 2
    s_len = tau if variant == STRONG2 else 1
    pad = 4 * framed + s_len
    k = max(ell * (pad + 1) + 3, 6 * ell + 6, 8)
    if k % 2:
        k += 1
    if ell and 2 + (ell - 1) * (pad + 1) + pad > k - 2:
        raise BodyTooSmall(
            f"body side {k} cannot host {n_glues} pad positions")
    return _Geometry(variant, tau, n_glues, ell, framed, s_len,
                     pad, k, k // 2, 2 * k)


def scale_for(n_glues, tau, variant=STRONG2) -> int:
    """Block scale the compiler will pick for a system of that shape."""
    return _geometry(n_glues, tau, variant).m


def _binding_glue(geo, facing, strength, q):
    if geo.variant == STRONG1:
        return Glue(f"bind:{strength}", strength)
    # STRONG2: inert spacers first, then unit-strength binding cells.
    # Strengths above tau act like tau, so the pad caps there.
    if q < geo.tau - min(strength, geo.tau):
        return None
    label = "bindH" if facing in (NORTH, SOUTH) else "bindV"
    return Glue(label, 1)


# Per side: (swap, outer, flip, rows_flipped, facing).  Arms are built in
# (along, across) coordinates, x and y swapped for north and south.  An
# inner arm (west, south) reaches back into the gap below the body, an
# outer one forward; flip is the peg sub-slot parity, rows_flipped lists
# the far peg row first, and facing is where the strength cells bind.
_ARMS = {
    NORTH: (True, True, 0, False, EAST),
    EAST: (False, True, 1, False, NORTH),
    SOUTH: (True, False, 1, True, WEST),
    WEST: (False, False, 0, False, SOUTH),
}


def _arm_frame(geo, side, j):
    """(step, edge, near) for the side's arm on lane j.

    near is the pad row holding the strength cells, step goes across from
    it toward the backbone, and edge is the along coordinate at which the
    backbone meets the body.
    """
    if _ARMS[side][1]:
        return -1, geo.h + geo.k, geo.lane_row(j) - 1
    return 1, geo.h - 1, geo.lane_row(j)


def _xy(swap, along, across):
    return (across, along) if swap else (along, across)


def _arm_cells(geo, side, index, strength):
    """One arm's cells and binding faces, in the tile's block frame.

    The glue's index in the declared order sits row-major on the
    ell x ell grid: i = index // ell picks the pad slot, j the lane.
    Cells come backbone, tag, pegs, strength cells: tiles are wired in
    this order, so it fixes the universal tile list.
    """
    swap, outer, flip, rows_flipped, facing = _ARMS[side]
    i, j = divmod(index, geo.ell)
    step, edge, near = _arm_frame(geo, side, j)
    start = (geo.h + geo.k if outer else geo.h - geo.k) + geo.pad_offset(i)
    back = range(edge, start + geo.pad) if outer else range(start, edge + 1)
    cells = [(a, near + step) for a in back]
    cells.append((edge - step * (1 + i), near + 2 * step))
    rows = (near - step, near) if rows_flipped else (near, near - step)
    for a in tooth_offsets(start, framed_code(geo.framed, index), flip):
        cells += [(x, row) for row in rows for x in (a, a + 1)]
    faces = {}
    for q in range(geo.s_len):
        a = start + 4 * geo.framed + q
        cells.append((a, near))
        bg = _binding_glue(geo, facing, strength, q)
        if bg is not None:
            faces[_xy(swap, a, near)] = [(facing, bg)]
    return [_xy(swap, a, b) for a, b in cells], faces


def _build_layout(t, tidx, geo, gidx) -> Piece:
    h, k = geo.h, geo.k
    occupied = {}
    faces = {}
    for x in range(h, h + k):
        for y in range(h, h + k):
            occupied[(x, y)] = None
    for side in DIRECTIONS:
        g = t.glue(side)
        if g.strength <= 0:
            continue
        cells, arm_faces = _arm_cells(geo, side, gidx[g], g.strength)
        for xy in cells:
            if xy in occupied:
                raise BodyTooSmall(f"arm cell {xy} of {t.id!r} collides")
            occupied[xy] = None
        faces.update(arm_faces)
    named = {xy: f"m{tidx}.{xy[0]}.{xy[1]}" for xy in occupied}
    return Piece(named, faces)


# layouts: tile id -> Piece
StrongMeta = namedtuple("StrongMeta", ("geo", "glues", "layouts"))


def _read_cells(geo):
    """Where the block check reads, in order: the four lines just outside
    the body, across the block, then the base tag cell of every side,
    lane and slot.  No other macrotile on the grid reaches them."""
    lines, span = (geo.h - 1, geo.h + geo.k), range(geo.m)
    cells = [(x, y) for x in lines for y in span]
    cells += [(x, y) for y in lines for x in span]
    for side, (swap, *_) in _ARMS.items():
        for j in range(geo.ell):
            step, edge, near = _arm_frame(geo, side, j)
            cells += [_xy(swap, edge - step * (1 + i), near + 2 * step)
                      for i in range(geo.ell)]
    return cells


def compile_strong(tas, variant=STRONG2) -> CompiledSimulator:
    """Compile a TAS into a strength-preserving macrotile system.

    The simulator runs at the same temperature.  Initial supertiles map
    to rigid unions of macrotiles on the block grid with their counts
    preserved; no other seed material is added.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown strong variant {variant!r}")
    if tas.tau < 2:
        raise ValueError("macrotile compilation needs temperature >= 2")
    ts = tas.tile_set
    glue_order = ts.glues
    gidx = {g: i for i, g in enumerate(glue_order)}
    geo = _geometry(len(glue_order), tas.tau, variant)
    layouts = {}
    tiles = []
    glues = {}
    for tidx, t in enumerate(ts):
        lay = _build_layout(t, tidx, geo, gidx)
        layouts[t.id] = lay
        tiles.extend(wire_tiles(lay.cells, lay.faces, "i", tas.tau, glues))
    universal = TileSet(tiles)
    meta = StrongMeta(geo, tuple(glue_order), layouts)
    rep = anchored_rep(geo.m, geo.k, geo.h, layouts, _read_cells(geo))
    placed = {tid: piece_supertile(lay, universal) for tid, lay in layouts.items()}
    inputs = [(seed_of([(placed[tid], bx, by) for (bx, by), tid in st.cells.items()],
                       geo.m, universal), count)
              for st, count in tas.initial_state]
    budget = max(len(lay.cells) for lay in layouts.values())
    return CompiledSimulator(variant, tas.tau, universal, inputs, geo.m,
                             rep.anchors, rep, meta,
                             ("productions", "follows", "weak", "strong"),
                             budget)


def rescale_temperature(tas, c) -> TAS:
    """Multiply every glue strength and the temperature by the factor c.

    Binding verdicts are preserved exactly, so the producible sets of the
    two systems agree supertile for supertile.
    """
    if not isinstance(c, int) or isinstance(c, bool) or c < 1:
        raise ValueError(f"rescale factor must be a positive integer, "
                         f"got {c!r}")

    def scale(g):
        return Glue(g.label, g.strength * c) if g.strength > 0 else g

    tiles = [TileType(t.id, north=scale(t.north), east=scale(t.east),
                      south=scale(t.south), west=scale(t.west))
             for t in tas.tile_set]
    state = [(st, count) for st, count in tas.initial_state]
    return TAS(TileSet(tiles), tas.tau * c, state)
