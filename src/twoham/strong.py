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
and h = k/2:

* a glue with index g in the declared order gets grid coordinates
  (i, j) = (g // L, g % L) where L = ceil(sqrt(|G|)); j picks the lane
  and i picks the pad slot x_p = 2 + i*(P + 1) along the gap.
* horizontal lanes (east/west arms) use row r = h + 3 + 6j.  A west arm
  runs its backbone on row r+1 with its surface on row r and its tag at
  (h-2-i, r+2); an east arm mirrors below with backbone row r-2, surface
  row r-1 and tag at (h+k+1+i, r-3).  Pegs of both arms contest rows
  {r-1, r}.
* vertical lanes (north/south arms) use column c = h + 2 + 6j, the same
  picture transposed: north like east (backbone c-1, surface c, tag
  (c-2, h+k+1+i)), south like west (backbone c+2, surface c+1, tag
  (c+3, h-2-i)); pegs contest columns {c, c+1}.
* west and south arms extend k - x_p cells from the body, east and north
  arms x_p + P cells, so both pads cover the same gap interval
  [x_p, x_p + P) and meet exactly at the one-block offset.
* the peg code is the glue index framed as 1 <bits> 0, one 2x2 peg per
  bit occupying one of two sub-slots: the first sub-slot for the bit
  value on west/north arms, the second on east/south arms.  The framed
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
which names the simulated tile.  The arms must agree with it: each
side's backbone base cell (its lane gives j) and base tag (its distance
gives i) spell a glue, and a glue 4-tuple that does not belong to the
anchor's tile is reported as a corrupt macrotile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compiled import (CompiledSimulator, Piece, anchored_rep, framed_code,
                       wire_tiles)
from .errors import BodyTooSmall, CorruptMacrotile
from .model import (EAST, NORTH, NULL_GLUE, SOUTH, WEST, Glue, Supertile,
                    TAS, TileSet, TileType)

STRONG2 = "strong2"
STRONG1 = "strong1"
VARIANTS = (STRONG2, STRONG1)


def _side_count(n):
    # smallest L with L*L >= n
    if n <= 0:
        return 0
    return math.isqrt(n - 1) + 1


@dataclass(frozen=True)
class _Geometry:
    variant: str
    tau: int
    n_glues: int
    ell: int
    framed: int
    s_len: int
    pad: int
    k: int
    h: int
    m: int

    def pad_offset(self, i):
        return 2 + i * (self.pad + 1)

    def lane_row(self, j):
        return self.h + 3 + 6 * j

    def lane_col(self, j):
        return self.h + 2 + 6 * j


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


def _arm_cells(geo, side, index, strength):
    """One arm's cells and binding faces, in the tile's block frame.

    The glue's index in the declared order sits row-major on the
    ell x ell grid: i = index // ell picks the pad slot, j the lane.
    """
    i, j = divmod(index, geo.ell)
    xp = geo.pad_offset(i)
    k, h = geo.k, geo.h
    code = framed_code(geo.framed, index)
    cells = []
    binding = []
    if side == WEST:
        r = geo.lane_row(j)
        for xi in range(xp, k):
            cells.append((h - k + xi, r + 1))
        cells.append((h - 2 - i, r + 2))
        for b, v in enumerate(code):
            base = h - k + xp + 4 * b + 2 * v
            cells += [(base, r), (base + 1, r), (base, r - 1), (base + 1, r - 1)]
        for q in range(geo.s_len):
            x = h - k + xp + 4 * geo.framed + q
            cells.append((x, r))
            binding.append((x, r, SOUTH, q))
    elif side == EAST:
        r = geo.lane_row(j)
        for xi in range(xp + geo.pad):
            cells.append((h + k + xi, r - 2))
        cells.append((h + k + 1 + i, r - 3))
        for b, v in enumerate(code):
            base = h + k + xp + 4 * b + 2 * (1 - v)
            cells += [(base, r - 1), (base + 1, r - 1), (base, r), (base + 1, r)]
        for q in range(geo.s_len):
            x = h + k + xp + 4 * geo.framed + q
            cells.append((x, r - 1))
            binding.append((x, r - 1, NORTH, q))
    elif side == NORTH:
        c = geo.lane_col(j)
        for eta in range(xp + geo.pad):
            cells.append((c - 1, h + k + eta))
        cells.append((c - 2, h + k + 1 + i))
        for b, v in enumerate(code):
            base = h + k + xp + 4 * b + 2 * v
            cells += [(c, base), (c, base + 1), (c + 1, base), (c + 1, base + 1)]
        for q in range(geo.s_len):
            y = h + k + xp + 4 * geo.framed + q
            cells.append((c, y))
            binding.append((c, y, EAST, q))
    else:
        c = geo.lane_col(j)
        for eta in range(xp, k):
            cells.append((c + 2, h - k + eta))
        cells.append((c + 3, h - 2 - i))
        for b, v in enumerate(code):
            base = h - k + xp + 4 * b + 2 * (1 - v)
            cells += [(c, base), (c, base + 1), (c + 1, base), (c + 1, base + 1)]
        for q in range(geo.s_len):
            y = h - k + xp + 4 * geo.framed + q
            cells.append((c + 1, y))
            binding.append((c + 1, y, WEST, q))
    faces = {}
    for (x, y, facing, q) in binding:
        bg = _binding_glue(geo, facing, strength, q)
        if bg is not None:
            faces[(x, y)] = [(facing, bg)]
    return cells, faces


def _sides(t):
    return ((NORTH, t.north), (EAST, t.east), (SOUTH, t.south), (WEST, t.west))


def _build_layout(t, tidx, geo, gidx) -> Piece:
    h, k = geo.h, geo.k
    occupied = {}
    faces = {}
    for x in range(h, h + k):
        for y in range(h, h + k):
            occupied[(x, y)] = None
    for side, g in _sides(t):
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


@dataclass
class StrongMeta:
    geo: _Geometry
    glues: tuple
    signatures: dict     # tile id -> normalized glue 4-tuple
    layouts: dict        # tile id -> Piece


def _signature(t):
    return tuple(g if g.strength > 0 else NULL_GLUE
                 for _, g in _sides(t))


def _read_arm(block, meta, side, bases):
    if not bases:
        return NULL_GLUE
    if len(bases) > 1:
        raise CorruptMacrotile(
            f"{side}: {len(bases)} arm backbones meet the body")
    geo = meta.geo
    h, k, ell = geo.h, geo.k, geo.ell
    pos = bases[0]
    if side == WEST:
        j, rem = divmod(pos - h - 4, 6)
        tags = [i for i in range(ell) if (h - 2 - i, pos + 1) in block]
    elif side == EAST:
        j, rem = divmod(pos - h - 1, 6)
        tags = [i for i in range(ell) if (h + k + 1 + i, pos - 1) in block]
    elif side == NORTH:
        j, rem = divmod(pos - h - 1, 6)
        tags = [i for i in range(ell) if (pos - 1, h + k + 1 + i) in block]
    else:
        j, rem = divmod(pos - h - 4, 6)
        tags = [i for i in range(ell) if (pos + 1, h - 2 - i) in block]
    if rem or not 0 <= j < ell:
        raise CorruptMacrotile(
            f"{side}: backbone base at {pos} matches no lane")
    if len(tags) != 1:
        raise CorruptMacrotile(
            f"{side}: expected one base tag, found {len(tags)}")
    index = tags[0] * ell + j
    if index >= geo.n_glues:
        raise CorruptMacrotile(
            f"{side}: pad slot {tags[0]} on lane {j} is past the glue count")
    return meta.glues[index]


def _check_arms(block, tid, meta):
    """tid when the block's arms spell the glues of tile tid.

    Runs on a block whose body is complete and anchored at tid; raises
    CorruptMacrotile when the arms do not add up or belong to another
    tile.
    """
    h, k = meta.geo.h, meta.geo.k
    west, east, north, south = [], [], [], []
    for (x, y) in block:
        if x == h - 1:
            west.append(y)
        elif x == h + k:
            east.append(y)
        if y == h + k:
            north.append(x)
        elif y == h - 1:
            south.append(x)
    sig = (_read_arm(block, meta, NORTH, north),
           _read_arm(block, meta, EAST, east),
           _read_arm(block, meta, SOUTH, south),
           _read_arm(block, meta, WEST, west))
    if sig != meta.signatures[tid]:
        raise CorruptMacrotile(
            f"arms decode to {[g.label for g in sig]} which does not "
            f"match the body of {tid!r}")
    return tid


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
    anchors = {}
    for tidx, t in enumerate(ts):
        lay = _build_layout(t, tidx, geo, gidx)
        layouts[t.id] = lay
        anchors[lay.cells[(geo.h, geo.h)]] = t.id
        tiles.extend(wire_tiles(lay.cells, lay.faces, "i", tas.tau))
    universal = TileSet(tiles)
    signatures = {t.id: _signature(t) for t in ts}
    meta = StrongMeta(geo, tuple(glue_order), signatures, layouts)
    rep = anchored_rep(geo.m, geo.k, geo.h, anchors,
                       lambda block, tid: _check_arms(block, tid, meta))
    inputs = []
    for st, count in tas.initial_state:
        union = {}
        for (x, y), tid in st.cells.items():
            lay = layouts[tid]
            dx, dy = geo.m * x, geo.m * y
            for (cx, cy), uid in lay.cells.items():
                union[(cx + dx, cy + dy)] = uid
        inputs.append((Supertile(union), count))
    budget = max(len(lay.cells) for lay in layouts.values())
    return CompiledSimulator(variant, tas.tau, universal, inputs, geo.m,
                             anchors, rep, meta,
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
