"""Gadget-based macrotile compiler that models a system up to fuzz.

Each tile becomes a solid square megatile whose sides carry a row of
identity teeth: two-cell bumps spelling the tile's index in a framed
binary code.  Bare megatiles are inert; all binding strength lives in
separate free pieces that assemble onto a megatile's side at run time.

A side gadget fits one specific (tile, side) pair: its complement teeth
interlock with that tile's bumps and collide with every other tile's,
so the single shared attachment glue per side cannot misfire.  The
gadget's spine carries a two-by-two peg field spelling the side glue's
index; facing gadgets mesh when the indices agree and collide when they
do not, which is how mismatched interfaces stay unbound without ever
being counted as partial matches.  South and west gadgets carry the
binding cells directly.  North and east gadgets instead expose a
cooperative slot, one strength below temperature, that a free
completion strip finishes against a single-strength tooth on the
megatile itself, so a completion can never attach before its gadget.

The binding cells reproduce the encoded glue's strength in one of three
ways: a single cell of that strength split just under temperature when
it would reach it (weak1), a unit cell per strength point (weak2), or
one cell per binary digit (weak3).  A full interface therefore binds
with exactly the strength of the original glue, while every partial
stack stays strictly below temperature or, where it can close a loop on
its own, forms a harmless strip that later completes the same join.

Megatiles with and without attached side pieces decode to the same
tile: decoding reads the block at its body anchor cell
(compiled.anchored_rep), whose one check reads the megatile body
against the anchored tile's own megatile, and treats everything in the
inter-block gap as fuzz.
That freedom of preimage is the point; the output models the original
system but does not track it step for step.
"""

from __future__ import annotations

from collections import namedtuple

from .compiled import (CompiledSimulator, Piece, anchored_rep, framed_code,
                       piece_supertile, seed_of, tooth_offsets, wire_tiles)
from .model import (DIRECTIONS, EAST, INFINITE, NORTH, OFFSET, OPPOSITE,
                    SOUTH, WEST, Glue, Supertile, TileSet, interaction)

WEAK1 = "weak1"
WEAK2 = "weak2"
WEAK3 = "weak3"
VARIANTS = (WEAK1, WEAK2, WEAK3)

COMPLETION_SIDES = (NORTH, EAST)

# Side-local frames: a runs along the side, b outward from the body edge.
_CELL = {
    NORTH: lambda geo, a, b: (a, geo.d + geo.k + b),
    SOUTH: lambda geo, a, b: (a, geo.d - 1 - b),
    EAST: lambda geo, a, b: (geo.d + geo.k + b, a),
    WEST: lambda geo, a, b: (geo.d - 1 - b, a),
}
_ALONG = {NORTH: EAST, SOUTH: EAST, EAST: NORTH, WEST: NORTH}


_Geometry = namedtuple("_Geometry", (
    "variant", "tau", "n_tiles", "n_glues", "nt", "ng", "span", "slots", "d",
    "x_t", "x_s", "k", "m"))


def _geometry(n_tiles, n_glues, tau, variant) -> _Geometry:
    nt = max(1, (n_tiles - 1).bit_length()) + 2
    ng = max(1, (n_glues - 1).bit_length()) + 2
    span = max(4 * nt, 4 * ng)
    slots = {WEAK1: 2, WEAK2: tau + 1, WEAK3: tau.bit_length() + 1}[variant]
    d = 3
    x_t = d + 2
    # The slot column sits past both code fields, so the completion tooth
    # can never land on an identity bump.
    x_s = x_t + span + 1
    k = span + slots + 7
    return _Geometry(variant, tau, n_tiles, n_glues, nt, ng, span, slots,
                     d, x_t, x_s, k, k + 6)


def scale_for(n_tiles, n_glues, tau, variant=WEAK1) -> int:
    """Block edge length the compiler will use for these parameters."""
    return _geometry(n_tiles, n_glues, tau, variant).m


def _red_glues(geo, gi, strength):
    """Binding cells for one glue: (slot, glue) pairs plus a helper flag.

    Strengths above temperature are clamped; past that point extra
    strength cannot change any binding verdict.  Labels carry the glue
    index: two glues of equal strength must not cross-bind, or a free
    completion for one could park on the other's gadget and jam that
    seam for good.
    """
    c = min(strength, geo.tau)
    if geo.variant == WEAK2:
        return [(i, Glue(f"wsu:{gi}", 1)) for i in range(c)], False
    if geo.variant == WEAK3:
        return [(b, Glue(f"wsp:{gi}:{b}", 1 << b))
                for b in range(c.bit_length()) if (c >> b) & 1], False
    if c < geo.tau:
        return [(0, Glue(f"wsv:{gi}:{c}", c))], False
    # weak1 never exposes a full-temperature cell: the last point comes
    # from a helper pair carried by the two gadgets.
    return [(0, Glue(f"wsv:{gi}:t", geo.tau - 1))], True


def _mega_layout(t, ti, geo) -> Piece:
    cells = {}
    for x in range(geo.d, geo.d + geo.k):
        for y in range(geo.d, geo.d + geo.k):
            cells[(x, y)] = f"w{ti}.{x}.{y}"
    faces = {}
    code = framed_code(geo.nt, ti)
    for side in DIRECTIONS:
        if t.glue(side).strength <= 0:
            continue
        put = _CELL[side]
        for a in tooth_offsets(geo.x_t, code, 0):
            for x, y in (put(geo, a, 0), put(geo, a + 1, 0)):
                cells[(x, y)] = f"w{ti}.{x}.{y}"
        first = put(geo, geo.x_t + 2, 0)
        faces.setdefault(first, []).append(
            (side, Glue("gad" + side, geo.tau)))
        if side in COMPLETION_SIDES:
            x, y = put(geo, geo.x_s, 0)
            cells[(x, y)] = f"w{ti}.{x}.{y}"
            faces.setdefault((x, y), []).append(
                (side, Glue(f"comp{side}1", 1)))
    return Piece(cells, faces)


def _gadget_layout(t, ti, side, gi, geo) -> Piece:
    reds, helper = _red_glues(geo, gi, t.glue(side).strength)
    put = _CELL[side]
    pid = f"g{ti}{side}"
    cells, faces = {}, {}

    def add(a, b):
        xy = put(geo, a, b)
        cells[xy] = f"{pid}.{xy[0]}.{xy[1]}"
        return xy

    for a in tooth_offsets(geo.x_t, framed_code(geo.nt, ti), 1):
        for x in (a, a + 1):
            add(x, 0)
    if side in COMPLETION_SIDES:
        spine_end = geo.x_s
    else:
        spine_end = geo.x_s + max(slot for slot, _ in reds) + 1
    for a in range(geo.x_t, spine_end):
        add(a, 1)
    gcode = framed_code(geo.ng, gi)
    flip = 0 if side in COMPLETION_SIDES else 1
    for a in tooth_offsets(geo.x_t, gcode, flip):
        for x in (a, a + 1):
            add(x, 2)
            add(x, 3)
    attach = put(geo, geo.x_t + 2, 1)
    faces.setdefault(attach, []).append(
        (OPPOSITE[side], Glue("gad" + side, geo.tau)))
    if side in COMPLETION_SIDES:
        spot = put(geo, geo.x_s - 1, 1)
        faces.setdefault(spot, []).append(
            (_ALONG[side], Glue(f"comp{side}:{gi}", geo.tau - 1)))
    else:
        for slot, g in reds:
            xy = add(geo.x_s + slot, 2)
            faces.setdefault(xy, []).append((side, g))
    if helper:
        xy = add(geo.x_s - 1, 2)
        faces.setdefault(xy, []).append((side, Glue(f"wse:{gi}", 1)))
    return Piece(cells, faces)


def _completion_layout(side, gi, strength, geo) -> Piece:
    reds, _ = _red_glues(geo, gi, strength)
    width = max(3, max(slot for slot, _ in reds) + 1)
    put = _CELL[side]
    pid = f"c{side}{gi}"
    cells, faces = {}, {}
    for a in range(geo.x_s, geo.x_s + width):
        xy = put(geo, a, 1)
        cells[xy] = f"{pid}.{xy[0]}.{xy[1]}"
    for slot, g in reds:
        xy = put(geo, geo.x_s + slot, 2)
        cells[xy] = f"{pid}.{xy[0]}.{xy[1]}"
        faces.setdefault(xy, []).append((side, g))
    first = put(geo, geo.x_s, 1)
    faces.setdefault(first, []).append(
        (OPPOSITE[_ALONG[side]], Glue(f"comp{side}:{gi}", geo.tau - 1)))
    faces[first].append((OPPOSITE[side], Glue(f"comp{side}1", 1)))
    return Piece(cells, faces)


def _wire_piece(lay: Piece, prefix, tau):
    # sorted cell order fixes the order of the universal tile list; every
    # piece has a prefix of its own, so it shares no glue with another
    return wire_tiles(dict(sorted(lay.cells.items())), lay.faces, prefix, tau, {})


WeakMeta = namedtuple("WeakMeta", ("geo", "glues", "megas", "gadgets",
                                   "completions"))


def _loaded_union(st, placed, m, ts, gidx, universal) -> Supertile:
    """A seed assembly rebuilt at block scale m with its joins
    pre-assembled.

    Interfaces whose glues actually bind get the full gadget stack on
    both sides; mismatched and exposed faces stay bare, so the union is
    exactly as stable as the original and nothing in it is blocked.
    placed holds the megatiles, gadgets and completions as
    piece_supertile gives them under universal, keyed as in WeakMeta,
    and gidx maps each glue to its index in the glue order.
    """
    megas, gadgets, completions = placed
    pieces = [(megas[tid], bx, by) for (bx, by), tid in st.cells.items()]
    for (bx, by), tid in st.cells.items():
        for side in COMPLETION_SIDES:
            dx, dy = OFFSET[side]
            other = st.cells.get((bx + dx, by + dy))
            if other is None:
                continue
            g = ts.tile(tid).glue(side)
            if interaction(g, ts.tile(other).glue(OPPOSITE[side])) <= 0:
                continue
            pieces += ((gadgets[(tid, side)], bx, by),
                       (completions[(side, gidx[g])], bx, by),
                       (gadgets[(other, OPPOSITE[side])], bx + dx, by + dy))
    return seed_of(pieces, m, universal)


def compile_weak(tas, variant=WEAK1) -> CompiledSimulator:
    """Compile a TAS into a megatile system with run-time side gadgets.

    The output weakly models the source: images and dynamics match, but
    a tile's preimage may or may not carry gadgets on unbound sides, so
    step-for-step tracking is not claimed.  Auxiliary pieces are seeded
    in unlimited supply; seed assemblies keep their counts.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown weak variant {variant!r}")
    if tas.tau < 2:
        raise ValueError("gadget compilation needs temperature >= 2")
    ts = tas.tile_set
    glue_order = ts.glues
    gidx = {g: i for i, g in enumerate(glue_order)}
    geo = _geometry(len(ts.tiles), len(glue_order), tas.tau, variant)
    megas = {}
    gadgets = {}
    tiles = []
    used = {side: set() for side in COMPLETION_SIDES}
    for ti, t in enumerate(ts):
        lay = _mega_layout(t, ti, geo)
        megas[t.id] = lay
        tiles.extend(_wire_piece(lay, f"w{ti}", geo.tau))
        for side in DIRECTIONS:
            g = t.glue(side)
            if g.strength <= 0:
                continue
            glay = _gadget_layout(t, ti, side, gidx[g], geo)
            gadgets[(t.id, side)] = glay
            tiles.extend(_wire_piece(glay, f"g{ti}{side}", geo.tau))
            if side in COMPLETION_SIDES:
                used[side].add(g)
    completions = {}
    for side in COMPLETION_SIDES:
        for g in glue_order:
            if g not in used[side]:
                continue
            clay = _completion_layout(side, gidx[g], g.strength, geo)
            completions[(side, gidx[g])] = clay
            tiles.extend(_wire_piece(clay, f"c{side}{gidx[g]}", geo.tau))
    universal = TileSet(tiles)
    meta = WeakMeta(geo, tuple(glue_order), megas, gadgets, completions)
    # the body, column by column
    span = range(geo.d, geo.d + geo.k)
    rep = anchored_rep(geo.m, geo.k, geo.d, megas,
                       [(x, y) for x in span for y in span])
    placed = tuple({key: piece_supertile(lay, universal) for key, lay in table.items()}
                   for table in (megas, gadgets, completions))
    inputs = [(_loaded_union(st, placed, geo.m, ts, gidx, universal), count)
              for st, count in tas.initial_state]
    for table in placed[1:]:
        inputs += [(seed, INFINITE) for seed, _, _ in table.values()]
    # budget: a megatile plus, on each side, two gadgets and a completion
    mega = max(len(lay.cells) for lay in megas.values())
    gad = max((len(lay.cells) for lay in gadgets.values()), default=0)
    fill = max((len(lay.cells) for lay in completions.values()), default=0)
    return CompiledSimulator(variant, tas.tau, universal, inputs, geo.m,
                             rep.anchors, rep, meta,
                             ("productions", "follows", "weak"),
                             mega + 4 * (2 * gad + fill))

