"""Shared compiler building blocks: the anchored block reader, the piece
wiring and placement, and the block lemma behind simulator_tas."""

import itertools
import random
import re

import pytest

from twoham import (INFINITE, TAS, BodyTooSmall, CorruptMacrotile, Glue,
                    NegativeStrength, Supertile, TileSet, TileType,
                    UnknownTileId, decode_supertile, explore, is_tau_stable,
                    mincut)
from twoham import model
from twoham.compiled import Piece, piece_supertile, seed_of, wire_tiles
from twoham.model import DIRECTIONS, OFFSET, OPPOSITE, packed_rows
from twoham.representation import BlockReader
from twoham.strong import STRONG1, STRONG2, _read_cells, compile_strong
from twoham.strong import VARIANTS as STRONG_VARIANTS
from twoham.weak import WEAK1, WEAK2, compile_weak
from twoham.weak import VARIANTS as WEAK_VARIANTS

from oracles import (oracle_anchored_decode, oracle_blocks_at, oracle_seeds,
                     oracle_wire_tiles)
from test_acceptance import TARGET_BOUND, suite


def decoding_offsets(s, rep):
    """Every grid offset at which some block of s decodes to a tile."""
    m = rep.m
    return [(ox, oy) for ox in range(m) for oy in range(m)
            if any(rep.decode_block(block) is not None
                   for block in oracle_blocks_at(s.cells, m, ox, oy).values())]


@pytest.mark.parametrize("compiler, variant",
                         [(compile_strong, STRONG2), (compile_weak, WEAK1)])
def test_anchor_hint_matches_full_scan(compiler, variant):
    # the hint must name exactly the alignments a full m x m scan decodes
    # at: missing one could hide an ambiguity, an extra one is wasted work;
    # the block reader takes a union's from its parents' instead
    comp = compiler(dict(suite())["pair"], variant)
    sim = explore(comp.simulator_tas(), TARGET_BOUND * comp.budget)
    reader = BlockReader(comp.rep)
    decoded = 0
    for s in sim.members():
        offsets = comp.rep.offsets_for(s)
        assert offsets == decoding_offsets(s, comp.rep), s.fingerprint
        assert reader.offsets(s) == offsets, s.fingerprint
        if offsets:
            decoded += 1
            assert decode_supertile(s, comp.rep).offset == offsets[0]
    assert decoded >= 3, decoded


def test_wire_tiles_share_one_glue_per_adjacency():
    """Wired through a fresh glue table, the two tiles of an interior
    adjacency hold one Glue object; every side is the per-side formula
    of the oracle, and outward faces override.  A system over the wired tiles names the first unknown id
    of an initial supertile in cell order."""
    rng = random.Random(2718)
    shared = 0
    for trial in range(40):
        spots = [(x, y) for x in range(6) for y in range(5)]
        rng.shuffle(spots)
        cells = {xy: f"u{i}" for i, xy in enumerate(spots[:rng.randint(1, 30)])}
        faces = {}
        for xy in cells:
            for d in DIRECTIONS:
                dx, dy = OFFSET[d]
                if (xy[0] + dx, xy[1] + dy) not in cells and rng.random() < 0.3:
                    faces.setdefault(xy, []).append(
                        (d, Glue(f"f{rng.randint(0, 2)}", rng.randint(1, 2))))
        tiles = wire_tiles(cells, faces, f"p{trial}", 2, {})
        assert [tuple(t) for t in tiles] == oracle_wire_tiles(cells, faces, f"p{trial}", 2)
        by_xy = dict(zip(cells, tiles))
        for (x, y), t in by_xy.items():
            for d, g in faces.get((x, y), ()):
                assert t.glue(d) is g
            for d in DIRECTIONS:
                dx, dy = OFFSET[d]
                other = by_xy.get((x + dx, y + dy))
                if other is not None:
                    assert t.glue(d) is other.glue(OPPOSITE[d])
                    shared += 1
    assert shared >= 500, shared

    ts = TileSet(tiles)
    for unknown in ({(0, 0): tiles[0].id, (1, 0): "zz9", (2, 0): "zz1"},
                    {(0, 0): "zz9", (0, 1): "zz1"}):
        with pytest.raises(UnknownTileId, match="'zz9'"):
            TAS(ts, 2, [(unknown, 1)])
        with pytest.raises(UnknownTileId, match="'zz9'"):
            Supertile(unknown).faces(ts)


def random_piece(rng, width, height):
    """Random cells on a width x height grid, with outward faces on some
    sides that face no cell."""
    spots = [(x, y) for x in range(width) for y in range(height)]
    rng.shuffle(spots)
    cells = {xy: f"u{i}" for i, xy in enumerate(spots[:rng.randint(1, len(spots))])}
    faces = {}
    for xy in cells:
        for d in DIRECTIONS:
            dx, dy = OFFSET[d]
            if (xy[0] + dx, xy[1] + dy) not in cells and rng.random() < 0.3:
                faces.setdefault(xy, []).append(
                    (d, Glue(f"f{rng.randint(0, 2)}", rng.randint(1, 2))))
    return cells, faces


def test_wire_tiles_build_each_glue_once_per_table():
    """Pieces wired through one glue table, as one compilation wires
    them: each piece is the oracle's, the same adjacency under the same
    prefix and strength is one Glue object across pieces, and the same
    coordinates under another prefix or strength get glues of their own,
    which a table keyed on coordinates alone would not give."""
    rng = random.Random(1618)
    glues = {}
    wired = {}  # (prefix, strength, x, y, orientation) -> Glue
    reused = 0
    for _ in range(60):
        cells, faces = random_piece(rng, 5, 4)
        prefix, strength = rng.choice(("i", "w0")), rng.choice((2, 3))
        tiles = wire_tiles(cells, faces, prefix, strength, glues)
        assert [tuple(t) for t in tiles] == oracle_wire_tiles(cells, faces, prefix, strength)
        for (x, y), t in zip(cells, tiles):
            assert type(t) is TileType and all(type(g) is Glue for g in t[1:])
            for d, o, nb in (("N", "v", (x, y + 1)), ("E", "h", (x + 1, y))):
                if nb not in cells:
                    continue
                key = (prefix, strength, x, y, o)
                if key in wired:
                    assert t.glue(d) is wired[key]
                    reused += 1
                else:
                    wired[key] = t.glue(d)
    assert reused >= 400, reused
    by_place = {}
    for (_, _, x, y, o), g in wired.items():
        by_place.setdefault((x, y, o), []).append(g)
    assert all(len(set(map(id, gs))) == len(set(gs)) == len(gs)
               for gs in by_place.values())
    assert sum(len(gs) == 4 for gs in by_place.values()) >= 25


@pytest.mark.parametrize("strength", [-1, True, False, 2.0, "2", None])
def test_wire_tiles_reject_a_bad_strength_once_per_call(strength):
    """The strength is checked once per call, before the table is read,
    so a lone cell with no adjacency and a table already holding the
    equal int strength still raise."""
    glues = {}
    wire_tiles({(0, 0): "a", (1, 0): "b"}, {}, "i", 1, glues)
    wire_tiles({(0, 0): "a", (1, 0): "b"}, {}, "i", 0, glues)
    for cells in ({(0, 0): "a"}, {(0, 0): "a", (1, 0): "b"}):
        with pytest.raises(NegativeStrength):
            wire_tiles(cells, {}, "i", strength, glues)
        with pytest.raises(NegativeStrength):
            wire_tiles(cells, {}, "i", strength, {})


def test_seed_of_refuses_a_piece_landing_on_a_placed_cell():
    """seed_of places each piece at its block, a piece left of or below
    the first one too, and refuses one that lands on a placed cell,
    naming its block."""
    ts = TileSet(TileType(t) for t in "abcdef")

    def piece(cells):
        return piece_supertile(Piece(cells, {}), ts)

    ab, cd = piece({(0, 0): "a", (1, 0): "b"}), piece({(0, 0): "c", (-1, 3): "d"})
    assert seed_of([(ab, 0, 0), (cd, 1, 0)], 4, ts).cells == {
        (0, 0): "a", (1, 0): "b", (4, 0): "c", (3, 3): "d"}
    assert seed_of([(cd, 1, 1), (ab, 0, 0)], 4, ts).cells == {
        (4, 4): "c", (3, 7): "d", (0, 0): "a", (1, 0): "b"}
    ef = piece({(2, -4): "e", (1, -4): "f"})
    with pytest.raises(BodyTooSmall, match=r"a piece placed at block \(0, 1\) "
                                           r"lands on a placed cell"):
        seed_of([(ab, 0, 0), (cd, 1, 0), (ef, 0, 1)], 4, ts)


def rescaled(tas, tau):
    """tas at temperature tau, each strength s made ceil(s * tau / tas.tau):
    a cut that reached tas.tau then reaches tau, so every seed stays
    stable (the validating TAS constructor checks it)."""
    def scale(g):
        return Glue(g.label, -(-g.strength * tau // tas.tau)) if g.strength else g

    ts = TileSet(TileType(t.id, *map(scale, t[1:])) for t in tas.tile_set)
    return TAS(ts, tau, list(tas.initial_state))


def seeded_systems():
    """The suite at tau 2 plus two systems with multi-tile seeds: the
    mismatch square preformed as one 4-tile seed, and a 2 x 2 cycle held
    only by strength-1 glues, whose compiled seed no full-strength bond
    holds together, so its light cuts are weighed."""
    systems = dict(suite())
    square = systems["mismatch-square"]
    whole = Supertile({(0, 0): "A", (1, 0): "B", (1, 1): "C", (0, 1): "D"})
    systems["preformed-square"] = TAS(square.tile_set, 2, [(whole, 2)])
    a, b, c, d = (Glue(label, 1) for label in "abcd")
    cycle = TileSet((TileType("SW", north=b, east=a), TileType("SE", north=c, west=a),
                     TileType("NE", south=c, west=d), TileType("NW", south=b, east=d)))
    ring = Supertile({(0, 0): "SW", (1, 0): "SE", (1, 1): "NE", (0, 1): "NW"})
    systems["light-cycle"] = TAS(cycle, 2, [(ring, INFINITE)])
    return systems


def pieces(comp):
    if comp.variant in STRONG_VARIANTS:
        return list(comp.meta.layouts.values())
    meta = comp.meta
    return [*meta.megas.values(), *meta.gadgets.values(), *meta.completions.values()]


@pytest.mark.parametrize("compiler, variant",
                         [(compile_strong, v) for v in STRONG_VARIANTS]
                         + [(compile_weak, v) for v in WEAK_VARIANTS])
def test_block_lemma_against_the_checking_path(compiler, variant, monkeypatch):
    """The block lemma of twoham.compiled, with the validating path as its
    oracle: every piece is 4-connected with outward faces, every compiled
    seed is tau-stable over universal tile ids, and simulator_tas, which
    checks neither, lists the same seeds, in the same order with the same
    counts, as the validating TAS constructor."""
    cuts = []
    stability_cut_ok = mincut.stability_cut_ok

    def counted_cut(adj, tau):
        cuts.append(tau)
        return stability_cut_ok(adj, tau)

    monkeypatch.setattr(mincut, "stability_cut_ok", counted_cut)
    seeds = 0
    for tau in (2, 3, 4):
        for name, tas in seeded_systems().items():
            comp = compiler(rescaled(tas, tau), variant)
            for lay in pieces(comp):
                start = next(iter(lay.cells))
                reached, stack = {start}, [start]
                while stack:
                    x, y = stack.pop()
                    for dx, dy in OFFSET.values():
                        nb = (x + dx, y + dy)
                        if nb in lay.cells and nb not in reached:
                            reached.add(nb)
                            stack.append(nb)
                assert len(reached) == len(lay.cells), (name, tau)
                for (x, y), shown in lay.faces.items():
                    for d, _ in shown:
                        dx, dy = OFFSET[d]
                        assert (x + dx, y + dy) not in lay.cells, (name, tau)
            universal = comp.universal_tiles
            ids = {t.id for t in universal}
            for st, _ in comp.input_supertiles:
                assert set(st.cells.values()) <= ids, (name, tau)
                assert is_tau_stable(st.cells, universal, comp.tau), (name, tau)
                seeds += 1
            trusted = comp.simulator_tas().initial_state
            checked = TAS(universal, comp.tau, list(comp.input_supertiles)).initial_state
            assert len(trusted) == len(checked), (name, tau)
            for (st, count), (want, want_count) in zip(trusted, checked):
                assert st is want and count == want_count, (name, tau)
    assert seeds >= 15 and cuts, (seeds, cuts)


@pytest.mark.parametrize("compiler, variant",
                         [(compile_strong, v) for v in STRONG_VARIANTS]
                         + [(compile_weak, v) for v in WEAK_VARIANTS])
def test_seeds_built_from_pieces_match_the_merged_dict_oracle(compiler, variant):
    """Every compiled seed equals oracles.oracle_seeds' merged-dict build
    in key, size, rows, sorted cells and count, and simulator_tas lists
    them in the same order; every piece's declared face table, and every
    seed's faces, are the table model._row_faces reads off its rows."""
    for tau in (2, 3, 4):
        for name, tas in seeded_systems().items():
            tas = rescaled(tas, tau)
            comp = compiler(tas, variant)
            universal = comp.universal_tiles
            want = oracle_seeds(comp, tas)
            assert len(comp.input_supertiles) == len(want), (name, tau)
            for (st, count), (w, w_count) in zip(comp.input_supertiles, want):
                assert (st.key, st.size, st.rows, sorted(st.cells.items()),
                        count) == (w.key, w.size, w.rows,
                                   sorted(w.cells.items()), w_count), (name, tau)
            got = comp.simulator_tas().initial_state
            ordered = TAS(universal, comp.tau, want).initial_state
            assert [(st.rows, c) for st, c in got] == [(st.rows, c) for st, c in ordered]
            built = [piece_supertile(lay, universal)[0] for lay in pieces(comp)]
            for st in built + [st for st, _ in comp.input_supertiles]:
                assert st.faces(universal) == model._row_faces(
                    st.rows, st.width, universal), (name, tau)


# -- the one block check --------------------------------------------------

# A shows a north and an east arm, C a south and an east one, so A has no
# west arm; the three glues put a tile's glue b on lane 1 and slot 0, and
# (lane 1, slot 1) would be glue 3, past the glue count
A_TO_D = TAS(TileSet((
    TileType("A", north=Glue("a", 2), east=Glue("b", 2)),
    TileType("B", west=Glue("b", 2)),
    TileType("C", south=Glue("a", 2), east=Glue("c", 2)),
    TileType("D", west=Glue("c", 2)))), 2)


def own_blocks(comp):
    """Each tile's own macrotile cut to its m x m block, by tile id."""
    m = comp.m
    lays = comp.meta.layouts if comp.variant in STRONG_VARIANTS else comp.meta.megas
    return {tid: {(x, y): uid for (x, y), uid in lay.cells.items()
                  if 0 <= x < m and 0 <= y < m}
            for tid, lay in lays.items()}


def strong_corruptions(comp, blocks):
    """(class, block, cell) for A's block corrupted each way the arm
    geometry allows, with the cell the check must name: the first one,
    in its reading order (the lines outside the body, then the tags),
    that differs from A's own.  Coordinates follow the strong module
    docstring."""
    geo = comp.meta.geo
    assert comp.meta.glues == (Glue("a", 2), Glue("b", 2), Glue("c", 2))
    h, k = geo.h, geo.k
    lane = geo.lane_row
    a, b = blocks["A"], blocks["B"]
    east_base, east_tag = (h + k, lane(1) - 2), (h + k + 1, lane(1) - 3)
    north_tag = (lane(0) - 3, h + k + 1)
    assert a[east_base] and a[east_tag] and a[north_tag]
    cases = []

    def corrupt(name, at, put=(), drop=()):
        block = dict(a)
        block.update(put)
        for xy in drop:
            del block[xy]
        cases.append((name, block, at))

    # B's anchor: the block reads as B, whose west backbone base is the
    # first cell of the west line that A lacks
    west_base = (h - 1, lane(1) + 1)
    corrupt("foreign body cell", west_base, put=[((h, h), b[(h, h)])])
    corrupt("extra backbone on a side without an arm", (h - 1, lane(0) + 1),
            put=[((h - 1, lane(0) + 1), b[west_base])])
    corrupt("base off every lane", (h + k, h),
            put=[((h + k, h), a[east_base])], drop=[east_base])
    corrupt("missing tag", east_tag, drop=[east_tag])
    corrupt("doubled tag", (north_tag[0], north_tag[1] + 1),
            put=[((north_tag[0], north_tag[1] + 1), a[north_tag])])
    # moved to slot 1 on lane 1: the empty slot 0 reads first
    corrupt("tag past the glue count", east_tag,
            put=[((east_tag[0] + 1, east_tag[1]), a[east_tag])], drop=[east_tag])
    return cases


def weak_corruptions(comp, blocks):
    """(class, block, cell) for A's block with foreign body cells; the
    check reads the body column by column."""
    d = comp.meta.geo.d
    a, b = blocks["A"], blocks["B"]
    anchor = dict(a)
    anchor[(d, d)] = b[(d, d)]
    inner = dict(a)
    inner[(d + 2, d + 1)] = b[(d + 2, d + 1)]
    return [("foreign body cell", anchor, (d, d + 1)),
            ("foreign body cell", inner, (d + 2, d + 1))]


@pytest.mark.parametrize("compiler, variant",
                         [(compile_strong, v) for v in STRONG_VARIANTS]
                         + [(compile_weak, v) for v in WEAK_VARIANTS])
def test_the_block_check_names_the_cell_each_corruption_differs_at(compiler, variant):
    """Each tile's own macrotile decodes to its tile, and each corruption
    of A's raises CorruptMacrotile naming the cell where it differs."""
    comp = compiler(A_TO_D, variant)
    blocks = own_blocks(comp)
    assert sorted(blocks) == list("ABCD")
    for tid, block in blocks.items():
        assert comp.rep.decode_block(block) == tid
    strong = compiler is compile_strong
    cases = (strong_corruptions if strong else weak_corruptions)(comp, blocks)
    assert len(cases) == (6 if strong else 2)
    for _, block, xy in cases:
        with pytest.raises(CorruptMacrotile,
                           match=re.escape(f"foreign cells at {xy}") + "$"):
            comp.rep.decode_block(block)


def block_check(comp):
    """(k, corner, pieces, coords) of comp's block check, read off the
    compiler's geometry: strong reads strong._read_cells, weak its
    megatile body column by column."""
    geo = comp.meta.geo
    if comp.variant in STRONG_VARIANTS:
        return geo.k, geo.h, comp.meta.layouts, _read_cells(geo)
    span = range(geo.d, geo.d + geo.k)
    return geo.k, geo.d, comp.meta.megas, [(x, y) for x in span for y in span]


def block_outcome(decode, block):
    """decode(block), or the message of the CorruptMacrotile it raises."""
    try:
        return decode(block)
    except CorruptMacrotile as exc:
        return ("CorruptMacrotile", str(exc))


FRESH_IDS = (f"never-interned-{n}" for n in itertools.count())


def with_cell(win, xy, uid):
    """The window win with cell xy emptied, then holding uid unless uid
    is None."""
    x, y = xy
    rows = list(win)
    rows[y] &= ~(0xFFFFFFFF << (x << 5))
    if uid is not None:
        rows[y] |= packed_rows({(x, 0): uid}, 1)[0]
    return tuple(rows)


def every_read_cell_is_checked(compiler, variant):
    """A's own block, changed at each cell the check reads to another
    piece's id, to an id never interned, and to no cell; each body cell
    removed; a non-anchor id at the corner.  The window decoder reads
    each changed window as the dict oracle reads the changed block, and
    a changed cell outside the body, or in it off the corner, is the
    cell it names."""
    comp = compiler(A_TO_D, variant)
    k, corner, pieces, coords = block_check(comp)
    oracle = oracle_anchored_decode(k, corner, pieces, coords)
    a, b = (own_blocks(comp)[t] for t in "AB")
    base = packed_rows(a, comp.m)
    body = {(x, y) for x in range(corner, corner + k)
            for y in range(corner, corner + k)}

    def expect(xy, uid, want):
        block = dict(a)
        block.pop(xy, None)
        if uid is not None:
            block[xy] = uid
        got = block_outcome(comp.rep.decode_window, with_cell(base, xy, uid))
        assert got == block_outcome(oracle, block) == want, (variant, xy, got)

    assert comp.rep.decode_window(base) == oracle(a) == "A"
    cases = 0
    for xy in dict.fromkeys(coords):
        fresh = next(FRESH_IDS)
        assert fresh not in model._CODES
        other = b.get(xy, b[(corner, corner)])
        assert other != a.get(xy)
        for uid in [other, fresh] + ([None] if xy in a else []):
            if uid is None and xy in body:
                want = None
            elif xy != (corner, corner):
                want = ("CorruptMacrotile",
                        f"block mixes 'A' with foreign cells at {xy}")
            elif uid is fresh:
                want = ("CorruptMacrotile",
                        "body anchor cell is no macrotile anchor")
            else:
                # B's anchor: the block reads as B, and differs from B's
                # own piece where the oracle says
                want = block_outcome(oracle, {**a, xy: uid})
                assert want[0] == "CorruptMacrotile", want
            expect(xy, uid, want)
            cases += 1
    for xy in body:
        expect(xy, None, None)
    expect((corner, corner), a[(corner + 1, corner)],
           ("CorruptMacrotile", "body anchor cell is no macrotile anchor"))
    assert cases >= 2 * len(set(coords)), cases


READ_CELL_METHODS = [(compile_strong, STRONG2), (compile_strong, STRONG1),
                     (compile_weak, WEAK2)]


@pytest.mark.parametrize("compiler, variant", READ_CELL_METHODS)
def test_every_cell_the_block_check_reads_is_checked(compiler, variant):
    every_read_cell_is_checked(compiler, variant)


@pytest.mark.parametrize("compiler, variant", READ_CELL_METHODS)
def test_every_read_cell_is_checked_under_colliding_keys(compiler, variant,
                                                         colliding_keys):
    every_read_cell_is_checked(compiler, variant)
