"""Shared compiler building blocks: the anchored block reader, the piece
wiring and placement, and the block lemma behind simulator_tas."""

import random

import pytest

from twoham import (INFINITE, TAS, BodyTooSmall, Glue, NegativeStrength,
                    Supertile, TileSet, TileType, UnknownTileId,
                    decode_supertile, explore, is_tau_stable, mincut)
from twoham.compiled import place_piece, wire_tiles
from twoham.model import DIRECTIONS, OFFSET, OPPOSITE
from twoham.representation import BlockReader
from twoham.strong import STRONG2, compile_strong
from twoham.strong import VARIANTS as STRONG_VARIANTS
from twoham.weak import WEAK1, compile_weak
from twoham.weak import VARIANTS as WEAK_VARIANTS

from oracles import oracle_blocks_at, oracle_wire_tiles
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


def test_place_piece_refuses_a_piece_landing_on_a_placed_cell():
    union = {}
    place_piece(union, {(0, 0): "a", (1, 0): "b"}, 4, 0, 0)
    place_piece(union, {(0, 0): "c", (-1, 3): "d"}, 4, 1, 0)
    assert union == {(0, 0): "a", (1, 0): "b", (4, 0): "c", (3, 3): "d"}
    with pytest.raises(BodyTooSmall, match=r"block \(0, 1\)"):
        place_piece(union, {(2, -4): "e", (1, -4): "f"}, 4, 0, 1)


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
