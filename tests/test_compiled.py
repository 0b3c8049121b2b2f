"""Shared compiler building blocks: the anchored block reader and the piece wiring."""

import random

import pytest

from twoham import (TAS, Glue, NegativeStrength, Supertile, TileSet,
                    TileType, UnknownTileId, decode_supertile, explore)
from twoham.compiled import wire_tiles
from twoham.model import DIRECTIONS, OFFSET, OPPOSITE
from twoham.representation import BlockReader, blocks_at
from twoham.strong import STRONG2, compile_strong
from twoham.weak import WEAK1, compile_weak

from oracles import oracle_wire_tiles
from test_acceptance import TARGET_BOUND, suite


def decoding_offsets(s, rep):
    """Every grid offset at which some block of s decodes to a tile."""
    m = rep.m
    return [(ox, oy) for ox in range(m) for oy in range(m)
            if any(rep.decode_block(block) is not None
                   for block in blocks_at(s, m, ox, oy).values())]


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
