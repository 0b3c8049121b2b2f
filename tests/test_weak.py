import re

import pytest

from twoham import (TAS, Glue, INFINITE, Supertile, TileSet, TileType,
                    CorruptMacrotile)
from twoham.dynamics import explore
from twoham.model import (DIRECTIONS, EAST, NORTH, SOUTH, WEST, combination_offsets,
                          combine, interface_strength, is_tau_stable)
from twoham.relations import (check_equivalent_productions, check_follows,
                              check_strongly_models, check_weakly_models,
                              decode_producibles)
from twoham.representation import decode_supertile
from twoham.weak import WEAK1, WEAK2, WEAK3, compile_weak, scale_for

VARIANTS = (WEAK1, WEAK2, WEAK3)


def vertical_pair(strength=2, tau=2):
    ts = TileSet((
        TileType("A", north=Glue("g", strength)),
        TileType("B", south=Glue("g", strength)),
    ))
    return TAS(ts, tau)


def mega(comp, tid):
    return Supertile(comp.meta.megas[tid].cells)


def gadget(comp, tid, side):
    return Supertile(comp.meta.gadgets[(tid, side)].cells)


def completion(comp, side, glue):
    gi = comp.meta.glues.index(glue)
    return Supertile(comp.meta.completions[(side, gi)].cells)


def only(items):
    assert len(items) == 1, f"expected exactly one, got {len(items)}"
    return items[0]


def grown(comp, tid, side, glue):
    """Megatile with the full stack attached on one completion side."""
    uts = comp.universal_tiles
    tau = comp.tau
    stack = only(combine(mega(comp, tid), gadget(comp, tid, side), uts, tau))
    return only(combine(stack, completion(comp, side, glue), uts, tau))


def test_geometry_scale_and_emission_counts():
    comp = compile_weak(vertical_pair(), WEAK1)
    geo = comp.meta.geo
    assert (geo.nt, geo.ng, geo.span, geo.x_s) == (3, 3, 12, 18)
    assert geo.k == 21 and comp.m == 27
    assert scale_for(2, 1, 2, WEAK1) == comp.m
    assert scale_for(2, 1, 2, WEAK2) == comp.m + 1
    # two megatiles, one gadget per used side, one completion for the
    # single north-facing glue
    assert len(comp.input_supertiles) == 5

    quad = TileType("Q", north=Glue("a", 2), east=Glue("b", 2),
                    south=Glue("c", 2), west=Glue("d", 2))
    comp = compile_weak(TAS(TileSet([quad]), 2), WEAK1)
    assert len(comp.input_supertiles) == 1 + 4 + 2


def test_compile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        compile_weak(TAS(TileSet([TileType("A")]), 1), WEAK1)
    with pytest.raises(ValueError):
        compile_weak(vertical_pair(), "weak4")


def test_bare_megatiles_are_inert():
    comp = compile_weak(vertical_pair(), WEAK1)
    a, b = mega(comp, "A"), mega(comp, "B")
    assert combine(a, b, comp.universal_tiles, comp.tau) == []
    # they can still sit on the grid without colliding
    union = dict(a.cells)
    for (x, y), uid in b.cells.items():
        assert (x, y + comp.m) not in union
        union[(x, y + comp.m)] = uid
    assert len(union) == a.size + b.size


def test_gadget_fits_its_own_tile_only():
    ts = TileSet((
        TileType("A", north=Glue("g", 2)),
        TileType("B", north=Glue("g", 2)),
    ))
    comp = compile_weak(TAS(ts, 2), WEAK1)
    gad = gadget(comp, "A", NORTH)
    uts = comp.universal_tiles
    assert combine(gad, mega(comp, "B"), uts, 2) == []
    child = only(combine(gad, mega(comp, "A"), uts, 2))
    assert child.size == gad.size + mega(comp, "A").size


def test_completion_needs_gadget_and_tooth_in_order():
    comp = compile_weak(vertical_pair(), WEAK1)
    uts = comp.universal_tiles
    comp_piece = completion(comp, NORTH, Glue("g", 2))
    gad = gadget(comp, "A", NORTH)
    # neither the bare megatile (1 < tau) nor the free gadget (tau-1)
    # offers enough on its own
    assert combine(comp_piece, mega(comp, "A"), uts, 2) == []
    assert combine(comp_piece, gad, uts, 2) == []
    stack = only(combine(mega(comp, "A"), gad, uts, 2))
    full = only(combine(stack, comp_piece, uts, 2))
    assert full.size == stack.size + comp_piece.size


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("strength", (1, 2))
def test_interface_reproduces_strength_exactly(variant, strength):
    tas = vertical_pair(strength=strength)
    comp = compile_weak(tas, variant)
    uts = comp.universal_tiles
    a_full = grown(comp, "A", NORTH, Glue("g", strength))
    b_stack = only(combine(mega(comp, "B"), gadget(comp, "B", SOUTH), uts, 2))
    # at threshold 1 exactly one placement touches; its seam carries the
    # encoded strength and nothing else
    placements = combination_offsets(a_full, b_stack, uts, 1)
    assert len(placements) == 1
    (offset, child), = placements
    assert interface_strength(a_full, b_stack, uts, offset) == strength
    bound = combine(a_full, b_stack, uts, comp.tau)
    if strength >= comp.tau:
        assert [c.fingerprint for c in bound] == [child.fingerprint]
        img = decode_supertile(child, comp.rep)
        assert img.clean
        assert img.supertile.cells == {(0, 0): "A", (0, 1): "B"}
    else:
        assert bound == []


def test_mismatched_interfaces_stay_apart():
    ts = TileSet((
        TileType("A", north=Glue("g", 2)),
        TileType("B", south=Glue("h", 2)),
    ))
    comp = compile_weak(TAS(ts, 2), WEAK1)
    uts = comp.universal_tiles
    a_full = grown(comp, "A", NORTH, Glue("g", 2))
    b_stack = only(combine(mega(comp, "B"), gadget(comp, "B", SOUTH), uts, 2))
    # the peg fields collide at the aligned offset and nothing matches
    # anywhere else, even at threshold 1
    assert combination_offsets(a_full, b_stack, uts, 1) == []


def test_weak1_leaves_no_red_junk():
    comp = compile_weak(vertical_pair(strength=2), WEAK1)
    uts = comp.universal_tiles
    free_comp = completion(comp, NORTH, Glue("g", 2))
    free_gad = gadget(comp, "B", SOUTH)
    assert combine(free_comp, free_gad, uts, 2) == []


@pytest.mark.parametrize("variant", (WEAK2, WEAK3))
def test_red_junk_blob_converges_to_the_same_join(variant):
    comp = compile_weak(vertical_pair(strength=2), variant)
    uts = comp.universal_tiles
    blob = only(combine(completion(comp, NORTH, Glue("g", 2)),
                        gadget(comp, "B", SOUTH), uts, 2))
    assert decode_supertile(blob, comp.rep) is None
    hanging = only(combine(blob, mega(comp, "B"), uts, 2))
    a_stack = only(combine(mega(comp, "A"), gadget(comp, "A", NORTH), uts, 2))
    joined = only(combine(hanging, a_stack, uts, 2))

    b_stack = only(combine(mega(comp, "B"), gadget(comp, "B", SOUTH), uts, 2))
    a_full = only(combine(a_stack, completion(comp, NORTH, Glue("g", 2)), uts, 2))
    direct = only(combine(a_full, b_stack, uts, 2))
    assert joined.fingerprint == direct.fingerprint


@pytest.mark.parametrize("variant", VARIANTS)
def test_equal_strength_glues_keep_their_lanes_apart(variant):
    # two distinct strength-2 glues: the completion for one must not
    # park on the other's red cells, or attachment being irreversible
    # would jam the squatted seam for good
    ts = TileSet((
        TileType("L", east=Glue("g", 2)),
        TileType("M", west=Glue("g", 2), east=Glue("h", 2)),
        TileType("R", west=Glue("h", 2)),
    ))
    tas = TAS(ts, 2)
    comp = compile_weak(tas, variant)
    uts = comp.universal_tiles
    wrong = completion(comp, EAST, Glue("h", 2))
    assert combine(wrong, gadget(comp, "M", WEST), uts, 2) == []
    # same-glue squatting is allowed: the dock adopts the parked piece
    right = completion(comp, EAST, Glue("g", 2))
    target = explore(tas, 3)
    bound = sum(st.size for st, _ in comp.input_supertiles)
    sim = explore(comp.simulator_tas(), bound)
    decoded = decode_producibles(sim, comp.rep)
    for check in (check_equivalent_productions, check_follows,
                  check_weakly_models):
        report = check(decoded, target)
        assert report.passed, (check.__name__, report.violations)
    if variant != WEAK1:
        parked = only(combine(right, gadget(comp, "M", WEST), uts, 2))
        assert parked in sim.supertiles


def test_decoding_ignores_gadgets_and_flags_corruption():
    comp = compile_weak(vertical_pair(), WEAK1)
    bare = decode_supertile(mega(comp, "A"), comp.rep)
    full = decode_supertile(grown(comp, "A", NORTH, Glue("g", 2)), comp.rep)
    assert bare.supertile.fingerprint == full.supertile.fingerprint
    assert full.clean

    geo = comp.meta.geo
    block = dict(comp.meta.megas["A"].cells)
    block[(geo.d, geo.d)] = comp.meta.megas["B"].cells[(geo.d, geo.d)]
    # B's anchor in A's body: the first foreign cell, in column order, is
    # the one above the anchor
    with pytest.raises(CorruptMacrotile,
                       match=re.escape(f"'B' with foreign cells at "
                                       f"{(geo.d, geo.d + 1)}")):
        comp.rep.decode_block(block)
    block[(geo.d, geo.d)] = "g0N.5.24"
    with pytest.raises(CorruptMacrotile):
        comp.rep.decode_block(block)
    del block[(geo.d + 1, geo.d + 1)]
    assert comp.rep.decode_block(block) is None


def gadget_attachment_sites(s, comp):
    """Free (block, side) slots where a side gadget could still attach.

    Blocks are numbered relative to the first megatile anchor found.  A
    slot counts as free when every cell of its gadget is unoccupied, so
    sides already gadgeted, and sides blocked by a mismatched
    neighbour's pegs, both drop out.
    """
    meta = comp.meta
    geo = meta.geo
    anchors = sorted((x, y) for (x, y), uid in s.cells.items()
                     if uid in comp.anchors)
    if not anchors:
        return []
    ox, oy = anchors[0]
    order = {side: i for i, side in enumerate(DIRECTIONS)}
    found = []
    for ax, ay in anchors:
        tid = comp.anchors[s.cells[(ax, ay)]]
        for side in DIRECTIONS:
            glay = meta.gadgets.get((tid, side))
            if glay is None:
                continue
            dx, dy = ax - geo.d, ay - geo.d
            if any((x + dx, y + dy) in s.cells for (x, y) in glay.cells):
                continue
            block = ((ax - ox) // geo.m, (ay - oy) // geo.m)
            found.append((block, side))
    return sorted(found, key=lambda bs: (bs[0], order[bs[1]]))


def test_gadget_attachment_sites_track_free_sides():
    quad = TileType("Q", north=Glue("a", 2), east=Glue("b", 2),
                    south=Glue("c", 2), west=Glue("d", 2))
    comp = compile_weak(TAS(TileSet([quad]), 2), WEAK1)
    uts = comp.universal_tiles
    bare = mega(comp, "Q")
    assert gadget_attachment_sites(bare, comp) == [
        ((0, 0), NORTH), ((0, 0), EAST), ((0, 0), SOUTH), ((0, 0), WEST)]
    one = only(combine(bare, gadget(comp, "Q", NORTH), uts, 2))
    assert gadget_attachment_sites(one, comp) == [
        ((0, 0), EAST), ((0, 0), SOUTH), ((0, 0), WEST)]
    loaded = one
    for side in (EAST, SOUTH, WEST):
        loaded = only(combine(loaded, gadget(comp, "Q", side), uts, 2))
    assert gadget_attachment_sites(loaded, comp) == []
    assert gadget_attachment_sites(gadget(comp, "Q", NORTH), comp) == []


def test_seed_union_is_loaded_at_interior_interfaces():
    ts = TileSet((
        TileType("A", north=Glue("g", 2)),
        TileType("B", south=Glue("g", 2)),
    ))
    duple = Supertile({(0, 0): "A", (0, 1): "B"})
    tas = TAS(ts, 2, [(duple, 3)])
    comp = compile_weak(tas, WEAK1)
    seed, count = comp.input_supertiles[0]
    assert count == 3
    expected = (mega(comp, "A").size + mega(comp, "B").size
                + gadget(comp, "A", NORTH).size
                + gadget(comp, "B", SOUTH).size
                + completion(comp, NORTH, Glue("g", 2)).size)
    assert seed.size == expected
    assert decode_supertile(seed, comp.rep).supertile.cells == duple.cells
    # simulator_tas trusts the seed by the block lemma, so check it here
    assert is_tau_stable(seed.cells, comp.universal_tiles, comp.tau)


@pytest.mark.parametrize("variant", VARIANTS)
def test_two_tile_system_passes_the_weak_suite(variant):
    tas = vertical_pair(strength=2)
    target = explore(tas, 4)
    comp = compile_weak(tas, variant)
    bound = sum(st.size for st, _ in comp.input_supertiles)
    sim = explore(comp.simulator_tas(), bound)
    images = {img.supertile.fingerprint
              for img in (decode_supertile(s, comp.rep) for s in sim.members())
              if img is not None}
    assert images == {t.fingerprint for t in target.members()}
    decoded = decode_producibles(sim, comp.rep)
    for check in (check_equivalent_productions, check_follows,
                  check_weakly_models):
        report = check(decoded, target)
        assert report.passed, (check.__name__, report.violations)
        assert not report.violations


def mismatch_rig():
    """Two horizontal duples whose join leaves one lane mismatched."""
    ts = TileSet((
        TileType("A1", north=Glue("g", 2), east=Glue("e", 2)),
        TileType("A2", north=Glue("p", 1), west=Glue("e", 2)),
        TileType("B1", south=Glue("g", 2), east=Glue("f", 2)),
        TileType("B2", south=Glue("q", 1), west=Glue("f", 2)),
    ))
    lower = Supertile({(0, 0): "A1", (1, 0): "A2"})
    upper = Supertile({(0, 0): "B1", (1, 0): "B2"})
    return TAS(ts, 2, [(lower, INFINITE), (upper, INFINITE)])


def test_mismatch_rig_is_weak_but_not_strong():
    tas = mismatch_rig()
    target = explore(tas, 4)
    assert len(target) == 3
    comp = compile_weak(tas, WEAK1)
    bound = sum(st.size for st, _ in comp.input_supertiles)
    sim = explore(comp.simulator_tas(), bound)
    decoded = decode_producibles(sim, comp.rep)
    for check in (check_equivalent_productions, check_follows,
                  check_weakly_models):
        report = check(decoded, target)
        assert report.passed, (check.__name__, report.violations)
    # a preimage pair that pre-attached gadgets on the mismatched lane
    # can never join: attachment is irreversible, so the strong check
    # must report it
    report = check_strongly_models(decoded, target)
    assert not report.passed
    assert {v["kind"] for v in report.violations} == {"unrealizable-combination"}


def test_offset_hint_matches_full_scan():
    from twoham.representation import BlockRepresentation

    comp = compile_weak(vertical_pair(), WEAK1)
    full = grown(comp, "A", NORTH, Glue("g", 2))
    scan = BlockRepresentation(comp.m, comp.rep.decode_window)
    hinted = decode_supertile(full, comp.rep)
    brute = decode_supertile(full, scan)
    assert comp.rep.offsets_for(full) == [hinted.offset]
    assert hinted.supertile.fingerprint == brute.supertile.fingerprint
