"""Relation checkers against hand-built scale-2 simulators.

Every rig here is a small system of rigid 2x2 macroblocks (plus gadget
tiles) over a two- or three-tile target, with a lookup-table decoder.
The rigs are tuned so each checker outcome has a witness: boundary
skips, junk rules, unmatched steps, gadget-assisted growth that weakly
but not strongly models, and the two-families system that passes every
check except the strong one.
"""

import pytest

from twoham import (
    CHECKS,
    INFINITE,
    TAS,
    BlockRepresentation,
    Glue,
    Supertile,
    TileSet,
    TileType,
    check_equivalent_productions,
    check_follows,
    check_strongly_models,
    check_weakly_models,
    decode_producibles,
    explore,
)
from twoham.strong import STRONG2, compile_strong
from twoham.weak import WEAK1, WEAK2, WEAK3, compile_weak

from test_acceptance import suite
from test_model import _cells_unbuilt

BLOCK = {(0, 0), (1, 0), (0, 1), (1, 1)}


def rigid(prefix, coords, strength=2, extra=None):
    """Tiles gluing a fixed shape together, one tile type per cell.

    Internal glues are coordinate-keyed at the given strength so the
    shape is stable and binds nothing else; extra maps coordinates to
    outward side glues.
    """
    coords = set(coords)
    sides = {c: {} for c in coords}
    for x, y in coords:
        if (x + 1, y) in coords:
            g = Glue(f"{prefix}:{x},{y}:h", strength)
            sides[(x, y)]["east"] = g
            sides[(x + 1, y)]["west"] = g
        if (x, y + 1) in coords:
            g = Glue(f"{prefix}:{x},{y}:v", strength)
            sides[(x, y)]["north"] = g
            sides[(x, y + 1)]["south"] = g
    for c, ext in (extra or {}).items():
        sides[c].update(ext)
    tiles, cells = [], {}
    for x, y in sorted(coords):
        tid = f"{prefix}.{x}.{y}"
        tiles.append(TileType(tid, **sides[(x, y)]))
        cells[(x, y)] = tid
    return tiles, cells


def entry(cells):
    return tuple(sorted((x, y, t) for (x, y), t in cells.items()))


def block_entry(cells, ox, oy, m=2):
    return tuple(sorted(
        (x - ox, y - oy, t) for (x, y), t in cells.items()
        if ox <= x < ox + m and oy <= y < oy + m))


def fp(cells):
    return Supertile(cells).fingerprint


def two_tile_target(bound=2):
    ts = TileSet((
        TileType("A", east=Glue("g", 2)),
        TileType("B", west=Glue("g", 2)),
    ))
    return explore(TAS(ts, 2), bound)


def doubled_two_tile(count=INFINITE):
    """Faithful scale-2 simulator: one macroblock per tile, paired reds."""
    am_tiles, am = rigid("am", BLOCK, extra={
        (1, 0): {"east": Glue("s0", 1)},
        (1, 1): {"east": Glue("s1", 1)},
    })
    bm_tiles, bm = rigid("bm", BLOCK, extra={
        (0, 0): {"west": Glue("s0", 1)},
        (0, 1): {"west": Glue("s1", 1)},
    })
    ts = TileSet(tuple(am_tiles + bm_tiles))
    sim = explore(TAS(ts, 2, [(am, count), (bm, count)]), 8)
    rep = BlockRepresentation.from_table(2, {entry(am): "A", entry(bm): "B"})
    return sim, rep, am, bm


def test_faithful_simulator_passes_every_check():
    sim, rep, _, _ = doubled_two_tile()
    target = two_tile_target()
    assert len(sim) == 3
    prod = check_equivalent_productions(sim, target, rep)
    assert prod.passed and prod.checked == 6 and not prod.boundary
    fol = check_follows(sim, target, rep)
    assert fol.passed and fol.checked == 2
    weak = check_weakly_models(sim, target, rep)
    assert weak.passed and weak.checked == 2
    strong = check_strongly_models(sim, target, rep)
    assert strong.passed and strong.checked == 1


def test_images_past_the_target_bound_are_boundary_skips():
    sim, rep, _, _ = doubled_two_tile()
    target = two_tile_target(bound=1)
    prod = check_equivalent_productions(sim, target, rep)
    assert prod.passed and prod.boundary == 1
    fol = check_follows(sim, target, rep)
    assert fol.passed and fol.boundary == 2 and fol.checked == 0
    assert check_weakly_models(sim, target, rep).passed
    assert check_strongly_models(sim, target, rep).passed
    assert any("target" in note for note in prod.notes)


def test_finite_counts_are_read_as_infinite_and_noted():
    sim, rep, _, _ = doubled_two_tile(count=1)
    ts = two_tile_target().tas.tile_set
    target = explore(TAS(ts, 2, [(Supertile({(0, 0): t.id}), 1) for t in ts]), 2)
    finite = check_equivalent_productions(sim, target, rep)
    sim, rep, _, _ = doubled_two_tile()
    infinite = check_equivalent_productions(sim, two_tile_target(), rep)
    read = ["simulator exploration read finite counts as infinite",
            "target exploration read finite counts as infinite"]
    assert [n for n in finite.notes if n in read] == read
    assert [n for n in finite.notes if n not in read] == infinite.notes
    assert not any("finite" in n for n in infinite.notes)
    finite.notes = infinite.notes
    assert finite.to_dict() == infinite.to_dict()


def test_report_to_dict_round_trip():
    sim, rep, _, _ = doubled_two_tile()
    d = check_equivalent_productions(sim, two_tile_target(), rep).to_dict()
    assert d["relation"] == "productions"
    assert d["passed"] is True
    assert set(d) == {"relation", "passed", "checked", "boundary",
                      "skipped", "violations", "notes"}


def test_production_violation_kinds():
    # B's table entry withheld, an unmapped macroblock mapped to a ghost
    # tile, and a 3-wide undecodable bar seeded alongside
    am_tiles, am = rigid("am", BLOCK, extra={
        (1, 0): {"east": Glue("s0", 1)},
        (1, 1): {"east": Glue("s1", 1)},
    })
    bm_tiles, bm = rigid("bm", BLOCK, extra={
        (0, 0): {"west": Glue("s0", 1)},
        (0, 1): {"west": Glue("s1", 1)},
    })
    cm_tiles, cm = rigid("cm", BLOCK)
    jk_tiles, jk = rigid("jk", {(0, 0), (1, 0), (2, 0)})
    ts = TileSet(tuple(am_tiles + bm_tiles + cm_tiles + jk_tiles))
    sim = explore(TAS(ts, 2, [
        (am, INFINITE), (bm, INFINITE), (cm, INFINITE), (jk, INFINITE)]), 8)
    rep = BlockRepresentation.from_table(2, {entry(am): "A", entry(cm): "C"})
    report = check_equivalent_productions(sim, two_tile_target(), rep)
    assert not report.passed
    kinds = sorted(v["kind"] for v in report.violations)
    assert kinds == ["extra-image", "missing-image", "missing-image",
                     "oversized-junk"]
    missing = {v["image"] for v in report.violations
               if v["kind"] == "missing-image"}
    assert missing == {fp({(0, 0): "B"}), fp({(0, 0): "A", (1, 0): "B"})}


def three_tile_tas():
    return TAS(TileSet((
        TileType("A", east=Glue("g", 2)),
        TileType("B", west=Glue("g", 2), east=Glue("h", 2)),
        TileType("C", west=Glue("h", 2)),
    )), 2)


def follows_rig():
    """Partner = A and C blocks joined by an undecodable bridge below the
    B slot; one macroblock of B drops into the slot.  The simulator's
    step B -> ABC exists, the target's does not: the simulator system,
    explored at bound 16, and its representation."""
    pr_tiles, pr = rigid("pr", (BLOCK | {(x + 4, y) for x, y in BLOCK}
                                | {(1, -1), (2, -1), (3, -1), (4, -1)}),
                         extra={(2, -1): {"north": Glue("k", 2)}})
    sb_tiles, sb = rigid("sb", BLOCK, extra={(0, 0): {"south": Glue("k", 2)}})
    ts = TileSet(tuple(pr_tiles + sb_tiles))
    return TAS(ts, 2, [(pr, INFINITE), (sb, INFINITE)]), (
        BlockRepresentation.from_table(2, {
            block_entry(pr, 0, 0): "A",
            entry(sb): "B",
            block_entry(pr, 4, 0): "C",
        }))


def test_follows_flags_steps_the_target_cannot_mirror():
    tas, rep = follows_rig()
    sim = explore(tas, 16)
    assert len(sim) == 3 and len(sim.edges) == 1
    report = check_follows(sim, explore(three_tile_tas(), 3), rep)
    assert not report.passed
    kinds = sorted(v["kind"] for v in report.violations)
    assert kinds == ["image-not-producible", "unmatched-step"]
    bad = next(v for v in report.violations if v["kind"] == "unmatched-step")
    assert bad["parent_image"] == fp({(0, 0): "B"})
    assert bad["child_image"] == fp({(0, 0): "A", (1, 0): "B", (2, 0): "C"})


def gadget_simulator():
    """A key tile w must wedge into A's arm before B's L-block can bind.

    B has two representations: the bare L and the L completed by a w.
    Growth from the A side first absorbs a free w (image unchanged),
    then the L; from the B side a free w may complete the L first.
    """
    ga_tiles, ga = rigid("ga", BLOCK, extra={(1, 0): {"east": Glue("t", 2)}})
    w_tile = TileType("gw", west=Glue("t", 2), east=Glue("r", 2))
    gb_tiles, gb = rigid("gb", {(0, 1), (1, 0), (1, 1)},
                         extra={(1, 0): {"west": Glue("r", 2)}})
    ts = TileSet(tuple(ga_tiles + [w_tile] + gb_tiles))
    tas = TAS(ts, 2, [(ga, INFINITE), ({(0, 0): "gw"}, INFINITE),
                      (gb, INFINITE)])
    full_b = dict(gb)
    full_b[(0, 0)] = "gw"
    rep = BlockRepresentation.from_table(2, {
        entry(ga): "A",
        entry(gb): "B",
        entry(full_b): "B",
    })
    amw = dict(ga)
    amw[(2, 0)] = "gw"
    return tas, rep, ga, amw, full_b


def test_gadget_growth_weakly_models():
    tas, rep, _, _, _ = gadget_simulator()
    sim = explore(tas, 8)
    assert len(sim) == 6 and len(sim.edges) == 4
    target = two_tile_target()
    assert check_equivalent_productions(sim, target, rep).passed
    fol = check_follows(sim, target, rep)
    assert fol.passed and fol.skipped == 2
    weak = check_weakly_models(sim, target, rep)
    assert weak.passed and weak.checked == 4


def test_literal_weak_reading_rejects_the_gadget_rig():
    tas, rep, _, _, _ = gadget_simulator()
    sim = explore(tas, 8)
    report = check_weakly_models(sim, two_tile_target(), rep,
                                 weak_def="literal")
    assert not report.passed
    assert len(report.violations) == 4
    assert {v["kind"] for v in report.violations} == {"unrealizable-step"}


def test_weak_def_must_be_known():
    tas, rep, _, _, _ = gadget_simulator()
    sim = explore(tas, 8)
    with pytest.raises(ValueError):
        check_weakly_models(sim, two_tile_target(), rep, weak_def="bogus")


def test_gadget_rig_fails_strongly_on_the_jammed_pair():
    # A-with-key against the completed B block: the key and the block's
    # own w collide, and no same-image growth can clear the jam
    tas, rep, _, amw, full_b = gadget_simulator()
    sim = explore(tas, 8)
    report = check_strongly_models(sim, two_tile_target(), rep)
    assert not report.passed and report.checked == 4
    assert len(report.violations) == 1
    assert report.violations[0]["preimages"] == [fp(amw), fp(full_b)]


def test_strong_check_combines_past_the_exploration_bound():
    # at bound 5 the 8-cell product is never explored, yet the direct
    # combination inside the check still realizes it
    tas, rep, _, amw, full_b = gadget_simulator()
    sim5 = explore(tas, 5)
    assert sim5.overflow > 0
    report = check_strongly_models(sim5, two_tile_target(), rep)
    assert report.checked == 4
    assert [v["preimages"] for v in report.violations] == [[fp(amw), fp(full_b)]]


def test_two_families_separate_weak_from_strong():
    # two disjoint red vocabularies: each A copy binds only its own B
    # copy, so every cross pair of preimages is stuck
    seeds, tiles, table = [], [], {}
    for name, image, arm in (("xa", "A", "east"), ("ya", "A", "east"),
                             ("xb", "B", "west"), ("yb", "B", "west")):
        col = 1 if arm == "east" else 0
        family = "s" if name[0] == "x" else "u"
        t, cells = rigid(name, BLOCK, extra={
            (col, 0): {arm: Glue(f"{family}0", 1)},
            (col, 1): {arm: Glue(f"{family}1", 1)},
        })
        tiles += t
        seeds.append((cells, INFINITE))
        table[entry(cells)] = image
    sim = explore(TAS(TileSet(tuple(tiles)), 2, seeds), 8)
    assert len(sim) == 6
    rep = BlockRepresentation.from_table(2, table)
    target = two_tile_target()
    assert check_equivalent_productions(sim, target, rep).passed
    assert check_follows(sim, target, rep).passed
    assert check_weakly_models(sim, target, rep).passed
    strong = check_strongly_models(sim, target, rep)
    assert not strong.passed and strong.checked == 4
    assert len(strong.violations) == 2
    jammed = {tuple(v["preimages"]) for v in strong.violations}
    a_x, a_y = fp(dict_for("xa")), fp(dict_for("ya"))
    b_x, b_y = fp(dict_for("xb")), fp(dict_for("yb"))
    assert jammed == {(a_x, b_y), (a_y, b_x)}


def dict_for(prefix):
    return {(x, y): f"{prefix}.{x}.{y}" for x, y in BLOCK}


def test_ambiguous_members_surface_as_violations():
    ts = TileSet((
        TileType("p", east=Glue("e", 1)),
        TileType("q", west=Glue("e", 1)),
    ))
    seed = {(0, 0): "p", (1, 0): "q"}
    sim = explore(TAS(ts, 1, [(seed, INFINITE)]), 4)
    rep = BlockRepresentation.from_table(2, {
        ((0, 0, "p"), (1, 0, "q")): "X",
        ((1, 0, "p"),): "Y",
    })
    target = explore(TAS(TileSet((TileType("X"),)), 1), 1)
    report = check_equivalent_productions(sim, target, rep)
    assert not report.passed
    assert {v["kind"] for v in report.violations} == {
        "ambiguous-alignment", "missing-image"}
    # a shared decode, as verify passes it, still reports the ambiguity
    # in every check, at the head of its violations
    decoded = decode_producibles(sim, rep)
    for check in (check_equivalent_productions, check_follows,
                  check_weakly_models, check_strongly_models):
        for report in (check(sim, target, rep),
                       check(sim, target, rep, decoded=decoded)):
            assert not report.passed, check.__name__
            assert report.violations[0]["kind"] == "ambiguous-alignment"


def test_unclean_image_is_a_violation():
    tiles, cells = rigid(
        "ua", BLOCK | {(2, 1), (2, 2)}, strength=1)
    sim = explore(TAS(TileSet(tuple(tiles)), 1, [(cells, INFINITE)]), 6)
    rep = BlockRepresentation.from_table(2, {block_entry(cells, 0, 0): "A"})
    target = explore(TAS(TileSet((TileType("A"),)), 1), 1)
    report = check_equivalent_productions(sim, target, rep)
    assert not report.passed
    assert [v["kind"] for v in report.violations] == ["unclean-image"]


def pair_reports():
    """Every check's Report.to_dict() on the two-tile pair compiled with
    weak1 and with strong2, and how many simulator members share a key
    with another."""
    tas = TAS(TileSet((
        TileType("a", east=Glue("g", 2)),
        TileType("b", west=Glue("g", 2)),
    )), 2)
    target = explore(tas, 2)
    reports, shared = {}, 0
    for variant, comp in ((WEAK1, compile_weak(tas, WEAK1)),
                          (STRONG2, compile_strong(tas, STRONG2))):
        sim = explore(comp.simulator_tas(), 2 * comp.budget)
        decoded = decode_producibles(sim, comp.rep)
        reports[variant] = {
            name: check(sim, target, comp.rep, decoded=decoded).to_dict()
            for name, check in CHECKS.items()}
        shared += len(sim) - len({s.key for s in sim.members()})
    return reports, shared


@pytest.fixture(scope="module")
def real_key_reports():
    # module scope: built before the colliding_keys fixture patches keys
    return pair_reports()


def test_reports_hold_under_colliding_keys(real_key_reports,
                                           colliding_keys):
    """Members, images and strong's products are keyed by supertile;
    with keys colliding one time in three, no two of them merge, so
    every report, violations included, comes out as with real keys."""
    want, unshared = real_key_reports
    got, shared = pair_reports()
    assert unshared == 0 and shared > 0
    assert not want[WEAK1]["strong"]["passed"]
    assert want[WEAK1]["strong"]["violations"]
    assert got == want


def every_report(sim, target, rep):
    """Report.to_dict() of all four checks, weak under both readings."""
    decoded = decode_producibles(sim, rep)
    reports = {name: check(sim, target, rep, decoded=decoded).to_dict()
               for name, check in CHECKS.items() if name != "weak"}
    for weak_def in ("standard", "literal"):
        reports[f"weak[{weak_def}]"] = check_weakly_models(
            sim, target, rep, decoded=decoded, weak_def=weak_def).to_dict()
    return reports


def compiled_case(name, variant):
    tas = dict(suite())[name]
    comp = compile_weak(tas, variant)
    return comp.simulator_tas(), 3 * comp.budget, tas, 3, comp.rep


def null_decoder_case():
    """seeded-chain weak1 read through a decoder that reads nothing, so
    that every member wider than a block is oversized junk."""
    sim_tas, sim_bound, tas, bound, rep = compiled_case("seeded-chain", WEAK1)
    return (sim_tas, sim_bound, tas, bound,
            BlockRepresentation(rep.m, lambda block: None, rep.anchors,
                                rep.corner))


def follows_case():
    sim_tas, rep = follows_rig()
    return sim_tas, 16, three_tile_tas(), 3, rep


ORDER_CASES = {
    "pair-weak1": lambda: compiled_case("pair", WEAK1),
    "seeded-chain-weak1": lambda: compiled_case("seeded-chain", WEAK1),
    "seeded-chain-weak2": lambda: compiled_case("seeded-chain", WEAK2),
    "seeded-chain-weak3": lambda: compiled_case("seeded-chain", WEAK3),
    # the compilations break no productions or follows clause; these two do
    "null-decoder": null_decoder_case,
    "follows-rig": follows_case,
}


@pytest.mark.parametrize("case", ORDER_CASES)
def test_report_order_comes_from_sorting(case):
    """The checks walk members, edges and preimages in discovery order,
    and sort violation records on the fingerprints they print.  So on
    failing compilations and rigs every report, violation order and
    strong's preimage orientation included, is the same whether both
    systems were explored plainly or under five different shuffles."""
    sim_tas, sim_bound, tas, bound, rep = ORDER_CASES[case]()
    want = every_report(explore(sim_tas, sim_bound), explore(tas, bound), rep)
    # several records in a failing report, so their order is at stake
    assert max(len(r["violations"]) for r in want.values()) >= 2
    for k in range(1, 6):
        sim = explore(sim_tas, sim_bound, shuffle_seed=k)
        target = explore(tas, bound, shuffle_seed=k)
        assert every_report(sim, target, rep) == want, k


@pytest.mark.parametrize("name, compile_, variant", [
    ("pair", compile_weak, WEAK1), ("seeded-chain", compile_strong, STRONG2)])
def test_claimed_checks_build_no_member_cells(name, compile_, variant):
    """Explore, decode_producibles and every claimed check compare,
    overlap and face the simulator's unions through their rows and read
    them through their parents' block readings, so no member but a seed
    ever builds a cell dict."""
    tas = dict(suite())[name]
    comp = compile_(tas, variant)
    sim = explore(comp.simulator_tas(), 3 * comp.budget)
    target = explore(tas, 3)
    decoded = decode_producibles(sim, comp.rep)
    for claim in comp.claims:
        assert CHECKS[claim](sim, target, comp.rep, decoded=decoded).passed
    unions = [s for s in sim.supertiles if s.parents is not None]
    assert unions and all(_cells_unbuilt(s) for s in unions)
