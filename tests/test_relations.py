"""Relation checkers against hand-built scale-2 simulators.

Every rig here is a small system of rigid 2x2 macroblocks (plus gadget
tiles) over a two- or three-tile target, with a lookup-table decoder.
The rigs are tuned so each checker outcome has a witness: boundary
skips, junk rules, unmatched steps, gadget-assisted growth that weakly
but not strongly models, the two-families system that passes every
check except the strong one, and its variant with a block that never
grows, which fails weak too.  The image map's reach bitsets are pinned
to a breadth-first search on random and compiled explorations, and the
compilers' window decoder to the dict-level block check.
"""

import random

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
from twoham.dynamics import ProducibleSet
from twoham.model import window, window_block
from twoham.representation import BlockReader
from twoham.strong import STRONG2, compile_strong
from twoham.strong import VARIANTS as STRONG_VARIANTS
from twoham.weak import WEAK1, WEAK2, WEAK3, compile_weak
from twoham.weak import VARIANTS as WEAK_VARIANTS

from oracles import oracle_anchored_decode, oracle_decode, oracle_reach
from test_acceptance import suite
from test_compiled import block_check, block_outcome, rescaled
from test_dynamics import _random_system, _seeded_system
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


def two_tile_tas():
    return TAS(TileSet((
        TileType("A", east=Glue("g", 2)),
        TileType("B", west=Glue("g", 2)),
    )), 2)


def two_tile_target(bound=2):
    return explore(two_tile_tas(), bound)


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
    decoded = decode_producibles(sim, rep)
    prod = check_equivalent_productions(decoded, target)
    assert prod.passed and prod.checked == 6 and not prod.boundary
    fol = check_follows(decoded, target)
    assert fol.passed and fol.checked == 2
    weak = check_weakly_models(decoded, target)
    assert weak.passed and weak.checked == 2
    strong = check_strongly_models(decoded, target)
    assert strong.passed and strong.checked == 1


def test_images_past_the_target_bound_are_boundary_skips():
    sim, rep, _, _ = doubled_two_tile()
    target = two_tile_target(bound=1)
    decoded = decode_producibles(sim, rep)
    prod = check_equivalent_productions(decoded, target)
    assert prod.passed and prod.boundary == 1
    fol = check_follows(decoded, target)
    assert fol.passed and fol.boundary == 2 and fol.checked == 0
    assert check_weakly_models(decoded, target).passed
    assert check_strongly_models(decoded, target).passed
    assert any("target" in note for note in prod.notes)


def test_finite_counts_are_read_as_infinite_and_noted():
    sim, rep, _, _ = doubled_two_tile(count=1)
    ts = two_tile_target().tas.tile_set
    target = explore(TAS(ts, 2, [(Supertile({(0, 0): t.id}), 1) for t in ts]), 2)
    finite = check_equivalent_productions(decode_producibles(sim, rep),
                                          target)
    sim, rep, _, _ = doubled_two_tile()
    infinite = check_equivalent_productions(decode_producibles(sim, rep),
                                            two_tile_target())
    read = ["simulator exploration read finite counts as infinite",
            "target exploration read finite counts as infinite"]
    assert [n for n in finite.notes if n in read] == read
    assert [n for n in finite.notes if n not in read] == infinite.notes
    assert not any("finite" in n for n in infinite.notes)
    finite.notes = infinite.notes
    assert finite.to_dict() == infinite.to_dict()


def test_report_to_dict_round_trip():
    sim, rep, _, _ = doubled_two_tile()
    d = check_equivalent_productions(decode_producibles(sim, rep),
                                     two_tile_target()).to_dict()
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
    report = check_equivalent_productions(decode_producibles(sim, rep),
                                          two_tile_target())
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
    report = check_follows(decode_producibles(sim, rep),
                           explore(three_tile_tas(), 3))
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
    decoded = decode_producibles(sim, rep)
    assert check_equivalent_productions(decoded, target).passed
    fol = check_follows(decoded, target)
    assert fol.passed and fol.skipped == 2
    weak = check_weakly_models(decoded, target)
    assert weak.passed and weak.checked == 4


def test_literal_weak_reading_rejects_the_gadget_rig():
    tas, rep, _, _, _ = gadget_simulator()
    sim = explore(tas, 8)
    report = check_weakly_models(decode_producibles(sim, rep),
                                 two_tile_target(), weak_def="literal")
    assert not report.passed
    assert len(report.violations) == 4
    assert {v["kind"] for v in report.violations} == {"unrealizable-step"}


def test_weak_def_must_be_known():
    tas, rep, _, _, _ = gadget_simulator()
    sim = explore(tas, 8)
    with pytest.raises(ValueError):
        check_weakly_models(decode_producibles(sim, rep), two_tile_target(),
                            weak_def="bogus")


def test_gadget_rig_fails_strongly_on_the_jammed_pair():
    # A-with-key against the completed B block: the key and the block's
    # own w collide, and no same-image growth can clear the jam
    tas, rep, _, amw, full_b = gadget_simulator()
    sim = explore(tas, 8)
    report = check_strongly_models(decode_producibles(sim, rep),
                                   two_tile_target())
    assert not report.passed and report.checked == 4
    assert len(report.violations) == 1
    assert report.violations[0]["preimages"] == [fp(amw), fp(full_b)]


def test_strong_check_combines_past_the_exploration_bound():
    # at bound 5 the 8-cell product is never explored, yet the direct
    # combination inside the check still realizes it
    tas, rep, _, amw, full_b = gadget_simulator()
    sim5 = explore(tas, 5)
    assert sim5.overflow > 0
    report = check_strongly_models(decode_producibles(sim5, rep),
                                   two_tile_target())
    assert report.checked == 4
    assert [v["preimages"] for v in report.violations] == [[fp(amw), fp(full_b)]]


def families_rig(stuck=False):
    """Two disjoint red vocabularies: each A copy binds only its own B
    copy, so every cross pair of preimages is stuck.  With stuck, a third
    A block shows no red glue at all, so it is a preimage of A that never
    grows.  The simulator system and its representation."""
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
    if stuck:
        t, cells = rigid("za", BLOCK)
        tiles += t
        seeds.append((cells, INFINITE))
        table[entry(cells)] = "A"
    return (TAS(TileSet(tuple(tiles)), 2, seeds),
            BlockRepresentation.from_table(2, table))


def test_two_families_separate_weak_from_strong():
    tas, rep = families_rig()
    sim = explore(tas, 8)
    assert len(sim) == 6
    target = two_tile_target()
    decoded = decode_producibles(sim, rep)
    assert check_equivalent_productions(decoded, target).passed
    assert check_follows(decoded, target).passed
    assert check_weakly_models(decoded, target).passed
    strong = check_strongly_models(decoded, target)
    assert not strong.passed and strong.checked == 4
    assert len(strong.violations) == 2
    jammed = {tuple(v["preimages"]) for v in strong.violations}
    a_x, a_y = fp(dict_for("xa")), fp(dict_for("ya"))
    b_x, b_y = fp(dict_for("xb")), fp(dict_for("yb"))
    assert jammed == {(a_x, b_y), (a_y, b_x)}


def test_a_preimage_that_never_grows_fails_standard_weak():
    """The stuck A block decodes to A, yet reaches no member that steps
    into AB, so the standard reading fails on it alone; strong fails on
    both of its pairs as well as on the two cross pairs."""
    tas, rep = families_rig(stuck=True)
    sim = explore(tas, 8)
    assert len(sim) == 7
    target = two_tile_target()
    decoded = decode_producibles(sim, rep)
    assert check_equivalent_productions(decoded, target).passed
    assert check_follows(decoded, target).passed
    weak = check_weakly_models(decoded, target)
    assert weak.checked == 5
    assert weak.violations == [{
        "kind": "unrealizable-step",
        "target_parent": fp({(0, 0): "A"}),
        "target_child": fp({(0, 0): "A", (1, 0): "B"}),
        "preimage": fp(dict_for("za")),
    }]
    strong = check_strongly_models(decoded, target)
    assert strong.checked == 6
    a_x, a_y, a_z = (fp(dict_for(name)) for name in ("xa", "ya", "za"))
    b_x, b_y = fp(dict_for("xb")), fp(dict_for("yb"))
    assert {tuple(v["preimages"]) for v in strong.violations} == {
        (a_x, b_y), (a_y, b_x), (a_z, b_x), (a_z, b_y)}
    assert len(strong.violations) == 4


def dict_for(prefix):
    return {(x, y): f"{prefix}.{x}.{y}" for x, y in BLOCK}


def ambiguous_case():
    """A p-q duple whose table reads it at two grid alignments, over a
    one-tile target."""
    ts = TileSet((
        TileType("p", east=Glue("e", 1)),
        TileType("q", west=Glue("e", 1)),
    ))
    seed = {(0, 0): "p", (1, 0): "q"}
    rep = BlockRepresentation.from_table(2, {
        ((0, 0, "p"), (1, 0, "q")): "X",
        ((1, 0, "p"),): "Y",
    })
    return (TAS(ts, 1, [(seed, INFINITE)]), 4,
            TAS(TileSet((TileType("X"),)), 1), 1, rep)


def test_ambiguous_members_surface_as_violations():
    sim_tas, sim_bound, tas, bound, rep = ambiguous_case()
    sim = explore(sim_tas, sim_bound)
    target = explore(tas, bound)
    decoded = decode_producibles(sim, rep)
    report = check_equivalent_productions(decoded, target)
    assert not report.passed
    assert {v["kind"] for v in report.violations} == {
        "ambiguous-alignment", "missing-image"}
    # a shared decode, as verify passes it, still reports the ambiguity
    # in every check, at the head of its violations
    for check in (check_equivalent_productions, check_follows,
                  check_weakly_models, check_strongly_models):
        report = check(decoded, target)
        assert not report.passed, check.__name__
        assert report.violations[0]["kind"] == "ambiguous-alignment"


def test_unclean_image_is_a_violation():
    tiles, cells = rigid(
        "ua", BLOCK | {(2, 1), (2, 2)}, strength=1)
    sim = explore(TAS(TileSet(tuple(tiles)), 1, [(cells, INFINITE)]), 6)
    rep = BlockRepresentation.from_table(2, {block_entry(cells, 0, 0): "A"})
    target = explore(TAS(TileSet((TileType("A"),)), 1), 1)
    report = check_equivalent_productions(decode_producibles(sim, rep),
                                          target)
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
            name: check(decoded, target).to_dict()
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
    reports = {name: check(decoded, target).to_dict()
               for name, check in CHECKS.items() if name != "weak"}
    for weak_def in ("standard", "literal"):
        reports[f"weak[{weak_def}]"] = check_weakly_models(
            decoded, target, weak_def=weak_def).to_dict()
    return reports


def compiled_case(name, variant):
    tas = dict(suite())[name]
    compile_ = compile_weak if variant in WEAK_VARIANTS else compile_strong
    comp = compile_(tas, variant)
    return comp.simulator_tas(), 3 * comp.budget, tas, 3, comp.rep


def null_decoder_case():
    """seeded-chain weak1 read through a decoder that reads nothing, so
    that every member wider than a block is oversized junk."""
    sim_tas, sim_bound, tas, bound, rep = compiled_case("seeded-chain", WEAK1)
    return (sim_tas, sim_bound, tas, bound,
            BlockRepresentation(rep.m, lambda win: None, rep.anchors,
                                rep.corner))


def follows_case():
    sim_tas, rep = follows_rig()
    return sim_tas, 16, three_tile_tas(), 3, rep


def stuck_family_case():
    sim_tas, rep = families_rig(stuck=True)
    return sim_tas, 8, two_tile_tas(), 2, rep


ORDER_CASES = {
    "pair-weak1": lambda: compiled_case("pair", WEAK1),
    "seeded-chain-weak1": lambda: compiled_case("seeded-chain", WEAK1),
    "seeded-chain-weak2": lambda: compiled_case("seeded-chain", WEAK2),
    "seeded-chain-weak3": lambda: compiled_case("seeded-chain", WEAK3),
    # the compilations break no productions or follows clause; these two do
    "null-decoder": null_decoder_case,
    "follows-rig": follows_case,
    # nor standard weak; this rig does
    "stuck-family": stuck_family_case,
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


def gadget_bound_5_case():
    """The compilations and rigs above are explored far enough that
    strong builds no product outside them; at bound 5 it builds the
    gadget rig's 8-cell one."""
    tas, rep, _, _, _ = gadget_simulator()
    return tas, 5, two_tile_tas(), 2, rep


SHARED_CASES = {
    f"{name}-{variant}": (lambda name=name, variant=variant:
                          compiled_case(name, variant))
    for name, _ in suite() for variant in STRONG_VARIANTS + WEAK_VARIANTS}
SHARED_CASES["stuck-family"] = stuck_family_case
SHARED_CASES["ambiguous"] = ambiguous_case
SHARED_CASES["gadget-bound-5"] = gadget_bound_5_case


@pytest.mark.parametrize("case", SHARED_CASES)
def test_one_map_serves_every_check(case):
    """verify runs every check on one image map.  Run in reverse CHECKS
    order, weak under both readings, strong goes first and leaves its
    products decoded in the map; every report still equals the same
    check's on a map of its own."""
    sim_tas, sim_bound, tas, bound, rep = SHARED_CASES[case]()
    sim, target = explore(sim_tas, sim_bound), explore(tas, bound)
    shared = decode_producibles(sim, rep)
    for name in reversed(CHECKS):
        for kwargs in ([{"weak_def": weak_def}
                        for weak_def in ("standard", "literal")]
                       if name == "weak" else [{}]):
            got = CHECKS[name](shared, target, **kwargs)
            alone = CHECKS[name](decode_producibles(sim, rep), target,
                                 **kwargs)
            assert got.to_dict() == alone.to_dict(), (name, kwargs)
    if case == "gadget-bound-5":
        assert len(shared.decoded) > len(sim)


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
        assert CHECKS[claim](decoded, target).passed
    unions = [s for s in sim.supertiles if s.parents is not None]
    assert unions and all(_cells_unbuilt(s) for s in unions)


# test_dynamics' random systems have tiles t0, t1 and t2; reading the
# first two as one tile makes members share images
COARSE = BlockRepresentation(
    1, lambda win: {"t0": "A", "t1": "A", "t2": "B"}[window_block(win)[0, 0]])


def image_target(sim, imap):
    """The simulator's steps between defined images, read through the
    image map, as an explored target set."""
    edges = {}
    for step in sim.edges:
        images = tuple(map(imap.image_of, step))
        if None not in images:
            edges[images] = None
    return ProducibleSet(sim.tas, sim.size_bound,
                         {img: img for img in imap.preimages}, edges, 0, 0,
                         True)


def reach_matches_oracle(sim, rep, target=None):
    """Pin the image map's bitsets to oracle_reach for every member and
    image, and weak's records under both readings to the same search over
    the reached members' children.  target defaults to image_target.
    Returns the number of weak records."""
    imap = decode_producibles(sim, rep)
    reach, bit = imap.reach, imap.bit
    reached = {}
    for start in sim.supertiles:
        for image, preimages in imap.preimages.items():
            want = oracle_reach(sim, start, image, imap.image_of)
            assert [x for x in preimages if reach[start] & bit[x]] == want
            reached[start, image] = want
    if target is None:
        target = image_target(sim, imap)
    children = {}
    for pa, pb, child in sim.edges:
        children.setdefault(pa, []).append(child)
        children.setdefault(pb, []).append(child)
    records = 0
    for weak_def in ("standard", "literal"):
        want = set()
        for pa, pb, b in target.edges:
            for a in (pa, pb):
                waypoint = a if weak_def == "standard" else b
                for start in imap.preimages.get(a, []):
                    if not any(imap.image_of(c) == b
                               for node in reached.get((start, waypoint), [])
                               for c in children.get(node, [])):
                        want.add((a.fingerprint, b.fingerprint,
                                  start.fingerprint))
        report = check_weakly_models(imap, target, weak_def=weak_def)
        got = [(v["target_parent"], v["target_child"], v["preimage"])
               for v in report.violations if v["kind"] == "unrealizable-step"]
        assert len(got) == len(want) and set(got) == want, weak_def
        records += len(got)
    return records


def random_explorations(seed):
    """test_dynamics' random systems that grow, tau 1 to 4, explored
    plainly and under a shuffle."""
    rng = random.Random(seed)
    for tau in (1, 2, 3, 4):
        grown = 0
        for _ in range(1000):
            if grown >= 6:
                break
            tas = (_seeded_system if rng.random() < 0.5 else _random_system)(
                rng, tau)
            bound = rng.randint(3, 6)
            p = explore(tas, bound)
            if len(p) > 60 or len(p) == len(tas.initial_state):
                continue  # keep the oracle cheap, and skip inert systems
            grown += 1
            yield p
            yield explore(tas, bound, shuffle_seed=rng.randint(0, 999))
        assert grown >= 6, tau


def compiled_explorations(taus, shuffle_seeds):
    """(sim, comp, target) for the suite compiled by all five methods at
    each tau, the simulator explored at 3 * budget and the target at 3."""
    for tau in taus:
        for _, tas in suite():
            tas = rescaled(tas, tau)
            for compile_, variants in ((compile_strong, STRONG_VARIANTS),
                                       (compile_weak, WEAK_VARIANTS)):
                for variant in variants:
                    comp = compile_(tas, variant)
                    for k in shuffle_seeds:
                        yield (explore(comp.simulator_tas(), 3 * comp.budget,
                                       shuffle_seed=k),
                               comp, explore(tas, 3, shuffle_seed=k))


def test_no_compiled_simulator_member_is_a_corrupt_macrotile():
    """The lemma of compiled.anchored_rep: on every member of the suite's
    explorations under all five compilers at tau 2 and 4, the one block
    check never fires, and the reader's images are the oracle's, read
    through the dict-level check (oracles.oracle_anchored_decode)."""
    decoded = 0
    for sim, comp, _ in compiled_explorations((2, 4), (None,)):
        rep = comp.rep
        check = oracle_anchored_decode(*block_check(comp))
        reader = BlockReader(rep)
        for s in sim.members():
            img = reader.decode(s)
            got = None if img is None else (img.offset, img.image, img.clean)
            assert got == oracle_decode(s.cells, rep.m, check,
                                        rep.offsets_for(s)), s.fingerprint
            decoded += img is not None
    assert decoded >= 700, decoded


def test_window_decoder_matches_the_dict_check_on_every_window():
    """compiled.anchored_rep's row-mask check against the dict-level
    oracle on every distinct window the reader cuts from the suite's
    explorations under all five compilers at tau 2, 3 and 4, plain and
    shuffled: the same None, tile id or CorruptMacrotile message."""
    seen = {}
    for sim, comp, _ in compiled_explorations((2, 3, 4), (None, 7)):
        rep, m = comp.rep, comp.m
        check = oracle_anchored_decode(*block_check(comp))
        windows = set()
        for s in sim.members():
            for ox, oy in rep.offsets_for(s):
                for by in range(-oy // m, (s.height - 1 - oy) // m + 1):
                    for bx in range(-ox // m, (s.width - 1 - ox) // m + 1):
                        windows.add(window(s, ox + m * bx, oy + m * by, m))
        windows.discard((0,) * m)
        for win in windows:
            got = block_outcome(rep.decode_window, win)
            assert got == block_outcome(check, window_block(win)), win
            kind = "tile" if isinstance(got, str) else repr(got)
            seen[kind] = seen.get(kind, 0) + 1
    assert seen.get("tile", 0) >= 1000 and seen.get("None", 0) >= 400, seen


def test_reach_bitsets_match_the_search_oracle():
    records = sum(reach_matches_oracle(sim, COARSE)
                  for sim in random_explorations(4321))
    assert records >= 10, records
    for sim, comp, target in compiled_explorations((2, 3, 4), (None, 7)):
        reach_matches_oracle(sim, comp.rep, target)


def test_reach_bitsets_match_the_search_oracle_under_colliding_keys(
        colliding_keys):
    records = sum(reach_matches_oracle(sim, COARSE)
                  for sim in random_explorations(8765))
    assert records >= 10, records
    for sim, comp, target in compiled_explorations((2, 3, 4), (3,)):
        reach_matches_oracle(sim, comp.rep, target)
