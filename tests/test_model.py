import copy
import json
import random
from collections import Counter

import pytest

from twoham import (
    INFINITE,
    NULL_GLUE,
    TAS,
    EmptyAssembly,
    Glue,
    NegativeStrength,
    Supertile,
    TileSet,
    TileType,
    UnknownTileId,
    binding_graph,
    combination_offsets,
    combine,
    interaction,
    interface_strength,
    is_tau_stable,
)
from twoham import cli, mincut
from twoham.compiled import wire_tiles
from twoham.dynamics import explore
from twoham import model
from twoham.model import DIRECTIONS, OFFSET, OPPOSITE, SeamIndex, _disjoint_at
from twoham.serialize import parse_tas, serialize_tas
from oracles import (canon, oracle_combine, oracle_faces, oracle_initial_state,
                     oracle_stable)


def tile(tid, n=None, e=None, s=None, w=None):
    def g(parts):
        return NULL_GLUE if parts is None else Glue(*parts)

    return TileType(tid, g(n), g(e), g(s), g(w))


LABELS = "abcd"


def random_tileset(rng, ntiles=4, max_strength=3):
    tiles = []
    for i in range(ntiles):
        sides = [
            NULL_GLUE if rng.random() < 0.35
            else Glue(rng.choice(LABELS), rng.randint(1, max_strength))
            for _ in range(4)
        ]
        tiles.append(TileType(f"t{i}", *sides))
    return TileSet(tiles)


def random_placement(rng, ts, n):
    cells = {(0, 0): rng.choice(ts.tiles).id}
    while len(cells) < n:
        x, y = rng.choice(sorted(cells))
        dx, dy = rng.choice(((0, 1), (1, 0), (0, -1), (-1, 0)))
        cells[(x + dx, y + dy)] = rng.choice(ts.tiles).id
    return cells


def test_interaction_rule():
    assert interaction(Glue("a", 2), Glue("a", 2)) == 2
    assert interaction(Glue("a", 2), Glue("b", 2)) == 0
    assert interaction(Glue("a", 2), Glue("a", 1)) == 0
    assert interaction(NULL_GLUE, NULL_GLUE) == 0
    assert interaction(Glue("a", 1), NULL_GLUE) == 0


def test_glue_validation():
    with pytest.raises(NegativeStrength):
        Glue("a", -1)
    with pytest.raises(ValueError):
        Glue("", 1)


def test_glue_contract():
    """Glues are immutable values: equal and equally hashed wherever
    they were built, validated on construction, and binding only to an
    identical positive glue."""
    doc = {"temperature": 2, "tiles": [
        {"id": "A", "east": {"label": "p:0,0:h", "strength": 2}}]}
    parsed = parse_tas(json.dumps(doc)).tile_set.tile("A").east
    wired = wire_tiles({(0, 0): "u", (1, 0): "v"}, {}, "p", 2, {})[0].east
    by_hand = Glue("p:0,0:h", 2)
    assert parsed == wired == by_hand
    assert hash(parsed) == hash(wired) == hash(by_hand)
    assert {parsed: 1}[by_hand] == 1
    assert (by_hand.label, by_hand.strength) == ("p:0,0:h", 2)
    assert repr(by_hand) == "Glue(label='p:0,0:h', strength=2)"
    assert copy.deepcopy(by_hand) == by_hand
    for field in ("label", "strength"):
        with pytest.raises(AttributeError):
            setattr(by_hand, field, "x")
    assert by_hand == Glue("p:0,0:h", 2)

    with pytest.raises(NegativeStrength):
        Glue("a", True)
    with pytest.raises(NegativeStrength):
        Glue("a", -1)
    with pytest.raises(ValueError):
        Glue("", 1)

    # declaration order: tiles in order, sides N, E, S, W; positive only
    ts = TileSet([tile("x", n=("a", 1), e=("b", 2), w=("a", 1)),
                  tile("y", n=("c", 1), e=("b", 2), s=("a", 2), w=("d", 0))])
    assert ts.glues == (Glue("a", 1), Glue("b", 2), Glue("c", 1), Glue("a", 2))

    glues = [Glue("a", 1), Glue("a", 2), Glue("b", 1), Glue("a", 0), NULL_GLUE]
    for g in glues:
        for h in glues:
            want = g.strength if g == h and g.strength > 0 else 0
            assert interaction(g, h) == want, (g, h)


def test_tile_type_contract():
    """Tile types are immutable (id, north, east, south, west) tuples:
    built by position or keyword with null sides by default, equal and
    equally hashed on equal fields, and printed as before."""
    g, h = Glue("g", 2), Glue("h", 1)
    by_position = TileType("t", g, NULL_GLUE, h)
    by_keyword = TileType(id="t", north=g, south=h)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert {by_position: 1}[by_keyword] == 1
    assert (by_keyword.id, by_keyword.north, by_keyword.east, by_keyword.south,
            by_keyword.west) == ("t", g, NULL_GLUE, h, NULL_GLUE)
    assert tuple(TileType("u")) == ("u", NULL_GLUE, NULL_GLUE, NULL_GLUE, NULL_GLUE)
    assert TileType("u", west=h) == TileType("u", NULL_GLUE, NULL_GLUE, NULL_GLUE, h)
    assert TileType("t", g) != TileType("t", h) != TileType("u", h)

    assert [by_keyword.glue(d) for d in DIRECTIONS] == [g, NULL_GLUE, h, NULL_GLUE]
    for bad in ("north", "n", "", None):
        with pytest.raises(KeyError):
            by_keyword.glue(bad)

    for field in ("id", "north", "east", "south", "west", "label"):
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, g)
    copied = copy.deepcopy(by_keyword)
    assert type(copied) is TileType
    assert copied == by_keyword and hash(copied) == hash(by_keyword)

    assert repr(TileType("a'b", east=Glue("x", 2), west=Glue("w", 0))) == (
        "TileType(id=\"a'b\", north=Glue(label='', strength=0), "
        "east=Glue(label='x', strength=2), south=Glue(label='', strength=0), "
        "west=Glue(label='w', strength=0))")


def test_tileset_rejects_duplicate_ids():
    a = tile("x", e=("g", 1))
    with pytest.raises(ValueError):
        TileSet([a, tile("x")])


def _glues_built(ts):
    try:
        TileSet.glues.__get__(ts)
    except AttributeError:
        return False
    return True


def test_tileset_pins_lazy_glues_and_the_first_duplicate(capsys, monkeypatch, tmp_path):
    """glues, built on its first read, is the old eager declaration-order
    list; a duplicate id is named at its first repeat in tile order; and
    a verify of the pair, by every method, never builds glues on the
    universal tile set."""
    rng = random.Random(3141)
    for _ in range(200):
        ts = random_tileset(rng, ntiles=rng.randint(1, 6))
        assert not _glues_built(ts)
        want = []
        for t in ts.tiles:
            for g in (t.north, t.east, t.south, t.west):
                if g.strength > 0 and g not in want:
                    want.append(g)
        assert ts.glues == tuple(want)
        assert _glues_built(ts) and ts.glues is ts.glues

    repeats = 0
    for _ in range(200):
        ids = [rng.choice("pqrs") for _ in range(rng.randint(1, 6))]
        first = next((tid for i, tid in enumerate(ids) if tid in ids[:i]), None)
        tiles = [tile(tid) for tid in ids]
        if first is None:
            assert [t.id for t in TileSet(tiles)] == ids
            continue
        repeats += 1
        with pytest.raises(ValueError, match=f"^duplicate tile id '{first}'$"):
            TileSet(tiles)
    assert repeats >= 100, repeats

    compiled = []

    def recording(compiler):
        def compile_and_record(tas):
            compiled.append(compiler(tas))
            return compiled[-1]
        return compile_and_record

    for name, compiler in list(cli.METHODS.items()):
        monkeypatch.setitem(cli.METHODS, name, recording(compiler))
    ts = TileSet([tile("a", e=("g", 2)), tile("b", w=("g", 2))])
    src = tmp_path / "pair.json"
    src.write_text(serialize_tas(TAS(ts, 2)))
    for name in sorted(cli.METHODS):
        out = tmp_path / f"pair.{name}.json"
        assert cli.main(["compile", "--tas", str(src), "--method", name,
                         "--out", str(out)]) == 0
        assert cli.main(["verify", "--tas", str(src), "--compiled", str(out),
                         "--size-bound", "2"]) == 0
    capsys.readouterr()
    assert len(compiled) == 2 * len(cli.METHODS)
    assert not any(_glues_built(comp.universal_tiles) for comp in compiled)


def test_tileset_unknown_id():
    ts = TileSet([tile("x")])
    with pytest.raises(UnknownTileId):
        ts.tile("y")


def test_tileset_glue_order_is_declaration_order():
    ts = TileSet([
        tile("a", n=("p", 1), e=("q", 2)),
        tile("b", s=("p", 1), w=("r", 1)),
    ])
    assert ts.glues == (Glue("p", 1), Glue("q", 2), Glue("r", 1))


def test_binding_graph_matching_pair():
    ts = TileSet([tile("a", e=("g", 2)), tile("b", w=("g", 2))])
    adj = binding_graph({(0, 0): "a", (1, 0): "b"}, ts)
    assert adj[(0, 0)] == {(1, 0): 2}
    assert adj[(1, 0)] == {(0, 0): 2}


def test_binding_graph_mismatch_has_no_edge():
    ts = TileSet([tile("a", e=("g", 2)), tile("b", w=("h", 2))])
    adj = binding_graph({(0, 0): "a", (1, 0): "b"}, ts)
    assert adj == {(0, 0): {}, (1, 0): {}}


def test_binding_graph_l_shape_path():
    ts = TileSet([
        tile("a", e=("g", 1)),
        tile("b", w=("g", 1), n=("h", 1)),
        tile("c", s=("h", 1)),
    ])
    adj = binding_graph({(0, 0): "a", (1, 0): "b", (1, 1): "c"}, ts)
    edges = {
        (min(u, v), max(u, v), w)
        for u, nbrs in adj.items()
        for v, w in nbrs.items()
    }
    assert edges == {((0, 0), (1, 0), 1), ((1, 0), (1, 1), 1)}


def test_unknown_id_raises():
    ts = TileSet([tile("a")])
    with pytest.raises(UnknownTileId):
        binding_graph({(0, 0): "zzz"}, ts)


def test_singleton_is_stable_at_any_tau():
    ts = TileSet([tile("a")])
    assert is_tau_stable({(0, 0): "a"}, ts, 2)
    assert is_tau_stable({(0, 0): "a"}, ts, 99)


def test_weak_duple_unstable_at_tau_two():
    ts = TileSet([tile("a", e=("g", 1)), tile("b", w=("g", 1))])
    cells = {(0, 0): "a", (1, 0): "b"}
    assert not is_tau_stable(cells, ts, 2)
    assert is_tau_stable(cells, ts, 1)


def test_empty_assembly_rejected():
    ts = TileSet([tile("a")])
    with pytest.raises(EmptyAssembly):
        is_tau_stable({}, ts, 1)
    with pytest.raises(EmptyAssembly):
        Supertile({})


def test_stability_matches_exhaustive_oracle():
    """Tiered cut check vs the try-every-bipartition reference."""
    rng = random.Random(4021)
    disagreements = 0
    for _ in range(60):
        ts = random_tileset(rng, ntiles=rng.randint(2, 4))
        for _ in range(4):
            cells = random_placement(rng, ts, rng.randint(2, 8))
            for tau in (1, 2, 3, 4):
                if is_tau_stable(cells, ts, tau) != oracle_stable(cells, ts, tau):
                    disagreements += 1
    assert disagreements == 0


def glued_shape(rng, tau):
    """A 2x2 to 4x3 rectangle less up to two cells, one tile type per
    cell.  Each abutment gets one label and a glue pair that is absent,
    light (equal strengths below tau), heavy (equal, tau or tau + 1) or
    mismatched (unequal strengths, one of them at least tau)."""
    shape = [(x, y) for x in range(rng.randint(2, 4))
             for y in range(rng.randint(2, 3))]
    rng.shuffle(shape)
    shape = sorted(shape[rng.randint(0, 2):])
    sides = {xy: {} for xy in shape}
    for k, (x, y) in enumerate(shape):
        for (dx, dy), (mine, theirs) in (((1, 0), ("east", "west")),
                                         ((0, 1), ("north", "south"))):
            nb = (x + dx, y + dy)
            kind = rng.choice(("none", "mismatch") + ("light",) * 3
                              + ("heavy",) * 4)
            if nb not in sides or kind == "none" or (kind == "light" and tau == 1):
                continue
            if kind == "light":  # mostly tau/2 and up, so light cuts can hold
                ws = [rng.choice(range(1, tau) if rng.random() < 0.3
                                 else range(tau // 2 or 1, tau))] * 2
            elif kind == "heavy":
                ws = [rng.choice((tau, tau + 1))] * 2
            else:
                w = rng.choice((tau, tau + 1))
                ws = [w, rng.choice([v for v in range(1, tau + 3) if v != w])]
                rng.shuffle(ws)
            sides[(x, y)][mine] = Glue(f"e{k}{mine}", ws[0])
            sides[nb][theirs] = Glue(f"e{k}{mine}", ws[1])
    tiles = [TileType(f"c{i}", **sides[xy]) for i, xy in enumerate(shape)]
    return {xy: f"c{i}" for i, xy in enumerate(shape)}, TileSet(tiles)


def test_stability_matches_the_oracle_on_label_equal_glues():
    """is_tau_stable against the try-every-bipartition reference, tau 1
    to 4, with glues that share a label but not a strength: such a pair
    does not bind, however strong either side is."""
    rng = random.Random(3131)
    verdicts = Counter()
    for i in range(1600):
        tau = 1 + i % 4
        cells, ts = glued_shape(rng, tau)
        want = oracle_stable(cells, ts, tau)
        assert is_tau_stable(cells, ts, tau) == want, (tau, cells)
        verdicts[want] += 1
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts
    ts = TileSet([tile("a", e=("g", 2))])
    for cells in ({(0, 0): "a", (1, 0): "zzz"}, {(0, 0): "zzz", (1, 0): "a"}):
        with pytest.raises(UnknownTileId):
            is_tau_stable(cells, ts, 2)


def bonded(width, height, strength, missing=()):
    """A width x height rectangle, one tile type per cell, each abutment
    but the (cell, neighbour) pairs in missing bound by a glue of its own
    at the given strength."""
    sides = {(x, y): {} for x in range(width) for y in range(height)}
    for x, y in sides:
        for nb, mine, theirs in (((x + 1, y), "east", "west"),
                                 ((x, y + 1), "north", "south")):
            if nb in sides and ((x, y), nb) not in missing:
                sides[(x, y)][mine] = sides[nb][theirs] = Glue(
                    f"{x}.{y}.{mine}", strength)
    tiles = [TileType(f"c{i}", **sides[xy]) for i, xy in enumerate(sides)]
    return {xy: f"c{i}" for i, xy in enumerate(sides)}, TileSet(tiles)


def test_stability_of_seeds_past_the_oracle(monkeypatch):
    """Seeds of 100 cells, far past the exhaustive oracle, whose answer
    at tau 2 is known by construction: every cut of a ladder of
    strength-1 rungs and rails crosses two bonds until a corner loses one,
    a line of strength-1 bonds falls apart at any of them, and a line of
    strength-2 bonds is one heavy component, proved with no cut at all."""
    cuts = []
    sw = mincut.stoer_wagner
    monkeypatch.setattr(mincut, "stoer_wagner",
                        lambda adj: cuts.append(len(adj)) or sw(adj))
    for (cells, ts), stable, cut in (
            (bonded(2, 50, 1), True, True),
            (bonded(2, 50, 1, missing={((0, 0), (1, 0))}), False, True),
            (bonded(100, 1, 1), False, True),
            (bonded(100, 1, 2), True, False)):
        assert len(cells) == 100
        del cuts[:]
        assert is_tau_stable(cells, ts, 2) is stable
        assert bool(cuts) is cut, cuts


def test_canonicalize_translation_invariance():
    ts = TileSet([tile("a", e=("g", 1)), tile("b", w=("g", 1))])
    shape = {(5, 7): "a", (6, 7): "b"}
    assert Supertile(shape) == Supertile({(0, 0): "a", (1, 0): "b"})
    assert Supertile(shape).cells == {(0, 0): "a", (1, 0): "b"}


def test_canonicalize_idempotent_and_discriminating():
    a = Supertile({(3, -2): "a"})
    assert Supertile(a.cells) == a
    horizontal = Supertile({(0, 0): "a", (1, 0): "a"})
    vertical = Supertile({(0, 0): "a", (0, 1): "a"})
    assert horizontal != vertical
    assert horizontal.fingerprint != vertical.fingerprint


def test_random_canonicalize_quotient():
    rng = random.Random(77)
    ts = random_tileset(rng)
    for _ in range(25):
        cells = random_placement(rng, ts, rng.randint(1, 6))
        dx, dy = rng.randint(-9, 9), rng.randint(-9, 9)
        moved = {(x + dx, y + dy): t for (x, y), t in cells.items()}
        assert Supertile(cells) == Supertile(moved)


def test_combine_two_singletons():
    ts = TileSet([tile("a", e=("g", 2)), tile("b", w=("g", 2))])
    a = Supertile({(0, 0): "a"})
    b = Supertile({(0, 0): "b"})
    got = combine(a, b, ts, 2)
    assert len(got) == 1
    assert got[0].cells == {(0, 0): "a", (1, 0): "b"}


def test_combine_weak_glue_yields_nothing():
    ts = TileSet([tile("a", e=("g", 1)), tile("b", w=("g", 1))])
    a = Supertile({(0, 0): "a"})
    b = Supertile({(0, 0): "b"})
    assert combine(a, b, ts, 2) == []


def test_mismatch_does_not_block_combination():
    # the union carries one mismatched abutment next to a strength-2 seam
    ts = TileSet([
        tile("a1", n=("v", 2), e=("e", 2)),
        tile("a2", s=("v", 2), e=("p", 1)),
        tile("b1", n=("v", 2), w=("e", 2)),
        tile("b2", s=("v", 2), w=("q", 1)),
    ])
    a = Supertile({(0, 0): "a1", (0, 1): "a2"})
    b = Supertile({(0, 0): "b1", (0, 1): "b2"})
    got = combine(a, b, ts, 2)
    square = Supertile({(0, 0): "a1", (0, 1): "a2", (1, 0): "b1", (1, 1): "b2"})
    assert square in got
    # and the mismatched abutment contributes no edge
    adj = binding_graph(square.cells, ts)
    assert (1, 1) not in adj[(0, 1)]


def test_interface_strength_counts_the_seam():
    ts = TileSet([
        tile("a1", n=("v", 2), e=("e", 2)),
        tile("a2", s=("v", 2), e=("p", 1)),
        tile("b1", n=("v", 2), w=("e", 2)),
        tile("b2", s=("v", 2), w=("q", 1)),
    ])
    a = Supertile({(0, 0): "a1", (0, 1): "a2"})
    b = Supertile({(0, 0): "b1", (0, 1): "b2"})
    assert interface_strength(a, b, ts, (1, 0)) == 2
    assert interface_strength(a, b, ts, (2, 0)) == 0


def test_combine_matches_offset_window_oracle():
    """combine keeps no cut check on the union: compare it with every
    stable union over a full offset window, tau 1 to 4."""
    rng = random.Random(90125)
    nonempty = {}
    for tau in (1, 2, 3, 4):
        checked = nonempty[tau] = 0
        while checked < 300:
            ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
            pa = random_placement(rng, ts, rng.randint(1, 4))
            pb = random_placement(rng, ts, rng.randint(1, 4))
            if not oracle_stable(pa, ts, tau) or not oracle_stable(pb, ts, tau):
                continue
            a, b = Supertile(pa), Supertile(pb)
            got = {canon(s.cells) for s in combine(a, b, ts, tau)}
            want = oracle_combine(pa, pb, ts, tau)
            assert got == want, (tau, pa, pb)
            checked += 1
            if want:
                nonempty[tau] += 1
    # the loop must exercise real combinations at every temperature
    assert min(nonempty.values()) >= 4, nonempty


def _seam_tileset(rng, tau):
    """Four tiles whose vertical sides often carry a glue of strength
    tau, so that stable columns form, and whose horizontal sides often
    carry a glue "a" of strength ceil(tau / 2), so that columns meet on
    seams of several weak glues; the other sides draw "a" or "b" at
    strengths 1 to tau + 1, so equal labels meet at unequal strengths."""
    def side(vertical):
        r = rng.random()
        if r < 0.25:
            return NULL_GLUE
        if r < 0.6:
            return Glue("v", tau) if vertical else Glue("a", (tau + 1) // 2)
        return Glue(rng.choice("ab"), rng.randint(1, tau + 1))

    return TileSet([TileType(f"t{i}", side(True), side(False), side(True),
                             side(False)) for i in range(4)])


def _abutting(a, b, ts, ox, oy):
    """(glue of b, facing glue of a) for every cell of b at (ox, oy)
    that abuts a cell of a."""
    for (x, y), tid in b.cells.items():
        for d in DIRECTIONS:
            dx, dy = OFFSET[d]
            atid = a.cells.get((x + ox + dx, y + oy + dy))
            if atid is not None:
                yield ts.tile(tid).glue(d), ts.tile(atid).glue(OPPOSITE[d])


def _seam_pass_against_oracles(seed):
    """For random pairs of producible supertiles, tau 1 to 4: the seam
    summed by SeamIndex.seams equals interface_strength at every
    disjoint offset of the full window, SeamIndex.unions keeps exactly
    the disjoint offsets whose seam reaches tau, in order, and on pairs
    of at most 6 tiles together its unions are the offset window
    oracle's."""
    rng = random.Random(seed)
    seen = {"kept": 0, "mixed": 0, "oracle": 0}
    cooperative = {}
    for tau in (1, 2, 3, 4):
        cooperative[tau] = 0
        for _ in range(60):
            ts = _seam_tileset(rng, tau)
            pool = explore(TAS(ts, tau), 4).members()
            for _ in range(5):
                a, b = rng.choice(pool), rng.choice(pool)
                assert oracle_stable(a.cells, ts, tau)
                assert oracle_stable(b.cells, ts, tau)
                seams = SeamIndex(ts)
                seams.add(b)
                summed = seams.seams(a, b.size)
                window = [(ox, oy) for ox in range(-b.width, a.width + 1)
                          for oy in range(-b.height, a.height + 1)]
                assert {(ox, oy) for _, ox, oy in summed} <= set(window)
                want = []
                for ox, oy in window:
                    if any((x + ox, y + oy) in a.cells for x, y in b.cells):
                        continue
                    strength = interface_strength(a, b, ts, (ox, oy))
                    assert summed.get((0, ox, oy), 0) == strength
                    glues = list(_abutting(a, b, ts, ox, oy))
                    seen["mixed"] += any(
                        gb.label == ga.label and gb.strength != ga.strength
                        and gb.strength and ga.strength for gb, ga in glues)
                    if strength >= tau:
                        want.append((ox, oy))
                        cooperative[tau] += max(
                            interaction(gb, ga) for gb, ga in glues) < tau
                kept = seams.unions(a, b.size, tau)
                assert [offset for _, offset, _ in kept] == want
                assert all(member is b for member, _, _ in kept)
                if a.size + b.size <= 6:  # keep the exhaustive cuts affordable
                    assert {canon(c.cells) for _, _, c in kept} == oracle_combine(
                        a.cells, b.cells, ts, tau)
                    seen["oracle"] += 1
                seen["kept"] += len(kept)
    return seen, cooperative


def test_seam_pass_matches_interface_strength():
    seen, cooperative = _seam_pass_against_oracles(4711)
    assert seen["kept"] >= 600 and min(seen.values()) >= 400, seen
    # seams of several weak glues at every temperature that has them
    assert min(cooperative[tau] for tau in (2, 3, 4)) >= 8, cooperative


def test_seam_pass_matches_interface_strength_under_colliding_keys(colliding_keys):
    seen, cooperative = _seam_pass_against_oracles(4712)
    assert seen["kept"] >= 600 and min(seen.values()) >= 400, seen
    assert min(cooperative[tau] for tau in (2, 3, 4)) >= 8, cooperative


def _merged(a, b, offset):
    ox, oy = offset
    cells = dict(a.cells)
    cells.update({(x + ox, y + oy): t for (x, y), t in b.cells.items()})
    return Supertile(cells)


def _same_supertile(got, want, ts):
    assert list(got.cells.items()) == list(want.cells.items())
    assert (got.size, got.width, got.height, got.key, got.fingerprint) == (
        want.size, want.width, want.height, want.key, want.fingerprint)
    assert got.rows == want.rows and got.faces(ts) == oracle_faces(want.cells, ts)


def test_union_matches_merged_dict():
    """Supertile.union vs Supertile(merged dict) for every child of
    random stable pairs, and for every union of such a child with its
    first parent (faces derived from derived faces), tau 1 to 4."""
    rng = random.Random(90125)
    checked, nested = {}, 0
    for tau in (1, 2, 3, 4):
        pairs = checked[tau] = 0
        while pairs < 1000:
            ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
            for _ in range(10):
                pa = random_placement(rng, ts, rng.randint(1, 4))
                pb = random_placement(rng, ts, rng.randint(1, 4))
                if not oracle_stable(pa, ts, tau) or not oracle_stable(pb, ts, tau):
                    continue
                pairs += 1
                a, b = Supertile(pa), Supertile(pb)
                for offset, child in combination_offsets(a, b, ts, tau):
                    _same_supertile(child, _merged(a, b, offset), ts)
                    checked[tau] += 1
                    for off2, grand in combination_offsets(child, a, ts, tau):
                        _same_supertile(grand, _merged(child, a, off2), ts)
                        nested += 1
                    # another TileSet object, even an equal one, reads rows
                    other = TileSet(ts.tiles)
                    fresh = Supertile.union(a, b, offset, ts)
                    merged = _merged(a, b, offset).cells
                    assert fresh.faces(other) == oracle_faces(merged, other)
                    assert fresh.faces(ts) == oracle_faces(merged, ts)
    # the loop must check real unions at every temperature
    assert min(checked.values()) >= 30 and nested >= 200, (checked, nested)


def _face_tileset(rng, tau):
    """Four tiles whose sides draw the null glue, a labelled glue of
    strength 0, or "a" or "b" at strengths 1 to tau, so faces of one
    label at unequal strengths, and zero-strength sides, both occur."""
    def side():
        r = rng.random()
        if r < 0.2:
            return NULL_GLUE
        if r < 0.35:
            return Glue(rng.choice("ab"), 0)
        return Glue(rng.choice("ab"), rng.randint(1, tau))

    return TileSet([TileType(f"t{i}", side(), side(), side(), side())
                    for i in range(4)])


def _holed_cells(rng, ts):
    """A random subset of a random box, so rows have gaps, some rows may
    be empty and the box has holes, at a random offset."""
    w, h = rng.randint(1, 6), rng.randint(1, 6)
    dx, dy = rng.randint(-40, 40), rng.randint(-40, 40)
    spots = [(x, y) for x in range(w) for y in range(h)]
    keep = rng.sample(spots, rng.randint(1, len(spots)))
    return {(x + dx, y + dy): rng.choice(ts.tiles).id for x, y in keep}


def _disjoint_offset(rng, a, b):
    """A random offset of b against a in the joint box with no overlap,
    or None."""
    for _ in range(20):
        ox = rng.randint(-b.width, a.width)
        oy = rng.randint(-b.height, a.height)
        if not any((x + ox, y + oy) in a.cells for x, y in b.cells):
            return ox, oy
    return None


def test_faces_match_cell_scan_oracle(monkeypatch):
    """Supertile.faces against oracle_faces, tau 1 to 4, on random tile
    sets with zero-strength sides: supertiles built from holed cells at
    offset coordinates, read off their rows; unions of two such, whose
    faces are derived from their parents' faces, and unions of such a
    union with a third supertile, derived from derived faces; and a
    union read against a second, equal TileSet object, which reads its
    rows.  The path each read takes is asserted by counting row reads."""
    row_reads = []
    read_rows = model._row_faces
    monkeypatch.setattr(model, "_row_faces",
                        lambda *args: row_reads.append(1) or read_rows(*args))
    rng = random.Random(8086)
    seen = Counter()
    for tau in (1, 2, 3, 4):
        for _ in range(150):
            ts = _face_tileset(rng, tau)
            pieces = []
            for _ in range(3):
                cells = _holed_cells(rng, ts)
                st = Supertile(cells)
                del row_reads[:]
                assert st.faces(ts) == oracle_faces(dict(canon(cells)), ts)
                assert len(row_reads) == 1
                pieces.append(st)
                seen["cells"] += 1
            a, b, c = pieces
            offset = _disjoint_offset(rng, a, b)
            if offset is None:
                continue
            merged = _merged(a, b, offset).cells
            ab = Supertile.union(a, b, offset, ts)
            del row_reads[:]
            assert ab.faces(ts) == oracle_faces(merged, ts) and not row_reads
            seen["union"] += 1
            off2 = _disjoint_offset(rng, ab, c)
            if off2 is not None:
                abc = Supertile.union(ab, c, off2, ts)
                want = oracle_faces(_merged(ab, c, off2).cells, ts)
                assert abc.faces(ts) == want and not row_reads
                seen["nested"] += 1
            other = TileSet(ts.tiles)
            fresh = Supertile.union(a, b, offset, ts)
            assert fresh.faces(other) == oracle_faces(merged, other)
            assert len(row_reads) == 1 and _cells_unbuilt(fresh)
            seen["other"] += 1
    assert min(seen.values()) >= 300, seen


def _row_kernels_against_cells(seed):
    """The row kernels on random stable pairs at tau 1 to 4, each against
    its cell-dict form: a fresh union's rows against Supertile(merged
    dict), built from cells, and its derived faces against the cell-scan
    oracle on the merged cells; _disjoint_at against cell-set
    intersection at every offset of the joint box; and == against
    cell-dict equality over every pair of the pieces and children seen,
    which under colliding keys includes many pairs of equal key and
    size."""
    rng = random.Random(seed)
    seen = Counter()
    for tau in (1, 2, 3, 4):
        pairs = 0
        while pairs < 500:
            ts = random_tileset(rng, ntiles=2, max_strength=tau + 1)
            pa = random_placement(rng, ts, rng.randint(1, 4))
            pb = random_placement(rng, ts, rng.randint(1, 4))
            if not oracle_stable(pa, ts, tau) or not oracle_stable(pb, ts, tau):
                continue
            pairs += 1
            a, b = Supertile(pa), Supertile(pb)
            for ox in range(-b.width, a.width + 1):
                for oy in range(-b.height, a.height + 1):
                    hit = any((x + ox, y + oy) in a.cells for x, y in b.cells)
                    assert _disjoint_at(a, b, ox, oy) is not hit, (ox, oy)
                    seen["overlap" if hit else "disjoint"] += 1
            pool = [a, b, Supertile(pa), Supertile(pb)]
            for offset, child in combination_offsets(a, b, ts, tau):
                merged = _merged(a, b, offset)
                assert child.rows == merged.rows
                assert child.faces(ts) == oracle_faces(merged.cells, ts)
                assert _cells_unbuilt(child)
                pool += [child, merged]
                seen["union"] += 1
            for s in pool:
                for t in pool:
                    same = s == t
                    if s.key == t.key and s.size == t.size:
                        seen["equal" if same else "same key, unequal"] += 1
                    assert same is (s.cells == t.cells)
    return seen


def test_row_kernels_match_cells():
    seen = _row_kernels_against_cells(1618)
    assert min(seen[k] for k in ("overlap", "disjoint", "union")) >= 200, seen


def test_row_kernels_match_cells_under_colliding_keys(colliding_keys):
    seen = _row_kernels_against_cells(1619)
    assert min(seen.values()) >= 200, seen


def test_equality_compares_rows_not_keys(monkeypatch):
    """With every key 0, supertiles of one size are told apart by their
    rows alone: rearrangements of the same tiles, and one shape over two
    tile sets whose ids differ.  A union equals the same cells built from
    a dict, wherever they were placed."""
    monkeypatch.setattr(model, "_KEY_MOD", 1)
    ab = TileSet([tile("a", e=("g", 2)), tile("b", w=("g", 2))])
    cd = TileSet([tile("c", e=("g", 2)), tile("d", w=("g", 2))])
    a, c = Supertile({(0, 0): "a"}), Supertile({(0, 0): "c"})
    shapes = [Supertile.union(a, Supertile({(0, 0): "b"}), (1, 0), ab),
              Supertile.union(c, Supertile({(0, 0): "d"}), (1, 0), cd),
              Supertile({(0, 0): "b", (1, 0): "a"}),
              Supertile({(0, 0): "a", (0, 1): "b"}),
              Supertile({(0, 0): "a", (1, 1): "b"}),
              Supertile({(5, 5): "a", (6, 5): "b"}),
              Supertile({(0, 0): "c", (1, 0): "d"})]
    assert {s.key for s in shapes} == {0} and {s.size for s in shapes} == {2}
    for s in shapes:
        for t in shapes:
            assert (s == t) is (s.cells == t.cells)
    assert shapes[0] == shapes[5] and shapes[1] == shapes[6]
    assert shapes[0] != shapes[1]


def _cells_unbuilt(st):
    with pytest.raises(AttributeError):
        Supertile.cells.__get__(st)
    return True


def _lookups_through_parents(u, s, colliding):
    """u, a fresh union, against s, its Supertile(merged dict), both ways
    round and through dict and set lookups, none of which may build u's
    cells: equality compares the rows u took from its parents.  With
    colliding keys u is also held against a same-key supertile that it
    is not."""
    assert u == s and _cells_unbuilt(u)
    assert s == u and _cells_unbuilt(u)
    assert {s: s}.get(u) is s and _cells_unbuilt(u)
    assert u in {s} and _cells_unbuilt(u)
    if not colliding:
        return
    tiles = sorted(s.cells.values())
    row = Supertile({(i, 0): t for i, t in enumerate(tiles)})
    column = Supertile({(0, i): t for i, t in enumerate(tiles)})
    other = column if row.cells == s.cells else row
    assert other.key == u.key and other.size == u.size
    assert u != other and _cells_unbuilt(u)
    assert other != u and _cells_unbuilt(u)
    assert {other: other}.get(u) is None and _cells_unbuilt(u)
    assert u not in {other} and _cells_unbuilt(u)
    assert {other: other, s: s}.get(u) is s and _cells_unbuilt(u)


def _union_lookups(seed, colliding):
    """Every child of random stable pairs, and every union of such a
    child with its first parent, through _lookups_through_parents."""
    rng = random.Random(seed)
    checked = 0
    for tau in (1, 2, 3, 4):
        pairs = 0
        while pairs < 400:
            ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
            pa = random_placement(rng, ts, rng.randint(1, 4))
            pb = random_placement(rng, ts, rng.randint(1, 4))
            if not oracle_stable(pa, ts, tau) or not oracle_stable(pb, ts, tau):
                continue
            pairs += 1
            a, b = Supertile(pa), Supertile(pb)
            for offset, child in combination_offsets(a, b, ts, tau):
                merged = _merged(a, b, offset)
                # before pairing the child, which builds its cells
                _lookups_through_parents(child, merged, colliding)
                checked += 1
                for off2, grand in combination_offsets(child, a, ts, tau):
                    _lookups_through_parents(grand, _merged(merged, a, off2),
                                             colliding)
                    checked += 1
    return checked


def test_union_equality_reads_parents():
    assert _union_lookups(2024, colliding=False) >= 300


def test_union_equality_reads_parents_under_colliding_keys(colliding_keys):
    assert _union_lookups(2025, colliding=True) >= 300


def _unions_under(st):
    """Every union under st, down its first parents and both parents
    of each, once."""
    seen = {}
    stack = [p for p, _, _ in st.parents]
    while stack:
        u = stack.pop()
        if u.parents is not None and id(u) not in seen:
            seen[id(u)] = u
            stack += [p for p, _, _ in u.parents]
    return list(seen.values())


def _nothing_stored_under(st):
    return all(_cells_unbuilt(u) and u._faces is None
               for u in _unions_under(st))


def test_long_union_chain_reads_without_recursion():
    """A 1,500-tile line built one Supertile.union at a time, none of
    whose cells were read on the way, gives the cells, faces, equality
    and dict probe of Supertile(merged dict); each read starts from a
    fresh chain.  Reading its cells and then its faces stores neither on
    any union under it, so the read takes memory linear in the line."""
    ts = TileSet([TileType("a", north=Glue("n", 1), east=Glue("g", 2),
                           west=Glue("g", 2))])
    tile = Supertile({(0, 0): "a"})
    want = Supertile({(x, 0): "a" for x in range(1500)})

    def line():
        st = tile
        for x in range(1, 1500):
            st = Supertile.union(st, tile, (x, 0), ts)
        assert _cells_unbuilt(st.parents[0][0])
        return st

    st = line()
    assert list(st.cells.items()) == list(want.cells.items())
    assert len(_unions_under(st)) == 1498 and _nothing_stored_under(st)
    faces = oracle_faces(want.cells, ts)
    assert st.faces(ts) == faces
    assert _nothing_stored_under(st)
    st = line()
    assert st.faces(ts) == faces and _nothing_stored_under(st)
    assert line() == want and want == line()
    assert {want: want}.get(line()) is want


def test_shared_parent_union_dag_reads_like_merged_cells():
    """11 rounds of doubling, each union taking one supertile as both
    parents, give a 2,048-tile line whose fresh cells are those of
    Supertile(merged dict), in order, and so are its faces; neither read
    stores anything on the unions under it."""
    ts = TileSet([TileType("a", north=Glue("n", 1), east=Glue("g", 2),
                           west=Glue("g", 2))])

    def doubled():
        u = Supertile({(0, 0): "a"})
        for _ in range(11):
            u = Supertile.union(u, u, (u.width, 0), ts)
        return u

    merged = {(0, 0): "a"}
    for _ in range(11):
        width = len(merged)
        merged.update({(x + width, y): t for (x, y), t in list(merged.items())})
    want = Supertile(merged)
    u = doubled()
    assert u.size == 2048 and len(_unions_under(u)) == 10
    assert list(u.cells.items()) == list(want.cells.items())
    assert _nothing_stored_under(u)
    faces = oracle_faces(want.cells, ts)
    assert u.faces(ts) == faces and _nothing_stored_under(u)
    u = doubled()
    assert u.faces(ts) == faces and _nothing_stored_under(u)


def test_combine_is_symmetric_and_sized():
    rng = random.Random(3551)
    for _ in range(25):
        ts = random_tileset(rng, ntiles=3, max_strength=2)
        tau = rng.randint(1, 2)
        pa = random_placement(rng, ts, rng.randint(1, 3))
        pb = random_placement(rng, ts, rng.randint(1, 3))
        if not is_tau_stable(pa, ts, tau) or not is_tau_stable(pb, ts, tau):
            continue
        a, b = Supertile(pa), Supertile(pb)
        ab = combine(a, b, ts, tau)
        ba = combine(b, a, ts, tau)
        assert [s.fingerprint for s in ab] == [s.fingerprint for s in ba]
        for s in ab:
            assert s.size == a.size + b.size
            assert is_tau_stable(s.cells, ts, tau)


def test_tas_default_state_is_all_singletons():
    ts = TileSet([tile("a"), tile("b", e=("g", 2))])
    sys_ = TAS(ts, 2)
    assert len(sys_.initial_state) == 2
    assert all(count == INFINITE for _, count in sys_.initial_state)
    assert sorted(st.cells[(0, 0)] for st, _ in sys_.initial_state) == ["a", "b"]


def test_tas_merges_duplicate_supertiles():
    ts = TileSet([tile("a")])
    s = Supertile({(0, 0): "a"})
    sys_ = TAS(ts, 1, [(s, 2), (Supertile({(4, 4): "a"}), 3)])
    assert sys_.initial_state == ((s, 5),)


def random_initial_state(rng):
    """A system whose tiles all show one glue of strength at least tau,
    so that every connected placement is stable, and a random initial
    state of fresh supertiles over it: a few shapes of one to four
    tiles, each listed one or more times, some shifted, with finite and
    infinite counts.  Returns (tile set, tau, state, (shape, shift)
    picks)."""
    tau = rng.randint(1, 3)
    g = Glue("a", rng.randint(tau, 3))
    ts = TileSet(TileType(f"t{i}", g, g, g, g) for i in range(3))
    shapes = [random_placement(rng, ts, rng.randint(1, 4))
              for _ in range(rng.randint(2, 6))]
    state = []
    picks = []
    for _ in range(rng.randint(1, 10)):
        i = rng.randrange(len(shapes))
        dx, dy = rng.choice(((0, 0), (0, 0), (3, -1), (-2, 5)))
        cells = {(x + dx, y + dy): t for (x, y), t in shapes[i].items()}
        count = INFINITE if rng.random() < 0.3 else rng.randint(1, 4)
        state.append((Supertile(cells), count))
        picks.append((i, dx, dy))
    return ts, tau, state, picks


def _initial_state_against_the_oracle(seed):
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(150):
        ts, tau, state, picks = random_initial_state(rng)
        got = TAS(ts, tau, state).initial_state
        want = oracle_initial_state(state)
        assert len(got) == len(want)
        for (st, count), (want_st, want_count) in zip(got, want):
            assert st is want_st and count == want_count
        sizes = Counter(st.size for st, _ in got)
        seen["repeated"] += len(set(picks)) < len(picks)
        seen["translated"] += len({i for i, _, _ in picks}) < len(set(picks))
        seen["tied"] += any(n > 1 for n in sizes.values())
        seen["distinct sizes"] += len(sizes) > 1
        seen["infinite"] += any(c == INFINITE for _, c in got)
        seen["finite"] += any(c != INFINITE for _, c in got)
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def test_tas_initial_state_matches_the_oracle():
    """TAS merges by the supertile and orders by size, reading
    fingerprints only in a size tie; that must give the same objects,
    order and counts as merging by fingerprint and sorting by (size,
    fingerprint)."""
    _initial_state_against_the_oracle(4561)


def test_tas_initial_state_matches_the_oracle_under_colliding_keys(colliding_keys):
    _initial_state_against_the_oracle(4562)


def test_tas_hashes_only_initial_supertiles_that_tie_on_size(sha1_calls):
    """A supertile whose size no other initial supertile shares is never
    hashed, each tied one is hashed once, and a merged duplicate not at
    all."""
    rng = random.Random(4563)
    unique = tied = 0
    for _ in range(60):
        ts, tau, state, _ = random_initial_state(rng)
        del sha1_calls[:]
        got = TAS(ts, tau, state).initial_state
        calls = list(sha1_calls)
        sizes = Counter(st.size for st, _ in got)
        ties = [st for st, _ in got if sizes[st.size] > 1]
        assert sorted(calls) == sorted(st.fingerprint for st in ties)
        unique += len(got) - len(ties)
        tied += len(ties)
    assert unique >= 30 and tied >= 30, (unique, tied)


def test_tas_rejects_bad_input():
    ts = TileSet([tile("a", e=("g", 1)), tile("b", w=("g", 1))])
    s = Supertile({(0, 0): "a"})
    with pytest.raises(ValueError):
        TAS(ts, 0)
    with pytest.raises(ValueError):
        TAS(ts, 1, [(s, 0)])
    with pytest.raises(ValueError):
        TAS(ts, 2, [(Supertile({(0, 0): "a", (1, 0): "b"}), 1)])
    with pytest.raises(UnknownTileId):
        TAS(ts, 1, [(Supertile({(0, 0): "nope"}), 1)])
