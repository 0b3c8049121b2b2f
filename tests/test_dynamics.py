import random
from collections import Counter

import pytest

from twoham import INFINITE, TAS, Glue, Supertile, TileSet, TileType, combine
from twoham.cli import main
from twoham.dynamics import ProducibleSet, StateMultiset, explore, is_terminal, single_step_reachable
from twoham.errors import BoundTooSmall, NotProducible
from twoham.serialize import serialize_tas

from oracles import canon, oracle_closure, oracle_combine, oracle_explore, oracle_stable
from test_cli import square_tas
from test_model import random_placement, random_tileset, tile


def named_edges(p):
    """p's edges as fingerprint triples with the parents sorted, the way
    oracle_explore names them."""
    return {(*sorted((pa.fingerprint, pb.fingerprint)), child.fingerprint)
            for pa, pb, child in p.edges}


def two_tile_system():
    ts = TileSet([tile("A", e=("g", 2)), tile("B", w=("g", 2))])
    return TAS(ts, 2)


def test_explore_inert_tile():
    ts = TileSet([tile("A")])
    p = explore(TAS(ts, 2), 5)
    assert len(p) == 1
    assert p.complete


def test_explore_two_tile_system():
    p = explore(two_tile_system(), 2)
    assert len(p) == 3
    sizes = sorted(s.size for s in p.members())
    assert sizes == [1, 1, 2]
    ab = next(s for s in p.members() if s.size == 2)
    assert ab.cells == {(0, 0): "A", (1, 0): "B"}
    # the one discovered step is recorded once, with both parents
    assert len(p.edges) == 1
    pa, pb, child = next(iter(p.edges))
    assert {pa.size, pb.size} == {1} and pa != pb and child == ab


def test_explore_rejects_too_small_bound():
    tas = two_tile_system()
    duple = Supertile({(0, 0): "A", (1, 0): "B"})
    seeded = TAS(tas.tile_set, 2, [(duple, INFINITE)])
    with pytest.raises(BoundTooSmall):
        explore(seeded, 1)


def test_explore_step_bound_clips():
    p = explore(two_tile_system(), 2, step_bound=1)
    assert not p.complete
    full = explore(two_tile_system(), 2)
    assert full.complete
    assert len(full) >= len(p)


def test_terminality():
    p = explore(two_tile_system(), 2)
    a = next(s for s in p.members() if s.cells == {(0, 0): "A"})
    ab = next(s for s in p.members() if s.size == 2)
    assert not is_terminal(a, p)
    assert is_terminal(ab, p)
    with pytest.raises(NotProducible):
        is_terminal(Supertile({(0, 0): "B", (1, 0): "A"}), p)


def columns_system():
    """Two columns, a1 over a2 and b1 over b2, that meet on two glues of
    strength 1 at tau 2, and a tile d whose glue shares their label but
    not their strength."""
    ts = TileSet([tile("a1", n=("v", 2), e=("c", 1)),
                  tile("a2", s=("v", 2), e=("c", 1)),
                  tile("b1", n=("w", 2), w=("c", 1)),
                  tile("b2", s=("w", 2), w=("c", 1)),
                  tile("d", w=("c", 2))])
    return TAS(ts, 2)


def _terminality_matches_oracle(seed):
    """is_terminal, given a fresh copy of each member, against
    oracle_combine over every member pair: on the two columns, which bind
    only each other, and on random explorations at tau 1 to 4.  Counts
    the members that bind nothing, bind some singleton, and bind only
    larger members."""
    rng = random.Random(seed)
    explored = [explore(columns_system(), 4)]
    for tau in (1, 2, 3, 4):
        while len(explored) < 1 + 8 * tau:
            p = explore(_random_system(rng, tau), rng.randint(3, 5))
            if len(p) <= 30 and len(p) > len(p.tas.initial_state):
                explored.append(p)  # affordable for the oracle, and growing
    verdicts = Counter()
    for p in explored:
        ts, tau = p.tas.tile_set, p.tas.tau
        members = p.members()
        for s in members:
            partners = [o.size for o in members
                        if oracle_combine(s.cells, o.cells, ts, tau)]
            assert is_terminal(Supertile(s.cells), p) == (not partners), tau
            verdicts["terminal" if not partners else
                     "singleton" if min(partners) == 1 else "larger"] += 1
    return verdicts


def test_terminality_matches_oracle():
    verdicts = _terminality_matches_oracle(4141)
    assert min(verdicts["terminal"], verdicts["singleton"]) >= 40, verdicts
    assert verdicts["larger"] >= 2, verdicts


def test_terminality_matches_oracle_under_colliding_keys(colliding_keys):
    verdicts = _terminality_matches_oracle(4242)
    assert min(verdicts["terminal"], verdicts["singleton"]) >= 40, verdicts
    assert verdicts["larger"] >= 2, verdicts


def test_single_step_relation():
    p = explore(two_tile_system(), 2)
    a = next(s for s in p.members() if s.cells == {(0, 0): "A"})
    b = next(s for s in p.members() if s.cells == {(0, 0): "B"})
    ab = next(s for s in p.members() if s.size == 2)
    assert single_step_reachable(a, ab, p)
    assert single_step_reachable(b, ab, p)
    assert not single_step_reachable(ab, a, p)
    assert not single_step_reachable(a, a, p)
    with pytest.raises(NotProducible):
        single_step_reachable(a, Supertile({(5, 5): "A", (6, 5): "A"}), p)


def test_explore_matches_naive_closure():
    """Worklist closure vs the dumb fixpoint oracle on small systems."""
    rng = random.Random(6060)
    grown = {}
    for tau in (1, 2, 3, 4):
        compared = grown[tau] = 0
        while compared < 40:
            ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
            p = explore(TAS(ts, tau), 5)
            if len(p) > 25:
                continue  # keep the oracle affordable
            seeds = [{(0, 0): t.id} for t in ts]
            want = oracle_closure(seeds, ts, tau, 5)
            got = {canon(s.cells) for s in p.members()}
            assert got == want
            compared += 1
            if len(want) > len(ts):
                grown[tau] += 1
    # every temperature must see systems that grow past their singletons
    assert min(grown.values()) >= 3, grown


def _random_system(rng, tau):
    """Three random tiles; half the systems also seed one stable pair."""
    ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
    if rng.random() < 0.5:
        return TAS(ts, tau)
    state = [(Supertile({(0, 0): t.id}), INFINITE) for t in ts]
    extra = random_placement(rng, ts, 2)
    if oracle_stable(extra, ts, tau):
        state.append((Supertile(extra), INFINITE))
    return TAS(ts, tau, state)


def test_indexed_explore_matches_all_pairs_loop():
    """Indexed pairing vs the all-pairs worklist: same members (down to
    the stored representative's cell order), edges, overflow, steps and
    completeness, with shuffles and step-bound clips, tau 1 to 4."""
    rng = random.Random(7331)
    grown = {}
    seen = {"clipped": 0, "overflow": 0}
    for tau in (1, 2, 3, 4):
        grown[tau] = 0
        for _ in range(1000):
            if grown[tau] >= 8:
                break
            tas = _random_system(rng, tau)
            bound = rng.randint(3, 6)
            full = explore(tas, bound)
            if len(full) > 60:
                continue  # keep the all-pairs loop affordable
            runs = [{}, {"shuffle_seed": rng.randint(0, 999)},
                    {"step_bound": rng.randint(1, full.steps + 1)},
                    {"step_bound": rng.randint(1, full.steps + 1),
                     "shuffle_seed": rng.randint(0, 999)}]
            for kwargs in runs:
                p = explore(tas, bound, **kwargs)
                supers, edges, overflow, steps, complete = oracle_explore(
                    tas, bound, **kwargs)
                assert ({st.fingerprint: list(st.cells.items()) for st in p.supertiles}
                        == {fp: list(st.cells.items()) for fp, st in supers.items()})
                assert (named_edges(p), p.overflow, p.steps, p.complete) == (
                    edges, overflow, steps, complete), (tau, bound, kwargs)
                seen["clipped"] += not p.complete
            # a complete run sets aside every unordered pair over the bound
            assert full.complete
            sizes = sorted(s.size for s in full.members())
            over = sum(1 for i, si in enumerate(sizes) for sj in sizes[i:]
                       if si + sj > bound)
            assert full.overflow == over
            grown[tau] += len(full) > len(tas.initial_state)
            seen["overflow"] += over > 0
    # every temperature must see systems that grow past their seeds
    assert min(grown.values()) >= 8, grown
    assert seen["clipped"] >= 40 and seen["overflow"] >= 12, seen


def test_colliding_keys_stay_distinct(colliding_keys):
    """A and B bind both ways round, so AB and BA share a key and a box
    and only the cells tell them apart."""
    ts = TileSet([tile("A", e=("g", 1), w=("h", 1)),
                  tile("B", e=("h", 1), w=("g", 1))])
    a, b = Supertile({(0, 0): "A"}), Supertile({(0, 0): "B"})
    ab = Supertile.union(a, b, (1, 0), ts)
    ba = Supertile({(0, 0): "B", (1, 0): "A"})
    assert ab.key == ba.key and hash(ab) == hash(ba)
    assert ab != ba and ba != ab
    assert len({ab, ba}) == 2
    assert ab == Supertile({(7, 3): "A", (8, 3): "B"})
    p = explore(TAS(ts, 1), 2)
    pairs = [s for s in p.members() if s.size == 2]
    assert sorted(canon(s.cells) for s in pairs) == sorted(
        [canon(ab.cells), canon(ba.cells)])
    assert pairs[0].key == pairs[1].key
    assert len({canon(s.cells) for s in p.members()}) == len(p)
    assert all(p.supertiles[s] is s for s in p.members())


def test_colliding_keys_match_oracles(colliding_keys):
    """With keys colliding constantly, combine still equals the offset
    window oracle and explore the all-pairs worklist, tau 1 to 4."""
    rng = random.Random(2718)
    crowded = 0
    for tau in (1, 2, 3, 4):
        checked = 0
        while checked < 60:
            ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
            pa = random_placement(rng, ts, rng.randint(1, 4))
            pb = random_placement(rng, ts, rng.randint(1, 4))
            if not oracle_stable(pa, ts, tau) or not oracle_stable(pb, ts, tau):
                continue
            got = combine(Supertile(pa), Supertile(pb), ts, tau)
            assert {canon(s.cells) for s in got} == oracle_combine(pa, pb, ts, tau)
            assert len(got) == len({canon(s.cells) for s in got})
            checked += 1
        grown = 0
        for _ in range(200):
            if grown >= 6:
                break
            tas = _random_system(rng, tau)
            bound = rng.randint(3, 6)
            p = explore(tas, bound)
            if len(p) > 60:
                continue  # keep the all-pairs loop affordable
            supers, edges, overflow, steps, complete = oracle_explore(tas, bound)
            assert ({st.fingerprint: list(st.cells.items()) for st in p.supertiles}
                    == {fp: list(st.cells.items()) for fp, st in supers.items()})
            assert (named_edges(p), p.overflow, p.steps, p.complete) == (
                edges, overflow, steps, complete), (tau, bound)
            grown += len(p) > len(tas.initial_state)
            crowded += len(p) > len({s.key for s in p.members()})
        assert grown >= 6, tau
    # members really shared keys, so the exact check decided
    assert crowded >= 10, crowded


def _count_unions(monkeypatch):
    unions = []
    union = Supertile.union.__func__

    def counting_union(cls, *args):
        unions.append(1)
        return union(cls, *args)

    monkeypatch.setattr(Supertile, "union", classmethod(counting_union))
    return unions


def test_explore_without_a_step_bound_computes_no_sha1(monkeypatch, sha1_calls):
    """Exploring the uniquely glued 5x5 square at tau 2 and bound 8
    builds more unions than it finds members, and computes no SHA-1:
    the worklist runs in discovery order."""
    tas = square_tas(5, 2)
    del sha1_calls[:]
    unions = _count_unions(monkeypatch)
    p = explore(tas, 8)
    assert len(p) == 631 and p.complete
    assert sha1_calls == []
    assert len(unions) > len(p)


def test_explore_under_a_step_bound_sha1s_each_new_member_once(
        monkeypatch, sha1_calls):
    """Under a step bound each step's discoveries are sorted by
    fingerprint, which costs one SHA-1 per new member and none for a
    duplicate union."""
    tas = square_tas(5, 2)
    del sha1_calls[:]
    unions = _count_unions(monkeypatch)
    p = explore(tas, 8, step_bound=10**9)
    assert len(p) == 631 and p.complete
    assert len(sha1_calls) == len(p) - len(tas.initial_state)
    assert len(unions) > len(p)


def test_simulate_listing_sha1s_each_member_once(capsys, tmp_path, sha1_calls):
    """The simulate listing prints every member's fingerprint, and
    computes each once: the initial ones when the system is read, the
    rest when the listing is written."""
    path = tmp_path / "square.json"
    path.write_text(serialize_tas(square_tas(5, 2)))
    del sha1_calls[:]
    assert main(["simulate", "--tas", str(path), "--size-bound", "8"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if " size=" in line]
    assert len(listed) == 631
    assert sorted(sha1_calls) == sorted(listed)


def _seeded_system(rng, tau):
    """Three random tiles, the first two also sharing a glue of strength
    tau on east and west; the seed holds that stable pair and, half the
    time, the singletons too."""
    ts = random_tileset(rng, ntiles=3, max_strength=tau + 1)
    strong = Glue("z", tau)
    a, b, c = ts.tiles
    ts = TileSet([TileType(a.id, a.north, strong, a.south, a.west),
                  TileType(b.id, b.north, b.east, b.south, strong), c])
    state = [(Supertile({(0, 0): a.id, (1, 0): b.id}), INFINITE)]
    if rng.random() < 0.5:
        state += [(Supertile({(0, 0): t.id}), INFINITE) for t in ts]
    return TAS(ts, tau, state)


def _order_lemma_holds(seed):
    """Without a step bound, explore's order changes nothing it returns:
    plain, under a step bound that never bites, and under five shuffles,
    the members, the edges (parents unordered), the overflow count and
    completeness agree, tau 1 to 4.  Counts the systems that grew from a
    seed holding a non-singleton."""
    rng = random.Random(seed)
    grown = Counter()
    for tau in (1, 2, 3, 4):
        for _ in range(1000):
            if grown[tau] >= 6:
                break
            tas = (_seeded_system if rng.random() < 0.5 else _random_system)(
                rng, tau)
            bound = rng.randint(3, 5)
            base = explore(tas, bound)
            if len(base) > 40:
                continue  # seven explorations each; keep them cheap
            runs = [explore(tas, bound, step_bound=10**9)]
            runs += [explore(tas, bound, shuffle_seed=k) for k in range(1, 6)]
            for p in runs:
                assert ({s.fingerprint for s in p.supertiles}
                        == {s.fingerprint for s in base.supertiles}), tau
                assert named_edges(p) == named_edges(base), tau
                assert len(p.edges) == len(base.edges), tau
                assert (p.overflow, p.complete) == (base.overflow, True), tau
            seeded = any(st.size > 1 for st, _ in tas.initial_state)
            grown[tau] += seeded and len(base) > len(tas.initial_state)
    return grown


def test_explore_order_lemma():
    grown = _order_lemma_holds(1414)
    assert min(grown[tau] for tau in (1, 2, 3, 4)) >= 6, grown


def test_explore_order_lemma_under_colliding_keys(colliding_keys):
    grown = _order_lemma_holds(1515)
    assert min(grown[tau] for tau in (1, 2, 3, 4)) >= 6, grown


def test_no_union_below_the_seam_threshold(monkeypatch):
    """At tau 2 a partner whose only matching glue weighs 1, and one
    whose glue shares a label but not a strength, get no union built,
    while two columns meeting on two glues of strength 1 still combine:
    every union built is a new member."""
    tas = columns_system()
    unions = []
    union = Supertile.union.__func__

    def counting_union(cls, *args):
        unions.append(1)
        return union(cls, *args)

    monkeypatch.setattr(Supertile, "union", classmethod(counting_union))
    p = explore(tas, 4)
    square = Supertile({(0, 0): "a1", (0, 1): "a2", (1, 0): "b1", (1, 1): "b2"})
    assert square in p and p.complete
    # a1 and a2, b1 and b2, then the two columns: nothing else binds
    assert len(p) - len(tas.initial_state) == len(unions) == 3
    supers, edges, overflow, steps, complete = oracle_explore(tas, 4)
    assert ({st.fingerprint: list(st.cells.items()) for st in p.supertiles}
            == {fp: list(st.cells.items()) for fp, st in supers.items()})
    assert (named_edges(p), p.overflow, p.steps, p.complete) == (
        edges, overflow, steps, complete)


def test_explore_confluent_under_shuffles():
    rng = random.Random(515)
    for _ in range(5):
        ts = random_tileset(rng, ntiles=3, max_strength=2)
        tas = TAS(ts, 2)
        base = explore(tas, 4)
        fps = set(base.supertiles)
        for seed in (1, 2, 3):
            assert set(explore(tas, 4, shuffle_seed=seed).supertiles) == fps
        if base.complete:
            assert (named_edges(explore(tas, 4, shuffle_seed=9))
                    == named_edges(base))


def test_explore_monotone_in_bound():
    rng = random.Random(2319)
    for _ in range(5):
        ts = random_tileset(rng, ntiles=3, max_strength=2)
        tas = TAS(ts, 2)
        small = set(explore(tas, 3).supertiles)
        big = set(explore(tas, 5).supertiles)
        assert small <= big


def test_edges_are_real_combinations():
    rng = random.Random(808)
    ts = random_tileset(rng, ntiles=3, max_strength=2)
    tas = TAS(ts, 2)
    p = explore(tas, 4)
    for pa, pb, child in p.edges:
        products = combine(pa, pb, ts, 2)
        assert child in products


def test_state_multiset_replay():
    tas = two_tile_system()
    p = explore(tas, 2)
    a = next(s for s in p.members() if s.cells == {(0, 0): "A"})
    b = next(s for s in p.members() if s.cells == {(0, 0): "B"})
    ab = next(s for s in p.members() if s.size == 2)

    state = StateMultiset({a.fingerprint: 1, b.fingerprint: 1})
    after = state.step(a, b, ab, tas.tile_set, 2)
    assert after.count(a.fingerprint) == 0
    assert after.count(b.fingerprint) == 0
    assert after.count(ab.fingerprint) == 1

    infinite = StateMultiset.from_tas(tas)
    after = infinite.step(a, b, ab, tas.tile_set, 2)
    assert after.count(a.fingerprint) == INFINITE
    assert after.count(ab.fingerprint) == 1


def test_state_multiset_guards():
    tas = two_tile_system()
    p = explore(tas, 2)
    a = next(s for s in p.members() if s.cells == {(0, 0): "A"})
    b = next(s for s in p.members() if s.cells == {(0, 0): "B"})
    ab = next(s for s in p.members() if s.size == 2)

    with pytest.raises(ValueError):
        StateMultiset({a.fingerprint: -1})
    lone = StateMultiset({a.fingerprint: 1})
    with pytest.raises(ValueError):
        lone.step(a, b, ab, tas.tile_set, 2)
    with pytest.raises(ValueError):
        StateMultiset({a.fingerprint: 2, b.fingerprint: 1}).step(
            a, a, ab, tas.tile_set, 2)
