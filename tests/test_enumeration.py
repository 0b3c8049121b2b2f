import random

import pytest

from twoham import DIRECTIONS, Glue, NULL_GLUE, TileSet, TileType
from twoham.enumeration import (
    CanonicalTileSet,
    _block_tiles,
    canonicalize_tileset,
    full_tile_list,
    functionally_equivalent,
    get_nth_tas,
)
from twoham.errors import CapExceeded, FeasibilityCapExceeded

from oracles import all_single_glue_shapes, oracle_get_nth_tas
from test_model import random_tileset, tile


def shape_of(ts):
    return frozenset(
        tuple((t.glue(d).label, t.glue(d).strength) for d in DIRECTIONS)
        for t in ts)


def sides_of(ts):
    return [tuple((t.glue(d).label, t.glue(d).strength) for d in DIRECTIONS)
            for t in ts]


def test_index_zero_is_empty():
    out = get_nth_tas(0, 2)
    assert len(out.tile_set) == 0
    assert out.num_glues == 1
    assert out.glue_strengths == (1,)
    assert out.subset_index == 0


def test_full_tile_list_size():
    assert len(full_tile_list(1, (1,))) == 15
    assert len(full_tile_list(2, (1, 2))) == 80


def test_index_one_is_first_tile():
    out = get_nth_tas(1, 2)
    assert sides_of(out.tile_set) == [(("", 0), ("", 0), ("", 0), ("0", 1))]


def test_matches_literal_trace():
    for n in range(60):
        got = sides_of(get_nth_tas(n, 2).tile_set)
        assert got == oracle_get_nth_tas(n, 2)


def test_block_boundary():
    # 2^15 subsets for strength-1 glue, then the strength-2 block begins
    out = get_nth_tas(1 << 15, 2)
    assert len(out.tile_set) == 0
    assert out.glue_strengths == (2,)
    assert out.subset_index == 0
    nxt = get_nth_tas((1 << 15) + 1, 2)
    assert sides_of(nxt.tile_set) == [(("", 0), ("", 0), ("", 0), ("0", 2))]


def test_prefix_outputs_are_canonical():
    for n in range(0, 200, 7):
        out = get_nth_tas(n, 2)
        for g in out.tile_set.glues:
            assert 1 <= g.strength <= 2
            assert g.label == "0"
        ids = [t.id for t in out.tile_set]
        assert len(ids) == len(set(ids))


def test_rerun_is_identical():
    for n in (0, 3, 17, 40000):
        assert sides_of(get_nth_tas(n, 2).tile_set) == \
            sides_of(get_nth_tas(n, 2).tile_set)


def test_feasibility_cap():
    # both single-glue blocks fit under the cap, the two-glue block does not
    first_two_glue = 1 << 16
    edge = get_nth_tas(first_two_glue - 1, 2)
    assert edge.num_glues == 1
    with pytest.raises(FeasibilityCapExceeded):
        get_nth_tas(first_two_glue + (1 << 16), 2)
    deep = get_nth_tas(first_two_glue + 10, 2)
    assert deep.num_glues == 2
    assert deep.glue_strengths == (1, 1)
    with pytest.raises(FeasibilityCapExceeded):
        get_nth_tas(10 ** 500, 2)


def test_deep_index_is_found_arithmetically():
    # 10**11 strength vectors into the two-glue range at tau = 10**6, which
    # a vector-by-vector walk would never reach.  The numeral is
    # 10**11 + (1 + base) = 100000 * base + 900002 with base = tau + 1.
    tau = 10 ** 6
    first_two_glue = tau << 15
    deep = get_nth_tas(first_two_glue + (10 ** 11 << 80) + 5, tau)
    assert deep.num_glues == 2
    assert deep.glue_strengths == (900002, 100000)
    assert deep.subset_index == 5
    assert len(deep.tile_set) == 2


def test_zero_strength_digits_kept():
    # two-glue strength counter passes through values with a 0 digit
    deep = get_nth_tas((1 << 16) + (2 << 80), 2)
    assert deep.num_glues == 2
    assert deep.glue_strengths == (0, 2)
    listed = full_tile_list(2, (0, 2))
    strengths = {g.strength for t in listed for g in
                 (t.north, t.east, t.south, t.west) if g.label == "0"}
    assert strengths == {0}


# (index, tau) in a fixed order whose block changes on every call: the
# tau=2 one-glue blocks with strengths (1,) and (2,), the first two-glue
# block, and tau=3 indices whose (num_glues, strengths) equal a tau=2
# block's, since a block's tile list does not depend on tau
BLOCK_HOPPING_SWEEP = (
    (5, 2), ((1 << 15) + 9, 2), ((1 << 16) + 77, 2), (3, 3),
    ((1 << 15) + 4321, 3), (40, 2), ((1 << 16) + 1000, 2),
    ((1 << 15) + 1, 2), (3 * (1 << 15) + 12345, 3), (32767, 3),
)


def test_block_hopping_sweep_matches_fresh_tile_lists():
    _block_tiles.cache_clear()
    keys = []
    for n, tau in BLOCK_HOPPING_SWEEP:
        c = get_nth_tas(n, tau)
        keys.append((c.num_glues, c.glue_strengths))
        listed = full_tile_list(c.num_glues, c.glue_strengths)
        want = [t for i, t in enumerate(listed) if (c.subset_index >> i) & 1]
        assert list(c.tile_set) == want
        if n < 60:
            assert sides_of(c.tile_set) == oracle_get_nth_tas(n, tau)
    assert all(a != b for a, b in zip(keys, keys[1:]))
    assert {(2,), (1, 1)} <= {k[1] for k in keys}
    info = _block_tiles.cache_info()
    assert (info.hits, info.misses) == (0, len(BLOCK_HOPPING_SWEEP))
    assert info.currsize == 1
    # the one block held is the last one built
    _block_tiles(*keys[-1])
    assert _block_tiles.cache_info().hits == 1


def test_returned_tile_lists_do_not_alias_the_cache():
    first = sides_of(get_nth_tas(7, 2).tile_set)
    full_tile_list(1, (1,)).clear()
    full_tile_list(1, (1,)).append(tile("x"))
    hits = _block_tiles.cache_info().hits
    assert sides_of(get_nth_tas(7, 2).tile_set) == first
    assert [t.id for t in get_nth_tas(7, 2).tile_set] == ["t1", "t2", "t3"]
    assert _block_tiles.cache_info().hits == hits + 2
    assert full_tile_list(1, (1,)) is not full_tile_list(1, (1,))


def test_single_glue_coverage():
    """The first two blocks cover every one-glue tile set."""
    want = all_single_glue_shapes(2)
    got = {shape_of(get_nth_tas(n, 2).tile_set) for n in range(1 << 16)}
    assert got == want


def test_bad_arguments():
    with pytest.raises(ValueError):
        get_nth_tas(-1, 2)
    with pytest.raises(ValueError):
        get_nth_tas(0, 0)


def test_canonicalize_relabels_in_first_occurrence_order():
    ts = TileSet([
        tile("a", n=("xx", 1), e=("yy", 2)),
        tile("b", s=("xx", 1), w=("zz", 1)),
    ])
    out = canonicalize_tileset(ts)
    assert sides_of(out.tile_set) == [
        (("0", 1), ("1", 2), ("", 0), ("", 0)),
        (("", 0), ("", 0), ("0", 1), ("2", 1)),
    ]
    assert out.num_glues == 3


def test_canonicalize_idempotent():
    ts = TileSet([tile("a", n=("xx", 1), e=("yy", 2))])
    once = canonicalize_tileset(ts).tile_set
    twice = canonicalize_tileset(once).tile_set
    assert sides_of(once) == sides_of(twice)
    assert [t.id for t in once] == [t.id for t in twice]


def test_canonicalize_blanks_zero_strength_sides():
    ts = TileSet([TileType("a", north=Glue("dead", 0), east=Glue("live", 1))])
    out = canonicalize_tileset(ts)
    assert sides_of(out.tile_set) == [(("", 0), ("0", 1), ("", 0), ("", 0))]


def test_canonicalize_preserves_behavior():
    rng = random.Random(1401)
    for _ in range(20):
        ts = random_tileset(rng, ntiles=rng.randint(1, 4))
        out = canonicalize_tileset(ts)
        assert functionally_equivalent(ts, out.tile_set)


def test_equivalence_identity_and_permutation():
    ts = TileSet([
        tile("a", e=("g", 2)),
        tile("b", w=("g", 2), n=("h", 1)),
    ])
    assert functionally_equivalent(ts, ts)
    renamed = TileSet([
        tile("p", w=("glue", 2), n=("other", 1)),
        tile("q", e=("glue", 2)),
    ])
    assert functionally_equivalent(ts, renamed)


def test_equivalence_distinguishes_strengths():
    one = TileSet([tile("a", e=("g", 1), w=("g", 1))])
    two = TileSet([tile("a", e=("g", 2), w=("g", 2))])
    assert not functionally_equivalent(one, two)


def test_equivalence_edge_cases():
    ts = TileSet([tile("a", e=("g", 2))])
    assert not functionally_equivalent(ts, TileSet([]))
    assert functionally_equivalent(TileSet([]), TileSet([]))
    big = TileSet([tile(f"t{i}") for i in range(9)])
    with pytest.raises(CapExceeded):
        functionally_equivalent(big, big)


def test_equivalence_symmetric():
    rng = random.Random(888)
    for _ in range(15):
        t1 = random_tileset(rng, ntiles=3)
        t2 = random_tileset(rng, ntiles=3)
        assert functionally_equivalent(t1, t2) == functionally_equivalent(t2, t1)
