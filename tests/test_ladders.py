import pytest

from twoham import Supertile, combine, interface_strength, is_tau_stable
from twoham.dynamics import explore
from twoham.errors import HeightTooSmall
from twoham.ladders import (
    ALIGNED_OFFSET,
    LEFT,
    RIGHT,
    binding_strength_matrix,
    build_ladder_system,
    enumerate_half_ladders,
    half_ladder_cells,
    make_half_ladder,
    mirror,
    witness_sequence,
)

from oracles import canon, oracle_closure, oracle_stable


def test_system_shape():
    sys2 = build_ladder_system(2)
    assert len(sys2.tile_set) == 8
    strengths = {g.strength for g in sys2.tile_set.glues}
    assert strengths == {2, 1}
    sys3 = build_ladder_system(3)
    assert {g.strength for g in sys3.tile_set.glues} == {3, 1}
    with pytest.raises(ValueError):
        build_ladder_system(1)


def test_enumeration_counts():
    sys2 = build_ladder_system(2)
    assert len(enumerate_half_ladders(sys2, 4, LEFT)) == 6
    assert len(enumerate_half_ladders(sys2, 2, LEFT)) == 1
    assert len(enumerate_half_ladders(sys2, 5, RIGHT)) == 10
    assert len(enumerate_half_ladders(sys2, 6, LEFT)) == 15
    sys3 = build_ladder_system(3)
    assert len(enumerate_half_ladders(sys3, 5, LEFT)) == 10
    with pytest.raises(HeightTooSmall):
        enumerate_half_ladders(sys3, 2, LEFT)


def test_half_ladder_geometry():
    sys2 = build_ladder_system(2)
    for ladder in enumerate_half_ladders(sys2, 4, LEFT):
        counts = {}
        for tid in ladder.supertile.cells.values():
            counts[tid] = counts.get(tid, 0) + 1
        assert counts == {"A2": 4, "A3": 3, "A1": 2, "A0": 2}
        rows = sorted(2 * p for p in ladder.rung_positions)
        assert all(r % 2 == 0 for r in rows)
        assert all(b - a >= 2 for a, b in zip(rows, rows[1:]))


def test_half_ladders_stable_and_match_cut_oracle():
    sys2 = build_ladder_system(2)
    for side in (LEFT, RIGHT):
        for ladder in enumerate_half_ladders(sys2, 3, side):
            cells = ladder.supertile.cells
            assert is_tau_stable(cells, sys2.tile_set, 2)
            assert oracle_stable(cells, sys2.tile_set, 2)


def test_mirror_reflects():
    sys2 = build_ladder_system(2)
    for ladder in enumerate_half_ladders(sys2, 4, LEFT):
        m = mirror(ladder)
        assert m.side == RIGHT
        assert m.rung_positions == ladder.rung_positions
        # reflect-and-compare: flip x, swap tile families
        flip = {"A2": "B2", "A3": "B3", "A1": "B1", "A0": "B0"}
        w = ladder.supertile.width
        reflected = {(w - 1 - x, y): flip[t]
                     for (x, y), t in ladder.supertile.cells.items()}
        assert Supertile(reflected) == m.supertile


def test_mirror_requires_left():
    sys2 = build_ladder_system(2)
    r = enumerate_half_ladders(sys2, 2, RIGHT)[0]
    with pytest.raises(ValueError):
        mirror(r)


def test_mirror_pairs_combine():
    sys2 = build_ladder_system(2)
    for ladder in enumerate_half_ladders(sys2, 4, LEFT):
        got = combine(ladder.supertile, mirror(ladder).supertile, sys2.tile_set, 2)
        assert got != []


def test_matrix_matches_aligned_interface():
    sys2 = build_ladder_system(2)
    lefts = enumerate_half_ladders(sys2, 4, LEFT)
    rights = enumerate_half_ladders(sys2, 4, RIGHT)
    matrix = binding_strength_matrix(4, 2)
    for i, l in enumerate(lefts):
        for j, r in enumerate(rights):
            measured = interface_strength(
                l.supertile, r.supertile, sys2.tile_set, ALIGNED_OFFSET)
            assert matrix[i][j] == measured
            assert matrix[i][j] == len(set(l.rung_positions) & set(r.rung_positions))
    n = len(lefts)
    assert all(matrix[i][i] == 2 for i in range(n))
    for i in range(n):
        for j in range(n):
            both = set(lefts[i].rung_positions) | set(rights[j].rung_positions)
            if len(both) == 3:  # exactly one rung moved
                assert matrix[i][j] == 1


def _shift_matched(a, b):
    sa, sb = sorted(a), sorted(b)
    gaps_a = [y - x for x, y in zip(sa, sa[1:])]
    gaps_b = [y - x for x, y in zip(sb, sb[1:])]
    return gaps_a == gaps_b


def test_combination_iff_shift_matched_rungs():
    """Pairs bind exactly when one rung set is a translate of the other."""
    sys2 = build_ladder_system(2)
    lefts = enumerate_half_ladders(sys2, 4, LEFT)
    rights = enumerate_half_ladders(sys2, 4, RIGHT)
    for l in lefts:
        for r in rights:
            got = combine(l.supertile, r.supertile, sys2.tile_set, 2)
            expected = _shift_matched(l.rung_positions, r.rung_positions)
            assert bool(got) == expected


@pytest.mark.xfail(strict=True,
                   reason="shift-matched rung sets also bind, not only equal ones")
def test_combination_only_for_equal_rung_sets():
    sys2 = build_ladder_system(2)
    lefts = enumerate_half_ladders(sys2, 4, LEFT)
    rights = enumerate_half_ladders(sys2, 4, RIGHT)
    for l in lefts:
        for r in rights:
            got = combine(l.supertile, r.supertile, sys2.tile_set, 2)
            assert bool(got) == (l.rung_positions == r.rung_positions)


def test_witness_sequences_replay():
    sys2 = build_ladder_system(2)
    for side in (LEFT, RIGHT):
        ladder = make_half_ladder(sys2, side, 3, (0, 2))
        stages = witness_sequence(ladder)
        assert stages[0].size == 1
        assert stages[-1] == ladder.supertile
        for prev, nxt in zip(stages, stages[1:]):
            added = nxt.size - prev.size
            assert added == 1
            candidates = set()
            for t in sys2.tile_set:
                single = Supertile({(0, 0): t.id})
                candidates.update(combine(prev, single, sys2.tile_set, 2))
            assert nxt in candidates


def test_ladders_appear_in_exploration():
    sys2 = build_ladder_system(2)
    p = explore(sys2, 7)  # 2h - 1 + 2 tau for h = 2
    for side in (LEFT, RIGHT):
        for ladder in enumerate_half_ladders(sys2, 2, side):
            assert ladder.supertile in p


def test_exploration_matches_independent_closure():
    sys2 = build_ladder_system(2)
    p = explore(sys2, 7)
    seeds = [{(0, 0): t.id} for t in sys2.tile_set]
    want = oracle_closure(seeds, sys2.tile_set, 2, 7)
    got = {canon(s.cells) for s in p.members()}
    assert got == want
    assert len(got) == 134


def test_right_cells_canonical_column():
    cells = half_ladder_cells(RIGHT, 3, (1, 2))
    assert cells[(2, 0)] == "B2"
    assert cells[(0, 2)] == "B0"
    assert cells[(1, 4)] == "B1"
