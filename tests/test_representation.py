"""Block decoding: grid alignment, fuzz classification, lookup tables."""

import random

import pytest

from twoham import (
    AmbiguousAlignment,
    BlockRepresentation,
    Supertile,
    blocks_at,
    decode_supertile,
    fits_single_block,
)

from oracles import oracle_blocks_at, oracle_decode

A_CELLS = {(0, 0): "a0", (1, 0): "a1", (0, 1): "a2", (1, 1): "a3"}
B_CELLS = {(0, 0): "b0", (1, 0): "b1", (0, 1): "b2", (1, 1): "b3"}


def entry(cells):
    return tuple(sorted((x, y, t) for (x, y), t in cells.items()))


def two_block_rep():
    return BlockRepresentation.from_table(2, {
        entry(A_CELLS): "A",
        entry(B_CELLS): "B",
    })


def test_blocks_at_splits_on_the_grid():
    s = Supertile({(0, 0): "t", (1, 0): "u", (2, 0): "v"})
    blocks = blocks_at(s, 2, 0, 0)
    assert blocks == {(0, 0): {(0, 0): "t", (1, 0): "u"}, (1, 0): {(0, 0): "v"}}


def test_blocks_at_negative_coordinates():
    s = Supertile({(0, 0): "t", (1, 0): "u"})
    blocks = blocks_at(s, 2, 1, 1)
    # cell (0,0) lands at in-block (1,1) of block (-1,-1)
    assert blocks == {(-1, -1): {(1, 1): "t"}, (0, -1): {(0, 1): "u"}}


def test_blocks_at_matches_the_oracle():
    """The per-column and per-row divmod tables give the per-cell formula,
    blocks and their cells in the same order, on random supertiles at
    every offset of scales 1 to 5."""
    rng = random.Random(5525)
    for _ in range(60):
        cells = {(rng.randint(-4, 9), rng.randint(-4, 9)): rng.choice("pqrs")
                 for _ in range(rng.randint(1, 40))}
        s = Supertile(cells)
        for m in range(1, 6):
            for ox in range(m):
                for oy in range(m):
                    got = blocks_at(s, m, ox, oy)
                    want = oracle_blocks_at(s.cells, m, ox, oy)
                    assert ([(k, list(b.items())) for k, b in got.items()]
                            == [(k, list(b.items())) for k, b in want.items()])


def test_decode_full_block():
    img = decode_supertile(Supertile(A_CELLS), two_block_rep())
    assert img is not None
    assert img.offset == (0, 0)
    assert img.image == {(0, 0): "A"}
    assert img.supertile.cells == {(0, 0): "A"}
    assert img.clean


def test_decode_finds_shifted_alignment():
    # one stray tile west of the block pushes the grid anchor to (1, 0)
    cells = {(0, 0): "f"}
    cells.update({(x + 1, y): t for (x, y), t in A_CELLS.items()})
    img = decode_supertile(Supertile(cells), two_block_rep())
    assert img.offset == (1, 0)
    assert img.supertile.cells == {(0, 0): "A"}
    assert img.clean


def test_partial_block_decodes_to_nothing():
    assert decode_supertile(Supertile({(0, 0): "a0"}), two_block_rep()) is None
    assert decode_supertile(
        Supertile({(0, 0): "a0", (1, 0): "a1"}), two_block_rep()) is None


def test_conflicting_alignments_raise():
    rep = BlockRepresentation.from_table(2, {
        ((0, 0, "p"), (1, 0, "q")): "A",
        ((1, 0, "p"),): "B",
    })
    with pytest.raises(AmbiguousAlignment):
        decode_supertile(Supertile({(0, 0): "p", (1, 0): "q"}), rep)


def test_equal_images_at_two_alignments_are_benign():
    rep = BlockRepresentation.from_table(2, {
        ((0, 0, "p"),): "A",
        ((1, 0, "p"),): "A",
    })
    img = decode_supertile(Supertile({(0, 0): "p"}), rep)
    assert img.offset == (0, 0)
    assert img.supertile.cells == {(0, 0): "A"}


def test_orthogonal_fuzz_is_clean():
    cells = dict(A_CELLS)
    cells[(2, 0)] = "x"
    img = decode_supertile(Supertile(cells), two_block_rep())
    assert img.image == {(0, 0): "A"}
    assert img.clean


def test_diagonal_fuzz_is_unclean():
    # (2,2) occupies block (1,1), which only touches the image corner-wise
    cells = dict(A_CELLS)
    cells[(2, 1)] = "x"
    cells[(2, 2)] = "y"
    img = decode_supertile(Supertile(cells), two_block_rep())
    assert img.image == {(0, 0): "A"}
    assert not img.clean


def test_single_block_supertile_is_always_clean():
    # a decoder that tolerates extra cells: in-block fuzz is not fuzz
    rep = BlockRepresentation(
        2, lambda block: "A" if "p" in block.values() else None)
    img = decode_supertile(Supertile({(0, 0): "p", (1, 1): "q"}), rep)
    assert img.image == {(0, 0): "A"}
    assert img.clean


def test_fits_single_block():
    assert fits_single_block(Supertile({(0, 0): "t"}), 2)
    assert fits_single_block(Supertile(A_CELLS), 2)
    assert fits_single_block(Supertile({(0, 0): "t", (0, 1): "u"}), 2)
    assert not fits_single_block(
        Supertile({(0, 0): "t", (1, 0): "u", (2, 0): "v"}), 2)


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        BlockRepresentation(0, lambda block: None)


def test_offset_hook_must_agree_with_full_scan():
    # a hook that merely reorders the full scan never changes the outcome
    rep = two_block_rep()
    hook = BlockRepresentation(2, rep.decode_block, candidate_offsets=lambda s: [
        (1, 1), (1, 0), (0, 1), (0, 0)])
    rng = random.Random(2204)
    tiles = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "x"]
    for _ in range(120):
        cells = {(0, 0): rng.choice(tiles)}
        n = rng.randrange(1, 9)
        while len(cells) < n:
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice([(0, 1), (0, -1), (1, 0), (-1, 0)])
            cells[(x + dx, y + dy)] = rng.choice(tiles)
        s = Supertile(cells)
        try:
            expect = decode_supertile(s, rep)
        except AmbiguousAlignment:
            with pytest.raises(AmbiguousAlignment):
                decode_supertile(s, hook)
            continue
        got = decode_supertile(s, hook)
        if expect is None:
            assert got is None
        else:
            assert got.offset == expect.offset
            assert got.supertile.fingerprint == expect.supertile.fingerprint


def test_restricting_hook_skips_useless_offsets():
    rep = two_block_rep()
    probed = []

    def aligned_only(s):
        probed.append(s.fingerprint)
        return [(0, 0)]

    narrow = BlockRepresentation(2, rep.decode_block, candidate_offsets=aligned_only)
    img = decode_supertile(Supertile(A_CELLS), narrow)
    assert img.supertile.cells == {(0, 0): "A"}
    assert len(probed) == 1


def random_decodes(seed, m, count):
    """Random from_table reps at scale m, each read on supertiles made of
    its own blocks on a small grid plus fuzz cells; yields (s, rep)."""
    rng = random.Random(seed)
    spots = [(i, j) for i in range(m) for j in range(m)]
    for _ in range(count):
        table = {}
        while len(table) < 4:
            block = rng.sample(spots, rng.randint(1, m * m))
            table[tuple(sorted((i, j, rng.choice("pqr")) for i, j in block))] = (
                rng.choice("AB"))
        entries = list(table)
        ox, oy = rng.randrange(m), rng.randrange(m)
        cells = {}
        for bx, by in rng.sample([(x, y) for x in range(3) for y in range(3)],
                                 rng.randint(1, 3)):
            for i, j, t in rng.choice(entries):
                cells[(ox + m * bx + i, oy + m * by + j)] = t
        for _ in range(rng.randint(0, 3)):
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice([(0, 1), (0, -1), (1, 0), (-1, 0)])
            cells.setdefault((x + dx, y + dy), rng.choice("pqr"))
        yield Supertile(cells), BlockRepresentation.from_table(m, table)


def decodes_match_oracle(seed):
    """decode_supertile against oracle_decode; returns how many readings
    were ambiguous, clean with fuzz beside the image, and unclean."""
    seen = {"ambiguous": 0, "fuzzy": 0, "unclean": 0}
    for m in (2, 3):
        for s, rep in random_decodes(seed + m, m, 300):
            try:
                expect = oracle_decode(s.cells, m, rep.decode_block)
            except AmbiguousAlignment:
                with pytest.raises(AmbiguousAlignment):
                    decode_supertile(s, rep)
                seen["ambiguous"] += 1
                continue
            got = decode_supertile(s, rep)
            if expect is None:
                assert got is None
                continue
            offset, image, clean = expect
            assert (got.offset, got.image, got.clean) == (offset, image, clean)
            assert got.supertile == Supertile(image)
            if not clean:
                seen["unclean"] += 1
            elif len(blocks_at(s, m, *offset)) > len(image):
                seen["fuzzy"] += 1
    return seen


def test_one_pass_decode_matches_the_oracle():
    seen = decodes_match_oracle(7103)
    assert min(seen.values()) >= 20, seen


def test_one_pass_decode_matches_the_oracle_under_colliding_keys(
        colliding_keys):
    # every image with the same tiles now has the same key, so two
    # alignments must be told apart by their cells
    seen = decodes_match_oracle(7103)
    assert min(seen.values()) >= 20, seen
