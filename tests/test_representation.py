"""Block decoding: grid alignment, fuzz classification, lookup tables."""

import random

import pytest

from twoham import (
    TAS,
    AmbiguousAlignment,
    BlockRepresentation,
    CorruptMacrotile,
    Glue,
    Supertile,
    TileSet,
    TileType,
    combine,
    decode_supertile,
    explore,
    fits_single_block,
)
from twoham import model
from twoham.compiled import Piece, anchored_rep
from twoham.model import OFFSET, window, window_block
from twoham.representation import BlockReader
from twoham.strong import STRONG1, STRONG2, compile_strong
from twoham.weak import WEAK1, WEAK2, WEAK3, compile_weak

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


def blocks_at(s, m, ox, oy):
    """The non-empty blocks of the grid at offset (ox, oy), as the reader
    reads them: each a window of s's rows turned into a block."""
    blocks = {}
    for by in range(-oy // m, (s.height - 1 - oy) // m + 1):
        for bx in range(-ox // m, (s.width - 1 - ox) // m + 1):
            block = window_block(window(s, ox + m * bx, oy + m * by, m))
            if block:
                blocks[(bx, by)] = block
    return blocks


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
    """The grid of windows gives the per-cell formula's blocks, on random
    supertiles at every offset of scales 1 to 5."""
    rng = random.Random(5525)
    for _ in range(60):
        cells = {(rng.randint(-4, 9), rng.randint(-4, 9)): rng.choice("pqrs")
                 for _ in range(rng.randint(1, 40))}
        s = Supertile(cells)
        for m in range(1, 6):
            for ox in range(m):
                for oy in range(m):
                    assert blocks_at(s, m, ox, oy) == oracle_blocks_at(
                        s.cells, m, ox, oy)


def random_split(rng):
    """A random supertile built from cells and an equal one built as the
    union of two of its parts, placed as explore places them."""
    cells = {(rng.randint(0, 9), rng.randint(0, 7)): rng.choice("pqrst")
             for _ in range(rng.randint(2, 40))}
    spots = sorted(cells)
    rng.shuffle(spots)
    cut = rng.randint(1, len(spots) - 1)
    a = Supertile({xy: cells[xy] for xy in spots[:cut]})
    b = Supertile({xy: cells[xy] for xy in spots[cut:]})
    shift = (min(x for x, _ in spots[cut:]) - min(x for x, _ in spots[:cut]),
             min(y for _, y in spots[cut:]) - min(y for _, y in spots[:cut]))
    ts = TileSet(TileType(t) for t in "pqrst")
    return Supertile(cells), Supertile.union(a, b, shift, ts)


def test_window_and_its_block_match_the_oracle_past_every_edge():
    """window(s, x0, y0, m) turned into a block is the oracle's block at
    the grid offset and key that put its lower-left cell at (x0, y0), on
    supertiles built from cells and on unions, for every window that
    touches the box or lies up to two cells past any edge of it."""
    rng = random.Random(2209)
    for _ in range(40):
        for s in random_split(rng):
            for m in range(1, 6):
                for x0 in range(-m - 2, s.width + 2):
                    for y0 in range(-m - 2, s.height + 2):
                        win = window(s, x0, y0, m)
                        assert len(win) == m
                        want = oracle_blocks_at(s.cells, m, x0 % m, y0 % m).get(
                            (x0 // m, y0 // m), {})
                        assert window_block(win) == want
                        assert any(win) == bool(want)


def test_window_fields_are_little_endian_words():
    """A window built field by field with explicit shifts, codes taken
    from the intern table, reads back as the block it spells, whatever
    the host's byte order; and a supertile's rows are those fields."""
    cells = {(0, 0): "p", (2, 0): "q", (1, 1): "r", (2, 1): "p"}
    s = Supertile(cells)
    code = model._CODES
    rows = (code["p"] | code["q"] << 64, code["r"] << 32 | code["p"] << 64)
    assert s.rows == rows
    assert window_block(rows + (0,)) == cells
    assert window_block((0, rows[1], 0)) == {(1, 1): "r", (2, 1): "p"}
    assert window(s, 1, 0, 2) == (code["q"] << 32, code["r"] | code["p"] << 32)


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
        2, lambda win: "A" if "p" in window_block(win).values() else None)
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
        BlockRepresentation(0, lambda win: None)


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


# -- BlockReader: each distinct window decoded once ------------------------


def recording_reader(rep):
    """A BlockReader over rep whose decoder logs the block of every window
    it is given, and that log; the oracle run on reader.rep logs into it
    too."""
    calls = []

    def decode(win):
        calls.append(tuple(sorted(window_block(win).items())))
        return rep.decode_window(win)

    return BlockReader(BlockRepresentation(rep.m, decode, rep.anchors,
                                           rep.corner)), calls


def outcome(read, s):
    try:
        return read(s)
    except (AmbiguousAlignment, CorruptMacrotile) as exc:
        return exc


def oracle_read(rep, s):
    """oracle_decode of s through rep, at the offsets its anchor cells
    give (all m * m without anchors)."""
    offsets = None if rep.anchors is None else rep.offsets_for(s)
    return oracle_decode(s.cells, rep.m, rep.decode_block, offsets)


def read_alike(reader, calls, s):
    """The reader reads s as the oracle does: the same offset, image and
    clean, None for junk, or an exception of the same type (the oracle
    meets blocks in another order, so a corrupt-block message may name
    another block).  It decodes only blocks that the oracle reads for s.
    Returns the kind of outcome."""
    del calls[:]
    got = outcome(reader.decode, s)
    decoded = set(calls)
    del calls[:]
    want = outcome(lambda t: oracle_read(reader.rep, t), s)
    assert decoded <= set(calls)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        return type(want).__name__
    if want is None:
        assert got is None
        return "junk"
    assert (got.offset, got.image, got.clean) == want
    assert got.supertile == Supertile(want[1])
    return "image"


def random_system(rng, tau):
    """Three or four tiles on a random connected shape; each adjacency
    gets a glue of strength tau or, one time in four, of a random
    strength up to tau, and one adjacency in eight is mismatched."""
    shape = [(0, 0)]
    size = rng.randint(3, 4)
    while len(shape) < size:
        x, y = rng.choice(shape)
        dx, dy = OFFSET[rng.choice("NESW")]
        if (x + dx, y + dy) not in shape:
            shape.append((x + dx, y + dy))
    sides = {xy: {} for xy in shape}
    for i, (x, y) in enumerate(shape):
        for side, back, (dx, dy) in (("east", "west", (1, 0)),
                                     ("north", "south", (0, 1))):
            if (x + dx, y + dy) in sides:
                g = Glue(f"g{i}{side[0]}", tau if rng.random() < 0.75
                         else rng.randint(1, tau))
                other = g if rng.random() < 0.875 else Glue(f"h{i}", g.strength)
                sides[(x, y)][side] = g
                sides[(x + dx, y + dy)][back] = other
    return TAS(TileSet(TileType(f"t{i}", **sides[xy])
                       for i, xy in enumerate(shape)), tau)


COMPILERS = ((compile_strong, STRONG2), (compile_strong, STRONG1),
             (compile_weak, WEAK1), (compile_weak, WEAK2), (compile_weak, WEAK3))


def reader_matches_the_oracle_on_random_explorations():
    """Every member of shuffled explorations of random systems under all
    five compilers at tau 2 to 4, and the products of every member pair
    beyond the exploration, as strong builds them, read alike through
    the reader.  It reads members in discovery order or newest first,
    and a second pass over the members decodes no block."""
    rng = random.Random(1717)
    seen = {}
    for trial in range(30):
        tau = 2 + trial % 3
        tas = random_system(rng, tau)
        compiler, variant = COMPILERS[trial % 5]
        comp = compiler(tas, variant)
        sim = explore(comp.simulator_tas(), 2 * comp.budget,
                      shuffle_seed=trial)
        members = list(sim.supertiles)
        if trial % 2:
            members.reverse()
        reader, calls = recording_reader(comp.rep)
        for s in members:
            kind = read_alike(reader, calls, s)
            seen[kind] = seen.get(kind, 0) + 1
        # every block decode is kept, so reading again decodes nothing
        del calls[:]
        for s in members:
            outcome(reader.decode, s)
        assert not calls
        ts = comp.universal_tiles
        products = set()
        for x in members:
            for y in members:
                for c in combine(x, y, ts, comp.tau):
                    if c not in sim and c not in products:
                        products.add(c)
                        kind = read_alike(reader, calls, c)
                        seen["product " + kind] = seen.get(
                            "product " + kind, 0) + 1
    assert min(seen.get(k, 0) for k in (
        "image", "junk", "product image")) >= 30, seen


def test_reader_matches_the_oracle_on_random_explorations():
    reader_matches_the_oracle_on_random_explorations()


def test_reader_matches_the_oracle_under_colliding_keys(colliding_keys):
    # equal windows, not keys, share a decode, and a union's offsets are
    # memoized by supertile, which colliding keys must not merge
    reader_matches_the_oracle_on_random_explorations()


def two_block_system():
    """The 2 x 2 blocks A and B as single tiles, bound inside each block
    at tau and across A's east side to B's west at half of it each row,
    plus a fuzz tile x on A's north side, and a from_table
    representation: unions made one tile at a time, so most blocks sit
    on a seam."""
    def sides(prefix, cells):
        out = {t: {} for t in cells.values()}
        for (x, y), t in cells.items():
            if (x + 1, y) in cells:
                out[t]["east"] = out[cells[(x + 1, y)]]["west"] = Glue(
                    f"{prefix}{x}{y}h", 2)
            if (x, y + 1) in cells:
                out[t]["north"] = out[cells[(x, y + 1)]]["south"] = Glue(
                    f"{prefix}{x}{y}v", 2)
        return out

    tiles = {**sides("a", A_CELLS), **sides("b", B_CELLS), "x": {}}
    for y in (0, 1):
        tiles[A_CELLS[(1, y)]]["east"] = tiles[B_CELLS[(0, y)]]["west"] = (
            Glue(f"s{y}", 1))
    tiles["a2"]["north"] = tiles["x"]["south"] = Glue("f", 2)
    ts = TileSet(TileType(t, **glues) for t, glues in tiles.items())
    # A's west column alone, one cell right of the grid, also reads as B,
    # so a whole A reads two ways
    return TAS(ts, 2), BlockRepresentation.from_table(2, {
        entry(A_CELLS): "A", entry(B_CELLS): "B",
        ((1, 0, "a0"), (1, 1, "a2")): "B"})


def test_reader_reads_a_from_table_system_like_the_oracle():
    """from_table has no anchors: every one of the m * m offsets is read,
    junk, fuzz and ambiguous alignments included."""
    tas, rep = two_block_system()
    sim = explore(tas, 10)
    reader, calls = recording_reader(rep)
    seen = {}
    for s in sim.supertiles:
        kind = read_alike(reader, calls, s)
        seen[kind] = seen.get(kind, 0) + 1
    assert min(seen.get(k, 0) for k in (
        "image", "junk", "AmbiguousAlignment")) >= 5, seen


def one_cell_pieces(ids):
    """Each id as a one-cell piece that anchors itself: read with no
    cells to check, a block with a complete 1 x 1 body decodes to the
    id at its corner."""
    return {t: Piece({(0, 0): t}, {}) for t in ids}


def test_union_gains_an_ambiguous_alignment_from_one_parent():
    """A alone decodes at offset (0, 0) only; the union with B beside it
    gets (1, 0) from B's anchor, where B reads as a different image.  The
    reader raises AmbiguousAlignment as the oracle does, and still reads
    each parent alone."""
    rep = anchored_rep(2, 1, 0, one_cell_pieces("AB"), ())
    ts = TileSet([TileType("A"), TileType("B")])
    a, b = Supertile({(0, 0): "A"}), Supertile({(0, 0): "B"})
    u = Supertile.union(a, b, (1, 0), ts)
    reader, calls = recording_reader(rep)
    assert reader.offsets(a) == [(0, 0)] and reader.offsets(b) == [(0, 0)]
    assert reader.offsets(u) == [(0, 0), (1, 0)] == rep.offsets_for(u)
    assert read_alike(reader, calls, u) == "AmbiguousAlignment"
    assert read_alike(reader, calls, a) == "image"
    assert read_alike(reader, calls, b) == "image"


def split_macrotile(comp, tid):
    """Tile tid's macrotile cut in two: the body with the first arm cell
    of each side, and the rest of the arms.  Returns both pieces and
    their union, built as explore builds one."""
    geo = comp.meta.geo
    cells = comp.meta.layouts[tid].cells
    h, k = geo.h, geo.k

    def near_body(x, y):
        return h - 1 <= x <= h + k and h - 1 <= y <= h + k

    body = {xy: t for xy, t in cells.items() if near_body(*xy)}
    rest = {xy: t for xy, t in cells.items() if not near_body(*xy)}
    a, b = Supertile(body), Supertile(rest)
    shift = (min(x for x, _ in rest) - min(x for x, _ in body),
             min(y for _, y in rest) - min(y for _, y in body))
    return a, b, Supertile.union(a, b, shift, comp.universal_tiles)


def test_reader_does_not_decode_a_seam_arm_early():
    """A strong macrotile whose arm one parent starts and the other
    completes: the parent alone raises CorruptMacrotile, the union
    decodes.  Reading the union first must not decode the parent's
    half-arm block, and the parent still raises the same error after."""
    comp = compile_strong(TAS(TileSet((
        TileType("A", east=Glue("g", 2)),
        TileType("B", west=Glue("g", 2)))), 2))
    a, b, u = split_macrotile(comp, "A")
    assert u == Supertile(comp.meta.layouts["A"].cells)
    with pytest.raises(CorruptMacrotile):
        decode_supertile(a, comp.rep)
    reader, calls = recording_reader(comp.rep)
    assert read_alike(reader, calls, u) == "image"
    assert reader.decode(u).supertile.cells == {(0, 0): "A"}
    assert read_alike(reader, calls, b) == "junk"
    assert read_alike(reader, calls, a) == "CorruptMacrotile"
    # and the same again on a fresh reader that reads the parent first
    reader, calls = recording_reader(comp.rep)
    assert read_alike(reader, calls, a) == "CorruptMacrotile"
    assert read_alike(reader, calls, u) == "image"


def test_reader_reads_a_long_chain_of_unions():
    """A line of 3,000 tiles built one tile at a time is read without
    recursion, at the offset its anchors give."""
    rep = anchored_rep(2, 1, 0, one_cell_pieces("A"), ())
    ts = TileSet([TileType("A"), TileType("f")])
    tiles = {t: Supertile({(0, 0): t}) for t in "Af"}
    line = tiles["A"]
    for x in range(1, 3000):
        line = Supertile.union(line, tiles["Af"[x % 2]], (x, 0), ts)
    img = BlockReader(rep).decode(line)
    assert (img.offset, img.image, img.clean) == oracle_read(rep, line)
    assert img.offset == (0, 0) and len(img.image) == 1500


def test_reader_decodes_each_distinct_window_of_a_shared_parent_dag_once():
    """A 2,048-tile line built by 11 rounds of doubling, each union taking
    one supertile as both parents, reads as the oracle reads it.  Of the
    2,049 non-empty windows at its two offsets only three are distinct:
    a whole block, and the half blocks at either end.  The decoder runs
    once on each, and a second read decodes nothing."""
    rep = anchored_rep(2, 1, 0, one_cell_pieces("A"), ())
    ts = TileSet([TileType("A")])
    line = Supertile({(0, 0): "A"})
    for _ in range(11):
        line = Supertile.union(line, line, (line.width, 0), ts)
    reader, calls = recording_reader(rep)
    img = reader.decode(line)
    offsets = reader.offsets(line)
    assert offsets == [(0, 0), (1, 0)]
    distinct = {tuple(sorted(block.items()))
                for ox, oy in offsets
                for block in oracle_blocks_at(line.cells, 2, ox, oy).values()}
    assert len(distinct) == 3 and sorted(calls) == sorted(distinct)
    assert img.offset == (0, 0) and len(img.image) == 1024
    assert (img.offset, img.image, img.clean) == oracle_read(rep, line)
    del calls[:]
    assert reader.decode(line).image == img.image
    assert not calls


def test_a_decode_that_raises_runs_again_on_the_next_read():
    """A raising decode is not kept: the next read of the same window
    decodes it again, and once it returns, the result is kept."""
    failures = [CorruptMacrotile("first read"), CorruptMacrotile("second")]
    calls = []

    def decode(win):
        calls.append(win)
        if failures:
            raise failures.pop(0)
        return "A" if len(window_block(win)) == 2 else None

    reader = BlockReader(BlockRepresentation(2, decode))
    s = Supertile({(0, 0): "p", (1, 0): "q"})
    for message in ("first read", "second"):
        with pytest.raises(CorruptMacrotile, match=message):
            reader.decode(s)
    assert len(calls) == 2
    img = reader.decode(s)
    assert img.image == {(0, 0): "A"}
    assert reader.decode(s).image == img.image
    # the block raised twice, then each of the six distinct windows at
    # the four offsets decoded once
    assert len(calls) == 2 + 6
