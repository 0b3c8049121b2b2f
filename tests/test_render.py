from xml.sax.saxutils import escape

from twoham import Glue, Supertile, TAS, TileSet, TileType
from twoham import weak
from twoham.render import render_svg


def rects(svg):
    return svg.count('class="cell"')


def ticks(svg):
    return svg.count('class="tick"')


def test_singleton_is_one_square():
    ts = TileSet([TileType("a")])
    svg = render_svg(Supertile({(0, 0): "a"}), ts)
    assert rects(svg) == 1
    assert ticks(svg) == 0
    assert ">a</text>" in svg


def test_exposed_positive_face_shows_its_strength():
    ts = TileSet([TileType("a", east=Glue("g", 2))])
    svg = render_svg(Supertile({(0, 0): "a"}), ts)
    assert rects(svg) == 1
    assert ticks(svg) == 2


def test_bonded_pair_draws_the_edge_once():
    ts = TileSet([
        TileType("a", east=Glue("g", 1)),
        TileType("b", west=Glue("g", 1)),
    ])
    svg = render_svg(Supertile({(0, 0): "a", (1, 0): "b"}), ts)
    assert rects(svg) == 2
    assert ticks(svg) == 1


def test_bond_strength_sets_tick_count():
    ts = TileSet([
        TileType("a", north=Glue("g", 2)),
        TileType("b", south=Glue("g", 2)),
    ])
    svg = render_svg(Supertile({(0, 0): "a", (0, 1): "b"}), ts)
    assert ticks(svg) == 2


def test_mismatch_seam_stays_bare():
    ts = TileSet([
        TileType("a", east=Glue("p", 2)),
        TileType("b", west=Glue("q", 2)),
    ])
    svg = render_svg(Supertile({(0, 0): "a", (1, 0): "b"}), ts)
    assert rects(svg) == 2
    assert ticks(svg) == 0


def test_output_is_byte_stable():
    ts = TileSet([
        TileType("a", east=Glue("g", 1)),
        TileType("b", west=Glue("g", 1), north=Glue("h", 2)),
    ])
    s = Supertile({(0, 0): "a", (1, 0): "b"})
    assert render_svg(s, ts) == render_svg(s, ts)


def test_tile_ids_are_escaped():
    ts = TileSet([TileType("a<b")])
    svg = render_svg(Supertile({(0, 0): "a<b"}), ts)
    assert "a&lt;b" in svg
    assert "<b" not in svg.replace("a&lt;b", "")
    # &, < and > come out as xml.sax.saxutils.escape writes them, an
    # entity-looking id included
    for tid in ("a&b", "a>b", "&lt;<>&amp;"):
        svg = render_svg(Supertile({(0, 0): tid}), TileSet([TileType(tid)]))
        assert f">{escape(tid)}</text>" in svg
        assert tid not in svg.replace(escape(tid), "")


def test_macrotile_square_count_matches_layout():
    tas = TAS(TileSet([TileType("only")]), 2)
    comp = weak.compile_weak(tas, weak.WEAK1)
    (st, _), = comp.input_supertiles
    layout, = comp.meta.megas.values()
    assert len(st.cells) == len(layout.cells)
    svg = render_svg(st, comp.universal_tiles)
    assert rects(svg) == len(layout.cells)
