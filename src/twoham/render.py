"""Deterministic SVG pictures of supertiles.

Each tile is one unit square carrying its id; bond strengths appear as
tick marks crossing the shared edge (a strength-n bond draws n ticks).
An exposed face with a positive glue gets the same ticks on the open
edge.  Abutting faces whose glues do not interact draw nothing, so a
mismatch seam is visible as a bare edge between two squares.

Output is a pure function of the supertile and tile set: cells render
in sorted order with integer pixel coordinates, so the same input
always yields the same bytes.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .model import (
    DIRECTIONS,
    EAST,
    NORTH,
    OFFSET,
    OPPOSITE,
    SOUTH,
    Supertile,
    TileSet,
    interaction,
)

CELL = 40
MARGIN = 12
TICK_HALF = 5


def _tick_offsets(n: int):
    return [round(CELL * (i + 1) / (n + 1)) for i in range(n)]


def _edge(px: int, py: int, direction: str):
    # Pixel segment of a cell's edge: start corner plus along-edge step.
    if direction == NORTH:
        return px, py, (1, 0)
    if direction == SOUTH:
        return px, py + CELL, (1, 0)
    if direction == EAST:
        return px + CELL, py, (0, 1)
    return px, py, (0, 1)


def _ticks(out, px, py, direction, strength):
    x0, y0, (ax, ay) = _edge(px, py, direction)
    for off in _tick_offsets(strength):
        cx, cy = x0 + ax * off, y0 + ay * off
        # Ticks run perpendicular to the edge they cross.
        dx, dy = ay * TICK_HALF, ax * TICK_HALF
        out.append(
            f'  <line class="tick" x1="{cx - dx}" y1="{cy - dy}"'
            f' x2="{cx + dx}" y2="{cy + dy}" stroke="#000" stroke-width="2"/>')


def render_svg(s: Supertile, ts: TileSet) -> str:
    cells = s.cells
    maxx = max(x for x, _ in cells)
    maxy = max(y for _, y in cells)
    width = 2 * MARGIN + (maxx + 1) * CELL
    height = 2 * MARGIN + (maxy + 1) * CELL

    def corner(x, y):
        return MARGIN + x * CELL, MARGIN + (maxy - y) * CELL

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" viewBox="0 0 {width} {height}">',
        f'  <rect width="{width}" height="{height}" fill="#fff"/>',
    ]
    for (x, y) in sorted(cells):
        px, py = corner(x, y)
        out.append(
            f'  <rect class="cell" x="{px}" y="{py}" width="{CELL}"'
            f' height="{CELL}" fill="#f4f4f4" stroke="#333"/>')
        out.append(
            f'  <text x="{px + CELL // 2}" y="{py + CELL // 2}"'
            f' text-anchor="middle" dominant-baseline="central"'
            f' font-family="monospace" font-size="{CELL // 3}">'
            f'{escape(cells[(x, y)])}</text>')
    for (x, y) in sorted(cells):
        tile = ts.tile(cells[(x, y)])
        px, py = corner(x, y)
        for d in DIRECTIONS:
            dx, dy = OFFSET[d]
            neighbor = cells.get((x + dx, y + dy))
            if neighbor is None:
                g = tile.glue(d)
                if g.strength > 0:
                    _ticks(out, px, py, d, g.strength)
            elif d in (NORTH, EAST):
                # Interior edges are scanned from one side only so each
                # bond draws exactly once.
                n = interaction(tile.glue(d), ts.tile(neighbor).glue(OPPOSITE[d]))
                if n > 0:
                    _ticks(out, px, py, d, n)
    out.append("</svg>")
    return "\n".join(out) + "\n"
