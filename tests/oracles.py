"""Reference implementations used to freeze expected values.

Everything here prefers exhaustive enumeration over cleverness: stability
tries every bipartition, combination tries every offset in a window, the
closure recomputes pairs until nothing new appears.  Slow on purpose, and
only usable for small inputs.
"""

import itertools
import math
import random
from collections import deque


def pair_strength(ts, cells, u, v):
    """Binding strength between two occupied, adjacent coordinates."""
    ta = ts.tile(cells[u])
    tb = ts.tile(cells[v])
    if v == (u[0] + 1, u[1]):
        ga, gb = ta.east, tb.west
    elif v == (u[0] - 1, u[1]):
        ga, gb = ta.west, tb.east
    elif v == (u[0], u[1] + 1):
        ga, gb = ta.north, tb.south
    elif v == (u[0], u[1] - 1):
        ga, gb = ta.south, tb.north
    else:
        return 0
    if ga.strength > 0 and ga.label == gb.label and ga.strength == gb.strength:
        return ga.strength
    return 0


def oracle_edges(cells, ts):
    verts = sorted(cells)
    edges = []
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            if abs(u[0] - v[0]) + abs(u[1] - v[1]) != 1:
                continue
            w = pair_strength(ts, cells, u, v)
            if w:
                edges.append((u, v, w))
    return edges


def oracle_stable(cells, ts, tau):
    """Exhaustive bipartition check of connectivity and min cut."""
    verts = sorted(cells)
    n = len(verts)
    if n == 1:
        return True
    edges = oracle_edges(cells, ts)
    adj = {v: [] for v in verts}
    for u, v, w in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != n:
        return False
    index = {v: i for i, v in enumerate(verts)}
    # last vertex pinned to side 0, so every proper bipartition appears once
    for mask in range(1, 1 << (n - 1)):
        side = [(mask >> i) & 1 for i in range(n - 1)] + [0]
        cross = sum(w for u, v, w in edges if side[index[u]] != side[index[v]])
        if cross < tau:
            return False
    return True


def canon(cells):
    """Translation-canonical hashable form, independent of the package."""
    minx = min(x for x, _ in cells)
    miny = min(y for _, y in cells)
    return tuple(sorted(((x - minx, y - miny), t) for (x, y), t in cells.items()))


def oracle_combine(a_cells, b_cells, ts, tau):
    """Every stable union of the two placements, over a full offset window."""
    a = dict(canon(a_cells))
    b = dict(canon(b_cells))
    aw = 1 + max(x for x, _ in a)
    ah = 1 + max(y for _, y in a)
    bw = 1 + max(x for x, _ in b)
    bh = 1 + max(y for _, y in b)
    out = set()
    for ox in range(-bw, aw + 1):
        for oy in range(-bh, ah + 1):
            shifted = {(x + ox, y + oy): t for (x, y), t in b.items()}
            if any(c in a for c in shifted):
                continue
            union = dict(a)
            union.update(shifted)
            if oracle_stable(union, ts, tau):
                out.add(canon(union))
    return out


SIDES = (("N", "north", 0, 1), ("E", "east", 1, 0), ("S", "south", 0, -1),
         ("W", "west", -1, 0))


def oracle_faces(cells, ts):
    """Open faces by a scan of every cell: (direction, glue) -> sorted
    coordinates of the cells showing that positive glue on that side with
    no cell beyond it.  Coordinates are the cells' own, not normalized."""
    faces = {}
    for (x, y), tid in cells.items():
        t = ts.tile(tid)
        for d, side, dx, dy in SIDES:
            g = getattr(t, side)
            if g.strength > 0 and (x + dx, y + dy) not in cells:
                faces.setdefault((d, g), []).append((x, y))
    return {k: tuple(sorted(v)) for k, v in faces.items()}


def oracle_get_nth_tas(tas_num, tau):
    """Literal nested-loop trace of the indexed tile-set enumeration.

    No block skipping: every subset is visited and counted one at a time,
    so this only works for small indices.  Returns the tiles as 4-tuples
    of (label, strength) pairs in N, E, S, W order.
    """
    tile_set_number = 0
    num_glues = 1
    while num_glues <= 3:
        strength_base = tau + 1
        start = sum(strength_base ** i for i in range(num_glues))
        end = strength_base ** num_glues - 1
        for config in range(start, end + 1):
            a = []
            v = config
            for _ in range(num_glues):
                a.append(v % strength_base)
                v //= strength_base
            side_base = num_glues + 1
            tiles = []
            for n in range(1, side_base ** 4):
                digs = []
                v = n
                for _ in range(4):
                    digs.append(v % side_base)
                    v //= side_base
                # side codes most significant first: north, east, south, west
                s0, s1, s2, s3 = digs
                sides = []
                for code in (s3, s2, s1, s0):
                    if code == 0:
                        sides.append(("", 0))
                    else:
                        sides.append((str(code - 1), a[code - 1]))
                tiles.append(tuple(sides))
            for k in range(1 << len(tiles)):
                if tile_set_number == tas_num:
                    return [tiles[i] for i in range(len(tiles)) if (k >> i) & 1]
                tile_set_number += 1
        num_glues += 1
    raise ValueError("trace bound reached before the requested index")


def all_single_glue_shapes(tau):
    """Every canonical one-glue tile set as an order-free structural form."""
    patterns = []
    for mask in range(1, 16):
        bits = [(mask >> i) & 1 for i in (3, 2, 1, 0)]  # N, E, S, W
        patterns.append(tuple(bits))
    shapes = set()
    for s in range(1, tau + 1):
        sides_for = lambda bits: tuple(
            ("0", s) if b else ("", 0) for b in bits)
        for mask in range(1 << len(patterns)):
            chosen = frozenset(
                sides_for(patterns[i]) for i in range(len(patterns))
                if (mask >> i) & 1)
            shapes.add(chosen)
    return shapes


def oracle_closure(seed_cells, ts, tau, size_bound):
    """Producible canonical forms by fixpoint iteration over all pairs."""
    shapes = {canon(c) for c in seed_cells}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.product(list(shapes), repeat=2):
            if len(a) + len(b) > size_bound:
                continue
            for c in oracle_combine(dict(a), dict(b), ts, tau):
                if c not in shapes:
                    shapes.add(c)
                    changed = True
    return shapes


def oracle_initial_state(initial_state):
    """The initial state by fingerprint: (Supertile, count) pairs merged
    on equal fingerprints, keeping the first supertile and summing the
    counts (an infinite count absorbs), then sorted by (size,
    fingerprint).  Returns a tuple of pairs."""
    merged = {}
    for st, count in initial_state:
        if st.fingerprint in merged:
            first, c = merged[st.fingerprint]
            total = math.inf if math.inf in (c, count) else c + count
            merged[st.fingerprint] = (first, total)
        else:
            merged[st.fingerprint] = (st, count)
    return tuple(sorted(merged.values(),
                        key=lambda pair: (pair[0].size, pair[0].fingerprint)))


def oracle_explore(tas, size_bound, step_bound=None, shuffle_seed=None):
    """The all-pairs worklist: each step pairs its supertile with every
    processed member and with itself, counting every pair whose union
    would exceed the bound.  New supertiles join the worklist in the
    order combine finds them, sorted by fingerprint only under a step
    bound.  Returns (supertiles, edges, overflow, steps, complete) with
    supertiles keyed by fingerprint and edges as fingerprint triples
    with the parents sorted."""
    # imported here so that loading the module needs no twoham on the path
    from twoham.model import combine

    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    supers = {st.fingerprint: st for st, _ in tas.initial_state}
    pending = sorted(supers)
    if rng is not None:
        rng.shuffle(pending)
    queue = deque(pending)
    done = []
    edges = set()
    overflow = steps = 0
    while queue and (step_bound is None or steps < step_bound):
        steps += 1
        fp = queue.popleft()
        st = supers[fp]
        discovered = []
        for ofp in done + [fp]:
            other = supers[ofp]
            if st.size + other.size > size_bound:
                overflow += 1
                continue
            lo, hi = sorted((fp, ofp))
            for child in combine(st, other, tas.tile_set, tas.tau):
                edges.add((lo, hi, child.fingerprint))
                if child.fingerprint not in supers:
                    supers[child.fingerprint] = child
                    discovered.append(child.fingerprint)
        done.append(fp)
        if step_bound is not None:
            discovered.sort()
        if rng is not None:
            rng.shuffle(discovered)
        queue.extend(discovered)
    return supers, edges, overflow, steps, not queue


def oracle_decode(cells, m, decode_block, offsets=None):
    """Block decoding the slow way: every one of the m * m grid offsets,
    or the given ones in sorted order, each block gathered by a range
    test over all cells, and the fuzz rule read in a second pass over the
    cells.  Returns None when no offset decodes, else (offset, image,
    clean) at the lowest offset that does; raises AmbiguousAlignment when
    two offsets give images that are not translates of each other."""
    # imported here so that loading the module needs no twoham on the path
    from twoham.errors import AmbiguousAlignment

    if offsets is None:
        offsets = [(ox, oy) for ox in range(m) for oy in range(m)]
    found = None
    for ox, oy in sorted(offsets):
        image = {}
        for bx, by in {((x - ox) // m, (y - oy) // m) for x, y in cells}:
            x0, y0 = ox + m * bx, oy + m * by
            block = {(x - x0, y - y0): t for (x, y), t in cells.items()
                     if x0 <= x < x0 + m and y0 <= y < y0 + m}
            tid = decode_block(block)
            if tid is not None:
                image[(bx, by)] = tid
        if not image:
            continue
        occupied = set()
        for x, y in cells:
            occupied.add(((x - ox) // m, (y - oy) // m))
        clean = len(occupied) <= 1 or all(
            any((bx + dx, by + dy) in image
                for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
            for bx, by in occupied)
        if found is None:
            found = ((ox, oy), image, clean)
        elif canon(found[1]) != canon(image):
            raise AmbiguousAlignment(
                f"offsets {found[0]} and {(ox, oy)} disagree")
    return found


def oracle_anchored_decode(k, corner, pieces, coords):
    """compiled.anchored_rep's block check read off a dict block: None
    unless the k x k body at (corner, corner) is all there, then the
    corner cell's piece, which must hold at every cell of coords what the
    block holds (a cell or none), else CorruptMacrotile naming the first
    cell of coords that differs."""
    from twoham.errors import CorruptMacrotile

    body = {(x, y) for x in range(corner, corner + k)
            for y in range(corner, corner + k)}
    anchors = {lay.cells[(corner, corner)]: tid for tid, lay in pieces.items()}

    def decode(block):
        if not block.keys() >= body:
            return None
        tid = anchors.get(block[(corner, corner)])
        if tid is None:
            raise CorruptMacrotile("body anchor cell is no macrotile anchor")
        own = pieces[tid].cells
        for xy in coords:
            if block.get(xy) != own.get(xy):
                raise CorruptMacrotile(
                    f"block mixes {tid!r} with foreign cells at {xy}")
        return tid

    return decode


def oracle_blocks_at(cells, m, ox, oy):
    """The m-block partition at grid offset (ox, oy), cell by cell: (x, y)
    lies in block ((x - ox) // m, (y - oy) // m) at in-block coordinate
    ((x - ox) % m, (y - oy) % m)."""
    blocks = {}
    for (x, y), tid in cells.items():
        key = ((x - ox) // m, (y - oy) // m)
        blocks.setdefault(key, {})[((x - ox) % m, (y - oy) % m)] = tid
    return blocks


def oracle_wire_tiles(cells, faces, prefix, strength):
    """Wired tile types built side by side: each side facing an occupied
    cell gets the glue named after the lower or left cell of the pair,
    then the outward faces override.  Returns (id, north, east, south,
    west) tuples of (label, strength) pairs."""
    tiles = []
    for (x, y), uid in cells.items():
        sides = {d: ("", 0) for d in "NESW"}
        if (x, y + 1) in cells:
            sides["N"] = (f"{prefix}:{x},{y}:v", strength)
        if (x, y - 1) in cells:
            sides["S"] = (f"{prefix}:{x},{y - 1}:v", strength)
        if (x + 1, y) in cells:
            sides["E"] = (f"{prefix}:{x},{y}:h", strength)
        if (x - 1, y) in cells:
            sides["W"] = (f"{prefix}:{x - 1},{y}:h", strength)
        for d, g in faces.get((x, y), ()):
            sides[d] = (g.label, g.strength)
        tiles.append((uid,) + tuple(sides[d] for d in "NESW"))
    return tiles


def oracle_seed(placements, m):
    """The seed that places pieces on the block grid of scale m, as one
    merged cell dict through Supertile(cells): placements lists (piece,
    bx, by), each piece's cells copied in at block (bx, by), in order."""
    from twoham.model import Supertile

    cells = {}
    for piece, bx, by in placements:
        for (x, y), uid in piece.cells.items():
            cells[(x + m * bx, y + m * by)] = uid
    return Supertile(cells)


def oracle_seeds(comp, tas):
    """comp's input supertiles with their counts, each an oracle_seed in
    the compilers' placement order.  A strong seed places each cell's
    macrotile; a weak seed places each cell's megatile, then for every
    binding north or east interface the gadget, the completion and the
    facing gadget, and every gadget and completion follows as a seed of
    its own."""
    from twoham.model import INFINITE, OFFSET, OPPOSITE, Supertile, interaction

    m, meta, ts = comp.m, comp.meta, tas.tile_set
    if comp.variant.startswith("strong"):
        return [(oracle_seed([(meta.layouts[tid], bx, by)
                              for (bx, by), tid in st.cells.items()], m), count)
                for st, count in tas.initial_state]
    gidx = {g: i for i, g in enumerate(meta.glues)}
    seeds = []
    for st, count in tas.initial_state:
        placed = [(meta.megas[tid], bx, by) for (bx, by), tid in st.cells.items()]
        for (bx, by), tid in st.cells.items():
            for side in "NE":
                dx, dy = OFFSET[side]
                other = st.cells.get((bx + dx, by + dy))
                g = ts.tile(tid).glue(side)
                if other is None or not interaction(g, ts.tile(other).glue(OPPOSITE[side])):
                    continue
                placed += [(meta.gadgets[(tid, side)], bx, by),
                           (meta.completions[(side, gidx[g])], bx, by),
                           (meta.gadgets[(other, OPPOSITE[side])], bx + dx, by + dy)]
        seeds.append((oracle_seed(placed, m), count))
    for piece in [*meta.gadgets.values(), *meta.completions.values()]:
        seeds.append((Supertile(piece.cells), INFINITE))
    return seeds


def oracle_reach(sim, start, image, image_of):
    """Members with this image, as image_of reads them, reachable from
    start by zero or more explored steps, in discovery order: a
    breadth-first search over each member's children, read off
    sim.edges.  explore stores each member once and its edges hold those
    objects, so the search keys members by identity and never hashes a
    supertile."""
    children = {}
    for pa, pb, child in sim.edges:
        children.setdefault(id(pa), []).append(child)
        children.setdefault(id(pb), []).append(child)
    position = {id(s): i for i, s in enumerate(sim.supertiles)}
    seen = {id(start): start}
    queue = deque(seen.values())
    while queue:
        for child in children.get(id(queue.popleft()), []):
            if id(child) not in seen:
                seen[id(child)] = child
                queue.append(child)
    return sorted((s for s in seen.values() if image_of(s) == image),
                  key=lambda s: position[id(s)])
