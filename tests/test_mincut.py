import random
import time

from twoham import Glue, TileSet, TileType, binding_graph
from twoham.mincut import stability_cut_ok
from twoham.strong import rescale_temperature
from twoham.weak import WEAK1, compile_weak

from oracles import oracle_edges, oracle_stable
from test_acceptance import suite

SIDES = {(1, 0): ("east", "west"), (0, 1): ("north", "south")}


def weighted_shape(rng, tau):
    """A 2x2 to 4x3 rectangle less up to two cells, in which every abutment
    binds with a chosen weight: one tile type per cell, one glue label per
    abutment.  Weights are 0 (no edge), light (1..tau-1, skewed towards
    tau/2 and up so that light cycles can hold) or heavy (tau)."""
    shape = [(x, y) for x in range(rng.randint(2, 4))
             for y in range(rng.randint(2, 3))]
    rng.shuffle(shape)
    shape = sorted(shape[rng.randint(0, 2):])
    weights = ((0, tau, tau) + tuple(range(1, tau))
               + tuple(range((tau + 1) // 2, tau)) * 2)
    sides = {xy: {} for xy in shape}
    for k, (x, y) in enumerate(shape):
        for (dx, dy), (mine, theirs) in SIDES.items():
            nb = (x + dx, y + dy)
            w = rng.choice(weights)
            if nb in sides and w:
                glue = Glue(f"e{k}{mine}", w)
                sides[(x, y)][mine] = glue
                sides[nb][theirs] = glue
    tiles = [TileType(f"c{i}", **sides[xy]) for i, xy in enumerate(shape)]
    cells = {xy: f"c{i}" for i, xy in enumerate(shape)}
    return cells, TileSet(tiles)


def heavy_components(cells, ts, tau):
    """Vertices left after contracting every edge of weight >= tau."""
    root = {v: v for v in cells}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v, w in oracle_edges(cells, ts):
        if w >= tau:
            root[find(u)] = find(v)
    return len({find(v) for v in cells})


def test_stability_cut_ok_matches_exhaustive_oracle():
    """Contraction plus Stoer-Wagner vs every bipartition, tau 2 to 5."""
    rng = random.Random(5150)
    disagreements = []
    deep = {True: 0, False: 0}  # verdicts with a quotient of >= 3 vertices
    disconnected = 0  # Stoer-Wagner must read these as a cut of 0
    for i in range(800):
        tau = 2 + i % 4
        cells, ts = weighted_shape(rng, tau)
        got = stability_cut_ok(binding_graph(cells, ts), tau)
        if got != oracle_stable(cells, ts, tau):
            disagreements.append((i, tau, sorted(cells)))
        if heavy_components(cells, ts, tau) >= 3:
            deep[got] += 1
        if heavy_components(cells, ts, 1) > 1:
            disconnected += 1
    assert disagreements == []
    # the general path must run on both verdicts, not just on shortcuts
    assert deep[True] >= 30 and deep[False] >= 300, deep
    assert disconnected >= 200, disconnected


def test_tau4_seed_check_is_fast():
    # a tau=4 weak1 seed is a 1,358-cell assembly with light edges inside;
    # plain Stoer-Wagner on it took about a minute
    seeded = dict(suite())["seeded-chain"]
    t0 = time.perf_counter()
    sim = compile_weak(rescale_temperature(seeded, 2), WEAK1).simulator_tas()
    elapsed = time.perf_counter() - t0
    assert sim.tau == 4
    assert elapsed < 10, f"{elapsed:.1f}s"
