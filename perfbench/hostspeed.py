"""Host speed, measured with a fixed loop, to state times on one scale.

On a shared machine the speed of a vCPU follows what other tenants run:
on a 2-vCPU host, a fixed pure-Python loop ran up to 1.8 times slower in
some phases than in others, and the phases lasted from seconds to
minutes.  Job times move with it, so the benchmark runs
`calibration_loop` next to the jobs and states each job time in
reference seconds: the time the job would take on a host where the
loop takes REFERENCE_S.  A change to the program moves
those times; a slower or faster phase of the host moves the loop and
the job together and cancels out.

The loop and REFERENCE_S are part of the benchmark's definition: change
either and every reported time changes with it.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.010     # calibration_loop on the reference host
INTERVAL_S = 0.1        # a reading is taken again once it is this old
WARMUP = 3              # readings taken before the first one is used


class _Cell:
    __slots__ = ("x", "y", "glue")

    def __init__(self, x, y, glue):
        self.x = x
        self.y = y
        self.glue = glue


def calibration_loop():
    """Fixed pure-Python work in the style of the program: tuple-keyed
    dicts and sets, small objects with slots, frozensets and sorting."""
    side = 60
    grid = {(x, y): _Cell(x, y, (x * 7 + y * 3) % 5)
            for x in range(side) for y in range(side)}
    seen = set()
    parts = []
    for origin in grid:
        if origin in seen:
            continue
        part = []
        stack = [origin]
        while stack:
            pos = stack.pop()
            if pos in seen:
                continue
            seen.add(pos)
            cell = grid[pos]
            part.append(pos)
            for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
                nxt = grid.get((pos[0] + dx, pos[1] + dy))
                if nxt is not None and (nxt.glue + cell.glue) % 5 < 3:
                    stack.append((nxt.x, nxt.y))
        parts.append(frozenset(part))
    shapes = sorted((len(p), min(p)) for p in parts)
    return len(shapes), hash(frozenset(parts)) & 0xFFFF


class HostSpeed:
    """Readings of calibration_loop, taken as a run goes along."""

    def __init__(self):
        self.readings = []
        self.taken = -float("inf")
        for _ in range(WARMUP):
            self.sample()

    def sample(self):
        """Run calibration_loop once; return and keep its time."""
        # Without the collector, so that the reading does not depend on
        # how many objects the program holds at the time.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            calibration_loop()
            self.taken = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.readings.append(self.taken - start)
        return self.readings[-1]

    def reading(self):
        """The last reading, or a new one if it is INTERVAL_S old."""
        if time.perf_counter() - self.taken >= INTERVAL_S:
            return self.sample()
        return self.readings[-1]


def scaled(seconds, before, after):
    """Host `seconds` in reference seconds, by the readings taken just
    before and just after them."""
    return seconds * REFERENCE_S * 2 / (before + after)
