"""Bounded exploration of what a tile assembly system can build.

Exploration uses set semantics: every supertile present is treated as
available in unlimited supply, matching the usual convention that initial
counts are infinite.  StateMultiset holds the finite-count state of the
model; exploration never uses it.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from collections import deque

from .errors import BoundTooSmall, NotProducible
from .model import INFINITE, SeamIndex, Supertile, combine


class ProducibleSet:
    """Supertiles producible within a size bound, plus the step relation.

    ``edges`` holds (parentA, parentB, child) fingerprint triples with the
    parents in sorted order; it records every combination discovered among
    members whose union stayed within the bound.  ``overflow`` counts the
    member pairs that were set aside unevaluated because their union would
    have exceeded the bound, so callers can tell a true fixed point from a
    clipped one.  ``index`` maps each member to itself, for combine's
    members argument; explore keeps it and its remaining user is the
    strong check, whose combine calls get back explored products as the
    members themselves.
    """

    __slots__ = ("tas", "size_bound", "supertiles", "edges", "overflow",
                 "steps", "complete", "index", "_children")

    def __init__(self, tas, size_bound, supertiles, edges, overflow, steps,
                 complete, index):
        self.tas = tas
        self.size_bound = size_bound
        self.supertiles = dict(supertiles)
        self.edges = frozenset(edges)
        self.overflow = overflow
        self.steps = steps
        self.complete = complete
        self.index = index
        self._children = None

    def __contains__(self, s):
        fp = s.fingerprint if isinstance(s, Supertile) else s
        return fp in self.supertiles

    def __len__(self):
        return len(self.supertiles)

    def members(self):
        return sorted(self.supertiles.values(), key=lambda s: s.sort_key)

    def get(self, fingerprint):
        return self.supertiles[fingerprint]

    def children_of(self, fingerprint):
        if self._children is None:
            by_parent = {}
            for pa, pb, child in self.edges:
                by_parent.setdefault(pa, set()).add(child)
                by_parent.setdefault(pb, set()).add(child)
            self._children = by_parent
        return self._children.get(fingerprint, frozenset())


def explore(tas, size_bound, step_bound=None, shuffle_seed=None):
    """Close the initial state under pairwise combination, up to size_bound.

    Deterministic worklist in fingerprint order; shuffle_seed reorders the
    worklist to exercise confluence, without changing the resulting set.
    One step is the full pairing of one supertile against everything
    processed before it (and itself).

    Processed members sit in a SeamIndex, keyed by exposed (direction,
    glue) and then by size, with the step's supertile added last so that
    the self pair comes after every other.  By the seam lemma (see
    combination_offsets) the seam of a placement is the sum of the glue
    pairs that abut there, so one pass of the step's open faces over the
    index sums the seam of every placement against every member that fits
    within the bound, and only a placement whose seam reaches tau is
    tested for overlap and built.  A member sharing no glue with the step
    is never touched.  Every member pair whose union would exceed the
    bound still counts toward ``overflow``.

    Members are also kept in a dict mapping each to itself, so a union
    that duplicates a member is found through Supertile equality without
    building its cells or its fingerprint.
    """
    if size_bound < 1:
        raise BoundTooSmall("size bound must be at least 1")
    if step_bound is not None and step_bound < 0:
        raise BoundTooSmall("step bound must be at least 0")
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    tau = tas.tau
    supers = {}
    index = {}
    for st, _ in tas.initial_state:
        if st.size > size_bound:
            raise BoundTooSmall(
                f"size bound {size_bound} below initial supertile of {st.size} tiles")
        supers[st.fingerprint] = index[st] = st
    pending = sorted(supers)
    if rng is not None:
        rng.shuffle(pending)
    queue = deque(pending)
    seams = SeamIndex(tas.tile_set)
    sizes = []
    edges = set()
    overflow = 0
    steps = 0
    while queue:
        if step_bound is not None and steps >= step_bound:
            break
        steps += 1
        fp = queue.popleft()
        st = supers[fp]
        room = size_bound - st.size
        seams.add(st)
        insort(sizes, st.size)
        overflow += len(sizes) - bisect_right(sizes, room)
        discovered = []
        for other, _, child in seams.unions(st, room, tau):
            ofp = other.fingerprint
            lo, hi = (fp, ofp) if fp <= ofp else (ofp, fp)
            member = index.setdefault(child, child)
            if member is child:
                supers[child.fingerprint] = child
                discovered.append(child.fingerprint)
            edges.add((lo, hi, member.fingerprint))
        discovered.sort()
        if rng is not None:
            rng.shuffle(discovered)
        queue.extend(discovered)
    return ProducibleSet(tas, size_bound, supers, edges, overflow, steps,
                         complete=not queue, index=index)


def is_terminal(s, p: ProducibleSet) -> bool:
    """Bounded terminality: s combines with no explored member.

    The verdict is only as strong as the explored set; a supertile can be
    terminal here yet combine with something beyond the bound.
    """
    fp = s.fingerprint if isinstance(s, Supertile) else s
    if fp not in p.supertiles:
        raise NotProducible(f"{fp[:10]} is not in the explored set")
    st = p.supertiles[fp]
    for other in p.members():
        if combine(st, other, p.tas.tile_set, p.tas.tau):
            return False
    return True


def single_step_reachable(a, b, p: ProducibleSet) -> bool:
    """Whether one recorded combination turns a into b."""
    fpa = a.fingerprint if isinstance(a, Supertile) else a
    fpb = b.fingerprint if isinstance(b, Supertile) else b
    for fp in (fpa, fpb):
        if fp not in p.supertiles:
            raise NotProducible(f"{fp[:10]} is not in the explored set")
    return fpb in p.children_of(fpa)


class StateMultiset:
    """The model's finite-count state, checked by the tests; immutable."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = {}
        for fp, c in counts.items():
            if c == INFINITE:
                self.counts[fp] = INFINITE
            elif isinstance(c, int) and not isinstance(c, bool) and c >= 0:
                if c:
                    self.counts[fp] = c
            else:
                raise ValueError(f"count must be non-negative or INFINITE, got {c!r}")

    @classmethod
    def from_tas(cls, tas):
        return cls({st.fingerprint: c for st, c in tas.initial_state})

    def count(self, fp):
        return self.counts.get(fp, 0)

    def step(self, a: Supertile, b: Supertile, child: Supertile, ts, tau):
        """Consume a and b, produce child; child must be a legal combination."""
        if child not in combine(a, b, ts, tau):
            raise ValueError("child is not a combination of the two reactants")
        need = {a.fingerprint: 1}
        need[b.fingerprint] = need.get(b.fingerprint, 0) + 1
        for fp, k in need.items():
            have = self.count(fp)
            if have != INFINITE and have < k:
                raise ValueError(f"state holds {have} of {fp[:10]}, needs {k}")
        counts = dict(self.counts)
        for fp, k in need.items():
            if counts[fp] != INFINITE:
                counts[fp] -= k
        have = counts.get(child.fingerprint, 0)
        if have != INFINITE:
            counts[child.fingerprint] = have + 1
        return StateMultiset(counts)
