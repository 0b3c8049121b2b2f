"""Bounded exploration of what a tile assembly system can build.

Exploration uses set semantics: every supertile present is treated as
available in unlimited supply, matching the usual convention that initial
counts are infinite.  A finite initial count is read as infinite too, and
the CLI listings and the relation checks' notes say so.
"""

from __future__ import annotations

import random
from bisect import bisect_right, insort
from collections import deque

from .errors import BoundTooSmall, NotProducible
# combine is not called here; perfbench's tracer looks it up in this
# module, so it stays importable from it.
from .model import INFINITE, SeamIndex, by_fingerprint, combine


class ProducibleSet:
    """Supertiles producible within a size bound, plus the step relation.

    ``supertiles`` maps each member to itself in discovery order; it is
    the one member map, looked up by Supertile equality (key, size, then
    packed rows).  ``edges`` holds each (parentA, parentB, child) member
    triple once, as a dict to None in the order explore found them, with
    the parents in the order explore processed them; it records every
    combination discovered among members whose union stayed within the
    bound.  ``overflow``
    counts the member pairs that were set aside unevaluated because their
    union would have exceeded the bound, so callers can tell a true fixed
    point from a clipped one.  Only members() and a printed listing read
    fingerprints.
    """

    __slots__ = ("tas", "size_bound", "supertiles", "edges", "overflow",
                 "steps", "complete")

    def __init__(self, tas, size_bound, supertiles, edges, overflow, steps,
                 complete):
        self.tas = tas
        self.size_bound = size_bound
        self.supertiles = supertiles
        self.edges = edges
        self.overflow = overflow
        self.steps = steps
        self.complete = complete

    def __contains__(self, s):
        return s in self.supertiles

    def __len__(self):
        return len(self.supertiles)

    def members(self):
        return sorted(self.supertiles, key=lambda s: s.sort_key)


def _require_member(s, p: ProducibleSet):
    if s not in p.supertiles:
        raise NotProducible(f"{s.fingerprint[:10]} is not in the explored set")


def explore(tas, size_bound, step_bound=None, shuffle_seed=None):
    """Close the initial state under pairwise combination, up to size_bound.

    The worklist starts with the initial supertiles in the order of
    tas.initial_state (by size, then fingerprint), or in fingerprint
    order under a step bound, which keeps clipped listings as they were.
    One step is the full pairing of one supertile against everything
    processed before it (and itself), and the step's new members join the
    worklist in the order the seam pass finds them: by the processed
    member's position, then by offset.  Without a step bound that is the
    whole order.  Under a step bound the clipped set depends on the order,
    so each step's discoveries are sorted by fingerprint first, which
    keeps clipped listings stable.  shuffle_seed shuffles the initial
    worklist and each step's discoveries to exercise confluence.

    Order lemma: without a step bound the worklist runs until it is
    empty, and every pair of members is tried once, so the members, the
    edges (up to the order of each pair's parents) and the overflow count
    are the same in every order.  So a run without a step bound computes
    no fingerprint at all; TAS hashed only the initial supertiles that tie
    on size.

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

    Members are kept in a dict mapping each to itself, so a union that
    duplicates a member is found through Supertile equality, which
    compares the packed rows a union takes from its parents.  Overlap
    tests and a union's faces read rows too, so no member but a seed
    builds its cells here.
    """
    if size_bound < 1:
        raise BoundTooSmall("size bound must be at least 1")
    if step_bound is not None and step_bound < 0:
        raise BoundTooSmall("step bound must be at least 0")
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    tau = tas.tau
    members = {}
    for st, _ in tas.initial_state:
        if st.size > size_bound:
            raise BoundTooSmall(
                f"size bound {size_bound} below initial supertile of {st.size} tiles")
        members[st] = st
    pending = list(members)
    if step_bound is not None:
        pending.sort(key=by_fingerprint)
    if rng is not None:
        rng.shuffle(pending)
    queue = deque(pending)
    seams = SeamIndex(tas.tile_set)
    sizes = []
    edges = {}
    overflow = 0
    steps = 0
    while queue:
        if step_bound is not None and steps >= step_bound:
            break
        steps += 1
        st = queue.popleft()
        room = size_bound - st.size
        seams.add(st)
        insort(sizes, st.size)
        overflow += len(sizes) - bisect_right(sizes, room)
        discovered = []
        for other, _, child in seams.unions(st, room, tau):
            member = members.setdefault(child, child)
            if member is child:
                discovered.append(child)
            edges[other, st, member] = None
        if step_bound is not None:
            discovered.sort(key=by_fingerprint)
        if rng is not None:
            rng.shuffle(discovered)
        queue.extend(discovered)
    return ProducibleSet(tas, size_bound, members, edges, overflow, steps,
                         complete=not queue)


def is_terminal(s, p: ProducibleSet) -> bool:
    """Bounded terminality: s combines with no explored member.

    One SeamIndex over the members and one seam pass of s against it, as
    in explore.  The verdict is only as strong as the explored set; a
    supertile can be terminal here yet combine with something beyond the
    bound.
    """
    _require_member(s, p)
    seams = SeamIndex(p.tas.tile_set)
    for other in p.supertiles:
        seams.add(other)
    return not seams.unions(s, INFINITE, p.tas.tau)


def single_step_reachable(a, b, p: ProducibleSet) -> bool:
    """Whether one recorded combination turns a into b."""
    _require_member(a, p)
    _require_member(b, p)
    return any(child == b and a in (pa, pb) for pa, pb, child in p.edges)
