"""Executable checks for the simulation relations between two tile systems.

Each check compares a simulator's explored producible set against a
target system's explored producible set through a block representation,
and returns a Report rather than a verdict alone.  All checks are
bounded: they see only what the two explorations saw, so a pass means
"no violation within the explored horizon" and the notes say when a
horizon was clipped or finite initial counts were read as infinite.

The four relations, in increasing strength of the dynamic requirement:

* equivalent productions: decoded images of the simulator's producibles
  are exactly the target's producibles, junk decodes to nothing and
  stays small, and every image maps cleanly.
* follows: every single combination step in the simulator maps to at
  most one step in the target.
* weakly models: every target step can be realized from every preimage
  of its input, possibly after extra simulator-only steps.
* strongly models: every target combination is realizable from every
  pair of preimages of its inputs, possibly after explored steps on
  each side that end at the same images, with a product decoding to the
  exact target result.

The weakly-models clause is implemented in two variants selected by
``weak_def``: "standard" asks for an intermediate with the same image as
the step's input, "literal" asks for one with the image of the step's
output.  The first is the default; the second is kept selectable
because both readings are in circulation.

All four read the simulator through one representation map, the
ImageMap that decode_producibles returns: each member, and each product
strong builds beyond the exploration, decoded once, the members behind
each image, and a memoized reach search.  verify builds it once and
passes it to every check as decoded.
"""

from __future__ import annotations

from collections import deque
from itertools import product

from .dynamics import single_step_reachable
from .errors import AmbiguousAlignment
from .model import INFINITE, combine
# decode_supertile is not called here; perfbench's tracer looks it up in
# this module, so it stays importable from it.
from .representation import BlockReader, decode_supertile, fits_single_block

__all__ = [
    "CHECKS",
    "Report",
    "check_equivalent_productions",
    "check_follows",
    "check_strongly_models",
    "check_weakly_models",
    "decode_producibles",
]


class Report:
    """Outcome of one relation check.

    checked counts the proof obligations examined; boundary counts the
    ones skipped because they fell outside an exploration bound; skipped
    counts the ones that were vacuous (no preimage, junk-only step).
    violations and notes default to fresh empty lists.
    """

    __slots__ = ("relation", "checked", "boundary", "skipped", "violations",
                 "notes")

    def __init__(self, relation, checked=0, boundary=0, skipped=0,
                 violations=None, notes=None):
        self.relation = relation
        self.checked = checked
        self.boundary = boundary
        self.skipped = skipped
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    def __repr__(self):
        return f"Report({self.to_dict()!r})"

    @property
    def passed(self):
        """True exactly when no violation was found."""
        return not self.violations

    def to_dict(self):
        return {
            "relation": self.relation,
            "passed": self.passed,
            "checked": self.checked,
            "boundary": self.boundary,
            "skipped": self.skipped,
            "violations": self.violations,
            "notes": self.notes,
        }


def decode_producibles(sim, rep):
    """Decode every explored simulator supertile once: the ImageMap that
    all four checks take as decoded."""
    return ImageMap(sim, rep)


class ImageMap:
    """The simulator's members seen through the representation.

    ``decoded`` maps each supertile read so far, the members and the
    products strong builds beyond the exploration alike, to its
    DecodedImage or None (junk), and ``preimages`` maps each image
    supertile to the members that decode to it, in discovery order.
    ``ambiguities`` lists one "ambiguous-alignment" violation per member
    whose grid alignments disagree (it reads as junk), in member listing
    order; every check puts them at the head of its violations.  Nothing
    here reads a fingerprint except those records.

    Every supertile is read through a BlockReader the map owns.  By the
    union lemma (see BlockReader) a union's reading is its parents'
    readings, shifted, with only the seam blocks merged and decoded
    again, and with an anchored representation its candidate offsets
    are its parents', shifted.  Every member but a seed, and every
    product strong builds, is a union of members.
    """

    def __init__(self, sim, rep):
        self.sim = sim
        self.rep = rep
        self._read = BlockReader(rep).decode
        self.decoded = {}
        self.preimages = {}
        self._position = {}
        self._ambiguous = []
        for i, s in enumerate(sim.supertiles):
            self._position[s] = i
            img = self.image_of(s)
            if img is not None:
                self.preimages.setdefault(img, []).append(s)
        self._ambiguous.sort(key=lambda found: found[0].sort_key)
        self.ambiguities = [
            {"kind": "ambiguous-alignment", "supertile": s.fingerprint,
             "detail": detail}
            for s, detail in self._ambiguous]
        self._reach = {}

    def image_of(self, s):
        """Image supertile of s, None for junk; each supertile is decoded
        once.  A product beyond the exploration that decodes two ways
        reads as junk without being recorded as an ambiguity."""
        if s not in self.decoded:
            try:
                self.decoded[s] = self._read(s)
            except AmbiguousAlignment as exc:
                self.decoded[s] = None
                if s in self.sim:
                    self._ambiguous.append((s, str(exc)))
        img = self.decoded[s]
        return img.supertile if img else None

    def reach(self, start, image):
        """Members with this image reachable from start by zero or more
        explored steps, in discovery order: the order steers only how
        soon strong's search for a pair stops."""
        key = start, image
        if key not in self._reach:
            seen = {start}
            queue = deque(seen)
            while queue:
                for child in self.sim.children_of(queue.popleft()):
                    if child not in seen:
                        seen.add(child)
                        queue.append(child)
            self._reach[key] = sorted(
                (s for s in seen if self.image_of(s) == image),
                key=self._position.__getitem__)
        return self._reach[key]


def _open(relation, sim, rep, decoded):
    """A Report headed by the ambiguous decodes, and the image map."""
    imap = decoded if decoded is not None else decode_producibles(sim, rep)
    return Report(relation, violations=list(imap.ambiguities)), imap


def _bound_notes(report, sim, target):
    for name, p in (("simulator", sim), ("target", target)):
        if not p.complete:
            report.notes.append(f"{name} exploration clipped by step bound")
        if p.overflow:
            report.notes.append(
                f"{name} exploration set aside {p.overflow} pairs at "
                f"size bound {p.size_bound}")
        if any(c != INFINITE for _, c in p.tas.initial_state):
            report.notes.append(
                f"{name} exploration read finite counts as infinite")
    return report


def _by_fields(found, *fields):
    """Violation records sorted on the fingerprints they print, so that
    their order never depends on the order the check walked in."""
    return sorted(found, key=lambda v: [v[f] for f in fields])


def _transitions(prod):
    """Distinct (parent, child) member pairs of one-step growth, in edge
    order."""
    return list(dict.fromkeys(
        (parent, child) for pa, pb, child in prod.edges for parent in (pa, pb)))


def check_equivalent_productions(sim, target, rep, decoded=None):
    """Images of simulator producibles == target producibles, plus junk rules.

    Supertiles with no image must fit inside a single block.  Supertiles
    with an image must map cleanly; images within the target's size
    bound must be target-producible, larger ones are boundary skips.
    Every target producible must be hit by some image.
    """
    report, imap = _open("productions", sim, rep, decoded)
    covered = set()
    found = []
    for s in sim.supertiles:
        img = imap.decoded[s]
        report.checked += 1
        if img is None:
            if not fits_single_block(s, rep.m):
                found.append({
                    "kind": "oversized-junk",
                    "supertile": s.fingerprint,
                })
            continue
        if img.supertile.size > target.size_bound:
            report.boundary += 1
            continue
        if not img.clean:
            found.append({
                "kind": "unclean-image",
                "supertile": s.fingerprint,
                "image": img.supertile.fingerprint,
            })
        if img.supertile in target:
            covered.add(img.supertile)
        else:
            found.append({
                "kind": "extra-image",
                "supertile": s.fingerprint,
                "image": img.supertile.fingerprint,
            })
    # a stable sort keeps a member's unclean-image ahead of its extra-image
    report.violations += _by_fields(found, "supertile")
    for t in target.members():
        report.checked += 1
        if t not in covered:
            report.violations.append({
                "kind": "missing-image",
                "image": t.fingerprint,
            })
    return _bound_notes(report, sim, target)


def check_follows(sim, target, rep, decoded=None):
    """Every simulator step maps to at most one target step.

    A step whose endpoint images are equal maps to zero steps and
    passes.  A step between two defined images must correspond to an
    explored target edge.  Steps into or out of junk are skipped; steps
    whose images exceed the target bound are boundary skips.
    """
    report, imap = _open("follows", sim, rep, decoded)
    found = []
    for parent, child in _transitions(sim):
        a = imap.image_of(parent)
        b = imap.image_of(child)
        if a is None or b is None:
            report.skipped += 1
            continue
        if a.size > target.size_bound or b.size > target.size_bound:
            report.boundary += 1
            continue
        report.checked += 1
        if a == b:
            continue
        if a not in target or b not in target:
            kind = "image-not-producible"
        elif not single_step_reachable(a, b, target):
            kind = "unmatched-step"
        else:
            continue
        found.append({
            "kind": kind,
            "parent": parent.fingerprint,
            "child": child.fingerprint,
            "parent_image": a.fingerprint,
            "child_image": b.fingerprint,
        })
    report.violations += _by_fields(found, "parent", "child")
    return _bound_notes(report, sim, target)


def check_weakly_models(sim, target, rep, decoded=None, weak_def="standard"):
    """Every target step is realizable from every preimage of its input.

    For a target step a -> b and a simulator supertile decoding to a,
    some supertile reachable from it must take a single step into the
    image b.  Under "standard" the intermediate must still decode to a;
    under "literal" it must already decode to b.
    """
    if weak_def not in ("standard", "literal"):
        raise ValueError(f"unknown weak_def {weak_def!r}")
    report, imap = _open("weak", sim, rep, decoded)
    found = []
    for a, b in _transitions(target):
        preimages = imap.preimages.get(a, [])
        if not preimages:
            report.skipped += 1
            continue
        waypoint = a if weak_def == "standard" else b
        for start in preimages:
            report.checked += 1
            if not any(imap.image_of(c) == b
                       for node in imap.reach(start, waypoint)
                       for c in sim.children_of(node)):
                found.append({
                    "kind": "unrealizable-step",
                    "target_parent": a.fingerprint,
                    "target_child": b.fingerprint,
                    "preimage": start.fingerprint,
                })
    report.violations += _by_fields(
        found, "target_parent", "target_child", "preimage")
    return _bound_notes(report, sim, target)


def check_strongly_models(sim, target, rep, decoded=None):
    """Every target combination is realizable from every preimage pair.

    For target producibles a, b and each explored product c of theirs:
    any simulator pair decoding to (a, b) must reach a pair whose direct
    combination contains a supertile decoding to c.  Each side may get
    there along any explored path; only its endpoint must still decode
    to a (resp. b).  Combinations of candidate pairs are computed
    directly, so products beyond the simulator's exploration bound still
    count.
    """
    report, imap = _open("strong", sim, rep, decoded)
    by_pair = {}
    for pa, pb, child in target.edges:
        by_pair.setdefault((pa, pb), {})[child] = None

    def candidate_pairs(x0, y0, a, b):
        # the start pair, then every other pair of same-image descendants
        yield x0, y0
        for x in imap.reach(x0, a):
            for y in imap.reach(y0, b):
                if (x, y) != (x0, y0):
                    yield x, y

    found = []
    for (a, b), children in by_pair.items():
        pre_a = imap.preimages.get(a, [])
        pre_b = imap.preimages.get(b, [])
        if not pre_a or not pre_b:
            report.skipped += 1
            continue
        # each unordered preimage pair once, in the order product meets it
        seen = set()
        for x0, y0 in product(pre_a, pre_b):
            if (y0, x0) in seen:
                continue
            seen.add((x0, y0))
            report.checked += 1
            achievable = set()
            for x, y in candidate_pairs(x0, y0, a, b):
                achievable.update(map(imap.image_of, combine(
                    x, y, sim.tas.tile_set, sim.tas.tau, sim.supertiles)))
                if achievable.issuperset(children):
                    break
            for c in children:
                if c not in achievable:
                    found.append(_unrealizable(a, x0, b, y0, c))
    report.violations += _by_fields(
        found, "target_parents", "preimages", "target_child")
    return _bound_notes(report, sim, target)


def _unrealizable(a, x0, b, y0, c):
    """Strong's violation record.  The verdict is symmetric in the two
    sides, so each side (target parent, its preimage) is put in
    fingerprint order: the target parents first, then, for a parent
    paired with itself, the preimages."""
    (a, x0), (b, y0) = sorted(
        ((a.fingerprint, x0.fingerprint), (b.fingerprint, y0.fingerprint)))
    return {
        "kind": "unrealizable-combination",
        "target_parents": [a, b],
        "target_child": c.fingerprint,
        "preimages": [x0, y0],
    }


CHECKS = {
    "productions": check_equivalent_productions,
    "follows": check_follows,
    "weak": check_weakly_models,
    "strong": check_strongly_models,
}
