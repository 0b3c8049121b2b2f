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

Every check takes the simulator only as the ImageMap that
decode_producibles(sim, rep) returns.  It holds the simulator and
``rep``, each member and each product strong builds decoded once, the
members behind each image, the distinct steps, and what each member
reaches, so a check cannot read a decode of another simulator or scale.
verify builds the map once and passes it to every check.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

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
    all four checks take first."""
    return ImageMap(sim, rep)


class ImageMap:
    """The explored simulator ``sim`` seen through the representation
    ``rep``: the one simulator-side input of every check.

    ``decoded`` maps each supertile read so far, the members and the
    products strong builds beyond the exploration alike, to its
    DecodedImage or None (junk), and ``preimages`` maps each image
    supertile to the members that decode to it, in discovery order.
    ``ambiguities`` lists one "ambiguous-alignment" violation per member
    whose grid alignments disagree (it reads as junk), in member listing
    order; every check puts them at the head of its violations.  Nothing
    here reads a fingerprint except those records.

    Every supertile is read through a BlockReader the map owns, so a
    block that recurs across members, as equal windows of their rows, is
    decoded once.  With an anchored representation a union's candidate
    offsets are its parents', shifted; every member but a seed, and
    every product strong builds, is a union of members.

    ``steps`` lists the simulator's distinct (parent, child) member pairs
    of one-step growth, in edge order; ``bit[s]`` is 1 << s's discovery
    index and ``reach[s]`` ORs the bits of every member s reaches by zero
    or more explored steps, in about n * n / 8 bytes for n members.  All
    three are built on first use.
    """

    def __init__(self, sim, rep):
        self.sim = sim
        self.rep = rep
        self._read = BlockReader(rep).decode
        self.decoded = {}
        self.preimages = {}
        self._ambiguous = []
        for s in sim.supertiles:
            img = self.image_of(s)
            if img is not None:
                self.preimages.setdefault(img, []).append(s)
        self._ambiguous.sort(key=lambda found: found[0].sort_key)
        self.ambiguities = [
            {"kind": "ambiguous-alignment", "supertile": s.fingerprint,
             "detail": detail}
            for s, detail in self._ambiguous]

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

    @cached_property
    def steps(self):
        return _transitions(self.sim)

    @cached_property
    def bit(self):
        return {s: 1 << i for i, s in enumerate(self.sim.supertiles)}

    @cached_property
    def reach(self):
        """Order lemma: a child is strictly larger than either parent, so
        taking the steps by decreasing parent size finds each child's set
        complete, and every ``reach[parent] |= reach[child]`` is exact."""
        reach = dict(self.bit)
        for parent, child in sorted(self.steps,
                                    key=lambda step: -step[0].size):
            reach[parent] |= reach[child]
        return reach


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


def check_equivalent_productions(decoded, target):
    """Images of simulator producibles == target producibles, plus junk rules.

    Supertiles with no image must fit inside a single block.  Supertiles
    with an image must map cleanly; images within the target's size
    bound must be target-producible, larger ones are boundary skips.
    Every target producible must be hit by some image.
    """
    report = Report("productions", violations=list(decoded.ambiguities))
    covered = set()
    found = []
    for s in decoded.sim.supertiles:
        img = decoded.decoded[s]
        report.checked += 1
        if img is None:
            if not fits_single_block(s, decoded.rep.m):
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
    return _bound_notes(report, decoded.sim, target)


def check_follows(decoded, target):
    """Every simulator step maps to at most one target step.

    A step whose endpoint images are equal maps to zero steps and
    passes.  A step between two defined images must correspond to an
    explored target edge.  Steps into or out of junk are skipped; steps
    whose images exceed the target bound are boundary skips.
    """
    report = Report("follows", violations=list(decoded.ambiguities))
    target_steps = set(_transitions(target))
    found = []
    for parent, child in decoded.steps:
        a = decoded.image_of(parent)
        b = decoded.image_of(child)
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
        elif (a, b) not in target_steps:
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
    return _bound_notes(report, decoded.sim, target)


def check_weakly_models(decoded, target, weak_def="standard"):
    """Every target step is realizable from every preimage of its input.

    For a target step a -> b and a simulator supertile decoding to a,
    some supertile reachable from it must take a single step into the
    image b.  Under "standard" the intermediate must still decode to a;
    under "literal" it must already decode to b.
    """
    if weak_def not in ("standard", "literal"):
        raise ValueError(f"unknown weak_def {weak_def!r}")
    report = Report("weak", violations=list(decoded.ambiguities))
    # (parent image, child image) -> the bits of the parents of such steps
    bit, steps = decoded.bit, {}
    for parent, child in decoded.steps:
        key = decoded.image_of(parent), decoded.image_of(child)
        steps[key] = steps.get(key, 0) | bit[parent]
    found = []
    for a, b in _transitions(target):
        preimages = decoded.preimages.get(a, [])
        if not preimages:
            report.skipped += 1
            continue
        realizing = steps.get((a if weak_def == "standard" else b, b), 0)
        for start in preimages:
            report.checked += 1
            if not decoded.reach[start] & realizing:
                found.append({
                    "kind": "unrealizable-step",
                    "target_parent": a.fingerprint,
                    "target_child": b.fingerprint,
                    "preimage": start.fingerprint,
                })
    report.violations += _by_fields(
        found, "target_parent", "target_child", "preimage")
    return _bound_notes(report, decoded.sim, target)


def check_strongly_models(decoded, target):
    """Every target combination is realizable from every preimage pair.

    For target producibles a, b and each explored product c of theirs:
    any simulator pair decoding to (a, b) must reach a pair whose direct
    combination contains a supertile decoding to c.  Each side may get
    there along any explored path; only its endpoint must still decode
    to a (resp. b).  Combinations of candidate pairs are computed
    directly, so products beyond the simulator's exploration bound still
    count.
    """
    report = Report("strong", violations=list(decoded.ambiguities))
    by_pair = {}
    for pa, pb, child in target.edges:
        by_pair.setdefault((pa, pb), {})[child] = None

    sim = decoded.sim
    members = list(sim.supertiles)
    image_bits = {a: sum(map(decoded.bit.__getitem__, pre))
                  for a, pre in decoded.preimages.items()}

    def reached(x0, a):
        # a's preimages that x0 reaches: the set bits, lowest index first
        found = decoded.reach[x0] & image_bits[a]
        while found:
            yield members[(found & -found).bit_length() - 1]
            found &= found - 1

    def candidate_pairs(x0, y0, a, b):
        # the start pair, then every other pair of same-image descendants
        yield x0, y0
        for pair in product(reached(x0, a), reached(y0, b)):
            if pair != (x0, y0):
                yield pair

    found = []
    for (a, b), children in by_pair.items():
        pre_a = decoded.preimages.get(a, [])
        pre_b = decoded.preimages.get(b, [])
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
                achievable.update(map(decoded.image_of, combine(
                    x, y, sim.tas.tile_set, sim.tas.tau)))
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
