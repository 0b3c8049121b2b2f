"""Executable checks for the simulation relations between two tile systems.

Each check compares a simulator's explored producible set against a
target system's explored producible set through a block representation,
and returns a Report rather than a verdict alone.  All checks are
bounded: they see only what the two explorations saw, so a pass means
"no violation within the explored horizon" and the notes say when a
horizon was clipped.

The four relations, in increasing strength of the dynamic requirement:

* equivalent productions: decoded images of the simulator's producibles
  are exactly the target's producibles, junk decodes to nothing and
  stays small, and every image maps cleanly.
* follows: every single combination step in the simulator maps to at
  most one step in the target.
* weakly models: every target step can be realized from every preimage
  of its input, possibly after extra simulator-only steps.
* strongly models: every target combination is realizable from every
  pair of preimages of its inputs, possibly after same-image steps on
  each side, with a product decoding to the exact target result.

The weakly-models clause is implemented in two variants selected by
``weak_def``: "standard" asks for an intermediate with the same image as
the step's input, "literal" asks for one with the image of the step's
output.  The first is the default; the second is kept selectable
because both readings are in circulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .dynamics import single_step_reachable
from .errors import AmbiguousAlignment
from .model import combine
from .representation import decode_supertile, fits_single_block

__all__ = [
    "CHECKS",
    "Report",
    "check_equivalent_productions",
    "check_follows",
    "check_strongly_models",
    "check_weakly_models",
    "decode_producibles",
]


@dataclass
class Report:
    """Outcome of one relation check.

    checked counts the proof obligations examined; boundary counts the
    ones skipped because they fell outside an exploration bound; skipped
    counts the ones that were vacuous (no preimage, junk-only step).
    """

    relation: str
    checked: int = 0
    boundary: int = 0
    skipped: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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
    """Decode every explored simulator supertile once.

    Returns (images, ambiguities): images maps each fingerprint to its
    DecodedImage or None, and ambiguities lists one "ambiguous-alignment"
    violation per supertile whose grid alignments disagree (it decodes to
    None).  Checks take this pair as decoded and put the ambiguities at
    the head of their violations.
    """
    images = {}
    ambiguities = []
    for s in sim.members():
        try:
            images[s.fingerprint] = decode_supertile(s, rep)
        except AmbiguousAlignment as exc:
            images[s.fingerprint] = None
            ambiguities.append({
                "kind": "ambiguous-alignment",
                "supertile": s.fingerprint,
                "detail": str(exc),
            })
    return images, ambiguities


def _bound_notes(report, sim, target):
    if not sim.complete:
        report.notes.append("simulator exploration clipped by step bound")
    if sim.overflow:
        report.notes.append(
            f"simulator exploration set aside {sim.overflow} pairs at "
            f"size bound {sim.size_bound}")
    if not target.complete:
        report.notes.append("target exploration clipped by step bound")
    if target.overflow:
        report.notes.append(
            f"target exploration set aside {target.overflow} pairs at "
            f"size bound {target.size_bound}")


def _image_index(images):
    """image fingerprint -> sorted simulator fingerprints mapping to it."""
    index = {}
    for fp, img in images.items():
        if img is not None:
            index.setdefault(img.supertile.fingerprint, []).append(fp)
    for fps in index.values():
        fps.sort()
    return index


def _transitions(prod):
    """Distinct (parent, child) fingerprint pairs of one-step growth."""
    pairs = set()
    for pa, pb, child in prod.edges:
        pairs.add((pa, child))
        pairs.add((pb, child))
    return sorted(pairs)


def _reachable(prod, start_fp):
    """Fingerprints reachable from start by zero or more explored steps."""
    seen = {start_fp}
    queue = deque([start_fp])
    while queue:
        fp = queue.popleft()
        for child in prod.children_of(fp):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


def check_equivalent_productions(sim, target, rep, decoded=None):
    """Images of simulator producibles == target producibles, plus junk rules.

    Supertiles with no image must fit inside a single block.  Supertiles
    with an image must map cleanly; images within the target's size
    bound must be target-producible, larger ones are boundary skips.
    Every target producible must be hit by some image.
    """
    report = Report("productions")
    images, ambiguities = decoded or decode_producibles(sim, rep)
    report.violations.extend(ambiguities)
    covered = set()
    for fp in sorted(images):
        img = images[fp]
        report.checked += 1
        if img is None:
            if not fits_single_block(sim.get(fp), rep.m):
                report.violations.append({
                    "kind": "oversized-junk",
                    "supertile": fp,
                })
            continue
        if img.supertile.size > target.size_bound:
            report.boundary += 1
            continue
        if not img.clean:
            report.violations.append({
                "kind": "unclean-image",
                "supertile": fp,
                "image": img.supertile.fingerprint,
            })
        if img.supertile.fingerprint in target:
            covered.add(img.supertile.fingerprint)
        else:
            report.violations.append({
                "kind": "extra-image",
                "supertile": fp,
                "image": img.supertile.fingerprint,
            })
    for t in target.members():
        report.checked += 1
        if t.fingerprint not in covered:
            report.violations.append({
                "kind": "missing-image",
                "image": t.fingerprint,
            })
    _bound_notes(report, sim, target)
    return report


def check_follows(sim, target, rep, decoded=None):
    """Every simulator step maps to at most one target step.

    A step whose endpoint images are equal maps to zero steps and
    passes.  A step between two defined images must correspond to an
    explored target edge.  Steps into or out of junk are skipped; steps
    whose images exceed the target bound are boundary skips.
    """
    report = Report("follows")
    images, ambiguities = decoded or decode_producibles(sim, rep)
    report.violations.extend(ambiguities)
    for parent_fp, child_fp in _transitions(sim):
        pimg = images.get(parent_fp)
        cimg = images.get(child_fp)
        if pimg is None or cimg is None:
            report.skipped += 1
            continue
        a = pimg.supertile.fingerprint
        b = cimg.supertile.fingerprint
        if (pimg.supertile.size > target.size_bound
                or cimg.supertile.size > target.size_bound):
            report.boundary += 1
            continue
        report.checked += 1
        if a == b:
            continue
        if a not in target or b not in target:
            report.violations.append({
                "kind": "image-not-producible",
                "parent": parent_fp,
                "child": child_fp,
                "parent_image": a,
                "child_image": b,
            })
            continue
        if not single_step_reachable(a, b, target):
            report.violations.append({
                "kind": "unmatched-step",
                "parent": parent_fp,
                "child": child_fp,
                "parent_image": a,
                "child_image": b,
            })
    _bound_notes(report, sim, target)
    return report


def check_weakly_models(sim, target, rep, decoded=None, weak_def="standard"):
    """Every target step is realizable from every preimage of its input.

    For a target step a -> b and a simulator supertile decoding to a,
    some supertile reachable from it must take a single step into the
    image b.  Under "standard" the intermediate must still decode to a;
    under "literal" it must already decode to b.
    """
    if weak_def not in ("standard", "literal"):
        raise ValueError(f"unknown weak_def {weak_def!r}")
    report = Report("weak")
    images, ambiguities = decoded or decode_producibles(sim, rep)
    report.violations.extend(ambiguities)
    index = _image_index(images)

    def image_of(fp):
        img = images.get(fp)
        return img.supertile.fingerprint if img is not None else None

    child_images = {
        fp: {image_of(c) for c in sim.children_of(fp)}
        for fp in images
    }
    for a, b in _transitions(target):
        preimages = index.get(a, [])
        if not preimages:
            report.skipped += 1
            continue
        for start in preimages:
            report.checked += 1
            waypoint = a if weak_def == "standard" else b
            ok = False
            for node in _reachable(sim, start):
                if image_of(node) != waypoint:
                    continue
                if b in child_images[node]:
                    ok = True
                    break
            if not ok:
                report.violations.append({
                    "kind": "unrealizable-step",
                    "target_parent": a,
                    "target_child": b,
                    "preimage": start,
                })
    _bound_notes(report, sim, target)
    return report


def check_strongly_models(sim, target, rep, decoded=None):
    """Every target combination is realizable from every preimage pair.

    For target producibles a, b and each explored product c of theirs:
    any simulator pair decoding to (a, b) must reach, by steps that
    preserve their images, a pair whose direct combination contains a
    supertile decoding to c.  Combinations of candidate pairs are
    computed directly, so products beyond the simulator's exploration
    bound still count.
    """
    report = Report("strong")
    images, ambiguities = decoded or decode_producibles(sim, rep)
    report.violations.extend(ambiguities)
    index = _image_index(images)
    by_pair = {}
    for pa, pb, child in target.edges:
        by_pair.setdefault((pa, pb), set()).add(child)

    ts = sim.tas.tile_set
    tau = sim.tas.tau
    decode_memo = {}

    def product_images(x_fp, y_fp):
        got = set()
        for prod in combine(sim.get(x_fp), sim.get(y_fp), ts, tau, sim.by_key()):
            if prod.fingerprint not in decode_memo:
                try:
                    img = decode_supertile(prod, rep)
                except AmbiguousAlignment:
                    img = None
                decode_memo[prod.fingerprint] = (
                    img.supertile.fingerprint if img is not None else None)
            got.add(decode_memo[prod.fingerprint])
        got.discard(None)
        return got

    reach_memo = {}

    def same_image_reach(fp, image_fp):
        if fp not in reach_memo:
            reach_memo[fp] = sorted(
                n for n in _reachable(sim, fp)
                if images.get(n) is not None
                and images[n].supertile.fingerprint == image_fp)
        return reach_memo[fp]

    for (a, b), children in sorted((k, sorted(v)) for k, v in by_pair.items()):
        pre_a = index.get(a, [])
        pre_b = index.get(b, [])
        if not pre_a or not pre_b:
            report.skipped += 1
            continue
        # each unordered preimage pair once, in the order product meets it
        seen = set()
        start_pairs = []
        for pair in product(pre_a, pre_b):
            key = tuple(sorted(pair))
            if key not in seen:
                seen.add(key)
                start_pairs.append(pair)
        for a_fp, b_fp in start_pairs:
            report.checked += 1
            achievable = product_images(a_fp, b_fp)
            missing = [c for c in children if c not in achievable]
            if missing:
                for x_fp in same_image_reach(a_fp, a):
                    for y_fp in same_image_reach(b_fp, b):
                        if (x_fp, y_fp) == (a_fp, b_fp):
                            continue
                        achievable |= product_images(x_fp, y_fp)
                        missing = [c for c in children if c not in achievable]
                        if not missing:
                            break
                    if not missing:
                        break
            for c in missing:
                report.violations.append({
                    "kind": "unrealizable-combination",
                    "target_parents": [a, b],
                    "target_child": c,
                    "preimages": [a_fp, b_fp],
                })
    _bound_notes(report, sim, target)
    return report


CHECKS = {
    "productions": check_equivalent_productions,
    "follows": check_follows,
    "weak": check_weakly_models,
    "strong": check_strongly_models,
}
