"""Workload inputs, job lists and expected answers for the benchmark.

Every input the program sees is a generated JSON document.  The seed
renames tile ids and glue labels (verify and simulate workloads) or
picks which sixteenth of the enumeration indices is swept
(enumerate-sweep); it never changes the amount of work, so every
expected count and verdict below holds for every seed.  Every job is
short (at most about 1 s at the seed commit), so a run can repeat each
one many times and keep its best time.
The expected answers were frozen from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SUITE_METHODS = ("strong2", "strong1", "weak1", "weak2", "weak3")
# Acceptance jobs left out of verify-suite-t2: at the seed commit each
# takes 2-5.5 s, too long to run the several times a best time needs.
SUITE_SKIP = {("mismatch-square", "weak1"), ("mismatch-square", "weak2"),
              ("mismatch-square", "weak3")}
ENUM_COUNT = 4096
ENUM_STRIDE = 16
ENUM_TAU = 2
ORACLE_SAMPLE = 48
ID_WIDTH = 6


def _glue(label, strength):
    return {"label": label, "strength": strength}


def _single(tid):
    return {"count": "inf", "placement": [{"x": 0, "y": 0, "tile": tid}]}


def pair_doc(tau):
    return {"temperature": tau, "tiles": [
        {"id": "A", "east": _glue("g", tau)},
        {"id": "B", "west": _glue("g", tau)},
    ]}


def mismatch_square_doc():
    """A square whose fourth corner seam mismatches (p against q)."""
    return {"temperature": 2, "tiles": [
        {"id": "A", "east": _glue("t", 2), "north": _glue("p", 1)},
        {"id": "B", "west": _glue("t", 2), "north": _glue("s", 2)},
        {"id": "C", "south": _glue("s", 2), "west": _glue("s", 2)},
        {"id": "D", "east": _glue("s", 2), "south": _glue("q", 1)},
    ]}


def seeded_chain_doc():
    """Three singletons plus a preformed P-over-Q duple, all infinite."""
    return {"temperature": 2, "tiles": [
        {"id": "P", "north": _glue("h", 2)},
        {"id": "Q", "south": _glue("h", 2), "east": _glue("e", 2)},
        {"id": "R", "west": _glue("e", 2)},
    ], "initial_state": [_single("P"), _single("Q"), _single("R"), {
        "count": "inf",
        "placement": [{"x": 0, "y": 0, "tile": "P"},
                      {"x": 0, "y": 1, "tile": "Q"}],
    }]}


def square_doc(n, tau):
    """Uniquely glued n x n square: horizontal glues tau, vertical 1."""
    tiles = []
    for y in range(n):
        for x in range(n):
            t = {"id": f"s{x}_{y}"}
            if x + 1 < n:
                t["east"] = _glue(f"h{x}_{y}", tau)
            if x > 0:
                t["west"] = _glue(f"h{x - 1}_{y}", tau)
            if y + 1 < n:
                t["north"] = _glue(f"v{x}_{y}", 1)
            if y > 0:
                t["south"] = _glue(f"v{x}_{y - 1}", 1)
            tiles.append(t)
    return {"temperature": tau, "tiles": tiles}


SUITE = (("pair", pair_doc(2)), ("mismatch-square", mismatch_square_doc()),
         ("seeded-chain", seeded_chain_doc()))


def _fresh_names(rng, names, prefix):
    """Map each name to a distinct random name of fixed width."""
    out = {}
    used = set()
    for name in names:
        while True:
            new = prefix + "".join(rng.choice("abcdefghjkmnpqrstuvwxyz")
                                   for _ in range(ID_WIDTH - 1))
            if new not in used:
                break
        used.add(new)
        out[name] = new
    return out


def relabel(doc, rng):
    """Rename every tile id and positive glue label, keeping structure.

    The tile list keeps its order and equal labels stay equal, so the
    relabelled system is isomorphic to the original.
    """
    tile_ids = [t["id"] for t in doc["tiles"]]
    labels = sorted({g["label"] for t in doc["tiles"] for side, g in t.items()
                     if side != "id" and g["label"]})
    tmap = _fresh_names(rng, tile_ids, "T")
    gmap = _fresh_names(rng, labels, "g")
    out = {"temperature": doc["temperature"], "tiles": []}
    for t in doc["tiles"]:
        new = {"id": tmap[t["id"]]}
        for side, g in t.items():
            if side != "id":
                new[side] = _glue(gmap.get(g["label"], g["label"]), g["strength"])
        out["tiles"].append(new)
    if "initial_state" in doc:
        out["initial_state"] = [
            {"count": e["count"],
             "placement": [dict(c, tile=tmap[c["tile"]]) for c in e["placement"]]}
            for e in doc["initial_state"]]
    return out


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


class CliJob:
    """One `twoham` command line and the answer it must print."""

    kind = "cli"

    def __init__(self, name, argv, expected):
        self.name = name
        self.argv = argv
        self.expected = expected


def enum_indices(offset):
    """One index in each aligned group of ENUM_STRIDE, over all 65,536.

    Group k contributes index ENUM_STRIDE * k + (k + offset) % ENUM_STRIDE,
    so every tile of the enumeration is chosen by exactly half of the
    indices whatever the offset: the offset changes which documents are
    printed, not how large they are.
    """
    return [ENUM_STRIDE * k + (k + offset) % ENUM_STRIDE
            for k in range(ENUM_COUNT)]


class EnumJob:
    """One enumeration index, printed as `twoham enumerate` would."""

    kind = "enumerate"

    def __init__(self, index):
        self.name = f"enumerate-{index}"
        self.index = index


def verify_answer(target, simulator, verdicts, code):
    return {"code": code, "target": target, "simulator": simulator,
            "verdicts": verdicts}


_CLAIMED = {"strong2": ("productions", "follows", "weak[standard]", "strong"),
            "strong1": ("productions", "follows", "weak[standard]", "strong"),
            "weak1": ("productions", "follows", "weak[standard]"),
            "weak2": ("productions", "follows", "weak[standard]"),
            "weak3": ("productions", "follows", "weak[standard]")}


def claimed_passes(method):
    return {label: "PASS" for label in _CLAIMED[method]}


# (system, method) -> (target producibles, simulator producibles) at the
# workload's size bound, frozen from the seed commit.
SUITE_COUNTS = {
    ("pair", "strong2"): (3, 3), ("pair", "strong1"): (3, 3),
    ("pair", "weak1"): (3, 10), ("pair", "weak2"): (3, 12),
    ("pair", "weak3"): (3, 12),
    ("mismatch-square", "strong2"): (10, 10),
    ("mismatch-square", "strong1"): (10, 10),
    ("seeded-chain", "strong2"): (6, 6), ("seeded-chain", "strong1"): (6, 6),
    ("seeded-chain", "weak1"): (6, 27), ("seeded-chain", "weak2"): (6, 35),
    ("seeded-chain", "weak3"): (6, 35),
}
# The known negative: weak1 does not claim strong, and strong fails.
NEGATIVE_VERDICTS = {"productions": "PASS", "follows": "PASS",
                     "weak[standard]": "PASS", "strong": "FAIL"}
# (temperature, size bound, producibles, edges, pairs set aside)
SQUARE_JOBS = ((2, 8, 631, 2190, 184715), (2, 9, 1090, 4570, 567876),
               (3, 10, 236, 594, 19931), (3, 12, 461, 1662, 90848))
SQUARE_SIDE = 5


class Workload:
    """Generated documents plus the jobs that run on them."""

    def __init__(self, files, jobs, enum_offset=None):
        self.files = files          # file name -> document text
        self.jobs = jobs
        self.enum_offset = enum_offset


def build(name, seed, twoham, workdir: Path) -> Workload:
    """Generate one workload's inputs; compile where verify needs it.

    twoham is the namespace returned by run.load_twoham(); workdir is the
    directory the documents are written to.
    """
    rng = random.Random(f"{name}:{seed}")
    files = {}
    jobs = []

    def write(fname, text):
        files[fname] = text
        path = workdir / fname
        path.write_text(text)
        return str(path)

    def compiled(tas_text, method):
        comp = twoham.cli.METHODS[method](twoham.serialize.parse_tas(tas_text))
        return twoham.serialize.serialize_compiled(comp)

    if name == "verify-suite-t2":
        for sysname, doc in SUITE:
            text = dumps(relabel(doc, rng))
            tas_path = write(f"{sysname}.json", text)
            for method in SUITE_METHODS:
                if (sysname, method) in SUITE_SKIP:
                    continue
                comp_path = write(f"{sysname}.{method}.json",
                                  compiled(text, method))
                target, sim = SUITE_COUNTS[(sysname, method)]
                jobs.append(CliJob(
                    f"{sysname}/{method}",
                    ["verify", "--tas", tas_path, "--compiled", comp_path,
                     "--size-bound", "6"],
                    verify_answer(target, sim, claimed_passes(method), 0)))
        target, sim = SUITE_COUNTS[("pair", "weak1")]
        jobs.append(CliJob(
            "pair/weak1/all",
            ["verify", "--tas", str(workdir / "pair.json"), "--compiled",
             str(workdir / "pair.weak1.json"), "--size-bound", "6",
             "--relation", "all"],
            verify_answer(target, sim, NEGATIVE_VERDICTS, 1)))
    elif name == "simulate-squares":
        texts = {tau: dumps(relabel(square_doc(SQUARE_SIDE, tau), rng))
                 for tau in sorted({job[0] for job in SQUARE_JOBS})}
        for tau, bound, prods, edges, aside in SQUARE_JOBS:
            path = write(f"square{SQUARE_SIDE}.t{tau}.json", texts[tau])
            jobs.append(CliJob(
                f"square{SQUARE_SIDE}/t{tau}/b{bound}",
                ["simulate", "--tas", path, "--size-bound", str(bound)],
                {"code": 0, "producibles": prods, "edges": edges,
                 "bound": bound, "set_aside": aside}))
    elif name == "enumerate-sweep":
        offset = rng.randrange(ENUM_STRIDE)
        jobs = [EnumJob(n) for n in enum_indices(offset)]
        return Workload(files, jobs, enum_offset=offset)
    else:
        raise KeyError(name)
    return Workload(files, jobs)


NAMES = ("verify-suite-t2", "simulate-squares", "enumerate-sweep")


def oracle_sample(workload: Workload, seed):
    """Indices of enumerate-sweep checked against the hand-trace oracle."""
    rng = random.Random(f"oracle:{seed}")
    indices = [job.index for job in workload.jobs]
    return sorted(rng.sample(indices, min(ORACLE_SAMPLE, len(indices))))


# ---- output checks -------------------------------------------------------

VERDICT_LABELS = ("productions", "follows", "weak[standard]", "weak[literal]",
                  "strong")


def check_verify(out, code, expected):
    """Exit code, producible counts and every relation verdict."""
    counts = {}
    verdicts = {}
    for line in out.splitlines():
        head, _, rest = line.partition(": ")
        if head in ("target", "simulator"):
            counts[head] = int(rest.split()[0])
        elif head in VERDICT_LABELS:
            verdicts[head] = rest.split()[0]
    return (code == expected["code"]
            and counts == {"target": expected["target"],
                           "simulator": expected["simulator"]}
            and verdicts == expected["verdicts"])


def check_simulate(out, code, expected):
    """Header line, edge count line, and the number of listed lines."""
    n = expected["producibles"]
    header = (f"producible supertiles: {n} within size bound "
              f"{expected['bound']} (complete, skipped pairs: "
              f"{expected['set_aside']})")
    lines = out.splitlines()
    return (code == expected["code"]
            and len(lines) == n + expected["edges"] + 2
            and lines[0] == header
            and lines[n + 1] == f"combination edges: {expected['edges']}")


def check_enumerate(twoham, text):
    """The printed document round-trips through parse_tas byte-identically.

    The empty subsets (indices 0 and 32,768 at temperature 2) print a
    system without tiles, which parse_tas rejects at the seed commit.
    That rejection is their frozen answer; a round trip is accepted too.
    """
    try:
        return twoham.serialize.serialize_tas(
            twoham.serialize.parse_tas(text)) == text
    except twoham.errors.SchemaError:
        return json.loads(text)["tiles"] == []


def check_cli(job, out, code):
    check = check_verify if job.argv[0] == "verify" else check_simulate
    return check(out, code, job.expected)
