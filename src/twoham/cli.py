"""Command line front end.

Subcommands cover the whole pipeline: simulate a system, compile it to
a block simulator, verify the compilation against its source, count
half-ladders, pull systems out of the canonical enumeration, rescale
temperatures, and render supertiles to SVG.

Every subcommand is deterministic, so rerunning one on the same inputs
yields byte-identical output.  Operational failures (bad files, bad
flags, unknown ids) print one JSON error object on stderr and exit 2;
a verify run whose checks find violations reports them and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import ladders, strong, weak
from .dynamics import explore
from .enumeration import get_nth_tas
from .errors import NotProducible, SchemaError, TwohamError
from .model import INFINITE, TAS
from .relations import CHECKS, decode_producibles
from .render import render_svg
from .serialize import (
    compiled_document,
    parse_compiled,
    parse_tas,
    serialize_compiled,
    serialize_tas,
)

# variant -> compile function; each looks its compiler up at call time
METHODS = {
    **{v: lambda tas, v=v: strong.compile_strong(tas, v)
       for v in strong.VARIANTS},
    **{v: lambda tas, v=v: weak.compile_weak(tas, v) for v in weak.VARIANTS},
}

RENDER_BOUND = 8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@contextmanager
def _collector_paused():
    """Run the body with Python's cyclic garbage collector disabled, and
    restore the caller's setting afterwards, whatever the outcome.

    Reference counting alone frees everything verify and compile make,
    because none of it forms a reference cycle (the acyclicity lemma):
    a union references its parents and never its children, so
    supertiles form a DAG; tile types and glues are tuples of strings
    and ints; parsed and built documents are trees; and a compilation's
    decoder closures reference its metadata, which never references
    back.  So a collection pass would find nothing, yet each one
    re-traverses every live container: the parsed document, tens of
    thousands of universal tile types and seed cells.  main builds its
    argparse parser, which is cyclic, before entering, and
    tests/test_cli.py holds every verify and compile path to the lemma
    with gc.DEBUG_SAVEALL.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read(path: str) -> str:
    return Path(path).read_text()


def _emit_error(kind: str, message: str):
    # json.dumps takes the C encoder; json.dump's pure-Python one leaves
    # reference cycles of nested closures behind on every error exit
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _exploration_note(prod) -> str:
    note = "complete" if prod.complete else "clipped by step bound"
    if prod.overflow:
        note += f", skipped pairs: {prod.overflow}"
    if any(c != INFINITE for _, c in prod.tas.initial_state):
        note += ", finite counts read as infinite"
    return note


def _producible_listing(prod) -> str:
    lines = [f"producible supertiles: {len(prod)} within size bound "
             f"{prod.size_bound} ({_exploration_note(prod)})"]
    for st in prod.members():
        lines.append(f"{st.fingerprint} size={st.size}")
    return "\n".join(lines) + "\n"


def _edge_listing(prod) -> str:
    lines = [f"combination edges: {len(prod.edges)}"]
    for pa, pb, child in sorted((*sorted((pa.fingerprint, pb.fingerprint)),
                                 c.fingerprint) for pa, pb, c in prod.edges):
        lines.append(f"{pa} + {pb} -> {child}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    tas = parse_tas(_read(args.tas))
    prod = explore(tas, args.size_bound, step_bound=args.step_bound)
    listing = _producible_listing(prod)
    edges = _edge_listing(prod)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "producibles.txt").write_text(listing)
        (outdir / "edges.txt").write_text(edges)
        print(listing.splitlines()[0])
        print(edges.splitlines()[0])
        print(f"wrote {outdir / 'producibles.txt'} and {outdir / 'edges.txt'}")
    else:
        sys.stdout.write(listing)
        sys.stdout.write(edges)
    return 0


@_collector_paused()
def _cmd_compile(args) -> int:
    tas = parse_tas(_read(args.tas))
    comp = METHODS[args.method](tas)
    Path(args.out).write_text(serialize_compiled(comp))
    print(f"{args.method}: scale {comp.m}, {len(comp.universal_tiles)} tile "
          f"types, {len(comp.input_supertiles)} input supertiles -> {args.out}")
    return 0


@_collector_paused()
def _cmd_verify(args) -> int:
    tas = parse_tas(_read(args.tas))
    doc = parse_compiled(_read(args.compiled))
    method = doc["method"]
    if method not in METHODS:
        raise SchemaError(f"method: unknown compiler variant {method!r}")
    comp = METHODS[method](tas)
    if compiled_document(comp) != doc:
        raise SchemaError(
            f"compiled document does not match a fresh {method} compilation "
            f"of the source system")

    print(f"source: {len(tas.tile_set)} tile types, temperature {tas.tau}; "
          f"compiled with {method} at scale {comp.m}")
    target = explore(tas, args.size_bound)
    print(f"target: {len(target)} producibles within size bound "
          f"{target.size_bound} ({_exploration_note(target)})")
    sim_bound = args.size_bound * comp.budget
    sim = explore(comp.simulator_tas(), sim_bound)
    print(f"simulator: {len(sim)} producibles within size bound "
          f"{sim.size_bound} ({_exploration_note(sim)})")

    if args.relation is None:
        names = comp.claims
    elif args.relation == "all":
        names = tuple(CHECKS)
    else:
        names = (args.relation,)
    decoded = decode_producibles(sim, comp.rep)
    failed = 0
    for name in names:
        kwargs = {}
        label = name
        if name == "weak":
            kwargs["weak_def"] = args.weak_def
            label = f"weak[{args.weak_def}]"
        report = CHECKS[name](sim, target, comp.rep, decoded=decoded,
                              **kwargs)
        verdict = "PASS" if report.passed else "FAIL"
        print(f"{label}: {verdict} (checked {report.checked}, boundary "
              f"{report.boundary}, skipped {report.skipped})")
        for note in report.notes:
            print(f"  note: {note}")
        for v in report.violations:
            failed += 1
            detail = {k: val for k, val in v.items() if k != "kind"}
            print(f"  violation {v['kind']}: "
                  + ", ".join(f"{k}={val}" for k, val in sorted(detail.items())))
    if failed:
        print(f"result: FAIL ({failed} violations)")
        return 1
    print("result: PASS")
    return 0


def _cmd_ladders(args) -> int:
    sys_ = ladders.build_ladder_system(args.tau)
    lefts = ladders.enumerate_half_ladders(sys_, args.height, ladders.LEFT)
    rights = ladders.enumerate_half_ladders(sys_, args.height, ladders.RIGHT)
    print(f"temperature {args.tau}, height {args.height}: "
          f"{len(lefts)} half-ladders per side")
    for lad in lefts + rights:
        rungs = ",".join(str(p) for p in lad.rung_positions)
        print(f"{lad.side} rungs={rungs} {lad.supertile.fingerprint}")
    if args.matrix:
        print("binding strength matrix (left rows x right columns):")
        for row in ladders.binding_strength_matrix(args.height, args.tau):
            print(" ".join(str(v) for v in row))
    return 0


def _cmd_enumerate(args) -> int:
    canon = get_nth_tas(args.index, args.tau)
    if not canon.tile_set:
        raise ValueError(f"index {args.index} is the empty tile set, which "
                         f"is not a system")
    sys.stdout.write(serialize_tas(TAS(canon.tile_set, args.tau)))
    return 0


def _cmd_rescale(args) -> int:
    tas = parse_tas(_read(args.tas))
    scaled = strong.rescale_temperature(tas, args.factor)
    Path(args.out).write_text(serialize_tas(scaled))
    print(f"temperature {tas.tau} -> {scaled.tau} ({len(scaled.tile_set)} "
          f"tile types) -> {args.out}")
    return 0


def _find_supertile(tas: TAS, prefix: str):
    initial = [st for st, _ in tas.initial_state]
    hits = [st for st in initial if st.fingerprint.startswith(prefix)]
    # explore refuses a bound below an initial supertile
    bound = max([RENDER_BOUND] + [st.size for st in initial])
    if not hits:
        hits = [st for st in explore(tas, bound).members()
                if st.fingerprint.startswith(prefix)]
    unique = {st.fingerprint: st for st in hits}
    if not unique:
        raise NotProducible(
            f"no supertile with fingerprint prefix {prefix!r} in the initial "
            f"state or within size bound {bound}")
    if len(unique) > 1:
        raise ValueError(
            f"fingerprint prefix {prefix!r} is ambiguous "
            f"({len(unique)} matches); give more characters")
    (st,) = unique.values()
    return st


def _cmd_render(args) -> int:
    tas = parse_tas(_read(args.tas))
    if args.supertile:
        st = _find_supertile(tas, args.supertile)
    elif len(tas.initial_state) == 1:
        st = tas.initial_state[0][0]
    else:
        raise ValueError(
            f"system has {len(tas.initial_state)} initial supertiles; "
            f"pick one with --supertile")
    Path(args.out).write_text(render_svg(st, tas.tile_set))
    print(f"wrote {args.out} ({st.size} tiles, {st.fingerprint})")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="twoham", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="explore the producible set")
    p.add_argument("--tas", required=True)
    p.add_argument("--size-bound", type=int, required=True)
    p.add_argument("--step-bound", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for listing files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compile", help="compile a system to a block simulator")
    p.add_argument("--tas", required=True)
    p.add_argument("--method", required=True, choices=sorted(METHODS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", help="check a compilation against its source")
    p.add_argument("--tas", required=True)
    p.add_argument("--compiled", required=True)
    p.add_argument("--size-bound", type=int, required=True,
                   help="target-side supertile size bound")
    p.add_argument("--relation", default=None,
                   choices=["productions", "follows", "weak", "strong", "all"],
                   help="default: the relations the method claims")
    p.add_argument("--weak-def", default="standard",
                   choices=["standard", "literal"])
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ladders", help="enumerate half-ladders")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--matrix", action="store_true",
                   help="print pairwise aligned interface strengths")
    p.set_defaults(func=_cmd_ladders)

    p = sub.add_parser("enumerate", help="print the n-th canonical system")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--tau", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("rescale", help="multiply temperature and strengths")
    p.add_argument("--tas", required=True)
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rescale)

    p = sub.add_parser("render", help="draw a supertile as SVG")
    p.add_argument("--tas", required=True)
    p.add_argument("--supertile", default=None,
                   help="fingerprint or unique prefix")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        _emit_error("UsageError", str(e))
        return 2
    except (TwohamError, ValueError, OSError) as e:
        _emit_error(type(e).__name__, str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
