import gc
import hashlib
import json
import weakref
from collections import Counter

import pytest

from twoham import CHECKS, Glue, INFINITE, NULL_GLUE, Supertile, TAS, TileSet, TileType
from twoham import cli, ladders
from twoham.cli import main
from twoham.dynamics import explore
from twoham.weak import WEAK1, compile_weak
from twoham.serialize import (
    compiled_document,
    parse_tas,
    serialize_compiled,
    serialize_tas,
)

from test_acceptance import TARGET_BOUND, suite


def write_pair(tmp_path):
    ts = TileSet([
        TileType("a", east=Glue("g", 2)),
        TileType("b", west=Glue("g", 2)),
    ])
    path = tmp_path / "pair.json"
    path.write_text(serialize_tas(TAS(ts, 2)))
    return path


def write_rig(tmp_path):
    g2, e2, f2 = Glue("g", 2), Glue("e", 2), Glue("f", 2)
    ts = TileSet([
        TileType("A1", north=g2, east=e2),
        TileType("A2", north=Glue("p", 1), west=e2),
        TileType("B1", south=g2, east=f2),
        TileType("B2", south=Glue("q", 1), west=f2),
    ])
    lower = Supertile({(0, 0): "A1", (1, 0): "A2"})
    upper = Supertile({(0, 0): "B1", (1, 0): "B2"})
    path = tmp_path / "rig.json"
    path.write_text(serialize_tas(TAS(ts, 2, [(lower, INFINITE),
                                              (upper, INFINITE)])))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_lists_producibles_and_edges(capsys, tmp_path):
    tas = write_pair(tmp_path)
    code, out, err = run(capsys, "simulate", "--tas", str(tas),
                         "--size-bound", "2")
    assert code == 0 and err == ""
    assert out.startswith("producible supertiles: 3 within size bound 2")
    assert "combination edges: 1" in out
    assert out.count("size=1") == 2 and out.count("size=2") == 1
    again = run(capsys, "simulate", "--tas", str(tas), "--size-bound", "2")
    assert again == (code, out, err)


def test_simulate_out_dir_holds_the_listings(capsys, tmp_path):
    tas = write_pair(tmp_path)
    outdir = tmp_path / "run"
    code, out, _ = run(capsys, "simulate", "--tas", str(tas),
                       "--size-bound", "2", "--out", str(outdir))
    assert code == 0
    listing = (outdir / "producibles.txt").read_text()
    edges = (outdir / "edges.txt").read_text()
    assert listing.count("\n") == 4 and "size=2" in listing
    assert " -> " in edges


def test_compile_then_verify_passes(capsys, tmp_path):
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    code, out, _ = run(capsys, "compile", "--tas", str(tas),
                       "--method", "weak1", "--out", str(compiled))
    assert code == 0 and "scale 27" in out
    code, out, _ = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "2")
    assert code == 0
    assert "result: PASS" in out
    assert "weak[standard]: PASS" in out
    assert "within size bound" in out


def test_verify_flags_a_failed_claim(capsys, tmp_path):
    tas = write_rig(tmp_path)
    compiled = tmp_path / "rig.weak1.json"
    assert run(capsys, "compile", "--tas", str(tas), "--method", "weak1",
               "--out", str(compiled))[0] == 0
    code, out, _ = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "4")
    assert code == 0, out
    code, out, _ = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "4",
                       "--relation", "strong")
    assert code == 1
    assert "unrealizable-combination" in out
    assert "result: FAIL" in out


def test_verify_rejects_a_tampered_document(capsys, tmp_path):
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    run(capsys, "compile", "--tas", str(tas), "--method", "weak1",
        "--out", str(compiled))
    doc = json.loads(compiled.read_text())
    # verify compares bytes first and then JSON values: a compact copy
    # still passes
    compiled.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "2")
    assert code == 0 and "result: PASS" in out
    doc["scale"] += 1
    compiled.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "2")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "SchemaError"
    assert "fresh weak1 compilation" in payload["error"]["message"]


def reordered(obj):
    """obj with the keys of every object in reverse order."""
    if isinstance(obj, dict):
        return {k: reordered(obj[k]) for k in reversed(obj)}
    if isinstance(obj, list):
        return [reordered(v) for v in obj]
    return obj


def test_verify_accepts_what_the_value_comparison_accepts(capsys, tmp_path):
    """Where the bytes differ from the canonical text, verify's exit code
    and error type are those of the JSON-value comparison."""
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    run(capsys, "compile", "--tas", str(tas), "--method", "weak1",
        "--out", str(compiled))
    text = compiled.read_text()
    doc = json.loads(text)
    tampered = json.loads(text)
    tampered["scale"] += 1
    swapped = json.loads(text)
    anchors = swapped["decoder"]["anchors"]
    anchors[0], anchors[1] = anchors[1], anchors[0]
    copies = {
        "canonical": text,
        "compact": json.dumps(doc),
        "re-indented": json.dumps(doc, sort_keys=True, indent=4),
        "key-reordered": json.dumps(reordered(doc), indent=2) + "\n",
        "trailing space": text + " ",
        "tampered scale": json.dumps(tampered, sort_keys=True, indent=2) + "\n",
        "reordered anchors": json.dumps(swapped),
    }
    fresh = compiled_document(compile_weak(parse_tas(tas.read_text()), WEAK1))
    for label, copy in copies.items():
        compiled.write_text(copy)
        code, out, err = run(capsys, "verify", "--tas", str(tas),
                             "--compiled", str(compiled), "--size-bound", "2")
        if json.loads(copy) == fresh:
            assert (code, err) == (0, ""), label
            assert out.endswith("result: PASS\n"), label
        else:
            assert code == 2, label
            assert json.loads(err)["error"]["type"] == "SchemaError", label
    assert sum(json.loads(copy) == fresh for copy in copies.values()) == 5


class _Tree(dict):
    """A parsed document that can be watched by weak reference."""

    __slots__ = ("__weakref__",)


def test_verify_frees_the_parsed_document_before_compiling(
        capsys, monkeypatch, tmp_path):
    """The parsed tree is dead by the time the compiler runs; reference
    counting alone frees it, since verify runs with the collector off."""
    parse_compiled_ = cli.parse_compiled
    compile_ = cli.METHODS[WEAK1]
    trees, alive = [], []

    def parse(text):
        tree = _Tree(parse_compiled_(text))
        trees.append(weakref.ref(tree))
        return tree

    def compile_watched(tas):
        alive.append(trees[-1]() is not None)
        return compile_(tas)

    monkeypatch.setattr(cli, "parse_compiled", parse)
    monkeypatch.setitem(cli.METHODS, WEAK1, compile_watched)
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    compiled.write_text(serialize_compiled(compile_(parse_tas(tas.read_text()))))
    argv = ("verify", "--tas", str(tas), "--compiled", str(compiled),
            "--size-bound", "2")
    assert run(capsys, *argv)[0] == 0
    assert (len(trees), alive) == (1, [False])
    compiled.write_text(json.dumps(json.loads(compiled.read_text())))
    assert run(capsys, *argv)[0] == 0
    # a compact copy is parsed a second time, after the compiler
    assert (len(trees), alive) == (3, [False, False])


def test_finite_counts_are_read_as_infinite_and_noted(capsys, tmp_path):
    """Exploration has one count semantics, unlimited supply: a pair with
    both counts 1 lists and verifies as with "inf", plus a note wherever
    an exploration read its finite counts."""
    ts = TileSet([
        TileType("a", east=Glue("g", 2)),
        TileType("b", west=Glue("g", 2)),
    ])
    outs = {}
    for count in (1, INFINITE):
        path = tmp_path / f"pair-{count}.json"
        path.write_text(serialize_tas(TAS(ts, 2, [
            (Supertile({(0, 0): t.id}), count) for t in ts])))
        compiled = tmp_path / f"pair-{count}.strong2.json"
        assert run(capsys, "compile", "--tas", str(path), "--method",
                   "strong2", "--out", str(compiled))[0] == 0
        outs[count] = (
            run(capsys, "simulate", "--tas", str(path), "--size-bound", "2"),
            run(capsys, "verify", "--tas", str(path), "--compiled",
                str(compiled), "--size-bound", "2", "--relation", "all"))
    (code, listing, err), (vcode, verdicts, verr) = outs[1]
    assert code == vcode == 0 and err == verr == ""
    assert listing.startswith(
        "producible supertiles: 3 within size bound 2 (complete, skipped "
        "pairs: 3, finite counts read as infinite)\n")
    lines = verdicts.splitlines()
    for head in ("target: ", "simulator: "):
        line, = (line for line in lines if line.startswith(head))
        assert line.endswith(", finite counts read as infinite)")
    notes = {}
    for line in lines:
        if "(checked " in line:
            current = notes.setdefault(line.split(":")[0], [])
        elif line.startswith("  note: "):
            current.append(line[len("  note: "):])
    assert len(notes) == len(CHECKS)
    for got in notes.values():
        assert "simulator exploration read finite counts as infinite" in got
        assert "target exploration read finite counts as infinite" in got
    # the same verdicts and counts as with "inf", which prints no note
    inf_listing, inf_verdicts = outs[INFINITE][0][1], outs[INFINITE][1][1]
    assert "finite" not in inf_listing + inf_verdicts
    assert listing.replace(", finite counts read as infinite", "") == inf_listing
    assert "".join(
        line for line in verdicts.replace(
            ", finite counts read as infinite", "").splitlines(True)
        if not line.endswith("read finite counts as infinite\n")
    ) == inf_verdicts


def test_ladders_counts_and_matrix(capsys):
    code, out, _ = run(capsys, "ladders", "--tau", "2", "--height", "4",
                       "--matrix")
    assert code == 0
    assert "6 half-ladders per side" in out
    assert out.count("LEFT rungs=") == 6 and out.count("RIGHT rungs=") == 6
    rows = [line for line in out.splitlines()
            if line and line.split()[0].isdigit()]
    assert len(rows) == 6
    assert rows[0].split() == ["2", "1", "1", "1", "1", "0"]


def test_enumerate_emits_a_parseable_system(capsys):
    code, out, _ = run(capsys, "enumerate", "--index", "3", "--tau", "2")
    assert code == 0
    tas = parse_tas(out)
    assert tas.tau == 2
    assert run(capsys, "enumerate", "--index", "3", "--tau", "2")[1] == out


def test_enumerate_rejects_the_empty_tile_set(capsys):
    for index in (0, 32768):
        code, out, err = run(capsys, "enumerate", "--index", str(index),
                             "--tau", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        message = json.loads(err)["error"]["message"]
        assert f"index {index} " in message and "empty tile set" in message
    for index in (1, 3, 32769, 65535):
        code, out, _ = run(capsys, "enumerate", "--index", str(index),
                           "--tau", "2")
        assert code == 0
        assert serialize_tas(parse_tas(out)) == out


def test_rescale_multiplies_temperature(capsys, tmp_path):
    tas = write_pair(tmp_path)
    out_path = tmp_path / "scaled.json"
    code, out, _ = run(capsys, "rescale", "--tas", str(tas),
                       "--factor", "3", "--out", str(out_path))
    assert code == 0 and "2 -> 6" in out
    scaled = parse_tas(out_path.read_text())
    assert scaled.tau == 6
    assert scaled.tile_set.tile("a").east.strength == 6


def test_render_writes_svg(capsys, tmp_path):
    tas = write_pair(tmp_path)
    out_path = tmp_path / "pic.svg"
    code, _, err = run(capsys, "render", "--tas", str(tas),
                       "--out", str(out_path))
    assert code == 2 and "pick one with --supertile" in err

    duple = Supertile({(0, 0): "a", (1, 0): "b"})
    code, out, _ = run(capsys, "render", "--tas", str(tas),
                       "--supertile", duple.fingerprint[:8],
                       "--out", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('class="cell"') == 2
    assert duple.fingerprint in out


def test_render_rejects_ambiguous_prefix(capsys, tmp_path):
    sys_ = ladders.build_ladder_system(2)
    path = tmp_path / "ladder.json"
    path.write_text(serialize_tas(sys_))
    firsts = [st.fingerprint[0] for st, _ in sys_.initial_state]
    shared = next(c for c in firsts if firsts.count(c) > 1)
    code, _, err = run(capsys, "render", "--tas", str(path),
                       "--supertile", shared, "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert "ambiguous" in json.loads(err)["error"]["message"]


def test_unknown_supertile_is_not_producible(capsys, tmp_path):
    tas = write_pair(tmp_path)
    code, _, err = run(capsys, "render", "--tas", str(tas),
                       "--supertile", "ffff", "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NotProducible"


def test_render_searches_past_a_large_seed(capsys, tmp_path):
    # a 10-tile seed is larger than the render search's size bound of 8;
    # the search must widen to it instead of refusing to explore
    line = [TileType(f"l{i}", west=Glue(f"l{i - 1}", 2) if i else NULL_GLUE,
                     east=Glue(f"l{i}", 2) if i < 9 else NULL_GLUE)
            for i in range(10)]
    ts = TileSet(line + [TileType("t0", east=Glue("g", 2)),
                         TileType("t1", west=Glue("g", 2))])
    seed = Supertile({(i, 0): f"l{i}" for i in range(10)})
    path = tmp_path / "seeded.json"
    path.write_text(serialize_tas(TAS(ts, 2, [
        (seed, INFINITE),
        (Supertile({(0, 0): "t0"}), INFINITE),
        (Supertile({(0, 0): "t1"}), INFINITE)])))
    out_path = tmp_path / "x.svg"
    code, _, err = run(capsys, "render", "--tas", str(path),
                       "--supertile", "ffff", "--out", str(out_path))
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "NotProducible"
    assert "size bound 10" in error["message"]
    duple = Supertile({(0, 0): "t0", (1, 0): "t1"})
    code, out, _ = run(capsys, "render", "--tas", str(path),
                       "--supertile", duple.fingerprint[:10],
                       "--out", str(out_path))
    assert code == 0 and duple.fingerprint in out
    assert out_path.read_text().count('class="cell"') == 2


def test_usage_errors_are_machine_readable(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--tas", "nope.json")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    code, _, err = run(capsys, "simulate", "--tas", str(tmp_path / "no.json"),
                       "--size-bound", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_negative_step_bound_is_rejected(capsys, tmp_path):
    tas = write_pair(tmp_path)
    code, out, err = run(capsys, "simulate", "--tas", str(tas),
                         "--size-bound", "2", "--step-bound", "-1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["type"] == "BoundTooSmall"
    assert "step bound" in error["message"]
    code, out, _ = run(capsys, "simulate", "--tas", str(tas),
                       "--size-bound", "2", "--step-bound", "0")
    assert code == 0
    assert out.startswith("producible supertiles: 2 within size bound 2")


def test_verify_rejects_a_size_bound_below_one_before_compiling(capsys, tmp_path):
    """A bound below 1 is refused with explore's message before the
    compiled document is read: nothing is printed, and a missing
    compiled file is not reached."""
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    run(capsys, "compile", "--tas", str(tas), "--method", "weak1",
        "--out", str(compiled))
    for path in (compiled, tmp_path / "missing.json"):
        for bound in ("0", "-3"):
            code, out, err = run(capsys, "verify", "--tas", str(tas),
                                 "--compiled", str(path), "--size-bound", bound)
            assert code == 2 and out == ""
            assert err.count("\n") == 1
            error = json.loads(err)["error"]
            assert error["type"] == "BoundTooSmall"
            assert error["message"] == "size bound must be at least 1"
    code, out, _ = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "1")
    assert code == 0 and out.startswith("source: 2 tile types")


def test_compile_accepts_every_method(capsys, tmp_path):
    tas = write_pair(tmp_path)
    for method in ("strong2", "strong1", "weak1", "weak2", "weak3"):
        out_path = tmp_path / f"{method}.json"
        code, out, _ = run(capsys, "compile", "--tas", str(tas),
                           "--method", method, "--out", str(out_path))
        assert code == 0, method
        doc = json.loads(out_path.read_text())
        assert doc["method"] == method


def square_tas(n, tau):
    """Uniquely glued n x n square: horizontal glues tau, vertical 1."""
    tiles = []
    for y in range(n):
        for x in range(n):
            sides = {}
            if x + 1 < n:
                sides["east"] = Glue(f"h{x}_{y}", tau)
            if x > 0:
                sides["west"] = Glue(f"h{x - 1}_{y}", tau)
            if y + 1 < n:
                sides["north"] = Glue(f"v{x}_{y}", 1)
            if y > 0:
                sides["south"] = Glue(f"v{x}_{y - 1}", 1)
            tiles.append(TileType(f"s{x}_{y}", **sides))
    return TAS(TileSet(tiles), tau)


# SHA-256 of `twoham simulate` stdout: pins the fingerprint bytes, the
# listing order, the edges and the skipped-pairs count of the header
FROZEN_LISTINGS = {
    "pair":
        "75272fc1f570ff2aba75052fed94997471eeaf2b84e8be7ce22bab7346f39561",
    "mismatch-square":
        "2b828c0e452884ab402b4ecb9b8944f9afb640043f8cc3dabd16d6c913e64b46",
    "seeded-chain":
        "71d0c56b303eb7e6cdfd81680be733f8fefde441dd6bd3707171496bb928d12d",
    "square5-t2-b8":
        "3ad0fc725b862bb7b16230e172626858edfca6588d6f1f437ba3e976aa743e30",
    "square5-t2-b8-s40":
        "d9d3c7fd0bc42f7d3b130e5028cc5316b0c7d0a8ad411d4f6650d1c7e306a2f4",
    "square5-t3-b10":
        "368faccdd296170b5675b12f04ecf06d180380e8131c1afccce33979de899b80",
}


def test_simulate_listings_are_frozen(capsys, tmp_path):
    runs = [(name, tas, ["--size-bound", str(TARGET_BOUND)])
            for name, tas in suite()]
    runs += [("square5-t2-b8", square_tas(5, 2), ["--size-bound", "8"]),
             ("square5-t2-b8-s40", square_tas(5, 2),
              ["--size-bound", "8", "--step-bound", "40"]),
             ("square5-t3-b10", square_tas(5, 3), ["--size-bound", "10"])]
    got = {}
    for name, tas, argv in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_tas(tas))
        code, out, err = run(capsys, "simulate", "--tas", str(path), *argv)
        assert code == 0 and err == "", name
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == FROZEN_LISTINGS


# SHA-256 of `twoham verify --size-bound 3` stdout, with its exit code:
# pins every verdict line, count, note and violation record of the four
# checks on the suite under each compiler, and the claimed checks of the
# uniquely glued 3 x 3 square at tau 2, whose 735, 845 and 18 simulator
# members share blocks across members
FROZEN_VERIFY = {
    "pair/strong2/claimed":
        (0, "cf7ce44a857db35ffd1f6d581e101c29bce3b12f686876abc1f804052589f2fc"),
    "pair/strong2/all":
        (0, "cf7ce44a857db35ffd1f6d581e101c29bce3b12f686876abc1f804052589f2fc"),
    "pair/strong2/all-literal":
        (1, "be5a7f1371701f2187b5f82d3578bc987155d9a6c5fd6fdc992d6a73e8e984ce"),
    "pair/strong1/claimed":
        (0, "69efec84a4316ecd5996bc68eb0bf12692e4dd5e3be1bd9d06054cf29b95ec2e"),
    "pair/strong1/all":
        (0, "69efec84a4316ecd5996bc68eb0bf12692e4dd5e3be1bd9d06054cf29b95ec2e"),
    "pair/strong1/all-literal":
        (1, "4dd030a6271fd752eed0cdc093b465ece9e2d4a390830e351533070ec245e9e4"),
    "pair/weak1/claimed":
        (0, "34906d0f6d43b78d63ca352ec0cb72e18d2f51765b2b0bb090b78bef865b42a6"),
    "pair/weak1/all":
        (1, "ce52959dde7da318639e8a7f757f9ab0afc5c4af6197fc86d1dd70c61a69b243"),
    "pair/weak1/all-literal":
        (1, "a39f3dca6683265df0f5072f30cf2844aa8dee7a3f4d6cc07d4670e2e2117944"),
    "pair/weak2/claimed":
        (0, "19a03dbada4d6e1ca9617fde8a4304a8e094b39b705f60b3473ce9d9297ffa3d"),
    "pair/weak2/all":
        (1, "6a25ca4ffadd4e2255e5d36390b6c2fa1f230acaf0987bfb4269150f38b4880b"),
    "pair/weak2/all-literal":
        (1, "13e8815e32bfe37a95b81c6c10b58b24d24dcb8d1800bf369d45ecc4a4b49807"),
    "pair/weak3/claimed":
        (0, "02af4ac9fe51f3e2f4509af2c1258b67618f8fb725c6974f47f291c216e586ff"),
    "pair/weak3/all":
        (1, "c75500f61743ff0c3a670433701dc671647023f34a159d652258e4408433cb27"),
    "pair/weak3/all-literal":
        (1, "16c634d919dc8810eb6d14974e451520f40abccf6c3b27ef9ef6464f23252497"),
    "mismatch-square/strong2/claimed":
        (0, "e3f6d7fa341003040eaee0f4ed9079ce9d0edaf704f440e88070dd296503c5c8"),
    "mismatch-square/strong2/all":
        (0, "e3f6d7fa341003040eaee0f4ed9079ce9d0edaf704f440e88070dd296503c5c8"),
    "mismatch-square/strong2/all-literal":
        (1, "e7e6921ad110f02c5dec37e329ac84f762d77443b046efde8b8c6c4502fdcef8"),
    "mismatch-square/strong1/claimed":
        (0, "2236710e768b278e9a3eed001eb4b1f97004fab750ad399ccbd91bfe7458d388"),
    "mismatch-square/strong1/all":
        (0, "2236710e768b278e9a3eed001eb4b1f97004fab750ad399ccbd91bfe7458d388"),
    "mismatch-square/strong1/all-literal":
        (1, "2afcc7ef619d7cc50279449f558cffab5c8ff6bd8befb082d7ffb09c5f680c2d"),
    "mismatch-square/weak1/claimed":
        (0, "70d21e1c7639e903da8e4a9050e86c22cf9a128528a0478f151664d7146f0681"),
    "mismatch-square/weak1/all":
        (1, "f651e99fddf167c376cfba2c23457c0aaef06ce74f0dd4b9a3009113d3de4e3f"),
    "mismatch-square/weak1/all-literal":
        (1, "0083774e03eb489165be642fa2f88a4fadd5103abd49ed61d5bf9b75447ed499"),
    "mismatch-square/weak2/claimed":
        (0, "fb677307740155af39acedc624655c952b1fbef081ec33f1a3aa89f00918f2ad"),
    "mismatch-square/weak2/all":
        (1, "43ee47c4fdec43364a0b691e11c23e59cf1c210afb191232790fcf2df5ff4ccf"),
    "mismatch-square/weak2/all-literal":
        (1, "239e35c19c7057ce174abfa787ac5eb7014aa48deb7821f04111e64df252dd29"),
    "mismatch-square/weak3/claimed":
        (0, "1155afcadc93510762fd241cdee694c4cb080abdc756511fce294c5bd5cf66e3"),
    "mismatch-square/weak3/all":
        (1, "52703ae4af203fc833c0e985516206e0e4c8d2e50c61260517917bfcdec6ebda"),
    "mismatch-square/weak3/all-literal":
        (1, "3b4e6902675c517659695d1e314d8c57ce85c76948d61202c639880cd7cf586e"),
    "seeded-chain/strong2/claimed":
        (0, "e01bc7213274b334b737262a157b41799c634b3caeb59b63d1f2e973f209d5b5"),
    "seeded-chain/strong2/all":
        (0, "e01bc7213274b334b737262a157b41799c634b3caeb59b63d1f2e973f209d5b5"),
    "seeded-chain/strong2/all-literal":
        (1, "9678d9307de7df7a7d518e376a2399c157300e5a469ad0dce79d279fa7f60863"),
    "seeded-chain/strong1/claimed":
        (0, "b7dc064c313c723d77eabb40c41f73234779a5ed9f82c4cc09b9a2a38de13064"),
    "seeded-chain/strong1/all":
        (0, "b7dc064c313c723d77eabb40c41f73234779a5ed9f82c4cc09b9a2a38de13064"),
    "seeded-chain/strong1/all-literal":
        (1, "dd49663efc490d3e5c770118a5c0d3e7648e5b47f4c994896374a9b3fa732c1a"),
    "seeded-chain/weak1/claimed":
        (0, "56bfc709374551b5e311e05f7a1534c25fa7fed0245839537ca8e29c8bdb4e4b"),
    "seeded-chain/weak1/all":
        (1, "e74d63e4ec8d6087dc0516f42c7cf0bcc3a1451ae934398c51ae4927497398f8"),
    "seeded-chain/weak1/all-literal":
        (1, "81ae6769835148848fe823dfc7349223b87e72473841b2da560e28cfa03db61f"),
    "seeded-chain/weak2/claimed":
        (0, "892da33052998163d53f9e3656b54bd4943378a3a24bcdbba8a2ba150d0087b2"),
    "seeded-chain/weak2/all":
        (1, "00b18c1635626e062bb16cb997360ce6aa231a48fbf4427e45affc0e0b9c7f0b"),
    "seeded-chain/weak2/all-literal":
        (1, "3d385837675ab01e88faa7d41a88d4a981819dfa328253dd7948eb8453c7f03e"),
    "seeded-chain/weak3/claimed":
        (0, "25d70e59d666a134cc5d8364ee99eec7e8c27d1d4a02ad4f6f27581617d8828f"),
    "seeded-chain/weak3/all":
        (1, "095b3c7644252e7e3ae4ca2b3d328af2edfba4e1ba580357d7910560eb28e846"),
    "seeded-chain/weak3/all-literal":
        (1, "72148b251a85317e10fc832f2816e2332d8262ee8b7baf76835e97b68573880a"),
    "square3/weak1/claimed":
        (0, "dfe5d777f610ed619493806ad0e5ffabb495f63ccb133e1815bb21105d75b17d"),
    "square3/weak3/claimed":
        (0, "50940f7ceb7be59de5ab30660f6efc2c6ab1191d84bbad717c239ff5e0f4e809"),
    "square3/strong2/claimed":
        (0, "75d02a70e678c43e64f0dcecc1acfc0aa904c2a7c84c1b20a5526fc40307979c"),
}

def test_passing_verify_sha1s_only_initial_supertiles_and_target_members(
        capsys, tmp_path, sha1_calls):
    """A verify that passes prints no simulator fingerprint, so it
    computes none: SHA-1 runs only for the initial supertiles of the
    source, for those of the simulator that share their size with
    another (a system orders its initial supertiles by size and reads
    fingerprints only in a tie), and for the target members the checks
    list."""
    tas = dict(suite())["seeded-chain"]
    comp = compile_weak(tas, WEAK1)
    sim = explore(comp.simulator_tas(), 3 * comp.budget)
    seeds = [st for st, _ in comp.simulator_tas().initial_state]
    sizes = Counter(st.size for st in seeds)
    tied = {st.fingerprint for st in seeds if sizes[st.size] > 1}
    alone = {st.fingerprint for st in seeds if sizes[st.size] == 1}
    allowed = {st.fingerprint for st, _ in tas.initial_state} | tied
    allowed |= {s.fingerprint for s in explore(tas, 3).members()}
    assert alone and not alone & allowed
    path = tmp_path / "chain.json"
    path.write_text(serialize_tas(tas))
    compiled = tmp_path / "chain.weak1.json"
    assert run(capsys, "compile", "--tas", str(path), "--method", "weak1",
               "--out", str(compiled))[0] == 0
    del sha1_calls[:]
    code, out, err = run(capsys, "verify", "--tas", str(path), "--compiled",
                         str(compiled), "--size-bound", "3")
    assert code == 0 and out.endswith("result: PASS\n") and err == ""
    assert sha1_calls and set(sha1_calls) <= allowed
    # the simulator grew past its seeds, and none of its growth was hashed
    assert len(sim) > len(sim.tas.initial_state)


VERIFY_MODES = {
    "claimed": [],
    "all": ["--relation", "all"],
    "all-literal": ["--relation", "all", "--weak-def", "literal"],
}


def test_verify_outputs_are_frozen(capsys, tmp_path):
    runs = [(name, tas, ("strong2", "strong1", "weak1", "weak2", "weak3"),
             VERIFY_MODES) for name, tas in suite()]
    runs.append(("square3", square_tas(3, 2), ("weak1", "weak3", "strong2"),
                 {"claimed": []}))
    got = {}
    for name, tas, methods, modes in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_tas(tas))
        for method in methods:
            compiled = tmp_path / f"{name}.{method}.json"
            assert run(capsys, "compile", "--tas", str(path), "--method",
                       method, "--out", str(compiled))[0] == 0
            for mode, argv in modes.items():
                code, out, err = run(capsys, "verify", "--tas", str(path),
                                     "--compiled", str(compiled),
                                     "--size-bound", "3", *argv)
                assert err == "", (name, method, mode)
                digest = hashlib.sha256(out.encode()).hexdigest()
                got[f"{name}/{method}/{mode}"] = (code, digest)
    assert got == FROZEN_VERIFY


def paused_run(capsys, monkeypatch, *argv):
    """run(capsys, *argv) and the number of objects that the cyclic
    collector then finds unreachable.  The parser is built first, since
    argparse's parser is the one cyclic structure a main call makes;
    under the acyclicity lemma of cli._collector_paused the count is 0."""
    parser = cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", lambda: parser)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run(capsys, *argv)
        gc.collect()
        cyclic = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return result, cyclic


def cooperative_square_t3():
    """2x2 square at temperature 3: each row binds at 3, and the rows
    join only through both vertical seams at once (2 + 1)."""
    h3, k3 = Glue("h", 3), Glue("k", 3)
    v2, w1 = Glue("v", 2), Glue("w", 1)
    return TAS(TileSet([
        TileType("A", east=h3, north=v2),
        TileType("B", west=h3, north=w1),
        TileType("C", east=k3, south=v2),
        TileType("D", west=k3, south=w1),
    ]), 3)


def test_verify_and_compile_leave_no_cyclic_garbage(capsys, monkeypatch,
                                                    tmp_path):
    """Every compile and verify path runs with the collector paused, so
    each must free all it makes by reference counting alone: the suite
    and a temperature-3 system under all five methods, a FAIL, and a
    SchemaError from a tampered document."""
    systems = [*suite(), ("coop-t3", cooperative_square_t3())]
    cases = []
    for name, tas in systems:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_tas(tas))
        for method in ("strong2", "strong1", "weak1", "weak2", "weak3"):
            compiled = tmp_path / f"{name}.{method}.json"
            (code, _, err), cyclic = paused_run(
                capsys, monkeypatch, "compile", "--tas", str(path),
                "--method", method, "--out", str(compiled))
            assert (code, err, cyclic) == (0, "", 0), (name, method)
            (code, out, err), cyclic = paused_run(
                capsys, monkeypatch, "verify", "--tas", str(path),
                "--compiled", str(compiled), "--size-bound", "3")
            assert (code, err, cyclic) == (0, "", 0), (name, method)
            cases.append(out.splitlines()[-1])
    assert cases == ["result: PASS"] * 20
    pair, compiled = tmp_path / "pair.json", tmp_path / "pair.weak1.json"
    (code, out, _), cyclic = paused_run(
        capsys, monkeypatch, "verify", "--tas", str(pair), "--compiled",
        str(compiled), "--size-bound", "2", "--relation", "all")
    assert (code, cyclic) == (1, 0) and "result: FAIL" in out
    doc = json.loads(compiled.read_text())
    doc["scale"] += 1
    compiled.write_text(json.dumps(doc))
    (code, _, err), cyclic = paused_run(
        capsys, monkeypatch, "verify", "--tas", str(pair), "--compiled",
        str(compiled), "--size-bound", "2")
    assert (code, cyclic) == (2, 0)
    assert json.loads(err)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("enabled", [True, False])
def test_verify_and_compile_restore_the_collector(capsys, monkeypatch,
                                                  tmp_path, enabled):
    """compile and verify run with the collector off, and leave it as
    the caller had it after exit codes 0, 1 and 2."""
    parse_tas_ = cli.parse_tas
    paused = []

    def spy(text):
        paused.append(not gc.isenabled())
        return parse_tas_(text)

    monkeypatch.setattr(cli, "parse_tas", spy)
    tas = write_pair(tmp_path)
    compiled = tmp_path / "pair.weak1.json"
    runs = [
        ["compile", "--tas", str(tas), "--method", "weak1",
         "--out", str(compiled)],
        ["verify", "--tas", str(tas), "--compiled", str(compiled),
         "--size-bound", "2"],
        ["verify", "--tas", str(tas), "--compiled", str(compiled),
         "--size-bound", "2", "--relation", "all"],
        ["verify", "--tas", str(tas), "--compiled", str(tas),
         "--size-bound", "2"],
    ]
    was = gc.isenabled()
    codes, after = [], []
    try:
        for argv in runs:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            codes.append(run(capsys, *argv)[0])
            after.append(gc.isenabled())
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()
    assert codes == [0, 0, 1, 2]
    assert after == [enabled] * 4
    assert paused == [True] * 4
