import hashlib
import json

import pytest

from twoham import Glue, INFINITE, Supertile, TAS, TileSet, TileType
from twoham import ladders
from twoham.cli import main
from twoham.serialize import parse_tas, serialize_tas

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
    doc["scale"] += 1
    compiled.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--tas", str(tas),
                       "--compiled", str(compiled), "--size-bound", "2")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "SchemaError"
    assert "fresh weak1 compilation" in payload["error"]["message"]


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
    path.write_text(serialize_tas(sys_.tas))
    firsts = [st.fingerprint[0] for st, _ in sys_.tas.initial_state]
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


def test_usage_errors_are_machine_readable(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--tas", "nope.json")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    code, _, err = run(capsys, "simulate", "--tas", str(tmp_path / "no.json"),
                       "--size-bound", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


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
