import hashlib
import json

import pytest

from twoham import INFINITE, TAS, Glue, Supertile, TileSet, TileType
from twoham import ladders, serialize, weak
from twoham.cli import METHODS
from twoham.compiled import CompiledSimulator
from twoham.errors import DanglingTileId, NegativeStrength, SchemaError
from twoham.serialize import (
    compiled_chunks,
    compiled_document,
    parse_compiled,
    parse_tas,
    serialize_compiled,
    serialize_tas,
)
from twoham.strong import rescale_temperature

from test_acceptance import suite
from test_cli import cooperative_square_t3, square_tas


def one_tile_tas():
    ts = TileSet([TileType("a", east=Glue("g", 2), west=Glue("g", 2))])
    return TAS(ts, 2)


def duple_tas():
    ts = TileSet([
        TileType("a", east=Glue("g", 2)),
        TileType("b", west=Glue("g", 2)),
    ])
    duple = Supertile({(0, 0): "a", (1, 0): "b"})
    return TAS(ts, 2, [(duple, 3), (Supertile({(0, 0): "a"}), INFINITE)])


def test_minimal_document_is_byte_stable():
    tas = one_tile_tas()
    first = serialize_tas(tas)
    assert serialize_tas(tas) == first
    assert serialize_tas(parse_tas(first)) == first
    doc = json.loads(first)
    assert doc["temperature"] == 2
    assert "initial_state" not in doc
    assert doc["tiles"][0]["north"] == {"label": "", "strength": 0}


def test_ladder_system_round_trips():
    tas = ladders.build_ladder_system(2)
    text = serialize_tas(tas)
    back = parse_tas(text)
    assert back.tau == tas.tau
    assert [t.id for t in back.tile_set] == [t.id for t in tas.tile_set]
    assert back.tile_set.tiles == tas.tile_set.tiles
    assert back.initial_state == tas.initial_state
    assert serialize_tas(back) == text


def test_explicit_state_round_trips_counts():
    tas = duple_tas()
    doc = json.loads(serialize_tas(tas))
    counts = sorted(entry["count"] for entry in doc["initial_state"]
                    if isinstance(entry["count"], int))
    assert counts == [3]
    assert "inf" in {entry["count"] for entry in doc["initial_state"]}
    back = parse_tas(serialize_tas(tas))
    assert back.initial_state == tas.initial_state
    assert serialize_tas(back) == serialize_tas(tas)


def _pair_singles(a_count=INFINITE):
    return [(Supertile({(0, 0): "a"}), a_count),
            (Supertile({(0, 0): "b"}), INFINITE)]


@pytest.mark.parametrize("state, printed", [
    (None, False),
    (_pair_singles(), False),
    (_pair_singles()[1:], True),
    (_pair_singles(a_count=4), True),
    (_pair_singles() + [(Supertile({(0, 0): "a", (1, 0): "b"}), INFINITE)],
     True),
    (_pair_singles()[:1] + [(Supertile({(0, 0): "a", (1, 0): "b"}), INFINITE)],
     True),
], ids=["implicit-default", "explicit-default", "singleton-missing",
        "finite-count", "extra-duple", "duple-for-singleton"])
def test_initial_state_printed_only_when_not_default(state, printed):
    ts = TileSet([
        TileType("a", east=Glue("g", 2)),
        TileType("b", west=Glue("g", 2)),
    ])
    tas = TAS(ts, 2, state)
    doc = json.loads(serialize_tas(tas))
    assert ("initial_state" in doc) == printed
    assert parse_tas(serialize_tas(tas)).initial_state == tas.initial_state


def test_placement_coordinates_are_normalized_on_parse():
    text = serialize_tas(duple_tas())
    doc = json.loads(text)
    for cell in doc["initial_state"][0]["placement"]:
        cell["x"] += 7
        cell["y"] -= 2
    shifted = parse_tas(json.dumps(doc))
    assert serialize_tas(shifted) == text


def test_negative_strength_is_its_own_error():
    doc = json.loads(serialize_tas(one_tile_tas()))
    doc["tiles"][0]["east"]["strength"] = -1
    with pytest.raises(NegativeStrength, match=r"tiles\[0\]\.east"):
        parse_tas(json.dumps(doc))


def test_malformed_json_reports_position():
    with pytest.raises(SchemaError, match="line 1 column"):
        parse_tas("{nope}")


@pytest.mark.parametrize("mangle,message", [
    (lambda d: d.pop("temperature"), "missing field 'temperature'"),
    (lambda d: d.__setitem__("extra", 1), "unknown field 'extra'"),
    (lambda d: d.__setitem__("temperature", "hot"), "expected an integer"),
    (lambda d: d.__setitem__("temperature", 0), "temperature must be"),
    (lambda d: d.__setitem__("tiles", []), "non-empty list"),
    (lambda d: d["tiles"][0].pop("id"), "missing field 'id'"),
    (lambda d: d["tiles"][0].__setitem__("up", {}), "unknown field 'up'"),
    (lambda d: d["tiles"][0]["east"].__setitem__("strength", "2"),
     r"tiles\[0\]\.east\.strength"),
])
def test_document_shape_errors_name_the_field(mangle, message):
    doc = json.loads(serialize_tas(one_tile_tas()))
    mangle(doc)
    with pytest.raises(SchemaError, match=message):
        parse_tas(json.dumps(doc))


def state_doc():
    doc = json.loads(serialize_tas(one_tile_tas()))
    doc["initial_state"] = [
        {"count": 2, "placement": [{"x": 0, "y": 0, "tile": "a"}]}]
    return doc


def test_placement_errors_carry_paths():
    doc = state_doc()
    doc["initial_state"][0]["placement"][0]["tile"] = "ghost"
    with pytest.raises(DanglingTileId, match=r"placement\[0\]\.tile.*'ghost'"):
        parse_tas(json.dumps(doc))

    doc = state_doc()
    doc["initial_state"][0]["placement"].append({"x": 0, "y": 0, "tile": "a"})
    with pytest.raises(SchemaError, match="duplicate cell"):
        parse_tas(json.dumps(doc))

    doc = state_doc()
    doc["initial_state"][0]["count"] = 0
    with pytest.raises(SchemaError, match="positive count"):
        parse_tas(json.dumps(doc))

    doc = state_doc()
    doc["initial_state"][0]["placement"] = [
        {"x": 0, "y": 0, "tile": "a"}, {"x": 5, "y": 5, "tile": "a"}]
    with pytest.raises(SchemaError, match="stable"):
        parse_tas(json.dumps(doc))


@pytest.mark.parametrize("far", [(10 ** 12, 0), (0, -10 ** 12), (2, 0)])
def test_sparse_placement_is_refused_before_a_supertile_is_built(far, monkeypatch):
    """Two cells a trillion apart would make a Supertile build rows that
    wide; a placement wider or taller than its cell count cannot be
    connected, so the parser refuses it as unstable first."""
    def no_supertile(cells):
        raise AssertionError("a Supertile was built")

    monkeypatch.setattr(serialize, "Supertile", no_supertile)
    doc = state_doc()
    x, y = far
    doc["initial_state"][0]["placement"].append({"x": x, "y": y, "tile": "a"})
    with pytest.raises(SchemaError,
                       match=r"^initial_state\[0\]\.placement: .*not stable"):
        parse_tas(json.dumps(doc))


def test_duplicate_tile_ids_rejected():
    doc = json.loads(serialize_tas(one_tile_tas()))
    doc["tiles"].append(dict(doc["tiles"][0]))
    with pytest.raises(SchemaError, match="duplicate tile id"):
        parse_tas(json.dumps(doc))


def test_compiled_document_round_trips():
    comp = weak.compile_weak(duple_tas(), weak.WEAK1)
    text = serialize_compiled(comp)
    assert serialize_compiled(comp) == text
    doc = parse_compiled(text)
    assert doc == compiled_document(comp)
    assert doc["method"] == weak.WEAK1
    assert doc["scale"] == comp.m
    assert dict(doc["decoder"]["anchors"]) == comp.anchors


def test_compiled_document_rejects_other_formats():
    comp = weak.compile_weak(duple_tas(), weak.WEAK1)
    doc = json.loads(serialize_compiled(comp))
    doc["format"] = "something-else"
    with pytest.raises(SchemaError, match="not a compiled-simulator"):
        parse_compiled(json.dumps(doc))
    with pytest.raises(SchemaError, match="missing field 'method'"):
        parse_compiled(json.dumps({"format": "twoham-compiled"}))


# SHA-256 of serialize_compiled for the acceptance suite under every
# method at temperatures 2 and 4.  verify recompiles and compares against
# a document written by the same code, so only pinned digests notice a
# change to the compiled bytes.
FROZEN_COMPILED = {
    ("pair", 2, "strong2"):
        "97071cf745b69013f11458ff7f028e552e1fce546bcb98ae3f4ed547d83b345e",
    ("pair", 2, "strong1"):
        "4eda5a769c6213ea2dfe00a78068370ccdceb5ed2596a4581aba1ecb720669ef",
    ("pair", 2, "weak1"):
        "5c9fba0343454a081fe2967e50ef8777cb187f7bf0338dde0d1d42c667cd71be",
    ("pair", 2, "weak2"):
        "bd7da26e6aadc1834ec58a55b45f4fc4c766eb5069b39ff498efeb39ba976bf3",
    ("pair", 2, "weak3"):
        "c06423073a89082defb2efd1b45dc61acd103d240ba0cf9ec5c4f79c3c3d9569",
    ("mismatch-square", 2, "strong2"):
        "0e35903e89db03545c6a100e6fd13e7acdd835e4097f0a8e583b6c33806d218c",
    ("mismatch-square", 2, "strong1"):
        "71b4575708dfa95f017c1c7632308ab4dee55514dc916d0bb955608b7fbf5222",
    ("mismatch-square", 2, "weak1"):
        "355ba393f0702b4a9b90a3093d3fb05abc9da57dc43862041d3e4c9458a8eb01",
    ("mismatch-square", 2, "weak2"):
        "f56635f0f3bd20527249aa9e63fc6c6e5005ea70f3fd2232961d8768ac72bb25",
    ("mismatch-square", 2, "weak3"):
        "a2462aa764f0efa1e493def183112b10e7f4b069a3dad4aa1411adbf8e16dae4",
    ("seeded-chain", 2, "strong2"):
        "4e027adbd34540842e605d1e7ea3ed8fb30eec67179ab42dddc4e431da2d5a2e",
    ("seeded-chain", 2, "strong1"):
        "f6fcb0f8aff848499413b6252d493dd6e9c655e62da263338bfff16c3b743af0",
    ("seeded-chain", 2, "weak1"):
        "83681a3b1d90427e6da7f957a725f512f4d490dc3e619b094b2b8821566289f4",
    ("seeded-chain", 2, "weak2"):
        "ad4c90523e167cbdf198d247464c2493480a913db746b0bf4e56bbb777bc3194",
    ("seeded-chain", 2, "weak3"):
        "8d01779d6a37cd88bb186fcfd2d3eed11488c3cbbbbd3485720ebbb57fb57add",
    ("pair", 4, "strong2"):
        "e2dc993679ba68ff002839a2ca5ba79e85471f3008d49233b3067d7c6532a5cd",
    ("pair", 4, "strong1"):
        "4270740045fa49cf70644125915821beb021adfe0cae2175e2b92b268cbc5881",
    ("pair", 4, "weak1"):
        "e8ae22c4e31e09456a85345b259e2554f1fc3f89bf6ea2d0d332967deb27480b",
    ("pair", 4, "weak2"):
        "707f9d8d851e197b97376b7a077526bd81cc841843b1f97e4aba48adb175f635",
    ("pair", 4, "weak3"):
        "e05e041f9c9371a776199ab2bc6e7d365a4dde0b10133227179c6cfc1db12302",
    ("mismatch-square", 4, "strong2"):
        "d327d317367e3db53fd2e6b82e1812352d4a4b4156bd5c23b241e6dc2e10e53c",
    ("mismatch-square", 4, "strong1"):
        "31d62ca638dc42048f3b3e8e9321ff54620ff6045f4420f8264bc152b7459849",
    ("mismatch-square", 4, "weak1"):
        "9cf75b533d30986d6c6aca5a6e4640df372a9693652609dbfd1d952192b7f71a",
    ("mismatch-square", 4, "weak2"):
        "deefdf5145d7efe3c21103822947b997669e536d7f94696dc088f70f263a3f9c",
    ("mismatch-square", 4, "weak3"):
        "5b6e0a231aff674b46730756f246534d29b6a608147d966c7e0229c80d09047b",
    ("seeded-chain", 4, "strong2"):
        "8a8a637054bc39ab1d643269af13de484f2f9c519d9929df2821ff3665b79dbf",
    ("seeded-chain", 4, "strong1"):
        "a62351df50abb8e7af0b51955b35f5abac5e42d91660bc19b4962adeab989732",
    ("seeded-chain", 4, "weak1"):
        "a8cae0ee6ee8b0c7d80c3570434e8b43de530e5b6b3e8f48d9fabd5a27cc4a59",
    ("seeded-chain", 4, "weak2"):
        "75e6e488e36d7d5c9a550a9b12fb6c0bd204bb31e031888a8fd7332128b42e29",
    ("seeded-chain", 4, "weak3"):
        "d995ba39887d44f380727ee253820bb1b19d99439e0cfe98d2e780f018519983",
}


def test_compiled_documents_are_frozen():
    got = {}
    for tau in (2, 4):
        for name, tas in suite():
            if tau != tas.tau:
                tas = rescale_temperature(tas, tau // tas.tau)
            for method in METHODS:
                doc = serialize_compiled(METHODS[method](tas))
                got[name, tau, method] = hashlib.sha256(doc.encode()).hexdigest()
    assert got == FROZEN_COMPILED


def canonical(comp):
    return json.dumps(compiled_document(comp), sort_keys=True, indent=2) + "\n"


def compilations():
    """(name, tau, method, system): the suite under every method at
    temperatures 2 and 4, a temperature-3 cooperative square, and a
    uniquely glued square at each of the three.  The 3 x 3 square's
    strong documents run to 50 MB each, so the strong methods get 2 x 2."""
    for tau in (2, 3, 4):
        if tau == 3:
            systems = [("coop-square", cooperative_square_t3())]
        else:
            systems = [(name, tas if tau == tas.tau
                        else rescale_temperature(tas, tau // tas.tau))
                       for name, tas in suite()]
        for name, tas in systems:
            for method in METHODS:
                yield name, tau, method, tas
        for method in METHODS:
            n = 2 if method.startswith("strong") else 3
            yield f"square{n}", tau, method, square_tas(n, tau)


COMPILATIONS = list(compilations())

@pytest.mark.parametrize(
    "tas, method", [(tas, method) for _, _, method, tas in COMPILATIONS],
    ids=[f"{name}-t{tau}-{method}" for name, tau, method, _ in COMPILATIONS])
def test_compiled_text_is_json_canonical_form(tas, method):
    """serialize_compiled and the joined chunks give
    _dumps(compiled_document(comp)) byte for byte, and there is one
    non-empty chunk per anchor, cell and tile, plus a few joints."""
    comp = METHODS[method](tas)
    text = canonical(comp)
    assert serialize_compiled(comp) == text
    chunks = list(compiled_chunks(comp))
    assert "".join(chunks) == text and all(chunks)
    items = (len(comp.anchors) + len(comp.universal_tiles)
             + sum(st.size for st, _ in comp.input_supertiles))
    assert items < len(chunks) < items + 10 + 2 * len(comp.input_supertiles)


ODD = 'q"b\\s\x01c\u00e9\u2603\U0001F600'


@pytest.mark.parametrize("method", METHODS)
def test_compiled_text_escapes_as_json_does(method):
    tas = TAS(TileSet((
        TileType("A" + ODD, east=Glue("g" + ODD, 2)),
        TileType("B" + ODD, west=Glue("g" + ODD, 2)),
    )), 2)
    comp = METHODS[method](tas)
    text = serialize_compiled(comp)
    assert text == canonical(comp)
    assert "\\u00e9\\u2603\\ud83d\\ude00" in text


def test_empty_lists_render_as_json_does():
    comp = weak.compile_weak(duple_tas(), weak.WEAK1)
    empty = CompiledSimulator(comp.variant, comp.tau, [], (), comp.m, {},
                              comp.rep, comp.meta, comp.claims, comp.budget)
    text = serialize_compiled(empty)
    assert text == canonical(empty)
    assert "".join(compiled_chunks(empty)) == text
    assert '"anchors": []' in text
    assert '"input_supertiles": []' in text
    assert '"universal_tiles": []' in text
