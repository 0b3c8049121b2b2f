"""Tests of the benchmark itself: inputs, output checks, tracer hygiene.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tw():
    return run.load_twoham()


def _inputs(wl, workdir):
    jobs = [(job.name, [str(a).replace(str(workdir), "<dir>")
                        for a in getattr(job, "argv", [job.name])])
            for job in wl.jobs]
    return wl.files, jobs, wl.enum_offset


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_same_inputs(tw, tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = _inputs(workloads.build(name, 7, tw, a), a)
    again = _inputs(workloads.build(name, 7, tw, b), b)
    other = _inputs(workloads.build(name, 8, tw, c), c)
    assert first == again
    assert first != other
    for fname, text in first[0].items():
        assert (a / fname).read_text() == text


def _pair_jobs(tw, workdir, seed):
    wl = workloads.build("verify-suite-t2", seed, tw, workdir)
    return [job for job in wl.jobs if job.name.startswith("pair/")]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relabelling_keeps_counts_and_verdicts(tw, tmp_path, seed):
    jobs = _pair_jobs(tw, tmp_path, seed)
    assert len(jobs) == len(workloads.SUITE_METHODS) + 1
    for job in jobs:
        text, code = run.execute(tw, job)
        assert workloads.check_cli(job, text, code), (job.name, text)


def test_unrelabelled_pair_gives_the_frozen_answers(tw, tmp_path):
    tas = tmp_path / "pair.json"
    doc = workloads.dumps(workloads.pair_doc(2))
    tas.write_text(doc)
    for method in workloads.SUITE_METHODS:
        comp = tmp_path / f"{method}.json"
        comp.write_text(tw.serialize.serialize_compiled(
            tw.cli.METHODS[method](tw.serialize.parse_tas(doc))))
        target, sim = workloads.SUITE_COUNTS[("pair", method)]
        job = workloads.CliJob(method, [
            "verify", "--tas", str(tas), "--compiled", str(comp),
            "--size-bound", "6"], workloads.verify_answer(
                target, sim, workloads.claimed_passes(method), 0))
        text, code = run.execute(tw, job)
        assert workloads.check_cli(job, text, code), text


def test_checks_reject_wrong_answers(tw, tmp_path):
    job = _pair_jobs(tw, tmp_path, 0)[-1]
    text, code = run.execute(tw, job)
    assert code == 1 and workloads.check_cli(job, text, code)
    assert not workloads.check_cli(job, text, 0)
    assert not workloads.check_cli(job, text.replace("strong: FAIL",
                                                     "strong: PASS"), code)
    assert not workloads.check_cli(job, text.replace("simulator: 10",
                                                     "simulator: 11"), code)


def _small_workload(tw, workdir):
    jobs = _pair_jobs(tw, workdir, 3)
    return workloads.Workload({}, jobs)


def _originals(tw):
    out = {}
    for mod, attr, _ in tracing.SPAN_ATTRS + tracing.HOT_ATTRS:
        out[(mod, attr)] = getattr(getattr(tw, mod), attr)
    out[("compiled", "simulator_tas")] = tw.compiled.CompiledSimulator.simulator_tas
    out.update({("CHECKS", k): v for k, v in tw.relations.CHECKS.items()})
    return out


def test_untraced_run_installs_no_wrapper(tw, tmp_path):
    before = _originals(tw)
    result, attempted, failed = run.measure(
        tw, _small_workload(tw, tmp_path), 0, hostspeed.HostSpeed())
    assert attempted >= len(workloads.SUITE_METHODS) + 1 and not failed
    assert tracing.installed_wrappers() == []
    after = _originals(tw)
    assert all(after[k] is before[k] for k in before)
    assert set(result) >= {m["name"] for m in SPEC["end_to_end"]} - {
        "setup_s", "peak_rss_mb"}


def test_traced_run_restores_every_attribute(tw, tmp_path):
    before = _originals(tw)
    metrics, jobs, dump, attempted, failed = run.traced(
        tw, _small_workload(tw, tmp_path), "pair-only", 0)
    assert not failed
    assert tracing.installed_wrappers() == []
    after = _originals(tw)
    assert all(after[k] is before[k] for k in before)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["relations.checked"] > 0
    assert metrics["compile.calls"] == len(jobs)
    assert metrics["mincut.sw_calls"] == 0
    spans = json.loads(dump.read_text())["spans"]
    assert {s[1] for s in spans} >= {
        "job", "serialize.parse_tas", "serialize.parse_compiled",
        "compiled.simulator_tas", "dynamics.explore",
        "relations.decode_producibles", "relations.check.strong"}
    dump.unlink()


def test_traced_enumeration_counts_calls(tw):
    jobs = [workloads.EnumJob(n) for n in range(100, 110)]
    wl = workloads.Workload({}, jobs, enum_offset=0)
    metrics, _, dump, attempted, failed = run.traced(tw, wl, "enum-only", 0)
    dump.unlink()
    assert not failed and attempted == 40
    assert metrics["enumeration.calls"] == 10
    # parse_tas runs only in the output check, which is not a layer's work
    assert metrics["serialize.parse_s"] == 0
    assert metrics["dynamics.pairs_scanned"] == 0
    assert run.oracle_mismatches(tw, wl, 0) == []


def test_every_index_offset_sweeps_the_same_tiles():
    def chosen(offset):
        counts = [0] * 16
        for n in workloads.enum_indices(offset):
            for bit in range(16):
                counts[bit] += n >> bit & 1
        return counts
    assert all(chosen(offset) == chosen(0)
               for offset in range(workloads.ENUM_STRIDE))
    assert len(set(workloads.enum_indices(5))) == workloads.ENUM_COUNT


def test_empty_subset_documents_get_their_frozen_answer(tw):
    for index in (0, 1 << 15):
        job = workloads.EnumJob(index)
        text, code = run.execute(tw, job)
        assert code == 0 and run.check(tw, job, text, code)
        assert not workloads.check_enumerate(tw, text.replace(
            '"tiles": []', '"tiles": {}'))
