"""Benchmark of the twoham simulate -> compile -> verify chain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `twoham` is imported from its `src/`.
NAME is one of the workloads in workloads.NAMES, or `all` to run each of
them in a fresh process of its own.  One client runs one job after
another in this single process (a closed loop, no threads).  A verify or
simulate job is one `twoham.cli.main([...])` call with its output
captured; an enumerate job calls the library directly.

With --trace 0 the run repeats the workload's job list until --seconds
have passed (at least once), states every job run in reference seconds
(see hostspeed) and reports the end-to-end metrics from each job's
median run.  With --trace 1 it runs the job list twice untraced, once
traced and once more untraced, reports the per-layer metrics and writes
the span dump to perfbench/out/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("cli", "compiled", "dynamics", "enumeration", "errors", "mincut",
           "model", "relations", "representation", "serialize", "strong",
           "weak")
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
JOB_BREAKDOWN_MAX = 64
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_geomean_s", "s"),
              ("peak_rss_mb", "MB"))

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    pass


def load_twoham():
    """Import twoham afresh from the checkout's src/ and return its modules."""
    for name in [n for n in sys.modules
                 if n == "twoham" or n.startswith("twoham.")]:
        del sys.modules[name]
    pkg = importlib.import_module("twoham")
    if Path(pkg.__file__).resolve().parent != SRC / "twoham":
        raise SetupError(f"imported twoham from {pkg.__file__}, not {SRC}")
    mods = {m: importlib.import_module(f"twoham.{m}") for m in MODULES}
    return SimpleNamespace(**mods)


def load_oracles():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracles", ROOT / "tests" / "oracles.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def setup(name, seed, workdir, host):
    """Import and generate inputs repeatedly; return the median time in
    reference seconds."""
    times = []
    spent = 0.0
    while len(times) < SETUP_MIN_REPEATS or spent < SETUP_MIN_S:
        before = host.sample()
        start = time.perf_counter()
        tw = load_twoham()
        wl = workloads.build(name, seed, tw, workdir)
        elapsed = time.perf_counter() - start
        spent += elapsed
        times.append(hostspeed.scaled(elapsed, before, host.sample()))
    return tw, wl, statistics.median(times)


def execute(tw, job):
    """Run one job; returns (output text, exit code)."""
    if job.kind == "enumerate":
        canon = tw.enumeration.get_nth_tas(job.index, workloads.ENUM_TAU)
        tas = tw.model.TAS(canon.tile_set, workloads.ENUM_TAU)
        return tw.serialize.serialize_tas(tas), 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tw.cli.main(list(job.argv))
    return out.getvalue(), code


def check(tw, job, text, code):
    if job.kind == "enumerate":
        return workloads.check_enumerate(tw, text)
    return workloads.check_cli(job, text, code)


def run_job(tw, job, expect=None, tracer=None):
    """Run one job: (seconds, (text, code) if its output is right else None).

    Without `expect` the output is checked against the job's answer;
    with it, the output must equal `expect`, an output already checked.
    """
    clock = time.perf_counter
    sid = tracer.begin_job(job.name) if tracer else None
    start = clock()
    try:
        text, code = execute(tw, job)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        text, code = None, None
    elapsed = clock() - start
    if tracer:
        tracer.end_job(sid)
    if text is None:
        return elapsed, None
    if expect is not None:
        return elapsed, (text, code) if (text, code) == expect else None
    try:
        return elapsed, (text, code) if check(tw, job, text, code) else None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return elapsed, None


def run_pass(tw, wl, tracer=None):
    """All jobs once: (wall seconds, per-job seconds, failed job names)."""
    times = []
    failed = []
    start = time.perf_counter()
    for job in wl.jobs:
        elapsed, result = run_job(tw, job, tracer=tracer)
        times.append(elapsed)
        if result is None:
            failed.append(job.name)
    return time.perf_counter() - start, times, failed


def oracle_mismatches(tw, wl, seed):
    """Sampled enumeration indices that disagree with the hand trace."""
    oracles = load_oracles()
    bad = []
    for n in workloads.oracle_sample(wl, seed):
        tiles = tw.enumeration.get_nth_tas(n, workloads.ENUM_TAU).tile_set
        sides = [tuple((t.glue(d).label, t.glue(d).strength)
                       for d in tw.model.DIRECTIONS) for t in tiles]
        if sides != oracles.oracle_get_nth_tas(n, workloads.ENUM_TAU):
            bad.append(n)
    return bad


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(tw, wl, seconds, host):
    """Repeat the job list for `seconds`; time each job by its median run.

    Each run of a job is stated in reference seconds by the host speed
    read just before and just after it (see hostspeed).  wall_s is the
    sum of the job times, job_geomean_s their geometric mean.  A job's
    first output is checked; every later run of it must print the same
    text and exit code.
    """
    runs = [[] for _ in wl.jobs]
    host_runs = [[] for _ in wl.jobs]
    first = [None] * len(wl.jobs)
    failed = []
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for i, job in enumerate(wl.jobs):
            if passes and time.perf_counter() - start >= seconds:
                break
            before = host.reading()
            elapsed, result = run_job(tw, job, first[i])
            runs[i].append(hostspeed.scaled(elapsed, before, host.reading()))
            host_runs[i].append(elapsed)
            if result is None:
                failed.append(job.name)
            elif first[i] is None:
                first[i] = result
        passes += 1
    times = [statistics.median(got) for got in runs]
    return {"wall_s": math.fsum(times), "job_geomean_s": geomean(times),
            "host_wall_s": math.fsum(map(statistics.median, host_runs)),
            "passes": passes, "readings": host.readings
            }, sum(map(len, runs)), failed


def traced(tw, wl, name, seed):
    # The traced pass is compared with the mean of the untraced passes
    # just before and just after it, so that a host that speeds up or
    # slows down steadily does not read as overhead; the first pass
    # warms up.
    passes = [run_pass(tw, wl), run_pass(tw, wl)]
    tracer = tracing.Tracer(tw)
    tracer.install()
    try:
        traced_wall, traced_times, traced_failed = run_pass(tw, wl, tracer)
    finally:
        tracer.uninstall()
    passes.append(run_pass(tw, wl))
    untraced_wall = (passes[1][0] + passes[2][0]) / 2
    times = [t for _, got, _ in passes for t in got]
    failed = [f for _, _, bad in passes for f in bad]
    leftover = tracing.installed_wrappers()
    if leftover:
        raise SetupError(f"tracer wrappers left installed: {leftover}")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    jobs = {}
    if len(wl.jobs) <= JOB_BREAKDOWN_MAX:
        jobs = {job.name: tracing.layer_metrics(tracer, job.name)
                for job in wl.jobs}
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{name}-seed{seed}.json"
    dump.write_text(json.dumps({
        "workload": name, "seed": seed, "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall, "metrics": metrics, "jobs": jobs,
        **tracer.dump()}) + "\n")
    return (metrics, jobs, dump, len(times) + len(traced_times),
            failed + traced_failed)


def run_one(name, seed, seconds, trace):
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        host = hostspeed.HostSpeed()
        tw, wl, setup_s = setup(name, seed, workdir, host)
        if tracing.installed_wrappers():
            raise SetupError("tracer wrappers installed before the run")
        if trace:
            metrics, jobs, dump, attempted, failed = traced(tw, wl, name, seed)
            units = {k: tracing.unit(k) for k in metrics}
        else:
            measured, attempted, failed = measure(tw, wl, seconds, host)
            metrics = {"setup_s": setup_s, "wall_s": measured["wall_s"],
                       "job_geomean_s": measured["job_geomean_s"],
                       "peak_rss_mb": peak_rss_mb()}
            units = dict(END_TO_END)
            if tracing.installed_wrappers():
                raise SetupError("tracer wrappers installed by the untraced run")
        bad_oracle = (oracle_mismatches(tw, wl, seed)
                      if wl.enum_offset is not None else [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    extra = ("" if wl.enum_offset is None
             else f", index offset {wl.enum_offset} of {workloads.ENUM_STRIDE}")
    print(f"workload {name} seed {seed}: {len(wl.jobs)} jobs{extra}"
          + ("" if trace else f", {measured['passes']} passes"))
    for key, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:32s} {shown} {units[key]}")
    if not trace:
        readings = sorted(measured["readings"])
        print(f"  {'wall_s in host seconds':32s} {measured['host_wall_s']:.6g} s"
              f"  (calibration loop {readings[0] * 1e3:.3g} ms fastest, "
              f"{statistics.median(readings) * 1e3:.3g} ms median, "
              f"{hostspeed.REFERENCE_S * 1e3:.3g} ms reference)")
    print(f"  {'error_rate':32s} {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} of {attempted} jobs failed)")
    if wl.enum_offset is not None:
        print(f"  oracle sample: {len(bad_oracle)} of "
              f"{workloads.ORACLE_SAMPLE} indices disagree")
    if trace:
        for job, jm in jobs.items():
            print(f"  job {job}: pairs_scanned {jm['dynamics.pairs_scanned']}"
                  f", pairs_set_aside {jm['dynamics.pairs_set_aside']}"
                  f", sw_calls {jm['mincut.sw_calls']}")
        print(f"  span dump: {dump.relative_to(ROOT)}")
    for job in sorted(set(failed))[:10]:
        print(f"  FAILED {job}")
    return {"correct": not failed and not bad_oracle,
            "attempted": attempted, "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args):
    """Each workload in a fresh process; prints every workload's lines."""
    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "twoham" / "__init__.py").is_file():
        print(f"error: no twoham sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
