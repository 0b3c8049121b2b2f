"""Spans and per-layer counters for the traced run.

The tracer wraps module attributes of `twoham` from the outside and
puts every original back in `uninstall`.  Calls at layer boundaries
become spans (name, start, end, parent span, job); the hot inner calls
are aggregated per (enclosing span, enclosing hot call, name) as a
count, total time and self time, because simulate-squares alone makes
hundreds of thousands of them.  Self time is a call's duration minus
the time its wrapped children cover.
"""

from __future__ import annotations

import functools
import sys
import time

MARK = "__perfbench_wrapper__"

# (module, attribute, span name).  A function imported into two modules
# is wrapped in each namespace it is looked up from.
SPAN_ATTRS = (
    ("cli", "parse_tas", "serialize.parse_tas"),
    ("serialize", "parse_tas", "serialize.parse_tas"),
    ("cli", "parse_compiled", "serialize.parse_compiled"),
    ("cli", "compiled_document", "serialize.compiled_document"),
    ("serialize", "compiled_document", "serialize.compiled_document"),
    ("cli", "serialize_tas", "serialize.serialize_tas"),
    ("serialize", "serialize_tas", "serialize.serialize_tas"),
    ("strong", "compile_strong", "strong.compile_strong"),
    ("weak", "compile_weak", "weak.compile_weak"),
    ("cli", "explore", "dynamics.explore"),
    ("dynamics", "explore", "dynamics.explore"),
    ("cli", "decode_producibles", "relations.decode_producibles"),
    ("relations", "decode_producibles", "relations.decode_producibles"),
    ("cli", "get_nth_tas", "enumeration.get_nth_tas"),
    ("enumeration", "get_nth_tas", "enumeration.get_nth_tas"),
)

HOT_ATTRS = (
    ("dynamics", "combine", "dynamics.combine"),
    ("relations", "combine", "relations.combine"),
    ("model", "combination_offsets", "model.combination_offsets"),
    ("model", "interface_strength", "model.interface_strength"),
    ("model", "is_tau_stable", "model.is_tau_stable"),
    ("mincut", "stability_cut_ok", "mincut.stability_cut_ok"),
    ("mincut", "stoer_wagner", "mincut.stoer_wagner"),
    ("relations", "decode_supertile", "relations.decode_supertile"),
)


class Tracer:
    """In-memory spans and hot-call aggregates; written out at the end."""

    def __init__(self, twoham):
        self.tw = twoham
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.spans = []        # [id, name, start, end, parent, job, info]
        self.hot = {}          # (span, parent hot, name) -> record
        self.frames = [[0.0, None]]   # [child time, hot name or None]
        self.open_spans = [None]
        self.job = None
        self.sim_tas = []
        self._saved = []

    # -- spans ---------------------------------------------------------
    def open(self, name):
        sid = len(self.spans)
        self.spans.append([sid, name, self.clock() - self.t0, None,
                           self.open_spans[-1], self.job, {}])
        self.open_spans.append(sid)
        self.frames.append([0.0, None])
        return sid

    def close(self, sid):
        end = self.clock() - self.t0
        span = self.spans[sid]
        span[3] = end
        self.open_spans.pop()
        frame = self.frames.pop()
        duration = end - span[2]
        span[6]["self_s"] = duration - frame[0]
        self.frames[-1][0] += duration
        return span[6]

    def begin_job(self, name):
        self.job = name
        return self.open("job")

    def end_job(self, sid):
        """Close the job span; calls made until the next job (the
        benchmark's own output checks) belong to no job."""
        self.close(sid)
        self.job = None

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                info = tracer.close(sid)
            tracer._annotate(name, info, args, result)
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _annotate(self, name, info, args, result):
        if name == "dynamics.explore":
            info["tag"] = ("simulator" if any(args[0] is t for t in self.sim_tas)
                           else "target")
            info["producibles"] = len(result)
            info["set_aside"] = result.overflow
            info["initial"] = len(args[0].initial_state)
        elif name in ("strong.compile_strong", "weak.compile_weak"):
            info["tiles"] = len(result.universal_tiles)
        elif name == "compiled.simulator_tas":
            self.sim_tas.append(result)
        elif name.startswith("relations.check."):
            info["checked"] = result.checked

    def _hot_wrapper(self, fn, name):
        tracer = self
        frames = self.frames
        clock = self.clock
        hot = self.hot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1][1]
            frame = [0.0, name]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                frames[-1][0] += duration
            key = (tracer.open_spans[-1], parent, name)
            rec = hot.get(key)
            if rec is None:
                rec = hot[key] = [0, 0.0, 0.0, 0, 0, 0]
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[0]
            if result:
                rec[3] += 1
            if type(result) is list:
                rec[4] += len(result)
            if type(args[0]) is dict and len(args[0]) > rec[5]:
                rec[5] = len(args[0])
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- install / restore ---------------------------------------------
    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        tw = self.tw
        try:
            for mod, attr, name in SPAN_ATTRS:
                owner = getattr(tw, mod)
                self._replace(owner, attr,
                              self._span_wrapper(getattr(owner, attr), name))
            cls = tw.compiled.CompiledSimulator
            self._replace(cls, "simulator_tas", self._span_wrapper(
                cls.simulator_tas, "compiled.simulator_tas"))
            for mod, attr, name in HOT_ATTRS:
                owner = getattr(tw, mod)
                self._replace(owner, attr,
                              self._hot_wrapper(getattr(owner, attr), name))
            checks = tw.relations.CHECKS
            for key in list(checks):
                self._saved.append((checks, key, checks[key]))
                checks[key] = self._span_wrapper(checks[key],
                                                 f"relations.check.{key}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------
    def dump(self):
        return {
            "span_columns": ["id", "name", "start", "end", "parent", "job",
                             "info"],
            "spans": self.spans,
            "hot": [{"span": span, "parent": parent, "name": name,
                     "count": r[0], "total_s": r[1], "self_s": r[2],
                     "truthy": r[3], "items": r[4], "max_vertices": r[5]}
                    for (span, parent, name), r in self.hot.items()],
        }


def installed_wrappers():
    """(owner, attribute) of every tracer wrapper left in a twoham module."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "twoham" and not modname.startswith("twoham."):
            continue
        for attr, value in list(vars(mod).items()):
            if getattr(value, MARK, False):
                found.append((modname, attr))
            elif isinstance(value, type):
                found += [(f"{modname}.{attr}", name)
                          for name, v in vars(value).items()
                          if getattr(v, MARK, False)]
            elif isinstance(value, dict):
                found += [(f"{modname}.{attr}", key)
                          for key, v in value.items()
                          if getattr(v, MARK, False)]
    return found


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, job=None):
    """Per-layer metrics over the jobs of the traced pass, or one job."""
    spans = [s for s in tracer.spans
             if s[5] is not None and (job is None or s[5] == job)]
    ids = {s[0] for s in spans}

    def total(*names, tag=None):
        return sum(s[3] - s[2] for s in spans
                   if s[1] in names and (tag is None or s[6].get("tag") == tag))

    def self_time(*names):
        return sum(s[6]["self_s"] for s in spans if s[1] in names)

    def info_sum(name, field):
        return sum(s[6][field] for s in spans if s[1] == name)

    recs = {}
    for (span, parent, name), r in tracer.hot.items():
        if span not in ids:
            continue
        agg = recs.setdefault((parent, name), [0, 0.0, 0.0, 0, 0, 0])
        for i in range(5):
            agg[i] += r[i]
        agg[5] = max(agg[5], r[5])

    def hot(name, field, parent=any):
        i = ("count", "total_s", "self_s", "truthy", "items", "max").index(field)
        vals = [r[i] for (p, n), r in recs.items()
                if n == name and (parent is any or p == parent)]
        if field == "max":
            return max(vals, default=0)
        return sum(vals)

    explore = "dynamics.explore"
    offsets = "model.combination_offsets"
    pairs = hot("dynamics.combine", "count")
    children = hot("dynamics.combine", "items")
    new = info_sum(explore, "producibles") - info_sum(explore, "initial")
    union_checks = hot("model.is_tau_stable", "count", parent=offsets)
    decodes = hot("relations.decode_supertile", "count")
    checked = sum(s[6].get("checked", 0) for s in spans
                  if s[1].startswith("relations.check."))
    return {
        "cli.self_s": self_time("job"),
        "serialize.parse_s": total("serialize.parse_tas",
                                   "serialize.parse_compiled"),
        "serialize.document_s": total("serialize.compiled_document",
                                      "serialize.serialize_tas"),
        "compile.s": total("strong.compile_strong", "weak.compile_weak"),
        "compile.calls": sum(1 for s in spans if s[1] in (
            "strong.compile_strong", "weak.compile_weak")),
        "compile.tiles": (info_sum("strong.compile_strong", "tiles")
                          + info_sum("weak.compile_weak", "tiles")),
        "model.seed_check_s": total("compiled.simulator_tas"),
        "dynamics.explore_target_s": total(explore, tag="target"),
        "dynamics.explore_sim_s": total(explore, tag="simulator"),
        "dynamics.pair_scan_self_s": self_time(explore),
        "dynamics.pairs_scanned": pairs,
        "dynamics.pairs_set_aside": info_sum(explore, "set_aside"),
        "dynamics.pair_yield": _ratio(hot("dynamics.combine", "truthy"), pairs),
        "dynamics.children": children,
        "dynamics.producibles": info_sum(explore, "producibles"),
        "dynamics.duplicate_ratio": _ratio(children - new, children),
        "model.combine_self_s": (hot("dynamics.combine", "self_s")
                                 + hot("relations.combine", "self_s")
                                 + hot(offsets, "self_s")),
        "model.seam_tests": hot("model.interface_strength", "count"),
        "model.union_checks": union_checks,
        "model.union_check_s": hot("model.is_tau_stable", "total_s",
                                   parent=offsets),
        "model.union_accept_ratio": _ratio(
            hot("model.is_tau_stable", "truthy", parent=offsets), union_checks),
        "mincut.cut_calls": hot("mincut.stability_cut_ok", "count"),
        "mincut.cut_s": hot("mincut.stability_cut_ok", "total_s"),
        "mincut.sw_calls": hot("mincut.stoer_wagner", "count"),
        "mincut.sw_s": hot("mincut.stoer_wagner", "total_s"),
        "mincut.sw_vertices_max": hot("mincut.stoer_wagner", "max"),
        "representation.decode_calls": decodes,
        "representation.decode_s": hot("relations.decode_supertile", "total_s"),
        "representation.junk_ratio": _ratio(
            decodes - hot("relations.decode_supertile", "truthy"), decodes),
        "relations.productions_s": total("relations.check.productions"),
        "relations.follows_s": total("relations.check.follows"),
        "relations.weak_s": total("relations.check.weak"),
        "relations.strong_s": total("relations.check.strong"),
        "relations.checked": checked,
        "relations.strong_combine_calls": hot("relations.combine", "count"),
        "enumeration.get_nth_s": total("enumeration.get_nth_tas"),
        "enumeration.calls": sum(1 for s in spans
                                 if s[1] == "enumeration.get_nth_tas"),
    }


UNITS = {"compile.calls": "count", "compile.tiles": "count",
         "dynamics.pairs_scanned": "count", "dynamics.pairs_set_aside": "count",
         "dynamics.pair_yield": "ratio", "dynamics.children": "count",
         "dynamics.producibles": "count", "dynamics.duplicate_ratio": "ratio",
         "model.seam_tests": "count", "model.union_checks": "count",
         "model.union_accept_ratio": "ratio", "mincut.cut_calls": "count",
         "mincut.sw_calls": "count", "mincut.sw_vertices_max": "count",
         "representation.decode_calls": "count",
         "representation.junk_ratio": "ratio", "relations.checked": "count",
         "relations.strong_combine_calls": "count",
         "enumeration.calls": "count"}


def unit(name):
    return UNITS.get(name, "s")
