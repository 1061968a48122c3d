"""Outside-in tracing: spans and counters around calls into each layer.

The program is not edited.  `instrument` replaces functions at the
module namespaces that import them (and methods on their classes) with
wrappers that record a span, and `restore` puts the originals back, so an
untraced pass runs the unmodified code.

Spans carry name, start, end, parent and job id.  A span's self time is
its duration minus its children's.  Hot leaf calls (polynomial
evaluation, embeddings, field construction) are aggregated per job
instead of recorded one span each; their time counts as a child of the
enclosing span.  The self times of one job's spans plus its aggregated
leaves therefore add up to the job's root span.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

ROOT_SPAN = "cli.job"

# per-layer metric -> (source, unit); sources: ("self", span) is summed
# self time, ("calls", span) a call count, ("count", name) a counter set
# by a hook, ("max", name) a maximum set by a hook
LAYER_METRICS = {
    "cli.body_self_s": (("self", ROOT_SPAN), "s"),
    "cli.emit_s": (("self", "cli.emit"), "s"),
    "cli.report_bytes": (("count", "cli.report_bytes"), "bytes"),
    "grouplaw.parse_s": (("self", "grouplaw.parse"), "s"),
    "grouplaw.validate_s": (("self", "grouplaw.validate"), "s"),
    "grouplaw.eval_s": (("self", "grouplaw.eval"), "s"),
    "grouplaw.eval_calls": (("calls", "grouplaw.eval"), "count"),
    "fields.make_field_s": (("self", "fields.make_field"), "s"),
    "fields.fields_built": (("count", "fields.fields_built"), "count"),
    "fields.embed_s": (("self", "fields.embed"), "s"),
    "fields.embed_calls": (("calls", "fields.embed"), "count"),
    "fields.as_solve_s": (("self", "fields.as_solve"), "s"),
    "fields.as_solves": (("calls", "fields.as_solve"), "count"),
    "points.enumerate_s": (("self", "points.enumerate"), "s"),
    "points.classes_s": (("self", "points.classes"), "s"),
    "points.conjugation_s": (("self", "points.conjugation_pass"), "s"),
    "points.conjugation_passes": (("calls", "points.conjugation_pass"), "count"),
    "points.elements_conjugated": (("count", "points.elements_conjugated"), "count"),
    "points.find_conjugator_s": (("self", "points.find_conjugator"), "s"),
    "points.find_conjugator_calls": (("calls", "points.find_conjugator"), "count"),
    "points.sizes_calls": (("calls", "points.sizes"), "count"),
    "points.rep_point_calls": (("calls", "points.rep_point"), "count"),
    "points.centralizer_counts_s": (("self", "points.centralizer_counts"), "s"),
    "lang.solve_s": (("self", "lang.solve"), "s"),
    "lang.solves": (("calls", "lang.solve"), "count"),
    "lang.verify_s": (("self", "lang.verify"), "s"),
    "lang.max_extension_degree": (("max", "lang.max_extension_degree"), "degree"),
    "asai.norm_map_s": (("self", "asai.norm_map"), "s"),
    "asai.moved_classes": (("count", "asai.moved_classes"), "count"),
    "asai.witness_s": (("self", "asai.witness"), "s"),
    "asai.witness_calls": (("calls", "asai.witness"), "count"),
    "cache.load_s": (("self", "cache.load"), "s"),
    "cache.bytes_read": (("count", "cache.bytes_read"), "bytes"),
    "cache.hits": (("count", "cache.hits"), "count"),
    "cache.save_s": (("self", "cache.save"), "s"),
    "cache.bytes_written": (("count", "cache.bytes_written"), "bytes"),
    "cache.misses": (("count", "cache.misses"), "count"),
    "easiness.crosscheck_s": (("self", "easiness.crosscheck"), "s"),
    "easiness.levels": (("count", "easiness.levels"), "count"),
}


class Tracer:
    """Span and counter store for one traced pass, kept in memory."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.leaves: dict[tuple[int, str], list] = {}  # (job, name) -> [calls, s]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.job = -1
        self._stack: list[list] = []  # open spans: [id, start, child seconds]
        self._next_id = 0
        self._leaf_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self) -> list:
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append(
            {
                "name": name,
                "id": span_id,
                "parent": self._stack[-1][0] if self._stack else None,
                "job": self.job,
                "start": start - self.origin,
                "end": end - self.origin,
                "self": duration - child,
            }
        )

    def run_job(self, job: int, fn):
        """Call fn() under the root span of job `job`."""
        self.job = job
        self.calls[ROOT_SPAN] += 1
        frame = self._open()
        try:
            return fn()
        finally:
            self._close(ROOT_SPAN, frame)

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn so each call records a span (inside a leaf: counts only)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            pre = before(args) if before else None
            if self._leaf_depth or not self._stack:
                result = fn(*args, **kwargs)
            else:
                frame = self._open()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(name, frame)
            if after:
                after(self, result, args, pre)
            return result

        return wrapper

    def leaf(self, name: str, fn, before=None, after=None):
        """Wrap fn so its calls and time are summed per job, not spanned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            pre = before(args) if before else None
            if self._leaf_depth or not self._stack:
                result = fn(*args, **kwargs)
            else:
                self._leaf_depth += 1
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    self._leaf_depth -= 1
                    self._stack[-1][2] += elapsed
                    slot = self.leaves.setdefault((self.job, name), [0, 0.0])
                    slot[0] += 1
                    slot[1] += elapsed
            if after:
                after(self, result, args, pre)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- patching ----

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- results ----

    def self_time_gaps(self) -> dict[int, float]:
        """Per job: root duration minus (span self times + leaf time)."""
        total: dict[int, float] = {}
        root: dict[int, float] = {}
        for s in self.spans:
            total[s["job"]] = total.get(s["job"], 0.0) + s["self"]
            if s["name"] == ROOT_SPAN:
                root[s["job"]] = s["end"] - s["start"]
        for (job, _), (_, seconds) in self.leaves.items():
            total[job] = total.get(job, 0.0) + seconds
        return {job: root[job] - total.get(job, 0.0) for job in root}

    def metrics(self) -> dict[str, float]:
        self_s: Counter = Counter()
        for s in self.spans:
            self_s[s["name"]] += s["self"]
        for (_, name), (_, seconds) in self.leaves.items():
            self_s[name] += seconds
        out = {}
        for metric, ((kind, key), _) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = self_s[key]
            elif kind == "calls":
                out[metric] = self.calls[key]
            elif kind == "count":
                out[metric] = self.counts[key]
            else:
                out[metric] = self.maxima.get(key, 0)
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
            for (job, name), (calls, seconds) in sorted(self.leaves.items()):
                row = {"name": name, "job": job, "calls": calls, "total": seconds,
                       "aggregated": True}
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---- hooks: counters read from arguments and return values ----


def _file_size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _count_elements(tr: Tracer, result, args, pre):
    tr.counts["points.elements_conjugated"] += args[0].order


def _max_extension(tr: Tracer, result, args, pre):
    degree = result.x.field.degree
    tr.maxima["lang.max_extension_degree"] = max(
        tr.maxima.get("lang.max_extension_degree", 0), degree
    )


def _count_moved(tr: Tracer, result, args, pre):
    tr.counts["asai.moved_classes"] += sum(
        1 for c, image in enumerate(result.perm) if image != c
    )


def _fields_before(args):
    return args[0].stats["fields_built"]


def _count_fields(tr: Tracer, result, args, pre):
    tr.counts["fields.fields_built"] += args[0].stats["fields_built"] - pre


def _cache_file_size(args):
    return _file_size(args[0])


def _count_load(tr: Tracer, result, args, pre):
    tr.counts["cache.bytes_read"] += pre
    tr.counts["cache.hits" if result is not None else "cache.misses"] += 1


def _count_save(tr: Tracer, result, args, pre):
    tr.counts["cache.bytes_written"] += _file_size(result)


def _count_levels(tr: Tracer, result, args, pre):
    tr.counts["easiness.levels"] += len(result.levels)


def _count_report(tr: Tracer, result, args, pre):
    tr.counts["cli.report_bytes"] += _file_size(args[1])


def instrument(tracer: Tracer, mods: dict, script=None) -> None:
    """Wrap every layer boundary; mods maps short names to asaitwist modules.

    Functions are wrapped where they are imported, so a call from cli
    into norm_map is seen at `asaitwist.cli.norm_map`.  Methods are
    wrapped on their classes.  `script` is the loaded growth script.
    """
    cli, easiness, asai, lang, cache, points, grouplaw, fields = (
        mods[k]
        for k in ("cli", "easiness", "asai", "lang", "cache", "points", "grouplaw", "fields")
    )
    users = [cli] + ([script] if script is not None else [])

    def wrap(owners, attr, name, kind="span", before=None, after=None):
        for owner in owners:
            original = owner.__dict__[attr]
            if kind == "span":
                tracer.patch(owner, attr, tracer.span(name, original, before, after))
            else:
                tracer.patch(owner, attr, tracer.leaf(name, original, before, after))

    wrap([cli], "_emit", "cli.emit", after=_count_report)
    wrap([cli], "parse_group_dsl", "grouplaw.parse")
    wrap(users, "parse_group_name", "grouplaw.parse")
    wrap([cli], "validate_law", "grouplaw.validate")
    for attr in ("eval_mul", "eval_inv"):
        wrap([points, lang, grouplaw], attr, "grouplaw.eval", kind="leaf")
    wrap(users + [easiness, cache], "enumerate_group", "points.enumerate")
    wrap(users + [easiness], "conjugacy_classes", "points.classes")
    view = points.FiniteGroupView
    wrap([view], "conjugates_combined", "points.conjugation_pass", after=_count_elements)
    wrap([view], "find_conjugator", "points.find_conjugator")
    if script is not None:
        wrap([script], "centralizer_counts", "points.centralizer_counts")
    table = points.ClassTable
    tracer.patch(table, "sizes", property(tracer.counted("points.sizes", table.sizes.fget)))
    tracer.patch(table, "rep_point", tracer.counted("points.rep_point", table.rep_point))
    wrap([asai], "lang_solve_triangular", "lang.solve", after=_max_extension)
    wrap([lang], "verify_witness", "lang.verify")
    tower = fields.FieldTower
    wrap([tower], "artin_schreier_solve", "fields.as_solve")
    wrap([tower], "embed", "fields.embed", kind="leaf")
    wrap([tower], "vembed", "fields.embed", kind="leaf")
    wrap([tower], "make_field", "fields.make_field", kind="leaf",
         before=_fields_before, after=_count_fields)
    wrap([cli, easiness], "norm_map", "asai.norm_map", after=_count_moved)
    wrap([cli, easiness], "centralizer_witness", "asai.witness")
    wrap([cli], "load_class_table", "cache.load", before=_cache_file_size, after=_count_load)
    wrap([cli], "save_class_table", "cache.save", after=_count_save)
    wrap([cli], "easiness_crosscheck", "easiness.crosscheck", after=_count_levels)
