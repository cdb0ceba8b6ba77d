"""Per-layer tracing of thematica from outside the program.

:meth:`Tracer.install` replaces the public functions of each layer (the
modules) with wrappers, in every ``thematica`` module namespace that holds
them, because names such as ``label_key`` are imported by name into several
modules.  :meth:`Tracer.remove` puts the originals back, so untraced runs
execute the program unchanged.

Layer calls become spans (name, parent, start, end) on a thread-local stack.
The code-extraction pool of ``run_analysis`` is swapped for one that hands
each worker the span that submitted its task, so worker spans get a parent.
Hot leaf calls (``label_key``, ``Matcher.matches``, ``verify_quote``) are too
many for one span each; they are aggregated into call counts and time.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import json
import math
import os
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

from thematica import pipeline

ROOT = "cli.main"


def _size(path) -> int:
    return os.path.getsize(path)


# (module, attribute, span name, measure(result, args) -> {counter: value}).
SPANS = (
    ("corpus", "load_corpus", "corpus.load", None),
    ("corpus", "content_hash", "corpus.content_hash", None),
    ("promptkit", "PromptLibrary.render_code_extraction", "promptkit.render", None),
    ("promptkit", "PromptLibrary.render_theme_generation", "promptkit.render", None),
    ("promptkit", "PromptLibrary.render_interpretation", "promptkit.render", None),
    ("gateway", "Gateway.complete", "gateway.complete",
     lambda result, args: {"cache_hits": result.transport == "cache"}),
    ("gateway", "ReplayTransport.send", "gateway.send", None),
    ("gateway", "load_fixture", "gateway.fixture_load", None),
    ("gateway", "save_fixture", "gateway.cache_save",
     lambda result, args: {"bytes": _size(args[0])}),
    ("pipeline", "run_analysis", "pipeline.run_analysis", None),
    ("pipeline", "AnalysisArtifact.save", "pipeline.artifact_save",
     lambda result, args: {"bytes": _size(result)}),
    ("pipeline", "load_artifact", "pipeline.artifact_load", None),
    ("pipeline", "compare", "pipeline.compare", None),
    ("pipeline", "six_step_coverage", "pipeline.coverage", None),
    ("outparse", "parse_code_block", "outparse.parse", None),
    ("outparse", "parse_emerging_code_list", "outparse.parse", None),
    ("outparse", "parse_theme_block", "outparse.parse", None),
    ("outparse", "parse_interpretation_block", "outparse.parse", None),
    ("outparse", "render_codes_digest", "outparse.render_digest", None),
    ("outparse", "render_theme_digest", "outparse.render_digest", None),
    ("trace", "verify_codebook", "trace.verify", None),
    ("codebook", "load_human_codebook", "codebook.load_human", None),
    ("codebook", "load_alias_map", "codebook.load_alias_map", None),
    ("codebook", "match_codes", "codebook.match", None),
    ("codebook", "merge_codebooks", "codebook.merge", None),
    ("agreement", "presence_matrix", "agreement.presence_matrix",
     lambda result, args: {"rows": len(result.row_labels)}),
    ("agreement", "cohens_kappa", "agreement.kappa", None),
    ("agreement", "build_table4_summary", "agreement.summary", None),
    ("report", "build_report", "report.build", None),
    ("report", "write_report_bundle", "report.write",
     lambda result, args: {"bytes": sum(_size(path) for path in result)}),
)

LEAVES = (
    ("textnorm", "label_key", "textnorm.label_key"),
    ("codebook", "Matcher.matches", "codebook.matches"),
    ("trace", "verify_quote", "trace.quote"),
)


class Span:
    __slots__ = ("name", "parent", "command", "iteration", "start", "end", "counts")

    def __init__(self, name, parent, command, iteration) -> None:
        self.name = name
        self.parent = parent
        self.command = command
        self.iteration = iteration
        self.start = self.end = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps layer functions while installed and records what they do."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.quotes: list[tuple[int, str, str, float]] = []  # iteration, command, level, s
        self.command: str | None = None
        self.iteration: int | None = None
        self._local = threading.local()
        self._leaf_tables: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _leaf_table(self) -> dict:
        table = getattr(self._local, "leaves", None)
        if table is None:
            table = self._local.leaves = {}
            with self._lock:
                self._leaf_tables.append(table)
        return table

    @contextlib.contextmanager
    def root(self, command: str, iteration: int):
        """Span around one whole command: the root of its span tree."""
        self.command, self.iteration = command, iteration
        span = Span(ROOT, None, command, iteration)
        stack = self._stack()
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            self.spans.append(span)
            self.command = self.iteration = None

    def _span(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None, tracer.command, tracer.iteration)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if measure is not None:
                span.counts = measure(result, args)
            return result

        return wrapper

    def _leaf(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            table = tracer._leaf_table()
            key = (tracer.iteration, tracer.command, name)
            entry = table.get(key)
            if entry is None:
                table[key] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            if name == "trace.quote":
                tracer.quotes.append((tracer.iteration, tracer.command, result.level, elapsed))
            return result

        return wrapper

    def _executor(self):
        """ThreadPoolExecutor whose workers start under the submitting span."""
        tracer = self

        class PropagatingExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None

                def adopted(*a, **k):
                    worker_stack = tracer._stack()
                    worker_stack.append(parent)
                    try:
                        return fn(*a, **k)
                    finally:
                        worker_stack.pop()

                return super().submit(adopted, *args, **kwargs)

        return PropagatingExecutor

    # --- installing ------------------------------------------------------

    def _replace(self, module_name: str, attribute: str, make) -> None:
        owner = sys.modules[f"thematica.{module_name}"]
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, make(original))
            return
        original = getattr(owner, attribute)
        wrapper = make(original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "thematica" or name.startswith("thematica.")):
                continue
            if getattr(module, attribute, None) is original:
                self._patches.append((module, attribute, original))
                setattr(module, attribute, wrapper)

    def install(self) -> None:
        for module_name, attribute, name, measure in SPANS:
            self._replace(module_name, attribute,
                          lambda fn, name=name, measure=measure: self._span(name, fn, measure))
        for module_name, attribute, name in LEAVES:
            self._replace(module_name, attribute, lambda fn, name=name: self._leaf(name, fn))
        self._patches.append((pipeline, "ThreadPoolExecutor", pipeline.ThreadPoolExecutor))
        pipeline.ThreadPoolExecutor = self._executor()

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def dump(self, path) -> None:
        """Write every span (parents as indexes) and leaf aggregate as JSON."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        spans = [{"name": s.name, "parent": index.get(id(s.parent)), "command": s.command,
                  "iteration": s.iteration, "start": s.start, "end": s.end, "counts": s.counts}
                 for s in self.spans]
        leaves = [{"iteration": key[0], "command": key[1], "name": key[2],
                   "calls": calls, "seconds": seconds}
                  for table in self._leaf_tables for key, (calls, seconds) in table.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "leaves": leaves}, handle)

    # --- summarising -----------------------------------------------------

    def count(self, name: str, command: str, iteration: int) -> int:
        return sum(1 for s in self.spans
                   if s.name == name and s.command == command and s.iteration == iteration)

    def leaf(self, iteration: int, name: str, command: str | None = None) -> tuple[int, float]:
        calls, seconds = 0, 0.0
        for table in self._leaf_tables:
            for (it, cmd, leaf_name), (n, s) in list(table.items()):
                if it == iteration and leaf_name == name and command in (None, cmd):
                    calls += n
                    seconds += s
        return calls, seconds


def covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that the union of ``children`` covers."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        start, end = max(child.start, reach), min(child.end, span.end)
        if end > start:
            total += end - start
            reach = end
    return total


def iteration_stats(tracer: Tracer, iteration: int) -> dict:
    """Per-layer figures of one traced iteration (all four commands summed)."""
    spans = [s for s in tracer.spans if s.iteration == iteration]
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)

    total = defaultdict(float)    # span name -> summed duration
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(float)  # "span name.counter" -> summed value
    by_command = defaultdict(float)  # (command, span name) -> summed duration
    calls_by_command = defaultdict(int)
    roots = {}
    for span in spans:
        if span.name == ROOT:
            roots[span.command] = span
            continue
        total[span.name] += span.duration
        self_time[span.name] += span.duration - covered(span, children[id(span)])
        calls[span.name] += 1
        by_command[span.command, span.name] += span.duration
        calls_by_command[span.command, span.name] += 1
        for key, value in (span.counts or {}).items():
            counters[f"{span.name}.{key}"] += value

    stats = {"total": total, "self": self_time, "calls": calls, "counters": counters,
             "by_command": by_command, "calls_by_command": calls_by_command, "roots": roots}
    stats["top_covered"] = {command: covered(root, children[id(root)])
                            for command, root in roots.items()}
    stats["leaf"] = {name: tracer.leaf(iteration, name)
                     for _, _, name in LEAVES}
    stats["compare_label_keys"] = tracer.leaf(iteration, "textnorm.label_key", "compare")[0]
    levels = defaultdict(int)
    verify_slow = 0.0
    for it, command, level, seconds in tracer.quotes:
        if it != iteration:
            continue
        levels[level] += 1
        if command == "verify" and level in ("Fuzzy", "Failed"):
            verify_slow += seconds
    stats["levels"] = levels
    stats["verify_slow"] = verify_slow
    return stats


def quote_percentiles(tracer: Tracer, iterations) -> dict:
    """Per trace level: median ms, the tail percentile and its value, count.

    The tail is the highest of p99.9, p99 and p90 with at least ten samples
    beyond it; 0 when there are too few samples for any of them.
    """
    chosen = set(iterations)
    samples = defaultdict(list)
    for it, _, level, seconds in tracer.quotes:
        if it in chosen:
            samples[level].append(seconds * 1000.0)
    out = {}
    for level in ("Exact", "Normalized", "Fuzzy", "Failed"):
        values = sorted(samples[level])
        n = len(values)
        prefix = f"trace.quote_ms.{level.lower()}"
        out[f"{prefix}.p50"] = statistics.median(values) if values else 0.0
        out[f"{prefix}.tail_pct"] = 0.0
        out[f"{prefix}.tail"] = 0.0
        for pct in (99.9, 99.0, 90.0):
            if n * (100.0 - pct) / 100.0 >= 10:
                out[f"{prefix}.tail_pct"] = pct
                out[f"{prefix}.tail"] = values[math.ceil(pct / 100.0 * n) - 1]
                break
        out[f"{prefix}.n"] = n
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _wall(st, command: str) -> float:
    root = st["roots"].get(command)
    return root.duration if root is not None else 0.0


_MB = 1e6
_COMMANDS = ("analyze", "resume", "verify", "compare")

# Per-layer metrics, summed over the four commands of one traced iteration
# unless the name says otherwise; the run reports the median over its traced
# iterations.  Each row names the end-to-end metric, and the workload, that
# a change to the layer should move.  ``None`` marks metrics computed outside
# one iteration (pooled quote timings, tracing overhead).
PER_LAYER = (
    ("corpus.load_s", "s", "lower", "verify_s, analyze_s on long-interview",
     lambda st, cx: st["total"]["corpus.load"]),
    ("corpus.content_hash_s", "s", "lower", "verify_s, analyze_s on long-interview",
     lambda st, cx: st["total"]["corpus.content_hash"]),
    ("promptkit.renders", "count", "lower", "analyze_s on long-interview",
     lambda st, cx: st["calls"]["promptkit.render"]),
    ("promptkit.render_s", "s", "lower", "analyze_s on long-interview",
     lambda st, cx: st["total"]["promptkit.render"]),
    ("gateway.requests", "count", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["calls"]["gateway.complete"]),
    ("gateway.sends", "count", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["calls"]["gateway.send"]),
    ("gateway.resume_sends", "count", "lower", "resume_s on long-interview; must equal the "
     "requests missing from the interrupted state",
     lambda st, cx: st["calls_by_command"]["resume", "gateway.send"]),
    ("gateway.cache_hits", "count", "higher", "resume_s on long-interview",
     lambda st, cx: st["counters"]["gateway.complete.cache_hits"]),
    ("gateway.complete_self_s", "s", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["self"]["gateway.complete"]),
    ("gateway.cache_saves", "count", "lower", "analyze_s, analyze_write_mb on long-interview",
     lambda st, cx: st["calls"]["gateway.cache_save"]),
    ("gateway.cache_write_mb", "MB", "lower", "analyze_write_mb, resume_write_mb on long-interview",
     lambda st, cx: st["counters"]["gateway.cache_save.bytes"] / _MB),
    ("gateway.cache_save_s", "s", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["total"]["gateway.cache_save"]),
    ("gateway.fixture_load_s", "s", "lower", "resume_s, analyze_s on long-interview",
     lambda st, cx: st["total"]["gateway.fixture_load"]),
    ("pipeline.artifact_saves", "count", "lower", "analyze_s, analyze_write_mb on long-interview",
     lambda st, cx: st["calls"]["pipeline.artifact_save"]),
    ("pipeline.artifact_write_mb", "MB", "lower",
     "analyze_write_mb, resume_write_mb on long-interview",
     lambda st, cx: st["counters"]["pipeline.artifact_save.bytes"] / _MB),
    ("pipeline.artifact_save_s", "s", "lower", "analyze_s, resume_s on long-interview; "
     "analyze_s on paraphrase (parallel path)",
     lambda st, cx: st["total"]["pipeline.artifact_save"]),
    ("pipeline.artifact_load_s", "s", "lower", "resume_s, verify_s, compare_s on long-interview",
     lambda st, cx: st["total"]["pipeline.artifact_load"]),
    ("pipeline.write_amplification", "ratio", "lower",
     "analyze_write_mb on long-interview (bytes written by analyze / final output bytes)",
     lambda st, cx: _share(cx["analyze_written"], cx["analyze_output"])),
    ("pipeline.run_analysis_self_s", "s", "lower", "analyze_s, resume_s on long-interview; "
     "analyze_s on paraphrase (parallel path)",
     lambda st, cx: st["self"]["pipeline.run_analysis"]),
    ("pipeline.compare_self_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["self"]["pipeline.compare"]),
    ("pipeline.analyze_persist_share", "ratio", "lower",
     "analyze_s on long-interview (artifact and cache saves / analyze wall time)",
     lambda st, cx: _share(st["by_command"]["analyze", "pipeline.artifact_save"]
                           + st["by_command"]["analyze", "gateway.cache_save"],
                           _wall(st, "analyze"))),
    ("outparse.parse_calls", "count", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["calls"]["outparse.parse"]),
    ("outparse.parse_s", "s", "lower", "analyze_s, resume_s on long-interview",
     lambda st, cx: st["total"]["outparse.parse"]),
    ("trace.quotes", "count", "higher", "verify_s, analyze_s, setup_s on paraphrase",
     lambda st, cx: sum(st["levels"].values())),
    ("trace.exact", "count", "higher", "verify_s, analyze_s, setup_s on paraphrase",
     lambda st, cx: st["levels"]["Exact"]),
    ("trace.normalized", "count", "lower", "verify_s, analyze_s, setup_s on paraphrase",
     lambda st, cx: st["levels"]["Normalized"]),
    ("trace.fuzzy", "count", "lower", "verify_s, analyze_s, setup_s on paraphrase",
     lambda st, cx: st["levels"]["Fuzzy"]),
    ("trace.failed", "count", "lower", "verify_s, analyze_s, setup_s on paraphrase",
     lambda st, cx: st["levels"]["Failed"]),
    ("trace.verify_s", "s", "lower", "verify_s, analyze_s, resume_s, setup_s on paraphrase",
     lambda st, cx: st["total"]["trace.verify"]),
    ("trace.verify_slow_share", "ratio", "lower",
     "verify_s on paraphrase (Fuzzy and Failed quotes / verify wall time)",
     lambda st, cx: _share(st["verify_slow"], _wall(st, "verify"))),
    *((f"trace.quote_ms.{level}.{stat}", unit, better,
       "verify_s, analyze_s, setup_s on paraphrase", None)
      for level in ("exact", "normalized", "fuzzy", "failed")
      for stat, unit, better in (("p50", "ms", "lower"), ("tail", "ms", "lower"),
                                 ("tail_pct", "%", "higher"), ("n", "count", "higher"))),
    ("codebook.load_human_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["total"]["codebook.load_human"]),
    ("codebook.match_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["total"]["codebook.match"]),
    ("codebook.matches_calls", "count", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["leaf"]["codebook.matches"][0]),
    ("codebook.merge_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["total"]["codebook.merge"]),
    ("textnorm.label_key_calls", "count", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["leaf"]["textnorm.label_key"][0]),
    ("textnorm.label_key_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["leaf"]["textnorm.label_key"][1]),
    ("textnorm.keys_per_label", "ratio", "lower",
     "compare_s on long-interview and sample (label_key calls in compare / labels compared)",
     lambda st, cx: _share(st["compare_label_keys"], cx["labels_compared"])),
    ("agreement.presence_matrix_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["total"]["agreement.presence_matrix"]),
    ("agreement.presence_rows", "count", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["counters"]["agreement.presence_matrix.rows"]),
    ("agreement.kappa_s", "s", "lower", "compare_s on long-interview and sample",
     lambda st, cx: st["total"]["agreement.kappa"]),
    ("agreement.compare_presence_share", "ratio", "lower",
     "compare_s on long-interview and sample (presence matrix / compare wall time)",
     lambda st, cx: _share(st["by_command"]["compare", "agreement.presence_matrix"],
                           _wall(st, "compare"))),
    ("report.build_s", "s", "lower", "compare_s, analyze_s on sample",
     lambda st, cx: st["total"]["report.build"]),
    ("report.write_s", "s", "lower", "compare_s, analyze_s on sample",
     lambda st, cx: st["total"]["report.write"]),
    ("report.write_mb", "MB", "lower", "analyze_write_mb on sample",
     lambda st, cx: st["counters"]["report.write.bytes"] / _MB),
    ("cli.self_s", "s", "lower", "all (command wall time outside the top-level layer spans)",
     lambda st, cx: sum(root.duration - st["top_covered"][command]
                        for command, root in st["roots"].items())),
    *((f"cli.{command}_span_share", "ratio", "higher",
       f"{command}_s on every workload (top-level layer spans / command wall time)",
       lambda st, cx, command=command: _share(st["top_covered"].get(command, 0.0),
                                              _wall(st, command)))
      for command in _COMMANDS),
    ("tracing.overhead_s", "s", "lower",
     "all (traced minus untraced wall time of the four commands)", None),
)


def layer_metrics(tracer: Tracer, iterations: list[int], contexts: dict,
                  overhead_s: float) -> dict:
    """Every PER_LAYER metric: medians over ``iterations``, pooled quote timings."""
    per_iteration = {name: [] for name, *_, fn in PER_LAYER if fn is not None}
    for iteration in iterations:
        stats = iteration_stats(tracer, iteration)
        for name, *_, fn in PER_LAYER:
            if fn is not None:
                per_iteration[name].append(fn(stats, contexts[iteration]))
    values = {name: statistics.median(series) for name, series in per_iteration.items()}
    values.update(quote_percentiles(tracer, iterations))
    values["tracing.overhead_s"] = overhead_s
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in PER_LAYER}
