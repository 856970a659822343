"""Spans around the calls into each graphcorpus module, for the traced run.

The traced run calls `graphcorpus.cli.main` in-process after `install()`
has replaced each traced function with a wrapper, at the place where the
calling module binds the name (`graphcorpus.generate.hamilton_path`,
`graphcorpus.selector.similarity`, `graphcorpus.cli.select_diverse`, ...)
or, for methods, on the class. A wrapper records one span per call: name,
start, end, parent span and the stage it ran in. Spans stay in memory
until `write()`. A layer's self time is its spans' durations minus the
part of each interval that child spans cover.

Worker threads (the sampler's pool) have no open span of their own; their
spans take as parent the span the main thread has open, which is the call
waiting on them.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    stage: int


class Tracer:
    """Spans and counts for one traced run. `rejection_attempts` is the
    attempt index from which generation switches to constructive
    transforms; a problem kept at or after it counts as a transform."""

    def __init__(self, tasks: list[str], rejection_attempts: int):
        self.tasks = list(tasks)
        self.rejection_attempts = rejection_attempts
        self.spans: list[Span] = []
        self.stage = 0
        self.attempts: Counter = Counter()           # task -> attempt_seed calls
        self.kept_attempt: dict[str, list[int]] = defaultdict(list)
        self.attempt_of: dict[int, int] = {}         # attempt seed -> index
        self.violations = 0
        self.bytes_written = 0
        self.kept = 0
        self.correct_offered = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.paths_sampled = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, after=None):
        """Wrap fn so that each call records a span; name may be a callable
        of (args, kwargs); after(args, kwargs, result) records counts."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                tracer.spans.append(Span(sid, label, start, end, parent,
                                         tracer.stage))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def patch(self, target: str, name, after=None) -> None:
        """Replace `module.attr` or `module.Class.attr` with a traced wrapper."""
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum per span name of duration minus the union of child intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = 0.0
            reach = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.name] += (s.end - s.start) - covered
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans)


# ---------------------------------------------------------------------------
# What is traced, and the per-layer metrics derived from it
# ---------------------------------------------------------------------------

SOLVERS = ("has_cycle", "is_connected", "is_bipartite", "topo_sort",
           "shortest_path", "max_triangle_sum", "max_flow", "hamilton_path",
           "find_subgraph")
SIM_METRICS = ("edit", "jaccard", "tfidf", "embedding")


def install(tracer: Tracer) -> None:
    """Wrap every traced call site; `tracer.uninstall()` restores them."""
    gc = "graphcorpus."
    p = tracer.patch
    for fn in ("generate_er", "generate_dag", "canonical_key",
               "connected_components"):
        p(gc + "generate:" + fn, "graphs." + fn)
    p(gc + "cli:canonical_key", "graphs.canonical_key")
    for fn in ("assign_edge_weights", "assign_node_weights"):
        p(gc + "generate:" + fn, "graphs.assign_weights")
    for fn in SOLVERS:
        p(gc + "generate:" + fn, "solvers." + fn)

    def note_attempt(args, kwargs, result):
        tracer.attempts[args[2]] += 1
        tracer.attempt_of[result] = args[4]

    def note_kept(args, kwargs, problems):
        for prob in problems:
            tracer.kept_attempt[prob.task].append(tracer.attempt_of[prob.seed])
        tracer.attempt_of.clear()

    p(gc + "generate:attempt_seed", "generate.attempt_seed", note_attempt)
    p(gc + "generate:generate_task", lambda a, k: "generate.task." + a[0],
      note_kept)

    p(gc + "generate:render_problem", "textgen.render")
    p(gc + "generate:estimate_tokens", "textgen.estimate_tokens")
    for site in ("cli:build_cot_prompt", "cli:wrap_instruction",
                 "evaluate:wrap_instruction"):
        p(gc + site, "textgen.prompt")
    p(gc + "sampler:make_transcript", "transcripts.make")

    def note_sampled(args, kwargs, result):
        tracer.paths_sampled += sum(len(texts) for texts in result)

    for site in ("cli:sample", "evaluate:sample"):
        p(gc + site, "sampler.sample", note_sampled)
    p(gc + "sampler:Cache.__init__", "sampler.cache_load")

    def note_lookup(args, kwargs, result):
        if result is None:
            tracer.cache_misses += 1
        else:
            tracer.cache_hits += 1

    p(gc + "sampler:Cache.lookup", "sampler.cache_lookup", note_lookup)
    p(gc + "sampler:Cache.put", "sampler.cache_put")
    p(gc + "sampler:StubBackend.generate", "sampler.backend.stub")
    p(gc + "sampler:HttpBackend.generate", "sampler.backend.http")

    for site in ("cli:judge", "corpus:judge", "evaluate:judge"):
        p(gc + site, "grader.judge")

    def note_audit(args, kwargs, result):
        tracer.violations += len(result)

    p(gc + "cli:audit_steps", "grader.audit", note_audit)

    def note_select(args, kwargs, result):
        tracer.correct_offered += len(args[0])
        tracer.kept += len(result)

    p(gc + "cli:select_diverse", "selector.select_diverse", note_select)
    p(gc + "selector:select_dispreferred", "selector.select_dispreferred")
    p(gc + "selector:similarity",
      lambda a, k: "selector.sim." + (a[2] if len(a) > 2 else k["metric"]))
    p(gc + "selector:TfidfModel.__init__", "selector.tfidf_fit")
    p(gc + "selector:HashingEmbedder.embed", "selector.embed")
    p(gc + "selector:_kmeans_medoids", "selector.kmeans")

    for fn in ("read_problems", "read_jsonl"):
        p(gc + "cli:" + fn, "corpus.read")

    def note_write(args, kwargs, result):
        tracer.bytes_written += os.path.getsize(args[0])

    for fn in ("write_problems", "write_jsonl"):
        p(gc + "cli:" + fn, "corpus.write", note_write)
    p(gc + "cli:assemble_sft", "corpus.assemble_sft")
    p(gc + "cli:assemble_dpo", "corpus.assemble_dpo")

    for site in ("cli:evaluate", "evaluate:evaluate"):
        p(gc + site, "evaluate.grade")
    p(gc + "cli:run_eval", "evaluate.run_eval")


# The stage time each group should move (printed as `stage <metric>`; it
# moves pipeline_s with it, or setup_s for set-up work), and where:
#   cli.import_s      every stage everywhere; most annotate_cached_s
#                     (sample-http) and audit_s (distill-augment)
#   graphs, solvers,  generate_s and setup_s on both workloads;
#   generate          hamilton_path is predicted to be the largest solver
#   textgen           generate_s and annotate_s (sample-http)
#   transcripts       annotate_s (distill-augment)
#   sampler           annotate_s, annotate_cached_s, evaluate_s (sample-http)
#   grader            select_s, dpo_s, audit_s (distill-augment),
#                     evaluate_s (sample-http)
#   selector          select_s, dpo_s (distill-augment); sim_s.edit is
#                     predicted to be the largest, about 80 % of select
#   corpus            every stage; reads weigh most in annotate_cached_s,
#                     writes in generate_s
#   evaluate          evaluate_s (sample-http)
# tasks, config and errors do no measurable work and nothing calls
# oracles, so they have no metrics.

class _View:
    """What the per-layer values are computed from: the tracer, its self
    times and call counts, and the mock server's counts for the traced
    pass (empty when no server ran)."""

    def __init__(self, tracer: Tracer, server: dict):
        self.tracer = tracer
        self.own = tracer.self_times()
        self.calls = tracer.calls()
        self.server = server


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _request_ms(v: _View, q: int) -> float:
    return _percentile([d * 1000 for d in v.tracer.durations("sampler.backend.http")], q)


def _attempts(v: _View, task: str) -> float:
    return _share(v.tracer.attempts[task], len(v.tracer.kept_attempt.get(task, [])))


def _transforms(v: _View, task: str) -> float:
    kept = v.tracer.kept_attempt.get(task, [])
    return _share(sum(1 for a in kept if a >= v.tracer.rejection_attempts), len(kept))


def metric_table(tasks: list[str]):
    """Every span-derived per-layer metric as (name, unit, value), in report
    order; value(view) computes it. Judge calls are counted per path that
    `sample` returned."""
    rows = []

    def own(metric: str, span: str) -> None:
        rows.append((metric, "s", lambda v: v.own.get(span, 0.0)))

    def calls(metric: str, span: str) -> None:
        rows.append((metric, "count", lambda v: v.calls[span]))

    def value(metric: str, unit: str, fn) -> None:
        rows.append((metric, unit, fn))

    for fn in ("generate_er", "generate_dag", "canonical_key"):
        own(f"graphs.{fn}_s", "graphs." + fn)
    calls("graphs.canonical_key_calls", "graphs.canonical_key")
    for fn in ("connected_components", "assign_weights"):
        own(f"graphs.{fn}_s", "graphs." + fn)
    for fn in SOLVERS:
        own(f"solvers.{fn}_s", "solvers." + fn)
        calls(f"solvers.{fn}_calls", "solvers." + fn)
    for task in tasks:
        value(f"generate.task_s.{task}", "s",
              lambda v, t=task: sum(v.tracer.durations("generate.task." + t)))
        value(f"generate.attempts_per_problem.{task}", "ratio",
              lambda v, t=task: _attempts(v, t))
        value(f"generate.transform_share.{task}", "ratio",
              lambda v, t=task: _transforms(v, t))
    own("textgen.render_s", "textgen.render")
    calls("textgen.render_calls", "textgen.render")
    own("textgen.estimate_tokens_s", "textgen.estimate_tokens")
    own("textgen.prompt_s", "textgen.prompt")
    own("transcripts.make_s", "transcripts.make")
    calls("transcripts.make_calls", "transcripts.make")
    own("sampler.sample_s", "sampler.sample")
    for part in ("cache_load", "cache_lookup", "cache_put"):
        own(f"sampler.{part}_s", "sampler." + part)
    value("sampler.cache_hits", "count", lambda v: v.tracer.cache_hits)
    value("sampler.cache_misses", "count", lambda v: v.tracer.cache_misses)
    value("sampler.backend_calls", "count",
          lambda v: v.calls["sampler.backend.stub"] + v.calls["sampler.backend.http"])
    value("sampler.request_ms_p50", "ms", lambda v: _request_ms(v, 50))
    value("sampler.request_ms_p95", "ms", lambda v: _request_ms(v, 95))
    value("sampler.http_requests", "count", lambda v: v.server.get("requests", 0))
    value("sampler.http_retries", "count", lambda v: v.server.get("retries", 0))
    own("grader.judge_s", "grader.judge")
    calls("grader.judge_calls", "grader.judge")
    value("grader.judge_calls_per_path", "ratio",
          lambda v: _share(v.calls["grader.judge"], v.tracer.paths_sampled))
    own("grader.audit_s", "grader.audit")
    calls("grader.audit_calls", "grader.audit")
    value("grader.violations", "count", lambda v: v.tracer.violations)
    own("selector.select_diverse_s", "selector.select_diverse")
    own("selector.select_dispreferred_s", "selector.select_dispreferred")
    for m in SIM_METRICS:
        own(f"selector.sim_s.{m}", "selector.sim." + m)
        calls(f"selector.sim_calls.{m}", "selector.sim." + m)
    own("selector.tfidf_fit_s", "selector.tfidf_fit")
    own("selector.embed_s", "selector.embed")
    calls("selector.embed_calls", "selector.embed")
    own("selector.kmeans_s", "selector.kmeans")
    value("selector.kept_per_correct", "ratio",
          lambda v: _share(v.tracer.kept, v.tracer.correct_offered))
    own("corpus.read_s", "corpus.read")
    own("corpus.write_s", "corpus.write")
    value("corpus.bytes_written", "bytes", lambda v: v.tracer.bytes_written)
    own("corpus.assemble_sft_s", "corpus.assemble_sft")
    own("corpus.assemble_dpo_s", "corpus.assemble_dpo")
    own("evaluate.grade_s", "evaluate.grade")
    own("evaluate.run_eval_s", "evaluate.run_eval")
    value("trace.spans", "count", lambda v: len(v.tracer.spans))
    return rows


def layer_values(tracer: Tracer, server: dict) -> dict[str, float]:
    """Every metric of `metric_table` for one traced run; `server` holds
    the mock server's counts for the traced pass."""
    view = _View(tracer, server)
    return {name: value(view) for name, _, value in metric_table(tracer.tasks)}
