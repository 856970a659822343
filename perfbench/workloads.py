"""The benchmark's workloads: what each runs, why, and what it predicts.

Every stage is one `python -m graphcorpus.cli <stage> ...` process, run
from the workload's directory. Set-up stages build the inputs and count
toward `setup_s` only; timed stages run once per repetition and their
wall times add up to `pipeline_s`. `{seed}` and `{url}` in an argument are
filled in per run. Each stage's `metric` names its printed stage time.
`check.py` holds each workload's output checks.

Generation runs in the set-up of both workloads, so a generation change
moves `setup_s` and the traced run's graphs, solvers and generate layers.
A workload that timed a 2,250-problem train split alone was tried and
dropped: its generate process of about 9 s read 6.4-11.3 s across ten
runs on one shared 2-vCPU machine, a 22 % spread against the 25 % most
that any bound may allow. Hamilton generation is the largest part of
that work and also varies from seed to seed: a few draws per hundred
problems exhaust the backtracking budget. hamilton_path is predicted to
be the largest solver.

The load is a closed loop with one client: stages run one at a time, in
order, from one process. The only concurrency is the CLI's own `--jobs 2`
thread pool in sample-http, matching the 2 CPUs of the machine the sizes
were chosen on.
"""

from __future__ import annotations

from dataclasses import dataclass

ERROR_RATE = 0.4         # share of stub paths that argue a wrong answer
TASKS = ["cycle", "connect", "bipartite", "topology", "shortest", "triangle",
         "flow", "hamilton", "subgraph"]

# Mock model server (sample-http only): fixed service delay per request,
# and the share of prompts whose first request is answered 503.
SERVER_DELAY_MS = 3
SERVER_RETRY_SHARE = 0.01

# Problems per task, per size. "tiny" is for the self-check.
SIZES = {
    "full": {"distill-augment": 5, "sample-http": 20},
    "tiny": {"distill-augment": 1, "sample-http": 2},
}


@dataclass(frozen=True)
class Stage:
    metric: str                   # name of the stage's printed wall time
    argv: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[Stage, ...]
    timed: tuple[Stage, ...]
    server: bool = False          # start the mock model server in set-up
    fresh: tuple[str, ...] = ()   # files removed before each repetition


# ---------------------------------------------------------------------------
# distill-augment
#
# Why: the distillation stages, where the ROADMAP profile puts the time:
# 30 stub paths per problem (augment profile, 40 % wrong) are graded,
# diversity-selected into SFT rows, paired into DPO rows and audited.
# Generation happens only in set-up, so a generation speed-up moves
# setup_s here and nothing else.
# Loads: transcripts, grader, selector, corpus assembly.
# Bypasses: the HTTP client and the cache; graphs and solvers (set-up only).
# Predictions: selector.sim_s.edit is the largest layer (about 80 % of
# select per the ROADMAP profile); grader.judge_calls_per_path is about 2,
# because select and assemble_sft grade the kept paths twice; audit time is
# mostly per-path rebuilds of the graph's edge maps.
# ---------------------------------------------------------------------------

def distill_augment(size: str) -> Workload:
    n = SIZES[size]["distill-augment"]
    problems = ("--problems", "problems.jsonl")
    paths = ("--paths", "paths.jsonl")
    return Workload(
        name="distill-augment",
        setup=(Stage("generate_s", (
            "generate", "--split", "test", "--count", str(n), "--seed", "{seed}",
            "--out", "problems.jsonl"), "problems.jsonl"),),
        timed=(
            Stage("annotate_s", (
                "annotate", *problems, "--backend", "stub", "--profile",
                "augment", "--stub-error-rate", str(ERROR_RATE), "--seed", "{seed}",
                "--out", "paths.jsonl"), "paths.jsonl"),
            Stage("select_s", ("select", *problems, *paths, "--seed", "{seed}",
                               "--out", "sft.jsonl"), "sft.jsonl"),
            Stage("dpo_s", ("dpo", *problems, *paths, "--seed", "{seed}",
                            "--out", "dpo.jsonl"), "dpo.jsonl"),
            Stage("audit_s", ("audit", *problems, *paths,
                              "--out", "audit.jsonl"), "audit.jsonl"),
        ))


# ---------------------------------------------------------------------------
# sample-http
#
# Why: the only workload where the sampler's HTTP client, thread pool,
# retry path and cache do most of the work. A loopback mock server answers
# with precomputed stub texts after a fixed service delay; about 1 % of
# prompts get one 503 first. The cold pass misses every prompt and writes
# the cache; the warm pass reads the same cache and sends no request, so a
# change that speeds one up at the other's cost shows. evaluate then samples
# one uncached answer per problem and grades it.
# Loads: sampler (HttpBackend, Cache, pool), textgen prompts, evaluate.
# Bypasses: selector; graphs and solvers (set-up only).
# Predictions: per-request client overhead (about 3.9 ms at --jobs 2 with
# no delay) plus the retry back-off dominate annotate_s and evaluate_s;
# annotate_cached_s is mostly interpreter start-up, imports and cache reads.
# ---------------------------------------------------------------------------

def sample_http(size: str) -> Workload:
    n = SIZES[size]["sample-http"]
    http = ("--problems", "problems.jsonl", "--backend", "http",
            "--base-url", "{url}", "--model", "mock", "--jobs", "2")
    return Workload(
        name="sample-http",
        setup=(Stage("generate_s", (
            "generate", "--split", "test", "--count", str(n), "--seed", "{seed}",
            "--out", "problems.jsonl"), "problems.jsonl"),),
        timed=(
            Stage("annotate_s", ("annotate", *http, "--cache", "cache.jsonl",
                                 "--out", "paths_cold.jsonl"), "paths_cold.jsonl"),
            Stage("annotate_cached_s", ("annotate", *http, "--cache", "cache.jsonl",
                                        "--out", "paths_warm.jsonl"),
                  "paths_warm.jsonl"),
            Stage("evaluate_s", ("evaluate", *http, "--out", "report"), "report"),
        ),
        server=True, fresh=("cache.jsonl",))


WORKLOADS = {
    "distill-augment": distill_augment,
    "sample-http": sample_http,
}

# Every stage's metric name, in pipeline order.
STAGE_METRICS = ("generate_s", "annotate_s", "annotate_cached_s", "select_s",
                 "dpo_s", "audit_s", "evaluate_s")
