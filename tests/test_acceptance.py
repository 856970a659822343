"""End to end acceptance gates.

Each criterion is one test that prints a single pass/fail line. Checks
collect granular failures and report the first few, so a red run says
what broke without stopping at the first bad instance. Tolerances are
pinned here and nowhere else.
"""

import hashlib
import itertools
import json
import math
import random
import socket
import time

import pytest

from graphcorpus.cli import main as cli_main
from graphcorpus.config import PipelineConfig
from graphcorpus.corpus import (DPO_SCHEMA, PATHS_SCHEMA, problem_to_record,
                                read_jsonl, read_problems, write_problems)
from graphcorpus.evaluate import evaluate
from graphcorpus.generate import generate_corpus
from graphcorpus.grader import is_hamilton_path, judge
from graphcorpus.graphs import (assign_edge_weights, assign_node_weights,
                                canonical_key, generate_dag, generate_er)
from graphcorpus.selector import (METRICS, features, select_diverse,
                                  select_dispreferred, similarity)
from graphcorpus.solvers import (find_subgraph, hamilton_path, has_cycle,
                                 is_bipartite, is_connected, max_flow,
                                 max_triangle_sum, shortest_path, topo_sort)
from graphcorpus.tasks import TASK_ORDER, TASKS
from graphcorpus.textgen import TEMPLATES, Problem
from graphcorpus.transcripts import make_transcript

from oracles import (dpo_loss, dpo_loss_grad, oracle_bipartite,
                     oracle_connect, oracle_cycle, oracle_flow, oracle_hamilton,
                     oracle_shortest, oracle_subgraph,
                     oracle_topo_orders, oracle_triangle, solve)
from textparse import parse_problem

# the defaults a stage runs with
STAGE = PipelineConfig()

RUNS = 200          # oracle comparisons per task
DENSITIES = (0.15, 0.3, 0.5)


def _verdict(num: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def default_test_corpus():
    t0 = time.monotonic()
    corpus = generate_corpus(list(TASK_ORDER), 400, seed=0, split="test",
                             dedupe_keys=set())
    return corpus, time.monotonic() - t0


def test_criterion_1_solver_oracle_equivalence():
    failures: list[str] = []
    counts = dict.fromkeys(TASK_ORDER, 0)
    t0 = time.monotonic()
    for seed in range(RUNS):
        p = DENSITIES[seed % 3]

        g = generate_er(2 + seed % 9, p + 0.1, seed=seed)
        counts["cycle"] += 1
        if has_cycle(g).value != oracle_cycle(g):
            failures.append(f"cycle seed {seed}")

        n = 2 + seed % 9
        g = generate_er(n, p, seed=seed)
        u, v = (seed * 7) % n, (seed * 3 + 1) % n
        counts["connect"] += 1
        if is_connected(g, u, v).value != oracle_connect(g, u, v):
            failures.append(f"connect seed {seed}")

        g = generate_er(2 + seed % 9, 2 * p, directed=True, seed=seed)
        counts["bipartite"] += 1
        if is_bipartite(g).value != oracle_bipartite(g):
            failures.append(f"bipartite seed {seed}")

        n = 2 + seed % 7
        if seed % 2:
            g = generate_dag(n, 0.5, seed=seed)
        else:
            g = generate_er(n, 0.4, directed=True, seed=seed)
        counts["topology"] += 1
        orders = oracle_topo_orders(g)
        ans = topo_sort(g)
        if orders:
            if ans.kind == "none_exists" or tuple(ans.value) not in orders:
                failures.append(f"topology seed {seed}")
        elif ans.kind != "none_exists":
            failures.append(f"topology seed {seed}")

        n = 2 + seed % 9
        g = assign_edge_weights(generate_er(n, p, seed=seed), 1, 10,
                                seed=seed)
        u, v = (seed * 5) % n, (seed * 11 + 2) % n
        counts["shortest"] += 1
        ans = shortest_path(g, u, v)
        got = None if ans.kind == "none_exists" else ans.value
        if got != oracle_shortest(g, u, v):
            failures.append(f"shortest seed {seed}")

        g = assign_node_weights(generate_er(3 + seed % 8, p + 0.2,
                                            seed=seed), 1, 10, seed=seed)
        counts["triangle"] += 1
        ans = max_triangle_sum(g)
        got = None if ans.kind == "none_exists" else ans.value
        if got != oracle_triangle(g):
            failures.append(f"triangle seed {seed}")

        n = 2 + seed % 6
        g = assign_edge_weights(generate_er(n, 0.4, directed=True,
                                            seed=seed), 1, 10, seed=seed)
        s = (seed * 3) % n
        t = (s + 1 + seed % (n - 1)) % n if n > 1 else 1
        counts["flow"] += 1
        if max_flow(g, s, t).value != oracle_flow(g, s, t):
            failures.append(f"flow seed {seed}")

        g = generate_er(2 + seed % 8, 0.3 + p, seed=seed)
        counts["hamilton"] += 1
        ans = hamilton_path(g)
        if ans.value != oracle_hamilton(g):
            failures.append(f"hamilton seed {seed}")
        elif ans.value and not is_hamilton_path(g, ans.witness):
            failures.append(f"hamilton witness seed {seed}")

        host = generate_er(5 + seed % 6, 0.4, directed=True, seed=seed)
        pattern = generate_er(min(2 + seed % 5, host.num_nodes), 0.5,
                              directed=True, seed=seed + 1000)
        counts["subgraph"] += 1
        if find_subgraph(host, pattern).value != oracle_subgraph(pattern,
                                                                 host):
            failures.append(f"subgraph seed {seed}")

    short = [t for t, c in counts.items() if c < RUNS]
    if short:
        failures.append(f"fewer than {RUNS} instances for {short}")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        failures.append(f"took {elapsed:.0f}s, budget 300s")
    _verdict(1, "solver-oracle equivalence", failures)


def test_criterion_2_worked_examples():
    failures: list[str] = []
    expected = {
        "connect": [False, True],
        "shortest": [8, 4],
        "flow": [10, 8],
        "triangle": [21, 16],
        "hamilton": [True, True],
        "subgraph": [True, False],
    }
    for task, values in expected.items():
        for i, want in enumerate(values):
            question = TEMPLATES[task].exemplars[i][0]
            p = parse_problem(question)
            ans = solve(task, p.graph, p.query)
            if ans.value != want:
                failures.append(
                    f"{task} exemplar {i}: {ans.value!r} != {want!r}")
            elif task == "hamilton" and not is_hamilton_path(p.graph,
                                                             ans.witness):
                failures.append(f"hamilton exemplar {i}: bad witness")
    _verdict(2, "worked examples", failures)


def test_criterion_3_default_test_split(default_test_corpus):
    corpus, elapsed = default_test_corpus
    failures: list[str] = []
    if len(corpus) != 3600:
        failures.append(f"{len(corpus)} problems, wanted 3600")
    by_task: dict[str, list] = {t: [] for t in TASK_ORDER}
    for p in corpus:
        by_task[p.task].append(p)
    for task in TASK_ORDER:
        group = by_task[task]
        if len(group) != 400:
            failures.append(f"{task}: {len(group)} problems")
        lo, hi = TASKS[task].node_range
        bad = [p.id for p in group
               if not lo <= p.graph.num_nodes <= hi]
        if bad:
            failures.append(f"{task}: node range broken ({bad[:3]})")
        if TASKS[task].answer_kind == "yes_no":
            yes = sum(1 for p in group if p.answer.value)
            if abs(yes - 200) > 8:      # 2% of 400
                failures.append(f"{task}: {yes}/400 yes labels")
    dupes = len(corpus) - len({canonical_key(p.graph) for p in corpus})
    if dupes:
        failures.append(f"{dupes} duplicate graphs")
    if elapsed >= 600:
        failures.append(f"took {elapsed:.0f}s, budget 600s")
    _verdict(3, "default test split", failures)


# sha256 of `graphcorpus generate --split test --seed 0`, recorded on
# CPython 3.11.7 like tests/test_digests.py. It pins every stored answer and
# witness of the default test split, on graphs of up to 100 nodes.
DEFAULT_TEST_SPLIT_SHA256 = (
    "b8251e9b6c03752e55d4532c277c9eed2a646f9b52ecbf25ce7b71e9350d754b")


def test_default_test_split_bytes_are_pinned(default_test_corpus, tmp_path):
    corpus, _ = default_test_corpus
    path = tmp_path / "test.jsonl"
    write_problems(str(path), corpus)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DEFAULT_TEST_SPLIT_SHA256, (
        "the default test split changed; a change that means to alter it "
        "must say so in CHANGES.md and record the new digest here")


def test_criterion_4_dpo_loss():
    failures: list[str] = []
    rng = random.Random("dpo-acceptance")
    for i in range(100):
        beta = rng.uniform(0.05, 2.0)
        a, b = rng.uniform(-5, 5), rng.uniform(-5, 5)
        loss = dpo_loss(a, b, a, b, beta)
        if abs(loss - math.log(2)) > 1e-12:
            failures.append(f"draw {i}: loss off ln 2 by "
                            f"{abs(loss - math.log(2)):.2e}")
    h = 1e-5
    for i in range(100):
        beta = rng.uniform(0.1, 1.0)
        args = [rng.uniform(-1, 1) for _ in range(4)]
        grads = dpo_loss_grad(*args, beta)
        for j in range(4):
            hi = list(args)
            lo = list(args)
            hi[j] += h
            lo[j] -= h
            fd = (dpo_loss(*hi, beta) - dpo_loss(*lo, beta)) / (2 * h)
            rel = abs(fd - grads[j]) / max(abs(grads[j]), 1e-12)
            if rel > 1e-6:
                failures.append(f"draw {i} arg {j}: grad rel err {rel:.2e}")
    losses = [dpo_loss(m / 2, -m / 2, 0.0, 0.0, 0.3)
              for m in (-5 + 10 * k / 99 for k in range(100))]
    rises = [k for k in range(1, 100) if not losses[k] < losses[k - 1]]
    if rises:
        failures.append(f"loss not decreasing at sweep points {rises[:3]}")
    _verdict(4, "dpo loss", failures)


def _word_salad(rng, words=12):
    vocab = ["walk", "edge", "node", "cycle", "path", "visit", "skip",
             "weight", "sum", "flow", "cut", "start", "end", "then"]
    return " ".join(rng.choice(vocab) for _ in range(words))


def test_criterion_5_selector_equivalence():
    failures: list[str] = []
    for seed in range(50):
        rng = random.Random(f"sel:{seed}")
        texts = [_word_salad(rng, rng.randint(4, 16))
                 for _ in range(rng.randint(2, 9))]

        anchor = sorted(range(len(texts)),
                        key=lambda i: (-len(texts[i]), texts[i], i))[0]
        rest = [i for i in range(len(texts)) if i != anchor]
        recs = features(texts)
        expected = [anchor]
        seen = {texts[anchor]}
        for metric in METRICS:
            nom = min(rest, key=lambda i: (
                similarity(recs[i], recs[anchor], metric), texts[i], i))
            if texts[nom] not in seen:
                seen.add(texts[nom])
                expected.append(nom)
        picked = select_diverse(texts, seed=seed, cap=STAGE.cap)
        if picked[:len(expected)] != expected:
            failures.append(f"diverse set {seed}: {picked} vs {expected}")
        if picked != select_diverse(texts, seed=seed, cap=STAGE.cap):
            failures.append(f"diverse set {seed}: not deterministic")

        target = _word_salad(rng)
        pool = texts + [target]
        recs = features(pool + [texts[anchor]])
        votes: dict[int, int] = {}
        for metric in METRICS:
            best = min(range(len(pool)), key=lambda i: (
                -similarity(recs[i], recs[-1], metric), pool[i], i))
            votes[best] = votes.get(best, 0) + 1
        want = sorted(votes, key=lambda i: (-votes[i], -len(pool[i]),
                                            pool[i], i))[0]
        got = select_dispreferred(pool, texts[anchor])
        if got != want:
            failures.append(f"dispreferred set {seed}: {got} != {want}")
        if got != select_dispreferred(pool, texts[anchor]):
            failures.append(f"dispreferred set {seed}: not deterministic")
    _verdict(5, "selector equivalence", failures)


def test_criterion_6_end_to_end_offline(tmp_path, monkeypatch):
    failures: list[str] = []

    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(socket, "socket", no_network)

    problems_f = tmp_path / "problems.jsonl"
    paths_f = tmp_path / "paths.jsonl"
    sft_f = tmp_path / "sft.jsonl"
    dpo_f = tmp_path / "dpo.jsonl"
    report_d = tmp_path / "report"
    if cli_main(["generate", "--count", "10", "--seed", "6",
                 "--split", "test", "--out", str(problems_f)]) != 0:
        failures.append("generate stage failed")
    if cli_main(["annotate", "--problems", str(problems_f),
                 "--backend", "stub", "--stub-error-rate", "0.4",
                 "--seed", "6", "--out", str(paths_f)]) != 0:
        failures.append("annotate stage failed")
    if cli_main(["select", "--problems", str(problems_f),
                 "--paths", str(paths_f), "--seed", "6",
                 "--out", str(sft_f)]) != 0:
        failures.append("select stage failed")
    if cli_main(["dpo", "--problems", str(problems_f),
                 "--paths", str(paths_f), "--out", str(dpo_f)]) != 0:
        failures.append("dpo stage failed")
    if cli_main(["evaluate", "--problems", str(problems_f),
                 "--backend", "stub", "--seed", "6",
                 "--out", str(report_d)]) != 0:
        failures.append("evaluate stage failed")
    if failures:
        _verdict(6, "end to end offline", failures)

    problems = read_problems(str(problems_f))
    if len(problems) != 10 * len(TASK_ORDER):
        failures.append(f"{len(problems)} problems generated")
    by_id = {p.id: p for p in problems}

    wrong: dict[str, int] = dict.fromkeys(TASK_ORDER, 0)
    for rec in read_jsonl(str(paths_f), PATHS_SCHEMA):
        problem = by_id[rec["id"]]
        for text in rec["texts"]:
            if not judge(problem, text).correct:
                wrong[problem.task] += 1
    pairs: dict[str, int] = dict.fromkeys(TASK_ORDER, 0)
    for row in read_jsonl(str(dpo_f), DPO_SCHEMA):
        pairs[row["task"]] += 1
    for task in TASK_ORDER:
        if wrong[task] and not pairs[task]:
            failures.append(f"{task}: {wrong[task]} wrong paths, no pair")

    report = json.loads((report_d / "report.json").read_text())
    low = [t for t, row in report["tasks"].items()
           if row["accuracy"] != 1.0]
    if low:
        failures.append(f"ground-truth eval below 100% for {low}")

    binary = [t for t in TASK_ORDER if TASKS[t].answer_kind == "yes_no"]
    flipped = {p.id: make_transcript(p, correct=False, rng=random.Random(0))
               for p in problems if p.task in binary}
    scored = evaluate([p for p in problems if p.task in binary], flipped)
    high = [t for t, row in scored["tasks"].items()
            if row["accuracy"] != 0.0]
    if high:
        failures.append(f"flipped labels scored above 0% for {high}")
    _verdict(6, "end to end offline", failures)


def test_criterion_7_round_trips(default_test_corpus, tmp_path):
    corpus, _ = default_test_corpus
    failures: list[str] = []
    rng = random.Random("round-trip")
    sample = rng.sample(corpus, 1000)
    for p in sample:
        q = parse_problem(p.text)
        if q.task != p.task:
            failures.append(f"{p.id}: task changed")
        elif q.graph != p.graph:
            failures.append(f"{p.id}: graph changed")
        elif q.query != p.query:
            failures.append(f"{p.id}: query changed")
    path = tmp_path / "round.jsonl"
    write_problems(str(path), sample)
    back = read_problems(str(path))
    before = [problem_to_record(p) for p in sample]
    after = [problem_to_record(p) for p in back]
    if before != after:
        failures.append("JSONL round trip changed records")
    _verdict(7, "round trips", failures)


def test_criterion_8_topology_grading_complete():
    failures: list[str] = []
    for seed in range(100):
        rng = random.Random(f"topo:{seed}")
        n = rng.randint(2, 7)
        g = generate_dag(n, rng.choice((0.3, 0.5, 0.7)), seed=seed)
        problem = Problem("t", "topology", g, {},
                          answer=solve("topology", g))
        valid = oracle_topo_orders(g)
        graded = set()
        for perm in itertools.permutations(range(n)):
            text = f"### [{', '.join(map(str, perm))}]"
            if judge(problem, text).correct:
                graded.add(perm)
        if graded != valid:
            extra = len(graded - valid)
            missed = len(valid - graded)
            failures.append(
                f"dag {seed}: {extra} extra, {missed} missed")
    _verdict(8, "topology grading completeness", failures)
