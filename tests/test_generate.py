import ast
import random
from pathlib import Path

import pytest

from graphcorpus import generate, grader, textgen, transcripts
from graphcorpus.corpus import problem_to_record
from graphcorpus.errors import InvalidSpecError, StageError
from graphcorpus.generate import (attempt_seed, generate_corpus,
                                  generate_task)
from graphcorpus.grader import judge
from graphcorpus.graphs import canonical_key, validate_graph
from graphcorpus.tasks import (DENSITIES, DENSITIES_DIRECTED, TASK_ORDER,
                               TASKS, build_tiers)
from graphcorpus.textgen import render_problem
from graphcorpus.transcripts import make_transcript

import textparse
import oracles
from oracles import NODE_LIMIT, OracleLimitError, oracle_solve, solve
from textparse import parse_problem

BINARY = [t for t in TASK_ORDER if TASKS[t].answer_kind == "yes_no"]


def test_every_task_table_covers_exactly_the_task_order():
    assert list(TASKS) == TASK_ORDER
    for table in (generate._BUILDERS, oracles.SOLVE, textgen.TEMPLATES,
                  grader._RULES, transcripts._NARRATIONS,
                  dict(textparse._QUESTIONS)):
        assert list(table) == TASK_ORDER


def test_task_behaviour_is_looked_up_not_compared_by_name():
    # per-task behaviour lives in task-keyed tables; corpus.py keeps the one
    # subgraph record form and is the only module that may test a task name
    src = Path(generate.__file__).parent
    hits = []
    for path in sorted(src.glob("*.py")):
        if path.name == "corpus.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            for op, left, right in zip(node.ops, [node.left] + node.comparators,
                                       node.comparators):
                if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
                    continue
                literals = [left, right] + [
                    e for side in (left, right)
                    if isinstance(side, (ast.Tuple, ast.List, ast.Set))
                    for e in side.elts]
                if any(isinstance(x, ast.Constant) and x.value in TASKS
                       for x in literals):
                    hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_tiers_partition_the_node_range():
    for task in TASK_ORDER:
        info = TASKS[task]
        tiers = build_tiers(info)
        assert len(tiers) == 5
        lo, hi = info.node_range
        assert tiers[0].lo == lo and tiers[-1].hi == hi
        for a, b in zip(tiers, tiers[1:]):
            assert b.lo == a.hi + 1
        cycle = DENSITIES_DIRECTED if info.directed else DENSITIES
        assert [t.p for t in tiers] == [cycle[i % 3] for i in range(5)]


def test_attempt_seed_is_a_pure_function():
    a = attempt_seed(1, "train", "cycle", 4, 2)
    assert a == attempt_seed(1, "train", "cycle", 4, 2)
    others = {attempt_seed(2, "train", "cycle", 4, 2),
              attempt_seed(1, "test", "cycle", 4, 2),
              attempt_seed(1, "train", "flow", 4, 2),
              attempt_seed(1, "train", "cycle", 5, 2),
              attempt_seed(1, "train", "cycle", 4, 3)}
    assert a not in others and len(others) == 5


def test_generation_is_deterministic():
    a = generate_task("shortest", 6, seed=9, split="det")
    b = generate_task("shortest", 6, seed=9, split="det")
    c = generate_task("shortest", 6, seed=10, split="det")
    assert [problem_to_record(p) for p in a] == [problem_to_record(p) for p in b]
    assert [problem_to_record(p) for p in a] != [problem_to_record(p) for p in c]


@pytest.mark.parametrize("task", BINARY)
def test_binary_labels_alternate(task):
    problems = generate_task(task, 10, seed=3, split="bal")
    labels = [p.answer.value for p in problems]
    assert labels == [True, False] * 5


@pytest.mark.parametrize("task", TASK_ORDER)
def test_generated_problems_are_well_formed(task):
    info = TASKS[task]
    problems = generate_task(task, 10, seed=1, split="shape")
    assert [p.id for p in problems] == [f"{task}-shape-{i}" for i in range(10)]
    tiers = build_tiers(info)
    for slot, p in enumerate(problems):
        validate_graph(p.graph)
        assert p.graph.directed == info.directed
        lo, hi = info.node_range
        assert lo <= p.graph.num_nodes <= hi
        tier = tiers[slot % 5]
        assert p.graph.num_nodes <= tier.hi
        assert p.tier == {"n": p.graph.num_nodes, "p": tier.p,
                          "difficulty": info.difficulty}
        assert p.text == render_problem(task, p.graph, p.query)
        parsed = parse_problem(p.text)
        assert parsed.task == task and parsed.graph == p.graph
        assert p.seed is not None and p.answer is not None


@pytest.mark.parametrize("task", TASK_ORDER)
def test_stored_answers_are_true(task):
    rng = random.Random(0)
    for p in generate_task(task, 10, seed=4, split="truth"):
        # a transcript written from the stored answer must grade correct
        assert judge(p, make_transcript(p, correct=True, rng=rng)).correct, p.id
        if TASKS[task].answer_kind == "yes_no":
            wrong = make_transcript(p, correct=False, rng=rng)
            assert not judge(p, wrong).correct, p.id
        if p.graph.num_nodes <= 12 and task != "topology":
            fresh = solve(task, p.graph, p.query)
            assert fresh.value == p.answer.value, p.id
        if p.graph.num_nodes <= NODE_LIMIT:
            try:
                expected = oracle_solve(task, p.graph, p.query)
            except OracleLimitError:
                continue
            if task == "topology":
                assert (tuple(p.answer.value) in expected) == bool(expected)
            elif TASKS[task].answer_kind == "numeric":
                got = None if p.answer.kind == "none_exists" else p.answer.value
                assert got == expected, p.id
            else:
                assert p.answer.value == expected, p.id


def test_graphs_are_unique_and_dedupe_is_shared():
    first = generate_task("cycle", 8, seed=0, split="dd")
    keys = {canonical_key(p.graph) for p in first}
    assert len(keys) == 8
    second = generate_task("cycle", 8, seed=0, split="dd", seen=set(keys))
    assert keys.isdisjoint(canonical_key(p.graph) for p in second)


def test_generate_corpus_shares_keys_across_tasks():
    problems = generate_corpus(["cycle", "hamilton"], 6, seed=2, split="mix")
    assert len(problems) == 12
    keys = [canonical_key(p.graph) for p in problems]
    assert len(set(keys)) == 12
    pre = {canonical_key(p.graph) for p in problems if p.task == "cycle"}
    shared = set(pre)
    rerun = generate_corpus(["hamilton"], 6, seed=2, split="mix",
                            dedupe_keys=shared)
    assert pre.isdisjoint(canonical_key(p.graph) for p in rerun)
    # the caller's key set accumulates what the run accepted
    assert shared == pre | {canonical_key(p.graph) for p in rerun}


def test_generate_corpus_defaults_to_all_tasks():
    problems = generate_corpus(None, 1, seed=6, split="all")
    assert [p.task for p in problems] == TASK_ORDER


def test_token_budget_is_enforced(monkeypatch):
    # only the first tier's graphs can fit in 60 tokens, so stay at count=1
    from graphcorpus import generate
    from graphcorpus.textgen import estimate_tokens
    monkeypatch.setattr(generate, "TOKEN_BUDGET", 60)
    problems = generate_task("cycle", 1, seed=5, split="tok")
    assert all(estimate_tokens(p.text) <= 60 for p in problems)
    monkeypatch.setattr(generate, "TOKEN_BUDGET", 5)
    monkeypatch.setattr(generate, "MAX_ATTEMPTS", 30)
    with pytest.raises(StageError) as err:
        generate_task("cycle", 1, seed=5, split="tok")
    assert "cycle slot 0" in str(err.value)
    assert "in 30 attempts" in str(err.value)


def test_count_validation():
    assert generate_task("cycle", 0, seed=0) == []
    with pytest.raises(InvalidSpecError):
        generate_task("cycle", -1, seed=0)
    with pytest.raises(InvalidSpecError):
        generate_task("sudoku", 1, seed=0)
