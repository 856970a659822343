import gc
import json
import os
import tracemalloc

import pytest

from graphcorpus.corpus import (DPO_SCHEMA, PATHS_SCHEMA, PREDICTIONS_SCHEMA,
                                PROBLEMS_SCHEMA, SFT_SCHEMA,
                                assemble_dpo, assemble_sft, compute_stats,
                                format_stats, graph_to_dict, problem_to_record,
                                read_jsonl, read_problems, record_to_problem,
                                write_jsonl, write_problems)
from graphcorpus.errors import (GraphKindError, InvalidQueryError,
                               InvalidSpecError, RecordError, SchemaError)
from graphcorpus import generate
from graphcorpus.generate import generate_corpus, generate_task
from graphcorpus.graphs import Graph
from graphcorpus.solvers import (Answer, find_subgraph, max_triangle_sum,
                                 shortest_path, topo_sort)
from graphcorpus.tasks import TASK_ORDER
from graphcorpus.textgen import Problem, render_problem

from oracles import solve
from textparse import problem_signature


def _make(task, g, query=None, pid="p0", tier=None, seed=7):
    query = query or {}
    return Problem(pid, task, g, query, answer=solve(task, g, query),
                   tier=tier, seed=seed, text=render_problem(task, g, query))


# ---------------------------------------------------------------------------
# record shape
# ---------------------------------------------------------------------------

def test_problem_record_shape_and_key_order():
    p = _make("cycle", Graph(3, False, [(0, 1), (1, 2), (0, 2)]),
              tier={"n": 3, "p": 0.5, "difficulty": "easy"})
    rec = problem_to_record(p)
    assert list(rec) == ["schema", "id", "task", "graph", "query", "answer",
                         "tier", "seed", "text"]
    assert rec["schema"] == PROBLEMS_SCHEMA
    assert rec["graph"] == {"num_nodes": 3, "directed": False,
                            "edges": [[0, 1], [1, 2], [0, 2]]}
    assert rec["answer"]["kind"] == "yes_no" and rec["answer"]["value"] is True
    assert rec["tier"] == {"n": 3, "p": 0.5, "difficulty": "easy"}
    assert rec["seed"] == 7
    json.dumps(rec)       # JSON-safe with no custom encoder


def test_problem_record_requires_ground_truth():
    p = Problem("q", "cycle", Graph(2, False, []), {}, text="t")
    with pytest.raises(RecordError):
        problem_to_record(p)


def test_subgraph_witness_serializes_as_pairs():
    host = Graph(3, True, [(0, 1), (1, 2)])
    pattern = Graph(2, True, [(0, 1)])
    p = _make("subgraph", host, {"pattern": pattern})
    rec = problem_to_record(p)
    witness = rec["answer"]["witness"]
    assert witness == sorted(witness) == p.answer.witness
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in witness)
    back = record_to_problem(rec)
    assert back.answer.witness == p.answer.witness
    assert back.query["pattern"] == pattern


def test_node_weights_survive_serialization():
    g = Graph(3, False, [(0, 1), (1, 2), (0, 2)], node_weights=[4, 5, 6])
    rec = problem_to_record(_make("triangle", g))
    assert rec["graph"]["node_weights"] == [4, 5, 6]
    assert record_to_problem(rec).graph == g


def test_record_round_trip_is_identity():
    tasks = {
        "cycle": _make("cycle", Graph(3, False, [(0, 1), (1, 2), (0, 2)])),
        "bipartite": _make("bipartite", Graph(3, True, [(0, 1), (1, 2),
                                                        (2, 0)])),
        "shortest": _make("shortest", Graph(3, False, [(0, 1, 2), (1, 2, 3)]),
                          {"u": 0, "v": 2}),
        "topology": _make("topology", Graph(3, True, [(0, 1), (1, 2)])),
    }
    for task, p in tasks.items():
        rec = problem_to_record(p)
        again = problem_to_record(record_to_problem(rec))
        assert rec == again, task


def test_problems_read_back_equal_to_those_written(monkeypatch, tmp_path):
    # a test split of every task, and test_generate's all-transform corpus
    # (each attempt forces its label), so each yes/no task has both labels
    problems = generate_corpus(TASK_ORDER, 4, seed=3, split="test",
                               dedupe_keys=set())
    monkeypatch.setattr(generate, "REJECTION_ATTEMPTS", 0)
    seen: set[str] = set()
    for task in TASK_ORDER:
        problems += generate_task(task, 20, seed=1, split="forced", seen=seen)
    for task in ("bipartite", "subgraph"):
        assert {p.answer.value for p in problems if p.task == task} == {
            True, False}
    for p in problems:
        assert record_to_problem(problem_to_record(p)) == p, p.id
    path = str(tmp_path / "problems.jsonl")
    write_problems(path, problems)
    assert read_problems(path) == problems


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_jsonl_read_write_identity(tmp_path):
    path = str(tmp_path / "x.jsonl")
    records = [{"schema": "t-v1", "id": f"r{i}", "payload": [i, {"k": i}]}
               for i in range(5)]
    assert write_jsonl(path, records) == 5
    assert read_jsonl(path, "t-v1") == records


def test_jsonl_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "t-v1"}\nnot json\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(bad), "t-v1")
    assert "line 2" in str(err.value)

    array = tmp_path / "arr.jsonl"
    array.write_text('[1, 2, 3]\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(array), "t-v1")
    assert "not an object" in str(err.value)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"schema": "t-v1"}\n{"schema": "u-v9"}\n',
                     encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(wrong), "t-v1")
    assert "line 2" in str(err.value) and "u-v9" in str(err.value)


def test_jsonl_rejects_missing_or_mistyped_fields(tmp_path):
    problem = problem_to_record(generate_task("cycle", 1, seed=5, split="io",
                                              seen=set())[0])
    no_query = {k: v for k, v in problem.items() if k != "query"}
    paths = {"schema": PATHS_SCHEMA, "id": "p0", "texts": ["a"]}
    prediction = {"schema": PREDICTIONS_SCHEMA, "id": "p0", "text": "a"}
    cases = [
        (paths, dict(paths, texts="abc"),
         "'texts' is missing or not a list of strings"),
        (paths, dict(paths, texts=["a", 1]),
         "'texts' is missing or not a list of strings"),
        (problem, no_query, "'query' is missing or not an object"),
        (prediction, {"schema": PREDICTIONS_SCHEMA, "id": "p0"},
         "'text' is missing or not a string"),
    ]
    path = tmp_path / "bad.jsonl"
    for good, rec, message in cases:
        schema = good["schema"]
        path.write_text(json.dumps(good) + "\n" + json.dumps(rec) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_problems(str(path)) if schema == PROBLEMS_SCHEMA \
                else read_jsonl(str(path), schema)
        assert str(err.value).startswith(f"line 2: {path}: record ")
        assert message in str(err.value)


def test_read_problems_rejects_malformed_nested_fields(tmp_path):
    rec = problem_to_record(generate_task("cycle", 1, seed=5, split="io",
                                          seen=set())[0])
    no_edges = dict(rec, graph={k: v for k, v in rec["graph"].items()
                                if k != "edges"})
    no_kind = dict(rec, answer={k: v for k, v in rec["answer"].items()
                                if k != "kind"})
    int_edges = dict(rec, graph=dict(rec["graph"], edges=3))
    path = tmp_path / "bad.jsonl"
    for bad, message in ((no_edges, "KeyError: 'edges'"),
                         (no_kind, "KeyError: 'kind'"),
                         (int_edges, "TypeError: ")):
        path.write_text(json.dumps(rec) + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(SchemaError) as err:
            read_problems(str(path))
        assert str(err.value).startswith(f"{path}: record {rec['id']!r}: ")
        assert message in str(err.value)


@pytest.mark.parametrize("weights", [None, 5, "12", {"0": 1}])
def test_read_problems_refuses_node_weights_that_are_no_list(tmp_path,
                                                            weights):
    # a graph without node weights has no "node_weights" key; null is
    # not that
    rec = problem_to_record(generate_task("cycle", 1, seed=5, split="io",
                                          seen=set())[0])
    rec["graph"]["node_weights"] = weights
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="TypeError: graph 'node_weights' "
                                          "is not a list of integers"):
        read_problems(str(path))


def test_read_problems_reports_the_first_bad_record(tmp_path):
    recs = [problem_to_record(p)
            for p in generate_task("cycle", 3, seed=5, split="io", seen=set())]
    no_kind = dict(recs[1], answer={k: v for k, v in recs[1]["answer"].items()
                                    if k != "kind"})
    path = tmp_path / "bad.jsonl"
    # a record that does not convert stops the read before a later line
    # that is not JSON is parsed
    path.write_text(json.dumps(recs[0]) + "\n" + json.dumps(no_kind)
                    + "\nnot json\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_problems(str(path))
    assert str(err.value) == (f"{path}: record {recs[1]['id']!r}: "
                              "KeyError: 'kind'")
    # a repeated id stops the read at its second record, before a later
    # record that does not convert
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in (recs[0], recs[1], recs[0], no_kind)),
                    encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_problems(str(path))
    assert str(err.value) == f"{path}: record {recs[0]['id']!r}: repeated id"


def test_read_problems_never_holds_every_raw_record(tmp_path):
    path = str(tmp_path / "problems.jsonl")
    write_problems(path, generate_corpus(TASK_ORDER, 5, seed=5, split="test",
                                         dedupe_keys=set()))
    read_problems(path)         # first-use allocations are not the read's
    gc.collect()
    tracemalloc.start()
    try:
        problems = read_problems(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(problems) == 45
    # the whole file's records held at once would peak near twice the keep
    assert peak <= 1.3 * kept


def test_write_jsonl_failing_part_way_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(str(path), [{"schema": "t-v1", "id": "old"}])
    before = path.read_bytes()

    def records():
        yield {"schema": "t-v1", "id": "new0"}
        raise RuntimeError("killed part way")

    with pytest.raises(RuntimeError):
        write_jsonl(str(path), records())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.jsonl"]


def test_problems_file_round_trip(tmp_path):
    problems = generate_corpus(["cycle", "shortest", "subgraph"], 4, seed=5,
                               split="io", dedupe_keys=set())
    path = str(tmp_path / "problems.jsonl")
    assert write_problems(path, problems) == 12
    loaded = read_problems(path)
    assert [problem_to_record(p) for p in loaded] == \
        [problem_to_record(p) for p in problems]


@pytest.mark.parametrize("task, graph, query, solver", [
    ("topology", Graph(3, True, [(0, 1), (1, 2), (2, 0)]), {}, topo_sort),
    ("shortest", Graph(4, False, [(0, 1, 2), (2, 3, 5)]), {"u": 0, "v": 3},
     shortest_path),
    ("triangle", Graph(4, False, [(0, 1), (1, 2), (2, 3)],
                       node_weights=[1, 2, 3, 4]), {}, max_triangle_sum),
], ids=["topo_sort", "shortest_path", "max_triangle_sum"])
def test_write_refuses_an_answer_the_reader_refuses(tmp_path, task, graph,
                                                    query, solver):
    answer = solver(graph, **query)
    assert answer.kind == "none_exists"
    problem = Problem("p0", task, graph, query, answer=answer,
                      text=render_problem(task, graph, query))
    path = tmp_path / "problems.jsonl"
    with pytest.raises(InvalidSpecError) as written:
        write_problems(str(path), [problem])
    assert not path.exists() and list(tmp_path.iterdir()) == []
    # the same record, written past the check, fails to read with the
    # message the writer gave
    record = {"schema": PROBLEMS_SCHEMA, "id": "p0", "task": task,
              "graph": graph_to_dict(graph), "query": query,
              "answer": {"kind": "none_exists", "value": None,
                         "witness": None},
              "tier": None, "seed": None, "text": problem.text}
    write_jsonl(str(path), [record])
    with pytest.raises(SchemaError) as read:
        read_problems(str(path))
    assert str(written.value) in str(read.value)
    assert "is not" in str(written.value)


HOST = Graph(3, True, [(0, 1)])


@pytest.mark.parametrize("task, graph, query, answer, error", [
    ("connect", Graph(3, False, [(0, 1)]), {"u": 0, "v": 7},
     Answer("yes_no", False), InvalidQueryError),
    ("cycle", Graph(3, False, [(0, 1)]), {},
     Answer("yes_no", False, witness=[0, 5]), InvalidSpecError),
    ("subgraph", HOST, {"pattern": Graph(2, False, [(0, 1)])},
     Answer("yes_no", False), GraphKindError),
    ("subgraph", HOST, {"pattern": Graph(4, True, [(0, 1)])},
     Answer("yes_no", False), InvalidQueryError),
], ids=["query-node-outside", "witness-node-outside", "undirected-pattern",
        "pattern-larger-than-host"])
def test_write_and_read_refuse_the_same_record(tmp_path, task, graph, query,
                                               answer, error):
    problem = Problem("p0", task, graph, query, answer=answer, text="t")
    path = tmp_path / "problems.jsonl"
    with pytest.raises(error) as written:
        write_problems(str(path), [problem])
    assert list(tmp_path.iterdir()) == []
    record = {"schema": PROBLEMS_SCHEMA, "id": "p0", "task": task,
              "graph": graph_to_dict(graph),
              "query": {k: graph_to_dict(v) if isinstance(v, Graph) else v
                        for k, v in query.items()},
              "answer": {"kind": answer.kind, "value": answer.value,
                         "witness": answer.witness},
              "tier": None, "seed": None, "text": "t"}
    write_jsonl(str(path), [record])
    with pytest.raises(SchemaError) as read:
        read_problems(str(path))
    assert str(written.value) in str(read.value)


@pytest.mark.parametrize("ids, message, line", [
    (["p0", "p0"], "record 'p0': repeated id", ""),
    ([7], "record 7: 'id' is missing or not a string", "line 1: "),
], ids=["repeated-id", "id-not-a-string"])
def test_write_refuses_the_ids_the_reader_refuses(tmp_path, ids, message,
                                                  line):
    problem = generate_task("cycle", 1, seed=5, split="io", seen=set())[0]
    problems = [problem._replace(id=i) for i in ids]
    path = tmp_path / "problems.jsonl"
    with pytest.raises(SchemaError) as written:
        write_problems(str(path), problems)
    assert str(written.value) == f"{path}: {message}"
    assert list(tmp_path.iterdir()) == []
    # the same records, written past the check, fail to read with the
    # message the writer gave, after the line number of a field error
    write_jsonl(str(path), [problem_to_record(p) for p in problems])
    with pytest.raises(SchemaError) as read:
        read_problems(str(path))
    assert str(read.value) == line + str(written.value)


@pytest.mark.parametrize("pattern, error", [
    (Graph(2, False, [(0, 1)]), GraphKindError),
    (Graph(4, True, [(0, 1)]), InvalidQueryError),
], ids=["undirected", "larger-than-host"])
def test_reader_refuses_the_patterns_the_solver_refuses(pattern, error):
    with pytest.raises(error) as solved:
        find_subgraph(HOST, pattern)
    record = {"schema": PROBLEMS_SCHEMA, "id": "p0", "task": "subgraph",
              "graph": graph_to_dict(HOST),
              "query": {"pattern": graph_to_dict(pattern)},
              "answer": {"kind": "yes_no", "value": False, "witness": None},
              "text": "t"}
    with pytest.raises(error) as read:
        record_to_problem(record)
    assert str(read.value) == str(solved.value)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def test_signature_ignores_edge_order():
    a = _make("cycle", Graph(3, False, [(0, 1), (1, 2)]))
    b = _make("cycle", Graph(3, False, [(1, 2), (0, 1)]))
    assert problem_signature(a) == problem_signature(b)


def test_signature_separates_task_query_and_pattern():
    g = Graph(3, False, [(0, 1), (1, 2)])
    dg = Graph(3, True, [(0, 1), (1, 2)])
    sigs = {
        problem_signature(_make("cycle", g)),
        problem_signature(_make("hamilton", g)),
        problem_signature(_make("connect", g, {"u": 0, "v": 2})),
        problem_signature(_make("connect", g, {"u": 0, "v": 1})),
        problem_signature(_make("subgraph", dg,
                                {"pattern": Graph(2, True, [(0, 1)])})),
        problem_signature(_make("subgraph", dg,
                                {"pattern": Graph(2, True, [])})),
    }
    assert len(sigs) == 6


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

@pytest.fixture()
def cycle_problems():
    return generate_task("cycle", 4, seed=2, split="asm", seen=set())


def _truth_text(p):
    return "### Yes." if p.answer.value else "### No."


def _wrong_text(p):
    return "### No." if p.answer.value else "### Yes."


def _dpo_rows(problems, paths, **kwargs):
    return [row for p in problems if p.id in paths
            and (row := assemble_dpo(p, paths[p.id], **kwargs))]


def test_assemble_sft_rows(cycle_problems):
    rows = [row for p in cycle_problems[:2] for row in assemble_sft(
        p, [_truth_text(p), _truth_text(p) + " indeed."])]
    assert len(rows) == 4
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
    first = rows[0]
    assert first["schema"] == SFT_SCHEMA
    assert first["id"] == f"{first['meta']['source_id']}#0"
    assert first["instruction"] == cycle_problems[0].text
    assert first["meta"]["path_index"] == 0


def test_assemble_sft_rejects_bad_rows(cycle_problems):
    # paths of no known problem fail when the paths file is read: see
    # test_cli.py::test_orphan_paths_fail_before_any_grading
    p = cycle_problems[0]
    with pytest.raises(RecordError) as err:
        assemble_sft(p, [_truth_text(p), _wrong_text(p)])
    assert p.id in str(err.value) and "path 1" in str(err.value)


def test_assemble_dpo_rows(cycle_problems):
    p0, p1, p2 = cycle_problems[:3]
    paths = {
        p0.id: [_truth_text(p0) + " because of the loop", _wrong_text(p0),
                _truth_text(p0)],
        p1.id: [_truth_text(p1), _truth_text(p1)],      # no wrong side
        p2.id: [_wrong_text(p2)],                       # no right side
    }
    rows = _dpo_rows(cycle_problems, paths, beta=0.25)
    assert len(rows) == 1
    row = rows[0]
    assert row["schema"] == DPO_SCHEMA and row["id"] == p0.id
    assert row["chosen"].startswith("###")
    assert row["meta"] == {"num_correct": 2, "num_incorrect": 1,
                           "beta": 0.25}


@pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
def test_assemble_dpo_rejects_beta_that_is_not_positive_and_finite(
        cycle_problems, beta):
    # an infinite beta would be written as the bare token Infinity, not JSON
    p = cycle_problems[0]
    with pytest.raises(InvalidSpecError, match="^beta must be positive"):
        assemble_dpo(p, [_truth_text(p), _wrong_text(p)], beta=beta)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_compute_stats_counts():
    problems = [
        _make("cycle", Graph(3, False, [(0, 1), (1, 2), (0, 2)]), pid="a"),
        _make("cycle", Graph(5, False, [(0, 1)]), pid="b"),
        _make("topology", Graph(2, True, [(0, 1)]), pid="c"),
    ]
    sft = [{"task": "cycle"}, {"task": "cycle"}, {"task": "topology"}]
    stats = compute_stats(problems, sft)
    assert stats["tasks"]["cycle"] == {
        "problems": 2, "avg_nodes": 4.0, "avg_edges": 2.0, "paths": 2}
    assert stats["tasks"]["topology"]["problems"] == 1
    assert stats["tasks"]["flow"]["problems"] == 0
    assert stats["total_problems"] == 3 and stats["total_paths"] == 3


def test_compute_stats_rejects_unknown_task():
    p = Problem("x", "maze", Graph(2, False, []), {},
                answer=Answer("yes_no", True), text="t")
    with pytest.raises(RecordError):
        compute_stats([p], sft_rows=None)


def test_format_stats_table():
    problems = [_make("cycle", Graph(3, False, [(0, 1)]), pid="a")]
    table = format_stats(compute_stats(problems, sft_rows=None))
    lines = table.splitlines()
    assert lines[0].split() == ["task", "problems", "avg", "nodes",
                                "avg", "edges", "paths"]
    assert any(line.startswith("cycle") for line in lines)
    assert lines[-1].startswith("sum")
    assert "1" in lines[-1]
