import json
import os

import pytest

from graphcorpus.corpus import (DPO_SCHEMA, PATHS_SCHEMA, PREDICTIONS_SCHEMA,
                                PROBLEMS_SCHEMA, SFT_SCHEMA,
                                assemble_dpo, assemble_sft, compute_stats,
                                format_stats, problem_to_record, read_jsonl,
                                read_problems, record_to_problem, write_jsonl,
                                write_problems)
from graphcorpus.errors import RecordError, SchemaError
from graphcorpus.generate import generate_corpus, generate_task
from graphcorpus.graphs import Graph
from graphcorpus.solvers import Answer
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
    assert witness == sorted(witness)
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in witness)
    back = record_to_problem(rec)
    assert back.answer.witness == dict(p.answer.witness)
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


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_jsonl_read_write_identity(tmp_path):
    path = str(tmp_path / "x.jsonl")
    records = [{"schema": "t-v1", "id": f"r{i}", "payload": [i, {"k": i}]}
               for i in range(5)]
    assert write_jsonl(path, records) == 5
    assert read_jsonl(path) == records
    assert read_jsonl(path, "t-v1") == records


def test_jsonl_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "t-v1"}\nnot json\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(bad))
    assert "line 2" in str(err.value)

    array = tmp_path / "arr.jsonl"
    array.write_text('[1, 2, 3]\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(array))
    assert "not an object" in str(err.value)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"schema": "t-v1"}\n{"schema": "u-v9"}\n',
                     encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        read_jsonl(str(wrong), "t-v1")
    assert "line 2" in str(err.value) and "u-v9" in str(err.value)


def test_jsonl_rejects_missing_or_mistyped_fields(tmp_path):
    problem = problem_to_record(generate_task("cycle", 1, seed=5, split="io")[0])
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
    rec = problem_to_record(generate_task("cycle", 1, seed=5, split="io")[0])
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
                               split="io")
    path = str(tmp_path / "problems.jsonl")
    assert write_problems(path, problems) == 12
    loaded = read_problems(path)
    assert [problem_to_record(p) for p in loaded] == \
        [problem_to_record(p) for p in problems]


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
    return generate_task("cycle", 4, seed=2, split="asm")


def _truth_text(p):
    return "### Yes." if p.answer.value else "### No."


def _wrong_text(p):
    return "### No." if p.answer.value else "### Yes."


def test_assemble_sft_rows(cycle_problems):
    selected = {p.id: [_truth_text(p), _truth_text(p) + " indeed."]
                for p in cycle_problems[:2]}
    rows = assemble_sft(cycle_problems, selected)
    assert len(rows) == 4
    assert [r["id"] for r in rows] == sorted(r["id"] for r in rows)
    first = rows[0]
    assert first["schema"] == SFT_SCHEMA
    assert first["id"] == f"{first['meta']['source_id']}#0"
    assert first["instruction"] == cycle_problems[0].text
    assert first["meta"]["path_index"] == 0


def test_assemble_sft_rejects_bad_rows(cycle_problems):
    with pytest.raises(RecordError) as err:
        assemble_sft(cycle_problems, {"ghost": ["### Yes."]})
    assert "ghost" in str(err.value)
    p = cycle_problems[0]
    with pytest.raises(RecordError) as err:
        assemble_sft(cycle_problems, {p.id: [_truth_text(p), _wrong_text(p)]})
    assert p.id in str(err.value) and "path 1" in str(err.value)


def test_assemble_dpo_rows(cycle_problems):
    p0, p1, p2 = cycle_problems[:3]
    paths = {
        p0.id: [_truth_text(p0) + " because of the loop", _wrong_text(p0),
                _truth_text(p0)],
        p1.id: [_truth_text(p1), _truth_text(p1)],      # no wrong side
        p2.id: [_wrong_text(p2)],                       # no right side
    }
    rows = assemble_dpo(cycle_problems, paths, beta=0.25)
    assert len(rows) == 1
    row = rows[0]
    assert row["schema"] == DPO_SCHEMA and row["id"] == p0.id
    assert row["chosen"].startswith("###")
    assert row["meta"] == {"num_correct": 2, "num_incorrect": 1,
                           "beta": 0.25}
    no_beta = assemble_dpo(cycle_problems, paths)
    assert "beta" not in no_beta[0]["meta"]


def test_assemble_dpo_rejects_unknown_problem(cycle_problems):
    with pytest.raises(RecordError):
        assemble_dpo(cycle_problems, {"ghost": ["### Yes."]})


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
        compute_stats([p])


def test_format_stats_table():
    problems = [_make("cycle", Graph(3, False, [(0, 1)]), pid="a")]
    table = format_stats(compute_stats(problems))
    lines = table.splitlines()
    assert lines[0].split() == ["task", "problems", "avg", "nodes",
                                "avg", "edges", "paths"]
    assert any(line.startswith("cycle") for line in lines)
    assert lines[-1].startswith("sum")
    assert "1" in lines[-1]
