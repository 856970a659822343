"""Record schemas and corpus assembly.

All files are JSONL with a leading "schema" field per record:

  problems-v1     graph problems with ground truth
  paths-v1        sampled reasoning paths, keyed by problem id
  sft-v1          instruction/output training rows
  dpo-v1          instruction/chosen/rejected preference rows
  predictions-v1  model outputs keyed by problem id
  audit-v1        step violations of paths, keyed by problem id and path

A witness has one shape, in memory and on disk: its task's
`TaskInfo.witness`. Besides the graph, only a subgraph query's pattern has
a record form of its own, a graph dict; only problem_to_record and
record_to_problem know it.

Assembly builds the rows of one problem at a time; the caller joins paths
to problems and orders the problems. It re-checks everything it writes: an
SFT row whose output grades incorrect, or a DPO row whose sides grade the
same way, is a RecordError, not a warning.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from string import Formatter
from typing import Any, Iterable, Iterator

from .config import has_type
from .errors import InvalidQueryError, InvalidSpecError, RecordError, SchemaError
from .graphs import Graph, validate_graph
from .selector import SELECTOR_VERSION, build_dpo_pair
from .tasks import TASK_ORDER, require_kind, require_pattern
from .textgen import Answer, Problem
from .grader import judge

PROBLEMS_SCHEMA = "problems-v1"
PATHS_SCHEMA = "paths-v1"
SFT_SCHEMA = "sft-v1"
DPO_SCHEMA = "dpo-v1"
PREDICTIONS_SCHEMA = "predictions-v1"
AUDIT_SCHEMA = "audit-v1"

# The fields each schema's readers use, their types and how errors name
# them: iter_jsonl rejects a record that lacks one or holds the wrong type.
_STR, _OBJ = (str, "a string"), (dict, "an object")
_FIELDS = {PROBLEMS_SCHEMA: {"id": _STR, "task": _STR, "graph": _OBJ,
                             "query": _OBJ, "answer": _OBJ, "text": _STR},
           PATHS_SCHEMA: {"id": _STR, "texts": (list[str], "a list of strings")},
           SFT_SCHEMA: {"task": _STR},
           PREDICTIONS_SCHEMA: {"id": _STR, "text": _STR}}


def graph_to_dict(g: Graph) -> dict:
    out: dict[str, Any] = {
        "num_nodes": g.num_nodes,
        "directed": g.directed,
        "edges": [list(e) for e in g.edges],
    }
    if g.node_weights is not None:
        out["node_weights"] = list(g.node_weights)
    return out


def graph_from_dict(d: dict) -> Graph:
    """The graph of a record, refused as `validate_graph` refuses it: node
    weights that are there but not a list stand in as [None]."""
    weights = d.get("node_weights", [])
    g = Graph(d["num_nodes"], d["directed"], d["edges"],
              d.get("node_weights") if isinstance(weights, list) else [None])
    validate_graph(g)
    return g


# The type each answer kind's value must have.
_VALUES = {"yes_no": ("a boolean", bool), "numeric": ("an integer", int),
           "sequence": ("a list of integers", list[int])}


def problem_to_record(p: Problem) -> dict:
    """The problems-v1 record: the problem's fields in their order, the
    answer's as an object, with the graph and a subgraph query's pattern
    as graph dicts. A record `record_to_problem` refuses is refused with
    its error."""
    if p.answer is None:
        raise RecordError(f"{p.id}: problem has no ground truth answer")
    rec = {"schema": PROBLEMS_SCHEMA, **p._asdict(),
           "graph": graph_to_dict(p.graph), "answer": p.answer._asdict()}
    if p.task == "subgraph":
        rec["query"] = {"pattern": graph_to_dict(p.query["pattern"])}
    record_to_problem(rec)
    return rec


def record_to_problem(rec: dict) -> Problem:
    """Inverse of problem_to_record. An unknown task, an answer kind that is
    not its task's, a value not of that kind, a witness not of its task's
    type or naming a node outside the graph, or a subgraph witness with
    other than one [pattern, host] pair per pattern node is an
    InvalidSpecError; a query node the task's question names that is
    missing or not a node of the graph, or a subgraph pattern with more
    nodes than the graph, is an InvalidQueryError; a graph or pattern of
    another kind than its task's is a GraphKindError."""
    task = rec["task"]
    query, answer = dict(rec["query"]), rec["answer"]
    graph = graph_from_dict(rec["graph"])
    info = require_kind(graph, task)
    kind, value = answer["kind"], answer["value"]
    if kind != info.answer_kind:
        raise InvalidSpecError(f"answer kind {kind!r} is not "
                               f"{task}'s {info.answer_kind!r}")
    what, hint = _VALUES[kind]
    if not has_type(value, hint):
        raise InvalidSpecError(f"answer value {value!r} is not {what}")
    for _, name, _, _ in Formatter().parse(info.question):
        if name and not (has_type(query.get(name), int)
                         and 0 <= query[name] < graph.num_nodes):
            raise InvalidQueryError(
                f"query node {name!r} is {query.get(name)!r}, not a node "
                f"of the graph (0 to {graph.num_nodes - 1})")
    witness = answer.get("witness")
    if not has_type(witness, info.witness):
        raise InvalidSpecError(f"{task} witness {witness!r} is not "
                               f"{info.witness}")
    # every node a witness names, both ends of a subgraph [pattern, host]
    # pair too, since a pattern may have no more nodes than its host
    named = [x for w in witness or () for x in (w if isinstance(w, list) else [w])]
    if not all(0 <= x < graph.num_nodes for x in named):
        raise InvalidSpecError(f"{task} witness {witness!r} names a node "
                               f"outside the graph (0 to {graph.num_nodes - 1})")
    if task == "subgraph":
        query = {"pattern": graph_from_dict(query["pattern"])}
        require_pattern(graph, query["pattern"])
        if witness is not None:
            if not (all(len(pair) == 2 for pair in witness)
                    and sorted(k for k, _ in witness)
                    == list(range(query["pattern"].num_nodes))):
                raise InvalidSpecError(
                    f"subgraph witness {witness!r} is not [pattern, host] "
                    "integer pairs, one per pattern node")
    return Problem(
        id=rec["id"],
        task=task,
        graph=graph,
        query=query,
        answer=Answer(kind, value, witness=witness),
        tier=rec.get("tier"),
        seed=rec.get("seed"),
        text=rec["text"],
    )


# ---------------------------------------------------------------------------
# JSONL files
# ---------------------------------------------------------------------------

@contextmanager
def open_atomic(path: str):
    """Write to a temp file beside path that replaces it only if the block
    ends without an exception: a failed write leaves the old file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_jsonl(path: str, records: Iterable[dict]) -> int:
    count = 0
    with open_atomic(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
            count += 1
    return count


def parse_line(raw: bytes) -> dict | None:
    """The record one JSONL line holds, or None for a blank line. A line
    that is not UTF-8 or not JSON, or that holds no object, or whose strings
    hold a lone surrogate (which a JSON escape such as "\\ud83d" alone
    decodes to and no UTF-8 file can hold) raises ValueError."""
    line = raw.decode("utf-8")      # a UnicodeDecodeError is a ValueError
    if not line.strip():
        return None
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    if "\\u" in line:
        try:
            json.dumps(rec, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("a string holds an unpaired surrogate escape, "
                             "which UTF-8 cannot encode") from None
    return rec


def _check_fields(path: str, rec: dict, schema: str,
                  line: int | None = None) -> None:
    """A SchemaError if a field of `_FIELDS` is missing or mistyped."""
    for name, (hint, what) in _FIELDS.get(schema, {}).items():
        if not has_type(rec.get(name), hint):
            raise SchemaError(f"{path}: record {rec.get('id')!r}: {name!r} "
                              f"is missing or not {what}", line=line)


def _check_new_id(path: str, rec: dict, seen: set[str]) -> None:
    """Add rec's id to seen; a SchemaError if an earlier record had it."""
    if rec["id"] in seen:
        raise SchemaError(f"{path}: record {rec['id']!r}: repeated id")
    seen.add(rec["id"])


def iter_jsonl(path: str, schema: str) -> Iterator[dict]:
    """The records of a JSONL file of one schema, one line at a time. A line
    that does not parse, a record of another schema or a field of `_FIELDS`
    that is missing or mistyped is a SchemaError naming the file and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                rec = parse_line(raw)
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from exc
            if rec is None:
                continue
            if rec.get("schema") != schema:
                raise SchemaError(
                    f"{path}: expected schema {schema!r}, got "
                    f"{rec.get('schema')!r}", line=lineno)
            _check_fields(path, rec, schema, lineno)
            yield rec


def read_jsonl(path: str, schema: str) -> list[dict]:
    """All of `iter_jsonl`'s records, as a list a caller may walk twice."""
    return list(iter_jsonl(path, schema))


def write_problems(path: str, problems: Iterable[Problem]) -> int:
    """Write problems-v1 records, refusing whatever `read_problems` refuses
    with its error: a record (see problem_to_record), an id that is not a
    string, a repeated id; a refused problem leaves no file behind."""
    seen: set[str] = set()

    def records() -> Iterator[dict]:
        for p in problems:
            rec = problem_to_record(p)
            _check_fields(path, rec, PROBLEMS_SCHEMA)
            _check_new_id(path, rec, seen)
            yield rec

    return write_jsonl(path, records())


def read_problems(path: str) -> list[Problem]:
    """Problems of a problems-v1 file, each converted as its line is read,
    so the file's records are never all held at once. A record whose nested
    fields do not convert (graph without edges, answer without kind, ...),
    or whose id an earlier record has, is a SchemaError naming the file and
    the record; the read stops at that record."""
    problems: list[Problem] = []
    seen: set[str] = set()
    for rec in iter_jsonl(path, PROBLEMS_SCHEMA):
        try:
            problems.append(record_to_problem(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: record {rec['id']!r}: "
                              f"{type(exc).__name__}: {exc}") from exc
        _check_new_id(path, rec, seen)
    return problems


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

def assemble_sft(problem: Problem, texts: list[str]) -> list[dict]:
    """SFT rows of one problem's selected paths, re-grading every output."""
    rows = []
    for k, text in enumerate(texts):
        verdict = judge(problem, text)
        if not verdict.correct:
            raise RecordError(
                f"{problem.id}: selected path {k} grades incorrect "
                f"({verdict.reason})")
        rows.append({
            "schema": SFT_SCHEMA,
            "id": f"{problem.id}#{k}",
            "task": problem.task,
            "instruction": problem.text,
            "output": text,
            "meta": {"source_id": problem.id, "path_index": k,
                     "selector": SELECTOR_VERSION},
        })
    return rows


def assemble_dpo(problem: Problem, texts: list[str], *,
                 beta: float) -> dict | None:
    """One problem's DPO row: grade each path and pair the best correct one
    with the hardest wrong one; None when either side is empty. Every row
    records beta in meta for the training consumer; it must be positive and
    finite, so that the row stays JSON."""
    if not 0 < beta < float("inf"):
        raise InvalidSpecError("beta must be positive and finite")
    flags = [judge(problem, t).correct for t in texts]
    pair = build_dpo_pair(texts, flags)
    if pair is None:
        return None
    chosen, rejected = pair
    if not flags[chosen] or flags[rejected]:
        raise RecordError(
            f"{problem.id}: preference pair sides grade the same way")
    return {
        "schema": DPO_SCHEMA,
        "id": problem.id,
        "task": problem.task,
        "instruction": problem.text,
        "chosen": texts[chosen],
        "rejected": texts[rejected],
        "meta": {"num_correct": sum(flags),
                 "num_incorrect": len(flags) - sum(flags), "beta": beta},
    }


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def compute_stats(problems: list[Problem],
                  sft_rows: list[dict] | None) -> dict:
    per: dict[str, dict] = {
        t: {"problems": 0, "nodes": 0, "edges": 0, "paths": 0}
        for t in TASK_ORDER}
    for rid, task, g in [*((p.id, p.task, p.graph) for p in problems),
                         *((r.get("id"), r["task"], None) for r in sft_rows or [])]:
        if task not in per:
            raise RecordError(f"record {rid!r}: unknown task {task!r}")
        row = per[task]
        row["problems" if g else "paths"] += 1      # an SFT row is one path
        if g:
            row["nodes"] += g.num_nodes
            row["edges"] += len(g.edges)
    tasks = {t: {"problems": row["problems"],     # no problems: 0 / 1 = 0.0
                 "avg_nodes": row["nodes"] / max(row["problems"], 1),
                 "avg_edges": row["edges"] / max(row["problems"], 1),
                 "paths": row["paths"]} for t, row in per.items()}
    return {
        "tasks": tasks,
        "total_problems": sum(r["problems"] for r in per.values()),
        "total_paths": sum(r["paths"] for r in per.values()),
    }


def format_stats(stats: dict) -> str:
    header = f"{'task':<10}{'problems':>10}{'avg nodes':>12}{'avg edges':>12}{'paths':>8}"
    lines = [header, "-" * len(header)]
    for t, row in stats["tasks"].items():
        lines.append(f"{t:<10}{row['problems']:>10}{row['avg_nodes']:>12.1f}"
                     f"{row['avg_edges']:>12.1f}{row['paths']:>8}")
    lines.append("-" * len(header))
    lines.append(f"{'sum':<10}{stats['total_problems']:>10}{'':>12}{'':>12}"
                 f"{stats['total_paths']:>8}")
    return "\n".join(lines)
