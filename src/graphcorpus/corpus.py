"""Record schemas and corpus assembly.

All files are JSONL with a leading "schema" field per record:

  problems-v1     graph problems with ground truth
  paths-v1        sampled reasoning paths, keyed by problem id
  sft-v1          instruction/output training rows
  dpo-v1          instruction/chosen/rejected preference rows
  predictions-v1  model outputs keyed by problem id

Subgraph is the one task whose problem record needs its own form (the
pattern graph in the query, the witness mapping as pairs); only
problem_to_record and record_to_problem know it.

Assembly re-checks everything it writes: an SFT row whose output grades
incorrect, or a DPO row whose sides grade the same way, is a RecordError,
not a warning.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Iterable

from .errors import InvalidSpecError, RecordError, SchemaError
from .graphs import Graph, validate_graph
from .selector import SELECTOR_VERSION, build_dpo_pair
from .solvers import Answer
from .tasks import require_kind
from .textgen import Problem
from .grader import judge

PROBLEMS_SCHEMA = "problems-v1"
PATHS_SCHEMA = "paths-v1"
SFT_SCHEMA = "sft-v1"
DPO_SCHEMA = "dpo-v1"
PREDICTIONS_SCHEMA = "predictions-v1"

# The fields each schema's readers use, and their types: read_jsonl rejects
# a record that lacks one or holds the wrong type, never misreads it.
_FIELDS = {PROBLEMS_SCHEMA: {"id": str, "task": str, "graph": dict,
                             "query": dict, "answer": dict, "text": str},
           PATHS_SCHEMA: {"id": str, "texts": list},
           PREDICTIONS_SCHEMA: {"id": str, "text": str}}
_KINDS = {str: "a string", dict: "an object", list: "a list of strings"}


def _plain(value: Any) -> Any:
    """Tuples to lists, recursively, so records survive a JSON round trip."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


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
    g = Graph(d["num_nodes"], d["directed"], [tuple(e) for e in d["edges"]],
              node_weights=d.get("node_weights"))
    validate_graph(g)
    return g


def problem_to_record(p: Problem) -> dict:
    """The problems-v1 record: a subgraph query's pattern is written as a
    graph dict and its witness mapping as sorted [pattern, host] pairs."""
    if p.answer is None:
        raise RecordError(f"{p.id}: problem has no ground truth answer")
    query, witness = dict(p.query), _plain(p.answer.witness)
    if p.task == "subgraph":
        query = {"pattern": graph_to_dict(query["pattern"])}
        if isinstance(p.answer.witness, dict):
            witness = [[int(k), int(v)] for k, v in sorted(p.answer.witness.items())]
    return {
        "schema": PROBLEMS_SCHEMA,
        "id": p.id,
        "task": p.task,
        "graph": graph_to_dict(p.graph),
        "query": query,
        "answer": {"kind": p.answer.kind, "value": _plain(p.answer.value),
                   "witness": witness},
        "tier": dict(p.tier) if p.tier else None,
        "seed": p.seed,
        "text": p.text,
    }


def record_to_problem(rec: dict) -> Problem:
    """Inverse of problem_to_record; an unknown task, or an answer kind that
    is not its task's, is an InvalidSpecError, and a graph of another kind
    than its task's is a GraphKindError."""
    task = rec["task"]
    query, answer = dict(rec["query"]), rec["answer"]
    graph = graph_from_dict(rec["graph"])
    expected = require_kind(graph, task).answer_kind
    if answer["kind"] != expected:
        raise InvalidSpecError(f"answer kind {answer['kind']!r} is not "
                               f"{task}'s {expected!r}")
    witness = answer.get("witness")
    if task == "subgraph":
        query = {"pattern": graph_from_dict(query["pattern"])}
        if isinstance(witness, list):
            witness = {int(k): int(v) for k, v in witness}
    return Problem(
        id=rec["id"],
        task=task,
        graph=graph,
        query=query,
        answer=Answer(answer["kind"], answer["value"], witness=witness),
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


def _encodable(rec: dict) -> bool:
    """False when a string holds a lone surrogate, which a JSON escape such
    as "\\ud83d" alone decodes to and no UTF-8 file can hold."""
    try:
        json.dumps(rec, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_jsonl(path: str, schema: str | None = None) -> list[dict]:
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:            # a UnicodeDecodeError is a ValueError too
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
                if "\\u" in line and not _encodable(rec):
                    raise ValueError("a string holds an unpaired surrogate "
                                     "escape, which UTF-8 cannot encode")
            except ValueError as exc:
                raise SchemaError(f"{path}: {exc}", line=lineno) from exc
            if not isinstance(rec, dict):
                raise SchemaError(f"{path}: record is not an object", line=lineno)
            if schema is not None and rec.get("schema") != schema:
                raise SchemaError(
                    f"{path}: expected schema {schema!r}, got "
                    f"{rec.get('schema')!r}", line=lineno)
            for name, kind in _FIELDS.get(schema, {}).items():
                value = rec.get(name)
                if not isinstance(value, kind) or (kind is list and not all(
                        isinstance(x, str) for x in value)):
                    raise SchemaError(
                        f"{path}: record {rec.get('id')!r}: {name!r} is "
                        f"missing or not {_KINDS[kind]}", line=lineno)
            out.append(rec)
    return out


def write_problems(path: str, problems: Iterable[Problem]) -> int:
    return write_jsonl(path, (problem_to_record(p) for p in problems))


def read_problems(path: str) -> list[Problem]:
    """Problems of a problems-v1 file; a record whose nested fields do not
    convert (graph without edges, answer without kind, ...) or whose id an
    earlier record has is a SchemaError naming the file and the record."""
    records = read_jsonl(path, PROBLEMS_SCHEMA)
    problems: list[Problem] = []
    try:
        for rec in records:
            problems.append(record_to_problem(rec))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: record {rec['id']!r}: "
                          f"{type(exc).__name__}: {exc}") from exc
    seen: set[str] = set()
    for p in problems:
        if p.id in seen:
            raise SchemaError(f"{path}: record {p.id!r}: repeated id")
        seen.add(p.id)
    return problems


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

def assemble_sft(problems: list[Problem],
                 selected: dict[str, list[str]]) -> list[dict]:
    """Build SFT rows from selected paths, re-grading every output."""
    by_id = {p.id: p for p in problems}
    rows = []
    for pid in selected:
        if pid not in by_id:
            raise RecordError(f"{pid}: selected paths reference no known problem")
    for pid in sorted(selected, key=lambda x: (by_id[x].task, x)):
        problem = by_id[pid]
        for k, text in enumerate(selected[pid]):
            verdict = judge(problem, text)
            if not verdict.correct:
                raise RecordError(
                    f"{pid}: selected path {k} grades incorrect "
                    f"({verdict.reason})")
            rows.append({
                "schema": SFT_SCHEMA,
                "id": f"{pid}#{k}",
                "task": problem.task,
                "instruction": problem.text,
                "output": text,
                "meta": {"source_id": pid, "path_index": k,
                         "selector": SELECTOR_VERSION},
            })
    return rows


def assemble_dpo(problems: list[Problem],
                 paths: dict[str, list[str]], *,
                 beta: float | None = None) -> list[dict]:
    """Build DPO rows: grade each path, pair best correct with the hardest
    wrong one, and skip problems where either side is empty. beta is carried
    in meta for the training consumer and must be positive, as in
    `dpo_loss`."""
    if beta is not None and not beta > 0:
        raise InvalidSpecError("beta must be positive")
    by_id = {p.id: p for p in problems}
    rows = []
    for pid in paths:
        if pid not in by_id:
            raise RecordError(f"{pid}: paths reference no known problem")
    for pid in sorted(paths, key=lambda x: (by_id[x].task, x)):
        problem = by_id[pid]
        texts = paths[pid]
        flags = [judge(problem, t).correct for t in texts]
        pair = build_dpo_pair(texts, flags)
        if pair is None:
            continue
        chosen, rejected = pair
        if not flags[chosen] or flags[rejected]:
            raise RecordError(f"{pid}: preference pair sides grade the same way")
        meta = {"num_correct": sum(flags),
                "num_incorrect": len(flags) - sum(flags)}
        if beta is not None:
            meta["beta"] = beta
        rows.append({
            "schema": DPO_SCHEMA,
            "id": pid,
            "task": problem.task,
            "instruction": problem.text,
            "chosen": texts[chosen],
            "rejected": texts[rejected],
            "meta": meta,
        })
    return rows


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------

def compute_stats(problems: list[Problem],
                  sft_rows: list[dict] | None = None) -> dict:
    from .tasks import TASK_ORDER
    per: dict[str, dict] = {
        t: {"problems": 0, "nodes": 0, "edges": 0, "paths": 0}
        for t in TASK_ORDER}
    for p in problems:
        if p.task not in per:
            raise RecordError(f"{p.id}: unknown task {p.task!r}")
        row = per[p.task]
        row["problems"] += 1
        row["nodes"] += p.graph.num_nodes
        row["edges"] += len(p.graph.edges)
    for rec in sft_rows or []:
        task = rec.get("task")
        if task in per:
            per[task]["paths"] += 1
    tasks = {}
    for t, row in per.items():
        n = row["problems"]
        tasks[t] = {
            "problems": n,
            "avg_nodes": row["nodes"] / n if n else 0.0,
            "avg_edges": row["edges"] / n if n else 0.0,
            "paths": row["paths"],
        }
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
