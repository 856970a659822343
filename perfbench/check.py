"""Correctness checks for the files each pipeline stage writes.

    PYTHONPATH=src python3 perfbench/check.py --workload sample-http DIR

prints, as one JSON object, the problems found in each output of the
workload in DIR; an empty list means that output is correct. The checks
use the package's own grader and record readers, so they judge outputs by
the same rules the pipeline enforces. The benchmark runs them in their own
process, so that loading the outputs never raises the benchmark's memory
high-water mark, which child processes started from it inherit in their
peak RSS.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import sys
from collections import Counter

from graphcorpus.config import PipelineConfig
from graphcorpus.corpus import (DPO_SCHEMA, PATHS_SCHEMA, SFT_SCHEMA,
                                read_jsonl, read_problems)
from graphcorpus.grader import check_witness, judge
from graphcorpus.graphs import canonical_key
from graphcorpus.sampler import get_profile
from graphcorpus.tasks import get_task

import workloads

MAX_REPORTED = 5


def _trimmed(errors: list[str]) -> list[str]:
    if len(errors) <= MAX_REPORTED:
        return errors
    return errors[:MAX_REPORTED] + [f"... and {len(errors) - MAX_REPORTED} more"]


def check_problems(path: str, tasks: list[str], count: int) -> list[str]:
    """Unique ids, count per task, balanced yes/no labels, no repeated
    graph and valid witnesses."""
    problems = read_problems(path)
    errors = []
    ids = Counter(p.id for p in problems)
    errors += [f"{path}: id {i} appears {n} times" for i, n in ids.items() if n > 1]
    per_task = Counter(p.task for p in problems)
    for task in tasks:
        if per_task[task] != count:
            errors.append(f"{path}: {task} has {per_task[task]} problems, "
                          f"expected {count}")
    for task in tasks:
        if get_task(task).answer_kind != "yes_no":
            continue
        yes = sum(1 for p in problems if p.task == task and p.answer.value)
        no = per_task[task] - yes
        if abs(yes - no) > 1:
            errors.append(f"{path}: {task} labels unbalanced ({yes} yes, {no} no)")
    seen: set[str] = set()
    for p in problems:
        key = canonical_key(p.graph)
        if key in seen:
            errors.append(f"{path}: {p.id} repeats a graph in the file")
        seen.add(key)
        if not check_witness(p, p.answer):
            errors.append(f"{path}: {p.id} stores an invalid witness")
    return _trimmed(errors)


def check_paths(path: str, problems_path: str, n: int) -> list[str]:
    """One paths record per problem, in problem order, n texts each."""
    ids = [p.id for p in read_problems(problems_path)]
    records = read_jsonl(path, PATHS_SCHEMA)
    errors = []
    if [r["id"] for r in records] != ids:
        errors.append(f"{path}: records do not match the problems one to one")
    for r in records:
        texts = r.get("texts")
        if not isinstance(texts, list) or len(texts) != n \
                or not all(isinstance(t, str) and t for t in texts):
            errors.append(f"{path}: {r['id']} does not hold {n} non-empty texts")
    return _trimmed(errors)


def check_identical(path: str, reference: str) -> list[str]:
    if not filecmp.cmp(path, reference, shallow=False):
        return [f"{path} differs from {reference}"]
    return []


def check_sft(path: str, problems_path: str, cap: int) -> list[str]:
    """Every row grades correct; at most cap rows per problem."""
    by_id = {p.id: p for p in read_problems(problems_path)}
    rows = read_jsonl(path, SFT_SCHEMA)
    errors = []
    if not rows:
        errors.append(f"{path}: no rows")
    per_problem = Counter()
    for row in rows:
        pid = row["meta"]["source_id"]
        problem = by_id.get(pid)
        if problem is None:
            errors.append(f"{path}: {row['id']} names unknown problem {pid}")
            continue
        per_problem[pid] += 1
        if not judge(problem, row["output"]).correct:
            errors.append(f"{path}: {row['id']} grades incorrect")
    errors += [f"{path}: {pid} has {k} rows, cap is {cap}"
               for pid, k in per_problem.items() if k > cap]
    return _trimmed(errors)


def check_dpo(path: str, problems_path: str) -> list[str]:
    """The chosen side grades correct and the rejected side grades wrong."""
    by_id = {p.id: p for p in read_problems(problems_path)}
    rows = read_jsonl(path, DPO_SCHEMA)
    errors = []
    if not rows:
        errors.append(f"{path}: no rows")
    for row in rows:
        problem = by_id.get(row["id"])
        if problem is None:
            errors.append(f"{path}: {row['id']} names an unknown problem")
            continue
        if not judge(problem, row["chosen"]).correct:
            errors.append(f"{path}: {row['id']} chosen side grades wrong")
        if judge(problem, row["rejected"]).correct:
            errors.append(f"{path}: {row['id']} rejected side grades correct")
    return _trimmed(errors)


def check_audit(path: str, problems_path: str) -> list[str]:
    """Violation rows are well formed and name known problems."""
    ids = {p.id for p in read_problems(problems_path)}
    errors = [f"{path}: row names unknown problem {r['id']}"
              for r in read_jsonl(path, "audit-v1") if r["id"] not in ids]
    return _trimmed(errors)


def check_report(report_dir: str, problems_path: str) -> list[str]:
    """Per-task totals in report.json equal the problem counts."""
    per_task = Counter(p.task for p in read_problems(problems_path))
    with open(os.path.join(report_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    totals = {t: row["total"] for t, row in report["tasks"].items()}
    if totals != dict(per_task):
        return [f"{report_dir}: per-task totals {totals} != problem counts "
                f"{dict(per_task)}"]
    return []


def verify(workload: str, size: str, d: str) -> dict[str, list[str]]:
    """Every check of one workload's outputs in directory d."""
    tasks = workloads.TASKS
    n = workloads.SIZES[size][workload]
    p = f"{d}/problems.jsonl"
    if workload == "distill-augment":
        return {
            "problems.jsonl": check_problems(p, tasks, n),
            "paths.jsonl": check_paths(f"{d}/paths.jsonl", p,
                                       get_profile("augment").n),
            "sft.jsonl": check_sft(f"{d}/sft.jsonl", p, PipelineConfig().cap),
            "dpo.jsonl": check_dpo(f"{d}/dpo.jsonl", p),
            "audit.jsonl": check_audit(f"{d}/audit.jsonl", p),
        }
    return {
        "problems.jsonl": check_problems(p, tasks, n),
        "paths_cold.jsonl": check_paths(f"{d}/paths_cold.jsonl", p,
                                        get_profile("initial").n),
        "paths_warm.jsonl": check_identical(f"{d}/paths_warm.jsonl",
                                            f"{d}/paths_cold.jsonl"),
        "report": check_report(f"{d}/report", p),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="check a workload's outputs")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("directory")
    args = ap.parse_args(argv)
    print(json.dumps(verify(args.workload, args.size, args.directory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
