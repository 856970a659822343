"""Accuracy evaluation over prediction files or a live backend.

A backend is sampled once, one answer per problem, and that answer is
graded like a predictions file, so both give a report of the same shape.
Scores are computed per task; difficulty groups and the overall number are
unweighted means over their member tasks, so a task with 40 problems counts
as much as one with 400. A problem without a prediction counts as wrong; a
prediction without a problem is an error, not a silent skip.
"""

from __future__ import annotations

from .errors import RecordError
from .grader import ExtractionFailure, judge
from .sampler import PROFILES, sample
from .tasks import DIFFICULTY_GROUPS, TASK_ORDER
from .textgen import Problem, wrap_instruction


def evaluate(problems: list[Problem], predictions: dict[str, str]) -> dict:
    """Grade one prediction set. predictions maps problem id to output text."""
    known = {p.id for p in problems}
    orphans = sorted(set(predictions) - known)
    if orphans:
        shown = ", ".join(orphans[:5])
        raise RecordError(
            f"predictions reference {len(orphans)} unknown problems: {shown}")
    per: dict[str, dict] = {}
    for p in problems:
        row = per.setdefault(p.task, {"total": 0, "correct": 0,
                                      "extraction_failures": 0, "missing": 0})
        row["total"] += 1
        text = predictions.get(p.id)
        if text is None:
            row["missing"] += 1
            continue
        verdict = judge(p, text)
        if isinstance(verdict.extracted, ExtractionFailure):
            row["extraction_failures"] += 1
        if verdict.correct:
            row["correct"] += 1
    tasks = {t: dict(per[t], accuracy=per[t]["correct"] / per[t]["total"])
             for t in TASK_ORDER if t in per}
    groups = {name: sum(accs) / len(accs)
              for name, members in DIFFICULTY_GROUPS.items()
              if (accs := [tasks[t]["accuracy"] for t in members if t in tasks])}
    overall = (sum(t["accuracy"] for t in tasks.values()) / len(tasks)
               if tasks else 0.0)
    return {"tasks": tasks, "groups": groups, "overall": overall,
            "missing_predictions": sum(r["missing"] for r in per.values())}


def run_eval(problems: list[Problem], backend, *, jobs: int, cache,
             max_requests: int | None) -> dict:
    """Grade one eval-profile answer per problem, sampled from the backend.

    The report has the shape of evaluate()'s; max_requests caps the
    prompts sent (the cache misses, not their retries) as in sample(),
    checked before the first one goes out.
    """
    prompts = [wrap_instruction(p.text) for p in problems]
    texts = sample(prompts, PROFILES["eval"], backend, cache=cache, jobs=jobs,
                   max_requests=max_requests)
    return evaluate(problems, {p.id: t[0] for p, t in zip(problems, texts)})


def format_report(report: dict) -> str:
    header = f"{'task':<12}{'total':>8}{'correct':>10}{'accuracy':>10}{'no-parse':>10}"
    lines = [header, "-" * len(header)]
    for t, row in report["tasks"].items():
        lines.append(f"{t:<12}{row['total']:>8}{row['correct']:>10}"
                     f"{row['accuracy']:>9.1%}{row['extraction_failures']:>10}")
    lines.append("-" * len(header))
    for name, acc in report["groups"].items():
        lines.append(f"{name:<12}{'':>8}{'':>10}{acc:>9.1%}")
    lines.append(f"{'overall':<12}{'':>8}{'':>10}{report['overall']:>9.1%}")
    if report.get("missing_predictions"):
        lines.append(f"missing predictions: {report['missing_predictions']}")
    return "\n".join(lines)
