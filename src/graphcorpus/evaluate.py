"""Accuracy evaluation over prediction files or a live backend.

Scores are computed per task; difficulty groups and the overall number are
unweighted means over their member tasks, so a task with 40 problems counts
as much as one with 400. A problem without a prediction counts as wrong; a
prediction without a problem is an error, not a silent skip.
"""

from __future__ import annotations

from .errors import RecordError
from .grader import ExtractionFailure, judge
from .sampler import SampleProfile, get_profile, sample
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
    tasks = {}
    for t in TASK_ORDER:
        if t not in per:
            continue
        row = per[t]
        tasks[t] = dict(row, accuracy=row["correct"] / row["total"])
    groups = {}
    for name, members in DIFFICULTY_GROUPS.items():
        accs = [tasks[t]["accuracy"] for t in members if t in tasks]
        if accs:
            groups[name] = sum(accs) / len(accs)
    overall = (sum(t["accuracy"] for t in tasks.values()) / len(tasks)
               if tasks else 0.0)
    return {"tasks": tasks, "groups": groups, "overall": overall,
            "missing_predictions": sum(r["missing"] for r in per.values())}


def run_eval(problems: list[Problem], backend, *,
             profile: SampleProfile | None = None, repeats: int = 1,
             jobs: int = 1, cache=None) -> dict:
    """Sample the backend over all problems and grade, averaging repeats.

    Repeats only differ when the backend is nondeterministic and uncached;
    with a cache every repeat replays the first one.
    """
    if repeats < 1:
        raise RecordError("repeats must be at least 1")
    profile = profile or get_profile("eval")
    prompts = [wrap_instruction(p.text) for p in problems]
    reports = []
    for _ in range(repeats):
        texts = sample(prompts, profile, backend, cache=cache, jobs=jobs)
        predictions = {p.id: texts[i][0] for i, p in enumerate(problems)}
        reports.append(evaluate(problems, predictions))
    merged = _merge_reports(reports)
    merged["repeats"] = repeats
    return merged


def _merge_reports(reports: list[dict]) -> dict:
    if len(reports) == 1:
        return dict(reports[0])
    tasks: dict[str, dict] = {}
    for t in reports[0]["tasks"]:
        rows = [r["tasks"][t] for r in reports]
        tasks[t] = {
            "total": rows[0]["total"],
            "correct": sum(r["correct"] for r in rows) / len(rows),
            "extraction_failures": sum(r["extraction_failures"] for r in rows),
            "missing": sum(r["missing"] for r in rows),
            "accuracy": sum(r["accuracy"] for r in rows) / len(rows),
        }
    groups = {}
    for name in reports[0]["groups"]:
        groups[name] = sum(r["groups"][name] for r in reports) / len(reports)
    overall = sum(r["overall"] for r in reports) / len(reports)
    return {"tasks": tasks, "groups": groups, "overall": overall,
            "missing_predictions": sum(r["missing_predictions"] for r in reports)}


def format_report(report: dict) -> str:
    header = f"{'task':<12}{'total':>8}{'correct':>10}{'accuracy':>10}{'no-parse':>10}"
    lines = [header, "-" * len(header)]
    for t, row in report["tasks"].items():
        correct = row["correct"]
        correct_s = f"{correct:.1f}" if isinstance(correct, float) else str(correct)
        lines.append(f"{t:<12}{row['total']:>8}{correct_s:>10}"
                     f"{row['accuracy']:>9.1%}{row['extraction_failures']:>10}")
    lines.append("-" * len(header))
    for name, acc in report["groups"].items():
        lines.append(f"{name:<12}{'':>8}{'':>10}{acc:>9.1%}")
    lines.append(f"{'overall':<12}{'':>8}{'':>10}{report['overall']:>9.1%}")
    if report.get("missing_predictions"):
        lines.append(f"missing predictions: {report['missing_predictions']}")
    return "\n".join(lines)
