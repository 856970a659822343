"""Self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For each workload, with and without tracing, it asserts that the run is
correct, that every metric prints by name with its unit, that each timed
stage's median wall time prints, and that the error rate is 0. Then it corrupts copies of the distill-augment and
sample-http outputs one way at a time and asserts that the checker
reports each corruption. Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from graphcorpus.config import PipelineConfig  # noqa: E402
from graphcorpus.corpus import read_jsonl, read_problems, write_jsonl  # noqa: E402
from graphcorpus.sampler import get_profile  # noqa: E402
from graphcorpus.transcripts import make_transcript  # noqa: E402


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selfcheck FAILED: {message}")


def bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], capture_output=True, text=True, timeout=170)
    expect(out.returncode == 0, f"{workload} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == dict(run.END_TO_END), "BENCHMARK.json end_to_end")
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(per_layer == dict(run.PER_LAYER), "BENCHMARK.json per_layer")
    for workload in workloads.WORKLOADS:
        for trace, wanted in ((0, declared), (1, per_layer)):
            result, lines = bench(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(result["correct"], f"{label} incorrect: {lines[-8:]}")
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{label} counts {result}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == wanted, f"{label} metric names or units differ")
            for name, unit in wanted.items():
                expect(any(l.startswith(f"{name} ") and l.endswith(f" {unit}")
                           for l in lines), f"{label} does not print {name}")
            if trace == 0:
                expect("error_rate 0 ratio" in lines, f"{label} error rate")
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label} has a zero end-to-end metric")
                for st in workloads.WORKLOADS[workload]("tiny").timed:
                    expect(any(l.startswith(f"stage {st.metric} ") for l in lines),
                           f"{label} does not print stage {st.metric}")
            print(f"ok {label}")


def corrupted(directory: str, name: str, edit) -> str:
    """Copy of directory with `edit(path)` applied to one output."""
    copy = directory + "-corrupt"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(directory, copy)
    edit(os.path.join(copy, name))
    return copy


def rewrite(path: str, schema: str, change) -> None:
    rows = read_jsonl(path, schema)
    change(rows)
    write_jsonl(path, rows)


def check_checker() -> None:
    bench("distill-augment", 0)
    bench("sample-http", 0)
    distill = os.path.join(ROOT, ".perfbench", "distill-augment", "run")
    http = os.path.join(ROOT, ".perfbench", "sample-http", "run")
    problems = {p.id: p for p in read_problems(f"{distill}/problems.jsonl")}

    def flip_sft(rows):
        problem = problems[rows[0]["meta"]["source_id"]]
        rows[0]["output"] = make_transcript(problem, correct=False,
                                            rng=random.Random(0))

    def swap_dpo(rows):
        rows[0]["chosen"], rows[0]["rejected"] = rows[0]["rejected"], rows[0]["chosen"]

    def short_path(rows):
        rows[0]["texts"] = rows[0]["texts"][:-1]

    def duplicate_problem(path):
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(first)

    def append_line(path):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")

    def drop_total(path):
        report_json = os.path.join(path, "report.json")
        with open(report_json, encoding="utf-8") as fh:
            report = json.load(fh)
        next(iter(report["tasks"].values()))["total"] -= 1
        with open(report_json, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

    cases = [
        (distill, "sft.jsonl", lambda p: rewrite(p, "sft-v1", flip_sft),
         lambda d: check.check_sft(f"{d}/sft.jsonl", f"{d}/problems.jsonl",
                                   PipelineConfig().cap)),
        (distill, "dpo.jsonl", lambda p: rewrite(p, "dpo-v1", swap_dpo),
         lambda d: check.check_dpo(f"{d}/dpo.jsonl", f"{d}/problems.jsonl")),
        (distill, "paths.jsonl", lambda p: rewrite(p, "paths-v1", short_path),
         lambda d: check.check_paths(f"{d}/paths.jsonl", f"{d}/problems.jsonl",
                                     get_profile("augment").n)),
        (distill, "problems.jsonl", duplicate_problem,
         lambda d: check.check_problems(
             f"{d}/problems.jsonl", workloads.TASKS,
             workloads.SIZES["tiny"]["distill-augment"])),
        (http, "paths_warm.jsonl", append_line,
         lambda d: check.check_identical(f"{d}/paths_warm.jsonl",
                                         f"{d}/paths_cold.jsonl")),
        (http, "report", drop_total,
         lambda d: check.check_report(f"{d}/report", f"{d}/problems.jsonl")),
    ]
    for directory, name, edit, run_check in cases:
        expect(not run_check(directory), f"checker rejects untouched {name}")
        expect(bool(run_check(corrupted(directory, name, edit))),
               f"checker misses a corrupted {name}")
        print(f"ok checker catches a corrupted {name}")


if __name__ == "__main__":
    check_runs()
    check_checker()
    print("selfcheck passed")
