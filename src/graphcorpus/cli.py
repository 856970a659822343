"""Command line entry points.

Stages are file to file: generate writes problems, annotate samples
reasoning paths, select distills them into SFT rows, dpo builds preference
pairs, evaluate grades predictions, stats and audit inspect what the other
stages produced. Flags override config-file values, which override defaults.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from typing import TYPE_CHECKING

from .config import PipelineConfig, apply_overrides, load_config
from .corpus import (AUDIT_SCHEMA, PATHS_SCHEMA, PREDICTIONS_SCHEMA,
                     SFT_SCHEMA, _check_new_id, assemble_dpo, assemble_sft,
                     compute_stats, format_stats, open_atomic, read_jsonl,
                     read_problems, write_jsonl, write_problems)
from .errors import GraphCorpusError, InvalidSpecError, RecordError
from .evaluate import evaluate, format_report, run_eval
from .grader import audit_steps, judge
from .graphs import canonical_key
from .sampler import (Cache, HttpBackend, StubBackend, get_profile,
                      prompt_sha, sample)
from .selector import select_diverse
from .textgen import build_cot_prompt, wrap_instruction

if TYPE_CHECKING:
    import argparse
    from .textgen import Problem


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(getattr(args, "config", None))
    overrides = {k: getattr(args, k) for k in PipelineConfig._fields
                 if hasattr(args, k)}
    return apply_overrides(cfg, overrides)


def _make_backend(cfg: PipelineConfig, problems):
    if cfg.backend == "stub":
        return StubBackend(problems, error_rate=cfg.stub_error_rate,
                           seed=cfg.seed)
    if cfg.backend == "http":
        if not cfg.base_url or not cfg.model:
            raise InvalidSpecError("http backend needs --base-url and --model")
        key = os.environ.get("GRAPHCORPUS_API_KEY")
        return HttpBackend(cfg.base_url, cfg.model, api_key=key)
    raise InvalidSpecError(f"unknown backend: {cfg.backend}")


def _sampling(cfg: PipelineConfig, problems) -> dict:
    """The backend, cache and limits `sample` and `run_eval` take."""
    return {"backend": _make_backend(cfg, problems),
            "cache": Cache(cfg.cache) if cfg.cache else None,
            "jobs": cfg.jobs, "max_requests": cfg.max_requests}


def _load_paths(path: str, problems: list[Problem]) -> list[tuple]:
    """(problem, texts) pairs by (task, id), the SFT and DPO row order: each
    problem the paths file names, with the texts of all its records in file
    order. A record of no known problem fails before any work."""
    by_id = {p.id: p for p in problems}
    texts: dict[str, list[str]] = {}
    for rec in read_jsonl(path, PATHS_SCHEMA):
        if rec["id"] not in by_id:
            raise RecordError(f"{rec['id']}: paths reference no known problem")
        texts.setdefault(rec["id"], []).extend(rec["texts"])
    return sorted(((by_id[pid], t) for pid, t in texts.items()),
                  key=lambda pair: (pair[0].task, pair[0].id))


def cmd_generate(args: argparse.Namespace) -> int:
    from .generate import generate_corpus   # the only stage that solves
    cfg = _config_from(args)
    dedupe: set[str] = set()
    if args.dedupe_against:
        for p in read_problems(args.dedupe_against):
            dedupe.add(canonical_key(p.graph))
    problems = generate_corpus(cfg.tasks, cfg.resolved_count(), seed=cfg.seed,
                               split=cfg.split, dedupe_keys=dedupe)
    n = write_problems(args.out, problems)
    print(f"wrote {n} problems to {args.out}")
    return 0


def cmd_annotate(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    profile = get_profile(cfg.profile)
    cot = profile.prompt == "cot"
    if args.shots is not None and not cot:
        raise InvalidSpecError(f"--shots sets CoT prompts; the {profile.name} "
                               "profile sends instruction prompts")
    problems = read_problems(args.problems)
    prompts = [build_cot_prompt(p.task, p.text, shots=cfg.shots) if cot
               else wrap_instruction(p.text) for p in problems]
    texts = sample(prompts, profile, **_sampling(cfg, problems))
    records = [{"schema": PATHS_SCHEMA, "id": p.id,
                "prompt_sha": prompt_sha(prompts[i]), "texts": texts[i]}
               for i, p in enumerate(problems)]
    write_jsonl(args.out, records)
    total = sum(len(r["texts"]) for r in records)
    print(f"wrote {total} paths for {len(records)} problems to {args.out}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    pairs = _load_paths(args.paths, read_problems(args.problems))
    rows = []
    dropped = 0
    for problem, texts in pairs:
        correct = [t for t in texts if judge(problem, t).correct]
        if not correct:
            dropped += 1
            continue
        picked = select_diverse(correct, cap=cfg.cap, seed=cfg.seed)
        rows += assemble_sft(problem, [correct[i] for i in picked])
    write_jsonl(args.out, rows)
    print(f"wrote {len(rows)} training rows for {len(pairs) - dropped} "
          f"problems to {args.out} ({dropped} problems had no correct path)")
    return 0


def cmd_dpo(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    pairs = _load_paths(args.paths, read_problems(args.problems))
    rows = [row for problem, texts in pairs
            if (row := assemble_dpo(problem, texts, beta=cfg.beta))]
    write_jsonl(args.out, rows)
    print(f"wrote {len(rows)} preference pairs to {args.out} "
          f"({len(pairs) - len(rows)} problems skipped)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    problems = read_problems(args.problems)
    if args.predictions:
        recs = read_jsonl(args.predictions, PREDICTIONS_SCHEMA)
        seen: set[str] = set()
        for rec in recs:        # a repeated id: one copy's text would be graded
            _check_new_id(args.predictions, rec, seen)
        report = evaluate(problems, {r["id"]: r["text"] for r in recs})
    else:
        report = run_eval(problems, **_sampling(cfg, problems))
    os.makedirs(args.out, exist_ok=True)
    with open_atomic(os.path.join(args.out, "report.json")) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    text = format_report(report)
    with open_atomic(os.path.join(args.out, "report.txt")) as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    problems = read_problems(args.problems)
    sft = read_jsonl(args.sft, SFT_SCHEMA) if args.sft else None
    try:
        stats = compute_stats(problems, sft)
    except RecordError as exc:  # reading checked every problem's task
        raise RecordError(f"{args.sft}: {exc}") from None
    print(format_stats(stats))
    if args.out:
        with open_atomic(args.out) as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    pairs = _load_paths(args.paths, read_problems(args.problems))
    rows = []
    audited = 0
    for problem, texts in sorted(pairs, key=lambda pair: pair[0].id):
        for k, text in enumerate(texts):
            audited += 1
            for v in audit_steps(problem, text):
                rows.append({"schema": AUDIT_SCHEMA, "id": problem.id,
                             "path_index": k, "sentence": v.sentence,
                             "kind": v.kind, "detail": v.detail})
    if args.out:
        write_jsonl(args.out, rows)
    else:
        for r in rows:
            print(f"{r['id']}#{r['path_index']} sentence {r['sentence']}: "
                  f"{r['kind']}: {r['detail']}")
    print(f"{len(rows)} violations across {audited} paths")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, default=None)


def _add_backend(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=("stub", "http"), default=None)
    sub.add_argument("--jobs", type=int, default=None,
                     help="concurrent backend requests")
    sub.add_argument("--stub-error-rate", type=float, default=None)
    sub.add_argument("--cache", default=None)
    sub.add_argument("--max-requests", type=int, default=None)
    sub.add_argument("--base-url", default=None)
    sub.add_argument("--model", default=None)


def build_parser() -> argparse.ArgumentParser:
    # imported after the stage modules, into memory their loading freed;
    # imported before them, it raised the peak RSS of loading them ~0.15 MB
    import argparse
    parser = argparse.ArgumentParser(
        prog="graphcorpus",
        description="Synthesize, annotate, and grade graph reasoning corpora.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="generate balanced problem sets")
    _add_common(p)
    p.add_argument("--tasks", help="comma separated task names")
    p.add_argument("--count", type=int, default=None, help="problems per task")
    p.add_argument("--split", default=None, choices=("train", "test"))
    p.add_argument("--dedupe-against", help="problems file whose graphs to avoid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = subs.add_parser("annotate", help="sample reasoning paths for problems")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--profile", default=None,
                   help="initial, augment, dpo or eval")
    p.add_argument("--problems", required=True)
    p.add_argument("--shots", type=int, default=None,
                   help="worked examples per CoT prompt; refused under dpo "
                        "and eval")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_annotate)

    p = subs.add_parser("select", help="distill correct paths into SFT rows")
    _add_common(p)
    p.add_argument("--problems", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--cap", type=int, default=None, help="paths kept per problem")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_select)

    p = subs.add_parser("dpo", help="build preference pairs")
    _add_common(p)
    p.add_argument("--problems", required=True)
    p.add_argument("--paths", required=True, help="sampled paths to pair")
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dpo)

    p = subs.add_parser("evaluate", help="grade predictions or a live backend")
    _add_common(p)
    _add_backend(p)
    p.add_argument("--problems", required=True)
    p.add_argument("--predictions", help="predictions file; omit to sample")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("stats", help="summarize a problems file")
    p.add_argument("--problems", required=True)
    p.add_argument("--sft", help="count paths from an SFT file")
    p.add_argument("--out", help="also write stats as JSON")
    p.set_defaults(func=cmd_stats)

    p = subs.add_parser("audit", help="flag hallucinated steps in paths")
    p.add_argument("--problems", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--out", help="write violations as JSONL")
    p.set_defaults(func=cmd_audit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an --out the stage could not write fails before it works or pays
        # a backend; evaluate's --out is a directory the stage creates, so
        # the nearest path at or above it that exists must be a directory
        out = getattr(args, "out", None) or ""
        code = 0
        if args.command == "evaluate":
            top = os.path.abspath(out)
            while not os.path.exists(top):
                top = os.path.dirname(top)
            if not os.path.isdir(top):
                code = errno.EEXIST if os.path.exists(out) else errno.ENOTDIR
        elif os.path.isdir(out):
            code = errno.EISDIR
        elif not os.path.isdir(os.path.dirname(out) or "."):
            code = errno.ENOENT
        if code:
            raise OSError(code, os.strerror(code), out)
        return args.func(args)
    except (GraphCorpusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
