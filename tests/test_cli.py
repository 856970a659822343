import json
import os
import random
import re

import pytest

from graphcorpus.cli import build_parser, main
from graphcorpus.config import PipelineConfig, apply_overrides
from graphcorpus.corpus import (DPO_SCHEMA, PATHS_SCHEMA, PREDICTIONS_SCHEMA,
                                SFT_SCHEMA, read_jsonl, read_problems,
                                write_jsonl)
from graphcorpus.errors import InvalidSpecError
from graphcorpus.grader import judge
from graphcorpus.graphs import canonical_key
from graphcorpus.sampler import StubBackend, get_profile, prompt_sha, sample
from graphcorpus.textgen import wrap_instruction
from graphcorpus.transcripts import make_transcript

from oracles import CountingBackend

# the defaults a stage runs with
STAGE = PipelineConfig()


@pytest.fixture()
def problems_file(tmp_path):
    out = tmp_path / "problems.jsonl"
    rc = main(["generate", "--tasks", "cycle,shortest", "--count", "4",
               "--seed", "3", "--split", "test", "--out", str(out)])
    assert rc == 0
    return out


def _recorded_backends(monkeypatch) -> list:
    """The backends the stage builds, each wrapped to count its requests."""
    from graphcorpus import cli
    backends = []
    make = cli._make_backend

    def recorded(cfg, ps):
        backends.append(CountingBackend(make(cfg, ps)))
        return backends[-1]

    monkeypatch.setattr(cli, "_make_backend", recorded)
    return backends


def test_generate_writes_problems(tmp_path, capsys):
    out = tmp_path / "problems.jsonl"
    rc = main(["generate", "--tasks", "cycle,shortest", "--count", "4",
               "--seed", "3", "--split", "test", "--out", str(out)])
    assert rc == 0
    problems = read_problems(str(out))
    assert len(problems) == 8
    assert {p.task for p in problems} == {"cycle", "shortest"}
    assert capsys.readouterr().out.strip() == f"wrote 8 problems to {out}"


def test_generate_dedupe_against(problems_file, tmp_path):
    out = tmp_path / "fresh.jsonl"
    rc = main(["generate", "--tasks", "cycle", "--count", "4", "--seed", "3",
               "--split", "test", "--dedupe-against", str(problems_file),
               "--out", str(out)])
    assert rc == 0
    old = {canonical_key(p.graph) for p in read_problems(str(problems_file))}
    new = {canonical_key(p.graph) for p in read_problems(str(out))}
    assert not old & new


def test_repeated_task_name_exits_two(tmp_path, capsys):
    # each copy of the task would write the same ids
    out = tmp_path / "x.jsonl"
    rc = main(["generate", "--tasks", "cycle,cycle", "--count", "2",
               "--out", str(out)])
    assert rc == 2
    assert "error: task cycle is named twice" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_problem_id_exits_two(problems_file, tmp_path, capsys):
    # select would grade one copy's paths against the other copy's graph
    lines = problems_file.read_text(encoding="utf-8").splitlines(True)
    doubled = tmp_path / "doubled.jsonl"
    doubled.write_text("".join(lines + lines[:1]), encoding="utf-8")
    first = json.loads(lines[0])["id"]
    rc = main(["stats", "--problems", str(doubled)])
    assert rc == 2
    assert (f"error: {doubled}: record {first!r}: repeated id"
            in capsys.readouterr().err)


def test_annotate_stub(problems_file, tmp_path, capsys):
    out = tmp_path / "paths.jsonl"
    rc = main(["annotate", "--problems", str(problems_file),
               "--backend", "stub", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = read_jsonl(str(out), PATHS_SCHEMA)
    assert len(rows) == 8
    assert all(len(r["texts"]) == 3 for r in rows)   # initial profile
    assert all(r["prompt_sha"] for r in rows)
    assert f"wrote 24 paths for 8 problems to {out}" in capsys.readouterr().out


@pytest.mark.parametrize("stage", ["annotate", "evaluate"])
def test_stub_rejects_a_stored_answer_without_its_witness(
        problems_file, tmp_path, capsys, stage):
    # the stub narrates the stored witness: a missing one stops the stage
    # before a path or a cache line is written, not with a traceback
    recs = [json.loads(line) for line
            in problems_file.read_text(encoding="utf-8").splitlines()]
    bad = next(r for r in recs if r["task"] == "cycle" and r["answer"]["value"])
    bad["answer"]["witness"] = None
    problems = tmp_path / "no_witness.jsonl"
    problems.write_text("".join(json.dumps(r) + "\n" for r in recs),
                        encoding="utf-8")
    out, cache = tmp_path / "out.jsonl", tmp_path / "c.jsonl"
    rc = main([stage, "--problems", str(problems), "--backend", "stub",
               "--seed", "3", "--cache", str(cache), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"error: problem {bad['id']}: stored answer fails its witness "
            "check") in err
    assert "Traceback" not in err
    assert not out.exists() and not cache.exists()


def test_select_builds_sft_rows(problems_file, tmp_path, capsys):
    paths = tmp_path / "paths.jsonl"
    main(["annotate", "--problems", str(problems_file), "--backend", "stub",
          "--stub-error-rate", "0.5", "--seed", "3", "--out", str(paths)])
    out = tmp_path / "sft.jsonl"
    rc = main(["select", "--problems", str(problems_file),
               "--paths", str(paths), "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = read_jsonl(str(out), SFT_SCHEMA)
    assert rows
    by_id = {p.id: p for p in read_problems(str(problems_file))}
    for r in rows:
        problem = by_id[r["meta"]["source_id"]]
        assert r["instruction"] == problem.text
        assert judge(problem, r["output"]).correct
    msg = capsys.readouterr().out
    assert re.search(r"wrote \d+ training rows for \d+ problems", msg)


def test_dpo_reuses_paths(problems_file, tmp_path, capsys):
    paths = tmp_path / "paths.jsonl"
    main(["annotate", "--problems", str(problems_file), "--backend", "stub",
          "--stub-error-rate", "0.5", "--seed", "3", "--out", str(paths)])
    out = tmp_path / "dpo.jsonl"
    rc = main(["dpo", "--problems", str(problems_file), "--paths", str(paths),
               "--beta", "0.2", "--out", str(out)])
    assert rc == 0
    rows = read_jsonl(str(out), DPO_SCHEMA)
    assert rows
    for r in rows:
        assert r["chosen"] != r["rejected"]
        assert r["meta"]["beta"] == 0.2
    assert "preference pairs" in capsys.readouterr().out


@pytest.mark.parametrize("beta", ["-1", "0", "nan", "inf"])
def test_dpo_rejects_beta_that_is_not_positive(problems_file, tmp_path,
                                               capsys, beta):
    # the check comes before the paths are read or any pair is built
    paths = tmp_path / "paths.jsonl"
    paths.write_text("not json\n", encoding="utf-8")
    out = tmp_path / "dpo.jsonl"
    rc = main(["dpo", "--problems", str(problems_file), "--paths", str(paths),
               "--seed", "3", "--beta", beta, "--out", str(out)])
    assert rc == 2
    assert "error: beta must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("error_rate", ["0.0", "1.0"])
def test_select_rejects_cap_below_one(problems_file, tmp_path, capsys,
                                      error_rate):
    # at error rate 1.0 no problem has a correct path to select from
    paths = tmp_path / "paths.jsonl"
    main(["annotate", "--problems", str(problems_file), "--backend", "stub",
          "--stub-error-rate", error_rate, "--seed", "3", "--out", str(paths)])
    out = tmp_path / "sft.jsonl"
    rc = main(["select", "--problems", str(problems_file),
               "--paths", str(paths), "--cap", "0", "--out", str(out)])
    assert rc == 2
    assert "error: cap must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_dpo_pairs_the_paths_annotate_samples_under_the_dpo_profile(
        problems_file, tmp_path):
    paths, out = tmp_path / "paths.jsonl", tmp_path / "dpo.jsonl"
    assert main(["annotate", "--problems", str(problems_file), "--profile",
                 "dpo", "--backend", "stub", "--stub-error-rate", "0.4",
                 "--seed", "3", "--out", str(paths)]) == 0
    recs = read_jsonl(str(paths), PATHS_SCHEMA)
    by_id = {p.id: p for p in read_problems(str(problems_file))}
    # instruction prompts, which each record's prompt_sha tells apart
    assert [r["prompt_sha"] for r in recs] == [
        prompt_sha(wrap_instruction(by_id[r["id"]].text)) for r in recs]
    assert main(["dpo", "--problems", str(problems_file), "--paths",
                 str(paths), "--seed", "3", "--out", str(out)]) == 0
    rows = read_jsonl(str(out), DPO_SCHEMA)
    # dpo profile samples 20 paths each, so every problem should split
    assert len(rows) == 8


@pytest.mark.parametrize("argv,message", [
    ([], "the following arguments are required: --paths"),
    (["--paths", "p.jsonl", "--backend", "stub"],
     "unrecognized arguments: --backend stub"),
], ids=["no-paths", "backend"])
def test_dpo_takes_paths_and_no_backend(problems_file, tmp_path, capsys,
                                        argv, message):
    out = tmp_path / "dpo.jsonl"
    with pytest.raises(SystemExit) as exit_:
        main(["dpo", "--problems", str(problems_file), *argv,
              "--out", str(out)])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_predictions_report(problems_file, tmp_path, capsys):
    problems = read_problems(str(problems_file))
    preds = tmp_path / "preds.jsonl"
    write_jsonl(str(preds), [
        {"schema": PREDICTIONS_SCHEMA, "id": p.id,
         "text": make_transcript(p, correct=True,
                                 rng=random.Random(0))} for p in problems])
    out = tmp_path / "report"
    rc = main(["evaluate", "--problems", str(problems_file),
               "--predictions", str(preds), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] == 1.0
    text = (out / "report.txt").read_text()
    assert "overall" in text and "100.0%" in text
    assert "overall" in capsys.readouterr().out


def test_repeated_prediction_id_exits_two(problems_file, tmp_path, capsys):
    # the last of two predictions for one problem was graded, with exit 0
    first = read_problems(str(problems_file))[0]
    preds = tmp_path / "preds.jsonl"
    write_jsonl(str(preds), [
        {"schema": PREDICTIONS_SCHEMA, "id": first.id, "text": text}
        for text in ("### Yes.", "### No.")])
    out = tmp_path / "report"
    rc = main(["evaluate", "--problems", str(problems_file),
               "--predictions", str(preds), "--out", str(out)])
    assert rc == 2
    assert (f"error: {preds}: record {first.id!r}: repeated id"
            in capsys.readouterr().err)
    assert not out.exists()


def test_evaluate_stub_backend(problems_file, tmp_path):
    out = tmp_path / "report"
    rc = main(["evaluate", "--problems", str(problems_file),
               "--backend", "stub", "--seed", "3", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall"] == 1.0


def test_sampled_report_is_a_predictions_report(problems_file, tmp_path):
    # grading the stub's sampled answers as a predictions file gives the
    # same report, key for key and byte for byte
    problems = read_problems(str(problems_file))
    backend = StubBackend(problems, error_rate=0.4, seed=3)
    texts = sample([wrap_instruction(p.text) for p in problems],
                   get_profile("eval"), backend, cache=None, jobs=STAGE.jobs,
                   max_requests=None)
    preds = tmp_path / "preds.jsonl"
    write_jsonl(str(preds), [
        {"schema": PREDICTIONS_SCHEMA, "id": p.id, "text": t[0]}
        for p, t in zip(problems, texts)])
    reports = {}
    for name, source in (
            ("graded", ["--predictions", str(preds)]),
            ("sampled", ["--backend", "stub", "--stub-error-rate", "0.4",
                         "--seed", "3"])):
        out = tmp_path / name
        rc = main(["evaluate", "--problems", str(problems_file), *source,
                   "--out", str(out)])
        assert rc == 0
        reports[name] = [(out / f).read_bytes()
                         for f in ("report.json", "report.txt")]
    assert json.loads(reports["sampled"][0]).keys() == \
        json.loads(reports["graded"][0]).keys()
    assert reports["sampled"] == reports["graded"]


def test_evaluate_obeys_max_requests(problems_file, tmp_path, capsys,
                                     monkeypatch):
    problems = tmp_path / "two.jsonl"
    problems.write_text("".join(
        problems_file.read_text(encoding="utf-8").splitlines(True)[:2]))
    backends = _recorded_backends(monkeypatch)
    out = tmp_path / "report"
    rc = main(["evaluate", "--problems", str(problems), "--backend", "stub",
               "--max-requests", "1", "--out", str(out)])
    assert rc == 2
    assert ("error: batch needs 2 requests but only 1 allowed"
            in capsys.readouterr().err)
    assert backends[0].requests == 0
    assert not out.exists()


def test_stats_output(problems_file, tmp_path, capsys):
    out = tmp_path / "stats.json"
    rc = main(["stats", "--problems", str(problems_file), "--out", str(out)])
    assert rc == 0
    stats = json.loads(out.read_text())
    assert stats["tasks"]["cycle"]["problems"] == 4
    assert stats["total_problems"] == 8
    printed = capsys.readouterr().out
    assert "cycle" in printed and "shortest" in printed


def test_audit_reports_clean_paths(problems_file, tmp_path, capsys):
    problems = read_problems(str(problems_file))
    paths = tmp_path / "paths.jsonl"
    write_jsonl(str(paths), [
        {"schema": PATHS_SCHEMA, "id": p.id, "prompt_sha": "x",
         "texts": [make_transcript(p, correct=True,
                                   rng=random.Random(0))]} for p in problems])
    rc = main(["audit", "--problems", str(problems_file),
               "--paths", str(paths)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0 violations across 8 paths"


def test_audit_flags_fabricated_edge(problems_file, tmp_path, capsys):
    target = read_problems(str(problems_file))[0]
    bad = "Node 0 is connected to node 999. ### Yes."
    paths = tmp_path / "paths.jsonl"
    write_jsonl(str(paths), [{"schema": PATHS_SCHEMA, "id": target.id,
                              "prompt_sha": "x", "texts": [bad]}])
    out = tmp_path / "violations.jsonl"
    rc = main(["audit", "--problems", str(problems_file),
               "--paths", str(paths), "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary == "1 violations across 1 paths"
    rows = read_jsonl(str(out), "audit-v1")
    assert len(rows) == 1 and rows[0]["id"] == target.id


def test_row_order_does_not_depend_on_the_paths_file(problems_file,
                                                     tmp_path):
    # records reversed, and one problem's texts split over a first and a
    # last record, write the same bytes as the file annotate wrote
    paths = tmp_path / "paths.jsonl"
    assert main(["annotate", "--problems", str(problems_file), "--backend",
                 "stub", "--stub-error-rate", "0.5", "--seed", "3",
                 "--out", str(paths)]) == 0
    recs = read_jsonl(str(paths), PATHS_SCHEMA)
    for rec in recs:
        rec["texts"].append("Node 0 is connected to node 999. ### Yes.")
    write_jsonl(str(paths), recs)
    first = recs[0]
    shuffled = tmp_path / "shuffled.jsonl"
    write_jsonl(str(shuffled), [dict(first, texts=first["texts"][:2]),
                                *reversed(recs[1:]),
                                dict(first, texts=first["texts"][2:])])
    for stage, seed in (("select", ["--seed", "3"]), ("dpo", ["--seed", "3"]),
                        ("audit", [])):
        written = []
        for source in (paths, shuffled):
            out = tmp_path / f"{stage}-{source.stem}.jsonl"
            assert main([stage, "--problems", str(problems_file), "--paths",
                         str(source), *seed, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] and written[0] == written[1], stage


def test_full_pipeline_chain(tmp_path):
    problems = tmp_path / "p.jsonl"
    paths = tmp_path / "a.jsonl"
    sft = tmp_path / "s.jsonl"
    dpo = tmp_path / "d.jsonl"
    report = tmp_path / "r"
    assert main(["generate", "--tasks", "connect,topology", "--count", "3",
                 "--seed", "11", "--split", "test", "--out",
                 str(problems)]) == 0
    assert main(["annotate", "--problems", str(problems), "--backend", "stub",
                 "--stub-error-rate", "0.4", "--seed", "11",
                 "--out", str(paths)]) == 0
    assert main(["select", "--problems", str(problems), "--paths", str(paths),
                 "--seed", "11", "--out", str(sft)]) == 0
    assert main(["dpo", "--problems", str(problems), "--paths", str(paths),
                 "--out", str(dpo)]) == 0
    assert main(["evaluate", "--problems", str(problems), "--backend", "stub",
                 "--seed", "11", "--out", str(report)]) == 0
    assert json.loads((report / "report.json").read_text())["overall"] == 1.0


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tasks": "cycle", "count": 2, "seed": 5}))
    from_cfg = tmp_path / "a.jsonl"
    flag_wins = tmp_path / "b.jsonl"
    plain = tmp_path / "c.jsonl"
    assert main(["generate", "--config", str(cfg), "--split", "test",
                 "--out", str(from_cfg)]) == 0
    assert main(["generate", "--config", str(cfg), "--seed", "9",
                 "--split", "test", "--out", str(flag_wins)]) == 0
    assert main(["generate", "--tasks", "cycle", "--count", "2", "--seed", "9",
                 "--split", "test", "--out", str(plain)]) == 0
    assert flag_wins.read_text() == plain.read_text()
    assert from_cfg.read_text() != flag_wins.read_text()


def test_malformed_records_exit_two(problems_file, tmp_path, capsys):
    pid = read_problems(str(problems_file))[0].id
    paths = tmp_path / "paths.jsonl"
    paths.write_text(json.dumps({"schema": PATHS_SCHEMA, "id": pid,
                                 "texts": "abc"}) + "\n", encoding="utf-8")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"schema": PREDICTIONS_SCHEMA, "id": pid})
                     + "\n", encoding="utf-8")
    lines = problems_file.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    del rec["query"]
    problems = tmp_path / "no_query.jsonl"
    problems.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    for argv, field in (
            (["select", "--problems", str(problems_file), "--paths",
              str(paths), "--out", str(tmp_path / "sft.jsonl")], "'texts'"),
            (["evaluate", "--problems", str(problems_file), "--predictions",
              str(preds), "--out", str(tmp_path / "report")], "'text'"),
            (["stats", "--problems", str(problems)], "'query'")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ") and field in err, err
    assert not (tmp_path / "sft.jsonl").exists()


@pytest.mark.parametrize("stage", ["select", "dpo"])
def test_lone_surrogate_in_paths_exits_two(problems_file, tmp_path, capsys,
                                           stage):
    # "\ud83d" alone is valid JSON but no UTF-8 file can hold the string
    paths = tmp_path / "paths.jsonl"
    assert main(["annotate", "--problems", str(problems_file), "--backend",
                 "stub", "--stub-error-rate", "0.5", "--seed", "3",
                 "--out", str(paths)]) == 0
    recs = read_jsonl(str(paths), PATHS_SCHEMA)
    for head, rc in (("\\ud83d ", 0), ("\ud83d ", 2)):
        edited = tmp_path / f"edited{rc}.jsonl"
        edited.write_text("".join(
            json.dumps({**r, "texts": [head + t for t in r["texts"]]}) + "\n"
            for r in recs), encoding="utf-8")
        capsys.readouterr()
        assert main([stage, "--problems", str(problems_file), "--paths",
                     str(edited), "--out", str(tmp_path / f"out{rc}.jsonl")
                     ]) == rc, head
    # a backslash before "ud83d" is plain text and reaches the rows
    assert "\\\\ud83d " in (tmp_path / "out0.jsonl").read_text("utf-8")
    err = capsys.readouterr().err
    assert err.startswith(f"error: line 1: {edited}: "), err
    assert "surrogate" in err and "Traceback" not in err
    assert not (tmp_path / "out2.jsonl").exists()


def test_lone_surrogate_in_cache_exits_two(problems_file, tmp_path, capsys):
    # the cache loader parses its own lines; a text it let through would
    # fail the paths file's write with a traceback
    cache, out = tmp_path / "cache.jsonl", tmp_path / "paths.jsonl"
    annotate = ["annotate", "--problems", str(problems_file), "--backend",
                "stub", "--seed", "3", "--cache", str(cache)]
    assert main([*annotate, "--out", str(tmp_path / "cold.jsonl")]) == 0
    lines = cache.read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    rec["texts"][0] = "\ud83d"
    lines[1] = json.dumps(rec)
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main([*annotate, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cache}:2: "), err
    assert "surrogate" in err and "Traceback" not in err
    assert not out.exists()


def test_malformed_nested_problem_fields_exit_two(problems_file, tmp_path,
                                                  capsys):
    rec = json.loads(problems_file.read_text(encoding="utf-8").splitlines()[0])
    del rec["graph"]["edges"]
    problems = tmp_path / "no_edges.jsonl"
    problems.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert main(["stats", "--problems", str(problems)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problems}: record {rec['id']!r}: ")
    assert "'edges'" in err and "Traceback" not in err


@pytest.mark.parametrize("task,change,message", [
    ("shortest", lambda rec: rec.update(task="foo"), "unknown task 'foo'"),
    ("shortest", lambda rec: rec["answer"].update(kind="yes_no"),
     "answer kind 'yes_no' is not shortest's 'numeric'"),
    ("cycle", lambda rec: rec["graph"].update(directed=True),
     "cycle expects an undirected graph"),
    ("triangle", lambda rec: rec["graph"].pop("node_weights"),
     "triangle expects node weights"),
    ("cycle", lambda rec: rec["answer"].update(value="false"),
     "answer value 'false' is not a boolean"),
    ("shortest", lambda rec: rec["answer"].update(value="7"),
     "answer value '7' is not an integer"),
    ("shortest", lambda rec: rec["answer"].update(value=True),
     "answer value True is not an integer"),
    ("topology", lambda rec: rec["answer"].update(value=[0, "1"]),
     "answer value [0, '1'] is not a list of integers"),
    ("connect", lambda rec: rec.update(query={}),
     "query node 'u' is None, not a node of the graph"),
    ("flow", lambda rec: rec["query"].update(t=rec["graph"]["num_nodes"]),
     "query node 't' is "),
    ("cycle", lambda rec: rec["graph"].update(
        edges=[[float(x) for x in e] for e in rec["graph"]["edges"]]),
     "TypeError: graph 'edges' is not lists of integers"),
    ("shortest", lambda rec: rec["graph"]["edges"][0].__setitem__(2, True),
     "TypeError: graph 'edges' is not lists of integers"),
    ("triangle", lambda rec: rec["graph"]["node_weights"].__setitem__(0, True),
     "TypeError: graph 'node_weights' is not a list of integers"),
    ("cycle", lambda rec: rec["graph"].update(directed=0),
     "TypeError: graph 'directed' is not a boolean"),
    ("cycle", lambda rec: rec["graph"].update(
        num_nodes=float(rec["graph"]["num_nodes"])),
     "TypeError: graph 'num_nodes' is not an integer"),
    # int() read [0, 1.7] as 0 -> 1 and [true, true] as 1 -> 1, and a dict
    # kept the last of two pairs of one pattern node
    ("subgraph", lambda rec: rec["answer"]["witness"][0].__setitem__(1, 1.7),
     "subgraph witness [[0, 1.7], "),
    ("subgraph", lambda rec: rec["answer"]["witness"].__setitem__(
        0, [True, True]), "subgraph witness [[True, True], "),
    ("subgraph", lambda rec: rec["answer"]["witness"].__setitem__(
        1, list(rec["answer"]["witness"][0])),
     "integer pairs, one per pattern node"),
    # such witnesses loaded, and only annotate's witness check stopped them
    ("cycle", lambda rec: rec["answer"]["witness"].__setitem__(
        slice(0, 2), [0.5, True]), "cycle witness [0.5, True, "),
    ("shortest", lambda rec: rec["answer"].update(
        witness=[str(x) for x in rec["answer"]["witness"]]),
     "shortest witness ['"),
    ("bipartite", lambda rec: rec["answer"]["witness"][1].__setitem__(0, 3.0),
     "bipartite witness [[0, 1, 2, 5], [3.0, 4]] is not "),
    ("subgraph", lambda rec: rec["answer"].update(witness={"0": 1}),
     "subgraph witness {'0': 1} is not "),
    ("subgraph", lambda rec: rec["answer"]["witness"].pop(),
     "integer pairs, one per pattern node"),
], ids=["unknown-task", "kind-not-the-tasks", "directed-cycle",
        "triangle-without-node-weights", "yes-no-value-a-string",
        "numeric-value-a-string", "numeric-value-a-bool",
        "sequence-value-not-all-integers", "query-node-missing",
        "query-node-out-of-range", "edge-endpoints-floats",
        "edge-weight-a-bool", "node-weight-a-bool", "directed-an-integer",
        "num-nodes-a-float", "witness-host-a-float", "witness-pair-bools",
        "witness-pattern-node-twice", "cycle-witness-float-and-bool",
        "shortest-witness-strings", "bipartite-side-a-float",
        "subgraph-witness-an-object", "subgraph-witness-short-of-a-node"])
def test_problem_of_no_known_task_kind_exits_two(tmp_path, capsys, task,
                                                 change, message):
    # a shortest record relabelled yes/no would pass its witness check, and
    # nothing after reading rechecks a graph of the wrong kind
    source = tmp_path / "problems.jsonl"
    assert main(["generate", "--tasks", task, "--count", "2", "--seed", "3",
                 "--split", "test", "--out", str(source)]) == 0
    capsys.readouterr()
    rec = json.loads(source.read_text(encoding="utf-8").splitlines()[0])
    change(rec)
    problems = tmp_path / "relabelled.jsonl"
    problems.write_text(json.dumps(rec) + "\n", encoding="utf-8")
    assert main(["stats", "--problems", str(problems)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {problems}: record {rec['id']!r}: ")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("change,message", [
    (lambda row: row.pop("task"), "'task' is missing or not a string"),
    (lambda row: row.update(task="bogus"), "unknown task 'bogus'"),
], ids=["sft-row-without-task", "sft-row-of-unknown-task"])
def test_stats_of_an_sft_row_of_no_known_task_exits_two(tmp_path, capsys,
                                                        change, message):
    # such a row used to count as no path at all, with exit 0
    problems, paths, sft = (tmp_path / f"{n}.jsonl" for n in "pas")
    assert main(["generate", "--tasks", "shortest,triangle", "--count", "2",
                 "--seed", "2", "--split", "test", "--out", str(problems)]) == 0
    assert main(["annotate", "--problems", str(problems), "--backend", "stub",
                 "--out", str(paths)]) == 0
    assert main(["select", "--problems", str(problems), "--paths", str(paths),
                 "--out", str(sft)]) == 0
    assert main(["stats", "--problems", str(problems), "--sft", str(sft)]) == 0
    rows = [json.loads(line) for line in sft.read_text().splitlines()]
    assert capsys.readouterr().out.split()[-1] == str(len(rows))
    for row in rows:
        change(row)
    sft.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert main(["stats", "--problems", str(problems), "--sft", str(sft)]) == 2
    err = capsys.readouterr().err
    assert f"{rows[0]['id']!r}" in err or f"{rows[0]['id']}: " in err
    assert str(sft) in err
    assert message in err and "Traceback" not in err


def test_failed_report_and_stats_writes_keep_old_files(problems_file,
                                                       tmp_path, monkeypatch):
    from graphcorpus import cli
    report = tmp_path / "report"
    report.mkdir()
    (report / "report.json").write_text("old report\n")
    stats = tmp_path / "stats.json"
    stats.write_text("old stats\n")
    # a value json cannot encode fails the dump after part of it is written
    broken = {"tasks": {}, "groups": {}, "overall": 0.0, "bad": object()}
    monkeypatch.setattr(cli, "evaluate", lambda problems, preds: broken)
    monkeypatch.setattr(cli, "compute_stats", lambda problems, sft: broken)
    monkeypatch.setattr(cli, "format_stats", lambda s: "")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("")
    with pytest.raises(TypeError):
        main(["evaluate", "--problems", str(problems_file),
              "--predictions", str(preds), "--out", str(report)])
    with pytest.raises(TypeError):
        main(["stats", "--problems", str(problems_file), "--out", str(stats)])
    assert (report / "report.json").read_text() == "old report\n"
    assert stats.read_text() == "old stats\n"
    assert sorted(os.listdir(tmp_path)) == ["preds.jsonl", "problems.jsonl",
                                             "report", "stats.json"]
    assert os.listdir(report) == ["report.json"]


@pytest.mark.parametrize("argv,message", [
    (["select", "--problems", "{problems}", "--paths", "{tmp}/missing.jsonl",
      "--out", "{tmp}/sft.jsonl"], "No such file"),
    (["stats", "--problems", "{tmp}/missing.jsonl"], "No such file"),
    (["generate", "--config", "{tmp}/nope.json", "--out", "{tmp}/x.jsonl"],
     "No such file"),
    (["generate", "--tasks", "cycle", "--count", "1",
      "--out", "{tmp}/nodir/x.jsonl"], "No such file"),
    (["stats", "--problems", "{tmp}/latin1.jsonl"], "line 2: "),
], ids=["select-paths", "stats-problems", "generate-config", "generate-out",
        "not-utf8"])
def test_bad_files_exit_two(problems_file, tmp_path, capsys, argv, message):
    first = problems_file.read_bytes().splitlines(True)[0]
    (tmp_path / "latin1.jsonl").write_bytes(
        first + b'{"schema": "problems-v1", "id": "caf\xe9"}\n')
    argv = [a.format(problems=problems_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_unknown_task_exits_two(tmp_path, capsys):
    rc = main(["generate", "--tasks", "maze", "--count", "1",
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_task_list_exits_two(tmp_path, capsys, source):
    # an empty list is no task, not every task (nine problems for --count 1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tasks": []}))
    argv = (["--tasks", ","] if source == "flag" else ["--config", str(cfg)])
    rc = main(["generate", *argv, "--count", "1",
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err == "error: tasks names no task\n"
    assert not (tmp_path / "x.jsonl").exists()


def test_unknown_config_key_exits_two(tmp_path, capsys):
    # the generation limits are constants of config.py, not config keys,
    # and evaluate samples once, so repeats is no key either
    for key in ("bogus", "token_budget", "max_attempts", "rejection_attempts",
                "hamilton_budget", "hamilton_dp_limit", "repeats"):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        rc = main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2, key
        assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


def test_unknown_split_in_config_exits_two(tmp_path, capsys):
    # the --split flag accepts only train and test; a config file may not
    # smuggle in another split that silently takes the train count
    for split in ("valid", ["test"]):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"split": split, "tasks": "cycle"}))
        rc = main(["generate", "--config", str(cfg),
                   "--out", str(tmp_path / "x.jsonl")])
        assert rc == 2, split
        assert f"unknown split {split!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("key,value", [("count", "2"), ("seed", "abc"),
                                       ("count", True)])
def test_mistyped_config_value_exits_two(tmp_path, capsys, key, value):
    # a string is not a count or a seed, and a JSON bool is not an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tasks": "cycle", "count": 1, key: value}))
    rc = main(["generate", "--config", str(cfg),
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"error: config key {key} expects int")
    assert not (tmp_path / "x.jsonl").exists()


def test_config_values_of_field_type_are_accepted():
    base = PipelineConfig()
    cfg = apply_overrides(base, {
        "tasks": ["cycle", "flow"], "beta": 1, "stub_error_rate": 0.5,
        "count": 3, "profile": "initial"})
    assert (cfg.tasks, cfg.beta, cfg.count) == (["cycle", "flow"], 1, 3)
    assert base == PipelineConfig()     # the input config is left as it was
    with pytest.raises(InvalidSpecError, match="tasks expects list"):
        apply_overrides(PipelineConfig(), {"tasks": ["cycle", 2]})


def test_jobs_flag_only_on_sampling_stages():
    parser = build_parser()
    for stage in ("annotate", "evaluate"):
        args = parser.parse_args([stage, "--problems", "p", "--out", "o",
                                  "--jobs", "3"])
        assert args.jobs == 3
    for argv in (["generate", "--out", "o"],
                 ["select", "--problems", "p", "--paths", "q", "--out", "o"],
                 ["dpo", "--problems", "p", "--paths", "q", "--out", "o"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--jobs", "3"])


def test_select_rejects_orphan_paths(problems_file, tmp_path, capsys):
    paths = tmp_path / "paths.jsonl"
    write_jsonl(str(paths), [{"schema": PATHS_SCHEMA, "id": "ghost-7",
                              "prompt_sha": "x", "texts": ["### Yes."]}])
    rc = main(["select", "--problems", str(problems_file),
               "--paths", str(paths), "--out", str(tmp_path / "s.jsonl")])
    assert rc == 2
    assert "ghost-7" in capsys.readouterr().err


@pytest.mark.parametrize("stage,work", [("select", "judge"),
                                        ("audit", "audit_steps"),
                                        ("dpo", "assemble_dpo")])
def test_orphan_paths_fail_before_any_grading(problems_file, tmp_path, capsys,
                                              monkeypatch, stage, work):
    # the orphan comes after a known problem's paths, and is still found
    # when the paths file is read, before the first path is graded
    from graphcorpus import cli
    known = read_problems(str(problems_file))[0]
    paths = tmp_path / "paths.jsonl"
    write_jsonl(str(paths), [
        {"schema": PATHS_SCHEMA, "id": known.id, "prompt_sha": "x",
         "texts": ["### Yes."]},
        {"schema": PATHS_SCHEMA, "id": "ghost-7", "prompt_sha": "x",
         "texts": ["### Yes."]}])
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    rc = main([stage, "--problems", str(problems_file), "--paths", str(paths),
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 2
    assert ("error: ghost-7: paths reference no known problem"
            in capsys.readouterr().err)
    assert calls == []


def test_missing_out_directory_fails_before_sampling(problems_file, tmp_path,
                                                     capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["annotate", "--problems", str(problems_file), "--backend",
               "stub", "--cache", "c.jsonl", "--out", "nodir/x.jsonl"])
    assert rc == 2
    assert not (tmp_path / "c.jsonl").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'nodir/x.jsonl'" in err, err
    assert ".tmp" not in err


@pytest.mark.parametrize("argv,message", [
    (["annotate", "--out", "{tmp}/folder"], "Is a directory"),
    (["evaluate", "--out", "{tmp}/file"], "File exists"),
    (["evaluate", "--out", "{tmp}/file/report"], "Not a directory"),
    (["annotate", "--cache", "{tmp}/nodir/c.jsonl",
      "--out", "{tmp}/paths.jsonl"], "No such file"),
], ids=["file-out-is-a-directory", "evaluate-out-is-a-file",
        "evaluate-out-below-a-file", "cache-in-a-missing-directory"])
def test_unwritable_outputs_fail_before_any_request(
        problems_file, tmp_path, capsys, monkeypatch, argv, message):
    backends = _recorded_backends(monkeypatch)
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    rc = main([argv[0], "--problems", str(problems_file), "--backend", "stub",
               *argv[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert sum(b.requests for b in backends) == 0
    assert sorted(tmp_path.rglob("*")) == before


def test_http_backend_requires_url(problems_file, tmp_path, capsys):
    rc = main(["annotate", "--problems", str(problems_file),
               "--backend", "http", "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
    assert "base-url" in capsys.readouterr().err


def test_http_base_url_without_scheme_exits_two(problems_file, tmp_path,
                                                 capsys, monkeypatch):
    # found before any request, not after every retry and its back-off
    from graphcorpus.sampler import HttpBackend
    one = tmp_path / "one.jsonl"
    one.write_text(problems_file.read_text(encoding="utf-8").splitlines(True)[0])
    calls = []
    monkeypatch.setattr(HttpBackend, "generate",
                        lambda self, *a: calls.append(a) or [])
    out = tmp_path / "paths.jsonl"
    rc = main(["annotate", "--problems", str(one), "--backend", "http",
               "--base-url", "localhost:8000", "--model", "m",
               "--out", str(out)])
    assert rc == 2
    assert "'localhost:8000'" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--profile", "dpo", "--shots", "1"],
    ["--profile", "dpo", "--shots", "-1"],
    ["--profile", "eval", "--shots", "2"],
    ["--config", "{tmp}/dpo.json", "--shots", "0"],
], ids=["dpo-one-shot", "dpo-negative-shots", "eval-default-shots",
        "config-profile-dpo"])
def test_shots_under_an_instruction_profile_exits_two(
        problems_file, tmp_path, capsys, monkeypatch, argv):
    # the flag used to be ignored, with exit 0
    backends = _recorded_backends(monkeypatch)
    (tmp_path / "dpo.json").write_text(json.dumps({"profile": "dpo"}))
    cache, out = tmp_path / "cache.jsonl", tmp_path / "paths.jsonl"
    rc = main(["annotate", "--problems", str(problems_file), "--backend",
               "stub", "--cache", str(cache), "--out", str(out),
               *(a.format(tmp=tmp_path) for a in argv)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --shots sets CoT prompts; the ") and (
        "profile sends instruction prompts" in err), err
    assert sum(b.requests for b in backends) == 0
    assert not cache.exists() and not out.exists()


@pytest.mark.parametrize("profile", ["augment", "initial", "eval"])
def test_evaluate_has_no_profile_option(problems_file, tmp_path, capsys,
                                        monkeypatch, profile):
    backends = _recorded_backends(monkeypatch)
    cache, out = tmp_path / "cache.jsonl", tmp_path / "report"
    with pytest.raises(SystemExit) as exit_:
        main(["evaluate", "--problems", str(problems_file), "--backend",
              "stub", "--profile", profile, "--cache", str(cache),
              "--out", str(out)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err
    assert sum(b.requests for b in backends) == 0
    assert not cache.exists() and not out.exists()


def test_evaluate_samples_the_eval_profile_whatever_the_config_names(
        problems_file, tmp_path):
    # a config file's profile is annotate's: evaluate sends one instruction
    # prompt per problem at n=1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": "augment"}))
    cache = tmp_path / "cache.jsonl"
    assert main(["evaluate", "--config", str(cfg), "--problems",
                 str(problems_file), "--backend", "stub", "--cache",
                 str(cache), "--out", str(tmp_path / "report")]) == 0
    lines = [json.loads(line) for line in cache.read_text().splitlines()]
    problems = read_problems(str(problems_file))
    assert len(lines) == len(problems)
    assert {(r["profile"], len(r["texts"])) for r in lines} == {("eval", 1)}
    assert ({r["prompt_sha"] for r in lines}
            == {prompt_sha(wrap_instruction(p.text)) for p in problems})
