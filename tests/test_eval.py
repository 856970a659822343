import random

import pytest

from graphcorpus.config import PipelineConfig
from graphcorpus.errors import RecordError
from graphcorpus.evaluate import evaluate, format_report, run_eval
from graphcorpus.generate import generate_corpus, generate_task
from graphcorpus.sampler import Cache, StubBackend
from graphcorpus.transcripts import make_transcript

from oracles import CountingBackend

# the defaults a stage runs with
STAGE = PipelineConfig()


def _truth(p):
    return make_transcript(p, correct=True, rng=random.Random(0))


def _flip(p):
    return make_transcript(p, correct=False, rng=random.Random(0))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(["cycle", "shortest", "hamilton"], 4, seed=21,
                           split="ev", dedupe_keys=set())


def test_evaluate_counts_per_task(corpus):
    predictions = {p.id: _truth(p) for p in corpus}
    # break one cycle prediction, drop one hamilton prediction
    cyc = [p for p in corpus if p.task == "cycle"]
    ham = [p for p in corpus if p.task == "hamilton"]
    predictions[cyc[0].id] = _flip(cyc[0])
    del predictions[ham[0].id]
    report = evaluate(corpus, predictions)
    assert report["tasks"]["cycle"] == {
        "total": 4, "correct": 3, "extraction_failures": 0, "missing": 0,
        "accuracy": 0.75}
    assert report["tasks"]["shortest"]["accuracy"] == 1.0
    ham_row = report["tasks"]["hamilton"]
    assert ham_row["missing"] == 1 and ham_row["accuracy"] == 0.75
    assert report["missing_predictions"] == 1


def test_evaluate_groups_are_unweighted_means(corpus):
    predictions = {p.id: _truth(p) for p in corpus}
    for p in [q for q in corpus if q.task == "cycle"][:2]:
        predictions[p.id] = _flip(p)
    report = evaluate(corpus, predictions)
    assert report["groups"]["easy"] == 0.5          # cycle only
    assert report["groups"]["medium"] == 1.0        # shortest only
    assert report["groups"]["hard"] == 1.0          # hamilton only
    assert report["overall"] == pytest.approx((0.5 + 1.0 + 1.0) / 3)


def test_evaluate_rejects_orphan_predictions(corpus):
    predictions = {p.id: _truth(p) for p in corpus}
    predictions["ghost-1"] = "### Yes."
    with pytest.raises(RecordError) as err:
        evaluate(corpus, predictions)
    assert "ghost-1" in str(err.value)


def test_evaluate_counts_extraction_failures(corpus):
    cyc = [p for p in corpus if p.task == "cycle"]
    predictions = {p.id: _truth(p) for p in corpus}
    predictions[cyc[1].id] = "I refuse to answer."
    report = evaluate(corpus, predictions)
    assert report["tasks"]["cycle"]["extraction_failures"] == 1
    assert report["tasks"]["cycle"]["correct"] == 3


def test_evaluate_empty_inputs():
    report = evaluate([], {})
    assert report == {"tasks": {}, "groups": {}, "overall": 0.0,
                      "missing_predictions": 0}


def test_run_eval_with_stub_ground_truth(corpus):
    backend = StubBackend(corpus, error_rate=0.0, seed=1)
    report = run_eval(corpus, backend, jobs=STAGE.jobs, cache=None,
                      max_requests=None)
    assert report["overall"] == 1.0
    assert all(row["accuracy"] == 1.0 for row in report["tasks"].values())


def test_run_eval_cached_equals_uncached(tmp_path, corpus):
    backend = CountingBackend(StubBackend(corpus, error_rate=0.5, seed=3))
    uncached = run_eval(corpus, backend, jobs=STAGE.jobs, cache=None,
                        max_requests=None)
    cache = Cache(str(tmp_path / "c.jsonl"))
    assert run_eval(corpus, backend, jobs=STAGE.jobs, cache=cache,
                    max_requests=None) == uncached   # fills it
    sent = backend.requests
    assert run_eval(corpus, backend, jobs=STAGE.jobs, cache=cache,
                    max_requests=None) == uncached   # replays it
    assert backend.requests == sent


def test_run_eval_flipped_binary_is_zero():
    problems = generate_task("cycle", 6, seed=8, split="flip", seen=set())
    backend = StubBackend(problems, error_rate=1.0, seed=2)
    report = run_eval(problems, backend, jobs=STAGE.jobs, cache=None,
                      max_requests=None)
    assert report["tasks"]["cycle"]["accuracy"] == 0.0


def test_format_report_layout(corpus):
    predictions = {p.id: _truth(p) for p in corpus}
    ham = [p for p in corpus if p.task == "hamilton"]
    del predictions[ham[0].id]
    text = format_report(evaluate(corpus, predictions))
    lines = text.splitlines()
    assert lines[0].split() == ["task", "total", "correct", "accuracy",
                                "no-parse"]
    assert any(line.startswith("cycle") and "100.0%" in line
               for line in lines)
    assert any(line.startswith("overall") for line in lines)
    assert lines[-1] == "missing predictions: 1"
