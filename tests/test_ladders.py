"""Corpora nest: a volume curve compares training sets that contain each
other, so a smaller rung must be a part of the larger one.

For a fixed seed and split, the problems of a smaller count are the
problems of a larger count with the same ids, and `select_diverse` at a
smaller cap picks the first picks it makes at cap=5.
"""

import pytest

from graphcorpus.config import PipelineConfig
from graphcorpus.corpus import problem_to_record
from graphcorpus.generate import generate_corpus
from graphcorpus.grader import judge
from graphcorpus.sampler import StubBackend, get_profile
from graphcorpus.selector import select_diverse
from graphcorpus.tasks import TASK_ORDER
from graphcorpus.textgen import build_cot_prompt

# the defaults a stage runs with
STAGE = PipelineConfig()

SEED = 3
SPLIT = "test"


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(STAGE.tasks, 4, seed=SEED, split=SPLIT,
                           dedupe_keys=set())


def test_problems_of_a_smaller_count_are_those_of_a_larger_count(
        small_corpus):
    large = {p.id: problem_to_record(p)
             for p in generate_corpus(STAGE.tasks, 8, seed=SEED, split=SPLIT,
                                      dedupe_keys=set())}
    assert len(small_corpus) == 4 * len(TASK_ORDER)
    for p in small_corpus:
        assert problem_to_record(p) == large[p.id]


def test_select_diverse_at_a_smaller_cap_is_a_prefix_of_cap_five(
        small_corpus):
    # the paths of `annotate --profile augment` on the stub backend, and
    # the correct ones among them, as `select` reads them
    profile = get_profile("augment")
    backend = StubBackend(small_corpus, seed=SEED,
                          error_rate=STAGE.stub_error_rate)
    for p in small_corpus:
        texts = backend.generate(build_cot_prompt(p.task, p.text, shots=2),
                                 profile)
        correct = [t for t in texts if judge(p, t).correct]
        full = select_diverse(correct, cap=5, seed=SEED)
        assert len(full) == 5, p.id
        for k in range(1, 5):
            assert select_diverse(correct, cap=k, seed=SEED) == full[:k], (
                p.id, k)
