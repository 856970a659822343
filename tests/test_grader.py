import pytest

from graphcorpus.generate import generate_task
from graphcorpus.grader import (Answer, ExtractionFailure, Verdict, Violation,
                                audit_steps, check_witness, extract_answer,
                                grade, judge)
from graphcorpus.graphs import Graph
from graphcorpus.tasks import TASK_ORDER
from graphcorpus.textgen import TEMPLATES, Problem

from oracles import solve
from textparse import parse_problem


def _problem(task, g, query=None, answer=None):
    return Problem("t", task, g, query or {}, answer=answer)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("reasoning... ### Yes.", True),
    ("reasoning... ### No,", False),
    ("### No. second thoughts ### Yes.", True),      # last marker wins
    ("no marker here, the answer is yes", True),
    ("The Answer Is No, sadly", False),
])
def test_extract_yes_no(text, expected):
    ans = extract_answer(text, "cycle")
    assert isinstance(ans, Answer)
    assert ans.value is expected


@pytest.mark.parametrize("text,expected", [
    ("### 42.", 42),
    ("### -3", -3),
    ("the answer is 17", 17),
])
def test_extract_numeric(text, expected):
    ans = extract_answer(text, "triangle")
    assert ans.value == expected


def test_extract_sequence_forms():
    assert extract_answer("### [0, 1, 2].", "topology").value == [0, 1, 2]
    assert extract_answer("### 0, 1, 2.", "topology").value == [0, 1, 2]


def test_extract_hamilton_witness():
    ans = extract_answer("### Yes, [0,2,1].", "hamilton")
    assert ans.value is True and ans.witness == [0, 2, 1]
    assert extract_answer("### Yes.", "hamilton").witness is None
    no = extract_answer("### No, [0,1,2]", "hamilton")
    assert no.value is False and no.witness is None


def test_extract_shortest_witness():
    ans = extract_answer("### 4 via [3,4,1]", "shortest")
    assert ans.value == 4 and ans.witness == [3, 4, 1]
    plain = extract_answer("the path is [0,1] ... ### 8.", "shortest")
    assert plain.value == 8 and plain.witness is None


@pytest.mark.parametrize("text,task,fragment", [
    ("no marker at all", "cycle", "no '###' marker"),
    ("### hmm.", "cycle", "no Yes/No"),
    ("### nothing numeric", "triangle", "no integer"),
    ("### no sequence", "topology", "no node sequence"),
])
def test_extraction_failures(text, task, fragment):
    failure = extract_answer(text, task)
    assert isinstance(failure, ExtractionFailure)
    assert fragment in failure.reason


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

CYCLE_YES = _problem("cycle", Graph(3, False, [(0, 1), (1, 2), (0, 2)]),
                     answer=Answer("yes_no", True, witness=[0, 1, 2]))


def test_grade_yes_no():
    assert grade(CYCLE_YES, Answer("yes_no", True)).correct
    verdict = grade(CYCLE_YES, Answer("yes_no", False))
    assert not verdict.correct and verdict.reason == "wrong yes/no answer"


def test_grade_extraction_failure_is_incorrect():
    verdict = grade(CYCLE_YES, ExtractionFailure("nope"))
    assert not verdict.correct and "extraction" in verdict.reason


def test_grade_requires_ground_truth():
    p = _problem("cycle", Graph(2, False, []))
    verdict = grade(p, Answer("yes_no", False))
    assert not verdict.correct and "no ground truth" in verdict.reason


def test_grade_numeric_none_exists():
    g = Graph(3, False, [(0, 1)], node_weights=[1, 1, 1])
    p = _problem("triangle", g, answer=Answer("none_exists"))
    verdict = grade(p, Answer("numeric", 3))
    assert not verdict.correct and verdict.reason == "no answer exists"


def test_grade_topology_accepts_any_valid_order():
    g = Graph(3, True, [(0, 2), (1, 2)])
    p = _problem("topology", g, answer=solve("topology", g))
    assert p.answer.value == [0, 1, 2]
    assert grade(p, Answer("sequence", [1, 0, 2])).correct
    bad = grade(p, Answer("sequence", [2, 0, 1]))
    assert not bad.correct and "violates" in bad.reason
    cyclic = Graph(2, True, [(0, 1), (1, 0)])
    none_p = _problem("topology", cyclic, answer=Answer("none_exists"))
    verdict = grade(none_p, Answer("sequence", [0, 1]))
    assert not verdict.correct and "no valid order" in verdict.reason


def test_grade_hamilton_checks_claimed_path():
    g = Graph(3, False, [(0, 1), (1, 2)])
    p = _problem("hamilton", g, answer=solve("hamilton", g))
    assert grade(p, Answer("yes_no", True, witness=[0, 1, 2])).correct
    assert grade(p, Answer("yes_no", True)).correct   # bare yes is fine
    bad = grade(p, Answer("yes_no", True, witness=[0, 2, 1]))
    assert not bad.correct and "not Hamiltonian" in bad.reason


def test_grade_shortest_checks_claimed_path():
    g = Graph(3, False, [(0, 1, 2), (1, 2, 3), (0, 2, 9)])
    p = _problem("shortest", g, {"u": 0, "v": 2},
                 answer=Answer("numeric", 5, witness=[0, 1, 2]))
    assert grade(p, Answer("numeric", 5, witness=[0, 1, 2])).correct
    bad = grade(p, Answer("numeric", 5, witness=[0, 2]))
    assert not bad.correct and "not optimal" in bad.reason
    assert not grade(p, Answer("numeric", 9)).correct


def test_grade_empty_or_malformed_witness_is_a_verdict():
    g = Graph(3, False, [(0, 1, 2), (1, 2, 3)])
    p = _problem("shortest", g, {"u": 0, "v": 2},
                 answer=Answer("numeric", 5, witness=[0, 1, 2]))
    empty = grade(p, Answer("numeric", 5, witness=[]))
    assert not empty.correct and "not optimal" in empty.reason
    foreign = grade(p, Answer("numeric", 5, witness=[0, 7, 2]))
    assert not foreign.correct and "not optimal" in foreign.reason
    for task in TASK_ORDER:
        for q in generate_task(task, 2, seed=4, split="witness", seen=set()):
            for bad in ([], [0]):
                claim = Answer(q.answer.kind, q.answer.value, witness=bad)
                assert isinstance(grade(q, claim), Verdict), (q.id, bad)


def test_grade_checks_witness_on_every_task():
    bogus = grade(CYCLE_YES, Answer("yes_no", True, witness=[0, 1, 5]))
    assert not bogus.correct and bogus.reason == "claimed witness does not hold"
    assert grade(CYCLE_YES, Answer("yes_no", True, witness=[2, 1, 0])).correct
    # an order exists, so claiming none is wrong, not vacuously valid
    g = Graph(2, True, [(0, 1)])
    p = _problem("topology", g, answer=solve("topology", g))
    assert not grade(p, Answer("none_exists")).correct


def test_judge_runs_extraction_and_audit():
    clean = "loop via (0,1) then (1,2) then (0,2). ### Yes."
    assert judge(CYCLE_YES, clean).correct
    assert audit_steps(CYCLE_YES, clean) == []
    hallucinated = "take (0,1) then (1,9). ### Yes."
    assert judge(CYCLE_YES, hallucinated).correct   # advisory: label still right
    assert len(audit_steps(CYCLE_YES, hallucinated)) == 1


# ---------------------------------------------------------------------------
# the frozen hamilton exemplar with the unwalkable step
# ---------------------------------------------------------------------------

def test_strict_grading_rejects_bad_exemplar_walk():
    # the first frozen hamilton exemplar walks a step its graph lacks; the
    # claimed terminal path is what catches it, since the bad step is phrased
    # as free prose outside the audit's claim grammar
    question, answer_text = TEMPLATES["hamilton"].exemplars[0]
    p = parse_problem(question)
    p = p._replace(answer=solve("hamilton", p.graph))
    assert p.answer.value is True
    extracted = extract_answer(answer_text, "hamilton")
    assert extracted.witness is not None
    strict = judge(p, answer_text)
    assert not strict.correct and "not Hamiltonian" in strict.reason


def test_second_hamilton_exemplar_is_clean():
    question, answer_text = TEMPLATES["hamilton"].exemplars[1]
    p = parse_problem(question)
    p = p._replace(answer=solve("hamilton", p.graph))
    assert judge(p, answer_text).correct
    assert audit_steps(p, answer_text) == []


# ---------------------------------------------------------------------------
# step audit
# ---------------------------------------------------------------------------

DIRECTED = _problem("flow", Graph(4, True, [(0, 1, 4), (1, 2, 3), (2, 3, 5)]),
                    {"s": 0, "t": 3})
UNDIRECTED = _problem("connect", Graph(4, False, [(0, 1), (1, 2), (2, 3)]),
                      {"u": 0, "v": 3})


def test_audit_directed_tuple_claims_respect_direction():
    assert audit_steps(DIRECTED, "push along (0->1).") == []
    wrong_way = audit_steps(DIRECTED, "push along (1->0).")
    assert [v.kind for v in wrong_way] == ["missing-edge"]
    # comma form stays loose even on a directed graph
    assert audit_steps(DIRECTED, "consider (1,0).") == []
    assert audit_steps(DIRECTED, "consider (0->2).")[0].kind == "missing-edge"


def test_audit_weight_claims():
    assert audit_steps(DIRECTED, "edge (0->1,4) carries 4.") == []
    wrong = audit_steps(DIRECTED, "edge (0->1,7) carries 7.")
    assert [v.kind for v in wrong] == ["wrong-weight"]
    # weight claims on an unweighted graph are not checked
    assert audit_steps(UNDIRECTED, "edge (0,1,7).") == []


def test_audit_chains_ignore_direction():
    assert audit_steps(UNDIRECTED, "follow [3->2->1->0].") == []
    broken = audit_steps(UNDIRECTED, "follow [0->1->3].")
    assert [v.kind for v in broken] == ["missing-edge"]
    assert "1->3" in broken[0].detail


def test_audit_prose_claims():
    assert audit_steps(UNDIRECTED, "node 2 is connected to node 1.") == []
    missing = audit_steps(UNDIRECTED, "node 0 is connected to node 3.")
    assert [v.kind for v in missing] == ["missing-edge"]


def test_audit_unknown_nodes():
    out = audit_steps(UNDIRECTED, "jump via (0,9). then [0->11]. node 12 is "
                                  "connected to node 0.")
    assert [v.kind for v in out] == ["unknown-node"] * 3


def test_audit_reports_sentence_indices():
    text = "first step is fine (0,1). second uses (0,2). third uses (0,3)."
    out = audit_steps(UNDIRECTED, text)
    assert [(v.sentence, v.kind) for v in out] == [
        (1, "missing-edge"), (2, "missing-edge")]


def test_audit_counts_every_occurrence():
    out = audit_steps(UNDIRECTED, "try (0,2) and (0,2) again. then (0,2).")
    assert len(out) == 3


# ---------------------------------------------------------------------------
# witness checking
# ---------------------------------------------------------------------------

def test_check_witness_cycle_and_connect():
    g = Graph(4, False, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert check_witness(_problem("cycle", g),
                         Answer("yes_no", True, witness=[0, 1, 2]))
    assert not check_witness(_problem("cycle", g),
                             Answer("yes_no", True, witness=[0, 1, 3]))
    p = _problem("connect", g, {"u": 0, "v": 3})
    assert check_witness(p, Answer("yes_no", True, witness=[0, 2, 3]))
    assert not check_witness(p, Answer("yes_no", True, witness=[1, 2, 3]))


def test_check_witness_bipartite():
    g = Graph(4, True, [(0, 2), (1, 2), (1, 3)])
    p = _problem("bipartite", g)
    assert check_witness(p, Answer("yes_no", True, witness=[[0, 1], [2, 3]]))
    # overlapping or incomplete sides are rejected
    assert not check_witness(p, Answer("yes_no", True,
                                       witness=[[0, 1, 2], [2, 3]]))
    assert not check_witness(p, Answer("yes_no", True, witness=[[0], [2, 3]]))
    # an intra-side edge is rejected
    assert not check_witness(p, Answer("yes_no", True,
                                       witness=[[0, 2], [1, 3]]))


def test_check_witness_triangle_and_flow():
    g = Graph(3, False, [(0, 1), (1, 2), (0, 2)], node_weights=[2, 3, 4])
    assert check_witness(_problem("triangle", g),
                         Answer("numeric", 9, witness=[0, 1, 2]))
    assert not check_witness(_problem("triangle", g),
                             Answer("numeric", 8, witness=[0, 1, 2]))
    fg = Graph(3, True, [(0, 1, 5), (1, 2, 2)])
    fp = _problem("flow", fg, {"s": 0, "t": 2})
    assert check_witness(fp, Answer("numeric", 2, witness=[0, 1]))
    assert not check_witness(fp, Answer("numeric", 2, witness=[0]))
    assert not check_witness(fp, Answer("numeric", 2, witness=[0, 1, 2]))


def test_check_witness_subgraph_requires_injective_map():
    host = Graph(3, True, [(0, 1), (1, 2)])
    pattern = Graph(2, True, [(0, 1)])
    p = _problem("subgraph", host, {"pattern": pattern})
    assert check_witness(p, Answer("yes_no", True, witness=[[0, 1], [1, 2]]))
    assert not check_witness(p, Answer("yes_no", True,
                                       witness=[[0, 1], [1, 1]]))
    assert not check_witness(p, Answer("yes_no", True,
                                       witness=[[0, 2], [1, 0]]))
    # malformed: a 3-element pair, the map as a dict, a pattern node twice
    # (its other pairs a valid embedding), a pattern node missing
    for bad in ([[0, 1, 2], [1, 2]], {0: 1, 1: 2}, [[0, 1], [1, 2], [1, 2]],
                [[0, 1]]):
        assert not check_witness(p, Answer("yes_no", True, witness=bad)), bad


def test_check_witness_bipartite_odd_cycle_ignores_direction():
    g = Graph(4, True, [(0, 1), (2, 1), (0, 2), (2, 3)])
    p = _problem("bipartite", g)
    assert check_witness(p, Answer("yes_no", False, witness=[0, 1, 2]))
    assert check_witness(p, Answer("yes_no", False, witness=[1, 0, 2]))
    assert not check_witness(p, Answer("yes_no", False, witness=[0, 1, 3]))
    assert not check_witness(p, Answer("yes_no", False, witness=[0, 1, 2, 3]))


@pytest.mark.parametrize("task", TASK_ORDER)
def test_check_witness_of_the_wrong_shape_is_false_not_an_error(task):
    # stored answers are read from files: wherever the answer carries a
    # witness (for topology, the order), a malformed one fails the check
    for q in generate_task(task, 4, seed=4, split="witness", seen=set()):
        assert check_witness(q, q.answer), q.id
        ans = q.answer
        carries = ans.witness is not None or ans.kind == "sequence"
        for bad in (None, 5, ["a"], [[0]]):
            claim = (Answer(ans.kind, bad) if ans.kind == "sequence"
                     else Answer(ans.kind, ans.value, witness=bad))
            assert check_witness(q, claim) is (not carries), (q.id, bad)


def test_violation_fields():
    v = audit_steps(UNDIRECTED, "use (0,3).")[0]
    assert isinstance(v, Violation)
    assert v.sentence == 0 and "(0,3)" in v.detail
