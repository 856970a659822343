from pathlib import Path

import pytest

from graphcorpus.errors import InvalidSpecError
from graphcorpus.grader import extract_answer, is_topo_order
from graphcorpus.graphs import Graph
from graphcorpus.solvers import Answer
from graphcorpus.textgen import (ALPACA_PREFIX, TEMPLATES, ZERO_SHOT_SUFFIX,
                                 build_cot_prompt, estimate_tokens,
                                 render_problem, wrap_instruction)

from oracles import solve
from textparse import ParseError, parse_problem

GOLDEN = Path(__file__).parent / "golden"

# the same fixed problems the golden prompts were built from
GOLDEN_CASES = {
    "cycle": (Graph(5, False, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
              None),
    "connect": (Graph(5, False, [(0, 1), (1, 2), (3, 4)]), {"u": 0, "v": 2}),
    "bipartite": (Graph(4, True, [(0, 2), (1, 2), (1, 3)]), None),
    "topology": (Graph(5, True, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
                 None),
    "shortest": (Graph(4, False, [(0, 1, 3), (1, 2, 1), (0, 2, 5),
                                  (2, 3, 2)]), {"u": 0, "v": 3}),
    "triangle": (Graph(4, False, [(0, 1), (0, 2), (1, 2), (2, 3)],
                       node_weights=[4, 7, 1, 9]), None),
    "flow": (Graph(4, True, [(0, 1, 4), (1, 2, 3), (0, 2, 2), (2, 3, 5)]),
             {"s": 0, "t": 3}),
    "hamilton": (Graph(4, False, [(0, 1), (1, 2), (2, 3)]), None),
    "subgraph": (Graph(4, True, [(0, 1), (1, 2), (2, 3), (0, 2)]),
                 {"pattern": Graph(3, True, [(0, 1), (1, 2)])}),
}


@pytest.mark.parametrize("task", sorted(GOLDEN_CASES))
def test_two_shot_prompts_match_golden(task):
    g, query = GOLDEN_CASES[task]
    prompt = build_cot_prompt(task, render_problem(task, g, query))
    assert prompt == (GOLDEN / f"{task}_2shot.txt").read_text("utf-8")


def test_zero_shot_prompt_matches_golden():
    g, query = GOLDEN_CASES["cycle"]
    prompt = build_cot_prompt("cycle", render_problem("cycle", g, query),
                              shots=0)
    assert prompt == (GOLDEN / "cycle_0shot.txt").read_text("utf-8")
    assert prompt.endswith(ZERO_SHOT_SUFFIX)


def test_alpaca_wrap_matches_golden():
    g, query = GOLDEN_CASES["cycle"]
    wrapped = wrap_instruction(render_problem("cycle", g, query))
    assert wrapped == (GOLDEN / "cycle_alpaca.txt").read_text("utf-8")
    assert wrapped.startswith(ALPACA_PREFIX)
    assert wrapped.endswith("### Response:")


def test_wrap_rejects_marked_text():
    with pytest.raises(InvalidSpecError):
        wrap_instruction("already has ### Instruction: inside")
    with pytest.raises(InvalidSpecError):
        wrap_instruction("already has ### Response: inside")


def test_build_cot_prompt_validates_shots():
    text = render_problem("cycle", *GOLDEN_CASES["cycle"])
    with pytest.raises(InvalidSpecError):
        build_cot_prompt("cycle", text, shots=-1)
    with pytest.raises(InvalidSpecError):
        build_cot_prompt("cycle", text, shots=3)
    one = build_cot_prompt("cycle", text, shots=1)
    q0 = TEMPLATES["cycle"].exemplars[0][0]
    q1 = TEMPLATES["cycle"].exemplars[1][0]
    assert q0 in one and q1 not in one


def test_estimate_tokens_rounds_up():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2


@pytest.mark.parametrize("task", sorted(GOLDEN_CASES))
def test_parse_inverts_render(task):
    g, query = GOLDEN_CASES[task]
    p = parse_problem(render_problem(task, g, query))
    assert p.task == task
    assert p.graph == g
    assert p.query == (query or {})


def test_render_edgeless_graph_round_trips():
    g = Graph(3, False, [])
    text = render_problem("cycle", g)
    assert "no edges" in text
    assert parse_problem(text).graph == g


@pytest.mark.parametrize("task", sorted(TEMPLATES))
def test_exemplars_parse_and_agree_with_solvers(task):
    for question, answer_text in TEMPLATES[task].exemplars:
        p = parse_problem(question)
        assert p.task == task
        truth = solve(task, p.graph, p.query)
        extracted = extract_answer(answer_text, task)
        assert isinstance(extracted, Answer), extracted
        if extracted.kind == "sequence":
            assert truth.kind == "sequence"
            assert is_topo_order(p.graph, extracted.value)
        else:
            assert extracted.kind == truth.kind
            assert extracted.value == truth.value


def test_parse_duplicate_edges_dedupe():
    text = ("The nodes are numbered from 0 to 2, and the edges are: "
            "(0,1) (1,2) (0,1) (1,0). Is there a cycle in this graph?")
    assert list(parse_problem(text).graph.edges) == [(0, 1), (1, 2)]


def test_parse_conflicting_weights_rejected():
    text = ("The nodes are numbered from 0 to 2, and the edges are: "
            "(0,1,4) (1,2,2) (0,1,5). Give the weight of the shortest path "
            "from node 0 to node 2.")
    with pytest.raises(ParseError):
        parse_problem(text)


@pytest.mark.parametrize("text,fragment", [
    ("what is this even", "unknown task phrasing"),
    ("The edges are: (0,1). Is there a cycle in this graph?",
     "missing node count"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0,5). "
     "Is there a cycle in this graph?", "outside"),
    ("The nodes are numbered from 0 to 2, and the edges are: (1,1). "
     "Is there a cycle in this graph?", "self loop"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0,1) (1,2). "
     "Is there a path between node 0 and node 7?", "outside the graph"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0,1) (1,2). "
     "Give the weight of the shortest path from node 0 to node 2.",
     "need a weight"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0,1,3) (1,2,2)."
     " Is there a cycle in this graph?", "unweighted"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0->1) (1->2). "
     "Is there a cycle in this graph?", "must use (i,j) form"),
    ("The nodes are numbered from 0 to 2, and the edges are: (0,1) (1,2). "
     "Give one topology sorting path of this graph.", "must use (i->j) form"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert fragment in str(err.value)


def test_parse_error_carries_offset():
    text = ("The nodes are numbered from 0 to 2, and the edges are: "
            "(0,1) (0,9). Is there a cycle in this graph?")
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert err.value.offset == text.index("(0,9)")


def test_render_rejects_unknown_task():
    with pytest.raises(InvalidSpecError):
        render_problem("coloring", Graph(2, False, [(0, 1)]))
