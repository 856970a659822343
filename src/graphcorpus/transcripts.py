"""Deterministic reference transcripts for problems with known answers.

Correct transcripts narrate the ground-truth witness, one `_NARRATIONS`
entry per task, using only true facts about the graph (so a step audit
finds nothing) and end with the terminal "###" marker. Incorrect
transcripts corrupt the final answer in a way the grader is guaranteed to
reject: booleans flip, numbers shift, sequences gain a duplicate node.
"""

from __future__ import annotations

import random

from .errors import InvalidSpecError
from .tasks import get_task
from .textgen import Answer, Problem, _letter


def _fillers(problem: Problem, rng: random.Random) -> list[str]:
    """A few true edge statements to vary transcript length and wording."""
    edges = problem.graph.edge_pairs
    if not edges:
        return []
    k = rng.randint(0, min(3, len(edges)))
    picks = rng.sample(edges, k)
    out = []
    for u, v in picks:
        if problem.graph.directed:
            out.append(f"There is an edge from node {u} to node {v}.")
        else:
            out.append(f"Node {u} is connected to node {v}.")
    return out


def _seq(nodes: list[int]) -> str:
    return "[" + ",".join(str(x) for x in nodes) + "]"


def _chain(nodes: list[int]) -> str:
    return "[" + "->".join(str(x) for x in nodes) + "]"


def _shortest(p: Problem, ans: Answer) -> str:
    g, path = p.graph, list(ans.witness)
    terms = [str(g.weight_map[g.key(a, b)]) for a, b in zip(path, path[1:])]
    total = " + ".join(terms) if terms else "0"
    return (
        f"The path {_chain(path)} has total weight <<{total} = "
        f"{ans.value}>>, and no cheaper route exists. ### {ans.value}."
    )


def _triangle(p: Problem, ans: Answer) -> str:
    a, b, c = ans.witness
    nw = p.graph.node_weights
    return (
        f"Nodes {a}, {b}, and {c} are linked through the edges "
        f"({a}, {b}), ({a}, {c}), and ({b}, {c}); their weights sum to "
        f"<<{nw[a]} + {nw[b]} + {nw[c]} = {ans.value}>>. ### {ans.value}."
    )


# Each task's narration of a problem's ground-truth answer.
_NARRATIONS = {
    "cycle": lambda p, ans: (
        f"We can follow the loop: {_chain(list(ans.witness) + [ans.witness[0]])}, "
        f"which returns to its starting node after visiting "
        f"{len(ans.witness)} distinct nodes. ### Yes."
    ) if ans.value else (
        "Exploring from every node, no walk returns to its starting node "
        "through distinct neighbors, so the graph is acyclic. ### No."
    ),
    "connect": lambda p, ans: (
        f"We can follow the path: {_chain(ans.witness)}, "
        f"so the answer is yes. ### Yes."
    ) if ans.value else (
        f"Node {p.query['u']} and node {p.query['v']} sit in different "
        f"connected blocks, so the answer is no. ### No."
    ),
    "bipartite": lambda p, ans: (
        f"We can split the nodes into two groups of {len(ans.witness[0])} and "
        f"{len(ans.witness[1])} nodes so that every edge joins the two groups. "
        "### Yes."
    ) if ans.value else (
        f"Ignoring directions, {', '.join(f'node {x}' for x in ans.witness)} "
        f"form a cycle of odd length {len(ans.witness)}, so no two-group "
        "split works. ### No."
    ),
    "topology": lambda p, ans: (
        f"We repeatedly take a node with no remaining incoming edges: "
        f"{', then '.join(f'node {x}' for x in ans.value[:3])}, and so on. "
        f"One valid topology sorting path is {_seq(ans.value)}. "
        f"### {_seq(ans.value)}."
    ),
    "shortest": _shortest,
    "triangle": _triangle,
    "flow": lambda p, ans: (
        f"Routing flow along the available capacities until no "
        f"augmenting route remains, the maximum flow from node "
        f"{p.query['s']} to node {p.query['t']} is {ans.value} units. "
        f"### {ans.value}."
    ),
    "hamilton": lambda p, ans: (
        f"Visiting each node exactly once, one possible Hamiltonian "
        f"path is: {_seq(ans.witness)}. ### Yes, {_seq(ans.witness)}."
    ) if ans.value else (
        "No route can visit every node exactly once without getting "
        "stuck, so no Hamiltonian path exists. ### No."
    ),
    "subgraph": lambda p, ans: (
        "Mapping " + ", ".join(f"node {_letter(a)} to node {h}"
                               for a, h in ans.witness)
        + " preserves every edge of G', so G' appears inside G. ### Yes."
    ) if ans.value else (
        "No assignment of distinct nodes of G preserves all the edges of "
        "G', so G' does not appear inside G. ### No."
    ),
}


def _incorrect_body(problem: Problem, ans: Answer, rng: random.Random) -> str:
    kind = get_task(problem.task).answer_kind
    if kind == "yes_no":
        flipped = "No" if ans.value else "Yes"
        return (
            f"Checking the structure of the graph, the answer appears to be "
            f"{flipped.lower()}. ### {flipped}."
        )
    if kind == "sequence":
        order = list(ans.value)
        bad = order + [order[0]]
        return (
            f"Taking the nodes in discovery order gives {_seq(bad)}. "
            f"### {_seq(bad)}."
        )
    wrong = ans.value + rng.randint(1, 3)
    return f"Summing along the best route found gives {wrong}. ### {wrong}."


def make_transcript(problem: Problem, *, correct: bool,
                    rng: random.Random) -> str:
    """A reasoning text for the problem that grades correct (or not)."""
    ans = problem.answer
    if ans is None:
        raise InvalidSpecError(f"problem {problem.id} has no ground-truth answer")
    openers = [
        "Let's work through the graph step by step.",
        "We reason over the structure of the graph.",
        "Consider the nodes and edges one by one.",
    ]
    parts = [rng.choice(openers)]
    parts.extend(_fillers(problem, rng))
    body = (_NARRATIONS[problem.task](problem, ans) if correct
            else _incorrect_body(problem, ans, rng))
    parts.append(body)
    return "\n".join(parts)
