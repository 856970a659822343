"""Deterministic reference transcripts for problems with known answers.

Correct transcripts narrate the ground-truth witness using only true facts
about the graph (so a step audit finds nothing) and end with the terminal
"###" marker. Incorrect transcripts corrupt the final answer in a way the
grader is guaranteed to reject: booleans flip, numbers shift, sequences gain
a duplicate node.
"""

from __future__ import annotations

import random

from .errors import InvalidSpecError
from .tasks import get_task
from .textgen import Problem, _letter


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


def _correct_body(problem: Problem, rng: random.Random) -> str:
    task = problem.task
    ans = problem.answer
    g = problem.graph
    if ans is None:
        raise InvalidSpecError(f"problem {problem.id} has no ground-truth answer")
    if task == "cycle":
        if ans.value:
            loop = list(ans.witness) + [ans.witness[0]]
            return (
                f"We can follow the loop: {_chain(loop)}, which returns to its "
                f"starting node after visiting {len(ans.witness)} distinct nodes. "
                "### Yes."
            )
        return (
            "Exploring from every node, no walk returns to its starting node "
            "through distinct neighbors, so the graph is acyclic. ### No."
        )
    if task == "connect":
        u, v = problem.query["u"], problem.query["v"]
        if ans.value:
            return (
                f"We can follow the path: {_chain(list(ans.witness))}, "
                f"so the answer is yes. ### Yes."
            )
        return (
            f"Node {u} and node {v} sit in different connected blocks, "
            f"so the answer is no. ### No."
        )
    if task == "bipartite":
        if ans.value:
            side0, side1 = ans.witness
            return (
                f"We can split the nodes into two groups of {len(side0)} and "
                f"{len(side1)} nodes so that every edge joins the two groups. "
                "### Yes."
            )
        cyc = ans.witness
        names = ", ".join(f"node {x}" for x in cyc)
        return (
            f"Ignoring directions, {names} form a cycle of odd length "
            f"{len(cyc)}, so no two-group split works. ### No."
        )
    if task == "topology":
        order = list(ans.value)
        lead = ", then ".join(f"node {x}" for x in order[: min(3, len(order))])
        return (
            f"We repeatedly take a node with no remaining incoming edges: "
            f"{lead}, and so on. One valid topology sorting path is "
            f"{_seq(order)}. ### {_seq(order)}."
        )
    if task == "shortest":
        path = list(ans.witness)
        terms = [str(g.weight_map[g.key(a, b)]) for a, b in zip(path, path[1:])]
        total = " + ".join(terms) if terms else "0"
        return (
            f"The path {_chain(path)} has total weight <<{total} = "
            f"{ans.value}>>, and no cheaper route exists. ### {ans.value}."
        )
    if task == "triangle":
        a, b, c = ans.witness
        nw = g.node_weights
        return (
            f"Nodes {a}, {b}, and {c} are linked through the edges "
            f"({a}, {b}), ({a}, {c}), and ({b}, {c}); their weights sum to "
            f"<<{nw[a]} + {nw[b]} + {nw[c]} = {ans.value}>>. ### {ans.value}."
        )
    if task == "flow":
        s, t = problem.query["s"], problem.query["t"]
        return (
            f"Routing flow along the available capacities until no "
            f"augmenting route remains, the maximum flow from node {s} to "
            f"node {t} is {ans.value} units. ### {ans.value}."
        )
    if task == "hamilton":
        if ans.value:
            path = list(ans.witness)
            return (
                f"Visiting each node exactly once, one possible Hamiltonian "
                f"path is: {_seq(path)}. ### Yes, {_seq(path)}."
            )
        return (
            "No route can visit every node exactly once without getting "
            "stuck, so no Hamiltonian path exists. ### No."
        )
    # subgraph
    if ans.value:
        pairs = ", ".join(
            f"node {_letter(p)} to node {h}" for p, h in sorted(ans.witness.items())
        )
        return (
            f"Mapping {pairs} preserves every edge of G', so G' appears "
            f"inside G. ### Yes."
        )
    return (
        "No assignment of distinct nodes of G preserves all the edges of "
        "G', so G' does not appear inside G. ### No."
    )


def _incorrect_body(problem: Problem, rng: random.Random) -> str:
    ans = problem.answer
    if ans is None:
        raise InvalidSpecError(f"problem {problem.id} has no ground-truth answer")
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


def make_transcript(problem: Problem, *, correct: bool = True,
                    rng: random.Random | None = None) -> str:
    """A reasoning text for the problem that grades correct (or not)."""
    rng = rng or random.Random(0)
    openers = [
        "Let's work through the graph step by step.",
        "We reason over the structure of the graph.",
        "Consider the nodes and edges one by one.",
    ]
    parts = [rng.choice(openers)]
    parts.extend(_fillers(problem, rng))
    body = _correct_body(problem, rng) if correct else _incorrect_body(problem, rng)
    parts.append(body)
    return "\n".join(parts)
