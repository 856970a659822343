"""Problem and Answer records, text rendering, and prompt assembly.

Each task renders its graph with the preamble, edge tuple style and
question sentence of its `tasks.TaskInfo` entry (some tasks use "(u,v)",
some "(u->v)", weighted variants add ",k", triangle spaces its tuples).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import starmap
from typing import NamedTuple

from .errors import InvalidSpecError
from .graphs import Graph
from .tasks import get_task


class Answer(NamedTuple):
    kind: str                # yes_no | numeric | sequence | none_exists
    value: object = None     # bool | int | list[int] | None
    witness: object = None


class Problem(NamedTuple):
    id: str
    task: str
    graph: Graph
    query: dict
    answer: Answer | None = None
    tier: dict | None = None     # {"n": int, "p": float, "difficulty": str}
    seed: int | None = None
    text: str = ""


class TaskTemplate(NamedTuple):
    header: str
    lead_in: str
    exemplars: tuple[tuple[str, str], ...]   # (question, answer) pairs


def _letter(i: int) -> str:
    if not (0 <= i < 26):
        raise InvalidSpecError(f"pattern node {i} cannot be lettered (supports a..z)")
    return chr(ord("a") + i)


def _edge_section(style: str, edges: tuple, letters: bool = False) -> str:
    """The edge clause, each edge written in the task's tuple style; pattern
    graphs letter their nodes."""
    if not edges:
        return "there are no edges in the graph"
    if letters:
        edges = [(_letter(e[0]), _letter(e[1])) for e in edges]
    return "the edges are: " + " ".join(starmap(style.format, edges))


def render_problem(task: str, g: Graph, query: dict) -> str:
    """The task's graph preamble plus its question sentence; node weights
    and a pattern graph are rendered only where the graph has them."""
    info = get_task(task)
    nw, pattern = g.node_weights, query.get("pattern")
    return f"{info.preamble} {info.question}".format(
        last=g.num_nodes - 1,
        edges=_edge_section(info.edge_style, g.edges),
        weights=" ".join(f"[{i}, {w}]" for i, w in enumerate(nw)) if nw else "",
        pattern_last=_letter(pattern.num_nodes - 1) if pattern else "",
        pattern_edges=_edge_section(info.edge_style, pattern.edges, letters=True)
        if pattern else "",
        **query)


ALPACA_PREFIX = (
    "Below is an instruction that describes a task.\n"
    "Write a response that appropriately completes the request.\n\n"
    "### Instruction:\n"
)


def wrap_instruction(question: str) -> str:
    """Wrap a rendered problem in the instruction-following input format."""
    if "### Instruction:" in question or "### Response:" in question:
        raise InvalidSpecError("question text already contains instruction markers")
    return f"{ALPACA_PREFIX}{question}\n\n### Response:"


def estimate_tokens(text: str) -> int:
    """Cheap length gate: about four characters per token."""
    return math.ceil(len(text) / 4)


# ---------------------------------------------------------------------------
# Chain-of-thought prompt templates. Headers and the exemplars of connect,
# shortest, flow, triangle, hamilton, and subgraph are frozen interface
# strings (including their original typos); cycle, bipartite, and topology
# exemplars are authored here in the same voice and verified against the
# solvers in the test suite.
# ---------------------------------------------------------------------------

TEMPLATES: dict[str, TaskTemplate] = {
    "cycle": TaskTemplate(
        header=(
            "Determine whether or not there is a cycle in an undirected graph. "
            "Begin with '###' to give your final conclusion.\n"
            "In an undirected graph, (i,j) means that node i and node j are "
            "connected with an undirected edge.\n"
            "Given a graph, you need to output Yes or No step by step, "
            "indicating whether there is a cycle in the graph."
        ),
        lead_in="Below are examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 4, and the edges are: "
                "(0,1) (1,2) (2,3) (0,3) (3,4). Is there a cycle in this graph?",
                "Starting from node 0, we can go to node 1, then from node 1 to "
                "node 2, then from node 2 to node 3. Node 3 connects back to "
                "node 0, which we have already visited. The walk 0-1-2-3-0 "
                "visits four distinct nodes and returns to its start, so it "
                "forms a cycle. ### Yes.",
            ),
            (
                "The nodes are numbered from 0 to 4, and the edges are: "
                "(0,1) (0,2) (1,3) (1,4). Is there a cycle in this graph?",
                "The graph has 5 nodes and 4 edges. Starting from node 0 we "
                "can reach node 1 and node 2; from node 1 we can reach node 3 "
                "and node 4. Every node is reached exactly once and no edge "
                "leads back to an already visited node, so the graph is a "
                "tree. A tree never contains a cycle. ### No.",
            ),
        ),
    ),
    "connect": TaskTemplate(
        header=(
            "Determine if there is a path between two nodes in the graph.\n"
            "Note that (i,j) means that node i and node j are connected with "
            "an undirected edge.\n"
            "Given a graph and a pair of nodes, you need to output Yes or No "
            "step by step, indicating whether the node i and node j are "
            "connected."
        ),
        lead_in="Below are several examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 5, and the edges are: "
                "(0,1) (1,2) (3,4) (4,5). Is there a path between node 1 and "
                "node 4?",
                "Node 1 is in the connected block consisted of node 0, node 1, "
                "and node 2.\nNode 4 is in the connected block consisting of "
                "node 3, node 4, and node 5. Node 1 and node 4 are not in the "
                "same connected block, so the answer is no. ### No.",
            ),
            (
                "The nodes are numbered from 0 to 5, and the edges are: "
                "(0,1) (0,2) (1,5) (1,2) (1,3) (2,5). Is there a path between "
                "node 2 and node 3?",
                "Node 2 is connected to node 1, node 1 is connected to node 3. "
                "We can follow the path: [2->1->3], so the answer is yes. "
                "### Yes.",
            ),
        ),
    ),
    "bipartite": TaskTemplate(
        header=(
            "Determine whether or not a graph is bipartite.\n"
            "In a directed graph, (i->j) means that node i and node j are "
            "connected with an directed edge from node i to node j.\n"
            "Given a graph, you need to output 'Yes' or 'No' step by step, "
            "indicating whether the graph is bipartite."
        ),
        lead_in="Below are examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 3, and the edges are: "
                "(0->2) (0->3) (1->2) (1->3). Is this graph bipartite?",
                "Ignoring edge directions, nodes 0 and 1 only connect to "
                "nodes 2 and 3. We can put node 0 and node 1 in one group and "
                "node 2 and node 3 in the other group; every edge joins a "
                "node from the first group with a node from the second group. "
                "No edge stays inside a single group, so the graph is "
                "bipartite. ### Yes.",
            ),
            (
                "The nodes are numbered from 0 to 2, and the edges are: "
                "(0->1) (1->2) (2->0). Is this graph bipartite?",
                "Ignoring edge directions, nodes 0, 1, and 2 form a triangle: "
                "0-1, 1-2, and 2-0. A triangle is a cycle of odd length 3, and "
                "a graph containing an odd cycle cannot be split into two "
                "groups without an edge inside one group. Therefore the graph "
                "is not bipartite. ### No.",
            ),
        ),
    ),
    "topology": TaskTemplate(
        header=(
            "Find one of the topology sorting paths of the given graph.\n"
            "In a directed graph, (i->j) means that node i and node j are "
            "connected with a directed edge from node i to node j.\n"
            "Given a graph, you need to output one of the topology sorting "
            "paths of the graph."
        ),
        lead_in="Below are several examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 3, and the edges are: "
                "(0->1) (0->2) (1->3) (2->3). Give one topology sorting path "
                "of this graph.",
                "We look for nodes with no incoming edges first. Node 0 has "
                "no incoming edge, so it comes first. Removing node 0 leaves "
                "node 1 and node 2 with no incoming edges; we take node 1 and "
                "then node 2. Node 3 depends on node 1 and node 2, so it "
                "comes last. One valid topology sorting path is [0, 1, 2, 3]. "
                "### [0, 1, 2, 3].",
            ),
            (
                "The nodes are numbered from 0 to 4, and the edges are: "
                "(1->0) (1->2) (2->0) (3->2) (3->4) (4->0). Give one topology "
                "sorting path of this graph.",
                "Node 1 and node 3 have no incoming edges. We pick node 1 "
                "first, then node 3. With those removed, node 2 has no "
                "remaining incoming edges, so it comes next, followed by "
                "node 4. Node 0 receives edges from node 1, node 2, and "
                "node 4, so it must come last. One valid topology sorting "
                "path is [1, 3, 2, 4, 0]. ### [1, 3, 2, 4, 0].",
            ),
        ),
    ),
    "shortest": TaskTemplate(
        header=(
            "Find the shortest path between two nodes in an undirected graph.\n"
            "In an undirected graph, (i,j,k) means that node i and node j are "
            "connected with an undirected edge with weight k.\n"
            "Given a graph and a pair of nodes, you need to output the "
            "shortest path between the two nodes."
        ),
        lead_in="Below are several examples:",
        exemplars=(
            (
                "In an undirected graph, the nodes are numbered from 0 to 6, "
                "and the edges are: (0,1,1) (1,2,2) (0,2,4) (0,4,2) (2,6,2) "
                "(4,6,4) (4,3,5) (6,5,3) (3,5,4). Give the weight of the "
                "shortest path from node 0 to node 5.",
                "All the paths from node 0 to node 5 are:\n"
                "0,2,6,5 with a total weight of <<4 + 2 + 3 = 9>>,\n"
                "0,1,2,6,5 with a total weight of <<1 + 2 + 2 + 3 = 8>>,\n"
                "0,4,6,5 with a total weight of <<2 + 4 + 3 = 9>>,\n"
                "0,4,3,5 with a total weight of <<2 + 5 + 4 = 11>>.\n"
                "The weight of path 0,1,2,6,5 is the smallest, so the shortest "
                "path from node 0 to node 5 is [0,1,2,6,5] with a total weight "
                "of 8. ### 8.",
            ),
            (
                "In an undirected graph, the nodes are numbered from 0 to 4, "
                "and the edges are: (0,3,2) (0,4,1) (0,2,1) (4,1,2) (2,1,1) "
                "(3,2,4) (2,4,1) (3,4,2). Give the weight of the shortest path "
                "from node 3 to node 1.",
                "All the paths from node 3 to node 1 are:\n"
                "3,2,1 with a total weight of <<4 + 1 = 5>>,\n"
                "3,2,4,1 with a total weight of <<4 + 1 + 2 = 7>>,\n"
                "3,4,1 with a total weight of <<2 + 2 = 4>>,\n"
                "3,4,2,1 with a total weight of <<2 + 1 + 1 = 4>>,\n"
                "3,0,4,1 with a total weight of <<2 + 1 + 2 = 5>>,\n"
                "3,0,2,1 with a total weight of <<2 + 1 + 1 = 4>>,\n"
                "3,4,2,4,1 with a total weight of <<2 + 1 + 1 + 2 = 6>>.\n"
                "The weight of path 3,4,1 is the smallest, so the shortest "
                "path from node 3 to node 1 is [3,4,1] with a total weight of "
                "4. ### 4.",
            ),
        ),
    ),
    "triangle": TaskTemplate(
        header=(
            "Find the maximum sum of the weights of three interconnected "
            "nodes.\n"
            "In an undirected graph, [i, k] means that node i has the weight "
            "k. (i,j) means that node i and node j are connected with an "
            "undirected edge.\n"
            "Given a graph, you need to output the maximum sum of the weights "
            "of three interconnected nodes."
        ),
        lead_in="Below are several examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 4, weights of nodes are: "
                "[0, 2] [1, 9] [2, 6] [3, 10] [4, 4], and the edges are: "
                "(0, 1) (0, 3) (1, 3) (2, 4) (3, 4). What is the maximum sum "
                "of the weights of three interconnected nodes?",
                "The nodes and their weights are as follows: Node 0 with "
                "weight 2, Node 1 with weight 9, Node 2 with weight 6, Node 3 "
                "with weight 10, and Node 4 with weight 4.\n"
                "Upon examining the connections between these nodes, it "
                "becomes evident that only Nodes 0, 1, and 3 form a fully "
                "interconnected set, with each node directly connected to the "
                "other two. The sum of their weights is <<2 (Node 0) + 9 "
                "(Node 1) + 10 (Node 3) = 21>>.\n"
                "Therefore, the maximum sum of the weights of three "
                "interconnected nodes in this graph is 21. ### 21.",
            ),
            (
                "The nodes are numbered from 0 to 4, weights of nodes are: "
                "[0, 9] [1, 3] [2, 5] [3, 9] [4, 4], and the edges are: "
                "(0, 4) (0, 1) (1, 4) (2, 3). What is the maximum sum of the "
                "weights of three interconnected nodes?",
                "The graph comprises nodes 0 to 4, each with respective "
                "weights of 9, 3, 5, 9, and 4.\n"
                "Analyzing the graph's edges reveals that Nodes 0, 1, and 4 "
                "are the only trio of connected nodes, linked through the "
                "edges (0, 4), (0, 1), and (1, 4).\n"
                "By adding their weights: <<9 (Node 0) + 3 (Node 1) + 4 "
                "(Node 4) = 16>>. There are no other groups of three "
                "interconnected nodes in this graph.\n"
                "Therefore, the maximum sum of the weights of three connected "
                "nodes in this graph is determined to be 16. ### 16.",
            ),
        ),
    ),
    "flow": TaskTemplate(
        header=(
            "Find the maximum flow between two nodes in a directed graph.\n"
            "In a directed graph, (i->j,k) means that node i and node j are "
            "connected with an directed edge from node i to node j with "
            "weight k.\n"
            "Given a graph and a pair of nodes, you need to output the "
            "maximum flow between the two nodes."
        ),
        lead_in="Below are examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 8, and the edges are: "
                "(0->2,3) (0->1,9) (0->5,4) (0->3,1) (1->2,7) (1->3,4) "
                "(1->5,7) (1->4,5) (2->3,2) (2->5,3) (2->8,2) (2->7,6) "
                "(3->5,8) (3->8,4) (3->4,9) (4->7,4) (4->5,6) (4->6,1) "
                "(5->6,2) (6->7,6). What is the maximum flow from node 0 to "
                "node 2?",
                "Initially, we can direct a flow of 3 units straight from "
                "node 0 to node 2 through the edge (0->2).\n"
                "Further examination reveals that an additional flow can be "
                "routed through node 1: the edge (0->1) can carry up to 9 "
                "units, and from node 1 to node 2, we can direct 7 units, as "
                "limited by the edge (1->2).\n"
                "Summing these flows, we find that a direct flow of 3 units "
                "and an indirect flow of 7 units via node 1 give us a total "
                "maximum flow of 10 units from node 0 to node 2.\n"
                "This calculation takes into account the various paths and "
                "their capacities, ensuring that the flow through any edge "
                "does not exceed its capacity.\n"
                "Hence, in this graph, the maximum flow from node 0 to node 2 "
                "is 10 units. ### 10.",
            ),
            (
                "The nodes are numbered from 0 to 7, and the edges are: "
                "(0->3,1) (0->6,5) (0->1,8) (0->5,4) (1->7,1) (1->6,2) "
                "(1->2,7) (2->4,5) (2->5,3) (2->3,7) (2->7,4) (3->6,7) "
                "(3->5,3) (3->7,7) (4->7,7) (5->7,7) (5->6,1) (6->7,2). What "
                "is the maximum flow from node 2 to node 6?",
                "The graph contains edges like (2->3,7) and (3->6,7), which "
                "are crucial for determining the flow.\n"
                "Firstly, there is no direct path from node 2 to node 6, so "
                "we explore indirect routes.\n"
                "One such path is through node 3, where node 2 can send a "
                "maximum of 7 units to node 3, which in turn can forward up "
                "to 7 units to node 6.\n"
                "Another route is via node 5; node 2 can send 3 units to "
                "node 5, but due to the limited capacity of 1 unit on the "
                "edge from node 5 to node 6, only 1 unit can reach node 6 "
                "through this path.\n"
                "There's also a path from node 2 to node 7 with a capacity of "
                "4 units, but it doesn't lead to node 6.\n"
                "Thus, by summing the feasible flows, we find that the "
                "maximum flow from node 2 to node 6 is 8 units. ### 8.",
            ),
        ),
    ),
    "hamilton": TaskTemplate(
        header=(
            "Determine whether or not there is a Hamiltonian path in an "
            "undirected graph.\n"
            "In an undirected graph, (i,j) means that node i and node j are "
            "connected with an undirected edge.\n"
            "Given a graph, you need to output 'Yes' or 'No', indicating "
            "whether there is a Hamiltonian path in the graph."
        ),
        lead_in="Below are several examples:",
        exemplars=(
            (
                "The nodes are numbered from 0 to 5, and the edges are: "
                "(0, 3) (0, 2) (0, 1) (0, 5) (1, 4) (1, 3) (1, 2) (3, 5) "
                "(4, 5). Is there a Hamiltonian path in this graph?",
                "To determine if a Hamiltonian path exists in an undirected "
                "graph, we need to check if there's a path that visits each "
                "node exactly once.\n"
                "Starting at Node 0, we can go to Node 1 (which connects to "
                "Nodes 2, 3, 4).\n"
                "From Node 1, moving to Node 4 seems a strategic choice "
                "because Node 4 only connects back to Node 1 and to Node 5. "
                "After reaching Node 4, we must go to Node 5.\n"
                "From Node 5, we can go to Node 3, as Node 3 connects to "
                "Nodes 0 and 1 (which we've visited) and to Node 5.\n"
                "Finally, from Node 3, we can go to Node 2.\n"
                "So, one possible Hamiltonian path is: [0,1,4,5,3,2].\n"
                "Therefore, there is a Hamiltonian path in this graph. "
                "### Yes, [0,1,4,5,3,2].",
            ),
            (
                "The nodes are numbered from 0 to 5, and the edges are: "
                "(0,2) (0,1) (4,5) (4,3) (4,2) (5,3) (1,4) (2,5). Is there a "
                "Hamiltonian path in this graph?",
                "To determine if a Hamiltonian path exists in an undirected "
                "graph, we need to check if there's a path that visits each "
                "node exactly once.\n"
                "We can start at node 0. As node 0 is connected with ndoe 2, "
                "and node 2 is not visited, we can then visit node 2.\n"
                "As node 2 is connected with ndoe 5, and node 5 is not "
                "visited, we can then visit node 5.\n"
                "As node 5 is connected with ndoe 3, and node 3 is not "
                "visited, we can then visit node 3.\n"
                "As node 3 is connected with ndoe 4, and node 4 is not "
                "visited, we can then visit node 4.\n"
                "As node 4 is connected with ndoe 1, and node 1 is not "
                "visited, we can then visit node 1.\n"
                "So, one possible Hamiltonian path is: [0,2,5,3,4,1].\n"
                "Therefore, there is a Hamiltonian path in this graph. "
                "### Yes, [0,2,5,3,4,1].",
            ),
        ),
    ),
    "subgraph": TaskTemplate(
        header=(
            "Determine if a smaller graph is present as an exact match within "
            "a larger graph.\n"
            "In a directed graph, (i->j) means that node i and node j are "
            "connected with a directed edge from node i to node j.\n"
            "Given a graph G and a subgraph G', you need to output Yes or No, "
            "indicating whether subgraph G' is present within the directed "
            "graph G."
        ),
        lead_in="Below are examples:",
        exemplars=(
            (
                "The nodes of graph G are numbered from 0 to 7, and the edges "
                "are: (0->4) (0->5) (0->2) (0->3) (0->1) (0->7) (1->6) (1->5) "
                "(1->4) (1->7) (1->3) (2->7) (2->5) (2->6) (2->3) (3->4) "
                "(3->6) (3->7) (3->5) (4->7) (4->6) (4->5) (5->6) (5->7) "
                "(6->7). The nodes of subgraph G' are numbered from a to e, "
                "and the edges are: (a->b) (b->c) (b->e) (b->d) (c->e) "
                "(c->d). Is subgraph G' present within graph G as a direct "
                "substructure?",
                "To determine if subgraph G' is present within graph G, let's "
                "briefly analyze both graphs:\n"
                "Subgraph G' has the following edges: (a->b), (b->c), (b->e), "
                "(b->d), (c->e), (c->d). The key node here is 'b', which has "
                "outgoing edges to three different nodes: 'c', 'e', and 'd'. "
                "Additionally, 'c' has outgoing edges to both 'e' and 'd'.\n"
                "Now let's find a node in graph G with similar outgoing "
                "edges:\n"
                "Node 0 has outgoing edges to many nodes but is not a match "
                "since no single node has outgoing edges to three other nodes "
                "that also interconnect as required.\n"
                "Node 1 has outgoing edges to '6', '5', '4', and '7' but none "
                "of these nodes have the required interconnections to match "
                "'c', 'e', and 'd'.\n"
                "Node 2 has outgoing edges to '7', '5', '6', and '3', but "
                "again, no suitable interconnections.\n"
                "Node 3 has outgoing edges to '4', '6', '7', and '5'. This "
                "resembles 'b' in G', but there must be interconnections "
                "between the nodes it points to, matching (c->e), (c->d).\n"
                "Node 4 has outgoing edges to '7', '6', and '5'. If node 4 is "
                "'b', then nodes '7', '6', and '5' could be 'c', 'e', and "
                "'d'. Since '7', '6', and '5' are all interconnected, node 4 "
                "and its connected nodes match the structure of G'.\n"
                "Thus, the sequence (4->7), (7->6), (7->5), (6->7), (5->7) in "
                "G corresponds to the sequence (b->c), (c->e), (c->d), "
                "(e->d), (d->e) in G', which means subgraph G' is present as "
                "a direct substructure in graph G. ### Yes.",
            ),
            (
                "The nodes of graph G are numbered from 0 to 9, and the edges "
                "are: (0->6) (0->2) (1->2) (1->7) (1->3) (3->4) (3->8) (3->9) "
                "(4->9). The nodes of subgraph G' are numbered from a to d, "
                "and the edges are: (a->d) (a->c) (a->b) (b->d) (b->c) "
                "(c->d). Is subgraph G' present within graph G as a direct "
                "substructure?",
                "To find if subgraph G' is present in graph G, we look for a "
                "node with out-degree of 3 (like 'a' in G'), and among those "
                "outgoing connections, we need two nodes with an out-degree "
                "of at least 2 (like 'b' and 'c' in G'), which are also "
                "connected to each other and to the third node (like 'd' in "
                "G').\n"
                "Examining graph G:\n"
                "Node 0 has out-degree 2, not enough to match 'a'.\n"
                "Node 1 has out-degree 3, so it could be 'a', with nodes 2, 7, "
                "and 3 potentially being 'b', 'c', and 'd'.\n"
                "Node 3 has out-degree 3, so it could be 'a', with nodes 4, 8, "
                "and 9 potentially being 'b', 'c', and 'd'.\n"
                "Now we must check the connections between the potential 'b', "
                "'c', and 'd' nodes:\n"
                "For node 1 as 'a', nodes 2, 7, and 3 do not have the required "
                "mutual connections.\n"
                "For node 3 as 'a', nodes 4, 8, and 9 do not have the required "
                "mutual connections either, since there's no edge from 4 to 8 "
                "or 9 to 8.\n"
                "None of the nodes satisfy the conditions of subgraph G' "
                "fully. ### No.",
            ),
        ),
    ),
}

ZERO_SHOT_SUFFIX = "Let's think step by step"


def build_cot_prompt(task: str, text: str, shots: int) -> str:
    """Chain-of-thought prompt from the task's entry in TEMPLATES: header,
    optional exemplars, the problem.

    shots=0 yields the zero-shot form ending with the step-by-step nudge;
    shots=k prepends the first k exemplars.
    """
    get_task(task)
    template = TEMPLATES[task]
    if shots < 0:
        raise InvalidSpecError(f"shots must be >= 0, got {shots}")
    if shots == 0:
        return f"{template.header}\n\nQ: {text}\nA: {ZERO_SHOT_SUFFIX}"
    if shots > len(template.exemplars):
        raise InvalidSpecError(
            f"{task} template has {len(template.exemplars)} exemplars, "
            f"requested {shots}"
        )
    parts = [f"{template.header}\n{template.lead_in}"]
    for q, a in template.exemplars[:shots]:
        parts.append(f"Q: {q}\nA: {a}")
    parts.append(f"Q: {text}\nA:")
    return "\n\n".join(parts)


@cache
def _layouts() -> list[list[str]]:
    """[before, after] the problem text in each prompt layout the two
    builders make; a task's k-shot layout comes before its (k-1)-shot one,
    whose before a k-shot prompt also starts with."""
    return [p.split("\0") for p in [wrap_instruction("\0")] + [
        build_cot_prompt(task, "\0", k) for task, template in TEMPLATES.items()
        for k in reversed(range(len(template.exemplars) + 1))]]


def problem_text(prompt: str) -> str | None:
    """The problem text of a prompt `wrap_instruction` or `build_cot_prompt`
    built, at any shot count; None for a prompt of any other layout."""
    for before, after in _layouts():
        if prompt.startswith(before) and prompt[len(before):].endswith(after):
            return prompt[len(before):-len(after)]
    return None
