"""Answer extraction, grading, and the advisory step audit.

Extraction reads the text after the LAST "###" marker, falling back to the
last "The answer is" clause. Grading compares against the stored ground
truth. `check_witness` is the one home of every path, order and weight
rule, one `_RULES` row per task: the check, the witness an answer line can
claim, the reason a failed claim reports. Grading sends it order-free
answers (topological sorts), so any valid order counts and not just the
solver's, and every claimed witness. The step audit, `audit_steps`, runs
apart from grading: it flags claimed edges or nodes that do not exist in
the graph and never changes a verdict.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from .graphs import Graph
from .tasks import get_task
from .textgen import Answer, Problem


class ExtractionFailure(NamedTuple):
    reason: str


class Violation(NamedTuple):
    sentence: int
    kind: str        # missing-edge | unknown-node | wrong-weight
    detail: str


class Verdict(NamedTuple):
    correct: bool
    extracted: Answer | ExtractionFailure
    reason: str | None = None


_YES_NO = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_INT = re.compile(r"-?\d+")
_BRACKET_SEQ = re.compile(r"\[\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\]")
_BARE_SEQ = re.compile(r"(-?\d+(?:\s*,\s*-?\d+)+)")
_ANSWER_IS = re.compile(r"the answer is", re.IGNORECASE)


def _tail(text: str) -> str | None:
    idx = text.rfind("###")
    if idx >= 0:
        return text[idx + 3:]
    last = None
    for m in _ANSWER_IS.finditer(text):
        last = m
    if last is not None:
        return text[last.end():]
    return None


def _parse_sequence(tail: str, least: int = 1) -> list[int] | None:
    """The first bracketed, else bare, node sequence of at least `least` nodes."""
    m = _BRACKET_SEQ.search(tail)
    if m is None:
        m = _BARE_SEQ.search(tail)
        if m is None:
            return None
    seq = [int(x) for x in m.group(1).split(",")]
    return seq if len(seq) >= least else None


def extract_answer(text: str, task: str) -> Answer | ExtractionFailure:
    """Pull the final answer for the task out of a reasoning text."""
    info = get_task(task)
    tail = _tail(text)
    if tail is None:
        return ExtractionFailure("no '###' marker or 'The answer is' clause")
    if info.answer_kind == "yes_no":
        m = _YES_NO.search(tail)
        if m is None:
            return ExtractionFailure("no Yes/No after the answer marker")
        value = m.group(1).lower() == "yes"
        return Answer("yes_no", value, witness=_RULES[task].claim(tail, m, value))
    if info.answer_kind == "numeric":
        m = _INT.search(tail)
        if m is None:
            return ExtractionFailure("no integer after the answer marker")
        value = int(m.group(0))
        return Answer("numeric", value, witness=_RULES[task].claim(tail, m, value))
    seq = _parse_sequence(tail)
    if seq is None:
        return ExtractionFailure("no node sequence after the answer marker")
    return Answer("sequence", seq)


# ---------------------------------------------------------------------------
# Witness validation helpers (shared by grading and the solver tests)
# ---------------------------------------------------------------------------

def is_valid_path(g: Graph, nodes: list[int], either_way: bool = False) -> bool:
    """True when consecutive nodes are joined by edges and ids are in range;
    either_way ignores edge direction."""
    if not nodes:
        return False
    if any(not (0 <= x < g.num_nodes) for x in nodes):
        return False
    return all(g.has_edge(a, b) or (either_way and g.has_edge(b, a))
               for a, b in zip(nodes, nodes[1:]))


def is_hamilton_path(g: Graph, nodes: list[int]) -> bool:
    return sorted(nodes) == list(range(g.num_nodes)) and is_valid_path(g, nodes)


def is_topo_order(g: Graph, nodes: list[int]) -> bool:
    """True when nodes is a permutation respecting every directed edge."""
    if sorted(nodes) != list(range(g.num_nodes)):
        return False
    pos = {x: i for i, x in enumerate(nodes)}
    return all(pos[u] < pos[v] for u, v in g.edge_pairs)


def path_weight(g: Graph, nodes: list[int]) -> int:
    wm = g.weight_map
    return sum(wm[g.key(a, b)] for a, b in zip(nodes, nodes[1:]))


def is_valid_cycle(g: Graph, nodes: list[int], either_way: bool = False) -> bool:
    """At least three distinct nodes forming a closed loop."""
    if len(nodes) < 3 or len(set(nodes)) != len(nodes):
        return False
    return is_valid_path(g, list(nodes) + [nodes[0]], either_way)


def _route(problem: Problem, w) -> bool:
    """A path from query node u to query node v (one node when u is v)."""
    u, v = problem.query["u"], problem.query["v"]
    return bool(w) and w[0] == u and w[-1] == v and (
        len(w) == 1 or is_valid_path(problem.graph, list(w)))


def _bipartite(problem: Problem, answer: Answer) -> bool:
    """Yes: two disjoint sides covering every node, each edge between them.
    No: an odd cycle, ignoring edge direction."""
    g, w = problem.graph, answer.witness
    if not answer.value:
        return len(w) % 2 == 1 and is_valid_cycle(g, list(w), either_way=True)
    if len(w) != 2:
        return False
    side0, side1 = map(set, w)
    if side0 | side1 != set(range(g.num_nodes)) or side0 & side1:
        return False
    return all((u in side0) != (v in side0) for u, v in g.edge_pairs)


def _min_cut(problem: Problem, answer: Answer) -> bool:
    """The witness is the source side of a cut whose capacity is the value."""
    s, t = problem.query["s"], problem.query["t"]
    side = set(answer.witness)
    if s not in side or t in side:
        return False
    cut = sum(c for (a, b), c in problem.graph.weight_map.items()
              if a in side and b not in side)
    return cut == answer.value


def _embedding(problem: Problem, answer: Answer) -> bool:
    """[pattern, host] pairs, one per pattern node, each to its own host
    node, that carry every pattern edge onto a host edge."""
    g, w = problem.graph, answer.witness
    pattern: Graph = problem.query["pattern"]
    if not all(len(pair) == 2 for pair in w):   # a dict's int keys: TypeError
        return False
    host = dict(w)
    if (sorted(a for a, _ in w) != list(range(pattern.num_nodes))
            or len(set(host.values())) != len(host)):
        return False
    return all(g.has_edge(host[a], host[b]) for a, b in pattern.edge_pairs)


class _Rule(NamedTuple):
    """One task's answer rule: `holds` judges an answer's witness (for
    topology, the order itself), `claim` reads the witness an answer line
    can carry, and `reason` is the verdict when a claimed witness fails."""
    holds: Callable[[Problem, Answer], bool]
    claim: Callable[..., list[int] | None] = lambda tail, m, value: None
    reason: str = "claimed witness does not hold"


_RULES: dict[str, _Rule] = {
    "cycle": _Rule(lambda p, a: not a.value or is_valid_cycle(p.graph, list(a.witness))),
    "connect": _Rule(lambda p, a: not a.value or _route(p, a.witness)),
    "bipartite": _Rule(_bipartite),
    "topology": _Rule(lambda p, a: a.kind == "none_exists"
                      or is_topo_order(p.graph, list(a.value))),
    "shortest": _Rule(
        lambda p, a: a.kind == "none_exists" or (
            _route(p, a.witness)
            and path_weight(p.graph, list(a.witness)) == a.value),
        lambda tail, m, value: _parse_sequence(tail, least=2),
        "claimed path is not optimal"),
    "triangle": _Rule(
        lambda p, a: a.kind == "none_exists" or (
            len(a.witness) == 3 and is_valid_cycle(p.graph, list(a.witness))
            and sum(p.graph.node_weights[x] for x in a.witness) == a.value)),
    "flow": _Rule(_min_cut),
    "hamilton": _Rule(
        lambda p, a: not a.value or is_hamilton_path(p.graph, list(a.witness)),
        lambda tail, m, yes: _parse_sequence(tail[m.end():]) if yes else None,
        "claimed path is not Hamiltonian"),
    "subgraph": _Rule(lambda p, a: not a.value or _embedding(p, a)),
}


def check_witness(problem: Problem, answer: Answer) -> bool:
    """Validate an answer's witness against the graph: a solver's, a stored
    one read from a file, or one a graded answer claims (for topology, the
    order itself). A witness of the wrong shape (missing, a number,
    non-integer nodes) fails."""
    try:
        return _RULES[problem.task].holds(problem, answer)
    except TypeError:
        return False


def grade(problem: Problem, extracted: Answer | ExtractionFailure) -> Verdict:
    """Compare an extracted answer with the problem's ground truth.

    A sequence answer is judged by `check_witness`; so is any witness the
    answer claims."""
    if isinstance(extracted, ExtractionFailure):
        return Verdict(False, extracted, reason=f"extraction: {extracted.reason}")
    truth = problem.answer
    if truth is None:
        return Verdict(False, extracted, reason="problem has no ground truth")
    kind = get_task(problem.task).answer_kind
    if kind == "yes_no":
        if bool(extracted.value) != bool(truth.value):
            return Verdict(False, extracted, reason="wrong yes/no answer")
    elif truth.kind == "none_exists":
        return Verdict(False, extracted, reason="no answer exists" if kind == "numeric"
                       else "no valid order exists")
    elif kind == "numeric":
        if extracted.value != truth.value:
            return Verdict(False, extracted, reason="wrong value")
    elif extracted.kind == "none_exists" or not check_witness(problem, extracted):
        # check_witness passes a none_exists answer; here an order exists
        return Verdict(False, extracted, reason="sequence violates the graph order")
    if extracted.witness is not None and not check_witness(problem, extracted):
        return Verdict(False, extracted, reason=_RULES[problem.task].reason)
    return Verdict(True, extracted)


# ---------------------------------------------------------------------------
# Step audit
# ---------------------------------------------------------------------------

_SENTENCE = re.compile(r"[^.\n]+(?:\.|\n|$)")
_CLAIM_TUPLE = re.compile(r"\(\s*(\d+)\s*(->|,)\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)")
_CLAIM_CHAIN = re.compile(r"\[\s*\d+(?:\s*->\s*\d+)+\s*\]")
_CLAIM_PROSE = re.compile(r"node (\d+) is connected to node (\d+)", re.IGNORECASE)
_CHAIN_NODE = re.compile(r"\d+")


def _linked(u: int, v: int, edges: dict[tuple[int, int], int]) -> bool:
    """Adjacency in either orientation; loose claims ignore direction."""
    return (u, v) in edges or (v, u) in edges


def audit_steps(problem: Problem, reasoning: str) -> list[Violation]:
    """Flag hallucinated edges and out-of-range nodes in a reasoning text.

    Tuple claims like (u,v) or (u->v,k) are checked for existence (and
    weight, when the graph is weighted and the claim carries one); arrow
    chains like [a->b->c] and prose claims like "node a is connected to
    node b" are checked as adjacency, ignoring direction. Advisory only.
    """
    g = problem.graph
    edges = g.weight_map
    n = g.num_nodes
    out: list[Violation] = []
    for s_idx, sm in enumerate(_SENTENCE.finditer(reasoning)):
        sentence = sm.group(0)
        for m in _CLAIM_TUPLE.finditer(sentence):
            u, sep, v = int(m.group(1)), m.group(2), int(m.group(3))
            w = m.group(4)
            if u >= n or v >= n:
                out.append(Violation(s_idx, "unknown-node",
                                     f"claimed edge ({u},{v}) uses a node outside the graph"))
                continue
            key = g.key(u, v)
            if sep == "->" and g.directed:
                exists = key in edges
            else:
                exists = _linked(u, v, edges)
            if not exists:
                out.append(Violation(s_idx, "missing-edge",
                                     f"claimed edge ({u},{v}) is not in the graph"))
            elif w is not None and g.weighted and key in edges \
                    and edges[key] != int(w):
                out.append(Violation(s_idx, "wrong-weight",
                                     f"edge ({u},{v}) has weight {edges[key]}, not {w}"))
        for m in _CLAIM_CHAIN.finditer(sentence):
            nodes = [int(x) for x in _CHAIN_NODE.findall(m.group(0))]
            for a, b in zip(nodes, nodes[1:]):
                if a >= n or b >= n:
                    out.append(Violation(s_idx, "unknown-node",
                                         f"chain step {a}->{b} uses a node outside the graph"))
                elif not _linked(a, b, edges):
                    out.append(Violation(s_idx, "missing-edge",
                                         f"chain step {a}->{b} is not an edge"))
        for m in _CLAIM_PROSE.finditer(sentence):
            u, v = int(m.group(1)), int(m.group(2))
            if u >= n or v >= n:
                out.append(Violation(s_idx, "unknown-node",
                                     f"claim about node {max(u, v)} outside the graph"))
            elif not _linked(u, v, edges):
                out.append(Violation(s_idx, "missing-edge",
                                     f"node {u} and node {v} are not adjacent"))
    return out


def judge(problem: Problem, text: str) -> Verdict:
    """Extract and grade one reasoning text."""
    return grade(problem, extract_answer(text, problem.task))
