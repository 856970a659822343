"""Text-to-problem parser for the test suite.

No pipeline stage reads a graph back from text: every stage uses the graph
stored in the problem record. The tests use this parser to show that
`textgen.render_problem` is lossless and that the frozen prompt exemplars
describe the graphs their answers assume. It builds its question patterns
from the sentences in `tasks.TASKS`, accepts optional whitespace
everywhere, and inverts the rendering exactly.
"""

from __future__ import annotations

import re

from graphcorpus.errors import GraphCorpusError
from graphcorpus.graphs import Graph, canonical_key, validate_graph
from graphcorpus.tasks import TASK_ORDER, TASKS, get_task
from graphcorpus.textgen import Problem


class ParseError(GraphCorpusError, ValueError):
    """Problem text could not be parsed; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


def _question_regex(question: str) -> re.Pattern:
    """A question sentence with each {name} placeholder as a named group of
    digits."""
    parts = re.split(r"\{(\w+)\}", question)
    return re.compile("".join(f"(?P<{part}>\\d+)" if i % 2 else re.escape(part)
                              for i, part in enumerate(parts)))


_QUESTIONS = [(name, _question_regex(TASKS[name].question)) for name in TASK_ORDER]

_NUM_EDGE = re.compile(r"\(\s*(\d+)\s*(->|,)\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)")
_LETTER_EDGE = re.compile(r"\(\s*([a-z])\s*->\s*([a-z])\s*\)")
_NODE_WEIGHT = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]")
_NUM_NODES = re.compile(r"numbered from 0 to (\d+)")
_NO_EDGES = re.compile(r"there are no edges in the graph")


def _scan_span(text: str, start: int, end: int, token: re.Pattern) -> list[re.Match]:
    """Collect token matches in text[start:end]; anything else is an error."""
    matches = []
    pos = start
    while pos < end:
        if text[pos].isspace():
            pos += 1
            continue
        m = token.match(text, pos)
        if m is None or m.end() > end:
            raise ParseError(f"malformed tuple near {text[pos:pos + 16]!r}", offset=pos)
        matches.append(m)
        pos = m.end()
    return matches


def _parse_numeric_edges(text: str, start: int, end: int, task: str,
                         num_nodes: int, directed: bool, weighted: bool) -> list[tuple]:
    edges: list[tuple] = []
    seen: dict[tuple[int, int], tuple] = {}
    for m in _scan_span(text, start, end, _NUM_EDGE):
        u, sep, v = int(m.group(1)), m.group(2), int(m.group(3))
        w = m.group(4)
        if directed and sep != "->":
            raise ParseError(f"{task} edges must use (i->j) form", offset=m.start())
        if not directed and sep != ",":
            raise ParseError(f"{task} edges must use (i,j) form", offset=m.start())
        if weighted and w is None:
            raise ParseError(f"{task} edges need a weight", offset=m.start())
        if not weighted and w is not None:
            raise ParseError(f"{task} edges are unweighted", offset=m.start())
        if u >= num_nodes or v >= num_nodes:
            raise ParseError(
                f"edge ({u},{v}) references a node outside [0,{num_nodes - 1}]",
                offset=m.start(),
            )
        if u == v:
            raise ParseError(f"self loop at node {u}", offset=m.start())
        key = (u, v) if directed else (min(u, v), max(u, v))
        edge = key + ((int(w),) if w is not None else ())
        if key in seen:
            if seen[key] != edge:
                raise ParseError(
                    f"edge ({u},{v}) repeated with a different weight", offset=m.start()
                )
            continue
        seen[key] = edge
        edges.append(edge)
    return edges


def _find_num_nodes(text: str, search_from: int = 0) -> tuple[int, re.Match]:
    m = _NUM_NODES.search(text, search_from)
    if m is None:
        raise ParseError("missing node count declaration", offset=search_from)
    return int(m.group(1)) + 1, m


def _edge_span(text: str, from_pos: int, until: int) -> tuple[int, int] | None:
    """Span of the edge list after from_pos, ending at the '.' before `until`.

    Returns None when the no-edges form is used instead.
    """
    no_edges = _NO_EDGES.search(text, from_pos, until)
    if no_edges:
        return None
    marker = "the edges are:"
    idx = text.find(marker, from_pos, until)
    if idx < 0:
        raise ParseError("missing edge list", offset=from_pos)
    start = idx + len(marker)
    stop = text.rfind(".", start, until)
    if stop < 0:
        raise ParseError("edge list is not terminated", offset=start)
    return start, stop


def parse_problem(text: str) -> Problem:
    """Invert render_problem; the result carries no answer or tier."""
    for task, pattern in _QUESTIONS:
        qmatch = pattern.search(text)
        if qmatch:
            break
    else:
        raise ParseError("unknown task phrasing", offset=0)
    info = get_task(task)

    if task == "subgraph":
        host_n, host_decl = _find_num_nodes(text)
        pat_marker = "The nodes of subgraph G'"
        pat_idx = text.find(pat_marker)
        if pat_idx < 0:
            raise ParseError("missing subgraph declaration", offset=0)
        span = _edge_span(text, host_decl.end(), pat_idx)
        host_edges: list[tuple] = []
        if span:
            host_edges = _parse_numeric_edges(
                text, span[0], span[1], task, host_n, directed=True, weighted=False)
        lm = re.search(r"numbered from a to ([a-z])", text[pat_idx:])
        if lm is None:
            raise ParseError("missing pattern node range", offset=pat_idx)
        pat_n = ord(lm.group(1)) - ord("a") + 1
        pspan = _edge_span(text, pat_idx + lm.end(), qmatch.start())
        pat_edges: list[tuple] = []
        if pspan:
            seen: set[tuple[int, int]] = set()
            for m in _scan_span(text, pspan[0], pspan[1], _LETTER_EDGE):
                u = ord(m.group(1)) - ord("a")
                v = ord(m.group(2)) - ord("a")
                if u >= pat_n or v >= pat_n:
                    raise ParseError(
                        f"pattern edge ({m.group(1)}->{m.group(2)}) outside "
                        f"declared range", offset=m.start())
                if u == v:
                    raise ParseError(f"self loop at pattern node {m.group(1)}",
                                     offset=m.start())
                if (u, v) not in seen:
                    seen.add((u, v))
                    pat_edges.append((u, v))
        host = Graph(host_n, True, host_edges)
        pattern_graph = Graph(pat_n, True, pat_edges)
        validate_graph(host)
        validate_graph(pattern_graph)
        if pattern_graph.num_nodes > host.num_nodes:
            raise ParseError("pattern larger than host graph", offset=pat_idx)
        return Problem(id="", task=task, graph=host,
                       query={"pattern": pattern_graph}, text=text)

    num_nodes, decl = _find_num_nodes(text)
    node_weights = None
    if task == "triangle":
        wm = re.search(r"weights of nodes are:(.*?), and ", text, re.DOTALL)
        if wm is None:
            raise ParseError("missing node weight list", offset=decl.end())
        weights_by_node: dict[int, int] = {}
        for m in _scan_span(text, wm.start(1), wm.end(1), _NODE_WEIGHT):
            node, w = int(m.group(1)), int(m.group(2))
            if node >= num_nodes:
                raise ParseError(f"weight for unknown node {node}", offset=m.start())
            if node in weights_by_node:
                raise ParseError(f"duplicate weight for node {node}", offset=m.start())
            weights_by_node[node] = w
        if sorted(weights_by_node) != list(range(num_nodes)):
            raise ParseError("node weight list does not cover every node",
                             offset=wm.start(1))
        node_weights = [weights_by_node[i] for i in range(num_nodes)]

    span = _edge_span(text, decl.end(), qmatch.start())
    edges: list[tuple] = []
    if span:
        edges = _parse_numeric_edges(
            text, span[0], span[1], task, num_nodes,
            directed=info.directed, weighted="{2}" in info.edge_style)
    g = Graph(num_nodes, info.directed, edges, node_weights)
    validate_graph(g)

    query = {name: int(x) for name, x in qmatch.groupdict().items()}
    if any(x >= num_nodes for x in query.values()):
        raise ParseError("query references a node outside the graph",
                         offset=qmatch.start())
    return Problem(id="", task=task, graph=g, query=query, text=text)


def problem_signature(p: Problem) -> tuple:
    """Structural identity: task, graph, and query (patterns canonicalized)."""
    query = p.query
    if p.task == "subgraph":
        query = {"pattern": canonical_key(query["pattern"])}
    return (p.task, canonical_key(p.graph),
            tuple(sorted(query.items())))
