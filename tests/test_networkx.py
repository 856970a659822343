"""Stored answers agree with networkx at full test-split node ranges.

The brute-force oracles stop at about 10 nodes; networkx does not, so this
compares every stored answer of a seeded test split (graphs of up to 99
nodes) with an independent implementation. Hamilton has no polynomial
reference: answers on up to 16 nodes are checked by the oracle's subset
DP, larger "yes" answers through their witness, and larger "no" answers
through a reason that needs no search: the graph is disconnected, or more
than two of its nodes have degree at most 1 (a path has only two ends).
"""

from itertools import takewhile

import networkx as nx
import pytest
from networkx.algorithms.flow import preflow_push
from networkx.algorithms.isomorphism import DiGraphMatcher

from graphcorpus.config import PipelineConfig
from graphcorpus.generate import generate_corpus
from graphcorpus.grader import check_witness
from graphcorpus.tasks import TASK_ORDER

from oracles import HAMILTON_DP_LIMIT, oracle_hamilton_dp

# the defaults a stage runs with
STAGE = PipelineConfig()

PER_TASK = 10


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(STAGE.tasks, PER_TASK, split="test", seed=11,
                           dedupe_keys=set())


def _nx(g):
    h = nx.DiGraph() if g.directed else nx.Graph()
    h.add_nodes_from(range(g.num_nodes))
    for u, v, *w in g.edges:
        h.add_edge(u, v, weight=w[0] if w else 1)
    return h


def _cycle(p, h):
    return p.answer.value == (not nx.is_forest(h))


def _connect(p, h):
    return p.answer.value == nx.has_path(h, p.query["u"], p.query["v"])


def _bipartite(p, h):
    return p.answer.value == nx.is_bipartite(h.to_undirected())


def _topology(p, h):
    if not nx.is_directed_acyclic_graph(h):
        return p.answer.kind == "none_exists"
    order = p.answer.value
    pos = {node: i for i, node in enumerate(order)}
    return (p.answer.kind == "sequence" and sorted(order) == list(h)
            and all(pos[u] < pos[v] for u, v in h.edges))


def _shortest(p, h):
    u, v = p.query["u"], p.query["v"]
    if not nx.has_path(h, u, v):
        return p.answer.kind == "none_exists"
    return p.answer.value == nx.dijkstra_path_length(h, u, v)


def _triangle(p, h):
    weights = p.graph.node_weights
    sums = [sum(weights[n] for n in c)
            for c in takewhile(lambda c: len(c) <= 3, nx.enumerate_all_cliques(h))
            if len(c) == 3]
    if not sums:
        return p.answer.kind == "none_exists"
    return p.answer.value == max(sums)


def _flow(p, h):
    # The witness is the source side reachable in the residual network, the
    # same set for every maximum flow. nx.minimum_cut is no reference: its
    # partition is the largest source side.
    s = p.query["s"]
    residual = preflow_push(h, s, p.query["t"], capacity="weight")
    open_edges = nx.DiGraph((u, v) for u, v, a in residual.edges(data=True)
                            if a["capacity"] - a["flow"] > 0)
    open_edges.add_node(s)
    return (p.answer.value == residual.graph["flow_value"]
            and p.answer.witness == sorted(nx.descendants(open_edges, s) | {s}))


def _hamilton(p, h):
    if p.answer.value and not check_witness(p, p.answer):
        return False
    return (p.graph.num_nodes > HAMILTON_DP_LIMIT
            or p.answer.value == oracle_hamilton_dp(p.graph))


def _subgraph(p, h):
    matcher = DiGraphMatcher(h, _nx(p.query["pattern"]))
    return p.answer.value == matcher.subgraph_is_monomorphic()


CHECKS = {"cycle": _cycle, "connect": _connect, "bipartite": _bipartite,
          "topology": _topology, "shortest": _shortest, "triangle": _triangle,
          "flow": _flow, "hamilton": _hamilton, "subgraph": _subgraph}


def test_checks_cover_every_task():
    assert list(CHECKS) == TASK_ORDER


@pytest.mark.parametrize("task", TASK_ORDER)
def test_stored_answers_match_networkx(corpus, task):
    problems = [p for p in corpus if p.task == task]
    assert len(problems) == PER_TASK
    wrong = [p.id for p in problems if not CHECKS[task](p, _nx(p.graph))]
    assert wrong == []


def test_large_hamilton_no_answers_have_a_structural_reason(corpus):
    large_no = [p for p in corpus if p.task == "hamilton"
                and not p.answer.value and p.graph.num_nodes > HAMILTON_DP_LIMIT]
    assert large_no
    for p in large_no:
        h = _nx(p.graph)
        ends = sum(1 for _, degree in h.degree if degree <= 1)
        assert not nx.is_connected(h) or ends > 2, p.id


def test_hamilton_answers_match_subset_dp_up_to_its_limit():
    # a wider sample than the fixture, so that "no" answers the
    # backtracking search produced (over 12 nodes) are checked by the DP
    problems = [p for p in generate_corpus(["hamilton"], 40, split="test",
                                           seed=11, dedupe_keys=set())
                if p.graph.num_nodes <= HAMILTON_DP_LIMIT]
    assert any(not p.answer.value and p.graph.num_nodes > 12
               for p in problems)
    assert [p.id for p in problems if not _hamilton(p, None)] == []
