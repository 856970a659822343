import pytest

import graphcorpus.solvers
from graphcorpus.errors import (GraphKindError, InvalidQueryError,
                                InvalidSpecError)
from graphcorpus.grader import (check_witness, is_hamilton_path,
                                is_topo_order, is_valid_cycle, is_valid_path,
                                path_weight)
from graphcorpus.graphs import (Graph, assign_edge_weights,
                                assign_node_weights, generate_dag,
                                generate_er)
from graphcorpus.solvers import (Answer, find_subgraph, has_cycle,
                                 hamilton_path, is_bipartite, is_connected,
                                 max_flow, max_triangle_sum, shortest_path,
                                 topo_sort)
from graphcorpus.textgen import Problem

from oracles import (oracle_bipartite, oracle_connect,
                     oracle_cycle, oracle_flow, oracle_hamilton,
                     oracle_hamilton_dp, oracle_shortest, oracle_subgraph,
                     oracle_topo_orders, oracle_triangle, solve)


def _problem(task, g, query=None, answer=None):
    return Problem("t", task, g, query or {}, answer=answer)


# ---------------------------------------------------------------------------
# worked examples, frozen as literals from the textgen.TEMPLATES exemplars
# ---------------------------------------------------------------------------

CONNECT_EX = [
    (Graph(6, False, [(0, 1), (1, 2), (3, 4), (4, 5)]), 1, 4, False),
    (Graph(6, False, [(0, 1), (0, 2), (1, 5), (1, 2), (1, 3), (2, 5)]),
     2, 3, True),
]

SHORTEST_EX = [
    (Graph(7, False, [(0, 1, 1), (1, 2, 2), (0, 2, 4), (0, 4, 2), (2, 6, 2),
                      (4, 6, 4), (3, 4, 5), (5, 6, 3), (3, 5, 4)]), 0, 5, 8),
    (Graph(5, False, [(0, 3, 2), (0, 4, 1), (0, 2, 1), (1, 4, 2), (1, 2, 1),
                      (2, 3, 4), (2, 4, 1), (3, 4, 2)]), 3, 1, 4),
]

FLOW_EX = [
    (Graph(9, True, [(0, 2, 3), (0, 1, 9), (0, 5, 4), (0, 3, 1), (1, 2, 7),
                     (1, 3, 4), (1, 5, 7), (1, 4, 5), (2, 3, 2), (2, 5, 3),
                     (2, 8, 2), (2, 7, 6), (3, 5, 8), (3, 8, 4), (3, 4, 9),
                     (4, 7, 4), (4, 5, 6), (4, 6, 1), (5, 6, 2), (6, 7, 6)]),
     0, 2, 10),
    (Graph(8, True, [(0, 3, 1), (0, 6, 5), (0, 1, 8), (0, 5, 4), (1, 7, 1),
                     (1, 6, 2), (1, 2, 7), (2, 4, 5), (2, 5, 3), (2, 3, 7),
                     (2, 7, 4), (3, 6, 7), (3, 5, 3), (3, 7, 7), (4, 7, 7),
                     (5, 7, 7), (5, 6, 1), (6, 7, 2)]),
     2, 6, 8),
]

TRIANGLE_EX = [
    (Graph(5, False, [(0, 1), (0, 3), (1, 3), (2, 4), (3, 4)],
           node_weights=[2, 9, 6, 10, 4]), 21),
    (Graph(5, False, [(0, 4), (0, 1), (1, 4), (2, 3)],
           node_weights=[9, 3, 5, 9, 4]), 16),
]

HAMILTON_EX = [
    Graph(6, False, [(0, 3), (0, 2), (0, 1), (0, 5), (1, 4), (1, 3), (1, 2),
                     (3, 5), (4, 5)]),
    Graph(6, False, [(0, 2), (0, 1), (4, 5), (3, 4), (2, 4), (3, 5), (1, 4),
                     (2, 5)]),
]

SUBGRAPH_EX = [
    (Graph(8, True, [(0, 4), (0, 5), (0, 2), (0, 3), (0, 1), (0, 7), (1, 6),
                     (1, 5), (1, 4), (1, 7), (1, 3), (2, 7), (2, 5), (2, 6),
                     (2, 3), (3, 4), (3, 6), (3, 7), (3, 5), (4, 7), (4, 6),
                     (4, 5), (5, 6), (5, 7), (6, 7)]),
     Graph(5, True, [(0, 1), (1, 2), (1, 4), (1, 3), (2, 4), (2, 3)]), True),
    (Graph(10, True, [(0, 6), (0, 2), (1, 2), (1, 7), (1, 3), (3, 4), (3, 8),
                      (3, 9), (4, 9)]),
     Graph(4, True, [(0, 3), (0, 2), (0, 1), (1, 3), (1, 2), (2, 3)]), False),
]


@pytest.mark.parametrize("g,u,v,expected", CONNECT_EX)
def test_connect_worked_examples(g, u, v, expected):
    ans = is_connected(g, u, v)
    assert ans.value is expected
    assert oracle_connect(g, u, v) is expected
    if expected:
        assert is_valid_path(g, ans.witness)
        assert ans.witness[0] == u and ans.witness[-1] == v


@pytest.mark.parametrize("g,u,v,expected", SHORTEST_EX)
def test_shortest_worked_examples(g, u, v, expected):
    ans = shortest_path(g, u, v)
    assert ans.value == expected
    assert oracle_shortest(g, u, v) == expected
    assert is_valid_path(g, ans.witness)
    assert path_weight(g, ans.witness) == expected


@pytest.mark.parametrize("g,s,t,expected", FLOW_EX)
def test_flow_worked_examples(g, s, t, expected):
    ans = max_flow(g, s, t)
    assert ans.value == expected
    assert oracle_flow(g, s, t) == expected
    assert check_witness(_problem("flow", g, {"s": s, "t": t}), ans)


@pytest.mark.parametrize("g,expected", TRIANGLE_EX)
def test_triangle_worked_examples(g, expected):
    ans = max_triangle_sum(g)
    assert ans.value == expected
    assert oracle_triangle(g) == expected
    a, b, c = ans.witness
    assert sum(g.node_weights[x] for x in (a, b, c)) == expected


@pytest.mark.parametrize("g", HAMILTON_EX)
def test_hamilton_worked_examples(g):
    ans = hamilton_path(g)
    assert ans.value is True
    assert oracle_hamilton(g) is True
    assert is_hamilton_path(g, ans.witness)


@pytest.mark.parametrize("host,pattern,expected", SUBGRAPH_EX)
def test_subgraph_worked_examples(host, pattern, expected):
    ans = find_subgraph(host, pattern)
    assert ans.value is expected
    assert oracle_subgraph(pattern, host) is expected
    if expected:
        assert check_witness(
            _problem("subgraph", host, {"pattern": pattern}), ans)


# ---------------------------------------------------------------------------
# hand cases and behavior pins
# ---------------------------------------------------------------------------

def test_cycle_hand_cases():
    assert has_cycle(Graph(3, False, [(0, 1), (0, 2), (1, 2)])).value is True
    assert has_cycle(Graph(4, False, [(0, 1), (1, 2), (2, 3)])).value is False
    assert has_cycle(Graph(1, False, [])).value is False


def test_cycle_witness_is_closed_loop():
    g = Graph(6, False, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
    ans = has_cycle(g)
    assert ans.value is True
    assert is_valid_cycle(g, ans.witness)


def test_connect_same_node_is_trivially_yes():
    g = Graph(3, False, [])
    ans = is_connected(g, 2, 2)
    assert ans.value is True and ans.witness == [2]


def test_bipartite_even_cycle_yes():
    g = Graph(4, False, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ans = is_bipartite(g)
    assert ans.value is True
    side0, side1 = ans.witness
    assert sorted(side0 + side1) == [0, 1, 2, 3]
    edges = g.edge_key_set
    assert not any((a, b) in edges or (b, a) in edges
                   for side in (side0, side1)
                   for a in side for b in side if a < b)


def test_bipartite_ignores_direction():
    # a directed odd cycle is still an odd cycle once arrows are dropped
    g = Graph(3, True, [(0, 1), (1, 2), (2, 0)])
    ans = is_bipartite(g)
    assert ans.value is False
    assert len(ans.witness) % 2 == 1
    assert check_witness(_problem("bipartite", g), ans)
    assert is_bipartite(Graph(4, True, [(0, 1), (1, 2), (2, 3), (3, 0)])).value


def test_bipartite_conflict_across_components():
    g = Graph(7, False, [(0, 1), (2, 3), (3, 4), (2, 4), (5, 6)])
    ans = is_bipartite(g)
    assert ans.value is False
    assert sorted(ans.witness) == [2, 3, 4]


def test_topo_order_is_lexicographically_smallest():
    g = Graph(4, True, [(0, 2), (1, 2), (2, 3)])
    assert topo_sort(g).value == [0, 1, 2, 3]
    assert topo_sort(Graph(3, True, [])).value == [0, 1, 2]


def test_topo_cycle_has_no_order():
    assert topo_sort(Graph(3, True, [(0, 1), (1, 2), (2, 0)])).kind == \
        "none_exists"


def test_shortest_same_node_and_disconnected():
    g = Graph(4, False, [(0, 1, 3)])
    same = shortest_path(g, 1, 1)
    assert same.value == 0 and same.witness == [1]
    assert shortest_path(g, 0, 3).kind == "none_exists"


def test_shortest_prefers_light_detour():
    g = Graph(3, False, [(0, 2, 9), (0, 1, 2), (1, 2, 3)])
    ans = shortest_path(g, 0, 2)
    assert ans.value == 5 and ans.witness == [0, 1, 2]


def test_triangle_no_triangle_and_tie_break():
    assert max_triangle_sum(
        Graph(4, False, [(0, 1), (1, 2), (2, 3)],
              node_weights=[5, 5, 5, 5])).kind == "none_exists"
    # equal sums resolve to the lexicographically smallest triple
    g = Graph(6, False, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)],
              node_weights=[3, 3, 3, 3, 3, 3])
    ans = max_triangle_sum(g)
    assert ans.value == 9 and ans.witness == [0, 1, 2]


def test_flow_no_path_is_zero():
    g = Graph(4, True, [(1, 0, 5), (2, 3, 2)])
    ans = max_flow(g, 0, 3)
    assert ans.value == 0
    assert 0 in ans.witness and 3 not in ans.witness


def test_flow_bottleneck():
    g = Graph(4, True, [(0, 1, 9), (1, 2, 1), (2, 3, 9), (0, 3, 2)])
    assert max_flow(g, 0, 3).value == 3


def test_flow_witness_with_antiparallel_edges():
    # an edge's capacity must not leak into its partner's residual
    for edges, witness in ((((0, 1, 1), (1, 0, 5), (1, 2, 5)), [0]),
                           (((0, 1, 3), (1, 0, 2), (1, 2, 1)), [0, 1])):
        ans = max_flow(Graph(3, True, edges), 0, 2)
        assert (ans.value, ans.witness) == (1, witness), edges


def test_flow_long_chain():
    # every edge is a minimum cut; the witness is the smallest source side
    n = 1500
    g = Graph(n, True, [(i, i + 1, 1) for i in range(n - 1)])
    ans = max_flow(g, 0, n - 1)
    assert (ans.value, ans.witness) == (1, [0])


def test_hamilton_trivial_sizes():
    one = hamilton_path(Graph(1, False, []))
    assert one.value is True and one.witness == [0]
    assert hamilton_path(Graph(2, False, [])).value is False
    edge = Graph(2, False, [(0, 1)])
    two = hamilton_path(edge)
    assert two.value is True and is_hamilton_path(edge, two.witness)


def test_hamilton_disconnected_is_no():
    g = Graph(20, False, [(i, i + 1) for i in range(9)] +
              [(i, i + 1) for i in range(10, 19)])
    assert hamilton_path(g).value is False


def test_hamilton_star_has_too_many_leaves():
    # n above the DP limit exercises the degree precheck in the backtracker
    g = Graph(17, False, [(0, i) for i in range(1, 17)])
    assert hamilton_path(g).value is False


def test_hamilton_budget_exhaustion_returns_none(monkeypatch):
    ring = Graph(16, False, [(i, i + 1) for i in range(15)] + [(0, 15)])
    with monkeypatch.context() as m:
        m.setattr(graphcorpus.solvers, "HAMILTON_BUDGET", 2)
        assert hamilton_path(ring) is None
    full = hamilton_path(ring)
    assert full.value is True and is_hamilton_path(ring, full.witness)
    monkeypatch.setattr(graphcorpus.solvers, "HAMILTON_DP_LIMIT", 16)
    via_dp = hamilton_path(ring)
    assert via_dp.value is True and is_hamilton_path(ring, via_dp.witness)


def test_subgraph_edgeless_pattern_matches_anywhere():
    host = Graph(3, True, [(0, 1)])
    ans = find_subgraph(host, Graph(2, True, []))
    assert ans.value is True
    assert len(set(ans.witness.values())) == 2


def test_solve_dispatches_every_task():
    und = Graph(3, False, [(0, 1), (1, 2)])
    dag = Graph(3, True, [(0, 1), (1, 2)])
    weighted = Graph(3, False, [(0, 1, 2), (1, 2, 2)])
    nw = Graph(3, False, [(0, 1), (1, 2), (0, 2)], node_weights=[1, 2, 3])
    assert solve("cycle", und).value is False
    assert solve("connect", und, {"u": 0, "v": 2}).value is True
    assert solve("bipartite", dag).value is True
    assert solve("topology", dag).value == [0, 1, 2]
    assert solve("shortest", weighted, {"u": 0, "v": 2}).value == 4
    assert solve("triangle", nw).value == 6
    assert solve("flow", dag, {"s": 0, "t": 2}).value == 1
    assert solve("hamilton", und).value is True
    assert solve("subgraph", dag, {"pattern": Graph(2, True,
                                                    [(0, 1)])}).value is True


def test_solve_rejects_unknown_task():
    with pytest.raises(InvalidSpecError):
        solve("coloring", Graph(2, False, [(0, 1)]))


@pytest.mark.parametrize("call", [
    lambda: has_cycle(Graph(2, True, [(0, 1)])),
    lambda: is_connected(Graph(2, True, [(0, 1)]), 0, 1),
    lambda: topo_sort(Graph(2, False, [(0, 1)])),
    lambda: shortest_path(Graph(2, True, [(0, 1, 1)]), 0, 1),
    lambda: max_triangle_sum(Graph(3, True, [(0, 1)])),
    lambda: max_flow(Graph(2, False, [(0, 1, 1)]), 0, 1),
    lambda: hamilton_path(Graph(2, True, [(0, 1)])),
    lambda: find_subgraph(Graph(2, False, [(0, 1)]), Graph(1, True, [])),
    lambda: find_subgraph(Graph(2, True, [(0, 1)]), Graph(1, False, [])),
    lambda: max_triangle_sum(Graph(3, False, [(0, 1), (1, 2), (0, 2)])),
])
def test_wrong_graph_kind_is_rejected(call):
    with pytest.raises(GraphKindError):
        call()


@pytest.mark.parametrize("call", [
    lambda: is_connected(Graph(3, False, []), 0, 3),
    lambda: is_connected(Graph(3, False, []), -1, 2),
    lambda: shortest_path(Graph(3, False, [(0, 1, 1)]), 0, 5),
    lambda: max_flow(Graph(3, True, [(0, 1, 1)]), 1, 1),
    lambda: find_subgraph(Graph(2, True, []), Graph(3, True, [])),
])
def test_bad_queries_are_rejected(call):
    with pytest.raises(InvalidQueryError):
        call()


# ---------------------------------------------------------------------------
# seeded agreement with the brute-force oracles
# ---------------------------------------------------------------------------

DENSITIES = (0.15, 0.3, 0.5)


def test_cycle_matches_oracle():
    for seed in range(40):
        g = generate_er(3 + seed % 7, DENSITIES[seed % 3], seed=seed)
        ans = has_cycle(g)
        assert ans.value == oracle_cycle(g), f"seed {seed}"
        if ans.value:
            assert is_valid_cycle(g, ans.witness), f"seed {seed}"


def test_connect_matches_oracle():
    for seed in range(40):
        n = 2 + seed % 8
        g = generate_er(n, DENSITIES[seed % 3], seed=seed)
        u, v = (seed * 7) % n, (seed * 3 + 1) % n
        ans = is_connected(g, u, v)
        assert ans.value == oracle_connect(g, u, v), f"seed {seed}"
        if ans.value and u != v:
            assert is_valid_path(g, ans.witness)
            assert ans.witness[0] == u and ans.witness[-1] == v


def test_bipartite_matches_oracle():
    for seed in range(40):
        g = generate_er(2 + seed % 8, 2 * DENSITIES[seed % 3],
                        directed=True, seed=seed)
        ans = is_bipartite(g)
        assert ans.value == oracle_bipartite(g), f"seed {seed}"
        assert check_witness(_problem("bipartite", g), ans), f"seed {seed}"


def test_topology_matches_oracle():
    for seed in range(40):
        n = 2 + seed % 7
        if seed % 2:
            g = generate_dag(n, 0.5, seed=seed)
        else:
            g = generate_er(n, 0.4, directed=True, seed=seed)
        orders = oracle_topo_orders(g)
        ans = topo_sort(g)
        if not orders:
            assert ans.kind == "none_exists", f"seed {seed}"
        else:
            # heap-based Kahn yields the lexicographically smallest order
            assert tuple(ans.value) == min(orders), f"seed {seed}"


def test_shortest_matches_oracle():
    for seed in range(40):
        n = 2 + seed % 7
        g = assign_edge_weights(generate_er(n, DENSITIES[seed % 3],
                                            seed=seed), 1, 10, seed=seed)
        u, v = (seed * 5) % n, (seed * 11 + 2) % n
        expected = oracle_shortest(g, u, v)
        ans = shortest_path(g, u, v)
        if expected is None:
            assert ans.kind == "none_exists", f"seed {seed}"
        else:
            assert ans.value == expected, f"seed {seed}"
            assert path_weight(g, ans.witness) == expected, f"seed {seed}"


def test_triangle_matches_oracle():
    for seed in range(40):
        g = assign_node_weights(generate_er(3 + seed % 7,
                                            DENSITIES[seed % 3] + 0.2,
                                            seed=seed), 1, 10, seed=seed)
        expected = oracle_triangle(g)
        ans = max_triangle_sum(g)
        if expected is None:
            assert ans.kind == "none_exists", f"seed {seed}"
        else:
            assert ans.value == expected, f"seed {seed}"


def test_flow_matches_oracle():
    for seed in range(40):
        n = 2 + seed % 6
        g = assign_edge_weights(generate_er(n, 0.4, directed=True,
                                            seed=seed), 1, 10, seed=seed)
        s = (seed * 3) % n
        t = (s + 1 + seed % (n - 1)) % n if n > 1 else 0
        if s == t:
            continue
        expected = oracle_flow(g, s, t)
        ans = max_flow(g, s, t)
        assert ans.value == expected, f"seed {seed}"
        assert check_witness(_problem("flow", g, {"s": s, "t": t}),
                             ans), f"seed {seed}"


def test_hamilton_matches_oracle():
    for seed in range(40):
        g = generate_er(2 + seed % 7, 0.3 + DENSITIES[seed % 3], seed=seed)
        ans = hamilton_path(g)
        assert ans is not None
        assert ans.value == oracle_hamilton(g), f"seed {seed}"
        assert ans.value == oracle_hamilton_dp(g), f"seed {seed}"
        if ans.value:
            assert is_hamilton_path(g, ans.witness), f"seed {seed}"


def test_subgraph_matches_oracle():
    for seed in range(40):
        host = generate_er(5 + seed % 5, 0.4, directed=True, seed=seed)
        pattern = generate_er(2 + seed % 3, 0.5, directed=True,
                              seed=seed + 1000)
        expected = oracle_subgraph(pattern, host)
        ans = find_subgraph(host, pattern)
        assert ans.value == expected, f"seed {seed}"
        if ans.value:
            assert check_witness(
                _problem("subgraph", host, {"pattern": pattern}),
                ans), f"seed {seed}"


def test_hamilton_dp_and_backtrack_agree(monkeypatch):
    for seed in range(30):
        g = generate_er(8, 0.35, seed=seed)
        monkeypatch.setattr(graphcorpus.solvers, "HAMILTON_DP_LIMIT", 15)
        dp = hamilton_path(g)
        monkeypatch.setattr(graphcorpus.solvers, "HAMILTON_DP_LIMIT", 0)
        monkeypatch.setattr(graphcorpus.solvers, "HAMILTON_BUDGET", 10_000_000)
        bt = hamilton_path(g)
        assert dp.value == bt.value, f"seed {seed}"
        if bt.value:
            assert is_hamilton_path(g, bt.witness), f"seed {seed}"
