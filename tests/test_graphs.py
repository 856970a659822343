import random

import pytest

from graphcorpus.errors import GraphInvalidError, InvalidSpecError
from graphcorpus.grader import audit_steps, path_weight
from graphcorpus.graphs import (Graph, assign_edge_weights,
                                assign_node_weights, bfs, canonical_key,
                                connected_components, generate_dag,
                                generate_er, path_to, union_find,
                                validate_graph)
from graphcorpus.textgen import Problem

from oracles import oracle_topo_orders


def test_validate_accepts_simple_graphs():
    validate_graph(Graph(3, False, [(0, 1), (1, 2)]))
    validate_graph(Graph(3, True, [(0, 1), (1, 0), (2, 1)]))
    validate_graph(Graph(2, False, [(0, 1, 7)]))
    validate_graph(Graph(1, False, []))


@pytest.mark.parametrize("graph", [
    Graph(0, False, []),                      # no nodes
    Graph(2, False, [(0, 0)]),                # self loop
    Graph(2, False, [(0, 2)]),                # endpoint out of range
    Graph(2, False, [(-1, 1)]),               # negative node
    Graph(3, False, [(1, 0)]),                # undirected stored reversed
    Graph(3, False, [(0, 1), (0, 1)]),        # duplicate
    Graph(3, True, [(0, 1), (0, 1)]),         # duplicate directed
    Graph(3, False, [(0, 1), (1, 2, 5)]),     # mixed arity
    Graph(2, False, [(0, 1, 0)]),             # nonpositive weight
    Graph(2, False, [(0, 1)], node_weights=[1]),      # weights wrong length
    Graph(2, False, [(0, 1)], node_weights=[1, 0]),   # nonpositive node weight
])
def test_validate_rejects_malformed(graph):
    with pytest.raises(GraphInvalidError):
        validate_graph(graph)


@pytest.mark.parametrize("graph,field", [
    (Graph(True, False, []), "num_nodes"),
    (Graph(2, False, [(0, 1, True)]), "edges"),
    (Graph(2, False, [(0, 1)], node_weights=[True, 1]), "node_weights"),
    (Graph(2, 0, [(0, 1)]), "directed"),
    (Graph(2, False, [(0.0, 1.0)]), "edges"),
], ids=["num-nodes-a-bool", "edge-weight-a-bool", "node-weight-a-bool",
        "directed-an-int", "endpoints-floats"])
def test_validate_rejects_fields_of_the_wrong_type(graph, field):
    # the problem reader refused each of these, and validate_graph took them
    with pytest.raises(TypeError, match=f"^graph '{field}' is not "):
        validate_graph(graph)


def test_canonical_key_ignores_edge_order():
    a = Graph(4, False, [(0, 1), (1, 2), (2, 3)])
    b = Graph(4, False, [(2, 3), (0, 1), (1, 2)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_distinguishes_structure():
    base = Graph(4, False, [(0, 1), (1, 2)])
    keys = {
        canonical_key(base),
        canonical_key(Graph(4, False, [(0, 1), (1, 3)])),      # other edges
        canonical_key(Graph(5, False, [(0, 1), (1, 2)])),      # more nodes
        canonical_key(Graph(4, True, [(0, 1), (1, 2)])),       # directed
        canonical_key(Graph(4, False, [(0, 1, 2), (1, 2, 2)])),  # weighted
        canonical_key(Graph(4, False, [(0, 1), (1, 2)],
                            node_weights=[1, 1, 1, 1])),
    }
    assert len(keys) == 6


def test_er_is_deterministic_and_ordered():
    a = generate_er(12, 0.4, seed=99)
    b = generate_er(12, 0.4, seed=99)
    c = generate_er(12, 0.4, seed=100)
    assert a == b
    assert a != c
    # lexicographic pair scan: edges come out sorted with u < v
    assert list(a.edges) == sorted(a.edges)
    assert all(u < v for u, v in a.edges)
    validate_graph(a)


def test_er_directed_scans_ordered_pairs():
    g = generate_er(10, 0.3, directed=True, seed=5)
    assert g.directed
    assert list(g.edges) == sorted(g.edges)
    assert all(u != v for u, v in g.edges)
    validate_graph(g)


def test_generators_draw_once_per_pair_in_pair_order():
    n, p, seed = 9, 0.4, 11
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    ordered = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng = random.Random(seed)
    assert generate_er(n, p, seed=seed).edges == tuple(
        pair for pair in pairs if rng.random() < p)
    rng = random.Random(seed)
    assert generate_er(n, p, directed=True, seed=seed).edges == tuple(
        pair for pair in ordered if rng.random() < p)
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)                  # the DAG's hidden order comes first
    rank = {node: i for i, node in enumerate(order)}
    assert generate_dag(n, p, seed=seed).edges == tuple(
        (u, v) if rank[u] < rank[v] else (v, u)
        for u, v in pairs if rng.random() < p)


def test_er_extreme_densities():
    assert list(generate_er(6, 0.0, seed=1).edges) == []
    assert len(generate_er(6, 1.0, seed=1).edges) == 15
    assert len(generate_er(6, 1.0, directed=True, seed=1).edges) == 30


def test_er_rejects_bad_params():
    with pytest.raises(InvalidSpecError):
        generate_er(0, 0.5, seed=0)
    with pytest.raises(InvalidSpecError):
        generate_er(5, -0.1, seed=0)
    with pytest.raises(InvalidSpecError):
        generate_er(5, 1.5, seed=0)


def test_dag_has_valid_order():
    for seed in range(30):
        g = generate_dag(6, 0.5, seed=seed)
        validate_graph(g)
        assert g.directed
        assert oracle_topo_orders(g), f"seed {seed} produced a cyclic graph"


def test_dag_is_deterministic():
    assert generate_dag(9, 0.4, seed=3) == generate_dag(9, 0.4, seed=3)
    assert generate_dag(9, 0.4, seed=3) != generate_dag(9, 0.4, seed=4)


def test_edge_weights_in_range_and_deterministic():
    g = generate_er(15, 0.4, seed=7)
    w1 = assign_edge_weights(g, 1, 10, seed=2)
    w2 = assign_edge_weights(g, 1, 10, seed=2)
    assert w1 == w2
    assert len(w1.edges) == len(g.edges)
    assert all(1 <= e[2] <= 10 for e in w1.edges)
    assert [(e[0], e[1]) for e in w1.edges] == list(g.edges)
    validate_graph(w1)


def test_node_weights_in_range():
    g = generate_er(8, 0.3, seed=1)
    w = assign_node_weights(g, 1, 10, seed=4)
    assert w.node_weights is not None and len(w.node_weights) == 8
    assert all(1 <= x <= 10 for x in w.node_weights)
    validate_graph(w)


def test_weight_bounds_validated():
    g = generate_er(4, 1.0, seed=0)
    with pytest.raises(InvalidSpecError):
        assign_edge_weights(g, 0, 10, seed=0)
    with pytest.raises(InvalidSpecError):
        assign_edge_weights(g, 5, 4, seed=0)


def test_connected_components():
    g = Graph(6, False, [(0, 1), (1, 2), (4, 5)])
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]


def test_connected_components_ignore_direction():
    g = Graph(4, True, [(1, 0), (2, 1)])
    assert connected_components(g) == [[0, 1, 2], [3]]


def test_union_find_joins_in_scan_order():
    # (0,1) and (1,2) join; (0,2) closes a cycle; (4,3) joins
    joined, roots = union_find(6, [(0, 1), (1, 2), (0, 2), (4, 3)])
    assert joined == [(0, 1), (1, 2), (4, 3)]
    assert roots[0] == roots[1] == roots[2]
    assert roots[3] == roots[4]
    assert len({roots[0], roots[3], roots[5]}) == 3
    # another scan order keeps another forest of the same components
    joined, _ = union_find(3, [(0, 2), (1, 2), (0, 1)])
    assert joined == [(0, 2), (1, 2)]
    assert union_find(2, []) == ([], [0, 1])


def test_key_orients_undirected_pairs_only():
    undirected = Graph(3, False, [(0, 2, 4)])
    assert undirected.key(2, 0) == undirected.key(0, 2) == (0, 2)
    assert undirected.has_edge(2, 0) and undirected.weight_map == {(0, 2): 4}
    directed = Graph(3, True, [(2, 0)])
    assert directed.key(2, 0) == (2, 0) and directed.key(0, 2) == (0, 2)
    assert directed.has_edge(2, 0) and not directed.has_edge(0, 2)
    assert directed.weight_map == {(2, 0): 1}


def test_graph_is_immutable_with_cached_views():
    g = Graph(4, False, [(0, 1, 2), (1, 2, 5)], node_weights=[1, 2, 3, 4])
    assert g.edges == ((0, 1, 2), (1, 2, 5)) and g.node_weights == (1, 2, 3, 4)
    with pytest.raises(AttributeError):
        g.num_nodes = 5
    with pytest.raises(AttributeError):
        g.edges = ()
    for view in ("weighted", "edge_pairs", "weight_map", "adjacency"):
        assert getattr(g, view) is getattr(g, view)
    assert g.adjacency == ((1,), (0, 2), (1,), ())
    h = Graph(g.num_nodes, g.directed, [(0, 3, 1)], g.node_weights)
    assert h.edges == ((0, 3, 1),) and h.node_weights == g.node_weights
    assert h.weight_map == {(0, 3): 1} and g.weight_map == {(0, 1): 2, (1, 2): 5}
    assert h.adjacency == ((3,), (), (), (0,))


def test_neighbours_ignore_direction_in_edge_order():
    g = Graph(4, True, [(2, 0), (0, 1), (1, 0)])
    assert g.adjacency == ((1,), (0,), (0,), ())
    assert g.neighbours == ((2, 1, 1), (0, 0), (0,), ())
    assert g.neighbours is g.neighbours
    for u in (generate_er(12, 0.4, seed=3), Graph(3, False, [(2, 0)])):
        assert u.neighbours is u.adjacency
    d = generate_dag(12, 0.4, seed=3)
    for node in range(d.num_nodes):
        ends = [v if u == node else u for u, v in d.edge_pairs
                if node in (u, v)]
        assert d.neighbours[node] == tuple(ends)


def test_views_reuse_the_edge_tuples():
    def objects(pairs):
        return {id(pair) for pair in pairs}

    for g in (generate_er(12, 0.4, seed=3),
              generate_er(12, 0.4, directed=True, seed=3),
              generate_dag(12, 0.4, seed=3)):
        validate_graph(g)
        assert g.edge_pairs is g.edges
        assert objects(g.weight_map) <= objects(g.edges)
    weighted = assign_edge_weights(generate_er(12, 0.4, seed=3), 1, 9, seed=3)
    validate_graph(weighted)
    assert objects(weighted.weight_map) <= objects(weighted.edge_pairs)
    edge = (0, 1)
    assert Graph(2, False, [edge]).edges[0] is edge
    assert Graph(2, False, [[0, 1]]).edges == ((0, 1),)


def test_views_of_an_unvalidated_graph_keep_their_meaning():
    # generate's transforms build graphs without validating them
    g = Graph(3, False, [(2, 0)])
    assert g.edge_pairs == ((2, 0),)
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert g.weight_map == {(0, 2): 1}
    assert Graph(3, False, [(2, 0, 5)]).weight_map == {(0, 2): 5}


def test_weight_map_is_the_one_keyed_edge_table():
    graphs = [generate_er(12, 0.4, seed=3),
              generate_er(12, 0.4, directed=True, seed=3),
              generate_dag(12, 0.4, seed=3),
              assign_edge_weights(generate_er(12, 0.4, seed=3), 1, 9, seed=3),
              Graph(3, False, [(2, 0)])]     # unvalidated: stored reversed
    for g in graphs:
        for u in range(g.num_nodes):
            for v in range(g.num_nodes):
                assert g.has_edge(u, v) == (g.key(u, v) in g.weight_map)
        u, v = g.edge_pairs[0]
        w = g.weight_map[g.key(u, v)]
        assert path_weight(g, [u, v]) == w
        assert audit_steps(Problem("t", "cycle", g, {}),
                           f"Edge ({u},{v},{w}) is there.") == []
        tables = [name for name, view in vars(g).items()
                  if isinstance(view, (set, frozenset, dict))]
        assert tables == ["weight_map"]


def test_bfs_follows_edge_direction():
    g = Graph(5, True, [(0, 1), (1, 2), (3, 1)])
    assert bfs(g.adjacency, 0) == {0: 0, 1: 0, 2: 1}
    assert bfs(g.adjacency, 2) == {2: 2}
    assert set(bfs(Graph(5, False, [(0, 1), (1, 2), (1, 3)]).adjacency, 2)) \
        == {0, 1, 2, 3}


def _levels(adj, s):
    """Nodes by distance from s, each level in the order a level-by-level
    search first reaches them."""
    levels, seen = [[s]], {s}
    while levels[-1]:
        nxt = []
        for node in levels[-1]:
            for y in adj[node]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        levels.append(nxt)
    return levels


@pytest.mark.parametrize("seed", range(20))
def test_bfs_visits_in_level_order(seed):
    g = generate_er(30, 0.08, directed=seed % 2 == 1, seed=seed)
    levels = _levels(g.adjacency, 0)
    tree = bfs(g.adjacency, 0)
    assert list(tree) == [x for level in levels for x in level]
    for depth, level in enumerate(levels):
        for node in level:
            path = path_to(tree, node)       # a shortest path along edges
            assert len(path) == depth + 1 and path[0] == 0
            assert all(b in g.adjacency[a] for a, b in zip(path, path[1:]))


def test_bfs_stop_keeps_the_parent_of_the_stop_node():
    g = generate_er(40, 0.1, seed=4)
    full = bfs(g.adjacency, 0)
    order = list(full)
    for i, stop in enumerate(order[1:], 2):
        tree = bfs(g.adjacency, 0, stop=stop)
        assert list(tree) == order[:i]        # it returns on reaching stop
        assert tree[stop] == full[stop]
        assert path_to(tree, stop) == path_to(full, stop)
    # the root is never reached, so stopping there searches everything
    assert bfs(g.adjacency, 0, stop=0) == full


def test_bfs_steps_only_along_positive_residual():
    adj = [[1, 2], [3], [3], []]
    residual = {(0, 1): 0, (0, 2): 4, (1, 3): 5, (2, 3): 1}
    assert bfs(adj, 0, residual) == {0: 0, 2: 0, 3: 2}
    assert bfs(adj, 0, residual, stop=3) == {0: 0, 2: 0, 3: 2}
    residual[2, 3] = 0
    assert bfs(adj, 0, residual) == {0: 0, 2: 0}


def test_path_to_walks_back_to_the_root():
    tree = {4: 4, 1: 4, 0: 1, 3: 4}
    assert path_to(tree, 4) == [4]
    assert path_to(tree, 0) == [4, 1, 0]
    assert path_to(tree, 3) == [4, 3]
