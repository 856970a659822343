"""Graph value type, validation, canonical hashing, and seeded generators.

Edges are tuples (u, v) or (u, v, weight); undirected edges are stored with
u < v, and `Graph.key` gives any pair its stored form. A Graph is
immutable, so its derived views (edge pairs, the weight map, adjacency and
the direction-blind `neighbours`) are computed once per instance and
shared. The weight map is the one edge table: every keyed lookup of an
edge, for membership or weight, reads it. The views reuse the edge tuples:
an unweighted graph's edge pairs are its edges, and the weight map's keys
are those pairs, building a new one only for a pair not in `key` form.
`bfs` is the one breadth-first search (connectivity, bipartite colouring,
augmenting paths, reachability), `path_to` reads a path off its tree, and
`union_find` is the one union-find. Generators draw from
random.Random(seed) in a fixed documented order, so a (parameters, seed)
pair always yields the same graph; `_draw_pairs` is the one Erdos-Renyi
pair draw, shared by `generate_er` and `generate_dag`.
"""

from __future__ import annotations

import hashlib
import random
from functools import cached_property
from itertools import combinations, permutations
from typing import NamedTuple

from .config import has_type
from .errors import GraphInvalidError, InvalidSpecError


class _GraphFields(NamedTuple):
    num_nodes: int
    directed: bool
    edges: tuple[tuple, ...]
    node_weights: tuple[int, ...] | None


class Graph(_GraphFields):
    """Immutable graph value. Edges and node weights are stored as tuples
    (an edge given as a tuple is kept as that object); the derived views
    below are computed on first use, kept in the instance dict and built
    from the edge tuples, so a graph built from another's fields has fresh
    views over shared edges."""

    def __new__(cls, num_nodes: int, directed: bool, edges,
                node_weights=None) -> Graph:
        return super().__new__(cls, num_nodes, directed,
                               tuple(map(tuple, edges)),
                               None if node_weights is None
                               else tuple(node_weights))

    @cached_property
    def weighted(self) -> bool:
        return any(len(e) == 3 for e in self.edges)

    @cached_property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Edge endpoints without weights, in storage order: `edges` itself
        when unweighted."""
        if not self.weighted:
            return self.edges
        return tuple((e[0], e[1]) for e in self.edges)

    def key(self, u: int, v: int) -> tuple[int, int]:
        """The stored form of the pair: (u, v) when directed, low end first
        when undirected."""
        return self._keyed((u, v))

    def _keyed(self, pair: tuple[int, int]) -> tuple[int, int]:
        """pair itself when it is in `key` form, else its `key`."""
        u, v = pair
        return pair if self.directed or u < v else (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return self.key(u, v) in self.weight_map

    @cached_property
    def weight_map(self) -> dict[tuple[int, int], int]:
        """The one edge table: each endpoint pair in its `key` form (the
        `edge_pairs` tuple itself wherever it has that form) -> the edge's
        weight, 1 when unweighted. Shared by every caller: read it, never
        modify it."""
        if not self.weighted:
            return dict.fromkeys(map(self._keyed, self.edge_pairs), 1)
        return {self._keyed(p): e[2] if len(e) == 3 else 1
                for p, e in zip(self.edge_pairs, self.edges)}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Out-neighbor lists (both directions for undirected graphs)."""
        adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edge_pairs:
            adj[u].append(v)
            if not self.directed:
                adj[v].append(u)
        return tuple(map(tuple, adj))

    @cached_property
    def neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour lists ignoring direction, in edge order: the adjacency
        of the same edges read as undirected (`adjacency` when they are)."""
        if not self.directed:
            return self.adjacency
        return Graph(self.num_nodes, False, self.edges).adjacency


def bfs(adj, s: int, residual: dict | None = None,
        stop: int | None = None) -> dict[int, int]:
    """Breadth-first tree from s over the neighbour lists adj: each reached
    node, in visit order, maps to the node it was reached from (s maps to
    itself). With residual, a step u -> v needs residual[u, v] > 0. The
    search returns as soon as it reaches stop."""
    tree = {s: s}
    queue = [s]
    for node in queue:              # the list is the FIFO queue; it grows
        for nxt in adj[node]:
            if nxt not in tree and (residual is None
                                    or residual[node, nxt] > 0):
                tree[nxt] = node
                if nxt == stop:
                    return tree
                queue.append(nxt)
    return tree


def path_to(tree: dict[int, int], v: int) -> list[int]:
    """The path from the root of a `bfs`-style tree to v, both included."""
    path = [v]
    while tree[v] != v:
        v = tree[v]
        path.append(v)
    path.reverse()
    return path


def validate_graph(g: Graph) -> None:
    """The one definition of a valid graph: a TypeError for the first field
    of the wrong type (a bool is no int), else a GraphInvalidError."""
    for name, value, hint, what in (
            ("num_nodes", g.num_nodes, int, "an integer"),
            ("directed", g.directed, bool, "a boolean"),
            ("edges", [x for e in g.edges for x in e], list[int], "lists of integers"),
            ("node_weights", list(g.node_weights or ()), list[int], "a list of integers")):
        if not has_type(value, hint):
            raise TypeError(f"graph {name!r} is not {what}")
    if g.num_nodes < 1:
        raise GraphInvalidError(f"num_nodes must be >= 1, got {g.num_nodes}")
    arities = {len(e) for e in g.edges}
    if arities - {2, 3}:
        raise GraphInvalidError(f"edges must be (u,v) or (u,v,w) tuples, got arities {sorted(arities)}")
    if len(arities) > 1:
        raise GraphInvalidError("mixed weighted and unweighted edges")
    seen: set[tuple[int, int]] = set()
    for e in g.edges:
        u, v = e[0], e[1]
        if not (0 <= u < g.num_nodes and 0 <= v < g.num_nodes):
            raise GraphInvalidError(f"edge ({u},{v}) references a node outside [0,{g.num_nodes - 1}]")
        if u == v:
            raise GraphInvalidError(f"self loop at node {u}")
        if not g.directed and u > v:
            raise GraphInvalidError(f"undirected edge ({u},{v}) not stored with u < v")
        if (u, v) in seen:
            raise GraphInvalidError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        if len(e) == 3 and e[2] < 1:
            raise GraphInvalidError(f"edge ({u},{v}) weight must be a positive int, got {e[2]!r}")
    if g.node_weights is not None and len(g.node_weights) != g.num_nodes:
        raise GraphInvalidError(
            f"node_weights has {len(g.node_weights)} entries for {g.num_nodes} nodes")
    for i, w in enumerate(g.node_weights or ()):
        if w < 1:
            raise GraphInvalidError(f"node {i} weight must be a positive int, got {w!r}")


def canonical_key(g: Graph) -> str:
    """Content digest of the labeled graph; equal graphs hash equal.

    Edge order and undirected orientation do not affect the key.
    """
    edges = sorted(g.key(e[0], e[1]) + e[2:] for e in g.edges)
    payload = repr((g.num_nodes, g.directed, edges, tuple(g.node_weights or ())))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check_er_params(num_nodes: int, p: float) -> None:
    if num_nodes <= 0:
        raise InvalidSpecError(f"num_nodes must be positive, got {num_nodes}")
    if not (0.0 <= p <= 1.0):
        raise InvalidSpecError(f"edge probability must be in [0,1], got {p}")


def _draw_pairs(pairs, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """The pairs that win one Bernoulli(p) draw each, drawn in pair order."""
    return [(u, v) for u, v in pairs if rng.random() < p]


def generate_er(num_nodes: int, p: float, *, directed: bool = False, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with one Bernoulli draw per node pair.

    Undirected: pairs (u, v) with u < v in lexicographic order. Directed:
    ordered pairs (u, v), u != v, in lexicographic order.
    """
    _check_er_params(num_nodes, p)
    pairs = (permutations if directed else combinations)(range(num_nodes), 2)
    edges = _draw_pairs(pairs, p, random.Random(seed))
    return Graph(num_nodes=num_nodes, directed=directed, edges=edges)


def generate_dag(num_nodes: int, p: float, *, seed: int) -> Graph:
    """Random DAG: ER draws oriented along a hidden random node order.

    Each unordered pair {u, v} gets an edge with probability p, directed from
    the earlier to the later node in a seeded random permutation, so the
    result is acyclic by construction.
    """
    _check_er_params(num_nodes, p)
    rng = random.Random(seed)
    order = list(range(num_nodes))
    rng.shuffle(order)
    rank = {node: i for i, node in enumerate(order)}
    edges = [(u, v) if rank[u] < rank[v] else (v, u)
             for u, v in _draw_pairs(combinations(range(num_nodes), 2), p, rng)]
    return Graph(num_nodes=num_nodes, directed=True, edges=edges)


def assign_edge_weights(g: Graph, lo: int, hi: int, *, seed: int) -> Graph:
    """Copy of g with integer weights uniform in [lo, hi], one draw per edge
    in storage order."""
    if not (1 <= lo <= hi):
        raise InvalidSpecError(f"weight range [{lo},{hi}] must satisfy 1 <= lo <= hi")
    rng = random.Random(seed)
    edges = [(e[0], e[1], rng.randint(lo, hi)) for e in g.edges]
    return Graph(g.num_nodes, g.directed, edges, g.node_weights or None)


def assign_node_weights(g: Graph, lo: int, hi: int, *, seed: int) -> Graph:
    """Copy of g with node weights uniform in [lo, hi], one draw per node."""
    if not (1 <= lo <= hi):
        raise InvalidSpecError(f"weight range [{lo},{hi}] must satisfy 1 <= lo <= hi")
    rng = random.Random(seed)
    weights = [rng.randint(lo, hi) for _ in range(g.num_nodes)]
    return Graph(g.num_nodes, g.directed, g.edges, weights)


def union_find(num_nodes: int, pairs) -> tuple[list[tuple[int, int]], list[int]]:
    """Merge nodes along pairs in scan order. Returns the pairs that joined
    two components (a spanning forest), in scan order, and each node's root."""
    parent = list(range(num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            joined.append((u, v))
    return joined, [find(x) for x in range(num_nodes)]


def connected_components(g: Graph) -> list[list[int]]:
    """Components ignoring direction, each sorted, ordered by smallest member."""
    groups: dict[int, list[int]] = {}
    for node, root in enumerate(union_find(g.num_nodes, g.edge_pairs)[1]):
        groups.setdefault(root, []).append(node)
    return list(groups.values())   # nodes arrive in order: already sorted
