"""Brute-force reference implementations for the test suite.

Every oracle here answers by exhaustive enumeration and shares no code
with the production solvers. They are deliberately slow and refuse graphs
beyond small size limits (OracleLimitError) so a typo in a test cannot
silently turn into an hour-long run. `solve` is the one exception: it
dispatches a task to the package's exact solver, for tests that need a
problem's true answer.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

from graphcorpus.errors import GraphCorpusError, InvalidSpecError
from graphcorpus.graphs import Graph
from graphcorpus.solvers import (Answer, find_subgraph, hamilton_path,
                                 has_cycle, is_bipartite, is_connected,
                                 max_flow, max_triangle_sum, shortest_path,
                                 topo_sort)
from graphcorpus.tasks import get_task

NODE_LIMIT = 10
TOPOLOGY_LIMIT = 8
HAMILTON_LIMIT = 9
HAMILTON_DP_LIMIT = 16
PATTERN_LIMIT = 6
TIE = 1e-9          # k-means distances closer than this are equal


class OracleLimitError(GraphCorpusError, ValueError):
    """An instance exceeds the brute-force oracle's size limit."""


def _guard(g: Graph, limit: int) -> None:
    if g.num_nodes > limit:
        raise OracleLimitError(
            f"oracle limit is {limit} nodes, got {g.num_nodes}")


def _adjacent(g: Graph) -> set[tuple[int, int]]:
    pairs = set()
    for u, v in g.edge_pairs:
        pairs.add((u, v))
        if not g.directed:
            pairs.add((v, u))
    return pairs


def oracle_cycle(g: Graph) -> bool:
    """A cycle exists iff some subset of >=3 nodes admits a cyclic order
    whose consecutive pairs are all edges."""
    _guard(g, NODE_LIMIT)
    adj = _adjacent(g)
    nodes = range(g.num_nodes)
    for k in range(3, g.num_nodes + 1):
        for subset in combinations(nodes, k):
            first = subset[0]
            for rest in permutations(subset[1:]):
                order = (first,) + rest
                if all((order[i], order[(i + 1) % k]) in adj for i in range(k)):
                    return True
    return False


def oracle_connect(g: Graph, u: int, v: int) -> bool:
    """Reachability by Floyd-Warshall closure."""
    _guard(g, NODE_LIMIT)
    n = g.num_nodes
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in g.edge_pairs:
        reach[a][b] = True
        if not g.directed:
            reach[b][a] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return reach[u][v]


def oracle_bipartite(g: Graph) -> bool:
    """Try all 2^n two-colorings, ignoring edge direction."""
    _guard(g, NODE_LIMIT)
    pairs = list(g.edge_pairs)
    for mask in range(1 << g.num_nodes):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in pairs):
            return True
    return False


def oracle_topo_orders(g: Graph) -> set[tuple[int, ...]]:
    """Every permutation that places each edge's tail before its head."""
    _guard(g, TOPOLOGY_LIMIT)
    pairs = list(g.edge_pairs)
    out = set()
    for order in permutations(range(g.num_nodes)):
        pos = {x: i for i, x in enumerate(order)}
        if all(pos[u] < pos[v] for u, v in pairs):
            out.add(order)
    return out


def oracle_shortest(g: Graph, u: int, v: int) -> int | None:
    """Minimum weight over all simple paths, None when v is unreachable."""
    _guard(g, NODE_LIMIT)
    wm = g.weight_map
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(g.num_nodes)}
    for key, w in wm.items():
        a, b = key
        adj[a].append((b, w))
        if not g.directed:
            adj[b].append((a, w))
    best: list[int | None] = [None]

    def walk(node: int, seen: set[int], total: int) -> None:
        if node == v:
            if best[0] is None or total < best[0]:
                best[0] = total
            return
        for nxt, w in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                walk(nxt, seen, total + w)
                seen.remove(nxt)

    walk(u, {u}, 0)
    return best[0]


def oracle_triangle(g: Graph) -> int | None:
    """Maximum node-weight sum over all fully connected triples."""
    _guard(g, NODE_LIMIT)
    if g.node_weights is None:
        raise InvalidSpecError("triangle oracle needs node weights")
    adj = _adjacent(g)
    best = None
    for a, b, c in combinations(range(g.num_nodes), 3):
        if (a, b) in adj and (a, c) in adj and (b, c) in adj:
            s = g.node_weights[a] + g.node_weights[b] + g.node_weights[c]
            if best is None or s > best:
                best = s
    return best


def oracle_flow(g: Graph, s: int, t: int) -> int:
    """Max flow as the minimum capacity over all s-t cuts."""
    _guard(g, NODE_LIMIT)
    others = [x for x in range(g.num_nodes) if x not in (s, t)]
    best = None
    for mask in range(1 << len(others)):
        side = {s}
        for i, x in enumerate(others):
            if mask >> i & 1:
                side.add(x)
        cap = 0
        for e in g.edges:
            w = e[2] if len(e) == 3 else 1
            if e[0] in side and e[1] not in side:
                cap += w
            elif not g.directed and e[1] in side and e[0] not in side:
                cap += w
        if best is None or cap < best:
            best = cap
    return best or 0


def oracle_hamilton(g: Graph) -> bool:
    """Check every permutation of the nodes for being a path."""
    _guard(g, HAMILTON_LIMIT)
    if g.num_nodes == 1:
        return True
    adj = _adjacent(g)
    for order in permutations(range(g.num_nodes)):
        if order[0] > order[-1] and not g.directed:
            continue        # each undirected path shows up twice
        if all((order[i], order[i + 1]) in adj for i in range(len(order) - 1)):
            return True
    return False


def oracle_hamilton_dp(g: Graph) -> bool:
    """Held-Karp style subset DP: ends[mask] holds, as a bit set, each node
    v in mask such that some path visits exactly mask and stops at v. It is
    filled by looking back from v at the path over mask without v."""
    _guard(g, HAMILTON_DP_LIMIT)
    n = g.num_nodes
    nbr_bits = [0] * n
    for u, v in _adjacent(g):
        nbr_bits[v] |= 1 << u
    ends = [0] * (1 << n)
    for mask in range(1, 1 << n):
        found = 0
        for v in range(n):
            bit = 1 << v
            if mask & bit and (mask == bit or nbr_bits[v] & ends[mask ^ bit]):
                found |= bit
        ends[mask] = found
    return ends[-1] != 0


def oracle_subgraph(pattern: Graph, host: Graph) -> bool:
    """Try every injective node map from pattern into host."""
    _guard(host, NODE_LIMIT)
    if pattern.num_nodes > PATTERN_LIMIT:
        raise OracleLimitError(
            f"oracle limit is {PATTERN_LIMIT} pattern nodes, got {pattern.num_nodes}")
    if pattern.num_nodes > host.num_nodes:
        return False
    host_adj = _adjacent(host) if not host.directed else {
        (u, v) for u, v in host.edge_pairs}
    p_pairs = list(pattern.edge_pairs)
    for image in permutations(range(host.num_nodes), pattern.num_nodes):
        if all((image[a], image[b]) in host_adj for a, b in p_pairs):
            return True
    return False


def oracle_kmeans_medoids(points: list[list[float]], k: int,
                          seed: int) -> list[int]:
    """Dense k-means++ then Lloyd, with every centroid an explicit vector.

    The draws follow the selector's protocol (random.Random(seed): the
    first centre is int(r * n), each next one is d2-weighted), found here
    by a linear scan. Returns one medoid per non-empty cluster, the member
    nearest its centroid. Distances within TIE of each other count as equal
    and go to the lower index: the two members of a pair are exactly as far
    from their mean, which dense rounding would otherwise split at random.
    """
    def d2(p, c):
        return math.fsum((x - y) ** 2 for x, y in zip(p, c))

    def nearest(options, dist):
        d = {o: dist(o) for o in options}
        best = min(d.values())
        return min(o for o in options if d[o] <= best + TIE)

    n = len(points)
    rng = random.Random(seed)
    centers = [list(points[int(rng.random() * n)])]
    for _ in range(1, k):
        weights = [min(d2(p, c) for c in centers) for p in points]
        total = math.fsum(weights)
        if total <= 0:
            centers.append(list(points[int(rng.random() * n)]))
            continue
        target, acc = rng.random() * total, 0.0
        for i, w in enumerate(weights):
            acc += w
            if acc > target:
                break
        centers.append(list(points[i]))
    assign = None
    for _ in range(50):
        new = [nearest(range(k), lambda j: d2(p, centers[j])) for p in points]
        if new == assign:
            break
        assign = new
        for j in range(k):
            members = [p for p, a in zip(points, assign) if a == j]
            if members:
                centers[j] = [math.fsum(col) / len(members)
                              for col in zip(*members)]
    medoids = []
    for j in range(k):
        idx = [i for i in range(n) if assign[i] == j]
        if idx:
            medoids.append(nearest(idx, lambda i: d2(points[i], centers[j])))
    return medoids


def oracle_solve(task: str, g: Graph, query: dict | None = None):
    """Dispatch to the matching oracle; the return type follows the task.

    yes/no tasks give bool, numeric tasks give int or None (no answer),
    topology gives the full set of valid orders.
    """
    query = query or {}
    if task == "cycle":
        return oracle_cycle(g)
    if task == "connect":
        return oracle_connect(g, query["u"], query["v"])
    if task == "bipartite":
        return oracle_bipartite(g)
    if task == "topology":
        return oracle_topo_orders(g)
    if task == "shortest":
        return oracle_shortest(g, query["u"], query["v"])
    if task == "triangle":
        return oracle_triangle(g)
    if task == "flow":
        return oracle_flow(g, query["s"], query["t"])
    if task == "hamilton":
        return oracle_hamilton(g)
    if task == "subgraph":
        return oracle_subgraph(query["pattern"], g)
    raise InvalidSpecError(f"unknown task: {task}")


SOLVE = {
    "cycle": lambda g, q: has_cycle(g),
    "connect": lambda g, q: is_connected(g, q["u"], q["v"]),
    "bipartite": lambda g, q: is_bipartite(g),
    "topology": lambda g, q: topo_sort(g),
    "shortest": lambda g, q: shortest_path(g, q["u"], q["v"]),
    "triangle": lambda g, q: max_triangle_sum(g),
    "flow": lambda g, q: max_flow(g, q["s"], q["t"]),
    "hamilton": lambda g, q: hamilton_path(g),
    "subgraph": lambda g, q: find_subgraph(g, q["pattern"]),
}


def solve(task: str, g: Graph, query: dict | None = None) -> Answer | None:
    """Dispatch to the task's exact solver; query fields depend on the task."""
    get_task(task)
    return SOLVE[task](g, query or {})
