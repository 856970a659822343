"""Exact solvers for the nine graph tasks.

Every solver returns an Answer whose witness, when present, passes the
grader's independent validity check. hamilton_path may return None (unknown)
when its search budget runs out; callers regenerate such instances.
Connectivity, the bipartite colouring and max flow's augmenting paths all
use `graphs.bfs`, and every path witness is read off a tree by
`graphs.path_to`. max_flow is Edmonds-Karp, and its min-cut witness is the
node set that its last, failing search reaches from the source.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .config import HAMILTON_BUDGET, HAMILTON_DP_LIMIT
from .errors import GraphKindError, InvalidQueryError
from .graphs import Graph, bfs, path_to
from .tasks import require_kind


@dataclass
class Answer:
    kind: str                # yes_no | numeric | sequence | none_exists
    value: object = None     # bool | int | list[int] | None
    witness: object = None


def _check_node(g: Graph, node: int, label: str) -> None:
    if not (0 <= node < g.num_nodes):
        raise InvalidQueryError(f"{label}={node} outside [0,{g.num_nodes - 1}]")


def has_cycle(g: Graph) -> Answer:
    """Cycle = closed walk over >= 3 distinct nodes. Witness: the node list."""
    require_kind(g, "cycle")
    adj = g.adjacency
    color = [0] * g.num_nodes          # 0 unseen, 1 on stack, 2 done
    parent = [-1] * g.num_nodes
    for root in range(g.num_nodes):
        if color[root]:
            continue
        stack = [(root, -1, iter(adj[root]))]
        color[root] = 1
        while stack:
            node, par, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt == par:
                    continue
                if color[nxt] == 1:
                    cycle = [node]
                    walk = node
                    while walk != nxt:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return Answer("yes_no", True, witness=cycle)
                if color[nxt] == 0:
                    color[nxt] = 1
                    parent[nxt] = node
                    stack.append((nxt, node, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return Answer("yes_no", False)


def is_connected(g: Graph, u: int, v: int) -> Answer:
    """Path existence between u and v. Witness: one path as a node list."""
    require_kind(g, "connect")
    _check_node(g, u, "u")
    _check_node(g, v, "v")
    tree = bfs(g.adjacency, u, stop=v)
    if v not in tree:
        return Answer("yes_no", False)
    return Answer("yes_no", True, witness=path_to(tree, v))


def is_bipartite(g: Graph) -> Answer:
    """2-colorability ignoring edge direction.

    Witness: (side0, side1) sorted node lists when yes, an odd cycle when no.
    """
    # direction is irrelevant to 2-colorability
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in g.edge_pairs:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.num_nodes
    for root in range(g.num_nodes):
        if color[root] != -1:
            continue
        tree = bfs(adj, root)
        for node, par in tree.items():      # visit order: parents first
            color[node] = color[par] ^ 1 if node != root else 0
        # The first edge in visit order inside one colour is the one a
        # one-pass colouring meets first. It joins two nodes of one BFS
        # level, whose tree paths part after their last common node a[k-1].
        for node in tree:
            side = color[node]
            for nxt in adj[node]:
                if color[nxt] == side and nxt != node:
                    a, b = path_to(tree, node), path_to(tree, nxt)
                    k = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
                    cycle = a[:k - 1:-1] + b[k - 1:]    # node .. a[k-1] .. nxt
                    return Answer("yes_no", False, witness=cycle)
    side0 = sorted(i for i in range(g.num_nodes) if color[i] == 0)
    side1 = sorted(i for i in range(g.num_nodes) if color[i] == 1)
    return Answer("yes_no", True, witness=(side0, side1))


def topo_sort(g: Graph) -> Answer:
    """Lexicographically smallest topological order; none_exists on a cycle."""
    require_kind(g, "topology")
    indeg = [0] * g.num_nodes
    adj = g.adjacency
    for _, v in g.edge_pairs:
        indeg[v] += 1
    ready = [i for i in range(g.num_nodes) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for nxt in adj[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) < g.num_nodes:
        return Answer("none_exists")
    return Answer("sequence", order)


def shortest_path(g: Graph, u: int, v: int) -> Answer:
    """Dijkstra over positive integer weights. Witness: one optimal path."""
    require_kind(g, "shortest")
    _check_node(g, u, "u")
    _check_node(g, v, "v")
    if u == v:
        return Answer("numeric", 0, witness=[u])
    weights = g.weight_map
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
    for (a, b), w in sorted(weights.items()):
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = {u: 0}
    parent = {u: u}
    done: set[int] = set()
    heap = [(0, u)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == v:
            return Answer("numeric", d, witness=path_to(parent, v))
        for nxt, w in adj[node]:
            nd = d + w
            if nxt not in dist or nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = node
                heapq.heappush(heap, (nd, nxt))
    return Answer("none_exists")


def max_triangle_sum(g: Graph) -> Answer:
    """Maximum node-weight sum over triangles. Witness: the best triple."""
    require_kind(g, "triangle")
    nw = g.node_weights
    neighbor_sets = [set(a) for a in g.adjacency]
    best_sum = -1
    best_triple: tuple[int, int, int] | None = None
    for a, b in sorted(g.edge_key_set):
        for c in sorted(neighbor_sets[a] & neighbor_sets[b]):
            total = nw[a] + nw[b] + nw[c]
            triple = tuple(sorted((a, b, c)))
            if total > best_sum or (total == best_sum and triple < best_triple):
                best_sum = total
                best_triple = triple
    if best_triple is None:
        return Answer("none_exists")
    return Answer("numeric", best_sum, witness=list(best_triple))


def max_flow(g: Graph, s: int, t: int) -> Answer:
    """Edmonds-Karp on integer capacities: push each breadth-first
    shortest path's bottleneck until the sink is out of reach.

    Witness: the sorted nodes that the last, failing search reached. They
    are the source side of a minimum cut (its capacity equals the flow
    value), and the smallest one, so every maximum flow gives the same set.
    """
    require_kind(g, "flow")
    _check_node(g, s, "s")
    _check_node(g, t, "t")
    if s == t:
        raise InvalidQueryError("flow query needs distinct source and sink")
    residual = dict(g.weight_map)
    nbrs: list[set[int]] = [set() for _ in range(g.num_nodes)]
    for a, b in g.weight_map:
        residual.setdefault((b, a), 0)
        nbrs[a].add(b)
        nbrs[b].add(a)
    total = 0
    while True:
        tree = bfs(nbrs, s, residual, stop=t)
        if t not in tree:
            return Answer("numeric", total, witness=sorted(tree))
        path = path_to(tree, t)
        steps = list(zip(path, path[1:]))
        pushed = min(residual[step] for step in steps)
        for a, b in steps:
            residual[a, b] -= pushed
            residual[b, a] += pushed
        total += pushed


def _hamilton_dp(g: Graph) -> Answer:
    n = g.num_nodes
    if n == 1:
        return Answer("yes_no", True, witness=[0])
    adj_bits = [sum(1 << b for b in a) for a in g.adjacency]
    full = (1 << n) - 1
    ends = [0] * (1 << n)    # ends[mask] = bitmask of feasible path endpoints
    for v in range(n):
        ends[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        em = ends[mask]
        if not em:
            continue
        for last in range(n):
            if not (em >> last) & 1:
                continue
            nxts = adj_bits[last] & ~mask
            while nxts:
                low = nxts & -nxts
                ends[mask | low] |= low
                nxts ^= low
    if not ends[full]:
        return Answer("yes_no", False)
    # Walk the DP backwards to recover one path.
    mask = full
    last = (ends[full] & -ends[full]).bit_length() - 1
    path = [last]
    while mask != (1 << last):
        prev_mask = mask ^ (1 << last)
        prevs = ends[prev_mask] & adj_bits[last]
        prev = (prevs & -prevs).bit_length() - 1
        mask = prev_mask
        last = prev
        path.append(last)
    path.reverse()
    return Answer("yes_no", True, witness=path)


def _hamilton_backtrack(g: Graph, budget: int) -> Answer | None:
    n = g.num_nodes
    adj = g.adjacency
    degree = [len(a) for a in adj]
    if n >= 2 and sum(1 for d in degree if d <= 1) > 2:
        return Answer("yes_no", False)
    # Low-degree nodes can only be path endpoints, so start there, and try
    # low-degree neighbours first.
    order_key = lambda v: (degree[v], v)
    starts = sorted(range(n), key=order_key)
    nbrs = [sorted(a, key=order_key) for a in adj]
    expansions = 0
    for start in starts:
        visited = [False] * n
        visited[start] = True
        path = [start]
        iters = [iter(nbrs[start])]
        while iters:
            expansions += 1
            if expansions > budget:
                return None
            moved = False
            for nxt in iters[-1]:
                if not visited[nxt]:
                    visited[nxt] = True
                    path.append(nxt)
                    if len(path) == n:
                        return Answer("yes_no", True, witness=list(path))
                    iters.append(iter(nbrs[nxt]))
                    moved = True
                    break
            if not moved:
                iters.pop()
                visited[path.pop()] = False
    return Answer("yes_no", False)


def hamilton_path(g: Graph) -> Answer | None:
    """Hamiltonian path existence; None means the search budget ran out.

    Exact DP up to HAMILTON_DP_LIMIT nodes, degree-pruned backtracking of at
    most HAMILTON_BUDGET expansions beyond. A yes answer carries the path.
    """
    require_kind(g, "hamilton")
    n = g.num_nodes
    if n >= 2 and len(bfs(g.adjacency, 0)) < n:
        return Answer("yes_no", False)
    if n <= HAMILTON_DP_LIMIT:
        return _hamilton_dp(g)
    return _hamilton_backtrack(g, HAMILTON_BUDGET)


def find_subgraph(g: Graph, pattern: Graph) -> Answer:
    """Non-induced monomorphism: injective node map preserving pattern edges.

    Extra host edges are allowed. Witness: {pattern node: host node}.
    """
    require_kind(g, "subgraph")
    if not pattern.directed:
        raise GraphKindError("subgraph pattern must be directed")
    if pattern.num_nodes > g.num_nodes:
        raise InvalidQueryError(
            f"pattern has {pattern.num_nodes} nodes but host has {g.num_nodes}"
        )
    k = pattern.num_nodes
    p_out: list[set[int]] = [set() for _ in range(k)]
    p_in: list[set[int]] = [set() for _ in range(k)]
    for a, b in pattern.edge_pairs:
        p_out[a].add(b)
        p_in[b].add(a)
    host_edges = g.edge_key_set
    h_out = [0] * g.num_nodes
    h_in = [0] * g.num_nodes
    for a, b in host_edges:
        h_out[a] += 1
        h_in[b] += 1

    # Most-constrained-first: order pattern nodes by connectivity to the
    # already-ordered prefix, then by total degree.
    remaining = set(range(k))
    order: list[int] = []
    while remaining:
        def score(v: int) -> tuple[int, int, int]:
            placed = set(order)
            linked = len((p_out[v] | p_in[v]) & placed)
            return (linked, len(p_out[v]) + len(p_in[v]), -v)
        pick = max(remaining, key=score)
        order.append(pick)
        remaining.discard(pick)

    assign: dict[int, int] = {}
    used = [False] * g.num_nodes

    def backtrack(depth: int) -> bool:
        if depth == k:
            return True
        pv = order[depth]
        for hv in range(g.num_nodes):
            if used[hv]:
                continue
            if h_out[hv] < len(p_out[pv]) or h_in[hv] < len(p_in[pv]):
                continue
            ok = True
            for pn in p_out[pv]:
                if pn in assign and (hv, assign[pn]) not in host_edges:
                    ok = False
                    break
            if ok:
                for pn in p_in[pv]:
                    if pn in assign and (assign[pn], hv) not in host_edges:
                        ok = False
                        break
            if ok:
                assign[pv] = hv
                used[hv] = True
                if backtrack(depth + 1):
                    return True
                used[hv] = False
                del assign[pv]
        return False

    if backtrack(0):
        return Answer("yes_no", True, witness=dict(sorted(assign.items())))
    return Answer("yes_no", False)

