"""Balanced problem generation.

Every attempt derives its RNG from sha256(seed:split:task:slot:attempt), so
corpora are reproducible and each retry is an independent draw. Yes/no tasks
alternate the wanted label across slots. A task's builder only draws: it
yields the sampled candidate, then a forced one made by a constructive
transform (plant a cycle, carve the graph apart, embed the pattern, ...) and
re-solved. The driver alone judges: it rejects a missing candidate, an
unknown answer (Hamilton's budget ran out) or the wrong label, and asks for
the forced candidate only on an attempt at or past REJECTION_ATTEMPTS whose
draw missed. Rendered problems over TOKEN_BUDGET and graphs already in the
corpus are rejected too, for at most MAX_ATTEMPTS draws per slot (`config`).
"""

from __future__ import annotations

import hashlib
import random
from itertools import islice

from .config import MAX_ATTEMPTS, REJECTION_ATTEMPTS, TOKEN_BUDGET
from .errors import InvalidSpecError, StageError
from .grader import is_hamilton_path
from .graphs import (Graph, assign_edge_weights, assign_node_weights, bfs,
                     canonical_key, connected_components, generate_dag,
                     generate_er, union_find)
from .solvers import (find_subgraph, hamilton_path, has_cycle, is_bipartite,
                      is_connected, max_flow, max_triangle_sum, shortest_path,
                      topo_sort)
from .tasks import NUM_TIERS, Tier, build_tiers, get_task
from .textgen import Answer, Problem, estimate_tokens, render_problem

WEIGHT_LO, WEIGHT_HI = 1, 10
PATTERN_MIN, PATTERN_MAX = 3, 6
PATTERN_DENSITY = 0.4


def _sub(rng: random.Random) -> int:
    return rng.getrandbits(63)


# ---------------------------------------------------------------------------
# Constructive transforms. Each returns a new Graph; callers re-solve.
# ---------------------------------------------------------------------------

def _spanning_forest(g: Graph, rng: random.Random) -> Graph:
    """Drop every edge that closes a cycle, scanning in a seeded order."""
    edges = list(g.edge_pairs)
    rng.shuffle(edges)
    keep = union_find(g.num_nodes, edges)[0]
    return Graph(g.num_nodes, g.directed,
                 sorted(g.key(u, v) for u, v in keep), g.node_weights)


def _join(g: Graph, pairs) -> Graph:
    """Unweighted g plus each edge of pairs that it lacks."""
    return Graph(g.num_nodes, g.directed, sorted(
        {*g.weight_map, *(g.key(u, v) for u, v in pairs)}), g.node_weights)


def _split(g: Graph, rng: random.Random,
           crossing: bool) -> tuple[Graph, list[int], list[int]]:
    """Split the nodes in two at a seeded cut and keep only the edges that
    cross it (crossing) or only those that do not; also the two sides."""
    order = list(range(g.num_nodes))
    rng.shuffle(order)
    cut = rng.randint(1, g.num_nodes - 1)
    side = set(order[:cut])
    edges = [e for e in g.edges if ((e[0] in side) != (e[1] in side)) == crossing]
    return (Graph(g.num_nodes, g.directed, sorted(edges), g.node_weights),
            sorted(order[:cut]), sorted(order[cut:]))


def _close_triangle(g: Graph, rng: random.Random) -> Graph:
    """Close a seeded triangle a->b->c->a, skipping pairs already joined
    either way (undirected: g plus the triangle's three edges)."""
    a, b, c = rng.sample(range(g.num_nodes), 3)
    return _join(g, [(u, v) for u, v in ((a, b), (b, c), (c, a))
                     if not g.has_edge(v, u)])


def _plant_path(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    perm = list(range(g.num_nodes))
    rng.shuffle(perm)
    return _join(g, zip(perm, perm[1:])), perm


def _embed_pattern(host: Graph, pattern: Graph, rng: random.Random) -> Graph:
    image = rng.sample(range(host.num_nodes), pattern.num_nodes)
    return _join(host, [(image[a], image[b]) for a, b in pattern.edge_pairs])


# ---------------------------------------------------------------------------
# Per-task builders: each yields the drawn candidate (graph, query, answer)
# or None, then, if it has one, the candidate its transform forces.
# ---------------------------------------------------------------------------

def _draw_n(tier: Tier, rng: random.Random, floor: int = 1) -> int:
    return max(rng.randint(tier.lo, tier.hi), floor)


def _query_pair(comps: list[list[int]], rng: random.Random,
                joined: bool) -> list[int] | None:
    """Seeded nodes u, v of one component (joined) or of two different
    ones; None when the components hold no such pair."""
    if joined:
        big = [c for c in comps if len(c) >= 2]
        return rng.sample(rng.choice(big), 2) if big else None
    if len(comps) < 2:
        return None
    ca, cb = rng.sample(comps, 2)
    return [rng.choice(ca), rng.choice(cb)]


def _gen_cycle(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 3 if desired else 1)
    g = generate_er(n, tier.p, seed=_sub(rng))
    yield g, {}, has_cycle(g)
    g = _close_triangle(g, rng) if desired else _spanning_forest(g, rng)
    yield g, {}, has_cycle(g)


def _gen_connect(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    pair = _query_pair(connected_components(g), rng, desired)
    if pair is None:
        yield None
        if desired:
            pair = rng.sample(range(n), 2)
            g = _join(g, [pair])
        else:
            g, side, rest = _split(g, rng, False)
            pair = rng.choice(side), rng.choice(rest)
    u, v = pair
    yield g, {"u": u, "v": v}, is_connected(g, u, v)


def _gen_bipartite(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 1 if desired else 3)
    g = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    yield g, {}, is_bipartite(g)
    g = _split(g, rng, True)[0] if desired else _close_triangle(g, rng)
    yield g, {}, is_bipartite(g)


def _gen_topology(tier, desired, rng, transform):
    n = _draw_n(tier, rng)
    g = generate_dag(n, tier.p, seed=_sub(rng))
    yield g, {}, topo_sort(g)


def _gen_shortest(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    pair = _query_pair(connected_components(g), rng, True)
    if pair is None:     # no edge at all: join a seeded pair
        pair = rng.sample(range(n), 2)
        g = _join(g, [pair])
    u, v = pair
    g = assign_edge_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    yield g, {"u": u, "v": v}, shortest_path(g, u, v)


def _gen_triangle(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 3)
    g = generate_er(n, tier.p, seed=_sub(rng))
    g = assign_node_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    ans = max_triangle_sum(g)
    if ans.kind == "none_exists":
        g = _close_triangle(g, rng)
        ans = max_triangle_sum(g)
    yield g, {}, ans


def _gen_flow(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    order = list(range(n))
    rng.shuffle(order)
    for s in order:
        reach = sorted(bfs(g.adjacency, s).keys() - {s})
        if reach:
            t = rng.choice(reach)
            break
    else:                # no edge at all: join a seeded pair
        s, t = rng.sample(range(n), 2)
        g = _join(g, [(s, t)])
    g = assign_edge_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    yield g, {"s": s, "t": t}, max_flow(g, s, t)


def _gen_hamilton(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    # a transform attempt forces its label without solving the draw
    yield None if transform else (g, {}, hamilton_path(g))
    if desired:
        g, perm = _plant_path(g, rng)
        yield g, {}, Answer("yes_no", is_hamilton_path(g, perm), witness=perm)
    else:
        g = _split(g, rng, False)[0]
        yield g, {}, hamilton_path(g)


def _gen_subgraph(tier, desired, rng, transform):
    n = _draw_n(tier, rng, PATTERN_MIN)
    host = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    k = rng.randint(PATTERN_MIN, min(PATTERN_MAX, n))
    pattern = generate_er(k, PATTERN_DENSITY, directed=True, seed=_sub(rng))
    if not pattern.edges:
        a, b = rng.sample(range(k), 2)
        pattern = Graph(k, True, [(a, b)])
    ans = find_subgraph(host, pattern)
    yield host, {"pattern": pattern}, ans
    if desired:
        host = _embed_pattern(host, pattern, rng)
        ans = find_subgraph(host, pattern)
    # else make the pattern stricter until the host no longer contains it
    while not desired and ans.value and len(pattern.edges) < k * (k - 1):
        absent = [(a, b) for a in range(k) for b in range(k)
                  if a != b and (a, b) not in pattern.weight_map]
        pattern = _join(pattern, [rng.choice(absent)])
        ans = find_subgraph(host, pattern)
    yield host, {"pattern": pattern}, ans


_BUILDERS = {
    "cycle": _gen_cycle, "connect": _gen_connect, "bipartite": _gen_bipartite,
    "topology": _gen_topology, "shortest": _gen_shortest,
    "triangle": _gen_triangle, "flow": _gen_flow, "hamilton": _gen_hamilton,
    "subgraph": _gen_subgraph,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def attempt_seed(seed: int, split: str, task: str, slot: int, attempt: int) -> int:
    material = f"{seed}:{split}:{task}:{slot}:{attempt}"
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def generate_task(task: str, count: int, *, seed: int, split: str,
                  seen: set[str]) -> list[Problem]:
    """Generate count problems for one task, labels balanced, graphs unique:
    a graph whose key is in seen is redrawn, and kept keys join seen."""
    info = get_task(task)
    if count < 0:
        raise InvalidSpecError("count must not be negative")
    tiers = build_tiers(info)
    build = _BUILDERS[task]
    problems = []
    for slot in range(count):
        tier = tiers[slot % NUM_TIERS]
        desired = (slot % 2 == 0) if info.answer_kind == "yes_no" else None
        built = None
        for attempt in range(MAX_ATTEMPTS):
            aseed = attempt_seed(seed, split, task, slot, attempt)
            transform = attempt >= REJECTION_ATTEMPTS
            cands = build(tier, desired, random.Random(aseed), transform)
            # the draw, then on a transform attempt the forced candidate
            for cand in islice(cands, 2 if transform else 1):
                if cand is not None and cand[2] is not None and (
                        desired is None or cand[2].value == desired):
                    break
            else:
                continue
            graph, query, answer = cand
            text = render_problem(task, graph, query)
            if estimate_tokens(text) > TOKEN_BUDGET:
                continue
            key = canonical_key(graph)
            if key in seen:
                continue
            seen.add(key)
            built = Problem(
                id=f"{task}-{split}-{slot}", task=task,
                graph=type(graph)(*graph),    # no views the solvers cached
                query=query, answer=answer,
                tier={"n": graph.num_nodes, "p": tier.p,
                      "difficulty": info.difficulty},
                seed=aseed, text=text)
            break
        if built is None:
            raise StageError(
                f"{task} slot {slot}: no valid problem in {MAX_ATTEMPTS} attempts")
        problems.append(built)
    return problems


def generate_corpus(tasks: list[str], count: int, *, seed: int, split: str,
                    dedupe_keys: set[str]) -> list[Problem]:
    """Generate count problems for each task; one shared dedupe key set.
    A task named twice is rejected: it would write each id twice."""
    names = list(tasks)
    for i, name in enumerate(names):
        get_task(name)
        if name in names[:i]:
            raise InvalidSpecError(f"task {name} is named twice")
    return [p for name in names for p in generate_task(
        name, count, seed=seed, split=split, seen=dedupe_keys)]
