"""Balanced problem generation.

Every attempt derives its RNG from sha256(seed:split:task:slot:attempt), so
corpora are reproducible and each retry is an independent draw. Yes/no tasks
alternate the wanted label across slots; an attempt is rejected when the
sampled graph disagrees. After REJECTION_ATTEMPTS misses the generator
switches to constructive transforms (plant a cycle, carve the graph apart,
embed the pattern, ...) that force the label, then re-solves to confirm.
Rendered problems over TOKEN_BUDGET and graphs already in the corpus are
rejected the same way, for at most MAX_ATTEMPTS draws per slot (`config`).
"""

from __future__ import annotations

import hashlib
import random

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


def _add_triangle(g: Graph, rng: random.Random) -> Graph:
    a, b, c = rng.sample(range(g.num_nodes), 3)
    return _join(g, ((a, b), (a, c), (b, c)))


def _random_side(n: int, rng: random.Random) -> set[int]:
    """A seeded set of between 1 and n - 1 of the nodes."""
    order = list(range(n))
    rng.shuffle(order)
    return set(order[:rng.randint(1, n - 1)])


def _carve_split(g: Graph, rng: random.Random) -> tuple[Graph, list[int], list[int]]:
    """Split the nodes in two and drop every crossing edge."""
    side = _random_side(g.num_nodes, rng)
    edges = [e for e in g.edges if (e[0] in side) == (e[1] in side)]
    return (Graph(g.num_nodes, g.directed, sorted(edges), g.node_weights),
            sorted(side), sorted(set(range(g.num_nodes)) - side))


def _plant_partition(g: Graph, rng: random.Random) -> Graph:
    """Keep only the edges that cross a seeded two-way node split."""
    side = _random_side(g.num_nodes, rng)
    edges = [e for e in g.edges if (e[0] in side) != (e[1] in side)]
    return Graph(g.num_nodes, g.directed, sorted(edges), g.node_weights)


def _inject_odd_triangle(g: Graph, rng: random.Random) -> Graph:
    """Close a directed triangle, skipping pairs already joined either way."""
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
# Per-task attempt builders
# ---------------------------------------------------------------------------

def _draw_n(tier: Tier, rng: random.Random, floor: int = 1) -> int:
    return max(rng.randint(tier.lo, tier.hi), floor)


def _gen_cycle(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 3 if desired else 1)
    g = generate_er(n, tier.p, seed=_sub(rng))
    ans = has_cycle(g)
    if ans.value == desired:
        return g, {}, ans
    if not transform:
        return None
    g = _add_triangle(g, rng) if desired else _spanning_forest(g, rng)
    ans = has_cycle(g)
    return (g, {}, ans) if ans.value == desired else None


def _gen_connect(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    comps = connected_components(g)
    if desired:
        big = [c for c in comps if len(c) >= 2]
        if big:
            comp = big[rng.randrange(len(big))]
            u, v = rng.sample(comp, 2)
            return g, {"u": u, "v": v}, is_connected(g, u, v)
        if not transform:
            return None
        u, v = rng.sample(range(n), 2)
        g = _join(g, [(u, v)])
        return g, {"u": u, "v": v}, is_connected(g, u, v)
    if len(comps) >= 2:
        ca, cb = rng.sample(range(len(comps)), 2)
        u = comps[ca][rng.randrange(len(comps[ca]))]
        v = comps[cb][rng.randrange(len(comps[cb]))]
        return g, {"u": u, "v": v}, is_connected(g, u, v)
    if not transform:
        return None
    g, side_a, side_b = _carve_split(g, rng)
    u = side_a[rng.randrange(len(side_a))]
    v = side_b[rng.randrange(len(side_b))]
    ans = is_connected(g, u, v)
    return (g, {"u": u, "v": v}, ans) if not ans.value else None


def _gen_bipartite(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 1 if desired else 3)
    g = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    ans = is_bipartite(g)
    if ans.value == desired:
        return g, {}, ans
    if not transform:
        return None
    g = _plant_partition(g, rng) if desired else _inject_odd_triangle(g, rng)
    ans = is_bipartite(g)
    return (g, {}, ans) if ans.value == desired else None


def _gen_topology(tier, desired, rng, transform):
    n = _draw_n(tier, rng)
    g = generate_dag(n, tier.p, seed=_sub(rng))
    return g, {}, topo_sort(g)


def _gen_shortest(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    big = [c for c in connected_components(g) if len(c) >= 2]
    if big:
        comp = big[rng.randrange(len(big))]
        u, v = rng.sample(comp, 2)
    else:
        u, v = rng.sample(range(n), 2)
        g = Graph(n, False, [g.key(u, v)])
    g = assign_edge_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    return g, {"u": u, "v": v}, shortest_path(g, u, v)


def _gen_triangle(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 3)
    g = generate_er(n, tier.p, seed=_sub(rng))
    g = assign_node_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    ans = max_triangle_sum(g)
    if ans.kind == "none_exists":
        g = _add_triangle(g, rng)
        ans = max_triangle_sum(g)
    return g, {}, ans


def _gen_flow(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    order = list(range(n))
    rng.shuffle(order)
    s = t = None
    for cand in order:
        reach = sorted(bfs(g.adjacency, cand).keys() - {cand})
        if reach:
            s = cand
            t = reach[rng.randrange(len(reach))]
            break
    if s is None:
        s, t = rng.sample(range(n), 2)
        g = _join(g, [(s, t)])
    g = assign_edge_weights(g, WEIGHT_LO, WEIGHT_HI, seed=_sub(rng))
    return g, {"s": s, "t": t}, max_flow(g, s, t)


def _gen_hamilton(tier, desired, rng, transform):
    n = _draw_n(tier, rng, 2)
    g = generate_er(n, tier.p, seed=_sub(rng))
    if not transform:
        ans = hamilton_path(g)
        if ans is not None and ans.value == desired:
            return g, {}, ans
        return None
    if desired:
        g, perm = _plant_path(g, rng)
        if not is_hamilton_path(g, perm):
            return None
        return g, {}, Answer("yes_no", True, witness=perm)
    g = _carve_split(g, rng)[0]
    ans = hamilton_path(g)
    if ans is not None and ans.value is False:
        return g, {}, ans
    return None


def _gen_subgraph(tier, desired, rng, transform):
    n = _draw_n(tier, rng, PATTERN_MIN)
    host = generate_er(n, tier.p, directed=True, seed=_sub(rng))
    k = rng.randint(PATTERN_MIN, min(PATTERN_MAX, n))
    pattern = generate_er(k, PATTERN_DENSITY, directed=True, seed=_sub(rng))
    if not pattern.edges:
        a, b = rng.sample(range(k), 2)
        pattern = Graph(k, True, [(a, b)])
    ans = find_subgraph(host, pattern)
    if ans.value == desired:
        return host, {"pattern": pattern}, ans
    if not transform:
        return None
    if desired:
        host = _embed_pattern(host, pattern, rng)
        ans = find_subgraph(host, pattern)
        return (host, {"pattern": pattern}, ans) if ans.value else None
    # make the pattern stricter until the host no longer contains it
    for _ in range(k * (k - 1)):
        present = pattern.weight_map
        absent = [(a, b) for a in range(k) for b in range(k)
                  if a != b and (a, b) not in present]
        if not absent:
            return None
        extra = absent[rng.randrange(len(absent))]
        pattern = _join(pattern, [extra])
        ans = find_subgraph(host, pattern)
        if not ans.value:
            return host, {"pattern": pattern}, ans
    return None


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
            rng = random.Random(aseed)
            transform = attempt >= REJECTION_ATTEMPTS
            cand = build(tier, desired, rng, transform)
            if cand is None:
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
                id=f"{task}-{split}-{slot}", task=task, graph=graph,
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
    out: list[Problem] = []
    for name in names:
        out.extend(generate_task(name, count, seed=seed, split=split,
                                 seen=dedupe_keys))
    return out
