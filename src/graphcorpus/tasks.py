"""Registry of the nine graph tasks: generation envelopes, answer kinds,
and the edge tuple style, graph preamble and question sentence their
problems render with; `require_kind` checks that a graph is of a task's
kind, and `require_pattern` that a subgraph pattern fits its host."""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import GraphKindError, InvalidQueryError, InvalidSpecError

if TYPE_CHECKING:
    from .graphs import Graph


class TaskInfo(NamedTuple):
    name: str
    difficulty: str          # easy | medium | hard
    directed: bool
    node_weighted: bool
    node_range: tuple[int, int]
    answer_kind: str         # yes_no | numeric | sequence
    witness: object          # the witness's type, in memory and on disk
    edge_style: str          # str.format of an edge: {0}, {1} ends, {2} weight
    question: str            # closing sentence; {u} {v} {s} {t} are query nodes
    # the graph sentence before the question: {last} node id, {edges} clause,
    # {weights} node weights, {pattern_last} {pattern_edges} of a pattern
    preamble: str = "The nodes are numbered from 0 to {last}, and {edges}."


_TASKS = [
    TaskInfo("cycle", "easy", False, False, (2, 100), "yes_no", list[int] | None,
             "({0},{1})", "Is there a cycle in this graph?"),
    TaskInfo("connect", "easy", False, False, (2, 100), "yes_no", list[int] | None,
             "({0},{1})", "Is there a path between node {u} and node {v}?"),
    TaskInfo("bipartite", "easy", True, False, (2, 100), "yes_no",
             list[list[int]] | list[int], "({0}->{1})",
             "Is this graph bipartite?"),
    TaskInfo("topology", "easy", True, False, (2, 50), "sequence", None,
             "({0}->{1})", "Give one topology sorting path of this graph."),
    TaskInfo("shortest", "medium", False, False, (2, 100), "numeric", list[int],
             "({0},{1},{2})",
             "Give the weight of the shortest path from node {u} to node {v}.",
             "In an undirected graph, the nodes are numbered from 0 to {last}, "
             "and {edges}."),
    TaskInfo("triangle", "medium", False, True, (2, 25), "numeric", list[int],
             "({0}, {1})",
             "What is the maximum sum of the weights of three interconnected nodes?",
             "The nodes are numbered from 0 to {last}, weights of nodes are: "
             "{weights}, and {edges}."),
    TaskInfo("flow", "medium", True, False, (2, 50), "numeric", list[int],
             "({0}->{1},{2})", "What is the maximum flow from node {s} to node {t}?"),
    TaskInfo("hamilton", "hard", False, False, (2, 50), "yes_no", list[int] | None,
             "({0},{1})", "Is there a Hamiltonian path in this graph?"),
    TaskInfo("subgraph", "hard", True, False, (2, 30), "yes_no",
             list[list[int]] | None, "({0}->{1})",
             "Is subgraph G' present within graph G as a direct substructure?",
             "The nodes of graph G are numbered from 0 to {last}, and {edges}. "
             "The nodes of subgraph G' are numbered from a to {pattern_last}, "
             "and {pattern_edges}."),
]

TASKS: dict[str, TaskInfo] = {t.name: t for t in _TASKS}
TASK_ORDER: list[str] = [t.name for t in _TASKS]

DIFFICULTY_GROUPS: dict[str, list[str]] = {
    "easy": [t.name for t in _TASKS if t.difficulty == "easy"],
    "medium": [t.name for t in _TASKS if t.difficulty == "medium"],
    "hard": [t.name for t in _TASKS if t.difficulty == "hard"],
}

# Density cycles for the five tiers; directed ER at p has roughly twice the
# edges of undirected ER at p, so directed tasks use a halved cycle to keep
# large tiers inside the rendered-length budget.
DENSITIES: tuple[float, ...] = (0.15, 0.3, 0.5)
DENSITIES_DIRECTED: tuple[float, ...] = (0.075, 0.15, 0.25)

NUM_TIERS = 5


def get_task(name: str) -> TaskInfo:
    try:
        return TASKS[name]
    except KeyError:
        raise InvalidSpecError(f"unknown task {name!r}; expected one of {TASK_ORDER}") from None


def require_kind(g: Graph, name: str) -> TaskInfo:
    """The task's TaskInfo; a graph whose directedness or node weights do
    not match it is a GraphKindError."""
    info = get_task(name)
    if g.directed != info.directed:
        kind = "a directed" if info.directed else "an undirected"
        raise GraphKindError(f"{name} expects {kind} graph")
    if info.node_weighted and g.node_weights is None:
        raise GraphKindError(f"{name} expects node weights")
    return info


def require_pattern(g: Graph, pattern: Graph) -> None:
    """A subgraph pattern that is undirected is a GraphKindError, and one
    with more nodes than its host g an InvalidQueryError."""
    if not pattern.directed:
        raise GraphKindError("subgraph pattern must be directed")
    if pattern.num_nodes > g.num_nodes:
        raise InvalidQueryError(
            f"pattern has {pattern.num_nodes} nodes but host has {g.num_nodes}")


class Tier(NamedTuple):
    lo: int
    hi: int
    p: float


def build_tiers(task: TaskInfo) -> list[Tier]:
    """Five (node-band, density) combinations for a task.

    The node range splits into five contiguous bands; the task's density
    cycle (DENSITIES or DENSITIES_DIRECTED) runs across the bands in order.
    """
    densities = DENSITIES_DIRECTED if task.directed else DENSITIES
    lo, hi = task.node_range
    span = hi - lo + 1
    bounds = [lo + (i * span) // NUM_TIERS for i in range(NUM_TIERS + 1)]
    tiers = []
    for i in range(NUM_TIERS):
        band_lo, band_hi = bounds[i], bounds[i + 1] - 1
        tiers.append(Tier(band_lo, band_hi, densities[i % len(densities)]))
    return tiers
