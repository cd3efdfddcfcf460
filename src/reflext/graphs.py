"""Finite simple graphs, connectivity, subset moves, and connectivity-preserving deletion.

A move replaces a vertex r of a subset I by an outside neighbor t along the
edge {r, t}; move_sequence constructs an explicit chain of moves carrying one
subset to another inside a connected graph (move_chain without the checks),
and deletable_vertex picks a vertex whose removal keeps the graph connected
(eccentricity argument).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    HypothesisViolated,
    InternalError,
    NotConnected,
    SizeMismatch,
    SubsetTooSmall,
)


class Graph:
    """Undirected graph on explicit integer vertex labels; no loops, no multi-edges.

    A graph is its vertices and the neighbors of each vertex in increasing
    order; the edge set is derived from them.  Two graphs are equal when
    their vertices and edges are."""

    def __init__(self, vertices: Iterable[int], edges: Iterable[Sequence[int]] = ()):
        adj: dict[int, set[int]] = {v: set() for v in sorted(set(vertices))}
        for e in edges:
            a, b = e
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if a not in adj or b not in adj:
                raise ValueError(f"edge {e} uses unknown vertex")
            adj[a].add(b)
            adj[b].add(a)
        self.vertices: tuple[int, ...] = tuple(adj)
        self._adjacency: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in adj.items()
        }

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((a, b) for a, ns in self._adjacency.items() for b in ns if a < b)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph(vertices={self.vertices!r}, edges={self.edges!r})"

    @classmethod
    def on_range(cls, k: int, edges: Iterable[Sequence[int]] = ()) -> "Graph":
        return cls(range(1, k + 1), edges)

    @classmethod
    def _of(cls, adjacency: dict[int, tuple[int, ...]]) -> "Graph":
        """The graph with this adjacency, unchecked: the vertices in
        increasing order, each with its neighbors in increasing order and
        every edge listed at both ends."""
        graph = object.__new__(cls)
        graph.vertices = tuple(adjacency)
        graph._adjacency = adjacency
        return graph

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, v: int) -> set[int]:
        return set(self._adjacency[v])

    def adjacency(self) -> dict[int, frozenset[int]]:
        """Neighbor sets of every vertex."""
        return {v: frozenset(ns) for v, ns in self._adjacency.items()}


class MoveStep(NamedTuple):
    """One move: vertex `removed` leaves the subset, neighbor `added` enters, along `edge`."""

    removed: int
    added: int

    @property
    def edge(self) -> tuple[int, int]:
        return (min(self.removed, self.added), max(self.removed, self.added))


def induced(graph: Graph, subset: Iterable[int]) -> Graph:
    """Subgraph spanned by the subset, keeping original labels: the parent's
    adjacency restricted to it, whose edges the parent has checked."""
    sub = set(subset)
    if not sub <= graph._adjacency.keys():
        raise ValueError("subset contains unknown vertices")
    return Graph._of({v: tuple(w for w in graph._adjacency[v] if w in sub) for v in sorted(sub)})


def breadth_first(
    adjacency: Mapping[int, Sequence[int]], source: int, target: int | None = None
) -> dict[int, int]:
    """Predecessors of the vertices reached from source, in the order reached.

    The one search of the package.  `adjacency[v]` lists the
    (out-)neighbors of vertex v in increasing order, as Graph and
    theoremlab's moves digraph (a list indexed by vertex) keep them, so
    neighbors are visited in increasing order; directed relations are
    searched as well.  source is its own predecessor, and the
    search stops as soon as target is reached.
    """
    prev = {source: source}
    if source == target:
        return prev
    queue = [source]
    for v in queue:  # the loop reaches what it appends
        for w in adjacency[v]:
            if w not in prev:
                prev[w] = v
                if w == target:
                    return prev
                queue.append(w)
    return prev


def is_connected(graph: Graph) -> bool:
    """BFS verdict; empty and one-vertex graphs count as connected."""
    if graph.vertex_count <= 1:
        return True
    return len(breadth_first(graph._adjacency, graph.vertices[0])) == graph.vertex_count


def shortest_path(graph: Graph, source: int, target: int) -> list[int] | None:
    """BFS shortest path (list of vertices, source first), or None if disconnected."""
    prev = breadth_first(graph._adjacency, source, target)
    if target not in prev:
        return None
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1]


def apply_move(current: set[int], step: MoveStep, graph: Graph) -> None:
    """Make one move on `current` in place, validating it."""
    if step.removed not in current:
        raise ValueError(f"step removes {step.removed} which is not in the subset")
    if step.added in current:
        raise ValueError(f"step adds {step.added} which is already in the subset")
    if not graph.has_edge(step.removed, step.added):
        raise ValueError(f"step uses missing edge {step.edge}")
    current.remove(step.removed)
    current.add(step.added)


def apply_moves(subset: Iterable[int], steps: Sequence[MoveStep], graph: Graph) -> set[int]:
    """Replay a move sequence, validating every step; returns the final subset."""
    current = set(subset)
    for step in steps:
        apply_move(current, step, graph)
    return current


def move_sequence(graph: Graph, start: Iterable[int], goal: Iterable[int]) -> list[MoveStep]:
    """A chain of legal moves carrying `start` to `goal` in a connected graph.

    Checks its input and the graph's connectivity, builds the chain by
    move_chain and replays it, so a chain that misses the goal is an
    InternalError.
    """
    current = set(start)
    target = set(goal)
    vset = set(graph.vertices)
    if not current <= vset or not target <= vset:
        raise ValueError("subsets must consist of graph vertices")
    if len(current) != len(target):
        raise SizeMismatch(f"|I| = {len(current)} but |J| = {len(target)}")
    if not is_connected(graph):
        raise NotConnected("move sequences need a connected graph")
    steps = move_chain(graph, current, target)
    if apply_moves(current, steps, graph) != target:
        raise InternalError("move sequence does not reach the goal subset")
    return steps


def move_chain(graph: Graph, start: set[int], goal: set[int]) -> list[MoveStep]:
    """move_sequence's chain without its checks, for a connected graph and
    equal-sized vertex subsets; replay it with apply_move to confirm it.

    Constructive induction on the overlap: pick r in start minus goal and
    t in goal minus start, walk a shortest path from r to t shifting the
    start-vertices sitting on it one slot toward t, then recurse.
    """
    current = set(start)
    steps: list[MoveStep] = []
    while current != goal:
        r = min(current - goal)
        t = min(goal - current)
        path = shortest_path(graph, r, t)
        if path is None:
            raise InternalError(f"no path from {r} to {t} in a connected graph")
        # indices of current-subset vertices on the path (t itself is outside)
        inside = [i for i in range(len(path) - 1) if path[i] in current]
        # shift the deepest one to t, then each earlier one to its successor
        for pos, i in enumerate(reversed(inside)):
            stop = len(path) - 1 if pos == 0 else inside[len(inside) - pos]
            walker = path[i]
            for j in range(i + 1, stop + 1):
                steps.append(MoveStep(removed=walker, added=path[j]))
                current.remove(walker)
                current.add(path[j])
                walker = path[j]
    return steps


def deletable_vertex(graph: Graph, subset: Iterable[int]) -> int:
    """A vertex s of the subset whose deletion keeps the whole graph connected.

    Hypothesis (validated): every vertex outside the subset has either zero or
    at least two neighbors inside.  The choice follows the eccentricity
    argument: take s from a subset pair at maximal graph distance, smallest
    label first; the result is BFS-verified before returning.
    """
    sub = sorted(set(subset))
    if not set(sub) <= set(graph.vertices):
        raise ValueError("subset contains unknown vertices")
    if not is_connected(graph):
        raise NotConnected("deletion lemma needs a connected graph")
    if len(sub) < 2:
        raise SubsetTooSmall("deletion lemma needs |I| >= 2")
    inside = set(sub)
    for t in graph.vertices:
        if t in inside:
            continue
        deg_in = len(graph.neighbors(t) & inside)
        if deg_in == 1:
            raise HypothesisViolated(
                f"vertex {t} outside the subset has exactly one neighbor inside"
            )

    best: tuple[int, int, int] | None = None  # (-distance, s, s')
    for s in sub:
        # BFS reaches a vertex after its predecessor, one step farther out
        dist: dict[int, int] = {}
        for w, v in breadth_first(graph._adjacency, s).items():
            dist[w] = dist[v] + 1 if w != v else 0
        for s2 in sub:
            key = (-dist[s2], s, s2)
            if best is None or key < best:
                best = key
    if best is None:
        raise InternalError("no subset pair to choose from")
    chosen = best[1]
    remaining = [v for v in graph.vertices if v != chosen]
    if not is_connected(induced(graph, remaining)):
        raise InternalError("eccentricity choice failed to preserve connectivity")
    return chosen
