import itertools
import random

import pytest

from reflext.errors import (
    HypothesisViolated,
    NotConnected,
    SizeMismatch,
    SubsetTooSmall,
)
from reflext import graphs
from reflext.graphs import (
    Graph,
    MoveStep,
    apply_moves,
    breadth_first,
    deletable_vertex,
    induced,
    is_connected,
    move_sequence,
    shortest_path,
)

from conftest import distances_from_oracle, reachable_oracle, shortest_path_oracle

PATH3 = Graph.on_range(3, [(1, 2), (2, 3)])
K4 = Graph.on_range(4, list(itertools.combinations(range(1, 5), 2)))


def random_connected_graph(rng, max_vertices=8):
    while True:
        k = rng.randint(1, max_vertices)
        edges = [e for e in itertools.combinations(range(1, k + 1), 2) if rng.random() < 0.45]
        g = Graph.on_range(k, edges)
        if is_connected(g):
            return g


def test_induced_examples():
    sub = induced(PATH3, {1, 3})
    assert sub.vertices == (1, 3)
    assert not sub.edges

    assert induced(PATH3, {1, 2, 3}) == PATH3

    triangle = Graph.on_range(3, [(1, 2), (2, 3), (1, 3)])
    assert induced(triangle, {1, 2}).edges == frozenset({(1, 2)})


def test_is_connected_examples():
    assert is_connected(PATH3)
    assert not is_connected(Graph.on_range(2))
    assert is_connected(K4)
    assert is_connected(Graph.on_range(1))
    assert is_connected(Graph((), ()))


def test_neighbors_read_the_edge_set():
    g = Graph.on_range(5, [(1, 2), (2, 3), (2, 5)])
    for v in g.vertices:
        # oracle: scan every edge
        expected = {b if a == v else a for a, b in g.edges if v in (a, b)}
        assert g.neighbors(v) == expected == g.adjacency()[v]
    g.neighbors(2).add(4)  # callers get a copy, the graph stays as built
    assert g.neighbors(2) == {1, 3, 5}
    assert g == Graph.on_range(5, [(2, 5), (2, 3), (1, 2)])


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        Graph.on_range(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.on_range(2, [(1, 3)])


def test_move_sequence_path_endpoints():
    steps = move_sequence(PATH3, {1}, {3})
    assert apply_moves({1}, steps, PATH3) == {3}
    # brute-force subset BFS says the minimum is 2 moves; this construction attains it
    assert len(steps) == _subset_distance(PATH3, frozenset({1}), frozenset({3}))
    assert len(steps) == 2


def test_move_sequence_identity():
    assert move_sequence(PATH3, {1, 2}, {2, 1}) == []


def test_move_sequence_overlapping_pairs():
    steps = move_sequence(PATH3, {1, 2}, {2, 3})
    assert apply_moves({1, 2}, steps, PATH3) == {2, 3}


def test_move_sequence_errors():
    with pytest.raises(SizeMismatch):
        move_sequence(PATH3, {1}, {2, 3})
    with pytest.raises(NotConnected):
        move_sequence(Graph.on_range(2), {1}, {2})


def _subset_distance(graph, start, goal):
    """BFS in the graph whose nodes are vertex subsets and edges are moves."""
    from collections import deque

    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        current, dist = queue.popleft()
        if current == goal:
            return dist
        for r in current:
            for a, b in graph.edges:
                for t in ((b,) if a == r else (a,) if b == r else ()):
                    if t not in current:
                        nxt = (current - {r}) | {t}
                        if nxt not in seen:
                            seen.add(nxt)
                            queue.append((nxt, dist + 1))
    return None


def test_move_sequence_random_replay(rng):
    for _ in range(120):
        g = random_connected_graph(rng)
        k = g.vertex_count
        d = rng.randint(0, k)
        start = set(rng.sample(g.vertices, d))
        goal = set(rng.sample(g.vertices, d))
        steps = move_sequence(g, start, goal)
        assert apply_moves(start, steps, g) == goal
        # cardinality is preserved along the way
        current = set(start)
        for st in steps:
            current.remove(st.removed)
            current.add(st.added)
            assert len(current) == d


def test_apply_moves_validates():
    with pytest.raises(ValueError):
        apply_moves({1}, [MoveStep(removed=2, added=3)], PATH3)
    with pytest.raises(ValueError):
        apply_moves({1}, [MoveStep(removed=1, added=3)], PATH3)  # no edge 1-3
    with pytest.raises(ValueError):
        apply_moves({1, 2}, [MoveStep(removed=1, added=2)], PATH3)  # 2 already in


def test_deletable_vertex_path():
    v = deletable_vertex(PATH3, {1, 2, 3})
    assert v in (1, 3)
    assert is_connected(induced(PATH3, set(PATH3.vertices) - {v}))


def test_deletable_vertex_k4():
    v = deletable_vertex(K4, {1, 2})
    assert v in (1, 2)
    assert is_connected(induced(K4, set(K4.vertices) - {v}))


def test_deletable_vertex_five_vertex_example():
    # two leaves a=1, b=2 joined through center c=3, plus 4, 5 forming a cycle so
    # every outside vertex has 0 or >= 2 neighbors in I = {1, 2}
    g = Graph.on_range(5, [(1, 3), (2, 3), (1, 4), (2, 4), (4, 5), (3, 5)])
    v = deletable_vertex(g, {1, 2})
    assert v in (1, 2)
    assert is_connected(induced(g, set(g.vertices) - {v}))
    # exhaustive check: both members of I actually work here
    for s in (1, 2):
        assert is_connected(induced(g, set(g.vertices) - {s}))


def test_deletable_vertex_hypothesis_violation():
    # vertex 4 outside I={1,2} has exactly one neighbor in I
    g = Graph.on_range(4, [(1, 2), (2, 3), (1, 4)])
    with pytest.raises(HypothesisViolated):
        deletable_vertex(g, {1, 2})


def test_deletable_vertex_errors():
    with pytest.raises(SubsetTooSmall):
        deletable_vertex(PATH3, {1})
    with pytest.raises(NotConnected):
        deletable_vertex(Graph.on_range(2), {1, 2})


def test_deletable_vertex_random_instances(rng):
    found = 0
    while found < 80:
        g = random_connected_graph(rng, 7)
        if g.vertex_count < 2:
            continue
        size = rng.randint(2, g.vertex_count)
        subset = set(rng.sample(g.vertices, size))
        inside = subset
        ok = all(
            len(g.neighbors(t) & inside) != 1 for t in g.vertices if t not in inside
        )
        if not ok:
            continue
        found += 1
        v = deletable_vertex(g, subset)
        assert v in subset
        assert is_connected(induced(g, set(g.vertices) - {v}))


def test_shortest_path_is_simple(rng):
    for _ in range(40):
        g = random_connected_graph(rng, 7)
        u = rng.choice(g.vertices)
        w = rng.choice(g.vertices)
        path = shortest_path(g, u, w)
        assert path is not None
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


def test_move_sequence_exhaustive_small_graphs():
    """All (I, J) pairs of every size on every connected graph with <= 4 vertices."""
    for k in range(1, 5):
        all_edges = list(itertools.combinations(range(1, k + 1), 2))
        for mask in range(1 << len(all_edges)):
            edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
            g = Graph.on_range(k, edges)
            if not is_connected(g):
                continue
            for d in range(k + 1):
                for start in itertools.combinations(g.vertices, d):
                    for goal in itertools.combinations(g.vertices, d):
                        steps = move_sequence(g, set(start), set(goal))
                        assert apply_moves(set(start), steps, g) == set(goal)


def _seeded_connected_graphs(count, max_vertices=12):
    """A random spanning tree plus random extra edges, on shuffled labels."""
    rng = random.Random(1313)
    for _ in range(count):
        k = rng.randint(1, max_vertices)
        labels = rng.sample(range(1, 3 * max_vertices), k)
        edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, k)]
        density = rng.choice([0.0, 0.1, 0.3, 0.6])
        edges += [e for e in itertools.combinations(labels, 2) if rng.random() < density]
        yield rng, Graph(labels, edges)


def test_one_search_matches_the_oracles_on_seeded_graphs(monkeypatch):
    graph_count = 0
    for rng, g in _seeded_connected_graphs(240):
        graph_count += 1
        assert is_connected(g)
        for u, w in itertools.product(g.vertices, repeat=2):
            assert shortest_path(g, u, w) == shortest_path_oracle(g, u, w)
        dist = {s: distances_from_oracle(g, s) for s in g.vertices}
        for _ in range(6 if g.vertex_count >= 2 else 0):
            subset = set(rng.sample(g.vertices, rng.randint(2, g.vertex_count)))
            if any(len(g.neighbors(t) & subset) == 1 for t in g.vertices if t not in subset):
                continue
            # the eccentricity rule: a subset pair at maximal distance, smallest labels first
            expected = min((-dist[a][b], a, b) for a in subset for b in subset)[1]
            assert deletable_vertex(g, subset) == expected
        pairs = []
        for _ in range(4):
            d = rng.randint(0, g.vertex_count)
            pairs.append((rng.sample(g.vertices, d), rng.sample(g.vertices, d)))
        got = [move_sequence(g, start, goal) for start, goal in pairs]
        with monkeypatch.context() as m:
            m.setattr(graphs, "shortest_path", shortest_path_oracle)
            assert got == [move_sequence(g, start, goal) for start, goal in pairs]
    assert graph_count >= 200


def test_one_search_matches_reachability_on_seeded_moves():
    # the arrows j -> i (s_i moves alpha_j) of theoremlab._base_simplicity,
    # searched forwards, backwards and undirected
    rng = random.Random(1414)
    for _ in range(200):
        k = rng.randint(1, 12)
        density = rng.choice([0.05, 0.15, 0.3, 0.6])
        moves = [[i != j and rng.random() < density for j in range(k)] for i in range(k)]
        moved = {j: [i for i in range(k) if moves[i][j]] for j in range(k)}
        moving = {i: [j for j in range(k) if moves[i][j]] for i in range(k)}
        undirected = {j: [i for i in range(k) if moves[i][j] or moves[j][i]] for j in range(k)}
        transposed = [list(col) for col in zip(*moves)]
        either = [[a or b for a, b in zip(r, c)] for r, c in zip(moves, transposed)]
        for start in range(k):
            assert set(breadth_first(moved, start)) == reachable_oracle(moves, start)
            assert set(breadth_first(moving, start)) == reachable_oracle(transposed, start)
            assert set(breadth_first(undirected, start)) == reachable_oracle(either, start)


def test_breadth_first_stops_at_its_target():
    # a star around 1 with a tail 5 - 6: each vertex's neighbours in increasing order
    adjacency = {1: (2, 3, 4, 5), 2: (1,), 3: (1,), 4: (1,), 5: (1, 6), 6: (5,)}
    assert breadth_first(adjacency, 1, 3) == {1: 1, 2: 1, 3: 1}
    assert list(breadth_first(adjacency, 1)) == [1, 2, 3, 4, 5, 6]
    assert breadth_first(adjacency, 6, 2) == {6: 6, 5: 6, 1: 5, 2: 1}
    assert breadth_first(adjacency, 4, 4) == {4: 4}
