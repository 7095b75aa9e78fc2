import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from asdimlab.builder import color_gap
from asdimlab.errors import InputError
from asdimlab.groups import RacgEngine, build_ball
from asdimlab.metric import DenseMetric, GraphMetric, UNREACHED, line_metric

from conftest import CYCLE5


def edge_table(n, pairs):
    """The edge table of the graph on n points with edges `pairs`: row u
    lists u's neighbours, each edge from both ends (a loop once), padded
    with -1."""
    rows = [[] for _ in range(n)]
    for u, v in pairs:
        rows[u].append(v)
        if u != v:
            rows[v].append(u)
    table = np.full((n, max(map(len, rows), default=0)), -1, dtype=np.int64)
    for u, row in enumerate(rows):
        table[u, : len(row)] = row
    return table


def pattern(table):
    """The (point, neighbour) pairs an edge table lists."""
    u, gen = np.nonzero(table >= 0)
    return set(zip(u.tolist(), table[u, gen].tolist()))


def scipy_fields(table):
    """The tests' oracle: scipy's all-pairs BFS distances of an edge table,
    one row per source, UNREACHED where no path leads."""
    n = len(table)
    u, gen = np.nonzero(table >= 0)
    graph = csr_matrix((np.ones(len(u)), (u, table[u, gen])), shape=(n, n))
    dist = shortest_path(graph, directed=True, unweighted=True)
    return np.where(np.isinf(dist), UNREACHED, dist)


def lowest_neighbour_sources(table, sources):
    """Reference for `dist_field(sources, with_sources=True)`: a plain deque
    BFS for the distances; then, nearest first, each reached non-source
    point takes the source of its lowest-id neighbour one level closer."""
    n = len(table)
    dist = [None] * n
    queue = deque(sorted(set(sources)))
    for s in queue:
        dist[s] = 0
    while queue:
        p = queue.popleft()
        for x in table[p].tolist():
            if x >= 0 and dist[x] is None:
                dist[x] = dist[p] + 1
                queue.append(x)
    src = [-9999] * n
    for s in sources:
        src[s] = s
    for x in sorted((x for x in range(n) if dist[x]), key=lambda x: dist[x]):
        src[x] = src[min(p for p in table[x].tolist() if p >= 0 and dist[p] == dist[x] - 1)]
    return src


def set_dist(m, a, b):
    """min over pairs; +inf when either side is empty."""
    d = min((d for _, _, d in m.pair_gaps([list(a), list(b)])), default=UNREACHED)
    return float("inf") if d >= UNREACHED else float(d)


def test_dense_metric_validation():
    with pytest.raises(InputError):
        DenseMetric([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(InputError):
        DenseMetric([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(InputError):
        DenseMetric([[0, 5, 1], [5, 0, 1], [1, 1, 0]])  # triangle fails


def test_dense_metric_fields_and_diam():
    m = line_metric([0, 2, 5, 9])
    assert m.dist(0, 3) == 9
    fld = m.dist_field([1, 2])
    assert list(fld) == [2, 0, 0, 4]
    assert m.diam([0, 1, 3]) == 9
    assert set_dist(m, [0], [2, 3]) == 5


def test_graph_metric_path():
    g = GraphMetric(edge_table(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    assert g.dist(0, 4) == 4
    fld, src = g.dist_field([0, 4], with_sources=True)
    assert list(fld) == [0, 1, 2, 1, 0]
    assert src[1] == 0 and src[3] == 4


def test_ball_graph_metric_is_the_in_ball_edge_graph(z2z3_amalgam):
    ball = build_ball(z2z3_amalgam.engine, 8)
    metric = ball.graph_metric()
    assert metric.table is ball.table
    # every edge is listed from both ends, so fields need no symmetrising
    assert pattern(ball.table) == {(v, u) for u, v in pattern(ball.table)}
    reference = scipy_fields(ball.table)
    for p in (0, 1, len(ball) // 2, len(ball) - 1):
        assert np.array_equal(metric.dist_field([p]), reference[p])


def test_ball_graph_metric_stores_each_table_entry_once(z2z3_amalgam):
    for ball in (build_ball(z2z3_amalgam.engine, 8), build_ball(RacgEngine(CYCLE5), 5)):
        metric = ball.graph_metric()
        assert metric.table is ball.table
        # the inner ball's table is its rows of the ball's, edges leaving it cut
        inner = ball.graph_metric(ball.radius - 1).table
        n = len(inner)
        assert np.array_equal(inner, np.where(ball.table[:n] < n, ball.table[:n], -1))


def test_ball_graph_metric_peak_memory_is_near_the_table():
    # the metric holds the table itself: at most 2x its bytes at the peak,
    # where a doubled, re-symmetrised edge list took 7x
    ball = build_ball(RacgEngine(CYCLE5), 8)
    assert len(ball) == 7981
    tracemalloc.start()
    try:
        ball.graph_metric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * ball.table.nbytes


def test_graph_metric_disconnected_reports_unreached():
    g = GraphMetric(edge_table(4, [(0, 1)]))
    fld = g.dist_field([0])
    assert fld[3] >= UNREACHED
    assert g.dist(0, 3) == float("inf")


def test_graph_metric_masked_separation():
    g = GraphMetric(edge_table(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    masked = g.masked([2])
    assert list(masked.dist_field([0]) < UNREACHED) == [True, True, False, False, False]
    assert list(masked.dist_field([4]) < UNREACHED) == [False, False, False, True, True]
    assert list(masked.dist_field([2]) < UNREACHED) == [False, False, True, False, False]


def test_graph_metric_masked_matches_edge_scan():
    rng = np.random.default_rng(5)
    pairs = rng.integers(0, 80, size=(200, 2)).tolist()
    assert any(u == v for u, v in pairs)  # the graph has loops
    g = GraphMetric(edge_table(80, pairs))
    removed = list(range(0, 80, 7))
    kept = GraphMetric(
        edge_table(80, [(u, v) for u, v in pairs if u not in removed and v not in removed])
    )
    masked = g.masked(removed)
    assert pattern(masked.table) == pattern(kept.table)
    for p in range(80):
        assert np.array_equal(masked.dist_field([p]), kept.dist_field([p]))


def test_unknown_point_rejected():
    g = GraphMetric(edge_table(3, [(0, 1)]))
    with pytest.raises(InputError):
        g.dist(0, 7)


@pytest.mark.parametrize("with_sources", [False, True], ids=["field", "sources"])
@pytest.mark.parametrize("bad", [3, -1], ids=["past-the-end", "negative"])
def test_dist_field_rejects_a_source_outside_the_carrier(bad, with_sources):
    # 3 would read the BFS's sentinel slot and -1 would wrap to point 2
    g = GraphMetric(edge_table(3, [(0, 1), (1, 2)]))
    with pytest.raises(InputError, match=f"unknown point id {bad}"):
        g.dist_field([0, bad], with_sources=with_sources)


@st.composite
def edge_tables(draw):
    """Random edge tables: loops, repeated edges, isolated points and extra
    -1 padding columns."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    table = edge_table(n, pairs)
    pad = np.full((n, draw(st.integers(0, 2))), -1, dtype=np.int64)
    return np.hstack([table, pad])


@settings(max_examples=200, deadline=None)
@given(edge_tables(), st.data())
def test_bfs_fields_equal_scipy(table, data):
    n = len(table)
    sources = data.draw(st.lists(st.integers(0, n - 1), max_size=5))
    g = GraphMetric(table)
    fld, src = g.dist_field(sources, with_sources=True)
    expected = (
        scipy_fields(table)[sorted(set(sources))].min(axis=0)
        if sources
        else np.full(n, UNREACHED, dtype=float)
    )
    assert np.array_equal(g.dist_field(sources), expected)
    if not sources:
        assert src is None
        return
    assert np.array_equal(fld, expected)
    assert src.tolist() == lowest_neighbour_sources(table, sources)


def test_graph_metric_fields_are_read_only():
    g = GraphMetric(edge_table(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    for sources in ([0, 3], []):
        first = g.dist_field(sources)
        with pytest.raises(ValueError):
            first[1] = 99
        again = g.dist_field(sources)  # the cached field for [0, 3]
        assert np.array_equal(again, first)
        assert not again.flags.writeable


def test_pair_gaps_order_skips_empty_sets_and_stops_early():
    m = line_metric([0, 2, 5, 9, 20])
    sets = [{0}, set(), {1, 2}, {4}]
    assert [(i, j, float(d)) for i, j, d in m.pair_gaps(sets)] == [
        (0, 2, 2.0),
        (0, 3, 20.0),
        (2, 3, 15.0),
    ]
    calls = []
    real = m.dist_field
    m.dist_field = lambda src: calls.append(list(src)) or real(src)
    next(m.pair_gaps(sets))
    assert calls == [[0]]
    assert set_dist(m, {3}, {1, 2}) == 4 and math.isinf(set_dist(m, {3}, []))


@pytest.fixture(scope="module")
def amalgam_ball_metrics(dinf_amalgam, z2z3_amalgam):
    return [
        build_ball(dinf_amalgam.engine, 12).graph_metric(),
        build_ball(z2z3_amalgam.engine, 7).graph_metric(),
    ]


def brute_force_gap(sets, metric):
    """Reference for label_gaps: one BFS field per set, every ordered pair."""
    best = math.inf
    for i, a in enumerate(sets):
        field = metric.dist_field(sorted(a))
        for j, b in enumerate(sets):
            if i != j:
                best = min(best, float(min(field[x] for x in b)))
    return best


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1), st.data())
def test_label_gaps_minimum_equals_brute_force(amalgam_ball_metrics, which, data):
    metric = amalgam_ball_metrics[which]
    # a sparse labelling, so that gaps above 1 occur
    labelled = data.draw(
        st.dictionaries(st.integers(0, metric.n - 1), st.integers(0, 3), max_size=12)
    )
    labels = np.full(metric.n, -1)
    labels[list(labelled)] = list(labelled.values())
    sets = [set(np.nonzero(labels == k)[0].tolist()) for k in range(4)]
    sets = [s for s in sets if s]
    expected = brute_force_gap(sets, metric)
    assert color_gap(sets, metric) == expected
    if sets:
        label_u, label_v, gaps = metric.label_gaps(labels)
        assert (label_u != label_v).all()
        assert (gaps.min() if len(gaps) else math.inf) == expected
