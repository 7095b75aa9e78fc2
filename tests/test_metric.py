import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdimlab.builder import color_gap
from asdimlab.errors import InputError
from asdimlab.groups import build_ball
from asdimlab.metric import DenseMetric, GraphMetric, UNREACHED, line_metric


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
    g = GraphMetric(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert g.dist(0, 4) == 4
    fld, src = g.dist_field([0, 4], with_sources=True)
    assert list(fld) == [0, 1, 2, 1, 0]
    assert src[1] == 0 and src[3] == 4


def test_graph_metric_takes_arrays_lists_and_generators():
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    graphs = [
        GraphMetric(5, np.array(pairs)).graph,
        GraphMetric(5, pairs).graph,
        GraphMetric(5, (p for p in pairs)).graph,
    ]
    for graph in graphs[1:]:
        assert (graph != graphs[0]).nnz == 0
    assert GraphMetric(3, np.empty((0, 2), dtype=np.int64)).graph.nnz == 0


def test_ball_graph_metric_is_the_in_ball_edge_graph(z2z3_amalgam):
    ball = build_ball(z2z3_amalgam.engine, 8)
    pairs = [
        (u, int(v)) for u, row in enumerate(ball.table) for v in row if v >= 0
    ]
    assert (ball.graph_metric().graph != GraphMetric(len(ball), pairs).graph).nnz == 0


def test_graph_metric_disconnected_reports_unreached():
    g = GraphMetric(4, [(0, 1)])
    fld = g.dist_field([0])
    assert fld[3] >= UNREACHED
    assert g.dist(0, 3) == float("inf")


def test_graph_metric_masked_separation():
    g = GraphMetric(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    masked = g.masked([2])
    labels = masked.components()
    assert labels[0] == labels[1]
    assert labels[3] == labels[4]
    assert labels[0] != labels[4]


def test_graph_metric_masked_matches_edge_scan():
    rng = np.random.default_rng(5)
    g = GraphMetric(80, rng.integers(0, 80, size=(200, 2)).tolist())
    removed = list(range(0, 80, 7))
    coo = g.graph.tocoo()
    kept = [
        (u, v)
        for u, v in zip(coo.row, coo.col)
        if u < v and u not in removed and v not in removed
    ]
    masked = g.masked(removed)
    assert (masked.graph != GraphMetric(80, kept).graph).nnz == 0
    assert np.array_equal(masked.components(), GraphMetric(80, kept).components())


def test_unknown_point_rejected():
    g = GraphMetric(3, [(0, 1)])
    with pytest.raises(InputError):
        g.dist(0, 7)


def test_graph_metric_fields_are_read_only():
    g = GraphMetric(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
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
