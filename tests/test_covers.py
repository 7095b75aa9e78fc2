import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asdimlab.covers import (
    Cover,
    check_rd_cover,
    cover_order,
    diameter_bound,
    extend_cover,
    lebesgue_number,
)
from asdimlab.errors import InputError, PreconditionError
from asdimlab.metric import DenseMetric, line_metric


def two_point_metric(d):
    return DenseMetric([[0, d], [d, 0]])


def test_cover_order_examples():
    # {{a,b},{b,c},{b,d}} with a,b,c,d = 0..3
    cover = Cover(sets=[{0, 1}, {1, 2}, {1, 3}])
    order, witness = cover_order(cover, [0, 1, 2, 3])
    assert order == 3 and witness == 1
    disjoint = Cover(sets=[{0}, {1}, {2}, {3}])
    assert cover_order(disjoint, [0, 1, 2, 3])[0] == 1


def reference_cover_order(cover, carrier):
    """The membership loop `cover_order` replaced: |carrier| x |sets| tests."""
    best, witness = 0, None
    for x in carrier:
        k = sum(1 for s in cover.sets if x in s)
        if k > best:
            best, witness = k, x
    return best, witness


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(0, 12), min_size=1), max_size=8),
    st.lists(st.integers(0, 16), max_size=20),
)
def test_cover_order_equals_membership_loop(sets, carrier):
    cover = Cover(sets=sets)
    assert cover_order(cover, carrier) == reference_cover_order(cover, carrier)


def test_lebesgue_whole_carrier_is_unbounded():
    m = line_metric(range(5))
    cover = Cover(sets=[set(range(5))])
    value, _ = lebesgue_number(cover, m, range(5))
    assert math.isinf(value)


def test_lebesgue_interval_example():
    # carrier {0..10}, U1 = {0..7}, U2 = {4..10}: inf-sup evaluates to 7
    m = line_metric(range(11))
    cover = Cover(sets=[set(range(0, 8)), set(range(4, 11))])
    value, witness = lebesgue_number(cover, m, range(11))
    assert value == 7
    assert witness == 1  # U2 attains the inf


def test_lebesgue_one_point_space():
    m = line_metric([0])
    value, _ = lebesgue_number(Cover(sets=[{0}]), m, [0])
    assert math.isinf(value)


def test_lebesgue_empty_cover_rejected():
    m = line_metric(range(3))
    with pytest.raises(InputError):
        lebesgue_number(Cover(sets=[]), m, range(3))


def test_diameter_examples():
    m = line_metric(range(11))
    assert diameter_bound(Cover(sets=[{0}, {5}, {10}]), m)[0] == 0
    value, witness = diameter_bound(Cover(sets=[{0, 7}, {4, 10}]), m)
    assert value == 7 and witness == 0


def test_check_rd_cover_single_set_passes():
    m = line_metric(range(11))
    cover = Cover(sets=[set(range(11))])
    verdict = check_rd_cover(cover, r=100, d=10, n=0, m=m, carrier=range(11))
    assert verdict.passed


def test_check_rd_cover_order_failure_reports_witness():
    m = line_metric(range(11))
    cover = Cover(sets=[set(range(0, 8)), set(range(4, 11))])
    verdict = check_rd_cover(cover, r=2, d=10, n=0, m=m, carrier=range(11))
    assert not verdict.passed
    assert not verdict.order_ok
    assert verdict.order == 2
    assert verdict.order_witness in range(4, 8)


def test_extend_cover_single_point_example():
    # X = {0} inside the integer segment [-5, 5], cover {{0}}, r = 8:
    # the ball-union formula covers exactly N_2(X) = {-2..2}
    ambient = line_metric(range(-5, 6))
    zero = 5  # index of 0 in the ambient enumeration
    cover = Cover(sets=[{zero}])
    out, new_carrier = extend_cover(cover, 8, ambient, [zero])
    assert sorted(new_carrier) == [zero - 2, zero - 1, zero, zero + 1, zero + 2]
    assert sorted(out.sets[0]) == sorted(new_carrier)


def test_extend_cover_requires_lebesgue():
    ambient = line_metric(range(11))
    cover = Cover(sets=[set(range(0, 6)), set(range(5, 11))])
    with pytest.raises(PreconditionError):
        extend_cover(cover, 100, ambient, range(11))


def random_cluster_cover(rng, n_points, r):
    """Seeded instance generator: clusters enlarged by N_r, so the textbook
    depth (hence the inf-sup Lebesgue number) exceeds r by construction."""
    pts = np.sort(rng.choice(np.arange(n_points * 3), size=n_points, replace=False))
    m = line_metric(pts.tolist())
    k = rng.integers(2, 5)
    centers = rng.choice(n_points, size=k, replace=False)
    assign = np.argmin(np.abs(pts[:, None] - pts[centers][None, :]), axis=1)
    sets = []
    for j in range(k):
        seed_pts = np.nonzero(assign == j)[0]
        if not len(seed_pts):
            continue
        fld = m.dist_field(seed_pts.tolist())
        sets.append({int(i) for i in np.nonzero(fld <= r)[0]})
    return m, Cover(sets=sets)


def test_extend_cover_randomized_properties():
    # the acceptance-grade property: order non-increasing, sets keep an
    # r/2-deep point (so Lebesgue >= r/4), diameter growth <= r
    rng = np.random.default_rng(20240811)
    failures = 0
    for _ in range(50):
        r = int(rng.integers(4, 9))
        m, cover = random_cluster_cover(rng, int(rng.integers(8, 20)), r)
        d_in, _ = diameter_bound(cover, m)
        carrier = sorted(cover.union())
        out, new_carrier = extend_cover(cover, r, m, carrier)
        order_in, _ = cover_order(cover, carrier)
        order_out, _ = cover_order(out, new_carrier)
        leb_out, _ = lebesgue_number(out, m, new_carrier)
        d_out, _ = diameter_bound(out, m)
        if order_out > order_in or leb_out < r / 4 or d_out > d_in + r:
            failures += 1
    assert failures == 0


def enlarge_pointwise(cover, m, by):
    out = []
    for s in cover.sets:
        fld = m.dist_field(sorted(s))
        out.append({int(i) for i in np.nonzero(fld <= by)[0]})
    return Cover(sets=out, colors=list(cover.colors))


def test_lebesgue_and_diameter_monotone_under_enlargement():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, cover = random_cluster_cover(rng, 12, 3)
        carrier = sorted(cover.union())
        bigger = enlarge_pointwise(cover, m, 2)
        l0, _ = lebesgue_number(cover, m, carrier)
        l1, _ = lebesgue_number(bigger, m, carrier)
        d0, _ = diameter_bound(cover, m)
        d1, _ = diameter_bound(bigger, m)
        assert l1 >= l0
        assert d1 >= d0
