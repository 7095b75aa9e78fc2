"""Finite metric spaces backing all cover computations.

Two concrete backings: an explicit distance matrix (small abstract instances,
random test fixtures) and the path metric of a graph given by its edge table,
one row of neighbour ids per point (Cayley balls).  Distances are exact
within the carrier; graph metrics additionally provide fast multi-source
distance fields by a level-synchronous numpy BFS over the edge table.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InputError

UNREACHED = np.iinfo(np.int32).max


class FiniteMetric:
    """A metric on points 0..n-1.  Subclasses implement dist / dist_field."""

    n: int

    @property
    def points(self):
        return range(self.n)

    def check_point(self, x):
        if not (0 <= x < self.n):
            raise InputError(f"unknown point id {x} (carrier has {self.n} points)")

    def dist(self, x, y) -> float:
        raise NotImplementedError

    def dist_field(self, sources) -> np.ndarray:
        """Array of distances from the nearest of `sources` to every point.

        Unreachable points get UNREACHED (graph metrics on disconnected carriers).
        """
        raise NotImplementedError

    def diam(self, pts) -> float:
        pts = list(pts)
        if len(pts) <= 1:
            return 0.0
        best = 0.0
        for p in pts:
            field = self.dist_field([p])
            m = max(field[q] for q in pts)
            if m >= UNREACHED:
                return float("inf")
            best = max(best, float(m))
        return best

    def pair_gaps(self, sets):
        """Yield (i, j, d(sets[i], sets[j])) for i < j in lexicographic order,
        skipping empty sets (UNREACHED for unreachable pairs).  One field of
        set i serves every later j, and it is computed only when its first
        pair is reached, so a caller that stops early computes no more."""
        ids = [np.fromiter(s, dtype=np.int64, count=len(s)) for s in sets]
        live = [i for i, s in enumerate(ids) if len(s)]
        for a, i in enumerate(live[:-1]):
            field = self.dist_field(ids[i])
            for j in live[a + 1 :]:
                yield i, j, field[ids[j]].min()


class DenseMetric(FiniteMetric):
    """Metric given by an explicit symmetric matrix."""

    def __init__(self, matrix, validate=True):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("distance matrix must be square")
        self.m = m
        self.n = m.shape[0]
        if validate:
            self._validate()

    def _validate(self):
        m = self.m
        if np.any(np.diag(m) != 0):
            raise InputError("dist(x,x) must be 0")
        if not np.allclose(m, m.T):
            raise InputError("distance matrix must be symmetric")
        if np.any(m < 0):
            raise InputError("distances must be non-negative")
        n = self.n
        triples = (
            itertools.combinations(range(n), 3)
            if n <= 40
            else _sample_triples(n, 2000)
        )
        for a, b, c in triples:
            for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
                if m[i, k] > m[i, j] + m[j, k] + 1e-9:
                    raise InputError(f"triangle inequality fails on ({i},{j},{k})")

    def dist(self, x, y):
        self.check_point(x)
        self.check_point(y)
        return float(self.m[x, y])

    def dist_field(self, sources):
        sources = list(sources)
        if not sources:
            return np.full(self.n, UNREACHED, dtype=float)
        return self.m[sources].min(axis=0)

    def diam(self, pts):
        pts = list(pts)
        if len(pts) <= 1:
            return 0.0
        sub = self.m[np.ix_(pts, pts)]
        return float(sub.max())


class GraphMetric(FiniteMetric):
    """Shortest-path metric of an undirected unit-weight graph.

    `table` is an (n, k) array of neighbour ids, padded with -1, that lists
    every edge from both of its ends; the metric is the BFS distance in that
    graph on n points.  A Cayley ball's edge table is one, as its generators
    are closed under inverses, and there the graph distance agrees with the
    word metric for all pairs whose true distance keeps a geodesic inside
    the enumerated ball.

    Fields are read off the table by `dijkstra`, one BFS level per step.  A
    point at equal distance from several sources takes, with
    `with_sources=True`, the source of its lowest-id neighbour one level
    closer to the sources (a source is its own).
    """

    def __init__(self, table):
        self.table = np.asarray(table)
        self.n = len(self.table)
        self._field_cache: dict[bytes, np.ndarray] = {}

    def masked(self, removed) -> "GraphMetric":
        """Graph metric with a point set removed (used for separation checks):
        every table entry into or out of a removed point becomes -1."""
        gone = np.zeros(self.n + 1, dtype=bool)  # gone[-1] is read for -1
        gone[np.asarray(removed, dtype=np.int64)] = True
        table = np.where(gone[self.table] | gone[: self.n, None], -1, self.table)
        return GraphMetric(table)

    def dist(self, x, y):
        self.check_point(x)
        self.check_point(y)
        d = self.dist_field([x])[y]
        return float("inf") if d >= UNREACHED else float(d)

    def dist_field(self, sources, with_sources=False):
        """Distance field of `sources` (point ids, in any order, repeats
        allowed); with_sources=True also returns each point's nearest source,
        -9999 where unreached.  A field returned alone is read-only: it may be
        the cached array later callers get."""
        ids = sources if isinstance(sources, np.ndarray) else np.fromiter(sources, np.int64)
        ids = np.unique(ids).astype(np.int64, copy=False)
        if not len(ids):
            field = np.full(self.n, UNREACHED, dtype=float)
            field.flags.writeable = False
            return (field, None) if with_sources else field
        self.check_point(ids[0])
        self.check_point(ids[-1])
        if with_sources:
            return dijkstra(self.table, ids, with_sources=True)
        key = ids.tobytes()
        if key in self._field_cache:
            return self._field_cache[key]
        field = dijkstra(self.table, ids)
        field.flags.writeable = False
        if len(self._field_cache) < 64:
            self._field_cache[key] = field
        return field

    def label_gaps(self, labels, field=None):
        """Gaps between labelled point sets (`labels[p]` >= 0, -1 for none;
        at least one point labelled) along their Voronoi boundaries.

        One multi-source BFS labels every reached point by its nearest
        source.  Returns (label of u, label of v, fld[u] + fld[v] + 1) over
        the graph edges (u, v) whose ends get different labels, each edge
        once, from its lower end u; the smallest gap is the least distance
        between two differently labelled points.  A caller that already
        holds `dist_field(labelled points, with_sources=True)` passes it as
        `field`, and no BFS runs.
        """
        labels = np.asarray(labels)
        if field is None:
            field = self.dist_field(np.nonzero(labels >= 0)[0], with_sources=True)
        fld, src = field
        reached = src >= 0
        node_label = np.full(self.n, -1, dtype=np.int64)
        node_label[reached] = labels[src[reached]]
        # the table lists every edge from both ends and a loop never crosses
        u, gen = np.nonzero(self.table > np.arange(self.n)[:, None])
        v = self.table[u, gen]
        lu, lv = node_label[u], node_label[v]
        cross = (lu >= 0) & (lv >= 0) & (lu != lv)
        return lu[cross], lv[cross], fld[u[cross]] + fld[v[cross]] + 1


def dijkstra(table, sources, with_sources=False):
    """Unit-weight distances over the edge table `table` from the nearest of
    `sources` (distinct valid ids, ascending), UNREACHED where no path
    leads; with_sources=True also returns each point's nearest source,
    -9999 where unreached.

    A level-synchronous BFS: each level is one gather of the frontier's
    table rows, keeping the ids not yet reached (a -1 entry reads the
    sentinel slot n, which counts as reached).  A plain field keeps any one
    occurrence of each new id; for sources, the new ids are taken at their
    first occurrence in the rows of the ascending frontier, so each one gets
    the source of its lowest-id neighbour on the level before, and the next
    frontier is ascending again.  (Named after the routine it replaced: the
    bench's traces count BFS runs by this name.)
    """
    n = len(table)
    dist = np.full(n + 1, UNREACHED, dtype=float)
    dist[n] = -1
    dist[sources] = 0
    frontier = sources
    if with_sources:
        src = np.full(n, -9999, dtype=np.int64)
        src[sources] = sources
    else:
        mark = np.empty(n, dtype=np.intp)
    level = 0
    while len(frontier):
        level += 1
        reached = table[frontier].ravel()
        if with_sources:
            pos = np.flatnonzero(dist[reached] == UNREACHED)
            reached, first = np.unique(reached[pos], return_index=True)
            src[reached] = src[frontier[pos[first] // table.shape[1]]]
        else:
            reached = reached[dist[reached] == UNREACHED]
            order = np.arange(len(reached))
            mark[reached] = order
            reached = reached[mark[reached] == order]
        dist[reached] = level
        frontier = reached
    return (dist[:n], src) if with_sources else dist[:n]


def line_metric(points) -> DenseMetric:
    """Metric of integer points on a line; convenience for tests and examples."""
    pts = np.asarray(list(points), dtype=float)
    return DenseMetric(np.abs(pts[:, None] - pts[None, :]), validate=False)


def _sample_triples(n, count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        i, j, k = rng.integers(0, n, size=3)
        yield int(i), int(j), int(k)
