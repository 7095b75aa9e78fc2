"""Constructive cover engine: emits machine-checkable CoverCertificates on
Cayley balls for finite groups, amalgams A *_C B, and right-angled Coxeter
groups, assembled along the partition

    pi^{-1}(K_side) = union of slabs V^u at gate levels {0, L, 2L, ...}
                      plus the central piece N_R(C),

with the boundary web Z = union of D_R^u covered through pushed copies of a
recursively built C-certificate on the reserved top colors, and every slab
covered by the same C-certificate pulled back through the coset decomposition
x = g_u . m . c of its gate ("fiber cylinders": the set of x is decided by
the C-part c).

Certificates record *measured* parameters: the requested scale r fixes the
schedule (R, E, L); the emitted claimed_r is the largest scale at which the
colored families verify (never above the ball's margin, its radius minus the
core radius), and claimed_d is the largest exact word-metric set diameter
(`max_set_diameter`).  A set of largest norm t has diameter <= 2t through the
identity; one eccentricity from the highest point of the largest set of
highest bound seeds the maximum, and only the sets whose bound exceeds it
run the exact bit-parallel BFS on the ball's edge table (`set_diameters`;
Cayley balls are convex).  Verification reads the same maximum with
claimed_d as its floor.  This realizes the d(r) of the (r,d)-dimension
characterization empirically, the only honest option at fixed ball radius.

Without an explicit ball radius the sets are built once on
B(core + max(2, E)) and measured there with the schedule's margin, since
gaps and depths between core points are exact on any ball holding the core
(`measure_certificate`).  The ball then grows straight to
core + max(2, E, ceil(claimed_r)), the least radius whose margin holds the
claim; ball ids are BFS order, so the sets carry over.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .amalgam import (
    AmalgamContext,
    RacgAmalgam,
    TableAmalgam,
    prepare,
    split_by_gate,
)
from .covers import Cover, cover_order
from .errors import (
    InputError,
    OutOfBallError,
    PreconditionError,
    SchedulingError,
)
from .groups import DEFAULT_BALL_CAP, Ball, build_ball, projected_ball_size
from .metric import GraphMetric

# bytes of one `set_diameters` block: its reach bitsets and two temporaries
DIAMETER_BLOCK_BYTES = 64 << 20
# sets of at most this many points share `set_diameters` blocks
PACKED_BLOCK_SOURCES = 256


# ---------------------------------------------------------------------------
# measurement primitives (graph fields on the ball)


def color_gap(sets, metric: GraphMetric):
    """Exact minimal distance between distinct sets of one family."""
    sets = [s for s in sets if s]
    if len(sets) <= 1:
        return math.inf
    labels = np.full(metric.n, -1, dtype=np.int64)
    for idx, s in enumerate(sets):
        labels[list(s)] = idx
    _, _, gaps = metric.label_gaps(labels)
    return float(gaps.min()) if len(gaps) else math.inf


def color_depth_floor(sets, metric: GraphMetric, carrier_mask, cap, gap):
    """min over sets of max over points of d(x, carrier \\ U), truncated at cap.

    Sets of one color are disjoint, so d(x, carrier \\ U) is the smaller of
    the distance to the color's uncovered carrier part and the distance to
    the other sets (at least `gap`, the color's `color_gap`).  Values are
    reported capped, which keeps every quantity inside the ball's exactness
    regime.
    """
    union_mask = np.zeros(metric.n, dtype=bool)
    for s in sets:
        union_mask[list(s)] = True
    outside = np.nonzero(carrier_mask & ~union_mask)[0].tolist()
    if not outside and len(sets) <= 1:
        return math.inf  # a whole-carrier set is unboundedly deep
    fld = metric.dist_field(outside)  # UNREACHED everywhere when empty
    floor = math.inf
    for s in sets:
        floor = min(floor, float(fld[list(s)].max()), gap, cap)
    return floor


def set_diameters(ball: Ball, sets):
    """Exact word-metric diameter of every set of ball ids, as floats.

    One bit-parallel BFS per block of sources: bit j of `reach[x]` says that
    source j has reached x, and a step ORs every row with the rows of its
    table neighbours.  A set's value is the first step at which each of its
    sources has reached each of its points, which is the largest graph
    distance between two of its points.  Sets of at most
    PACKED_BLOCK_SOURCES points share blocks, each set bringing all of its
    points as sources.  A larger set gets blocks of its own, one sphere of
    its points at a time, highest norm first, each block holding a slice of
    the sphere; its value is the largest over its blocks.  Before each
    block it stops once that value is at least 2t, t the highest norm left:
    two points of norm <= t are at most 2t apart through the identity, and
    every pair with a processed endpoint is counted already (the pruning of
    iFUB, Crescenzi et al., TCS 2013).  The BFS runs on the smallest ball
    B(rho) holding every set (`Ball.inner_table`).

    Graph distance inside B(rho) equals word distance between points of
    B(rho) (Cayley balls are convex).  A path in the ball spells a word, so
    the graph distance is never below the word distance; equality needs a
    geodesic from x to y whose norms stay <= max(|x|, |y|).
    * RACG: the Cayley graph is a median graph (Chepoi 2000; Niblo-Reeves
      2003).  The median m of e, x, y lies on geodesics from e to x, from
      e to y and from x to y.  Walk x -> m backwards along a geodesic
      e -> m -> x and then m -> y along e -> m -> y: norms are distances
      from e along geodesics from e, so they stay <= max(|x|, |y|).
    * A *_C B with every non-identity factor element a generator: |x| is
      the number k of syllables of the normal form z_1...z_k c.  Let
      x_i = z_1...z_i be the prefixes of x and y_i those of y, and j the
      length of the longest common prefix.  Walk x -> x_{k-1} -> ... ->
      x_j = y_j -> ... -> y, one factor element per step, and merge the
      two steps around x_j into one when z_{j+1} and w_{j+1} lie in one
      factor.  The step count is the syllable count of x^-1 y, so the walk
      is a geodesic, and every point on it is a prefix of x or of y.
    * A finite group's closed ball is its whole Cayley graph.

    The same argument bounds the ball `cover_amalgam` builds its sets on.
    For x beyond a gate u, the level field is d(x, g_u C) in any ball
    holding x, because a nearest point p of g_u C has |p| <= |x|: in a table
    amalgam all of g_u C has the norm of g_u; in a RACG a geodesic from e to
    x meets g_u C in some q, g_u is the least element of its coset, and the
    gate property of the coset, d(x, q) = d(x, p) + d(p, q), gives
    |x| >= |p| + d(x, p).  So every field a core point reads is exact on
    any ball holding the core, except one: a core point joins the E-collar
    of a web point (level field R beyond an admitted gate) within distance
    E, and that web point may lie past the core, up to norm core + E.  In a
    table amalgam every web point of a level-l gate has norm l + R, and an
    admitted gate has one of norm <= core - E, so no collar leaves the
    core.  A RACG coset g_u C with C infinite reaches past norm |g_u|, so
    collars do: this is why the 5-cycle sets (E = 1) change at ball = core
    and not at core + 1.  B(core + max(2, E)) holds every web point a
    collar reads.  Only `_merge_close_webs` compares webs anywhere in the
    ball; its groups on B(core + 2) equal those on the schedule's full
    margin for every bench cover (tests/test_builder.py).

    The block width comes from DIAMETER_BLOCK_BYTES, so a block's memory is
    bounded whatever the set size; shared blocks are no wider.
    """
    sets = [np.fromiter(s, dtype=np.int64, count=len(s)) for s in sets]
    rho = max((int(ball.norms[s].max()) for s in sets if len(s)), default=0)
    return _set_diameters(ball, np.ascontiguousarray(ball.inner_table(rho).T), rho, sets)


def _set_diameters(ball: Ball, nbr, rho, sets):
    """`set_diameters` of id arrays on `nbr`, the edge table of B(rho) as
    one neighbour column per generator, rho at least every set's norm."""
    n = nbr.shape[1]
    width = 64 * max(1, DIAMETER_BLOCK_BYTES // (3 * 8 * (n + 1)))
    packed = min(PACKED_BLOCK_SOURCES, width)
    out = [0.0] * len(sets)
    block = []  # (set index, sources, targets) of the shared block being filled

    def run(block):
        steps = _block_eccentricities(nbr, [(src, dst) for _, src, dst in block], 2 * rho)
        for (i, _, _), step in zip(block, steps):
            out[i] = max(out[i], float(step))

    for i, s in enumerate(sets):
        if len(s) <= 1:
            continue
        if len(s) > packed:
            # blocks within spheres, highest norm first; the first source of
            # a block has the highest norm left
            s = np.sort(s)
            spheres = np.split(s, np.flatnonzero(np.diff(ball.norms[s])) + 1)[::-1]
            blocks = (sph[a : a + width] for sph in spheres for a in range(0, len(sph), width))
            for sources in blocks:
                if out[i] >= 2 * int(ball.norms[sources[0]]):
                    break
                run([(i, sources, s)])
            continue
        if sum(len(src) for _, src, _ in block) + len(s) > packed:
            run(block)
            block = []
        block.append((i, s, s))
    if block:
        run(block)
    return out


def _block_eccentricities(nbr, groups, limit):
    """For each (sources, targets) group, the first step of one bit-parallel
    BFS from all groups' sources at which every source of the group has
    reached every target of the group.  `nbr[g]` is the neighbour column of
    generator g, -1 outside the ball; -1 wraps to row n of the bitsets, the
    empty sentinel.  Any two points of B(rho) meet through the identity
    within 2 rho steps, so `limit` = 2 rho ends the loop."""
    k, n = nbr.shape
    ends = np.cumsum([len(src) for src, _ in groups])
    bits = np.arange(ends[-1])
    w = -(-len(bits) // 64)
    one = np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64))
    reach = np.zeros((n + 1, w), dtype=np.uint64)
    # groups may share a source, so its row gets their bits by OR
    np.bitwise_or.at(reach, (np.concatenate([src for src, _ in groups]), bits >> 6), one)
    # want[i]: the bits of group i, which each of its targets must reach
    owner_of_bit = np.searchsorted(ends, bits, side="right")
    want = np.zeros((len(groups), w), dtype=np.uint64)
    np.bitwise_or.at(want, (owner_of_bit, bits >> 6), one)
    rows = np.concatenate([dst for _, dst in groups])
    owner = np.repeat(np.arange(len(groups)), [len(dst) for _, dst in groups])
    steps_of = np.zeros(len(groups), dtype=np.int64)
    open_groups = np.ones(len(groups), dtype=bool)
    grown = np.zeros((n + 1, w), dtype=np.uint64)
    row = np.empty((n, w), dtype=np.uint64)
    for steps in range(limit + 1):
        # a lone group (a slice of a large set) broadcasts its row of `want`
        need = want[owner] if len(groups) > 1 else want
        short = (need & ~reach[rows]).any(axis=1)
        rows, owner = rows[short], owner[short]
        done = open_groups.copy()
        done[owner] = False
        steps_of[done] = steps
        open_groups &= ~done
        if not open_groups.any():
            return steps_of.tolist()
        # mode="wrap" sends -1 to the sentinel row and skips the bounds check
        np.take(reach, nbr[0], axis=0, out=row, mode="wrap")
        np.bitwise_or(reach[:n], row, out=grown[:n])
        for g in range(1, k):
            np.take(reach, nbr[g], axis=0, out=row, mode="wrap")
            grown[:n] |= row
        reach, grown = grown, reach
    raise AssertionError("a set is not connected inside its ball")


def max_set_diameter(ball: Ball, sets, floor=0.0):
    """max(floor, the largest exact word-metric diameter of the sets), as a
    float, for a floor >= 0, running a BFS only for the sets that can
    change it.

    * Bound: a set whose largest norm is t has diameter <= 2t, since two of
      its points meet through the identity inside B(t).  A set whose bound
      is at most the best value so far needs no BFS.
    * Seed: with floor 0, the best value starts at one eccentricity: that of
      the highest-norm point of the largest set of highest bound, within
      its set (one source, one BFS).  It is a diameter's lower bound.
    * Exact pass: the sets whose bound is above the best value then go
      through `set_diameters`' blocks, on the same table as the seed.

    On the bench's RACG covers (5-cycle, path-4 at r 4, 8, 12) the seed
    reaches twice the core radius, which no bound exceeds, so no set of
    the top certificate needs the exact pass.  Table-amalgam sets rarely
    prune: on Z2*Z3 at r 16 the bounds are 32 and 42 against a largest
    diameter of 31, and every set goes through the exact pass.
    """
    sets = [np.fromiter(s, dtype=np.int64, count=len(s)) for s in sets if len(s) > 1]
    # ids are BFS order, so a set's largest id has its largest norm
    bounds = [2 * int(ball.norms[s.max()]) for s in sets]
    best = float(floor)
    if not sets or best >= max(bounds):
        return best
    rho = max(bounds) // 2
    nbr = np.ascontiguousarray(ball.inner_table(rho).T)
    if not floor:
        seed = sets[max(range(len(sets)), key=lambda i: (bounds[i], len(sets[i])))]
        (ecc,) = _block_eccentricities(nbr, [(seed[seed.argmax()][None], seed)], 2 * rho)
        best = float(ecc)
    left = [s for s, bound in zip(sets, bounds) if bound > best]
    return max([best, *_set_diameters(ball, nbr, rho, left)])


def algebraic_diameter(elements, engine):
    """Word-metric diameter of a set of elements by exact pairwise word
    arithmetic: the reference `set_diameters` is tested against."""
    pts = list(elements)
    best = 0
    for i, x in enumerate(pts):
        xi = engine.inverse(x)
        for y in pts[i + 1 :]:
            best = max(best, engine.norm(engine.multiply(xi, y)))
    return float(best)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class CoverCertificate:
    backend: str
    requested_r: int
    claimed_r: float
    claimed_d: float
    n: int
    cover: Cover
    carrier: list
    ball: Ball
    core_radius: int
    trace: dict

    @property
    def n_colors(self):
        return self.cover.n_colors

    @property
    def margin(self):
        return self.ball.radius - self.core_radius

    def to_json(self):
        colors = []
        for c in range(self.cover.n_colors):
            fam = [sorted(int(i) for i in s) for s in self.cover.family(c)]
            colors.append({"sets": fam})
        return {
            "backend": self.backend,
            "r": None if math.isinf(self.claimed_r) else self.claimed_r,
            "requested_r": self.requested_r,
            "d": self.claimed_d,
            "n": self.n,
            "colors": colors,
            "ball": {
                "radius": int(self.ball.radius),
                "core_radius": int(self.core_radius),
            },
            "trace": self.trace,
        }


def carrier_metric(cert: CoverCertificate) -> GraphMetric:
    """The graph metric of B(rho), the least ball holding the carrier and
    every set, rho their largest norm.  Gaps and depths are distances
    between points of B(rho), and B(rho) is convex (`set_diameters`), so
    they are the word distances the whole ball would give."""
    norms = cert.ball.norms
    parts = [cert.carrier, *cert.cover.sets]
    rho = max((int(norms[list(s)].max()) for s in parts if s), default=0)
    return cert.ball.graph_metric(rho)


def measure_certificate(cert: CoverCertificate, margin=None):
    """Fill claimed_r / claimed_d from the constructed sets.

    claimed_r = min(family gaps, depth floor - 1, margin), with the depth of
    each point capped at margin + 1; `margin` defaults to the ball's, its
    radius minus the core radius.  Gaps and depths are graph distances
    between carrier points, read on the carrier's ball (`carrier_metric`),
    which equal word distances in any ball holding the carrier (Cayley
    balls are convex, `set_diameters`).  So claimed_r measured with a
    margin M above the ball's gives, for every m <= M, the claimed_r of the
    same sets on B(core + m): the smaller of it and m.  claimed_d does not
    depend on the ball either.
    """
    metric = carrier_metric(cert)
    carrier_mask = np.zeros(metric.n, dtype=bool)
    carrier_mask[list(cert.carrier)] = True
    margin = float(cert.margin if margin is None else margin)
    gap_all = math.inf
    depth_all = math.inf
    for color in range(cert.cover.n_colors):
        fam = cert.cover.family(color)
        gap = color_gap(fam, metric)
        gap_all = min(gap_all, gap)
        depth_all = min(depth_all, color_depth_floor(fam, metric, carrier_mask, margin + 1, gap))
    claimed = min(gap_all, depth_all - 1, margin)
    cert.claimed_r = max(0.0, claimed if not math.isinf(claimed) else margin)
    cert.claimed_d = max_set_diameter(cert.ball, cert.cover.sets)
    return cert


@dataclass
class CertificateReport:
    covers: bool
    colors_ok: bool
    disjoint_ok: bool
    order_ok: bool
    order: int
    lebesgue_ok: bool
    diameter_ok: bool
    witness: object = None

    @property
    def passed(self):
        return (
            self.covers
            and self.colors_ok
            and self.disjoint_ok
            and self.order_ok
            and self.lebesgue_ok
            and self.diameter_ok
        )

    def lines(self):
        yield f"covers carrier: {'pass' if self.covers else 'FAIL'}"
        yield f"color count <= n+1: {'pass' if self.colors_ok else 'FAIL'}"
        yield f"colors r-disjoint at claimed_r: {'pass' if self.disjoint_ok else 'FAIL'}"
        yield f"order <= n+1: {'pass' if self.order_ok else 'FAIL'} (order={self.order})"
        yield f"Lebesgue > claimed_r: {'pass' if self.lebesgue_ok else 'FAIL'}"
        yield f"diameters <= claimed_d: {'pass' if self.diameter_ok else 'FAIL'}"


def verify_certificate(cert: CoverCertificate) -> CertificateReport:
    """Re-check of the certificate claims by the builder's measurement code.

    Covering, color budget and order are exact; disjointness and depth are
    re-measured by the BFS-field method on the carrier's ball (exact within
    the margin regime the claims are confined to); diameters are
    re-measured by `max_set_diameter` with claimed_d as its floor: a set
    whose norm bound is at most claimed_d runs no BFS, and the others run
    the exact `set_diameters`, so 'b <= d' is checked against the word
    metric.
    """
    covered = cert.cover.union()
    missing = [x for x in cert.carrier if x not in covered]

    metric = carrier_metric(cert)
    carrier_mask = np.zeros(metric.n, dtype=bool)
    carrier_mask[list(cert.carrier)] = True
    cap = cert.margin + 1
    disjoint = True
    depth_all = math.inf
    for color in range(cert.cover.n_colors):
        fam = cert.cover.family(color)
        if fam and sum(len(s) for s in fam) != len(set().union(*fam)):
            disjoint = False  # overlapping same-color sets: distance 0
            continue
        gap = color_gap(fam, metric)
        if gap < cert.claimed_r:
            disjoint = False
        depth_all = min(depth_all, color_depth_floor(fam, metric, carrier_mask, cap, gap))

    order, order_w = cover_order(cert.cover, cert.carrier)

    diam_ok = max_set_diameter(cert.ball, cert.cover.sets, floor=cert.claimed_d) <= cert.claimed_d

    return CertificateReport(
        covers=not missing,
        colors_ok=cert.cover.n_colors <= cert.n + 1,
        disjoint_ok=disjoint,
        order_ok=order <= cert.n + 1,
        order=order,
        lebesgue_ok=depth_all > cert.claimed_r,
        diameter_ok=diam_ok,
        witness=missing[0] if missing else order_w,
    )


# ---------------------------------------------------------------------------
# base case


def cover_finite_group(engine, r, name=None, cap=DEFAULT_BALL_CAP) -> CoverCertificate:
    """A finite group is a bounded space: one color, one set, any scale.

    The ball of radius `cap` is the whole group when the group fits the cap
    (its exact size is checked before it is enumerated, `build_ball`), and
    takes its largest norm, the group's diameter, as its radius."""
    ball = build_ball(engine, cap, cap)
    ball.radius = int(ball.norms[-1])
    carrier = list(range(len(ball)))
    cover = Cover(sets=[frozenset(carrier)], colors=[0])
    cert = CoverCertificate(
        backend=name or f"finite-group({len(ball)})",
        requested_r=r,
        claimed_r=0.0,
        claimed_d=0.0,
        n=0,
        cover=cover,
        carrier=carrier,
        ball=ball,
        core_radius=ball.radius,
        trace={"op": "cover_finite_group", "size": len(ball), "r": r},
    )
    measure_certificate(cert)
    # single whole-carrier set: Lebesgue unbounded, any requested scale holds
    cert.claimed_r = float(r)
    return cert


# ---------------------------------------------------------------------------
# schedule


@dataclass
class Schedule:
    r: int
    R: int
    E: int
    L: int
    core: int
    margin: int

    def to_json(self):
        return {
            "r": self.r,
            "R": self.R,
            "E": self.E,
            "L": self.L,
            "core_radius": self.core,
            "margin": self.margin,
        }


def make_schedule(r, min_core=0, R_override=None):
    if r < 2:
        raise InputError("cover scale r must be >= 2")
    if R_override is not None:
        if R_override < 1:
            raise PreconditionError("boundary thickness R must be >= 1")
        if r <= 4 * R_override:
            raise PreconditionError(
                f"schedule requires r > 4R (r={r}, R={R_override})"
            )
        R = R_override
    else:
        R = max(1, math.ceil(r / 4) - 1)
    # collar width balancing collar depth (E+1) against same-level web gaps
    # (2R + 2 - 2E)
    E = max(1, (2 * R + 1) // 3)
    L = max(r, 4 * R + 2)
    if L % 2:
        L += 1
    core = max(L + R + E, min_core)
    margin = max(3, E + 2, min(2 * R + 3, 8))
    return Schedule(r=r, R=R, E=E, L=L, core=core, margin=margin)


def _grow_ball(cert: CoverCertificate, cap):
    """Move `cert` from the ball its sets were built on to the least ball
    whose margin holds its claimed_r, or to the largest smaller one whose
    exact size fits the cap (`projected_ball_size`), built once.  Ball ids
    are BFS order, so the sets carry over.  Held below its claim by the cap,
    claimed_r falls to the margin of the ball kept (`measure_certificate`)."""
    first, engine = cert.ball, cert.ball.engine
    for radius in range(cert.core_radius + math.ceil(cert.claimed_r), first.radius, -1):
        if projected_ball_size(engine, radius, cap) <= cap:
            grown = build_ball(engine, radius, cap)
            _check_prefix(first, grown)
            cert.ball = grown
            break
    cert.claimed_r = min(cert.claimed_r, float(cert.margin))


def _check_prefix(ball: Ball, grown: Ball):
    """The sets of `ball` carry over to `grown` only if its first len(ball)
    ids are the same elements with the same in-ball edges: the same parent
    and letter columns, which spell each element, and the same table."""
    n = len(ball)
    spelled = all(
        np.array_equal(getattr(grown, column)[:n], getattr(ball, column))
        for column in ("parent", "letter")
    )
    if not spelled or not np.array_equal(grown.inner_table(ball.radius), ball.table):
        raise AssertionError(
            f"the radius-{grown.radius} ball does not extend the "
            f"radius-{ball.radius} ball id for id"
        )


def c_ball_ids(ctx: AmalgamContext, ball: Ball, c_ball: Ball, ids):
    """The `c_ball` id of each element of C among the ball's `ids`, -1
    outside `c_ball`: C's edge table walked along the element's word, read
    up the parent column.  That word is geodesic, so each of its letters is
    a generator of C (`ctx.c_generators`): in a table amalgam an element of
    C - {1} is one letter, and in a RACG all reduced words of an element use
    the same letters, since commutations link them (Tits), so those of an
    element of a parabolic subgroup are its letters."""
    c_gen = ctx.c_generators()
    found = {0: 0}

    def walk(i):
        path = []
        while i not in found:
            path.append(i)
            i = int(ball.parent[i])
        x = found[i]
        for j in reversed(path):
            g = c_gen[ball.letter[j]]
            if g < 0:
                raise AssertionError("a C-part's word leaves C")
            x = int(c_ball.table[x, g]) if x >= 0 else -1
            found[j] = x
        return x

    return np.array([walk(i) for i in ids.tolist()], dtype=np.int64)


def _certificate_with_floor(make_cert, min_scale):
    """Scheduling loop: try up to eight rising requested scales until the
    measured claimed_r reaches the floor an enclosing construction needs.
    claimed_r never exceeds the schedule's margin, the cap `cover_amalgam`
    measures it with, so a scale whose margin is below the floor is skipped
    unbuilt."""
    r_try = max(4, 4 * math.ceil(min_scale))
    best = -math.inf
    for _ in range(8):
        if make_schedule(r_try).margin >= min_scale:
            cert = make_cert(r_try)
            if cert.claimed_r >= min_scale:
                return cert
            best = max(best, cert.claimed_r)
        r_try += max(4, r_try // 2)
        r_try += r_try % 2
    raise SchedulingError(
        f"inner-scale certificate unavailable: needed claimed_r >= {min_scale}, "
        f"best was {best}"
    )


def _c_certificate(ctx: AmalgamContext, min_scale, min_core, cap):
    """Certificate for C at the needed inner scale and carrier radius.

    C is finite for table amalgams and for a RACG split whose K spans a
    simplex; otherwise it is the RACG on K (`ctx.c_engine`, the restriction
    to K), covered recursively."""
    if not isinstance(ctx, (TableAmalgam, RacgAmalgam)):
        raise InputError("unknown amalgam backend")
    c = ctx.c_engine
    if isinstance(ctx, TableAmalgam) or all(
        c.matrix[i][j] == 2 for i in range(c.rank) for j in range(c.rank) if i != j
    ):
        return cover_finite_group(c, max(2, math.ceil(min_scale)), name="C", cap=cap)
    from .coxeter import CoxeterSystem

    cox = CoxeterSystem(c.matrix, names=c.names)

    def make(r_try):
        return cover_racg(cox, r_try, cap=cap, min_core=min_core)

    return _certificate_with_floor(make, min_scale)


def _merge_close_webs(metric, web_ids, anc_lvl, threshold, field):
    """Union-find gates whose level webs are closer than the threshold.

    Web distances come from `GraphMetric.label_gaps` with each web point
    labelled by its gate, as in color_gap, on the web's own
    `dist_field(web_ids, with_sources=True)` passed as `field`.  Returns an
    array mapping each gate to its group root, the member gate with the
    smallest id.
    """
    labels = np.full(metric.n, -1, dtype=np.int64)
    labels[web_ids] = anc_lvl[web_ids]
    gates = sorted(set(labels[web_ids].tolist()))
    parent = {g: g for g in gates}

    def find(g):
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    label_u, label_v, gaps = metric.label_gaps(labels, field=field)
    close = gaps <= threshold
    for a, b in zip(label_u[close].tolist(), label_v[close].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.arange(metric.n)
    root[gates] = [find(g) for g in gates]
    return root


# ---------------------------------------------------------------------------
# the main assembly (Theorem 2.1)


def cover_amalgam(
    ctx: AmalgamContext,
    r,
    ball_radius=None,
    cap=DEFAULT_BALL_CAP,
    min_core=0,
    R_override=None,
) -> CoverCertificate:
    """Certificate for A *_C B on a ball core via the partition assembly.

    Steps: (1) schedule (R, E, L) from r; build the ball and dual graph;
    (2) carve the core into the central blob N_{R+E}(C), E-collars around the
    boundary webs D_R^u at the gate levels, and the trimmed slabs V^u;
    (3) recursive C-certificate at the measured inner scale; (4) split every
    region by the C-part of the gate coset decomposition x = g_u m c, read
    from `AmalgamBall.c_part` (`gate_tail` is only the tests' reference),
    sending collar material to the reserved top colors and slab material to
    the bottom colors; (5) measure (claimed_r, claimed_d) and re-verify.
    """
    n_a, n_b, n_c = ctx.factor_dims()
    n = max(n_a, n_b, n_c + 1)
    schedule = make_schedule(r, min_core=min_core, R_override=R_override)
    R, E, L = schedule.R, schedule.E, schedule.L

    grow = ball_radius is None
    if grow:
        # the collars read web points up to norm core + E (`set_diameters`)
        ball_radius = schedule.core + max(2, E)
    elif ball_radius < schedule.core + 2:
        raise InputError(
            f"ball radius {ball_radius} below schedule core {schedule.core} + 2"
        )
    ab = prepare(ctx, ball_radius, core_radius=schedule.core, cap=cap)
    dual, metric = ab.dual, ab.metric
    core = ab.core_mask()
    sides = ab.side_of_elements()

    # per-level fields; for x beyond a level-lvl gate the field equals the
    # distance to x's own gate coset (`AmalgamBall.level_field`)
    base = dual.base()
    gate_levels = list(range(0, min(schedule.core, int(dual.level.max())) + 1, L))
    fields, anc = {}, {}
    for lvl in gate_levels:
        fields[lvl], anc[lvl] = ab.level_field(lvl)
    top_level = gate_levels[-1]

    assigned = np.zeros(ab.n, dtype=bool)
    regions = []  # (kind, ids, [(gate, ids of the gate)]), gates of one web group

    blob_ids = np.nonzero(core & (fields[0] <= R + E))[0]
    assigned[blob_ids] = True
    regions.append(("collar", blob_ids, [(base, blob_ids)]))

    # web collars per positive gate level.  Translates around sibling gates
    # sit at distance exactly 2R, so webs closer than 2E+2 are merged into
    # one collar set; distinct groups then keep their E-neighborhoods whole,
    # which guarantees collar depth E+1.  Gates whose web never reaches norm
    # core - E would leave truncation slivers: they are not admitted, and
    # the slab below flows past them instead.
    admitted = {}
    for lvl in gate_levels[1:]:
        beyond = anc[lvl] >= 0
        web_mask = (fields[lvl] == R) & beyond
        deep_enough = web_mask & (ab.ball.norms <= schedule.core - E)
        ok_gates = set(int(g) for g in np.unique(anc[lvl][deep_enough]) if g >= 0)
        admitted[lvl] = ok_gates
        web_mask &= np.isin(anc[lvl], sorted(ok_gates))
        web_ids = np.nonzero(web_mask)[0]
        if not len(web_ids):
            continue
        cfld, csrc = metric.dist_field(web_ids, with_sources=True)
        root = _merge_close_webs(
            metric, web_ids, anc[lvl], 2 * E + 1, (cfld, csrc)
        )
        near = (cfld <= E) & (csrc >= 0)
        region = near
        if lvl == top_level:
            # the outermost collar absorbs everything beyond its web up to
            # the core edge, so truncation never produces sliver slabs
            region = near | (fields[lvl] >= R) & np.isin(anc[lvl], sorted(ok_gates))
        take = np.nonzero(core & ~assigned & region)[0]
        assigned[take] = True
        # a point near the web goes with its nearest web point's gate
        gate = anc[lvl].copy()
        gate[near] = anc[lvl][csrc[near]]
        for _, ids in split_by_gate(take, root[gate]):
            regions.append(("collar", ids, split_by_gate(ids, gate)))

    # slabs per gate level, trimmed by everything already claimed
    for lvl in gate_levels:
        nxt = lvl + L
        if nxt in fields and admitted.get(nxt):
            strictly_beyond_next = (fields[nxt] > R) & np.isin(
                anc[nxt], sorted(admitted[nxt])
            )
        else:
            strictly_beyond_next = np.zeros(ab.n, dtype=bool)
        mask = (fields[lvl] >= R) & (anc[lvl] >= 0) & ~strictly_beyond_next
        take = np.nonzero(mask & core & ~assigned)[0]
        assigned[take] = True
        # one slab per gate and side: the base gates both sides of K
        for gate, ids in split_by_gate(take, anc[lvl]):
            regions += [("slab", part, [(gate, part)]) for _, part in split_by_gate(ids, sides)]

    uncovered = np.nonzero(core & ~assigned)[0]
    if len(uncovered):
        raise AssertionError(
            f"region assembly left {len(uncovered)} core points unassigned"
        )

    # x = g_u m c: |m| = |rep(v)| - |rep(u)|, c = `c_part`, C's norm the ball's.
    # A collar point is beyond its gate u too: other branches are > R from u's web.
    rep_norm = ab.ball.norms[dual.fiber_order[dual.fiber_start[:-1]]]
    max_m_norm = max(
        int((rep_norm[dual.vertex_of_element[ids]] - rep_norm[u]).max())
        for *_, parts in regions
        for u, ids in parts
    )
    c_part = ab.c_part()
    tails = np.unique(c_part[np.concatenate([ids for _, ids, _ in regions])])
    max_c_norm = int(ab.ball.norms[tails].max())

    inner_scale = (2 * R + 2) + 2 * max_m_norm + 2
    c_cert = _c_certificate(ctx, inner_scale, min_core=max_c_norm + 2, cap=cap)
    if c_cert.core_radius < max_c_norm:
        raise OutOfBallError(
            "C-certificate carrier smaller than the observed tail norms",
            needed_radius=max_c_norm,
        )

    # each C-part's first C-certificate set, in certificate order
    c_sets, c_colors = c_cert.cover.sets, c_cert.cover.colors
    first_set = np.full(len(c_cert.ball) + 1, -1, dtype=np.int64)  # [-1] is read for -1
    for j in reversed(range(len(c_sets))):
        first_set[sorted(c_sets[j])] = j
    set_of = np.full(ab.n, -1, dtype=np.int64)  # by C-part id, then by point
    set_of[tails] = first_set[c_ball_ids(ctx, ab.ball, c_cert.ball, tails)]
    if (set_of[tails] < 0).any():
        raise OutOfBallError("C-certificate misses a tail element")
    set_of = set_of[c_part]

    sets, colors, set_tags = [], [], []
    for kind, ids, parts in regions:
        gate_list = [int(u) for u, _ in parts]
        groups = split_by_gate(ids, set_of)
        for j, members in sorted(groups, key=lambda group: (c_colors[group[0]], group[0])):
            c_color = c_colors[j]
            color = (n - n_c + c_color) if kind == "collar" else c_color
            sets.append(frozenset(members.tolist()))
            colors.append(color)
            set_tags.append(
                {
                    "kind": kind,
                    "gates": gate_list,
                    "gate_level": min(int(dual.level[u]) for u in gate_list),
                    "c_color": int(c_color),
                    "c_set": c_colors[:j].count(c_color),
                    "size": len(members),
                }
            )

    carrier = sorted(np.nonzero(core)[0].tolist())
    cert = CoverCertificate(
        backend=ctx.name,
        requested_r=r,
        claimed_r=0.0,
        claimed_d=0.0,
        n=n,
        cover=Cover(sets=sets, colors=colors),
        carrier=carrier,
        ball=ab.ball,
        core_radius=schedule.core,
        trace={
            "op": "cover_amalgam",
            "backend": ctx.name,
            "n": n,
            "factor_dims": [n_a, n_b, n_c],
            "schedule": schedule.to_json(),
            "inner_scale": inner_scale,
            "max_m_norm": max_m_norm,
            "c_certificate": c_cert.trace,
            "sets": set_tags,
        },
    )
    if grow:
        # claimed_r of the schedule's whole margin, read on the first ball
        measure_certificate(cert, margin=schedule.margin)
        _grow_ball(cert, cap)
    else:
        measure_certificate(cert)
    cert.trace["ball_radius"] = int(cert.ball.radius)
    return cert


# ---------------------------------------------------------------------------
# Theorem 3.1 recursion


def cover_racg(
    cox, r, ball_radius=None, cap=DEFAULT_BALL_CAP, min_core=0, R_override=None
) -> CoverCertificate:
    """Certificate for a right-angled Coxeter group: simplex nerves are finite
    base cases; otherwise split along the first eligible star/link and
    delegate to the amalgam assembly."""
    from .coxeter import CoxeterSystem, star_link_split

    if not isinstance(cox, CoxeterSystem):
        cox = CoxeterSystem(cox)
    cox.require_right_angled()
    split = star_link_split(cox.commutation_graph())
    if split is None:
        cert = cover_finite_group(
            cox.engine(), r, name=f"racg({','.join(cox.names)})", cap=cap
        )
        cert.trace["op"] = "cover_racg"
        cert.trace["nerve"] = "simplex"
        return cert
    v, star, link, rest = split
    pos = {name: i for i, name in enumerate(cox.names)}
    ctx = RacgAmalgam(
        cox.engine(),
        n1=[pos[x] for x in star],
        knk=[pos[x] for x in link],
        n2=[pos[x] for x in rest],
        name=f"racg({','.join(cox.names)})@{v}",
    )
    cert = cover_amalgam(
        ctx, r, ball_radius=ball_radius, cap=cap, min_core=min_core, R_override=R_override
    )
    cert.trace = {
        "op": "cover_racg",
        "split_vertex": v,
        "n1": list(star),
        "k": list(link),
        "n2": list(rest),
        "amalgam": cert.trace,
    }
    return cert


def certificate_json_str(cert: CoverCertificate) -> str:
    return json.dumps(cert.to_json(), indent=2, sort_keys=True) + "\n"
