"""Covers of finite metric spaces: order, Lebesgue number, diameter, the
(r, d)-cover check and neighborhood extension.

Conventions (fixed project-wide):

* the Lebesgue number is the literal inf-sup quantity
  L(U) = inf_U sup_x d(x, X \\ U), evaluated over the finite carrier;
* a family containing a set equal to the whole carrier has L = +inf,
  reported as the distinguished value UNBOUNDED;
* the order of a cover is the point order: the maximal number of sets
  through one point (equal to 1 + dim of the nerve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, PreconditionError
from .metric import UNREACHED, FiniteMetric

UNBOUNDED = math.inf


@dataclass
class Cover:
    """A colored family of point-id subsets.

    `colors[i]` is the color (family index) of `sets[i]`; a plain uncolored
    family uses color 0 everywhere.
    """

    sets: list
    colors: list = None

    def __post_init__(self):
        self.sets = [frozenset(s) for s in self.sets]
        if self.colors is None:
            self.colors = [0] * len(self.sets)
        if len(self.colors) != len(self.sets):
            raise InputError("one color per set required")
        for s in self.sets:
            if not s:
                raise InputError("cover sets must be non-empty")

    @property
    def n_colors(self):
        return max(self.colors) + 1 if self.sets else 0

    def family(self, color):
        return [s for s, c in zip(self.sets, self.colors) if c == color]

    def union(self):
        out = set()
        for s in self.sets:
            out |= s
        return out


def cover_order(cover: Cover, carrier):
    """Max number of cover sets through a single carrier point, with witness:
    the first carrier point that reaches the max (None when it is 0).  Point
    ids are non-negative ints; one bincount over every set's ids counts the
    sets through each point."""
    carrier = list(carrier)
    if not carrier or not cover.sets:
        return 0, None
    ids = np.concatenate([np.fromiter(s, dtype=np.int64, count=len(s)) for s in cover.sets])
    counts = np.bincount(ids, minlength=max(carrier) + 1)[carrier]
    i = int(np.argmax(counts))
    return (int(counts[i]), carrier[i]) if counts[i] else (0, None)


def _require_covering(cover: Cover, carrier):
    covered = cover.union()
    for x in carrier:
        if x not in covered:
            raise PreconditionError(f"point {x} not covered", witness=x)


def lebesgue_number(cover: Cover, m: FiniteMetric, carrier):
    """The paper's L(U) = inf over sets of the deepest point's distance to the
    complement taken within the carrier; +inf when a set is the whole carrier."""
    carrier = sorted(set(carrier))
    if not cover.sets:
        raise InputError("Lebesgue number of an empty cover")
    _require_covering(cover, carrier)
    best = UNBOUNDED
    witness = None
    carrier_set = set(carrier)
    for i, s in enumerate(cover.sets):
        complement = sorted(carrier_set - s)
        if not complement:
            continue  # d(x, empty) = +inf: this set never attains the inf
        field = m.dist_field(complement)
        depth = max(field[x] for x in carrier)
        depth = UNBOUNDED if depth >= UNREACHED else float(depth)
        if depth < best:
            best, witness = depth, i
    return best, witness


def diameter_bound(cover: Cover, m: FiniteMetric):
    """b(U) = max over sets of the max pairwise distance inside the set."""
    best, witness = 0.0, None
    for i, s in enumerate(cover.sets):
        d = m.diam(sorted(s))
        if d > best:
            best, witness = d, i
    return best, witness


@dataclass
class RdVerdict:
    """Outcome of the (r, d)-cover check: ord <= n+1, L > r, b <= d."""

    order_ok: bool
    order: int
    order_witness: object
    lebesgue_ok: bool
    lebesgue: float
    lebesgue_witness: object
    diameter_ok: bool
    diameter: float
    diameter_witness: object

    @property
    def passed(self):
        return self.order_ok and self.lebesgue_ok and self.diameter_ok

    def lines(self):
        yield f"order <= n+1: {'pass' if self.order_ok else 'FAIL'} (order={self.order}, witness point={self.order_witness})"
        yield f"Lebesgue > r: {'pass' if self.lebesgue_ok else 'FAIL'} (L={self.lebesgue}, witness set={self.lebesgue_witness})"
        yield f"diameter <= d: {'pass' if self.diameter_ok else 'FAIL'} (b={self.diameter}, witness set={self.diameter_witness})"


def check_rd_cover(cover: Cover, r, d, n, m: FiniteMetric, carrier) -> RdVerdict:
    """Verify the three (r, d)-cover conditions at order bound n+1."""
    order, order_w = cover_order(cover, carrier)
    leb, leb_w = lebesgue_number(cover, m, carrier)
    diam, diam_w = diameter_bound(cover, m)
    return RdVerdict(
        order_ok=order <= n + 1,
        order=order,
        order_witness=order_w,
        lebesgue_ok=leb > r,
        lebesgue=leb,
        lebesgue_witness=leb_w,
        diameter_ok=diam <= d,
        diameter=diam,
        diameter_witness=diam_w,
    )


def extend_cover(cover: Cover, r, ambient: FiniteMetric, carrier):
    """Push an (r, d)-cover of `carrier` to an (r/4, d+r)-cover of the r/4
    neighborhood of `carrier` inside `ambient`.

    Each set U is replaced by the union of open r/2-balls around its r-deep
    points, intersected with N_{r/4}(carrier).  Order never increases; the
    output is covering and has Lebesgue number >= r/2 by construction.
    """
    carrier = sorted(set(carrier))
    carrier_set = set(carrier)
    _require_covering(cover, carrier)
    leb, leb_w = lebesgue_number(cover, m=ambient, carrier=carrier)
    if leb <= r:
        raise PreconditionError(
            f"input is not an (r, d)-cover: Lebesgue {leb} <= r={r}", witness=leb_w
        )

    field_to_carrier = ambient.dist_field(carrier)
    new_carrier = sorted(
        x for x in ambient.points if field_to_carrier[x] <= r / 4.0
    )

    out_sets, out_colors = [], []
    for s, color in zip(cover.sets, cover.colors):
        complement = sorted(carrier_set - s)
        if complement:
            depth = ambient.dist_field(complement)
            deep = [x for x in sorted(s) if depth[x] >= r]
        else:
            deep = sorted(s)  # d(x, empty complement) = +inf
        if not deep:
            # cannot happen when L > r; guarded for malformed claimed covers
            raise PreconditionError(
                "set has no r-deep point despite Lebesgue precondition", witness=s
            )
        ball_field = ambient.dist_field(deep)
        enlarged = frozenset(
            y for y in new_carrier if ball_field[y] < r / 2.0
        )
        out_sets.append(enlarged)
        out_colors.append(color)

    out = Cover(sets=out_sets, colors=out_colors)
    for y in new_carrier:
        if not any(y in s for s in out.sets):
            nearest = min(carrier, key=lambda c: ambient.dist(y, c))
            raise PreconditionError(
                "extension does not cover the r/4-neighborhood: no set is "
                f"r-deep near carrier point {nearest}",
                witness=nearest,
            )
    return out, new_carrier
