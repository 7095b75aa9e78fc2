"""Word arithmetic that no command runs, kept as the tests' oracles: each
ball element as an engine value, a coset's vertex by a word key, the factor
and the section of a step of K, and the normal form z_1...z_k c of an
amalgam element walked along K."""

from dataclasses import dataclass

import numpy as np

from asdimlab.amalgam import SIDE_A, SIDE_B, RacgAmalgam
from asdimlab.errors import InputError, OutOfBallError
from asdimlab.groups import ElementBall, bfs_ball


def ball_elements(ball):
    """Every element of `ball` as an engine value, in id order: those of
    the generic BFS of its radius (`bfs_ball`), whose ids every enumerator
    shares, once the edge tables agree."""
    if isinstance(ball, ElementBall):
        return ball.elements
    reference = bfs_ball(ball.engine, ball.radius)
    assert np.array_equal(reference.table, ball.table)
    return reference.elements


def vertex_key(ctx, x):
    """A word-level key of the coset xC: its minimal representative in a
    RACG, the letters z_1...z_k of x = z_1...z_k c in a table amalgam."""
    if isinstance(ctx, RacgAmalgam):
        return ctx.engine.coset_minrep(x, ctx.k)
    return x[0]


def in_factor(ctx, x):
    """SIDE_A / SIDE_B when x lies in that factor (C reports SIDE_A), else
    None."""
    if isinstance(ctx, RacgAmalgam):
        sup = frozenset(x)
        if sup <= ctx.n1:
            return SIDE_A
        return SIDE_B if sup <= ctx.n2 else None
    zs, _ = x
    if len(zs) > 1:
        return None
    return zs[0][0] if zs else SIDE_A


def section(ctx, side, x, sections=None):
    """The section representative of the coset of x, an element of the
    factor on `side`, as an engine element: in a RACG, the coset's minimal
    representative, or `sections((side, minimal representative))`; in a
    table amalgam, the factor element `sections[side][coset]` (the default
    sections by default)."""
    if isinstance(ctx, RacgAmalgam):
        minrep = ctx.engine.coset_minrep(x, ctx.k)
        return minrep if sections is None else sections((side, minrep))
    eng = ctx.engine
    zs, _ = x
    if not zs:
        return eng.identity
    if len(zs) != 1 or zs[0][0] != side:
        raise InputError("element not in the requested factor")
    return eng.mul_elem(eng.identity, side, (sections or eng.sections)[side][zs[0][1]])


class AmalgamWords:
    """The elements of an `AmalgamBall`, the representatives of its dual
    graph's cosets (their least ids, `DualGraph.rep_ids`), and pi(x) as a
    vertex id by `vertex_key`."""

    def __init__(self, ab):
        self.elements = ball_elements(ab.ball)
        self.reps = [self.elements[i] for i in ab.dual.rep_ids.tolist()]
        self._vertex = {vertex_key(ab.ctx, rep): u for u, rep in enumerate(self.reps)}

    def vertex_of(self, ctx, x):
        """pi(x) as a vertex id, None when its coset is not in the ball."""
        return self._vertex.get(vertex_key(ctx, x))


def amalgam_words(ab):
    """The `AmalgamWords` of `ab`, built on first use and kept on it."""
    if "_words" not in vars(ab):
        ab._words = AmalgamWords(ab)
    return ab._words


@dataclass
class NormalFormAm:
    letters: list
    sides: list
    c_part: object
    length: int


def amalgam_normal_form(ab, x, sections=None) -> NormalFormAm:
    """The unique z_1...z_k c presentation, for the fixed (or given) sections.

    Walks the K-geodesic from the base coset to pi(x), reading one section
    representative per step; the tail c is the remaining C-element.
    """
    ctx, dual, words = ab.ctx, ab.dual, amalgam_words(ab)
    vid = words.vertex_of(ctx, x)
    if vid is None:
        raise OutOfBallError("element's coset not present in the enumerated ball")
    path = [vid]
    while dual.level[path[-1]] > 0:
        path.append(int(dual.parent[path[-1]]))
    path.reverse()

    eng = ctx.engine
    prefix = eng.identity
    letters, sides = [], []
    for u in path[1:]:
        h = eng.multiply(eng.inverse(prefix), words.reps[u])
        side = in_factor(ctx, h)
        if side is None:
            raise AssertionError("dual-graph step does not lie in a factor")
        z = section(ctx, side, h, sections=sections)
        letters.append(z)
        sides.append(side)
        prefix = eng.multiply(prefix, z)
    c = eng.multiply(eng.inverse(prefix), x)
    if not ctx.is_in_c(c):
        raise AssertionError("normal-form tail not in C")
    for s1, s2 in zip(sides, sides[1:]):
        if s1 == s2:
            raise AssertionError("normal form letters fail to alternate")
    return NormalFormAm(letters=letters, sides=sides, c_part=c, length=len(letters))
