"""Word arithmetic that no command runs, kept as the tests' oracles: each
ball element as an engine value, and the ball's Cayley edges as a list of
pairs; C as a subgroup of an amalgam (membership, the distance to C, and C's
own elements); seeded alternative sections; a coset's vertex by a word key,
the factor and the section of a step of K; the normal form z_1...z_k c of an
amalgam element walked along K; assertion 2.1 over the Cayley edges; and
assertion 2.2 as one walk of K under any sections."""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from asdimlab.amalgam import SIDE_A, SIDE_B, SIDE_BASE, CheckVerdict, RacgAmalgam
from asdimlab.errors import InputError, OutOfBallError
from asdimlab.groups import ElementBall, bfs_ball, build_ball


def ball_elements(ball):
    """Every element of `ball` as an engine value, in id order: those of
    the generic BFS of its radius (`bfs_ball`), whose ids every enumerator
    shares, once the edge tables agree."""
    if isinstance(ball, ElementBall):
        return ball.elements
    reference = bfs_ball(ball.engine, ball.radius)
    assert np.array_equal(reference.table, ball.table)
    return reference.elements


def cayley_edges(ball):
    """`Ball.cayley_edge_arrays` as a list of int pairs."""
    lo, hi = ball.cayley_edge_arrays()
    return list(zip(lo.tolist(), hi.tolist()))


def is_in_c(ctx, x):
    """True when the amalgam element x lies in C."""
    if isinstance(ctx, RacgAmalgam):
        return ctx.is_in_c(x)
    return not x[0]


def to_c(ctx, x):
    """The element x of C as an element of `ctx.c_engine`."""
    if isinstance(ctx, RacgAmalgam):
        return ctx.to_c(x)
    if x[0]:
        raise InputError("element not in C")
    return x[1]


def from_c(ctx, cx):
    """The element cx of `ctx.c_engine` as an amalgam element."""
    if isinstance(ctx, RacgAmalgam):
        letter = {i: g for g, i in enumerate(ctx.c_generators()) if i >= 0}
        return ctx.engine.normal_form(tuple(letter[i] for i in cx))
    return ((), cx)


def dist_to_c(ctx, x):
    """d(x, C) in the word metric: in a RACG the length of the minimal
    representative of the right coset C x; in a table amalgam the level of
    x, as every non-identity factor element is one letter."""
    if isinstance(ctx, RacgAmalgam):
        return len(ctx.engine.coset_minrep(ctx.engine.inverse(x), ctx.k))
    return ctx.engine.level(x)


def random_sections(ctx, seed):
    """Seeded alternative sections, each in its coset, the C-coset's the
    identity: in a table amalgam one seeded member per coset of each factor,
    as `TableAmalgamEngine.sections` lists them; in a RACG a function of
    (side, the coset's minimal representative) that returns the
    representative times a hashed element of the radius-2 ball of C."""
    eng = ctx.engine
    if not isinstance(ctx, RacgAmalgam):
        out = []
        for side, cosets in enumerate(eng.cosets):
            reps = [(eng.a, eng.b)[side].identity]
            for cid, members in enumerate(cosets[1:], 1):
                reps.append(random.Random(f"{seed}:{side}:{cid}").choice(sorted(members)))
            out.append(reps)
        return out
    c_ball = build_ball(ctx.c_engine, 2)

    def sect(key):
        side, minrep = key
        if not minrep:
            return eng.identity
        token = f"{seed}:{side}:{eng.word_str(minrep)}"
        digest = int(hashlib.sha256(token.encode()).hexdigest(), 16)
        return eng.multiply(minrep, from_c(ctx, c_ball.letters(digest % len(c_ball))))

    return sect


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
    if not is_in_c(ctx, c):
        raise AssertionError("normal-form tail not in C")
    for s1, s2 in zip(sides, sides[1:]):
        if s1 == s2:
            raise AssertionError("normal form letters fail to alternate")
    return NormalFormAm(letters=letters, sides=sides, c_part=c, length=len(letters))


def assertion_2_1_walk(ab):
    """Assertion 2.1 by word arithmetic: in_factor(rep(u)^{-1} rep(v)) and the
    level gap of every edge between distinct vertices u, v, in
    `cayley_edges` order."""
    ctx, dual, ball = ab.ctx, ab.dual, ab.ball
    eng, words = ctx.engine, amalgam_words(ab)
    checked = 0
    for u, v in cayley_edges(ball):
        ku, kv = int(dual.vertex_of_element[u]), int(dual.vertex_of_element[v])
        checked += 1
        if ku == kv:
            continue
        h = eng.multiply(eng.inverse(words.reps[ku]), words.reps[kv])
        if in_factor(ctx, h) is None:
            witness = (eng.word_str(words.elements[u]), eng.word_str(words.elements[v]))
            return CheckVerdict("assertion-2.1", False, checked, witness=witness)
        if abs(int(dual.level[ku]) - int(dual.level[kv])) > 1:
            return CheckVerdict(
                "assertion-2.1",
                False,
                checked,
                witness=(u, v),
                note="projection not 1-Lipschitz on this edge",
            )
    return CheckVerdict("assertion-2.1", True, checked)


def assertion_2_2_walk(ab, sections=None, dist=dist_to_c):
    """Assertion 2.2 by one depth-first walk of K's parent tree, under the
    given sections (the default ones by default), with d(y, C) read as
    `dist(ctx, y)`.

    Per vertex u, h = prefix(parent)^{-1} . rep(u) gives the letter z_u =
    section(h), and prefix(u)^{-1} = z_u^{-1} . prefix(parent)^{-1}; per
    element x of the fiber of u, c = prefix(u)^{-1} . x is the tail.  These
    are the letters and tails of `amalgam_normal_form`, and only the
    root-to-vertex path of prefixes is held.  The walk visits elements out
    of ball order, so the lowest failing index is kept.  Invariant failures
    raise as soon as the walk meets them.
    """
    ctx, ball, dual = ab.ctx, ab.ball, ab.dual
    eng, words = ctx.engine, amalgam_words(ab)
    children = [[] for _ in range(dual.n_vertices)]
    for v in np.nonzero(dual.level > 0)[0].tolist():
        children[int(dual.parent[v])].append(v)

    counted = np.zeros(len(ball), dtype=bool)
    first_fail = len(ball)

    def scan_fiber(u, inv_prefix, z):
        nonlocal first_fail
        for i in dual.fiber(u).tolist():
            x = words.elements[i]
            c = eng.multiply(inv_prefix, x)
            if not is_in_c(ctx, c):
                raise AssertionError("normal-form tail not in C")
            if z is None:
                continue
            counted[i] = True
            if i < first_fail and eng.norm(x) < dist(ctx, eng.multiply(z, c)):
                first_fail = i

    base = dual.base()
    scan_fiber(base, eng.identity, None)
    stack = [(eng.identity, SIDE_BASE, iter(children[base]))]
    while stack:
        inv_prefix, side, kids = stack[-1]
        v = next(kids, None)
        if v is None:
            stack.pop()
            continue
        h = eng.multiply(inv_prefix, words.reps[v])
        v_side = in_factor(ctx, h)
        if v_side is None:
            raise AssertionError("dual-graph step does not lie in a factor")
        if v_side == side:
            raise AssertionError("normal form letters fail to alternate")
        z = section(ctx, v_side, h, sections=sections)
        inv_v = eng.multiply(eng.inverse(z), inv_prefix)
        scan_fiber(v, inv_v, z)
        stack.append((inv_v, v_side, iter(children[v])))

    if first_fail < len(ball):
        return CheckVerdict(
            "assertion-2.2",
            False,
            int(counted[: first_fail + 1].sum()),
            witness=eng.word_str(words.elements[first_fail]),
        )
    return CheckVerdict("assertion-2.2", True, int(counted.sum()))
