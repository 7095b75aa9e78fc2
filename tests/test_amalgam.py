import dataclasses
import itertools

import numpy as np
import pytest

from asdimlab import amalgam
from asdimlab.amalgam import (
    SIDE_A,
    SIDE_B,
    SIDE_BASE,
    AmalgamContext,
    CheckVerdict,
    DualGraph,
    RacgAmalgam,
    build_dual_graph,
    check_assertion_2_1,
    check_assertion_2_2,
    check_separation,
    check_translate_disjointness,
    collect_translates,
    compute_D_R,
    dual_graph_dot,
    partition_ball,
    partition_json,
    prepare,
    verify_partition,
    TableAmalgam,
)
from asdimlab.errors import InputError, OutOfBallError, PreconditionError
from asdimlab.groups import Ball, RacgEngine, build_ball
from asdimlab.metric import GraphMetric

from conftest import CYCLE5, PATH4, RACG_GRAPHS, z_n_group
from word_oracles import (
    amalgam_normal_form,
    amalgam_words,
    assertion_2_1_walk,
    assertion_2_2_walk,
    ball_elements,
    dist_to_c,
    from_c,
    in_factor,
    random_sections,
    to_c,
    vertex_key,
)


def project_pi(ab, x):
    """pi(x) = xC as a dual-graph vertex id, by word arithmetic."""
    vid = amalgam_words(ab).vertex_of(ab.ctx, x)
    assert vid is not None, "coset outside enumerated ball"
    return vid


def path4_split():
    """The path-4 RACG split at a: star {a, b}, link K = {b}, rest {b, c, d}."""
    engine = RacgEngine(PATH4, names=["a", "b", "c", "d"])
    return RacgAmalgam(engine, n1=[0, 1], knk=[1], n2=[1, 2, 3], name="path4-split")


@pytest.fixture(scope="module")
def dinf_ball(dinf_amalgam):
    return prepare(dinf_amalgam, 8)


def reference_assertion_2_2(ab, sections=None, dist=dist_to_c):
    """Assertion 2.2 as a scan in ball order, one normal form per element,
    with d(y, C) read as `dist(ctx, y)`."""
    ctx = ab.ctx
    eng = ctx.engine
    checked = 0
    for x in amalgam_words(ab).elements:
        nf = amalgam_normal_form(ab, x, sections=sections)
        if nf.length == 0:
            continue
        tail = eng.multiply(nf.letters[-1], nf.c_part)
        checked += 1
        if eng.norm(x) < dist(ctx, tail):
            return CheckVerdict("assertion-2.2", False, checked, witness=eng.word_str(x))
    return CheckVerdict("assertion-2.2", True, checked)


def reference_D_R(ab, u, R, side=None):
    """D_R^u from the full BFS field of the coset, with no early exit."""
    dual = ab.dual
    field = ab.metric.dist_field(np.nonzero(dual.vertex_of_element == u)[0].tolist())
    lvl = int(dual.level[u])
    if lvl == 0:
        far = ab.side_of_elements() == side
    else:
        far = dual.ancestor_at_level(dual.vertex_of_element, lvl) == u
    return np.nonzero((field == R) & far & ab.core_mask())[0]


def reference_gate_fields(ab, R, side):
    """beyond(u, lvl) -> (field, far) for a gate u at level lvl: its coset's
    distance field by BFS steps on the edge table, cut off past R + 1 (exact
    for every threshold the references read), and pi^{-1}(K^u) (the given
    side of K at the base), with one ancestor lookup per level."""
    dual, sides, element_anc = ab.dual, ab.side_of_elements(), {}

    def beyond(u, lvl):
        field = np.full(ab.n, np.inf)
        frontier = dual.fiber(u)
        for d in range(R + 2):
            field[frontier] = d
            step = ab.ball.table[frontier].ravel()
            frontier = np.unique(step[step >= 0])
            frontier = frontier[np.isinf(field[frontier])]
        if lvl not in element_anc:
            element_anc[lvl] = dual.ancestor_at_level(dual.vertex_of_element, lvl)
        return field, (sides == side if lvl == 0 else element_anc[lvl] == u)

    return beyond


def reference_partition(ab, r, R, side):
    """Theorem 2.1's partition with one coset field per gate, and per level-r
    step the gates below each gate found by one ancestor lookup."""
    dual = ab.dual
    core = ab.core_mask()
    sides = ab.side_of_elements()
    on_side = (sides == side) | (sides == SIDE_BASE)
    beyond = reference_gate_fields(ab, R, side)

    base = dual.base()
    central = np.nonzero(core & on_side & (beyond(base, 0)[0] <= R))[0]
    gates = {0: [base]}
    for lvl in range(r, int(dual.level.max()) + 1, r):
        gates[lvl] = dual.vertices_at_level(lvl, side=side)
    boundary = np.zeros(ab.n, dtype=bool)
    pieces = []
    for lvl, us in gates.items():
        below = np.asarray(gates.get(lvl + r, []), dtype=np.int64)
        below_anc = dual.ancestor_at_level(below, lvl)
        for u in us:
            field, far = beyond(u, lvl)
            boundary |= (field == R) & far & core
            mask = (field >= R) & far
            for w in below[below_anc == u].tolist():
                field_w, far_w = beyond(w, lvl + r)
                mask &= ~((field_w > R) & far_w)
            ids = np.nonzero(mask & core & on_side)[0]
            if len(ids):
                pieces.append((u, ids))
    return central, pieces, np.nonzero(boundary)[0]


def _reference_piece_key(ctx, x, side):
    """Canonical word-level key of the Bass-Serre vertex x*A (side A) or x*B."""
    if isinstance(ctx, RacgAmalgam):
        return ctx.engine.coset_minrep(x, ctx.n1 if side == SIDE_A else ctx.n2)
    zs, _ = x
    return zs[:-1] if zs and zs[-1][0] == side else zs


def reference_dual_graph(ctx, ball):
    """K from word-level coset keys: one `vertex_key` per element and one
    piece key per vertex and side, with the level BFS one vertex at a time."""
    key_index = {}
    vertex_of = np.empty(len(ball), dtype=np.int64)
    rep_element, rep_ids = [], []
    for i, x in enumerate(ball_elements(ball)):
        vid = key_index.setdefault(vertex_key(ctx, x), len(rep_element))
        if vid == len(rep_element):
            rep_element.append(x)
            rep_ids.append(i)
        vertex_of[i] = vid
    n = len(rep_element)

    piece_ids = ({}, {})
    piece_members = []
    piece_of_vertex = np.empty((n, 2), dtype=np.int64)
    for u in range(n):
        for s in (SIDE_A, SIDE_B):
            pid = piece_ids[s].setdefault(
                _reference_piece_key(ctx, rep_element[u], s), len(piece_members)
            )
            if pid == len(piece_members):
                piece_members.append([])
            piece_members[pid].append(u)
            piece_of_vertex[u, s] = pid

    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    base = int(vertex_of[0])
    level[base] = 0
    piece_done = [False] * len(piece_members)
    frontier = [base]
    while frontier:
        nxt = []
        for u in frontier:
            for s in (SIDE_A, SIDE_B):
                pid = int(piece_of_vertex[u, s])
                if piece_done[pid]:
                    continue
                piece_done[pid] = True
                for v in piece_members[pid]:
                    if v == u:
                        continue
                    if level[v] >= 0:
                        raise AssertionError(
                            "tree-graded structure violated: piece with two gates"
                        )
                    level[v] = level[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = sorted(nxt)
    if (level < 0).any():
        raise OutOfBallError("dual graph disconnected inside the ball")

    side = np.full(n, SIDE_BASE, dtype=np.int64)
    for u in np.argsort(level, kind="stable").tolist():
        if level[u] == 1:
            f = in_factor(ctx, rep_element[u])
            if f is None:
                raise AssertionError("level-1 coset not inside a factor")
            side[u] = f
        elif level[u] > 1:
            side[u] = side[parent[u]]

    piece_side = np.full(len(piece_members), SIDE_A, dtype=np.int64)
    piece_side[list(piece_ids[SIDE_B].values())] = SIDE_B
    piece_start = np.cumsum([0] + [len(m) for m in piece_members], dtype=np.int64)
    fiber_order = np.argsort(vertex_of, kind="stable")
    fiber_start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex_of, minlength=n), out=fiber_start[1:])
    return DualGraph(
        vertex_of_element=vertex_of,
        level=level,
        parent=parent,
        side=side,
        rep_ids=np.array(rep_ids, dtype=np.int64),
        piece_of_vertex=piece_of_vertex,
        piece_side=piece_side,
        piece_order=np.array([u for m in piece_members for u in sorted(m)], dtype=np.int64),
        piece_start=piece_start,
        fiber_order=fiber_order,
        fiber_start=fiber_start,
    )


def assert_dual_graphs_equal(got, expected):
    for f in dataclasses.fields(DualGraph):
        a, b = getattr(got, f.name), getattr(expected, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def split_at(matrix, v):
    """The RACG split at generator v: its closed star, its link K, and
    every generator but v."""
    engine = RacgEngine(matrix)
    link = sorted(engine.comm[v])
    rest = [g for g in range(engine.rank) if g != v]
    return RacgAmalgam(engine, n1=link + [v], knk=link, n2=rest)


@pytest.mark.parametrize(
    "make_ctx, radius",
    [
        (lambda request: request.getfixturevalue("dinf_amalgam"), 12),
        (lambda request: request.getfixturevalue("z2z3_amalgam"), 16),
        (lambda request: request.getfixturevalue("z2z3_amalgam"), 22),
        (lambda request: request.getfixturevalue("z4z2z4_amalgam"), 12),
        (lambda request: split_at(PATH4, 0), 9),
        (lambda request: split_at(PATH4, 0), 12),
        (lambda request: split_at(PATH4, 1), 9),
        (lambda request: split_at(PATH4, 1), 12),
        (lambda request: split_at(CYCLE5, 0), 8),
    ],
    ids=[
        "dinf", "z2z3-16", "z2z3-22", "z4z2z4", "path4a-9", "path4a-12", "path4b-9",
        "path4b-12", "cycle5",
    ],
)
def test_dual_graph_equals_word_keyed_reference(request, make_ctx, radius):
    ctx = make_ctx(request)
    ball = build_ball(ctx.engine, radius)
    dual = build_dual_graph(ctx, ball)
    assert_dual_graphs_equal(dual, reference_dual_graph(ctx, ball))
    # the pieces of K are proper: some piece has a gate and other members
    assert np.diff(dual.piece_start).max() > 1


class LetterSplit(RacgAmalgam):
    """A letter split (n1, k, n2) of a RACG that need not split the group:
    what the dual-graph builds read of a `RacgAmalgam`, without its checks."""

    def __init__(self, engine, n1, knk, n2):
        self.engine, self.n1, self.k, self.n2 = engine, frozenset(n1), frozenset(knk), frozenset(n2)


@pytest.mark.parametrize(
    "graph, kinds",
    [
        ("path4", {"raises", "equal"}),
        ("cycle4", {"raises", "equal"}),
        ("star", {"raises", "equal"}),
        ("z2-cubed", {"raises"}),  # no generator set splits a finite group
        ("free", {"equal"}),  # every generator set splits a free product
    ],
)
def test_dual_graph_equals_reference_on_every_letter_split(graph, kinds):
    # most letter splits are not splittings of the group, so K has cycles and
    # both builds must raise the same error; the rest must agree field by
    # field.  `RacgAmalgam` rejects every split that raises.
    engine = RacgEngine(RACG_GRAPHS[graph])
    ball = build_ball(engine, 4)
    outcomes = set()
    for where in itertools.product((SIDE_A, SIDE_B, SIDE_BASE), repeat=engine.rank):
        n1, n2 = ([g for g, w in enumerate(where) if w in (s, SIDE_BASE)] for s in (0, 1))
        knk = sorted(set(n1) & set(n2))
        try:
            RacgAmalgam(engine, n1, knk, n2)
            accepted = True
        except InputError as exc:
            if "not a splitting" not in str(exc):
                continue
            accepted = False
        ctx = LetterSplit(engine, n1, knk, n2)
        try:
            expected = reference_dual_graph(ctx, ball)
        except AssertionError as exc:
            assert not accepted
            with pytest.raises(AssertionError, match=str(exc)):
                build_dual_graph(ctx, ball)
            outcomes.add("raises")
            continue
        assert_dual_graphs_equal(build_dual_graph(ctx, ball), expected)
        outcomes.add("equal")
    assert outcomes == kinds


class _TwoLetterContext(AmalgamContext):
    """Trivial C, A-letters 0 and 1, B-letter 2."""

    def coset_letters(self):
        return [], [0, 1], [2]


def test_dual_graph_rejects_a_piece_met_from_two_frontier_vertices():
    # e's A-piece is {e, u, v}, so u and v are both at level 1; their common
    # B-piece {u, v} then has two gates, though no vertex is met twice
    table = np.array([[1, 2, -1], [0, 2, 2], [1, 0, 1]])
    parent, letter = np.array([-1, 0, 0]), np.array([-1, 0, 1])
    ball = Ball(None, 1, np.array([0, 1, 1], dtype=np.int32), table, parent, letter)
    with pytest.raises(AssertionError, match="piece with two gates"):
        build_dual_graph(_TwoLetterContext(), ball)


def test_coset_letters_name_the_factor_generators(z4z2z4_amalgam, path3_amalgam):
    eng = z4z2z4_amalgam.engine
    c, a, b = z4z2z4_amalgam.coset_letters()
    assert [eng.gen_names[g] for g in c] == ["A.x2"]
    assert [eng.gen_names[g] for g in a] == ["A.x", "A.x2", "A.x3"]
    assert [eng.gen_names[g] for g in b] == ["A.x2", "B.y", "B.y3"]
    assert path3_amalgam.coset_letters() == ([1], [0, 1], [1, 2])


def test_degenerate_amalgam_rejected():
    z2 = z_n_group(2, "a")
    with pytest.raises(InputError):
        TableAmalgam(z2, z2, [0, 1], [0, 1])


def test_embeddings_must_agree():
    z4 = z_n_group(4, "x")
    with pytest.raises(InputError):
        TableAmalgam(z4, z4, [0, 2], [0, 1])


def test_table_amalgam_norm_formula(dinf_amalgam):
    eng = dinf_amalgam.engine
    e = eng.identity
    a = eng.mul_gen(e, 0)
    ab = eng.mul_gen(a, 1)
    assert eng.norm(e) == 0
    assert eng.norm(a) == 1
    assert eng.norm(ab) == 2
    aba = eng.mul_gen(ab, 0)
    assert eng.word_str(aba) == "A.a.B.b.A.a"
    assert eng.distance(e, aba) == 3
    assert eng.norm(eng.inverse(aba)) == 3


def test_normal_form_identity_and_ab(dinf_ball, dinf_amalgam):
    eng = dinf_amalgam.engine
    nf = amalgam_normal_form(dinf_ball, eng.identity)
    assert nf.length == 0 and eng.norm(nf.c_part) == 0
    ab = eng.mul_gen(eng.mul_gen(eng.identity, 0), 1)
    nf = amalgam_normal_form(dinf_ball, ab)
    assert [eng.word_str(z) for z in nf.letters] == ["A.a", "B.b"]
    assert nf.length == 2
    assert nf.sides == [SIDE_A, SIDE_B]


def test_presentation_length_equals_dual_graph_level(z4z2z4_amalgam):
    ab = prepare(z4z2z4_amalgam, 6)
    eng = z4z2z4_amalgam.engine
    for i, x in enumerate(ball_elements(ab.ball)):
        vid = project_pi(ab, x)
        assert eng.level(x) == int(ab.dual.level[vid])
        nf = amalgam_normal_form(ab, x)
        assert nf.length == eng.level(x)
        # reassembly
        prod = eng.identity
        for z in nf.letters:
            prod = eng.multiply(prod, z)
        prod = eng.multiply(prod, nf.c_part)
        assert prod == x


def test_pi_constant_on_cosets(z4z2z4_amalgam):
    ab = prepare(z4z2z4_amalgam, 6)
    eng = z4z2z4_amalgam.engine
    x = eng.mul_gen(eng.identity, 0)
    c = from_c(z4z2z4_amalgam, 1)  # the nontrivial C element
    assert project_pi(ab, x) == project_pi(ab, eng.multiply(x, c))


def test_assertion_2_1_all_fixtures(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam, path3_amalgam):
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam, path3_amalgam):
        ab = prepare(ctx, 8)
        verdict = check_assertion_2_1(ab)
        assert verdict.passed, verdict.line()
        assert verdict.checked > 0


def test_assertion_2_2_default_and_random_sections(
    dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam, path3_amalgam
):
    # the ball's verdict is the walk's under seeded sections
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam, path3_amalgam):
        ab = prepare(ctx, 8)
        verdict = check_assertion_2_2(ab)
        assert verdict.passed
        assert assertion_2_2_walk(ab, random_sections(ctx, 20240810)).line() == verdict.line()


@pytest.mark.parametrize(
    "fixture, radius",
    [("dinf_amalgam", 10), ("z2z3_amalgam", 12), ("z4z2z4_amalgam", 8), (None, 7)],
)
def test_assertion_2_2_walk_matches_per_element_scan(request, fixture, radius):
    ctx = request.getfixturevalue(fixture) if fixture else path4_split()
    ab = prepare(ctx, radius)
    walk = check_assertion_2_2(ab)
    assert walk.passed
    for sections in (None, random_sections(ctx, 20240810)):
        assert walk.line() == reference_assertion_2_2(ab, sections).line()


def _tails(ab, sections):
    eng = ab.ctx.engine
    out = {}
    for i, x in enumerate(amalgam_words(ab).elements):
        nf = amalgam_normal_form(ab, x, sections=sections)
        if nf.length:
            out[i] = eng.multiply(nf.letters[-1], nf.c_part)
    return out


def right_coset_key(ctx, y):
    """A key of the right coset C y, on which d(y, C) = d(C y, 1) depends."""
    eng = ctx.engine
    if isinstance(ctx, RacgAmalgam):
        return eng.coset_minrep(eng.inverse(y), ctx.k)
    return min(eng.multiply(from_c(ctx, c), y) for c in range(eng.c_size))


@pytest.mark.parametrize("split", ["table", "racg", "table-walk", "a4z3z6", "a4z3z6-walk"])
def test_assertion_2_2_walk_reports_lowest_failing_element(request, monkeypatch, split):
    if split.startswith("table"):
        ctx = TableAmalgam(z_n_group(2, "a"), z_n_group(3, "b"), [0], [0])
        ab = prepare(ctx, 10)
    elif split.startswith("a4z3z6"):
        # C has order 3 and is not normal in A4, so seeded sections move the
        # tails z_k c by delta in C on the left
        ctx = request.getfixturevalue("a4z3z6_amalgam")
        ab = prepare(ctx, 5)
    else:
        ctx = path4_split()
        ab = prepare(ctx, 7)
    walk = split.endswith("-walk")
    eng, elements, radius = ctx.engine, amalgam_words(ab).elements, ab.ball.radius
    field, anc = ab.level_field(0)
    # d(z_k c, C) is faked on the right cosets C z_k c of two chosen
    # elements' default tails, so exactly the elements whose tails lie in
    # those cosets fail, under every choice of sections; the walk meets them
    # out of ball order and must still report the lowest one.  The walk and
    # the reference read the fault through their `dist`, the integer path
    # through the level-0 field at the tail's ball id.
    tails = {i: right_coset_key(ctx, t) for i, t in _tails(ab, None).items()}
    ball_keys = [right_coset_key(ctx, y) for y in elements]
    classes = {}
    for i, key in tails.items():
        classes.setdefault(key, []).append(i)
    firsts = sorted(ids[0] for ids in classes.values())
    assert len(firsts) > 2
    for chosen in zip(firsts, firsts[1:]):
        bad = {tails[i] for i in chosen}

        def dist(ctx, x):
            return radius + 1 if right_coset_key(ctx, x) in bad else dist_to_c(ctx, x)

        planted = np.where([key in bad for key in ball_keys], radius + 1, field)
        monkeypatch.setitem(ab._levels, 0, (planted, anc))
        checked = sum(1 for i in tails if i <= chosen[0])
        expected = CheckVerdict(
            "assertion-2.2", False, checked, witness=eng.word_str(elements[chosen[0]])
        )
        for sections in (None, random_sections(ctx, 7), random_sections(ctx, 8)):
            ref = reference_assertion_2_2(ab, sections, dist)
            got = assertion_2_2_walk(ab, sections, dist) if walk else check_assertion_2_2(ab)
            assert got.line() == ref.line() == expected.line()


def amalgam_named(request, name):
    """A conftest amalgam fixture by name, or a RACG split of `RACG_SPLITS`."""
    return RACG_SPLITS[name]() if name in RACG_SPLITS else request.getfixturevalue(name)


RACG_SPLITS = {
    "path4split": path4_split,
    # the vertex-0 star/link splits; six's C is Z2*Z2*Z2 on the link {1, 3, 5}
    "cycle4split": lambda: split_at(RACG_GRAPHS["cycle4"], 0),
    "cycle5split": lambda: split_at(RACG_GRAPHS["cycle5"], 0),
    "sixsplit": lambda: split_at(RACG_GRAPHS["six"], 0),
}

NF_COLUMN_CASES = (
    [("dinf_amalgam", r) for r in (0, 1, 2, 7, 22)]
    + [("z2z3_amalgam", r) for r in (1, 6, 13, 22)]
    + [("z4z2z4_amalgam", r) for r in (0, 1, 5, 22)]
    + [("a4z3z6_amalgam", r) for r in (1, 3, 6)]
    + [("path4split", r) for r in (0, 1, 2, 5, 9, 12)]
    + [("cycle4split", r) for r in (4, 12)]
    + [("cycle5split", r) for r in (3, 7)]
    + [("sixsplit", r) for r in (2, 6)]
)


@pytest.mark.parametrize("fixture, radius", NF_COLUMN_CASES)
def test_normal_form_columns_match_the_walk(request, fixture, radius):
    # the integer checkers on both backends against the word-arithmetic
    # walks, for default and seeded sections
    ctx = amalgam_named(request, fixture)
    ab = prepare(ctx, radius)
    assert check_assertion_2_1(ab).line() == assertion_2_1_walk(ab).line()
    line = check_assertion_2_2(ab).line()
    for sections in [None] + [random_sections(ctx, seed) for seed in (1, 2, 3)]:
        assert assertion_2_2_walk(ab, sections).line() == line
    for side in (SIDE_BASE, SIDE_A, SIDE_B):
        part = ab.coset_part(side)
        assert ab.coset_part(side) is part and not part.flags.writeable
        assert (part >= 0).all()


TAIL_CASES = [
    ("dinf_amalgam", 12),
    ("z2z3_amalgam", 9),
    ("z4z2z4_amalgam", 12),
    ("a4z3z6_amalgam", 4),
    ("path4split", 8),
    ("cycle4split", 8),
    ("cycle5split", 5),
    ("sixsplit", 4),
]


@pytest.mark.parametrize("fixture, radius", TAIL_CASES)
def test_tail_column_is_the_default_normal_form_tail(request, fixture, radius):
    # z_k c of every element outside the base fiber, under the default
    # sections, is the element the tail column names
    ctx = amalgam_named(request, fixture)
    ab = prepare(ctx, radius)
    eng, elements = ctx.engine, amalgam_words(ab).elements
    ids, tail = amalgam._normal_form_tails(ab)
    assert np.array_equal(ids, np.nonzero(ab.element_level() > 0)[0])
    for i, t in zip(ids.tolist(), tail.tolist()):
        nf = amalgam_normal_form(ab, elements[i])
        assert elements[t] == eng.multiply(nf.letters[-1], nf.c_part)


@pytest.mark.parametrize("fixture, radius", TAIL_CASES)
def test_seeded_tails_are_as_far_from_C_as_the_tail_column(request, fixture, radius):
    # sections in their cosets move z_k c by an element of C on the left,
    # which keeps d(z_k c, C): the level-0 field at the tail column's id
    ctx = amalgam_named(request, fixture)
    ab = prepare(ctx, radius)
    eng, elements = ctx.engine, amalgam_words(ab).elements
    ids, tail = amalgam._normal_form_tails(ab)
    dist = ab.level_field(0)[0][tail].tolist()
    for seed in (1, 2, 3, 7):
        sections = random_sections(ctx, seed)
        for i, d in zip(ids.tolist(), dist):
            nf = amalgam_normal_form(ab, elements[i], sections=sections)
            assert dist_to_c(ctx, eng.multiply(nf.letters[-1], nf.c_part)) == d


@pytest.mark.parametrize("fixture", ["dinf_amalgam", "z2z3_amalgam", "z4z2z4_amalgam", "a4z3z6_amalgam"])
def test_table_random_sections_lie_in_their_cosets(request, fixture):
    ctx = request.getfixturevalue(fixture)
    eng = ctx.engine
    for seed in (1, 2, 3, 7, 20240810):
        sections = random_sections(ctx, seed)
        for side in (0, 1):
            for cid, rep in enumerate(sections[side]):
                assert rep in eng.cosets[side][cid]


@pytest.mark.parametrize("fixture", ["path4split", "cycle4split", "sixsplit"])
def test_racg_random_sections_lie_in_their_cosets(request, fixture):
    # a RACG section is keyed by the coset's minimal representative; the
    # seeded one is that representative times an element of C
    ctx = amalgam_named(request, fixture)
    eng = ctx.engine
    seeded = [random_sections(ctx, seed) for seed in (1, 2, 3, 7)]
    moved = 0
    for x in ball_elements(build_ball(eng, 5)):
        minrep = eng.coset_minrep(x, ctx.k)
        for side in (SIDE_A, SIDE_B):
            for sections in seeded:
                z = sections((side, minrep))
                assert eng.coset_minrep(z, ctx.k) == minrep
                moved += z != minrep
    assert moved > 0


def test_normal_form_letters_are_the_given_sections(z4z2z4_amalgam, a4z3z6_amalgam):
    for ctx in (z4z2z4_amalgam, a4z3z6_amalgam):
        ab = prepare(ctx, 4)
        eng = ctx.engine
        for seed in (1, 2, 5):
            sections = random_sections(ctx, seed)
            assert sections != eng.sections
            for x in amalgam_words(ab).elements:
                nf = amalgam_normal_form(ab, x, sections=sections)
                prod = eng.identity
                for z, side in zip(nf.letters, nf.sides):
                    ((_, cid),), c = z
                    grp = (eng.a, eng.b)[side]
                    assert grp.table[eng.sections[side][cid]][eng.embed[side][c]] == sections[side][cid]
                    prod = eng.multiply(prod, z)
                assert eng.multiply(prod, nf.c_part) == x


def with_dual(ab, **fields):
    """A copy of ab whose dual graph has the given fields replaced, with its
    fibers rebuilt from vertex_of_element."""
    dual = dataclasses.replace(ab.dual, **fields)
    vertex_of = dual.vertex_of_element
    dual.fiber_order = np.argsort(vertex_of, kind="stable")
    dual.fiber_start = np.zeros(dual.n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(vertex_of, minlength=dual.n_vertices), out=dual.fiber_start[1:])
    return dataclasses.replace(ab, dual=dual)


def parent_moved(ab):
    # a level-3 vertex hangs from a level-2 vertex that is not its parent
    dual = ab.dual
    v = dual.vertices_at_level(3)[0]
    parent = dual.parent.copy()
    parent[v] = next(u for u in dual.vertices_at_level(2) if u != dual.parent[v])
    return with_dual(ab, parent=parent)


def level_off_by_two(ab):
    level = ab.dual.level.copy()
    level[ab.dual.vertices_at_level(2)[0]] += 2
    return with_dual(ab, level=level)


def element_moved(ab):
    # an element of a level-3 fiber joins a level-3 vertex of another branch
    dual = ab.dual
    v = dual.vertices_at_level(3)[0]
    root = dual.ancestor_at_level([v], 1)[0]
    w = next(u for u in dual.vertices_at_level(3) if dual.ancestor_at_level([u], 1)[0] != root)
    vertex_of = dual.vertex_of_element.copy()
    vertex_of[dual.fiber(v)[-1]] = w
    return with_dual(ab, vertex_of_element=vertex_of)


def sibling_sides(ab):
    # an element of a level-1 A-fiber joins a level-1 B-fiber: siblings whose
    # letters lie on different sides
    dual = ab.dual
    v = dual.vertices_at_level(1, side=SIDE_A)[0]
    vertex_of = dual.vertex_of_element.copy()
    vertex_of[dual.fiber(v)[-1]] = dual.vertices_at_level(1, side=SIDE_B)[0]
    return with_dual(ab, vertex_of_element=vertex_of)


def parent_is_a_sibling(ab):
    # a vertex hangs from a sibling in the piece both entered through, so
    # its step repeats its parent's side
    dual = ab.dual
    _, u, v = next(m for m in map(dual.piece, range(len(dual.piece_side))) if len(m) > 2)[:3]
    parent = dual.parent.copy()
    parent[v] = u
    return with_dual(ab, parent=parent)


def outcome(check, *args):
    try:
        return check(*args).line()
    except AssertionError as exc:
        return f"AssertionError: {exc}"


@pytest.mark.parametrize("corrupt", [parent_moved, level_off_by_two, element_moved, sibling_sides])
@pytest.mark.parametrize(
    "fixture", ["dinf_amalgam", "z2z3_amalgam", "z4z2z4_amalgam", "a4z3z6_amalgam", "path4split"]
)
def test_normal_form_columns_match_the_walk_on_corrupted_dual_graphs(request, fixture, corrupt):
    ctx = amalgam_named(request, fixture)
    ab = corrupt(prepare(ctx, 5))
    got = [outcome(check_assertion_2_1, ab)]
    expected = [outcome(assertion_2_1_walk, ab)]
    for sections in (None, random_sections(ctx, 1)):
        got.append(outcome(check_assertion_2_2, ab))
        expected.append(outcome(assertion_2_2_walk, ab, sections))
    assert got == expected
    assert any(": pass " not in line for line in got)


@pytest.mark.parametrize("fixture", ["z2z3_amalgam", "a4z3z6_amalgam", "path4split"])
def test_assertion_2_2_matches_the_walk_on_a_parent_of_the_same_side(request, fixture):
    # dinf and z4z2z4 have no siblings: every piece has two members
    ctx = amalgam_named(request, fixture)
    ab = parent_is_a_sibling(prepare(ctx, 5))
    got = outcome(check_assertion_2_2, ab)
    for sections in (None, random_sections(ctx, 1)):
        assert got == outcome(assertion_2_2_walk, ab, sections)
        assert got == "AssertionError: normal form letters fail to alternate"


@pytest.mark.parametrize("fixture", ["dinf_amalgam", "z2z3_amalgam", "z4z2z4_amalgam", "a4z3z6_amalgam"])
def test_assertion_2_1_reports_the_first_failing_edge(request, fixture):
    ctx = request.getfixturevalue(fixture)
    eng = ctx.engine
    # a vertex two levels too high: its first edge to its parent or a child
    ab = level_off_by_two(prepare(ctx, 5))
    lo, hi = ab.ball.cayley_edge_arrays()
    levels = ab.dual.level[ab.dual.vertex_of_element]
    i = int(np.nonzero(np.abs(levels[lo] - levels[hi]) > 1)[0][0])
    expected = CheckVerdict(
        "assertion-2.1",
        False,
        i + 1,
        witness=(int(lo[i]), int(hi[i])),
        note="projection not 1-Lipschitz on this edge",
    ).line()
    # an element moved to a sibling fiber on the other side: the first edge
    # that leaves the factor touches it
    fresh = prepare(ctx, 5)
    i = int(fresh.dual.fiber(fresh.dual.vertices_at_level(1, side=SIDE_A)[0])[-1])
    moved = sibling_sides(fresh)
    walk = assertion_2_1_walk(moved).line()
    assert assertion_2_1_walk(ab).line() == expected
    assert check_assertion_2_1(ab).line() == expected
    got = check_assertion_2_1(moved)
    assert got.line() == walk
    assert not got.passed and eng.word_str(ball_elements(moved.ball)[i]) in got.witness


def test_dual_graph_arrays_are_read_only(z2z3_amalgam):
    dual = prepare(z2z3_amalgam, 6).dual
    for name in [f.name for f in dataclasses.fields(DualGraph)]:
        array = getattr(dual, name)
        assert isinstance(array, np.ndarray), name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # so are the views `piece` returns
    with pytest.raises(ValueError, match="read-only"):
        dual.piece(0)[0] = 0


def test_ball_masks_are_computed_once_and_read_only(z2z3_amalgam):
    ab = prepare(z2z3_amalgam, 8, core_radius=5)
    for mask in (ab.core_mask, ab.side_of_elements, ab.c_part):
        assert mask() is mask()
        with pytest.raises(ValueError, match="read-only"):
            mask()[0] = 0
    assert np.array_equal(ab.core_mask(), ab.ball.norms <= 5)
    assert np.array_equal(ab.side_of_elements(), ab.dual.side[ab.dual.vertex_of_element])


@pytest.mark.parametrize(
    "make_ctx, radius",
    [
        (lambda request: request.getfixturevalue("dinf_amalgam"), 20),
        (lambda request: request.getfixturevalue("z2z3_amalgam"), 15),
        (lambda request: request.getfixturevalue("z4z2z4_amalgam"), 20),
        (lambda request: request.getfixturevalue("a4z3z6_amalgam"), 6),
        (lambda request: path4_split(), 10),
        (lambda request: split_at(RACG_GRAPHS["cycle4"], 0), 12),
        (lambda request: split_at(RACG_GRAPHS["cycle5"], 0), 7),
        # C = Z2*Z2*Z2, on the link {1, 3, 5} of vertex 0
        (lambda request: split_at(RACG_GRAPHS["six"], 0), 6),
    ],
    ids=["dinf", "z2z3", "z4z2z4", "a4z3z6", "path4", "cycle4", "cycle5", "six"],
)
def test_c_part_is_the_gate_tail_of_every_ancestor(request, make_ctx, radius):
    # x = g_u m c for every ancestor u of pi(x) = v: word arithmetic gives
    # |m| = |rep(v)| - |rep(u)| and c = the C-part column's element
    ctx = make_ctx(request)
    ab = prepare(ctx, radius)
    ball, dual, eng = ab.ball, ab.dual, ctx.engine
    c_part = ab.c_part()
    base = dual.base()
    assert (dual.vertex_of_element[c_part] == base).all()
    reps = dual.fiber_order[dual.fiber_start[:-1]]
    assert (c_part[reps] == 0).all()
    rep_norm = ball.norms[reps].tolist()
    elements = ball_elements(ball)
    inv_rep = [eng.inverse(elements[rep]) for rep in dual.rep_ids.tolist()]
    parent = dual.parent.tolist()
    pairs = 0
    for x, v, c in zip(elements, dual.vertex_of_element.tolist(), c_part.tolist()):
        tail = to_c(ctx, elements[c])
        u = v
        while u >= 0:
            assert ctx.gate_tail(inv_rep[u], x) == (rep_norm[v] - rep_norm[u], tail)
            pairs += 1
            u = parent[u]
    assert pairs > len(ball)


def test_fibers_match_vertex_scan(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam, path4_split()):
        dual = prepare(ctx, 8).dual
        for u in range(dual.n_vertices):
            expected = np.nonzero(dual.vertex_of_element == u)[0]
            assert np.array_equal(dual.fiber(u), expected)
        assert not dual.fiber(dual.base()).flags.writeable
        # vertices are numbered in the ball order of their first elements
        assert (np.diff(dual.fiber_order[dual.fiber_start[:-1]]) > 0).all()


@pytest.mark.parametrize(
    "fixture, radius",
    [("dinf_amalgam", 16), ("z2z3_amalgam", 16), ("z4z2z4_amalgam", 12), (None, 9)],
)
def test_level_field_is_the_gate_coset_field_beyond_each_gate(request, fixture, radius):
    ctx = request.getfixturevalue(fixture) if fixture else path4_split()
    ab = prepare(ctx, radius)
    dual = ab.dual
    for lvl in range(0, int(dual.level.max()) + 1, 2):
        field, anc = ab.level_field(lvl)
        assert ab.level_field(lvl)[0] is field
        assert not field.flags.writeable and not anc.flags.writeable
        assert np.array_equal(anc, dual.ancestor_at_level(dual.vertex_of_element, lvl))
        for u in dual.vertices_at_level(lvl):
            beyond = anc == u
            assert beyond[dual.fiber(u)].all()
            own = ab.metric.dist_field(dual.fiber(u))
            assert np.array_equal(field[beyond], own[beyond])


@pytest.mark.parametrize(
    "split, radius", [("z2z3", 16), ("z2z3", 20), ("path4", 9), ("path4", 14)]
)
def test_partition_matches_per_gate_reference(z2z3_amalgam, split, radius):
    ctx = z2z3_amalgam if split == "z2z3" else path4_split()
    ab = prepare(ctx, radius, core_radius=radius - 3)
    for side in (SIDE_A, SIDE_B):
        part = partition_ball(ab, 8, 1, side)
        central, pieces, boundary = reference_partition(ab, 8, 1, side)
        assert np.array_equal(part.central, central)
        assert [u for u, _ in part.pieces] == [u for u, _ in pieces]
        for (_, got), (_, expected) in zip(part.pieces, pieces):
            assert np.array_equal(got, expected)
        assert np.array_equal(part.boundary, boundary)
        # on Z2*Z3 level-8 gates have pieces in the core, so the subtraction runs
        assert len(part.pieces) > 1 or split == "path4"


@pytest.mark.parametrize("split, radius", [("z2z3", 16), ("path4", 9)])
def test_compute_D_R_matches_unfiltered_reference(z2z3_amalgam, split, radius):
    ctx = z2z3_amalgam if split == "z2z3" else path4_split()
    sizes = []
    for big_r in (1, 2):
        ab = prepare(ctx, radius, core_radius=radius - 3 * big_r)
        dual = ab.dual
        base = dual.base()
        for side in (SIDE_A, SIDE_B):
            got = compute_D_R(ab, base, big_r, side=side)
            assert np.array_equal(got, reference_D_R(ab, base, big_r, side=side))
        for u in np.nonzero((dual.level > 0) & (dual.level % 2 == 0))[0].tolist():
            got = compute_D_R(ab, u, big_r)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference_D_R(ab, u, big_r))
            sizes.append(len(got))
    # both the skipped and the computed branch are exercised
    assert 0 in sizes and max(sizes) > 0


def test_assertion_2_2_example_value(dinf_ball, dinf_amalgam):
    # gamma = aba: tail z_k c = A.a, d(a, C) = 1 <= 3 = |gamma|
    eng = dinf_amalgam.engine
    aba = eng.normal_form([0, 1, 0])
    nf = amalgam_normal_form(dinf_ball, aba)
    tail = eng.multiply(nf.letters[-1], nf.c_part)
    assert dist_to_c(dinf_amalgam, tail) == 1
    assert eng.norm(aba) == 3


def test_compute_D_R_requires_positive_R(dinf_ball):
    with pytest.raises(PreconditionError):
        compute_D_R(dinf_ball, dinf_ball.dual.base(), 0, side=SIDE_A)


def test_compute_D_R_dinf_example(dinf_amalgam):
    ab = prepare(dinf_amalgam, 8, core_radius=5)
    eng = dinf_amalgam.engine
    ids = compute_D_R(ab, ab.dual.base(), 2, side=SIDE_A)
    elements = ball_elements(ab.ball)
    assert [eng.word_str(elements[i]) for i in ids] == ["A.a.B.b"]


def test_compute_D_R_projects_into_B_R(z2z3_amalgam):
    ab = prepare(z2z3_amalgam, 9, core_radius=6)
    dual = ab.dual
    levels = ab.element_level()
    for lvl in (2, 4):
        for u in dual.vertices_at_level(lvl, side=SIDE_A)[:3]:
            ids = compute_D_R(ab, u, 2)
            assert len(ids) > 0
            # pi(D_R^u) within B_R^u: levels between |u| and |u| + R
            assert all(lvl <= levels[i] <= lvl + 2 for i in ids)


def test_compute_D_R_out_of_ball(dinf_amalgam):
    ab = prepare(dinf_amalgam, 6, core_radius=6)
    with pytest.raises(OutOfBallError):
        compute_D_R(ab, ab.dual.base(), 2, side=SIDE_A)


def test_separation_preconditions(dinf_ball):
    dual = dinf_ball.dual
    base = dual.base()
    close = dual.vertices_at_level(2, side=SIDE_A)[0]
    with pytest.raises(PreconditionError):
        check_separation(dinf_ball, base, close, 2)  # |u'| - |u| = 2 <= R


def test_separation_dinf_and_racg(dinf_amalgam, path3_amalgam):
    for ctx in (dinf_amalgam, path3_amalgam):
        ab = prepare(ctx, 8, core_radius=5)
        dual = ab.dual
        u_prime = dual.vertices_at_level(4, side=SIDE_A)[0]
        verdict = check_separation(ab, dual.base(), u_prime, 2)
        assert verdict.passed, verdict.line()


def test_separation_fails_on_corrupted_boundary(dinf_amalgam):
    # fault injection: removing a point from D_R must break the separation,
    # and the checker reports the leaking witness
    ab = prepare(dinf_amalgam, 8, core_radius=5)
    dual = ab.dual
    u_prime = dual.vertices_at_level(4, side=SIDE_A)[0]
    d_set = compute_D_R(ab, dual.base(), 2, side=SIDE_A)
    verdict = check_separation(
        ab, dual.base(), u_prime, 2, boundary_override=d_set[:-1]
    )
    assert not verdict.passed
    assert verdict.witness is not None
    assert "path avoiding" in verdict.note


def test_translate_disjointness_bounds(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
        for r in (4, 8):
            big_r = r // 4
            ab = prepare(ctx, 3 * r, core_radius=3 * r - 3 * big_r)
            verdict = check_translate_disjointness(ab, r, big_r)
            assert verdict.passed, (ctx.name, r, verdict.line())


def reference_translates(ab, r, R):
    """Prop 2.2's non-empty translates (u, level, ids), one coset field per
    side-A gate at level multiples of r, the base first."""
    dual = ab.dual
    beyond = reference_gate_fields(ab, R, SIDE_A)
    translates = []
    for lvl in range(0, int(dual.level.max()) + 1, r):
        for u in [dual.base()] if lvl == 0 else dual.vertices_at_level(lvl, side=SIDE_A):
            field, far = beyond(u, lvl)
            ids = np.nonzero((field == R) & far & ab.core_mask())[0]
            if len(ids):
                translates.append((u, lvl, ids))
    return translates


def reference_pair_scan(ab, translates, R):
    """Prop 2.2 by the per-pair scan: one field per translate, every pair in
    (i, j) order, the first failing pair reported."""
    checked = 0
    for i, j, d in ab.metric.pair_gaps([ids for _, _, ids in translates]):
        (ui, li, _), (uj, lj, _) = translates[i], translates[j]
        d = float("inf") if d >= amalgam.UNREACHED else float(d)
        checked += 1
        need = 3 * R if li != lj else 2 * R
        if d < need:
            return CheckVerdict(
                "prop-2.2-disjointness",
                False,
                checked,
                witness=(int(ui), int(uj), d),
                note=f"needed >= {need}",
            )
    return CheckVerdict(
        "prop-2.2-disjointness", True, checked, note=f"{len(translates)} translates"
    )


TRANSLATE_SETTINGS = [
    (fixture, r, big_r, 3 * r)
    for fixture in ("dinf_amalgam", "z4z2z4_amalgam")
    for r in (4, 8, 12)
    for big_r in range(1, r // 4 + 1)
] + [
    ("z2z3_amalgam", 4, 1, 12),
    ("z2z3_amalgam", 8, 2, 24),
    ("z2z3_amalgam", 8, 1, 20),
    ("z2z3_amalgam", 12, 1, 16),
    ("z2z3_amalgam", 12, 3, 24),
    (None, 4, 1, 12),
    (None, 8, 1, 13),
    (None, 8, 1, 14),
    (None, 8, 2, 14),
]


@pytest.mark.parametrize("fixture, r, big_r, radius", TRANSLATE_SETTINGS)
def test_translate_disjointness_equals_per_pair_scan(request, fixture, r, big_r, radius):
    ctx = request.getfixturevalue(fixture) if fixture else path4_split()
    ab = prepare(ctx, radius, core_radius=radius - 3 * big_r)
    translates = reference_translates(ab, r, big_r)
    got = collect_translates(ab, r, big_r)
    assert [(u, lvl) for u, lvl, _ in got] == [(u, lvl) for u, lvl, _ in translates]
    assert all(np.array_equal(g[2], t[2]) for g, t in zip(got, translates))
    expected = reference_pair_scan(ab, translates, big_r)
    assert check_translate_disjointness(ab, r, big_r).line() == expected.line()


def _point(ab, *conditions):
    """The first ball id at exact or least distance from given points:
    conditions are (point, distance, exact)."""
    ok = np.ones(ab.n, dtype=bool)
    for p, d, exact in conditions:
        field = ab.metric.dist_field([p])
        ok &= field == d if exact else field >= d
    return int(np.nonzero(ok)[0][0])


def shared_point(ab, R, base, u1, u2):
    # two same-level translates meet in the identity; otherwise 2R apart
    a = _point(ab, (0, 3 * R, False))
    b = _point(ab, (0, 3 * R, False), (a, 3 * R, False))
    return {u1: [0, a], u2: [0, b]}


def same_level_too_close(ab, R, base, u1, u2):
    # the last pair of three is at 2R - 1, both at one level
    y = _point(ab, (0, 2 * R - 1, True))
    z = _point(ab, (0, 3 * R, False), (y, 3 * R, False))
    return {base: [z], u1: [0], u2: [y]}


def cross_level_too_close(ab, R, base, u1, u2):
    # levels 0 and r at 2R, short of 3R; the same-level pair is 2R apart
    y = _point(ab, (0, 2 * R, True))
    w = _point(ab, (0, 3 * R, False), (y, 2 * R, False))
    return {base: [0], u1: [y], u2: [w]}


@pytest.mark.parametrize(
    "plant", [shared_point, same_level_too_close, cross_level_too_close]
)
def test_translate_disjointness_fails_on_planted_translates(z2z3_amalgam, monkeypatch, plant):
    r, big_r = 8, 2
    ab = prepare(z2z3_amalgam, 16, core_radius=16 - 3 * big_r)
    base = ab.dual.base()
    u1, u2 = ab.dual.vertices_at_level(r, side=SIDE_A)[:2]
    planted = [
        (u, int(ab.dual.level[u]), np.asarray(ids, dtype=np.int64))
        for u, ids in sorted(plant(ab, big_r, base, u1, u2).items())
    ]
    monkeypatch.setattr(amalgam, "collect_translates", lambda ab, r, R: planted)
    expected = reference_pair_scan(ab, planted, big_r)
    got = check_translate_disjointness(ab, r, big_r)
    assert not expected.passed
    assert got.line() == expected.line()


def test_translate_disjointness_is_one_bfs_on_a_pass(z2z3_amalgam, monkeypatch):
    r, big_r = 8, 1
    ab = prepare(z2z3_amalgam, 20, core_radius=20 - 3 * big_r)
    for lvl in range(0, int(ab.dual.level.max()) + 1, r):
        ab.level_field(lvl)
    calls = []
    dist_field = GraphMetric.dist_field

    def counted(self, *args, **kwargs):
        calls.append(1)
        return dist_field(self, *args, **kwargs)

    monkeypatch.setattr(GraphMetric, "dist_field", counted)
    verdict = check_translate_disjointness(ab, r, big_r)
    assert verdict.line() == "prop-2.2-disjointness: pass [37128 checks] (273 translates)"
    assert len(calls) <= 1


def test_translates_and_partition_build_no_per_gate_mask(z2z3_amalgam, monkeypatch):
    # with the level fields warmed, both checkers read one selection per
    # level and split it by gate: neither calls the per-gate forms
    r, big_r = 8, 1
    ab = prepare(z2z3_amalgam, 20, core_radius=20 - 3 * big_r)
    for lvl in range(0, int(ab.dual.level.max()) + r + 1, r):
        ab.level_field(lvl)

    def per_gate(*args, **kwargs):
        raise AssertionError("per-gate mask built")

    monkeypatch.setattr(amalgam, "compute_D_R", per_gate)
    monkeypatch.setattr(amalgam, "beyond_set", per_gate)
    assert check_translate_disjointness(ab, r, big_r).passed
    for side in (SIDE_A, SIDE_B):
        assert verify_partition(ab, partition_ball(ab, r, big_r, side)).passed


def test_translate_disjointness_precondition(dinf_ball):
    with pytest.raises(PreconditionError):
        check_translate_disjointness(dinf_ball, 4, 2)  # R > r/4


def test_partition_dinf_covers_and_overlaps_in_boundary(dinf_amalgam):
    ab = prepare(dinf_amalgam, 24, core_radius=20)
    part = partition_ball(ab, 8, 1, SIDE_A)
    verdict = verify_partition(ab, part)
    assert verdict.passed, verdict.line()
    assert len(part.pieces) >= 2
    payload = partition_json(ab, part)
    assert payload["r"] == 8 and payload["side"] == "A"


def test_partition_needs_room(dinf_ball):
    with pytest.raises(PreconditionError):
        partition_ball(dinf_ball, 8, 2, SIDE_A)  # r <= 4R


def test_partition_small_ball_keeps_central_piece(dinf_amalgam):
    # no level-r gates inside the ball: only the base slab and N_R(C) remain
    ab = prepare(dinf_amalgam, 6, core_radius=4)
    part = partition_ball(ab, 12, 1, SIDE_A)
    assert len(part.central) > 0
    assert [int(ab.dual.level[u]) for u, _ in part.pieces] == [0]
    assert verify_partition(ab, part).passed


def test_partition_racg(path3_amalgam):
    ab = prepare(path3_amalgam, 14, core_radius=11)
    part = partition_ball(ab, 6, 1, SIDE_B)
    assert verify_partition(ab, part).passed


def test_partition_pieces_two_levels_apart_are_r_separated(dinf_amalgam):
    ab = prepare(dinf_amalgam, 28, core_radius=25)
    r = 8
    part = partition_ball(ab, r, 1, SIDE_A)
    by_level = {}
    for u, ids in part.pieces:
        by_level.setdefault(int(ab.dual.level[u]) // r, []).append(ids)
    levels = sorted(by_level)
    assert len(levels) >= 3
    for n1 in levels:
        for n2 in levels:
            if abs(n1 - n2) >= 2:
                a = sorted(int(i) for ids in by_level[n1] for i in ids)
                b = [int(i) for ids in by_level[n2] for i in ids]
                fld = ab.metric.dist_field(a)
                assert min(fld[i] for i in b) >= r


def test_translation_equivariance_on_samples(dinf_amalgam):
    # pi^{-1}(B_r^u) = g_u pi^{-1}(B_r^A) checked setwise for an even-level u
    ab = prepare(dinf_amalgam, 12, core_radius=8)
    eng = dinf_amalgam.engine
    dual = ab.dual
    u = dual.vertices_at_level(2, side=SIDE_A)[0]
    elements = ball_elements(ab.ball)
    g_u = elements[dual.rep_ids[u]]
    r = 2
    levels = ab.element_level()
    anc = dual.ancestor_at_level(dual.vertex_of_element, 2)
    lhs = {
        elements[i]
        for i in range(ab.n)
        if anc[i] == u and levels[i] <= 2 + r and ab.ball.norms[i] <= 6
    }
    base_region = [
        elements[i]
        for i in range(ab.n)
        if levels[i] <= r
        and ab.side_of_elements()[i] in (SIDE_A, SIDE_BASE)
        and ab.ball.norms[i] <= 4
    ]
    translated = {eng.multiply(g_u, x) for x in base_region}
    assert translated <= lhs


def test_dual_graph_dot_alternates_piece_labels(dinf_amalgam):
    ab = prepare(dinf_amalgam, 6)
    dot = dual_graph_dot(ab)
    assert dot.startswith("graph dual_graph {")
    assert 'label="A"' in dot and 'label="B"' in dot


def test_dinf_dual_graph_is_alternating_path(dinf_amalgam):
    # K for Dinf at radius 6: a path whose pieces alternate Delta(A)/Delta(B)
    ab = prepare(dinf_amalgam, 6)
    dual = ab.dual
    members = [dual.piece(p).tolist() for p in range(len(dual.piece_side))]
    multi = [m for m in members if len(m) > 1]
    assert all(len(m) == 2 for m in multi)
    degree = {}
    for m in multi:
        for u in m:
            degree[u] = degree.get(u, 0) + 1
    assert max(degree.values()) <= 2  # a path
    # consecutive pieces along the path have different types Delta(A)/Delta(B)
    for u in degree:
        meeting = [
            dual.piece_side[p] for p, mem in enumerate(members) if u in mem and len(mem) > 1
        ]
        assert len(set(meeting)) == len(meeting)


def test_dual_graph_radius_zero_single_vertex(dinf_amalgam):
    ab = prepare(dinf_amalgam, 0)
    assert ab.dual.n_vertices == 1
    assert int(ab.dual.level[0]) == 0
