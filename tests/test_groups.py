import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from asdimlab import groups
from asdimlab.amalgam import TableAmalgam
from asdimlab.cli import build_context
from asdimlab.coxeter import CoxeterSystem
from asdimlab.errors import InputError, ResourceCapError, UnsupportedBackendError
from asdimlab.groups import (
    BALL_JSON_BYTES,
    ElementBall,
    FiniteTableGroup,
    RacgEngine,
    bfs_ball,
    build_ball,
    projected_ball_size,
)

from conftest import (
    CYCLE5,
    PATH3,
    RACG_GRAPHS,
    commutation_matrix,
    cyclic_table,
    enumerate_words_brute,
    z34_loop,
    z_n_group,
)
from word_oracles import ball_elements, cayley_edges


def parse_word(engine, text):
    """Inverse of `RacgEngine.word_str` (spaces also separate letters):
    every token is a generator name, and only the empty word is the
    identity."""
    idx = {n: i for i, n in enumerate(engine.names)}
    return tuple(idx[t] for t in text.replace(".", " ").split())


def test_table_group_identity_norms_and_distance():
    table, names = cyclic_table(4)
    g = FiniteTableGroup(table, names=names)
    assert g.identity == 0
    assert g.diameter == 1  # all non-identity elements generate
    assert g.distance(1, 3) == 1
    assert g.norm(0) == 0


def test_table_group_custom_generators():
    table, names = cyclic_table(5)
    g = FiniteTableGroup(table, names=names, generators=[1, 4])
    assert g.norm(2) == 2
    assert g.diameter == 2


def test_table_group_rejects_non_symmetric_generators():
    table, names = cyclic_table(5)
    with pytest.raises(InputError):
        FiniteTableGroup(table, names=names, generators=[1])


def test_table_group_rejects_a_symmetric_set_that_does_not_generate():
    # Klein four-group: {1} is its own inverse set and spans {0, 1} only
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    with pytest.raises(InputError, match="^given set does not generate the group$"):
        FiniteTableGroup(table, generators=[1])


def test_table_group_rejects_non_group_table():
    with pytest.raises(InputError):
        FiniteTableGroup([[0, 1], [0, 1]])


def test_table_group_rejects_a_non_associative_table_above_32_elements():
    table, names = z34_loop()
    assert table[table[1][1]][1] != table[1][table[1][1]]
    with pytest.raises(InputError, match="^table is not associative$"):
        FiniteTableGroup(table, names=names)


def test_racg_normal_form_examples(path3_engine):
    eng = path3_engine
    assert eng.normal_form([]) == ()
    assert eng.normal_form([1, 1]) == ()  # s s = e
    assert eng.word_str(eng.normal_form(parse_word(eng, "a b a"))) == "b"
    assert eng.word_str(eng.normal_form(parse_word(eng, "a c a"))) == "a.c.a"


def test_racg_rejects_non_right_angled():
    with pytest.raises(UnsupportedBackendError):
        RacgEngine([[1, 3], [3, 1]])


def test_racg_rejects_duplicate_generator_names():
    with pytest.raises(InputError):
        RacgEngine([[1, 0], [0, 1]], names=["a", "a"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=14))
def test_racg_normal_form_idempotent_on_cycle5(word):
    eng = RacgEngine(CYCLE5)
    nf = eng.normal_form(word)
    assert eng.normal_form(nf) == nf


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2), max_size=12))
def test_racg_norm_symmetry(word):
    eng = RacgEngine(PATH3)
    x = eng.normal_form(word)
    assert eng.norm(x) == eng.norm(eng.inverse(x))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=10), st.lists(st.integers(0, 4), max_size=10))
def test_racg_multiplication_consistent_with_concatenation(w1, w2):
    eng = RacgEngine(CYCLE5)
    assert eng.multiply(eng.normal_form(w1), eng.normal_form(w2)) == eng.normal_form(
        list(w1) + list(w2)
    )


def test_ball_radius_zero():
    eng = RacgEngine(PATH3)
    ball = build_ball(eng, 0)
    assert len(ball) == 1 and ball_elements(ball)[0] == ()


def test_dinf_ball_radius_three():
    eng = RacgEngine([[1, 0], [0, 1]], names=["a", "b"])
    ball = build_ball(eng, 3)
    words = sorted(eng.word_str(x) for x in ball_elements(ball))
    assert words == ["", "a", "a.b", "a.b.a", "b", "b.a", "b.a.b"]


def test_racg_identity_is_the_empty_word():
    # `e` is an ordinary generator name: only the empty word is the identity
    eng = RacgEngine(CYCLE5, names=["a", "b", "c", "d", "e"])
    assert eng.word_str(eng.identity) == ""
    assert parse_word(eng, "") == ()
    assert parse_word(eng, "e") == (4,)
    ball = build_ball(eng, 3)
    elements = ball_elements(ball)
    words = [eng.word_str(x) for x in elements]
    assert len(set(words)) == len(ball)
    assert [eng.normal_form(parse_word(eng, w)) for w in words] == elements


def test_cycle5_ball_count_matches_brute_enumeration():
    eng = RacgEngine(CYCLE5)
    for radius in (1, 2, 3):
        ball = build_ball(eng, radius)
        assert len(ball) == len(enumerate_words_brute(eng, radius))
    assert len(build_ball(eng, 2)) == 21  # 1 + 5 + (20 ordered pairs - 5 merged)


def test_bfs_layers_equal_norms():
    eng = RacgEngine(CYCLE5)
    ball = build_ball(eng, 5)
    for i, x in enumerate(ball_elements(ball)):
        assert ball.norms[i] == eng.norm(x)


def test_ball_cap_error_reports_cap():
    eng = RacgEngine(CYCLE5)
    with pytest.raises(ResourceCapError) as err:
        build_ball(eng, 6, cap=100)
    assert err.value.cap == 100


def test_cliques_larger_than_the_radius_do_not_count_against_the_cap():
    # Z2^30 has 2^30 cliques, each a distinct element, but only those of up
    # to 2 letters lie in its radius-2 ball: 1 + 30 + 435 elements
    k = 30
    eng = RacgEngine(commutation_matrix(k, [(i, j) for i in range(k) for j in range(i)]))
    assert len(build_ball(eng, 2, cap=466)) == 466
    with pytest.raises(ResourceCapError):
        build_ball(eng, 2, cap=465)


def test_distance_normal_form_vs_bfs_cross_oracle():
    eng = RacgEngine(CYCLE5)
    ball = build_ball(eng, 8)
    metric = ball.graph_metric()
    elements = ball_elements(ball)
    rng = np.random.default_rng(5)
    core = [i for i in range(len(ball)) if ball.norms[i] <= 4]
    for _ in range(120):
        i, j = rng.choice(core, size=2)
        alg = eng.distance(elements[i], elements[j])
        assert metric.dist(int(i), int(j)) == alg


def test_parabolic_balls_embed_isometrically():
    eng = RacgEngine(CYCLE5)
    big = build_ball(eng, 6)
    letters_sets = [[0], [0, 1], [0, 2], [0, 1, 2], [1, 3, 4]]
    for letters in letters_sets:
        sub, mapping = eng.sub_engine(letters)
        sub_ball = build_ball(sub, 6)
        # the parabolic ball, re-encoded into ambient letters
        images = {
            tuple(mapping[g] for g in x): sub.norm(x) for x in ball_elements(sub_ball)
        }
        ambient = {
            x: int(big.norms[i])
            for i, x in enumerate(ball_elements(big))
            if set(x) <= set(letters)
        }
        assert images == ambient


def assert_spells(ball, reference):
    """The parent and letter columns of `ball` spell the elements of the
    generic BFS `reference`: each parent is one shorter, each column-spelled
    word re-normalises to the element, and the streamed and single words are
    its `word_str`."""
    eng = ball.engine
    assert np.array_equal(ball.norms[ball.parent[1:]], ball.norms[1:] - 1)
    assert [eng.normal_form(ball.letters(i)) for i in range(len(ball))] == reference.elements
    words = [eng.word_str(x) for x in reference.elements]
    assert list(ball.iter_words()) == words
    assert [ball.word(i) for i in range(len(ball))] == words


@pytest.mark.parametrize("graph", sorted(RACG_GRAPHS))
def test_racg_ball_equals_generic_bfs(graph):
    eng = RacgEngine(RACG_GRAPHS[graph])
    for radius in range(9):
        ball, reference = build_ball(eng, radius), bfs_ball(eng, radius)
        assert_spells(ball, reference)
        assert ball.norms.dtype == reference.norms.dtype
        assert np.array_equal(ball.norms, reference.norms)
        assert ball.table.shape == reference.table.shape == (len(ball), eng.rank)
        assert np.array_equal(ball.table, reference.table)
        assert not ball.table.flags.writeable


@pytest.mark.parametrize("rank", [63, 64, 70])
def test_racg_ball_at_the_descent_bit_limit(rank):
    # 63 generators fill the int64 descent masks; from 64 on they are
    # Python ints
    eng = RacgEngine(commutation_matrix(rank, [(0, rank - 1), (rank - 2, rank - 1)]))
    ball, reference = build_ball(eng, 2), bfs_ball(eng, 2)
    assert_spells(ball, reference)
    assert np.array_equal(ball.table, reference.table)
    assert b"".join(ball.iter_json()) == b"".join(reference.iter_json())
    assert_exact_size(eng, 2, len(ball))


def assert_exact_size(engine, radius, size):
    """`projected_ball_size` is the ball's size at a cap of that size, and
    above the cap at a cap one lower."""
    assert projected_ball_size(engine, radius, size) == size
    assert projected_ball_size(engine, radius, size - 1) > size - 1


def load_bench(name):
    """A module of perfbench/, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def test_ball_size_is_the_bench_oracles_growth_series():
    # the bench oracle's series are written apart from src: up to radius 40
    # on every bench document and every RACG graph
    oracle, workloads = load_bench("oracle"), load_bench("workloads")
    docs = [*workloads.DOCUMENTS.values(), *({"matrix": m} for m in RACG_GRAPHS.values())]
    for doc in docs:
        if doc.get("type") == "table_amalgam":
            engine = build_context(doc).engine
        else:
            engine = CoxeterSystem.from_json(doc).engine()
        spheres = oracle.spheres_of(doc, 40)
        for radius in range(41):
            assert_exact_size(engine, radius, sum(spheres[: radius + 1]))


# the table amalgams of conftest, with the radii their sphere enumeration
# is compared with the generic BFS at
TABLE_AMALGAM_RADII = {
    "dinf_amalgam": 10,
    "z2z3_amalgam": 10,
    "z4z2z4_amalgam": 10,
    "a4z3z6_amalgam": 5,
}


@pytest.mark.parametrize("amalgam", sorted(TABLE_AMALGAM_RADII))
def test_table_amalgam_ball_equals_generic_bfs(request, amalgam):
    eng = request.getfixturevalue(amalgam).engine
    for radius in range(TABLE_AMALGAM_RADII[amalgam] + 1):
        ball, reference = build_ball(eng, radius), bfs_ball(eng, radius)
        assert_spells(ball, reference)
        assert_exact_size(eng, radius, len(ball))
        assert ball.norms.dtype == reference.norms.dtype
        assert np.array_equal(ball.norms, reference.norms)
        assert ball.table.shape == reference.table.shape == (len(ball), eng.gen_count)
        assert np.array_equal(ball.table, reference.table), radius
        assert not ball.table.flags.writeable


@pytest.mark.parametrize("enumerate_ball", [build_ball, bfs_ball], ids=["racg", "bfs"])
@pytest.mark.parametrize(
    "graph, radius",
    [("cycle5", 4), ("z2-cubed", 5), ("star", 3), ("z2z3_amalgam", 7), ("a4z3z6_amalgam", 3)],
)
def test_ball_cap_is_the_element_count(request, enumerate_ball, graph, radius):
    if graph in RACG_GRAPHS:
        eng = RacgEngine(RACG_GRAPHS[graph])
    else:
        eng = request.getfixturevalue(graph).engine
    size = len(enumerate_ball(eng, radius))
    assert len(enumerate_ball(eng, radius, cap=size)) == size
    with pytest.raises(ResourceCapError):
        enumerate_ball(eng, radius, cap=size - 1)


def test_ball_table_is_the_product_table(dinf_amalgam, z4z2z4_amalgam):
    engines = [
        RacgEngine(CYCLE5),
        FiniteTableGroup(*cyclic_table(5)),
        dinf_amalgam.engine,
        z4z2z4_amalgam.engine,
    ]
    for eng in engines:
        ball = build_ball(eng, 4)
        elements = ball_elements(ball)
        index = {x: i for i, x in enumerate(elements)}
        for i, x in enumerate(elements):
            for g in range(eng.gen_count):
                y = index.get(eng.mul_gen(x, g), -1)
                assert ball.table[i, g] == y
                assert y >= 0 or ball.norms[i] == 4


def test_cayley_edges_are_the_distinct_in_ball_pairs(z2z3_amalgam):
    # the identity as a generator gives loops, which are not edges
    with_loops = FiniteTableGroup(*cyclic_table(7), generators=[0, 1, 6])
    for eng, radius in ((RacgEngine(CYCLE5), 5), (z2z3_amalgam.engine, 9), (with_loops, 2)):
        ball = build_ball(eng, radius)
        expected = {
            (min(u, int(v)), max(u, int(v)))
            for u, row in enumerate(ball.table)
            for v in row
            if v >= 0 and v != u
        }
        edges = cayley_edges(ball)
        assert edges == sorted(expected)
        assert all(type(u) is int and type(v) is int for u, v in edges)


def test_ball_json_shape(path3_engine):
    ball = build_ball(path3_engine, 2)
    payload = ball.to_json()
    assert payload["radius"] == 2
    assert payload["elements"][0] == {"id": 0, "word": "", "norm": 0}
    assert all(len(e) == 3 for e in payload["edges"])


def reference_ball_json(ball):
    return (json.dumps(ball.to_json(), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize(
    "make_engine, radius",
    [
        (lambda request: RacgEngine(CYCLE5), 3),
        (lambda request: FiniteTableGroup(*cyclic_table(5)), 1),
        (lambda request: request.getfixturevalue("dinf_amalgam").engine, 6),
        (lambda request: request.getfixturevalue("z4z2z4_amalgam").engine, 3),
        (lambda request: request.getfixturevalue("path3_amalgam").engine, 4),
    ],
    ids=["racg", "table", "dinf", "z4z2z4", "racg-split"],
)
def test_ball_json_stream_equals_json_dumps(request, make_engine, radius):
    ball = build_ball(make_engine(request), radius)
    assert b"".join(ball.iter_json()) == reference_ball_json(ball)


def element_blocks(blocks):
    """The blocks of `Ball.iter_json` that hold element records."""
    return blocks[blocks.index(b',\n  "elements": [') + 1 : -1]


# the budget of about three records, 70 to 90 bytes each here, splits spheres
@pytest.mark.parametrize("budget", [BALL_JSON_BYTES, 250], ids=["default-chunk", "chunk-3"])
@pytest.mark.parametrize("amalgam, radius", [("z4z2z4_amalgam", 6), ("a4z3z6_amalgam", 3)])
def test_table_amalgam_ball_words_are_word_str(request, monkeypatch, amalgam, radius, budget):
    # C is not trivial, so words carry the .C. suffix, and the identity is e
    monkeypatch.setattr(groups, "BALL_JSON_BYTES", budget)
    eng = request.getfixturevalue(amalgam).engine
    ball = build_ball(eng, radius)
    assert not isinstance(ball, ElementBall)
    expected = [eng.word_str(x) for x in ball_elements(ball)]
    assert expected[0] == "e" and any(".C." in w for w in expected)
    blocks = list(ball.iter_json())
    assert b"".join(blocks) == reference_ball_json(ball)
    streamed = [record["word"] for record in json.loads(b"".join(blocks))["elements"]]
    assert streamed == list(ball.iter_words()) == expected
    # a block never spans two spheres, and the small budget splits spheres
    spheres = int(ball.norms[-1]) + 1
    if budget == BALL_JSON_BYTES:
        assert len(element_blocks(blocks)) == spheres
    else:
        assert len(element_blocks(blocks)) > spheres


def bfs_json_text(engine, radius):
    """ball.json built from the generic BFS alone: its tuples' `word_str`,
    its norms and its table's in-ball edges u <= v in row-major order."""
    ref = bfs_ball(engine, radius)
    document = {
        "radius": radius,
        "elements": [
            {"id": i, "word": engine.word_str(x), "norm": int(ref.norms[i])}
            for i, x in enumerate(ref.elements)
        ],
        "edges": [
            [u, v, engine.gen_names[g]]
            for u, row in enumerate(ref.table.tolist())
            for g, v in enumerate(row)
            if u <= v
        ],
    }
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


# every RACG graph of conftest, the 63-letter descent-bit limit, and the
# three table amalgams of the benchmark, with the radius each is streamed at
STREAM_ORACLE_CASES = {
    **{graph: (lambda graph=graph: RacgEngine(RACG_GRAPHS[graph]), radius)
       for graph, radius in [("free", 7), ("z2-cubed", 4), ("cycle4", 8), ("path4", 8),
                             ("cycle5", 6), ("star", 6), ("six", 5)]},
    "descent-limit-63": (lambda: RacgEngine(commutation_matrix(63, [(0, 62), (61, 62)])), 2),
    "dinf": (lambda: _table_amalgam_engine((2, 2), "a", "b", [0]), 40),
    "z2z3": (lambda: _table_amalgam_engine((2, 3), "a", "b", [0]), 14),
    "z4z2z4": (lambda: _table_amalgam_engine((4, 4), "x", "y", [0, 2]), 12),
}


@pytest.mark.parametrize("name", sorted(STREAM_ORACLE_CASES))
def test_streamed_ball_json_equals_the_bfs_reference(name):
    make, radius = STREAM_ORACLE_CASES[name]
    engine = make()
    ball = build_ball(engine, radius)
    assert not isinstance(ball, ElementBall)
    assert b"".join(ball.iter_json()) == bfs_json_text(engine, radius)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.just(k), st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)))
        )
    ),
    st.integers(0, 5),
)
def test_racg_parent_columns_spell_the_normal_forms(graph, radius):
    k, pairs = graph
    engine = RacgEngine(commutation_matrix(k, [(i, j) for i, j in pairs if i != j]))
    ball = build_ball(engine, radius)
    assert ball.parent[0] == ball.letter[0] == -1
    assert_spells(ball, bfs_ball(engine, radius))


def test_sphere_balls_hold_integer_columns_only(z4z2z4_amalgam):
    for engine in (RacgEngine(CYCLE5), z4z2z4_amalgam.engine):
        ball = build_ball(engine, 6)
        assert not hasattr(ball, "elements")
        for name, value in vars(ball).items():
            if name == "engine":
                continue
            assert isinstance(value, int) or value.dtype.kind == "i", name
            assert isinstance(value, int) or not value.flags.writeable, name


def test_dinf_ball_memory_is_linear_in_the_radius(dinf_amalgam):
    # no per-vertex word tuple: doubling the radius doubles the elements
    # and at most the traced peak, not four times
    def peak(radius):
        tracemalloc.start()
        try:
            build_ball(dinf_amalgam.engine, radius)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < 2.5 * peak(1000)


def test_ball_json_stream_radius_zero_has_empty_edge_list():
    ball = build_ball(RacgEngine(PATH3), 0)
    text = b"".join(ball.iter_json())
    assert text == reference_ball_json(ball)
    assert b'"edges": [],' in text


def test_ball_json_stream_spans_chunks():
    ball = build_ball(RacgEngine(CYCLE5), 8)
    blocks = list(ball.iter_json())
    text = b"".join(blocks)
    assert len(text) > 8 * BALL_JSON_BYTES
    assert len(element_blocks(blocks)) > 4  # both arrays split across several blocks
    assert len(blocks) - len(element_blocks(blocks)) > 8
    assert max(map(len, blocks)) <= BALL_JSON_BYTES
    assert text == reference_ball_json(ball)


BLOCK_BALLS = {
    "racg": lambda: build_ball(RacgEngine(CYCLE5), 4),
    "radius-0": lambda: build_ball(RacgEngine(PATH3), 0),
    "table-bfs": lambda: build_ball(FiniteTableGroup(*cyclic_table(5), generators=[1, 4]), 3),
    # the identity as a generator gives loops u -> u, records of ball.json
    "loops-bfs": lambda: build_ball(FiniteTableGroup(*cyclic_table(7), generators=[0, 1, 6]), 2),
    # build_ball enumerates any rank by descent sets; the reference BFS
    # spells a 64-letter ball from its elements
    "racg64-bfs": lambda: bfs_ball(RacgEngine(commutation_matrix(64, [(0, 63)])), 1),
}


@pytest.mark.parametrize("budget", [1, 400, BALL_JSON_BYTES])
@pytest.mark.parametrize("name", sorted(BLOCK_BALLS))
def test_ball_json_blocks_at_any_byte_budget(monkeypatch, name, budget):
    # budget 1 gives one-record blocks and one table row per edge block, so
    # the 5-cycle ball's outer-sphere rows, whose entries all point back,
    # yield no edge block; budget 400 splits its spheres across blocks
    monkeypatch.setattr(groups, "BALL_JSON_BYTES", budget)
    ball = BLOCK_BALLS[name]()
    assert isinstance(ball, ElementBall) == name.endswith("-bfs")
    blocks = list(ball.iter_json())
    assert all(type(block) is bytes for block in blocks)
    assert b"".join(blocks) == reference_ball_json(ball)
    elements = element_blocks(blocks)
    records = [block.count(b'"id": ') for block in elements]
    assert sum(records) == len(ball)
    assert all(n == 1 or len(block) <= budget for n, block in zip(records, elements))
    spheres = int(ball.norms[-1]) + 1
    if budget == 1:
        assert records == [1] * len(ball)
        with_edges = (ball.table >= np.arange(len(ball))[:, None]).any(axis=1)
        assert len(blocks) - len(elements) - 4 == np.count_nonzero(with_edges)
        if name == "racg":
            assert not with_edges.all()
    elif budget == 400 and name == "racg":
        assert spheres < len(elements) < len(ball)
    elif budget == BALL_JSON_BYTES:
        assert len(elements) == spheres


def test_ball_json_stream_peak_memory_is_below_the_edge_table():
    # the edge records are rendered one block of table rows at a time: no
    # (src, gen, dst) arrays of every directed edge, about 3x the table
    ball = build_ball(RacgEngine(CYCLE5), 9)
    tracemalloc.start()
    try:
        for _ in ball.iter_json():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ball.table.nbytes


def test_ball_json_stream_escapes_names_as_json_dumps():
    # json.dumps writes a NUL as \u0000, so dropping the padding's NUL
    # bytes drops no byte of the document
    names = ["\u03b1", 'q"t', "b\\c", "n\x00l"]
    racg = build_ball(RacgEngine(commutation_matrix(4, [(0, 1), (1, 2)]), names=names), 3)
    table, _ = cyclic_table(3)
    group = build_ball(FiniteTableGroup(table, names=["e", "\u00e9\x00", "x\ty"]), 1)
    for ball in (racg, group):
        text = b"".join(ball.iter_json())
        assert text == reference_ball_json(ball)
        assert text.isascii() and b"\\u0000" in text


def _table_amalgam_engine(n, stem_a, stem_b, embed):
    return TableAmalgam(z_n_group(n[0], stem_a), z_n_group(n[1], stem_b), embed, embed).engine


CONVEX_BALLS = {
    "cycle5": (lambda: RacgEngine(CYCLE5), 4),
    "path4": (lambda: RacgEngine(RACG_GRAPHS["path4"]), 5),
    "z2-free-cubed": (lambda: RacgEngine(RACG_GRAPHS["free"]), 5),
    "dinf": (lambda: _table_amalgam_engine((2, 2), "a", "b", [0]), 12),
    "z2z3": (lambda: _table_amalgam_engine((2, 3), "a", "b", [0]), 8),
    "z4z2z4": (lambda: _table_amalgam_engine((4, 4), "x", "y", [0, 2]), 10),
    "z6z3z6": (lambda: _table_amalgam_engine((6, 6), "x", "y", [0, 2, 4]), 9),
}


@pytest.mark.parametrize("name", sorted(CONVEX_BALLS))
def test_cayley_balls_are_convex(name):
    # the lemma behind builder.set_diameters: for every rho, the graph
    # distance inside B(rho) equals the word distance for every pair of B(rho)
    make, radius = CONVEX_BALLS[name]
    engine = make()
    ball = build_ball(engine, radius)
    elements = ball_elements(ball)
    words = np.array([[engine.distance(x, y) for y in elements] for x in elements])
    for rho in range(1, radius + 1):
        n = int(np.searchsorted(ball.norms, rho, side="right"))
        src, gen = np.nonzero((ball.table[:n] >= 0) & (ball.table[:n] < n))
        graph = csr_matrix(
            (np.ones(len(src)), (src, ball.table[src, gen])), shape=(n, n)
        )
        dist = shortest_path(graph, unweighted=True, directed=False)
        assert np.array_equal(dist, words[:n, :n]), rho


# S3 as permutations of {0, 1, 2}, generated by the transpositions (0 1)
# and (1 2), elements 1 and 2
_S3 = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
S3_TABLE = [[_S3.index(tuple(p[q[k]] for k in range(3))) for q in _S3] for p in _S3]

# engines of every enumeration path, with the largest radius n at which
# B(n) is compared with B(n + 1): numpy spheres on table amalgams
# (`sphere_ball`), numpy spheres by descent sets on RACGs, and the generic
# BFS on finite groups (whose balls close at their diameter)
PREFIX_ENGINES = {
    "dinf": (lambda: _table_amalgam_engine((2, 2), "a", "b", [0]), 12),
    "z2z3": (lambda: _table_amalgam_engine((2, 3), "a", "b", [0]), 10),
    "z4z2z4": (lambda: _table_amalgam_engine((4, 4), "x", "y", [0, 2]), 8),
    "path4": (lambda: RacgEngine(RACG_GRAPHS["path4"]), 7),
    "cycle5": (lambda: RacgEngine(CYCLE5), 5),
    "z5": (lambda: FiniteTableGroup(*cyclic_table(5), generators=[1, 4]), 3),
    "s3": (lambda: FiniteTableGroup(S3_TABLE, generators=[1, 2]), 4),
}


@pytest.mark.parametrize("name", sorted(PREFIX_ENGINES))
def test_ball_size_is_exact_on_every_engine(name):
    # a finite group's ball stops growing at its diameter
    make, top = PREFIX_ENGINES[name]
    engine = make()
    for radius in range(top + 2):
        assert_exact_size(engine, radius, len(build_ball(engine, radius)))


@pytest.mark.parametrize("name", sorted(PREFIX_ENGINES))
def test_ball_is_the_id_prefix_of_the_next_ball(name):
    # the builder grows a certificate's ball one sphere at a time and keeps
    # its sets' ids, so B(n) must be the first |B(n)| ids of B(n + 1)
    make, top = PREFIX_ENGINES[name]
    engine = make()
    big = build_ball(engine, 0)
    for n in range(top + 1):
        small, big = big, build_ball(engine, n + 1)
        m = len(small)
        for column in ("parent", "letter"):
            assert np.array_equal(getattr(big, column)[:m], getattr(small, column)), n
        assert ball_elements(big)[:m] == ball_elements(small), n
        assert np.array_equal(big.norms[:m], small.norms), n
        inner = big.table[:m]
        assert np.array_equal(np.where(inner < m, inner, -1), small.table), n
