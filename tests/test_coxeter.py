import types

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asdimlab import builder, coxeter
from asdimlab.cli import build_context
from asdimlab.coxeter import (
    CoxeterSystem,
    DecompositionTree,
    _validate_split,
    asdim_bound,
    asdim_recursive,
    build_davis_ball,
    build_nerve,
    chromatic_bound,
    decompose,
    greedy_coloring,
    parabolic_is_finite,
    star_link_split,
)
from asdimlab.errors import InputError, ResourceCapError, UnsupportedBackendError
from asdimlab.groups import RacgEngine, build_ball
from asdimlab.simplicial import SimplicialComplex, barycentric_subdivision, cone, maximal_cliques

from conftest import CYCLE5, PATH3, PATH4, commutation_matrix
from word_oracles import ball_elements


def test_nerve_isolated_vertices_when_nothing_commutes():
    cox = CoxeterSystem([[1, 0], [0, 1]])
    nerve = build_nerve(cox)
    assert nerve.dim == 0
    assert len(nerve.maximal_faces) == 2


def test_nerve_cycle5_is_the_cycle():
    nerve = build_nerve(CoxeterSystem(CYCLE5, names=list("abcde")))
    assert nerve.dim == 1
    assert len(nerve.edges()) == 5


def test_nerve_requires_right_angled():
    with pytest.raises(UnsupportedBackendError):
        build_nerve(CoxeterSystem([[1, 3], [3, 1]]))


def test_nerve_matches_finiteness_oracle_small_subsets():
    # clique-complex faces with |W| <= 3 agree with brute-force finiteness
    import itertools

    for matrix, names in ((CYCLE5, list("abcde")), (PATH3, list("abc"))):
        cox = CoxeterSystem(matrix, names=names)
        nerve = build_nerve(cox)
        k = cox.rank
        for size in (1, 2, 3):
            for letters in itertools.combinations(range(k), size):
                finite, _ = parabolic_is_finite(cox, letters, cap=2000)
                spans = nerve.has_face([names[i] for i in letters])
                assert spans == (finite is True)


def test_asdim_bound_examples():
    assert asdim_bound(CoxeterSystem([])) == (0, True)  # the trivial group
    assert asdim_bound(CoxeterSystem([[1]])) == (1, True)
    assert asdim_bound(CoxeterSystem([[1, 0], [0, 1]])) == (1, False)
    assert asdim_bound(CoxeterSystem(CYCLE5)) == (2, False)


def test_chromatic_examples():
    assert chromatic_bound(CoxeterSystem([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (1, True)
    assert chromatic_bound(CoxeterSystem(CYCLE5)) == (3, True)


def test_chromatic_at_least_dim_plus_one():
    for matrix in (CYCLE5, PATH3, PATH4, [[1, 2], [2, 1]]):
        cox = CoxeterSystem(matrix)
        ch, exact = chromatic_bound(cox)
        assert exact
        assert ch >= build_nerve(cox).dim + 1


def test_chromatic_greedy_fallback_flagged_inexact():
    k = 25
    matrix = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for i in range(k - 1):  # a long path: chromatic number 2
        matrix[i][i + 1] = matrix[i + 1][i] = 2
    ch, exact = chromatic_bound(CoxeterSystem(matrix), exact_cap=20)
    assert not exact
    assert ch >= 2


def test_decompose_simplex_is_leaf():
    tree = decompose(CoxeterSystem([[1, 2], [2, 1]]))
    assert tree.is_leaf


def test_decompose_path_example():
    tree = decompose(CoxeterSystem(PATH3, names=["a", "b", "c"]))
    assert tree.split_vertex == "a"
    assert tree.n1.vertices == ("a", "b")
    assert tree.k == ("b",)
    assert tree.n2.vertices == ("b", "c")
    assert tree.n1.is_leaf and tree.n2.is_leaf


def test_decompose_children_strictly_smaller_and_depth_bounded():
    tree = decompose(CoxeterSystem(CYCLE5, names=list("abcde")))
    assert tree.depth() <= 5

    def walk(node):
        if node.is_leaf:
            return
        assert len(node.n1.vertices) < len(node.vertices)
        assert len(node.n2.vertices) < len(node.vertices)
        assert set(node.n1.vertices) | set(node.n2.vertices) == set(node.vertices)
        assert set(node.n1.vertices) & set(node.n2.vertices) == set(node.k)
        walk(node.n1)
        walk(node.n2)

    walk(tree)


def test_asdim_recursive_values():
    assert asdim_recursive(CoxeterSystem([[1]])) == 0
    assert asdim_recursive(CoxeterSystem([[1, 0], [0, 1]])) == 1
    assert asdim_recursive(CoxeterSystem(PATH3)) == 1
    assert asdim_recursive(CoxeterSystem(PATH4)) == 1
    assert asdim_recursive(CoxeterSystem(CYCLE5)) == 2
    # never exceeds the nerve bound
    for matrix in (PATH3, PATH4, CYCLE5):
        cox = CoxeterSystem(matrix)
        assert asdim_recursive(cox) <= build_nerve(cox).dim + 1


def test_davis_ball_z2_is_three_vertex_path():
    ball = build_davis_ball(CoxeterSystem([[1]]), 1)
    g = nx.Graph(ball.skeleton_graph())
    assert ball.vertex_count == 3
    assert nx.is_connected(g)
    degrees = sorted(d for _, d in g.degree())
    assert degrees == [1, 1, 2]


def test_davis_ball_dinf_is_subdivided_interval():
    ball = build_davis_ball(CoxeterSystem([[1, 0], [0, 1]]), 3)
    g = nx.Graph(ball.skeleton_graph())
    assert nx.is_connected(g)
    degrees = sorted(d for _, d in g.degree())
    assert degrees[0] == 1 and degrees[-1] == 2
    assert degrees.count(1) == 2  # exactly two endpoints: a path
    assert ball.dim == 1


def test_davis_ball_dimension_matches_nerve():
    for matrix, radius in ((PATH3, 2), (PATH4, 2), (CYCLE5, 2), ([[1, 2], [2, 1]], 2)):
        cox = CoxeterSystem(matrix)
        ball = build_davis_ball(cox, radius)
        assert ball.dim == build_nerve(cox).dim + 1


def test_davis_ball_identification_collapses_vertices():
    cox = CoxeterSystem(PATH3)
    from asdimlab.groups import build_ball

    radius = 2
    chambers = len(build_ball(cox.engine(), radius))
    nerve = build_nerve(cox)
    cone_vertices = len(nerve.faces()) + 1
    ball = build_davis_ball(cox, radius)
    assert ball.vertex_count < chambers * cone_vertices


def reference_davis_ball(cox, radius, cap=200_000):
    """The word-level gluing: union-find over (chamber, cone vertex) slots,
    one union of (gamma, v_sigma) with (gamma s, v_sigma) per letter s of
    sigma whose product stays in the ball, slots numbered at first sight."""
    engine = cox.engine()
    nerve = build_nerve(cox)
    faces = nerve.faces()
    apex = len(faces)
    chamber = cone(barycentric_subdivision(nerve), apex)
    ball = build_ball(engine, radius, cap=cap)
    elements = ball_elements(ball)
    index = {x: i for i, x in enumerate(elements)}
    letter_of = {name: i for i, name in enumerate(engine.names)}
    width = len(faces) + 1
    if len(ball) * width > cap * 4:
        raise ResourceCapError("Davis gluing exceeds cap", cap=cap)
    parent = list(range(len(ball) * width))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fi, f in enumerate(faces):
        for cid, gamma in enumerate(elements):
            for g in (letter_of[str(v)] for v in f):
                oid = index.get(engine.append(gamma, g))
                if oid is not None:
                    a, b = sorted((find(cid * width + fi), find(oid * width + fi)))
                    parent[b] = a
    roots, labels = {}, []
    for cid, gamma in enumerate(elements):
        for cv in range(width):
            root = find(cid * width + cv)
            if root not in roots:
                roots[root] = len(roots)
                face = "cone" if cv == apex else ",".join(str(v) for v in faces[cv])
                labels.append(f"{engine.word_str(gamma)}|{face}")
    maximal = sorted(
        {
            tuple(sorted(roots[find(cid * width + cv)] for cv in mf))
            for cid in range(len(ball))
            for mf in chamber.maximal_faces
        }
    )
    return coxeter.DavisBall(
        chamber_count=len(ball),
        vertex_count=len(roots),
        vertex_labels=labels,
        maximal_simplices=maximal,
        dim=max((len(s) - 1 for s in maximal), default=-1),
    )


DAVIS_SYSTEMS = {
    "z2": [[1]],
    "dinf": commutation_matrix(2, []),
    "path4": PATH4,
    "cycle5": CYCLE5,
    "triangle": commutation_matrix(3, [(0, 1), (1, 2), (0, 2)]),
    "free3": commutation_matrix(3, []),
    "cycle4": commutation_matrix(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "edge-and-vertex": commutation_matrix(3, [(0, 1)]),
}


@pytest.mark.parametrize("system", sorted(DAVIS_SYSTEMS))
def test_davis_ball_equals_union_find_reference(system):
    cox = CoxeterSystem(DAVIS_SYSTEMS[system])
    for radius in range(5):
        ball, reference = build_davis_ball(cox, radius), reference_davis_ball(cox, radius)
        assert ball == reference, radius


@pytest.mark.parametrize("system", ["path4", "cycle5", "triangle"])
def test_davis_ball_cap_equals_reference(system):
    cox = CoxeterSystem(DAVIS_SYSTEMS[system])
    chambers = len(build_ball(cox.engine(), 3))
    width = len(build_nerve(cox).faces()) + 1
    outcomes = set()
    for cap in (chambers - 1, -(-chambers * width // 4) - 1, -(-chambers * width // 4)):
        results = []
        for glue in (build_davis_ball, reference_davis_ball):
            try:
                results.append(glue(cox, 3, cap=cap))
            except ResourceCapError:
                results.append("cap")
        assert results[0] == results[1], cap
        outcomes.add(results[0] == "cap")
    assert outcomes == {True, False}


def test_barycentric_and_cone_shapes():
    triangle = SimplicialComplex(vertices=[0, 1, 2], maximal_faces=[(0, 1, 2)])
    sub = barycentric_subdivision(triangle)
    assert sub.dim == 2
    assert len(sub.maximal_faces) == 6  # 3! chains through the top face
    coned = cone(triangle, apex=99)
    assert coned.dim == 3


def test_coxeter_json_round_trip():
    cox = CoxeterSystem.from_json(
        {"generators": ["a", "b"], "matrix": [[1, 0], [0, 1]]}
    )
    assert cox.names == ["a", "b"]
    nerve_input = CoxeterSystem.from_json(
        {"vertices": ["a", "b", "c"], "maximal_faces": [["a", "b"], ["b", "c"]]}
    )
    assert nerve_input.matrix[0][1] == 2
    assert nerve_input.matrix[0][2] == 0
    with pytest.raises(InputError):
        CoxeterSystem.from_json({"nope": 1})


@pytest.mark.parametrize("cls", [CoxeterSystem, RacgEngine])
@pytest.mark.parametrize("entry", [-1, 2.5, 1])
def test_matrix_rejects_entries_neither_zero_nor_integer_at_least_two(cls, entry):
    with pytest.raises(InputError) as err:
        cls([[1, entry], [entry, 1]])
    assert not isinstance(err.value, UnsupportedBackendError)


def test_restrict_is_the_parabolic_subsystem():
    cox = CoxeterSystem(CYCLE5, names=list("abcde"))
    sub = cox.restrict([4, 0, 1])
    assert isinstance(sub, CoxeterSystem)
    assert sub.names == ["a", "b", "e"]
    assert sub.matrix == [[1, 2, 2], [2, 1, 0], [2, 0, 1]]
    engine = RacgEngine(CYCLE5, names=list("abcde")).restrict([4, 0, 1])
    assert isinstance(engine, RacgEngine) and engine.matrix == sub.matrix


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 7))
    names = [f"v{i}" for i in draw(st.permutations(range(10, 10 + n)))]
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    graph = nx.Graph()
    graph.add_nodes_from(names)
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph.add_edges_from(p for p, k in zip(pairs, keep) if k)
    return {v: set(graph[v]) for v in graph}


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_star_link_split_covers_and_shrinks(graph):
    split = star_link_split(graph)
    n = len(graph)
    if split is None:
        assert nx.Graph(graph).number_of_edges() == n * (n - 1) // 2
        return
    v, star, link, rest = split
    for part in (star, link, rest):
        assert list(part) == sorted(part, key=str)
    node = DecompositionTree(
        vertices=tuple(sorted(graph, key=str)),
        split_vertex=v,
        n1=DecompositionTree(vertices=star),
        k=link,
        n2=DecompositionTree(vertices=rest),
    )
    _validate_split(node)  # n1 | n2 = V, n1 & n2 = link, both strictly smaller


@pytest.mark.parametrize("matrix", [CYCLE5, PATH4], ids=["cycle5", "path4"])
def test_every_caller_picks_the_same_split(matrix, monkeypatch):
    names = list("abcde")[: len(matrix)]
    cox = CoxeterSystem(matrix, names=names)
    expected = star_link_split(cox.commutation_graph())
    v, star, link, rest = expected

    tree = decompose(cox)
    assert (tree.split_vertex, tree.n1.vertices, tree.k, tree.n2.vertices) == expected

    real_split, seen = coxeter.star_link_split, []
    monkeypatch.setattr(
        coxeter, "star_link_split", lambda g: seen.append(real_split(g)) or seen[-1]
    )
    asdim_recursive(cox)
    assert seen[0] == expected

    # the split cover_racg hands to the amalgam assembly, without building it
    monkeypatch.setattr(
        builder, "cover_amalgam", lambda ctx, r, **kw: types.SimpleNamespace(trace={})
    )
    trace = builder.cover_racg(cox, 4).trace
    assert (trace["split_vertex"], trace["n1"], trace["k"], trace["n2"]) == (
        v,
        list(star),
        list(link),
        list(rest),
    )

    ctx = build_context({"type": "racg_amalgam", "generators": names, "matrix": matrix})
    parts = [tuple(sorted(names[i] for i in part)) for part in (ctx.n1, ctx.k, ctx.n2)]
    assert parts == [star, link, rest]


@st.composite
def labelled_graphs(draw):
    """Graphs of 0-25 vertices in a shuffled insertion order: random edge
    sets, and circulants, whose degrees all tie."""
    n = draw(st.integers(0, 25))
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    if draw(st.booleans()):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
    else:
        offsets = draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3))
        edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in offsets}
        edges = [(i, j) for i, j in edges if i != j]
    graph = {v: set() for v in names}
    for i, j in edges:
        graph[names[i]].add(names[j])
        graph[names[j]].add(names[i])
    return graph


def path_graph(n):
    return {f"v{i}": {f"v{j}" for j in (i - 1, i + 1) if 0 <= j < n} for i in range(n)}


@settings(max_examples=200, deadline=None)
@given(labelled_graphs())
@example(graph={})
@example(graph=path_graph(21))
@example(graph={v: {"a", "b", "c"} - {v} for v in "cab"} | {"d": set()})
def test_cliques_and_greedy_coloring_equal_networkx(graph):
    reference = nx.Graph(graph)
    cliques = [frozenset(c) for c in maximal_cliques(graph)]
    assert len(cliques) == len(set(cliques))
    assert set(cliques) == {frozenset(c) for c in nx.find_cliques(reference)}
    # largest first, ties in insertion order: colour for colour
    assert greedy_coloring(graph) == nx.coloring.greedy_color(reference, strategy="largest_first")


@settings(max_examples=60, deadline=None)
@given(labelled_graphs().filter(lambda g: len(g) > 20))
@example(graph=path_graph(21))
def test_chromatic_bound_past_the_cap_is_the_networkx_greedy_count(graph):
    # the nerve's 1-skeleton lists its vertices sorted, so the reference
    # greedy colouring runs on that order
    names = list(graph)
    matrix = [[1 if u == v else 2 if v in graph[u] else 0 for v in names] for u in names]
    reference = nx.Graph({v: graph[v] for v in sorted(names)})
    greedy = nx.coloring.greedy_color(reference, strategy="largest_first")
    assert chromatic_bound(CoxeterSystem(matrix, names=names)) == (max(greedy.values()) + 1, False)


def digraph_barycentric_subdivision(complex_):
    """The networkx implementation of `barycentric_subdivision`: every
    chain of the proper-inclusion digraph grown from its sources."""
    faces = complex_.faces()
    index = {f: i for i, f in enumerate(faces)}
    g = nx.DiGraph()
    g.add_nodes_from(range(len(faces)))
    for a in faces:
        for b in faces:
            if a != b and set(a) < set(b):
                g.add_edge(index[a], index[b])
    maximal_chains = []

    def grow(chain, last):
        extensions = sorted(g.successors(last))
        if not extensions:
            maximal_chains.append(tuple(chain))
            return
        for nxt in extensions:
            grow(chain + [nxt], nxt)

    for start in sorted(g.nodes):
        if g.in_degree(start) == 0:
            grow([start], start)
    return SimplicialComplex(vertices=list(range(len(faces))), maximal_faces=maximal_chains)


@st.composite
def small_complexes(draw):
    n = draw(st.integers(0, 5))
    faces = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=4)) if n else []
    return SimplicialComplex(vertices=list(range(n)), maximal_faces=faces)


@settings(max_examples=150, deadline=None)
@given(small_complexes())
def test_barycentric_subdivision_equals_the_digraph_chains(complex_):
    assert barycentric_subdivision(complex_) == digraph_barycentric_subdivision(complex_)


@pytest.mark.parametrize("system", sorted(DAVIS_SYSTEMS))
def test_barycentric_subdivision_of_nerves_equals_the_digraph_chains(system):
    nerve = build_nerve(CoxeterSystem(DAVIS_SYSTEMS[system]))
    assert barycentric_subdivision(nerve) == digraph_barycentric_subdivision(nerve)
