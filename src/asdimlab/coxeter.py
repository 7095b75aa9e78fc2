"""Coxeter systems: nerve construction, dimension/chromatic bounds, recursive
star/link decomposition, and finite-radius Davis-complex gluing.

Only right-angled systems are supported beyond type validation; for them the
nerve is the clique complex of the commutation graph (a parabolic subgroup on
a pairwise-commuting letter set is (Z_2)^W, hence finite, and no other
parabolic is).  A graph is an adjacency dict: each vertex, in insertion
order, maps to the set of its neighbours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceCapError, UnsupportedBackendError
from .groups import CoxeterMatrix, RacgEngine, build_ball, first_sight
from .simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    clique_complex,
    cone,
    maximal_cliques,
)


class CoxeterSystem(CoxeterMatrix):
    """A Coxeter system given by its matrix; only right-angled systems have
    an engine and a nerve here."""

    def __init__(self, matrix, names=None):
        super().__init__(matrix, names)
        k = self.rank
        self.right_angled = all(
            self.matrix[i][j] in (0, 2) for i in range(k) for j in range(k) if i != j
        )

    @classmethod
    def from_json(cls, data):
        if "matrix" in data:
            return cls(data["matrix"], names=data.get("generators"))
        if "maximal_faces" in data:
            vertices, faces = data.get("vertices"), data["maximal_faces"]
            if not isinstance(vertices, list) or not (
                isinstance(faces, list) and all(isinstance(f, list) for f in faces)
            ):
                raise InputError("nerve input needs 'vertices' and 'maximal_faces' lists of lists")
            kinds = {type(v) for v in vertices + [v for f in faces for v in f]}
            if len(kinds) > 1 or not kinds <= {str, int}:
                raise InputError("nerve vertex labels must be all strings or all integers")
            return cls.from_nerve(SimplicialComplex(vertices, faces))
        raise InputError("Coxeter input needs 'matrix' or 'vertices'/'maximal_faces'")

    @classmethod
    def from_nerve(cls, nerve: SimplicialComplex):
        """Right-angled system whose commutation graph is the nerve 1-skeleton."""
        names = [str(v) for v in nerve.vertices]
        pos = {v: i for i, v in enumerate(nerve.vertices)}
        k = len(names)
        m = [[0] * k for _ in range(k)]
        for i in range(k):
            m[i][i] = 1
        for u, v in nerve.edges():
            m[pos[u]][pos[v]] = m[pos[v]][pos[u]] = 2
        return cls(m, names=names)

    def require_right_angled(self):
        if not self.right_angled:
            raise UnsupportedBackendError(
                "operation requires a right-angled system (off-diagonal entries 2 or infinity)"
            )

    def engine(self) -> RacgEngine:
        self.require_right_angled()
        return RacgEngine(self.matrix, names=self.names)

    def commutation_graph(self) -> dict:
        return {
            name: {self.names[j] for j, m in enumerate(row) if m == 2}
            for name, row in zip(self.names, self.matrix)
        }


def build_nerve(cox: CoxeterSystem) -> SimplicialComplex:
    """Nerve of a right-angled system: the clique complex of commuting pairs."""
    cox.require_right_angled()
    return clique_complex(cox.commutation_graph())


def parabolic_is_finite(cox: CoxeterSystem, letters, cap=10_000):
    """Brute-force finiteness of Gamma_W via ball closure with an element cap.

    Returns (True, size) when the subgroup closes below the cap and
    (None, cap) as a 'presumed infinite' verdict otherwise.  Test oracle for
    the structural clique criterion.
    """
    letters = sorted(letters)
    if not letters:
        return True, 1
    engine = cox.engine()
    sub, _ = engine.sub_engine(letters)
    try:
        # a ball of radius cap is the whole group when it fits the cap; past
        # the cap, build_ball raises on the exact size without enumerating
        ball = build_ball(sub, cap, cap=cap)
    except ResourceCapError:
        return None, cap
    return True, len(ball)


def asdim_bound(cox: CoxeterSystem):
    """(dim N(Gamma) + 1, finite-flag): the Davis-complex dimension bound."""
    nerve = build_nerve(cox)
    return nerve.dim + 1, nerve.is_simplex()


def chromatic_bound(cox: CoxeterSystem, exact_cap=20):
    """Chromatic number of the nerve 1-skeleton.

    Exact branch-and-bound up to `exact_cap` vertices; beyond that the greedy
    bound is returned flagged inexact.  Always >= dim N + 1.
    """
    nerve = build_nerve(cox)
    graph = nerve.skeleton_graph()
    if not graph:
        return 0, True
    if len(graph) > exact_cap:
        return max(greedy_coloring(graph).values()) + 1, False
    ch = _chromatic_exact(graph)
    if ch < nerve.dim + 1:
        raise AssertionError("chromatic number below clique bound; coloring bug")
    return ch, True


def greedy_coloring(graph: dict) -> dict:
    """Largest-first greedy colouring (Welsh and Powell, 1967): the vertices
    in dict order, stably sorted by degree descending, each given the least
    colour that no coloured neighbour has."""
    colors = {}
    for v in sorted(graph, key=lambda u: len(graph[u]), reverse=True):
        used = {colors[u] for u in graph[v] if u in colors}
        colors[v] = next(c for c in range(len(used) + 1) if c not in used)
    return colors


def _chromatic_exact(graph: dict):
    order = sorted(graph, key=lambda v: (-len(graph[v]), str(v)))
    clique_lb = max((len(c) for c in maximal_cliques(graph)), default=1)
    upper = max(greedy_coloring(graph).values(), default=0) + 1

    def colorable(k):
        colors = {}

        def bt(i, used_max):
            if i == len(order):
                return True
            v = order[i]
            banned = {colors[u] for u in graph[v] if u in colors}
            for c in range(min(k, used_max + 2)):
                if c in banned:
                    continue
                colors[v] = c
                if bt(i + 1, max(used_max, c)):
                    return True
                del colors[v]
            return False

        return bt(0, -1)

    for k in range(clique_lb, upper + 1):
        if colorable(k):
            return k
    return upper


@dataclass
class DecompositionTree:
    """Recursion record of the star/link splittings Gamma = G_N1 *_{G_K} G_N2."""

    vertices: tuple
    split_vertex: str = None
    n1: "DecompositionTree" = None
    k: tuple = None
    n2: "DecompositionTree" = None

    @property
    def is_leaf(self):
        return self.split_vertex is None

    def depth(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.n1.depth(), self.n2.depth())

    def to_json(self):
        if self.is_leaf:
            return {"vertices": list(self.vertices), "leaf": "simplex/finite"}
        return {
            "vertices": list(self.vertices),
            "split_vertex": self.split_vertex,
            "n1": self.n1.to_json(),
            "k": list(self.k),
            "n2": self.n2.to_json(),
        }

    def to_dot(self):
        lines = ["digraph decomposition {", '  node [shape=box];']
        counter = [0]

        def walk(node):
            my_id = counter[0]
            counter[0] += 1
            label = ",".join(node.vertices) or "(empty)"
            if node.is_leaf:
                lines.append(f'  n{my_id} [label="{label}"];')
            else:
                lines.append(f'  n{my_id} [label="{label} @ {node.split_vertex}"];')
                for child, role in ((node.n1, "N1"), (node.n2, "N2")):
                    cid = walk(child)
                    lines.append(f'  n{my_id} -> n{cid} [label="{role}"];')
            return my_id

        walk(self)
        lines.append("}")
        return "\n".join(lines) + "\n"


def split_vertex_choice(graph: dict):
    """Lexicographically first vertex whose closed star omits some vertex."""
    nodes = sorted(graph, key=str)
    for v in nodes:
        if len(graph[v]) + 1 < len(nodes):
            return v
    return None


def induced_subgraph(graph: dict, vertices) -> dict:
    """The subgraph of `graph` on `vertices`, in the graph's vertex order."""
    keep = set(vertices)
    return {v: graph[v] & keep for v in graph if v in keep}


def star_link_split(graph: dict):
    """Theorem 3.1's split at `split_vertex_choice(graph)`.

    Returns (v, star, link, rest): the closed star of v (N1), its link (K)
    and every vertex but v (N2), each a str-sorted tuple, so N1 | N2 = V and
    N1 & N2 = K.  None when the graph is complete (a simplex nerve).
    """
    v = split_vertex_choice(graph)
    if v is None:
        return None
    link = tuple(sorted(graph[v], key=str))
    star = tuple(sorted(link + (v,), key=str))
    rest = tuple(sorted((u for u in graph if u != v), key=str))
    return v, star, link, rest


def decompose(cox: CoxeterSystem) -> DecompositionTree:
    """Recursive Theorem-3.1 splitting down to simplex (finite-group) leaves."""
    cox.require_right_angled()
    graph = cox.commutation_graph()

    def rec(vertex_set):
        split = star_link_split(induced_subgraph(graph, vertex_set))
        verts = tuple(sorted(vertex_set, key=str))
        if split is None:
            return DecompositionTree(vertices=verts)
        v, star, link, rest = split
        node = DecompositionTree(
            vertices=verts,
            split_vertex=v,
            n1=rec(star),
            k=link,
            n2=rec(rest),
        )
        _validate_split(node)
        return node

    return rec(set(graph))


def _validate_split(node: DecompositionTree):
    n1, n2, k = set(node.n1.vertices), set(node.n2.vertices), set(node.k)
    if n1 | n2 != set(node.vertices):
        raise AssertionError("split does not cover the nerve")
    if n1 & n2 != k:
        raise AssertionError("split intersection differs from the link")
    if not (len(n1) < len(node.vertices) and len(n2) < len(node.vertices)):
        raise AssertionError("split child not strictly smaller")


def asdim_recursive(cox: CoxeterSystem):
    """The bound the recursive builder realizes: leaves 0, internal nodes
    max(n1, n2, k + 1).  Always <= dim N + 1."""
    cox.require_right_angled()
    graph = cox.commutation_graph()
    memo = {}

    def rec(vertex_set):
        key = frozenset(vertex_set)
        if key in memo:
            return memo[key]
        split = star_link_split(induced_subgraph(graph, vertex_set))
        if split is None:
            memo[key] = 0
            return 0
        _, star, link, rest = split
        value = max(rec(star), rec(rest), rec(link) + 1)
        memo[key] = value
        return value

    return rec(set(graph))


@dataclass
class DavisBall:
    """Gluing of |ball| chambers Cone(N') along the coset identifications."""

    chamber_count: int
    vertex_count: int
    vertex_labels: list
    maximal_simplices: list
    dim: int

    def skeleton_graph(self) -> dict:
        graph = {v: set() for v in range(self.vertex_count)}
        for simplex in self.maximal_simplices:
            for u in simplex:
                graph[u].update(simplex)
        for v, nbrs in graph.items():
            nbrs.discard(v)
        return graph

    def to_json(self):
        return {
            "chambers": self.chamber_count,
            "vertices": self.vertex_count,
            "dim": self.dim,
            "vertex_labels": self.vertex_labels,
            "maximal_simplices": [list(s) for s in self.maximal_simplices],
        }


def build_davis_ball(cox: CoxeterSystem, radius, cap=200_000) -> DavisBall:
    """Glue the chambers of the Cayley ball: a x v_sigma ~ b x v_sigma iff
    a^{-1} b lies in the parabolic subgroup W_sigma of the face sigma (Davis,
    The Geometry and Topology of Coxeter Groups, 2008, ch. 5).

    The chambers a with a^{-1} b in W_sigma form the coset b W_sigma, and
    the closure of b along the sigma-letter columns of the edge table is
    that coset's part inside the ball: every x in it is m w with m the
    minimal coset representative and |x| = |m| + |w|, so the prefixes of w
    walk from m to x inside the ball.  So the glued vertex of
    (chamber, v_sigma) is the chamber's `Ball.coset_labels` over the letters
    of sigma, its least ball id in that part; the cone vertex is never
    glued.  Glued vertices are numbered at first sight over (chamber, cone
    vertex) in row-major order and labelled by the chamber seen first."""
    cox.require_right_angled()
    engine = cox.engine()
    nerve = build_nerve(cox)
    faces = nerve.faces()  # vertices of N'
    nprime = barycentric_subdivision(nerve)
    apex = len(faces)
    chamber = cone(nprime, apex)

    ball = build_ball(engine, radius, cap=cap)
    letter_of = {name: i for i, name in enumerate(engine.names)}

    n_chambers = len(ball)
    width = len(faces) + 1
    if n_chambers * width > cap * 4:
        raise ResourceCapError("Davis gluing exceeds cap", cap=cap)
    keys = np.empty((n_chambers, width), dtype=np.int64)
    for fi, f in enumerate(faces):
        keys[:, fi] = ball.coset_labels([letter_of[str(v)] for v in f])
    keys[:, apex] = np.arange(n_chambers)
    vertex, heads = first_sight((keys * width + np.arange(width)).ravel())
    vertex = vertex.reshape(n_chambers, width)

    labels = []
    for cid, cv in zip(*np.divmod(heads, width)):
        face_name = "cone" if cv == apex else ",".join(str(v) for v in faces[cv])
        labels.append(f"{ball.word(int(cid))}|{face_name}")

    simplices = set()
    for mf in chamber.maximal_faces:
        simplices.update(map(tuple, np.sort(vertex[:, list(mf)], axis=1).tolist()))
    maximal = sorted(simplices)
    dim = max((len(s) - 1 for s in maximal), default=-1)
    return DavisBall(
        chamber_count=n_chambers,
        vertex_count=len(heads),
        vertex_labels=labels,
        maximal_simplices=maximal,
        dim=dim,
    )


def bound_report(cox: CoxeterSystem):
    """Composite report behind the CLI `bound` command."""
    nerve = build_nerve(cox)
    bound, finite = asdim_bound(cox)
    ch, exact = chromatic_bound(cox)
    return {
        "generators": cox.names,
        "nerve_dim": nerve.dim,
        "nerve_maximal_faces": [list(map(str, f)) for f in nerve.maximal_faces],
        "asdim_bound": bound,
        "finite_group": bool(finite),
        "chromatic_bound": ch,
        "chromatic_exact": bool(exact),
        "recursive_bound": asdim_recursive(cox),
    }


def dumps_report(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
