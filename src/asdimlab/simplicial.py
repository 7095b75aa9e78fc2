"""Small simplicial-complex type shared by the nerve and Davis constructions.

A complex is stored as vertices plus its maximal faces; all faces are the
downward closure.  Vertices are hashable labels (ints or strings).  A graph
is an adjacency dict: each vertex, in insertion order, maps to the set of
its neighbours (no loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError


@dataclass
class SimplicialComplex:
    vertices: list
    maximal_faces: list

    def __post_init__(self):
        self.vertices = list(self.vertices)
        vset = set(self.vertices)
        faces = [tuple(sorted(set(f), key=_key)) for f in self.maximal_faces]
        for f in faces:
            if not set(f) <= vset:
                raise InputError(f"face {f} uses unknown vertices")
        # drop faces contained in others; keep isolated vertices as singletons
        covered = set()
        for f in faces:
            covered |= set(f)
        for v in sorted(vset - covered, key=_key):
            faces.append((v,))
        faces = sorted(set(faces), key=lambda f: (len(f), f))
        self.maximal_faces = [
            f for f in faces if not any(set(f) < set(g) for g in faces if g != f)
        ]

    @property
    def dim(self):
        if not self.maximal_faces:
            return -1
        return max(len(f) for f in self.maximal_faces) - 1

    def faces(self):
        """All nonempty faces (downward closure), sorted."""
        out = set()
        for f in self.maximal_faces:
            for k in range(1, len(f) + 1):
                out.update(combinations(f, k))
        return sorted(out, key=lambda f: (len(f), f))

    def has_face(self, f):
        f = set(f)
        return any(f <= set(g) for g in self.maximal_faces)

    def edges(self):
        return [f for f in self.faces() if len(f) == 2]

    def skeleton_graph(self) -> dict:
        graph = {v: set() for v in self.vertices}
        for u, v in self.edges():
            graph[u].add(v)
            graph[v].add(u)
        return graph

    def is_simplex(self):
        """True iff the complex is a single full simplex on its vertices; the
        empty complex is the empty simplex."""
        return len(self.maximal_faces) <= 1 and set().union(*self.maximal_faces) == set(
            self.vertices
        )

    def to_json(self):
        return {
            "vertices": [str(v) for v in self.vertices],
            "maximal_faces": [[str(v) for v in f] for f in self.maximal_faces],
        }


def _key(v):
    return (0, v) if isinstance(v, int) else (1, str(v))


def maximal_cliques(graph: dict) -> list:
    """Every maximal clique of an adjacency dict once, each a list, in no
    fixed order: Bron-Kerbosch with a pivot of most candidate neighbours
    (Tomita, Tanaka and Takahashi, TCS 2006).  The empty graph has none."""
    cliques = []

    def expand(clique, candidates, excluded):
        if not candidates and not excluded:
            cliques.append(clique)
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & graph[u]))
        for v in candidates - graph[pivot]:
            expand(clique + [v], candidates & graph[v], excluded & graph[v])
            candidates.remove(v)
            excluded.add(v)

    if graph:
        expand([], set(graph), set())
    return cliques


def clique_complex(graph: dict) -> SimplicialComplex:
    """Flag complex of a graph: maximal faces are the maximal cliques."""
    cliques = sorted(
        (tuple(sorted(c, key=_key)) for c in maximal_cliques(graph)),
        key=lambda f: (len(f), f),
    )
    return SimplicialComplex(vertices=sorted(graph, key=_key), maximal_faces=cliques)


def barycentric_subdivision(complex_: SimplicialComplex) -> SimplicialComplex:
    """N': vertices are the nonempty faces of N, simplices are chains of faces."""
    faces = [set(f) for f in complex_.faces()]
    # chains ordered by inclusion, grown from the faces with no proper
    # subface; the complex keeps the maximal chains as its maximal faces
    above = [[j for j, b in enumerate(faces) if a < b] for a in faces]
    has_below = {j for js in above for j in js}
    chains = []

    def grow(chain):
        extensions = above[chain[-1]]
        if not extensions:
            chains.append(tuple(chain))
        for nxt in extensions:
            grow(chain + [nxt])

    for start in range(len(faces)):
        if start not in has_below:
            grow([start])
    return SimplicialComplex(vertices=list(range(len(faces))), maximal_faces=chains)


def cone(complex_: SimplicialComplex, apex):
    """Cone over a complex: every maximal face gains the apex vertex."""
    if apex in complex_.vertices:
        raise InputError("apex must be a fresh vertex")
    faces = [tuple(list(f) + [apex]) for f in complex_.maximal_faces] or [(apex,)]
    return SimplicialComplex(vertices=list(complex_.vertices) + [apex], maximal_faces=faces)
