"""Amalgamated products A *_C B: normal forms z_1...z_k c, the dual graph K
of the Bass-Serre tree, the projection pi(g) = gC, level structure, the
boundary sets D_R and their translates, and exhaustive finite-scale checkers
for the separation and disjointness statements they satisfy.

Two backends:

* `TableAmalgam` - A and B finite multiplication-table groups, C a common
  subgroup given by index-matched embeddings.  Generators are all
  non-identity factor elements, which makes the word norm of z_1...z_k c
  equal to k (or 0/1 for C-elements), so the engine has an exact metric.
* `RacgAmalgam` - the splitting Gamma_{N1} *_{Gamma_K} Gamma_{N2} of a
  right-angled Coxeter group along a nerve decomposition; all three
  subgroups are parabolic and carry the restricted word metric exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, OutOfBallError, PreconditionError
from .groups import (
    DEFAULT_BALL_CAP,
    Ball,
    FiniteTableGroup,
    RacgEngine,
    SphereTable,
    build_ball,
    first_sight,
    reserve_rows,
)
from .metric import UNREACHED, GraphMetric

SIDE_A, SIDE_B, SIDE_BASE = 0, 1, -1
_SIDE_NAME = {SIDE_A: "A", SIDE_B: "B", SIDE_BASE: "base"}


# ---------------------------------------------------------------------------
# table-backed amalgam engine


class TableAmalgamEngine:
    """Group engine for A *_C B over finite table groups.

    Elements are pairs (zs, c): zs a tuple of letters (side, coset_index)
    naming non-trivial C-cosets of the factors in alternating sides, c an
    element index of C.  Multiplication folds one factor generator at a time
    through the coset tables, so normal forms are maintained exactly.
    """

    def __init__(self, a: FiniteTableGroup, b: FiniteTableGroup, embed_a, embed_b):
        self.a, self.b = a, b
        self.embed = (list(embed_a), list(embed_b))
        if len(self.embed[0]) != len(self.embed[1]):
            raise InputError("C embeddings must have equal length")
        self.c_size = len(self.embed[0])
        for side, grp in ((0, a), (1, b)):
            if not all(isinstance(e, int) and 0 <= e < grp.size for e in self.embed[side]):
                raise InputError(f"C embedding indices must be ints in range({grp.size})")
            seen = set(self.embed[side])
            if len(seen) != self.c_size:
                raise InputError("C embedding has repeated elements")
            if grp.identity not in seen:
                raise InputError("C embedding must contain the identity")
        self._emb_inv = (
            {e: i for i, e in enumerate(self.embed[0])},
            {e: i for i, e in enumerate(self.embed[1])},
        )
        self._check_embeddings_agree()
        if self.c_size == a.size or self.c_size == b.size:
            raise InputError("degenerate amalgam: C equals a factor")
        for side, grp in ((0, a), (1, b)):
            if sorted(grp.generators) != sorted(
                g for g in range(grp.size) if g != grp.identity
            ):
                raise InputError(
                    "table amalgam factors must use all non-identity elements "
                    "as generators (diameter-1 convention)"
                )
        self.c_identity = self._emb_inv[0][a.identity]
        self.identity = ((), self.c_identity)
        self._build_cosets()
        self._build_generators()
        self.c_group = self._build_c_group()

    def _check_embeddings_agree(self):
        ea, eb = self.embed
        for i in range(self.c_size):
            for j in range(self.c_size):
                pa = self._emb_inv[0].get(self.a.table[ea[i]][ea[j]])
                pb = self._emb_inv[1].get(self.b.table[eb[i]][eb[j]])
                if pa is None or pb is None or pa != pb:
                    raise InputError("C embeddings do not agree on multiplication")

    def _build_cosets(self):
        # left cosets x C per factor; coset 0 is C itself, never a letter
        self.coset_of = []
        self.cosets = []
        for side, grp in ((0, self.a), (1, self.b)):
            emb = self.embed[side]
            assignment = [-1] * grp.size
            cosets = []
            for x in range(grp.size):
                if assignment[x] >= 0:
                    continue
                members = sorted(grp.table[x][e] for e in emb)
                cid = len(cosets)
                cosets.append(members)
                for m in members:
                    assignment[m] = cid
            order = sorted(
                range(len(cosets)),
                key=lambda cid: min(
                    (grp.norm(m), m) for m in cosets[cid]
                ),
            )
            # reorder so the C-coset (containing identity) is index 0
            remap = {old: new for new, old in enumerate(order)}
            self.cosets.append([cosets[old] for old in order])
            self.coset_of.append([remap[cid] for cid in assignment])
        self.sections = self.default_sections()

    def default_sections(self):
        """ShortLex-minimal representative per coset (identity for C)."""
        out = []
        for side, grp in ((0, self.a), (1, self.b)):
            reps = [
                min(members, key=lambda m: (grp.norm(m), m))
                for members in self.cosets[side]
            ]
            reps[0] = grp.identity
            out.append(reps)
        return out

    def _build_generators(self):
        gens = []
        names = []
        c_images_in_b = {self.embed[1][i] for i in range(self.c_size)}
        for x in range(self.a.size):
            if x != self.a.identity:
                gens.append((0, x))
                names.append(f"A.{self.a.names[x]}")
        for x in range(self.b.size):
            if x != self.b.identity and x not in c_images_in_b:
                gens.append((1, x))
                names.append(f"B.{self.b.names[x]}")
        self.gens = gens
        self.gen_count = len(gens)
        self.gen_names = names

    def _build_c_group(self):
        ea = self.embed[0]
        table = [
            [self._emb_inv[0][self.a.table[ea[i]][ea[j]]] for j in range(self.c_size)]
            for i in range(self.c_size)
        ]
        names = [self.a.names[ea[i]] for i in range(self.c_size)]
        return FiniteTableGroup(table, names=names)

    # -- elementary algebra -------------------------------------------------

    def mul_elem(self, x, side, s):
        """Right-multiply normal form x by factor element s of `side`."""
        reps = self.sections[side]
        grp = (self.a, self.b)[side]
        emb, emb_inv = self.embed[side], self._emb_inv[side]
        zs, c = x
        v = grp.table[emb[c]][s]
        if zs and zs[-1][0] == side:
            v = grp.table[reps[zs[-1][1]]][v]
            zs = zs[:-1]
        ci = emb_inv.get(v)
        if ci is not None:
            return (zs, ci)
        cid = self.coset_of[side][v]
        tail = grp.table[grp.inv[reps[cid]]][v]
        return (zs + ((side, cid),), emb_inv[tail])

    def mul_gen(self, x, gi):
        side, s = self.gens[gi]
        return self.mul_elem(x, side, s)

    def normal_form(self, word):
        x = self.identity
        for gi in word:
            x = self.mul_gen(x, gi)
        return x

    def multiply(self, x, y):
        out = x
        yzs, yc = y
        for side, cid in yzs:
            out = self.mul_elem(out, side, self.sections[side][cid])
        if yc != self.c_identity:
            out = self.mul_elem(out, 0, self.embed[0][yc])
        return out

    def inverse(self, x):
        zs, c = x
        out = self.identity
        if c != self.c_identity:
            out = self.mul_elem(out, 0, self.a.inv[self.embed[0][c]])
        for side, cid in reversed(zs):
            grp = (self.a, self.b)[side]
            out = self.mul_elem(out, side, grp.inv[self.sections[side][cid]])
        return out

    def norm(self, x):
        zs, c = x
        if zs:
            return len(zs)
        return 0 if c == self.c_identity else 1

    def distance(self, x, y):
        return self.norm(self.multiply(self.inverse(x), y))

    def level(self, x):
        return len(x[0])

    def word_str(self, x):
        zs, c = x
        parts = []
        for side, cid in zs:
            grp = (self.a, self.b)[side]
            parts.append(("A." if side == 0 else "B.") + grp.names[self.sections[side][cid]])
        if c != self.c_identity:
            parts.append("C." + self.c_group.names[c])
        return ".".join(parts) if parts else "e"

    def factor_arrays(self):
        """(table, inv, embed, c_index, coset_of): the factors as int64 arrays
        indexed by side first and padded to the larger factor.  c_index[side,
        x] is the C index of factor element x, -1 outside C."""
        grps = (self.a, self.b)
        g = max(grp.size for grp in grps)
        table = np.zeros((2, g, g), dtype=np.int64)
        inv, c_index, coset_of = (np.full((2, g), -1, dtype=np.int64) for _ in range(3))
        for side, grp in enumerate(grps):
            table[side, : grp.size, : grp.size] = grp.table
            inv[side, : grp.size] = grp.inv
            c_index[side, self.embed[side]] = np.arange(self.c_size)
            coset_of[side, : grp.size] = self.coset_of[side]
        return table, inv, np.array(self.embed, dtype=np.int64), c_index, coset_of

    def sphere_sizes(self, radius, cap):
        """|S(0)|, ..., |S(radius)|: a reduced word is an alternating string
        of j non-trivial cosets followed by an element of C (Serre, Trees,
        1980, 1.2), and the elements of C - {1} have norm 1."""
        a, b = (len(cosets) - 1 for cosets in self.cosets)
        yield 1
        ends_a = ends_b = 1  # the strings of j cosets, by the side of the last
        for j in range(1, radius + 1):
            ends_a, ends_b = a * ends_b, b * ends_a
            yield self.c_size * (ends_a + ends_b) + (self.c_size - 1 if j == 1 else 0)

    def sphere_ball(self, radius) -> Ball:
        """`groups.build_ball` on integers, one numpy step per sphere.

        An element z_1...z_k c is keyed by its vertex, the letters
        z_1...z_k, and its C-part c; each vertex records its parent vertex
        and its last letter (side, coset).  For x = z_1...z_k c and a
        generator g = (t, h) of factor t, x g is `mul_elem` as one gather
        over all (x, g) of a sphere: w = emb_t(c) h, and when t is the side
        of z_k, w = rep(z_k) w and the host vertex is x's parent, else x's
        own vertex.  Then x g = (host, c_w) for w in C, and otherwise
        (child(host, wC), rep(wC)^-1 w).  New vertices and new elements are
        numbered by first sight over the sphere's (x, g) pairs in row-major
        order, which gives `bfs_ball`'s ids.  All elements of a vertex lie in
        one sphere, except the root's (the identity and C - {1} in sphere
        1).  The ball's parent of z_1...z_k c is z_1...z_{k-1}, its letter
        the generator rep(z_k) emb(c) of z_k's side, so `Ball.word` spells
        `word_str`; an element c of C - {1} is the generator emb_A(c)."""
        mul, inv, emb, c_index, coset_of = self.factor_arrays()
        n_cosets = max(map(len, self.cosets))
        reps = np.zeros((2, n_cosets), dtype=np.int64)
        for side, row in enumerate(self.sections):
            reps[side, : len(row)] = row
        # letters: the non-trivial cosets, numbered side by side; index -1
        # (the root's last letter) reads the padding entry, the identity of
        # side A, so that the root's elements are the generators emb_A(c)
        letters = [(side, cid) for side in (0, 1) for cid in range(1, len(self.cosets[side]))]
        letter_id = np.full((2, n_cosets), -1, dtype=np.int64)
        for i, (side, cid) in enumerate(letters):
            letter_id[side, cid] = i
        letter_side = np.array([side for side, _ in letters] + [SIDE_BASE], dtype=np.int64)
        letter_rep = np.array(
            [reps[side, cid] for side, cid in letters] + [self.a.identity], dtype=np.int64
        )
        k, n_c, n_l = self.gen_count, self.c_size, len(letters)
        gen_side = np.array([side for side, _ in self.gens], dtype=np.int64)
        gen_elem = np.array([s for _, s in self.gens], dtype=np.int64)
        gen_of = np.full(mul.shape[:2], -1, dtype=np.int64)
        gen_of[gen_side, gen_elem] = np.arange(k)

        spheres = SphereTable(k)
        # vertex columns (vertex 0 is the root), grown geometrically
        parent = np.full(1, -1, dtype=np.int64)
        last = np.full(1, -1, dtype=np.int64)
        child = np.full((1, n_l), -1, dtype=np.int64)
        elem = np.full((1, n_c), -1, dtype=np.int64)
        elem[0, self.c_identity] = 0
        n_vertices = 1
        # the current sphere's vertices and C-parts
        sv = np.zeros(1, dtype=np.int64)
        sc = np.full(1, self.c_identity, dtype=np.int64)
        for j in range(radius + 1):
            v, c = np.repeat(sv, k), np.repeat(sc, k)
            t, h = np.tile(gen_side, len(sv)), np.tile(gen_elem, len(sv))
            w, lv = mul[t, emb[t, c], h], last[v]
            back = letter_side[lv] == t
            w[back] = mul[t[back], letter_rep[lv[back]], w[back]]
            host = np.where(back, parent[v], v)
            coset = coset_of[t, w]
            out = coset > 0
            lid = letter_id[t, coset]
            # the C-part: rep(wC)^-1 w, which is w itself for w in C
            rc = c_index[t, mul[t, inv[t, reps[t, coset]], w]]
            rv = np.where(out, child[host, lid], host)
            fresh = rv < 0
            if j < radius:
                number, heads = first_sight(host[fresh] * n_l + lid[fresh])
                p, ls = host[fresh][heads], lid[fresh][heads]
                opened = np.arange(n_vertices, n_vertices + len(heads))
                for column in (parent, last, child, elem):
                    reserve_rows(column, n_vertices + len(heads))
                parent[opened], last[opened], child[p, ls] = p, ls, opened
                rv[fresh] = n_vertices + number
                n_vertices += len(heads)
            ids = np.full(len(rv), -1, dtype=np.int64)
            inside = rv >= 0
            ids[inside] = elem[rv[inside], rc[inside]]
            lo, n = spheres.starts[-2], spheres.starts[-1]
            if j < radius:
                new = ids < 0
                number, heads = first_sight(rv[new] * n_c + rc[new])
                m = len(heads)
                spheres.claim(m)
                ids[new] = n + number
                sv, sc = rv[new][heads], rc[new][heads]
                elem[sv, sc] = np.arange(n, n + m)
                # parent z_1...z_{k-1} (its C-part 1), letter rep(z_k) emb(c)
                side = np.maximum(letter_side[last[sv]], 0)
                spheres.parent[n : n + m] = np.where(sv > 0, elem[parent[sv], self.c_identity], 0)
                spheres.letter[n : n + m] = gen_of[side, mul[side, letter_rep[last[sv]], emb[side, sc]]]
            spheres.table[lo:n] = ids.reshape(n - lo, k)
        return spheres.ball(self, radius)


# ---------------------------------------------------------------------------
# contexts


class AmalgamContext:
    """What the dual graph, the builder and the checkers read of an amalgam:
    its engines, the letters of each coset kind, C's generators and the
    factors' asdim numbers.  Word arithmetic on normal forms is left to the
    tests' oracles, apart from `gate_tail`, their traced reference for the
    C-part column."""

    name: str
    engine: object
    c_engine: object

    def coset_letters(self):
        """Generator indices (of C, of the A side, of the B side) whose ball
        edges connect each coset xC, xA, xB inside the ball."""
        raise NotImplementedError

    def c_generators(self):
        """Per generator of `engine`, the index of the same generator of
        `c_engine`, or -1 for a generator outside C."""
        raise NotImplementedError

    def factor_dims(self):
        """(n_A, n_B, n_C): the asdim numbers the recursion assigns."""
        raise NotImplementedError


class TableAmalgam(AmalgamContext):
    def __init__(self, a, b, embed_a, embed_b, name="table-amalgam"):
        self.engine = TableAmalgamEngine(a, b, embed_a, embed_b)
        self.c_engine = self.engine.c_group
        self.name = name

    def coset_letters(self):
        # the A-generators that lie in C are every non-identity element of
        # C; B's generators omit those, so the B side adds them back
        gens = self.engine.gens
        c_images = set(self.engine.embed[0])
        c = [gi for gi, (side, x) in enumerate(gens) if side == 0 and x in c_images]
        a = [gi for gi, (side, _) in enumerate(gens) if side == 0]
        b = [gi for gi, (side, _) in enumerate(gens) if side == 1]
        return c, a, sorted(b + c)

    def c_generators(self):
        eng = self.engine
        c_gen = {eng.embed[0][c]: i for i, c in enumerate(eng.c_group.generators)}
        return [c_gen.get(x, -1) if side == 0 else -1 for side, x in eng.gens]

    def gate_tail(self, inv_gate_rep, x):
        zs, c = self.engine.multiply(inv_gate_rep, x)
        return len(zs), c

    def factor_dims(self):
        return 0, 0, 0


class RacgAmalgam(AmalgamContext):
    """Splitting of a right-angled Coxeter group along parabolic subgroups.

    `n1`, `knk`, `n2` are letter-index subsets of the ambient engine with
    n1 | n2 = all letters, n1 & n2 = knk, and no letter of n1 - knk
    commuting with one of n2 - knk.
    """

    def __init__(self, engine: RacgEngine, n1, knk, n2, name="racg-amalgam"):
        self.engine = engine
        self.n1 = frozenset(n1)
        self.k = frozenset(knk)
        self.n2 = frozenset(n2)
        if self.n1 | self.n2 != set(range(engine.rank)):
            raise InputError("factor letter sets must cover all generators")
        if self.n1 & self.n2 != self.k:
            raise InputError("factor letter sets must intersect in K")
        if self.k == self.n1 or self.k == self.n2:
            raise InputError("degenerate amalgam: C equals a factor")
        # the group is the amalgam exactly when it has no relation beyond
        # those of the factors: no letter of N1 - K commutes with one of N2 - K
        for s in sorted(self.n1 - self.k):
            for t in sorted(self.n2 - self.k):
                if t in engine.comm[s]:
                    raise InputError(
                        f"not a splitting: {engine.names[s]} in n1 - k commutes with "
                        f"{engine.names[t]} in n2 - k"
                    )
        self.name = name
        self.c_engine, c_letters = engine.sub_engine(sorted(self.k))
        self._c_pos = {letter: i for i, letter in enumerate(c_letters)}

    def is_in_c(self, x):
        return frozenset(x) <= self.k

    def coset_letters(self):
        return sorted(self.k), sorted(self.n1), sorted(self.n2)

    def c_generators(self):
        return [self._c_pos.get(g, -1) for g in range(self.engine.rank)]

    def to_c(self, x):
        if not self.is_in_c(x):
            raise InputError("element not in C")
        return tuple(self._c_pos[g] for g in x)

    def gate_tail(self, inv_gate_rep, x):
        y = self.engine.multiply(inv_gate_rep, x)
        m = self.engine.coset_minrep(y, self.k)
        c = self.engine.multiply(self.engine.inverse(m), y)
        return len(m), self.to_c(c)

    def factor_dims(self):
        from .coxeter import CoxeterSystem, asdim_recursive

        cox = CoxeterSystem(self.engine.matrix, names=self.engine.names)
        return tuple(
            asdim_recursive(cox.restrict(letters)) if letters else 0
            for letters in (self.n1, self.n2, self.k)
        )


# ---------------------------------------------------------------------------
# dual graph


@dataclass
class DualGraph:
    """The graph K on cosets gC restricted to a ball, with level structure.

    Pieces are the cliques spanned by the cosets sharing one Bass-Serre
    vertex; edges are implicit (all pairs within a piece).  Vertices are
    numbered in ball order at first sight, so vertex order is the order of
    their representatives' ball ids (`rep_ids`, each coset's least id).
    Pieces are stored as fibers are.  A
    piece's first member is its gate, whose coset holds the piece's shortest
    elements; every other member sits one level above it, with the gate as
    parent.  Every array is read-only."""

    vertex_of_element: np.ndarray
    level: np.ndarray
    parent: np.ndarray
    side: np.ndarray
    rep_ids: np.ndarray
    piece_of_vertex: np.ndarray  # (vertex, SIDE_A / SIDE_B) -> piece id
    piece_side: np.ndarray
    piece_order: np.ndarray  # vertex ids grouped by piece, ascending within a piece
    piece_start: np.ndarray  # piece(p) = piece_order[piece_start[p]:piece_start[p + 1]]
    fiber_order: np.ndarray  # element ids grouped by vertex, ascending within a vertex
    fiber_start: np.ndarray  # fiber(u) = fiber_order[fiber_start[u]:fiber_start[u + 1]]

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def n_vertices(self):
        return len(self.rep_ids)

    def fiber(self, u):
        """Element ids of the coset u, ascending (a read-only view)."""
        return self.fiber_order[self.fiber_start[u] : self.fiber_start[u + 1]]

    def piece(self, p):
        """Vertex ids of the piece p, ascending, gate first (a read-only view)."""
        return self.piece_order[self.piece_start[p] : self.piece_start[p + 1]]

    def base(self):
        return int(np.nonzero(self.level == 0)[0][0])

    def ancestor_at_level(self, vertices, target):
        cur = np.asarray(vertices, dtype=np.int64).copy()
        for _ in range(int(self.level.max()) + 1):
            mask = self.level[cur] > target
            if not mask.any():
                break
            cur[mask] = self.parent[cur[mask]]
        return np.where(self.level[cur] == target, cur, -1)

    def is_ancestor(self, u, v):
        """u <= v in the partial order: u lies on the K-geodesic [C, v]."""
        anc = self.ancestor_at_level([v], int(self.level[u]))[0]
        return int(anc) == int(u)

    def vertices_at_level(self, lvl, side=None):
        mask = self.level == lvl
        if side is not None:
            mask &= self.side == side
        return np.nonzero(mask)[0].tolist()


def build_dual_graph(ctx: AmalgamContext, ball: Ball) -> DualGraph:
    """K on the ball's cosets, with pieces (Bass-Serre vertex cliques) driving
    the level BFS: every coset belongs to one A-piece and one B-piece; each
    piece is entered through its unique lowest vertex (the gate), and all
    other members sit one level above it.

    Cosets are found on the ball's edge table, not on words.  An element's
    vertex is the least ball id over its coset xC (`Ball.coset_labels` of
    the C letters), and its pieces likewise over the A and B letters
    (`ctx.coset_letters`).  This is exact because the letters connect
    every coset's part inside the ball.  In a RACG x = m c with m the
    minimal coset representative and |x| = |m| + |c|, so the prefixes of c
    walk from m to x inside the ball.
    In a table amalgam every non-identity element of C, A or B is one letter,
    so the part is a clique.  Ids follow BFS order, so the least id is the
    first-seen representative, and vertex ids follow the ball order of
    their representatives.  Piece ids follow first sight in (vertex, side)
    order.
    """
    c_letters, a_letters, b_letters = ctx.coset_letters()
    rep_ids, vertex_of = np.unique(ball.coset_labels(c_letters), return_inverse=True)
    n = len(rep_ids)

    labels = [ball.coset_labels(letters)[rep_ids] for letters in (a_letters, b_letters)]
    flat_piece, heads = first_sight((2 * np.column_stack(labels) + [SIDE_A, SIDE_B]).ravel())
    piece_of_vertex = flat_piece.reshape(n, 2)
    piece_order, piece_start = _grouped(flat_piece, len(heads))
    piece_order //= 2
    piece_side = heads % 2

    base = int(vertex_of[0])
    level = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    side = np.full(n, SIDE_BASE, dtype=np.int64)
    level[base] = 0
    piece_done = np.zeros(len(heads), dtype=bool)
    frontiers = [np.array([base], dtype=np.int64)]
    while len(frontiers[-1]):
        frontier = frontiers[-1]
        gates = np.repeat(frontier, 2)
        pids = piece_of_vertex[frontier].ravel()
        fresh = ~piece_done[pids]
        gates, pids = gates[fresh], pids[fresh]
        piece_done[pids] = True
        counts = piece_start[pids + 1] - piece_start[pids]
        offsets = np.repeat(piece_start[pids] - np.cumsum(counts) + counts, counts)
        members = piece_order[offsets + np.arange(len(offsets))]
        gates, pids = np.repeat(gates, counts), np.repeat(pids, counts)
        up = members != gates
        members, gates, pids = members[up], gates[up], pids[up]
        # a piece has a second gate when a member already has a level (this
        # includes a piece met from two frontier vertices) or when a vertex
        # lies in two pieces opened at this step
        if (level[members] >= 0).any() or len(np.unique(members)) < len(members):
            raise AssertionError("tree-graded structure violated: piece with two gates")
        level[members] = len(frontiers)
        parent[members] = gates
        # a level-1 coset lies on the side of the piece it shares with the
        # base, and every other coset on its parent's side
        side[members] = piece_side[pids] if len(frontiers) == 1 else side[gates]
        frontiers.append(np.sort(members))

    if (level < 0).any():
        raise OutOfBallError("dual graph disconnected inside the ball")

    fiber_order, fiber_start = _grouped(vertex_of, n)
    return DualGraph(
        vertex_of_element=vertex_of,
        level=level,
        parent=parent,
        side=side,
        rep_ids=rep_ids,
        piece_of_vertex=piece_of_vertex,
        piece_side=piece_side,
        piece_order=piece_order,
        piece_start=piece_start,
        fiber_order=fiber_order,
        fiber_start=fiber_start,
    )


def _grouped(keys, n):
    """(order, start): the positions of `keys` grouped by key 0 .. n - 1,
    ascending within a key, and key k's group order[start[k]:start[k + 1]]."""
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=start[1:])
    return np.argsort(keys, kind="stable"), start


@dataclass
class AmalgamBall:
    """A ball with its dual graph, graph metric, and side labels."""

    ctx: AmalgamContext
    ball: Ball
    dual: DualGraph
    metric: GraphMetric
    core_radius: int
    _levels: dict = field(default_factory=dict, init=False, repr=False)
    _parts: dict = field(default_factory=dict, init=False, repr=False)
    _core: np.ndarray = field(default=None, init=False, repr=False)
    _sides: np.ndarray = field(default=None, init=False, repr=False)

    @property
    def n(self):
        return len(self.ball)

    def core_mask(self):
        """Elements of norm <= core_radius, computed once per ball, read-only."""
        if self._core is None:
            self._core = self.ball.norms <= self.core_radius
            self._core.flags.writeable = False
        return self._core

    def side_of_elements(self):
        """Each element's side of K, computed once per ball, read-only."""
        if self._sides is None:
            self._sides = self.dual.side[self.dual.vertex_of_element]
            self._sides.flags.writeable = False
        return self._sides

    def element_level(self):
        return self.dual.level[self.dual.vertex_of_element]

    def level_field(self, lvl):
        """(field, anc) for level `lvl` of K, computed once per ball: the
        distance field of the union of all level-`lvl` fibers, and each
        element's level-`lvl` ancestor in K (-1 for none), both read-only.

        Where anc[x] = u, field[x] = d(x, g_u C) exactly.  K^u meets the rest
        of K only in u, because every piece has one gate (`build_dual_graph`
        raises otherwise), and pi is 1-Lipschitz, so every ball path from
        pi^{-1}(K^u) to another level-`lvl` fiber crosses the fiber of u.
        """
        if lvl not in self._levels:
            dual = self.dual
            ids = np.nonzero(self.element_level() == lvl)[0]
            anc = dual.ancestor_at_level(dual.vertex_of_element, lvl)
            anc.flags.writeable = False
            self._levels[lvl] = (self.metric.dist_field(ids), anc)
        return self._levels[lvl]

    def coset_part(self, side):
        """Each element's part g^-1 x as a ball id, for g the least id of x's
        coset: of its fiber xC for side SIDE_BASE, of its piece xA or xB for
        SIDE_A or SIDE_B; -1 where unreached.  Computed once per side
        (read-only) by one BFS from those least ids along the coset's letter
        columns of `Ball.table`, p(x k) = p(x) k, inside the dual graph's
        fibers or pieces.  Every part is reached: in a RACG the least id of a
        coset of a parabolic subgroup is its minimal representative g, and x
        = g y with |x| = |g| + |y| (Bjorner-Brenti 2.4), so the path from g
        along y and its parts, prefixes of y, stay in the ball; in a table
        amalgam every non-identity element of A, B or C is one letter.
        """
        if side not in self._parts:
            dual = self.dual
            starts = dual.fiber_order[dual.fiber_start[:-1]]
            group = dual.vertex_of_element
            if side != SIDE_BASE:
                # a piece's least id is its gate's representative
                starts = starts[dual.piece_order[dual.piece_start[:-1]][dual.piece_side == side]]
                group = dual.piece_of_vertex[group, side]
            table = self.ball.table[:, self.ctx.coset_letters()[side + 1]]
            p = np.full(self.n + 1, -1, dtype=np.int64)  # p[-1] is read for -1
            p[starts] = p[-1] = 0  # the identity's id
            x = starts
            while len(x):
                y, py = table[x], table[p[x]]
                # a part past the ball leaves y unreached
                new = (p[y] < 0) & (py >= 0) & (group[y] == group[x][:, None])
                p[y[new]] = py[new]
                x = np.unique(y[new])
            p.flags.writeable = False
            self._parts[side] = p[:-1]
        return self._parts[side]

    def c_part(self):
        """Each element's C-part rep(pi(x))^-1 x as the ball id of that element
        of C (in the base fiber), rep(v) the least id of v's fiber:
        `coset_part(SIDE_BASE)`.  For every ancestor u of v = pi(x), x =
        rep(u) m c(x) with |m| = |rep(v)| - |rep(u)| (`gate_tail` is the
        tests' reference), as rep(u) is a geodesic prefix of rep(v): in a RACG
        a gate's rep is its piece's shortest element, so rep(v) = rep(u) m with
        m minimal in mK (Bjorner-Brenti 2.4); in a table amalgam a coset's
        least id, first seen from rep(parent) by its default section, has
        trivial C-part.
        """
        c = self.coset_part(SIDE_BASE)
        if (c < 0).any():
            raise AssertionError("C-part not reached, or outside the ball")
        return c


def prepare(
    ctx: AmalgamContext, ball_radius, core_radius=None, cap=DEFAULT_BALL_CAP
) -> AmalgamBall:
    """The ball of `ball_radius` with its dual graph and metric.  A ball past
    `cap` raises `ResourceCapError` in `build_ball`, before it is
    enumerated."""
    if core_radius is None:
        core_radius = ball_radius
    ball = build_ball(ctx.engine, ball_radius, cap)
    dual = build_dual_graph(ctx, ball)
    return AmalgamBall(
        ctx=ctx, ball=ball, dual=dual, metric=ball.graph_metric(), core_radius=core_radius
    )


# ---------------------------------------------------------------------------
# checkers


@dataclass
class CheckVerdict:
    name: str
    passed: bool
    checked: int
    witness: object = None
    note: str = ""

    def line(self):
        status = "pass" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if self.witness is not None else ""
        notes = [self.note] if self.note else []
        if self.passed and not self.checked:
            notes.append("vacuous: nothing in the ball to check")
        note = f" ({'; '.join(notes)})" if notes else ""
        return f"{self.name}: {status} [{self.checked} checks]{extra}{note}"


def check_assertion_2_1(ab: AmalgamBall) -> CheckVerdict:
    """Every Cayley edge maps to a K-vertex or a K-edge between factor-adjacent
    cosets; hence pi extends simplicially and is 1-Lipschitz.

    For distinct vertices u and v, rep(u)^-1 rep(v) lies in a factor exactly
    when the cosets u and v lie in one coset of A or of B, that is, when they
    share a piece (`DualGraph.piece_of_vertex`); their levels may differ by
    at most 1.  Edges are taken in `Ball.cayley_edge_arrays` order, and a
    failure reports the first failing edge with `checked` counting the edges
    up to it.
    """
    dual, ball = ab.dual, ab.ball
    lo, hi = ball.cayley_edge_arrays()
    ku, kv = dual.vertex_of_element[lo], dual.vertex_of_element[hi]
    off_factor = (ku != kv) & (dual.piece_of_vertex[ku] != dual.piece_of_vertex[kv]).all(axis=1)
    bad = off_factor | (np.abs(dual.level[ku] - dual.level[kv]) > 1)
    if not bad.any():
        return CheckVerdict("assertion-2.1", True, len(lo))
    i = int(np.argmax(bad))
    u, v = int(lo[i]), int(hi[i])
    if off_factor[i]:
        return CheckVerdict("assertion-2.1", False, i + 1, witness=(ball.word(u), ball.word(v)))
    return CheckVerdict(
        "assertion-2.1",
        False,
        i + 1,
        witness=(u, v),
        note="projection not 1-Lipschitz on this edge",
    )


def check_assertion_2_2(ab: AmalgamBall) -> CheckVerdict:
    """||gamma|| >= d(z_k c, C) for the normal presentation, any sections.

    The scan covers the ball's elements outside the base fiber, and a
    failure reports the lowest failing ball index, with `checked` counting
    the elements up to it.  Under the default sections the prefix z_1...z_j
    of an element of the fiber of v is rep(v), so z_k c = rep(u)^-1 x for u
    the parent of pi(x), which `_normal_form_tails` reads as a ball id near
    the identity, and d(z_k c, C) is the level-0 field there (`level_field`).

    Sections in their cosets move each prefix by an element of C on the
    right, so z_k c becomes delta^-1 z_k c with delta in C (Serre, Trees,
    1.2), and d(delta^-1 y, C) = d(y, C): the verdict is that of any sections.
    """
    ball = ab.ball
    ids, tail = _normal_form_tails(ab)
    fail = ball.norms[ids] < ab.level_field(0)[0][tail]
    if fail.any():
        j = int(np.argmax(fail))
        return CheckVerdict("assertion-2.2", False, j + 1, witness=ball.word(int(ids[j])))
    return CheckVerdict("assertion-2.2", True, len(ids))


def _normal_form_tails(ab: AmalgamBall):
    """(ids, tail): the elements outside the base fiber, ascending,
    and the ball id of each one's z_k c = rep(u)^-1 x under the default
    sections, u the parent of v = pi(x): the `coset_part` of x in the piece
    that v shares with u.  That piece's gate is u, because a vertex other
    than the base is a non-gate member of one piece only, the one it was
    entered through, and the walk's checks below hold along the way.

    The walk's checks come first, in its order: a depth-first walk of the
    parent tree from the base, children ascending, which at each vertex v
    requires that v shares a piece with its parent (the step lies in a
    factor), that the piece's side differs from the parent's step (the
    letters alternate), and that every element of v's fiber has its C-part
    reached inside the fiber (the tail lies in C).  The first failure raises
    AssertionError with the walk's message.
    """
    dual = ab.dual
    base = dual.base()
    vs = np.nonzero(dual.level > 0)[0]
    us = dual.parent[vs]
    shared = dual.piece_of_vertex[vs] == dual.piece_of_vertex[us]
    step = np.full(dual.n_vertices, SIDE_BASE, dtype=np.int64)
    step[vs] = np.where(shared[:, SIDE_A], SIDE_A, SIDE_B)
    outside_c = np.zeros(dual.n_vertices, dtype=bool)
    outside_c[dual.vertex_of_element[ab.coset_part(SIDE_BASE) < 0]] = True
    if outside_c[base]:
        raise AssertionError("normal-form tail not in C")
    checks = (
        (~shared.any(axis=1), "dual-graph step does not lie in a factor"),
        (step[vs] == step[us], "normal form letters fail to alternate"),
        (outside_c[vs], "normal-form tail not in C"),
    )
    bad = np.column_stack([fails for fails, _ in checks])
    at = _first_in_walk_order(dual, vs, bad.any(axis=1))
    if at is not None:
        raise AssertionError(checks[int(np.argmax(bad[at]))][1])
    ids = np.nonzero(dual.vertex_of_element != base)[0]
    on_a = step[dual.vertex_of_element[ids]] == SIDE_A
    tail = np.where(on_a, ab.coset_part(SIDE_A)[ids], ab.coset_part(SIDE_B)[ids])
    if (tail < 0).any():
        raise AssertionError("normal-form tail not reached inside the ball")
    return ids, tail


def _first_in_walk_order(dual, vs, flagged):
    """The index into `vs` of the first flagged vertex a depth-first walk of
    the parent tree from the base reaches, children ascending; None
    when the walk reaches none.  Only flagged vertices are traced, each by
    its path from the base, and preorder is the lexicographic order of those
    paths."""
    base, where = dual.base(), {}
    for i in np.flatnonzero(flagged).tolist():
        path, v = [], int(vs[i])
        while v != base and v >= 0 and dual.level[v] > 0 and len(path) < len(vs):
            path.append(v)
            v = int(dual.parent[v])
        if v == base:
            where[tuple(reversed(path))] = i
    return where[min(where)] if where else None


def compute_D_R(ab: AmalgamBall, u, R, side=None):
    """D_R^u: elements at exact distance R from the coset of u, on u's far side
    (for the base vertex, on the requested side of K): u's group of
    `translate_mask`."""
    lvl = int(ab.dual.level[u])
    mask = translate_mask(ab, lvl, R, side if lvl == 0 else int(ab.dual.side[u]))
    return np.nonzero(mask & (ab.level_field(lvl)[1] == u))[0]


def beyond_set(ab: AmalgamBall, u, R, side=None, strict=False):
    """{x : pi(x) in K^u and d(x, g_u C) >= R} (or > R when strict); for the
    base vertex restricted to the given side.  The per-gate form of the
    level-wide selections in `partition_ball`."""
    lvl = int(ab.dual.level[u])
    if lvl == 0 and side is None:
        raise InputError("base-vertex beyond-set needs a side")
    fld, far = _beyond_gates(ab, lvl, side if lvl == 0 else int(ab.dual.side[u]))
    return (fld > R if strict else fld >= R) & far & (ab.level_field(lvl)[1] == u)


def translate_mask(ab: AmalgamBall, lvl, R, side):
    """D_R^u of every level-`lvl` gate u on `side` of K at once: the core
    points at exact distance R from their own gate's coset.  Split it by
    gate (`split_by_gate` on the level's ancestors) for the translates."""
    if R < 1:
        raise PreconditionError("compute_D_R requires R >= 1")
    if ab.core_radius + R > ab.ball.radius:
        raise OutOfBallError(
            "ball cannot certify exact distance-R spheres on its core",
            needed_radius=ab.core_radius + R,
        )
    if side is None:
        raise InputError("base-vertex D_R needs a side (SIDE_A or SIDE_B)")
    if lvl % 2 != 0:
        raise PreconditionError("translate D_R^u defined for even-level u")
    fld, far = _beyond_gates(ab, lvl, side)
    return (fld == R) & far & ab.core_mask()


def _beyond_gates(ab: AmalgamBall, lvl, side):
    """(field, far): the level-`lvl` field, and the mask of the points beyond
    a level-`lvl` gate on `side` of K, where that field is the distance to
    their own gate's coset.  At level 0 every point's ancestor is the base."""
    fld, anc = ab.level_field(lvl)
    return fld, (anc >= 0) & (ab.side_of_elements() == side)


def split_by_gate(ids, gate):
    """[(g, ids of gate g)] over the distinct gates g of the ascending `ids`,
    gates ascending and ids ascending within a gate.  `gate` maps every
    element id to a non-negative key: a level's ancestors (`level_field`), or
    any other grouping of the ids."""
    keys = gate[ids]
    order, start = _grouped(keys, int(keys.max(initial=-1)) + 1)
    ids = ids[order]
    return [(g, ids[start[g] : start[g + 1]]) for g in np.flatnonzero(np.diff(start)).tolist()]


def check_separation(ab: AmalgamBall, u, u_prime, R, boundary_override=None) -> CheckVerdict:
    """Prop 2.1: D_R^u separates pi^{-1}(v) from pi^{-1}(u') for every v
    incomparable with u or below it, whenever u < u' and |u'| - |u| > R.

    `boundary_override` substitutes the separating set (fault-injection
    fixture support); the default is the computed D_R^u."""
    dual = ab.dual
    lu, lup = int(dual.level[u]), int(dual.level[u_prime])
    if lu % 2 != 0:
        raise PreconditionError("separation stated for even-level u")
    if not (lup - lu > R):
        raise PreconditionError(
            f"requires |u'| - |u| > R (got {lup} - {lu} <= {R})"
        )
    if lu > 0 and not dual.is_ancestor(u, u_prime):
        raise PreconditionError("requires u < u'")
    side = int(dual.side[u_prime]) if lu == 0 else None
    d_set = compute_D_R(ab, u, R, side=side)
    if boundary_override is not None:
        d_set = np.asarray(sorted(boundary_override), dtype=np.int64)
    # restrict the path search to the core, where the distance-R
    # classification of D_R is exact; shell points with uncertain membership
    # must neither block nor carry paths
    core = ab.core_mask()
    masked = ab.metric.masked(np.concatenate([d_set, np.nonzero(~core)[0]]))

    interior = core & (ab.ball.norms <= ab.ball.radius - 1)
    fiber_up = dual.fiber(u_prime)
    fiber_up = fiber_up[interior[fiber_up]]
    if not len(fiber_up):
        raise OutOfBallError("pi^{-1}(u') has no interior witnesses in the core")
    # the points with a path to pi^{-1}(u') that avoids D_R^u and the shell
    reaches_up = masked.dist_field(fiber_up) < UNREACHED

    # which vertices v the statement covers: v < u or incomparable with u
    # (for the base vertex: the opposite side of K)
    nv = dual.n_vertices
    valid_v = np.ones(nv, dtype=bool)
    valid_v[u] = valid_v[u_prime] = False
    if lu > 0:
        anc_u = dual.ancestor_at_level(np.arange(nv), lu)
        valid_v &= ~((anc_u == u) & (dual.level > lu))
    else:
        opposite = SIDE_B if int(dual.side[u_prime]) == SIDE_A else SIDE_A
        valid_v &= dual.side == opposite

    blocked = np.zeros(ab.n, dtype=bool)
    blocked[d_set] = True
    candidates = interior & ~blocked & valid_v[dual.vertex_of_element]
    checked = int(candidates.sum())
    leaks = candidates & reaches_up
    if leaks.any():
        i = int(np.nonzero(leaks)[0][0])
        return CheckVerdict(
            "prop-2.1-separation",
            False,
            checked,
            witness=(int(dual.vertex_of_element[i]), i),
            note="path avoiding D_R^u exists inside the ball",
        )
    return CheckVerdict("prop-2.1-separation", True, checked)


def check_translate_disjointness(ab: AmalgamBall, r, R) -> CheckVerdict:
    """Prop 2.2: translates of D_R at level multiples of r are 2R-disjoint,
    and 3R-disjoint across unequal levels.

    A pass is decided by one BFS from every translate point at once, read
    twice by `GraphMetric.label_gaps`: labelled by translate, its least gap
    is the least distance between two translates (at least 2R is needed);
    labelled by the translate's level, the least distance between translates
    of unequal levels (at least 3R).  Both minima are exact: a shortest path
    between the closest differently labelled pair has an edge (u, v) whose
    ends have differently labelled nearest sources, and there fld[u] + 1 +
    fld[v] is at most the path's length, while every gap is at least the
    distance between two differently labelled points.  A point in two
    translates is the one thing a labelled BFS cannot see, so the ids must
    be distinct first.  When they are not, or either minimum is too small,
    the per-pair scan gives the verdict: the first failing pair in (i, j)
    order."""
    if R > r / 4:
        raise PreconditionError("requires R <= r/4")
    if ab.core_radius + 3 * R > ab.ball.radius:
        raise OutOfBallError(
            "disjointness claims need core_radius + 3R <= ball radius",
            needed_radius=ab.core_radius + 3 * R,
        )
    translates = collect_translates(ab, r, R)
    count = len(translates)
    if count < 2 or _translates_disjoint(ab.metric, translates, R):
        return CheckVerdict(
            "prop-2.2-disjointness", True, count * (count - 1) // 2, note=f"{count} translates"
        )
    checked = 0
    for i, j, d in ab.metric.pair_gaps([ids for _, _, ids in translates]):
        (ui, li, _), (uj, lj, _) = translates[i], translates[j]
        d = float("inf") if d >= UNREACHED else float(d)
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


def collect_translates(ab: AmalgamBall, r, R):
    """The non-empty translates (u, level, D_R^u) of Prop 2.2: the side-A
    gates u at level multiples of r, the base first, one `translate_mask`
    per level split by gate."""
    return [
        (u, lvl, ids)
        for lvl in range(0, int(ab.dual.level.max()) + 1, r)
        for u, ids in split_by_gate(
            np.nonzero(translate_mask(ab, lvl, R, SIDE_A))[0], ab.level_field(lvl)[1]
        )
    ]


def _translates_disjoint(metric: GraphMetric, translates, R) -> bool:
    """True when the (u, level, ids) translates are pairwise disjoint point
    sets, 2R apart and 3R apart across unequal levels: one labelled BFS,
    read by translate and by level (`check_translate_disjointness`)."""
    points = np.concatenate([ids for _, _, ids in translates])
    if len(np.unique(points)) < len(points):
        return False
    owner = np.repeat(np.arange(len(translates)), [len(ids) for _, _, ids in translates])
    level = np.array([lvl for _, lvl, _ in translates])
    field = metric.dist_field(points, with_sources=True)
    for label, need in ((owner, 2 * R), (level[owner], 3 * R)):
        labels = np.full(metric.n, -1, dtype=np.int64)
        labels[points] = label
        if metric.label_gaps(labels, field=field)[2].min(initial=UNREACHED) < need:
            return False
    return True


# ---------------------------------------------------------------------------
# partition


@dataclass
class Partition:
    """{V_r^u} at level multiples of r plus the central piece N_R(C) per side."""

    r: int
    R: int
    side: int
    central: np.ndarray
    pieces: list  # (vertex id, np.ndarray of element ids)
    boundary: np.ndarray  # union of D_R^u over the slab gates


def partition_ball(ab: AmalgamBall, r, R, side) -> Partition:
    """Theorem 2.1's partition of pi^{-1}(K_side) restricted to the core."""
    if r <= 4 * R:
        raise PreconditionError(f"partition requires r > 4R (r={r}, R={R})")
    if R < 1:
        raise PreconditionError("partition requires R >= 1")
    if r % 2 != 0:
        raise PreconditionError("slab spacing r must be even (even-level gates)")
    dual = ab.dual
    core = ab.core_mask()
    sides = ab.side_of_elements()
    on_side = (sides == side) | (sides == SIDE_BASE)

    central = np.nonzero(core & on_side & (ab.level_field(0)[0] <= R))[0]
    boundary_mask = np.zeros(ab.n, dtype=bool)
    pieces = []
    for lvl in range(0, int(dual.level.max()) + 1, r):
        boundary_mask |= translate_mask(ab, lvl, R, side)
        fld, far = _beyond_gates(ab, lvl, side)
        # far lies on `side`, so every level-(lvl + r) ancestor it meets is a
        # gate of this side below its own level-lvl gate
        next_field, next_anc = ab.level_field(lvl + r)
        piece = far & core & (fld >= R) & ~((next_field > R) & (next_anc >= 0))
        pieces += split_by_gate(np.nonzero(piece)[0], ab.level_field(lvl)[1])

    return Partition(
        r=r,
        R=R,
        side=side,
        central=central,
        pieces=pieces,
        boundary=np.nonzero(boundary_mask)[0],
    )


def verify_partition(ab: AmalgamBall, part: Partition) -> CheckVerdict:
    """Pieces cover the side-carrier on the core; overlaps only inside D_R
    translates; pi(V_r) stays within r + R levels of the gate."""
    cover = np.zeros(ab.n, dtype=np.int32)
    cover[part.central] += 1
    for _, ids in part.pieces:
        cover[ids] += 1
    core = ab.core_mask()
    sides = ab.side_of_elements()
    carrier = core & ((sides == part.side) | (sides == SIDE_BASE))
    missing = np.nonzero(carrier & (cover == 0))[0]
    if len(missing):
        return CheckVerdict(
            "partition-covers", False, int(carrier.sum()), witness=int(missing[0])
        )
    boundary = set(part.boundary.tolist())
    over = np.nonzero(cover > 1)[0]
    for i in over.tolist():
        if i not in boundary:
            return CheckVerdict(
                "partition-overlaps-in-boundary",
                False,
                int(carrier.sum()),
                witness=i,
                note="overlap point outside the D_R web",
            )
    levels = ab.element_level()
    for u, ids in part.pieces:
        gate_level = int(ab.dual.level[u])
        if len(ids) and int(levels[ids].max()) > gate_level + part.r + part.R:
            return CheckVerdict(
                "partition-level-bound",
                False,
                int(carrier.sum()),
                witness=int(u),
                note="pi(V_r^u) leaves B_{r+R}^u",
            )
    return CheckVerdict("partition", True, int(carrier.sum()))


# ---------------------------------------------------------------------------
# exports


def dual_graph_dot(ab: AmalgamBall) -> str:
    """DOT rendering of K with levels and piece types Delta(A)/Delta(B)."""
    dual = ab.dual
    lines = ["graph dual_graph {", "  node [shape=circle];"]
    for u, rep in enumerate(dual.rep_ids.tolist()):
        label = ab.ball.word(rep)
        shade = {SIDE_A: "lightblue", SIDE_B: "lightpink", SIDE_BASE: "gray"}[
            int(dual.side[u])
        ]
        lines.append(
            f'  v{u} [label="{label}\\n|u|={int(dual.level[u])}", style=filled, fillcolor={shade}];'
        )
    for p, piece in enumerate(dual.piece_side.tolist()):
        style = "solid" if piece == SIDE_A else "dashed"
        members = dual.piece(p).tolist()
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                lines.append(
                    f'  v{u} -- v{v} [style={style}, label="{_SIDE_NAME[piece]}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def partition_json(ab: AmalgamBall, part: Partition):
    return {
        "r": part.r,
        "R": part.R,
        "side": _SIDE_NAME[part.side],
        "central": [int(i) for i in part.central],
        "pieces": [
            {"u": int(u), "elements": [int(i) for i in ids]} for u, ids in part.pieces
        ],
        "boundary": [int(i) for i in part.boundary],
    }
