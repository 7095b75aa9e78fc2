"""Word-metric engines: finite groups by multiplication table, right-angled
Coxeter groups by confluent rewriting, and Cayley-ball enumeration.

Engines share a small informal protocol: `identity`, `gen_count`,
`gen_names`, `mul_gen(x, i)`, `norm(x)`, `inverse(x)`, `multiply(x, y)`,
`word_str(x)`, and `sphere_sizes(radius, cap)`, the exact sphere sizes a
ball's size is checked with before it is enumerated.  Elements are
hashable opaque values (ints for table groups, letter tuples for Coxeter
groups).  All enumeration orders are fixed by the generator order, so
balls and everything derived from them are reproducible bit for bit.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InputError, ResourceCapError, UnsupportedBackendError
from .metric import GraphMetric

DEFAULT_BALL_CAP = 2_000_000

# bytes of the uint8 matrix one block of `Ball.iter_json` is rendered in;
# a record is a few dozen bytes plus its word
BALL_JSON_BYTES = 1 << 16


class FiniteTableGroup:
    """Finite group given by a multiplication table.

    `table[i][j]` is the product of elements i and j; element 0 need not be
    the identity (it is detected).  Generators default to all non-identity
    elements, making the group a diameter-1 metric space.
    """

    def __init__(self, table, names=None, generators=None):
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(_is_int(v) for v in row) for row in table
        ):
            raise InputError("multiplication table must be a list of lists of ints")
        if names is not None and not isinstance(names, list):
            raise InputError("element names must be a list")
        table = [list(row) for row in table]
        n = len(table)
        if any(len(row) != n for row in table):
            raise InputError("multiplication table must be square")
        self.table = table
        self.size = n
        self.names = [str(x) for x in (names or range(n))]
        if len(self.names) != n:
            raise InputError("one name per element required")
        self._validate()
        if generators is None:
            generators = [g for g in range(n) if g != self.identity]
        self.generators = list(generators)
        if not self.generators and n > 1:
            raise InputError("generating set must be non-empty")
        gen_set = set(self.generators)
        for g in self.generators:
            if self.inv[g] not in gen_set:
                raise InputError("generating set must be symmetric")
        self._norms = self._bfs_norms()
        if -1 in self._norms:
            raise InputError("given set does not generate the group")
        self.gen_count = len(self.generators)
        self.gen_names = [self.names[g] for g in self.generators]

    def _validate(self):
        n = self.size
        for row in self.table:
            if sorted(row) != list(range(n)):
                raise InputError("table rows must be permutations")
        t = np.array(self.table, dtype=np.int64).reshape(n, n)
        if (np.sort(t, axis=0) != np.arange(n)[:, None]).any():
            raise InputError("table columns must be permutations")
        units = np.flatnonzero((t == np.arange(n)).all(axis=1) & (t.T == np.arange(n)).all(axis=1))
        if not len(units):
            raise InputError("table has no identity element")
        self.identity = identity = int(units[0])
        # every row is a permutation, so it holds the identity once
        self.inv = np.argmax(t == identity, axis=1).tolist()
        # Light's test on a generating set S built greedily: the z with
        # (xy)z = x(yz) for all x, y are closed under products, so checking
        # every z in S checks every z
        seen = np.zeros(n, dtype=bool)
        seen[identity] = True
        gens = []
        for g in range(n):
            if seen[g]:
                continue
            gens.append(g)
            if not np.array_equal(t[t, g], t[:, t[:, g]]):
                raise InputError("table is not associative")
            new = np.flatnonzero(seen)
            while len(new):  # the left-normed products of S
                new = np.unique(t[np.ix_(new, gens)])
                new = new[~seen[new]]
                seen[new] = True

    def _bfs_norms(self):
        norms = [-1] * self.size
        norms[self.identity] = 0
        q = deque([self.identity])
        while q:
            x = q.popleft()
            for g in self.generators:
                y = self.table[x][g]
                if norms[y] < 0:
                    norms[y] = norms[x] + 1
                    q.append(y)
        return norms

    def mul_gen(self, x, gi):
        return self.table[x][self.generators[gi]]

    def multiply(self, x, y):
        return self.table[x][y]

    def inverse(self, x):
        return self.inv[x]

    def norm(self, x):
        return self._norms[x]

    def distance(self, x, y):
        return self._norms[self.table[self.inv[x]][y]]

    def normal_form(self, word):
        """Fold a generator-index word into an element."""
        x = self.identity
        for gi in word:
            x = self.mul_gen(x, gi)
        return x

    def word_str(self, x):
        return self.names[x]

    @property
    def diameter(self):
        return max(self._norms)

    def sphere_sizes(self, radius, cap):
        """|S(0)|, ..., |S(radius)|, ending at the diameter: a bincount of
        the norms."""
        return np.bincount(self._norms)[: radius + 1].tolist()

    def elements(self):
        return range(self.size)


class CoxeterMatrix:
    """Named generators and a Coxeter matrix, validated: square, symmetric,
    unit diagonal, off-diagonal entries 0 (infinity) or integers >= 2, one
    distinct name per generator, a non-empty string without '.' or
    whitespace (default a, b, c, ...).  Base of
    `RacgEngine` and `coxeter.CoxeterSystem`."""

    def __init__(self, matrix, names=None):
        if not isinstance(matrix, list) or not all(isinstance(row, list) for row in matrix):
            raise InputError("Coxeter matrix must be a list of rows, each a list")
        m = [list(row) for row in matrix]
        k = len(m)
        if any(len(row) != k for row in m):
            raise InputError("Coxeter matrix must be square")
        for i in range(k):
            if m[i][i] != 1:
                raise InputError("Coxeter matrix needs unit diagonal")
            for j in range(k):
                if m[i][j] != m[j][i]:
                    raise InputError("Coxeter matrix must be symmetric")
                if i != j and not _is_coxeter_entry(m[i][j]):
                    raise InputError(
                        "off-diagonal entries must be integers >= 2 (0 for "
                        f"infinity), got m[{i}][{j}]={m[i][j]!r}"
                    )
        self.matrix = m
        self.rank = k
        if names is None:
            names = [chr(ord("a") + i) for i in range(k)]
        elif not isinstance(names, (list, tuple)) or not all(map(_is_letter_name, names)):
            raise InputError(
                "generator names must be a list of non-empty strings "
                "without '.' or whitespace"
            )
        self.names = list(names)
        if len(self.names) != k:
            raise InputError("one name per generator required")
        if len(set(self.names)) != k:
            raise InputError("generator names must be distinct")

    def restrict(self, letters):
        """The parabolic subsystem on a set of generator indices, re-indexed
        in ascending order and of the same class as `self`."""
        letters = sorted(letters)
        return type(self)(
            [[self.matrix[i][j] for j in letters] for i in letters],
            names=[self.names[i] for i in letters],
        )


def _is_coxeter_entry(x):
    return isinstance(x, numbers.Real) and (x == 0 or (x >= 2 and float(x).is_integer()))


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_letter_name(x):
    """A generator name that words can be split back into: a non-empty
    string with no '.' and no whitespace."""
    return isinstance(x, str) and x.split() == [x] and "." not in x


class RacgEngine(CoxeterMatrix):
    """Right-angled Coxeter group by rewriting to the ShortLex-least reduced
    word.

    Letters are generator indices.  A word is reduced iff it has no pair of
    equal letters separated only by letters commuting with them; reduced
    words of one element form a single commutation class, and the engine
    stores its lexicographically least member, so normal forms are unique
    and their length is the word-metric norm.
    """

    def __init__(self, matrix, names=None):
        super().__init__(matrix, names)
        m, k = self.matrix, self.rank
        for i in range(k):
            for j in range(k):
                if i != j and m[i][j] not in (0, 2):
                    raise UnsupportedBackendError(
                        "only right-angled matrices supported "
                        f"(entry m[{i}][{j}]={m[i][j]}; use 2 or 0 for infinity)"
                    )
        self.comm = [
            frozenset(j for j in range(k) if j != i and m[i][j] == 2) for i in range(k)
        ]
        self.identity = ()
        self.generators = list(range(k))
        self.gen_count = k
        self.gen_names = list(self.names)

    def append(self, word, g):
        """Normal form of word * g, for `word` already in normal form."""
        comm_g = self.comm[g]
        n = len(word)
        i = n - 1
        while i >= 0:
            x = word[i]
            if x == g:
                shorter = word[:i] + word[i + 1 :]
                return self._relex_after_deletion(shorter, i)
            if x not in comm_g:
                break
            i -= 1
        # no cancellation: insert g into the commuting suffix, before the
        # first letter there that is larger than g
        pos = i + 1
        while pos < n and word[pos] < g:
            pos += 1
        return word[:pos] + (g,) + word[pos:]

    def _relex_after_deletion(self, word, start):
        # deletion keeps the word reduced; re-establish lex-least order by
        # re-inserting the tail letters (each insertion is the append step
        # without cancellation, which cannot occur in a reduced word)
        if start >= len(word):
            return word
        out = word[:start]
        for g in word[start:]:
            comm_g = self.comm[g]
            i = len(out) - 1
            while i >= 0 and out[i] in comm_g:
                i -= 1
            pos = i + 1
            while pos < len(out) and out[pos] < g:
                pos += 1
            out = out[:pos] + (g,) + out[pos:]
        return out

    def mul_gen(self, x, gi):
        return self.append(x, gi)

    def normal_form(self, word):
        x = self.identity
        for g in word:
            if not (0 <= g < self.rank):
                raise InputError(f"unknown generator index {g}")
            x = self.append(x, g)
        return x

    def multiply(self, x, y):
        out = x
        for g in y:
            out = self.append(out, g)
        return out

    def inverse(self, x):
        return self.normal_form(tuple(reversed(x)))

    def norm(self, x):
        return len(x)

    def distance(self, x, y):
        return len(self.multiply(self.inverse(x), y))

    def word_str(self, x):
        """Generator names joined by dots; the identity is the empty word,
        since any name, `e` included, can be a generator's."""
        return ".".join(self.names[g] for g in x)

    def coset_minrep(self, x, letters):
        """Minimal-length representative of the left coset x * Gamma_W."""
        letters = sorted(letters)
        while True:
            for s in letters:
                y = self.append(x, s)
                if len(y) < len(x):
                    x = y
                    break
            else:
                return x

    def sub_engine(self, letters):
        """Engine of the parabolic subgroup on a letter subset (re-indexed)."""
        letters = sorted(letters)
        return self.restrict(letters), letters

    def letter_masks(self):
        """(bits, comm): each letter's bit, and the mask of the letters it
        commutes with, as int64 up to 63 letters and as Python ints (dtype
        object) beyond."""
        dtype = np.int64 if self.rank < 64 else object
        bits = np.array([1 << g for g in range(self.rank)], dtype=dtype)
        comm = np.array([sum(1 << j for j in c) for c in self.comm], dtype=dtype)
        return bits, comm

    def clique_counts(self, radius, cap):
        """The number of cliques of the commutation graph (sets of pairwise
        commuting letters, the empty one included) of each size 0, 1, ...,
        up to `radius`, ending before the first size with none or after the
        first size at which the total passes `cap`.  A clique is held as the
        mask of the letters that extend it, those above its largest letter
        that commute with all of it, and a size is counted before it is
        held, so at most `cap` masks are held at once."""
        bits, _ = self.letter_masks()
        above = np.array(
            [sum(1 << j for j in c if j > g) for g, c in enumerate(self.comm)], dtype=bits.dtype
        )
        counts = [1]
        ext = np.array([(1 << self.rank) - 1], dtype=bits.dtype)  # the empty clique's
        while len(counts) <= radius:
            has = [(ext & bit) != 0 for bit in bits]
            n = sum(int(np.count_nonzero(h)) for h in has)
            if not n:
                break
            counts.append(n)
            if sum(counts) > cap:
                break
            ext = np.concatenate([ext[h] & up for h, up in zip(has, above)])
        return counts

    def sphere_sizes(self, radius, cap):
        """|S(0)|, ..., |S(radius)| in Python ints, from the growth series
        1/W(t) = sum over the cliques s of (-t/(1+t))^|s| (Davis, The
        Geometry and Topology of Coxeter Groups, 2008, ch. 17).  With f_s
        cliques of size s and m the largest size counted, W(t) P(t) =
        (1+t)^m for the polynomial P(t) = sum_s f_s (-t)^s (1+t)^(m-s), so a
        term of W costs m products.  A clique larger than `radius` changes
        no term up to it.  When the cliques up to `radius` pass `cap`, their
        count is yielded alone: a clique's product is an element whose norm
        is its size, one per clique, so the ball is already past the cap."""
        counts = self.clique_counts(radius, cap)
        if sum(counts) > cap:
            yield sum(counts)
            return
        m = len(counts) - 1
        poly = [
            sum((-1) ** s * f * math.comb(m - s, n - s) for s, f in enumerate(counts[: n + 1]))
            for n in range(m + 1)
        ]
        last = deque(maxlen=m)  # the previous m terms of W, newest first
        for n in range(radius + 1):
            w = math.comb(m, n) - sum(p * x for p, x in zip(poly[1:], last))
            yield w
            last.appendleft(w)


@dataclass
class Ball:
    """Closed Cayley ball around the identity, held as integer columns only.

    Ids are BFS order, sphere by sphere.  `table[x, g]` is the id of x *
    generator g, or -1 outside the ball; it is the ball's only element index,
    and row-major order over (element, generator) is the edge order of
    `to_json` and `iter_json`.  `parent` and `letter` spell every element:
    x = parent[x] * generator letter[x] with |parent[x]| = |x| - 1 (both -1
    at the identity), so a word of x is its parent's followed by one letter.
    The sphere enumerators of `build_ball` lay the engine's normal forms out
    this way, as ShortLex normal forms are prefix-closed, and `word` and
    `iter_words` spell `engine.word_str` from the columns: an element's word
    is its letter's word, after its parent's and a '.' unless the parent is
    the identity.  An enumerated element costs one table row, one norm and
    two ints.  Every array is read-only."""

    engine: object
    radius: int
    norms: np.ndarray
    table: np.ndarray
    parent: np.ndarray
    letter: np.ndarray

    def __post_init__(self):
        for column in (self.norms, self.table, self.parent, self.letter):
            column.flags.writeable = False

    def __len__(self):
        return len(self.norms)

    def letters(self, i):
        """The generator indices of the word of element i, read up the parent
        column."""
        out = []
        while i > 0:
            out.append(int(self.letter[i]))
            i = int(self.parent[i])
        return out[::-1]

    @cached_property
    def _spelling(self):
        """(the identity's word, each generator's word)."""
        eng, one = self.engine, self.engine.identity
        return eng.word_str(one), [eng.word_str(eng.mul_gen(one, g)) for g in range(eng.gen_count)]

    def word(self, i):
        """`engine.word_str` of element i."""
        root, names = self._spelling
        return ".".join([names[g] for g in self.letters(i)]) if i else root

    def _spheres(self):
        """The id range (a, b) of each sphere, by norm."""
        starts = np.searchsorted(self.norms, np.arange(int(self.norms[-1]) + 2)).tolist()
        return list(zip(starts, starts[1:]))

    def iter_words(self):
        """`engine.word_str` of every element in id order, spelled down the
        parent column one sphere at a time: only the words of two consecutive
        spheres are held at once."""
        root, names = self._spelling
        dotted = ["." + name for name in names]
        words, start = [root], 0  # the words of one sphere, its first id
        yield root
        for a, b in self._spheres()[1:]:
            letter = self.letter[a:b].tolist()
            if a == 1:
                words = [names[g] for g in letter]
            else:
                parent = self.parent[a:b].tolist()
                words = [words[p - start] + dotted[g] for p, g in zip(parent, letter)]
            start = a
            yield from words

    def _word_rows(self):
        """The words of `iter_words`, escaped as json.dumps escapes them and
        without their quotes, as one NUL-padded uint8 matrix per sphere: a
        row is its parent's row followed by the row of '.' and its letter's
        word, so only two spheres of rows are held at once."""
        root, names = self._spelling
        names = [_escaped(name) for name in names]
        first, dotted = _byte_rows(names), _byte_rows(["." + name for name in names])
        rows, start = _byte_rows([_escaped(root)]), 0
        yield rows
        for a, b in self._spheres()[1:]:
            letter = self.letter[a:b]
            if a == 1:
                rows = first[letter]
            else:
                rows = np.concatenate((rows[self.parent[a:b] - start], dotted[letter]), axis=1)
            start = a
            yield rows

    def _edges(self):
        """(src, gen, dst) of the in-ball table entries in row-major order."""
        src, gen = np.nonzero(self.table >= 0)
        return src, gen, self.table[src, gen]

    def inner_table(self, radius):
        """The edge table of B(radius) inside this ball: ids are BFS order, so
        B(radius) is an id prefix, and its entries past it become -1."""
        n = int(np.searchsorted(self.norms, radius, side="right"))
        rows = self.table[:n]
        return np.where(rows < n, rows, -1)

    def graph_metric(self, radius=None) -> GraphMetric:
        """The graph metric of the whole ball, or of B(radius) inside it."""
        return GraphMetric(self.table if radius is None else self.inner_table(radius))

    def coset_labels(self, letters):
        """Each element's least ball id over the elements it reaches along the
        `letters` columns of the edge table: min-label propagation with pointer
        jumping, iterated to a fixpoint."""
        n = len(self.table)
        labels = np.arange(n + 1, dtype=np.int64)  # labels[-1] = n is read for -1
        while True:
            before = labels.copy()
            for g in letters:
                np.minimum(labels[:n], labels[self.table[:, g]], out=labels[:n])
            labels[:n] = labels[labels[:n]]
            if np.array_equal(labels, before):
                return labels[:n]

    def cayley_edge_arrays(self):
        """(lo, hi): the distinct undirected Cayley edges inside the ball,
        lo < hi, in ascending (lo, hi) order."""
        src, _, dst = self._edges()
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        keys = np.unique((lo * len(self) + hi)[lo != hi])
        return keys // len(self), keys % len(self)

    def to_json(self):
        src, gen, dst = self._edges()
        return {
            "radius": int(self.radius),
            "elements": [
                {"id": i, "word": word, "norm": norm}
                for i, (word, norm) in enumerate(zip(self.iter_words(), self.norms.tolist()))
            ],
            "edges": [
                [int(u), int(v), self.engine.gen_names[g]]
                for u, g, v in zip(src.tolist(), gen.tolist(), dst.tolist())
                if u <= v
            ],
        }

    def iter_json(self):
        """The text of json.dumps(self.to_json(), indent=2, sort_keys=True)
        plus a newline, as ASCII byte blocks, so the whole document is never
        held in memory at once.  A block renders its records as the rows of
        one uint8 matrix of at most BALL_JSON_BYTES bytes (`_render`), or of
        one element or one table row's edges.  Ids and edge ends are rows of
        one digit table.  Strings are escaped as json.dumps escapes them by
        default (ensure_ascii)."""
        ids = _digit_rows(len(self))
        yield b'{\n  "edges": ['
        empty = True
        for block in self._edge_blocks(ids):
            yield block[1:] if empty else block  # no comma before a first record
            empty = False
        yield b"]" if empty else b"\n  ]"
        yield b',\n  "elements": ['
        for i, block in enumerate(self._element_blocks(ids)):
            yield block if i else block[1:]
        yield b'\n  ],\n  "radius": %d\n}\n' % self.radius

    def _edge_blocks(self, ids):
        """The records of the edges u <= v, in row-major order over the edge
        table, scanned one block of its rows at a time."""
        names = _byte_rows([encode_basestring_ascii(name) for name in self.engine.gen_names])
        template = (b",\n    [\n      ", b",\n      ", b",\n      ", b"\n    ]")
        n, k = self.table.shape
        width = _width(template, ids, ids, names)
        step = max(1, BALL_JSON_BYTES // (width * max(k, 1)))
        for a in range(0, n, step):
            rows = self.table[a : a + step]
            src, gen = np.nonzero(rows >= np.arange(a, a + len(rows))[:, None])
            if len(src):
                yield _render(template, ids[src + a], ids[rows[src, gen]], names[gen])

    def _element_blocks(self, ids):
        """The element records in id order, a sphere's in blocks of its rows."""
        template = (b',\n    {\n      "id": ', b',\n      "norm": ', b',\n      "word": "', b'"\n    }')
        spheres = self._spheres()
        norms = _digit_rows(len(spheres))
        for (a, _), norm, words in zip(spheres, norms, self._word_rows()):
            step = max(1, BALL_JSON_BYTES // _width(template, ids, norms, words))
            for s in range(0, len(words), step):
                block = words[s : s + step]
                yield _render(template, ids[a + s : a + s + len(block)], norm, block)


def _escaped(text):
    """`text` as json.dumps writes it between its quotes (ensure_ascii)."""
    return encode_basestring_ascii(text)[1:-1]


def _byte_rows(texts):
    """ASCII strings as the rows of a uint8 matrix, NUL-padded to the longest."""
    width = max(map(len, texts), default=0) or 1
    rows = np.array([t.encode("ascii") for t in texts], dtype=f"S{width}")
    return rows.view(np.uint8).reshape(len(texts), width)


def _digit_rows(n):
    """The decimal digits of 0..n-1 as the rows of a uint8 matrix,
    right-aligned and NUL-padded."""
    x = np.arange(n)
    width = len(str(max(n - 1, 0)))
    rows = np.zeros((n, width), dtype=np.uint8)
    rows[:, -1] = x % 10 + 48
    for col in range(width - 1):
        power = 10 ** (width - 1 - col)
        rows[:, col] = np.where(x >= power, x // power % 10 + 48, 0)
    return rows


def _width(template, *fields):
    """Bytes of one rendered row, NUL padding included."""
    return sum(map(len, template)) + sum(f.shape[-1] for f in fields)


def _render(template, *fields):
    """One block of records as the rows of one uint8 matrix: the template's
    byte strings are constant columns, and between them each field is a
    matrix of one NUL-padded value per row (or one row for all).  The block
    is the matrix's bytes without the NULs: json.dumps escapes a NUL in a
    string as \\u0000, so none is ever part of the document."""
    parts = [np.frombuffer(template[0], np.uint8)]
    for field, text in zip(fields, template[1:]):
        parts += [field, np.frombuffer(text, np.uint8)]
    rows = max(len(f) for f in fields if f.ndim == 2)
    out = np.empty((rows, sum(p.shape[-1] for p in parts)), dtype=np.uint8)
    col = 0
    for p in parts:
        out[:, col : col + p.shape[-1]] = p
        col += p.shape[-1]
    flat = out.ravel()
    return flat[flat != 0].tobytes()


def build_ball(engine, radius, cap=DEFAULT_BALL_CAP) -> Ball:
    """The closed ball of `radius` around the identity.  Ids follow BFS
    discovery order: sphere by sphere, and within a sphere by the first
    (element, generator) pair, in row-major order, whose product is new.
    The ball's exact size is checked first (`projected_ball_size`): one past
    `cap` elements raises ResourceCapError before anything is enumerated.

    A `RacgEngine` is enumerated on integers by right descent sets.  For x
    of length k and g not in D(x), y = xg has length k + 1 and
    D(y) = {g} | (D(x) & comm(g)).  Every y of length k + 1 is then named
    once by (p, t) with t = max D(y) and p = yt of length k: p = x when
    t = g, and otherwise p = (xt)g, because t and g commute.  The other
    down-edges of y follow from y s = (p s) t for s in D(y), which commute
    with t and lie in D(p).  This is the length-additive factorisation of
    Coxeter groups (Bjorner-Brenti, Combinatorics of Coxeter Groups, 2.4)
    and the descent-set automaton of Brink-Howlett (1993).  The ShortLex
    normal form of y is that of its lowest-ranked y s, s in D(y), followed
    by s, so the parent column is read from the ranks of the previous sphere,
    and a sphere's ranks sort its (parent rank, letter) pairs (Epstein et
    al., Word Processing in Groups, 1992: ShortLex is prefix-closed).

    A `TableAmalgamEngine` enumerates its own balls one sphere per step on a
    `SphereTable` (`sphere_ball`, on integer normal forms), and a
    `FiniteTableGroup` runs the generic `bfs_ball`, the reference both
    sphere paths are tested against.
    """
    if radius < 0:
        raise InputError("ball radius must be >= 0")
    if projected_ball_size(engine, radius, cap) > cap:
        raise ResourceCapError(
            f"ball of radius {radius} would exceed the element cap {cap}", cap=cap
        )
    if isinstance(engine, RacgEngine):
        return _racg_ball(engine, radius)
    if isinstance(engine, FiniteTableGroup):
        return bfs_ball(engine, radius, cap)
    return engine.sphere_ball(radius)


@dataclass
class ElementBall(Ball):
    """A `Ball` that also keeps every element as an engine value, in id order:
    `bfs_ball`'s.  Its parent column is the BFS discovery pair, a geodesic
    word that need not be the normal form, so its words are
    `engine.word_str` of the elements."""

    elements: list

    def word(self, i):
        return self.engine.word_str(self.elements[i])

    def iter_words(self):
        return map(self.engine.word_str, self.elements)

    def _word_rows(self):
        """The rows of `Ball._word_rows`, encoded from `iter_words`."""
        words = self.iter_words()
        for a, b in self._spheres():
            yield _byte_rows([_escaped(word) for word in islice(words, b - a)])


def bfs_ball(engine, radius, cap=DEFAULT_BALL_CAP) -> ElementBall:
    """Generic BFS for any engine: one `mul_gen` per (element, generator) in
    id order, each appending the product's id, or -1 on the boundary sphere
    when the product is new."""
    if radius < 0:
        raise InputError("ball radius must be >= 0")
    k = engine.gen_count
    elements = [engine.identity]
    index = {engine.identity: 0}
    norms = [0]
    parent, letter = [-1], [-1]
    table = array("q")
    xid = 0
    while xid < len(elements):
        x, inner = elements[xid], norms[xid] < radius
        for gi in range(k):
            y = engine.mul_gen(x, gi)
            yid = index.get(y, -1)
            if yid < 0 and inner:
                yid = len(elements)
                if yid >= cap:
                    raise ResourceCapError(
                        f"ball would exceed the element cap {cap}", cap=cap
                    )
                index[y] = yid
                elements.append(y)
                norms.append(norms[xid] + 1)
                parent.append(xid)
                letter.append(gi)
            table.append(yid)
        xid += 1
    table = np.frombuffer(table, dtype=np.int64).reshape(len(elements), k)
    norms, parent, letter = (np.array(c, dtype=np.int32) for c in (norms, parent, letter))
    return ElementBall(engine, radius, norms, table, parent, letter, elements)


def projected_ball_size(engine, radius, cap):
    """|B(radius)| exactly, or a number above `cap` once the ball is known
    to exceed it: the sum of the engine's `sphere_sizes(radius, cap)`, which
    stops at the first empty sphere and once the total passes `cap`.  So a
    finite group asked for any radius costs one term per sphere up to its
    diameter, and an infinite one at most a term per element up to the cap."""
    total = 0
    for size in engine.sphere_sizes(radius, cap):
        total += size
        if not size or total > cap:
            break
    return total


class SphereTable:
    """The edge table and the parent and letter columns of a ball enumerated
    one sphere per step: sphere j holds ids starts[j]:starts[j + 1], and the
    arrays grow geometrically as spheres are claimed."""

    def __init__(self, k):
        self.table = np.full((1, k), -1, dtype=np.int64)
        self.parent = np.full(1, -1, dtype=np.int32)
        self.letter = np.full(1, -1, dtype=np.int32)
        self.starts = [0, 1]

    def claim(self, m):
        """Open the next sphere with m new ids and rows of -1."""
        n = self.starts[-1]
        for column in (self.table, self.parent, self.letter):
            reserve_rows(column, n + m)
        self.starts.append(n + m)

    def ball(self, engine, radius) -> Ball:
        """The finished Ball, its norms read from the sphere starts."""
        starts = self.starts
        n = starts[-1]
        for column in (self.table, self.parent, self.letter):
            column.resize((n,) + column.shape[1:], refcheck=False)
        norms = np.repeat(np.arange(len(starts) - 1, dtype=np.int32), np.diff(starts))
        return Ball(engine, radius, norms, self.table, self.parent, self.letter)


def reserve_rows(array, n):
    """Grow `array` in place to at least n rows, at least doubling it, with
    new rows of -1.  The array must own its data, and no view of it may be
    in use."""
    size = len(array)
    if n > size:
        array.resize((max(n, 2 * size),) + array.shape[1:], refcheck=False)
        array[size:] = -1


def _racg_ball(engine, radius):
    """`build_ball` for a RACG, one sphere per step with numpy, the descent
    sets held as `letter_masks` are."""
    k = engine.rank
    bits, comm = engine.letter_masks()
    spheres = SphereTable(k)
    table = spheres.table  # grows in place
    descents = np.zeros(1, dtype=bits.dtype)  # of the current sphere
    rank = np.zeros(1, dtype=np.int64)  # ShortLex ranks within the current sphere
    for _ in range(radius):
        lo, n = spheres.starts[-2], spheres.starts[-1]
        # every (x, g) with g not in D(x), in row-major order, and D(xg)
        xs, gs = np.nonzero((descents[:, None] & bits) == 0)
        d_new = bits[gs] | (descents[xs] & comm[gs])
        xs += lo
        # the key (p, t) of xg: t = max D(xg), p = xg t
        t = np.zeros(len(xs), dtype=np.int64)
        for g in range(1, k):
            t[(d_new >> g) & 1 == 1] = g
        p = xs.copy()
        other = t != gs
        p[other] = table[table[xs[other], t[other]], gs[other]]
        new, heads = first_sight(p * k + t)
        m = len(heads)
        if not m:
            break
        spheres.claim(m)
        table[xs, gs] = n + new
        ids, p, t, descents = np.arange(n, n + m), p[heads], t[heads], d_new[heads]
        # down-edges of the new sphere: y t = p, and y s = (p s) t for s in D(y)
        table[ids, t] = p
        for g in range(k):
            down = ((descents >> g) & 1 == 1) & (t != g)
            table[ids[down], g] = table[table[p[down], g], t[down]]
        # the ShortLex last letter: the s in D(y) whose y s ranks lowest
        best = np.full(m, len(rank), dtype=np.int64)
        letter = spheres.letter[n : n + m]
        for g in range(k):
            down = np.flatnonzero((descents >> g) & 1)
            below = rank[table[ids[down], g] - lo]
            lower = below < best[down]
            best[down[lower]], letter[down[lower]] = below[lower], g
        spheres.parent[n : n + m] = table[ids, letter]
        rank = np.empty(m, dtype=np.int64)
        rank[np.lexsort((letter, best))] = np.arange(m)
    return spheres.ball(engine, radius)


def first_sight(keys):
    """Number the distinct keys 0, 1, ... in order of first occurrence.
    Returns each key's number and, per number, the index of its first
    occurrence."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(order), dtype=np.int64)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]
