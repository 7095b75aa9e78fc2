"""Checks of asdimlab outputs made apart from the program.

Nothing here imports asdimlab.  Ball sizes come from growth series, word
distances from this module's own reductions (Tits' deletion rule for
right-angled Coxeter groups, syllable reduction for amalgams of finite
tables), graph distances from a truncated per-set BFS over the edges that
ball.json records, and the theorem bound from this module's own clique count.
A graph distance inside the ball is an upper bound for the word distance, so
a same-colour pair found closer than claimed_r is a real violation.
"""

from __future__ import annotations

import itertools
import math
import random
import re

import numpy as np

EXACT_DIAMETER_LIMIT = 64  # sets up to this size get every pair checked
SAMPLED_PAIRS = 256  # pairs drawn from each larger set


# ---------------------------------------------------------------------------
# growth series


def _series_inverse(p, radius):
    q = [0] * (radius + 1)
    q[0] = 1
    for k in range(1, radius + 1):
        q[k] = -sum(p[i] * q[k - i] for i in range(1, min(k, len(p) - 1) + 1))
    return q


def _series_mul(a, b, radius):
    out = [0] * (radius + 1)
    for i, x in enumerate(a[: radius + 1]):
        if x:
            for j, y in enumerate(b[: radius + 1 - i]):
                out[i + j] += x * y
    return out


def cliques(matrix):
    """Every set of pairwise commuting generators, the empty set included."""
    k = len(matrix)
    out = []
    for size in range(k + 1):
        for sub in itertools.combinations(range(k), size):
            if all(matrix[i][j] == 2 for i, j in itertools.combinations(sub, 2)):
                out.append(sub)
    return out


def racg_spheres(matrix, radius):
    """Sphere sizes 0..radius from 1/W(t) = sum over the nerve of (-t/(1+t))^|s|."""
    u = [0] + [(-1) ** j for j in range(1, radius + 1)]
    power = [1] + [0] * radius
    p = [0] * (radius + 1)
    counts = {}
    for c in cliques(matrix):
        counts[len(c)] = counts.get(len(c), 0) + 1
    for size in range(max(counts) + 1):
        for i, x in enumerate(power):
            p[i] += counts.get(size, 0) * x
        power = _series_mul(power, u, radius)
    return _series_inverse(p, radius)


def table_amalgam_spheres(doc, radius):
    """Sphere sizes for A *_C B with every non-identity factor element a generator.

    For C = 1 this is 1/f = 1/f_A + 1/f_B - 1 with f_X = 1 + (|X| - 1) t.  For
    a larger C a reduced word is an alternating string of non-trivial cosets
    followed by an element of C."""
    size_a, size_b = len(doc["A"]["table"]), len(doc["B"]["table"])
    size_c = len(doc["embed_A"])
    if size_c == 1:
        p = [0] * (radius + 1)
        for size in (size_a, size_b):
            for j in range(radius + 1):
                p[j] += (-(size - 1)) ** j
        p[0] -= 1
        return _series_inverse(p, radius)
    a, b = size_a // size_c - 1, size_b // size_c - 1
    spheres = [1]
    for k in range(1, radius + 1):
        hi, lo = (k + 1) // 2, k // 2
        spheres.append(size_c * (a**hi * b**lo + b**hi * a**lo))
    if radius >= 1:
        spheres[1] += size_c - 1
    return spheres[: radius + 1]


def spheres_of(doc, radius):
    if doc.get("type") == "table_amalgam":
        return table_amalgam_spheres(doc, radius)
    return racg_spheres(doc["matrix"], radius)


def c_in_ball(doc, radius):
    """|C intersected with the ball|: C is finite for tables, a parabolic for RACGs."""
    if doc.get("type") == "table_amalgam":
        return len(doc["embed_A"]) if radius >= 1 else 1
    pos = {name: i for i, name in enumerate(doc["generators"])}
    letters = [pos[x] for x in doc["k"]]
    sub = [[doc["matrix"][i][j] for j in letters] for i in letters]
    return sum(racg_spheres(sub, radius))


def theorem_bound(doc):
    """max{asdim A, asdim B, asdim C + 1} for finite tables; dim N + 1 for RACGs."""
    if doc.get("type") == "table_amalgam":
        return 1
    return max(len(c) for c in cliques(doc["matrix"]))


# ---------------------------------------------------------------------------
# word metrics


class RacgWords:
    """Words in a right-angled Coxeter group, reduced by Tits' deletion rule."""

    def __init__(self, doc):
        self.index = {name: i for i, name in enumerate(doc["generators"])}
        m = doc["matrix"]
        self.comm = [
            {j for j in range(len(m)) if j != i and m[i][j] == 2} for i in range(len(m))
        ]

    def parse(self, word, norm):
        # the identity prints as "e", which can also be a generator name
        return () if norm == 0 else tuple(self.index[t] for t in word.split("."))

    def norm(self, letters):
        out = []
        for g in letters:
            i = len(out) - 1
            while i >= 0 and out[i] != g and out[i] in self.comm[g]:
                i -= 1
            if i >= 0 and out[i] == g:
                del out[i]
            else:
                out.append(g)
        return len(out)

    def dist(self, x, y):
        return self.norm(tuple(reversed(x)) + y)


class TableWords:
    """Words in A *_C B over multiplication tables, reduced syllable by syllable."""

    def __init__(self, doc):
        self.tables = [doc["A"]["table"], doc["B"]["table"]]
        self.index = [
            {name: i for i, name in enumerate(doc[f]["elements"])} for f in ("A", "B")
        ]
        self.identity = [
            next(e for e, row in enumerate(t) if row == list(range(len(t))))
            for t in self.tables
        ]
        self.inv = [
            [row.index(self.identity[s]) for row in t] for s, t in enumerate(self.tables)
        ]
        self.embed = [doc["embed_A"], doc["embed_B"]]
        self.c_index = [{e: i for i, e in enumerate(emb)} for emb in self.embed]
        self.c_identity = self.c_index[0][self.identity[0]]

    def parse(self, word, norm):
        if norm == 0:
            return ()
        tokens = word.split(".")
        # a trailing "C.x" names an element of C by its name in A
        return tuple(
            (1 if side == "B" else 0, self.index[1 if side == "B" else 0][name])
            for side, name in zip(tokens[0::2], tokens[1::2])
        )

    def norm(self, syllables):
        stack = []
        c = self.c_identity
        for side, g in syllables:
            t = self.tables[side]
            v = t[self.embed[side][c]][g]
            if stack and stack[-1][0] == side:
                v = t[stack.pop()[1]][v]
            ci = self.c_index[side].get(v)
            if ci is None:
                stack.append((side, v))
                c = self.c_identity
            else:
                c = ci
        if stack:
            return len(stack)
        return 0 if c == self.c_identity else 1

    def dist(self, x, y):
        inv = tuple((s, self.inv[s][g]) for s, g in reversed(x))
        return self.norm(inv + y)


def words_for(doc):
    return TableWords(doc) if doc.get("type") == "table_amalgam" else RacgWords(doc)


# ---------------------------------------------------------------------------
# graph of a recorded ball


class BallGraph:
    def __init__(self, ball):
        self.n = len(ball["elements"])
        self.norms = np.fromiter((e["norm"] for e in ball["elements"]), np.int64, self.n)
        edges = np.array([(u, v) for u, v, _ in ball["edges"] if u != v], dtype=np.int64)
        edges = edges.reshape(-1, 2)
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.argsort(src, kind="stable")
        self.indices = dst[order]
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=self.indptr[1:])
        gaps = np.abs(self.norms[src] - self.norms[dst])
        self.edge_norm_gap = int(gaps.max(initial=0))
        self._seen = np.zeros(self.n, dtype=bool)

    def neighbours(self, frontier):
        starts = self.indptr[frontier]
        lens = self.indptr[frontier + 1] - starts
        if not lens.sum():
            return np.empty(0, dtype=np.int64)
        shift = np.repeat(starts - np.cumsum(lens) + lens, lens)
        return self.indices[shift + np.arange(lens.sum())]

    def within(self, sources, depth):
        """Points at graph distance <= depth from the sources."""
        seen = self._seen
        frontier = np.unique(np.asarray(sources, dtype=np.int64))
        reached = [frontier]
        seen[frontier] = True
        for _ in range(depth):
            nb = np.unique(self.neighbours(frontier))
            nb = nb[~seen[nb]]
            if not len(nb):
                break
            seen[nb] = True
            reached.append(nb)
            frontier = nb
        out = np.concatenate(reached)
        seen[out] = False
        return out

    def has_deep_point(self, ids, carrier, depth):
        """Whether some point of the set lies farther than depth from carrier \\ set.

        Carrier points within depth of some set point are the only ones that can
        be within depth of it, so two truncated searches decide this."""
        near = self.within(ids, depth)
        inside = np.zeros(self.n, dtype=bool)
        inside[ids] = True
        outside = near[carrier[near] & ~inside[near]]
        if not len(outside):
            return True
        return inside[self.within(outside, depth)].sum() < inside.sum()


# ---------------------------------------------------------------------------
# certificate checks


def check_certificate(doc, cert, ball, requested_r, seed):
    """Problems found in a certificate read back from disk (empty when sound)."""
    problems = []
    graph = BallGraph(ball)
    radius = cert["ball"]["radius"]
    core = cert["ball"]["core_radius"]
    n, r, d = cert["n"], cert["r"], cert["d"]
    if cert["requested_r"] != requested_r:
        problems.append(f"requested_r {cert['requested_r']} != {requested_r}")
    if r is None or d is None:
        return problems + ["certificate claims an unbounded r or d"]

    expected = spheres_of(doc, radius)
    found = np.bincount(graph.norms, minlength=radius + 1).tolist()
    if found != expected:
        problems.append(f"ball sphere sizes {found} != growth series {expected}")
    if graph.edge_norm_gap > 1:
        problems.append("a recorded edge joins norms more than 1 apart")

    families = [[np.asarray(s, dtype=np.int64) for s in c["sets"]] for c in cert["colors"]]
    all_ids = [s for fam in families for s in fam]
    if any(len(s) and (s.min() < 0 or s.max() >= graph.n) for s in all_ids):
        return problems + ["set member outside the ball"]
    multiplicity = np.bincount(
        np.concatenate(all_ids) if all_ids else np.empty(0, np.int64), minlength=graph.n
    )
    uncovered = np.nonzero((graph.norms <= core) & (multiplicity == 0))[0]
    if len(uncovered):
        problems.append(f"{len(uncovered)} core points uncovered (first {int(uncovered[0])})")
    if len(families) > n + 1:
        problems.append(f"{len(families)} colours > n + 1 = {n + 1}")
    if multiplicity.max(initial=0) > n + 1:
        problems.append(f"point order {int(multiplicity.max())} > n + 1 = {n + 1}")
    if n > theorem_bound(doc):
        problems.append(f"n = {n} above the theorem bound {theorem_bound(doc)}")

    # graph distances equal word distances only within the ball's margin
    if r > radius - core:
        problems.append(f"r = {r} beyond the ball margin {radius - core}")
    gap_depth = math.ceil(r) - 1
    carrier = graph.norms <= core
    for color, fam in enumerate(families):
        label = np.full(graph.n, -1, dtype=np.int64)
        for j, ids in enumerate(fam):
            if (label[ids] >= 0).any():
                problems.append(f"colour {color}: sets {j} and {int(label[ids].max())} overlap")
            label[ids] = j
        for j, ids in enumerate(fam):
            if gap_depth >= 1 and len(fam) > 1:
                near = label[graph.within(ids, gap_depth)]
                if ((near >= 0) & (near != j)).any():
                    problems.append(f"colour {color}: set {j} closer than r = {r} to another set")
                    break
            if len(ids) and not graph.has_deep_point(ids, carrier, math.floor(r)):
                problems.append(f"colour {color}: set {j} has no point deeper than r = {r}")
                break

    words = words_for(doc)
    elements = ball["elements"]
    rng = random.Random(seed)
    worst = 0
    for ids in all_ids:
        ids = ids.tolist()
        if len(ids) <= EXACT_DIAMETER_LIMIT:
            pairs = itertools.combinations(ids, 2)
        else:
            pairs = (tuple(rng.sample(ids, 2)) for _ in range(SAMPLED_PAIRS))
        parsed = {}
        for a, b in pairs:
            for i in (a, b):
                if i not in parsed:
                    parsed[i] = words.parse(elements[i]["word"], elements[i]["norm"])
            worst = max(worst, words.dist(parsed[a], parsed[b]))
    if worst > d:
        problems.append(f"a set pair lies at word distance {worst} > d = {d}")
    return problems


def corruptions(cert, ball):
    """The four faults the certificate checks must catch, as (name, certificate).

    The moved point has a neighbour in its own set, so once moved it sits at
    distance 1 from that set; the dropped point lies in no other set."""
    graph = BallGraph(ball)
    out = []
    moved = next(
        (
            (c, j, p)
            for c, color in enumerate(cert["colors"])
            if len(color["sets"]) > 1
            for j, s in enumerate(color["sets"])
            for p in s
            if set(s) & set(graph.neighbours(np.array([p])).tolist())
        ),
        None,
    )
    if moved:
        c, j, p = moved
        bad = _copy(cert)
        sets = bad["colors"][c]["sets"]
        sets[j].remove(p)
        sets[(j + 1) % len(sets)].append(p)
        out.append(("point moved between same-colour sets", bad))
    multiplicity = {}
    for color in cert["colors"]:
        for s in color["sets"]:
            for p in s:
                multiplicity[p] = multiplicity.get(p, 0) + 1
    dropped = next(p for p, count in multiplicity.items() if count == 1)
    bad = _copy(cert)
    for color in bad["colors"]:
        for s in color["sets"]:
            if dropped in s:
                s.remove(dropped)
    out.append(("point dropped", bad))
    bad = _copy(cert)
    bad["d"] = cert["d"] - 1
    out.append(("d lowered", bad))
    bad = _copy(cert)
    bad["r"] = cert["r"] + 1
    out.append(("r raised", bad))
    return out


def _copy(cert):
    out = dict(cert)
    out["colors"] = [{"sets": [list(s) for s in c["sets"]]} for c in cert["colors"]]
    return out


# ---------------------------------------------------------------------------
# checker verdicts

VERDICT = re.compile(r"^([\w.\-]+): (pass|FAIL) \[(\d+) checks\]")


def check_verdicts(doc, cmd, stdout):
    """(problems, total checked) for the verdict lines of one `check` command."""
    verdicts = [m.groups() for m in map(VERDICT.match, stdout.splitlines()) if m]
    problems = [f"{name}: FAIL" for name, status, _ in verdicts if status != "pass"]
    names = [name for name, _, _ in verdicts]
    expected = {"assertion-2.1": 1, "assertion-2.2": 2, "prop-2.2-disjointness": 1}
    if cmd.r > 4 * cmd.R:
        expected["partition"] = 1
    for name, count in expected.items():
        if names.count(name) != count:
            problems.append(f"{names.count(name)} {name} verdicts, expected {count}")
    want = sum(spheres_of(doc, cmd.ball)) - c_in_ball(doc, cmd.ball)
    for name, _, checked in verdicts:
        if name == "assertion-2.2" and int(checked) != want:
            problems.append(f"assertion-2.2 checked {checked} != |ball| - |C in ball| = {want}")
    return problems, sum(int(c) for _, _, c in verdicts)
