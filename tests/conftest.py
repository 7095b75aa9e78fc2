import itertools

import pytest

from asdimlab.amalgam import RacgAmalgam, TableAmalgam
from asdimlab.coxeter import CoxeterSystem
from asdimlab.groups import FiniteTableGroup, RacgEngine


def cyclic_table(n):
    """Multiplication table of Z_n with names e, g, g2, ..."""
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return table, names


def z34_loop():
    """Z34 with the intercalate at rows 1, 18 and columns 2, 19 swapped: a
    34-element Latin square with identity in which (1 1) 1 != 1 (1 1)."""
    table, names = cyclic_table(34)
    for row in (1, 18):
        table[row][2], table[row][19] = table[row][19], table[row][2]
    return table, names


def enumerate_words_brute(engine, radius):
    """Independent oracle: normalize every generator string of length <= radius.

    Exponential; only for cross-checking small balls.
    """
    seen = {engine.identity}
    layer = [engine.identity]
    for _ in range(radius):
        nxt = []
        for x in layer:
            for gi in range(engine.gen_count):
                y = engine.mul_gen(x, gi)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        layer = nxt
    return seen


def z_n_group(n, stem):
    table, _ = cyclic_table(n)
    names = ["e"] + [f"{stem}{i}" if i > 1 else stem for i in range(1, n)]
    return FiniteTableGroup(table, names=names)


@pytest.fixture(scope="session")
def dinf_amalgam():
    return TableAmalgam(z_n_group(2, "a"), z_n_group(2, "b"), [0], [0], name="Dinf")


@pytest.fixture(scope="session")
def z2z3_amalgam():
    return TableAmalgam(z_n_group(2, "a"), z_n_group(3, "b"), [0], [0], name="Z2*Z3")


@pytest.fixture(scope="session")
def z4z2z4_amalgam():
    return TableAmalgam(
        z_n_group(4, "x"), z_n_group(4, "y"), [0, 2], [0, 2], name="Z4*Z2*Z4"
    )


def a4_group():
    """The alternating group A4 on {0, 1, 2, 3}, elements named by images."""
    perms = [
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0
    ]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms]
    return FiniteTableGroup(table, names=["".join(map(str, p)) for p in perms]), index


@pytest.fixture(scope="session")
def a4z3z6_amalgam():
    """A4 *_{Z3} Z6: C = <(0 1 2)> has order 3 and is not normal in A4, so a
    coset of delta^{-1} r differs from that of delta r."""
    a4, index = a4_group()
    g = index[(1, 2, 0, 3)]
    return TableAmalgam(
        a4, z_n_group(6, "y"), [index[(0, 1, 2, 3)], g, a4.table[g][g]], [0, 2, 4], name="A4*Z3*Z6"
    )


PATH3 = [[1, 2, 0], [2, 1, 2], [0, 2, 1]]
PATH4 = [[1, 2, 0, 0], [2, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]]
CYCLE5 = [
    [1, 2, 0, 0, 2],
    [2, 1, 2, 0, 0],
    [0, 2, 1, 2, 0],
    [0, 0, 2, 1, 2],
    [2, 0, 0, 2, 1],
]


def commutation_matrix(k, edges):
    """Right-angled Coxeter matrix on k generators with the given commuting pairs."""
    m = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for i, j in edges:
        m[i][j] = m[j][i] = 2
    return m


# free, (Z2)^3, 4-cycle, path-4, 5-cycle, star and a 6-vertex graph
RACG_GRAPHS = {
    "free": commutation_matrix(3, []),
    "z2-cubed": commutation_matrix(3, [(0, 1), (1, 2), (0, 2)]),
    "cycle4": commutation_matrix(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "path4": commutation_matrix(4, [(0, 1), (1, 2), (2, 3)]),
    "cycle5": CYCLE5,
    "star": commutation_matrix(4, [(0, 1), (0, 2), (0, 3)]),
    "six": commutation_matrix(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
}


@pytest.fixture(scope="session")
def path3_engine():
    return RacgEngine(PATH3, names=["a", "b", "c"])


@pytest.fixture(scope="session")
def cycle5_system():
    return CoxeterSystem(CYCLE5, names=["a", "b", "c", "d", "e"])


@pytest.fixture(scope="session")
def path3_amalgam(path3_engine):
    return RacgAmalgam(path3_engine, n1=[0, 1], knk=[1], n2=[1, 2], name="path3")
