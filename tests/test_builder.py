import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from asdimlab import builder
from asdimlab.amalgam import SIDE_A, SIDE_B, RacgAmalgam, TableAmalgam, prepare
from asdimlab.builder import (
    algebraic_diameter,
    c_ball_ids,
    carrier_metric,
    certificate_json_str,
    color_depth_floor,
    color_gap,
    cover_amalgam,
    cover_finite_group,
    cover_racg,
    make_schedule,
    max_set_diameter,
    set_diameters,
    verify_certificate,
)
from asdimlab.cli import main
from asdimlab.coxeter import CoxeterSystem
from asdimlab.errors import InputError, PreconditionError, SchedulingError
from asdimlab.groups import FiniteTableGroup, RacgEngine, build_ball

from conftest import CYCLE5, PATH3, PATH4, RACG_GRAPHS, commutation_matrix, cyclic_table, z_n_group
from test_amalgam import amalgam_named
from word_oracles import ball_elements, in_factor, to_c


def test_cover_finite_group_trivial_and_z2():
    trivial = FiniteTableGroup([[0]], names=["e"])
    cert = cover_finite_group(trivial, 4)
    assert len(cert.cover.sets) == 1 and len(cert.cover.sets[0]) == 1
    z2 = z_n_group(2, "a")
    cert = cover_finite_group(z2, 10)
    assert cert.n == 0
    assert cert.claimed_d == 1.0
    assert cert.claimed_r == 10.0
    assert verify_certificate(cert).passed


def test_schedule_respects_paper_inequalities():
    for r in (4, 8, 16, 32):
        s = make_schedule(r)
        assert s.L > 4 * s.R
        assert s.L % 2 == 0
        assert s.R >= 1 and s.E >= 1
        assert s.core >= s.L + s.R + s.E


def test_cover_amalgam_fixture_values(dinf_amalgam, z4z2z4_amalgam):
    for ctx, rs in ((dinf_amalgam, (4, 8)), (z4z2z4_amalgam, (4, 8))):
        for r in rs:
            cert = cover_amalgam(ctx, r)
            assert cert.n == 1
            assert cert.n_colors == cert.n + 1
            assert cert.claimed_r >= 1
            assert verify_certificate(cert).passed


def test_cover_amalgam_monotone_reuse(dinf_amalgam):
    # an r-certificate's families are r'-disjoint for every r' < claimed_r
    cert = cover_amalgam(dinf_amalgam, 8)
    metric = carrier_metric(cert)
    for color in range(cert.n_colors):
        fam = cert.cover.family(color)
        if len(fam) > 1:
            gap = color_gap(fam, metric)
            for smaller in range(1, int(cert.claimed_r) + 1):
                assert gap >= smaller


def test_cover_amalgam_replays_identically(z2z3_amalgam):
    first = cover_amalgam(z2z3_amalgam, 4)
    second = cover_amalgam(z2z3_amalgam, 4)
    assert first.cover.sets == second.cover.sets
    assert first.cover.colors == second.cover.colors
    assert certificate_json_str(first) == certificate_json_str(second)


def probing_finite_ball(engine):
    """The ball by radius probing: the engine's `diameter` when it has one,
    else balls of radius 1, 2, ... until one stops growing, then the ball
    at the last radius that grew."""
    radius = getattr(engine, "diameter", None)
    if radius is None:
        probe, prev = 0, 1
        while True:
            probe += 1
            ball = build_ball(engine, probe)
            if len(ball) == prev:
                radius = probe - 1
                break
            prev = len(ball)
    return build_ball(engine, max(radius, 0))


def test_covers_read_the_decomposition_without_gate_tail(monkeypatch, z2z3_amalgam):
    # x = g_u m c comes from `AmalgamBall.c_part`; word arithmetic is only
    # the tests' reference.  The 4-cycle's C is D-infinity, so its C-parts
    # go through a recursive RACG certificate.
    runs = [
        lambda: cover_amalgam(z2z3_amalgam, 8),
        lambda: cover_racg(CoxeterSystem(PATH4), 4),
        lambda: cover_racg(CoxeterSystem(RACG_GRAPHS["cycle4"]), 4),
    ]
    expected = [certificate_json_str(run()) for run in runs]

    def forbidden(self, inv_gate_rep, x):
        raise AssertionError("gate_tail called")

    for backend in (TableAmalgam, RacgAmalgam):
        monkeypatch.setattr(backend, "gate_tail", forbidden)
    assert [certificate_json_str(run()) for run in runs] == expected


def test_cover_finite_group_equals_radius_probing(monkeypatch, z4z2z4_amalgam):
    engines = [
        z_n_group(2, "a"),
        RacgEngine(commutation_matrix(3, [(0, 1), (1, 2), (0, 2)])),
        FiniteTableGroup(*cyclic_table(5), generators=[1, 4]),
        z4z2z4_amalgam.c_engine,
    ]
    for eng in engines:
        cert = cover_finite_group(eng, 6)
        reference = probing_finite_ball(eng)
        assert cert.ball.radius == reference.radius
        for column in ("parent", "letter"):
            assert np.array_equal(getattr(cert.ball, column), getattr(reference, column))
        assert ball_elements(cert.ball) == ball_elements(reference)
        assert cert.ball.norms.dtype == reference.norms.dtype
        assert np.array_equal(cert.ball.norms, reference.norms)
        assert np.array_equal(cert.ball.table, reference.table)
        with monkeypatch.context() as patch:
            patch.setattr(builder, "build_ball", lambda *args, **kwargs: reference)
            assert cover_finite_group(eng, 6).to_json() == cert.to_json()


@pytest.mark.parametrize(
    "fixture, radius, c_radius",
    [
        ("z4z2z4_amalgam", 8, None),
        ("a4z3z6_amalgam", 4, None),
        ("path4split", 8, None),
        ("cycle4split", 10, 3),
        ("cycle5split", 6, 2),
        ("sixsplit", 5, 2),
    ],
)
def test_c_ball_ids_are_the_word_lookup(request, fixture, radius, c_radius):
    # walking C's table along a C-part's parent column finds the C-ball id
    # of its element of C by word arithmetic, -1 past a small C-ball
    ctx = amalgam_named(request, fixture)
    ab = prepare(ctx, radius)
    c_ball = build_ball(ctx.c_engine, builder.DEFAULT_BALL_CAP if c_radius is None else c_radius)
    tails = np.unique(ab.c_part())
    elements = ball_elements(ab.ball)
    index = {x: i for i, x in enumerate(ball_elements(c_ball))}
    expected = [index.get(to_c(ctx, elements[i]), -1) for i in tails.tolist()]
    got = c_ball_ids(ctx, ab.ball, c_ball, tails)
    assert got.tolist() == expected
    assert max(expected) > 0 and (min(expected) < 0) == (c_radius is not None)


def test_pieces_are_gated_by_their_first_member(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
    path4_split = RacgAmalgam(RacgEngine(PATH4), n1=[0, 1], knk=[1], n2=[1, 2, 3])
    cases = [(dinf_amalgam, 10), (z2z3_amalgam, 10), (z4z2z4_amalgam, 8), (path4_split, 8)]
    for ctx, radius in cases:
        ab = prepare(ctx, radius)
        dual, eng = ab.dual, ctx.engine
        rep = [ball_elements(ab.ball)[i] for i in dual.rep_ids.tolist()]
        sides = set()
        for p in range(len(dual.piece_side)):
            gate, *rest = dual.piece(p).tolist()
            assert dual.level[gate] == dual.level[dual.piece(p)].min()
            for u in rest:
                assert dual.level[u] == dual.level[gate] + 1 and dual.parent[u] == gate
                step = eng.multiply(eng.inverse(rep[gate]), rep[u])
                assert in_factor(ctx, step) == dual.piece_side[p], (ctx.name, p, u)
                sides.add(int(dual.piece_side[p]))
        assert sides == {SIDE_A, SIDE_B}


@pytest.mark.parametrize(
    "fixture, radius",
    [("dinf_amalgam", 12), ("z2z3_amalgam", 12), ("z4z2z4_amalgam", 8), ("path3_amalgam", 10)],
)
def test_level_k_pieces_are_parent_entry_side_groups(request, fixture, radius):
    # the pieces gated at level k - 1, in piece-id order, are the level-k
    # vertices grouped by parent and by the side through which each is
    # entered from its parent, in (parent, side) order
    dual = prepare(request.getfixturevalue(fixture), radius).dual
    a_piece = dual.piece_of_vertex[:, SIDE_A]
    entry = np.where(a_piece == a_piece[dual.parent], SIDE_A, SIDE_B)
    first, size = dual.piece_order[dual.piece_start[:-1]], np.diff(dual.piece_start)
    for k in range(1, int(dual.level.max()) + 1):
        groups = {}
        for u in np.nonzero(dual.level == k)[0].tolist():
            groups.setdefault((int(dual.parent[u]), int(entry[u])), []).append(u)
        gated = np.nonzero((dual.level[first] == k - 1) & (size > 1))[0].tolist()
        assert [dual.piece(p)[1:].tolist() for p in gated] == [groups[key] for key in sorted(groups)]


def test_an_unreachable_inner_floor_raises_scheduling_error(monkeypatch, tmp_path, capsys):
    # eight rising scales, then SchedulingError naming the best claimed_r
    tried = []

    def stub(r_try):
        tried.append(r_try)
        return SimpleNamespace(claimed_r=min(r_try / 8, 3.0))

    with pytest.raises(SchedulingError, match=r"needed claimed_r >= 5, best was 3\.0$"):
        builder._certificate_with_floor(stub, 5)
    assert tried == [20, 30, 46, 70, 106, 160, 240, 360]
    # the 4-cycle splits over the infinite D-infinity on {b, d}, whose
    # certificate here never reaches its floor: exit 2 with an error line
    monkeypatch.setattr(builder, "cover_racg", lambda *args, **kwargs: SimpleNamespace(claimed_r=0.0))
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps({"matrix": RACG_GRAPHS["cycle4"]}))
    assert main(["cover", str(path), "--r", "4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [err[0]] and err[0].startswith("error: inner-scale certificate unavailable")


@pytest.mark.parametrize("graph, ball, inner_r", [("cycle5", 11, 132), ("cycle4", None, 96)])
def test_the_inner_certificate_is_built_once(monkeypatch, graph, ball, inner_r):
    # r 88 and r 64 have margins 16 and 12, below the floors 22 and 16:
    # those scales are skipped, not built and discarded
    tried = []
    cover = builder.cover_racg

    def counted(cox, r, **kwargs):
        tried.append(r)
        return cover(cox, r, **kwargs)

    monkeypatch.setattr(builder, "cover_racg", counted)
    cert = cover(CoxeterSystem(RACG_GRAPHS[graph]), 4, ball_radius=ball)
    assert tried == [inner_r]
    assert cert.trace["amalgam"]["c_certificate"]["amalgam"]["schedule"]["r"] == inner_r


def test_cover_racg_rejects_non_right_angled():
    from asdimlab.errors import UnsupportedBackendError

    with pytest.raises(UnsupportedBackendError):
        cover_racg(CoxeterSystem([[1, 3], [3, 1]]), 4)


def test_cover_amalgam_R_override_precondition(dinf_amalgam):
    with pytest.raises(PreconditionError):
        cover_amalgam(dinf_amalgam, 4, R_override=2)
    cert = cover_amalgam(dinf_amalgam, 10, R_override=2)
    assert cert.trace["schedule"]["R"] == 2
    assert verify_certificate(cert).passed


def test_cover_racg_base_cases():
    z2 = cover_racg(CoxeterSystem([[1]]), 4)
    assert z2.n == 0 and len(z2.cover.sets) == 1
    square = cover_racg(CoxeterSystem([[1, 2], [2, 1]]), 4)
    assert square.n == 0
    assert square.trace["nerve"] == "simplex"


def test_cover_racg_dinf_and_path():
    dinf = cover_racg(CoxeterSystem([[1, 0], [0, 1]]), 4)
    assert dinf.n == 1
    assert verify_certificate(dinf).passed
    path = cover_racg(CoxeterSystem(PATH3), 4)
    assert path.n <= 2
    assert verify_certificate(path).passed


def test_cover_racg_path4():
    cert = cover_racg(CoxeterSystem(PATH4), 4)
    assert cert.n == 1
    assert cert.claimed_r >= 1
    assert verify_certificate(cert).passed


def test_degenerate_splits_rejected(path3_engine):
    from asdimlab.amalgam import RacgAmalgam

    with pytest.raises(InputError):
        RacgAmalgam(path3_engine, n1=[0, 1, 2], knk=[0, 1, 2], n2=[0, 1, 2])


def test_algebraic_diameter_exact_and_bounded(monkeypatch):
    # set_diameters equals pairwise word arithmetic on sets that reach the
    # ball's outer sphere (table entries -1), also when the block budget
    # splits a set into blocks of 64 sources
    engine = RacgEngine(PATH4)
    ball = build_ball(engine, 5)
    rng = np.random.default_rng(3)
    sets = [frozenset(range(len(ball)))]
    sets += [frozenset(rng.choice(len(ball), size=k, replace=False).tolist()) for k in (1, 2, 7, 40, 90)]
    sets += [frozenset(np.nonzero(ball.norms == j)[0].tolist()) for j in range(6)]
    elements = ball_elements(ball)
    expected = [algebraic_diameter([elements[i] for i in s], engine) for s in sets]
    assert set_diameters(ball, sets) == expected
    assert max(expected) == 10.0  # two points of norm 5 through the identity
    monkeypatch.setattr(builder, "DIAMETER_BLOCK_BYTES", 1)
    assert set_diameters(ball, sets) == expected
    assert set_diameters(ball, []) == []


def test_packed_block_gives_each_set_its_own_diameter(monkeypatch):
    # small sets of different diameters, some sharing points, share one
    # block; each must get its own diameter, not the block's largest
    engine = RacgEngine(PATH4)
    ball = build_ball(engine, 5)
    rng = np.random.default_rng(5)
    shells = [np.nonzero(ball.norms == j)[0] for j in range(6)]
    sets = [frozenset(rng.choice(len(ball), size=40, replace=False).tolist())]
    sets += [frozenset(shells[j][:k].tolist()) for j, k in ((1, 2), (2, 5), (4, 30), (1, 3))]
    sets += [frozenset([0]), frozenset(), frozenset([int(shells[1][0]), int(shells[1][1])])]
    sets += [frozenset(rng.choice(len(ball), size=k, replace=False).tolist()) for k in (3, 9, 60)]
    assert sum(len(s) for s in sets) <= builder.PACKED_BLOCK_SOURCES
    elements = ball_elements(ball)
    expected = [algebraic_diameter([elements[i] for i in s], engine) for s in sets]
    assert len(set(expected)) >= 4
    assert set_diameters(ball, sets) == expected
    # with 64-source blocks the same sets spread over several shared blocks
    monkeypatch.setattr(builder, "DIAMETER_BLOCK_BYTES", 1)
    assert set_diameters(ball, sets) == expected


def recorded_sources(monkeypatch):
    """Wrap `_block_eccentricities`; the list it returns gets the number of
    sources of every block run."""
    sources, real = [], builder._block_eccentricities

    def recorded(nbr, groups, limit):
        sources.append(sum(len(src) for src, _ in groups))
        return real(nbr, groups, limit)

    monkeypatch.setattr(builder, "_block_eccentricities", recorded)
    return sources


def test_a_large_set_goes_on_below_its_top_sphere(monkeypatch):
    # on the 600-cycle the points of norm 1-150 and the antipode 300 of the
    # identity: 300 is only 299 = 2 * 150 - 1 from the others, so the
    # spheres go on below the top one, and 150 and -150, 300 apart, settle
    # the rest at once
    engine = FiniteTableGroup(*cyclic_table(600), generators=[1, 599])
    ball = build_ball(engine, 300)
    elements = ball_elements(ball)
    chosen = {k % 600 for k in range(-150, 151) if k} | {300}
    s = frozenset(i for i, x in enumerate(elements) if x in chosen)
    assert len(s) == 301 > builder.PACKED_BLOCK_SOURCES
    expected = [algebraic_diameter([elements[i] for i in s], engine)]
    assert expected == [300.0]
    sources = recorded_sources(monkeypatch)
    assert set_diameters(ball, [s]) == expected
    assert sources == [1, 2]  # the spheres of norm 300 and 150
    monkeypatch.setattr(builder, "DIAMETER_BLOCK_BYTES", 1)
    assert set_diameters(ball, [s]) == expected


def test_the_path4_slab_reads_its_top_sphere_only(monkeypatch):
    # path4 r 8's largest slab set has 2,896 points of norms 3-10, 1,440 of
    # norm 10: those reach diameter 20 = 2 * 10, which no pair of the
    # 1,456 points of norm <= 9 can exceed.  In 64-source blocks the first
    # block already reaches 20, which no pair of the slab can exceed
    cert = cover_racg(CoxeterSystem(PATH4), 8)
    (slab,) = [s for s in cert.cover.sets if len(s) == 2896]
    sources = recorded_sources(monkeypatch)
    assert set_diameters(cert.ball, [slab]) == [20.0]
    assert sources == [1440]
    sources.clear()
    monkeypatch.setattr(builder, "DIAMETER_BLOCK_BYTES", 1)
    assert set_diameters(cert.ball, [slab]) == [20.0]
    assert sources == [64]


def diameter_ball(request, name):
    """A small ball of each backend whose pairwise word arithmetic is cheap."""
    if name in ("path4", "cycle5"):
        return build_ball(RacgEngine({"path4": PATH4, "cycle5": CYCLE5}[name]), 5)
    return build_ball(request.getfixturevalue(f"{name}_amalgam").engine, 7)


@pytest.mark.parametrize("name", ["path4", "cycle5", "z2z3", "z4z2z4"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_set_diameter_is_the_largest_exact_diameter(request, name, seed):
    # random sets, an empty and a singleton set, and tight sets around a
    # point of the outer sphere, whose norm bound 2 * radius is loose; the
    # floor lies below, at and above the answer
    ball = diameter_ball(request, name)
    engine, elements = ball.engine, ball_elements(ball)
    rng = np.random.default_rng(seed)
    outer = np.nonzero(ball.norms == ball.radius)[0]
    sets = [frozenset(), frozenset([int(rng.integers(len(ball)))])]
    sets += [frozenset(rng.choice(len(ball), size=k, replace=False).tolist()) for k in (2, 9, 25)]
    for x in rng.choice(outer, size=2, replace=False).tolist():
        near = {x, *ball.table[x].tolist()} - {-1}
        near = rng.choice(sorted(near), size=min(4, len(near)), replace=False)
        sets.append(frozenset(near.tolist()))
    for _ in range(4):
        size = int(rng.integers(1, len(sets) + 1))
        chosen = [sets[i] for i in sorted(rng.choice(len(sets), size=size, replace=False))]
        exact = set_diameters(ball, chosen)
        algebraic = [algebraic_diameter([elements[i] for i in s], engine) for s in chosen]
        assert exact == algebraic
        answer = max(exact)
        floors = (0.0, max(0.0, answer - 1), answer, answer + 1, rng.integers(2 * ball.radius + 2))
        for floor in map(float, floors):
            assert max_set_diameter(ball, chosen, floor) == max([floor, *exact])
    assert max_set_diameter(ball, []) == 0.0
    assert max_set_diameter(ball, sets[:2], 3.0) == 3.0


def test_the_norm_bound_and_seed_settle_the_path4_slabs(monkeypatch):
    # path4 r 8: the seed, one source of the 2,896-point slab, reaches 20 =
    # 2 * core, which bounds every set, so measuring runs one source and
    # verifying at claimed_d 20 none
    cert = cover_racg(CoxeterSystem(PATH4), 8)
    sources = recorded_sources(monkeypatch)
    assert max_set_diameter(cert.ball, cert.cover.sets) == 20.0
    assert sources == [1]
    sources.clear()
    assert max_set_diameter(cert.ball, cert.cover.sets, floor=20.0) == 20.0
    assert sources == []


def bench_cover(request, name, r, ball_radius=None):
    if name in ("cycle5", "path4"):
        matrix = {"cycle5": CYCLE5, "path4": PATH4}[name]
        return cover_racg(CoxeterSystem(matrix), r, ball_radius=ball_radius)
    return cover_amalgam(request.getfixturevalue(f"{name}_amalgam"), r, ball_radius=ball_radius)


# the twelve covers of the benchmark's cover workloads: (input, r, ball, d)
BENCH_COVERS = [
    ("cycle5", 4, 11, 16.0),
    ("path4", 4, None, 16.0),
    ("path4", 8, None, 20.0),
    ("dinf", 4, None, 4.0),
    ("dinf", 8, None, 4.0),
    ("dinf", 16, None, 10.0),
    ("z2z3", 4, None, 9.0),
    ("z2z3", 8, None, 13.0),
    ("z2z3", 16, None, 31.0),
    ("z4z2z4", 4, None, 4.0),
    ("z4z2z4", 8, None, 4.0),
    ("z4z2z4", 16, None, 10.0),
]


@pytest.mark.parametrize(
    "name, r, ball_radius, d", BENCH_COVERS, ids=[f"{c[0]}-r{c[1]}" for c in BENCH_COVERS]
)
def test_bench_cover_diameters_are_exact(request, name, r, ball_radius, d):
    cert = bench_cover(request, name, r, ball_radius=ball_radius)
    assert cert.claimed_d == d
    engine = cert.ball.engine
    diameters = set_diameters(cert.ball, cert.cover.sets)
    assert max(diameters) == d
    rng = np.random.default_rng(r)
    elements = ball_elements(cert.ball)
    for s, got in zip(cert.cover.sets, diameters):
        pts = [elements[i] for i in sorted(s)]
        if len(pts) <= 60:
            assert got == algebraic_diameter(pts, engine)
            continue
        pairs = rng.integers(len(pts), size=(200, 2))
        assert got >= max(engine.distance(pts[i], pts[j]) for i, j in pairs.tolist())


@pytest.mark.parametrize(
    "name, r, ball_radius, settled", [("cycle5", 4, 11, True), ("z2z3", 8, None, False)]
)
def test_a_claimed_d_one_too_low_fails_the_diameter_line(
    monkeypatch, request, name, r, ball_radius, settled
):
    # on the 5-cycle the norm bound settles every set at the true claimed_d,
    # so verification runs no BFS there; one below it, the sets that reach
    # it must be measured, and one of them exceeds it
    cert = bench_cover(request, name, r, ball_radius=ball_radius)
    d = cert.claimed_d
    sources = recorded_sources(monkeypatch)
    assert verify_certificate(cert).passed
    assert (sources == []) == settled
    cert.claimed_d = d - 1
    report = verify_certificate(cert)
    assert not report.diameter_ok and not report.passed
    cert.claimed_d = d + 1
    assert verify_certificate(cert).passed


@pytest.mark.parametrize(
    "name, r, ball_radius, d", BENCH_COVERS, ids=[f"{c[0]}-r{c[1]}" for c in BENCH_COVERS]
)
def test_carrier_metric_gaps_and_depths_equal_the_whole_ball_ones(request, name, r, ball_radius, d):
    # B(rho) is convex: each colour's gap and uncapped depth floor on the
    # carrier's ball equal those on the whole ball's graph metric
    cert = bench_cover(request, name, r, ball_radius=ball_radius)
    fast, full = carrier_metric(cert), cert.ball.graph_metric()
    assert fast.n < full.n
    masks = []
    for metric in (fast, full):
        mask = np.zeros(metric.n, dtype=bool)
        mask[cert.carrier] = True
        masks.append(mask)
    for color in range(cert.n_colors):
        fam = cert.cover.family(color)
        gaps = [color_gap(fam, metric) for metric in (fast, full)]
        assert gaps[0] == gaps[1]
        floors = [
            color_depth_floor(fam, metric, mask, math.inf, gaps[0])
            for metric, mask in zip((fast, full), masks)
        ]
        assert floors[0] == floors[1]


def test_certificate_json_schema(dinf_amalgam):
    cert = cover_amalgam(dinf_amalgam, 4)
    payload = json.loads(certificate_json_str(cert))
    assert set(payload) >= {"r", "d", "n", "colors", "ball", "trace"}
    assert len(payload["colors"]) == cert.n + 1
    ids = {i for color in payload["colors"] for s in color["sets"] for i in s}
    assert ids == set(cert.carrier)


# the eleven default-radius covers of the benchmark: (input, r, emitted radius)
DEFAULT_BALL_COVERS = [
    ("dinf", 4, 10),
    ("dinf", 8, 12),
    ("dinf", 16, 25),
    ("z2z3", 4, 10),
    ("z2z3", 8, 12),
    ("z2z3", 16, 23),
    ("z4z2z4", 4, 10),
    ("z4z2z4", 8, 12),
    ("z4z2z4", 16, 25),
    ("path4", 4, 10),
    ("path4", 8, 12),
]


def sets_by_word(cert):
    ball = cert.ball
    elements = ball_elements(ball)
    return sorted(
        (color, sorted(ball.engine.word_str(elements[i]) for i in s))
        for s, color in zip(cert.cover.sets, cert.cover.colors)
    )


@pytest.mark.parametrize(
    "name, r, radius", DEFAULT_BALL_COVERS, ids=[f"{c[0]}-r{c[1]}" for c in DEFAULT_BALL_COVERS]
)
def test_default_ball_certificate_equals_the_full_margin_one(request, name, r, radius):
    # the sets are built on B(core + 2) and the ball grows only while
    # claimed_r equals the margin; on the ball of the schedule's whole
    # margin the same sets and the same r and d come out
    cert = bench_cover(request, name, r)
    core = cert.core_radius
    assert cert.ball.radius == core + max(2, math.ceil(cert.claimed_r)) == radius
    assert cert.trace.get("amalgam", cert.trace)["ball_radius"] == radius
    full = bench_cover(request, name, r, ball_radius=core + make_schedule(r).margin)
    assert full.ball.radius > radius
    assert (cert.claimed_r, cert.claimed_d) == (full.claimed_r, full.claimed_d)
    assert sets_by_word(cert) == sets_by_word(full)
    assert verify_certificate(cert).passed


def test_a_cap_below_the_claim_binds_claimed_r_at_the_margin(dinf_amalgam):
    # Dinf r 16 claims 4; a cap that admits B(core + 2) but not B(core + 3)
    # keeps the first ball, by the exact ball sizes, and claimed_r is then
    # the margin 2, measured on the ball kept
    core = make_schedule(16).core
    cap = len(build_ball(dinf_amalgam.engine, core + 2))
    assert cap < len(build_ball(dinf_amalgam.engine, core + 3))
    cert = cover_amalgam(dinf_amalgam, 16, cap=cap)
    assert cert.ball.radius == core + 2
    assert cert.claimed_r == cert.margin == 2.0
    assert verify_certificate(cert).passed
