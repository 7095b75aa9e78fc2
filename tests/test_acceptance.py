"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Certificates claim measured parameters (claimed_r, claimed_d); 'passes the
(r,d)-check' means the three conditions ord <= n+1, L > r, b <= d hold for
those parameters.  On carriers small enough to materialize the exact word
metric the literal finite-metric operations are evaluated; on larger
carriers the sound field-based verifier (exact within the ball's margin
regime) establishes the same inequalities.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from asdimlab.amalgam import (
    SIDE_A,
    check_assertion_2_1,
    check_assertion_2_2,
    check_separation,
    check_translate_disjointness,
    prepare,
)
from asdimlab.builder import cover_amalgam, cover_racg, verify_certificate
from asdimlab.covers import Cover, check_rd_cover, cover_order, diameter_bound, extend_cover, lebesgue_number
from asdimlab.coxeter import (
    CoxeterSystem,
    asdim_bound,
    build_davis_ball,
    build_nerve,
    chromatic_bound,
    parabolic_is_finite,
)
from asdimlab.metric import DenseMetric, line_metric

from conftest import CYCLE5, PATH3, PATH4, z_n_group
from word_oracles import assertion_2_2_walk, ball_elements, random_sections
import networkx as nx


def report(criterion, passed, detail):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def word_metric_dense(cert):
    """Exact word metric on the carrier, for literal check_rd_cover runs."""
    engine = cert.ball.engine
    ids = list(cert.carrier)
    elements = ball_elements(cert.ball)
    elems = [elements[i] for i in ids]
    pos = {i: k for k, i in enumerate(ids)}
    n = len(ids)
    mat = np.zeros((n, n))
    inverses = [engine.inverse(x) for x in elems]
    for a in range(n):
        for b in range(a + 1, n):
            d = engine.norm(engine.multiply(inverses[a], elems[b]))
            mat[a, b] = mat[b, a] = d
    remapped = Cover(
        sets=[frozenset(pos[i] for i in s) for s in cert.cover.sets],
        colors=list(cert.cover.colors),
    )
    return DenseMetric(mat, validate=False), remapped, list(range(n))


def literal_or_sound_check(cert, exact_limit=800):
    """(passed, mode): literal metric-core check when affordable, else the
    sound verifier; both certify ord <= n+1, L > claimed_r, b <= claimed_d."""
    if len(cert.carrier) <= exact_limit:
        metric, cover, carrier = word_metric_dense(cert)
        verdict = check_rd_cover(
            cover, cert.claimed_r, cert.claimed_d, cert.n, metric, carrier
        )
        covered = cover.union() == set(carrier)
        return verdict.passed and covered, "literal"
    return verify_certificate(cert).passed, "sound-verifier"


def test_criterion_1_free_product_formula(dinf_amalgam, z2z3_amalgam):
    details = []
    ok = True
    for ctx in (dinf_amalgam, z2z3_amalgam):
        for r in (4, 8, 16):
            t0 = time.monotonic()
            cert = cover_amalgam(ctx, r)
            passed, mode = literal_or_sound_check(cert)
            elapsed = time.monotonic() - t0
            good = (
                cert.n == 1
                and passed
                and cert.claimed_r >= max(1, r // 8)
                and elapsed < 60
            )
            ok = ok and good
            details.append(
                f"{ctx.name}@r={r}: n={cert.n} claimed_r={cert.claimed_r} "
                f"{mode} {elapsed:.1f}s"
            )
    report(1, ok, "; ".join(details))


def test_criterion_2_amalgam_over_z2(z4z2z4_amalgam):
    details = []
    ok = True
    for r in (4, 8):
        cert = cover_amalgam(z4z2z4_amalgam, r)
        passed, mode = literal_or_sound_check(cert)
        good = cert.n == 1 and passed and cert.claimed_r >= 1
        ok = ok and good
        details.append(f"r={r}: n={cert.n} claimed_r={cert.claimed_r} {mode}")
    report(2, ok, "max{0,0,0+1}=1 verified; " + "; ".join(details))


def test_criterion_3_racg_theorem(cycle5_system):
    t0 = time.monotonic()
    cert = cover_racg(cycle5_system, 4)
    passed = verify_certificate(cert).passed
    elapsed = time.monotonic() - t0
    nerve_dim = build_nerve(cycle5_system).dim
    five_ok = cert.n == 2 == nerve_dim + 1 and passed and elapsed < 300
    path_cert = cover_racg(CoxeterSystem(PATH3), 4)
    path_ok = path_cert.n <= 2 and verify_certificate(path_cert).passed
    report(
        3,
        five_ok and path_ok,
        f"5-cycle: n={cert.n}=dimN+1 verified in {elapsed:.0f}s "
        f"(claimed_r={cert.claimed_r}); path a-b-c: n={path_cert.n} <= 2",
    )


def test_criterion_4_assertion_2_1(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
    details = []
    ok = True
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
        ab = prepare(ctx, 8)
        verdict = check_assertion_2_1(ab)
        ok = ok and verdict.passed
        details.append(f"{ctx.name}: {verdict.checked} edges")
    report(4, ok, "zero violating edges; " + "; ".join(details))


def test_criterion_5_assertion_2_2(dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
    details = []
    ok = True
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
        ab = prepare(ctx, 8)
        default = check_assertion_2_2(ab)
        # the word walk of K under seeded sections gives the ball's verdict
        seeded = assertion_2_2_walk(ab, random_sections(ctx, 20240810))
        ok = ok and default.passed and seeded.line() == default.line()
        details.append(f"{ctx.name}: {default.checked}+{seeded.checked} elements")
    report(5, ok, "integer path and seeded-section word walk; " + "; ".join(details))


def test_criterion_6_separation_and_disjointness(
    dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam
):
    details = []
    ok = True
    for ctx in (dinf_amalgam, z2z3_amalgam, z4z2z4_amalgam):
        for r in (4, 8):
            radius = 3 * r
            checked = 0
            for big_r in range(1, r // 4 + 1):
                ab = prepare(ctx, radius, core_radius=radius - 3 * big_r)
                verdict = check_translate_disjointness(ab, r, big_r)
                ok = ok and verdict.passed
                checked += verdict.checked
                dual = ab.dual
                base = dual.base()
                for lvl in range(big_r + 1, min(2 * big_r + 3, int(dual.level.max())) + 1):
                    for u_prime in dual.vertices_at_level(lvl, side=SIDE_A)[:2]:
                        sep = check_separation(ab, base, u_prime, big_r)
                        ok = ok and sep.passed
                        checked += sep.checked
                # separation for a translated even-level u as well
                for u in dual.vertices_at_level(2, side=SIDE_A)[:2]:
                    lvl = 2 + big_r + 1
                    ups = [
                        w
                        for w in dual.vertices_at_level(lvl, side=SIDE_A)
                        if dual.is_ancestor(u, w)
                    ]
                    for u_prime in ups[:2]:
                        sep = check_separation(ab, u, u_prime, big_r)
                        ok = ok and sep.passed
                        checked += sep.checked
            details.append(f"{ctx.name}@r={r}: {checked} checks")
    report(6, ok, "2R and 3R bounds confirmed; " + "; ".join(details))


def test_criterion_7_extension_properties():
    rng = np.random.default_rng(20240810)
    failures = 0
    for trial in range(50):
        n_points = int(rng.integers(8, 24))
        r = int(rng.integers(4, 10))
        pts = np.sort(rng.choice(np.arange(n_points * 3), size=n_points, replace=False))
        m = line_metric(pts.tolist())
        k = int(rng.integers(2, 5))
        centers = rng.choice(n_points, size=k, replace=False)
        assign = np.argmin(np.abs(pts[:, None] - pts[centers][None, :]), axis=1)
        sets = []
        for j in range(k):
            seed_pts = np.nonzero(assign == j)[0]
            if not len(seed_pts):
                continue
            fld = m.dist_field(seed_pts.tolist())
            sets.append({int(i) for i in np.nonzero(fld <= r)[0]})
        cover = Cover(sets=sets)
        carrier = sorted(cover.union())
        d_in, _ = diameter_bound(cover, m)
        order_in, _ = cover_order(cover, carrier)
        out, new_carrier = extend_cover(cover, r, m, carrier)
        order_out, _ = cover_order(out, new_carrier)
        leb, _ = lebesgue_number(out, m, new_carrier)
        d_out, _ = diameter_bound(out, m)
        if order_out > order_in or leb < r / 4 or d_out > d_in + r:
            failures += 1
    report(7, failures == 0, f"50 seeded instances, {failures} failures")


RIGHT_ANGLED_FIXTURES = [
    ("Z2", [[1]]),
    ("Dinf", [[1, 0], [0, 1]]),
    ("path3", PATH3),
    ("path4", PATH4),
    ("cycle5", CYCLE5),
]


def test_criterion_8_nerve_oracle():
    ok = True
    details = []
    for name, matrix in RIGHT_ANGLED_FIXTURES:
        cox = CoxeterSystem(matrix)
        nerve = build_nerve(cox)
        for size in (1, 2, 3):
            for letters in itertools.combinations(range(cox.rank), size):
                finite, _ = parabolic_is_finite(cox, letters, cap=4000)
                spans = nerve.has_face([cox.names[i] for i in letters])
                ok = ok and (spans == (finite is True))
        ch, exact = chromatic_bound(cox)
        bound, _ = asdim_bound(cox)
        ok = ok and exact and ch >= bound
        details.append(f"{name}: ch={ch} >= bound={bound}")
    ch5, _ = chromatic_bound(CoxeterSystem(CYCLE5))
    ok = ok and ch5 == 3
    report(8, ok, "clique faces = brute-force finiteness (|W|<=3); " + "; ".join(details))


def test_criterion_9_davis_sanity():
    ok = True
    details = []
    for name, matrix in RIGHT_ANGLED_FIXTURES:
        cox = CoxeterSystem(matrix)
        ball = build_davis_ball(cox, 2)
        nerve_dim = build_nerve(cox).dim
        ok = ok and ball.dim == nerve_dim + 1
        details.append(f"{name}: dim {ball.dim} = dimN+1")
    z2 = build_davis_ball(CoxeterSystem([[1]]), 1)
    g2 = nx.Graph(z2.skeleton_graph())
    ok = ok and z2.vertex_count == 3 and sorted(d for _, d in g2.degree()) == [1, 1, 2]
    dinf = build_davis_ball(CoxeterSystem([[1, 0], [0, 1]]), 3)
    gd = nx.Graph(dinf.skeleton_graph())
    degrees = sorted(d for _, d in gd.degree())
    ok = ok and nx.is_connected(gd) and degrees.count(1) == 2 and degrees[-1] == 2
    report(9, ok, "; ".join(details) + "; Z2 ball is the 3-vertex path; Dinf ball is a subdivided interval")


CLI_DOCS = {
    "c5.json": {
        "generators": ["a", "b", "c", "d", "e"],
        "matrix": CYCLE5,
    },
    "dinf.json": {
        "type": "table_amalgam",
        "A": {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]},
        "B": {"elements": ["e", "b"], "table": [[0, 1], [1, 0]]},
        "embed_A": [0],
        "embed_B": [0],
    },
    "z2.json": {"generators": ["a"], "matrix": [[1]]},
}


def test_criterion_10_cli_determinism(tmp_path):
    for name, doc in CLI_DOCS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    commands = [
        ["bound", str(tmp_path / "c5.json")],
        ["cover", str(tmp_path / "dinf.json"), "--r", "4", "--verify"],
        ["check", str(tmp_path / "dinf.json"), "--r", "8", "--R", "1", "--ball", "24", "--seed", "11"],
        ["davis", str(tmp_path / "z2.json"), "--R", "2"],
        ["dualgraph", str(tmp_path / "dinf.json"), "--R", "6"],
    ]
    ok = True
    for idx, args in enumerate(commands):
        artifacts = []
        stdouts = []
        for run, hash_seed in enumerate(("1", "977")):
            out_dir = tmp_path / f"cmd{idx}_run{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "asdimlab.cli", *args, "--out", str(out_dir)],
                env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                capture_output=True,
                check=True,
            )
            stdouts.append(proc.stdout)
            artifacts.append(
                {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                if out_dir.exists()
                else {}
            )
        ok = ok and artifacts[0] == artifacts[1] and stdouts[0] == stdouts[1]
    report(10, ok, "all five commands byte-identical across hash-randomized runs")
