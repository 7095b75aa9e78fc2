"""Command-line front end.

Commands:
  bound      nerve dimension / asdim and chromatic bounds for a Coxeter input
  cover      build a CoverCertificate for a Coxeter or amalgam input; --out
             writes certificate.json and ball.json ({edges, elements,
             radius}), the ball streamed as byte blocks of bounded size
             (`Ball.iter_json`)
  check      run the exhaustive amalgam checkers (assertions, separation,
             translate disjointness, partition)
  davis      glue a finite-radius Davis complex, emit DOT + JSON
  dualgraph  emit the dual graph K with levels and piece types

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource cap,
4 internal invariant failure (an AssertionError: a grown ball that does not
extend the ball the sets were built on, region assembly leaving a core point
unassigned, a piece of K with two gates), 141 (128 + SIGPIPE) when the
reader of standard output closes it early, as `| head -1` does, with no
traceback.
All outputs are deterministic byte-for-byte for a fixed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .amalgam import (
    SIDE_A,
    check_assertion_2_1,
    check_assertion_2_2,
    check_separation,
    check_translate_disjointness,
    dual_graph_dot,
    partition_ball,
    partition_json,
    prepare,
    verify_partition,
    RacgAmalgam,
    TableAmalgam,
)
from .builder import certificate_json_str, cover_amalgam, cover_racg, verify_certificate
from .coxeter import CoxeterSystem, bound_report, build_davis_ball, decompose, dumps_report, star_link_split
from .errors import AsdimlabError, InputError, OutOfBallError, ResourceCapError
from .groups import DEFAULT_BALL_CAP, FiniteTableGroup

EXIT_OK, EXIT_VERIFY, EXIT_INPUT, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's code for a closed pipe


def load_input(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"input in {path} must be a JSON object")
    return data


def build_context(data, name="input"):
    """Amalgam context from an input document.

    Formats: {"type": "table_amalgam", "A": {...}, "B": {...},
    "embed_A": [...], "embed_B": [...]} with factor groups as
    {"elements": [...], "table": [[...]]}, or {"type": "racg_amalgam",
    "generators": [...], "matrix": [[...]], "n1": [...], "k": [...],
    "n2": [...]} (letter subsets by generator name; omitted split uses the
    first eligible star/link vertex)."""
    kind = data.get("type")
    if kind == "table_amalgam":
        missing = [f for f in ("A", "B", "embed_A", "embed_B") if f not in data]
        if missing:
            raise InputError(f"table_amalgam input missing field {missing[0]!r}")
        for f in ("embed_A", "embed_B"):
            if not isinstance(data[f], list):
                raise InputError(f"table_amalgam field {f!r} must be a list of element indices")
        a = _table_group(data["A"])
        b = _table_group(data["B"])
        return TableAmalgam(a, b, data["embed_A"], data["embed_B"], name=name)
    if kind == "racg_amalgam":
        cox = CoxeterSystem.from_json(data)
        engine = cox.engine()
        fields = ("n1", "k", "n2")
        given = [f for f in fields if f in data]
        if given:
            missing = [f for f in fields if f not in data]
            if missing:
                raise InputError(
                    f"racg_amalgam split gives {', '.join(given)} "
                    f"but not {', '.join(missing)}"
                )
            parts = [data[f] for f in fields]
        else:
            split = star_link_split(cox.commutation_graph())
            if split is None:
                raise InputError("nerve is a simplex: no amalgam splitting exists")
            parts = split[1:]
        pos = {n: i for i, n in enumerate(cox.names)}
        n1, k, n2 = (_letter_ids(pos, f, part) for f, part in zip(fields, parts))
        return RacgAmalgam(engine, n1=n1, knk=k, n2=n2, name=name)
    raise InputError("amalgam input needs type 'table_amalgam' or 'racg_amalgam'")


def _letter_ids(pos, field, names):
    """Generator indices of the names that split field `field` lists."""
    if not isinstance(names, (list, tuple)):
        raise InputError(f"racg_amalgam field {field!r} must be a list of generator names")
    ids = []
    for name in names:
        if not isinstance(name, str) or name not in pos:
            raise InputError(f"racg_amalgam field {field!r} names unknown generator {name!r}")
        ids.append(pos[name])
    return ids


def _table_group(data):
    if not isinstance(data, dict):
        raise InputError("finite-group input must be an object with 'elements' and 'table'")
    try:
        return FiniteTableGroup(data["table"], names=data.get("elements"))
    except KeyError as exc:
        raise InputError(f"finite-group input missing field {exc.args[0]!r}") from exc


def _write(out_dir, name, content):
    """Write one artifact from a string, encoded as UTF-8, or from an
    iterable of byte blocks, block by block in order (`Ball.iter_json`)."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    blocks = [content.encode("utf-8")] if isinstance(content, str) else content
    with open(path, "wb") as fh:
        for block in blocks:
            fh.write(block)
    return path


def cmd_bound(args):
    data = load_input(args.input)
    cox = CoxeterSystem.from_json(data)
    report = bound_report(cox)
    if report["finite_group"]:
        print(f"finite group, asdim = 0 (nerve is the full simplex)")
    print(
        f"dim N = {report['nerve_dim']}, asdim <= {report['asdim_bound']}, "
        f"ch bound = {report['chromatic_bound']}"
        + ("" if report["chromatic_exact"] else " (greedy, inexact)")
    )
    if args.out:
        _write(args.out, "bound.json", dumps_report(report))
        tree = decompose(cox)
        _write(args.out, "decomposition.json", json.dumps(tree.to_json(), indent=2, sort_keys=True) + "\n")
        _write(args.out, "decomposition.dot", tree.to_dot())
    return EXIT_OK


def cmd_cover(args):
    data = load_input(args.input)
    if data.get("type") in ("table_amalgam", "racg_amalgam"):
        ctx = build_context(data, name=Path(args.input).stem)
        cert = cover_amalgam(
            ctx, args.r, ball_radius=args.ball, cap=args.cap_elements, R_override=args.R
        )
    else:
        cox = CoxeterSystem.from_json(data)
        cert = cover_racg(
            cox, args.r, ball_radius=args.ball, cap=args.cap_elements, R_override=args.R
        )
    print(
        f"certificate: n={cert.n} colors={cert.n_colors} claimed_r={cert.claimed_r} "
        f"claimed_d={cert.claimed_d} sets={len(cert.cover.sets)} "
        f"ball={cert.ball.radius} core={cert.core_radius}"
    )
    if args.out:
        _write(args.out, "certificate.json", certificate_json_str(cert))
        _write(args.out, "ball.json", cert.ball.iter_json())
    if args.verify:
        report = verify_certificate(cert)
        for line in report.lines():
            print(line)
        if not report.passed:
            return EXIT_VERIFY
    return EXIT_OK


def cmd_check(args):
    data = load_input(args.input)
    ctx = build_context(data, name=Path(args.input).stem)
    if args.r % 2:
        raise InputError(f"--r {args.r} is odd: the partition's slab spacing r must be even")
    big_r = args.R if args.R is not None else max(1, args.r // 4)
    if big_r < 1:
        raise InputError(f"--R {big_r} is below 1: D_R needs R >= 1")
    if big_r > args.r / 4:
        raise InputError(
            f"--R {big_r} is above r/4 = {args.r / 4:g}: translate disjointness needs R <= r/4"
        )
    # by default 2r, which holds level-r translates for Prop 2.2 and the
    # partition, and at least 4R + 1, whose core, radius - 3R, holds a
    # level-(R + 1) fiber for the separation check (pi is 1-Lipschitz)
    radius = max(2 * args.r, 4 * big_r + 1) if args.ball is None else args.ball
    if radius < 3 * big_r:
        raise InputError(
            f"--ball {radius} is below 3R = {3 * big_r}: the checkers' core radius would be negative"
        )
    ab = prepare(ctx, radius, core_radius=radius - 3 * big_r, cap=args.cap_elements)
    verdicts = [check_assertion_2_1(ab), check_assertion_2_2(ab)]
    if args.seed is not None:
        # assertion 2.2 holds or fails alike for every choice of sections
        # (`check_assertion_2_2`), so the seeded line is the default one
        verdicts.append(verdicts[-1])
    verdicts.append(check_translate_disjointness(ab, args.r, big_r))
    dual = ab.dual
    u_prime = None
    for lvl in range(big_r + 1, int(dual.level.max()) + 1):
        candidates = dual.vertices_at_level(lvl, side=SIDE_A)
        if candidates:
            u_prime = candidates[0]
            break
    if u_prime is not None:
        verdicts.append(check_separation(ab, dual.base(), u_prime, big_r))
    if args.r > 4 * big_r:
        part = partition_ball(ab, args.r, big_r, SIDE_A)
        verdicts.append(verify_partition(ab, part))
        if args.out:
            _write(
                args.out,
                "partition.json",
                json.dumps(partition_json(ab, part), indent=2, sort_keys=True) + "\n",
            )
    failed = False
    for v in verdicts:
        print(v.line())
        failed = failed or not v.passed
    if args.r <= 4 * big_r:
        print(f"partition: skipped, r = 4R = {args.r} leaves no room between slabs (needs r > 4R)")
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_davis(args):
    data = load_input(args.input)
    cox = CoxeterSystem.from_json(data)
    ball = build_davis_ball(cox, args.R, cap=args.cap_elements)
    print(
        f"davis ball: chambers={ball.chamber_count} vertices={ball.vertex_count} "
        f"dim={ball.dim} simplices={len(ball.maximal_simplices)}"
    )
    if args.out:
        _write(
            args.out,
            "davis.json",
            json.dumps(ball.to_json(), indent=2, sort_keys=True) + "\n",
        )
        g = ball.skeleton_graph()
        lines = ["graph davis {"]
        for v in sorted(g.nodes):
            lines.append(f'  v{v} [label="{ball.vertex_labels[v]}"];')
        for u, v in sorted(g.edges):
            lines.append(f"  v{u} -- v{v};")
        lines.append("}")
        _write(args.out, "davis.dot", "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_dualgraph(args):
    data = load_input(args.input)
    ctx = build_context(data, name=Path(args.input).stem)
    ab = prepare(ctx, args.R, cap=args.cap_elements)
    dual = ab.dual
    print(
        f"dual graph: vertices={dual.n_vertices} pieces={len(dual.piece_side)} "
        f"max level={int(dual.level.max())}"
    )
    if args.out:
        _write(args.out, "dualgraph.dot", dual_graph_dot(ab))
        payload = {
            "vertices": [
                {
                    "id": u,
                    "rep": ab.ball.word(rep),
                    "level": int(dual.level[u]),
                    "side": int(dual.side[u]),
                }
                for u, rep in enumerate(dual.rep_ids.tolist())
            ],
            "pieces": [
                {"side": side, "members": dual.piece(p).tolist()}
                for p, side in enumerate(dual.piece_side.tolist())
            ],
        }
        _write(args.out, "dualgraph.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def make_parser():
    parser = argparse.ArgumentParser(
        prog="asdimlab",
        description="cover constructions and checkers for amalgams and "
        "right-angled Coxeter groups at finite Cayley-ball scale",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_r=False):
        p.add_argument("input", help="input JSON file")
        p.add_argument("--out", help="output directory for artifacts")
        p.add_argument("--cap-elements", type=int, default=DEFAULT_BALL_CAP)
        if needs_r:
            p.add_argument("--r", type=int, default=4, help="construction scale")
            p.add_argument("--R", type=int, default=None, help="boundary thickness override")
            p.add_argument("--ball", type=int, default=None, help="ball radius override")

    p = sub.add_parser("bound", help="nerve/asdim/chromatic bounds")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("cover", help="build a cover certificate")
    common(p, needs_r=True)
    p.add_argument("--verify", action="store_true", help="re-check the certificate inline")
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("check", help="run the exhaustive amalgam checkers")
    common(p, needs_r=True)
    p.add_argument(
        "--seed", type=int, default=None,
        help="repeat the assertion-2.2 line: any sections give the default verdict",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("davis", help="glue a finite-radius Davis complex")
    common(p)
    p.add_argument("--R", type=int, default=2, help="chamber ball radius")
    p.set_defaults(func=cmd_davis)

    p = sub.add_parser("dualgraph", help="emit the dual graph K")
    common(p)
    p.add_argument("--R", type=int, default=6, help="ball radius for the coset graph")
    p.set_defaults(func=cmd_dualgraph)
    return parser


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # interpreter's own flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OutOfBallError as exc:
        needed = f" (needed radius {exc.needed_radius})" if exc.needed_radius else ""
        print(f"out of ball: {exc}{needed}", file=sys.stderr)
        return EXIT_INPUT
    except AsdimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal error: {' '.join(str(exc).split()) or 'assertion failed'}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
