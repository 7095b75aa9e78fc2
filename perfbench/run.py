"""asdimlab benchmark: runs one workload's commands in-process and prints metrics.

    python3 perfbench/run.py --workload cover-racg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Run from the root of a source tree: the program is imported from `src/`.  A
run sets up (fresh-interpreter imports plus the input documents, five
times), then repeats whole rounds of the workload's commands through
`asdimlab.cli.main` until `--seconds` have passed, one command at a time in
this one process, with BLAS threads pinned to 1, and at least two rounds
(three on cover-table).
A command's time is that of its fastest round: on a shared 2-core machine
the speed switches between two levels about 1.5x apart every few seconds,
and the slow phases come from other tenants, not from the program.  The
first round's outputs are checked by `oracle` (code that shares nothing
with the program); the outputs of every round must equal the first round's
and those of earlier runs of the same program source, whatever their hash
seed.  A command that exits non-zero counts as failed; one whose outputs
fail a check counts as failed and makes the run incorrect.  `--trace 1`
installs the wrappers of `tracing` and reports per-layer metrics instead;
`--trace 0` installs none.  Metric names and units are read from
`BENCHMARK.json`.  The seed sets PYTHONHASHSEED (the process
re-executes itself once to apply it) and the sample of word pairs the
diameter check draws; the commands and their inputs are fixed.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import DOCUMENTS, MIN_ROUNDS, WORKLOADS, Command  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MB = 1 << 20
# what missing or malformed output files raise while they are read and checked
MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# a certificate with exact diameters whose r is bound by set depth, so each
# of the four injected faults is a real one
SELF_TEST = Command("cover", "z2z3", 8)

# one fresh interpreter: import the CLI and write the input documents
SETUP_PROBE = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
import asdimlab.cli
out = pathlib.Path(sys.argv[2])
out.mkdir(parents=True, exist_ok=True)
for name, doc in json.load(sys.stdin).items():
    (out / f"{name}.json").write_text(json.dumps(doc))
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pinned_env(seed):
    env = dict(os.environ, PYTHONHASHSEED=str(1 + seed % 4294967295))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def reexec_pinned(seed):
    """Re-execute once so the hash seed and thread pins apply from start-up."""
    env = pinned_env(seed)
    if any(os.environ.get(k) != env[k] for k in ("PYTHONHASHSEED", *THREAD_VARS)):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def setup(seed):
    """Median wall time of fresh-interpreter set-ups, then the in-process one."""
    docs = json.dumps(DOCUMENTS)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(WORK / "setup-probe")],
            input=docs, text=True, check=True, env=pinned_env(seed),
        )
        times.append(time.perf_counter() - start)
    shutil.rmtree(WORK / "setup-probe", ignore_errors=True)
    sys.path.insert(0, str(SRC))
    import asdimlab.cli

    if Path(asdimlab.cli.__file__).resolve().parent != SRC / "asdimlab":
        raise SystemExit(f"asdimlab imported from {asdimlab.cli.__file__}, not {SRC}")
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, doc in DOCUMENTS.items():
        (inputs / f"{name}.json").write_text(json.dumps(doc))
    return statistics.median(times), asdimlab.cli, inputs


def run_command(cli, cmd, inputs, out, tracer=None):
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.command = cmd.id
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(cmd.argv(inputs / f"{cmd.doc}.json", out))
    except (Exception, SystemExit) as exc:
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    res = {"cmd": cmd, "rc": rc, "seconds": seconds, "stdout": stdout.getvalue(),
           "stderr": stderr.getvalue(), "out": out}
    if tracer is not None:
        res["layers"], res["layer_times"] = tracer.metrics(), tracer.layer_times()
    return res


def read_outputs(res, full, seed):
    """Digest, sizes and claims of one command's outputs; problems when full."""
    cmd, out = res["cmd"], res["out"]
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    digest = hashlib.sha256(res["stdout"].encode())
    for p in files:
        digest.update(p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes())
    res.update(digest=digest.hexdigest(), bytes=sum(p.stat().st_size for p in files),
               problems=[], r=0.0, d=0.0, checks=0)
    doc = DOCUMENTS[cmd.doc]
    try:
        if cmd.kind == "check":
            res["problems"], res["checks"] = oracle.check_verdicts(doc, cmd, res["stdout"])
            return
        cert = json.loads((out / "certificate.json").read_text())
        res["r"], res["d"] = cert["r"] or 0.0, cert["d"] or 0.0
        if "FAIL" in res["stdout"]:
            res["problems"].append("the program's own verification reports FAIL")
        if full:
            ball = json.loads((out / "ball.json").read_text())
            res["problems"] += oracle.check_certificate(doc, cert, ball, cmd.r, seed)
    except MALFORMED as exc:
        res["problems"].append(f"outputs unreadable: {type(exc).__name__}: {exc}")


def self_test(cli, inputs, seed):
    """(passed, lines): a clean certificate passes and each corruption fails."""
    out = WORK / "self-test"
    res = run_command(cli, SELF_TEST, inputs, out)
    if res["rc"] != 0:
        return False, [f"self-test cover failed: {res['rc']}"]
    try:
        cert = json.loads((out / "certificate.json").read_text())
        ball = json.loads((out / "ball.json").read_text())
    except MALFORMED as exc:
        return False, [f"self-test certificate unreadable: {type(exc).__name__}: {exc}"]
    doc = DOCUMENTS[SELF_TEST.doc]
    clean = oracle.check_certificate(doc, cert, ball, SELF_TEST.r, seed)
    lines = [f"self-test clean certificate: {'accepted' if not clean else clean}"]
    passed = not clean
    for name, bad in oracle.corruptions(cert, ball):
        found = oracle.check_certificate(doc, bad, ball, SELF_TEST.r, seed)
        lines.append(f"self-test {name}: {'rejected: ' + found[0] if found else 'NOT rejected'}")
        passed = passed and bool(found)
    shutil.rmtree(out, ignore_errors=True)
    return passed, lines


def source_fingerprint():
    """Hash of the program source and of the commands and their inputs."""
    h = hashlib.sha256()
    for p in [*sorted((SRC / "asdimlab").glob("*.py")), HERE / "workloads.py"]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(first_round):
    """Problems for commands whose digests differ from earlier runs' digests."""
    path = WORK / "digests.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    known = stored.setdefault(source_fingerprint(), {})
    mismatched = set()
    for res in first_round:
        key = res["cmd"].id
        if known.setdefault(key, res["digest"]) != res["digest"]:
            mismatched.add(key)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    return mismatched


def environment():
    import numpy
    import scipy

    return (f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
            f"PYTHONHASHSEED {os.environ.get('PYTHONHASHSEED')}")


def run_workload(args):
    setup_s, cli, inputs = setup(args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = WORKLOADS[args.workload]
    rounds = []
    peak_rss_mb = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[args.workload] or time.perf_counter() - start < args.seconds:
        results = [run_command(cli, c, inputs, WORK / "out" / c.id, tracer) for c in commands]
        if peak_rss_mb is None:  # before any of this benchmark's own checks
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = set()
        for res in results:
            if res["rc"] == 0:
                full = not rounds and res["cmd"].id not in checked
                read_outputs(res, full=full, seed=args.seed)
                checked.add(res["cmd"].id)
        rounds.append(results)
    shutil.rmtree(WORK / "out", ignore_errors=True)

    # the first round is the reference for the others
    first = {res["cmd"].id: res for res in rounds[0]}
    ok = [res for res in rounds[0] if res["rc"] == 0]
    mismatched = compare_with_earlier_runs(ok)
    for results in rounds:
        for res in results:
            ref = first[res["cmd"].id]
            if res["rc"] == 0 and ref["rc"] == 0 and res["digest"] != ref["digest"]:
                res["problems"].append("outputs differ from the first round")
            if res["rc"] == 0 and res["cmd"].id in mismatched:
                res["problems"].append("outputs differ from an earlier run")
    attempted = sum(len(results) for results in rounds)
    errors = [res for results in rounds for res in results if res["rc"] != 0]
    wrong = [res for results in rounds for res in results if res["rc"] == 0 and res["problems"]]
    if tracer is not None:
        tracer.command = "self-test"
    passed_self_test, self_test_lines = self_test(cli, inputs, args.seed)

    print(f"workload {args.workload}: seed {args.seed}, {len(rounds)} round(s); {environment()}")
    for res in rounds[0]:
        status = "ok" if res["rc"] == 0 and not res["problems"] else "FAILED"
        claims = f" claimed_r {res['r']:g} claimed_d {res['d']:g}" if res.get("r") else ""
        print(f"  {res['cmd'].id}: {res['seconds']:.3f} s {status}{claims}")
    for res in errors + wrong:
        detail = res.get("problems") or [str(res["rc"]), res["stderr"].strip()[-300:]]
        print(f"  FAILED {res['cmd'].id}: {'; '.join(detail)}")
    for line in self_test_lines:
        print(f"  {line}")

    if tracer is not None:
        import tracing

        per_round = [
            tracing.with_ratios({k: sum(res["layers"][k] for res in results)
                                 for k in tracing.SOURCES})
            for results in rounds
        ]
        values = {m["name"]: statistics.median(r[m["name"]] for r in per_round)
                  for m in SPEC["per_layer"]}
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "environment": environment(),
            "wall_s": [[res["cmd"].id, res["seconds"]] for res in rounds[0]],
            "layers": [[res["cmd"].id, res["layers"], res["layer_times"]] for res in rounds[0]],
            "spans": tracer.spans,
        }))
        print(f"  spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        r_total = sum(res["r"] for res in ok)
        d_total = sum(res["d"] for res in ok)
        values = {
            "setup_s": setup_s,
            "commands_s": sum(
                min(results[i]["seconds"] for results in rounds) for i in range(len(commands))
            ),
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": sum(res["bytes"] for res in ok) / MB,
            "claimed_r_total": r_total,
            "d_per_r": d_total / r_total if r_total else 0.0,
            "checks_total": sum(res["checks"] for res in ok),
        }
        values = {m["name"]: values[m["name"]] for m in SPEC["end_to_end"]}
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {UNITS[name]}")
    print(f"  attempted {attempted}, failed {len(errors) + len(wrong)}")
    result = {
        "correct": not wrong and passed_self_test,
        "attempted": attempted,
        "failed": len(errors) + len(wrong),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own process, one table, one JSON object."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    print(f"{'metric':<34}" + "".join(f"{n:>14}" for n in names))
    for metric in results[names[0]]["metrics"]:
        unit = results[names[0]]["metrics"][metric]["unit"]
        row = "".join(f"{results[n]['metrics'][metric]['value']:>14.6g}" for n in names)
        print(f"{metric + ' [' + unit + ']':<34}{row}")
    print(f"{'attempted / failed':<34}"
          + "".join(f"{str(results[n]['attempted']) + ' / ' + str(results[n]['failed']):>14}" for n in names))
    print(json.dumps(results))


def main():
    args = parse_args()
    if not (SRC / "asdimlab" / "__init__.py").is_file():
        print(f"no asdimlab sources under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    reexec_pinned(args.seed)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
