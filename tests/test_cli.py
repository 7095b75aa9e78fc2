import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from asdimlab import amalgam, builder, cli, groups
from asdimlab.cli import build_context, main
from asdimlab.groups import build_ball

from conftest import z34_loop
from test_amalgam import reference_dual_graph

CYCLE5_DOC = {
    "generators": ["a", "b", "c", "d", "e"],
    "matrix": [
        [1, 2, 0, 0, 2],
        [2, 1, 2, 0, 0],
        [0, 2, 1, 2, 0],
        [0, 0, 2, 1, 2],
        [2, 0, 0, 2, 1],
    ],
}
DINF_DOC = {
    "type": "table_amalgam",
    "A": {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]},
    "B": {"elements": ["e", "b"], "table": [[0, 1], [1, 0]]},
    "embed_A": [0],
    "embed_B": [0],
}
Z2Z3_DOC = {
    "type": "table_amalgam",
    "A": {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]},
    "B": {"elements": ["e", "b", "b2"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
    "embed_A": [0],
    "embed_B": [0],
}
Z2_DOC = {"generators": ["a"], "matrix": [[1]]}
PATH4_DOC = {
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 2, 0, 0], [2, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]],
}
PATH4_SPLIT_DOC = {
    "type": "racg_amalgam",
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 2, 0, 0], [2, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]],
    "n1": ["a", "b"],
    "k": ["b"],
    "n2": ["b", "c", "d"],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bound_cycle5(tmp_path, capsys):
    path = write(tmp_path, "c5.json", CYCLE5_DOC)
    assert main(["bound", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "dim N = 1, asdim <= 2, ch bound = 3" in out
    report = json.loads((tmp_path / "out" / "bound.json").read_text())
    assert report["asdim_bound"] == 2 and report["chromatic_bound"] == 3


def test_bound_simplex_reports_finite(tmp_path, capsys):
    path = write(tmp_path, "z2.json", Z2_DOC)
    assert main(["bound", path]) == 0
    assert "finite group, asdim = 0" in capsys.readouterr().out


def test_bound_of_no_generators_reports_the_trivial_group(tmp_path, capsys):
    # the empty nerve is the empty simplex: W is trivial, asdim 0
    path = write(tmp_path, "trivial.json", {"generators": [], "matrix": []})
    assert main(["bound", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "finite group, asdim = 0 (nerve is the full simplex)",
        "dim N = -1, asdim <= 0, ch bound = 0",
    ]
    report = json.loads((tmp_path / "out" / "bound.json").read_text())
    assert report["finite_group"] is True and report["asdim_bound"] == 0
    tree = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    assert tree == {"leaf": "simplex/finite", "vertices": []}


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["bound", str(path)]) == 2


def test_cover_verify_dinf(tmp_path, capsys):
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "4", "--verify", "--out", str(tmp_path / "o")]) == 0
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())
    assert cert["n"] == 1
    assert len(cert["colors"]) == 2
    ball = json.loads((tmp_path / "o" / "ball.json").read_text())
    assert ball["elements"][0]["word"] == "e"


def test_a_reader_that_closes_the_pipe_gets_exit_141_and_no_traceback(tmp_path):
    # as `cover --verify | head -1`: the reader takes the certificate line
    # and closes the pipe while the artifacts are written and verification
    # runs (about 60 ms for path-4 r 8); unbuffered, each verdict line is
    # its own write, so the first one meets the closed pipe
    path = write(tmp_path, "path4.json", PATH4_DOC)
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    argv = ["cover", path, "--r", "8", "--verify", "--out", str(tmp_path / "o")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "asdimlab.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert first.startswith(b"certificate: n=1 colors=2 ")
    assert err == b""


def test_cover_and_check_import_no_scipy(tmp_path):
    # graph fields are a numpy BFS on the edge table; scipy is a test-only
    # dependency, and importing it was most of a command's start-up time
    path = write(tmp_path, "dinf.json", DINF_DOC)
    script = (
        "import sys; from asdimlab.cli import main; "
        f"assert main(['cover', {path!r}, '--r', '4', '--verify']) == 0; "
        f"assert main(['check', {path!r}, '--r', '8', '--R', '1', '--ball', '16']) == 0; "
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "prop-2.1-separation: pass" in proc.stdout


def test_coxeter_commands_import_no_networkx_or_scipy(tmp_path):
    # nerve graphs are adjacency dicts; networkx, like scipy, is a test-only
    # dependency and was most of the start-up time left
    p4 = write(tmp_path, "p4.json", PATH4_DOC)
    split = write(tmp_path, "p4split.json", {"type": "racg_amalgam", **PATH4_DOC})
    runs = [
        ["bound", p4, "--out", str(tmp_path / "bound")],
        ["davis", p4, "--R", "2", "--out", str(tmp_path / "davis")],
        ["dualgraph", split, "--out", str(tmp_path / "dual")],
        ["cover", p4, "--r", "4", "--verify"],
        ["check", split, "--r", "8", "--R", "1", "--ball", "9"],
    ]
    script = (
        "import sys; from asdimlab.cli import main\n"
        f"for argv in {runs!r}: assert main(argv) == 0, argv\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('networkx', 'scipy'))\n"
        "assert not loaded, loaded"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "prop-2.1-separation: pass" in proc.stdout
    assert (tmp_path / "davis" / "davis.dot").is_file()


@pytest.mark.parametrize("doc, name", [(DINF_DOC, "dinf.json"), (PATH4_SPLIT_DOC, "p4.json")])
def test_cover_ball_json_equals_json_dumps(tmp_path, doc, name):
    # the streamed ball.json is the byte oracle's text for the same ball
    path = write(tmp_path, name, doc)
    assert main(["cover", path, "--r", "4", "--out", str(tmp_path / "o")]) == 0
    radius = json.loads((tmp_path / "o" / "certificate.json").read_text())["ball"]["radius"]
    ball = build_ball(build_context(doc).engine, radius)
    expected = json.dumps(ball.to_json(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "o" / "ball.json").read_bytes() == expected.encode("utf-8")


def test_cover_writes_ball_json_in_bounded_chunks(tmp_path, monkeypatch):
    # every write to ball.json is one block, never the whole document
    monkeypatch.setattr(groups, "BALL_JSON_BYTES", 400)
    sizes = {}

    class Recording:
        def __init__(self, path, *args, **kwargs):
            self.file = open(path, *args, **kwargs)
            self.sizes = sizes.setdefault(Path(path).name, [])

        def write(self, block):
            self.sizes.append(len(block))
            return self.file.write(block)

        def __getattr__(self, name):
            return getattr(self.file, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

    monkeypatch.setattr(cli, "open", Recording, raising=False)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "4", "--out", str(tmp_path / "o")]) == 0
    bound = 400  # the byte budget, above any one record of this ball
    total = (tmp_path / "o" / "ball.json").stat().st_size
    assert total > 4 * bound
    assert sum(sizes["ball.json"]) == total
    assert max(sizes["ball.json"]) <= bound


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("bound", {"matrix": [[1]], "generators": 5}, "generator names must be a list"),
        ("bound", {"matrix": [[1, 0], [0, 1]], "generators": [1, 2]}, "non-empty strings"),
        ("bound", {"matrix": [[1, 0], [0, 1]], "generators": ["a", ""]}, "non-empty strings"),
        ("bound", {"matrix": [[1, 0], [0, 1]], "generators": ["a", "b.c"]}, "without '.'"),
        ("cover", {"matrix": [[1, 0], [0, 1]], "generators": ["a", "b c"]}, "or whitespace"),
        ("cover", {**DINF_DOC, "A": {"elements": ["e", "a"], "table": 5}}, "list of lists of ints"),
        ("cover", {**DINF_DOC, "B": {"elements": ["e", "b"], "table": [[0, 1], "10"]}}, "list of lists of ints"),
        ("cover", {**DINF_DOC, "B": {"elements": ["e", "b"], "table": [[0, 1], [1, 0.0]]}}, "list of lists of ints"),
        ("cover", {**DINF_DOC, "A": {"elements": 5, "table": [[0, 1], [1, 0]]}}, "element names must be a list"),
    ],
)
def test_malformed_fields_exit_2(tmp_path, capsys, command, doc, message):
    path = write(tmp_path, "bad.json", doc)
    assert main([command, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and message in err


@pytest.mark.parametrize(
    "split, message",
    [
        ({"n1": ["a", "x"]}, "'n1' names unknown generator 'x'"),
        ({"k": ["q"]}, "'k' names unknown generator 'q'"),
        ({"k": None, "n2": None}, "gives n1 but not k, n2"),
        ({"n2": 5}, "'n2' must be a list of generator names"),
    ],
)
def test_bad_racg_split_exits_2(tmp_path, capsys, split, message):
    doc = {**PATH4_SPLIT_DOC, **split}
    doc = {key: value for key, value in doc.items() if value is not None}
    path = write(tmp_path, "p4.json", doc)
    assert main(["check", path, "--r", "8", "--R", "1", "--ball", "9"]) == 2
    assert message in capsys.readouterr().err


CYCLE4_DOC = {
    "type": "racg_amalgam",
    "generators": ["a", "b", "c", "d"],
    "matrix": [[1, 2, 0, 2], [2, 1, 2, 0], [0, 2, 1, 2], [2, 0, 2, 1]],
}


@pytest.mark.parametrize("command", ["check", "cover", "dualgraph"])
def test_a_split_that_is_not_a_splitting_exits_2(tmp_path, capsys, command):
    # the sets cover the letters and meet in k, but a commutes with d, so the
    # 4-cycle group is not the amalgam over them; the star/link split is
    doc = {**CYCLE4_DOC, "n1": ["a", "b"], "k": ["b"], "n2": ["b", "c", "d"]}
    path = write(tmp_path, "c4.json", doc)
    assert main([command, path]) == 2
    assert capsys.readouterr().err == (
        "input error: not a splitting: a in n1 - k commutes with d in n2 - k\n"
    )
    assert main([command, write(tmp_path, "c4star.json", CYCLE4_DOC)]) == 0


Z4_DOC = {
    "elements": ["e", "x", "x2", "x3"],
    "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
}


def _without(doc, field):
    return {key: value for key, value in doc.items() if key != field}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("cover", _without(DINF_DOC, "B")),
        ("cover", _without(DINF_DOC, "embed_B")),
        ("cover", {**DINF_DOC, "A": [1, 2]}),
        ("cover", {**DINF_DOC, "embed_A": 0}),
        ("cover", {**DINF_DOC, "A": Z4_DOC, "B": Z4_DOC, "embed_A": [0, 7], "embed_B": [0, 2]}),
        ("cover", {**DINF_DOC, "embed_A": [0.0]}),
        ("bound", {"matrix": 5}),
        ("bound", {"matrix": [[1, 0], 5]}),
    ],
    ids=[
        "no-B",
        "no-embed_B",
        "A-not-object",
        "embed-not-list",
        "embed-out-of-range",
        "embed-not-int",
        "matrix-not-list",
        "row-not-list",
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "doc.json", doc)
    assert main([command, path]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "cover", "check", "davis", "dualgraph"])
@pytest.mark.parametrize("text", ["[1, 2]", "null", '"matrix"'], ids=["list", "null", "string"])
def test_non_object_document_exits_2(tmp_path, capsys, command, text):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "davis"])
@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": 5, "maximal_faces": [[1]]},
        {"vertices": [1, 2], "maximal_faces": [5]},
        {"vertices": [1, 2], "maximal_faces": 5},
        {"maximal_faces": [[1]]},
        {"vertices": [[1], 2], "maximal_faces": [[2]]},
        {"vertices": [1, 2], "maximal_faces": [[[1]]]},
        {"vertices": [1, "a"], "maximal_faces": [[1], ["a"]]},
    ],
    ids=[
        "vertices-not-list", "face-not-list", "faces-not-list", "no-vertices",
        "unhashable-vertex", "unhashable-face-vertex", "mixed-labels",
    ],
)
def test_malformed_nerve_exits_2(tmp_path, capsys, command, doc):
    path = write(tmp_path, "nerve.json", doc)
    assert main([command, path]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cover_rejects_a_non_associative_factor(tmp_path, capsys):
    table, names = z34_loop()
    doc = dict(DINF_DOC, A={"elements": names, "table": table})
    assert main(["cover", write(tmp_path, "loop.json", doc), "--r", "4"]) == 2
    assert capsys.readouterr().err == "input error: table is not associative\n"


def test_cover_cap_exit_3(tmp_path):
    path = write(tmp_path, "c5.json", CYCLE5_DOC)
    assert main(["cover", path, "--r", "4", "--cap-elements", "50"]) == 3


def test_cover_cap_at_core_plus_2_verifies(tmp_path, capsys):
    # |B(23)| = 47 for Dinf: the cap admits core 21 + 2 and not core + 3, so
    # claimed_r (4 without the cap) is bound by the margin 2, and the
    # certificate passes --verify
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "16", "--cap-elements", "47", "--verify"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (
        "certificate: n=1 colors=2 claimed_r=2.0 claimed_d=10.0 sets=5 ball=23 core=21"
    )
    assert all(": pass" in line for line in out[1:])


def record_ball_radii(monkeypatch):
    """The radius of every ball enumerated from now on, by any of the three
    enumerators `build_ball` runs once the ball's size fits the cap."""
    radii = []

    def recording(real):
        def enumerate_ball(*args, **kwargs):
            radii.append(args[1])
            return real(*args, **kwargs)

        return enumerate_ball

    for owner, name in (
        (groups, "_racg_ball"),
        (groups, "bfs_ball"),
        (amalgam.TableAmalgamEngine, "sphere_ball"),
    ):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    return radii


def test_cover_cap_below_core_plus_2_exits_3_before_enumerating(tmp_path, capsys, monkeypatch):
    # the first ball's size is checked exactly before it is enumerated, so a
    # cap too small for B(core + 2) exits 3 with no ball enumerated
    radii = record_ball_radii(monkeypatch)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "16", "--cap-elements", "46"]) == 3
    assert capsys.readouterr().err.startswith("resource cap exceeded: ")
    assert radii == []


@pytest.mark.parametrize(
    "args", [["cover", "--r", "4"], ["check", "--r", "8", "--R", "1"]], ids=["cover", "check"]
)
def test_an_explicit_ball_past_the_cap_exits_3_before_enumerating(tmp_path, capsys, monkeypatch, args):
    # B(1000000) of D-infinity has 2,000,001 elements: an explicit --ball is
    # checked exactly too, and nothing is built
    radii = record_ball_radii(monkeypatch)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main([args[0], path, *args[1:], "--ball", "1000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap exceeded: ball of radius 1000000 would exceed the element cap 2000000\n"
    )
    assert radii == []


def test_a_cap_between_the_ball_and_its_ratio_projection_exits_3_before_enumerating(
    tmp_path, capsys, monkeypatch
):
    # B(22) of Z2*Z3 has 14,330 elements; extrapolating the last sphere
    # ratio of a radius-6 ball, 4/3 where the ratios alternate with 3/2,
    # gives 6,371, which a cap of 10,000 would let through
    radii = record_ball_radii(monkeypatch)
    path = write(tmp_path, "z2z3.json", Z2Z3_DOC)
    argv = ["check", path, "--r", "8", "--R", "1", "--ball", "22", "--cap-elements", "10000"]
    assert main(argv) == 3
    assert capsys.readouterr().err == (
        "resource cap exceeded: ball of radius 22 would exceed the element cap 10000\n"
    )
    assert radii == []


def test_a_ball_of_polynomial_growth_within_the_cap_is_built(tmp_path, capsys):
    # the 4-cycle group is D-infinity x D-infinity: B(60) has 1 + 4 + 8 + ...
    # + 240 = 7,321 elements, where extrapolating a radius-6 ball's last
    # sphere ratio gives 2.7M
    path = write(tmp_path, "c4.json", CYCLE4_DOC)
    assert len(build_ball(build_context(CYCLE4_DOC).engine, 60)) == 7321
    assert main(["dualgraph", path, "--R", "60"]) == 0
    assert capsys.readouterr().out == "dual graph: vertices=121 pieces=122 max level=60\n"


def test_a_large_racg_past_the_cap_exits_3_at_once(tmp_path, capsys):
    # 40 generators, all commuting but one pair: the cliques of up to 6
    # letters already number more than the cap, so no ball is enumerated
    n = 40
    matrix = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    matrix[0][1] = matrix[1][0] = 0
    doc = {"generators": [f"g{i}" for i in range(n)], "matrix": matrix}
    path = write(tmp_path, "k40.json", doc)
    start = time.perf_counter()
    assert main(["cover", path, "--r", "4"]) == 3
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("resource cap exceeded: ball of radius ")


@pytest.mark.parametrize("cap, code", [(7, 3), (8, 0)])
def test_a_finite_group_holds_to_the_element_cap(tmp_path, cap, code):
    # Z2^3 has 8 elements
    path = write(tmp_path, "z2cubed.json", {"matrix": [[1, 2, 2], [2, 1, 2], [2, 2, 1]]})
    assert main(["cover", path, "--r", "4", "--cap-elements", str(cap)]) == code


@pytest.mark.parametrize("rank, cap", [(3, 7), (70, 2_000_000)])
def test_a_finite_group_past_the_cap_names_its_order(tmp_path, capsys, rank, cap, monkeypatch):
    # the message names the group's element count, not the cap as a radius
    # (Z2^3 has diameter 3), and no ball is enumerated, even for Z2^70
    radii = record_ball_radii(monkeypatch)
    matrix = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    doc = {"generators": [f"g{i}" for i in range(rank)], "matrix": matrix}
    path = write(tmp_path, "z2power.json", doc)
    assert main(["cover", path, "--r", "4", "--cap-elements", str(cap)]) == 3
    assert capsys.readouterr().err == (
        f"resource cap exceeded: finite group of {2**rank} elements exceeds the element cap {cap}\n"
    )
    assert radii == []


def test_internal_invariant_failure_exits_4(tmp_path, capsys, monkeypatch):
    # Dinf r 16 builds its sets on B(23) and grows to B(25); a grown ball
    # whose ids do not extend B(23) fails the builder's prefix check: exit 4
    # and one line on stderr
    real = build_ball

    def shuffled(engine, radius, *args, **kwargs):
        ball = real(engine, radius, *args, **kwargs)
        if radius <= 23:
            return ball
        return dataclasses.replace(ball, letter=ball.letter[::-1])

    monkeypatch.setattr(builder, "build_ball", shuffled)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "16"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the radius-25 ball does not extend")
    assert captured.err.count("\n") == 1


def test_grown_ball_with_one_letter_changed_exits_4(tmp_path, capsys, monkeypatch):
    # the same table but one letter changed inside B(23): the grown ball
    # spells another element there, so the sets cannot carry over
    real = build_ball

    def misspelled(engine, radius, *args, **kwargs):
        ball = real(engine, radius, *args, **kwargs)
        if radius != 25:  # the prepared B(23) and the trivial C's ball
            return ball
        letter = ball.letter.copy()
        letter[7] = 1 - letter[7]
        return dataclasses.replace(ball, letter=letter)

    monkeypatch.setattr(builder, "build_ball", misspelled)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "16"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the radius-25 ball does not extend")
    assert captured.err.count("\n") == 1


def test_cover_past_the_element_cap_exits_3(tmp_path, capsys):
    # B(3000) of D-infinity has 6,001 elements
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "4", "--ball", "3000", "--cap-elements", "5000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource cap exceeded: ")
    assert captured.err.count("\n") == 1


def test_cover_bad_R_override_rejected(tmp_path, capsys):
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["cover", path, "--r", "4", "--R", "2"]) == 2
    assert "r > 4R" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cover", "bound", "davis", "dualgraph"])
def test_seed_is_a_check_option_only(tmp_path, command):
    path = write(tmp_path, "dinf.json", DINF_DOC)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "doc, ball",
    [(DINF_DOC, "16"), (Z2Z3_DOC, "12"), (PATH4_SPLIT_DOC, "9")],
    ids=["dinf", "z2z3", "path4split"],
)
def test_check_seed_repeats_the_default_assertion_2_2_line(tmp_path, capsys, doc, ball):
    # any sections give the default verdict, so every seed prints the
    # unseeded output with its assertion-2.2 line doubled
    path = write(tmp_path, "doc.json", doc)
    args = ["check", path, "--r", "8", "--R", "1", "--ball", ball]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("assertion-2.2: "))
    expected = lines[: i + 1] + lines[i:]
    for seed in ("1", "7", "99"):
        assert main(args + ["--seed", seed]) == 0
        assert capsys.readouterr().out.splitlines() == expected


def test_check_dinf_all_pass(tmp_path, capsys):
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["check", path, "--r", "8", "--R", "1", "--ball", "24", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "assertion-2.1: pass" in out
    assert "assertion-2.2: pass" in out
    assert "prop-2.2-disjointness: pass" in out
    assert "prop-2.1-separation: pass" in out
    assert "partition: pass" in out


@pytest.mark.parametrize(
    "doc, translates", [(DINF_DOC, "1 checks] (2"), (Z2Z3_DOC, "136 checks] (17")], ids=["dinf", "z2z3"]
)
def test_check_default_ball_holds_the_separation_witness(tmp_path, capsys, doc, translates):
    # R = 2 by default; the default ball max(2r, 4R + 1) = 16 holds level-8
    # translates for Prop 2.2, and its core of radius 10 the level-3 fiber
    # the separation check starts from; r = 4R leaves the partition no room
    path = write(tmp_path, "doc.json", doc)
    assert main(["check", path, "--r", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "prop-2.1-separation: pass" in lines[-2]
    assert lines[2].startswith(f"prop-2.2-disjointness: pass [{translates} translates)")
    assert lines[-1].startswith("partition: skipped, r = 4R = 8")
    assert not any("vacuous" in line for line in lines)


def test_check_marks_vacuous_verdicts_apart_from_the_bench_regex(tmp_path, capsys):
    # the core of ball 5 holds no level-4 translate, only the base's: there
    # is no pair to compare
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    )
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    path = write(tmp_path, "p4.json", PATH4_SPLIT_DOC)
    assert main(["check", path, "--r", "4", "--R", "1", "--ball", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == (
        "prop-2.2-disjointness: pass [0 checks] (1 translates; vacuous: nothing in the ball to check)"
    )
    assert oracle.VERDICT.match(lines[2]).groups() == ("prop-2.2-disjointness", "pass", "0")
    assert lines[-1].startswith("partition: skipped") and not oracle.VERDICT.match(lines[-1])


@pytest.mark.parametrize("ball", ["0", "1", "2"])
def test_check_ball_below_3R_exits_2(tmp_path, capsys, ball):
    # --ball 0 is a radius, not "no override"; a ball below 3R leaves a
    # negative core, on which every checker would pass vacuously
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["check", path, "--r", "8", "--R", "1", "--ball", ball]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and "3R = 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (["--R", "0"], "--R 0 is below 1"),
        (["--r", "2", "--R", "1"], "--R 1 is above r/4 = 0.5"),
        (["--r", "9", "--R", "2"], "--r 9 is odd"),
    ],
    ids=["R-0", "R-above-r/4", "r-odd"],
)
def test_check_rejects_R_before_building_the_ball(tmp_path, capsys, monkeypatch, args, message):
    def prepare(*_, **__):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(cli, "prepare", prepare)
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["check", path, "--ball", "12"] + args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and message in captured.err
    assert captured.out == ""


def test_davis_z2(tmp_path, capsys):
    path = write(tmp_path, "z2.json", Z2_DOC)
    assert main(["davis", path, "--R", "1", "--out", str(tmp_path / "d")]) == 0
    assert "vertices=3" in capsys.readouterr().out
    assert (tmp_path / "d" / "davis.dot").exists()


def test_dualgraph_dinf(tmp_path, capsys):
    path = write(tmp_path, "dinf.json", DINF_DOC)
    assert main(["dualgraph", path, "--R", "6", "--out", str(tmp_path / "g")]) == 0
    dot = (tmp_path / "g" / "dualgraph.dot").read_text()
    assert 'label="A"' in dot and 'label="B"' in dot


@pytest.mark.parametrize(
    "doc, name, radius", [(PATH4_SPLIT_DOC, "p4.json", "10"), (Z2Z3_DOC, "z2z3.json", "12")]
)
def test_dualgraph_artifacts_equal_word_keyed_reference(tmp_path, monkeypatch, doc, name, radius):
    path = write(tmp_path, name, doc)
    assert main(["dualgraph", path, "--R", radius, "--out", str(tmp_path / "table")]) == 0
    monkeypatch.setattr(amalgam, "build_dual_graph", reference_dual_graph)
    assert main(["dualgraph", path, "--R", radius, "--out", str(tmp_path / "words")]) == 0
    for artifact in ("dualgraph.json", "dualgraph.dot"):
        got = (tmp_path / "table" / artifact).read_bytes()
        assert got == (tmp_path / "words" / artifact).read_bytes(), artifact
    payload = json.loads((tmp_path / "table" / "dualgraph.json").read_text())
    assert max(len(piece["members"]) for piece in payload["pieces"]) > 1


def run_cli(args, out_dir, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, "-m", "asdimlab.cli", *args, "--out", str(out_dir)],
        check=True,
        env=env,
        capture_output=True,
    )
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


@pytest.mark.parametrize(
    "args_fn, doc, name",
    [
        (lambda p: ["bound", p], CYCLE5_DOC, "c5.json"),
        (lambda p: ["cover", p, "--r", "4"], DINF_DOC, "dinf.json"),
        (lambda p: ["davis", p, "--R", "2"], Z2_DOC, "z2.json"),
        (lambda p: ["dualgraph", p, "--R", "5"], DINF_DOC, "dinf.json"),
    ],
)
def test_outputs_byte_identical_across_runs(tmp_path, args_fn, doc, name):
    # determinism under different hash seeds: byte-for-byte equal artifacts
    path = write(tmp_path, name, doc)
    first = run_cli(args_fn(path), tmp_path / "run1", "1")
    second = run_cli(args_fn(path), tmp_path / "run2", "977")
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"artifact {key} differs between runs"
