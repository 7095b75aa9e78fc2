"""Input documents and the fixed command sequence of each workload.

Every workload is a closed loop of one client: a round runs its commands one
after another, each through `asdimlab.cli.main`, and the next command starts
only when the previous one has returned.  Each round holds at least one
`cover --verify --out` and one `check --seed --out` command, so that the
certificate-strength and checks counts are measured (and non-zero) on every
workload; the command of the other kind is kept small, so each workload
stays dominated by the mechanism it was chosen for.
"""

from __future__ import annotations

from dataclasses import dataclass


def _cyclic(n, stem):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["e"] + [stem if i == 1 else f"{stem}{i}" for i in range(1, n)]
    return {"elements": names, "table": table}


def _table_amalgam(a, b, embed_a, embed_b):
    return {"type": "table_amalgam", "A": a, "B": b, "embed_A": embed_a, "embed_B": embed_b}


PATH4 = [[1, 2, 0, 0], [2, 1, 2, 0], [0, 2, 1, 2], [0, 0, 2, 1]]
CYCLE5 = [
    [1, 2, 0, 0, 2],
    [2, 1, 2, 0, 0],
    [0, 2, 1, 2, 0],
    [0, 0, 2, 1, 2],
    [2, 0, 0, 2, 1],
]

# File stems become the certificate's backend name, so they are fixed.
DOCUMENTS = {
    "dinf": _table_amalgam(_cyclic(2, "a"), _cyclic(2, "b"), [0], [0]),
    "z2z3": _table_amalgam(_cyclic(2, "a"), _cyclic(3, "b"), [0], [0]),
    "z4z2z4": _table_amalgam(_cyclic(4, "x"), _cyclic(4, "y"), [0, 2], [0, 2]),
    "path4": {"generators": ["a", "b", "c", "d"], "matrix": PATH4},
    "cycle5": {"generators": ["a", "b", "c", "d", "e"], "matrix": CYCLE5},
    # explicit split at vertex a: star {a, b}, link K = {b}, rest {b, c, d}
    "path4split": {
        "type": "racg_amalgam",
        "generators": ["a", "b", "c", "d"],
        "matrix": PATH4,
        "n1": ["a", "b"],
        "k": ["b"],
        "n2": ["b", "c", "d"],
    },
}


@dataclass(frozen=True)
class Command:
    kind: str  # "cover" or "check"
    doc: str
    r: int
    R: int = None
    ball: int = None

    @property
    def id(self):
        parts = [self.kind, self.doc, f"r{self.r}"]
        if self.R is not None:
            parts.append(f"R{self.R}")
        if self.ball is not None:
            parts.append(f"ball{self.ball}")
        return "-".join(parts)

    def argv(self, input_path, out_dir):
        argv = [self.kind, str(input_path), "--r", str(self.r)]
        if self.R is not None:
            argv += ["--R", str(self.R)]
        if self.ball is not None:
            argv += ["--ball", str(self.ball)]
        if self.kind == "cover":
            return argv + ["--verify", "--out", str(out_dir)]
        # the alternate-section seed of assertion 2.2 is part of the fixed input
        return argv + ["--seed", "7", "--out", str(out_dir)]


def _covers(docs, radii):
    return [Command("cover", d, r) for d in docs for r in radii]


def _checks(docs, params):
    return [Command("check", d, 8, R, ball) for d in docs for R, ball in params]


WORKLOADS = {
    # RACG rewriting, coset_minrep keys, gate_tail, the recursive
    # C-certificate and the 143k-element cycle-5 ball; the small RACG check
    # runs the checkers on rewritten words.  The cycle-5 ball is one radius
    # below its default (375k elements, 25 s), so that a run fits two rounds;
    # the core, the sets and the claimed r and d are the same.
    "cover-racg": [Command("cover", "cycle5", 4, ball=11)]
    + _covers(["path4"], [4, 8])
    + _checks(["path4split"], [(1, 9)]),
    # Same builder on table-lookup words with a finite C; no RACG rewriting.
    # The nine covers regenerate the certificate-strength table.
    "cover-table": _covers(["dinf", "z2z3", "z4z2z4"], [4, 8, 16])
    + _checks(["dinf"], [(1, 16)]),
    # Checkers only, apart from one small cover.  At R = 2 on the radius-22
    # ball every level-16 translate misses the core (full-ball BFS for an
    # empty D_R); R = 1 runs the partition, on the radius-16 ball with its
    # outer sphere on a gate level and on the larger radius-20 ball.
    "check-table": _checks(["z2z3", "dinf", "z4z2z4"], [(2, 22), (1, 16), (1, 20)])
    + _covers(["dinf"], [16]),
}

# Commands count at their fastest round, so every run needs two rounds.  A
# cover-table round is one 10-second cover plus small ones, and its time
# spread by 24% over ten runs with two or three rounds; it gets three.
MIN_ROUNDS = {"cover-racg": 2, "cover-table": 3, "check-table": 2}
