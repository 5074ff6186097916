"""The four benchmark workloads: which operations one round holds, and how
one operation runs.

A round is a fixed list of operations. Part of it is the same for every seed:
the four paper presets and the cases that hit a known fault. The rest is
drawn from the seed, one operation per cell. A cell fixes a centre
(R cos theta, theta, n) and the seed moves each coordinate within a small box
around it, so every seed covers the whole range while the cost of a round
stays nearly the same from seed to seed.

Drawn cells stay out of the regions where a known fault would make the
outcome depend on the draw: real (theta = 0) subcritical airfoils get even
degrees where the seeded route finds the zeros (n > 60, and every verify),
low-degree draws no degree in 7..13, and verify draws only subcritical
airfoils with |theta| <= 0.27. The faults themselves are kept as fixed
operations that fail on every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass

PRESETS = ((1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2))
D_SHAPE = 0.02

# Known faults, by the tag run.py gives a failed operation.
ZERO_ACCURACY = "zero-accuracy"      # a returned zero is off by more than 2^9 ulp
QUADRATURE_GATE = "quadrature-gate"  # verify FAIL on accurate zeros
SEEDED_FROM = 61                     # compute_zeros takes the seeded route from here


@dataclass(frozen=True)
class Op:
    kind: str                 # "zeros", "verify", "plot" or "predict"
    R: float
    theta: float
    n: int = 0                # degree: zeros returned, verified or plotted; 0 for predict
    expect: str | None = None  # the known fault this operation hits

    @property
    def argv(self) -> list[str]:
        args = [self.kind, "--R", repr(self.R), "--theta", repr(self.theta)]
        return args + (["--n", str(self.n)] if self.n else [])

    def label(self) -> str:
        return f"{self.kind} R={self.R!r} theta={self.theta!r} n={self.n}"


@dataclass(frozen=True)
class Cell:
    rc: float                 # centre of R cos theta, moved by up to +-D_SHAPE
    theta: float              # centre of theta, moved by up to +-D_SHAPE; 0 stays 0
    n: int                    # centre of the degree, moved by up to +-d_n
    d_n: int = 1

    def draw(self, rng: random.Random, kind: str) -> Op:
        rc = self.rc + rng.uniform(-D_SHAPE, D_SHAPE)
        theta = 0.0 if self.theta == 0.0 else round(
            self.theta + rng.uniform(-D_SHAPE, D_SHAPE), 6)
        n = self.n + rng.randint(-self.d_n, self.d_n) if self.n else 0
        # the seeded route misses z = b at odd n on these airfoils
        if (theta == 0.0 and rc < 1.5 and n % 2 and n >= SEEDED_FROM
                and kind in ("zeros", "verify")):
            n += 1 if n < self.n else -1
        return Op(kind, round(rc / math.cos(theta), 6), theta, n)


@dataclass(frozen=True)
class Workload:
    name: str
    fixed: tuple[Op, ...]
    cells: tuple[tuple[str, Cell], ...]
    warmup: Op

    def round_ops(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        return list(self.fixed) + [cell.draw(rng, kind) for kind, cell in self.cells]


def _zeros(R, theta, n, expect=None):
    return Op("zeros", R, theta, n, expect)


LOW = Workload(
    name="low-degree",
    fixed=tuple(_zeros(R, t, n) for R, t in PRESETS for n in (8, 24, 40))
    # theta = 0, odd n: accurate today; the seeded route misses z = b here
    + tuple(_zeros(R, 0.0, n) for R, n in ((1.05, 7), (1.05, 23), (1.4, 33), (1.26, 45)))
    # 7 <= n <= 13: Aberth in double without the mpmath polish, 1082 and 1060 ulp off
    + (_zeros(1.84, 0.0, 9, ZERO_ACCURACY), _zeros(1.626622, 0.24, 8, ZERO_ACCURACY))
    # the top degree is fixed: one step of n near 60 moves the cost by 20 %
    + (_zeros(1.45, 0.2, 60),),
    # drawn cells sit in the cheap and the dear tail, so the median operation
    # is a fixed one, and stay at n <= 43, so that the fixed operations carry
    # most of a round's time; none lies in 7 <= n <= 13, where whether the
    # returned zeros pass depends on the draw
    cells=tuple(("zeros", c) for c in (
        Cell(1.10, 0.0, 2), Cell(2.40, 0.0, 5), Cell(1.30, 0.60, 16),
        Cell(1.90, -1.10, 19), Cell(1.20, -0.30, 30), Cell(2.20, 0.90, 34),
        Cell(1.40, 0.0, 38), Cell(1.70, 0.0, 42),
    )),
    warmup=_zeros(1.26, 0.0, 12),
)

HIGH = Workload(
    name="high-degree",
    fixed=tuple(_zeros(R, t, n) for R, t in PRESETS for n in (100, 300, 500))
    + tuple(_zeros(R, 0.0, n, ZERO_ACCURACY)
            for R, n in ((1.26, 61), (1.26, 145), (1.05, 99), (1.4, 99))),
    cells=tuple(("zeros", c) for c in (
        Cell(1.05, 0.0, 70, d_n=4), Cell(1.20, 0.0, 260, d_n=4),
        Cell(1.35, 0.0, 430, d_n=4), Cell(1.45, 0.0, 160, d_n=4),
        Cell(1.60, 0.0, 340, d_n=4), Cell(1.90, 0.0, 110, d_n=4),
        Cell(2.30, 0.0, 480, d_n=4), Cell(2.60, 0.0, 210, d_n=4),
        Cell(1.10, 0.40, 300, d_n=4), Cell(1.25, -0.80, 140, d_n=4),
        Cell(1.40, 1.15, 380, d_n=4), Cell(1.30, -0.20, 90, d_n=4),
        Cell(1.70, 0.30, 450, d_n=4), Cell(1.80, -0.60, 230, d_n=4),
        Cell(2.00, 0.90, 130, d_n=4), Cell(2.50, -0.40, 320, d_n=4),
        Cell(1.15, -1.15, 490, d_n=4), Cell(2.20, 1.10, 280, d_n=4),
        Cell(1.55, -0.95, 190, d_n=4), Cell(2.40, 0.15, 410, d_n=4),
    )),
    warmup=_zeros(1.26, 0.0, 100),
)

VERIFY = Workload(
    name="verify",
    fixed=(Op("verify", 1.26, 0.0, 120), Op("verify", 2.1, 0.2, 100, QUADRATURE_GATE),
           Op("verify", 2.1, 0.0, 150, QUADRATURE_GATE), Op("verify", 1.45, 0.2, 140),
           Op("verify", 1.26, 0.0, 300), Op("verify", 1.45, 0.2, 200),
           # below criticality at large |theta|: residual 6.4e-4 against 1e-4
           Op("verify", round(1.05 / math.cos(0.9), 6), 0.9, 100, QUADRATURE_GATE)),
    # two cheap and two dear drawn cells around the fixed middle
    cells=tuple(("verify", c) for c in (
        Cell(1.05, 0.0, 104, d_n=4), Cell(1.15, 0.10, 110, d_n=4),
        Cell(1.12, -0.15, 380, d_n=4), Cell(1.10, 0.10, 490, d_n=4),
    )),
    warmup=Op("verify", 1.26, 0.0, 100),
)

RENDER = Workload(
    name="render",
    fixed=tuple(Op(kind, R, t, n) for R, t in PRESETS
                for kind, n in (("predict", 0), ("plot", 100), ("plot", 200))),
    cells=tuple((kind, Cell(rc, th, n if kind == "plot" else 0, d_n=4))
                for rc, th, n in ((1.08, 0.0, 420), (1.35, 0.7, 260), (1.9, -0.3, 330),
                                  (2.5, 1.1, 290), (1.45, 0.0, 480), (2.2, 0.0, 380),
                                  (1.2, -1.0, 270), (1.7, 0.5, 450))
                for kind in ("predict", "plot")),
    warmup=Op("plot", 2.1, 0.2, 100),
)

WORKLOADS = {w.name: w for w in (LOW, HIGH, VERIFY, RENDER)}

def output_names(op: Op) -> list[str]:
    return {"verify": ["verify_report.json"], "plot": [f"plot_n{op.n}.svg"],
            "predict": ["curves.csv", "predicted.json"]}[op.kind]


def run_op(fz, cli, params: dict, op: Op, out_dir: str, clock) -> tuple[float, object]:
    """Run one operation; return its wall time and its raw result.

    Zero operations call compute_zeros on parameters built during set-up. CLI
    operations call cli.main in-process with a fresh --out directory, since
    truncating a file written moments earlier blocks for about 100 ms on
    ext4; their printed lines are captured, not shown.
    """
    if op.kind == "zeros":
        p = params[(op.R, op.theta)]
        t0 = clock()
        try:
            result = fz.compute_zeros(p, op.n)
        except Exception as e:  # counted as a failed operation
            result = e
        return clock() - t0, result
    argv = op.argv + ["--out", out_dir]
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = cli.main(argv)
    except Exception as e:  # counted as a failed operation
        result = e
    return clock() - t0, result


def read_outputs(op: Op, out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in output_names(op):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out
