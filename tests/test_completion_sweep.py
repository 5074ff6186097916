"""Completion sweep of the seeded solver over the admissible range (slow).

Run with `python -m pytest -m slow -s tests/test_completion_sweep.py`; the
default run deselects it. Every call must return n distinct zeros with
scaled residual at most RESIDUAL_GATE, and none may reach the coefficient
route. The table gives, per R cos theta, the calls, failures, mean and
longest call, and the calls and longest time of the deflation stage.
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from faberzeros import rootfind
from faberzeros.conformal import params_from
from faberzeros.errors import FaberError

NS = list(range(1, 61)) + [99, 150, 299, 300, 401, 499]
GRID = [(rc, th, n)
        for rc in (1.2, 1.5001, 1.6, 1.8, 2.1, 2.5, 3.0, 4.0, 8.0)
        for th in (0.0, 0.2, -0.3, 0.5, 0.9, 1.2, 1.3, 1.4, 1.48, 1.5, -1.5)
        for n in NS] + [
        (1.5 + d, th, n) for d in (1e-4, 1e-3, 1e-2) for th in (0.0, 0.7, -0.7)
        for n in NS]


@pytest.mark.slow
def test_seeded_solver_completes_everywhere(no_coefficient_route, monkeypatch):
    assert len(GRID) == 7128
    deflate = rootfind._deflate
    current = []

    def timed_deflate(*args):
        t0 = time.perf_counter()
        out = deflate(*args)
        current.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(rootfind, "_deflate", timed_deflate)
    calls, deflations = defaultdict(list), defaultdict(list)
    failures = []
    for rc, theta, n in GRID:
        p = params_from(rc / math.cos(theta), theta)
        current.clear()
        t0 = time.perf_counter()
        try:
            zs = rootfind.compute_zeros(p, n)
            ok = (len(np.unique(zs.zeros)) == n
                  and np.max(zs.residuals) <= rootfind.RESIDUAL_GATE)
            why = "duplicate zeros or residual above the gate"
        except (FaberError, AssertionError) as e:
            ok, why = False, f"{type(e).__name__}: {e}"
        calls[rc].append(time.perf_counter() - t0)
        deflations[rc].extend(current)
        if not ok:
            failures.append((rc, theta, n, why))
    print(f"\n{'R cos theta':>11} {'calls':>6} {'failed':>6} {'mean ms':>8} "
          f"{'max ms':>8} {'deflated':>8} {'max deflate ms':>14}")
    for rc in sorted(calls):
        t, d = calls[rc], deflations[rc]
        bad = sum(f[0] == rc for f in failures)
        print(f"{rc:>11} {len(t):>6} {bad:>6} {1e3 * np.mean(t):>8.2f} "
              f"{1e3 * max(t):>8.2f} {len(d):>8} {1e3 * max(d, default=0.0):>14.2f}")
    assert not failures, failures[:10]
