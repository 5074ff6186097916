"""Sweeps of the seeded solver over the admissible range (slow).

Run with `python -m pytest -m slow -s tests/test_completion_sweep.py`; the
default run deselects them.

The completion sweep: every call must return n distinct zeros with
scaled residual at most RESIDUAL_GATE, none may reach the coefficient
route, and every zero set must pass verify's quadrature gate,
max_k |mean_j F_k(z_j)| < 2^6 max(n, 16) eps. The table gives, per
R cos theta, the calls, failures, mean and longest call, the calls and
longest time of the deflation stage, the largest quadrature residual in
units of n eps, and the points evaluated through faber._closed_terms per
returned zero (evals/zero; it only prints).

The accuracy sweep on grid G (R cos theta x theta x n, 240 points) and
grid H (R cos theta up to 1000, 36 points): every zero must lie within
2^5 ulp of max(1, |z|) on grid G and 2^9 ulp on grid H by its forward
error |F_n / F_n'| in mpmath, deflation may return at most 64 of the
zeros over both grids, and _tighten may move at most 128 of them. The
table gives the worst zero in ulp per (R cos theta, theta).
"""

import math
import time
from collections import defaultdict

import numpy as np
import pytest

from faberzeros import faber, rootfind
from faberzeros.conformal import params_from
from faberzeros.errors import FaberError
from faberzeros.measures import quadrature_gate
from test_rootfind import closed_form_forward_errors

EPS = 2.0 ** -52

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
    closed_terms = faber._closed_terms
    points = [0]

    def counted_terms(p, n, z):
        points[0] += np.size(z)
        return closed_terms(p, n, z)

    # residual and scaled_residual look it up in faber, the final stage in rootfind
    monkeypatch.setattr(faber, "_closed_terms", counted_terms)
    monkeypatch.setattr(rootfind, "_closed_terms", counted_terms)
    calls, deflations = defaultdict(list), defaultdict(list)
    quad = defaultdict(float)
    evals, returned = defaultdict(int), defaultdict(int)
    failures = []
    for rc, theta, n in GRID:
        p = params_from(rc / math.cos(theta), theta)
        current.clear()
        points[0] = 0
        t0 = time.perf_counter()
        try:
            zs = rootfind.compute_zeros(p, n)
            elapsed = time.perf_counter() - t0
            evals[rc] += points[0]
            returned[rc] += len(zs.zeros)
            ok = (len(np.unique(zs.zeros)) == n
                  and np.max(zs.residuals) <= rootfind.RESIDUAL_GATE)
            why = "duplicate zeros or residual above the gate"
            q = quadrature_gate(p, zs)
            quad[rc] = max(quad[rc], q / (n * EPS))
            if ok and not q < 2.0 ** 6 * max(n, 16) * EPS:
                ok, why = False, f"quadrature residual {q:.3g}"
        except (FaberError, AssertionError) as e:
            elapsed = time.perf_counter() - t0
            ok, why = False, f"{type(e).__name__}: {e}"
        calls[rc].append(elapsed)
        deflations[rc].extend(current)
        if not ok:
            failures.append((rc, theta, n, why))
    print(f"\n{'R cos theta':>11} {'calls':>6} {'failed':>6} {'mean ms':>8} "
          f"{'max ms':>8} {'deflated':>8} {'max deflate ms':>14} {'quad / n eps':>12} "
          f"{'evals/zero':>10}")
    for rc in sorted(calls):
        t, d = calls[rc], deflations[rc]
        bad = sum(f[0] == rc for f in failures)
        print(f"{rc:>11} {len(t):>6} {bad:>6} {1e3 * np.mean(t):>8.2f} "
              f"{1e3 * max(t):>8.2f} {len(d):>8} {1e3 * max(d, default=0.0):>14.2f} "
              f"{quad[rc]:>12.2f} {evals[rc] / max(returned[rc], 1):>10.2f}")
    assert not failures, failures[:10]


GRID_G = [(rc, th, n)
          for rc in (1.001, 1.2, 1.4999, 1.5001, 1.6, 2.0, 4.0, 8.0)
          for th in (0.0, 0.5, 1.0, 1.3, 1.5, -1.5)
          for n in (7, 60, 99, 300, 500)]
# far above criticality, R up to 9.3e4: the closed form's last two terms
# cancel at most zeros
GRID_H = [(rc, th, n)
          for rc in (30.0, 100.0, 1000.0)
          for th in (0.0, 1.0, 1.5, 1.56)
          for n in (7, 60, 500)]


@pytest.mark.slow
def test_zeros_within_32_ulp_on_grid_g_512_on_grid_h_few_deflated(monkeypatch):
    assert len(GRID_G) == 240 and len(GRID_H) == 36
    deflate = rootfind._deflate
    deflated = [0]

    def counted_deflate(*args):
        out = deflate(*args)
        deflated[0] += len(out[0])
        return out

    monkeypatch.setattr(rootfind, "_deflate", counted_deflate)
    tighten = rootfind._tighten
    moved = [0]

    def counted_tighten(p, n, zs, grades):
        out = tighten(p, n, zs, grades)
        moved[0] += int(np.count_nonzero(out[0] != zs))
        return out

    monkeypatch.setattr(rootfind, "_tighten", counted_tighten)
    worst = defaultdict(float)
    failures = []
    for rc, theta, n in GRID_G + GRID_H:
        row = (rc, theta)
        p = params_from(rc / math.cos(theta), theta)
        z = rootfind.compute_zeros(p, n).zeros
        ulp = float(np.max(closed_form_forward_errors(p, n, z)
                           / np.maximum(1.0, np.abs(z)))) / EPS
        worst[row] = max(worst[row], ulp)
        if not ulp <= (32 if (rc, theta, n) in GRID_G else 512):
            failures.append((rc, theta, n, ulp))
    print(f"\n{'R cos theta':>11} {'theta':>6} {'worst ulp':>10}")
    for rc, theta in worst:
        print(f"{rc:>11} {theta:>6} {worst[rc, theta]:>10.1f}")
    print(f"deflated zeros: {deflated[0]}")
    print(f"zeros moved by _tighten: {moved[0]}")
    assert not failures, failures
    assert deflated[0] <= 64, deflated[0]
    assert moved[0] <= 128, moved[0]
