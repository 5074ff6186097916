"""Acceptance gates. One test per criterion; each prints a PASS line with the
measured numbers when it succeeds (run with -s to see them).

Every gate recomputes from scratch — nothing here reuses frozen values.
"""

import os
import subprocess
import sys
import time

import numpy as np

import faberzeros as fz
from faberzeros.conformal import params_from
from faberzeros.faber import faber_closed, faber_oracle
from faberzeros.limitsets import intersection_ib
from faberzeros.measures import (
    classify_zeros, equilibrium_moments, potential_check, pullback_density,
    quadrature_residuals, ullman_density, weak_star_distance,
)
from test_measures import mpmath_quadrature_gate

PRESETS3 = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2)]
EPS = 2.0 ** -52


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for R, theta in PRESETS3:
        p = params_from(R, theta)
        for n in range(1, 31):
            a = faber_closed(p, n).coeffs
            o = faber_oracle(p, n).coeffs
            worst = max(worst, float(np.max(np.abs(a - o)) / np.max(np.abs(a))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS oracle equivalence: worst rel err "
          f"{worst:.3e} < 1e-9 in {elapsed:.2f}s")


def test_criterion_2_real_zeros():
    t0 = time.monotonic()
    p = params_from(1.26, 0.0)
    for n in (20, 70):
        zs = fz.compute_zeros(p, n)
        assert zs.n == n
        assert np.max(np.abs(zs.zeros.imag)) < 1e-8
        assert zs.zeros.real.min() >= -1.0
        assert zs.zeros.real.max() <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS real-case zeros on [-1,1]: n=20,70 "
          f"in {elapsed:.2f}s")


def test_criterion_3_quadrature_identity():
    # the monomial form against the exact equilibrium moments, by the mpmath
    # power sums, and the Faber form verify gates on
    t0 = time.monotonic()
    worst = 0.0
    for R, theta in PRESETS3:
        p = params_from(R, theta)
        mom = equilibrium_moments(p, 40)
        for n in (10, 20, 40):
            zs = fz.compute_zeros(p, n)
            # residuals come relative to max(1, |m_k|)
            rel = mpmath_quadrature_gate(zs.zeros, mom)
            worst = max(worst, rel)
            assert rel < 1e-6, (R, theta, n, rel)
            assert np.max(quadrature_residuals(p, zs)) < 2.0 ** 6 * max(n, 16) * EPS
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS quadrature identity: worst rel residual "
          f"{worst:.3e} < 1e-6 in {elapsed:.2f}s")


def test_criterion_4_mass_split():
    t0 = time.monotonic()
    p = params_from(2.1, 0.0)
    n = 100
    zs = fz.compute_zeros(p, n)
    labels = classify_zeros(p, zs)
    f_seg = labels.count("segment") / n
    f_loop = labels.count("loop") / n
    unclassified = labels.count("other")
    assert abs(f_seg - 0.300) <= 0.06, f_seg
    assert abs(f_loop - 0.700) <= 0.06, f_loop
    assert unclassified <= 3 * np.sqrt(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 4] PASS mass split at n=100: segment {f_seg:.2f}, "
          f"loop {f_loop:.2f}, other {unclassified} in {elapsed:.2f}s")


def test_criterion_5_intersection_formulas():
    t0 = time.monotonic()
    for R in (1.6, 1.8, 2.0, 2.1, 2.5):
        p = params_from(R, 0.0)
        assert abs(intersection_ib(p) - 1.0 / (2 * p.b)) < 1e-12
    for theta in (0.0, 0.1, 0.2):
        p = params_from(1.5 / np.cos(theta), theta)
        assert abs(intersection_ib(p) - (-1.0)) < 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 5] PASS intersection formulas: 1/(2b) to 1e-12, "
          f"critical -1 to 1e-8 in {elapsed:.2f}s")


def test_criterion_6_density_identities():
    t0 = time.monotonic()
    t, w = np.polynomial.legendre.leggauss(400)
    t = (t + 1) * (np.pi / 2)
    w = w * (np.pi / 2)
    for R in (1.1, 1.26, 1.5):
        p = params_from(R, 0.0)
        total = np.sum(w * pullback_density(p, np.cos(t)) * np.sin(t))
        assert abs(total - 1.0) < 1e-8, (R, total)
        x = np.linspace(-0.9995, 0.9995, 2001)
        gap = np.max(np.abs(pullback_density(p, x)
                            - ullman_density(x, (R - 1) / 2)))
        assert gap < 1e-12, (R, gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\n[criterion 6] PASS density identities: unit mass to 1e-8, "
          f"closed-form match to 1e-12 in {elapsed:.2f}s")


def test_criterion_7_weak_star_convergence():
    t0 = time.monotonic()
    msg = []
    for R, theta in [(1.26, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        w25 = weak_star_distance(p, fz.compute_zeros(p, 25))
        w100 = weak_star_distance(p, fz.compute_zeros(p, 100))
        assert w100.cdf_dist < w25.cdf_dist
        assert w100.cdf_dist < 0.12
        # the moment channel saturates at double-precision noise well before
        # n = 25, so "smaller" is enforced down to a 1e-9 floor
        assert w100.moment_dist < max(w25.moment_dist, 1e-9)
        msg.append(f"({R},{theta}) cdf {w25.cdf_dist:.3f}->{w100.cdf_dist:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 7] PASS weak-star convergence: {'; '.join(msg)} "
          f"in {elapsed:.2f}s")


def test_criterion_8_electrostatic_skeleton():
    t0 = time.monotonic()
    msg = []
    for R, theta in [(1.26, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        dev40 = float(np.max(potential_check(p, fz.compute_zeros(p, 40))))
        dev80 = float(np.max(potential_check(p, fz.compute_zeros(p, 80))))
        assert dev80 < 0.05
        assert dev80 < dev40
        msg.append(f"({R},{theta}) {dev40:.2e}->{dev80:.2e}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 8] PASS exterior potential match: {'; '.join(msg)} "
          f"in {elapsed:.2f}s")


def test_criterion_9_determinism():
    t0 = time.monotonic()
    import tempfile
    # the child imports the package from where this process found it
    src = os.path.dirname(os.path.dirname(fz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as td:
        blobs = {}
        for tag in ("a", "b", "c"):
            out = os.path.join(td, tag)
            for cmd in (["zeros", "--paper-figure", "3", "--n", "30,45"],
                        ["plot", "--paper-figure", "3", "--n", "30"]):
                r = subprocess.run(
                    [sys.executable, "-m", "faberzeros"] + cmd + ["--out", out],
                    capture_output=True, text=True, env=env)
                assert r.returncode == 0, r.stderr
            blobs[tag] = tuple(
                open(os.path.join(out, f), "rb").read()
                for f in ("zeros_n30.csv", "zeros_n45.csv", "plot_n30.svg"))
        assert blobs["a"] == blobs["b"], "second run changed bytes"
        assert blobs["a"] == blobs["c"], "third run changed bytes"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\n[criterion 9] PASS determinism: identical bytes across three "
          f"runs in {elapsed:.2f}s")
