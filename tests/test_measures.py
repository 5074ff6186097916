"""Equilibrium moments, predicted limit measures, and the numeric gates.

Frozen moment values were computed by the closed binomial form at 80 digits
and double-checked against a 60-digit trapezoid rule on an 8192-point grid
before freezing.
"""

import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import faberzeros as fz
from faberzeros import measures
from faberzeros.conformal import params_from, phi_b_inverse, psi
from faberzeros.errors import DomainError, ParameterError
from faberzeros.limitsets import CaseTag, arc_z_of_u, classify
from faberzeros.measures import (
    classify_zeros, closed_moment_mp, default_test_points, equilibrium_moments,
    potential_check, predicted, predicted_moments, pullback_density,
    quadrature_gate, quadrature_residuals, report, ullman_density,
    weak_star_distance,
)

PRESETS = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2)]
EPS = 2.0 ** -52


# ---------------------------------------------------------------- moments

def test_closed_moments_low_order():
    # m_1 = b/2 and m_2 = (b^2 + 2)/4, straight from the binomial form
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        b = p.b
        assert closed_moment_mp(b, 1) == pytest.approx(b / 2, rel=1e-14)
        assert closed_moment_mp(b, 2) == pytest.approx((b * b + 2) / 4, rel=1e-14)


def test_closed_moments_frozen_high_order():
    b = params_from(2.1, 0.0).b
    assert closed_moment_mp(b, 10).real == pytest.approx(0.7671307378516603, abs=1e-14)
    assert closed_moment_mp(b, 60).real == pytest.approx(1.0604147996430713, abs=2e-13)
    assert closed_moment_mp(b, 100).real == pytest.approx(1.344418013458817, abs=2e-13)
    b = params_from(2.1, 0.2).b
    assert closed_moment_mp(b, 10) == pytest.approx(
        0.3634271095046398 + 0.4522784228223298j, abs=1e-13)
    assert closed_moment_mp(b, 100) == pytest.approx(
        -0.00047773944185813984 + 0.09091674529179179j, abs=1e-13)


def test_equilibrium_moments_match_closed_form():
    for R, theta in [(1.26, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        mv = equilibrium_moments(p, 40)
        want = np.array([closed_moment_mp(p.b, k) for k in range(1, 41)])
        assert np.max(np.abs(mv.values - want)) < 1e-10


def trapezoid_moments(p, k_max, m):
    """Moments as the mean of psi(e^{it})^k over an m-point trapezoid grid,
    an independent cross-check of the closed form; exact up to rounding for
    k < m, the rounding being a few ulp of max|psi|^k."""
    zs = psi(p, np.exp(2j * np.pi * np.arange(m) / m))
    pw = np.ones(m, dtype=complex)
    out = np.empty(k_max, dtype=complex)
    for k in range(k_max):
        pw = pw * zs
        out[k] = np.mean(pw)
    return out, float(np.max(np.abs(zs)))


def test_equilibrium_moments_match_trapezoid():
    k = np.arange(1, 41)
    for R, theta in PRESETS:
        p = params_from(R, theta)
        want, rho = trapezoid_moments(p, 40, 8192)
        gap = np.abs(equilibrium_moments(p, 40).values - want)
        assert np.all(gap <= 8 * 2.0 ** -52 * rho ** k), (R, theta)


def exact_moments(b, k_max):
    """m_1..m_kmax of the closed form 2^-k sum_j C(k, j) b^(k-2j), each part
    correctly rounded. b = B / 2^s exactly, B a Gaussian integer, so
    2^(k(s+1)) m_k = B^(k mod 2) sum_j C(k, j) X^(k//2 - j) 4^(sj) with
    X = B^2, summed exactly by Horner in X on Python integers."""
    (nr, dr), (ni, di) = b.real.as_integer_ratio(), b.imag.as_integer_ratio()
    s = max(dr, di).bit_length() - 1
    br, bi = nr << (s - dr.bit_length() + 1), ni << (s - di.bit_length() + 1)
    xr, xi = br * br - bi * bi, 2 * br * bi
    out = np.empty(k_max, dtype=complex)
    for k in range(1, k_max + 1):
        gr, gi, c = 1, 0, 1
        for j in range(1, k // 2 + 1):
            c = c * (k - j + 1) // j                  # C(k, j)
            gr, gi = gr * xr - gi * xi + (c << 2 * s * j), gr * xi + gi * xr
        if k % 2:
            gr, gi = gr * br - gi * bi, gr * bi + gi * br
        den = 1 << k * (s + 1)
        out[k - 1] = complex(gr / den, gi / den)     # int / int rounds correctly
    return out


def test_equilibrium_moments_within_two_ulp():
    # every moment up to k = 500 is the correctly rounded closed form to
    # within 2 ulp of max(1, |m_k|): near-degenerate b (R = 1.01), a large
    # complex b, and |b| = 7.5 where m_500 is about 3e284
    for R, theta in PRESETS + [(1.01, 0.0), (3.0, 0.5), (7.6485, 1.4)]:
        p = params_from(R, theta)
        mv = equilibrium_moments(p, 500)
        want = exact_moments(p.b, 500)
        assert np.all(np.isfinite(want))
        ulp = np.spacing(np.maximum(1.0, np.abs(want)))
        assert np.max(np.abs(mv.values - want) / ulp) <= 2.0, (R, theta)
        assert np.array_equal(
            mv.values, np.ldexp(mv.mantissas.real, mv.exponents)
            + 1j * np.ldexp(mv.mantissas.imag, mv.exponents))


def mpmath_moments(p, k_max):
    """Reference for equilibrium_moments: the same recurrence run in mpmath
    floating point with the same guard bits, each g_k rounded to double
    mantissa and binary exponent once."""
    growth = abs(p.b) + 1.0 / abs(p.b)
    prec = 64 + math.ceil(math.log2(3 * k_max)
                          + k_max * max(0.0, math.log2(growth / 2)))
    mant = np.empty(k_max, dtype=complex)
    expo = np.empty(k_max, dtype=np.int64)
    with mp.workprec(prec):
        b = mp.mpc(p.b)
        inv_b = 1 / b
        c = b + inv_b
        g = mp.mpc(1)
        for k in range(k_max):
            mid = math.comb(k, k // 2)
            g = c * g - mid * inv_b if k % 2 == 0 else c * g + mid
            top = max(abs(g.real), abs(g.imag))
            e = mp.frexp(top)[1] if top else 0
            mant[k] = complex(float(mp.ldexp(g.real, -e)), float(mp.ldexp(g.imag, -e)))
            expo[k] = e - (k + 1)
    return mant, expo


@pytest.mark.parametrize("R,theta", PRESETS + [
    (1.001, 0.0), (1.01, 0.0), (12.0, 0.0), (3.0, 0.5), (7.6485, 1.4),
    (1.3, 1e-9), (1.3, -1e-9)])
def test_equilibrium_moments_bitwise_match_mpmath_recurrence(R, theta):
    # the integer fixed-point recurrence rounds every moment as the mpmath
    # one does; at (1.3, +-1e-9), Im b = -+1.3e-9 sits 28 binary orders
    # below Re b = -0.3
    p = params_from(R, theta)
    for k_max in (1, 2, 33, 500):
        mv = equilibrium_moments(p, k_max)
        mant, expo = mpmath_moments(p, k_max)
        assert np.array_equal(mv.mantissas, mant), (k_max, R, theta)
        assert np.array_equal(mv.exponents, expo), (k_max, R, theta)


def test_equilibrium_moments_beyond_double_range():
    # |b| = 11: m_k passes 1e308 near k = 420; the scaled form stays finite
    p = params_from(12.0, 0.0)
    mv = equilibrium_moments(p, 500)
    assert np.all(np.isfinite(mv.mantissas)) and np.isinf(mv.values[-1].real)
    top = np.maximum(np.abs(mv.mantissas.real), np.abs(mv.mantissas.imag))
    assert np.all((top >= 0.5) & (top < 1.0))
    k = 480
    with mp.workdps(40):
        exact = mp.mpf(0)
        for j in range(k // 2 + 1):
            exact += mp.binomial(k, j) * mp.mpf(p.b.real) ** (k - 2 * j)
        exact /= mp.mpf(2) ** k
        got = mp.ldexp(mp.mpf(mv.mantissas[k - 1].real), int(mv.exponents[k - 1]))
        assert abs(got / exact - 1) < 2 ** -52


def test_quadrature_identity_small_n():
    p = params_from(2.1, 0.2)
    zs = fz.compute_zeros(p, 12)
    res = quadrature_residuals(p, zs)
    assert len(res) == 12
    assert np.max(res) < 1e-12


def gate_tol(n):
    """verify's default quadrature threshold, 2^6 max(n, 16) eps."""
    return 2.0 ** 6 * max(n, 16) * EPS


def mpmath_quadrature_gate(zeros, moments):
    """Reference for the monomial form of the identity: the power sums of
    the double zeros summed exactly in mpmath, O(n^2) products at 30 + n/4
    digits, as max_k |mean(z_j^k) - m_k| / max(1, |m_k|)."""
    n = len(zeros)
    out = np.empty(n)
    with mp.workdps(30 + n // 4):
        zm = [mp.mpc(v) for v in zeros]
        pw = [mp.mpc(1) for _ in zm]
        inv_n = mp.mpf(1) / n
        for k in range(1, n + 1):
            acc = mp.mpc(0)
            for i, z in enumerate(zm):
                pw[i] *= z
                acc += pw[i]
            out[k - 1] = float(abs(acc * inv_n - mp.mpc(moments.values[k - 1])))
    return float(np.max(out / np.maximum(1.0, np.abs(moments.values[:n]))))


def mpmath_faber_means(p, zeros, ks):
    """Reference for quadrature_residuals at the degrees ks (ascending):
    |mean_j F_k(z_j)| of the double zeros at 30 digits, F_k = A^k + B^k - c^k
    with A, B = (w +- s)/a, c = -b/a, carried as running products from one
    k of ks to the next."""
    out = {}
    with mp.workdps(30):
        a, b = mp.mpc(p.a), mp.mpc(p.b)
        x = []
        for v in zeros:
            z = mp.mpc(v)
            s = mp.sqrt(z - 1) * mp.sqrt(z + 1)
            x += [(z - b + s) / a, (z - b - s) / a]
        pw = [mp.mpc(1)] * len(x)
        k0 = 0
        for k in ks:
            pw = [u * v ** (k - k0) for u, v in zip(pw, x)]
            k0 = k
            out[k] = float(abs(mp.fsum(pw) / len(zeros) - (-b / a) ** k))
    return out


# the verify benchmark's round of seed 1 and the presets from n = 60 to 500
GATE_CASES = list(dict.fromkeys([
    (1.26, 0.0, 120), (2.1, 0.2, 100), (2.1, 0.0, 150), (1.45, 0.2, 140),
    (1.26, 0.0, 300), (1.45, 0.2, 200), (1.689162, 0.9, 100),
    (1.05654, 0.0, 102), (1.142373, 0.110047, 112), (1.118339, -0.15535, 384),
    (1.119509, 0.115417, 492),
] + [(R, theta, n) for R, theta in PRESETS for n in (60, 100, 150, 200, 300, 500)]))


@functools.lru_cache(maxsize=None)
def gate_zeros(R, theta, n):
    return fz.compute_zeros(params_from(R, theta), n)


@pytest.mark.parametrize("R,theta,n", GATE_CASES)
def test_quadrature_gate_matches_mpmath(R, theta, n):
    # the first, last and middle degrees: the plain-double running products
    # lose at most a small fraction of n eps, and the exact means of the
    # accurate zeros are far below the threshold
    p = params_from(R, theta)
    zs = gate_zeros(R, theta, n)
    got = quadrature_residuals(p, zs)
    want = mpmath_faber_means(p, zs.zeros, sorted({1, 2, 3, n // 2, n - 1, n}))
    for k, v in want.items():
        assert abs(got[k - 1] - v) <= n * EPS / 4, (k, got[k - 1], v)
        assert v < gate_tol(n) / 8, (k, v)


def stepwise_power_sums(x, n):
    """Reference for measures._power_sums: every power x^(k+1) is x^k times
    x, one k at a time."""
    pw = x.copy()
    sums = np.empty(n, dtype=complex)
    for k in range(n):
        if k:
            pw *= x
        sums[k] = pw.sum()
    return sums


@pytest.mark.parametrize("R,theta,n", GATE_CASES + [
    (R, theta, n) for R, theta in PRESETS for n in (1, 7, 8, 9, 33, 499)])
def test_blocked_power_sums_match_stepwise(R, theta, n, monkeypatch):
    # later blocks are the block before times x^_ROWS; n = 1..499 is not a
    # multiple of the block length, so the last block is partial
    p = params_from(R, theta)
    zs = gate_zeros(R, theta, n)
    got = quadrature_residuals(p, zs)
    monkeypatch.setattr(measures, "_power_sums", stepwise_power_sums)
    want = quadrature_residuals(p, zs)
    assert len(got) == n
    assert np.max(np.abs(got - want)) <= n * EPS / 4


def test_quadrature_residuals_memory_stays_small():
    # the blocks of powers are (_ROWS, 2n) arrays, never n x n
    p = params_from(1.26, 0.0)
    zs = gate_zeros(1.26, 0.0, 500)
    tracemalloc.start()
    try:
        quadrature_residuals(p, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_quadrature_gate_finite_past_double_range():
    # m_k and z_j^k pass 1e308 here (|b| = 11); the Faber terms stay below 1
    p = params_from(12.0, 0.0)
    zs = fz.compute_zeros(p, 500)
    assert np.isinf(equilibrium_moments(p, 500).values[-1])
    res = quadrature_residuals(p, zs)
    assert np.all(np.isfinite(res))
    assert quadrature_gate(p, zs) == np.max(res) < gate_tol(500)


def planted_defects(R, theta, n):
    """Four wrong zero sets of the airfoil (R, theta) and degree n."""
    p = params_from(R, theta)
    zs = gate_zeros(R, theta, n).zeros
    short = gate_zeros(R, theta, n - 1).zeros
    moved, dup = zs.copy(), zs.copy()
    i = n // 2
    moved[i] += 1e-8 * max(1.0, abs(zs[i]))
    dup[i] = zs[i + 1]
    return {
        "other airfoil": fz.compute_zeros(params_from(R * (1 + 1e-6), theta), n).zeros,
        # the extra zero keeps the mean at b/2, so F_1 still averages to 0
        "F_(n-1) and one more": np.append(short, 0.5 * n * p.b - np.sum(short)),
        "one zero moved": moved,
        "one zero doubled": dup,
    }


@pytest.mark.parametrize("n", [40, 150, 500])
@pytest.mark.parametrize("R,theta", PRESETS)
def test_quadrature_gate_catches_planted_defects(R, theta, n):
    p = params_from(R, theta)
    assert report(p, gate_zeros(R, theta, n))["gates"]["quadrature"] is True
    for name, zeros in planted_defects(R, theta, n).items():
        rep = report(p, zeros)
        assert rep["gates"]["quadrature"] is False, (name, rep["quad_max_residual"])


# ---------------------------------------------------------------- densities

def test_pullback_density_normalizes():
    # integrate with the arcsine substitution x = cos t to kill the endpoint
    # singularity, Gauss-Legendre in t
    t, w = np.polynomial.legendre.leggauss(400)
    t = (t + 1) * (np.pi / 2)
    w = w * (np.pi / 2)
    for R in (1.1, 1.26, 1.5):
        p = params_from(R, 0.0)
        x = np.cos(t)
        total = np.sum(w * pullback_density(p, x) * np.sin(t))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_pullback_matches_ullman_form():
    for R in (1.1, 1.26, 1.5):
        p = params_from(R, 0.0)
        alpha = (R - 1) / 2
        x = np.linspace(-0.999, 0.999, 501)
        got = pullback_density(p, x)
        want = ullman_density(x, alpha)
        assert np.max(np.abs(got - want)) < 1e-12


def test_pullback_density_arcsine_limit():
    # b -> 0 washes out the airfoil asymmetry and leaves the plain arcsine law
    p = params_from(1.0 + 1e-9, 0.0)
    x = np.linspace(-0.95, 0.95, 41)
    ref = 1.0 / (np.pi * np.sqrt(1.0 - x * x))
    assert np.max(np.abs(pullback_density(p, x) / ref - 1.0)) < 1e-7


def test_pullback_density_domain_errors():
    p = params_from(1.26, 0.0)
    with pytest.raises(DomainError):
        pullback_density(p, 1.0)
    with pytest.raises(DomainError):
        pullback_density(p, np.array([0.0, -1.00001]))
    with pytest.raises(ParameterError):
        pullback_density(params_from(1.45, 0.2), 0.3)


# ---------------------------------------------------------------- predicted

def test_predicted_masses_frozen():
    pr = predicted(params_from(2.1, 0.0))
    assert pr.mass_segment == pytest.approx(0.3003965754379143, abs=1e-12)
    assert pr.mass_loop == pytest.approx(0.6996034245620857, abs=1e-12)
    pr = predicted(params_from(2.1, 0.2))
    assert pr.mass_segment == pytest.approx(0.38807134452611586, abs=1e-12)
    assert pr.mass_loop == pytest.approx(0.6119286554738841, abs=1e-12)
    pr = predicted(params_from(1.26, 0.0))
    assert pr.mass_segment == 1.0 and pr.mass_loop == 0.0


def test_mass_conservation_property():
    # the two component masses always sum to one, the loop only carries mass
    # past criticality, and the critical threshold itself puts everything on
    # the arc (asin(-1) = -pi/2)
    rng = np.random.default_rng(1608)
    pr = predicted(params_from(1.5, 0.0))
    assert pr.mass_segment == 1.0 and pr.mass_loop == 0.0
    checked = 0
    while checked < 24:
        theta = 0.0 if checked % 2 else rng.uniform(0.0, 1.1)
        R = rng.uniform(1.01, 3.5)
        if R * np.cos(theta) <= 1.0 + 1e-9:
            continue
        p = params_from(R, theta)
        pr = predicted(p)
        assert abs(pr.mass_segment + pr.mass_loop - 1.0) < 1e-10
        assert 0.0 < pr.mass_segment <= 1.0
        if R * np.cos(theta) > 1.5 + 1e-9:
            assert pr.mass_loop > 0.0
        elif R * np.cos(theta) < 1.5 - 1e-9:
            assert pr.mass_loop == 0.0
        checked += 1


# airfoils whose loop is shorter than half the circle and misses w = -1
# (first three), and steep rotations, given as (R cos theta, theta), where the
# sqrt(V) cut crosses the arc, so U(i_b) carries the other sign (last three)
BRANCH_AIRFOILS = [(1.674757, 0.3), (1.954339, 0.4), (5.511511, 1.1)] + [
    (rc / np.cos(theta), theta) for rc, theta in [(1.8, 1.5), (4.0, -1.4), (8.0, 1.3)]]


def test_predicted_densities_integrate_to_masses():
    for R, theta in [(2.1, 0.0), (2.1, 0.2)] + BRANCH_AIRFOILS:
        pr = predicted(params_from(R, theta), 4097)
        dz = np.abs(np.diff(pr.segment_z))
        mid = 0.5 * (pr.segment_density[1:] + pr.segment_density[:-1])
        assert np.sum(mid * dz) == pytest.approx(pr.mass_segment, abs=5e-4)
        dz = np.abs(np.diff(pr.loop_z))
        mid = 0.5 * (pr.loop_density[1:] + pr.loop_density[:-1])
        assert np.sum(mid * dz) == pytest.approx(pr.mass_loop, abs=5e-4)


def mu_moments_by_quadrature(p, k_max):
    """Moments of the predicted limit measure mu integrated directly, by
    512-point Gauss-Legendre on each component: the arcsine pullback
    u = cos s, s in [0, s_max], on the segment (density 1/pi in s), and the
    uniform angle on the loop arc (density 1/(2 pi))."""
    x, wq = np.polynomial.legendre.leggauss(512)
    case = classify(p)
    z = [arc_z_of_u(p, np.cos(case.s_max * (x + 1.0) / 2.0))]
    w = [wq * (case.s_max / 2.0) / np.pi]
    if case.tag is CaseTag.SUPERCRITICAL:
        th = case.start + case.span * (x + 1.0) / 2.0
        z.append(phi_b_inverse(p, np.exp(1j * th)))
        w.append(wq * (case.span / 2.0) / (2 * np.pi))
    z, w = np.concatenate(z), np.concatenate(w)
    return np.cumprod(np.broadcast_to(z, (k_max, len(z))), axis=0) @ w


def test_predicted_moments_equal_equilibrium_moments():
    # the limit measure keeps every moment of the equilibrium measure (it
    # has the same exterior potential): the n-point quadrature identity
    # survives n -> infinity for each fixed k, and every Faber moment of
    # mu is 0, as for omega_K
    for R, theta in PRESETS:
        p = params_from(R, theta)
        pm = mu_moments_by_quadrature(p, 20)
        em = equilibrium_moments(p, 20).values
        assert np.max(np.abs(pm - em)) < 1e-11
    for R, theta in BRANCH_AIRFOILS:
        p = params_from(R, theta)
        pm = mu_moments_by_quadrature(p, 20)
        em = equilibrium_moments(p, 20).values
        assert np.max(np.abs(pm - em) / np.abs(em)) < 1e-8, (R, theta)


def test_predicted_moments_within_two_ulp():
    # the moments verify compares the zeros with are the correctly rounded
    # closed form to within 2 ulp of max(1, |m_k|), not a quadrature of it
    for R, theta in PRESETS + BRANCH_AIRFOILS:
        p = params_from(R, theta)
        want = exact_moments(p.b, 20)
        ulp = np.spacing(np.maximum(1.0, np.abs(want)))
        assert np.max(np.abs(predicted_moments(p, 20) - want) / ulp) <= 2.0, (R, theta)


# ---------------------------------------------------------------- zero gates

def test_classify_zeros_mass_split():
    p = params_from(2.1, 0.0)
    zs = fz.compute_zeros(p, 100)
    labels = classify_zeros(p, zs)
    assert labels.count("segment") == 30
    assert labels.count("loop") == 70
    assert labels.count("other") == 0


def test_classify_zeros_labels_follow_the_distance_rule():
    # 'other' beyond 5/sqrt(n) of both polylines, else the closer one with
    # ties to the segment, as min() and <= read it (a NaN zero is 'loop')
    from faberzeros.limitsets import loop_points, polyline_min_dist, segment_points
    for R, theta in PRESETS:
        p = params_from(R, theta)
        z = fz.compute_zeros(p, 120).zeros
        z = np.concatenate([z, z[:20] + 0.4, [np.nan + 0j, 3.0 + 3.0j]])
        labels = classify_zeros(p, z)
        ds = polyline_min_dist(z, segment_points(p, 2048).samples)
        if R * np.cos(theta) > 1.5:
            dl = polyline_min_dist(z, loop_points(p, 2048).samples)
        else:
            dl = np.full(len(z), np.inf)
        radius = 5.0 / np.sqrt(len(z))
        want = ["other" if min(a, b) >= radius else "segment" if a <= b else "loop"
                for a, b in zip(ds, dl)]
        assert labels == want
        assert all(type(lab) is str for lab in labels)
        assert labels[-2:] == ["loop", "other"]


def distance_rule_labels(p, z):
    """The labels of the exact distance rule: 'other' at 5/sqrt(n) or more
    from both polylines, else the closer one, ties to the segment."""
    from faberzeros.limitsets import loop_points, polyline_min_dist, segment_points
    ds = polyline_min_dist(z, segment_points(p, 2048).samples)
    if fz.classify(p).tag is fz.CaseTag.SUPERCRITICAL:
        dl = polyline_min_dist(z, loop_points(p, 2048).samples)
    else:
        dl = np.full(len(z), np.inf)
    radius = 5.0 / np.sqrt(len(z))
    return ["other" if min(a, b) >= radius else "segment" if a <= b else "loop"
            for a, b in zip(ds, dl)]


def bounds_left_open(p, z):
    """Whether the distance bounds alone cannot label each z: its segment
    bracket straddles the radius or overlaps its loop bracket."""
    from faberzeros.limitsets import (
        _distance_range, _prepare_polyline, loop_points, segment_points)
    radius = 5.0 / np.sqrt(len(z))
    s_lo, s_hi = _distance_range(_prepare_polyline(segment_points(p, 2048).samples), z)
    l_lo, l_hi = _distance_range(_prepare_polyline(loop_points(p, 2048).samples), z)
    return (s_lo < radius) & (l_lo < radius) & (s_hi >= l_lo) & (l_hi >= s_lo)


def test_classify_zeros_decides_planted_ties_by_the_exact_rule():
    from faberzeros.limitsets import (
        _distance_range, _prepare_polyline, intersection_ib, loop_points,
        polyline_min_dist, segment_points)
    # 100 zeros: radius 5/sqrt(100) = 0.5. The segment of (1.26, 0) is
    # [-1, 1] on the real axis, so 0.3 + 0.5i lies exactly at the radius
    # ('other', as near >= radius reads it) and the next double below
    # inside it; the bounds bracket the radius and leave both to the
    # exact distance
    p = params_from(1.26, 0.0)
    seg = segment_points(p, 2048).samples
    at = np.array([0.3 + 0.5j, complex(0.3, np.nextafter(0.5, 0.0))])
    assert polyline_min_dist(at[0], seg) == 0.5
    z = np.concatenate([fz.compute_zeros(p, 98).zeros, at])
    lo, hi = _distance_range(_prepare_polyline(seg), at)
    assert np.all((lo < 0.5) & (0.5 <= hi))
    labels = classify_zeros(p, z)
    assert labels[-2:] == ["other", "segment"]
    assert labels == distance_rule_labels(p, z)

    # near i_b of (2.1, 0) both polylines are within the radius: walk a
    # small circle around i_b to where the segment and the loop distances
    # cross, down to adjacent doubles, so the two points are equidistant
    # to rounding and on either side of the tie
    p = params_from(2.1, 0.0)
    ib = intersection_ib(p)
    seg, loop = segment_points(p, 2048).samples, loop_points(p, 2048).samples

    def gap(t):
        zt = ib + 0.01 * np.exp(1j * t)
        return polyline_min_dist(zt, seg) - polyline_min_dist(zt, loop)

    a, b = 0.0, np.pi / 2
    assert gap(a) < 0 < gap(b)
    while np.nextafter(a, b) < b:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        a, b = (mid, b) if gap(mid) <= 0 else (a, mid)
    tie = ib + 0.01 * np.exp(1j * np.array([a, b]))
    z = np.concatenate([fz.compute_zeros(p, 97).zeros, tie, [np.nan + 0j]])
    assert np.all(bounds_left_open(p, tie))
    labels = classify_zeros(p, z)
    assert labels[-3:] == ["segment", "loop", "loop"]    # a NaN zero is 'loop'
    assert labels == distance_rule_labels(p, z)


@pytest.mark.parametrize("R,theta", [(1.5, 0.0), (2.1, 0.2)])
def test_classify_zeros_at_criticality_and_one_zero(R, theta):
    # the critical airfoil has no loop polyline; at n = 1 the radius is 5
    p = params_from(R, theta)
    for n in (1, 2, 40):
        z = fz.compute_zeros(p, n).zeros
        for pts in (z, z + 0.3, z + 6.0):
            assert classify_zeros(p, pts) == distance_rule_labels(p, pts), (n, pts)


@pytest.mark.slow
def test_bound_decisions_match_the_exact_rules_on_grid_g():
    # labels against the distance rule and the probe ring against the walk
    # one radius at a time, on R cos theta x theta x n, 240 points
    for rc in (1.001, 1.2, 1.4999, 1.5001, 1.6, 2.0, 4.0, 8.0):
        for theta in (0.0, 0.5, 1.0, 1.3, 1.5, -1.5):
            p = params_from(rc / np.cos(theta), theta)
            assert np.array_equal(default_test_points(p), scalar_test_points(p))
            for n in (7, 60, 99, 300, 500):
                z = fz.compute_zeros(p, n).zeros
                assert classify_zeros(p, z) == distance_rule_labels(p, z), (rc, theta, n)


def test_loop_fraction_matches_mass_with_sqrt_slack():
    # the near-loop count may miss the loop mass by O(sqrt n), never more:
    # |fraction - mass| <= 2/sqrt(n), on a loop through w = -1 longer than
    # half the circle and on one shorter than half that misses w = -1
    for R, theta, n, mass in [(2.1, 0.0, 70, 0.6996034245620857),
                              (1.674757, 0.3, 300, 0.280391820553059)]:
        p = params_from(R, theta)
        assert predicted(p).mass_loop == pytest.approx(mass, abs=1e-12)
        labels = classify_zeros(p, fz.compute_zeros(p, n))
        frac = labels.count("loop") / n
        assert abs(frac - mass) <= 2 / np.sqrt(n), (R, theta)


def test_weak_star_distance_shrinks():
    p = params_from(2.1, 0.2)
    w25 = weak_star_distance(p, fz.compute_zeros(p, 25))
    w100 = weak_star_distance(p, fz.compute_zeros(p, 100))
    assert w100.cdf_dist < w25.cdf_dist
    assert w100.cdf_dist < 0.05
    assert w100.moment_dist < 1e-9


@pytest.mark.parametrize("rc,theta", [(1.8, 1.5), (8.0, 1.3), (4.0, -1.4)])
def test_cdf_reads_u_on_the_arc_branch(rc, theta):
    # at these steep rotations the cut of sqrt(V) crosses the zero-carrying
    # piece, so Re U of a zero there has the wrong sign; the distance reads
    # 0.40-0.49 with it and below 0.01 with u signed by the nearer branch
    p = params_from(rc / np.cos(theta), theta)
    wsd = weak_star_distance(p, fz.compute_zeros(p, 300))
    assert wsd.cdf_dist < 0.01 < measures.CDF_GATE, wsd.cdf_dist


def test_potential_check_small_and_guarded():
    p = params_from(1.26, 0.0)
    zs = fz.compute_zeros(p, 40)
    devs = potential_check(p, zs)
    assert len(devs) == 8
    assert np.max(devs) < 1e-6
    with pytest.raises(DomainError):
        potential_check(p, zs, points=np.array([0.0 + 0j]))


def potential_per_probe(p, zs, points):
    """One phi call and one abs() per probe, as potential_check once did: the
    reference for its single call on every probe."""
    zarr = np.asarray(zs.zeros)
    lhs = np.mean(np.log(np.abs(points[:, None] - zarr)), axis=1)
    devs = np.empty(len(points))
    for i, z in enumerate(points):
        rhs = float(np.log(p.capacity) + np.log(abs(fz.phi(p, z))))
        devs[i] = abs(float(lhs[i]) - rhs)
    return devs


def assert_potential_matches_per_probe(p, n):
    zs = fz.compute_zeros(p, n)
    far = 1e3 * np.exp(1j * np.array([0.0, 2.1, -0.7]))
    got = [potential_check(p, zs), potential_check(p, zs, points=far)]
    want = [potential_per_probe(p, zs, default_test_points(p)),
            potential_per_probe(p, zs, far)]
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (p.R, p.theta, n)


@pytest.mark.parametrize("R,theta", PRESETS + [(2 / np.cos(1.5), 1.5),
                                               (8 / np.cos(-1.5), -1.5)])
def test_potential_check_matches_per_probe_loop(R, theta):
    p = params_from(R, theta)
    for n in (7, 60, 300):
        assert_potential_matches_per_probe(p, n)


@pytest.mark.slow
def test_potential_check_matches_per_probe_loop_on_grid_g():
    for rc in (1.001, 1.2, 1.4999, 1.5001, 1.6, 2.0, 4.0, 8.0):
        for theta in (0.0, 0.5, 1.0, 1.3, 1.5, -1.5):
            p = params_from(rc / np.cos(theta), theta)
            for n in (7, 60, 99, 300, 500):
                assert_potential_matches_per_probe(p, n)


def test_potential_far_field():
    # at |z| = 1e6 both sides of the comparison collapse to log|z|, so the
    # deviation is tiny no matter how few zeros went in
    p = params_from(1.26, 0.0)
    far = 1e6 * np.exp(1j * np.array([0.0, 2.1, -0.7]))
    for n in (15, 60):
        devs = potential_check(p, fz.compute_zeros(p, n), points=far)
        assert np.max(devs) < 1e-4


def test_default_test_points_keep_clearance():
    from faberzeros.conformal import boundary_samples
    from faberzeros.limitsets import polyline_min_dist
    for R, theta in [(1.26, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        pts = default_test_points(p, margin=0.2)
        d = polyline_min_dist(pts, boundary_samples(p, 1024))
        assert np.min(d) >= 0.2


def scalar_test_points(p, count=8, margin=0.2):
    """One direction at a time, one distance call per radius: the reference
    for default_test_points."""
    from faberzeros.conformal import boundary_samples
    from faberzeros.limitsets import polyline_min_dist
    boundary = boundary_samples(p, 1024)
    pts = []
    for k in range(count):
        w0 = np.exp(2j * np.pi * (k + 0.5) / count)
        r = 1.05
        z = psi(p, r * w0)
        while polyline_min_dist(z, boundary) < margin * 1.02 and r < 50.0:
            r *= 1.06
            z = psi(p, r * w0)
        pts.append(z)
    return np.array(pts, dtype=complex)


@pytest.mark.parametrize("R,theta", [
    (1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (5.4, 1.09), (1.08, 0.0),
    (1.689162, 0.9), (1.001, 0.0), (7.6485, 1.4)])
def test_default_test_points_match_scalar_loop(R, theta):
    p = params_from(R, theta)
    for count, margin in ((8, 0.2), (7, 0.2), (12, 0.5), (5, 3.0)):
        assert np.array_equal(default_test_points(p, count, margin),
                              scalar_test_points(p, count, margin))


def test_report_shape():
    p = params_from(2.1, 0.0)
    zs = fz.compute_zeros(p, 30)
    rep = report(p, zs)
    assert rep["case"] == "supercritical"
    assert list(rep) == ["n", "case", "masses", "moment_dist", "cdf_dist",
                         "quad_max_residual", "quad_tol", "potential_max_dev",
                         "counts", "gates", "pass"]
    assert rep["n"] == 30
    assert rep["quad_tol"] == 2.0 ** 6 * 30 * EPS
    assert list(rep["gates"]) == ["quadrature", "cdf", "potential", "unclassified",
                                  "mass_split"]
    assert rep["pass"] is all(rep["gates"].values())
    assert rep["counts"]["segment"] + rep["counts"]["loop"] \
        + rep["counts"]["other"] == 30
    assert rep["quad_max_residual"] < rep["quad_tol"]
    # plain arrays work too (the CSV re-verification path)
    rep2 = report(p, zs.zeros)
    assert rep2["counts"] == rep["counts"]
    # the tolerance defaults from n and can be overridden
    assert report(p, fz.compute_zeros(p, 61))["quad_tol"] == 2.0 ** 6 * 61 * EPS
    assert report(p, fz.compute_zeros(p, 10))["quad_tol"] == 2.0 ** 6 * 16 * EPS
    strict = report(p, zs, tol_quad=1e-30)
    assert strict["quad_tol"] == 1e-30
    assert strict["gates"]["quadrature"] is False and strict["pass"] is False
    # subcritical: no mass split gate
    p1 = params_from(1.26, 0.0)
    assert "mass_split" not in report(p1, fz.compute_zeros(p1, 20))["gates"]
