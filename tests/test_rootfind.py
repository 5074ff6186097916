"""Root finders: simultaneous iteration, seeded pipeline, cross checks."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

import faberzeros as fz
from faberzeros import rootfind
from faberzeros.conformal import params_from
from faberzeros.errors import MismatchError
from faberzeros.faber import (
    PolyCoeffs, faber_closed, faber_coeffs_mp, residual, scaled_residual,
)
from faberzeros.limitsets import arc_z_of_u
from faberzeros.rootfind import (
    Method, compute_zeros, cross_check, roots_seeded, roots_simultaneous,
    seed_plan,
)

ULP_512 = 512 * 2.0 ** -52     # "near machine precision": 2^9 ulp of max(1, |z|)


def forward_errors(p, n, z):
    """|F_n(z) / F_n'(z)| at each double z, by Horner in mpmath on the
    mpmath coefficients (the oracle route, not the closed form the seeded
    solver polishes with)."""
    dps = 50 + n
    co = faber_coeffs_mp(p, n, dps=dps)
    out = []
    with mp.workdps(dps):
        for v in np.atleast_1d(z):
            zm = mp.mpc(complex(v))
            f, df = co[-1], mp.mpc(0)
            for c in co[-2::-1]:
                df = df * zm + f
                f = f * zm + c
            out.append(float(abs(f / df)))
    return np.array(out)


def closed_form_forward_errors(p, n, z):
    """|F_n(z) / F_n'(z)| at each double z, on the closed form
    (w+s)^n + (w-s)^n - (-b)^n, w = z - b, s^2 = z^2 - 1, in mpmath with 30
    digits plus the decades by which |b|^n exceeds max |w +- s|^n. Cheaper than
    forward_errors at high degree."""
    out = []
    for v in np.atleast_1d(z):
        v = complex(v)
        sd = np.sqrt(v - 1.0 + 0j) * np.sqrt(v + 1.0 + 0j)
        big = max(abs(v - p.b + sd), abs(v - p.b - sd))
        excess = n * (math.log10(abs(p.b)) - math.log10(big)) if big else 0.0
        with mp.workdps(30 + max(0, math.ceil(excess))):
            zm, bm = mp.mpc(v), mp.mpc(p.b)
            sm = mp.sqrt(zm - 1) * mp.sqrt(zm + 1)
            wm = zm - bm
            p1 = (wm + sm) ** (n - 1)
            p2 = (wm - sm) ** (n - 1)
            f = p1 * (wm + sm) + p2 * (wm - sm) - (-bm) ** n
            df = n * (p1 * (sm + zm) + p2 * (sm - zm)) / sm
            out.append(float(abs(f / df)))
    return np.array(out)


def coeffs_from_roots(roots):
    co = np.array([1.0 + 0j])
    for r in roots:
        co = np.convolve(co, np.array([-r, 1.0 + 0j]))
    return PolyCoeffs(len(roots), co)


def test_simultaneous_known_cubic():
    zs = roots_simultaneous(coeffs_from_roots([1.0, 2.0, 3.0]))
    assert np.allclose(np.sort(zs.zeros.real), [1, 2, 3], atol=1e-12)
    assert np.max(np.abs(zs.zeros.imag)) < 1e-12
    assert zs.method is Method.SIMULTANEOUS


def test_simultaneous_degree_one():
    zs = roots_simultaneous(PolyCoeffs(1, np.array([2.0 + 0j, 4.0 + 0j])))
    assert zs.zeros[0] == pytest.approx(-0.5)


def test_simultaneous_random_recovery():
    rng = np.random.default_rng(41)
    for trial in range(8):
        roots = rng.normal(size=8) + 1j * rng.normal(size=8)
        zs = roots_simultaneous(coeffs_from_roots(roots))
        got = np.sort_complex(zs.zeros)
        want = np.sort_complex(roots)
        # sort_complex can disagree on near-ties; match greedily instead
        d = np.abs(got[:, None] - want[None, :])
        assert np.max(np.min(d, axis=1)) < 1e-8


def test_faber_cubic_frozen_roots():
    p = params_from(1.26)
    zs = roots_simultaneous(faber_closed(p, 3))
    re = np.sort(zs.zeros.real)
    assert np.allclose(re, [-0.9217408998381668, -0.2631472819600925,
                            0.7948881817982593], atol=1e-12)
    assert np.max(np.abs(zs.zeros.imag)) < 1e-12


def test_zero_mean_is_half_b():
    # sum of zeros = n * m_1 = n b / 2, read off the second-highest coefficient
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        for n in (10, 35):
            zs = compute_zeros(p, n)
            assert np.mean(zs.zeros) == pytest.approx(p.b / 2, abs=1e-9)


def test_residual_gate_small_everywhere():
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (1.5, 0.0)]:
        p = params_from(R, theta)
        zs = compute_zeros(p, 40)
        assert zs.n == 40
        assert len(zs.zeros) == 40
        assert np.max(zs.residuals) < 1e-10


def test_seeded_matches_simultaneous():
    for R, theta in [(2.1, 0.0), (2.1, 0.2), (1.26, 0.0)]:
        p = params_from(R, theta)
        for n in (20, 45):
            a = roots_simultaneous(faber_closed(p, n))
            b = roots_seeded(p, n)
            rep = cross_check(a, b, tol=1e-7)
            assert rep.max_distance < 1e-7


def test_seeded_large_degree_all_cases():
    for R, theta in [(2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (1.5, 0.0)]:
        p = params_from(R, theta)
        zs = roots_seeded(p, 90)
        assert zs.n == 90
        assert np.max(zs.residuals) < 1e-9
        assert np.mean(zs.zeros) == pytest.approx(p.b / 2, abs=1e-8)


def test_seed_plan_counts():
    p = params_from(2.1, 0.0)
    plan = seed_plan(p, 70)
    # about n (1 - span/2pi) brackets and n span/2pi loop seeds
    assert plan.count >= 70
    assert plan.count <= 72
    assert len(plan.loop_seeds) == 49
    assert plan.u_lo == pytest.approx(0.5867768595041323, abs=1e-12)
    sub = seed_plan(params_from(1.26, 0.0), 30)
    assert len(sub.loop_seeds) == 0
    assert len(sub.segment_brackets) == 30


def test_zeros_are_sorted_and_deterministic():
    p = params_from(2.1, 0.2)
    a = compute_zeros(p, 33)
    b = compute_zeros(p, 33)
    assert np.array_equal(a.zeros, b.zeros)
    order = np.lexsort((a.zeros.imag, a.zeros.real))
    assert np.array_equal(order, np.arange(33))


def test_compute_zeros_dispatch():
    # the seeded route serves every degree; the coefficient route is the oracle
    p = params_from(1.26, 0.0)
    assert compute_zeros(p, 12).method is Method.SEEDED
    assert compute_zeros(p, 61).method is Method.SEEDED
    assert roots_simultaneous(faber_closed(p, 12)).method is Method.SIMULTANEOUS
    with pytest.raises(ValueError):
        compute_zeros(p, 0)


def test_dedup_matches_greedy_loop():
    # the windowed _dedup keeps exactly what the plain greedy loop keeps
    from faberzeros.rootfind import DISTINCT_TOL, _dedup, _sorted

    def greedy(z):
        kept = []
        for v in _sorted(z):
            if all(abs(v - k) > DISTINCT_TOL for k in kept):
                kept.append(complex(v))
        return np.array(kept, dtype=complex)

    rng = np.random.default_rng(7)
    for trial in range(300):
        base = rng.normal(size=30) + 1j * rng.normal(size=30)
        if trial % 3 == 0:
            base = base.real + 0j            # ties in the real part
        jitter = rng.normal(size=12) + 1j * rng.normal(size=12)
        near = base[rng.integers(0, 30, size=12)] + jitter * 10.0 ** rng.integers(-10, -6, size=12)
        z = np.concatenate([base, near, np.conj(base[:10])])
        assert np.array_equal(_dedup(z), greedy(z))
    assert len(_dedup(np.empty(0, complex))) == 0


def test_cross_check_mismatch():
    p = params_from(1.26, 0.0)
    a = compute_zeros(p, 10)
    b = compute_zeros(p, 11)
    with pytest.raises(MismatchError):
        cross_check(a, b)
    shifted = fz.ZeroSet(10, a.zeros + 0.5, a.residuals, a.method)
    with pytest.raises(MismatchError) as ei:
        cross_check(a, shifted, tol=1e-3)
    assert ei.value.unmatched
    # tied distances: greedy matching takes the first closest pair in
    # row-major order, (0, 0), which leaves 1 to pair with -0.5 at 1.5; the
    # other tie, (0, 1), would have matched everything at 0.5
    a = fz.ZeroSet(2, np.array([0.0, 1.0 + 0j]), np.zeros(2), Method.SEEDED)
    b = fz.ZeroSet(2, np.array([0.5, -0.5 + 0j]), np.zeros(2), Method.SEEDED)
    rep = cross_check(a, b, tol=2.0)
    assert (rep.max_distance, rep.mean_distance) == (1.5, 1.0)
    with pytest.raises(MismatchError) as ei:
        cross_check(a, b, tol=1.0)
    assert ei.value.unmatched == [(1 + 0j, -0.5 + 0j)]
    assert str(ei.value) == "1 zero pair(s) farther than 1; worst 1.500e+00: (1+0j) vs (-0.5+0j)"
    # a tie among three: each row takes its first free column
    a = fz.ZeroSet(3, np.array([0j, 0j, 0j]), np.zeros(3), Method.SEEDED)
    b = fz.ZeroSet(3, np.array([1, 1j, -1 + 0j]), np.zeros(3), Method.SEEDED)
    assert cross_check(a, b, tol=1.0).max_distance == 1.0
    c = fz.ZeroSet(3, np.array([1, 1j, -3 + 0j]), np.zeros(3), Method.SEEDED)
    with pytest.raises(MismatchError) as ei:
        cross_check(a, c, tol=1.0)
    assert ei.value.unmatched == [(0j, -3 + 0j)]


# the next four, given as (R cos theta, theta, n), need the seed plan's u_lo
# sign and loop arc to agree at steep rotations; at (8, -1.5, 99) Newton on
# the Chebyshev form 2 T_n(U) - (-b/sqrt(V))^n left a zero 556 ulp off
STEEP = [(5.428131, 1.09256, 292), (4.679281, 1.081578, 281)] + [
    (rc / np.cos(theta), theta, n)
    for rc, theta, n in [(1.8, 1.5, 99), (1.8, -1.5, 99), (4.0, 1.4, 150), (8.0, 1.3, 99),
                         (8.0, -1.5, 99)]]


def test_newton_z_stops_each_zero_at_the_rounding_floor(monkeypatch):
    # the residual's rounding floor keeps the largest step near 1e-14 here,
    # 2e-15 of 1 + |z|, so a stop on max |step| < 1e-15 max(1 + |z|) ran
    # all 80 iterations (81 calls)
    R, theta, n = STEEP[0]
    p = params_from(R, theta)
    ts = seed_plan(p, n)._ts
    seeds = arc_z_of_u(p, np.cos(0.5 * (ts[:, 0] + ts[:, 1])))
    calls = []

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(rootfind, "residual", counted)
    found = rootfind._newton_z(p, n, seeds)
    assert len(calls) <= 15
    assert len(found) == len(seeds)


@pytest.mark.parametrize("R,theta,n", STEEP)
def test_steep_zeros_within_512_ulp(R, theta, n):
    p = params_from(R, theta)
    zs = compute_zeros(p, n)
    assert zs.n == n
    assert _rel_ulp_ok(p, n, zs.zeros), (R, theta, n)


def test_seed_plan_maps_z_brackets_only_on_real_airfoils():
    for (R, theta), real in (((2.1, 0.2), False), ((1.45, 0.2), False),
                             ((2.1, 0.0), True), ((1.26, 0.0), True)):
        plan = seed_plan(params_from(R, theta), 90)
        assert plan.count == len(plan._ts) + len(plan.loop_seeds)
        assert plan.segment_brackets.shape == ((len(plan._ts) if real else 0), 2)


def test_real_case_zeros_stay_real_high_degree():
    # zeros of the real subcritical airfoil lie on [-1, 1] even through the
    # seeded (bisection) path
    p = params_from(1.26, 0.0)
    zs = roots_seeded(p, 70)
    assert np.max(np.abs(zs.zeros.imag)) < 1e-10
    assert zs.zeros.real.min() > -1.0
    assert zs.zeros.real.max() < 1.0


def test_real_case_zeros_closed_under_conjugation():
    # theta = 0 keeps the polynomial real, so complex loop zeros must show up
    # in conjugate pairs
    p = params_from(2.1, 0.0)
    z = roots_seeded(p, 45).zeros
    gap = np.min(np.abs(np.conj(z)[:, None] - z[None, :]), axis=1)
    assert np.max(gap) < 1e-9


def test_real_supercritical_segment_not_polluted():
    # regression: the two-to-one branch of U used to leak fake bisection
    # roots near -1 (between the loop and the segment, far off both). Every
    # zero must now classify onto a predicted component with tiny residual.
    p = params_from(2.1, 0.0)
    zs = roots_seeded(p, 70)
    labels = fz.classify_zeros(p, zs)
    assert labels.count("other") == 0
    lo = 1.0 / (2 * p.b.real)
    seg = zs.zeros[[lab == "segment" for lab in labels]]
    assert np.max(np.abs(seg.imag)) < 1e-10
    assert seg.real.min() > lo - 1e-6
    assert np.max(scaled_residual(p, 70, zs.zeros)) < 1e-9


@pytest.mark.parametrize("R", [1.05, 1.26, 1.4])
def test_odd_degree_real_zero_near_b(R):
    # theta = 0, odd n: one zero sits within |b|^n of z = b, where U(z) = 0;
    # the seeded route used to return it 5e-10 off
    p = params_from(R, 0.0)
    for n in (7, 23, 45, 61, 99):
        zs = compute_zeros(p, n)
        z = zs.zeros[np.argmin(np.abs(zs.zeros - p.b))]
        assert z.imag == 0.0
        fe = forward_errors(p, n, z)[0]
        assert fe <= ULP_512 * max(1.0, abs(z)), (R, n, z, fe)


# (R cos theta, theta, n) where double-precision Newton leaves a zero between
# 1.5e-13 and 1.2e-11 off: steep rotations, mostly above criticality
STEEP_CASES = [(1.5, 1.5, 42), (1.51, 1.5, 50), (1.8, 1.5, 14), (1.8, -1.5, 14),
               (2.5, 1.5, 26), (4.0, 1.5, 22), (4.0, -1.5, 26)]


def test_accuracy_sweep_includes_steep_rotations():
    # every zero near machine precision on both sides of the critical
    # R cos(theta) = 3/2 and at theta = +-1.5, where the mpmath polish
    # finishes what double precision cannot
    grid = [(rc, th, n) for rc in (1.02, 1.49, 1.51, 2.5)
            for th in (0.3, 1.5, -1.5) for n in (6, 17)]
    for rc, theta, n in grid + STEEP_CASES:
        p = params_from(rc / math.cos(theta), theta)
        zs = compute_zeros(p, n)
        assert zs.n == n and len(np.unique(zs.zeros)) == n
        rel = forward_errors(p, n, zs.zeros) / np.maximum(1.0, np.abs(zs.zeros))
        assert np.max(rel) <= ULP_512, (rc, theta, n, np.max(rel))
        assert np.mean(zs.zeros) == pytest.approx(p.b / 2, abs=1e-12 * abs(p.b))


def test_high_degree_near_pole_stays_finite_and_quiet():
    # a zero close to c, where U has its pole, used to overflow x^n: 105
    # RuntimeWarnings and one NaN residual
    p = params_from(3.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zs = compute_zeros(p, 500)
    assert zs.n == 500
    assert np.all(np.isfinite(zs.residuals))


def t_bisect_reference(p, n, brackets):
    """Reference for rootfind._newton_real: 60 bisection steps on t = arccos u
    over the seed plan's t-brackets, inverting U (arc_z_of_u) at every step,
    as the segment solve did before it worked on the z-brackets directly."""
    ts = seed_plan(p, n)._ts
    assert len(ts) == len(brackets)

    def f(t):
        z = arc_z_of_u(p, np.cos(t)).real
        return residual(p, n, z + 0j)[0].real, z

    tlo, thi = ts[:, 0].copy(), ts[:, 1].copy()
    flo, _ = f(tlo)
    fhi, _ = f(thi)
    good = np.sign(flo) * np.sign(fhi) < 0
    tlo, thi, flo = tlo[good], thi[good], flo[good]
    for _ in range(60):
        tm = 0.5 * (tlo + thi)
        fm, _ = f(tm)
        left = np.sign(fm) == np.sign(flo)
        tlo = np.where(left, tm, tlo)
        flo = np.where(left, fm, flo)
        thi = np.where(left, thi, tm)
    _, z = f(0.5 * (tlo + thi))
    z = z.astype(complex)
    return z[np.atleast_1d(scaled_residual(p, n, z)) < 1e-6]


def _rel_ulp_ok(p, n, z):
    rel = closed_form_forward_errors(p, n, z) / np.maximum(1.0, np.abs(z))
    return not len(z) or np.max(rel) <= ULP_512


# real airfoils from near-degenerate to far above criticality (R = 1.5 is
# critical, and on either side of it the brackets are near-degenerate),
# degrees on both sides of 100, where ipow switches to squaring
SEGMENT_RS = (1.001, 1.05, 1.26, 1.4999, 1.5, 1.5001, 2.1, 12.0)
SEGMENT_NS = (1, 2, 7, 8, 61, 99, 100, 145, 499, 500)


@pytest.mark.parametrize("R", SEGMENT_RS)
def test_segment_bisection_in_z_matches_t_reference(R, monkeypatch):
    # the segment solve is bracketed Newton in z now; the name is kept from
    # when it bisected, against the same t-bisection reference
    p = params_from(R, 0.0)
    for n in SEGMENT_NS:
        plan = seed_plan(p, n)
        assert plan.segment_brackets.shape == (len(plan._ts), 2)
        raw = rootfind._newton_real(p, n, plan.segment_brackets)
        assert len(raw) == len(t_bisect_reference(p, n, plan.segment_brackets))
        assert np.all(raw.imag == 0.0)
        assert _rel_ulp_ok(p, n, raw), (R, n)
        new = compute_zeros(p, n)
        with monkeypatch.context() as m:
            m.setattr(rootfind, "_newton_real", t_bisect_reference)
            old = compute_zeros(p, n)
        assert new.n == old.n == n
        assert _rel_ulp_ok(p, n, new.zeros), (R, n)
        assert _rel_ulp_ok(p, n, old.zeros), (R, n)


# (1.001, 1): the residual is exactly 0 at an iterate; stepping on from it to
# the midpoint of the shrunk bracket left the zero 5.6e5 ulp off.
# (1.26, 8) and (1.4, 33): iterates within rounding of a zero (residual about
# 1e-15) become bracket ends, and Newton from the other side lands on or past
# them; the midpoint there, in place of the clamped regula-falsi point, left
# a zero 8.6e3 ulp off at (1.4, 33).
@pytest.mark.parametrize("R,n", [(1.001, 1), (1.26, 8), (1.4, 33)])
def test_segment_newton_keeps_exact_zeros_and_bracket_ends(R, n):
    p = params_from(R, 0.0)
    raw = rootfind._newton_real(p, n, seed_plan(p, n).segment_brackets)
    assert len(raw) and _rel_ulp_ok(p, n, raw), (R, n)


def test_segment_newton_needs_few_residual_calls(monkeypatch):
    # 60 fixed bisection steps plus the two bracket ends made 62 calls
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return residual(*args)

    monkeypatch.setattr(rootfind, "residual", counted)
    for R in SEGMENT_RS:
        p = params_from(R, 0.0)
        for n in SEGMENT_NS:
            brackets = seed_plan(p, n).segment_brackets
            calls = 0
            rootfind._newton_real(p, n, brackets)
            assert calls <= 10, (R, n, calls)


# just above criticality the seeds miss a few zeros: the w-plane Newton lands
# two loop seeds on one zero, or the bisection misses a bracket
NEAR_CRITICAL = [(1.5001, 0.0, 299), (1.5001, 0.0, 401), (1.5001, 0.0, 499),
                 (1.501, 0.0, 99), (1.501, 0.0, 150), (1.501, -0.7, 250)]

# low degree at steep rotation, where the limit set is far from the zeros and
# the seeds find few or none of them (at (8, +-1.5) none for n <= 24)
STEEP_LOW = [(8.0, th, n) for th in (1.5, -1.5) for n in (7, 12, 24, 60)] + [
    (4.0, 1.48, n) for n in (6, 12, 20, 24)]


@pytest.mark.parametrize("rc,theta,n", NEAR_CRITICAL + STEEP_LOW)
def test_missed_zeros_completed_without_coefficients(rc, theta, n, no_coefficient_route):
    p = params_from(rc / math.cos(theta), theta)
    zs = compute_zeros(p, n)
    assert len(np.unique(zs.zeros)) == n
    assert np.max(zs.residuals) <= rootfind.RESIDUAL_GATE
    assert _rel_ulp_ok(p, n, zs.zeros), (rc, theta, n)


@pytest.mark.parametrize("n", [5, 11, 101, 497])
def test_double_zero_at_ib_kept_twice(n):
    # at R = 2, theta = 0, b = -1 and F_n has a double zero at i_b = -1/2
    # for n = 5 (mod 6); deflation finds its second copy, which must not be
    # merged into the first
    zs = compute_zeros(params_from(2.0, 0.0), n)
    assert zs.n == n == len(zs.zeros)
    assert np.sum(np.abs(zs.zeros + 0.5) < 1e-7) == 2
