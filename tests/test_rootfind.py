"""Root finders: simultaneous iteration, seeded pipeline, cross checks."""

import math
import os
import subprocess
import sys
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
from faberzeros.limitsets import arc_z_of_u, classify
from test_measures import BRANCH_AIRFOILS
from faberzeros.rootfind import (
    Method, compute_zeros, cross_check, roots_seeded, roots_simultaneous,
    seed_plan,
)

ULP_512 = 512 * 2.0 ** -52     # "near machine precision": 2^9 ulp of max(1, |z|)


def forward_errors(p, n, z):
    """|F_n(z) / F_n'(z)| at each double z, by Horner in mpmath on the
    mpmath coefficients (the oracle route, not the closed form the seeded
    solver works on)."""
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
    forward_errors at high degree. At z = +-1, where s = 0, F_n' is the
    limit n (2 w^(n-1) + 2 (n-1) z w^(n-2))."""
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
            if sm == 0:
                df = n * (2 * wm ** (n - 1) + 2 * (n - 1) * zm * wm ** (n - 2))
            else:
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
    # 22 brackets, the last one [21 pi/70, s_max] cut at u_lo; it holds no
    # zero, so its seed is dropped, and the last seed is the node of the 21st
    assert classify(p).u_lo == pytest.approx(0.5867768595041323, abs=1e-12)
    assert 21 * np.pi / 70 < classify(p).s_max < 22 * np.pi / 70
    assert len(plan.arc_seeds) == 21 and plan.count == 70
    assert plan.arc_seeds[-1] == arc_z_of_u(p, np.cos(0.5 * (20 * np.pi / 70 + 21 * np.pi / 70)))[0]
    sub = seed_plan(params_from(1.26, 0.0), 30)
    assert len(sub.loop_seeds) == 0
    assert len(sub.arc_seeds) == 30


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


def dedup_loop(z, tol=rootfind.DISTINCT_TOL):
    """Reference for rootfind._dedup: the windowed greedy loop it replaced,
    one Python iteration per zero with a neighbour within 2 tol in Re."""
    z = rootfind._sorted(z)
    hi = np.searchsorted(z.real, z.real + 2.0 * tol, side="right")
    keep = np.ones(len(z), dtype=bool)
    for i in np.nonzero(hi > np.arange(1, len(z) + 1))[0]:
        if keep[i]:
            keep[i + 1:hi[i]] &= np.abs(z[i + 1:hi[i]] - z[i]) > tol
    return z[keep]


def greedy(z, tol=rootfind.DISTINCT_TOL):
    kept = []
    for v in rootfind._sorted(z):
        if all(abs(v - k) > tol for k in kept):
            kept.append(complex(v))
    return np.array(kept, dtype=complex)


def _dedup_cases():
    tol = rootfind.DISTINCT_TOL
    rng = np.random.default_rng(7)
    cases = []
    for trial in range(300):                 # random clustered sets
        base = rng.normal(size=30) + 1j * rng.normal(size=30)
        if trial % 3 == 0:
            base = base.real + 0j            # ties in the real part
        jitter = rng.normal(size=12) + 1j * rng.normal(size=12)
        near = base[rng.integers(0, 30, size=12)] + jitter * 10.0 ** rng.integers(-10, -6, size=12)
        cases.append(np.concatenate([base, near, np.conj(base[:10])]))
    for trial in range(50):                  # tight clusters, many pairs within tol
        centres = rng.normal(size=5) + 1j * rng.normal(size=5)
        cases.append(centres[rng.integers(0, 5, size=40)]
                     + tol * (rng.normal(size=40) + 1j * rng.normal(size=40)))
    z = rng.normal(size=20) + 1j * rng.uniform(1.0, 2.0, size=20)
    cases.append(np.concatenate([z, np.conj(z), z.real + 0j]))   # exact conjugate pairs
    cases.append(np.concatenate([z, np.conj(z), z]))             # and exact repeats
    for f in (0.5, 1.5):                     # neighbours in Re, Im and both
        cases += [np.array([0.3 + 0.1j, 0.3 + f * tol + 0.1j]),
                  np.array([0.3 + 0.1j, 0.3 + (0.1 + f * tol) * 1j]),
                  np.array([0.3 + 0.1j, 0.3 + 0.1j + f * tol * np.exp(0.7j)])]
    cases += [np.array([0.2, 0.2 + 0.8 * tol, 0.2 + 1.6 * tol]) + 0j,   # a~b~c, a!~c
              0.2 + 1j * np.array([0.0, 0.8, 1.6]) * tol,
              -0.5 + 1j * np.linspace(-1.0, 1.0, 41),                  # equal real parts
              -0.5 + 1j * tol * np.arange(-10, 11) * 0.6,
              np.empty(0, complex), np.array([0.25 - 0.5j])]
    return cases


def test_dedup_matches_greedy_loop():
    # the vectorised _dedup keeps bit for bit what the windowed loop it
    # replaced and the plain greedy loop keep; it returns the indices of the
    # zeros it keeps, in the order it keeps them
    from faberzeros.rootfind import _dedup

    cases = _dedup_cases()
    for z in cases:
        got = z[_dedup(z)]
        assert np.array_equal(got, dedup_loop(z)), z
        assert np.array_equal(got, greedy(z)), z
    tol = rootfind.DISTINCT_TOL
    assert len(_dedup(cases[-2])) == 0 and len(_dedup(cases[-1])) == 1
    z = np.array([0.2, 0.2 + 0.8 * tol, 0.2 + 1.6 * tol]) + 0j
    assert np.array_equal(_dedup(z[::-1]), [2, 0])


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
    # all 80 iterations (80 residual calls); the solver calls the residual's
    # errstate-free core, so that is what is counted
    R, theta, n = STEEP[0]
    p = params_from(R, theta)
    seeds = seed_plan(p, n).arc_seeds
    calls = []
    core = rootfind._residual

    def counted(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(rootfind, "_residual", counted)
    with np.errstate(all="ignore"):
        found, lost = rootfind._newton_z(p, n, seeds)
    assert len(calls) <= 14
    assert len(found) == len(seeds) and not lost.any()
    assert np.all(np.abs(residual(p, n, found)[0]) < 1e-6)


@pytest.mark.parametrize("R,theta,n", STEEP)
def test_steep_zeros_within_512_ulp(R, theta, n):
    p = params_from(R, theta)
    zs = compute_zeros(p, n)
    assert zs.n == n
    assert _rel_ulp_ok(p, n, zs.zeros), (R, theta, n)


PRESETS = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2)]
FINAL_STAGE = [(R, theta, n) for R, theta in PRESETS for n in (40, 100, 300)] + STEEP


def test_final_stage_residuals_match_scaled_residual():
    # the final stage reads each zero's residual off its grades; the
    # residual it returns is scaled_residual's bit for bit
    for R, theta, n in FINAL_STAGE:
        p = params_from(R, theta)
        zs = compute_zeros(p, n)
        want = scaled_residual(p, n, zs.zeros)
        assert np.array_equal(zs.residuals.view(np.uint64), want.view(np.uint64)), (R, theta, n)


def test_tighten_grades_the_zeros_it_returns(monkeypatch):
    # the grades (scaled residual, r and r') of the zeros Newton moved come
    # from their new values, the others' from the one evaluation before.
    # Newton's first pass steps from the grades' r and r', so of its 8
    # passes at most 7 call the residual (the solver's errstate-free core),
    # and one more closed-form call grades the moved zeros
    calls = 0
    core = rootfind._residual

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(rootfind, "_residual", counted)
    for R, theta, n in FINAL_STAGE:
        p = params_from(R, theta)
        z = compute_zeros(p, n).zeros.copy()
        z[::7] += 1e-9 * (1.0 + 1.0j)
        with np.errstate(all="ignore"):
            grades = rootfind._grade(p, n, z)
            calls = 0
            zt, (res, r, dr) = rootfind._tighten(p, n, z, grades)
            assert 1 <= calls <= 7, (R, theta, n, calls)
            want = rootfind._grade(p, n, zt)
        assert np.any(zt[::7] != z[::7]) and np.array_equal(zt[1::7], z[1::7])
        assert len(want) == 3
        for got, exp in zip((res, r, dr), want):
            assert np.array_equal(got.view(np.uint64), exp.view(np.uint64)), (R, theta, n)
        want = scaled_residual(p, n, zt)
        assert np.array_equal(res.view(np.uint64), want.view(np.uint64)), (R, theta, n)


def test_final_stage_skips_zeros_a_step_cannot_move(monkeypatch):
    # at high degree TIGHTEN_GATE sits at the closed form's rounding floor:
    # the zeros above it have a Newton step below one ulp of 1 + |z|, and the
    # final stage re-polished them by rounding alone, with one Newton and one
    # _grade call. Now it evaluates nothing there
    counts = []
    inside = [False]
    tighten = rootfind._tighten

    def counted_tighten(*args):
        counts.append(0)
        inside[0] = True
        try:
            return tighten(*args)
        finally:
            inside[0] = False

    def counting(fn):
        def wrapped(*args, **kwargs):
            if inside[0]:
                counts[-1] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(rootfind, "_tighten", counted_tighten)
    monkeypatch.setattr(rootfind, "_grade", counting(rootfind._grade))
    monkeypatch.setattr(rootfind, "_newton_z", counting(rootfind._newton_z))
    for R, theta in [(1.26, 0.0), (1.45, 0.2)]:
        for n in (40, 100, 300):
            counts.clear()
            compute_zeros(params_from(R, theta), n)
            assert counts[-1] == 0, (R, theta, n, counts)
    monkeypatch.undo()
    # a zero a step can move is still moved back: three zeros shifted by
    # 1e-13, 1e-12 and 4e-16 (1.8 ulp, above one ulp of 1 + |z| at the
    # smallest |z|) of max(1, |z|) return within one ulp; the rest stay
    p, n = params_from(1.45, 0.2), 300
    z0 = compute_zeros(p, n).zeros
    idx = [0, n // 2, int(np.argmin(np.abs(z0)))]
    z = z0.copy()
    for i, d in zip(idx, (1e-13, 1e-12, 4e-16)):
        z[i] += d * max(1.0, abs(z[i]))
    with np.errstate(all="ignore"):
        grades = rootfind._grade(p, n, z)
        assert np.all(grades[0][idx] > rootfind.TIGHTEN_GATE)
        zt = rootfind._tighten(p, n, z, grades)[0]
    ulp = 2.0 ** -52 * np.maximum(1.0, np.abs(z0[idx]))
    assert np.all(np.abs(zt[idx] - z0[idx]) <= ulp), np.abs(zt[idx] - z0[idx]) / ulp
    rest = np.setdiff1d(np.arange(n), idx)
    assert np.array_equal(zt[rest].view(np.uint64), z[rest].view(np.uint64))


def test_grade_r_and_derivative_are_residuals_bit_for_bit():
    # _tighten's first Newton step is formed from _grade's r and r': they
    # must be residual()'s, bit for bit, at zeros, near them and off them
    # (at z = +-1, where r' is NaN, too)
    for R, theta in PRESETS + BRANCH_AIRFOILS:
        p = params_from(R, theta)
        for n in (7, 60, 99, 100, 300, 500):
            zeros = compute_zeros(p, n).zeros
            z = np.concatenate([zeros, zeros + 1e-7 * (1.0 - 2.0j), 1.1 * zeros + 0.3j,
                                [1.0 + 0j, -1.0 + 0j, p.b, p.c]])
            with np.errstate(all="ignore"):
                _, r, dr = rootfind._grade(p, n, z)
            want_r, want_dr = residual(p, n, z)
            assert np.array_equal(r.view(np.uint64), want_r.view(np.uint64)), (R, theta, n)
            assert np.array_equal(dr.view(np.uint64), want_dr.view(np.uint64)), (R, theta, n)


def test_seed_plan_maps_arc_seeds_on_every_airfoil():
    # one arc seed per bracket, at its middle angle, real airfoil or not;
    # only a real airfoil's cut bracket may lose its seed
    for R, theta in PRESETS + [(2.1 / math.cos(1.3), 1.3)]:
        p = params_from(R, theta)
        plan = seed_plan(p, 90)
        s_max = classify(p).s_max
        k = np.arange(90)
        tlo = k * np.pi / 90
        keep = tlo < s_max - 1e-15
        t = 0.5 * (tlo[keep] + np.minimum((k[keep] + 1) * np.pi / 90, s_max))
        seeds = arc_z_of_u(p, np.cos(t))
        m = len(plan.arc_seeds)
        assert m == len(seeds) or (p.is_real and m == len(seeds) - 1), (R, theta)
        assert np.array_equal(plan.arc_seeds, seeds[:m]), (R, theta)
        assert plan.count == m + len(plan.loop_seeds)
        if p.is_real:
            # real seeds in order along the segment, from the cusp down
            assert np.all(plan.arc_seeds.imag == 0.0)
            assert np.all(np.diff(plan.arc_seeds.real) < 0.0)


def test_real_case_zeros_stay_real_high_degree():
    # zeros of the real subcritical airfoil lie on [-1, 1] even through the
    # seeded path's arc Newton
    p = params_from(1.26, 0.0)
    zs = roots_seeded(p, 70)
    assert np.max(np.abs(zs.zeros.imag)) < 1e-10
    assert zs.zeros.real.min() > -1.0
    assert zs.zeros.real.max() < 1.0


def test_real_case_zeros_closed_under_conjugation():
    # theta = 0 keeps the polynomial real, so its zeros come in conjugate
    # pairs, bit for bit, and a real zero has no imaginary part: at the first
    # five points a real loop zero came back as -1.3265054349253995 - 1.7e-62j
    # and the like, with no partner, and elsewhere pairs differed by an ulp.
    # At (2, 0, 5) and (2, 0, 35) Newton can leave one copy of the double
    # zero at i_b = -1/2 just off the axis (-0.5 + 3.5e-10j and
    # -0.5 + 9.1e-9j have been seen), with no partner below: the excess on
    # one side is put on the axis before the zeros are paired
    points = [(2.1, 0.0, 8), (2.1, 0.0, 24), (2.392625, 0.0, 6), (2.413748, 0.0, 4),
              (2.297635, 0.0, 484), (2.0, 0.0, 5), (2.0, 0.0, 35)] + [
        (R, theta, n) for R, theta in PRESETS[:2] for n in (8, 24, 100, 500)]
    for R, theta, n in points:
        z = roots_seeded(params_from(R, theta), n).zeros
        assert np.array_equal(np.sort_complex(z), np.sort_complex(np.conj(z))), (R, n)


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
    # R cos(theta) = 3/2 and at theta = +-1.5, where the closed form's last
    # two terms cancel and are taken from w - s + b = 1/(z + s)
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
    # RuntimeWarnings and one NaN residual. The solver's private helpers run
    # under roots_seeded's one errstate; the public entry points each keep
    # their own: residual and scaled_residual at z = +-1 (r' is 0/0 there)
    # and next to c; seed_plan skips omega = 1, where g divides by 1 - w = 0
    p = params_from(3.0, 0.5)
    ends = np.array([1.0, -1.0], dtype=complex)
    near_c = p.c * (1.0 + np.array([0.0, 1e-15, -1e-12, 1e-9j]))
    supercritical = params_from(2.1, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zs = compute_zeros(p, 500)
        for n in (7, 100, 500):
            r, dr = residual(p, n, ends)
            assert np.all(np.isnan(dr))
            assert np.all(np.isfinite(scaled_residual(p, n, ends)))
            residual(p, n, near_c)
            scaled_residual(p, n, near_c)
            plan = seed_plan(supercritical, n)
            assert len(plan.loop_seeds)
    assert zs.n == 500
    assert np.all(np.isfinite(zs.residuals))


def t_bisect_reference(p, n):
    """The segment zeros by 60 bisection steps on t = arccos u over the
    brackets [k pi/n, (k+1) pi/n], the last cut at s_max, inverting U
    (arc_z_of_u) at every step: those of the brackets whose ends differ in
    sign, with scaled residual below 1e-6. An oracle for the arc Newton on a
    real airfoil, which shares none of it but arc_z_of_u."""
    s_max = classify(p).s_max
    k = np.arange(n)
    tlo = k * np.pi / n
    keep = tlo < s_max - 1e-15
    tlo, thi = tlo[keep], np.minimum((k[keep] + 1) * np.pi / n, s_max)

    def f(t):
        z = arc_z_of_u(p, np.cos(t)).real
        return residual(p, n, z + 0j)[0].real, z

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
def test_segment_bisection_in_z_matches_t_reference(R):
    # the name is kept from when the real segment had a solver of its own;
    # the arc Newton serves it now, and every zero the t-bisection reference
    # finds must be among the returned zeros, within the reference's own
    # forward error (up to 630 ulp at R = 12) plus 2^9 ulp
    p = params_from(R, 0.0)
    for n in SEGMENT_NS:
        zs = compute_zeros(p, n)
        assert zs.n == n
        assert _rel_ulp_ok(p, n, zs.zeros), (R, n)
        ref = t_bisect_reference(p, n)
        dist = np.min(np.abs(ref[:, None] - zs.zeros[None, :]), axis=1)
        tol = closed_form_forward_errors(p, n, ref) + ULP_512 * np.maximum(1.0, np.abs(ref))
        assert np.all(dist <= tol), (R, n, np.max(dist / tol))


# zeros where the real segment's bracketed Newton once went wrong:
# (1.001, 1): the residual is exactly 0 at an iterate; stepping on from it to
# the midpoint of the shrunk bracket left the zero 5.6e5 ulp off.
# (1.26, 8) and (1.4, 33): iterates within rounding of a zero (residual about
# 1e-15) became bracket ends, and Newton from the other side landed on or past
# them; the midpoint there, in place of the clamped regula-falsi point, left
# a zero 8.6e3 ulp off at (1.4, 33).
# (3, 1): the one zero is exactly -1, where s = 0; the forward-error oracle
# takes the limit of F_n' there.
@pytest.mark.parametrize("R,n", [(1.001, 1), (1.26, 8), (1.4, 33), (3.0, 1)])
def test_segment_newton_keeps_exact_zeros_and_bracket_ends(R, n):
    p = params_from(R, 0.0)
    zs = compute_zeros(p, n)
    assert zs.n == n and np.all(zs.zeros.imag == 0.0), (R, n)
    assert _rel_ulp_ok(p, n, zs.zeros), (R, n)


def _arc_stage(p, n):
    """(z, lost) of the Newton in z from the seed plan's arc seeds alone,
    with roots_seeded's step cap, under the caller's errstate."""
    with np.errstate(all="ignore"):
        return rootfind._newton_z(p, n, seed_plan(p, n).arc_seeds)


def test_segment_newton_needs_few_residual_calls(monkeypatch):
    # on real airfoils the arc Newton needs 3.8 residual calls on average
    # and 11 at most, one per pass, from the Chebyshev nodes; the bracketed
    # real-axis Newton it replaced took 3.6 and 7, a bracket-end call
    # included, and 60 bisection steps took 62. The same 8,983 points come
    # out, none of them dropped (counted on the residual's errstate-free
    # core, which the solver calls)
    calls = 0
    core = rootfind._residual

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(rootfind, "_residual", counted)
    counts, found = [], 0
    for R in SEGMENT_RS:
        p = params_from(R, 0.0)
        for n in SEGMENT_NS:
            calls = 0
            z, lost = _arc_stage(p, n)
            counts.append(calls)
            found += np.count_nonzero(~lost)
    assert np.mean(counts) <= 5.0, np.mean(counts)
    assert max(counts) == 11
    assert found == 8983


def _cut_bracket(p, n):
    """(k, closed form at i_b): the last bracket [k pi/n, s_max] and
    2 cos(n s_max) - 1, f V^(-n/2) at its i_b end."""
    s_max = classify(p).s_max
    k = np.nonzero(np.arange(n) * np.pi / n < s_max - 1e-15)[0][-1]
    return int(k), 2.0 * np.cos(n * s_max) - 1.0


def test_cut_bracket_sign_rule_matches_the_residual():
    # seed_plan drops a real airfoil's cut-bracket seed by the closed form's
    # signs at the bracket's ends, (-1)^k at t = k pi/n and 2 cos(n s_max) - 1
    # at i_b, with no evaluation: the residual must have those signs. The
    # exceptions are points where 2 cos(n s_max) - 1 is rounding, within
    # 2 n eps of 0; all lie at R = 2, where i_b = -1/2 is a zero of F_n for
    # n = 1 (mod 6), and a double zero for n = 5 (mod 6)
    eps = np.finfo(float).eps
    rounding = set()
    for R in (1.5001, 1.501, 1.51, 1.55, 1.6, 1.7, 1.8, 1.84, 2.0, 2.1, 2.3, 2.5,
              3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 50.0, 100.0):
        p = params_from(R, 0.0)
        ib = classify(p).i_b
        for n in range(1, 501):
            k, end = _cut_bracket(p, n)
            z = np.concatenate([arc_z_of_u(p, np.cos(k * np.pi / n)), [ib]])
            r = residual(p, n, z)[0].real
            if np.sign(r[0]) == (-1) ** k and np.sign(r[1]) == np.sign(end):
                continue
            assert abs(end) <= 2 * n * eps, (R, n, r, end)
            rounding.add((R, n))
    assert {R for R, n in rounding} == {2.0}
    assert len(rounding) <= 80


@pytest.mark.parametrize("R,n", [(1.84, 9), (1.694634, 42), (1.704384, 43),
                                 (2.416984, 5), (1.711694, 43)])
def test_cut_bracket_without_a_zero_gets_no_seed(R, n, monkeypatch):
    # the cut bracket here holds no zero; with its seed kept, the arc Newton
    # crawled from it at the 0.05 cap for up to all 80 passes
    p = params_from(R, 0.0)
    k, end = _cut_bracket(p, n)
    assert (-1) ** k * end > 0.0
    assert len(seed_plan(p, n).arc_seeds) == k
    calls = 0
    core = rootfind._residual

    def counted(*args):
        nonlocal calls
        calls += 1
        return core(*args)

    monkeypatch.setattr(rootfind, "_residual", counted)
    z, lost = _arc_stage(p, n)
    assert calls <= 4 and not lost.any(), (R, n, calls)


def test_newton_z_drops_a_seed_that_cannot_arrive(monkeypatch):
    # at (R cos theta, theta, n) = (2.1, 1.48, 1) the arc seed's Newton step
    # is about 23, 460 times the cap: it crawled 0.05 a pass through all 80
    # passes and drifted off (|r| 0.93) before _deflate found the zero; now
    # it is dropped on the first pass
    calls = 0
    newton_step = rootfind._newton_step

    def counted(*args):
        nonlocal calls
        calls += 1
        return newton_step(*args)

    monkeypatch.setattr(rootfind, "_newton_step", counted)
    p = params_from(2.1 / math.cos(1.48), 1.48)
    zs = compute_zeros(p, 1)
    assert calls == 1
    assert _rel_ulp_ok(p, 1, zs.zeros)


def test_far_airfoil_seeds_arrive_without_deflation(monkeypatch):
    # at (R cos theta, theta, n) = (1000, 1.0, 500) a seed's first Newton
    # step is 2 capacity/n, about 3.7: with an absolute step cap of 0.05 every
    # arc seed was dropped as lost, and _deflate found all 319 segment zeros
    # in about 134 ms. The cap on the airfoil's length scale lets them arrive
    deflated = 0
    deflate = rootfind._deflate

    def counted(*args):
        nonlocal deflated
        deflated += 1
        return deflate(*args)

    monkeypatch.setattr(rootfind, "_deflate", counted)
    zs = compute_zeros(params_from(1000 / math.cos(1.0), 1.0), 500)
    assert deflated == 0
    assert len(np.unique(zs.zeros)) == 500
    assert np.max(zs.residuals) <= rootfind.RESIDUAL_GATE


def test_scaled_residual_sees_a_moved_zero_at_the_far_corner():
    # at R cos theta = 1000, theta = 1.56 the last two terms of the closed
    # form cancel at every zero. Taken as a plain difference, they left the
    # scaled residual of zeros moved by 1e-6 of |z| at 1.4e-11, far below
    # RESIDUAL_GATE; taken from w - s + b = 1/(z + s), it reads 6.3e-6 or more
    p = params_from(1000 / math.cos(1.56), 1.56)
    z = compute_zeros(p, 500).zeros
    moved = scaled_residual(p, 500, z * (1.0 + 1e-6))
    assert np.min(moved) > rootfind.RESIDUAL_GATE, np.min(moved)


def test_import_and_verify_leave_mpmath_unloaded():
    # mpmath serves the oracles only; a preset's zeros and report need
    # none of it, and importing it costs about 34 ms. Nor do the zeros at the
    # steep far corners, where the closed form's last two terms cancel
    code = ("import math, sys, faberzeros as fz\n"
            "p = fz.params_from(2.1, 0.2)\n"
            "fz.report(p, fz.compute_zeros(p, 100))\n"
            "fz.compute_zeros(fz.params_from(8 / math.cos(1.5), 1.5), 99)\n"
            "fz.compute_zeros(fz.params_from(1000 / math.cos(1.56), 1.56), 500)\n"
            "assert 'mpmath' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(fz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


# just above criticality the seeds miss a few zeros: the Newton in z lands two
# or three loop seeds on one zero, and deflation finds 2-3 zeros at each real
# point here (none at (1.501, -0.7, 250))
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
