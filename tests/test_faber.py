"""Polynomial construction: closed form, oracle, Chebyshev form, residuals.

The frozen coefficient and root values below were produced by the contour
oracle (faber_oracle) and the simultaneous root finder and cross-checked
against faber_coeffs_mp before being written down.
"""

import warnings

import mpmath as mp
import numpy as np
import pytest

import faberzeros as fz
from faberzeros.conformal import params_from, psi, uvw
from faberzeros.faber import (
    FaberEvaluator, chebyshev_T, faber_closed, faber_coeffs_mp, faber_oracle,
    faber_shifted, horner, ipow, residual, scaled_residual,
)

PRESETS = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2)]


def test_degree_one_and_leading_coefficient():
    p = params_from(1.26)
    f1 = faber_closed(p, 1)
    # F_1 = (2z - b)/a
    assert f1.coeffs[0] == pytest.approx(0.20634920634920634, abs=1e-16)
    assert f1.coeffs[1] == pytest.approx(1.5873015873015872, abs=1e-15)
    for R, theta in PRESETS:
        p = params_from(R, theta)
        for n in (1, 2, 5, 9):
            lead = faber_closed(p, n).coeffs[-1]
            assert lead == pytest.approx((2.0 / p.a) ** n, rel=1e-14)


def test_frozen_low_degree_coeffs():
    p = params_from(1.26)
    f2 = faber_closed(p, 2).coeffs
    f3 = faber_closed(p, 3).coeffs
    assert np.allclose(f2, [-1.217183169564122, 0.6550768455530359,
                            2.519526329050138], atol=1e-14)
    assert np.allclose(f3, [-0.7710670393965935, -2.796674225245654,
                            1.5597067751262763, 3.999248141349426], atol=1e-14)


def test_degree_zero():
    p = params_from(1.26)
    f0 = faber_closed(p, 0)
    assert f0.degree == 0
    assert f0.coeffs[0] == pytest.approx(1.0)


def test_oracle_equivalence_small():
    for R, theta in PRESETS:
        p = params_from(R, theta)
        for n in (1, 4, 7, 12):
            a = faber_closed(p, n).coeffs
            o = faber_oracle(p, n).coeffs
            assert np.max(np.abs(a - o)) < 1e-11 * np.max(np.abs(a))


def test_mp_coefficients_agree():
    p = params_from(2.1, 0.2)
    a = faber_closed(p, 18).coeffs
    m = np.array([complex(v) for v in faber_coeffs_mp(p, 18)])
    assert np.max(np.abs(a - m)) < 1e-12 * np.max(np.abs(a))


def test_defining_property_at_infinity():
    # F_n(psi(w)) = w^n + O(1/w): at large |w| the ratio is 1
    rng = np.random.default_rng(17)
    for R, theta in PRESETS:
        p = params_from(R, theta)
        f = faber_closed(p, 8)
        w = 40.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        vals = f(psi(p, w))
        assert np.max(np.abs(vals / w ** 8 - 1.0)) < 1e-9


def test_circle_plane_identity_seeded():
    # F_n(J(b(1-w))) == (-b/a)^n (w^n + g(w)^n - 1) with g(w) = 1 - 1/(b^2(1-w));
    # exact for every w, not just asymptotically.
    rng = np.random.default_rng(23)
    for R, theta in [(2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        b = p.b
        for n in (3, 11, 24):
            f = faber_closed(p, n)
            w = np.exp(1j * rng.uniform(0, 2 * np.pi, 30)) * rng.uniform(0.7, 1.4, 30)
            zeta = b * (1.0 - w)
            z = 0.5 * (zeta + 1.0 / zeta)
            g = 1.0 - 1.0 / (b * b * (1.0 - w))
            rhs = (-b / p.a) ** n * (w ** n + g ** n - 1.0)
            scale = np.max(np.abs(rhs)) + 1.0
            assert np.max(np.abs(f(z) - rhs)) < 1e-10 * scale


def test_shifted_variant_is_chebyshev_form():
    # F_n + (-b/a)^n == 2 a^-n V^{n/2} T_n(U)
    rng = np.random.default_rng(29)
    p = params_from(2.1, 0.2)
    n = 9
    sh = faber_shifted(p, n)
    z = rng.normal(size=25) + 1j * rng.normal(size=25)
    u, v, _ = uvw(p, z)
    from faberzeros.conformal import uvw4
    _, _, _, sv = uvw4(p, z)
    want = 2.0 * p.a ** (-n) * sv ** n * chebyshev_T(n, u)
    got = sh(z)
    assert np.max(np.abs(got - want)) < 1e-9 * (np.max(np.abs(want)) + 1)


def test_chebyshev_reference_values():
    u = np.linspace(-0.99, 0.99, 41)
    for n in (0, 1, 2, 7, 20):
        want = np.cos(n * np.arccos(u))
        assert np.max(np.abs(chebyshev_T(n, u) - want)) < 1e-11
    # outside [-1, 1] compare against cosh form
    x = np.linspace(1.5, 4.0, 11)
    for n in (3, 10):
        want = np.cosh(n * np.arccosh(x))
        assert np.max(np.abs(chebyshev_T(n, x) - want)) < 1e-8 * np.max(want)


def test_residual_vanishes_at_roots_and_derivative_fd():
    p = params_from(2.1, 0.2)
    n = 14
    zs = fz.compute_zeros(p, n)
    r, _ = residual(p, n, zs.zeros)
    assert np.max(np.abs(r)) < 1e-10
    # r and r' are a^n F_n and its derivative over the same top^n, which
    # varies with z, so r' is not the derivative of r; but r / r' is Newton's
    # step F_n / F_n', here with F_n' by central differences at generic points
    rng = np.random.default_rng(31)
    z = rng.normal(size=12) + 1j * rng.normal(size=12)
    h = 1e-6
    ev = FaberEvaluator(p, n)
    want = ev(z) / ((ev(z + h) - ev(z - h)) / (2 * h))
    r0, dr = residual(p, n, z)
    assert np.max(np.abs(r0 / dr - want) / np.abs(want)) < 1e-5


def test_scaled_residual_is_scale_free():
    p = params_from(2.1, 0.0)
    n = 30
    zs = fz.compute_zeros(p, n)
    s = scaled_residual(p, n, zs.zeros)
    assert np.max(s) < 1e-10
    # a point far from any zero scores order one
    assert scaled_residual(p, n, np.array([0.5 + 0.9j]))[0] > 1e-3


def test_overflow_preflight():
    p = params_from(2.1, 0.0)
    with pytest.raises(OverflowError):
        faber_closed(p, 1200)


def test_horner_matches_polyval():
    co = np.array([1.0 + 2.0j, -0.5, 0.25j, 3.0])
    z = np.array([0.3 + 0.1j, -2.0, 1.5j])
    assert np.allclose(horner(co, z), np.polyval(co[::-1], z))


def test_evaluator_matches_coefficients():
    p = params_from(1.45, 0.2)
    n = 16
    ev = FaberEvaluator(p, n)
    f = faber_closed(p, n)
    z = np.linspace(-1, 1, 9) + 0.2j
    assert np.allclose(ev(z), f(z), rtol=1e-12, atol=1e-12)


def _power_points():
    # on the unit circle, and off it on both sides, including the axes
    rng = np.random.default_rng(7)
    ang = np.concatenate([rng.uniform(-np.pi, np.pi, 60), np.pi / 2 * np.arange(4)])
    on = np.exp(1j * ang)
    off = np.concatenate([r * on for r in (0.93, 0.999, 1.001, 1.07)])
    return on, off


def test_ipow_powers_of_two_stay_with_numpy():
    on, off = _power_points()
    x = np.concatenate([on, off])
    for n in (128, 256, 512):
        assert np.array_equal(ipow(x, n), x ** n)


def test_ipow_bitwise_below_100():
    on, off = _power_points()
    x = np.concatenate([on, off, [0.0, 1e-3 + 2e-3j, 40.0 - 30.0j]])
    for n in range(100):
        with np.errstate(all="ignore"):
            want = x ** n
        got = ipow(x, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


@pytest.mark.parametrize("n", [100, 127, 128, 255, 256, 300, 499, 500])
def test_ipow_no_less_accurate_than_numpy_power(n):
    for x in _power_points():
        with mp.workdps(40):
            exact = [mp.mpc(complex(v)) ** n for v in x]

            def worst(y):
                return max(float(abs(mp.mpc(complex(v)) - e) / abs(e))
                           for v, e in zip(y, exact))

            assert worst(ipow(x, n)) <= worst(x ** n)


def test_ipow_overflow_and_underflow_match_numpy_quietly():
    # entries far past the double range either way, and non-finite inputs,
    # next to ordinary ones
    extreme = np.array([1e4, 3e3 + 4e3j, -7e3j, 1e-4, 1e-4 - 1e-4j, 0.0,
                        np.inf, complex(np.nan, 1.0), complex(1.0, np.inf)])
    x = np.concatenate([extreme, [0.6 + 0.8j, 1.001j]])
    for n in (100, 128, 333, 499):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ipow(x, n)
        with np.errstate(all="ignore"):
            want = x ** n
        k = len(extreme)
        # each extreme entry really leaves the range: non-finite or underflowed
        assert not np.any(np.isfinite(got[:k]) & (np.abs(got[:k]) > 1.0)), n
        np.testing.assert_array_equal(got[:k].view(float), want[:k].view(float))
        assert np.all(np.isfinite(got[k:]))
