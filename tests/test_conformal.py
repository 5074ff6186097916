"""Exterior maps, branch structure, and the derived airfoil constants."""

import numpy as np
import pytest

import faberzeros as fz
from faberzeros.conformal import (
    arc_candidates, boundary_samples, params_from, phi, phi_b, phi_b_inverse,
    psi, uvw, uvw4,
)
from faberzeros.errors import (
    DomainError, ParameterError, PoleError, SingularityError,
)


# ---------------------------------------------------------------- parameters

def test_params_basic_real():
    p = params_from(1.26)
    assert p.a == pytest.approx(1.26)
    assert p.b == pytest.approx(-0.26)
    assert p.c == pytest.approx(-2.053076923076923, abs=1e-15)
    assert p.capacity == pytest.approx(0.63)
    assert p.is_real


def test_params_supercritical_real():
    p = params_from(2.1, 0.0)
    assert p.b == pytest.approx(-1.1)
    assert p.c == pytest.approx(-1.0045454545454546, abs=1e-15)
    assert p.capacity == pytest.approx(1.05)
    assert p.rcos == pytest.approx(2.1)


def test_params_complex():
    p = params_from(2.1, 0.2)
    assert p.a == pytest.approx(2.1 * np.exp(0.2j))
    assert p.b == pytest.approx(-1.0581398134666076 - 0.4172055946696286j, abs=1e-14)
    assert p.c == pytest.approx(-0.938022194837985 - 0.04736022770570819j, abs=1e-14)
    assert not p.is_real


@pytest.mark.parametrize("R,theta", [
    (1.0, 0.0),          # R must exceed 1
    (0.5, 0.0),
    (1.2, 0.8),          # R cos theta <= 1
    (2.0, 1.6),          # |theta| >= pi/2
    (float("nan"), 0.0),
    (float("inf"), 0.0),
])
def test_params_rejects(R, theta):
    with pytest.raises(ParameterError):
        params_from(R, theta)


def test_params_cusp_condition_is_strict():
    # R cos theta == 1 exactly sits on the excluded boundary
    with pytest.raises(ParameterError):
        params_from(1.0 / np.cos(0.3), 0.3)


# ---------------------------------------------------------------- psi / phi

def test_psi_cusp_and_pole():
    p = params_from(1.26)
    assert psi(p, 1.0 + 0j) == pytest.approx(1.0)   # T(1) = 1, J(1) = 1
    with pytest.raises(PoleError):
        psi(p, -p.b / p.a)                          # T(w) = 0 is the J pole


def test_phi_psi_roundtrip_seeded():
    rng = np.random.default_rng(7)
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2)]:
        p = params_from(R, theta)
        r = 1.0 + rng.uniform(0.05, 4.0, size=60)
        w = r * np.exp(2j * np.pi * rng.uniform(size=60))
        z = psi(p, w)
        back = phi(p, z)
        assert np.max(np.abs(back - w)) < 1e-9 * np.max(np.abs(w))


def test_phi_rejects_interior():
    p = params_from(1.26)
    # the airfoil surrounds the segment [-1, 1]; the origin is deep inside
    with pytest.raises(DomainError):
        phi(p, 0.0 + 0j)


def test_phi_scalar_in_scalar_out():
    p = params_from(2.1, 0.2)
    out = phi(p, psi(p, 2.0 + 1.0j))
    assert np.ndim(out) == 0


def assert_phi_array_is_scalar(R, theta):
    # one call on many points rounds as one call per point: the probe rings
    # of 5, 7, 8 and 12 directions, and 400 random exterior points
    p = params_from(R, theta)
    rng = np.random.default_rng(7)
    w = (1.0 + rng.uniform(0.01, 5.0, 400)) * np.exp(2j * np.pi * rng.uniform(size=400))
    rings = [fz.default_test_points(p, count) for count in (5, 7, 8, 12)]
    z = np.concatenate(rings + [psi(p, w)])
    one_by_one = np.array([phi(p, zk) for zk in z])
    assert np.array_equal(phi(p, z).view(np.uint64), one_by_one.view(np.uint64)), (R, theta)


@pytest.mark.parametrize("R,theta", [
    (1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (2 / np.cos(1.5), 1.5),
    (2 / np.cos(1.5), -1.5), (8 / np.cos(1.5), 1.5), (8 / np.cos(1.5), -1.5)])
def test_phi_array_matches_scalar_bit_for_bit(R, theta):
    assert_phi_array_is_scalar(R, theta)


@pytest.mark.slow
def test_phi_array_matches_scalar_bit_for_bit_on_grid_g():
    for rc in (1.001, 1.2, 1.4999, 1.5001, 1.6, 2.0, 4.0, 8.0):
        for theta in (0.0, 0.5, 1.0, 1.3, 1.5, -1.5):
            assert_phi_array_is_scalar(rc / np.cos(theta), theta)


# ---------------------------------------------------------------- U, V, W

def test_uvw_fixed_values():
    # U(1) = 1 exactly by the normalization of sqrt(V); U(b) = 0 since W(b) = 0
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        u1, v1, w1 = uvw(p, 1.0 + 0j)
        assert u1 == pytest.approx(1.0, abs=5e-15)
        assert v1 == pytest.approx((1.0 - p.b) ** 2, rel=1e-14)
        ub, _, _ = uvw(p, p.b)
        assert abs(ub) < 5e-15


def test_uvw_algebraic_relation_seeded():
    # U^2 V = W^2 wherever everything is finite
    rng = np.random.default_rng(11)
    for R, theta in [(1.26, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        z = rng.normal(size=80) + 1j * rng.normal(size=80)
        u, v, w = uvw(p, z)
        assert np.max(np.abs(u * u * v - w * w)) < 1e-12 * np.max(np.abs(w * w) + 1)


def test_uvw4_matches_uvw_and_rejects_center():
    p = params_from(2.1, 0.2)
    z = np.array([0.3 + 0.2j, -1.5 + 1j, 2.0 - 0.7j])
    u, v, w = uvw(p, z)
    u4, v4, w4, sv = uvw4(p, z)
    assert np.allclose(u, u4)
    assert np.allclose(sv * sv, v4, rtol=1e-13)
    with pytest.raises(SingularityError):
        uvw4(p, p.c)


def test_u_flips_sign_once_around_c():
    # V = -2b(z-c), and sqrt(V) is its principal root, so its cut is one ray
    # out of c: U changes sign where a circle around c crosses that ray and
    # is continuous everywhere else on it.
    p = params_from(2.1, 0.2)
    t = np.linspace(0, 2 * np.pi, 2001)
    z = p.c + 3.0 * np.exp(1j * t)
    u, _, _ = uvw(p, z)
    jumps = np.abs(np.diff(u))
    # exactly one sign flip where the circle crosses the cut, nowhere else
    assert np.sum(jumps > 0.5) == 1


# ---------------------------------------------------------------- phi_b

def test_phi_b_sheets_frozen():
    p = params_from(2.1, 0.0)
    z = 1.0 / (2 * p.b)
    vp, vm = phi_b(p, z)
    assert vp == pytest.approx(0.5867768595041323 - 0.8097486753002241j, abs=1e-13)
    assert vm == pytest.approx(0.5867768595041323 + 0.8097486753002241j, abs=1e-13)


def test_phi_b_sheet_product_and_limits():
    rng = np.random.default_rng(3)
    for R, theta in [(2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        for _ in range(25):
            z = complex(rng.normal(scale=2), rng.normal(scale=2))
            vp, vm = phi_b(p, z)
            want = (p.b * p.b + 1 - 2 * p.b * z) / (p.b * p.b)
            assert vp * vm == pytest.approx(want, rel=1e-10, abs=1e-12)
        far = 1e9 + 0.3j
        vp, vm = phi_b(p, far)
        assert vm == pytest.approx(1.0, abs=1e-6)
        assert vp / far == pytest.approx(-2 / p.b, rel=1e-6)


def test_phi_b_inverse_is_right_inverse():
    rng = np.random.default_rng(5)
    p = params_from(2.1, 0.2)
    w = np.exp(1j * rng.uniform(0, 2 * np.pi, 40)) * rng.uniform(0.5, 2.0, 40)
    z = phi_b_inverse(p, w)
    prod = np.array([np.prod(phi_b(p, v)) for v in z])
    want = (p.b * p.b + 1 - 2 * p.b * z) / (p.b * p.b)
    assert np.allclose(prod, want, rtol=1e-9)
    # one of the two sheets recovers w
    for wi, zi in zip(w, z):
        vp, vm = phi_b(p, zi)
        assert min(abs(vp - wi), abs(vm - wi)) < 1e-9 * (1 + abs(wi))


# ---------------------------------------------------------------- geometry

def test_arc_candidates_endpoints():
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        zp, zm = arc_candidates(p, np.array([1.0]))
        pair = sorted([complex(zp[0]), complex(zm[0])], key=lambda v: v.real)
        assert pair[0] == pytest.approx(-1.0, abs=1e-14)
        assert pair[1] == pytest.approx(1.0, abs=1e-14)


def test_boundary_samples_closed_airfoil():
    p = params_from(1.26)
    z = boundary_samples(p, 512)
    assert len(z) == 512
    assert z[0] == pytest.approx(1.0)          # cusp at the trailing edge
    assert np.max(np.abs(z)) < 3.0
    # closed curve: last sample returns to the neighborhood of the first
    assert abs(z[-1] - z[0]) < 0.1
