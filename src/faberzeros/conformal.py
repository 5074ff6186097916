"""Joukowski-airfoil conformal machinery.

The airfoil boundary is the image of the unit circle under Psi(w) = J(a*w + b),
J(zeta) = (zeta + 1/zeta)/2, with a = R*exp(i*theta) and b = 1 - a chosen so a
cusp sits at z = 1.  Everything else in the package is built on the exterior
map Phi (inverse of Psi), the triple (U, V, W) with U = (z-b)/sqrt(V), and the
two-sheeted interior map phi_b, which returns its value on both sheets.
sqrt(V) is the principal root of -2b(z - c); no zero equation sits on its
cut, and its callers read only |U|, |Re U| or |sqrt(V)|, which are the same
on both branches.  AirfoilParams.case holds the regime and its derived
points (limitsets.classify), worked out once per instance on first use.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, PoleError, SingularityError


@dataclass(frozen=True)
class AirfoilParams:
    """Derived constants for one airfoil. Build with params_from()."""

    R: float
    theta: float
    a: complex
    b: complex
    c: complex          # (b + 1/b)/2, the sqrt(V) branch point
    capacity: float     # logarithmic capacity |a|/2

    @property
    def rcos(self) -> float:
        return self.R * np.cos(self.theta)

    @property
    def is_real(self) -> bool:
        return self.theta == 0.0

    @functools.cached_property
    def case(self):
        """The limitsets.CaseClass of this airfoil, built on first use and
        kept on the instance (not a field: eq and hash ignore it)."""
        from .limitsets import _build_case
        return _build_case(self)


def params_from(R: float, theta: float = 0.0) -> AirfoilParams:
    """Validate (R, theta) and precompute the derived constants.

    Requires R > 1, |theta| < pi/2 and the cusp condition R*cos(theta) > 1.
    """
    R = float(R)
    theta = float(theta)
    if not np.isfinite(R) or not np.isfinite(theta):
        raise ParameterError(f"non-finite parameters R={R} theta={theta}")
    if not abs(theta) < np.pi / 2:
        raise ParameterError(f"theta must lie in (-pi/2, pi/2), got {theta}")
    if R <= 1.0:
        raise ParameterError(f"R must exceed 1, got {R}")
    if R * np.cos(theta) <= 1.0:
        raise ParameterError(
            f"cusp condition R*cos(theta) > 1 fails: R*cos(theta) = {R * np.cos(theta)}"
        )
    a = R * np.exp(1j * theta)
    b = 1.0 - a
    c = (b + 1.0 / b) / 2.0
    return AirfoilParams(
        R=R, theta=theta, a=complex(a), b=complex(b), c=complex(c),
        capacity=abs(a) / 2.0,
    )


def _maybe_scalar(x, scalar):
    return complex(x[()]) if scalar else x


def psi(p: AirfoilParams, w):
    """Exterior parametrization Psi(w) = J(a*w + b); pole at w = -b/a."""
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    zeta = p.a * w + p.b
    if np.any(np.abs(zeta) < 1e-15 * (1.0 + abs(p.b))):
        raise PoleError(f"psi has a pole at w = {-p.b / p.a}")
    out = (zeta + 1.0 / zeta) / 2.0
    return _maybe_scalar(out, scalar)


def phi(p: AirfoilParams, z):
    """Exterior map Phi: the branch of (z ± sqrt(z^2-1) - b)/a with modulus >= 1.

    Raises DomainError strictly inside the airfoil; points within 1e-12 of the
    boundary return the unimodular boundary value. Phi(1) = 1 (the cusp).

    s = sqrt(z-1) sqrt(z+1) is multiplied out in real arithmetic: numpy may fuse
    the complex product of arrays but not of scalars, and both must round alike.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    sm, sp = np.sqrt(z - 1.0), np.sqrt(z + 1.0)   # cut on [-1, 1] only
    s = np.empty(z.shape, dtype=complex)
    s.real = sm.real * sp.real - sm.imag * sp.imag
    s.imag = sm.real * sp.imag + sm.imag * sp.real
    wp = (z + s - p.b) / p.a
    wm = (z - s - p.b) / p.a
    w = np.where(np.abs(wp) >= np.abs(wm), wp, wm)
    r = np.abs(w)
    if np.any(r < 1.0 - 1e-12):
        bad = np.asarray(z)[r < 1.0 - 1e-12].ravel()
        raise DomainError(f"point(s) inside the airfoil, e.g. z = {bad[0]}")
    w = np.where(r < 1.0, w / np.where(r == 0, 1.0, r), w)  # boundary grace band
    return _maybe_scalar(w, scalar)


def uvw(p: AirfoilParams, z):
    """Return (U, V, W): V = b^2+1-2bz, W = z-b, U = W/sqrt(V). U(1) = 1, as
    the principal sqrt(V(1)) = sqrt((1-b)^2) is 1 - b = a, Re a > 0."""
    u, v, w, _ = uvw4(p, z)
    return u, v, w


def uvw4(p: AirfoilParams, z):
    """Like uvw() but also returns sqrt(V), the principal root of -2b(z - c)."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    if np.any(np.abs(z - p.c) < 1e-14 * (1.0 + abs(p.c))):
        raise SingularityError(f"U is singular at z = c = {p.c}")
    sv = np.sqrt(-2.0 * p.b * (z - p.c))
    v = p.b * p.b + 1.0 - 2.0 * p.b * z
    w = z - p.b
    u = w / sv
    if scalar:
        return complex(u[()]), complex(v[()]), complex(w[()]), complex(sv[()])
    return u, v, w, sv


def phi_b(p: AirfoilParams, z) -> tuple[complex, complex]:
    """Two-sheeted interior map (b - z -/+ sqrt(z^2-1))/b, as (plus, minus).

    The plus sheet (-sqrt) is unbounded at infinity, the minus sheet (+sqrt)
    tends to 1.  The sqrt cut is exactly [-1, 1]; IEEE signed zero in Im(z)
    selects the one-sided limit on the cut.  phi_b never takes the value 1.
    Inverse on either sheet: z = J(b*(1 - w)).
    """
    z = complex(z)
    s = cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
    return (p.b - z - s) / p.b, (p.b - z + s) / p.b


def phi_b_inverse(p: AirfoilParams, w):
    """J(b*(1-w)), the common inverse of both phi_b sheets."""
    w = np.asarray(w, dtype=complex)
    scalar = w.ndim == 0
    zeta = p.b * (1.0 - w)
    out = (zeta + 1.0 / zeta) / 2.0
    return _maybe_scalar(out, scalar)


def arc_candidates_raw(b: complex, rho):
    # roots b(1 - rho) +- s of U(z)^2 = rho, continuous in rho: s = sqrt(rho) r
    # with r = sqrt(c0) sqrt(X / c0) the root of X = 1 - b^2 (1 - rho) with
    # r(1) = 1, c0 the point of [1 - b^2, 1] nearest 0. X / c0 stays in the
    # right half-plane, so r is continuous and lies within 45 degrees of
    # sqrt(c0): the principal sqrt(rho X) is negated where Re(s conj sqrt(c0))
    # < 0. A real b keeps the principal root.
    rho = np.asarray(rho, dtype=float)
    s = np.sqrt(rho * (1.0 - b * b + b * b * rho) + 0j)
    if b.imag:
        b2 = b * b
        t = min(max((b2.conjugate() * (b2 - 1.0)).real / abs(b2) ** 2, 0.0), 1.0)
        h = cmath.sqrt(1.0 - b2 + t * b2)
        np.negative(s, out=s, where=(s * h.conjugate()).real < 0.0)
    base = b * (1.0 - rho)
    return base + s, base - s


def arc_candidates(p: AirfoilParams, rho):
    """The limit arc U(z)^2 = rho, rho in [0, 1], as two continuous branches
    (z_plus, z_minus): both start at b (rho = 0), z_plus ends at +1 and
    z_minus at -1 (rho = 1)."""
    return arc_candidates_raw(p.b, rho)


def boundary_samples(p: AirfoilParams, m: int = 1024):
    """m points of the airfoil boundary Psi(e^{it}), t uniform in [0, 2pi)."""
    t = 2 * np.pi * np.arange(m) / m
    return psi(p, np.exp(1j * t))
