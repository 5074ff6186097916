"""Faber polynomials of the airfoil, three independent ways.

faber_closed builds coefficients from the power-sum recurrence
S_m = 2(z-b) S_{m-1} - V S_{m-2}; faber_oracle extracts them from an FFT of
Phi^n on a circle; FaberEvaluator evaluates the closed form pointwise.  The
zero equation lives here too: residual() is 2 T_n(U) - (-b/sqrt(V))^n together
with its derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .conformal import AirfoilParams, boundary_samples, phi, uvw4
from .errors import ResolutionError

_CHEB_BAND = 1.0 + 1e-3


def _cheb_x(u):
    # the |x| >= 1 branch of x = u ± sqrt(u^2-1), so T_n(u) = (x^n + x^-n)/2
    s = np.sqrt(u * u - 1.0)
    return np.where(np.abs(u + s) >= 1.0, u + s, u - s)


def _cheb_power_pair(n: int, u):
    # T_n and T_n' from x^n + x^{-n}. The derivative denominator must be
    # x - 1/x of the *selected* x (it is -2s when the minus branch wins), else
    # Newton walks uphill. Where |x|^n passes the double range (U near its
    # pole at z = c) both come out infinite, without a floating-point warning.
    u = np.asarray(u, dtype=complex)
    x = _cheb_x(u)
    with np.errstate(over="ignore", invalid="ignore"):
        xn = x ** n
        t = 0.5 * (xn + 1.0 / xn)
        d = x - 1.0 / x
        tiny = np.abs(d) < 1e-12
        dsafe = np.where(tiny, 1.0, d)
        # limit at u -> ±1: T_n'(±1) = (±1)^{n+1} n^2
        sign = np.where(u.real >= 0, 1.0, (-1.0) ** ((n + 1) % 2))
        dt = np.where(tiny, n * n * sign + 0j, n * (xn - 1.0 / xn) / dsafe)
    return t, dt


def chebyshev_T(n: int, u):
    """Chebyshev polynomial T_n: three-term recurrence for |u| <= 1+1e-3,
    dominant-branch power form outside the band."""
    if n < 0:
        raise ValueError("n must be >= 0")
    u = np.asarray(u, dtype=complex)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    band = np.abs(u) <= _CHEB_BAND
    if np.any(band):
        ub = u[band]
        t0 = np.ones_like(ub)
        t1 = ub.copy()
        if n == 0:
            out[band] = t0
        elif n == 1:
            out[band] = t1
        else:
            for _ in range(n - 1):
                t0, t1 = t1, 2.0 * ub * t1 - t0
            out[band] = t1
    if np.any(~band):
        out[~band] = _cheb_power_pair(n, u[~band])[0]
    return complex(out[0]) if scalar else out


@dataclass
class PolyCoeffs:
    """Polynomial in ascending coefficient order, with optional provenance
    (params, n) so consumers can recompute at higher precision."""

    degree: int
    coeffs: np.ndarray
    source: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        assert len(self.coeffs) == self.degree + 1

    def __call__(self, z):
        return horner(self.coeffs, z)

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "re": [float(c.real) for c in self.coeffs],
            "im": [float(c.imag) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolyCoeffs":
        co = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        return cls(degree=int(d["degree"]), coeffs=co)


def horner(coeffs, z):
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return complex(acc[()]) if acc.ndim == 0 else acc


def faber_closed(p: AirfoilParams, n: int) -> PolyCoeffs:
    """Degree-n Faber polynomial coefficients (ascending). Leading coefficient
    is exactly (2/a)^n. Raises OverflowError when doubles can't hold them."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return PolyCoeffs(0, np.array([1.0 + 0j]), source=(p, 0))
    if n * abs(np.log(abs(p.a))) > 690.0:
        raise OverflowError(f"a^(-n) not representable in double at n={n}")
    a, b = p.a, p.b
    with np.errstate(over="ignore", invalid="ignore"):
        s0 = np.zeros(n + 1, dtype=complex); s0[0] = 2.0
        s1 = np.zeros(n + 1, dtype=complex); s1[0] = -2.0 * b; s1[1] = 2.0
        if n == 1:
            s = s1
        for m in range(2, n + 1):
            s = np.zeros(n + 1, dtype=complex)
            s[1:m + 1] += 2.0 * s1[0:m]
            s[0:m] += -2.0 * b * s1[0:m]
            s[0:m - 1] += -(b * b + 1.0) * s0[0:m - 1]
            s[1:m] += 2.0 * b * s0[0:m - 1]
            s0, s1 = s1, s
        f = s.copy() if n > 1 else s1.copy()
        f[0] -= (-b) ** n
        f *= a ** (-float(n))
    if not np.all(np.isfinite(f.view(float))):
        raise OverflowError(f"coefficient overflow at degree n={n}")
    return PolyCoeffs(n, f, source=(p, n))


def faber_coeffs_mp(p: AirfoilParams, n: int, dps: int | None = None) -> list:
    """Same coefficients as faber_closed but in mpmath (list of mpc, ascending)."""
    if dps is None:
        dps = 40 + int(0.7 * n)
    with mp.workdps(dps):
        a = mp.mpc(p.a)
        b = mp.mpc(p.b)
        s0 = [mp.mpc(0)] * (n + 1); s0[0] = mp.mpc(2)
        s1 = [mp.mpc(0)] * (n + 1); s1[0] = -2 * b
        if n >= 1:
            s1[1] = mp.mpc(2)
        cur = s1
        for m in range(2, n + 1):
            s = [mp.mpc(0)] * (n + 1)
            vb = b * b + 1
            for k in range(m):
                s[k + 1] += 2 * s1[k]
                s[k] += -2 * b * s1[k]
            for k in range(m - 1):
                s[k] += -vb * s0[k]
                s[k + 1] += 2 * b * s0[k]
            s0, s1 = s1, s
            cur = s
        f = list(cur)
        f[0] -= (-b) ** n
        an = a ** (-n)
        return [an * q for q in f]


def faber_shifted(p: AirfoilParams, n: int) -> PolyCoeffs:
    """Coefficients of F_n + (-b/a)^n, the variant equal to 2 a^-n V^{n/2} T_n(U)."""
    base = faber_closed(p, n)
    co = base.coeffs.copy()
    co[0] += (-p.b / p.a) ** n
    return PolyCoeffs(n, co, source=(p, n))


def faber_oracle(p: AirfoilParams, n: int, max_points: int = 2 ** 18) -> PolyCoeffs:
    """Independent coefficient oracle: FFT of Phi(z)^n on a circle hugging the
    airfoil, doubling the grid until the top coefficient stabilizes (<1e-12
    relative) and the degree-(n+1..n+4) tail is <1e-10 of the largest
    coefficient. Raises ResolutionError past max_points samples."""
    if n == 0:
        return PolyCoeffs(0, np.array([1.0 + 0j]))
    rho = 1.05 * max(1.0, float(np.max(np.abs(boundary_samples(p, 512)))))
    m = 256
    while m < 8 * n:
        m *= 2
    prev_top = None
    while m <= max_points:
        z = rho * np.exp(2j * np.pi * np.arange(m) / m)
        c = np.fft.fft(phi(p, z) ** n) / m
        f = c[: n + 1] / rho ** np.arange(n + 1)
        if prev_top is not None and abs(f[n] - prev_top) <= 1e-12 * (abs(f[n]) + 1e-300):
            tail = np.abs(c[n + 1: n + 5]) / rho ** np.arange(n + 1, n + 5)
            if tail.size and np.max(tail) < 1e-10 * np.max(np.abs(f)):
                return PolyCoeffs(n, f, source=(p, n))
        prev_top = f[n]
        m *= 2
    raise ResolutionError(f"oracle grid exceeded {max_points} points at n={n}")


@dataclass(frozen=True)
class FaberEvaluator:
    """Pointwise closed form a^-n [ (z-b+s)^n + (z-b-s)^n - (-b)^n ],
    s = sqrt(z-1) sqrt(z+1). Branch-free: the two terms swap across the cut."""

    params: AirfoilParams
    n: int

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        p, n = self.params, self.n
        s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
        w = z - p.b
        val = ((w + s) ** n + (w - s) ** n - (-p.b) ** n) * p.a ** (-float(n))
        return complex(val[()]) if scalar else val


def residual(p: AirfoilParams, n: int, z):
    """Zero-equation residual r(z) = 2 T_n(U(z)) - (-b/sqrt(V))^n and its
    z-derivative; r = a^n V^{-n/2} F_n(z), so r = 0 exactly at the zeros of
    F_n. The pair feeds Newton in rootfind. SingularityError at z = c."""
    u, v, _w, sv = uvw4(p, z)
    t, dt = _cheb_power_pair(n, u)
    # as an array even for scalar z: a Python complex power raises on overflow
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = (-p.b / np.asarray(sv)) ** n
        r = 2.0 * t - rhs
        du = (1.0 - p.b * np.asarray(z, dtype=complex)) / sv ** 3
        dr = 2.0 * dt * du - rhs * (n * p.b / v)
    return r, dr


def scaled_residual(p: AirfoilParams, n: int, z):
    """|r| / (2 + |(-b/sqrt(V))^n|): O(eps) at true zeros on every component.
    Where x^n or (-b/sqrt(V))^n passes the double range, the three terms of r
    are divided by the largest of them in log form, so the result is finite."""
    u, v, _w, sv = uvw4(p, z)
    t, _ = _cheb_power_pair(n, u)
    q = -p.b / np.asarray(sv)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = q ** n
        out = np.abs(2.0 * t - rhs) / (2.0 + np.abs(rhs))
    huge = ~np.isfinite(out)
    if np.any(huge):
        lx = n * np.log(_cheb_x(np.asarray(u, dtype=complex)))
        lq = n * np.log(q)
        top = np.maximum(lx.real, lq.real)
        num = np.abs(np.exp(lx - top) + np.exp(-lx - top) - np.exp(lq - top))
        out = np.where(huge, num / (2.0 * np.exp(-top) + np.exp(lq.real - top)), out)[()]
    return out
