"""Faber polynomials of the airfoil, three independent ways.

faber_closed builds coefficients from the power-sum recurrence
S_m = 2(z-b) S_{m-1} - V S_{m-2}; faber_oracle extracts them from an FFT of
Phi^n on a circle; FaberEvaluator evaluates the closed form pointwise.  The
zero equation lives here too, on the paper's branch-free closed form
a^n F_n = (w+s)^n + (w-s)^n - (-b)^n, w = z - b, s^2 = z^2 - 1: residual()
returns it and its derivative, each divided by the n-th power of the largest
of |w+s|, |w-s| and |b|, so neither overflows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .conformal import AirfoilParams, boundary_samples, phi
from .errors import ResolutionError

_CHEB_BAND = 1.0 + 1e-3
_POW_DIRECT = 100                   # numpy's complex ** multiplies below this
_TINY = np.finfo(float).tiny


def _square_chain(x, n: int):
    if n < _POW_DIRECT:
        return x ** n
    h = _square_chain(x, n // 2)
    return h * h * x if n & 1 else h * h


def ipow(x, n: int):
    """x ** n for an integer n >= 0, without floating-point warnings.

    numpy's complex ** multiplies for exponents below 100 and goes through
    exp/log above, which is several times slower and, on the unit circle,
    has three times the error (1.2 n eps against 0.35 n eps at worst). So
    n >= 100 is split by binary powering, x^n = (x^(n//2))^2 x^(n mod 2), down
    to powers below 100. Powers of two stay with x ** n: there n log x is
    exact and exp/log is the more accurate (0.31 n eps). Entries whose result
    overflows, is not finite or falls below the normal range are recomputed
    with x ** n, so they are exactly numpy's. Below n = 100 the result is
    x ** n bit for bit."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if n < _POW_DIRECT or n & (n - 1) == 0:
            return x ** n
        out = _square_chain(x, n)
        mag = np.abs(out)
        redo = ~((mag >= _TINY) & (mag < np.inf))
        if np.any(redo):
            out = np.where(redo, x ** n, out)
    return out


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
        # the |x| >= 1 branch of x = u +- sqrt(u^2-1): T_n(u) = (x^n + x^-n)/2
        uo = u[~band]
        s = np.sqrt(uo * uo - 1.0)
        xn = ipow(np.where(np.abs(uo + s) >= 1.0, uo + s, uo - s), n)
        with np.errstate(over="ignore", invalid="ignore"):
            out[~band] = 0.5 * (xn + 1.0 / xn)
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


def _closed_terms(p: AirfoilParams, n: int, z):
    """(t+, t-, tb, d+, d-, s) at z: the three terms of a^n F_n =
    (w+s)^n + (w-s)^n - (-b)^n, w = z - b, s = sqrt(z-1) sqrt(z+1), each
    divided by top^n, top = max(|w+s|, |w-s|, |b|) so none overflows, and
    d+- = (w +- s)^(n-1) / top^n, which carry the derivative. Single-valued
    in z: the two terms swap across the cut of s."""
    z = np.asarray(z, dtype=complex)
    s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    xp, xm = z - p.b + s, z - p.b - s
    top = np.maximum(np.maximum(np.abs(xp), np.abs(xm)), abs(p.b))
    dp, dm = ipow(xp / top, n - 1) / top, ipow(xm / top, n - 1) / top
    return dp * xp, dm * xm, ipow(-p.b / top, n), dp, dm, s


def residual(p: AirfoilParams, n: int, z):
    """(r, r'): a^n F_n(z) and its z-derivative, both divided by top^n
    (_closed_terms), so r = 0 exactly at the zeros of F_n and r/r' is
    Newton's step for F_n. r' is not the derivative of r, as top varies
    with z. r' is NaN where s = 0 (z = +-1)."""
    tp, tm, tb, dp, dm, s = _closed_terms(p, n, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        return tp + tm - tb, n * (dp * (s + z) + dm * (s - z)) / s


def scaled_residual(p: AirfoilParams, n: int, z):
    """|a^n F_n| / (|t+| + |t-| + |tb|), the residual relative to its three
    terms (_closed_terms): O(eps) at true zeros on every component."""
    tp, tm, tb, *_ = _closed_terms(p, n, z)
    return np.abs(tp + tm - tb) / (np.abs(tp) + np.abs(tm) + np.abs(tb))
