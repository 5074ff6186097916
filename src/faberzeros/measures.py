"""Limit measures and the numeric checks against them.

The predicted weak-star limit of the zero counting measures is the arcsine
measure pulled back through U on the zero-carrying arc piece, plus (above
criticality) the uniform angle measure pushed onto the loop through -1. The
equilibrium-measure moments double as an n-point quadrature exactness test:
the zero set of the degree-n polynomial integrates z^k exactly for k <= n.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .conformal import (
    AirfoilParams, boundary_samples, phi, phi_b_inverse, psi, uvw, uvw4,
)
from .errors import DomainError, ParameterError, ResolutionError
from .limitsets import (
    CaseClass, CaseTag, arc_z_of_u, classify, intersection_ib, loop_points,
    polyline_min_dist, segment_points, u_lower,
)
from .rootfind import ZeroSet

_STABLE = 1e-11
_GRID_CAP = 2 ** 16


def _zeros_of(zs) -> np.ndarray:
    """Accept a ZeroSet or a bare array of zeros."""
    z = getattr(zs, "zeros", zs)
    return np.atleast_1d(np.asarray(z, dtype=complex))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure on a finite point set."""

    atoms: np.ndarray
    weight: float

    @classmethod
    def from_zeros(cls, zs: ZeroSet) -> "EmpiricalMeasure":
        return cls(atoms=np.asarray(zs.zeros), weight=1.0 / zs.n)


def pullback_density(p: AirfoilParams, x):
    """Real-case (theta = 0) arc density (1/pi) (1-bx) / (sqrt(1-x^2) V(x)),
    x in (-1, 1). DomainError at |x| >= 1."""
    if not p.is_real:
        raise ParameterError("closed-form density requires theta = 0")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("density is supported on the open interval (-1, 1)")
    b = p.b.real
    v = b * b + 1.0 - 2.0 * b * x
    out = (1.0 - b * x) / (np.pi * np.sqrt(1.0 - x * x) * v)
    return float(out[()]) if scalar else out


def ullman_density(x, alpha: float):
    """(1/pi) (1+2 alpha x) / (sqrt(1-x^2) (1+4 alpha^2+4 alpha x)); equals the
    pullback density at alpha = -b/2 = (R-1)/2."""
    x = np.asarray(x, dtype=float)
    return (1.0 + 2 * alpha * x) / (
        np.pi * np.sqrt(1.0 - x * x) * (1.0 + 4 * alpha * alpha + 4 * alpha * x))


@dataclass(frozen=True)
class PredictedMeasure:
    """Sampled density of the predicted limit measure, per component."""

    case: CaseClass
    u_lo: float
    mass_segment: float
    mass_loop: float
    segment_u: np.ndarray
    segment_z: np.ndarray
    segment_density: np.ndarray   # with respect to arclength
    loop_theta: np.ndarray
    loop_z: np.ndarray
    loop_density: np.ndarray
    c_plus: complex | None
    c_minus: complex | None
    span: float


def predicted(p: AirfoilParams, m: int = 257) -> PredictedMeasure:
    """Masses and arclength densities of both components of the limit measure."""
    case = classify(p)
    u_lo = u_lower(p)
    mass_seg = (np.pi / 2 - np.arcsin(np.clip(u_lo, -1.0, 1.0))) / np.pi
    mass_loop = 1.0 - mass_seg
    s_max = float(np.arccos(np.clip(u_lo, -1.0, 1.0)))
    s = s_max * (np.arange(m) + 0.5) / m           # interior samples only
    us = np.cos(s)[::-1]
    zs = arc_z_of_u(p, us)
    _, _, _, sv = uvw4(p, zs)
    du = np.abs((1.0 - p.b * zs) / sv ** 3)        # |U'(z)| transports du to |dz|
    seg_density = du / (np.pi * np.sqrt(1.0 - us ** 2))
    if case.has_loop and case.tag is not CaseTag.CRITICAL:
        lp = loop_points(p, 3)
        th0 = float(np.angle(lp.c_plus))
        theta = th0 + lp.span * (np.arange(m) + 0.5) / m
        w = np.exp(1j * theta)
        zl = phi_b_inverse(p, w)
        zeta = p.b * (1.0 - w)
        dz = np.abs(0.5 * (1.0 - 1.0 / zeta ** 2) * p.b * w)
        loop_density = 1.0 / (2 * np.pi * dz)
        return PredictedMeasure(
            case=case, u_lo=u_lo, mass_segment=float(mass_seg),
            mass_loop=float(mass_loop), segment_u=us, segment_z=zs,
            segment_density=seg_density, loop_theta=theta, loop_z=zl,
            loop_density=loop_density, c_plus=lp.c_plus, c_minus=lp.c_minus,
            span=lp.span)
    return PredictedMeasure(
        case=case, u_lo=u_lo, mass_segment=float(mass_seg),
        mass_loop=float(mass_loop), segment_u=us, segment_z=zs,
        segment_density=seg_density, loop_theta=np.empty(0),
        loop_z=np.empty(0, complex), loop_density=np.empty(0),
        c_plus=None, c_minus=None, span=0.0)


@dataclass(frozen=True)
class MomentVector:
    k_max: int
    values: np.ndarray    # values[k-1] = integral of z^k


def closed_moment_mp(b: complex, k: int, dps: int = 80) -> complex:
    """Exact equilibrium moment 2^-k sum_j C(k,j) b^(k-2j) (binomial mean of
    the boundary parametrization, all negative powers average to zero)."""
    with mp.workdps(dps):
        bm = mp.mpc(b)
        s = mp.mpc(0)
        for j in range(k // 2 + 1):
            s += mp.binomial(k, j) * bm ** (k - 2 * j)
        return complex(s / mp.mpf(2) ** k)


def equilibrium_moments(p: AirfoilParams, k_max: int,
                        escalate: bool = True) -> MomentVector:
    """Moments of the equilibrium measure by trapezoid/FFT on the boundary
    circle, grid-doubling until each moment moves < 1e-11. Moments whose
    double-precision noise floor exceeds that target are finished exactly in
    mpmath when escalate=True, else ResolutionError."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    mvals = np.zeros(k_max, dtype=complex)
    stable = np.zeros(k_max, dtype=bool)
    prev = None
    m = 1024
    while m <= _GRID_CAP:
        t = 2 * np.pi * np.arange(m) / m
        zs = psi(p, np.exp(1j * t))
        pw = np.ones(m, dtype=complex)
        cur = np.empty(k_max, dtype=complex)
        for k in range(1, k_max + 1):
            pw = pw * zs
            cur[k - 1] = np.mean(pw)
        if prev is not None:
            newly = np.abs(cur - prev) < _STABLE
            mvals = np.where(newly & ~stable, cur, mvals)
            stable |= newly
            if np.all(stable):
                return MomentVector(k_max, mvals)
        prev = cur
        m *= 2
    if not escalate:
        raise ResolutionError(
            f"{int(np.sum(~stable))} moment(s) failed to stabilize below "
            f"{_STABLE} with {_GRID_CAP} samples")
    for k in np.nonzero(~stable)[0] + 1:
        mvals[k - 1] = closed_moment_mp(p.b, int(k))
    return MomentVector(k_max, mvals)


def quadrature_residuals(p: AirfoilParams, zs: ZeroSet | np.ndarray,
                         moments: MomentVector | None = None) -> np.ndarray:
    """|mean(z_j^k) - m_k| for k = 1..n, the zero-set quadrature exactness
    check. Summation runs in mpmath (deterministic, no double cancellation)."""
    zarr = _zeros_of(zs)
    n = len(zarr)
    if moments is None:
        moments = equilibrium_moments(p, n)
    if moments.k_max < n:
        raise ValueError("need moments up to k = n")
    dps = 30 + n // 4
    out = np.empty(n)
    with mp.workdps(dps):
        zm = [mp.mpc(v) for v in zarr]
        pw = [mp.mpc(1) for _ in zm]
        inv_n = mp.mpf(1) / n
        for k in range(1, n + 1):
            acc = mp.mpc(0)
            for i, z in enumerate(zm):
                pw[i] *= z
                acc += pw[i]
            out[k - 1] = float(abs(acc * inv_n - mp.mpc(moments.values[k - 1])))
    return out


def classify_zeros(p: AirfoilParams, zs: ZeroSet | np.ndarray,
                   m: int = 2048) -> list[str]:
    """Label each zero 'segment', 'loop', or 'other' by distance (< 5/sqrt(n))
    to the predicted component polylines; ties go to the closer one."""
    zarr = _zeros_of(zs)
    radius = 5.0 / np.sqrt(len(zarr))
    seg = segment_points(p, m).samples
    dseg = polyline_min_dist(zarr, seg)
    case = classify(p)
    if case.has_loop and case.tag is not CaseTag.CRITICAL:
        dloop = polyline_min_dist(zarr, loop_points(p, m).samples)
    else:
        dloop = np.full(len(zarr), np.inf)
    labels = []
    for ds, dl in zip(dseg, dloop):
        if min(ds, dl) >= radius:
            labels.append("other")
        else:
            labels.append("segment" if ds <= dl else "loop")
    return labels


def predicted_moments(p: AirfoilParams, k_max: int, n_gl: int = 512) -> np.ndarray:
    """Moments of the predicted limit measure by Gauss-Legendre on each
    component (arcsine pullback in the angle variable; uniform loop angle)."""
    x, wq = np.polynomial.legendre.leggauss(n_gl)
    u_lo = u_lower(p)
    s_max = float(np.arccos(np.clip(u_lo, -1.0, 1.0)))
    s = s_max * (x + 1.0) / 2.0
    zseg = arc_z_of_u(p, np.cos(s))
    wseg = wq * (s_max / 2.0) / np.pi
    case = classify(p)
    zloop = np.empty(0, complex)
    wloop = np.empty(0)
    if case.has_loop and case.tag is not CaseTag.CRITICAL:
        lp = loop_points(p, 3)
        th = float(np.angle(lp.c_plus)) + lp.span * (x + 1.0) / 2.0
        zloop = phi_b_inverse(p, np.exp(1j * th))
        wloop = wq * (lp.span / 2.0) / (2 * np.pi)
    zall = np.concatenate([zseg, zloop])
    wall = np.concatenate([wseg, wloop])
    out = np.empty(k_max, dtype=complex)
    pw = np.ones_like(zall)
    for k in range(1, k_max + 1):
        pw = pw * zall
        out[k - 1] = np.sum(wall * pw)
    return out


@dataclass(frozen=True)
class WeakStarDistances:
    moment_dist: float
    cdf_dist: float


def weak_star_distance(p: AirfoilParams, zs: ZeroSet | np.ndarray,
                       k_max: int = 20, n_gl: int = 512) -> WeakStarDistances:
    """Two weak-star proxies: max moment gap for k <= k_max, and the KS
    distance of Re U(segment zeros) against the arcsine law conditioned to
    [u_lo, 1] (all zeros and the full arcsine below criticality)."""
    zarr = _zeros_of(zs)
    pred = predicted_moments(p, k_max, n_gl=n_gl)
    pw = np.ones(len(zarr), dtype=complex)
    md = 0.0
    for k in range(1, k_max + 1):
        pw = pw * zarr
        md = max(md, float(abs(np.mean(pw) - pred[k - 1])))
    u_lo = u_lower(p)
    if classify(p).tag is CaseTag.SUPERCRITICAL:
        labels = classify_zeros(p, zarr)
        sel = zarr[np.array([lab == "segment" for lab in labels])]
    else:
        sel = zarr
    if len(sel) == 0:
        return WeakStarDistances(moment_dist=md, cdf_dist=1.0)
    u, _, _ = uvw(p, sel)
    u = np.clip(np.real(u), -1.0, 1.0)
    lo = np.arcsin(np.clip(u_lo, -1.0, 1.0))
    g = (np.arcsin(u) - lo) / (np.pi / 2 - lo)
    g = np.sort(np.clip(g, 0.0, 1.0))
    i = np.arange(len(g))
    ks = float(np.max(np.maximum(np.abs(g - i / len(g)),
                                 np.abs(g - (i + 1) / len(g)))))
    return WeakStarDistances(moment_dist=md, cdf_dist=ks)


def default_test_points(p: AirfoilParams, count: int = 8,
                        margin: float = 0.2) -> np.ndarray:
    """Exterior probe ring: psi(r e^{i theta_k}) with the radius grown per
    direction until the boundary clearance exceeds the margin."""
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


def potential_check(p: AirfoilParams, zs: ZeroSet | np.ndarray, points=None,
                    margin: float = 0.2) -> np.ndarray:
    """| (1/n) sum log|z - z_j| - log(capacity) - log|Phi(z)| | at exterior
    points; DomainError if any point is closer than margin to the boundary."""
    zarr = _zeros_of(zs)
    if points is None:
        points = default_test_points(p, margin=margin)
    points = np.atleast_1d(np.asarray(points, dtype=complex))
    boundary = boundary_samples(p, 1024)
    d = polyline_min_dist(points, boundary)
    if np.any(d < margin - 1e-9):
        raise DomainError(
            f"test point too close to the boundary (clearance {np.min(d):.3f} "
            f"< margin {margin})")
    devs = np.empty(len(points))
    for i, z in enumerate(points):
        lhs = float(np.mean(np.log(np.abs(z - zarr))))
        rhs = float(np.log(p.capacity) + np.log(abs(phi(p, z))))
        devs[i] = abs(lhs - rhs)
    return devs


def report(p: AirfoilParams, zs: ZeroSet | np.ndarray,
           moments: MomentVector | None = None) -> dict:
    """Everything the verify command gates on, as one plain dict."""
    zarr = _zeros_of(zs)
    case = classify(p)
    pred = predicted(p)
    wsd = weak_star_distance(p, zarr)
    if moments is None:
        moments = equilibrium_moments(p, len(zarr))
    quad = quadrature_residuals(p, zarr, moments=moments)
    mscale = np.maximum(1.0, np.abs(moments.values[:len(zarr)]))
    quad_rel = float(np.max(quad / mscale))
    pot = float(np.max(potential_check(p, zarr)))
    labels = classify_zeros(p, zarr)
    counts = {lab: labels.count(lab) for lab in ("segment", "loop", "other")}
    return {
        "case": case.tag.value,
        "masses": {"segment": pred.mass_segment, "loop": pred.mass_loop},
        "moment_dist": wsd.moment_dist,
        "cdf_dist": wsd.cdf_dist,
        "quad_max_residual": quad_rel,
        "potential_max_dev": pot,
        "counts": counts,
    }
