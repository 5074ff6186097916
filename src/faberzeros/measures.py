"""Limit measures and the numeric checks against them.

The predicted weak-star limit of the zero counting measures is the arcsine
measure pulled back through U on the zero-carrying arc piece, plus (above
criticality) the uniform angle measure on the unit-circle arc where
|g(w)| < 1, pushed onto the loop by J(b(1-w)).

The limit is never the equilibrium measure omega_K, yet it has omega_K's
exterior potential log cap + log|Phi|, so it has every moment m_k of
omega_K, and those have a closed form (equilibrium_moments). The n zeros
of F_n integrate every polynomial of degree below n exactly against
omega_K. In the Faber basis that reads mean_j F_k(z_j) = 0 for
1 <= k <= n, and by the closed form a^k F_k = (w+s)^k + (w-s)^k - (-b)^k
each term is at most |a|^k on the airfoil, so plain double checks it to a
few n eps. The monomial form against the m_k has a condition number up to
1e75.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (
    AirfoilParams, arc_candidates, boundary_samples, phi, phi_b_inverse, psi,
    uvw, uvw4,
)
from .errors import DomainError, ParameterError
from .limitsets import (
    CaseClass, CaseTag, _distance_range, _polyline_query, _prepare_polyline,
    arc_z_of_u, classify, loop_points, segment_points,
)
from .rootfind import ZeroSet

# verify's gates: a run passes when every one of them holds
CDF_GATE = 0.12         # Kolmogorov distance of the segment zeros' U-law
MASS_GATE = 0.06        # |segment or loop share - predicted mass|, supercritical
POTENTIAL_GATE = 0.05   # max deviation of the zeros' log potential
_EPS = 2.0 ** -52       # machine epsilon
_POLYLINE_M = 2048      # samples of each predicted polyline classify_zeros measures to
_MOMENT_K = 20          # moments weak_star_distance compares, k = 1..20
_PROBE_MARGIN = 0.2     # boundary clearance potential_check requires of its points


def _zeros_of(zs) -> np.ndarray:
    """Accept a ZeroSet or a bare array of zeros."""
    z = getattr(zs, "zeros", zs)
    return np.atleast_1d(np.asarray(z, dtype=complex))


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
    """Sampled density of the predicted limit measure, per component; the
    loop ends, span and u_lo are those of case."""

    case: CaseClass
    mass_segment: float
    mass_loop: float
    segment_u: np.ndarray
    segment_z: np.ndarray
    segment_density: np.ndarray   # with respect to arclength
    loop_theta: np.ndarray
    loop_z: np.ndarray
    loop_density: np.ndarray


def predicted(p: AirfoilParams, m: int = 257) -> PredictedMeasure:
    """Masses and arclength densities of both components of the limit measure."""
    case = classify(p)
    mass_seg, mass_loop = case.masses
    s = case.s_max * (np.arange(m) + 0.5) / m      # interior samples only
    us = np.cos(s)[::-1]
    zs = arc_z_of_u(p, us)
    _, _, _, sv = uvw4(p, zs)
    du = np.abs((1.0 - p.b * zs) / sv ** 3)        # |U'(z)| transports du to |dz|
    seg_density = du / (np.pi * np.sqrt(1.0 - us ** 2))
    if case.tag is CaseTag.SUPERCRITICAL:
        theta = case.start + case.span * (np.arange(m) + 0.5) / m
        w = np.exp(1j * theta)
        zl = phi_b_inverse(p, w)
        zeta = p.b * (1.0 - w)
        dz = np.abs(0.5 * (1.0 - 1.0 / zeta ** 2) * p.b * w)
        loop_density = 1.0 / (2 * np.pi * dz)
    else:
        theta, zl, loop_density = np.empty(0), np.empty(0, complex), np.empty(0)
    return PredictedMeasure(
        case=case, mass_segment=mass_seg, mass_loop=mass_loop, segment_u=us,
        segment_z=zs, segment_density=seg_density, loop_theta=theta, loop_z=zl,
        loop_density=loop_density)


@dataclass(frozen=True)
class MomentVector:
    """Equilibrium moments m_k, k = 1..k_max: values[k-1] = m_k as a complex
    double (inf where that overflows), and m_k = mantissas[k-1] *
    2^exponents[k-1] with max(|Re|, |Im|) of each mantissa in [1/2, 1),
    which stays finite at any size."""

    k_max: int
    values: np.ndarray
    mantissas: np.ndarray
    exponents: np.ndarray


def closed_moment_mp(b: complex, k: int, dps: int = 80) -> complex:
    """Exact equilibrium moment 2^-k sum_j C(k,j) b^(k-2j) (binomial mean of
    the boundary parametrization, all negative powers average to zero); the
    term-by-term reference for equilibrium_moments."""
    import mpmath as mp

    with mp.workdps(dps):
        b2 = mp.mpc(b) ** 2
        term = mp.mpc(b) ** (k % 2)          # b^(k-2j) from j = k//2 down
        binom = math.comb(k, k // 2)
        s = mp.mpc(0)
        for j in range(k // 2, -1, -1):
            s += binom * term
            term *= b2
            binom = binom * j // (k - j + 1)  # C(k, j-1)
        return complex(s / mp.mpf(2) ** k)


def equilibrium_moments(p: AirfoilParams, k_max: int) -> MomentVector:
    """All equilibrium moments m_1..m_kmax in one pass over the closed form.

    m_k = g_k / 2^k with g_k = sum_{j <= k/2} C(k, j) b^(k-2j), the part of
    (b + 1/b)^k without negative powers of b. Splitting off the middle
    binomial gives g_0 = 1 and

        g_{k+1} = b g_k + (g_k - [k even] C(k, k/2)) / b + [k odd] C(k, (k+1)/2).

    The recurrence cancels where |b + 1/b| > 2: a rounding at step j grows
    by up to |b + 1/b|^(k-j), while g_k is needed to an ulp of
    2^k max(1, |m_k|). |g_j|, |b + 1/b| and the binomial terms are bounded by
    powers of M = |b| + 1/|b|, so g runs in fixed point on Python integers
    with k_max log2(M/2) guard bits on top of 64 fraction bits, plus the gap
    between the binary exponents of Re b and Im b, which keeps the smaller
    part of each g_k (of order theta g_k at small theta) as precise as the
    larger. b enters exactly, as integers over 2^s; a step rounds only where
    it shifts by 2^s and divides by |b|^2 2^2s, and each moment is rounded to
    double once.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    growth = abs(p.b) + 1.0 / abs(p.b)
    frac = 64 + math.ceil(math.log2(3 * k_max)
                          + k_max * max(0.0, math.log2(growth / 2)))
    parts = [abs(v) for v in (p.b.real, p.b.imag) if v]
    frac += math.frexp(max(parts))[1] - math.frexp(min(parts))[1]
    # b = (br + i bi) / 2^s exactly: both denominators are powers of two
    (nr, dr), (ni, di) = p.b.real.as_integer_ratio(), p.b.imag.as_integer_ratio()
    s = max(dr, di).bit_length() - 1
    br, bi = nr << (s - dr.bit_length() + 1), ni << (s - di.bit_length() + 1)
    norm = br * br + bi * bi
    mant = np.empty(k_max, dtype=complex)
    expo = np.empty(k_max, dtype=np.int64)
    gr, gi = 1 << frac, 0                     # g = (gr + i gi) / 2^frac
    mid = 1                                   # C(k, floor(k/2))
    for k in range(k_max):
        tr = gr - (mid << frac) if k % 2 == 0 else gr
        # b g + t / b, with t = g - [k even] mid and 1/b = 2^s (br - i bi) / norm
        gr, gi = (((br * gr - bi * gi) >> s) + (((tr * br + gi * bi) << s) // norm),
                  ((br * gi + bi * gr) >> s) + (((gi * br - tr * bi) << s) // norm))
        if k % 2:
            gr += mid << frac
            mid *= 2
        else:
            mid = mid * (k + 1) // (k // 2 + 1)
        e = max(abs(gr), abs(gi)).bit_length()
        one = 1 << e                          # int / int rounds correctly
        mant[k] = complex(gr / one, gi / one)
        expo[k] = e - frac - (k + 1)
    values = np.empty(k_max, dtype=complex)
    with np.errstate(over="ignore"):
        values.real = np.ldexp(mant.real, expo)
        values.imag = np.ldexp(mant.imag, expo)
    return MomentVector(k_max, values, mant, expo)


_ROWS = 8    # consecutive powers built and summed together: one at a time
             # is about twice as slow, 16 at a time hardly faster


def _power_sums(x: np.ndarray, n: int) -> np.ndarray:
    """sum_j x_j^k for k = 1..n, _ROWS consecutive powers at a time: the
    first block by running products, each later one as the block before
    times x^_ROWS."""
    block = np.cumprod(np.broadcast_to(x, (min(_ROWS, n), len(x))), axis=0)
    step = block[-1].copy()
    sums = np.empty(n, dtype=complex)
    for k0 in range(0, n, len(block)):
        if k0:
            block *= step
        sums[k0:k0 + len(block)] = block.sum(axis=1)[:n - k0]
    return sums


def quadrature_residuals(p: AirfoilParams, zs: ZeroSet | np.ndarray) -> np.ndarray:
    """|mean_j F_k(z_j)| for k = 1..n, the quadrature identity in the Faber
    basis: F_k = A^k + B^k - c^k, A, B = (w +- s)/a, c = -b/a, w = z - b,
    s = sqrt(z-1) sqrt(z+1) (either branch), all at most 1 in modulus on
    the airfoil, as running products over all zeros at once."""
    z = _zeros_of(zs)
    n = len(z)
    w, s = z - p.b, np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _power_sums(np.concatenate([(w + s) / p.a, (w - s) / p.a]), n)
        return np.abs(sums / n - np.cumprod(np.full(n, -p.b / p.a)))


def quadrature_gate(p: AirfoilParams, zs: ZeroSet | np.ndarray) -> float:
    """The value verify gates on: max_k |mean_j F_k(z_j)| over k = 1..n."""
    return float(np.max(quadrature_residuals(p, zs)))


def classify_zeros(p: AirfoilParams, zs: ZeroSet | np.ndarray) -> list[str]:
    """Label each zero 'segment', 'loop', or 'other' by distance (< 5/sqrt(n))
    to the predicted component polylines; ties go to the segment.

    The rule needs only comparisons, so each distance is first bracketed
    by the bounds that prune the nearest-segment search (box distances
    below, nearest block vertex above; limitsets._distance_range): a zero is
    'segment' when its segment distance is surely below the radius and
    below its loop distance, 'loop' in the mirror case, and 'other' when
    both are surely at least the radius. Only the zeros the brackets leave
    open (near the radius, about equidistant, or NaN) get exact distances,
    so the labels are those of the exact rule."""
    zarr = _zeros_of(zs)
    radius = 5.0 / np.sqrt(len(zarr))
    seg = _prepare_polyline(segment_points(p, _POLYLINE_M).samples)
    s_lo, s_hi = _distance_range(seg, zarr)
    if classify(p).tag is CaseTag.SUPERCRITICAL:
        loop = _prepare_polyline(loop_points(p, _POLYLINE_M).samples)
        l_lo, l_hi = _distance_range(loop, zarr)
    else:
        loop = None
        l_lo = l_hi = np.full(len(zarr), np.inf)
    is_seg = (s_hi < radius) & (s_hi < l_lo)
    is_loop = (l_hi < radius) & (l_hi < s_lo)
    is_other = (s_lo >= radius) & (l_lo >= radius)
    labels = np.where(is_loop, "loop", np.where(is_other, "other", "segment"))
    open_ = ~(is_seg | is_loop | is_other)
    if np.any(open_):
        z = zarr[open_]
        ds = _polyline_query(seg, z)
        dl = _polyline_query(loop, z) if loop is not None else np.full(len(z), np.inf)
        near = np.where(dl < ds, dl, ds)           # min(ds, dl), NaN as min() takes it
        labels[open_] = np.where(near >= radius, "other",
                                 np.where(ds <= dl, "segment", "loop"))
    return labels.tolist()


def predicted_moments(p: AirfoilParams, k_max: int) -> np.ndarray:
    """Moments m_1..m_kmax of the predicted limit measure mu. mu is never
    omega_K, but it has omega_K's exterior potential log cap + log|Phi|,
    whose expansion at infinity has the moments for coefficients, so mu
    shares every moment of omega_K: these are
    equilibrium_moments(p, k_max).values."""
    return equilibrium_moments(p, k_max).values


@dataclass(frozen=True)
class WeakStarDistances:
    moment_dist: float
    cdf_dist: float


def weak_star_distance(p: AirfoilParams, zs: ZeroSet | np.ndarray,
                       labels: list[str] | None = None) -> WeakStarDistances:
    """Two weak-star proxies: max_k |mean_j z_j^k - m_k| for k <= _MOMENT_K,
    the gap between the zeros' power sums and the limit measure's exact
    moments (predicted_moments), and the KS distance of U(segment zeros)
    against the arcsine law conditioned to [u_lo, 1] (all zeros and the
    full arcsine below criticality). labels, if given, are
    classify_zeros(p, zs), already computed."""
    zarr = _zeros_of(zs)
    gap = _power_sums(zarr, _MOMENT_K) / len(zarr) - predicted_moments(p, _MOMENT_K)
    md = float(np.max(np.abs(gap)))
    case = classify(p)
    if case.tag is CaseTag.SUPERCRITICAL:
        if labels is None:
            labels = classify_zeros(p, zarr)
        sel = zarr[np.array([lab == "segment" for lab in labels])]
    else:
        sel = zarr
    if len(sel) == 0:
        return WeakStarDistances(moment_dist=md, cdf_dist=1.0)
    # u on the branch of the arc, not of sqrt(V), whose cut can cross the
    # arc at steep theta: |Re U|, negative where the zero lies nearer
    # z_minus(u^2) than z_plus(u^2) (see arc_z_of_u)
    u, _, _ = uvw(p, sel)
    u = np.abs(np.real(u))
    zp, zm = arc_candidates(p, u * u)
    u = np.where(np.abs(sel - zp) <= np.abs(sel - zm), u, -u)
    u = np.clip(u, -1.0, 1.0)
    lo = np.arcsin(np.clip(case.u_lo, -1.0, 1.0))
    g = (np.arcsin(u) - lo) / (np.pi / 2 - lo)
    g = np.sort(np.clip(g, 0.0, 1.0))
    i = np.arange(len(g))
    ks = float(np.max(np.maximum(np.abs(g - i / len(g)),
                                 np.abs(g - (i + 1) / len(g)))))
    return WeakStarDistances(moment_dist=md, cdf_dist=ks)


def default_test_points(p: AirfoilParams, count: int = 8,
                        margin: float = _PROBE_MARGIN) -> np.ndarray:
    """Exterior probe ring: psi(r_k e^{i theta_k}), each radius starting at
    1.05 and grown by 6 % until the boundary clearance reaches 1.02 margin
    (or r reaches 50)."""
    return _probe_ring(p, _prepare_polyline(boundary_samples(p)), count, margin)[0]


_LOOKAHEAD = 4  # radii tested per growing direction and pass: fewer take
                # more passes, every radius at once measures many unused ones


def _clears(boundary, z: np.ndarray, clearance: float) -> np.ndarray:
    """Whether each z is not closer than clearance to the prepared boundary
    (NaN counts as clear), from the distance bounds where they decide it
    and from the exact distance elsewhere."""
    lo, hi = _distance_range(boundary, z)
    clear = lo >= clearance
    open_ = ~(clear | (hi < clearance))
    if np.any(open_):
        clear[open_] = ~(_polyline_query(boundary, z[open_]) < clearance)
    return clear


def _probe_ring(p: AirfoilParams, boundary, count: int, margin: float):
    """(probes, cleared): default_test_points against an already prepared
    boundary, and whether each probe clears 1.02 margin (False where r
    reached 50 first). Each pass tests the next _LOOKAHEAD radii of every
    direction still growing, formed by the same repeated 6 % steps, and
    stops a direction at the first that clears or reaches 50."""
    w0 = np.exp(1j * (2 * np.pi * (np.arange(count) + 0.5) / count))
    r = np.full(count, 1.05)
    z = np.empty(count, dtype=complex)
    cleared = np.empty(count, dtype=bool)
    grow = np.arange(count)
    while len(grow):
        rk = np.empty((len(grow), _LOOKAHEAD))
        rk[:, 0] = r[grow]
        for j in range(1, _LOOKAHEAD):
            rk[:, j] = rk[:, j - 1] * 1.06
        zk = psi(p, rk * w0[grow, None])
        clear = _clears(boundary, zk.ravel(), margin * 1.02).reshape(zk.shape)
        stop = clear | ~(rk < 50.0)
        done = np.any(stop, axis=1)
        at = np.argmax(stop[done], axis=1)
        z[grow[done]] = zk[done, at]
        cleared[grow[done]] = clear[done, at]
        r[grow[~done]] = rk[~done, -1] * 1.06
        grow = grow[~done]
    return z, cleared


def potential_check(p: AirfoilParams, zs: ZeroSet | np.ndarray, points=None) -> np.ndarray:
    """| (1/n) sum log|z - z_j| - log(capacity) - log|Phi(z)| | at exterior
    points, Phi in one call; DomainError if any is closer than _PROBE_MARGIN
    to the boundary. Default probes that cleared 1.02 of it are not re-measured."""
    zarr = _zeros_of(zs)
    boundary = _prepare_polyline(boundary_samples(p))
    if points is None:
        points, cleared = _probe_ring(p, boundary, 8, _PROBE_MARGIN)
        unsure = points[~cleared]
    else:
        points = unsure = np.atleast_1d(np.asarray(points, dtype=complex))
    if len(unsure):
        d = _polyline_query(boundary, unsure)
        if np.any(d < _PROBE_MARGIN - 1e-9):
            raise DomainError(
                f"test point too close to the boundary (clearance {np.min(d):.3f} "
                f"< margin {_PROBE_MARGIN})")
    lhs = np.mean(np.log(np.abs(points[:, None] - zarr)), axis=1)
    w = phi(p, points)
    # np.hypot rounds |Phi| as abs() of one complex does; np.abs does not
    return np.abs(lhs - (np.log(p.capacity) + np.log(np.hypot(w.real, w.imag))))


def quad_tol(n: int, unit: float = _EPS) -> float:
    """verify's quadrature threshold for n zeros known to relative unit."""
    return 2.0 ** 6 * max(n, 16) * unit


def report(p: AirfoilParams, zs: ZeroSet | np.ndarray,
           tol_quad: float | None = None) -> dict:
    """Everything the verify command gates on, the gates and the verdict, as
    one plain dict in the key order of a run in verify_report.json.
    tol_quad defaults to quad_tol(n)."""
    zarr = _zeros_of(zs)
    n = len(zarr)
    if tol_quad is None:
        tol_quad = quad_tol(n)
    case = classify(p)
    mass_seg, mass_loop = case.masses
    labels = classify_zeros(p, zarr)
    wsd = weak_star_distance(p, zarr, labels=labels)
    quad_rel = quadrature_gate(p, zarr)
    pot = float(np.max(potential_check(p, zarr)))
    counts = {lab: labels.count(lab) for lab in ("segment", "loop", "other")}
    gates = {"quadrature": quad_rel < tol_quad,
             "cdf": wsd.cdf_dist < CDF_GATE,
             "potential": pot < POTENTIAL_GATE,
             "unclassified": counts["other"] <= 3.0 * np.sqrt(n)}
    if case.tag is CaseTag.SUPERCRITICAL:
        gates["mass_split"] = (
            abs(counts["segment"] / n - mass_seg) <= MASS_GATE
            and abs(counts["loop"] / n - mass_loop) <= MASS_GATE)
    return {
        "n": n,
        "case": case.tag.value,
        "masses": {"segment": mass_seg, "loop": mass_loop},
        "moment_dist": wsd.moment_dist,
        "cdf_dist": wsd.cdf_dist,
        "quad_max_residual": quad_rel,
        "quad_tol": tol_quad,
        "potential_max_dev": pot,
        "counts": counts,
        "gates": gates,
        "pass": all(gates.values()),
    }
