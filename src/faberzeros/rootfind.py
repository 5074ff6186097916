"""Locating all n zeros of the degree-n Faber polynomial.

The production route is the seeded solver, which never touches coefficients.
Its one zero equation in z is the paper's branch-free closed form
a^n F_n = (w+s)^n + (w-s)^n - (-b)^n, w = z - b, s^2 = z^2 - 1 (faber.residual).
Segment zeros come from brackets whose ends are the arc points where U takes
adjacent Chebyshev values cos(k pi/n). On a real airfoil the closed form is
real on the segment, so each bracket is solved in z by Newton kept inside it
by the residual's sign, one residual evaluation per pass; otherwise Newton
starts from the arc point of each bracket's middle angle. Both step on
f V^(-n/2), V = b^2 + 1 - 2bz, which on the arc is 2 T_n(U) - (-b/sqrt(V))^n
and so stays bounded there (_newton_step). Loop zeros come from a unit-circle
Newton in the w-plane on the exact pullback
F_n(J(b(1-w))) = (-b/a)^n (w^n + g(w)^n - 1), g(w) = 1 - 1/(b^2 (1-w)).
The zeros these seeds miss (near the loop corners, just above criticality,
and at low degree and steep rotation, where the limit set is far from the
zeros) come from Aberth's iteration on the branch-free closed form with the
found zeros held fixed (Maehly's implicit deflation). A double-precision
Newton pass tightens every zero, and Newton in mpmath on the closed form
finishes the few whose error bound stays above the closed form's rounding
floor in double (near theta = pi/2 that floor is about 1e-13).

The simultaneous (Aberth) solver on the coefficients,
roots_simultaneous(faber_closed(p, n)), is kept as an independent oracle for
the tests and is never called by the seeded solver. It dies of rounding
around n = 40 unless it escalates to mpmath via the provenance stored on
PolyCoeffs, and it stops converging above n = 60.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .conformal import AirfoilParams, phi_b_inverse
from .errors import ConvergenceError, DeficitError, MismatchError
from .faber import _closed_terms, faber_coeffs_mp, ipow, residual, scaled_residual
from .limitsets import arc_z_of_u, intersection_ib, loop_g, u_lower

RESIDUAL_GATE = 1e-7      # ZeroSet guarantee on max scaled residual
BACKWARD_GATE = 1e-10     # |p(root)| / (max|c| * max(1,|root|)^deg)
DISTINCT_TOL = 1e-8
TIGHTEN_GATE = 1e-13      # seeded zeros above this scaled residual get Newton
POLISH_GATE = 2e-14       # error bound / max(1,|z|) above this: mpmath Newton
_EPS = np.finfo(float).eps


class Method(enum.Enum):
    SIMULTANEOUS = "simultaneous"
    SEEDED = "seeded"


@dataclass(frozen=True)
class ZeroSet:
    """All n zeros, sorted by (Re, Im), with scaled equation residuals."""

    n: int
    zeros: np.ndarray
    residuals: np.ndarray
    method: Method

    def __post_init__(self):
        assert len(self.zeros) == self.n == len(self.residuals)


def _sorted(z):
    z = np.asarray(z, dtype=complex)
    return z[np.lexsort((z.imag, z.real))]


def _dedup(z, tol=DISTINCT_TOL):
    """Greedy in (Re, Im) order: drop each zero within tol of one kept before
    it. Only zeros whose real parts lie within 2 tol after a kept one (a
    margin over rounding) are compared with it."""
    z = _sorted(z)
    hi = np.searchsorted(z.real, z.real + 2.0 * tol, side="right")
    keep = np.ones(len(z), dtype=bool)
    for i in np.nonzero(hi > np.arange(1, len(z) + 1))[0]:
        if keep[i]:
            keep[i + 1:hi[i]] &= np.abs(z[i + 1:hi[i]] - z[i]) > tol
    return z[keep]


def _horner_pair(co, z):
    p = np.full_like(z, co[-1])
    dp = np.zeros_like(z)
    for c in co[-2::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _aberth_double(co, max_iter=120):
    deg = len(co) - 1
    cn = co[-1]
    # Cauchy-style radius + irrational angular offset so no symmetry traps us
    r0 = 1.0 + max(abs(co[k] / cn) ** (1.0 / (deg - k)) for k in range(deg))
    z = r0 * np.exp(2j * np.pi * (np.arange(deg) + 0.26183) / deg)
    ok = False
    for _ in range(max_iter):
        p, dp = _horner_pair(co, z)
        dp = np.where(np.abs(dp) < 1e-300, 1e-300, dp)
        newton = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - newton * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        z = z - step
        if np.max(np.abs(step) / (1.0 + np.abs(z))) < 1e-14:
            ok = True
            break
    return z, ok


def _aberth_polish_mp(co_mp, z0, dps, max_iter=60):
    with mp.workdps(dps):
        zs = [mp.mpc(v) for v in z0]
        deg = len(zs)
        for _ in range(max_iter):
            worst = mp.mpf(0)
            for i in range(deg):
                z = zs[i]
                p = co_mp[-1]
                dp = mp.mpc(0)
                for c in co_mp[-2::-1]:
                    dp = dp * z + p
                    p = p * z + c
                if dp == 0:
                    continue
                newton = p / dp
                s = mp.mpc(0)
                for j in range(deg):
                    if j != i:
                        s += 1 / (z - zs[j])
                denom = 1 - newton * s
                if denom == 0:
                    continue
                step = newton / denom
                zs[i] = z - step
                worst = max(worst, abs(step) / (1 + abs(zs[i])))
            if worst < mp.mpf("1e-20"):
                break
        return np.array([complex(v) for v in zs])


def _backward_residuals(co, z):
    p, _ = _horner_pair(np.asarray(co, dtype=complex), z)
    deg = len(co) - 1
    scale = np.max(np.abs(co)) * np.maximum(1.0, np.abs(z)) ** deg
    return np.abs(p) / scale


def roots_simultaneous(poly, max_iter: int = 120) -> ZeroSet:
    """All roots of poly, a faber.PolyCoeffs, by Aberth iteration on the
    coefficients, with an mpmath recompute-and-polish fallback when the
    polynomial knows its provenance. ConvergenceError (with .partial) if the
    residual gates can't be met."""
    deg = poly.degree
    if deg < 1:
        raise ValueError("need degree >= 1")
    co = poly.coeffs
    if deg == 1:
        z = np.array([-co[0] / co[1]])
        ok = True
    else:
        z, ok = _aberth_double(co, max_iter=max_iter)
    src = poly.source
    need_escalation = not ok or not np.all(_backward_residuals(co, z) <= BACKWARD_GATE)
    if src is not None:
        p_air, n = src
        eq = scaled_residual(p_air, n, z)
        need_escalation = need_escalation or not np.all(eq <= 1e-11)
        if need_escalation:
            dps = 40 + int(0.8 * n)
            z = _aberth_polish_mp(faber_coeffs_mp(p_air, n, dps=dps), z, dps=dps)
            eq = scaled_residual(p_air, n, z)
        res = eq
        if not np.all(res <= RESIDUAL_GATE):
            partial = ZeroSet(deg, _sorted(z), np.sort(res), Method.SIMULTANEOUS)
            raise ConvergenceError(
                f"scaled residual stuck at {np.max(res):.2e}", partial=partial)
    else:
        if need_escalation:
            # no provenance: polish against the same double coefficients
            z = _aberth_polish_mp([mp.mpc(v) for v in co], z, dps=60)
        res = _backward_residuals(co, z)
        if not np.all(res <= BACKWARD_GATE):
            partial = ZeroSet(deg, _sorted(z), res, Method.SIMULTANEOUS)
            raise ConvergenceError(
                f"backward residual stuck at {np.max(res):.2e}", partial=partial)
    order = np.lexsort((z.imag, z.real))
    return ZeroSet(deg, z[order], np.asarray(res)[order], Method.SIMULTANEOUS)


@dataclass(frozen=True)
class SeedPlan:
    """Where to look: bracketing arc intervals for segment zeros and
    roots-of-unity images for loop zeros."""

    n: int
    segment_brackets: np.ndarray  # (m, 2): arc points at the low/high u ends (real b only)
    loop_seeds: np.ndarray        # J(b(1-omega_k)) for on-arc omega_k
    u_lo: float
    _ts: np.ndarray = field(repr=False, default=None)       # t-brackets, t = arccos u
    _omegas: np.ndarray = field(repr=False, default=None)   # the omega_k kept

    @property
    def count(self) -> int:
        return len(self._ts) + len(self.loop_seeds)


def seed_plan(p: AirfoilParams, n: int) -> SeedPlan:
    """Chebyshev-style brackets on the zero-carrying arc piece plus unit-root
    seeds on the loop-side circle arc (selected by |g(omega)| < 1). Only a
    real airfoil's segment solve works on z-brackets, so only there are the
    t-brackets mapped to z-brackets; elsewhere segment_brackets is empty."""
    if n < 1:
        raise ValueError("n must be >= 1")
    u_lo = u_lower(p)
    s_max = float(np.arccos(np.clip(u_lo, -1.0, 1.0)))
    k = np.arange(n)
    tlo = k * np.pi / n
    thi = (k + 1) * np.pi / n
    keep = tlo < s_max - 1e-15
    tlo, thi = tlo[keep], np.minimum(thi[keep], s_max)
    ts = np.stack([tlo, thi], axis=1)
    brackets = np.empty((0, 2), complex)
    if len(ts) and p.is_real:
        # one call for both ends: column 0 is the lower u end
        brackets = arc_z_of_u(p, np.cos(ts[:, ::-1]).ravel()).reshape(-1, 2)
    if intersection_ib(p) is not None:
        om = np.exp(2j * np.pi * np.arange(n) / n)
        with np.errstate(divide="ignore", invalid="ignore"):
            keep_om = np.abs(loop_g(p, om)) < 1.0 - 1e-12
        om = om[keep_om]
    else:
        om = np.empty(0, complex)
    return SeedPlan(
        n=n, segment_brackets=brackets,
        loop_seeds=phi_b_inverse(p, om) if len(om) else np.empty(0, complex),
        u_lo=u_lo, _ts=ts, _omegas=om,
    )


def _newton_w(p: AirfoilParams, n: int, w, max_iter=100):
    """Newton on h(w) = w^n + g(w)^n - 1 on/near the unit circle, each step
    capped at 0.1; the w with |h(w)| below 1e-6 are returned."""
    b, cap = p.b, 0.1
    w = np.asarray(w, dtype=complex).copy()
    if not len(w):
        return w
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = loop_g(p, w)
            wn = ipow(w, n)
            gn = ipow(g, n)
            h = wn + gn - 1.0
            dh = n * wn / w - n * gn / g / (b * b * (1.0 - w) ** 2)
            dh = np.where(np.abs(dh) < 1e-300, 1e-300, dh)
            step = h / dh
            step = np.where(np.isfinite(step), step, cap)
            mag = np.abs(step)
            step = np.where(mag > cap, step * (cap / mag), step)
        w = w - step
        if np.max(np.abs(step)) < 5e-16 * np.max(1.0 + np.abs(w)):
            break
    g = loop_g(p, w)
    hfin = np.abs(ipow(w, n) + ipow(g, n) - 1.0)
    return w[hfin < 1e-6]


def _at_floor(step, z, prev):
    """(|step|, whether each zero has reached the rounding floor): its step is
    below 1e-15 (1 + |z|), or below 1e-12 (1 + |z|) without halving prev."""
    mag = np.abs(step)
    scale = 1.0 + np.abs(z)
    return mag, (mag < 1e-15 * scale) | ((mag < 1e-12 * scale) & (mag > 0.5 * prev))


def _newton_step(p: AirfoilParams, n: int, z):
    """(r, step) from one residual call: Newton's step for f V^(-n/2),
    f = a^n F_n, V = b^2 + 1 - 2bz, which is r / (r' + n b r / V). It has
    the zeros of f but stays bounded on the arc, where f V^(-n/2) is
    2 T_n(U) - (-b/sqrt(V))^n; Newton on f alone needs more passes."""
    r, dr = residual(p, n, z)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return r, r / (dr + n * p.b * r / (p.b * p.b + 1.0 - 2.0 * p.b * z))


def _newton_z(p: AirfoilParams, n: int, z, max_iter=80, cap=0.05, accept=1e-6):
    """Newton in z (_newton_step), each zero stopped on its own once its step
    reaches the rounding floor (_at_floor; near theta = pi/2 the residual's
    own rounding keeps the step above 1e-15 (1 + |z|))."""
    z = np.asarray(z, dtype=complex).copy()
    if not len(z):
        return z
    active = np.arange(len(z))
    prev = np.full(len(z), np.inf)
    for _ in range(max_iter):
        za = z[active]
        step = _newton_step(p, n, za)[1]
        step = np.where(np.isfinite(step), step, cap)
        mag = np.abs(step)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(mag > cap, step * (cap / mag), step)
        za = za - step
        z[active] = za
        mag, done = _at_floor(step, za, prev)
        active, prev = active[~done], mag[~done]
        if not len(active):
            break
    if accept is None:
        return z
    r, _ = residual(p, n, z)
    return z[np.abs(r) < accept]


def _newton_real(p: AirfoilParams, n: int, brackets):
    """Real-axis case: safeguarded Newton in z (_newton_step) on each (m, 2)
    z-bracket of the seed plan. The residual is real on the segment and U is
    monotone there, so a bracket whose ends differ in sign holds one zero.
    Each pass takes r and the step at every unfinished zero and shrinks its
    bracket so the ends still differ in sign. The next point is the Newton
    step where it lands strictly inside the bracket, else the regula-falsi
    point of the two ends clamped to it (zeros within rounding of an end
    throw Newton out), else the midpoint. A zero stops at the rounding floor
    (_at_floor), once its bracket is 4 eps (1 + |z|) wide, or where r is
    exactly 0, keeping that point; 60 passes at most."""
    r, _ = residual(p, n, brackets.real.ravel() + 0j)
    f = r.real.reshape(-1, 2)
    good = np.sign(f[:, 0]) * np.sign(f[:, 1]) < 0
    lo, hi = brackets[good, 0].real, brackets[good, 1].real
    flo, fhi = f[good, 0], f[good, 1]
    z = 0.5 * (lo + hi)
    x, idx, prev = z.copy(), np.arange(len(z)), np.full(len(z), np.inf)
    for _ in range(60):
        if not len(idx):
            break
        r, step = _newton_step(p, n, x + 0j)
        fx = r.real
        left = np.sign(fx) == np.sign(flo)
        lo, flo = np.where(left, x, lo), np.where(left, fx, flo)
        hi, fhi = np.where(left, hi, x), np.where(left, fhi, fx)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = x - step.real
            rf = np.clip((lo * fhi - hi * flo) / (fhi - flo), lo, hi)
        rf = np.where(np.isfinite(rf), rf, 0.5 * (lo + hi))
        new = np.where((lo < new) & (new < hi), new, rf)
        new = np.where(fx == 0.0, x, new)    # a zero step: _at_floor stops it
        mag, done = _at_floor(x - new, new, prev)
        done |= hi - lo <= 4.0 * _EPS * (1.0 + np.abs(new))
        z[idx] = new
        keep = ~done
        x, lo, hi, flo, fhi, prev, idx = (
            a[keep] for a in (new, lo, hi, flo, fhi, mag, idx))
    z = z + 0j
    return z[np.atleast_1d(scaled_residual(p, n, z)) < 1e-6]


def _tighten(p: AirfoilParams, n: int, zs):
    """(zeros, scaled residuals) after double-precision Newton on every zero
    whose scaled residual is above TIGHTEN_GATE (NaN counts as above). A zero
    takes its new value only where the residual dropped; real zeros of a real
    airfoil stay on the axis."""
    res = np.atleast_1d(scaled_residual(p, n, zs))
    bad = ~(res <= TIGHTEN_GATE)
    if not np.any(bad):
        return zs, res
    old = zs[bad]
    new = _newton_z(p, n, old, max_iter=8, cap=1e-3, accept=None)
    if p.is_real:
        new = np.where(old.imag == 0.0, new.real + 0j, new)
    new_res = np.atleast_1d(scaled_residual(p, n, new))
    better = new_res < np.where(np.isnan(res[bad]), np.inf, res[bad])
    zs, res = zs.copy(), res.copy()
    idx = np.nonzero(bad)[0][better]
    zs[idx] = new[better]
    res[idx] = new_res[better]
    return zs, res


def _forward_error_bound(p: AirfoilParams, n: int, z):
    """The larger of Newton's estimate |f/f'| and the closed form's rounding
    floor n eps (|w| + |s|) (|t+/(w+s)| + |t-/(w-s)|) / |f'|, the error of
    the two powers over the slope (_closed_terms): below that floor a
    double-precision residual cannot see the error (it reaches 1e-13 near
    theta = pi/2)."""
    tp, tm, tb, dp, dm, s = _closed_terms(p, n, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        df = np.abs(n * (dp * (s + z) + dm * (s - z)) / s)
        floor = n * _EPS * (np.abs(z - p.b) + np.abs(s)) * (np.abs(dp) + np.abs(dm))
        return np.maximum(np.abs(tp + tm - tb), floor) / df


def _polish_mp(p: AirfoilParams, n: int, z):
    """Newton in mpmath on a^n F_n = (w+s)^n + (w-s)^n - (-b)^n, w = z - b,
    s^2 = z^2 - 1, for the zeros double precision cannot pin down. The
    working precision covers the cancellation between the three terms:
    30 digits plus the decades by which |b|^n exceeds max |w +- s|^n."""
    out = np.array(z, dtype=complex)
    for i, zi in enumerate(out):
        zi = complex(zi)
        sd = cmath.sqrt(zi - 1.0) * cmath.sqrt(zi + 1.0)
        big = max(abs(zi - p.b + sd), abs(zi - p.b - sd))
        if big == 0.0:
            continue
        excess = n * (math.log10(abs(p.b)) - math.log10(big))
        with mp.workdps(30 + max(0, math.ceil(excess))):
            zm, bm = mp.mpc(zi), mp.mpc(p.b)
            tol = mp.mpf(2) ** -60 * max(1, abs(zm))
            for _ in range(4):
                s = mp.sqrt(zm - 1) * mp.sqrt(zm + 1)
                if s == 0:
                    break
                w = zm - bm
                p1 = (w + s) ** (n - 1)
                p2 = (w - s) ** (n - 1)
                f = p1 * (w + s) + p2 * (w - s) - (-bm) ** n
                df = n * (p1 * (s + zm) + p2 * (s - zm)) / s
                if df == 0:
                    break
                step = f / df
                zm -= step
                if abs(step) <= tol:
                    break
            out[i] = complex(zm)
    return out


def _deflate(p: AirfoilParams, n: int, found):
    """The m = n - len(found) zeros the seeds missed, by Aberth's iteration
    z <- z - N / (1 - N S) on them alone, S summing 1/(z - z_j) over the other
    missing and the found zeros, which stay fixed (Maehly's implicit
    deflation). N = r/r' = f/f' for f = a^n F_n (residual); Maehly's
    correction needs Newton's step on f itself, not _newton_step's. The start
    is a circle at an irrational angular offset around the missing zeros'
    centroid (n b/2 - sum(found)) / m, through the farthest found zero and no
    smaller than the capacity. Each zero stops on its own (_at_floor); those
    with scaled residual below 1e-6 are returned, real ones on the axis."""
    m = n - len(found)
    c0 = (0.5 * n * p.b - np.sum(found)) / m
    r0 = np.max(np.abs(found - c0), initial=p.capacity)
    pts = np.concatenate([c0 + r0 * np.exp(2j * np.pi * (np.arange(m) + 0.26183) / m),
                          found])
    active = np.arange(m)
    prev = np.full(m, np.inf)
    for _ in range(200):
        z = pts[active]
        r, dr = residual(p, n, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = r / dr
            diff = z[:, None] - pts[None, :]
            diff[np.arange(len(active)), active] = np.inf
            step = newton / (1.0 - newton * np.sum(1.0 / diff, axis=1))
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step
        pts[active] = z
        mag, done = _at_floor(step, z, prev)
        active, prev = active[~done], mag[~done]
        if not len(active):
            break
    z = pts[:m]
    if p.is_real:
        # zeros come in conjugate pairs, and a pair this close to the axis
        # would be one zero to _dedup: such a zero is real
        z = np.where(np.abs(z.imag) < 0.5 * DISTINCT_TOL, z.real + 0j, z)
    return z[np.atleast_1d(scaled_residual(p, n, z)) < 1e-6]


def roots_seeded(p: AirfoilParams, n: int) -> ZeroSet:
    """Coefficient-free zero finder: all n zeros from the seed plan, and the
    ones the seeds miss by Aberth's iteration with the found zeros held fixed
    (_deflate). Every zero is then tightened in double and, where its
    forward-error bound stays above POLISH_GATE, polished in mpmath.
    DeficitError when the count isn't n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    plan = seed_plan(p, n)
    found = []
    if len(plan._ts):
        if p.is_real:
            found.append(_newton_real(p, n, plan.segment_brackets))
        else:
            mid = np.cos(0.5 * (plan._ts[:, 0] + plan._ts[:, 1]))
            found.append(_newton_z(p, n, arc_z_of_u(p, mid)))
    if len(plan._omegas):
        w = _newton_w(p, n, plan._omegas)
        if len(w):
            found.append(phi_b_inverse(p, w))
    zs = _dedup(np.concatenate(found) if found else np.empty(0, complex))
    if len(zs) < n:
        # an arc zero Newton left loose can lie farther than DISTINCT_TOL
        # from the same zero found again: tighten before counting the missing
        zs = _dedup(_tighten(p, n, zs)[0])
        # not deduplicated against the found zeros: deflation comes back to
        # a found zero only where that zero is multiple
        zs = np.concatenate([zs, _deflate(p, n, zs)])
    if len(zs) != n:
        raise DeficitError(
            f"found {len(zs)} of {n} zeros", missing=n - len(zs))

    zs, res = _tighten(p, n, zs)
    ill = ~(_forward_error_bound(p, n, zs) <= POLISH_GATE * np.maximum(1.0, np.abs(zs)))
    if np.any(ill):
        zs[ill] = _polish_mp(p, n, zs[ill])
        res[ill] = scaled_residual(p, n, zs[ill])
    order = np.lexsort((zs.imag, zs.real))
    return ZeroSet(n, zs[order], res[order], Method.SEEDED)


@dataclass(frozen=True)
class CrossCheckReport:
    n: int
    max_distance: float
    mean_distance: float


def cross_check(a: ZeroSet, b: ZeroSet, tol: float = 1e-6) -> CrossCheckReport:
    """Greedy nearest-pair matching of two zero sets; MismatchError when any
    matched pair is farther than tol (message lists the offenders).

    The pairs are taken in one stable sort of the distance matrix, skipping
    used rows and columns: the first free pair in row-major order among the
    closest, as repeated argmin scans would take them, in O(n^2 log n)."""
    if a.n != b.n:
        raise MismatchError(f"zero counts differ: {a.n} vs {b.n}")
    d = np.abs(a.zeros[:, None] - b.zeros[None, :])
    n = a.n
    row_used, col_used = [False] * n, [False] * n
    pairs = []
    order = np.argsort(d, axis=None, kind="stable")
    for i, j in zip((order // n).tolist(), (order % n).tolist()):
        if not (row_used[i] or col_used[j]):
            row_used[i] = col_used[j] = True
            pairs.append((i, j))
            if len(pairs) == n:
                break
    dists = np.array([d[i, j] for i, j in pairs])
    if np.max(dists) > tol:
        bad = [(complex(a.zeros[i]), complex(b.zeros[j]))
               for (i, j), dd in zip(pairs, dists) if dd > tol]
        raise MismatchError(
            f"{len(bad)} zero pair(s) farther than {tol:g}; worst {np.max(dists):.3e}: "
            + "; ".join(f"{u} vs {v}" for u, v in bad[:5]),
            unmatched=bad)
    return CrossCheckReport(n=n, max_distance=float(np.max(dists)),
                            mean_distance=float(np.mean(dists)))


def compute_zeros(p: AirfoilParams, n: int) -> ZeroSet:
    """All n zeros of the degree-n Faber polynomial, by the seeded route."""
    return roots_seeded(p, n)
