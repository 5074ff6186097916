"""Locating all n zeros of the degree-n Faber polynomial.

The production route is the seeded solver, which never touches coefficients.
Its one zero equation in z is the paper's branch-free closed form
a^n F_n = (w+s)^n + (w-s)^n - (-b)^n, w = z - b, s^2 = z^2 - 1 (faber.residual).
Segment and loop zeros, real or not, come from one Newton in z. Its segment
seeds are the Chebyshev nodes, the arc points where U = cos((k + 1/2) pi/n),
and its loop seeds the images J(b(1-omega)) of the n-th roots of unity omega
with |g(omega)| < 1, g(w) = 1 - 1/(b^2 (1-w)), from the exact pullback
F_n(J(b(1-w))) = (-b/a)^n (w^n + g(w)^n - 1). It steps on f V^(-n/2),
V = b^2 + 1 - 2bz, which on the arc is 2 T_n(U) - (-b/sqrt(V))^n with
|-b/sqrt(V)| <= 1: bounded there, and within an exponentially small term of
a zero at each node (_step). Its step cap scales with the airfoil
(_newton_z). Above criticality the arc piece and both ends of the loop meet
at the corner i_b, where all three terms of the closed form have one
modulus and each of those two-term seeds drops one that is not small there:
the seeds at the three ends give way to corner seeds, zeros of the exact
pullback that a damped scalar Newton in xi = n log(w/c), c a loop end,
reaches from them (_corner). On a real airfoil a candidate within
DISTINCT_TOL/2 of the axis is real (_on_axis), and the zeros come back in
exact conjugate pairs. Degrees 1 and 2 have their zeros in closed form. The
zeros these seeds still miss come from Aberth's iteration on the
branch-free closed form with the found zeros held fixed (Maehly's implicit
deflation, _deflate): just above criticality, where the whole loop lies
next to i_b and loop seeds land two or three on one zero; on real airfoils
far above criticality, where a loop end lies within 1/n of g's pole
(n < R - 1), the corner is left to the two-term seeds and the zero just
past i_b has none; and at a few points where the corner runs,
(R cos theta, theta, n) = (2, 0, 60), (8, 0, 35), (1.8, 1.3, 58),
(2.5, 1.48, 300) and (4, 1.5, 500).
A double-precision Newton pass tightens each zero whose scaled residual is
above TIGHTEN_GATE and whose Newton step, formed from its grades, is at
least one ulp, 2^-52 (1 + |z|) (a NaN step counts as above): a shorter step
moves the zero by rounding alone, and at high degree TIGHTEN_GATE is the
closed form's own rounding floor (n eps = 1.1e-13 at n = 500). No stage
needs more than double: where the closed form's last two terms cancel, far
from the segment on steep or large airfoils, faber._closed_terms takes their
difference from the exact identity w - s + b = 1/(z + s), so the residual
and the scaled residual see the zeros' error there too, and mpmath serves
only the test oracles and roots_simultaneous. Each candidate is evaluated
once: one call of the closed form (_grade) on all segment, loop and corner
candidates decides which are zeros and gives each kept zero its grades
(scaled residual, r and r'), which follow it through the duplicate filter
(_dedup returns indices); the Newton pass takes its first step from them,
and only the zeros it moves, or deflation adds, are evaluated again. The
closed form raises w + s and w - s as one array through one power chain
(faber._closed_terms).

Floating-point warnings: roots_seeded runs the whole solve under one
np.errstate (divide, over, under and invalid ignored). The private helpers
(faber._closed_terms, faber._residual, faber._scaled_residual and every
underscored function here) run under their caller's errstate and enter
none of their own; the public residual, scaled_residual and ipow each keep
one, so they stay quiet wherever they are called; seed_plan needs none, as
it skips omega = 1, the pole of g, and its corner seeds come from cmath,
which raises where numpy warns.

The evaluation budget per stage, in calls of the closed form: none for the
corner seeds (at most 12 scalar steps per start, on the pullback); the
Newton in z one per pass on the segment, loop and corner seeds together (at
most 80); one _grade call for all those candidates; _tighten at most 7
residual calls (8 passes, the first from the grades) and one _grade call on
the zeros it moved, and none where no zero's step reaches one ulp; _deflate
one per Aberth pass (at most 200) and one _grade call; on a real airfoil,
one call on the copies of a multiple real zero put back on the axis, if
any; degrees 1 and 2 one call, for the residuals.

The simultaneous (Aberth) solver on the coefficients,
roots_simultaneous(faber_closed(p, n)), is kept as an independent oracle for
the tests and is never called by the seeded solver. It dies of rounding
around n = 40 unless it escalates to mpmath via the provenance stored on
PolyCoeffs, and it stops converging above n = 60.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .conformal import AirfoilParams, phi_b_inverse
from .errors import ConvergenceError, DeficitError, MismatchError
from .faber import (
    _closed_terms, _derivative, _residual, _scaled, _scaled_residual,
    faber_coeffs_mp, scaled_residual,
)
from .limitsets import arc_z_of_u, classify, loop_g

RESIDUAL_GATE = 1e-7      # ZeroSet guarantee on max scaled residual
BACKWARD_GATE = 1e-10     # |p(root)| / (max|c| * max(1,|root|)^deg)
DISTINCT_TOL = 1e-8
TIGHTEN_GATE = 1e-13      # seeded zeros above this scaled residual get Newton
                          # where their step is at least 2^-52 (1 + |z|)


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


def _dedup(z):
    """Indices of the zeros kept, in (Re, Im) order, greedy in that order:
    drop each zero within DISTINCT_TOL of one kept before it. Each zero is
    compared, all at once, with those after it whose real parts lie within
    twice that (a margin over rounding); only the pairs within it are walked
    in order, since a zero drops its partner only if it is itself kept.
    Indices, so that whatever the caller holds per zero follows the zeros
    kept."""
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    hi = np.searchsorted(z.real, z.real + 2.0 * DISTINCT_TOL, side="right")
    cnt = hi - np.arange(1, len(z) + 1)     # >= 0: z.real is sorted
    i = np.repeat(np.arange(len(z)), cnt)
    if not len(i):
        return order
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    near = ~(np.abs(z[j] - z[i]) > DISTINCT_TOL)
    keep = np.ones(len(z), dtype=bool)
    for a, b in zip(i[near].tolist(), j[near].tolist()):
        if keep[a]:
            keep[b] = False
    return order[keep]


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
    import mpmath as mp

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
    import mpmath as mp

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
    """Where to look: arc points at the Chebyshev nodes for segment zeros,
    the images J(b(1-omega_k)) of the kept roots of unity for loop zeros,
    and above criticality the corner seeds (_corner) in place of those of
    them next to i_b, mapped once here."""

    n: int
    arc_seeds: np.ndarray     # the segment starts, one per bracket, but the corner's
    loop_seeds: np.ndarray    # J(b(1-omega_k)) for the omega_k with |g| < 1, but the corner's
    corner_seeds: np.ndarray  # zeros of the pullback next to i_b (_corner)

    @property
    def count(self) -> int:
        return len(self.arc_seeds) + len(self.loop_seeds) + len(self.corner_seeds)


def seed_plan(p: AirfoilParams, n: int) -> SeedPlan:
    """Arc seeds for segment zeros, unit-root seeds on the loop-side circle
    arc (selected by |g(omega)| < 1) for loop zeros, and above criticality
    corner seeds for the zeros next to i_b. The arc piece u = cos t,
    0 <= t <= s_max, is cut into brackets [k pi/n, (k+1) pi/n], the last one
    cut at s_max, and each gets the arc point of its middle angle, the
    Chebyshev node where not cut. Both kinds drop a term of the three-term
    closed form, which is not small next to i_b, where all three have one
    modulus: the seeds at the three ends that meet there (the last two arc
    seeds, the cut bracket's among them, and the first two and last two
    loop seeds) give way to the zeros _corner finds from them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    case = classify(p)
    s_max = case.s_max
    t = np.arange(n + 1) * np.pi / n
    tlo, thi = t[:-1], t[1:]
    keep = tlo < s_max - 1e-15
    mid = 0.5 * (tlo[keep] + np.minimum(thi[keep], s_max))
    arc = arc_z_of_u(p, np.cos(mid))
    corner = np.empty(0, complex)
    if case.has_loop:
        # omega = 1, a pole of g, is never kept
        om = np.exp(2j * np.pi * np.arange(1, n) / n)
        loop = phi_b_inverse(p, om[np.abs(loop_g(p, om)) < 1.0 - 1e-12])
        if case.c_plus is not None:
            arc, loop, corner = _corner(p, n, arc, loop)
    else:
        loop = np.empty(0, complex)
    return SeedPlan(n=n, arc_seeds=arc, loop_seeds=loop, corner_seeds=corner)


def _corner(p: AirfoilParams, n: int, arc, loop):
    """(arc, loop, corner): the seeds at the corner i_b, where the arc piece
    and the two ends of the loop meet, replaced by zeros of the exact
    pullback F_n(J(b(1-w))) = (-b/a)^n (w^n + g(w)^n - 1). Next to i_b all
    three terms have modulus near 1, so the seeds there, each of which drops
    one of them, land two on one zero or none on another, and wander for up
    to 21 passes of the Newton in z. The corner coordinate is
    xi = n log(w / c), c the loop end farther from w = 1, g's pole (|c| =
    |g(c)| = 1), where the zeros next to i_b lie O(1) from xi = 0. The last
    two arc seeds (the cut bracket's last) and the first two and last two
    loop seeds each start, from their preimage next to c where that lies
    within 4 pi of xi = 0 (two periods of c^n e^xi; farther out a seed keeps
    its place, as the two-term seeds serve there and a zero reached in xi
    ended up to 56 ulp off after the Newton in z), a damped Newton in xi:
    its step is (w^n + g^n - 1) / (w^n + kappa(w) g^n), kappa(w) =
    w g'(w) / g(w) = -w q / ((1 - w) g), q = 1 - g(w), with w^n = c^n e^xi
    and g^n = g(c)^n (g(w) / g(c))^n, so no power is raised; each step is
    cut to length 1, and a start arrives when a step is below 1e-2 within
    12. Two starts that arrive at one zero stand for a pair of near zeros
    about a critical point xi* of c^n e^xi + g(c)^n e^(kappa xi) - 1,
    kappa = kappa(c), (kappa - 1) xi* = log(-c^n / (kappa g(c)^n)) + 2 pi i j:
    the second starts again from the zero's mirror image 2 xi* - xi. A start
    that does not arrive keeps its seed, but the cut bracket's: the other
    starts reach the zeros next to i_b, and where that bracket holds no zero
    its seed crawls at the step cap. Where the other loop end lies within
    1/n of w = 1 the seeds stay as they are (g has its pole within one
    root-of-unity spacing of that end, and the zeros next to i_b crowd
    within rounding of one another in xi), but for a real airfoil's
    cut-bracket seed where its bracket holds no zero: the closed form at the
    bracket's ends, (-1)^k at t = k pi/n and 2 cos(n s_max) - 1 at i_b, has
    one sign there."""
    case = p.case
    c, near = case.c_plus, case.c_minus
    if abs(1.0 - c) < abs(1.0 - near):
        c, near = near, c
    if n * abs(1.0 - near) < 1.0:
        empty = p.is_real and (-1.0) ** (len(arc) - 1) * (2.0 * np.cos(n * case.s_max) - 1.0) > 0
        return arc[:len(arc) - empty], loop, np.empty(0, complex)
    b, bb = p.b, p.b * p.b
    gc = 1.0 - 1.0 / (bb * (1.0 - c))
    cn = cmath.exp(1j * n * cmath.phase(c))
    gn = cmath.exp(1j * n * cmath.phase(gc))
    kappa = c * (gc - 1.0) / ((1.0 - c) * gc)
    crit = cmath.log(-cn / (kappa * gn))

    def arrive(x):
        for _ in range(12):
            try:
                w = c * cmath.exp(x / n)
                u = 1.0 - w
                q = 1.0 / (bb * u)
                g = 1.0 - q
                tw = cn * cmath.exp(x)
                tg = gn * cmath.exp(n * cmath.log(g / gc))
                step = (tw + tg - 1.0) / (tw - w * q / (u * g) * tg)
            except (OverflowError, ValueError, ZeroDivisionError):
                return None
            size = abs(step)
            x -= step if size <= 1.0 else step / size
            if size < 1e-2:
                return x
        return None

    k, m = min(2, len(arc)), min(2, len(loop) // 2)
    ends = arc[len(arc) - k:].tolist() + loop[:m].tolist() + loop[len(loop) - m:].tolist()
    ends.append(ends.pop(k - 1))            # the cut bracket's seed last
    xis, kept = [], []
    for i, z in enumerate(ends):
        s = cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
        w, v = 1.0 - (z + s) / b, 1.0 - (z - s) / b
        x = n * cmath.log((w if abs(w - c) <= abs(v - c) else v) / c)
        x = arrive(x) if abs(x) <= 4.0 * cmath.pi else None
        if x is None:
            if i < len(ends) - 1:
                kept.append(z)
            continue
        if any(abs(x - y) < 1e-2 for y in xis):
            j = round(((kappa - 1.0) * x - crit).imag / (2.0 * cmath.pi))
            x = arrive(2.0 * (crit + 2j * cmath.pi * j) / (kappa - 1.0) - x)
            if x is None or any(abs(x - y) < 1e-2 for y in xis):
                continue
        xis.append(x)
    zetas = [b * (1.0 - c * cmath.exp(x / n)) for x in xis]     # J(zeta) is the seed
    corner = [0.5 * (zeta + 1.0 / zeta) for zeta in zetas] + kept
    return arc[:len(arc) - k], loop[m:len(loop) - m], np.array(corner, complex)


def _at_floor(mag, z, prev):
    """Whether each zero has reached the rounding floor: its step's length mag
    is below 1e-15 (1 + |z|), or below 1e-12 (1 + |z|) without halving prev."""
    scale = 1.0 + np.abs(z)
    return (mag < 1e-15 * scale) | ((mag < 1e-12 * scale) & (mag > 0.5 * prev))


def _step(p: AirfoilParams, n: int, z, r, dr):
    """Newton's step for f V^(-n/2), f = a^n F_n, V = b^2 + 1 - 2bz, from
    r, r' at z (residual): r / (r' + n b r / V). It has the zeros of f but
    stays bounded on the arc, where f V^(-n/2) is 2 T_n(U) - (-b/sqrt(V))^n;
    Newton on f alone needs more passes."""
    return r / (dr + n * p.b * r / (p.b * p.b + 1.0 - 2.0 * p.b * z))


def _newton_step(p: AirfoilParams, n: int, z):
    """One Newton pass's step (_step) at z, from one residual call."""
    return _step(p, n, z, *_residual(p, n, z))


def _newton_z(p: AirfoilParams, n: int, z, max_iter=80, cap=None, first=None):
    """(z, lost): Newton in z (_newton_step), each zero stopped on its own
    once its step reaches the rounding floor (_at_floor; near theta = pi/2
    the residual's own rounding keeps the step above 1e-15 (1 + |z|)). Each
    step is capped at cap, by default on the airfoil's length scale:
    capacity/50, and at least 0.05. Far above criticality a seed's first
    step is about 2 capacity/n (3.7 at R cos theta = 1000, theta = 1,
    n = 500, where an absolute cap of 0.05 lost every arc seed); 80 passes
    at capacity/50 cover 1.6 capacity, more than that for every n >= 2. A
    seed whose Newton step is longer than cap times the passes left cannot
    reach a zero at the capped speed: it stops there and is flagged lost;
    roots_seeded drops it, and _deflate finds the zero it missed (at low
    degree and steep rotation the seeds crawl off; counting capped passes
    instead drops thousands of slow seeds that do converge, and deflation
    pays for them). Whether a zero is close enough is left to the caller's
    grading. first, if given, is the step at z formed from that grading
    (_step on _grade's r and r'): the first pass takes it, without a
    residual call, and may change it in place."""
    if cap is None:
        cap = max(0.05, 0.02 * p.capacity)
    z = np.asarray(z, dtype=complex).copy()
    lost = np.zeros(len(z), dtype=bool)
    if not len(z):
        return z, lost
    active = np.arange(len(z))
    prev = np.full(len(z), np.inf)
    for left in range(max_iter, 0, -1):
        za = z[active]
        step = _newton_step(p, n, za) if first is None else first
        first = None
        bad = ~np.isfinite(step)
        if bad.any():
            step[bad] = cap
        mag = np.abs(step)
        over = mag > cap
        capped = over.any()
        if capped:
            far = mag > cap * left
            lost[active[far]] = True
            step[over] *= cap / mag[over]
            mag[over] = np.abs(step[over])
        za -= step
        z[active] = za
        done = _at_floor(mag, za, prev)
        if capped:
            done |= far
        keep = ~done
        active, prev = active[keep], mag[keep]
        if not len(active):
            break
    return z, lost


def _grade(p: AirfoilParams, n: int, z):
    """(scaled residual, r, r') at each z from one _closed_terms call: the
    zeros' grades. r = t+ + t- - tb and r' are residual()'s (r, r') and the
    scaled residual is scaled_residual's, bit for bit."""
    tp, tm, tb, dp, dm, s = _closed_terms(p, n, z)
    r = tp + tm - tb
    return _scaled(r, tp, tm, tb), r, _derivative(n, z, dp, dm, s)


def _on_axis(p: AirfoilParams, z):
    """z with the points within DISTINCT_TOL/2 of the axis put on it, on a
    real airfoil: its zeros come in conjugate pairs, and a pair that close
    would be one zero to _dedup, so such a zero is real."""
    if not p.is_real:
        return z
    return np.where(np.abs(z.imag) < 0.5 * DISTINCT_TOL, z.real + 0j, z)


def _pick(zs, grades, idx):
    """The zeros zs[idx] with their grades (_grade)."""
    return zs[idx], tuple(g[idx] for g in grades)


def _tighten(p: AirfoilParams, n: int, zs, grades):
    """(zeros, grades) after double-precision Newton on every zero whose
    scaled residual is above TIGHTEN_GATE (NaN counts as above) and whose
    Newton step, formed from its grades' r and r' (_step), is at least one
    ulp, 2^-52 (1 + |z|); a NaN step counts as above. A shorter step moves
    the zero by rounding alone, and the gate sits at the closed form's own
    rounding floor at high degree, so most zeros above it are as close as
    double gets. grades are the zeros' (_grade), and Newton's first pass
    takes that step. A zero takes its new value only where the residual
    dropped; on a real airfoil near-real zeros stay on the axis (_on_axis).
    One _grade call covers the points Newton moved the zeros to; with no
    zero left to move, neither Newton nor _grade runs."""
    res = grades[0]
    idx = np.nonzero(~(res <= TIGHTEN_GATE))[0]
    if not len(idx):
        return zs, grades
    old = zs[idx]
    step = _step(p, n, old, grades[1][idx], grades[2][idx])
    move = ~(np.abs(step) < 2.0 ** -52 * (1.0 + np.abs(old)))
    if not move.any():
        return zs, grades
    idx, old, step = idx[move], old[move], step[move]
    new = _on_axis(p, _newton_z(p, n, old, max_iter=8, cap=1e-3, first=step)[0])
    new_grades = _grade(p, n, new)
    before = res[idx]
    better = new_grades[0] < np.where(np.isnan(before), np.inf, before)
    idx = idx[better]
    zs, grades = zs.copy(), tuple(g.copy() for g in grades)
    zs[idx] = new[better]
    for g, ng in zip(grades, new_grades):
        g[idx] = ng[better]
    return zs, grades


def _deflate(p: AirfoilParams, n: int, found):
    """The m = n - len(found) zeros the seeds missed, by Aberth's iteration
    z <- z - N / (1 - N S) on them alone, S summing 1/(z - z_j) over the other
    missing and the found zeros, which stay fixed (Maehly's implicit
    deflation). N = r/r' = f/f' for f = a^n F_n (residual); Maehly's
    correction needs Newton's step on f itself, not _newton_step's. The start
    is a circle at an irrational angular offset around the missing zeros'
    centroid (n b/2 - sum(found)) / m, through the farthest found zero and no
    smaller than the capacity. Each zero stops on its own (_at_floor); those
    with scaled residual below 1e-6 are returned, near-real ones on the
    axis (_on_axis), with their grades (_grade)."""
    m = n - len(found)
    c0 = (0.5 * n * p.b - np.sum(found)) / m
    r0 = np.max(np.abs(found - c0), initial=p.capacity)
    pts = np.concatenate([c0 + r0 * np.exp(2j * np.pi * (np.arange(m) + 0.26183) / m),
                          found])
    active = np.arange(m)
    prev = np.full(m, np.inf)
    for _ in range(200):
        z = pts[active]
        r, dr = _residual(p, n, z)
        newton = r / dr
        diff = z[:, None] - pts[None, :]
        diff[np.arange(len(active)), active] = np.inf
        step = newton / (1.0 - newton * np.sum(1.0 / diff, axis=1))
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step
        pts[active] = z
        mag = np.abs(step)
        done = _at_floor(mag, z, prev)
        active, prev = active[~done], mag[~done]
        if not len(active):
            break
    z = _on_axis(p, pts[:m])
    grades = _grade(p, n, z)
    return _pick(z, grades, grades[0] < 1e-6)


def roots_seeded(p: AirfoilParams, n: int) -> ZeroSet:
    """Coefficient-free zero finder: all n zeros from the seed plan, and the
    ones the seeds miss by Aberth's iteration with the found zeros held
    fixed (_deflate). The arc, loop and corner seeds go through one Newton
    in z (_newton_z) on every airfoil, real or not, and one _grade call
    covers the candidates that arrive: it decides which are zeros (|r| below
    1e-6 on the arc, scaled residual below 1e-6 on the loop and at the
    corner) and gives the kept ones the grades _tighten starts from. Every
    zero a Newton step can still move is then tightened in double
    (_tighten). A real airfoil's zeros come back in conjugate pairs, the
    zeros above the axis and their conjugates, once the excess on one side,
    copies of a multiple real zero left just off the axis, is put on it,
    nearest first. DeficitError when the count isn't n. The whole solve runs
    under this one errstate; the private helpers it calls have none of their
    own. Degrees 1 and 2 need no solve: a F_1 = 2z - b and
    a^2 F_2 = 4z^2 - 4bz + b^2 - 2 have the zeros b/2 and (b -+ sqrt 2)/2, in
    (Re, Im) order, graded by one closed-form call (scaled_residual)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 2:
        zs = 0.5 * p.b + np.sqrt(0.5) * np.array([0.0] if n == 1 else [-1.0, 1.0])
        return ZeroSet(n, zs, scaled_residual(p, n, zs), Method.SEEDED)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        plan = seed_plan(p, n)
        zs, lost = _newton_z(p, n, np.concatenate([plan.arc_seeds, plan.loop_seeds,
                                                    plan.corner_seeds]))
        arc = np.count_nonzero(~lost[:len(plan.arc_seeds)])
        zs = _on_axis(p, zs[~lost])
        grades = _grade(p, n, zs)
        ok = grades[0] < 1e-6
        ok[:arc] = np.abs(grades[1][:arc]) < 1e-6
        zs, grades = _pick(zs, grades, ok)
        zs, grades = _pick(zs, grades, _dedup(zs))
        if len(zs) < n:
            # an arc zero Newton left loose can lie farther than DISTINCT_TOL
            # from the same zero found again: tighten before counting the missing
            zs, grades = _tighten(p, n, zs, grades)
            zs, grades = _pick(zs, grades, _dedup(zs))
            # not deduplicated against the found zeros: deflation comes back to
            # a found zero only where that zero is multiple
            more, more_grades = _deflate(p, n, zs)
            zs = np.concatenate([zs, more])
            grades = tuple(np.concatenate(pair) for pair in zip(grades, more_grades))
        if len(zs) != n:
            raise DeficitError(
                f"found {len(zs)} of {n} zeros", missing=n - len(zs))

        zs, (res, _, _) = _tighten(p, n, zs, grades)
        if p.is_real:
            extra = np.count_nonzero(zs.imag > 0.0) - np.count_nonzero(zs.imag < 0.0)
            if extra:
                side = np.nonzero(extra * zs.imag > 0.0)[0]
                near = side[np.argsort(np.abs(zs.imag[side]))[:abs(extra)]]
                zs[near] = zs[near].real
                res[near] = _scaled_residual(p, n, zs[near])
            up, down = zs.imag > 0.0, zs.imag < 0.0
            # conjugate pairs, bit for bit; the closed form is conjugate-
            # symmetric bit for bit, so the residuals are the partners'
            zs = np.concatenate([zs[~down], np.conj(zs[up])])
            res = np.concatenate([res[~down], res[up]])
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
