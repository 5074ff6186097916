"""Predicted zero limit sets: the square-root arc, the critical circle, the
intersection point, and the loop through -1.

Parameter regimes split on R*cos(theta) at 3/2: below, every zero accumulates
on the arc; above, a loop component through -1 appears and the arc only
carries zeros between the intersection point i_b and the cusp.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .conformal import (
    AirfoilParams, Sheet, arc_candidates, phi_b, phi_b_inverse, uvw,
)
from .errors import BranchError, CaseError

_CRIT_TOL = 1e-12


class CaseTag(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CaseClass:
    tag: CaseTag
    rcos: float

    @property
    def has_loop(self) -> bool:
        return self.tag is not CaseTag.SUBCRITICAL


def classify(p: AirfoilParams) -> CaseClass:
    """Regime of (R, theta): R*cos(theta) vs 3/2 with a 1e-12 tie band."""
    rc = p.rcos
    if rc < 1.5 - _CRIT_TOL:
        return CaseClass(CaseTag.SUBCRITICAL, rc)
    if abs(rc - 1.5) <= _CRIT_TOL:
        return CaseClass(CaseTag.CRITICAL, rc)
    return CaseClass(CaseTag.SUPERCRITICAL, rc)


@dataclass(frozen=True)
class ArcA:
    """The arc U(z)^2 in [0,1]: two branches z_plus/z_minus meeting at b
    (rho=0) and ending at +1/-1 (rho=1), continuity-ordered."""

    rho: np.ndarray
    z_plus: np.ndarray
    z_minus: np.ndarray
    is_interval: bool            # real b in (-1,0): the arc is just [-1,1]
    has_circle_component: bool   # real b <= -1: [-1,1] plus a circle around c

    @property
    def samples(self):
        return list(zip(self.rho, self.z_plus, self.z_minus))


def arc_A(p: AirfoilParams, m: int = 257) -> ArcA:
    """Sample the arc on a Chebyshev grid in sqrt(rho) (endpoint-resolving)."""
    if m < 2:
        raise ValueError("need at least 2 samples")
    q = (1.0 - np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0  # sqrt(rho) in [0,1]
    rho = q * q
    zp_raw, zm_raw = arc_candidates(p, rho)
    zp = np.empty(m, complex)
    zm = np.empty(m, complex)
    # anchor at rho=1 where candidates are exactly +1/-1, then walk down by continuity
    if abs(zp_raw[-1] - 1.0) <= abs(zm_raw[-1] - 1.0):
        zp[-1], zm[-1] = zp_raw[-1], zm_raw[-1]
    else:
        zp[-1], zm[-1] = zm_raw[-1], zp_raw[-1]
    for i in range(m - 2, -1, -1):
        c1, c2 = zp_raw[i], zm_raw[i]
        keep = abs(c1 - zp[i + 1]) + abs(c2 - zm[i + 1])
        swap = abs(c2 - zp[i + 1]) + abs(c1 - zm[i + 1])
        if swap < keep or (swap == keep and c2.imag > c1.imag):
            c1, c2 = c2, c1
        zp[i], zm[i] = c1, c2
    real_b = p.is_real
    return ArcA(
        rho=rho, z_plus=zp, z_minus=zm,
        is_interval=bool(real_b and p.b.real > -1.0),
        has_circle_component=bool(real_b and p.b.real <= -1.0),
    )


def intersection_ib(p: AirfoilParams):
    """Intersection of the arc with the circle |z-c| = |b|/2, or None when
    subcritical. Real case: exactly 1/(2b); critical case: -1."""
    if classify(p).tag is CaseTag.SUBCRITICAL:
        return None
    b = p.b
    rho = ((b ** 2 + np.conj(b) ** 2 - 1.0) ** 2 / (4.0 * abs(b) ** 4)).real
    r = np.sqrt(rho)
    disc = np.sqrt(complex(rho - (1.0 - 1.0 / b ** 2)))
    cands = [-r + disc, -r - disc]
    x = min(cands, key=lambda t: abs(abs(t) - 1.0))
    if abs(abs(x) - 1.0) > 1e-8:
        raise BranchError(
            f"no modulus-one root for the intersection point (got |x|={abs(x)})"
        )
    return complex(b + r * b * x)


def u_lower(p: AirfoilParams) -> float:
    """Lower end of the zero-carrying arc piece in the U coordinate:
    Re U(i_b) above criticality, -1 otherwise."""
    ib = intersection_ib(p)
    if ib is None:
        return -1.0
    if classify(p).tag is CaseTag.CRITICAL:
        return -1.0
    u, _, _ = uvw(p, ib)
    return float(np.real(u))


@dataclass(frozen=True)
class LoopArc:
    """Image of a unit-circle arc under J(b(1-w)): the loop component
    through -1 ('plus') or its complement ('minus', figures only)."""

    samples: np.ndarray
    corner: complex        # i_b; both loop ends approach it
    c_plus: complex
    c_minus: complex
    span: float            # ccw angle from c_plus to c_minus
    which: str


def loop_points(p: AirfoilParams, m: int = 257, which: str = "plus") -> LoopArc:
    """Sample the loop. CaseError when subcritical (no loop exists); the
    critical loop is degenerate: empty samples, corner -1."""
    case = classify(p)
    if case.tag is CaseTag.SUBCRITICAL:
        raise CaseError("no loop component below criticality")
    if which not in ("plus", "minus"):
        raise ValueError("which must be 'plus' or 'minus'")
    if case.tag is CaseTag.CRITICAL:
        cp = complex(1.0 + 1.0 / p.b)
        return LoopArc(samples=np.empty(0, complex), corner=-1.0 + 0j,
                       c_plus=cp, c_minus=cp, span=0.0, which=which)
    ib = intersection_ib(p)
    v1 = phi_b(p, ib, Sheet.PLUS).value
    v2 = phi_b(p, ib, Sheet.MINUS).value
    for v in (v1, v2):
        if abs(abs(v) - 1.0) > 1e-8:
            raise BranchError(f"loop endpoint not unimodular: |v| = {abs(v)}")
    # c_plus is the endpoint whose ccw arc to the other one passes through -1
    th1, th2 = float(np.angle(v1)), float(np.angle(v2))
    span12 = (th2 - th1) % (2 * np.pi)
    if (np.pi - th1) % (2 * np.pi) <= span12:
        cp, cm, th, span = v1, v2, th1, span12
    else:
        cp, cm, th, span = v2, v1, th2, (th1 - th2) % (2 * np.pi)
    if which == "minus":
        th = (th + span) % (2 * np.pi)
        span = 2 * np.pi - span
        cp, cm = cm, cp
    ang = th + span * np.arange(m) / (m - 1)
    z = phi_b_inverse(p, np.exp(1j * ang))
    return LoopArc(samples=z, corner=complex(ib), c_plus=complex(cp),
                   c_minus=complex(cm), span=float(span), which=which)


class Region(enum.Enum):
    INSIDE = "inside"
    ON = "on"
    OUTSIDE = "outside"


def cb_region(p: AirfoilParams, z, tol: float = 1e-12) -> Region:
    """Position of z relative to the circle |z - c| = |b|/2 (equivalently
    |V(z)| = |b|^2; the two read identically since |V| = 2|b| |z-c|)."""
    d = abs(complex(z) - p.c) - abs(p.b) / 2.0
    if abs(d) <= tol:
        return Region.ON
    return Region.INSIDE if d < 0 else Region.OUTSIDE


@dataclass(frozen=True)
class SegmentArc:
    """Zero-carrying piece of the arc: U in [u_lo, 1], sampled at us."""

    us: np.ndarray
    samples: np.ndarray
    u_lo: float


def arc_z_of_u(p: AirfoilParams, u):
    """Invert U on the zero-carrying arc branch: the candidate of U^2 = u^2
    whose U-value is u. Real supercritical airfoils make U two-to-one on
    [-1,1] (both candidates carry U = +u), so exact ties go to the candidate
    farther from c — the branch ending at the cusp, not the one trapped
    inside the small circle around c."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zp, zm = arc_candidates(p, u * u)
    up, _, _ = uvw(p, zp)
    um, _, _ = uvw(p, zm)
    dp = np.abs(up - u)
    dm = np.abs(um - u)
    tie = np.abs(dp - dm) <= 1e-9 * (1.0 + np.abs(u))
    pick_p = np.where(tie, np.abs(zp - p.c) >= np.abs(zm - p.c), dp <= dm)
    return np.where(pick_p, zp, zm)


def segment_points(p: AirfoilParams, m: int = 257) -> SegmentArc:
    u_lo = u_lower(p)
    s_max = float(np.arccos(np.clip(u_lo, -1.0, 1.0)))
    s = s_max * np.arange(m)[::-1] / (m - 1)   # u ascending, endpoints exact
    us = np.cos(s)
    us[-1] = 1.0
    us[0] = u_lo
    return SegmentArc(us=us, samples=arc_z_of_u(p, us), u_lo=u_lo)


_SEG_BLOCK = 32     # consecutive segments that share one bounding box


def polyline_min_dist(z, pts: np.ndarray):
    """Min distance from each z to the polyline through pts (true segment
    distance, with each point projected onto its nearest segment).

    The segments are cut into blocks of _SEG_BLOCK (the last one padded by
    repeating the last segment). For each point, a block's bounding box
    bounds its distance from below, and the nearest first vertex of a block
    bounds the answer from above; the projection is evaluated only on the
    blocks that are not farther than that, so no (points x segments) array is
    built. Each evaluated segment goes through the same elementwise formula
    as a dense evaluation, and for every point the kept blocks hold the
    segment where that dense evaluation is smallest, so the result is bit
    for bit the dense minimum.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    pts = np.asarray(pts, dtype=complex)
    if len(pts) == 1:
        d = np.abs(z - pts[0])
        return float(d[0]) if scalar else d
    seg = pts[1:] - pts[:-1]
    L2 = np.abs(seg) ** 2
    L2 = np.where(L2 > 0, L2, 1.0)
    nblk = -(-len(seg) // _SEG_BLOCK)
    idx = np.minimum(np.arange(nblk * _SEG_BLOCK), len(seg) - 1).reshape(nblk, _SEG_BLOCK)
    verts = pts[np.concatenate([idx, idx[:, -1:] + 1], axis=1)]
    x, y = z.real[:, None], z.imag[:, None]
    dx = np.maximum(np.maximum(verts.real.min(axis=1) - x, x - verts.real.max(axis=1)), 0.0)
    dy = np.maximum(np.maximum(verts.imag.min(axis=1) - y, y - verts.imag.max(axis=1)), 0.0)
    lower = np.hypot(dx, dy)
    upper = np.min(np.abs(z[:, None] - verts[:, 0]), axis=1)
    # Slack for rounding: the box and vertex distances round differently (a
    # strict bound dropped every block for some points), and a computed
    # projection distance is off by a few ulps of the coordinates, not of
    # the distance. A NaN bound keeps every block, as the dense min is NaN.
    slack = 1e-12 * (upper + np.abs(z) + np.max(np.abs(pts)))
    ip, ib = np.nonzero(~(lower > (upper + slack)[:, None]))
    zk = z[ip][:, None]
    k = idx[ib]
    a, s = pts[k], seg[k]
    t = ((zk - a) * np.conj(s)).real / L2[k]
    t = np.clip(t, 0.0, 1.0)
    dk = np.min(np.abs(zk - (a + t * s)), axis=1)
    d = np.minimum.reduceat(dk, np.searchsorted(ip, np.arange(len(z))))
    return float(d[0]) if scalar else d
