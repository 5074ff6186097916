"""Predicted zero limit sets: the square-root arc, the critical circle, the
intersection point, and the loop.

Parameter regimes split on R*cos(theta) at 3/2: below, every zero accumulates
on the arc; above, a loop component appears and the arc only carries zeros
between the intersection point i_b and the cusp. The loop is the image under
J(b(1-w)) of the unit-circle arc where |g(w)| < 1, g(w) = 1 - 1/(b^2 (1-w)).
"""

from __future__ import annotations

import cmath
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
    """Sample the arc on a Chebyshev grid in sqrt(rho) (endpoint-resolving),
    each branch continuous in rho (see arc_candidates)."""
    if m < 2:
        raise ValueError("need at least 2 samples")
    q = (1.0 - np.cos(np.pi * np.arange(m) / (m - 1))) / 2.0  # sqrt(rho) in [0,1]
    rho = q * q
    zp, zm = arc_candidates(p, rho)
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


def loop_g(p: AirfoilParams, w):
    """g(w) = 1 - 1/(b^2 (1 - w)): F_n(J(b(1-w))) = (-b/a)^n (w^n + g(w)^n - 1),
    and the loop is the image of the unit-circle arc where |g| < 1."""
    return 1.0 - 1.0 / (p.b * p.b * (1.0 - w))


def _loop_arc(p: AirfoilParams, ib: complex):
    """(c_plus, c_minus, start angle, span) of the loop arc: the unit-circle
    arc between the two phi_b images of i_b on which |g| < 1 at its
    midpoint, run ccw from c_plus to c_minus."""
    v1 = phi_b(p, ib, Sheet.PLUS).value
    v2 = phi_b(p, ib, Sheet.MINUS).value
    for v in (v1, v2):
        if abs(abs(v) - 1.0) > 1e-8:
            raise BranchError(f"loop endpoint not unimodular: |v| = {abs(v)}")
    th1, th2 = float(np.angle(v1)), float(np.angle(v2))
    span12 = (th2 - th1) % (2 * np.pi)
    if abs(loop_g(p, cmath.exp(1j * (th1 + span12 / 2)))) < 1.0:
        return v1, v2, th1, span12
    return v2, v1, th2, (th1 - th2) % (2 * np.pi)


def u_lower(p: AirfoilParams) -> float:
    """Lower end of the zero-carrying arc piece in the U coordinate: -1 up to
    criticality, above it |Re U(i_b)| (the same on both branches of sqrt(V)),
    positive iff the loop spans more than pi (the masses add up to one)."""
    ib = intersection_ib(p)
    if ib is None or classify(p).tag is CaseTag.CRITICAL:
        return -1.0
    u, _, _ = uvw(p, ib)
    mag = abs(float(np.real(u)))
    return mag if _loop_arc(p, ib)[3] > np.pi else -mag


@dataclass(frozen=True)
class LoopArc:
    """Image under J(b(1-w)) of the unit-circle arc where |g(w)| < 1: the
    loop component ('plus') or its complement ('minus', figures only)."""

    samples: np.ndarray
    corner: complex        # i_b; both loop ends approach it
    c_plus: complex
    c_minus: complex
    span: float            # ccw angle from c_plus to c_minus
    which: str


def loop_points(p: AirfoilParams, m: int = 257, which: str = "plus") -> LoopArc:
    """Sample the loop, the image of the arc between the loop ends on which
    |g| < 1 at its midpoint. CaseError when subcritical (no loop exists);
    the critical loop is degenerate: empty samples, corner -1."""
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
    cp, cm, th, span = _loop_arc(p, ib)
    if which == "minus":
        th = (th + span) % (2 * np.pi)
        span = 2 * np.pi - span
        cp, cm = cm, cp
    ang = th + span * np.arange(m) / (m - 1)
    z = phi_b_inverse(p, np.exp(1j * ang))
    return LoopArc(samples=z, corner=complex(ib), c_plus=complex(cp),
                   c_minus=complex(cm), span=float(span), which=which)


@dataclass(frozen=True)
class SegmentArc:
    """Zero-carrying piece of the arc: U in [u_lo, 1], sampled at us."""

    us: np.ndarray
    samples: np.ndarray
    u_lo: float


def arc_z_of_u(p: AirfoilParams, u):
    """Invert U on the zero-carrying arc piece: the branch z_plus(u^2) of
    arc_candidates for u >= 0 and z_minus(u^2) for u < 0, so z runs
    continuously from -1 (u = -1) through b (u = 0) to the cusp (u = 1)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zp, zm = arc_candidates(p, u * u)
    return np.where(u >= 0.0, zp, zm)


def segment_points(p: AirfoilParams, m: int = 257) -> SegmentArc:
    u_lo = u_lower(p)
    s_max = float(np.arccos(np.clip(u_lo, -1.0, 1.0)))
    s = s_max * np.arange(m)[::-1] / (m - 1)   # u ascending, endpoints exact
    us = np.cos(s)
    us[-1] = 1.0
    us[0] = u_lo
    return SegmentArc(us=us, samples=arc_z_of_u(p, us), u_lo=u_lo)


_SEG_BLOCK = 16     # consecutive segments that share one bounding box
_BLK_GROUP = 8      # consecutive blocks that share one bounding box
_DENSE_BOUNDS = 4096  # up to this many (point, block) pairs every block is bounded


def _box_dist(x, y, box):
    """Distance from (x, y) to the boxes box = (xmin, xmax, ymin, ymax)."""
    dx = np.maximum(np.maximum(box[0] - x, x - box[1]), 0.0)
    dy = np.maximum(np.maximum(box[2] - y, y - box[3]), 0.0)
    return np.hypot(dx, dy)


@dataclass(frozen=True)
class _Polyline:
    """A polyline cut into blocks of _SEG_BLOCK segments (the last one padded
    by repeating the last segment), as polyline_min_dist searches it; built
    once by _prepare_polyline for any number of _polyline_query calls."""

    pts: np.ndarray
    seg: np.ndarray         # pts[1:] - pts[:-1]
    L2: np.ndarray          # |seg|^2, 1 where a segment has zero length
    idx: np.ndarray         # (blocks, _SEG_BLOCK) segment indices
    box: np.ndarray         # (4, blocks): xmin, xmax, ymin, ymax per block
    first: np.ndarray       # first vertex of each block
    reach: float            # max |pts|


def _prepare_polyline(pts) -> _Polyline:
    """Cut the polyline through pts into polyline_min_dist's blocks."""
    pts = np.asarray(pts, dtype=complex)
    if len(pts) == 1:                       # no segments: the query is |z - pts[0]|
        none = np.empty(0)
        return _Polyline(pts, none, none, none, none, none, 0.0)
    seg = pts[1:] - pts[:-1]
    L2 = np.abs(seg) ** 2
    L2 = np.where(L2 > 0, L2, 1.0)
    nblk = -(-len(seg) // _SEG_BLOCK)
    idx = np.minimum(np.arange(nblk * _SEG_BLOCK), len(seg) - 1).reshape(nblk, _SEG_BLOCK)
    verts = pts[np.concatenate([idx, idx[:, -1:] + 1], axis=1)]
    box = np.stack([verts.real.min(axis=1), verts.real.max(axis=1),
                    verts.imag.min(axis=1), verts.imag.max(axis=1)])
    return _Polyline(pts, seg, L2, idx, box, verts[:, 0], float(np.max(np.abs(pts))))


def polyline_min_dist(z, pts: np.ndarray):
    """Min distance from each z to the polyline through pts (true segment
    distance, with each point projected onto its nearest segment).

    The segments are cut into blocks of _SEG_BLOCK (the last one padded by
    repeating the last segment). A block's bounding box bounds its distance
    from below, and the nearest first vertex of a block bounds the answer
    from above; the projection is evaluated only on the blocks that are not
    farther than that, so no (points x segments) array is built. Few points
    bound every block. Many points bound groups of _BLK_GROUP blocks first
    (the last group padded by repeating the last block), against the
    nearest first vertex of a group, and then only the blocks of the groups
    that are not farther, against the nearest first vertex among those
    blocks. Each evaluated segment goes through the same elementwise formula
    as a dense evaluation, and for every point the kept blocks hold the
    segment where that dense evaluation is smallest (its block and group lie
    within any upper bound), so the result is bit for bit the dense minimum.
    Callers that query one polyline many times prepare it once with
    _prepare_polyline and call _polyline_query.
    """
    return _polyline_query(_prepare_polyline(pts), z)


def _polyline_query(poly: _Polyline, z):
    """polyline_min_dist(z, poly.pts) on a prepared polyline."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    pts, seg, L2, idx, box, first = poly.pts, poly.seg, poly.L2, poly.idx, poly.box, poly.first
    if len(pts) == 1:
        d = np.abs(z - pts[0])
        return float(d[0]) if scalar else d
    nblk = len(idx)
    x, y = z.real[:, None], z.imag[:, None]
    # Slack for rounding: the box and vertex distances round differently (a
    # strict bound dropped every block for some points), and a computed
    # projection distance is off by a few ulps of the coordinates, not of
    # the distance. A NaN bound keeps every block, as the dense min is NaN.
    size = np.abs(z) + poly.reach
    if len(z) * nblk <= _DENSE_BOUNDS:
        upper = np.min(np.abs(z[:, None] - first), axis=1)
        ip, ib = np.nonzero(~(_box_dist(x, y, box) > (upper + 1e-12 * (upper + size))[:, None]))
    else:
        ngrp = -(-nblk // _BLK_GROUP)
        grp = np.minimum(np.arange(ngrp * _BLK_GROUP), nblk - 1).reshape(ngrp, _BLK_GROUP)
        gbox = np.stack([box[0][grp].min(axis=1), box[1][grp].max(axis=1),
                         box[2][grp].min(axis=1), box[3][grp].max(axis=1)])
        upper = np.min(np.abs(z[:, None] - first[grp[:, 0]]), axis=1)
        ip, ig = np.nonzero(~(_box_dist(x, y, gbox) > (upper + 1e-12 * (upper + size))[:, None]))
        ib = grp[ig]
        vd = np.min(np.abs(z[ip][:, None] - first[ib]), axis=1)
        upper = np.minimum(upper, np.minimum.reduceat(vd, np.searchsorted(ip, np.arange(len(z)))))
        lower = _box_dist(x[ip], y[ip], box[:, ib])
        jp, jb = np.nonzero(~(lower > (upper + 1e-12 * (upper + size))[ip][:, None]))
        ip, ib = ip[jp], ib[jp, jb]
    zk = z[ip][:, None]
    k = idx[ib]
    a, s = pts[k], seg[k]
    t = ((zk - a) * np.conj(s)).real / L2[k]
    t = np.clip(t, 0.0, 1.0)
    dk = np.min(np.abs(zk - (a + t * s)), axis=1)
    d = np.minimum.reduceat(dk, np.searchsorted(ip, np.arange(len(z))))
    return float(d[0]) if scalar else d
