"""Predicted zero limit sets: the square-root arc, the critical circle, the
intersection point, and the loop.

The paper's result is one case analysis, held by one record per airfoil
(classify, built once and kept on the AirfoilParams as p.case). Parameter
regimes split on R*cos(theta) at 3/2: below, every zero accumulates on the
arc; above, a loop component appears and the arc only carries zeros between
the intersection point i_b and the cusp. The loop is the image under
J(b(1-w)) of the unit-circle arc where |g(w)| < 1, g(w) = 1 - 1/(b^2 (1-w)),
and the arc piece starts at U = u_lo, from which the two masses follow.
"""

from __future__ import annotations

import cmath
import enum
import functools
from dataclasses import dataclass

import numpy as np

from .conformal import AirfoilParams, arc_candidates, phi_b, phi_b_inverse, uvw
from .errors import BranchError, CaseError

_CRIT_TOL = 1e-12


class CaseTag(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CaseClass:
    """The case analysis of one airfoil. i_b is None below criticality (-1
    to rounding at it); u_lo is the lower end of the zero-carrying arc piece
    in the U coordinate. Above criticality c_plus and c_minus are the loop
    ends on the unit circle, and the loop arc runs ccw from c_plus, at angle
    start, through span; below and at criticality they are None and 0."""

    tag: CaseTag
    i_b: complex | None
    u_lo: float
    c_plus: complex | None = None
    c_minus: complex | None = None
    start: float = 0.0
    span: float = 0.0

    @property
    def has_loop(self) -> bool:
        return self.tag is not CaseTag.SUBCRITICAL

    @property
    def masses(self) -> tuple[float, float]:
        """(segment, loop) masses of the limit measure: the arcsine law's
        share of [u_lo, 1], and the rest."""
        seg = (np.pi / 2 - np.arcsin(np.clip(self.u_lo, -1.0, 1.0))) / np.pi
        return float(seg), float(1.0 - seg)

    @functools.cached_property
    def s_max(self) -> float:
        """arccos(u_lo): the arc piece is u = cos s for s in [0, s_max]."""
        return float(np.arccos(np.clip(self.u_lo, -1.0, 1.0)))


def classify(p: AirfoilParams) -> CaseClass:
    """The case record of p: its regime, R*cos(theta) vs 3/2 with a 1e-12
    tie band, and i_b, u_lo and the loop arc, worked out once per
    AirfoilParams. BranchError when i_b or a loop end misses its modulus."""
    return p.case


def _build_case(p: AirfoilParams) -> CaseClass:
    """The record behind p.case. i_b is the arc's intersection with the
    circle |z-c| = |b|/2 (exactly 1/(2b) in the real case, -1 at
    criticality). The loop arc is the unit-circle arc between the two
    phi_b images of i_b on which |g| < 1 at its midpoint, run ccw from
    c_plus to c_minus. u_lo is -1 up to criticality, above it |Re U(i_b)|
    (the same on both branches of sqrt(V)), positive iff the loop spans
    more than pi (the masses add up to one)."""
    rc = p.rcos
    if rc < 1.5 - _CRIT_TOL:
        return CaseClass(CaseTag.SUBCRITICAL, None, -1.0)
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
    ib = complex(b + r * b * x)
    if abs(rc - 1.5) <= _CRIT_TOL:
        return CaseClass(CaseTag.CRITICAL, ib, -1.0)
    v1, v2 = phi_b(p, ib)
    for v in (v1, v2):
        if abs(abs(v) - 1.0) > 1e-8:
            raise BranchError(f"loop endpoint not unimodular: |v| = {abs(v)}")
    th1, th2 = float(np.angle(v1)), float(np.angle(v2))
    span12 = (th2 - th1) % (2 * np.pi)
    if abs(loop_g(p, cmath.exp(1j * (th1 + span12 / 2)))) < 1.0:
        cp, cm, start, span = v1, v2, th1, span12
    else:
        cp, cm, start, span = v2, v1, th2, (th1 - th2) % (2 * np.pi)
    u, _, _ = uvw(p, ib)
    mag = abs(float(np.real(u)))
    return CaseClass(CaseTag.SUPERCRITICAL, ib, mag if span > np.pi else -mag,
                     cp, cm, start, span)


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
    subcritical (classify(p).i_b)."""
    return classify(p).i_b


def loop_g(p: AirfoilParams, w):
    """g(w) = 1 - 1/(b^2 (1 - w)): F_n(J(b(1-w))) = (-b/a)^n (w^n + g(w)^n - 1),
    and the loop is the image of the unit-circle arc where |g| < 1."""
    return 1.0 - 1.0 / (p.b * p.b * (1.0 - w))


def u_lower(p: AirfoilParams) -> float:
    """Lower end of the zero-carrying arc piece in the U coordinate
    (classify(p).u_lo)."""
    return classify(p).u_lo


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
    if m < 2:
        raise ValueError("need at least 2 samples")
    if case.tag is CaseTag.CRITICAL:
        cp = complex(1.0 + 1.0 / p.b)
        return LoopArc(samples=np.empty(0, complex), corner=-1.0 + 0j,
                       c_plus=cp, c_minus=cp, span=0.0, which=which)
    cp, cm, th, span = case.c_plus, case.c_minus, case.start, case.span
    if which == "minus":
        th = (th + span) % (2 * np.pi)
        span = 2 * np.pi - span
        cp, cm = cm, cp
    ang = th + span * np.arange(m) / (m - 1)
    z = phi_b_inverse(p, np.exp(1j * ang))
    return LoopArc(samples=z, corner=case.i_b, c_plus=cp, c_minus=cm,
                   span=float(span), which=which)


@dataclass(frozen=True)
class SegmentArc:
    """Zero-carrying piece of the arc: U in [u_lo, 1], sampled at us."""

    us: np.ndarray
    samples: np.ndarray


def arc_z_of_u(p: AirfoilParams, u):
    """Invert U on the zero-carrying arc piece: the branch z_plus(u^2) of
    arc_candidates for u >= 0 and z_minus(u^2) for u < 0, so z runs
    continuously from -1 (u = -1) through b (u = 0) to the cusp (u = 1)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    zp, zm = arc_candidates(p, u * u)
    return np.where(u >= 0.0, zp, zm)


def segment_points(p: AirfoilParams, m: int = 257) -> SegmentArc:
    if m < 2:
        raise ValueError("need at least 2 samples")
    case = classify(p)
    s = case.s_max * np.arange(m)[::-1] / (m - 1)   # u ascending, endpoints exact
    us = np.cos(s)
    us[-1] = 1.0
    us[0] = case.u_lo
    return SegmentArc(us=us, samples=arc_z_of_u(p, us))


_SEG_BLOCK = 16     # consecutive segments that share one bounding box
_BLK_GROUP = 8      # consecutive blocks that share one bounding box
_DENSE_BOUNDS = 4096  # up to this many (point, block) pairs every block is bounded


def _bounds(x, y, box, first):
    """Bounds on the distance from the points (x, y) to the parts of a
    polyline along axis 0: (squared distance to each part's box = (xmin,
    xmax, ymin, ymax), which bounds the distance to what the box holds from
    below; distance to the nearest of the vertices first, which bounds the
    polyline's from above). box[i] and first broadcast against x and y."""
    dx = np.maximum(np.maximum(box[0] - x, x - box[1]), 0.0)
    dy = np.maximum(np.maximum(box[2] - y, y - box[3]), 0.0)
    vx, vy = x - first.real, y - first.imag
    return dx * dx + dy * dy, np.sqrt(np.min(vx * vx + vy * vy, axis=0))


def _slack(poly: "_Polyline", z, d):
    """Rounding slack of distances near d from z to poly: the box, vertex and
    projection distances round differently (a strict bound dropped every
    block for some points), each off by a few ulps of the coordinates, not
    of the distance."""
    return 1e-12 * (d + np.abs(z) + poly.reach)


@dataclass(frozen=True)
class _Polyline:
    """A polyline cut into blocks of _SEG_BLOCK segments (the last one padded
    by repeating the last segment) and groups of _BLK_GROUP blocks (the last
    one padded by repeating the last block), as polyline_min_dist searches
    it; built once by _prepare_polyline for any number of queries."""

    pts: np.ndarray
    seg: np.ndarray         # pts[1:] - pts[:-1]
    L2: np.ndarray          # |seg|^2, 1 where a segment has zero length
    idx: np.ndarray         # (blocks, _SEG_BLOCK) segment indices
    box: np.ndarray         # (4, blocks): xmin, xmax, ymin, ymax per block
    first: np.ndarray       # first vertex of each block
    grp: np.ndarray         # (groups, _BLK_GROUP) block indices
    gbox: np.ndarray        # (4, groups): the box of each group's blocks
    reach: float            # max |pts|


def _prepare_polyline(pts) -> _Polyline:
    """Cut the polyline through pts into polyline_min_dist's blocks and
    groups."""
    pts = np.asarray(pts, dtype=complex)
    if len(pts) == 1:                       # no segments: the query is |z - pts[0]|
        none = np.empty(0)
        return _Polyline(pts, none, none, none, none, none, none, none, 0.0)
    seg = pts[1:] - pts[:-1]
    L2 = np.abs(seg) ** 2
    L2 = np.where(L2 > 0, L2, 1.0)
    nblk = -(-len(seg) // _SEG_BLOCK)
    idx = np.minimum(np.arange(nblk * _SEG_BLOCK), len(seg) - 1).reshape(nblk, _SEG_BLOCK)
    # block k holds vertices 16k ... min(16k + 16, last), its end shared with
    # block k + 1: reduce each run without its end, then take the end in
    starts = np.arange(0, nblk * _SEG_BLOCK, _SEG_BLOCK)
    ends = np.minimum(starts + _SEG_BLOCK, len(seg))
    x, y = pts.real, pts.imag
    box = np.stack([np.minimum(np.minimum.reduceat(x, starts), x[ends]),
                    np.maximum(np.maximum.reduceat(x, starts), x[ends]),
                    np.minimum(np.minimum.reduceat(y, starts), y[ends]),
                    np.maximum(np.maximum.reduceat(y, starts), y[ends])])
    ngrp = -(-nblk // _BLK_GROUP)
    grp = np.minimum(np.arange(ngrp * _BLK_GROUP), nblk - 1).reshape(ngrp, _BLK_GROUP)
    gs = np.arange(0, nblk, _BLK_GROUP)
    gbox = np.stack([np.minimum.reduceat(box[0], gs), np.maximum.reduceat(box[1], gs),
                     np.minimum.reduceat(box[2], gs), np.maximum.reduceat(box[3], gs)])
    return _Polyline(pts, seg, L2, idx, box, pts[starts], grp, gbox,
                     float(np.sqrt(np.max(x * x + y * y))))


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


def _first_bounds(poly: _Polyline, z: np.ndarray):
    """(box distances^2, upper bound, grp) of polyline_min_dist's first
    stage, with one row per block for few points (grp None) and one per
    group of blocks grp for many."""
    if len(z) * len(poly.idx) <= _DENSE_BOUNDS:
        box, first, grp = poly.box, poly.first, None
    else:
        box, first, grp = poly.gbox, poly.first[poly.grp[:, 0]], poly.grp
    return (*_bounds(z.real, z.imag, box[:, :, None], first[:, None]), grp)


def _distance_range(poly: _Polyline, z: np.ndarray):
    """(lo, hi) with lo <= _polyline_query(poly, z) <= hi at each point, from
    the first stage's bounds alone; both NaN at a NaN point."""
    if len(poly.pts) == 1:
        d = np.abs(z - poly.pts[0])
        return d, d
    box2, upper, _ = _first_bounds(poly, z)
    slack = _slack(poly, z, upper)
    return np.sqrt(np.min(box2, axis=0)) - slack, upper + slack


def _polyline_query(poly: _Polyline, z):
    """polyline_min_dist(z, poly.pts) on a prepared polyline."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    pts = poly.pts
    if len(pts) == 1:
        d = np.abs(z - pts[0])
        return float(d[0]) if scalar else d
    # a NaN bound keeps every block, as the dense min is NaN
    box2, upper, grp = _first_bounds(poly, z)
    ip, ib = np.nonzero(~(box2 > (upper + _slack(poly, z, upper)) ** 2).T)
    at = np.searchsorted(ip, np.arange(len(z)))
    if grp is not None:                     # ib are groups: bound their blocks
        ib = grp[ib].T                      # (_BLK_GROUP, pairs)
        box2, vd = _bounds(z.real[ip], z.imag[ip], poly.box[:, ib], poly.first[ib])
        upper = np.minimum(upper, np.minimum.reduceat(vd, at))
        jp, jb = np.nonzero(~(box2 > ((upper + _slack(poly, z, upper)) ** 2)[ip]).T)
        ip, ib = ip[jp], ib[jb, jp]
        at = np.searchsorted(ip, np.arange(len(z)))
    zk = z[ip][:, None]
    k = poly.idx[ib]
    a, s = pts[k], poly.seg[k]
    t = ((zk - a) * np.conj(s)).real / poly.L2[k]
    t = np.clip(t, 0.0, 1.0)
    dk = np.min(np.abs(zk - (a + t * s)), axis=1)
    d = np.minimum.reduceat(dk, at)
    return float(d[0]) if scalar else d
