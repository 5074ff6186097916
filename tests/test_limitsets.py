"""Case classification and the predicted zero-attracting sets."""

import tracemalloc
import warnings

import numpy as np
import pytest

import faberzeros as fz
from faberzeros.conformal import (
    arc_candidates, boundary_samples, params_from, phi_b_inverse, uvw,
)
from faberzeros.errors import CaseError
from faberzeros.limitsets import (
    CaseTag, arc_A, arc_z_of_u, classify, intersection_ib, loop_g, loop_points,
    polyline_min_dist, segment_points, u_lower,
)


def test_classify_cases():
    assert classify(params_from(1.26, 0.0)).tag is CaseTag.SUBCRITICAL
    assert classify(params_from(1.45, 0.2)).tag is CaseTag.SUBCRITICAL
    assert classify(params_from(2.1, 0.0)).tag is CaseTag.SUPERCRITICAL
    assert classify(params_from(2.1, 0.2)).tag is CaseTag.SUPERCRITICAL
    assert classify(params_from(1.5, 0.0)).tag is CaseTag.CRITICAL
    th = 0.2
    assert classify(params_from(1.5 / np.cos(th), th)).tag is CaseTag.CRITICAL
    assert not classify(params_from(1.26, 0.0)).has_loop
    assert classify(params_from(2.1, 0.0)).has_loop


def test_case_record_is_kept_on_the_params():
    p, q = params_from(2.1, 0.2), params_from(2.1, 0.2)
    assert classify(p) is classify(p)
    assert p == q and hash(p) == hash(q)    # the record is not a field
    assert classify(q) == classify(p)


def test_intersection_point_real_formula():
    # real supercritical: the arc meets the circle at 1/(2b)
    for R in (1.6, 1.8, 2.0, 2.1, 2.5):
        p = params_from(R, 0.0)
        ib = intersection_ib(p)
        assert abs(ib - 1.0 / (2 * p.b)) < 1e-12


def test_intersection_point_critical_is_minus_one():
    for th in (0.0, 0.1, 0.2):
        p = params_from(1.5 / np.cos(th), th)
        assert abs(intersection_ib(p) - (-1.0)) < 1e-8


def test_intersection_point_complex_frozen():
    p = params_from(2.1, 0.2)
    assert intersection_ib(p) == pytest.approx(
        -0.6936820605315637 - 0.5609047652424406j, abs=1e-12)
    # lands on the circle |V| = |b|^2 and on the arc (U real in [-1,1])
    ib = intersection_ib(p)
    u, v, _ = uvw(p, ib)
    assert abs(abs(v) - abs(p.b) ** 2) < 1e-10
    assert abs(u.imag) < 1e-10 and -1 <= u.real <= 1


def test_intersection_none_below_criticality():
    assert intersection_ib(params_from(1.26, 0.0)) is None
    assert intersection_ib(params_from(1.45, 0.2)) is None


def test_u_lower():
    assert u_lower(params_from(1.26, 0.0)) == -1.0
    assert u_lower(params_from(1.45, 0.2)) == -1.0
    assert u_lower(params_from(2.1, 0.0)) == pytest.approx(0.5867768595041323, abs=1e-12)
    assert u_lower(params_from(2.1, 0.2)) == pytest.approx(0.3444325109940165, abs=1e-12)


def test_arc_endpoints_and_continuity():
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2)]:
        p = params_from(R, theta)
        arc = arc_A(p, 257)
        # both tracks grow out of b (rho = 0) and end at the rho = 1 anchors
        assert arc.z_plus[0] == pytest.approx(p.b, abs=1e-12)
        assert arc.z_minus[0] == pytest.approx(p.b, abs=1e-12)
        assert arc.z_plus[-1] == pytest.approx(1.0, abs=1e-12)
        assert arc.z_minus[-1] == pytest.approx(-1.0, abs=1e-12)
        # chained branch selection leaves no jumps
        for track in (arc.z_plus, arc.z_minus):
            assert np.max(np.abs(np.diff(track))) < 0.1


def sequential_arc_walk(zp_raw, zm_raw):
    """The sample-by-sample continuity walk arc_A's branches must reproduce:
    anchor at rho = 1, then at each sample keep or swap the candidate pair,
    whichever is closer in summed distance to the pair above (an exact tie
    puts the larger imaginary part first)."""
    m = len(zp_raw)
    zp = np.empty(m, complex)
    zm = np.empty(m, complex)
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
    return zp, zm


# the presets, near-degenerate, the circle component, critical, and steep
WALK_AIRFOILS = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (1.001, 0.0),
                 (12.0, 0.0), (1.5, 0.0), (3.0, 0.5), (7.6485, 1.4), (5.4, 1.09)]


@pytest.mark.parametrize("R,theta", WALK_AIRFOILS)
def test_arc_scan_matches_sequential_walk_bitwise(R, theta):
    # the branches of arc_candidates are continuous by construction; the walk
    # pairs each sample with its nearest neighbour pair, and they agree bitwise
    p = params_from(R, theta)
    for m in (2, 3, 257, 1025):
        arc = arc_A(p, m)
        zp, zm = sequential_arc_walk(*arc_candidates(p, arc.rho))
        assert np.array_equal(arc.z_plus, zp), m
        assert np.array_equal(arc.z_minus, zm), m
    if R == 12.0:
        assert arc.has_circle_component


def test_arc_samples_square_to_rho():
    for R, theta in [(1.26, 0.0), (2.2, 0.0), (2.1, 0.2)]:
        p = params_from(R, theta)
        arc = arc_A(p, 257)
        rho = np.array([s[0] for s in arc.samples])
        for track in (arc.z_plus, arc.z_minus):
            u, _, _ = uvw(p, track[1:])      # skip rho = 0 where z = b exactly
            assert np.max(np.abs(u ** 2 - rho[1:])) < 1e-10


def test_arc_carries_1_over_b_iff_supercritical():
    # 1/b is the double point where the two quadratic branches collide
    # (U'(1/b) = 0), so it sits on the arc exactly when |b| >= 1; sample
    # spacing near the collision goes like sqrt(drho), hence the loose 0.05
    p = params_from(2.2, 0.0)
    arc = arc_A(p, 1025)
    both = np.concatenate([arc.z_plus, arc.z_minus])
    assert np.min(np.abs(both - 1.0 / p.b.real)) < 0.05
    p = params_from(1.26, 0.0)
    arc = arc_A(p, 1025)
    both = np.concatenate([arc.z_plus, arc.z_minus])
    assert np.min(np.abs(both - 1.0 / p.b.real)) > 0.5


def test_arc_is_interval_only_for_real_subcritical():
    assert arc_A(params_from(1.26, 0.0), 65).is_interval
    assert not arc_A(params_from(2.1, 0.2), 65).is_interval
    a = arc_A(params_from(1.26, 0.0), 129)
    both = np.concatenate([a.z_plus, a.z_minus])
    assert np.max(np.abs(both.imag)) < 1e-12
    assert both.real.min() >= -1 - 1e-12 and both.real.max() <= 1 + 1e-12


def test_arc_z_of_u_roundtrip():
    # U(z(u)) == u across the zero-carrying piece, every case
    for R, theta in [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2), (1.5, 0.0)]:
        p = params_from(R, theta)
        lo = u_lower(p)
        u = np.linspace(lo + 1e-6, 1.0 - 1e-9, 301)
        z = arc_z_of_u(p, u)
        ub, _, _ = uvw(p, z)
        assert np.max(np.abs(ub - u)) < 1e-9


def test_arc_z_of_u_real_supercritical_stays_on_cusp_branch():
    # regression: U is two-to-one on [-1,1] in the real supercritical case and
    # both preimages carry U = +u; the inverse must stay on the branch ending
    # at the cusp (z >= 1/b), never the one inside the small circle near -1
    p = params_from(2.1, 0.0)
    u = np.linspace(u_lower(p), 1.0, 4001)
    z = arc_z_of_u(p, u)
    assert np.max(np.abs(z.imag)) < 1e-12
    assert np.min(z.real) > 1.0 / p.b.real - 1e-9
    assert np.max(np.abs(np.diff(z.real))) < 0.01   # no branch flips


# (R cos theta, theta): loops shorter than half the circle that miss w = -1,
# steep rotations where the sqrt(V) cut crosses the arc, and a subcritical one
BRANCH_CASES = [(1.5001, 0.1), (1.6, 0.3), (2.1, 0.5), (4.0, 0.7), (1.8, 1.5),
                (1.8, 1.48), (4.0, -1.4), (8.0, 1.3), (1.2, 1.5)]


@pytest.mark.parametrize("rc,theta", BRANCH_CASES)
def test_loop_arc_u_lo_and_arc_inverse_agree(rc, theta):
    p = params_from(rc / np.cos(theta), theta)
    u_lo = u_lower(p)
    if rc > 1.5:
        # |g| < 1 inside the loop arc, and the masses span/2pi on the loop
        # and 1 - arccos(u_lo)/pi on the arc add up to one
        lp = loop_points(p, 257)
        th = np.angle(lp.c_plus) + lp.span * np.arange(1, 256) / 256
        assert np.all(np.abs(loop_g(p, np.exp(1j * th))) < 1.0)
        assert u_lo == pytest.approx(-np.cos(lp.span / 2), abs=1e-12)
    # U^2 = u^2 on the inverse (U itself changes sign across the sqrt(V)
    # cut), and no jump between branches: refining the grid 8x shrinks the
    # largest step about 8x, a jump would keep it
    steps = []
    for m in (1001, 8001):
        u = np.linspace(u_lo, 1.0, m)
        z = arc_z_of_u(p, u)
        U, _, _ = uvw(p, z)
        assert np.max(np.abs(U ** 2 - u ** 2)) < 1e-13
        steps.append(np.max(np.abs(np.diff(z))))
    assert steps[1] < 0.25 * steps[0]


def test_segment_points_real_subcritical_is_full_interval():
    p = params_from(1.26, 0.0)
    seg = segment_points(p, 257)
    assert np.max(np.abs(seg.samples.imag)) < 1e-12
    assert seg.samples.real.min() == pytest.approx(-1.0, abs=1e-6)
    assert seg.samples.real.max() == pytest.approx(1.0, abs=1e-6)


def test_segment_points_supercritical_truncates_at_ib():
    p = params_from(2.1, 0.0)
    seg = segment_points(p, 257)
    assert seg.us[0] == classify(p).u_lo
    assert seg.us[0] == pytest.approx(0.5867768595041323, abs=1e-12)
    assert seg.samples.real.min() == pytest.approx(1 / (2 * p.b.real), abs=1e-6)


def test_loop_frozen_corners_real():
    p = params_from(2.1, 0.0)
    lp = loop_points(p, 257)
    assert lp.c_plus == pytest.approx(0.5867768595041323 + 0.8097486753002241j, abs=1e-12)
    assert lp.c_minus == pytest.approx(0.5867768595041323 - 0.8097486753002241j, abs=1e-12)
    assert lp.span == pytest.approx(4.395737958061019, abs=1e-12)
    assert lp.corner == pytest.approx(intersection_ib(p), abs=1e-12)
    # far edge: w = -1 maps to b + 1/(4b)
    far = p.b + 1.0 / (4 * p.b)
    assert np.min(np.abs(lp.samples - far)) < 0.02
    # the loop winds once around -1
    rel = lp.samples - (-1.0)
    winding = np.sum(np.angle(rel[1:] / rel[:-1])) / (2 * np.pi)
    assert abs(abs(winding) - 1.0) < 0.01
    # endpoints map back to the corner point i_b
    assert lp.samples[0] == pytest.approx(intersection_ib(p), abs=1e-9)
    assert lp.samples[-1] == pytest.approx(intersection_ib(p), abs=1e-9)


def test_loop_frozen_span_complex():
    p = params_from(2.1, 0.2)
    lp = loop_points(p, 257)
    assert lp.c_plus == pytest.approx(0.8924600231164582 + 0.451126486851494j, abs=1e-10)
    assert lp.c_minus == pytest.approx(-0.38895838926227666 - 0.9212553236874647j, abs=1e-10)
    assert lp.span == pytest.approx(3.844861137115668, abs=1e-10)


def test_loop_minus_is_complement():
    p = params_from(2.1, 0.0)
    a = loop_points(p, 129, "plus")
    b = loop_points(p, 129, "minus")
    assert a.span + b.span == pytest.approx(2 * np.pi, abs=1e-10)


def test_loop_subcritical_and_critical():
    with pytest.raises(CaseError):
        loop_points(params_from(1.26, 0.0), 65)
    p = params_from(1.5, 0.0)
    lp = loop_points(p, 65)
    assert len(lp.samples) == 0
    assert lp.corner == pytest.approx(-1.0, abs=1e-10)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("sampler", [arc_A, loop_points, segment_points])
def test_samplers_reject_fewer_than_two_samples(sampler, m):
    # as a ValueError, without warnings, also before the critical loop's
    # early return
    for R, theta in [(1.5, 0.0), (2.1, 0.2)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 2 samples"):
                sampler(params_from(R, theta), m)


def test_polyline_min_dist():
    pts = np.array([0.0 + 0j, 1.0 + 0j, 1.0 + 1.0j])
    assert polyline_min_dist(np.array([0.5 + 0j]), pts)[0] == pytest.approx(0.0)
    assert polyline_min_dist(np.array([2.0 + 1.0j]), pts)[0] == pytest.approx(1.0)
    assert polyline_min_dist(np.array([0.5 + 0.3j]), pts)[0] == pytest.approx(0.3)


def dense_min_dist(z, pts):
    """The dense (points x segments) evaluation: the reference that
    polyline_min_dist must match bit for bit."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    pts = np.asarray(pts, dtype=complex)
    if len(pts) == 1:
        d = np.abs(z - pts[0])
        return float(d[0]) if scalar else d
    a = pts[:-1][None, :]
    seg = (pts[1:] - pts[:-1])[None, :]
    L2 = np.abs(seg) ** 2
    t = ((z[:, None] - a) * np.conj(seg)).real / np.where(L2 > 0, L2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    d = np.min(np.abs(z[:, None] - (a + t * seg)), axis=1)
    return float(d[0]) if scalar else d


DIST_AIRFOILS = [(1.26, 0.0), (2.1, 0.0), (2.1, 0.2), (1.45, 0.2),
                 (5.4, 1.09), (1.08, 0.0), (1.689162, 0.9), (1.001, 0.0)]


@pytest.mark.parametrize("R,theta", DIST_AIRFOILS)
def test_polyline_min_dist_matches_dense_bitwise(R, theta):
    # (2.1, 0), n = 50 holds zeros for which the box bound and the vertex
    # bound round to the same distance differently: without the slack in the
    # pruning test they lose every block holding their nearest segment
    p = params_from(R, theta)
    polylines = [segment_points(p, 2048).samples, boundary_samples(p, 1024)]
    if classify(p).tag is CaseTag.SUPERCRITICAL:
        polylines.append(loop_points(p, 2048).samples)
    # group boundaries (a group spans 8 blocks of 16 segments): 1 and 2
    # segments, exactly one group (128 segments), a last group padded with
    # 5 and with 1 repeated block (299 and 999 segments), exactly 16 groups
    polylines += [segment_points(p, m).samples for m in (2, 3, 129, 300, 1000, 2049)]
    rng = np.random.default_rng(5)
    for n in (50, 300, 500):
        zs = fz.compute_zeros(p, n).zeros
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for z in (zs, zs + 0.3 * noise, zs + 3.0 * noise):
            for pts in polylines:
                got = polyline_min_dist(z, pts)
                assert np.array_equal(got, dense_min_dist(z, pts))
    for pts in polylines:
        assert polyline_min_dist(zs[7], pts) == dense_min_dist(zs[7], pts)
        assert isinstance(polyline_min_dist(zs[7], pts), float)
        assert np.array_equal(polyline_min_dist(zs, pts[:1]), dense_min_dist(zs, pts[:1]))


def test_polyline_min_dist_propagates_nan():
    pts = segment_points(params_from(2.1, 0.2), 2048).samples
    d = polyline_min_dist(np.array([np.nan, 0.3 + 0.1j]), pts)
    assert np.isnan(d[0])
    assert d[1] == dense_min_dist(0.3 + 0.1j, pts)


def test_polyline_min_dist_builds_no_dense_array():
    p = params_from(2.1, 0.2)
    zs = fz.compute_zeros(p, 500).zeros
    pts = segment_points(p, 2048).samples
    tracemalloc.start()
    try:
        polyline_min_dist(zs, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one complex (points x segments) array alone would take 16 MB
    assert peak < len(zs) * (len(pts) - 1) * 16 / 2
