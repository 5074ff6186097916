"""Independent correctness checks for the faberzeros benchmark.

Nothing here imports faberzeros. Every reference value comes from the
airfoil's closed forms, computed again in this file:

- the Faber polynomial F_n(z) = a^-n [(w+s)^n + (w-s)^n - (-b)^n] with
  w = z - b and s^2 = z^2 - 1, evaluated with its derivative in mpmath, so
  that |F_n / F_n'| is the forward error of a computed zero;
- the equilibrium moments m_k = 2^-k sum_{j <= k/2} C(k, j) b^(k-2j), which
  the n zeros reproduce exactly as power sums mean(z_j^k) for k <= n;
- the segment mass arccos(u)/pi, u = (1/(2b) - b)/|b|, of the real
  supercritical airfoil, and 1 below criticality;
- the boundary J(a e^{it} + b), J(zeta) = (zeta + 1/zeta)/2.

Run this file to self-test the checks: a zero set found by mpmath's own
polynomial solver passes, and the same set with one zero moved by 1e-9 fails.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import sys
import xml.etree.ElementTree as ET

import mpmath as mp
import numpy as np

EPS = 2.0 ** -52
# A returned zero is "near machine precision" when its forward error is below
# 2^9 ulp of max(1, |z|), about 1.1e-13. Healthy zero sets measure 4.2e-15 or
# less; the odd-degree real-axis fault sits at 5e-10.
FE_REL = 512 * EPS
SVG_NS = "{http://www.w3.org/2000/svg}"
DOT_RADIUS = "0.012"      # zero dots; the i_b marker uses another radius
SVG_TOL = 1e-4          # the SVG writes coordinates with four decimals


def airfoil(R: float, theta: float) -> tuple[complex, complex]:
    """(a, b) with a = R e^{i theta} and b = 1 - a."""
    a = complex(R * math.cos(theta), R * math.sin(theta))
    return a, 1.0 - a


def forward_errors(R: float, theta: float, n: int, zeros) -> np.ndarray:
    """|F_n(z) / F_n'(z)| at each zero, evaluated in mpmath at the double value.

    The working precision covers the cancellation between the three terms of
    F_n: 30 digits plus the decades by which |b|^n exceeds the larger of
    |w + s|^n and |w - s|^n.
    """
    _, b = airfoil(R, theta)
    z = np.asarray(zeros, dtype=complex)
    s = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)
    w = z - b
    with np.errstate(divide="ignore"):
        big = np.maximum(np.abs(w + s), np.abs(w - s))
        excess = n * (np.log10(abs(b)) - np.log10(big))
    out = np.empty(len(z))
    for i, zi in enumerate(z):
        dps = 30 + int(math.ceil(max(0.0, float(excess[i]))))
        with mp.workdps(dps):
            zm = mp.mpc(zi)
            bm = mp.mpc(b)
            sm = mp.sqrt(zm - 1) * mp.sqrt(zm + 1)
            wm = zm - bm
            if sm == 0:
                out[i] = math.inf
                continue
            p1 = (wm + sm) ** (n - 1)
            p2 = (wm - sm) ** (n - 1)
            f = p1 * (wm + sm) + p2 * (wm - sm) - (-bm) ** n
            df = n * (p1 * (sm + zm) + p2 * (sm - zm)) / sm
            out[i] = math.inf if df == 0 else float(abs(f / df))
    return out


def moments(b: complex, k_max: int) -> list[complex]:
    """Equilibrium moments m_1..m_kmax from the binomial closed form."""
    out = []
    with mp.workdps(40):
        bm = mp.mpc(b)
        for k in range(1, k_max + 1):
            acc = mp.mpc(0)
            for j in range(k // 2 + 1):
                acc += mp.binomial(k, j) * bm ** (k - 2 * j)
            out.append(complex(acc / mp.mpf(2) ** k))
    return out


def power_sums(zeros, k_max: int) -> list[complex]:
    """mean(z_j^k) for k = 1..k_max, summed exactly in mpmath."""
    out = []
    with mp.workdps(60):
        zm = [mp.mpc(complex(v)) for v in zeros]
        pw = [mp.mpc(1)] * len(zm)
        for _ in range(k_max):
            pw = [p * z for p, z in zip(pw, zm)]
            out.append(complex(mp.fsum(pw) / len(zm)))
    return out


def check_zero_set(R: float, theta: float, n: int, zeros) -> list[str]:
    """Problems with one computed zero set; an empty list means it passed.

    Checks: exactly n finite zeros, pairwise distinct; each forward error
    below FE_REL * max(1, |z|); power sums k = 1..min(4, n) equal to the
    closed-form moments within the error those forward errors allow; closed
    under conjugation when theta = 0.
    """
    z = np.asarray(zeros, dtype=complex).ravel()
    if len(z) != n:
        return [f"holds {len(z)} zeros, expected {n}"]
    if not np.all(np.isfinite(z)):
        return ["non-finite zero"]
    problems = []
    scale = np.maximum(1.0, np.abs(z))
    tol = FE_REL * scale
    if n > 1:
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        close = d <= tol[:, None] + tol[None, :]
        if np.any(close):
            problems.append(f"{int(np.sum(np.any(close, axis=1)))} zeros not distinct")
    fe = forward_errors(R, theta, n, z)
    bad = fe > tol
    if np.any(bad):
        i = int(np.argmax(fe / tol))
        problems.append(f"{int(np.sum(bad))} zeros with forward error above "
                        f"{FE_REL:.1e}*max(1,|z|); worst {fe[i]:.2e} at {z[i]:.12g}")
    _, b = airfoil(R, theta)
    rho = float(np.max(scale))
    k_max = min(4, n)
    for k, (ps, mk) in enumerate(zip(power_sums(z, k_max), moments(b, k_max)), 1):
        gap = abs(ps - mk)
        allowed = k * rho ** k * FE_REL + 8 * EPS * max(1.0, abs(mk))
        if gap > allowed:
            problems.append(f"power sum k={k} off the moment by {gap:.2e} "
                            f"(allowed {allowed:.2e})")
    if theta == 0.0:
        dc = np.min(np.abs(np.conj(z)[:, None] - z[None, :]), axis=1)
        if np.any(dc > 2 * tol):
            problems.append("zero set not closed under conjugation")
    return problems


def segment_mass(R: float, theta: float) -> float | None:
    """Predicted segment mass where a closed form is known: 1 below
    criticality, arccos(u)/pi for real airfoils above it, else None."""
    if R * math.cos(theta) <= 1.5:
        return 1.0
    if theta != 0.0:
        return None
    b = 1.0 - R
    u = (1.0 / (2.0 * b) - b) / abs(b)
    return math.acos(u) / math.pi


def _check_masses(R: float, theta: float, masses: dict) -> list[str]:
    problems = []
    seg, loop = float(masses["segment"]), float(masses["loop"])
    if abs(seg + loop - 1.0) > 1e-11 or not 0.0 <= seg <= 1.0:
        problems.append(f"masses {seg}, {loop} are not a split of 1")
    want = segment_mass(R, theta)
    if want is not None and abs(seg - want) > 1e-10:
        problems.append(f"segment mass {seg!r}, closed form {want!r}")
    return problems


def check_verify_report(R: float, theta: float, n: int, text: str) -> list[str]:
    """Consistency of verify_report.json: class counts sum to n, the masses
    match the closed form. (Whether it says PASS is judged by the caller.)"""
    doc = json.loads(text)
    run = doc["runs"][0]
    problems = []
    if run["n"] != n or len(doc["runs"]) != 1:
        problems.append("report does not hold exactly the requested degree")
    counts = run["counts"]
    if sum(counts.values()) != n:
        problems.append(f"class counts {counts} do not sum to {n}")
    problems += _check_masses(R, theta, run["masses"])
    if bool(run["pass"]) != bool(doc["pass"]):
        problems.append("run verdict and report verdict disagree")
    return problems


def check_svg(R: float, theta: float, n: int, text: str) -> list[str]:
    """The plot parses, holds n zero dots, and their mean is m_1 = b/2."""
    root = ET.fromstring(text)
    dots = [c for c in root.iter(SVG_NS + "circle") if c.get("r") == DOT_RADIUS]
    if len(dots) != n:
        return [f"SVG holds {len(dots)} zero dots, expected {n}"]
    cx = math.fsum(float(c.get("cx")) for c in dots) / n
    cy = math.fsum(float(c.get("cy")) for c in dots) / n
    _, b = airfoil(R, theta)
    # y is flipped in the SVG; rounding to 4 decimals moves the mean <= 5e-5
    off = abs(complex(cx, -cy) - b / 2)
    if off > SVG_TOL:
        return [f"mean zero dot {complex(cx, -cy)} is {off:.2e} from b/2"]
    return []


def check_curves_csv(R: float, theta: float, text: str) -> list[str]:
    """Every boundary row of curves.csv lies on J(a e^{it} + b)."""
    a, b = airfoil(R, theta)
    worst, rows = 0.0, 0
    for row in csv.DictReader(io.StringIO(text)):
        if row["component"] != "boundary":
            continue
        zeta = a * cmath.exp(1j * float(row["param"])) + b
        want = (zeta + 1.0 / zeta) / 2.0
        got = complex(float(row["re"]), float(row["im"]))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        rows += 1
    if rows == 0:
        return ["curves.csv has no boundary rows"]
    if worst > 1e-10:
        return [f"boundary row off J(a e^(it) + b) by {worst:.2e}"]
    return []


def check_predicted_json(R: float, theta: float, text: str) -> list[str]:
    return _check_masses(R, theta, json.loads(text)["masses"])


# ---------------------------------------------------------------- self-test

def reference_zeros(R: float, theta: float, n: int) -> np.ndarray:
    """Zeros of F_n from mpmath's polynomial solver on coefficients expanded
    here: (w+s)^n + (w-s)^n = 2 sum_{j even} C(n,j) w^(n-j) (z^2-1)^(j/2)."""
    _, b = airfoil(R, theta)
    with mp.workdps(60):
        bm = mp.mpc(b)

        def mul(p, q):
            out = [mp.mpc(0)] * (len(p) + len(q) - 1)
            for i, x in enumerate(p):
                for j, y in enumerate(q):
                    out[i + j] += x * y
            return out

        poly = [mp.mpc(0)] * (n + 1)            # ascending in z
        for j in range(0, n + 1, 2):
            term = [mp.mpc(2 * mp.binomial(n, j))]
            for _ in range(n - j):
                term = mul(term, [-bm, mp.mpc(1)])
            for _ in range(j // 2):
                term = mul(term, [mp.mpc(-1), mp.mpc(0), mp.mpc(1)])
            for i, c in enumerate(term):
                poly[i] += c
        poly[0] -= (-bm) ** n
        roots = mp.polyroots(poly[::-1], maxsteps=200, extraprec=200)
    return np.array([complex(r) for r in roots])


def self_test() -> list[str]:
    """Problems with the checks themselves; an empty list means they work."""
    problems = []
    for R, theta, n in ((1.26, 0.3, 9), (2.1, 0.0, 12)):
        z = reference_zeros(R, theta, n)
        got = check_zero_set(R, theta, n, z)
        if got:
            problems.append(f"known-good set ({R}, {theta}, {n}) flagged: {got}")
        moved = z.copy()
        moved[n // 2] += 1e-9
        if not check_zero_set(R, theta, n, moved):
            problems.append(f"zero moved by 1e-9 at ({R}, {theta}, {n}) passed")
        if check_zero_set(R, theta, n, z[:-1]) == []:
            problems.append("a set missing one zero passed")
    return problems


if __name__ == "__main__":
    found = self_test()
    for line in found:
        print(line)
    print("self-test " + ("FAIL" if found else "PASS"))
    sys.exit(1 if found else 0)
