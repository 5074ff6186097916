"""Command-line front end: zeros / predict / verify / plot.

Outputs are byte-deterministic: floats go through one %.12e formatter, the
degrees are computed and written in ascending order, and nothing timestamps
itself.
Exit codes: 0 ok, 1 verification gate failed, 2 bad parameters, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .conformal import AirfoilParams, boundary_samples, params_from, psi
from .errors import (
    BranchError, CaseError, ConvergenceError, DeficitError, DomainError,
    FaberError, MismatchError, ParameterError, PoleError, ResolutionError,
    SingularityError,
)
from .limitsets import CaseTag, arc_A, classify, intersection_ib, loop_points, segment_points
from .measures import (
    classify_zeros, equilibrium_moments, predicted, potential_check,
    quadrature_gate, weak_star_distance,
)
from .rootfind import SIMULTANEOUS_MAX_N, ZeroSet, compute_zeros
from .faber import scaled_residual

FIGURE_PRESETS = {1: (1.26, 0.0), 2: (2.1, 0.0), 3: (2.1, 0.2), 4: (1.45, 0.2)}

CDF_GATE = 0.12
MASS_GATE = 0.06
POTENTIAL_GATE = 0.05


def fnum(x) -> str:
    return "%.12e" % float(x)


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pin = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pin}"{k}": {_json_text(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pin + _json_text(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf or nan: a non-finite value is written as null
        return fnum(obj) if np.isfinite(obj) else "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"not JSON-serializable here: {type(obj)}")


def _write(path: str, text: str):
    # a rerun removes the old file first: opening a just-written file with
    # truncation blocks until the filesystem has written it back (~100 ms)
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


@dataclass
class RunConfig:
    command: str
    R: float
    theta: float = 0.0
    n_list: list[int] = field(default_factory=list)
    out: str = "out"
    formats: tuple = ()
    seed_method: str = "auto"
    tol_quad: float | None = None
    zeros_in: str | None = None

    def validate(self):
        if self.command in ("zeros", "verify", "plot"):
            if not self.n_list:
                raise ParameterError("--n is required (comma-separated degrees)")
            for n in self.n_list:
                if not 1 <= n <= 500:
                    raise ParameterError(f"n must be in [1, 500], got {n}")
        if self.seed_method not in ("auto", "simultaneous", "seeded"):
            raise ParameterError(f"unknown seed method {self.seed_method!r}")
        top = max(self.n_list, default=0)
        if self.seed_method == "simultaneous" and top > SIMULTANEOUS_MAX_N:
            raise ParameterError(
                f"--seed-method simultaneous works up to n = {SIMULTANEOUS_MAX_N}")


def _parse_config_file(path: str) -> dict:
    vals = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParameterError(f"bad config line: {line!r}")
                k, v = line.split("=", 1)
                vals[k.strip().replace("-", "_")] = v.strip().strip('"')
    except OSError as e:
        raise ParameterError(f"cannot read config file {path}: {e}")
    return vals


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args fills a fresh Namespace every call
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--R", type=float, default=None, help="circle radius R > 1")
    common.add_argument("--theta", type=float, default=None,
                        help="rotation angle, |theta| < pi/2 (default 0)")
    common.add_argument("--n", type=str, default=None,
                        help="comma-separated polynomial degrees, each <= 500")
    common.add_argument("--out", type=str, default=None, help="output directory")
    common.add_argument("--format", dest="fmt", type=str, default=None,
                        help="comma-separated output formats (csv,json,svg)")
    common.add_argument("--seed-method", type=str, default=None,
                        choices=("auto", "simultaneous", "seeded"))
    common.add_argument("--tol-quad", type=float, default=None,
                        help="override the quadrature residual gate")
    common.add_argument("--paper-figure", type=int, default=None,
                        choices=sorted(FIGURE_PRESETS),
                        help="preset airfoil 1-4 (sets R and theta)")
    common.add_argument("--zeros-in", type=str, default=None,
                        help="read zeros from this CSV instead of computing")
    common.add_argument("--config", type=str, default=None,
                        help="key=value config file (CLI flags win)")
    ap = argparse.ArgumentParser(prog="faberzeros")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("zeros", parents=[common], help="compute zeros, write CSV")
    sub.add_parser("predict", parents=[common], help="write predicted curves and masses")
    sub.add_parser("verify", parents=[common], help="run the numeric gates")
    sub.add_parser("plot", parents=[common], help="write an SVG figure per degree")
    return ap


def _resolve(ns: argparse.Namespace) -> RunConfig:
    filevals = _parse_config_file(ns.config) if ns.config else {}

    def pick(cli, key, conv, default):
        if cli is not None:
            return cli
        if key in filevals:
            try:
                return conv(filevals[key])
            except ValueError:
                raise ParameterError(f"bad config value for {key}: {filevals[key]!r}")
        return default

    fig = pick(ns.paper_figure, "paper_figure", int, None)
    R = pick(ns.R, "R", float, None)
    theta = pick(ns.theta, "theta", float, None)
    if fig is not None:
        pr, pt = FIGURE_PRESETS[fig]
        R = pr if R is None else R
        theta = pt if theta is None else theta
    if R is None:
        raise ParameterError("--R is required (or --paper-figure / config)")
    nstr = pick(ns.n, "n", str, None)
    try:
        n_list = [int(s) for s in nstr.split(",") if s.strip()] if nstr else []
    except ValueError:
        raise ParameterError(f"bad degree list {nstr!r}")
    fmt = pick(ns.fmt, "format", str, None)
    cfg = RunConfig(
        command=ns.command,
        R=R,
        theta=theta if theta is not None else 0.0,
        n_list=n_list,
        out=pick(ns.out, "out", str, "out"),
        formats=tuple(s.strip() for s in fmt.split(",")) if fmt else (),
        seed_method=pick(ns.seed_method, "seed_method", str, "auto"),
        tol_quad=pick(ns.tol_quad, "tol_quad", float, None),
        zeros_in=ns.zeros_in,
    )
    cfg.validate()
    return cfg


def _default_tol_quad(cfg: RunConfig) -> float:
    if cfg.tol_quad is not None:
        return cfg.tol_quad
    return 1e-6 if max(cfg.n_list) <= 60 else 1e-4


def _zeros_by_degree(p: AirfoilParams, cfg: RunConfig) -> dict:
    """{n: (ZeroSet, class labels)} in ascending n, all computed before any
    file is written."""
    out = {}
    for n in sorted(set(cfg.n_list)):
        zs = compute_zeros(p, n, method=cfg.seed_method)
        out[n] = zs, classify_zeros(p, zs)
    return out


# ---------------------------------------------------------------- zeros

def _zeros_csv(n: int, zs: ZeroSet, labels: list[str]) -> str:
    cols = zip(range(len(labels)), zs.zeros.real.tolist(), zs.zeros.imag.tolist(),
               zs.residuals.tolist(), labels)
    return "n,index,re,im,residual,class\n" + (
        f"{n},%d,%.12e,%.12e,%.12e,%s\n" * len(labels) % tuple(chain.from_iterable(cols)))


def _zeros_json(n: int, zs: ZeroSet, labels: list[str]) -> str:
    return _json_text({
        "n": n,
        "method": zs.method.value,
        "zeros": [
            {"re": z.real, "im": z.imag, "residual": float(r), "class": lab}
            for z, r, lab in zip(zs.zeros, zs.residuals, labels)
        ],
    }) + "\n"


def cmd_zeros(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("csv",)

    results = _zeros_by_degree(p, cfg)
    os.makedirs(cfg.out, exist_ok=True)
    for n, (zs, labels) in results.items():
        if "csv" in formats:
            _write(os.path.join(cfg.out, f"zeros_n{n}.csv"), _zeros_csv(n, zs, labels))
        if "json" in formats:
            _write(os.path.join(cfg.out, f"zeros_n{n}.json"), _zeros_json(n, zs, labels))
        print(f"n={n}: {zs.n} zeros, max scaled residual {np.max(zs.residuals):.3e}")
    return 0


# ---------------------------------------------------------------- predict

def _curve_rows(component: str, param: np.ndarray, z: np.ndarray) -> str:
    """One CSV row per sample, each ending in a newline."""
    z = np.asarray(z, dtype=complex)
    vals = np.column_stack([np.asarray(param, dtype=float), z.real, z.imag])
    return f"{component},%.12e,%.12e,%.12e\n" * len(z) % tuple(vals.ravel().tolist())


def cmd_predict(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("csv", "json")
    case = classify(p)
    pred = predicted(p)
    rows = ["component,param,re,im\n"]
    t = np.linspace(0.0, 2 * np.pi, 512)
    rows.append(_curve_rows("boundary", t, psi(p, np.exp(1j * t))))
    arc = arc_A(p, 257)
    q = np.sqrt(arc.rho)
    qs = np.concatenate([-q[::-1], q[1:]])            # signed sqrt(rho): one polyline
    zarc = np.concatenate([arc.z_minus[::-1], arc.z_plus[1:]])
    rows.append(_curve_rows("arc", qs, zarc))
    rows.append(_curve_rows("circle_cb", t, p.c + (abs(p.b) / 2) * np.exp(1j * t)))
    if p.is_real and p.b.real <= -1.0:
        rtilde = abs(p.c - p.b)
        rows.append(_curve_rows("circle_cb_tilde", t, p.c + rtilde * np.exp(1j * t)))
    seg = segment_points(p, 257)
    rows.append(_curve_rows("segment", seg.us, seg.samples))
    ib = intersection_ib(p)
    if case.has_loop and case.tag is not CaseTag.CRITICAL:
        for which in ("plus", "minus"):
            lp = loop_points(p, 257, which=which)
            th = np.linspace(0.0, lp.span, 257)
            rows.append(_curve_rows("loop" if which == "plus" else "loop_minus",
                                    th, lp.samples))
    if ib is not None:
        rows.append(_curve_rows("corner_ib", np.zeros(1), np.array([ib], dtype=complex)))
    doc = {
        "case": case.tag.value,
        "rcos": p.rcos,
        "capacity": p.capacity,
        "masses": {"segment": pred.mass_segment, "loop": pred.mass_loop},
        "u_lo": pred.u_lo,
        "i_b": None if ib is None else {"re": ib.real, "im": ib.imag},
        "c_plus": None if pred.c_plus is None else
            {"re": pred.c_plus.real, "im": pred.c_plus.imag},
        "c_minus": None if pred.c_minus is None else
            {"re": pred.c_minus.real, "im": pred.c_minus.imag},
        "span": pred.span,
    }
    os.makedirs(cfg.out, exist_ok=True)
    if "csv" in formats:
        _write(os.path.join(cfg.out, "curves.csv"), "".join(rows))
    if "json" in formats:
        _write(os.path.join(cfg.out, "predicted.json"), _json_text(doc) + "\n")
    print(f"case={case.tag.value} masses: segment {pred.mass_segment:.6f} "
          f"loop {pred.mass_loop:.6f}")
    return 0


# ---------------------------------------------------------------- verify

def _read_zeros_csv(path: str, p: AirfoilParams) -> ZeroSet:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        header = lines[0].split(",")
        icol = {name: i for i, name in enumerate(header)}
        zs = []
        nval = None
        for ln in lines[1:]:
            parts = ln.split(",")
            nval = int(parts[icol["n"]])
            zs.append(complex(float(parts[icol["re"]]), float(parts[icol["im"]])))
    except (OSError, ValueError, KeyError, IndexError) as e:
        raise ParameterError(f"cannot parse zeros CSV {path}: {e}")
    if nval is None or len(zs) != nval:
        raise ParameterError(
            f"zeros CSV {path} holds {len(zs)} rows but claims n={nval}")
    z = np.array(zs, dtype=complex)
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    res = np.atleast_1d(scaled_residual(p, nval, z))
    from .rootfind import Method
    return ZeroSet(nval, z, res, Method.SEEDED)


def cmd_verify(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("json",)
    tol_quad = _default_tol_quad(cfg)
    case = classify(p)
    pred = predicted(p)

    if cfg.zeros_in is not None:
        if len(cfg.n_list) > 1:
            raise ParameterError("--zeros-in works with a single n")
        pre = _read_zeros_csv(cfg.zeros_in, p)
        if cfg.n_list and cfg.n_list[0] != pre.n:
            raise ParameterError(
                f"--n {cfg.n_list[0]} disagrees with file n={pre.n}")
        cfg.n_list = [pre.n]
        zsets = {pre.n: pre}
    else:
        zsets = {n: compute_zeros(p, n, method=cfg.seed_method)
                 for n in sorted(set(cfg.n_list))}

    moments = equilibrium_moments(p, max(zsets))
    runs = []
    all_pass = True
    for n in sorted(zsets):
        zs = zsets[n]
        quad_rel = quadrature_gate(p, zs, moments=moments)
        labels = classify_zeros(p, zs)
        wsd = weak_star_distance(p, zs, labels=labels)
        pot = float(np.max(potential_check(p, zs)))
        counts = {lab: labels.count(lab) for lab in ("segment", "loop", "other")}
        gates = {"quadrature": quad_rel < tol_quad,
                 "cdf": wsd.cdf_dist < CDF_GATE,
                 "potential": pot < POTENTIAL_GATE,
                 "unclassified": counts["other"] <= 3.0 * np.sqrt(n)}
        if case.tag is CaseTag.SUPERCRITICAL:
            gates["mass_split"] = (
                abs(counts["segment"] / n - pred.mass_segment) <= MASS_GATE
                and abs(counts["loop"] / n - pred.mass_loop) <= MASS_GATE)
        ok = all(gates.values())
        all_pass = all_pass and ok
        for gname, gval in gates.items():
            print(f"[n={n}] {gname}: {'PASS' if gval else 'FAIL'}")
        print(f"[n={n}] quad_max_residual={quad_rel:.3e} tol={tol_quad:.1e} "
              f"cdf_dist={wsd.cdf_dist:.4f} moment_dist={wsd.moment_dist:.3e} "
              f"potential={pot:.3e} counts={counts}")
        runs.append({
            "n": n,
            "case": case.tag.value,
            "masses": {"segment": pred.mass_segment, "loop": pred.mass_loop},
            "moment_dist": wsd.moment_dist,
            "cdf_dist": wsd.cdf_dist,
            "quad_max_residual": quad_rel,
            "quad_tol": tol_quad,
            "potential_max_dev": pot,
            "counts": counts,
            "gates": gates,
            "pass": ok,
        })
    doc = {"R": cfg.R, "theta": cfg.theta, "runs": runs, "pass": all_pass}
    os.makedirs(cfg.out, exist_ok=True)
    if "json" in formats:
        _write(os.path.join(cfg.out, "verify_report.json"), _json_text(doc) + "\n")
    print("VERIFY " + ("PASS" if all_pass else "FAIL"))
    return 0 if all_pass else 1


# ---------------------------------------------------------------- plot

_CURVE_STYLE = {
    "boundary": "#555555",
    "arc": "#9467bd",
    "circle_cb": "#2ca02c",
    "circle_cb_tilde": "#98df8a",
    "segment": "#1f77b4",
    "loop": "#d62728",
    "loop_minus": "#ff9896",
}
_DOT_STYLE = {"segment": "#1f77b4", "loop": "#d62728", "other": "#333333"}


def _svg_xy(z: np.ndarray) -> tuple:
    """(x0, y0, x1, y1, ...) of the points z in SVG coordinates (y down)."""
    z = np.asarray(z, dtype=complex)
    return tuple(np.column_stack([z.real, -z.imag]).ravel().tolist())


def _svg_poly(z: np.ndarray, color: str) -> str:
    pts = " ".join(["%.4f,%.4f"] * len(z)) % _svg_xy(z)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="0.012" '
            f'points="{pts}"/>')


def _svg_dots(z: np.ndarray, labels: list[str]) -> str:
    """One filled circle per zero, coloured by its class, one per line."""
    xy = _svg_xy(z)
    cols = zip(xy[0::2], xy[1::2], [_DOT_STYLE[lab] for lab in labels])
    return "\n".join(['<circle cx="%.4f" cy="%.4f" r="0.012" fill="%s"/>']
                     * len(labels)) % tuple(chain.from_iterable(cols))


def _svg_text(p: AirfoilParams, zs: ZeroSet, labels: list[str]) -> str:
    case = classify(p)
    curves = []
    t = np.linspace(0.0, 2 * np.pi, 512)
    curves.append(("boundary", psi(p, np.exp(1j * t))))
    arc = arc_A(p, 257)
    curves.append(("arc", np.concatenate([arc.z_minus[::-1], arc.z_plus[1:]])))
    curves.append(("circle_cb", p.c + (abs(p.b) / 2) * np.exp(1j * t)))
    if p.is_real and p.b.real <= -1.0:
        curves.append(("circle_cb_tilde", p.c + abs(p.c - p.b) * np.exp(1j * t)))
    curves.append(("segment", segment_points(p, 257).samples))
    clipped = []   # drawn but excluded from the frame: the minus loop runs
    if case.has_loop and case.tag is not CaseTag.CRITICAL:
        curves.append(("loop", loop_points(p, 257, "plus").samples))
        # the complement arc maps through w = 1 where the image is unbounded;
        # keep only the pieces near the figure and break the polyline there
        lm = loop_points(p, 257, "minus").samples
        keep = np.abs(lm) <= 4.0
        run = []
        for v, ok in zip(lm, keep):
            if ok:
                run.append(v)
            elif len(run) > 1:
                clipped.append(("loop_minus", np.array(run)))
                run = []
            else:
                run = []
        if len(run) > 1:
            clipped.append(("loop_minus", np.array(run)))
    allz = np.concatenate([z for _, z in curves] + [zs.zeros])
    x0, x1 = np.min(allz.real), np.max(allz.real)
    y0, y1 = np.min(-allz.imag), np.max(-allz.imag)
    padx, pady = 0.06 * (x1 - x0) + 0.05, 0.06 * (y1 - y0) + 0.05
    # snap the viewBox so reruns can't wobble it
    vx = np.floor((x0 - padx) * 10) / 10
    vy = np.floor((y0 - pady) * 10) / 10
    vw = np.ceil((x1 + padx) * 10) / 10 - vx
    vh = np.ceil((y1 + pady) * 10) / 10 - vy
    width = 800
    height = int(round(width * vh / vw))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="{vx:.4f} {vy:.4f} {vw:.4f} {vh:.4f}">',
        f'<rect x="{vx:.4f}" y="{vy:.4f}" width="{vw:.4f}" height="{vh:.4f}" '
        f'fill="#ffffff"/>',
    ]
    for name, z in curves:
        parts.append(_svg_poly(z, _CURVE_STYLE[name]))
    for name, z in clipped:
        parts.append(_svg_poly(z, _CURVE_STYLE[name]))
    ib = intersection_ib(p)
    if ib is not None:
        parts.append(f'<circle cx="{ib.real:.4f}" cy="{-ib.imag:.4f}" r="0.02" '
                     f'fill="none" stroke="#000000" stroke-width="0.012"/>')
    parts.append(_svg_dots(zs.zeros, labels))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)

    results = _zeros_by_degree(p, cfg)
    os.makedirs(cfg.out, exist_ok=True)
    for n, (zs, labels) in results.items():
        _write(os.path.join(cfg.out, f"plot_n{n}.svg"), _svg_text(p, zs, labels))
        print(f"n={n}: wrote plot_n{n}.svg")
    return 0


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = _resolve(ns)
        if cfg.command == "zeros":
            return cmd_zeros(cfg)
        if cfg.command == "predict":
            return cmd_predict(cfg)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        if cfg.command == "plot":
            return cmd_plot(cfg)
        raise ParameterError(f"unknown command {cfg.command!r}")
    except (ParameterError, DomainError, CaseError, PoleError,
            SingularityError, BranchError) as e:
        print(f"parameter error: {e}", file=sys.stderr)
        return 2
    except (ConvergenceError, ResolutionError, DeficitError, MismatchError,
            OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except FaberError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
