"""Command-line front end: zeros / predict / verify / plot.

Outputs are byte-deterministic: floats go through one %.12e formatter, the
degrees are computed and written in ascending order, and nothing timestamps
itself.

The CSV and SVG writers format their numbers in bulk: one numpy call turns
every float of a file (of a whole command, for predict's curves and plot's
polylines and dots) into text that is byte for byte "%.12e" % x, or
"%.4f" % x for SVG coordinates. An entry the vectorised digits cannot settle
is formatted by Python's % on its own and spliced in: a non-finite value, a
nonzero %.12e value below 1e-32 or of 1e35 and more, a %.4f value of 1e9 and
more, a value that scaled to its last digit lands exactly on a half-integer
(a decimal tie, or next to one; within 2^-7 of one for a %.12e value below
1e-10), and a %.12e value whose decimal exponent the logarithm misjudges or
that rounds up to the next power of ten.
Exit codes: 0 ok, 1 verification gate failed, 2 bad parameters, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .conformal import AirfoilParams, params_from, psi
from .errors import (
    BranchError, CaseError, ConvergenceError, DeficitError, DomainError,
    FaberError, MismatchError, ParameterError, PoleError, ResolutionError,
    SingularityError,
)
from .limitsets import CaseTag, arc_A, classify, loop_points, segment_points
from .measures import classify_zeros, quad_tol, report
from .rootfind import Method, ZeroSet, compute_zeros
from .faber import scaled_residual

FIGURE_PRESETS = {1: (1.26, 0.0), 2: (2.1, 0.0), 3: (2.1, 0.2), 4: (1.45, 0.2)}

# the output formats each command can write
FORMATS = {"zeros": ("csv", "json"), "predict": ("csv", "json"),
           "verify": ("json",), "plot": ("svg",)}
# the keys a --config file may set
CONFIG_KEYS = ("R", "theta", "n", "out", "format", "tol_quad", "paper_figure")


CSV_UNIT = 5e-13    # relative rounding of %.12e, so of the zeros a CSV holds


def fnum(x) -> str:
    return "%.12e" % float(x)


# ---------------------------------------------------------------- numbers in bulk
#
# A number becomes one row of a uint8 array, NUL-padded to a fixed width; the
# writers lay these cells side by side with their fixed text and drop the NULs.
# Scaled by an exact power of ten (10^k, |k| <= 22), y = fl(|x| 10^k) is
# rounded once, and rounding is monotone. Every half-integer below 2^52 is a
# double, so y lies strictly between the same two half-integers as the exact
# product unless it is one itself: where frac(y) != 1/2, rint(y) is the
# correctly rounded last digit, the one Python's % writes. A %.12e value
# from 1e-32 to 1e-10 (residuals, say) needs 10^k with 22 < k <= 44, so is
# scaled twice; y is then at most 2^-8 off below 10^13, and taken only where
# frac(y) is more than 2^-7 from 1/2.


def _digit_words() -> np.ndarray:
    """Word i holds the 4 ASCII digits of i < 10^4. Built in place: a
    meshgrid's temporaries raised the peak memory of every process that
    imports the CLI by 0.13 MB."""
    table = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        table[..., place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - place))
    return table.view(np.uint32).ravel()


_POW10 = np.array([float(10 ** k) for k in range(23)])
# _QUADS[i]: the 4 ASCII digits of i < 10^4 as one 4-byte word; _PAIRS[i]: the
# last 2 digits of i < 100 as one 2-byte word
_QUADS = _digit_words()
_PAIRS = np.ascontiguousarray(_QUADS[:100, None].view(np.uint8)[:, 2:]).view(np.uint16).ravel()
# of 12 whole-part digits, digit i is padding where whole < 10^(11-i)
_WHOLE_PAD = np.array([10 ** k for k in range(11, 0, -1)])
_MINUS, _PLUS = ord("-"), ord("+")


def _quads(*groups: np.ndarray) -> np.ndarray:
    """(m, 4k) ASCII digits of the k arrays of m groups, each below 10^4."""
    return _QUADS[np.stack(groups, axis=1)].view(np.uint8)


def _fast_numbers(x: np.ndarray, spec: str) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the flat float array x under spec ("%.12e" or "%.4f"),
    and where they are exact; rows where they are not hold no promise."""
    a = np.abs(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if spec == "%.12e":
            zero = a == 0
            e = np.floor(np.log10(a))
            ok = ((e >= -32) & (e <= 34)) | zero    # false for nan and inf
            e[~ok | zero] = 0
            a[~ok] = 0.0
            e = e.astype(np.int64)
            k = 12 - e
            scale = _POW10[np.abs(np.minimum(k, 22))]
            y = a * scale
            np.divide(a, scale, out=y, where=k < 0)
            twice = k > 22
            y[twice] *= _POW10[k[twice] - 22]
            del a, scale
        else:
            y = a
            y *= 1e4
            ok = y < 1e13                             # false for nan and inf
            y[~ok] = 0.0
    m = np.rint(y)
    frac = y - np.floor(y)
    ok &= frac != 0.5                               # a tie, or next to one
    if spec == "%.12e":
        ok &= ~twice | (np.abs(frac - 0.5) > 2.0 ** -7)
        # y below 1e12: log10 came out one too high (an accurate log10 does
        # that only where the value rounds to 1e12 anyway)
        ok &= (y >= 1e12) | zero
    ok &= m < 1e13          # rounded up a decade (%.12e) or past 9 whole digits
    del y
    m = m.astype(np.int64)
    if spec == "%.12e":
        lead, rest = np.divmod(m, 10 ** 12)
        out = np.empty((len(x), 19), np.uint8)   # -d.dddddddddddde+dd
        out[:, 1] = ord("0") + lead
        out[:, 2] = ord(".")
        out[:, 3:15] = _quads(rest // 10 ** 8, rest // 10 ** 4 % 10 ** 4, rest % 10 ** 4)
        out[:, 15] = ord("e")
        out[:, 16] = np.where(e < 0, _MINUS, _PLUS)
        out[:, 17:] = _PAIRS[np.abs(e)][:, None].view(np.uint8)
    else:
        whole, frac = np.divmod(m, 10 ** 4)         # whole < 10^9
        digits = _quads(whole // 10 ** 8, whole // 10 ** 4 % 10 ** 4, whole % 10 ** 4, frac)
        # as many whole digits as the largest entry needs: NULs are slow to drop
        w = len(str(whole.max())) if len(x) else 1
        out = np.empty((len(x), w + 6), np.uint8)   # -d.dddd, w whole digits
        out[:, 1:w + 1] = digits[:, 12 - w:12]
        out[:, w + 1] = ord(".")
        out[:, w + 2:] = digits[:, 12:]
        # every leading zero of the whole part but its units digit is padding
        np.copyto(out[:, 1:w], 0, where=whole[:, None] < _WHOLE_PAD[12 - w:])
    out[:, 0] = np.where(np.signbit(x), _MINUS, 0)
    return out, ok


def _numbers(x, spec: str) -> np.ndarray:
    """x as text cells: shape x.shape + (width,), uint8, NUL-padded, each byte
    for byte spec % x. Entries the fast digits cannot settle go through %."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out, ok = _fast_numbers(flat, spec)
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = np.array([(spec % v).encode() for v in flat[bad].tolist()])
        if text.itemsize > out.shape[1]:
            out = np.pad(out, ((0, 0), (0, text.itemsize - out.shape[1])))
        out[bad] = text.astype(f"S{out.shape[1]}").view(np.uint8).reshape(bad.size, -1)
    return out.reshape(x.shape + out.shape[1:])


def _join(*cols) -> str:
    """Lay the columns side by side, row by row, and drop the NUL padding.
    A column is bytes (the same in every row), an array of bytes (one per row)
    or an (m, w) uint8 array of cells."""
    cells = []
    for col in cols:
        if isinstance(col, bytes):
            col = np.frombuffer(col, np.uint8)[None, :]
        elif col.dtype.kind == "S":
            col = np.ascontiguousarray(col).view(np.uint8).reshape(len(col), col.itemsize)
        cells.append(col)
    rows = next(len(col) for col in cols if not isinstance(col, bytes))
    width = sum(c.shape[1] for c in cells)
    text = bytearray(rows * width)      # filled in place: no copy out of numpy
    out = np.frombuffer(text, np.uint8).reshape(rows, width)
    at = 0
    for c in cells:
        out[:, at:at + c.shape[1]] = c
        at += c.shape[1]
    return text.replace(b"\0", b"").decode("ascii")


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
    tol_quad: float | None = None
    zeros_in: str | None = None

    def validate(self):
        if self.command in ("zeros", "verify", "plot"):
            if not self.n_list:
                raise ParameterError("--n is required (comma-separated degrees)")
            for n in self.n_list:
                if not 1 <= n <= 500:
                    raise ParameterError(f"n must be in [1, 500], got {n}")
        if self.tol_quad is not None and not 0.0 < self.tol_quad < np.inf:
            raise ParameterError(f"--tol-quad must be finite and > 0, got {self.tol_quad}")
        known = FORMATS[self.command]
        for fmt in self.formats:
            if fmt not in known:
                raise ParameterError(f"{self.command} cannot write format {fmt!r}"
                                     f" (choose from {','.join(known)})")


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
                k = k.strip().replace("-", "_")
                if k not in CONFIG_KEYS:
                    raise ParameterError(f"unknown config key {k!r} in {path}")
                vals[k] = v.strip().strip('"')
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
    common.add_argument("--tol-quad", type=float, default=None,
                        help="quadrature residual gate (default "
                             "2^6 max(n, 16) eps, eps = 2^-52, or 5e-13 "
                             "for --zeros-in)")
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
        if fig not in FIGURE_PRESETS:
            raise ParameterError(f"no paper figure {fig} (choose from "
                                 f"{','.join(map(str, FIGURE_PRESETS))})")
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
        tol_quad=pick(ns.tol_quad, "tol_quad", float, None),
        zeros_in=ns.zeros_in,
    )
    cfg.validate()
    return cfg


def _zeros_by_degree(p: AirfoilParams, cfg: RunConfig) -> dict:
    """{n: (ZeroSet, class labels)} in ascending n, all computed before any
    file is written."""
    out = {}
    for n in sorted(set(cfg.n_list)):
        zs = compute_zeros(p, n)
        out[n] = zs, classify_zeros(p, zs)
    return out


# ---------------------------------------------------------------- zeros

def _zeros_csv(n: int, zs: ZeroSet, labels: list[str]) -> str:
    num = _numbers(np.column_stack([zs.zeros.real, zs.zeros.imag, zs.residuals]), "%.12e")
    return "n,index,re,im,residual,class\n" + _join(
        b"%d," % n, np.arange(len(labels)).astype("S"), b",", num[:, 0], b",",
        num[:, 1], b",", num[:, 2], b",", np.array(labels, dtype="S"), b"\n")


def _zeros_json(n: int, zs: ZeroSet, labels: list[str]) -> str:
    return _json_text({
        "n": n,
        "method": zs.method.value,
        "zeros": [
            {"re": z.real, "im": z.imag, "residual": float(r), "class": lab}
            for z, r, lab in zip(zs.zeros, zs.residuals, labels)
        ],
    }) + "\n"


def _make_out(path: str) -> None:
    """Make the output directory path; ParameterError when it cannot be
    one (an existing file, or a path through one)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ParameterError(f"--out {path} cannot be a directory: {e.strerror}") from None


def cmd_zeros(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("csv",)

    results = _zeros_by_degree(p, cfg)
    _make_out(cfg.out)
    for n, (zs, labels) in results.items():
        if "csv" in formats:
            _write(os.path.join(cfg.out, f"zeros_n{n}.csv"), _zeros_csv(n, zs, labels))
        if "json" in formats:
            _write(os.path.join(cfg.out, f"zeros_n{n}.json"), _zeros_json(n, zs, labels))
        print(f"n={n}: {zs.n} zeros, max scaled residual {np.max(zs.residuals):.3e}")
    return 0


# ---------------------------------------------------------------- predict

def _curve_rows(components, param: np.ndarray, z: np.ndarray) -> str:
    """One CSV row per sample, each ending in a newline; components holds
    each sample's curve name."""
    z = np.asarray(z, dtype=complex)
    num = _numbers(np.column_stack([np.asarray(param, dtype=float), z.real, z.imag]),
                   "%.12e")
    return _join(np.asarray(components, dtype="S"), b",", num[:, 0], b",", num[:, 1], b",",
                 num[:, 2], b"\n")


def _curves(p: AirfoilParams) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(name, param, z) of every predicted curve, in the order predict writes
    and plot draws them."""
    t = np.linspace(0.0, 2 * np.pi, 512)
    arc = arc_A(p, 257)
    q = np.sqrt(arc.rho)
    seg = segment_points(p, 257)
    curves = [
        ("boundary", t, psi(p, np.exp(1j * t))),
        # signed sqrt(rho): both branches as one polyline
        ("arc", np.concatenate([-q[::-1], q[1:]]),
         np.concatenate([arc.z_minus[::-1], arc.z_plus[1:]])),
        ("circle_cb", t, p.c + (abs(p.b) / 2) * np.exp(1j * t)),
    ]
    if arc.has_circle_component:
        curves.append(("circle_cb_tilde", t, p.c + abs(p.c - p.b) * np.exp(1j * t)))
    curves.append(("segment", seg.us, seg.samples))
    if classify(p).tag is CaseTag.SUPERCRITICAL:
        for which, name in (("plus", "loop"), ("minus", "loop_minus")):
            lp = loop_points(p, 257, which=which)
            curves.append((name, np.linspace(0.0, lp.span, 257), lp.samples))
    return curves


def cmd_predict(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("csv", "json")
    case = classify(p)
    mass_seg, mass_loop = case.masses
    curves = _curves(p)
    ib = case.i_b
    if ib is not None:
        curves.append(("corner_ib", np.zeros(1), np.array([ib], dtype=complex)))
    # every curve's rows in one formatting call
    names, params, zs = zip(*curves)
    rows = _curve_rows(np.repeat(np.array(names, dtype="S"), [len(z) for z in zs]),
                       np.concatenate(params), np.concatenate(zs))
    doc = {
        "case": case.tag.value,
        "rcos": p.rcos,
        "capacity": p.capacity,
        "masses": {"segment": mass_seg, "loop": mass_loop},
        "u_lo": case.u_lo,
        "i_b": None if ib is None else {"re": ib.real, "im": ib.imag},
        "c_plus": None if case.c_plus is None else
            {"re": case.c_plus.real, "im": case.c_plus.imag},
        "c_minus": None if case.c_minus is None else
            {"re": case.c_minus.real, "im": case.c_minus.imag},
        "span": case.span,
    }
    _make_out(cfg.out)
    if "csv" in formats:
        _write(os.path.join(cfg.out, "curves.csv"), "component,param,re,im\n" + rows)
    if "json" in formats:
        _write(os.path.join(cfg.out, "predicted.json"), _json_text(doc) + "\n")
    print(f"case={case.tag.value} masses: segment {mass_seg:.6f} "
          f"loop {mass_loop:.6f}")
    return 0


# ---------------------------------------------------------------- verify

def _read_zeros_csv(path: str, p: AirfoilParams) -> ZeroSet:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        header = lines[0].split(",")
        icol = {name: i for i, name in enumerate(header)}
        zs, ns = [], set()
        for ln in lines[1:]:
            parts = ln.split(",")
            ns.add(int(parts[icol["n"]]))
            zs.append(complex(float(parts[icol["re"]]), float(parts[icol["im"]])))
    except (OSError, ValueError, KeyError, IndexError) as e:
        raise ParameterError(f"cannot parse zeros CSV {path}: {e}")
    if len(ns) > 1:
        raise ParameterError(f"zeros CSV {path} mixes degrees {sorted(ns)}")
    nval = ns.pop() if ns else None
    if nval is None or len(zs) != nval:
        raise ParameterError(
            f"zeros CSV {path} holds {len(zs)} rows but claims n={nval}")
    z = np.array(zs, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ParameterError(f"zeros CSV {path} holds a non-finite zero")
    order = np.lexsort((z.imag, z.real))
    z = z[order]
    res = np.atleast_1d(scaled_residual(p, nval, z))
    return ZeroSet(nval, z, res, Method.SEEDED)


def cmd_verify(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)
    formats = cfg.formats or ("json",)

    if cfg.zeros_in is not None:
        if len(cfg.n_list) > 1:
            raise ParameterError("--zeros-in works with a single n")
        pre = _read_zeros_csv(cfg.zeros_in, p)
        if cfg.n_list[0] != pre.n:
            raise ParameterError(
                f"--n {cfg.n_list[0]} disagrees with file n={pre.n}")
        zsets = {pre.n: pre}
    else:
        zsets = {n: compute_zeros(p, n) for n in sorted(set(cfg.n_list))}
    _make_out(cfg.out)

    runs = []
    for n in sorted(zsets):
        tol = cfg.tol_quad
        if tol is None and cfg.zeros_in is not None:
            tol = quad_tol(n, CSV_UNIT)
        run = report(p, zsets[n], tol_quad=tol)
        runs.append(run)
        for gname, gval in run["gates"].items():
            print(f"[n={n}] {gname}: {'PASS' if gval else 'FAIL'}")
        print(f"[n={n}] quad_max_residual={run['quad_max_residual']:.3e} "
              f"tol={run['quad_tol']:.1e} cdf_dist={run['cdf_dist']:.4f} "
              f"moment_dist={run['moment_dist']:.3e} "
              f"potential={run['potential_max_dev']:.3e} counts={run['counts']}")
    all_pass = all(run["pass"] for run in runs)
    doc = {"R": cfg.R, "theta": cfg.theta, "runs": runs, "pass": all_pass}
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


def _svg_xy(z: np.ndarray) -> np.ndarray:
    """(len(z), 2, w) text cells of x, y = Re z, -Im z (SVG's y points down)."""
    z = np.asarray(z, dtype=complex)
    return _numbers(np.column_stack([z.real, -z.imag]), "%.4f")


def _svg_poly(xy: np.ndarray, color: str) -> str:
    """A polyline through the points whose cells _svg_xy made."""
    pts = _join(xy[:, 0], b",", xy[:, 1], b" ")[:-1]
    return (f'<polyline fill="none" stroke="{color}" stroke-width="0.012" '
            f'points="{pts}"/>')


def _svg_dots(xy: np.ndarray, labels: list[str]) -> str:
    """One filled circle per zero (cells from _svg_xy), coloured by its class,
    one per line."""
    colors = np.array([_DOT_STYLE[lab] for lab in labels], dtype="S")
    return _join(b'<circle cx="', xy[:, 0], b'" cy="', xy[:, 1], b'" r="0.012" fill="',
                 colors, b'"/>\n')[:-1]


def _runs_within(z: np.ndarray, bound: float) -> list[np.ndarray]:
    """The runs of two or more consecutive points of z with |z| <= bound."""
    keep = np.abs(z) <= bound
    cuts = np.flatnonzero(keep[1:] != keep[:-1]) + 1
    return [run for run, k in zip(np.split(z, cuts), np.split(keep, cuts))
            if k[0] and len(run) > 1]


def _svg_text(framed: np.ndarray, lines: list[str], dots: str) -> str:
    """The SVG document: its viewBox holds the points framed; lines are the
    drawn curves and marks, dots the zeros."""
    x0, x1 = np.min(framed.real), np.max(framed.real)
    y0, y1 = np.min(-framed.imag), np.max(-framed.imag)
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
    return "\n".join(parts + lines + [dots, "</svg>"]) + "\n"


def cmd_plot(cfg: RunConfig) -> int:
    p = params_from(cfg.R, cfg.theta)

    results = _zeros_by_degree(p, cfg)
    # the curves, the minus loop's runs and i_b do not depend on n
    curves = []
    clipped = []   # drawn but excluded from the frame: the minus loop runs
    for name, _, z in _curves(p):
        if name == "loop_minus":
            # the complement arc maps through w = 1 where the image is
            # unbounded; keep only the pieces near the figure
            clipped += [(name, run) for run in _runs_within(z, 4.0)]
        else:
            curves.append((name, z))
    drawn = curves + clipped
    # every polyline's and every degree's dots' coordinates in one formatting call
    pieces = [z for _, z in drawn] + [zs.zeros for zs, _ in results.values()]
    xy = np.split(_svg_xy(np.concatenate(pieces)), np.cumsum([len(z) for z in pieces])[:-1])
    lines = [_svg_poly(c, _CURVE_STYLE[name]) for (name, _), c in zip(drawn, xy)]
    ib = classify(p).i_b
    if ib is not None:
        lines.append(f'<circle cx="{ib.real:.4f}" cy="{-ib.imag:.4f}" r="0.02" '
                     f'fill="none" stroke="#000000" stroke-width="0.012"/>')
    framed = np.concatenate([z for _, z in curves])
    _make_out(cfg.out)
    for (n, (zs, labels)), dots in zip(results.items(), xy[len(drawn):]):
        svg = _svg_text(np.concatenate([framed, zs.zeros]), lines, _svg_dots(dots, labels))
        _write(os.path.join(cfg.out, f"plot_n{n}.svg"), svg)
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
