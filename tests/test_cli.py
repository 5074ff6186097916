"""Command-line interface: file contracts, config precedence, exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

from faberzeros import cli, limitsets
from faberzeros.cli import (
    FIGURE_PRESETS, _DOT_STYLE, _curve_rows, _curves, _fast_numbers, _join,
    _json_text, _numbers, _read_zeros_csv, _svg_dots, _svg_poly, _svg_xy, _zeros_csv,
    fnum, main,
)
from faberzeros.conformal import params_from
from faberzeros.measures import report
from faberzeros.rootfind import Method, ZeroSet, compute_zeros

FLOAT_RE = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def run(args):
    return main(args)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------- zeros

def test_zeros_csv_contract(tmp_path):
    out = tmp_path / "z"
    assert run(["zeros", "--R", "2.1", "--theta", "0.0", "--n", "30",
                "--out", str(out)]) == 0
    header, rows = read_rows(out / "zeros_n30.csv")
    assert header == ["n", "index", "re", "im", "residual", "class"]
    assert len(rows) == 30
    for i, row in enumerate(rows):
        assert row[0] == "30"
        assert int(row[1]) == i
        for cell in row[2:5]:
            assert FLOAT_RE.match(cell), cell
        assert row[5] in ("segment", "loop", "other")
        assert float(row[4]) < 1e-7


def test_zeros_json_format(tmp_path):
    out = tmp_path / "zj"
    assert run(["zeros", "--R", "1.26", "--n", "8", "--out", str(out),
                "--format", "csv,json"]) == 0
    doc = json.loads((out / "zeros_n8.json").read_text())
    assert doc["n"] == 8
    assert doc["method"] in ("simultaneous", "seeded")
    assert len(doc["zeros"]) == 8
    assert (out / "zeros_n8.csv").exists()


def test_zeros_multiple_degrees(tmp_path):
    out = tmp_path / "zm"
    assert run(["zeros", "--R", "1.26", "--n", "5,9", "--out", str(out)]) == 0
    assert (out / "zeros_n5.csv").exists()
    assert (out / "zeros_n9.csv").exists()


# ---------------------------------------------------------------- predict

def test_predict_outputs(tmp_path):
    out = tmp_path / "p"
    assert run(["predict", "--R", "2.1", "--theta", "0.0", "--out", str(out)]) == 0
    doc = json.loads((out / "predicted.json").read_text())
    assert doc["case"] == "supercritical"
    assert doc["masses"]["segment"] == pytest.approx(0.3003965754379143, abs=1e-11)
    assert doc["masses"]["loop"] == pytest.approx(0.6996034245620857, abs=1e-11)
    assert doc["capacity"] == pytest.approx(1.05)
    assert doc["i_b"]["re"] == pytest.approx(-0.45454545454545453, abs=1e-11)
    header, rows = read_rows(out / "curves.csv")
    assert header == ["component", "param", "re", "im"]
    comps = {r[0] for r in rows}
    assert {"boundary", "arc", "circle_cb", "segment", "loop",
            "loop_minus", "corner_ib"} <= comps


def test_predict_subcritical_has_no_loop(tmp_path):
    out = tmp_path / "ps"
    assert run(["predict", "--R", "1.26", "--out", str(out)]) == 0
    doc = json.loads((out / "predicted.json").read_text())
    assert doc["case"] == "subcritical"
    assert doc["masses"]["segment"] == 1.0
    _, rows = read_rows(out / "curves.csv")
    assert not any(r[0] == "loop" for r in rows)


# ---------------------------------------------------------------- verify

def test_verify_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "v"
    code = run(["verify", "--R", "1.26", "--theta", "0.0", "--n", "20",
                "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "VERIFY PASS" in text
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["pass"] is True
    gates = doc["runs"][0]["gates"]
    assert all(gates.values())
    assert doc["runs"][0]["quad_max_residual"] < 1e-6


def test_verify_tol_override_can_fail(tmp_path, capsys):
    out = tmp_path / "vf"
    code = run(["verify", "--R", "1.26", "--n", "20", "--out", str(out),
                "--tol-quad", "1e-20"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_zeros_in_roundtrip(tmp_path, capsys):
    zdir = tmp_path / "zz"
    run(["zeros", "--R", "2.1", "--theta", "0.0", "--n", "40", "--out", str(zdir)])
    code = run(["verify", "--R", "2.1", "--theta", "0.0", "--n", "40",
                "--zeros-in", str(zdir / "zeros_n40.csv"), "--out",
                str(tmp_path / "vz")])
    capsys.readouterr()
    assert code == 0
    # the default gate is scaled to the file's 13 significant digits, and
    # still fails a file whose zero 20 is a copy of zero 21
    assert _report_runs(tmp_path / "vz" / "verify_report.json")[0]["quad_tol"] \
        == float("%.12e" % (2.0 ** 6 * 40 * 5e-13))
    lines = (zdir / "zeros_n40.csv").read_text().splitlines()
    lines[21] = "40,20," + lines[22].split(",", 2)[2]
    (zdir / "dup.csv").write_text("\n".join(lines) + "\n")
    code = run(["verify", "--R", "2.1", "--theta", "0.0", "--n", "40",
                "--zeros-in", str(zdir / "dup.csv"), "--out", str(tmp_path / "vd")])
    capsys.readouterr()
    assert code == 1
    assert _report_runs(tmp_path / "vd" / "verify_report.json")[0]["gates"][
        "quadrature"] is False


@pytest.mark.parametrize("edit", ["nan_re", "inf_im", "mixed_n"])
def test_verify_zeros_in_rejects_bad_rows(edit, tmp_path, capsys):
    # a NaN zero once passed through to the gates (figure 1, no loop, read
    # as counts {'segment': 3, 'loop': 1}), and the last row's n was taken
    zdir = tmp_path / "zz"
    run(["zeros", "--paper-figure", "1", "--n", "4", "--out", str(zdir)])
    lines = (zdir / "zeros_n4.csv").read_text().splitlines()
    row = lines[2].split(",")
    if edit == "nan_re":
        row[2] = "nan"
    elif edit == "inf_im":
        row[3] = "-inf"
    else:
        row[0] = "3"
    lines[2] = ",".join(row)
    (zdir / "bad.csv").write_text("\n".join(lines) + "\n")
    code = run(["verify", "--paper-figure", "1", "--n", "4", "--zeros-in",
                str(zdir / "bad.csv"), "--out", str(tmp_path / "v")])
    assert code == 2
    assert "parameter error" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def _report_runs(path):
    return json.loads(path.read_text())["runs"]


def _as_written(rep):
    """report()'s dict as a run of verify_report.json reads back."""
    return json.loads(_json_text(rep))


def test_verify_writes_report_dicts(tmp_path, capsys):
    # supercritical, two degrees on either side of the n = 60 tolerance step
    p = params_from(*FIGURE_PRESETS[2])
    out = tmp_path / "v2"
    code = run(["verify", "--paper-figure", "2", "--n", "90,30", "--out", str(out)])
    capsys.readouterr()
    runs = _report_runs(out / "verify_report.json")
    assert [r["n"] for r in runs] == [30, 90]
    assert runs == [_as_written(report(p, compute_zeros(p, n))) for n in (30, 90)]
    assert code == (0 if all(r["pass"] for r in runs) else 1)
    assert "mass_split" in runs[0]["gates"]


def test_verify_zeros_in_writes_report_dict(tmp_path, capsys):
    p = params_from(2.1, 0.2)
    run(["zeros", "--R", "2.1", "--theta", "0.2", "--n", "45", "--out", str(tmp_path)])
    csv = tmp_path / "zeros_n45.csv"
    out = tmp_path / "v"
    run(["verify", "--R", "2.1", "--theta", "0.2", "--n", "45", "--zeros-in", str(csv),
         "--out", str(out)])
    capsys.readouterr()
    # the file holds 13 significant digits, and the default gate scales to
    # their rounding, 5e-13, in place of eps
    assert _report_runs(out / "verify_report.json") == [
        _as_written(report(p, _read_zeros_csv(str(csv), p),
                           tol_quad=2.0 ** 6 * 45 * 5e-13))]


def test_verify_quad_tol_follows_each_degree(tmp_path, capsys):
    # the default tolerance is chosen per degree, not from the largest one
    tols = {}
    for degrees in ("40", "40,100"):
        out = tmp_path / degrees.replace(",", "_")
        run(["verify", "--paper-figure", "1", "--n", degrees, "--out", str(out)])
        tols[degrees] = {r["n"]: r["quad_tol"] for r in _report_runs(
            out / "verify_report.json")}
    capsys.readouterr()
    tol = {n: float("%.12e" % (2.0 ** 6 * n * 2.0 ** -52)) for n in (40, 100)}
    assert tols == {"40": {40: tol[40]}, "40,100": tol}


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON")


@pytest.mark.parametrize("R,theta,n", [(7.6485, 1.4, 400), (3.0, 0.5, 500)])
def test_verify_far_out_passes_quietly_with_valid_json(R, theta, n, tmp_path, capsys):
    # z_j^k passes double range at both (the monomial residual read ~1e107
    # and ~1e127); the Faber-basis gate passes, like every other gate,
    # without any RuntimeWarning, and the report is strict JSON
    out = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["verify", "--R", str(R), "--theta", str(theta), "--n", str(n),
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out / "verify_report.json").read_text(),
                     parse_constant=_reject_constant)
    assert doc["pass"] is True
    assert all(doc["runs"][0]["gates"].values())


def test_json_text_writes_non_finite_as_null():
    text = _json_text({"a": float("inf"), "b": np.float64("nan"), "c": 1.5})
    assert json.loads(text, parse_constant=_reject_constant) == {
        "a": None, "b": None, "c": 1.5}


# ---------------------------------------------------------------- plot

def test_plot_svg_sane(tmp_path):
    out = tmp_path / "svg"
    assert run(["plot", "--R", "2.1", "--theta", "0.0", "--n", "40",
                "--out", str(out)]) == 0
    svg = (out / "plot_n40.svg").read_text()
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    # regression: the unbounded complement-loop arm must not blow up the frame
    m = re.search(r'viewBox="([-\d. ]+)"', svg)
    assert m, "viewBox missing"
    vals = [float(v) for v in m.group(1).split()]
    assert all(abs(v) < 100 for v in vals), vals
    assert svg.count("<circle") >= 40


def test_plot_frames_a_loop_shorter_than_half_the_circle(tmp_path):
    # the loop arc where |g| < 1 is 0.28 of the circle here; its complement
    # runs through the pole of J(b(1-w)) and would stretch the frame
    out = tmp_path / "svg"
    assert run(["plot", "--R", "1.674757", "--theta", "0.3", "--n", "100",
                "--out", str(out)]) == 0
    svg = (out / "plot_n100.svg").read_text()
    x, y, w, h = [float(v) for v in
                  re.search(r'viewBox="([-\d. ]+)"', svg).group(1).split()]
    assert -4 <= x and -4 <= y and x + w <= 4 and y + h <= 4, (x, y, w, h)


def test_verify_passes_where_the_loop_is_short(tmp_path, capsys):
    assert run(["verify", "--R", "1.674757", "--theta", "0.3", "--n", "300",
                "--out", str(tmp_path / "v")]) == 0
    assert "VERIFY PASS" in capsys.readouterr().out


def test_plot_several_degrees_match_single_degree_runs(tmp_path):
    # the curves, minus-loop runs and i_b are built once per command and
    # shared by every degree
    assert run(["plot", "--paper-figure", "3", "--n", "100,200,300",
                "--out", str(tmp_path / "all")]) == 0
    for n in (100, 200, 300):
        assert run(["plot", "--paper-figure", "3", "--n", str(n),
                    "--out", str(tmp_path / f"n{n}")]) == 0
        name = f"plot_n{n}.svg"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / f"n{n}" / name).read_bytes()


def test_plot_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["plot", "--paper-figure", "3", "--n", "25", "--out", str(a)])
    run(["plot", "--paper-figure", "3", "--n", "25", "--out", str(b)])
    assert (a / "plot_n25.svg").read_bytes() == (b / "plot_n25.svg").read_bytes()


# ---------------------------------------------------------------- config

def test_paper_figure_presets(tmp_path):
    out = tmp_path / "fig"
    assert run(["predict", "--paper-figure", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "predicted.json").read_text())
    assert doc["rcos"] == pytest.approx(2.1)
    out2 = tmp_path / "fig3"
    assert run(["predict", "--paper-figure", "3", "--out", str(out2)]) == 0
    doc = json.loads((out2 / "predicted.json").read_text())
    assert doc["case"] == "supercritical"
    assert doc["masses"]["segment"] == pytest.approx(0.38807134452611586, abs=1e-9)


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("R = 1.26\ntheta = 0.0\nn = 6\n# comment line\nout = %s\n"
                   % (tmp_path / "cfgout"))
    assert run(["zeros", "--config", str(cfg)]) == 0
    assert (tmp_path / "cfgout" / "zeros_n6.csv").exists()
    # CLI flag beats the file
    assert run(["zeros", "--config", str(cfg), "--n", "7",
                "--out", str(tmp_path / "cli")]) == 0
    assert (tmp_path / "cli" / "zeros_n7.csv").exists()
    assert not (tmp_path / "cli" / "zeros_n6.csv").exists()


# ---------------------------------------------------------------- failures

@pytest.mark.parametrize("args", [
    ["zeros", "--R", "0.5", "--n", "5"],
    ["zeros", "--R", "1.26", "--n", "0"],
    ["zeros", "--R", "1.26", "--n", "501"],
    ["zeros", "--R", "1.26"],                      # no degrees given
    ["zeros", "--n", "5"],                         # no R and no preset
    ["zeros", "--R", "2.0", "--theta", "1.6", "--n", "5"],
    ["verify", "--R", "1.26", "--n", "5", "--zeros-in", "/nonexistent.csv"],
    ["zeros", "--config", "thetaa = 0.2\nR = 2.1\nn = 5"],   # misspelt key
    ["zeros", "--config", "R = 2.1\nn = 5\nseed_method = seeded"],
    ["zeros", "--R", "1.26", "--n", "5", "--format", "xml"],
    ["zeros", "--R", "1.26", "--n", "5", "--format", "csv,svg"],
    ["predict", "--R", "1.26", "--format", "svg"],
    ["verify", "--R", "1.26", "--n", "5", "--format", "csv"],
    ["plot", "--R", "1.26", "--n", "5", "--format", "csv"],
    ["zeros", "--config", "R = 1.26\nn = 5\nformat = xml"],
    ["predict", "--config", "paper_figure = 5"],
    ["verify", "--R", "1.26", "--n", "5", "--tol-quad", "nan"],
    ["verify", "--R", "1.26", "--n", "5", "--tol-quad", "0"],
    ["verify", "--R", "1.26", "--n", "5", "--tol-quad", "-1"],
    ["verify", "--R", "1.26", "--n", "5", "--tol-quad", "inf"],
    ["verify", "--config", "R = 1.26\nn = 5\ntol_quad = nan"],
    ["verify", "--config", "R = 1.26\nn = 5\ntol_quad = inf"],
])
def test_parameter_failures_exit_2(args, tmp_path, capsys):
    if args[1] == "--config":     # args[2] is the file's text
        cfg = tmp_path / "run.cfg"
        cfg.write_text(args[2] + "\n")
        args = [args[0], "--config", str(cfg)]
    code = run(args + ["--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("command", ["zeros", "predict", "verify", "plot"])
def test_out_that_cannot_be_a_directory_exits_2(command, nested, tmp_path, capsys):
    # an --out naming a file, or a path through one, escaped as an OSError
    # traceback with exit 1; verify printed every gate as PASS before it
    blocker = tmp_path / "F"
    blocker.write_text("a file\n")
    out = blocker / "x" if nested else blocker
    degrees = [] if command == "predict" else ["--n", "5"]
    assert run([command, "--R", "1.26", *degrees, "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert "parameter error" in cap.err
    assert "PASS" not in cap.out and "FAIL" not in cap.out
    assert blocker.read_text() == "a file\n"


# ---------------------------------------------------------------- parser reuse

# valid, invalid, valid: options given early (--theta, --tol-quad, --format)
# are absent later, so a value carried over by the cached parser would change
# the later exit codes, output or files
PARSER_SEQUENCE = [
    ["verify", "--R", "2.1", "--theta", "0.2", "--n", "40", "--tol-quad",
     "1e-30", "--format", "json", "--out", "o1"],
    ["zeros", "--R", "1.26", "--n", "5", "--no-such-flag", "--out", "o2"],
    ["zeros", "--R", "0.5", "--n", "5", "--out", "o3"],
    ["verify", "--R", "1.26", "--n", "20", "--out", "o4"],
    ["zeros", "--paper-figure", "2", "--n", "30", "--out", "o5"],
]


def _run_captured(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:       # argparse rejects the argv
        code = e.code
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def test_cached_parser_matches_fresh_parsers(tmp_path, monkeypatch, capsys):
    (tmp_path / "cached").mkdir()
    (tmp_path / "fresh").mkdir()
    monkeypatch.chdir(tmp_path / "cached")
    cli._build_parser.cache_clear()
    cached = [_run_captured(argv, capsys) for argv in PARSER_SEQUENCE]
    assert cli._build_parser.cache_info().misses == 1
    monkeypatch.chdir(tmp_path / "fresh")
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli._build_parser.cache_clear()
        fresh.append(_run_captured(argv, capsys))
    assert [c for c, _, _ in cached] == [1, 2, 2, 0, 0]
    assert cached == fresh
    files = _tree_bytes(tmp_path / "cached")
    assert set(files) == {"o1/verify_report.json", "o4/verify_report.json",
                          "o5/zeros_n30.csv"}
    assert files == _tree_bytes(tmp_path / "fresh")


# ---------------------------------------------------------------- case record

@pytest.mark.parametrize("argv", [
    ["verify", "--paper-figure", "3", "--n", "40,150,500"],
    ["plot", "--paper-figure", "2", "--n", "40,150"],
    ["predict", "--paper-figure", "3"],
    ["zeros", "--paper-figure", "3", "--n", "40"],
])
def test_each_command_builds_the_case_record_once(argv, tmp_path, monkeypatch, capsys):
    built = []
    build = limitsets._build_case
    monkeypatch.setattr(limitsets, "_build_case", lambda p: built.append(p) or build(p))
    assert run(argv + ["--out", str(tmp_path)]) in (0, 1)
    capsys.readouterr()
    assert len(built) == 1


# ---------------------------------------------------------------- reruns

def test_rerun_into_same_out_is_byte_identical(tmp_path):
    # several degrees, both sides of the old n = 60 route split, rerun into
    # the same --out: the rewrite must reproduce every byte
    out = tmp_path / "rr"
    degrees = (5, 20, 35, 61, 120)
    argv = ["zeros", "--R", "2.1", "--theta", "0.2",
            "--n", ",".join(map(str, degrees)), "--out", str(out)]
    assert run(argv) == 0
    first = [(out / f"zeros_n{n}.csv").read_bytes() for n in degrees]
    assert run(argv) == 0
    assert [(out / f"zeros_n{n}.csv").read_bytes() for n in degrees] == first


def test_predict_rerun_same_out_rewrites_identical_bytes(tmp_path):
    out = tmp_path / "pp"
    argv = ["predict", "--paper-figure", "3", "--out", str(out)]
    assert run(argv) == 0
    first = {f: (out / f).read_bytes() for f in ("curves.csv", "predicted.json")}
    assert run(argv) == 0
    assert {f: (out / f).read_bytes() for f in first} == first


# ---------------------------------------------------------------- formatting

# signed zeros, extremes, nan, and values that round up or down at the 4th
# decimal (SVG) and at the 12th decimal of the mantissa (CSV)
_EDGE = np.array([
    -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, np.nan, np.inf, -np.inf,
    0.00005, -0.00005, 0.00004999, -0.00004999, 0.99995, -0.99995, 1.23445,
    2.00015, 1.0000000000005, 9.9999999999995, -9.9999999999995,
    1.2345678901235e-7, 0.1 + 0.2, 1 / 3, -2 / 3,
])


def _edge_points():
    """Every pairing of the edge values as (Re, Im)."""
    re, im = np.meshgrid(_EDGE, _EDGE[::-1])
    z = np.empty(re.size, dtype=complex)
    z.real = re.ravel()
    z.imag = im.ravel()
    return z


def test_batched_csv_rows_match_per_number_formatting():
    z = _edge_points()
    param = np.resize(_EDGE, len(z))
    want = "".join(f"curve,{fnum(t)},{fnum(v.real)},{fnum(v.imag)}\n"
                   for t, v in zip(param, z))
    assert _curve_rows(["curve"] * len(z), param, z) == want
    assert _curve_rows([], np.zeros(0), np.zeros(0, complex)) == ""
    res = np.abs(np.resize(_EDGE, len(z)))
    labels = [("segment", "loop", "other")[i % 3] for i in range(len(z))]
    zs = ZeroSet(len(z), z, res, Method.SEEDED)
    lines = ["n,index,re,im,residual,class"]
    for i, (v, r, lab) in enumerate(zip(z, res, labels)):
        lines.append(f"{len(z)},{i},{fnum(v.real)},{fnum(v.imag)},{fnum(r)},{lab}")
    assert _zeros_csv(len(z), zs, labels) == "\n".join(lines) + "\n"


def test_batched_svg_matches_per_number_formatting():
    z = _edge_points()
    pts = " ".join(f"{v.real:.4f},{-v.imag:.4f}" for v in z)
    assert _svg_poly(_svg_xy(z), "#123456") == (
        f'<polyline fill="none" stroke="#123456" stroke-width="0.012" '
        f'points="{pts}"/>')
    labels = [("segment", "loop", "other")[i % 3] for i in range(len(z))]
    dots = [f'<circle cx="{v.real:.4f}" cy="{-v.imag:.4f}" r="0.012" '
            f'fill="{_DOT_STYLE[lab]}"/>' for v, lab in zip(z, labels)]
    assert _svg_dots(_svg_xy(z), labels) == "\n".join(dots)


def _texts(x, spec):
    """Each entry of x through the bulk formatter, as a list of str."""
    return _join(_numbers(x, spec), b"\n").split("\n")[:-1]


def _assert_like_percent(x, spec):
    x = np.asarray(x, dtype=float)
    for start in range(0, len(x), 10_000):   # long %.4f fallbacks: keep buffers small
        chunk = x[start:start + 10_000]
        want = [spec % v for v in chunk.tolist()]
        got = _texts(chunk, spec)
        bad = [(v, g, w) for v, g, w in zip(chunk.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, (spec, bad[:5])


def _dyadic_ties():
    """Doubles m 2^-j whose exact decimal expansion m 5^j / 10^j ends in a 5
    at the 14th significant digit, or at the 5th decimal: exact ties for
    %.12e and for %.4f."""
    ties_e = [m * 2.0 ** -j for j in range(15, 45) for m in range(1, 400, 2)
              if len(str(m * 5 ** j)) == 14]
    ties_f = [m / 32 for m in range(1, 640, 2)] + [12345 + 1 / 32, -(7 + 3 / 32)]
    return ties_e, ties_f


@pytest.mark.parametrize("spec", ["%.12e", "%.4f"])
def test_bulk_numbers_match_percent_formatting_byte_for_byte(spec):
    rng = np.random.default_rng(20)
    # random doubles with decimal exponents from -320 to 308, both signs
    x = 10.0 ** rng.uniform(-320, 308, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    ties_e, ties_f = _dyadic_ties()
    # decimal near-ties (M + 1/2) 10^(e-12): rounded once for e >= -10, twice below
    decimal = (rng.integers(10 ** 12, 10 ** 13, 2000) + 0.5) * 10.0 ** rng.integers(-44, 23, 2000)
    ties = np.concatenate([ties_e, ties_f, decimal, (rng.integers(0, 10 ** 9, 500) + 0.5) / 1e4])
    near = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                           np.nextafter(np.nextafter(ties, np.inf), np.inf)])
    decade = 10.0 ** np.arange(-30, 31)
    edges = [9.9999999999996, 99999.99995, 999999999.99995, 9.99999999999995e34,
             -0.00004, 0.00005, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
             0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1.7976931348623157e308]
    for values in (x, near, -near, decade, np.nextafter(decade, 0), -decade, edges):
        _assert_like_percent(values, spec)
    assert _texts(np.array([-0.00004, -0.0, 0.0]), "%.4f") == ["-0.0000", "-0.0000", "0.0000"]
    # an exact tie is left to Python's %, which rounds it half to even
    tie = np.array(ties_e if spec == "%.12e" else ties_f)
    assert not _fast_numbers(tie, spec)[1].any()
    assert _texts(np.array([2.0 ** -20]), "%.12e") == ["9.536743164062e-07"]
    assert _texts(np.array([1 / 32, 3 / 32]), "%.4f") == ["0.0312", "0.0938"]
    # empty and multi-dimensional input keep their shape
    assert _numbers(np.zeros((0, 3)), spec).shape[:2] == (0, 3)
    assert _numbers(np.ones((4, 3)), spec).shape[:2] == (4, 3)


@pytest.mark.parametrize("fig", sorted(FIGURE_PRESETS))
def test_bulk_numbers_fast_path_covers_the_preset_curves(fig):
    # a formatter that quietly sent everything to Python's % would pass the
    # byte tests above; this one fails it
    curves = _curves(params_from(*FIGURE_PRESETS[fig]))
    csv = np.concatenate([np.column_stack([t, z.real, z.imag]).ravel() for _, t, z in curves])
    svg = np.concatenate([np.column_stack([z.real, -z.imag]).ravel() for _, _, z in curves])
    for values, spec in ((csv, "%.12e"), (svg, "%.4f")):
        assert _fast_numbers(values, spec)[1].mean() >= 0.99, spec
