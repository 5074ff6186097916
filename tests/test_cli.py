"""Command-line interface: file contracts, config precedence, exit codes."""

import json
import re
import time
import warnings

import numpy as np
import pytest

from faberzeros import cli
from faberzeros.cli import (
    _DOT_STYLE, _curve_rows, _json_text, _svg_dots, _svg_poly, _zeros_csv, fnum,
    main,
)
from faberzeros.rootfind import Method, ZeroSet

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


def _reject_constant(name):
    raise ValueError(f"bare {name} in JSON")


@pytest.mark.parametrize("R,theta,n", [(7.6485, 1.4, 400), (3.0, 0.5, 500)])
def test_verify_far_out_fails_quietly_with_valid_json(R, theta, n, tmp_path, capsys):
    # the quadrature gate fails at both (residual ~1e107 and ~1e127, past
    # double range before scaling) without any RuntimeWarning, and the
    # report is strict JSON
    out = tmp_path / "far"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["verify", "--R", str(R), "--theta", str(theta), "--n", str(n),
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    doc = json.loads((out / "verify_report.json").read_text(),
                     parse_constant=_reject_constant)
    assert doc["runs"][0]["gates"]["quadrature"] is False


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
])
def test_parameter_failures_exit_2(args, tmp_path, capsys):
    code = run(args + ["--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------- parser reuse

# valid, invalid, valid: options given early (--theta, --tol-quad, --format)
# are absent later, so a value carried over by the cached parser would change
# the later exit codes, output or files
PARSER_SEQUENCE = [
    ["verify", "--R", "2.1", "--theta", "0.2", "--n", "40", "--tol-quad",
     "1e-30", "--format", "csv,json", "--out", "o1"],
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


def test_simultaneous_seed_method_fails_fast(tmp_path, capsys):
    # the coefficient route cannot converge at n = 100; refuse before computing
    t0 = time.monotonic()
    code = run(["zeros", "--paper-figure", "2", "--n", "100", "--seed-method",
                "simultaneous", "--out", str(tmp_path / "s")])
    elapsed = time.monotonic() - t0
    assert code == 2
    assert "simultaneous" in capsys.readouterr().err
    assert elapsed < 0.5
    assert not (tmp_path / "s").exists()


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
    assert _curve_rows("curve", param, z) == want
    assert _curve_rows("curve", np.zeros(0), np.zeros(0, complex)) == ""
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
    assert _svg_poly(z, "#123456") == (
        f'<polyline fill="none" stroke="#123456" stroke-width="0.012" '
        f'points="{pts}"/>')
    labels = [("segment", "loop", "other")[i % 3] for i in range(len(z))]
    dots = [f'<circle cx="{v.real:.4f}" cy="{-v.imag:.4f}" r="0.012" '
            f'fill="{_DOT_STYLE[lab]}"/>' for v, lab in zip(z, labels)]
    assert _svg_dots(z, labels) == "\n".join(dots)
