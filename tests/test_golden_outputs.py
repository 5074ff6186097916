"""Golden bytes: SHA-256 digests of zeros', predict's, plot's and verify's
files for the four --paper-figure presets, and of compute_zeros' zeros and
residuals at one point per path of the seeded solver, with the closed-form
calls each makes.

The predict and plot --n 100 digests were generated before the arc walk, the
nearest-polyline search and the arc Newton's stopping rule were rewritten for
speed, the verify digests before the zero labels and the probe ring were
decided from distance bounds, the plot --n 500 and zeros CSV digests
before the CSV and SVG writers formatted their numbers in bulk, and the
digests of four airfoils the presets leave out before the case analysis
moved into one record per airfoil, and the zero-set digests before the
closed form raised its two powers in one chain and the seeded solver
graded each candidate once; they hold the rewritten code to the same
output bytes. The 12 verify_report.json digests (GOLDEN_VERIFY and the third
entry of each GOLDEN_CASES tuple) were regenerated on purpose when
predicted_moments changed from a 512-node Gauss-Legendre quadrature of the
limit measure to the closed-form equilibrium moments it equals: only
moment_dist, which is not gated, changed in those reports, every gate,
verdict and exit code stayed the same. The digests of the real airfoils'
zeros (presets 1 and 2, and (1.5, 0)) were regenerated on purpose when the
real segment's bracketed Newton gave way to the arc Newton and real
airfoils' zeros came out in exact conjugate pairs: the changed zeros are
nearer the true zeros in the median, and verify's gates, verdicts, label
counts and exit codes stayed the same. The zero set at (8/cos 1.5, 1.5, 7)
and verify_report.json of (8/cos 1.3, 1.3) at n = 60 were regenerated on
purpose when the mpmath polish gave way to a closed form that takes its
last two terms' difference from w - s + b = 1/(z + s): the worst zero there
went from 0.41 to 0.45 ulp and from 19.4 to 4.4 ulp, only moment_dist,
quad_max_residual and potential_max_dev moved in that report, and its exit
code stayed 1. The 4 zero-set digests with loop seeds, the zeros CSV and
verify_report.json digests of presets 2 and 3, and the verify_report.json
of (1.674757, 0.3) and (8/cos 1.3, 1.3) were regenerated on purpose when
the loop seeds joined the arc seeds' Newton in z: the changed zeros stay
within 2.03 ulp of the true zeros (about half of them a little farther
than before, the rest nearer), and only moment_dist, potential_max_dev
and quad_max_residual moved in those reports, with every gate, verdict,
label count and exit code the same. They depend on the
floating-point results of numpy and the platform libm as well as on the code:
regenerate them with `PYTHONPATH=src python tests/test_golden_outputs.py`
only for a change that is meant to alter the output, and say so.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile

from faberzeros import cli, compute_zeros, faber, params_from, rootfind

GOLDEN = {
    1: {
        "curves.csv":
            "ae1fda36e551e657dbe36b7169dc373ce550f17c446585d8bbd1fbbbcbf5d221",
        "predicted.json":
            "cbfb1bf68d721d656312d66967bc5a8db38425d3cf7e31319fa5ed3e709b1b98",
        "plot_n100.svg":
            "0ae85af8ad98344bc15c636b3d81560f53c7223b24e898dc5af7bf53b902041b",
    },
    2: {
        "curves.csv":
            "988590511c55016025d1e8e672fd3fb2596b5ed11f70287a5138d5ce17ab94a8",
        "predicted.json":
            "4b8bb1adfe7c6ceab72cc8bd9f06bc6f96aec39842864b2a0d459bdb61d62727",
        "plot_n100.svg":
            "d8330b98d91c81c9acc077dcaf4f7cdd916f51492893d8dc91d49729b0ea06b5",
    },
    3: {
        "curves.csv":
            "9333c6666bd7921f5ef0db871142e0b481c430b24e5cdf479ea203bcec3853fd",
        "predicted.json":
            "2ffd3aa2f945edc67470b6a04b3dc93c2cda746a45d66ec279e4e9cca1b6095b",
        "plot_n100.svg":
            "3649458899218d9136d8735eb8fbff0fe636be0e805dc6a3161009c5f5745696",
    },
    4: {
        "curves.csv":
            "58138ec4b448c6eda3c4f2bdb7cf348b186c2669597f2107856877a381b0dc97",
        "predicted.json":
            "0a70d5a54673d08b93de85cadb6e6ddad74ca872035f67ae0f8fee1bf92836d4",
        "plot_n100.svg":
            "389017645faee6f965c82af992dbf5d0b6a491b9ed2d4ce6147958add3d8b26f",
    },
}

# verify_report.json of `verify --paper-figure <fig> --n <n>`, by (fig, n)
GOLDEN_VERIFY = {
    (1, 100): "71dc3a610a02773d1e1c9486834c546049cad77a82f91f6fa45813c23ed57823",
    (1, 500): "a5d35f2b705feb259d352f907b706721017abef0e838b1325b8de6cfd39272e2",
    (2, 100): "3253caead0a7a8eed91ff6ecd89809230ebd086e5df1149b8dc44c3cef0686b7",
    (2, 500): "9c18f27da2cc52d561c4bb52032836a1f82f3d75aa663e78bc7f002d91a40dc4",
    (3, 100): "ddcdbee52f8d3be2050ea433ba794ab2b47e388dc94db7dbadd5787cb8a53631",
    (3, 500): "05bc69db65f666f059a25d0b9c469d35b71b5abdba12952c8015ac0d62252064",
    (4, 100): "6a6f5a85a7012efc0748e03089f39f34e8be22b18e87391310ca0a89f55af834",
    (4, 500): "bdba4dab80c47bbfa3d129c7ee49eb29f54aca549bb5441e46ef4801fb56cb4e",
}


# plot_n500.svg of `plot --paper-figure <fig> --n 500`, by fig
GOLDEN_PLOT_500 = {
    1: "c9a991c2a9768a58ecc5aa9fbbba832b103d7c9907b27dd58142a68340bb455f",
    2: "0fd581d4cbe3667db2d60fac40a647f5934269570da6ffdca5447e84f3bb0a37",
    3: "5edc8bdaa5889427fe723e21d757e33cd67b83df2d14b4465e5fc630e6048b6f",
    4: "fdcfc75cb4fcac45dc0e86bf430ae971f75a0d07673e43894c310266f354ed81",
}

# zeros_n<n>.csv of `zeros --paper-figure <fig> --n 100,500 --format csv`, by (fig, n)
GOLDEN_ZEROS = {
    (1, 100): "80346c3288040be23a225724bc25c05b6453e96ccbc05bdbe39292bc69ad9b59",
    (1, 500): "bff275c59d95ce8338b8c3b53058249df54e4eaba7df0190440d12290ffd5715",
    (2, 100): "a92392ba6f1331afa1f738437e879132dd30c3201bc857ba123b14579e5891bf",
    (2, 500): "ca64bbc33668166bd902e157404a2cd1310da87f841d17422475e50947361cdf",
    (3, 100): "f4aa140e1411918e64393d16ebe2102bc3921d82392c87c185c9c22df28146b0",
    (3, 500): "17dd6c41276c92ad89dcdb6e927923dbe0e6176166cc377d245945de7eb28825",
    (4, 100): "527264a917937d7447cf2257c4b5ee186161c8d7e758155b72259bf5175ded4e",
    (4, 500): "3062199115a9db6cb81b615f19c4ada3821c3b3cdcea15c481d815ec946fea89",
}

# (curves.csv, predicted.json, verify_report.json of verify --n 60, verify's
# exit code) by (R, theta): critical, critical rotated, a loop shorter than
# half the circle (u_lo < 0), and a steep airfoil far above criticality
GOLDEN_CASES = {
    (1.5, 0.0): (
        "e47df3ed137d5efc13b4ca3e40b23ca9d9f914aa39efbf354d2ef88bfebd06c8",
        "36667f2f80fbb2a6711cc98430738f7c7852dc0343929885ae600d7d891e9c10",
        "c5cb24cb49c085c30c04721de44b553552605abb91163c5146a8cd3053db9777", 0),
    (1.5 / math.cos(0.3), 0.3): (
        "93efe224a571f52015cba7e44a926ceee001bdd26b18e1312d25a7cb47d3905b",
        "e7bac9118bdbb711580501356966539f440f52e0b73d3cb0e9d5eea822071855",
        "9e7b3c66db67797215ab647747771e8ff43e83d96144ebfc635133b3d363d673", 0),
    (1.674757, 0.3): (
        "459fc701617c0d2f3bd8c753437eb73c29eeed28d98c6d2c9ec1bd9d0f3a7384",
        "b5afbe91cb92c920131218c652cc1d6a1d83b0447887187e135d9bf50b82386c",
        "2cfc2e1fe19715139cf28d03f454cd4a60387f70f27fac8ae6010683dc5f8014", 0),
    (8 / math.cos(1.3), 1.3): (
        "21e9cff7b760909dc89d8a57c78bd04b4eafb9d2ee03a30b4e8e497f2cc3919e",
        "1beb9967ff90ac715cbc2deb1ef4053cd17d46cec492d46cbd25c6d381e49163",
        "5b2a05a265ff41d560012d48ebd47b1770561a8f960b5eb05aaf67b6e110375a", 1),
}

# zeros.tobytes() + residuals.tobytes() of compute_zeros at (R, theta, n)
GOLDEN_ZERO_SETS = {
    # real segment, below criticality
    (1.26, 0.0, 500): "c37fb9281d25b3b94d25e57e5df4c855402d17fd29d81a00a95e45064430c554",
    # real segment and loop; deflation finds the zero the seeds miss
    (2.1, 0.0, 300): "f51ff16aee51b229f79bf20ac404667c9a15590f89a74d13932e0b0d4f939275",
    # arc and loop
    (2.1, 0.2, 500): "d541618101416eeca7b67dd24068af4bc28e745bb2f53950ad285cc00bebe3a1",
    # steep arc and loop, with deflation
    (2.691922, -0.952326, 193):
        "1b3f0a54146fd6a89d7350b77089cf8dd41b6eb2464158a65a8cc2c42c3e8eec",
    # n < 100: powers by numpy's x ** n, below the squaring chain
    (1.45, 0.2, 60): "2f38d7bd7f0d132029d354878b36d19873ac67f9ac7ebd5c28de32638c8ce232",
    # steep and far: the closed form's last two terms cancel at every zero
    (8 / math.cos(1.5), 1.5, 7):
        "d0a598c5a8766c98777d82ba3f3c35a727d1e9275fdec7f28692707dfb711d40",
}

# calls of the closed form (faber._closed_terms) one compute_zeros makes at
# the GOLDEN_ZERO_SETS points: the solver's evaluation budget, pinned so
# that an evaluation added back shows here. The loop seeds' Newton passes
# count here since they run in z with the arc seeds' (the w-plane passes
# they replaced raised their own powers); at (8/cos 1.5, 1.5, 7) the seeds
# crawl at the step cap to their zeros where deflation found them before.
# _tighten evaluates nothing where no zero's Newton step reaches one ulp
CLOSED_FORM_CALLS = {
    (1.26, 0.0, 500): 2,
    (2.1, 0.0, 300): 9,
    (2.1, 0.2, 500): 9,
    (2.691922, -0.952326, 193): 22,
    (1.45, 0.2, 60): 3,
    (8 / math.cos(1.5), 1.5, 7): 39,
}


def zero_set_digest(R: float, theta: float, n: int) -> str:
    zs = compute_zeros(params_from(R, theta), n)
    return hashlib.sha256(zs.zeros.tobytes() + zs.residuals.tobytes()).hexdigest()


def figure_digests(fig: int, out: str) -> dict[str, str]:
    """Run predict and plot --n 100 for one preset into out; digest each file."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["predict", "--paper-figure", str(fig), "--out", out]) == 0
        assert cli.main(["plot", "--paper-figure", str(fig), "--n", "100", "--out", out]) == 0
    digests = {}
    for name in ("curves.csv", "predicted.json", "plot_n100.svg"):
        with open(os.path.join(out, name), "rb") as f:
            digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def verify_digest(fig: int, n: int, out: str) -> str:
    """Run verify --n n for one preset into out; digest verify_report.json."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--paper-figure", str(fig), "--n", str(n),
                         "--out", out]) == 0
    with open(os.path.join(out, "verify_report.json"), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def file_digests(argv: list[str], out: str, names: list[str]) -> list[str]:
    """Run one command into out; digest the named files."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out", out]) == 0
    digests = []
    for name in names:
        with open(os.path.join(out, name), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    return digests


def case_digests(R: float, theta: float, out: str) -> tuple:
    """Run predict and verify --n 60 on one airfoil into out: the digests
    of their files and verify's exit code."""
    args = ["--R", repr(R), "--theta", repr(theta), "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["predict"] + args) == 0
        code = cli.main(["verify", "--n", "60"] + args)
    digests = []
    for name in ("curves.csv", "predicted.json", "verify_report.json"):
        with open(os.path.join(out, name), "rb") as f:
            digests.append(hashlib.sha256(f.read()).hexdigest())
    return (*digests, code)


def plot_500_digest(fig: int, out: str) -> str:
    return file_digests(["plot", "--paper-figure", str(fig), "--n", "500"], out,
                        ["plot_n500.svg"])[0]


def zeros_digests(fig: int, out: str) -> dict[int, str]:
    got = file_digests(["zeros", "--paper-figure", str(fig), "--n", "100,500",
                        "--format", "csv"], out, ["zeros_n100.csv", "zeros_n500.csv"])
    return dict(zip((100, 500), got))


def test_paper_figure_outputs_match_golden_digests(tmp_path):
    for fig, want in GOLDEN.items():
        assert figure_digests(fig, str(tmp_path / f"fig{fig}")) == want, fig


def test_paper_figure_verify_reports_match_golden_digests(tmp_path):
    for (fig, n), want in GOLDEN_VERIFY.items():
        assert verify_digest(fig, n, str(tmp_path / f"fig{fig}_n{n}")) == want, (fig, n)



def test_paper_figure_plot_n500_matches_golden_digests(tmp_path):
    for fig, want in GOLDEN_PLOT_500.items():
        assert plot_500_digest(fig, str(tmp_path / f"fig{fig}")) == want, fig


def test_paper_figure_zeros_csv_match_golden_digests(tmp_path):
    for fig in sorted(cli.FIGURE_PRESETS):
        got = zeros_digests(fig, str(tmp_path / f"fig{fig}"))
        assert got == {n: GOLDEN_ZEROS[(fig, n)] for n in (100, 500)}, fig


def test_zero_sets_match_golden_digests(monkeypatch):
    assert CLOSED_FORM_CALLS.keys() == GOLDEN_ZERO_SETS.keys()
    calls = 0
    closed_terms = faber._closed_terms

    def counted(*args):
        nonlocal calls
        calls += 1
        return closed_terms(*args)

    # residual's core looks it up in faber, the grading in rootfind
    monkeypatch.setattr(faber, "_closed_terms", counted)
    monkeypatch.setattr(rootfind, "_closed_terms", counted)
    for (R, theta, n), want in GOLDEN_ZERO_SETS.items():
        calls = 0
        assert zero_set_digest(R, theta, n) == want, (R, theta, n)
        assert calls == CLOSED_FORM_CALLS[R, theta, n], (R, theta, n, calls)


def test_off_preset_airfoils_match_golden_digests(tmp_path):
    for k, ((R, theta), want) in enumerate(GOLDEN_CASES.items()):
        assert case_digests(R, theta, str(tmp_path / f"case{k}")) == want, (R, theta)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump({fig: figure_digests(fig, os.path.join(tmp, f"fig{fig}"))
                   for fig in sorted(cli.FIGURE_PRESETS)}, sys.stdout, indent=4)
        print()
        json.dump({f"{fig}, {n}": verify_digest(fig, n, os.path.join(tmp, f"verify{fig}_{n}"))
                   for fig, n in sorted(GOLDEN_VERIFY)}, sys.stdout, indent=4)
        print()
        json.dump({fig: plot_500_digest(fig, os.path.join(tmp, f"plot500_{fig}"))
                   for fig in sorted(GOLDEN_PLOT_500)}, sys.stdout, indent=4)
        print()
        json.dump({f"{fig}, {n}": digest
                   for fig in sorted(cli.FIGURE_PRESETS)
                   for n, digest in zeros_digests(fig, os.path.join(tmp, f"zeros{fig}")).items()},
                  sys.stdout, indent=4)
        print()
        json.dump({f"{R!r}, {theta!r}": case_digests(R, theta, os.path.join(tmp, f"case{k}"))
                   for k, (R, theta) in enumerate(GOLDEN_CASES)}, sys.stdout, indent=4)
        print()
    json.dump({f"{R!r}, {theta!r}, {n}": zero_set_digest(R, theta, n)
               for R, theta, n in GOLDEN_ZERO_SETS}, sys.stdout, indent=4)
    print()
