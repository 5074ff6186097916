"""Golden bytes: SHA-256 digests of predict's, plot's and verify's files for
the four --paper-figure presets.

The predict and plot digests were generated before the arc walk, the
nearest-polyline search and the arc Newton's stopping rule were rewritten for
speed, and the verify digests before the zero labels and the probe ring were
decided from distance bounds; they hold the rewritten code to the same
output bytes. They depend on the
floating-point results of numpy and the platform libm as well as on the code:
regenerate them with `PYTHONPATH=src python tests/test_golden_outputs.py`
only for a change that is meant to alter the output, and say so.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from faberzeros import cli

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
    (1, 100): "64bc00972cdf5ca475e1103e2206728edd5847fa898836c46e3ddcbf3b0e80b9",
    (1, 500): "56e45f35769f34662f891c86c3cb395177025f24e0238fea5a76601da9b92682",
    (2, 100): "9e141d6a2d08f8589c0c6ccdd855dc3c20be0e2484778723c78a12fb4b139d3b",
    (2, 500): "95c4b505fd8718d625817d1f9a60dcac8232f92032a59a633a70687a75484ac5",
    (3, 100): "88cea0ce04c429e7d35f3c5a60b764c1220b2a59db390a46f4155c980cba62da",
    (3, 500): "171dba352da53b0885dbdd0d0187c0dddcbe8dd2ee9af0ec54606594a3cfc7d9",
    (4, 100): "880b0abc36bc3633600390e5b8b649d494840619cd3ece88df5c4bf8e5ff61f4",
    (4, 500): "82b0b5fb10fd0c37962a42032fb31ef2d69be4ff76a49419ab03d774b8f740b2",
}


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


def test_paper_figure_outputs_match_golden_digests(tmp_path):
    for fig, want in GOLDEN.items():
        assert figure_digests(fig, str(tmp_path / f"fig{fig}")) == want, fig


def test_paper_figure_verify_reports_match_golden_digests(tmp_path):
    for (fig, n), want in GOLDEN_VERIFY.items():
        assert verify_digest(fig, n, str(tmp_path / f"fig{fig}_n{n}")) == want, (fig, n)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump({fig: figure_digests(fig, os.path.join(tmp, f"fig{fig}"))
                   for fig in sorted(cli.FIGURE_PRESETS)}, sys.stdout, indent=4)
        print()
        json.dump({f"{fig}, {n}": verify_digest(fig, n, os.path.join(tmp, f"verify{fig}_{n}"))
                   for fig, n in sorted(GOLDEN_VERIFY)}, sys.stdout, indent=4)
        print()
