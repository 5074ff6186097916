"""The functions the benchmark's tracer wraps by name still exist.

`perfbench/run.py --trace 1` wraps `<module>.<function>` for every per-layer
metric `<module>.<function>.self_s` or `.calls` in BENCHMARK.json, looking
each up with getattr on `faberzeros.<module>`, and maps each function object
back to its name."""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    out = []
    for name in names:
        parts = name.split(".")
        if len(parts) == 3 and parts[2] in ("self_s", "calls"):
            key = f"{parts[0]}.{parts[1]}"
            if key not in out:
                out.append(key)
    return out


def test_per_layer_functions_resolve():
    names = traced_names()
    assert "rootfind.compute_zeros" in names and "cli.cmd_verify" in names
    found = {}
    for key in names:
        mod, func = key.split(".")
        fn = getattr(importlib.import_module(f"faberzeros.{mod}"), func)
        assert callable(fn), key
        found[key] = fn
    # two names bound to one function object would share one span name
    assert len(set(map(id, found.values()))) == len(found)
