#!/usr/bin/env python3
"""Benchmark of the faberzeros package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of low-degree, high-degree, verify, render (see workloads.py).
The run builds its round of operations from the seed, then repeats whole
rounds in one closed loop (one caller, one operation at a time) until S
seconds of rounds have passed, and between rounds measures set-up in fresh
interpreters. Every operation is checked afterwards against the independent
computations in check.py.

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a run
whose rounds alternate between untraced and traced, and the spans are written
to perfbench/out/trace-NAME-sN.jsonl. The per-layer metric names, and with
them the functions the traced rounds wrap, are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

PROBES = 21           # fresh interpreters timed for setup_s
PROBE_TIMEOUT = 120.0
clock = time.perf_counter


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    sys.path.insert(0, str(SRC))
    import faberzeros
    from faberzeros import cli
    return faberzeros, cli


def _set_up(workload, seed, warm_dir):
    """Everything between a fresh interpreter and the first timed operation."""
    t0 = clock()
    fz, cli = _import_package()
    t1 = clock()
    ops = workload.round_ops(seed)
    params = {}
    for op in ops + [workload.warmup]:
        if (op.R, op.theta) not in params:
            params[(op.R, op.theta)] = fz.params_from(op.R, op.theta)
    t2 = clock()
    wl.run_op(fz, cli, params, workload.warmup, warm_dir, clock)
    t3 = clock()
    times = {"import_s": t1 - t0, "params_from_s": t2 - t1, "warmup_s": t3 - t2}
    return fz, cli, ops, params, times


def _probe(args) -> int:
    """Child side of a set-up measurement: set up, report, exit."""
    _, _, _, _, times = _set_up(wl.WORKLOADS[args.workload], args.seed, args.probe)
    print(json.dumps(dict(times, ready_at=clock())), flush=True)
    return 0


def _measure_setup(args, run_dir: Path, k: int) -> dict:
    """Wall time from spawning a fresh interpreter until it is ready to time
    its first operation. perf_counter reads CLOCK_MONOTONIC on Linux, one
    clock for every process, so the child stamps the end."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--probe", str(run_dir / f"probe{k}")]
    t0 = clock()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                          timeout=PROBE_TIMEOUT, check=True)
    times = json.loads(proc.stdout)
    return dict(times, wall_s=times["ready_at"] - t0)


def _digest(op, result, files) -> str:
    h = hashlib.sha1()
    if op.kind == "zeros":
        if isinstance(result, Exception):
            h.update(repr(result).encode())
        else:
            h.update(result.zeros.tobytes() + result.method.value.encode())
    else:
        h.update(repr(result).encode())
        for name in sorted(files):
            h.update(name.encode() + b"\0" + files[name])
    return h.hexdigest()


def _judge(fz, params, op, result, files, zero_check_cache):
    """(tag, message) for a failed operation, None for a passed one."""
    import check  # not at the top: set-up probes must import numpy themselves
    if isinstance(result, Exception):
        return "error", f"{type(result).__name__}: {result}"
    if op.kind == "zeros":
        problems = check.check_zero_set(op.R, op.theta, op.n, result.zeros)
        return (wl.ZERO_ACCURACY, "; ".join(problems)) if problems else None
    if op.kind == "verify":
        if result not in (0, 1) or "verify_report.json" not in files:
            return "error", f"exit code {result}"
        text = files["verify_report.json"].decode()
        problems = check.check_verify_report(op.R, op.theta, op.n, text)
        doc = json.loads(text)
        if (result == 0) != bool(doc["pass"]):
            problems.append(f"exit code {result} disagrees with the report")
        if problems:
            return "output", "; ".join(problems)
        key = (op.R, op.theta, op.n)
        if key not in zero_check_cache:
            zs = fz.compute_zeros(params[(op.R, op.theta)], op.n)
            zero_check_cache[key] = check.check_zero_set(op.R, op.theta, op.n, zs.zeros)
        if zero_check_cache[key]:
            return wl.ZERO_ACCURACY, "verified zeros are inaccurate: " + "; ".join(
                zero_check_cache[key])
        if not doc["pass"]:
            run = doc["runs"][0]
            failed = sorted(g for g, ok in run["gates"].items() if not ok)
            tag = wl.QUADRATURE_GATE if failed == ["quadrature"] else "verify-gate"
            return tag, (f"FAIL on accurate zeros, gates {failed}, quadrature residual "
                         f"{run['quad_max_residual']:.3g} against {run['quad_tol']:.1g}")
        return None
    if result != 0:
        return "error", f"exit code {result}"
    if op.kind == "plot":
        name = f"plot_n{op.n}.svg"
        problems = (check.check_svg(op.R, op.theta, op.n, files[name].decode())
                    if name in files else [f"{name} missing"])
    else:
        problems = []
        for name, fn in (("curves.csv", check.check_curves_csv),
                         ("predicted.json", check.check_predicted_json)):
            problems += fn(op.R, op.theta, files[name].decode()) if name in files \
                else [f"{name} missing"]
    return ("output", "; ".join(problems)) if problems else None


def _loop(fz, cli, ops, params, run_dir: Path, seconds: float, tracer, probe):
    """Whole rounds until `seconds` of them have passed. With a tracer,
    rounds alternate untraced and traced and the run ends after a traced one.

    The PROBES set-up measurements, probe(k), run between rounds, spread over
    the run in step with the time the rounds have taken, so that setup_s
    samples the same stretch of the machine's load as the operations do.
    Their own time does not count towards `seconds`.

    Returns (records, outputs, rounds, probes): records holds (round, op
    index, seconds, output digest) per operation run, outputs the first
    result and files seen for each (op index, digest), probes what each
    set-up measurement returned.
    """
    records, outputs, probes = [], {}, []
    spent = 0.0
    r = 0
    while r == 0 or spent < seconds or (tracer is not None and r % 2):
        while len(probes) < min(PROBES, 1 + int(PROBES * spent / max(seconds, 1e-9))):
            probes.append(probe(len(probes)))
        t_round = clock()
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install(fz)
        for i, op in enumerate(ops):
            out_dir = str(run_dir / f"r{r}-{i}")
            if traced:
                tracer.begin_op(len(records))
            dt, result = wl.run_op(fz, cli, params, op, out_dir, clock)
            if traced:
                tracer.end_op()
            files = {}
            if op.kind != "zeros":
                files = wl.read_outputs(op, out_dir)
                # removed at once, so that the files are dropped before the
                # filesystem writes them back; a render run writes ~200 MB
                shutil.rmtree(out_dir, ignore_errors=True)
            d = _digest(op, result, files)
            outputs.setdefault((i, d), (result, files))
            records.append((r, i, dt, d))
        if traced:
            tracer.uninstall()
        spent += clock() - t_round
        r += 1
    while len(probes) < PROBES:
        probes.append(probe(len(probes)))
    return records, outputs, r, probes


def _end_to_end(ops, records, probes, peak_rss_mb) -> dict:
    # each operation's time is its fastest repetition: load from other jobs
    # on the machine only ever adds time, in bursts that last seconds, so
    # the fastest of the rounds is the closest to the operation's own cost
    per_op = [min(dt for _, i, dt, _ in records if i == k) for k in range(len(ops))]
    return {
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "op_s.p50": (statistics.median(per_op), "s"),
        "zeros_per_s": (sum(op.n for op in ops) / sum(per_op), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _per_layer(tracer, records, probes, per_layer) -> dict:
    plain = sum(dt for r, _, dt, _ in records if r % 2 == 0)
    traced = sum(dt for r, _, dt, _ in records if r % 2 == 1)
    layer = tracer.layer_metrics(sum(1 for r, *_ in records if r % 2 == 1))
    layer["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    layer["setup.params_from_s"] = statistics.median(p["params_from_s"] for p in probes)
    layer["trace.overhead_share"] = traced / plain - 1.0
    return {m["name"]: (layer[m["name"]], m["unit"]) for m in per_layer}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "faberzeros" / "__init__.py").is_file():
        print(f"faberzeros sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    if args.probe:
        return _probe(args)

    from check import self_test
    checker_problems = self_test()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-s{args.seed}-t{args.trace}"
    run_dir = OUT / f"run-{tag}-{os.getpid()}"
    run_dir.mkdir()
    per_layer = json.loads(SPEC.read_text())["per_layer"]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer([m["name"] for m in per_layer], clock)
    try:
        fz, cli, ops, params, _ = _set_up(workload, args.seed, str(run_dir / "warmup"))
        records, outputs, rounds, probes = _loop(
            fz, cli, ops, params, run_dir, args.seconds, tracer,
            lambda k: _measure_setup(args, run_dir, k))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        zero_checks = {}
        verdicts = {key: _judge(fz, params, ops[key[0]], res, files, zero_checks)
                    for key, (res, files) in outputs.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [(ops[i], verdicts[(i, d)]) for _, i, _, d in records
                if verdicts[(i, d)] is not None]
    correct = not checker_problems and all(v[0] == op.expect for op, v in failures)
    if tracer is None:
        metrics = _end_to_end(ops, records, probes, peak_rss_mb)
    else:
        metrics = _per_layer(tracer, records, probes, per_layer)
        tracer.dump(str(OUT / f"trace-{workload.name}-s{args.seed}.jsonl"))

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {rounds} "
          f"rounds of {len(ops)} operations, {len(records)} attempted, "
          f"{len(failures)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for (i, _), verdict in sorted(verdicts.items(), key=lambda kv: kv[0][0]):
        if verdict is not None:
            known = "known fault" if verdict[0] == ops[i].expect else "UNEXPECTED"
            print(f"  failed ({known}, {verdict[0]}): {ops[i].label()}: {verdict[1]}")
    for line in checker_problems:
        print(f"  checker self-test: {line}")
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
