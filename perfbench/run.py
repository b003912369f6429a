"""mirrorcheck benchmark: seeded CLI workloads, checked against an oracle.

    python3 perfbench/run.py --workload nef-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The inputs of the workload are generated from the seed into a
scratch directory before timing starts.  One fresh child process then runs
a closed loop (one client, one op at a time, no threads) of in-process
``mirrorcheck.cli.main(argv)`` calls over the op list, in whole passes,
until ``--seconds`` have gone by and at least ``MIN_OPS`` ops have run.
Every report is checked by ``oracle.check``.  Times are reported at
reference speed (see ``speed``); the raw wall times are printed too.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes in the same loop, checks that both print the
same bytes, and prints the per-layer metrics and the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import oracle
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Enough op executions per run for 10 samples beyond the 95th percentile.
MIN_OPS = 200
# Cold starts per run for setup_s (one more, untimed, warms the file cache).
# The child prints the monotonic clock, which all processes share, once its
# set-up is done (waiting for its exit would add the teardown and the
# polling granularity of subprocess's timeout loop, up to 50 ms), and then
# the median time of the speed-reference kernel in the same process.
SETUP_STARTS = 9
SETUP_CODE = ("import time; from mirrorcheck import cli; cli.build_parser(); "
              "from mirrorcheck.fixtures import load_fixture; load_fixture('p1p1p1'); "
              "done = time.perf_counter(); import speed, statistics; "
              "print(repr(done), repr(statistics.median(speed.time_reference() "
              "for _ in range(5))))")
# A run must end within 180 s even if the library gets much slower.
CHILD_TIMEOUT_S = 150

# Uncaught exceptions the library is known to raise at this commit, by
# (exception, innermost mirrorcheck frame).  They count as failed ops and
# in error_rate, but do not make the run incorrect.
KNOWN_DEFECTS = {
    ("ZeroDivisionError", "lattices.signature"):
        "signature() divides by a zero pivot on some forms with a zero diagonal, "
        "such as [[0,1],[1,-2]]",
}


def _env() -> dict:
    """The environment of child processes: mirrorcheck from SRC first, then
    the benchmark's own modules."""
    env = dict(os.environ)
    paths = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_seconds() -> tuple[float, float]:
    """Median time of a fresh interpreter importing mirrorcheck.cli, building
    the parser once and loading one fixture: at reference speed, and raw."""
    raw, refs = [], []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                             check=True, timeout=CHILD_TIMEOUT_S, capture_output=True,
                             text=True)
        done, ref = (float(x) for x in out.stdout.split())
        if i:
            raw.append(done - t0)
            refs.append(ref)
    calibrated = [t * speed.REF_NOMINAL_S / ref for t, ref in zip(raw, refs)]
    return statistics.median(calibrated), statistics.median(raw)


def run_worker(workdir: str, seconds: float, trace: bool, min_ops: int,
               spans: str | None = None) -> dict:
    result_path = os.path.join(workdir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, workdir, str(seconds),
           "1" if trace else "0", str(min_ops), result_path]
    if spans:
        cmd.append(spans)
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def assess(ops: list, res: dict) -> dict:
    """Oracle verdicts for one worker result.

    An op fails on an uncaught exception, a wrong exit code, a failed oracle
    check, or stdout that differs from its first pass (traced passes
    included).  A failing op fails in every pass.
    """
    passes = sum(len(side) for side in res["latencies_s"]) // len(ops)
    failed = 0
    problems = []  # (op id, problem) that make the run incorrect
    defects = []   # (op id, exception, site) known-defect failures
    for op, got in zip(ops, res["ops"]):
        exc = got["exception"]
        if exc is not None:
            failed += passes
            key = (exc["name"], exc["site"])
            if key in KNOWN_DEFECTS:
                defects.append((op["id"], exc["name"], exc["site"], op["argv"]))
            else:
                problems.append((op["id"], f"uncaught {exc['name']} in {exc['site']}: "
                                           f"{exc['message']}"))
            continue
        found = oracle.check(op, got["code"], got["stdout"])
        if found:
            failed += passes
            problems += [(op["id"], p) for p in found]
        elif got["mismatches"]:
            failed += got["mismatches"]
            problems.append((op["id"], f"stdout differed from the first pass "
                                       f"{got['mismatches']} time(s)"))
    return {"failed": failed, "problems": problems, "defects": defects}


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            min_ops: int = MIN_OPS) -> dict:
    """One run: generate, (time set-up), run the workload, check everything."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        manifest = gen.build(workload, seed, workdir)
        ops = manifest["ops"]
        setup = None if trace else setup_seconds()
        spans = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl.gz") if trace else None
        res = run_worker(workdir, seconds, trace, min_ops, spans)
        verdict = assess(ops, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(ops)
    raw = res["latencies_s"][0]
    cal = [speed.calibrate(lat, ref) for lat, ref in zip(res["latencies_s"], res["ref_s"])]
    attempted = sum(len(side) for side in res["latencies_s"])
    out = {
        "workload": workload, "seed": seed, "passes": res["passes"],
        "ops_per_pass": n, "samples": len(raw), "attempted": attempted,
        "failed": verdict["failed"], "problems": verdict["problems"],
        "defects": verdict["defects"], "inputs": manifest["inputs"],
    }
    if trace:
        untraced, traced = (_ops_per_s(n, side) for side in cal)
        metrics = {k: tuple(v) for k, v in res["per_layer"].items()}
        metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced, "1/s")
        metrics["trace.overhead"] = (untraced / traced, "ratio")
        out["raw"] = {}
    else:
        cal_ms = [x * 1000.0 for x in cal[0]]
        raw_ms = [x * 1000.0 for x in raw]
        metrics = {
            "ops_per_s": (_ops_per_s(n, cal[0]), "1/s"),
            "latency_p50_ms": (_quantile(cal_ms, 50), "ms"),
            "latency_p95_ms": (_quantile(cal_ms, 95), "ms"),
            "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
            "setup_s": (setup[0], "s"),
        }
        out["raw"] = {
            "ops_per_s": (_ops_per_s(n, raw), "1/s"),
            "latency_p50_ms": (_quantile(raw_ms, 50), "ms"),
            "latency_p95_ms": (_quantile(raw_ms, 95), "ms"),
            "setup_s": (setup[1], "s"),
        }
    out["metrics"] = metrics
    out["error_rate"] = verdict["failed"] / attempted
    return out


def _ops_per_s(n: int, latencies: list[float]) -> float:
    """Ops per pass over the median pass time, a pass being the sum of its
    op latencies; the median, because a burst of contention on a shared
    machine can slow a single pass by a quarter."""
    passes = [sum(latencies[p:p + n]) for p in range(0, len(latencies), n)]
    return n / statistics.median(passes)


def per_layer_metric_names() -> list[str]:
    return tracer.per_layer_names() + [
        "trace.ops_per_s_untraced", "trace.ops_per_s_traced", "trace.overhead"]


def _report(r: dict) -> None:
    print(f"workload {r['workload']} seed {r['seed']}: {r['passes']} pass(es) of "
          f"{r['ops_per_pass']} ops, {r['samples']} latency samples (closed loop, "
          f"1 client, 1 process)")
    for name, (value, unit) in r["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in r["raw"].items():
        print(f"  raw wall time, not calibrated: {name} = {value:.6g} {unit}")
    print(f"  error_rate = {r['error_rate']:.6g} (failed {r['failed']} / attempted "
          f"{r['attempted']})")
    densities = [rec["density"] for rec in r["inputs"]]
    if densities:
        print(f"  input density l(P)/box: min {min(densities):.4g}, "
              f"median {statistics.median(densities):.4g}, max {max(densities):.4g}")
    for op_id, name, site, argv in r["defects"]:
        print(f"  known defect: {op_id}: {name} in {site}: mirrorcheck {' '.join(argv)}")
    for op_id, problem in r["problems"]:
        print(f"  FAILED {op_id}: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mirrorcheck", "cli.py")):
        print(f"error: no mirrorcheck sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        r = measure(workload, args.seed, args.seconds, bool(args.trace))
        _report(r)
        result["correct"] = result["correct"] and not r["problems"]
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name, (value, unit) in r["metrics"].items():
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
