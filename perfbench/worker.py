"""One benchmark run in a fresh process: a closed loop over the op list.

    python3 worker.py SRC WORKDIR SECONDS TRACE MIN_OPS RESULT [SPANS]

imports ``mirrorcheck`` from SRC, reads ``WORKDIR/manifest.json`` and calls
``mirrorcheck.cli.main(argv)`` for one op at a time, from WORKDIR, with
stdout captured.  It repeats whole passes over the op list until SECONDS
have gone by and at least MIN_OPS ops have run untraced (at least one
pass), so every run measures the same op mix.  It writes per-op exit codes,
the first stdout of each op, byte mismatches against that first stdout
(across all passes), uncaught exceptions, per-op wall times, the wall time of
the speed-reference kernel run before each op (see ``speed``) and its own
peak RSS to RESULT.  With TRACE=1 untraced and traced passes
alternate; the per-layer summary of the traced passes goes to RESULT and
their spans to SPANS.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed


def _defect_site(exc: BaseException, src: str) -> str:
    """Innermost mirrorcheck frame of a traceback, as 'module.function'."""
    site = "?"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = os.path.abspath(frame.filename)
        if path.startswith(src + os.sep):
            site = f"{os.path.splitext(os.path.basename(path))[0]}.{frame.name}"
    return site


def main(argv: list[str]) -> int:
    src, workdir, seconds, trace, min_ops, result_path = argv[:6]
    spans_path = argv[6] if len(argv) > 6 else None
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    seconds, min_ops = float(seconds), int(min_ops)
    from mirrorcheck import cli

    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    os.chdir(workdir)

    # Side 0 runs untraced; with TRACE=1, side 1 runs traced, in alternate
    # passes, so both sides see the same machine and the same elapsed time.
    sides = (0, 1) if tracer is not None else (0,)
    first: list = [None] * len(ops)
    codes: list = [None] * len(ops)
    exceptions: list = [None] * len(ops)
    mismatches = [0] * len(ops)
    latencies: list = [[] for _ in sides]
    ref_times: list = [[] for _ in sides]
    traced_ops: list[int] = []  # execution index of every traced op
    executed = 0
    clock = time.perf_counter
    start = clock()
    while True:
        for side in sides:
            if tracer is not None:
                tracer.install() if side else tracer.uninstall()
            for i, op in enumerate(ops):
                ref_times[side].append(speed.time_reference())
                if side:
                    tracer.op = executed
                    traced_ops.append(executed)
                buf = io.StringIO()
                code = exc_info = None
                t0 = clock()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = cli.main(list(op["argv"]))
                except Exception as exc:  # an op failure is recorded, the run goes on
                    exc_info = {"name": type(exc).__name__, "site": _defect_site(exc, src),
                                "message": str(exc)}
                latencies[side].append(clock() - t0)
                executed += 1
                text = buf.getvalue()
                if executed <= len(ops):
                    first[i], codes[i], exceptions[i] = text, code, exc_info
                elif text != first[i] or code != codes[i] or exc_info != exceptions[i]:
                    mismatches[i] += 1
        if clock() - start >= seconds and len(latencies[0]) >= min_ops:
            break
    if tracer is not None:
        tracer.uninstall()

    result = {
        "passes": len(latencies[0]) // len(ops),
        "latencies_s": latencies,
        "ref_s": ref_times,
        "ops": [{"code": codes[i], "stdout": first[i], "mismatches": mismatches[i],
                 "exception": exceptions[i]} for i in range(len(ops))],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        slowness = dict(zip(traced_ops, speed.slowness(ref_times[1])))
        result["per_layer"] = tracer.summary(len(latencies[1]) // len(ops), slowness)
        if spans_path:
            tracer.write(spans_path, [op["id"] for op in ops])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
