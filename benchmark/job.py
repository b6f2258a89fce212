"""One workload job in a fresh process; run.py starts it and reads its last line.

    python3 benchmark/job.py --workload NAME --seed N --mode setup|job|trace
                             --spawned-at UNIX_TIME [--size full|tiny]
                             [--untraced-s SECONDS] [--spans-out FILE]

``setup`` stops once the inputs are ready, ``job`` also runs and checks the
job untraced, and ``trace`` runs it with the tracer installed.  Set-up and
the untraced job run under a ``hostspeed.SpeedProbe``, and their times are
reported at the reference host speed, beside their wall seconds.  The last
line of standard output is one JSON object.  The thread caps of the BLAS
libraries are set by run.py in this process's environment, before numpy
is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--untraced-s", type=float, default=0.0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    with hostspeed.SpeedProbe() as setup:
        import weilgap
        import tracing
        import workloads

        if Path(weilgap.__file__).resolve().parent != ROOT / "src" / "weilgap":
            raise SystemExit(f"weilgap imported from {weilgap.__file__}, not from this checkout")
        prepare, run, check = workloads.WORKLOADS[args.workload]
        inputs = prepare(args.seed, workloads.SIZES[args.size][args.workload])
        setup_wall = time.time() - args.spawned_at
    result = {"setup_s": setup.to_reference(setup_wall), "setup_wall_s": setup.net(setup_wall),
              "env": _environment()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = tracing.Tracer()
    if args.mode == "trace":
        tracing.install(tracer)
        tracer.active = True
        probe = contextlib.nullcontext()
    else:
        probe = hostspeed.SpeedProbe()
    try:
        with probe:
            start = time.perf_counter()
            out = run(inputs, tracer)
            elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        print(json.dumps({**result, "error": "job raised"}))
        return 0
    tracer.active = False
    if args.mode == "trace":
        result["wall_s"] = elapsed
    else:
        result["time_to_result_s"] = probe.to_reference(elapsed)
        result["wall_s"] = probe.net(elapsed)
        result["host_speed"] = probe.speed()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks = check(inputs, out)
    except Exception:
        traceback.print_exc()
        checks = [("checks raised", False)]
    result["checks"] = {"attempted": len(checks), "failed": [name for name, ok in checks if not ok]}
    # a job without FE checks (defect 0) reads the float64 ceiling -log10(2^-53)
    result["fe_digits"] = -math.log10(max(workloads.fe_defect(out), 2.0**-53))

    if args.mode == "trace":
        summary = tracing.summarize(tracer, elapsed)
        result["per_layer"] = tracing.per_layer_metrics(
            summary, tracer.counts, workloads.error_budget(out), elapsed, args.untraced_s, len(tracer.spans)
        )
        result["tree"] = tracing.format_tree(summary["tree"], elapsed)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
