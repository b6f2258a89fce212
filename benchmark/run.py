"""weilgap benchmark: one run of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each job is a closed loop: one fresh
process (benchmark/job.py) runs the workload start to finish, the next
starts after it ends, and no job starts that would end after S seconds,
except that the first two always run.  Extra processes that stop once their inputs are
ready give more set-up samples.  The untraced run reports medians over its
jobs of times at the reference host speed (see hostspeed.py); the traced run
makes one untraced and one traced job and reports the per-layer metrics, the
span tree and the tracing overhead, in wall seconds.

A human-readable report goes to standard output, the full record to
benchmark/out/, and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HARD_LIMIT_S = 170  # a run must end within 180 s
MIN_JOBS = 2  # so that a workload whose job takes half a run still gets a median of two
MIN_SETUP_SAMPLES = 7

END_TO_END_UNITS = {"time_to_result_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "fe_digits": "digits"}

# Which spans should carry most of each workload's traced time.
PREDICTIONS = {
    "exact-presentation": ("presentation.self_s", "linalg.self_s"),
    "converse-desk": ("series.self_s", "analytic.self_s"),
    "infinite-order": (
        "multiplier.MultiplierSystem.evaluate.busy_s",
        "series.coeffs_via_fourier_extraction.busy_s",
    ),
}


class ChildFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _spawn(args, mode: str, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--spawned-at", repr(time.time()), *extra,
    ]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise ChildFailed(f"{mode} process exited with {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def _count_checks(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    names: list[str] = []
    for r in results:
        if "error" in r:  # a job that raised is one attempted, failed check
            attempted, failed = attempted + 1, failed + 1
            names.append(r["error"])
            continue
        attempted += r["checks"]["attempted"]
        failed += len(r["checks"]["failed"])
        names += r["checks"]["failed"]
    return attempted, failed, names


def _untraced(args, start: float, hard: float) -> tuple[dict, list[dict], list[str]]:
    deadline = start + args.seconds
    jobs: list[dict] = []
    while True:
        t = time.monotonic()
        jobs.append(_spawn(args, "job", hard))
        took = time.monotonic() - t
        if len(jobs) >= MIN_JOBS and time.monotonic() + took > deadline:
            break
    setups = [j["setup_s"] for j in jobs]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(_spawn(args, "setup", hard)["setup_s"])
    done = [j for j in jobs if "error" not in j]
    if not done:
        raise ChildFailed("every job raised")
    samples = {
        "time_to_result_s": [j["time_to_result_s"] for j in done],
        "setup_s": setups,
        "peak_rss_mb": [j["peak_rss_mb"] for j in done],
        "fe_digits": [j["fe_digits"] for j in done],
    }
    metrics = {
        name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
        for name, values in samples.items()
    }
    lines = []
    for name, values in samples.items():
        lines.append(
            f"{name:<20} {metrics[name]['value']:>12.6g} {END_TO_END_UNITS[name]:<7}"
            f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"
        )
    walls = [j["wall_s"] for j in done]
    speeds = [j["host_speed"] for j in done]
    lines.append(
        f"the times are at the reference host speed; the jobs took {statistics.median(walls):.6g} s "
        f"of wall time (median; min {min(walls):.6g}, max {max(walls):.6g}) at host speeds "
        f"{min(speeds):.3f}-{max(speeds):.3f} of the reference"
    )
    return metrics, jobs, lines


def _traced(args, hard: float) -> tuple[dict, list[dict], list[str]]:
    plain = _spawn(args, "job", hard)
    if "error" in plain:
        raise ChildFailed("the untraced job raised")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    traced = _spawn(
        args, "trace", hard, "--untraced-s", repr(plain["wall_s"]), "--spans-out", str(spans)
    )
    if "error" in traced:
        raise ChildFailed("the traced job raised")
    metrics = traced["per_layer"]
    total = metrics["trace.traced_time_to_result_s"]["value"]
    untraced = metrics["trace.untraced_time_to_result_s"]["value"]
    lines = traced["tree"] + [""]
    lines += [f"{name:<60} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    overhead = metrics["trace.overhead_s"]["value"]
    lines.append(
        f"tracing overhead: {overhead:.3f} s = traced {total:.3f} s - untraced {untraced:.3f} s "
        f"({overhead / untraced:+.1%} of untraced); spans in {spans.relative_to(ROOT)}"
    )
    parts = PREDICTIONS[args.workload]
    carried = sum(metrics[name]["value"] for name in parts)
    verdict = "holds" if carried > 0.5 * total else "DOES NOT HOLD"
    lines.append(
        f"prediction {verdict}: {' + '.join(parts)} = {carried:.3f} s of {total:.3f} s traced "
        f"({carried / total:.1%}; 'most' means > 50%)"
    )
    return metrics, [plain, traced], lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "weilgap" / "__init__.py").is_file():
        print(f"no weilgap sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    start = time.monotonic()
    hard = start + HARD_LIMIT_S
    load = os.getloadavg()
    try:
        if args.trace:
            metrics, results, lines = _traced(args, hard)
        else:
            metrics, results, lines = _untraced(args, start, hard)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failed_names = _count_checks(results)
    env = results[0]["env"]

    print(f"weilgap benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, mpmath {env['mpmath']} "
          f"(backend {env['mpmath_backend']}), nproc {env['nproc']}, "
          f"load average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    print("\n".join(lines))
    print(f"{'checks_failed_frac':<20} {failed / attempted:>12.6g} {'fraction':<7}"
          f"{failed} of {attempted} checks failed{': ' + ', '.join(failed_names) if failed else ''}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "load_average_at_start": load,
              "wall_s": time.monotonic() - start, "children": results, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
