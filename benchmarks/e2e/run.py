"""End-to-end GNSS-LNA design benchmark.

One workload, its metrics as one JSON object on the last line::

    python3 benchmarks/e2e/run.py --workload design --seed 3 --seconds 20 --trace 0

All four workloads in sequence, written to one result file::

    python3 benchmarks/e2e/run.py --seed 0 --out result.json [--trace]

Each workload runs in fresh subprocesses, one at a time, with the
BLAS/OpenMP pools pinned to one thread: five set-up probes (the
median is ``setup_s``), then one measuring process.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
reports its per-layer metrics from traced repetitions.  Output checks
on the paper's shapes decide ``correct``; the exit code is 1 when a
check fails.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SETUP_PROBES = 5
#: Wall-clock budget of one workload, set-up probes included.
BUDGET_S = 170.0

#: Paper-shape outputs reported next to the end-to-end metrics, with
#: how much each may worsen before ``compare.py`` flags it:
#: name -> (unit, better, "abs" | "rel", tolerance).
QUALITY_METRICS = {
    "nf_db": ("dB", "lower", "abs", 0.005),
    "gt_db": ("dB", "higher", "abs", 0.05),
    "feasible_frac": ("fraction", "higher", "abs", 0.0),
    "hypervolume": ("dB^2", "higher", "rel", 0.02),
    "yield": ("fraction", "higher", "abs", 0.0),
    "success_rate": ("fraction", "higher", "abs", 0.0),
    "rms_pct": ("%", "lower", "abs", 0.02),
    "failed_frac": ("fraction", "lower", "abs", 0.0),
}


class BenchmarkError(RuntimeError):
    """A workload process failed or produced no result."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # The program's defaults are what is measured.
    for var in ("REPRO_TRACE", "REPRO_GUARDS", "REPRO_RUNS_DIR"):
        env.pop(var, None)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, deadline: float, echo: bool = False) -> str:
    """Run ``workloads.py *args``; its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("workload budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(
            f"workloads.py {' '.join(args)} timed out") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"workloads.py {' '.join(args)} exited {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return lines[-1]


def setup_seconds(workload: str, quick: bool, deadline: float):
    """Median cold start, process spawn to workload ready: in seconds of
    the reference host, and unscaled."""
    args = ["setup", workload] + (["--quick"] if quick else [])
    scaled, unscaled = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        ready, speed = map(float, run_child(args, deadline).split())
        unscaled.append(ready - spawned)
        scaled.append((ready - spawned) * speed)
    return statistics.median(scaled), statistics.median(unscaled)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool, spec: dict) -> dict:
    """One workload's result: metrics, checks and details."""
    deadline = time.monotonic() + BUDGET_S
    if not trace:
        setup_s, setup_unscaled_s = setup_seconds(workload, quick, deadline)
    args = ["measure", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        args.append("--quick")
    print(f"{workload}: seed {seed}, {seconds:g} s"
          f"{', traced' if trace else ''}", flush=True)
    result = json.loads(run_child(args, deadline, echo=True))
    if trace:
        key, values = "per_layer", result.get("per_layer", {})
    else:
        result["setup_unscaled_s"] = setup_unscaled_s
        key, values = "metrics", {
            "setup_s": setup_s,
            "evals_per_ref_s": result.get("evals_per_ref_s"),
            "rss_mb": result.get("rss_mb")}
    section = spec["per_layer" if trace else "end_to_end"]
    result[key] = {m["name"]: {"value": values.get(m["name"]),
                               "unit": m["unit"]}
                   for m in section}
    result["correct"] = (result["failed"] == 0 and result["attempted"] > 0
                         and all(result["checks"].values())
                         and all(m["value"] is not None
                                 for m in result[key].values()))
    return result


def print_report(result: dict) -> None:
    name = result["workload"]
    for check, ok in result["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    for key in ("metrics", "per_layer"):
        for metric, entry in result.get(key, {}).items():
            print(f"  {name} {metric} = {entry['value']} {entry['unit']}")
    if "wall_s" in result:
        wall = result["wall_s"]
        print(f"  {name} wall_s = {wall['median']:.4g} s per operation "
              f"(q1 {wall['q1']:.4g}, q3 {wall['q3']:.4g}, "
              f"n {wall['n']}), evals = {result['evals']:g}")
    if "setup_unscaled_s" in result:
        print(f"  {name} unscaled: evals_per_s = "
              f"{result['evals_per_s']:.6g} 1/s, setup = "
              f"{result['setup_unscaled_s']:.4g} s, host speed "
              f"{result['host_speed']:.3f} x reference")
    for metric, value in result.get("quality", {}).items():
        print(f"  {name} {metric} = {value:.6g} {QUALITY_METRICS[metric][0]}")
    for metric, value in result.get("engine_call_us", {}).items():
        print(f"  {name} {metric} = {value:.1f} us")


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def write_out(path: str, results: dict, args) -> None:
    host = next(iter(results.values())).get("host", {})
    document = {
        "host": dict(host, seed=args.seed, seconds=args.seconds,
                     quick=args.quick, git_rev=git_revision(),
                     platform=platform.platform()),
        "workloads": results,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workload", choices=names,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the detailed result here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, paper-shape checks off")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    results = {}
    try:
        if args.workload is not None:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.quick, spec)
            results[args.workload] = result
            print_report(result)
        else:
            for name in names:
                result = run_workload(name, args.seed, args.seconds, False,
                                      args.quick, spec)
                if args.trace:
                    traced = run_workload(name, args.seed, args.seconds,
                                          True, args.quick, spec)
                    result["checks"].update(traced["checks"])
                    result["correct"] &= traced["correct"]
                    result["attempted"] += traced["attempted"]
                    result["failed"] += traced["failed"]
                    for key in ("per_layer", "traced_ops", "engine_call_us"):
                        if key in traced:
                            result[key] = traced[key]
                results[name] = result
                print_report(result)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        write_out(args.out, results, args)
    correct = all(r["correct"] for r in results.values())
    if args.workload is not None:
        print(json.dumps({
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["per_layer" if args.trace else "metrics"],
        }))
    else:
        print(f"all workloads {'correct' if correct else 'NOT correct'}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
