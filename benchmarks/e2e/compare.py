"""Check a benchmark result against a baseline, workload by workload.

    python3 benchmarks/e2e/compare.py BASELINE.json CANDIDATE.json

Both files are ``run.py --out`` results.  Every end-to-end metric of
``BENCHMARK.json`` may worsen by at most its ``bound`` (a share of the
baseline value); every paper-shape output by at most its tolerance in
``run.QUALITY_METRICS``, operation by operation when both runs started
at the same seed (operation *k* then had the same inputs).  Prints one
row per workload and exits 1 when any pair is out of bounds, 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import QUALITY_METRICS, load_spec


def worsening(base: float, new: float, better: str, kind: str) -> float:
    """How much worse *new* is than *base*; negative means better."""
    change = new - base if better == "lower" else base - new
    if kind == "abs":
        return change
    return change / abs(base) if base else (0.0 if change <= 0 else
                                            float("inf"))


def compare_workload(base: dict, new: dict, spec: dict, same_inputs: bool):
    """``(cells, violations)`` for one workload's pair of results."""
    cells, violations = [], []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        base_value = base["metrics"][name]["value"]
        new_value = new["metrics"][name]["value"]
        worse = worsening(base_value, new_value, metric["better"], "rel")
        cells.append(f"{name} {new_value / base_value - 1:+.1%}")
        if worse > metric["bound"]:
            violations.append(f"{name} worse by {worse:.1%} "
                              f"(bound {metric['bound']:.0%})")
    if same_inputs:
        # Operation k of two runs started at one seed had the same inputs.
        for k, (base_op, new_op) in enumerate(zip(base["ops"], new["ops"])):
            for name, base_value in base_op["quality"].items():
                _, better, kind, tolerance = QUALITY_METRICS[name]
                worse = worsening(base_value, new_op["quality"][name],
                                  better, kind)
                if worse > tolerance:
                    violations.append(
                        f"op {k} {name} worse by {worse:.4g} {kind} "
                        f"(tolerance {tolerance:g})")
    if not new.get("correct", False):
        violations.append("output checks failed")
    return cells, violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    spec = load_spec()
    try:
        with open(args.baseline, encoding="utf-8") as handle:
            base_doc = json.load(handle)
        with open(args.candidate, encoding="utf-8") as handle:
            new_doc = json.load(handle)
        base, new = base_doc["workloads"], new_doc["workloads"]
        same_inputs = all(base_doc["host"][key] == new_doc["host"][key]
                          for key in ("seed", "quick"))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not same_inputs:
        print("different seeds or sizes: outputs not compared")

    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            print(f"{workload:<11} SKIP  not in both results")
            continue
        try:
            cells, violations = compare_workload(
                base[workload], new[workload], spec, same_inputs)
        except (KeyError, TypeError) as exc:
            print(f"error: {workload}: malformed result ({exc})",
                  file=sys.stderr)
            return 2
        verdict = "FAIL" if violations else "ok"
        print(f"{workload:<11} {verdict:<5} {'  '.join(cells)}")
        for violation in violations:
            print(f"{'':<17} {violation}")
        failed |= bool(violations)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
