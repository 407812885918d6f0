"""Regression diffing of optimization runs.

Two runs — or a run and a committed baseline file — are reduced to
:class:`RunSummary` records and compared check by check with
configurable tolerances, producing a machine-readable verdict CI can
gate on (:class:`RunDiff`).  The summarized quantities mirror the
paper's convergence story: best attainment per generation, final best,
evaluation counts, failure and guard-violation totals, cache hit rate,
and wall time (informational by default — CI machines differ).

Baselines can be:

* another ``journal.jsonl`` (or a run directory containing one);
* a committed ``RunSummary`` JSON (``summary_version`` marker);
* any JSON of numbers — e.g. the ``BENCH_*.json`` artifacts the
  benchmark suite uploads — whose intersecting keys are compared with
  the default relative tolerance.  Nested objects are flattened to
  dotted keys (``host.cpu_count``).

Direction matters: ``final_best`` only regresses when the candidate is
*worse* (larger, all objectives minimize), ``cache_hit_rate`` only when
it *drops*, failure and guard-violation totals only when they *grow*.
Bare-baseline keys follow the same idea: ``speedup*`` and ``*_per_s``
metrics regress only when they *fall*, while ``host.*`` / ``context.*``
keys describe the machine the numbers came from and are reported
informationally, never gated (CI machines differ).  An
identically-seeded rerun therefore reports zero regressions.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.journal import JournalReplay, replay_journal

__all__ = [
    "SUMMARY_VERSION",
    "RunSummary",
    "CheckResult",
    "RunDiff",
    "DEFAULT_TOLERANCES",
    "summarize_journal",
    "summarize_replay",
    "load_summary",
    "compare_summaries",
    "compare_runs",
    "format_diff",
]

#: Bump when the summary field layout changes.
SUMMARY_VERSION = 1

#: name -> (kind, tolerance, direction).  kind: "rel" | "abs" | None
#: (None = informational unless a tolerance is supplied); direction:
#: "increase" / "decrease" (regression only that way) or "both".
DEFAULT_TOLERANCES: Dict[str, Tuple[Optional[str], Optional[float], str]] = {
    "final_best": ("rel", 0.01, "increase"),
    "convergence": ("rel", 0.01, "both"),
    "n_generations": ("abs", 0.0, "both"),
    "total_nfev": ("rel", 0.10, "both"),
    "n_failures": ("abs", 0.0, "increase"),
    "guard_violations": ("abs", 0.0, "increase"),
    "cache_hit_rate": ("abs", 0.05, "decrease"),
    "wall_time_s": (None, None, "increase"),
    # Robust-run columns (absent on nominal runs — skipped as
    # "missing on one side"): yield regresses when it drops,
    # worst-case NF when it grows.
    "yield_fraction": ("abs", 1e-9, "decrease"),
    "worst_case_nf_db": ("rel", 0.01, "increase"),
}

#: Relative tolerance applied to intersecting numeric keys of a bare
#: (non-summary) JSON baseline such as a BENCH_*.json artifact.
BARE_METRIC_REL_TOL = 0.10

#: Dotted-key prefixes of a bare baseline that describe the machine
#: the numbers came from, not the numbers themselves.  Always
#: informational: CI runners and dev boxes legitimately differ.
INFORMATIONAL_PREFIXES = ("host.", "context.")


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _flatten(data: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a (possibly nested) JSON object, dotted keys."""
    flat: Dict[str, float] = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, prefix=name + "."))
        elif _is_num(value):
            flat[name] = float(value)
    return flat


def _bare_rule(name: str) -> Tuple[Optional[str], Optional[float], str]:
    """Default ``(kind, tol, direction)`` for one bare-baseline key."""
    if name.startswith(INFORMATIONAL_PREFIXES):
        return (None, None, "both")
    leaf = name.rsplit(".", 1)[-1]
    if leaf.startswith("speedup") or leaf.endswith("_per_s"):
        # Throughput-style metrics: only a drop is a regression.
        return ("rel", BARE_METRIC_REL_TOL, "decrease")
    return ("rel", BARE_METRIC_REL_TOL, "both")


@dataclass
class RunSummary:
    """The comparable facts of one run.

    ``bare`` marks summaries lifted from a flat numeric JSON (a
    ``BENCH_*.json`` baseline): only their ``counters`` intersection
    participates in the diff.
    """

    run_id: str = ""
    source: str = ""
    status: str = "incomplete"
    algorithms: List[str] = field(default_factory=list)
    n_generations: Optional[int] = None
    best_per_generation: List[float] = field(default_factory=list)
    final_best: Optional[float] = None
    final_violation: Optional[float] = None
    total_nfev: Optional[int] = None
    n_failures: Optional[int] = None
    guard_violations: Optional[float] = None
    cache_hit_rate: Optional[float] = None
    wall_time_s: Optional[float] = None
    yield_fraction: Optional[float] = None
    worst_case_nf_db: Optional[float] = None
    counters: Dict[str, float] = field(default_factory=dict)
    n_resumes: int = 0
    truncated_tail: bool = False
    n_corrupt: int = 0
    bare: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "summary_version": SUMMARY_VERSION,
            "run_id": self.run_id,
            "source": self.source,
            "status": self.status,
            "algorithms": list(self.algorithms),
            "n_generations": self.n_generations,
            "best_per_generation": list(self.best_per_generation),
            "final_best": self.final_best,
            "final_violation": self.final_violation,
            "total_nfev": self.total_nfev,
            "n_failures": self.n_failures,
            "guard_violations": self.guard_violations,
            "cache_hit_rate": self.cache_hit_rate,
            "wall_time_s": self.wall_time_s,
            "yield_fraction": self.yield_fraction,
            "worst_case_nf_db": self.worst_case_nf_db,
            "counters": dict(self.counters),
            "n_resumes": self.n_resumes,
            "truncated_tail": self.truncated_tail,
            "n_corrupt": self.n_corrupt,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunSummary":
        def opt(key, cast):
            value = data.get(key)
            return None if value is None else cast(value)

        return cls(
            run_id=str(data.get("run_id", "")),
            source=str(data.get("source", "")),
            status=str(data.get("status", "incomplete")),
            algorithms=[str(a) for a in data.get("algorithms", [])],
            n_generations=opt("n_generations", int),
            best_per_generation=[
                float(v) for v in data.get("best_per_generation", [])
            ],
            final_best=opt("final_best", float),
            final_violation=opt("final_violation", float),
            total_nfev=opt("total_nfev", int),
            n_failures=opt("n_failures", int),
            guard_violations=opt("guard_violations", float),
            cache_hit_rate=opt("cache_hit_rate", float),
            wall_time_s=opt("wall_time_s", float),
            yield_fraction=opt("yield_fraction", float),
            worst_case_nf_db=opt("worst_case_nf_db", float),
            counters={str(k): float(v)
                      for k, v in dict(data.get("counters", {})).items()},
            n_resumes=int(data.get("n_resumes", 0)),
            truncated_tail=bool(data.get("truncated_tail", False)),
            n_corrupt=int(data.get("n_corrupt", 0)),
        )

    def to_json(self, path: Optional[str] = None, indent: int = 2) -> str:
        text = json.dumps(self.as_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text


def summarize_replay(replay: JournalReplay) -> RunSummary:
    """Reduce a replayed journal to its comparable facts."""
    records = replay.telemetry.records
    algorithms: List[str] = []
    for record in records:
        if record.algorithm not in algorithms:
            algorithms.append(record.algorithm)
    # nfev is cumulative within one algorithm's trace; sum the final
    # counts across algorithms so multi-stage journals report totals.
    total_nfev = 0
    for algorithm in algorithms:
        total_nfev += max(
            r.nfev for r in records if r.algorithm == algorithm
        )

    start, end = replay.run_start, replay.run_end
    wall_time = None
    if start is not None and end is not None:
        wall_time = max(0.0, float(end["t"]) - float(start["t"]))
    elif records:
        wall_time = float(sum(r.wall_time_s for r in records))

    counters: Dict[str, float] = {}
    for event in replay.events:
        raw = event.get("counters")
        if isinstance(raw, dict):  # later snapshots supersede earlier
            counters = {str(k): float(v) for k, v in raw.items()
                        if _is_num(v)}

    hits = counters.get("evaluator.cache_hits")
    misses = counters.get("evaluator.cache_misses")
    hit_rate = None
    if hits is not None and misses is not None and hits + misses > 0:
        hit_rate = hits / (hits + misses)

    run_id = ""
    if start is not None:
        run_id = str(start.get("run_id", ""))

    # Robust runs annotate generation records with named extras (see
    # RobustStateSink); the latest value wins, like the counters.
    yield_fraction = None
    worst_case_nf = None
    for record in reversed(records):
        extra = record.extra or {}
        if yield_fraction is None and "yield_best" in extra:
            yield_fraction = float(extra["yield_best"])
        if worst_case_nf is None and "nf_worst_best" in extra:
            worst_case_nf = float(extra["nf_worst_best"])
        if yield_fraction is not None and worst_case_nf is not None:
            break

    return RunSummary(
        run_id=run_id,
        source=replay.path,
        status=(str(end.get("status", "incomplete"))
                if end is not None else "incomplete"),
        algorithms=algorithms,
        n_generations=len(records),
        best_per_generation=[float(r.best) for r in records],
        final_best=float(records[-1].best) if records else None,
        final_violation=(float(records[-1].violation)
                         if records else None),
        total_nfev=int(total_nfev) if records else None,
        n_failures=(max(r.n_failures for r in records)
                    if records else None),
        guard_violations=counters.get("guards.violations", 0.0),
        cache_hit_rate=hit_rate,
        wall_time_s=wall_time,
        yield_fraction=yield_fraction,
        worst_case_nf_db=worst_case_nf,
        counters=counters,
        n_resumes=replay.n_resumes,
        truncated_tail=replay.truncated_tail,
        n_corrupt=replay.n_corrupt,
    )


def summarize_journal(path: str) -> RunSummary:
    """Replay + summarize a ``journal.jsonl`` file."""
    return summarize_replay(replay_journal(path))


def load_summary(path: str) -> RunSummary:
    """Load a comparable summary from any supported artifact.

    Accepts a run directory (its ``journal.jsonl`` is used), a journal
    file, a ``RunSummary`` JSON, or a flat numeric JSON (``BENCH_*``
    style) whose fields become ``counters`` of a *bare* summary.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "journal.jsonl")
    if path.endswith(".jsonl"):
        return summarize_journal(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(
            f"{path!r} does not contain a JSON object "
            f"(got {type(data).__name__})"
        )
    if "summary_version" in data:
        summary = RunSummary.from_dict(data)
        summary.source = summary.source or path
        return summary
    counters = _flatten(data)
    if not counters:
        raise ValueError(
            f"{path!r} has no summary marker and no numeric fields to "
            f"compare"
        )
    return RunSummary(
        run_id=os.path.basename(path),
        source=path,
        status="baseline",
        counters=counters,
        bare=True,
    )


@dataclass
class CheckResult:
    """One compared quantity and its verdict."""

    name: str
    baseline: Optional[float]
    candidate: Optional[float]
    delta: Optional[float]
    rel_delta: Optional[float]
    kind: Optional[str]          # "rel" | "abs" | None
    tolerance: Optional[float]
    direction: str               # "increase" | "decrease" | "both"
    checked: bool                # False = informational / missing data
    ok: bool
    note: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
            "kind": self.kind,
            "tolerance": self.tolerance,
            "direction": self.direction,
            "checked": self.checked,
            "ok": self.ok,
            "note": self.note,
        }


@dataclass
class RunDiff:
    """The machine-readable verdict of one comparison."""

    baseline: RunSummary
    candidate: RunSummary
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def regressions(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "baseline": self.baseline.source or self.baseline.run_id,
            "candidate": self.candidate.source or self.candidate.run_id,
            "checks": [c.as_dict() for c in self.checks],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)


def _finite(value) -> bool:
    return value is not None and math.isfinite(float(value))


def _evaluate(name: str, baseline, candidate, kind, tolerance,
              direction: str) -> CheckResult:
    """Judge one scalar pair against its tolerance."""
    if baseline is None or candidate is None:
        return CheckResult(name, baseline, candidate, None, None, kind,
                           tolerance, direction, checked=False, ok=True,
                           note="missing on one side")
    baseline = float(baseline)
    candidate = float(candidate)
    both_inf = (math.isinf(baseline) and math.isinf(candidate)
                and baseline == candidate)
    if both_inf:
        return CheckResult(name, baseline, candidate, 0.0, 0.0, kind,
                           tolerance, direction, checked=True, ok=True)
    if not (_finite(baseline) and _finite(candidate)):
        # One side finite, the other not: always a real difference.
        return CheckResult(name, baseline, candidate, None, None, kind,
                           tolerance, direction,
                           checked=kind is not None,
                           ok=kind is None,
                           note="non-finite on one side")
    delta = candidate - baseline
    rel_delta = delta / max(abs(baseline), 1e-12)
    if kind is None or tolerance is None:
        return CheckResult(name, baseline, candidate, delta, rel_delta,
                           kind, tolerance, direction, checked=False,
                           ok=True, note="informational")
    measure = rel_delta if kind == "rel" else delta
    if direction == "increase":
        violated = measure > tolerance
    elif direction == "decrease":
        violated = -measure > tolerance
    else:
        violated = abs(measure) > tolerance
    return CheckResult(name, baseline, candidate, delta, rel_delta, kind,
                       tolerance, direction, checked=True,
                       ok=not violated)


def _convergence_deviation(baseline: List[float],
                           candidate: List[float]) -> Optional[float]:
    """Worst relative deviation between two best-per-generation curves."""
    if not baseline or not candidate:
        return None
    worst = 0.0
    for b, c in zip(baseline, candidate):
        if math.isinf(b) and math.isinf(c) and b == c:
            continue
        if not (math.isfinite(b) and math.isfinite(c)):
            return float("inf")
        worst = max(worst, abs(c - b) / max(abs(b), 1e-12))
    return worst


def compare_summaries(baseline: RunSummary, candidate: RunSummary,
                      tolerances: Optional[Dict[str, Tuple]] = None,
                      counter_checks: Optional[Dict[str, float]] = None,
                      ) -> RunDiff:
    """Diff two summaries into a :class:`RunDiff`.

    *tolerances* overrides entries of :data:`DEFAULT_TOLERANCES` (same
    ``(kind, tol, direction)`` tuples); *counter_checks* maps counter
    names to relative tolerances for opt-in counter comparisons (the
    override replaces the tolerance but keeps the key's default
    direction, so tightening ``speedup_thread_vs_batched`` still only
    fires on a drop).  When either side is *bare* (a flat-JSON
    baseline), the intersection of the two counter sets is compared
    automatically under :func:`_bare_rule` — ``host.`` / ``context.``
    keys stay informational.
    """
    rules = dict(DEFAULT_TOLERANCES)
    if tolerances:
        rules.update(tolerances)
    checks: List[CheckResult] = []

    scalar_fields = ("final_best", "n_generations", "total_nfev",
                     "n_failures", "guard_violations", "cache_hit_rate",
                     "wall_time_s", "yield_fraction", "worst_case_nf_db")
    if not (baseline.bare or candidate.bare):
        for name in scalar_fields:
            kind, tol, direction = rules[name]
            checks.append(_evaluate(
                name, getattr(baseline, name), getattr(candidate, name),
                kind, tol, direction,
            ))
        kind, tol, direction = rules["convergence"]
        deviation = _convergence_deviation(
            baseline.best_per_generation, candidate.best_per_generation
        )
        if deviation is None:
            checks.append(CheckResult(
                "convergence", None, None, None, None, kind, tol,
                direction, checked=False, ok=True,
                note="no generation trace on one side",
            ))
        else:
            checks.append(CheckResult(
                "convergence", 0.0, deviation, deviation, deviation,
                kind, tol, direction, checked=True,
                ok=(tol is None or deviation <= tol),
                note="max relative deviation of best-per-generation",
            ))

    auto_counters = baseline.bare or candidate.bare
    counter_rules: Dict[str, Tuple[Optional[str], Optional[float], str]] = {}
    if auto_counters:
        shared = set(baseline.counters) & set(candidate.counters)
        for name in shared:
            counter_rules[name] = _bare_rule(name)
    for name, tol in (counter_checks or {}).items():
        # An explicit tolerance re-arms even informational keys, but
        # the key's natural direction survives the override.
        direction = counter_rules.get(name, _bare_rule(name))[2]
        counter_rules[name] = ("rel", float(tol), direction)
    for name in sorted(counter_rules):
        kind, tol, direction = counter_rules[name]
        checks.append(_evaluate(
            f"counters.{name}",
            baseline.counters.get(name),
            candidate.counters.get(name),
            kind, tol, direction,
        ))

    return RunDiff(baseline=baseline, candidate=candidate, checks=checks)


def compare_runs(baseline_path: str, candidate_path: str,
                 tolerances: Optional[Dict[str, Tuple]] = None,
                 counter_checks: Optional[Dict[str, float]] = None,
                 ) -> RunDiff:
    """Load two artifacts (see :func:`load_summary`) and diff them."""
    return compare_summaries(
        load_summary(baseline_path), load_summary(candidate_path),
        tolerances=tolerances, counter_checks=counter_checks,
    )


def format_diff(diff: RunDiff) -> str:
    """Render a diff as an aligned verdict table."""

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float) and not value.is_integer():
            return f"{value:.5g}"
        return f"{value:g}"

    lines = [
        f"baseline : {diff.baseline.source or diff.baseline.run_id}",
        f"candidate: {diff.candidate.source or diff.candidate.run_id}",
        f"  {'check':<28} {'baseline':>12} {'candidate':>12} "
        f"{'delta':>11} {'verdict':>10}",
    ]
    for check in diff.checks:
        if not check.checked:
            verdict = "info"
        elif check.ok:
            verdict = "ok"
        else:
            verdict = "REGRESSION"
        delta = check.rel_delta if check.kind == "rel" else check.delta
        suffix = "%" if check.kind == "rel" and delta is not None else ""
        rendered = (f"{100 * delta:+.2f}" if suffix and delta is not None
                    else fmt(delta))
        lines.append(
            f"  {check.name:<28.28} {fmt(check.baseline):>12} "
            f"{fmt(check.candidate):>12} {rendered + suffix:>11} "
            f"{verdict:>10}"
        )
    lines.append(
        f"verdict: {'OK' if diff.ok else 'REGRESSION'} "
        f"({sum(1 for c in diff.checks if c.checked)} checked, "
        f"{len(diff.regressions)} regressed)"
    )
    return "\n".join(lines)
