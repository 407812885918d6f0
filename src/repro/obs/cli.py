"""``repro-obs`` — terminal front-end for the flight-recorder layer.

Six subcommands — read-only except ``gc --force`` (the ``fleet``
family maintains the runs index as a side effect)::

    repro-obs tail    <run|journal> [-n 20] [--event generation] [-f]
    repro-obs summary <run|journal> [--json]
    repro-obs compare <baseline> <candidate> [--tol NAME=KIND:TOL[:DIR]]
                      [--summary-json PATH]
    repro-obs fleet   summary|curves|failures|top [--algorithm A]
                      [--experiment E] [--status S] [--json]
    repro-obs gc      [--service ROOT] [--force]
    repro-obs flame   <run|trace.json> [--min-fraction 0.005]

A *run* argument may be a run directory, a ``journal.jsonl`` path, or a
bare run id resolved against the runs root (``REPRO_RUNS_DIR`` or
``runs/``; see :mod:`repro.obs.runs`).  ``compare`` exits non-zero on a
tolerance breach, which is what lets CI gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["main", "build_parser"]


def _resolve_run_path(argument: str, root: Optional[str] = None) -> str:
    """Map a run id / run dir / journal path to a concrete file path."""
    if os.path.exists(argument):
        return argument
    from repro.obs.runs import RunRegistry
    registry = RunRegistry(root)
    run = registry.load_run(argument)  # KeyError lists known runs
    return run.path


def _journal_path(argument: str, root: Optional[str] = None) -> str:
    path = _resolve_run_path(argument, root)
    if os.path.isdir(path):
        path = os.path.join(path, "journal.jsonl")
    return path


def _parse_tolerance(spec: str) -> Tuple[str, Tuple[str, float, str]]:
    """Parse ``NAME=KIND:TOL[:DIR]`` into a tolerance-table entry."""
    try:
        name, rule = spec.split("=", 1)
        parts = rule.split(":")
        kind, tol = parts[0], float(parts[1])
        direction = parts[2] if len(parts) > 2 else None
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            f"bad tolerance {spec!r}; expected NAME=KIND:TOL[:DIR], "
            f"e.g. final_best=rel:0.05:increase"
        )
    if not name.strip():
        raise argparse.ArgumentTypeError(
            f"bad tolerance {spec!r}: empty metric name "
            f"(expected NAME=KIND:TOL[:DIR])"
        )
    if kind not in ("rel", "abs"):
        raise argparse.ArgumentTypeError(
            f"bad tolerance kind {kind!r} in {spec!r} (rel or abs)"
        )
    if direction is not None and direction not in ("increase", "decrease",
                                                   "both"):
        raise argparse.ArgumentTypeError(
            f"bad direction {direction!r} in {spec!r} "
            f"(increase, decrease, or both)"
        )
    return name.strip(), (kind, tol, direction)


# -- subcommands -------------------------------------------------------------

def _cmd_tail(args) -> int:
    """Print the last N events, reading the file backwards.

    The bounded tail read (:func:`repro.obs.journal.read_tail_events`)
    touches only the final blocks of the journal, so tailing a
    multi-gigabyte live run is as cheap as tailing a small one.
    ``--follow`` then streams new events as the run appends them,
    exiting at the ``run_end`` trailer (or on Ctrl-C).
    """
    import time as _time

    from repro.obs.journal import read_tail_events
    path = _journal_path(args.run, args.runs_root)
    events, truncated = read_tail_events(path, args.lines,
                                         event=args.event or None)
    for event in events:
        print(json.dumps(event, separators=(",", ":"), default=str))
    if truncated and not args.follow:
        print("(truncated tail: last line was torn mid-write)",
              file=sys.stderr)
    if not args.follow:
        return 0
    if any(e.get("event") == "run_end" for e in events):
        return 0  # the run already finished; nothing to follow
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            remainder = b""
            while True:
                chunk = handle.read(65536)
                if not chunk:
                    _time.sleep(args.poll)
                    continue
                remainder += chunk
                lines = remainder.split(b"\n")
                remainder = lines.pop()  # partial line stays buffered
                for raw in lines:
                    if not raw:
                        continue
                    try:
                        event = json.loads(raw.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        continue
                    if not isinstance(event, dict):
                        continue
                    if not args.event \
                            or event.get("event") == args.event \
                            or event.get("event") == "run_end":
                        print(json.dumps(event, separators=(",", ":"),
                                         default=str), flush=True)
                    if event.get("event") == "run_end":
                        return 0
    except KeyboardInterrupt:
        return 0


def _cmd_summary(args) -> int:
    from repro.obs.compare import load_summary
    path = _resolve_run_path(args.run, args.runs_root)
    summary = load_summary(path)
    if args.json:
        print(summary.to_json())
        return 0
    print(f"run        : {summary.run_id or '(unknown)'}")
    print(f"source     : {summary.source}")
    print(f"status     : {summary.status}")
    if summary.algorithms:
        print(f"algorithms : {', '.join(summary.algorithms)}")
    rows = [
        ("generations", summary.n_generations),
        ("final best", summary.final_best),
        ("final violation", summary.final_violation),
        ("evaluations", summary.total_nfev),
        ("failures", summary.n_failures),
        ("guard violations", summary.guard_violations),
        ("cache hit rate", summary.cache_hit_rate),
        ("wall time [s]", summary.wall_time_s),
        ("best yield", summary.yield_fraction),
        ("worst-case NF [dB]", summary.worst_case_nf_db),
        ("resumes", summary.n_resumes),
    ]
    for label, value in rows:
        if value is None:
            continue
        rendered = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{label:<16}: {rendered}")
    if summary.truncated_tail or summary.n_corrupt:
        print(f"integrity  : truncated_tail={summary.truncated_tail} "
              f"n_corrupt={summary.n_corrupt}")
    return 0


def _cmd_compare(args) -> int:
    from repro.obs.compare import compare_runs, format_diff
    tolerances: Dict[str, Tuple] = {}
    for name, (kind, tol, direction) in (args.tol or []):
        from repro.obs.compare import DEFAULT_TOLERANCES
        default = DEFAULT_TOLERANCES.get(name, (None, None, "both"))
        tolerances[name] = (kind, tol, direction or default[2])
    counter_checks = {name: tol for name, tol in (args.counter or [])}
    diff = compare_runs(
        _resolve_run_path(args.baseline, args.runs_root),
        _resolve_run_path(args.candidate, args.runs_root),
        tolerances=tolerances or None,
        counter_checks=counter_checks or None,
    )
    if args.summary_json:
        # Archive the full check table regardless of verdict, so a CI
        # gate keeps the evidence of what was compared even on failure.
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            handle.write(diff.to_json() + "\n")
    if args.json:
        print(diff.to_json())
    else:
        print(format_diff(diff))
    return 0 if diff.ok else 1


def _parse_counter(spec: str) -> Tuple[str, float]:
    try:
        name, tol = spec.split("=", 1)
        parsed = name.strip(), float(tol)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad counter check {spec!r}; expected NAME=RELTOL"
        )
    if not parsed[0]:
        raise argparse.ArgumentTypeError(
            f"bad counter check {spec!r}: empty counter name "
            f"(expected NAME=RELTOL)"
        )
    return parsed


def _fleet_view(args):
    from repro.obs.analytics import FleetView, RunIndex
    root = args.runs_root or os.environ.get("REPRO_RUNS_DIR") or "runs"
    index = RunIndex(root)
    if getattr(args, "rebuild", False):
        index.rebuild()
        return FleetView(index=index, refresh=False)
    return FleetView(index=index)


def _fleet_filters(args) -> Dict[str, Optional[str]]:
    return {
        "algorithm": args.algorithm,
        "experiment": args.experiment,
        "config_fingerprint": args.fingerprint,
        "status": args.status,
    }


def _cmd_fleet_summary(args) -> int:
    view = _fleet_view(args)
    summary = view.summary(**_fleet_filters(args))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"runs        : {summary['n_runs']}")
    for label, bucket in (("status", "by_status"),
                          ("algorithm", "by_algorithm"),
                          ("experiment", "by_experiment")):
        tallies = summary[bucket]
        if tallies:
            rendered = ", ".join(f"{key}={count}" for key, count
                                 in sorted(tallies.items()))
            print(f"{label:<12}: {rendered}")
    print(f"evaluations : {summary['total_nfev']}")
    print(f"wall time   : {summary['total_wall_time_s']:.3g} s")
    if summary["best"] is not None:
        print(f"best        : {summary['best']['final_best']:.6g} "
              f"({summary['best']['run_id']})")
    failures = summary["failures"]
    print(f"failures    : {failures['total']} across "
          f"{failures['runs_with_failures']} run(s), "
          f"guard violations {failures['guard_violations']:g}")
    rates = summary["rates"]
    for label, key in (("cache hit rate", "cache_hit_rate"),
                       ("screen fraction", "screen_fraction")):
        value = rates[key]
        if value is not None:
            print(f"{label:<19} : {value:.3f}")
    return 0


def _cmd_fleet_curves(args) -> int:
    view = _fleet_view(args)
    envelopes = view.envelopes(n_grid=args.grid, **_fleet_filters(args))
    if args.json:
        print(json.dumps(envelopes, indent=2, sort_keys=True))
        return 0
    if not envelopes:
        print("no complete convergence curves in the selection")
        return 0
    for label, envelope in envelopes.items():
        print(f"{label} ({envelope['n_runs']} run(s)):")
        print("  progress  median        q25           q75")
        for i, progress in enumerate(envelope["grid"]):
            print(f"  {progress:>8.2f}  {envelope['median'][i]:<12.6g} "
                  f"{envelope['q25'][i]:<12.6g} "
                  f"{envelope['q75'][i]:<12.6g}")
    return 0


def _cmd_fleet_failures(args) -> int:
    view = _fleet_view(args)
    failures = view.failures(**_fleet_filters(args))
    if args.json:
        print(json.dumps(failures, indent=2, sort_keys=True))
        return 0
    print(f"total failures   : {failures['total']}")
    print(f"guard violations : {failures['guard_violations']:g}")
    print(f"affected runs    : {failures['runs_with_failures']}")
    for category, count in sorted(failures["by_category"].items(),
                                  key=lambda kv: (-kv[1], kv[0])):
        print(f"  {category:<16} {count}")
    for worst in failures["worst_runs"]:
        print(f"  worst: {worst['run_id']}  "
              f"({worst['n_failures']} failure(s))")
    return 0


def _cmd_fleet_top(args) -> int:
    view = _fleet_view(args)
    rows = view.top(n=args.n, key=args.key, **_fleet_filters(args))
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if not rows:
        print("no runs with a finite value for that key")
        return 0
    for rank, row in enumerate(rows, 1):
        print(f"{rank:>3}. {row['run_id']:<40} "
              f"{args.key}={row[args.key]:.6g}  "
              f"nfev={row['total_nfev']}  "
              f"[{','.join(row['algorithms']) or '-'}]")
    return 0


def _cmd_gc(args) -> int:
    """Report (or with ``--force`` delete) orphan run directories.

    An orphan is a run whose journal never got its ``run_end`` trailer
    and that no live service job (pending or leased in a ``--service``
    root's queue) still owns.  Live jobs are protected because a
    released or recovered job has no trailer *by design*: its
    checkpoint must survive for lease takeover.

    Reporting is the default; nothing is deleted without ``--force``.
    """
    import shutil

    from repro.obs.runs import find_orphan_runs
    from repro.service.queue import live_job_ids

    service_roots = list(args.service or [])
    scan_roots: List[Tuple[str, Tuple[str, ...]]] = []
    runs_root = args.runs_root or os.environ.get("REPRO_RUNS_DIR") or "runs"
    # A bare runs root that sits inside a service root inherits that
    # service's live-job protection automatically.
    implicit_service = os.path.dirname(os.path.abspath(runs_root))
    protected = tuple(live_job_ids(implicit_service))
    scan_roots.append((runs_root, protected))
    for root in service_roots:
        scan_roots.append((os.path.join(root, "runs"),
                           tuple(live_job_ids(root))))

    orphans: List[dict] = []
    seen_paths = set()
    for root, protected in scan_roots:
        for orphan in find_orphan_runs(root, protected=protected):
            real = os.path.realpath(orphan["path"])
            if real not in seen_paths:
                seen_paths.add(real)
                orphans.append(orphan)

    for orphan in orphans:
        print(f"orphan run     : {orphan['path']}  ({orphan['reason']})")
    if not orphans:
        print("nothing to collect")
        return 0
    if not args.force:
        print(f"(report only: {len(orphans)} orphan run(s); "
              f"rerun with --force to delete)")
        return 0
    n_removed = 0
    for orphan in orphans:
        try:
            shutil.rmtree(orphan["path"])
            n_removed += 1
        except OSError as exc:
            print(f"error: could not remove {orphan['path']!r}: {exc}",
                  file=sys.stderr)
    print(f"deleted {n_removed} orphan run(s)")
    return 0


def _cmd_flame(args) -> int:
    from repro.obs.tracer import Tracer
    path = _resolve_run_path(args.run, args.runs_root)
    if os.path.isdir(path):
        path = os.path.join(path, "trace.json")
    if not os.path.exists(path):
        print(f"no trace export at {path!r} "
              f"(was the run recorded with REPRO_TRACE=1?)",
              file=sys.stderr)
        return 2
    tracer = Tracer.from_json(path)
    print(tracer.format_spans(min_fraction=args.min_fraction))
    return 0


# -- entry point -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Inspect and diff recorded optimization runs.",
    )
    parser.add_argument(
        "--runs-root", default=None,
        help="runs root for bare run-id arguments "
             "(default: $REPRO_RUNS_DIR or ./runs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tail = sub.add_parser("tail", help="print the last journal events")
    tail.add_argument("run", help="run id, run directory, or journal file")
    tail.add_argument("-n", "--lines", type=int, default=20)
    tail.add_argument("--event", default=None,
                      help="only events of this type (e.g. generation)")
    tail.add_argument("-f", "--follow", action="store_true",
                      help="keep streaming new events until run_end")
    tail.add_argument("--poll", type=float, default=0.2,
                      help="follow-mode poll interval in seconds")
    tail.set_defaults(handler=_cmd_tail)

    summary = sub.add_parser("summary", help="summarize one run")
    summary.add_argument("run", help="run id, run directory, journal, "
                                     "or summary JSON")
    summary.add_argument("--json", action="store_true",
                         help="machine-readable RunSummary JSON")
    summary.set_defaults(handler=_cmd_summary)

    compare = sub.add_parser(
        "compare", help="diff two runs; exit 1 on regression")
    compare.add_argument("baseline", help="baseline run/journal/summary/"
                                          "BENCH_*.json")
    compare.add_argument("candidate", help="candidate run/journal/summary")
    compare.add_argument(
        "--tol", action="append", type=_parse_tolerance, metavar="SPEC",
        help="override a tolerance: NAME=KIND:TOL[:DIR], e.g. "
             "final_best=rel:0.05 or n_failures=abs:2:increase "
             "(repeatable)",
    )
    compare.add_argument(
        "--counter", action="append", type=_parse_counter, metavar="SPEC",
        help="also compare a metrics counter: NAME=RELTOL (repeatable)",
    )
    compare.add_argument("--json", action="store_true",
                         help="machine-readable RunDiff JSON")
    compare.add_argument(
        "--summary-json", metavar="PATH", default=None,
        help="also write the full RunDiff check table to PATH "
             "(written even when the diff regresses)",
    )
    compare.set_defaults(handler=_cmd_compare)

    fleet = sub.add_parser(
        "fleet", help="indexed analytics across every run under the "
                      "runs root")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    def _fleet_common(sub_parser):
        sub_parser.add_argument("--algorithm", default=None,
                                help="only runs that ran this algorithm")
        sub_parser.add_argument("--experiment", default=None,
                                help="only runs of this experiment "
                                     "(e5, e12, ...)")
        sub_parser.add_argument("--fingerprint", default=None,
                                help="only runs with this config "
                                     "fingerprint")
        sub_parser.add_argument("--status", default=None,
                                help="only runs with this outcome "
                                     "(completed, failed, incomplete)")
        sub_parser.add_argument("--rebuild", action="store_true",
                                help="drop the index and re-derive every "
                                     "entry from its journal first")
        sub_parser.add_argument("--json", action="store_true",
                                help="machine-readable JSON output")

    fleet_summary = fleet_sub.add_parser(
        "summary", help="headline numbers for the (filtered) fleet")
    _fleet_common(fleet_summary)
    fleet_summary.set_defaults(handler=_cmd_fleet_summary)

    fleet_curves = fleet_sub.add_parser(
        "curves", help="median/IQR convergence envelopes per algorithm")
    _fleet_common(fleet_curves)
    fleet_curves.add_argument("--grid", type=int, default=12,
                              help="points on the normalized progress "
                                   "grid")
    fleet_curves.set_defaults(handler=_cmd_fleet_curves)

    fleet_failures = fleet_sub.add_parser(
        "failures", help="failure taxonomy and guard-violation roll-up")
    _fleet_common(fleet_failures)
    fleet_failures.set_defaults(handler=_cmd_fleet_failures)

    fleet_top = fleet_sub.add_parser(
        "top", help="best runs by a summary key")
    _fleet_common(fleet_top)
    fleet_top.add_argument("-n", type=int, default=10)
    fleet_top.add_argument("--key", default="final_best",
                           help="entry key to rank by (ascending)")
    fleet_top.set_defaults(handler=_cmd_fleet_top)

    gc = sub.add_parser(
        "gc", help="find (and with --force delete) orphaned run "
                   "directories")
    gc.add_argument(
        "--service", action="append", metavar="ROOT",
        help="also scan this service root's runs/, protecting its "
             "live (pending/leased) jobs (repeatable)",
    )
    gc.add_argument("--force", action="store_true",
                    help="delete what the scan found (default: report)")
    gc.set_defaults(handler=_cmd_gc)

    flame = sub.add_parser(
        "flame", help="re-render a trace.json span summary")
    flame.add_argument("run", help="run id, run directory, or trace.json")
    flame.add_argument("--min-fraction", type=float, default=0.005)
    flame.set_defaults(handler=_cmd_flame)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped into head/less that exited early; not an error.
        # Detach stdout so interpreter shutdown doesn't re-raise.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except KeyError as exc:
        # load_run raises KeyError listing the known run ids.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
