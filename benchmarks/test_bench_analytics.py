"""Bench: indexed fleet analytics and warm-started optimization.

Two gates, two artifacts:

* ``BENCH_analytics.json`` — a 120-run synthetic fleet is summarized
  through the warm :class:`~repro.obs.analytics.RunIndex` path (one
  index read + one ``stat`` per run) and through the per-journal replay
  path (every journal re-parsed end to end).  The acceptance bar is a
  >= 10x speedup for the indexed path; the index's answers must agree
  with replay's exactly first.
* ``BENCH_warmstart.json`` — a cold DE run and a cold NSGA-II run are
  archived (journaling their ``final_population``), then rerun
  warm-started from the archive via
  :func:`~repro.obs.analytics.warm_start_population`.  The warm run
  must reach the cold run's final best within <= 70% of the cold run's
  evaluations.  Every number in the artifact is a deterministic
  evaluation count (fixed seeds, pure-numpy objectives, no timings),
  so CI diffs it against the committed baseline exactly.
"""

import json
import os
import time

import numpy as np

from repro.obs.analytics import (
    FleetView,
    RunIndex,
    index_entry_from_journal,
    warm_start_population,
)
from repro.obs.journal import RunJournal, set_journal
from repro.obs.metrics import Metrics
from repro.obs.telemetry import GenerationRecord
from repro.optimize.metaheuristics import differential_evolution
from repro.optimize.nsga2 import MultiObjectiveProblem, nsga2

N_RUNS = 120
N_GENERATIONS = 150
INDEX_GATE_SPEEDUP = 10.0
WARMSTART_GATE_RATIO = 0.7


def _best_of(fn, repeats=5):
    """Minimum over repeats: the only statistic that converges to the
    unloaded cost on a shared box."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _write_fleet(root, n_runs=N_RUNS, n_generations=N_GENERATIONS):
    """A synthetic fleet: real journal bytes, no optimizer in the loop."""
    for i in range(n_runs):
        run_id = f"synth-{i:04d}"
        run_path = os.path.join(root, run_id)
        os.makedirs(run_path, exist_ok=True)
        journal = RunJournal(os.path.join(run_path, "journal.jsonl"),
                             run_id=run_id)
        journal.run_start(config={"experiment": "synthetic",
                                  "seed": i},
                          seeds={"seed": i})
        for g in range(n_generations):
            best = 10.0 * (0.97 ** g) + 0.01 * (i % 7)
            journal(GenerationRecord(
                algorithm="differential_evolution", generation=g,
                nfev=(g + 1) * 16, best=best, mean=best + 0.5,
                spread=0.1, wall_time_s=0.001))
        journal.run_end(status="completed", metrics=Metrics())
        journal.close()


def test_bench_index_vs_replay(tmp_path, save_report, report_dir,
                               host_context):
    root = str(tmp_path / "fleet")
    _write_fleet(root)
    registry_ids = sorted(os.listdir(root))

    def replay_all():
        return {
            run_id: index_entry_from_journal(
                os.path.join(root, run_id, "journal.jsonl"), run_id)
            for run_id in registry_ids
        }

    index = RunIndex(root)
    index.refresh()  # build once; the warm path is what fleets pay

    def indexed_summary():
        return FleetView(root).summary()

    # Correctness before speed: the indexed entries must be exactly the
    # replayed entries (the index is a cache, never a second truth).
    replayed = replay_all()
    indexed = index.entries(refresh=True)
    assert indexed == replayed
    summary = indexed_summary()
    assert summary["n_runs"] == N_RUNS
    assert summary["by_status"] == {"completed": N_RUNS}

    t_replay = _best_of(replay_all, repeats=3)
    t_indexed = _best_of(indexed_summary, repeats=5)
    speedup = t_replay / t_indexed

    payload = {
        "n_runs": N_RUNS,
        "n_generations": N_GENERATIONS,
        "replay_s": t_replay,
        "indexed_s": t_indexed,
        "replay_runs_per_s": N_RUNS / t_replay,
        "indexed_runs_per_s": N_RUNS / t_indexed,
        "speedup_index_vs_replay": speedup,
        "host": host_context(),
    }
    (report_dir / "BENCH_analytics.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    report = "\n".join([
        f"{N_RUNS}-run fleet summary ({N_GENERATIONS} generations each)",
        f"replayed : {1e3 * t_replay:8.1f} ms "
        f"({N_RUNS / t_replay:8.1f} runs/s)",
        f"indexed  : {1e3 * t_indexed:8.1f} ms "
        f"({N_RUNS / t_indexed:8.1f} runs/s)  speedup {speedup:.1f}x",
    ])
    save_report("BENCH_analytics", report)
    print("\n" + report)

    assert speedup >= INDEX_GATE_SPEEDUP, (
        f"indexed fleet summary only {speedup:.1f}x over per-journal "
        f"replay at {N_RUNS} runs (needs >= {INDEX_GATE_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------

def rosenbrock4(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _recorded(root, run_id, config, body):
    """Run *body* with an active journal in ``<root>/<run_id>/``."""
    run_path = os.path.join(root, run_id)
    os.makedirs(run_path, exist_ok=True)
    journal = RunJournal(os.path.join(run_path, "journal.jsonl"),
                         run_id=run_id)
    journal.run_start(config=config, seeds={"seed": config.get("seed")})
    previous = set_journal(journal)
    try:
        result = body(journal)
    finally:
        set_journal(previous)
        journal.run_end(status="completed", metrics=Metrics())
        journal.close()
    return result


def _nfev_to_match(records, target):
    """Evaluations until a generation's best first reaches *target*."""
    for record in records:
        if record.best <= target:
            return int(record.nfev)
    return None


def test_bench_warmstart(tmp_path, save_report, report_dir,
                         host_context):
    root = str(tmp_path / "archive")
    lower4, upper4 = [-2.0] * 4, [2.0] * 4
    de_kwargs = dict(population_size=16, max_iterations=60, seed=1)

    cold_config = {"bench": "warmstart-de", "dim": 4, "seed": 1}
    cold_records = []
    cold = _recorded(root, "cold-de", cold_config, lambda journal:
                     differential_evolution(
                         rosenbrock4, lower4, upper4,
                         on_generation=cold_records.append,
                         **de_kwargs))

    warm_config = {"bench": "warmstart-de", "dim": 4, "seed": 2}
    seeds = warm_start_population(warm_config, root,
                                  algorithm="differential_evolution",
                                  population_size=16)
    assert seeds is not None and seeds.shape == (16, 4)
    warm_records = []
    warm_kwargs = dict(de_kwargs, seed=2)
    differential_evolution(rosenbrock4, lower4, upper4,
                           initial_population=seeds,
                           on_generation=warm_records.append,
                           **warm_kwargs)
    de_match = _nfev_to_match(warm_records, cold.fun)
    assert de_match is not None, "warm DE never reached the cold best"
    de_ratio = de_match / cold.nfev

    # NSGA-II over a biobjective bowl pair; best == min first objective.
    problem = MultiObjectiveProblem(
        evaluate=lambda x: (np.column_stack([
            np.sum((x - 0.5) ** 2, axis=1),
            np.sum((x + 0.5) ** 2, axis=1),
        ]), np.zeros((len(x), 0))),
        n_objectives=2,
        lower=np.array([-1.0, -1.0, -1.0]),
        upper=np.array([1.0, 1.0, 1.0]),
    )
    nsga_kwargs = dict(population_size=16, n_generations=25, seed=1)
    cold_nsga_records = []
    cold_nsga = _recorded(
        root, "cold-nsga2", {"bench": "warmstart-nsga2", "seed": 1},
        lambda journal: nsga2(problem,
                              on_generation=cold_nsga_records.append,
                              **nsga_kwargs))
    cold_nsga_best = min(r.best for r in cold_nsga_records)

    nsga_seeds = warm_start_population(
        {"bench": "warmstart-nsga2", "seed": 2}, root,
        algorithm="nsga2", population_size=16)
    assert nsga_seeds is not None and nsga_seeds.shape[1] == 3
    warm_nsga_records = []
    nsga2(problem, initial_population=nsga_seeds,
          on_generation=warm_nsga_records.append,
          **dict(nsga_kwargs, seed=2))
    nsga_match = _nfev_to_match(warm_nsga_records, cold_nsga_best)
    assert nsga_match is not None, "warm NSGA-II never reached cold best"
    nsga_ratio = nsga_match / cold_nsga.nfev

    payload = {
        "cold_nfev_de": int(cold.nfev),
        "warm_nfev_to_match_de": int(de_match),
        "ratio_warm_vs_cold_de": de_ratio,
        "speedup_warmstart_de": cold.nfev / de_match,
        "cold_nfev_nsga2": int(cold_nsga.nfev),
        "warm_nfev_to_match_nsga2": int(nsga_match),
        "ratio_warm_vs_cold_nsga2": nsga_ratio,
        "speedup_warmstart_nsga2": cold_nsga.nfev / nsga_match,
        "host": host_context(),
    }
    (report_dir / "BENCH_warmstart.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    report = "\n".join([
        "warm-started evaluations to reach the cold run's final best",
        f"DE      : cold {cold.nfev:5d} evals, warm matched at "
        f"{de_match:5d} ({100 * de_ratio:.1f}%)",
        f"NSGA-II : cold {cold_nsga.nfev:5d} evals, warm matched at "
        f"{nsga_match:5d} ({100 * nsga_ratio:.1f}%)",
    ])
    save_report("BENCH_warmstart", report)
    print("\n" + report)

    assert de_ratio <= WARMSTART_GATE_RATIO, (
        f"warm DE needed {100 * de_ratio:.0f}% of the cold budget "
        f"(gate: <= {100 * WARMSTART_GATE_RATIO:.0f}%)"
    )
    assert nsga_ratio <= WARMSTART_GATE_RATIO, (
        f"warm NSGA-II needed {100 * nsga_ratio:.0f}% of the cold "
        f"budget (gate: <= {100 * WARMSTART_GATE_RATIO:.0f}%)"
    )
