"""Bench: thread-sharded population evaluation at population scale.

Times a 256-candidate population of the compiled NFmax objective two
ways — one in-process batch call, and the same call split into row
blocks across ``workers`` threads (``PopulationEvaluator(workers=)``)
— and writes ``BENCH_parallel.json`` with wall times, throughput, the
speedup, and the host context the numbers came from.  The two paths
must return identical rows on every repeat.

The acceptance bar (threads at least break even with the batch) only
arms on hosts with >= 2 CPUs; a one-CPU machine still writes the
artifact so CI's regression diff has a candidate to compare.
"""

import json
import os
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device
from repro.optimize.batching import PopulationEvaluator

N_CANDIDATES = 256
WORKERS = 2
REPEATS = 15
GATE_MIN_CPUS = 2
GATE_SPEEDUP = 1.0


def _nf_max(engine):
    def objective_batch(unit_pop):
        return np.asarray(engine.performance_batch(unit_pop).nf_max_db,
                          dtype=float)

    def objective(unit_x):
        return float(objective_batch(np.atleast_2d(unit_x))[0])

    return objective, objective_batch


def test_bench_parallel(save_report, report_dir, host_context):
    engine = CompiledTemplate(
        AmplifierTemplate(reference_device().small_signal), verify=False)
    objective, objective_batch = _nf_max(engine)
    rng = np.random.default_rng(20150901)
    population = rng.random((N_CANDIDATES, len(DesignVariables.NAMES)))

    batched = PopulationEvaluator(objective, objective_batch)
    with PopulationEvaluator(objective, objective_batch,
                             workers=WORKERS) as threaded:
        # Alternate the two paths so host-load drift hits both alike;
        # the best of each is the figure of record.  Shard threads
        # speed up over their first ~10 calls, hence the repeat count.
        t_batched = t_thread = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            expected = batched(population)
            t_batched = min(t_batched, time.perf_counter() - start)
            start = time.perf_counter()
            values = threaded(population)
            t_thread = min(t_thread, time.perf_counter() - start)
            np.testing.assert_array_equal(values, expected)

    speedup = t_batched / t_thread
    payload = {
        "n_candidates": N_CANDIDATES,
        "batched_s": t_batched,
        "thread_s": t_thread,
        "batched_candidates_per_s": N_CANDIDATES / t_batched,
        "thread_candidates_per_s": N_CANDIDATES / t_thread,
        "speedup_thread_vs_batched": speedup,
        "host": host_context(workers=WORKERS, backend="thread"),
    }
    (report_dir / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"population of {N_CANDIDATES} candidates, {WORKERS} workers",
        f"batched     : {1e3 * t_batched:8.1f} ms "
        f"({N_CANDIDATES / t_batched:7.1f} candidates/s)",
        f"thread      : {1e3 * t_thread:8.1f} ms "
        f"({N_CANDIDATES / t_thread:7.1f} candidates/s)  "
        f"speedup {speedup:.2f}x",
    ])
    save_report("BENCH_parallel", report)
    print("\n" + report)

    cpus = os.cpu_count() or 1
    if cpus >= GATE_MIN_CPUS:
        assert speedup >= GATE_SPEEDUP, (
            f"thread shards only {speedup:.2f}x over the in-process batch "
            f"at {N_CANDIDATES} candidates on {cpus} CPUs "
            f"(needs >= {GATE_SPEEDUP}x)"
        )
