"""Bench: the batched candidate-evaluation engine vs the scalar loop.

Times a 64-candidate population evaluation two ways — per-candidate
scalar loop and one compiled batched solve — and writes
``BENCH_eval_engine.json`` with the timings, throughput, and host
context.  Acceptance bar: >= 3x batched over scalar.
"""

import json
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device

N_CANDIDATES = 64
_TEMPLATE = None
_GRIDS = None


def _shared_template():
    global _TEMPLATE, _GRIDS
    if _TEMPLATE is None:
        _TEMPLATE = AmplifierTemplate(reference_device().small_signal)
        engine = CompiledTemplate(_TEMPLATE, verify=False)
        _GRIDS = (engine.band_grid, engine.guard_grid)
    return _TEMPLATE, _GRIDS


def _scalar_objective(unit_x):
    """Scalar NFmax objective through the netlist path."""
    template, (band, guard) = _shared_template()
    perf = template.evaluate(DesignVariables.from_unit(unit_x), band, guard)
    return float(perf.nf_max_db)


def _best_of(fn, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_bench_eval_engine(save_report, report_dir, host_context):
    template, (band, guard) = _shared_template()
    engine = CompiledTemplate(template)
    rng = np.random.default_rng(20150901)
    population = rng.random((N_CANDIDATES, len(DesignVariables.NAMES)))

    # Warm both paths (imports, first-call allocations).
    engine.performance_batch(population[:2])
    _scalar_objective(population[0])

    t_scalar = _best_of(lambda: [
        _scalar_objective(x) for x in population
    ], repeats=2)
    t_batched = _best_of(lambda: engine.performance_batch(population))

    speedup = t_scalar / t_batched
    payload = {
        "n_candidates": N_CANDIDATES,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_candidates_per_s": N_CANDIDATES / t_scalar,
        "batched_candidates_per_s": N_CANDIDATES / t_batched,
        "speedup_batched_vs_scalar": speedup,
        "host": host_context(),
    }
    (report_dir / "BENCH_eval_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"population of {N_CANDIDATES} candidates",
        f"scalar loop : {1e3 * t_scalar:8.1f} ms "
        f"({N_CANDIDATES / t_scalar:7.1f} candidates/s)",
        f"batched     : {1e3 * t_batched:8.1f} ms "
        f"({N_CANDIDATES / t_batched:7.1f} candidates/s)  "
        f"speedup {speedup:.1f}x",
    ])
    save_report("BENCH_eval_engine", report)
    print("\n" + report)

    assert speedup >= 3.0, (
        f"batched evaluation only {speedup:.2f}x faster than the "
        f"scalar loop (needs >= 3x)"
    )
