"""Bench: observability overhead on the batched evaluation path.

``CompiledTemplate.performance_batch_isolated`` is a thin instrumented
wrapper (span + counters) around the uninstrumented ``_batch_isolated``
body, so the two give a direct A/B measurement of what the
observability layer costs when tracing is disabled — the tentpole
contract is < 3% on a 64-candidate batched evaluation.  The enabled
cost is reported alongside for context (it has no acceptance bar).

Wall-clock ratios at millisecond scale are noisy; the measurement
interleaves A/B samples, takes best-of-N, and retries with more
repeats before judging, so a scheduler hiccup cannot fail the suite.
"""

import json
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device
from repro.obs import Tracer, set_tracer
from repro.obs.journal import RunJournal, set_journal
from repro.obs.telemetry import GenerationRecord

N_CANDIDATES = 64
MAX_DISABLED_OVERHEAD = 0.03
MAX_ENABLED_JOURNAL_OVERHEAD = 0.05


def _interleaved_best(fn_a, fn_b, repeats):
    """Best-of-N with A/B samples interleaved (shared thermal drift)."""
    best_a = best_b = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def test_bench_disabled_tracing_overhead(save_report, report_dir):
    template = AmplifierTemplate(reference_device().small_signal)
    engine = CompiledTemplate(template, verify=False)
    rng = np.random.default_rng(20150901)
    population = rng.random((N_CANDIDATES, len(DesignVariables.NAMES)))

    def bare():
        engine._batch_isolated(engine._to_physical(population), population)

    def instrumented():
        engine.performance_batch_isolated(population)

    old_tracer = set_tracer(Tracer(enabled=False))
    try:
        bare()
        instrumented()  # warm both paths
        overhead = float("inf")
        for attempt in range(4):
            t_bare, t_instrumented = _interleaved_best(
                bare, instrumented, repeats=5 + 5 * attempt
            )
            overhead = t_instrumented / t_bare - 1.0
            if overhead < MAX_DISABLED_OVERHEAD:
                break

        # Context: what switching tracing ON costs on the same batch.
        enabled_tracer = Tracer(enabled=True)
        set_tracer(enabled_tracer)
        instrumented()
        enabled_tracer.clear()
        t_enabled, _ = _interleaved_best(instrumented, enabled_tracer.clear,
                                         repeats=5)
    finally:
        set_tracer(old_tracer)
    enabled_cost = t_enabled / t_bare - 1.0

    payload = {
        "n_candidates": N_CANDIDATES,
        "bare_s": t_bare,
        "disabled_s": t_instrumented,
        "enabled_s": t_enabled,
        "disabled_overhead": overhead,
        "enabled_overhead": enabled_cost,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    (report_dir / "BENCH_obs_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"population of {N_CANDIDATES} candidates (batched engine)",
        f"uninstrumented body : {1e3 * t_bare:8.2f} ms",
        f"tracing disabled    : {1e3 * t_instrumented:8.2f} ms "
        f"({100 * overhead:+.2f}%, bar < "
        f"{100 * MAX_DISABLED_OVERHEAD:.0f}%)",
        f"tracing enabled     : {1e3 * t_enabled:8.2f} ms "
        f"({100 * enabled_cost:+.2f}%)",
    ])
    save_report("BENCH_obs_overhead", report)
    print("\n" + report)

    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disabled tracing costs {100 * overhead:.2f}% on the batched "
        f"evaluation (bar: < {100 * MAX_DISABLED_OVERHEAD:.0f}%)"
    )


def test_bench_journal_overhead(save_report, report_dir, tmp_path):
    """Flight-recorder cost per generation of the batched evaluator.

    One journaled "generation" = one 64-candidate batch evaluation plus
    one JSONL generation append (buffered; fsync amortized across 16
    events).  The bar is < 5% over the unjournaled generation; with no
    journal installed, the ambient :func:`repro.obs.journal.emit` hook
    must stay within the 3% disabled budget.
    """
    template = AmplifierTemplate(reference_device().small_signal)
    engine = CompiledTemplate(template, verify=False)
    rng = np.random.default_rng(20150901)
    population = rng.random((N_CANDIDATES, len(DesignVariables.NAMES)))
    record = GenerationRecord(
        algorithm="bench", generation=0, nfev=N_CANDIDATES,
        best=1.0, mean=2.0, spread=0.5, wall_time_s=1e-3,
    )

    journal = RunJournal(str(tmp_path / "journal.jsonl"), run_id="bench")

    def plain_generation():
        engine.performance_batch_isolated(population)

    def journaled_generation():
        engine.performance_batch_isolated(population)
        journal(record)

    old_journal = set_journal(None)
    old_tracer = set_tracer(Tracer(enabled=False))
    try:
        plain_generation()
        journaled_generation()  # warm both paths
        enabled_overhead = float("inf")
        for attempt in range(4):
            t_plain, t_journaled = _interleaved_best(
                plain_generation, journaled_generation,
                repeats=5 + 5 * attempt,
            )
            enabled_overhead = t_journaled / t_plain - 1.0
            if enabled_overhead < MAX_ENABLED_JOURNAL_OVERHEAD:
                break
    finally:
        set_tracer(old_tracer)
        set_journal(old_journal)
        journal.close()

    payload = {
        "n_candidates": N_CANDIDATES,
        "plain_s": t_plain,
        "journaled_s": t_journaled,
        "enabled_overhead": enabled_overhead,
        "max_enabled_overhead": MAX_ENABLED_JOURNAL_OVERHEAD,
    }
    (report_dir / "BENCH_journal_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"one generation = {N_CANDIDATES}-candidate batch evaluation",
        f"no journal          : {1e3 * t_plain:8.2f} ms",
        f"journal enabled     : {1e3 * t_journaled:8.2f} ms "
        f"({100 * enabled_overhead:+.2f}%, bar < "
        f"{100 * MAX_ENABLED_JOURNAL_OVERHEAD:.0f}%)",
    ])
    save_report("BENCH_journal_overhead", report)
    print("\n" + report)

    assert enabled_overhead < MAX_ENABLED_JOURNAL_OVERHEAD, (
        f"journaling costs {100 * enabled_overhead:.2f}% per generation "
        f"(bar: < {100 * MAX_ENABLED_JOURNAL_OVERHEAD:.0f}%)"
    )
