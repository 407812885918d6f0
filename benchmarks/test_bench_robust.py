"""Benches of the robust (tolerance-corner) evaluation paths.

``test_bench_robust_yield`` times a 64-trial Monte-Carlo yield run of
the reference LNA two ways — a scalar per-trial loop of
``AmplifierTemplate.evaluate`` over the same Monte-Carlo boards, and
``monte_carlo_yield`` (one fault-isolated batched engine call for all
trials) — and writes ``BENCH_robust_yield.json``.  Both draw the boards
from the identical RNG stream and agree to <= 1e-9 (the per-variable
draw is checked in ``tests/test_tolerance.py``); the acceptance bar
here is >= 5x for the batched engine at 64 trials.
The timed design ships on some trials and not others, so the yield
it reports is strictly between 0 and 1.

``test_bench_robust_generation_sweep`` times one E12-sized generation
sweep — 24 candidates x the 18-corner book — as the single stacked
engine call of ``RobustEvaluator.evaluate_batch`` against one engine
call per candidate, and writes ``BENCH_robust_sweep.json``.  Both must
give identical figures; the acceptance bar is >= 1.2x for the stack.
"""

import json
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.core.bands import design_grid, stability_grid
from repro.core.tolerance import ToleranceSpec, monte_carlo_yield
from repro.experiments.common import reference_device
from repro.optimize.robust import PENALTY_GT_DB, PENALTY_NF_DB, \
    CornerSet, RobustEvaluator

N_TRIALS = 64
ROBUST_GATE_SPEEDUP = 5.0
#: A design that passes some Monte-Carlo trials and fails others
#: (39 of 64 at seed 0 on the 13/16-point grids), so the timed run
#: exercises both outcomes of the shipping test.
YIELD_DESIGN_UNIT = (0.4413, 0.7124, 0.3227, 0.2215, 0.9542, 0.0757,
                     0.0581, 0.7828, 0.7755, 0.3115)

#: E12's generation: population 24, 10 tolerance corners + 8
#: Monte-Carlo trials, on the 9/12-point grids.
SWEEP_CANDIDATES = 24
SWEEP_MC_TRIALS = 8
SWEEP_REPEATS = 15
SWEEP_ROUNDS = 3
SWEEP_GATE_SPEEDUP = 1.2


def _interleaved_best(slow, fast, rounds=5, fast_per_round=4):
    """Best-of-N of two timings taken round by round.

    Per-run times on a shared box are noisy by 30-50%, and the minimum
    is the only statistic that converges to the unloaded cost; taking
    both in every round keeps a slow spell of the host from landing on
    one side of the ratio only.
    """
    best_slow = best_fast = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        slow()
        best_slow = min(best_slow, time.perf_counter() - start)
        for _ in range(fast_per_round):
            start = time.perf_counter()
            fast()
            best_fast = min(best_fast, time.perf_counter() - start)
    return best_slow, best_fast


def test_bench_robust_yield(save_report, report_dir, host_context):
    template = AmplifierTemplate(reference_device().small_signal)
    nominal = DesignVariables.from_unit(np.array(YIELD_DESIGN_UNIT))
    tolerances = ToleranceSpec()
    band = design_grid(13)
    guard = stability_grid(16)
    compiled = CompiledTemplate(template, band, guard, verify=False)

    def scalar():
        """The per-trial reference loop: the trials' figures and the
        yield under ``monte_carlo_yield``'s default shipping limits."""
        boards = CornerSet.monte_carlo(
            tolerances, N_TRIALS, np.random.default_rng(0)
        ).apply(nominal.to_vector())
        perfs = [template.evaluate(DesignVariables.from_vector(x),
                                   band, guard)
                 for x in boards]
        nf_max = np.array([perf.nf_max_db for perf in perfs])
        ships = [perf.nf_max_db <= 0.8 and perf.gt_min_db >= 13.0
                 and perf.mu_min > 1.0 for perf in perfs]
        return nf_max, float(np.mean(ships))

    def batched():
        return monte_carlo_yield(template, nominal, tolerances,
                                 n_trials=N_TRIALS, seed=0,
                                 band_grid=band, guard_grid=guard,
                                 compiled=compiled)

    # Warm both paths: scratch buffers, allocator pools, the scalar
    # path's per-evaluation circuit assembly caches.
    for _ in range(3):
        batched()
    scalar_nf_max, scalar_yield = scalar()
    batched_result = batched()
    np.testing.assert_allclose(batched_result.nf_max_db, scalar_nf_max,
                               atol=1e-9)
    assert batched_result.yield_fraction == scalar_yield
    assert 0.0 < scalar_yield < 1.0, (
        f"the timed design should ship on some trials and fail others, "
        f"got yield {scalar_yield}")

    # 5 runs of the slow reference loop, 20 of the batched engine.
    t_scalar, t_batched = _interleaved_best(scalar, batched)
    speedup = t_scalar / t_batched

    payload = {
        "n_trials": N_TRIALS,
        "n_frequencies": int(len(band) + len(guard)),
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_trials_per_s": N_TRIALS / t_scalar,
        "batched_trials_per_s": N_TRIALS / t_batched,
        "speedup_batched_vs_scalar": speedup,
        "yield_fraction": scalar_yield,
        "host": host_context(),
    }
    (report_dir / "BENCH_robust_yield.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"{N_TRIALS}-trial Monte-Carlo yield "
        f"({len(band)}+{len(guard)} frequencies)",
        f"scalar  : {1e3 * t_scalar:7.1f} ms "
        f"({N_TRIALS / t_scalar:7.1f} trials/s)",
        f"batched : {1e3 * t_batched:7.1f} ms "
        f"({N_TRIALS / t_batched:7.1f} trials/s)  "
        f"speedup {speedup:.2f}x",
    ])
    save_report("BENCH_robust_yield", report)
    print("\n" + report)

    assert speedup >= ROBUST_GATE_SPEEDUP, (
        f"batched yield engine only {speedup:.2f}x over the scalar "
        f"loop at {N_TRIALS} trials (needs >= {ROBUST_GATE_SPEEDUP}x)"
    )


def _per_candidate_sweep(evaluator, x_physical):
    """The reference sweep: one engine call per candidate's corner book,
    reduced to ``(yield, NFworst, GTworst, muworst, n_quarantined)``."""
    rows = []
    for x in x_physical:
        batch, failures, _ = (
            evaluator._compiled.performance_batch_physical_isolated(
                evaluator.corners.apply(x)))
        healthy = np.array([f is None for f in failures])
        passing = (healthy
                   & (batch.nf_max_db <= evaluator.nf_ship_limit_db)
                   & (batch.gt_min_db >= evaluator.gt_ship_limit_db)
                   & (batch.mu_min > evaluator.mu_ship))
        if np.any(healthy):
            worst = (np.max(batch.nf_max_db[healthy]),
                     np.min(batch.gt_min_db[healthy]),
                     np.min(batch.mu_min[healthy]))
        else:
            worst = (PENALTY_NF_DB, PENALTY_GT_DB, 0.0)
        rows.append((np.mean(passing),) + worst
                    + (np.sum(~healthy),))
    return np.array(rows, dtype=float)


def test_bench_robust_generation_sweep(save_report, report_dir,
                                       host_context):
    template = AmplifierTemplate(reference_device().small_signal)
    evaluator = RobustEvaluator(
        template, n_mc_trials=SWEEP_MC_TRIALS, seed=0,
        band_grid=design_grid(9), guard_grid=stability_grid(12),
        gt_ship_limit_db=11.0)
    n_corners = evaluator.corners.n_corners
    rng = np.random.default_rng(20150901)
    unit_x = rng.random((SWEEP_CANDIDATES, len(DesignVariables.NAMES)))
    x_physical = CompiledTemplate._to_physical(unit_x)

    def stacked():
        return evaluator.evaluate_batch(unit_x, screen=False)

    def per_candidate():
        return _per_candidate_sweep(evaluator, x_physical)

    # Alternate the two paths so host-load drift hits both alike; the
    # best of each is the figure of record.  A round that misses the
    # bar is extended by more interleaved repeats (the minima only
    # tighten), so a burst of load on a shared host cannot fail it.
    t_stacked = t_loop = float("inf")
    for _ in range(SWEEP_ROUNDS):
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            figures = stacked()
            t_stacked = min(t_stacked, time.perf_counter() - start)
            start = time.perf_counter()
            expected = per_candidate()
            t_loop = min(t_loop, time.perf_counter() - start)
            got = np.column_stack([
                figures.yield_fraction, figures.nf_worst_db,
                figures.gt_worst_db, figures.mu_worst,
                figures.n_quarantined])
            np.testing.assert_array_equal(got, expected)
        speedup = t_loop / t_stacked
        if speedup >= SWEEP_GATE_SPEEDUP:
            break

    n_rows = SWEEP_CANDIDATES * n_corners
    payload = {
        "n_candidates": SWEEP_CANDIDATES,
        "n_corners": n_corners,
        "n_frequencies": int(len(evaluator.band_grid)
                             + len(evaluator.guard_grid)),
        "per_candidate_s": t_loop,
        "stacked_s": t_stacked,
        "per_candidate_rows_per_s": n_rows / t_loop,
        "stacked_rows_per_s": n_rows / t_stacked,
        "speedup_stacked_vs_per_candidate": speedup,
        "host": host_context(),
    }
    (report_dir / "BENCH_robust_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"robust generation sweep: {SWEEP_CANDIDATES} candidates x "
        f"{n_corners} corners = {n_rows} rows "
        f"({payload['n_frequencies']} frequencies)",
        f"per candidate : {1e3 * t_loop:7.1f} ms "
        f"({n_rows / t_loop:7.0f} rows/s)",
        f"stacked       : {1e3 * t_stacked:7.1f} ms "
        f"({n_rows / t_stacked:7.0f} rows/s)  speedup {speedup:.2f}x",
    ])
    save_report("BENCH_robust_sweep", report)
    print("\n" + report)

    assert speedup >= SWEEP_GATE_SPEEDUP, (
        f"stacked corner sweep only {speedup:.2f}x over one engine call "
        f"per candidate (needs >= {SWEEP_GATE_SPEEDUP}x)"
    )
