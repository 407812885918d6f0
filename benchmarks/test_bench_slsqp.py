"""Bench of the batched SLSQP finite-difference stencil.

``test_bench_slsqp_stencil`` times one fixed goal-attainment SLSQP
solve of the LNA problem (the textbook method from the mid-box start,
a capped iteration budget, a cold evaluator cache) two ways: as the
package runs it — each constraint Jacobian's forward-difference
stencil evaluated in one engine call — and with every ``jac`` stripped
from the SLSQP call, so scipy differences the constraints itself, one
engine call per stencil point.  Both must give the identical result
(the same x bytes, ``nfev`` and ``gamma``); the acceptance bar is
>= 1.5x for the stencil.  Writes ``BENCH_slsqp_stencil.json``.
"""

import json
import time
import types

from scipy import optimize as sp_optimize

from repro.core.amplifier import AmplifierTemplate
from repro.core.design import DEFAULT_GOALS
from repro.core.objectives import LnaEvaluator, build_lna_problem
from repro.experiments.common import reference_device
from repro.optimize import goal_attainment as ga

MAX_ITERATIONS = 40
ROUNDS = 7
STENCIL_PER_ROUND = 2
GATE_SPEEDUP = 1.5


def _pointwise_minimize(fun, x0, constraints=(), **kwargs):
    """``scipy.optimize.minimize`` with every ``jac`` stripped."""
    kwargs.pop("jac", None)
    stripped = [{k: v for k, v in c.items() if k != "jac"}
                for c in constraints]
    return sp_optimize.minimize(fun, x0, constraints=stripped, **kwargs)


def test_bench_slsqp_stencil(save_report, report_dir, host_context,
                             monkeypatch):
    template = AmplifierTemplate(reference_device().small_signal)
    oracle = types.SimpleNamespace(minimize=_pointwise_minimize)

    def timed_solve(pointwise):
        """One solve on a fresh problem (a cold evaluator cache); the
        evaluator is built before the clock starts."""
        problem = build_lna_problem(template,
                                    evaluator=LnaEvaluator(template))
        monkeypatch.setattr(ga, "sp_optimize",
                            oracle if pointwise else sp_optimize)
        start = time.perf_counter()
        result = ga.goal_attainment_standard(
            problem, DEFAULT_GOALS, max_iterations=MAX_ITERATIONS)
        return result, time.perf_counter() - start

    # Warm both paths, and hold them to the same answer.
    expected, _ = timed_solve(pointwise=True)
    result, _ = timed_solve(pointwise=False)
    assert result.x.tobytes() == expected.x.tobytes()
    assert (result.nfev, result.gamma) == (expected.nfev, expected.gamma)

    # Alternate the two paths so host-load drift hits both alike; the
    # best of each is the figure of record.
    t_pointwise = t_stencil = float("inf")
    for _ in range(ROUNDS):
        t_pointwise = min(t_pointwise, timed_solve(pointwise=True)[1])
        for _ in range(STENCIL_PER_ROUND):
            t_stencil = min(t_stencil, timed_solve(pointwise=False)[1])
    speedup = t_pointwise / t_stencil

    payload = {
        "max_iterations": MAX_ITERATIONS,
        "nfev": int(result.nfev),
        "pointwise_s": t_pointwise,
        "stencil_s": t_stencil,
        "speedup_stencil_vs_pointwise": speedup,
        "host": host_context(),
    }
    (report_dir / "BENCH_slsqp_stencil.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report = "\n".join([
        f"goal-attainment SLSQP solve on the LNA problem "
        f"({MAX_ITERATIONS} iterations max, {result.nfev} evaluations)",
        f"pointwise differences : {1e3 * t_pointwise:7.1f} ms",
        f"batched stencil       : {1e3 * t_stencil:7.1f} ms  "
        f"speedup {speedup:.2f}x",
    ])
    save_report("BENCH_slsqp_stencil", report)
    print("\n" + report)

    assert speedup >= GATE_SPEEDUP, (
        f"batched stencil only {speedup:.2f}x over pointwise "
        f"differences (needs >= {GATE_SPEEDUP}x)"
    )
