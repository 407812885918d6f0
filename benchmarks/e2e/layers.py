"""Outside-in per-layer tracer for the end-to-end benchmark.

A traced repetition times every layer of the program without touching
``src/``: :class:`LayerTracer` replaces the public entry points of each
layer's module (or the name a caller bound them to) with timing
wrappers, and restores the originals when the repetition ends.  Layer
names are module names.

Self time is stack based: a span's duration minus the time covered by
the spans it encloses, so the self times of all layers partition the
covered wall time exactly.  The workload code opens the root
``optimize`` span around each optimizer call; everything the optimizer
does outside a wrapped layer is optimizer bookkeeping.
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import contextmanager
from typing import Dict, List

#: Every layer the tracer times, in table order.
LAYERS = (
    "optimize",
    "core.objectives",
    "core.engine",
    "devices",
    "passives",
    "analysis",
    "rf",
    "guards",
    "core.amplifier",
    "optimize.robust",
    "obs.journal",
    "optimize.checkpoint",
    "optimize.direct",
)

#: Layers whose call counts are reported as their own metric.
COUNTED_LAYERS = ("devices", "passives", "analysis", "rf", "guards",
                  "core.amplifier", "optimize.direct")

_PROBLEM_CALLABLES = ("objectives", "constraints", "objectives_batch",
                      "constraints_batch")


def _rows(args) -> int:
    """Rows of the design matrix passed to an engine entry point."""
    x = args[1]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


class LayerTracer:
    """Wraps the program's layers for one traced repetition.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original, even when the repetition raised.  Spans
    are timed with *clock*.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Dict[str, float] = {}
        self.journal_bytes: Dict[str, int] = {}  # path -> size
        self.engine_call_s: List[float] = []
        self._stack: List[list] = []     # [layer, start, child seconds]
        self._patches: List[tuple] = []  # (owner, name, original)

    # -- spans --------------------------------------------------------------
    def _enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def _exit(self) -> float:
        layer, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def span(self):
        """The root ``optimize`` span, opened by the workload code."""
        self._enter("optimize")
        try:
            yield
        finally:
            self._exit()

    def _count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, fn, after=None):
        """*fn* timed as *layer*; ``after(duration, args, result)`` runs
        outside the span once the call returned."""
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self._exit()
            if after is not None:
                after(duration, args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------
    def patch(self, owner, name: str, layer: str, after=None) -> None:
        """Replace ``owner.name`` (a module or class attribute defined
        on *owner* itself) with its timed wrapper."""
        original = vars(owner)[name]
        setattr(owner, name, self.wrap(layer, original, after))
        self._patches.append((owner, name, original))

    def _patch_builder(self, owner, name: str, layer: str) -> None:
        """Wrap the callables of every problem ``owner.name`` builds."""
        original = vars(owner)[name]

        def build(*args, **kwargs):
            problem = original(*args, **kwargs)
            return dataclasses.replace(problem, **{
                field: self.wrap(layer, getattr(problem, field))
                for field in _PROBLEM_CALLABLES
                if getattr(problem, field) is not None
            })

        setattr(owner, name, build)
        self._patches.append((owner, name, original))

    def install(self) -> "LayerTracer":
        from repro.analysis import compiled, sparsemna
        from repro.core import amplifier, design, engine, objectives
        from repro.devices import dcmodels, reference, smallsignal
        from repro.experiments import e12_robust_front
        from repro.guards import contracts
        from repro.obs import journal
        from repro.optimize import checkpoint, extraction, robust
        from repro.passives import rlc
        from repro.rf import conversions

        self._patch_builder(design, "build_lna_problem", "core.objectives")
        self._patch_builder(e12_robust_front, "build_robust_problem",
                            "optimize.robust")
        for name in ("performance", "performance_batch"):
            self.patch(objectives.LnaEvaluator, name, "core.objectives")

        for name in ("performance", "performance_batch",
                     "performance_batch_physical",
                     "performance_batch_isolated",
                     "performance_batch_physical_isolated"):
            self.patch(engine.CompiledTemplate, name, "core.engine",
                       self._after_engine)
        # Compile (stamp plan, sparse plan, scalar verification).
        self.patch(engine.CompiledTemplate, "__init__", "core.engine")

        for name in ("ids", "gm", "gds"):
            self.patch(reference.GoldenDC, name, "devices")
        for name in ("gm", "gds"):
            self.patch(dcmodels.FetDcModel, name, "devices")
        for model in dcmodels.FetDcModel.__subclasses__():
            if "ids" in vars(model):
                self.patch(model, "ids", "devices")
        for name in ("cgs", "cgd"):
            self.patch(smallsignal.CapacitanceModel, name, "devices")

        for name in ("murata_style_capacitor", "coilcraft_style_inductor",
                     "_two_terminal_stack"):
            self.patch(engine, name, "passives")
        self.patch(rlc._PassiveTwoTerminal, "admittance", "passives")

        for name in ("solve_tensor_batch", "solve_tensor_batch_isolated"):
            self.patch(engine, name, "analysis", self._after_dense_solve)
        self.patch(sparsemna.SparsePlan, "solve_rows", "analysis",
                   self._after_sparse_solve)

        self.patch(conversions, "s_to_abcd", "rf")
        for name in ("ca_from_cy", "mu_source"):
            self.patch(engine, name, "rf")

        self.patch(engine, "observe_condition", "guards")
        self.patch(compiled, "observe_condition", "guards")
        self.patch(sparsemna, "observe_residual", "guards")
        for name in contracts.__all__:
            if callable(vars(contracts)[name]) and \
                    not isinstance(vars(contracts)[name], type):
                self.patch(contracts, name, "guards")

        self.patch(amplifier.AmplifierTemplate, "evaluate", "core.amplifier")

        self.patch(robust.RobustEvaluator, "evaluate_batch",
                   "optimize.robust")
        for name in ("predict", "observe"):
            self.patch(robust.QuadraticSurrogate, name, "optimize.robust",
                       self._after_surrogate)

        self.patch(journal.RunJournal, "append", "obs.journal",
                   self._after_journal_append)
        self.patch(journal.RunJournal, "flush", "obs.journal")
        self.patch(checkpoint.FileCheckpointStore, "save",
                   "optimize.checkpoint", self._after_checkpoint_save)

        self.patch(extraction, "refine_least_squares", "optimize.direct")
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        try:
            return self.install()
        except BaseException:
            self.uninstall()
            raise

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- per-call counters ---------------------------------------------------
    def _after_engine(self, duration, args, result) -> None:
        if any(frame[0] == "core.engine" for frame in self._stack):
            return  # nested entry point: the outer call counts the rows
        self.engine_call_s.append(duration)
        self._count("engine.calls")
        self._count("engine.rows", _rows(args))

    def _after_dense_solve(self, duration, args, result) -> None:
        y = args[0]
        self._count("analysis.systems", y.shape[0] * y.shape[1])

    def _after_sparse_solve(self, duration, args, result) -> None:
        plan, n_batch = args[0], args[2]
        self._count("analysis.systems", n_batch * plan.n_freq)
        self._count("analysis.sparse_rows", n_batch)

    def _after_surrogate(self, duration, args, result) -> None:
        self._count("robust.surrogate_s", duration)

    def _after_journal_append(self, duration, args, result) -> None:
        self._count("journal.events")
        # Journals only grow, so the last size seen is the bytes written.
        self.journal_bytes[args[0].path] = os.path.getsize(args[0].path)

    def _after_checkpoint_save(self, duration, args, result) -> None:
        self._count("checkpoint.saves")
        self._count("checkpoint.bytes", os.path.getsize(args[0].path))

    # -- metrics ------------------------------------------------------------
    def metrics(self, wall_s: float, counters: Dict[str, float]
                ) -> Dict[str, float]:
        """Per-layer metrics of one traced repetition.

        *wall_s* is the repetition's wall time and *counters* the
        program's own ``get_metrics()`` counter deltas over it.
        """
        count = self.counts.get
        delta = counters.get
        out = {f"{layer}.share": self.self_s[layer] / wall_s
               for layer in LAYERS}
        for layer in COUNTED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]

        hits = delta("evaluator.cache_hits", 0)
        lookups = hits + delta("evaluator.cache_misses", 0)
        out["core.objectives.lookups"] = lookups
        out["core.objectives.hit_rate"] = hits / lookups if lookups else 0.0

        engine_calls = count("engine.calls", 0)
        out["core.engine.calls"] = engine_calls
        out["core.engine.rows_per_call"] = (
            count("engine.rows", 0) / engine_calls if engine_calls else 0.0)
        out["core.engine.fallback_rows"] = delta("engine.scalar_fallbacks", 0)
        out["core.engine.penalty_rows"] = delta("engine.penalty_rows", 0)

        sparse_rows = count("analysis.sparse_rows", 0)
        out["analysis.systems"] = count("analysis.systems", 0)
        out["analysis.woodbury_frac"] = (
            delta("mna.woodbury_solves", 0) / sparse_rows
            if sparse_rows else 0.0)
        out["analysis.rescues"] = (delta("mna.equilibrated_rescues", 0)
                                   + delta("mna.sparse_isolated_fallbacks", 0))

        out["guards.violations"] = delta("guards.violations", 0)
        out["optimize.robust.corner_rows"] = delta("robust.corner_evals", 0)
        out["optimize.robust.screened"] = delta("robust.screened", 0)
        out["optimize.robust.surrogate_share"] = (
            count("robust.surrogate_s", 0) / wall_s)
        out["obs.journal.events"] = count("journal.events", 0)
        out["obs.journal.bytes"] = sum(self.journal_bytes.values())
        out["optimize.checkpoint.saves"] = count("checkpoint.saves", 0)
        out["optimize.checkpoint.bytes"] = count("checkpoint.bytes", 0)
        out["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return out

    def engine_call_percentiles_us(self) -> Dict[str, float]:
        """p50/p99 of the outermost engine call durations, in us."""
        ordered = sorted(self.engine_call_s)
        if not ordered:
            return {}

        def rank(q):
            return ordered[min(len(ordered) - 1,
                               int(round(q * (len(ordered) - 1))))]
        return {"core.engine.call_p50_us": 1e6 * rank(0.50),
                "core.engine.call_p99_us": 1e6 * rank(0.99)}


def format_layer_table(self_s: Dict[str, float], calls: Dict[str, float],
                       wall_s: float) -> str:
    """Layer table: self time, share of wall time, call count."""
    lines = [f"  {'layer':<20} {'self [s]':>9} {'share':>7} {'calls':>9}"]
    for layer in sorted(LAYERS, key=lambda name: -self_s[name]):
        lines.append(f"  {layer:<20} {self_s[layer]:>9.3f} "
                     f"{self_s[layer] / wall_s:>7.1%} {calls[layer]:>9.0f}")
    covered = sum(self_s.values())
    lines.append(f"  {'(covered)':<20} {covered:>9.3f} "
                 f"{covered / wall_s:>7.1%}")
    return "\n".join(lines)
