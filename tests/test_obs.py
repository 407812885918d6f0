"""Unit tests for the observability layer (repro.obs).

Covers the three pieces in isolation: the span tracer (nesting,
null-span fast path, worker-buffer merging, reporting), the metrics
registry (counters/gauges/histograms, idempotent RunHealth absorption),
and the per-generation telemetry protocol (population statistics,
recorder contiguity, checkpoint state round trip).
"""

import io
import json
import threading

import numpy as np
import pytest

from repro.obs import export_observability, profile_run
from repro.obs.metrics import (
    TRUNCATION_COUNTER,
    Metrics,
    format_metrics,
    get_metrics,
    set_metrics,
)
from repro.obs.telemetry import (
    GenerationRecord,
    TelemetryRecorder,
    format_telemetry,
    population_stats,
)
from repro.obs.tracer import (
    TRACE_ENV,
    SpanRecord,
    Tracer,
    get_tracer,
    set_tracer,
    trace_enabled_by_env,
    traced,
)
from repro.optimize.faults import CATEGORY_SINGULAR, RunHealth


@pytest.fixture
def fresh_globals():
    """Swap in clean global tracer/metrics; restore afterwards."""
    tracer = Tracer(enabled=False)
    metrics = Metrics()
    old_tracer = set_tracer(tracer)
    old_metrics = set_metrics(metrics)
    yield tracer, metrics
    set_tracer(old_tracer)
    set_metrics(old_metrics)


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------

class TestTracerDisabled:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        a = tracer.span("x")
        b = tracer.span("y", batch=4)
        # The whole point of the fast path: no allocation per call.
        assert a is b
        with a:
            pass
        assert tracer.records == []

    def test_disabled_decorator_passes_through(self):
        tracer = Tracer(enabled=False)

        @tracer.trace("work")
        def work(v):
            return v + 1

        assert work(1) == 2
        assert tracer.records == []

    def test_env_switch(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not trace_enabled_by_env()
        assert not Tracer().enabled
        monkeypatch.setenv(TRACE_ENV, "1")
        assert trace_enabled_by_env()
        assert Tracer().enabled
        monkeypatch.setenv(TRACE_ENV, "off")
        assert not trace_enabled_by_env()


class TestTracerEnabled:
    def test_nesting_reconstructs_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        tree = tracer.span_tree()
        assert len(tree) == 1
        root = tree[0]
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == [
            "child_a", "child_b",
        ]
        assert root["children"][0]["children"][0]["name"] == "grandchild"

    def test_meta_and_annotate(self):
        tracer = Tracer(enabled=True)
        with tracer.span("solve", batch=64) as span:
            span.annotate(fallbacks=2)
        (record,) = tracer.records
        assert record.meta == {"batch": 64, "fallbacks": 2}

    def test_span_records_on_exception_and_pops_stack(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        names = [r.name for r in tracer.records]
        assert names == ["inner", "outer"]
        # The stack unwound cleanly: the next span is a root again.
        with tracer.span("after"):
            pass
        assert tracer.records[-1].parent_id is None

    def test_decorator_uses_qualname_by_default(self):
        tracer = Tracer(enabled=True)

        @tracer.trace()
        def step():
            return 42

        assert step() == 42
        assert tracer.records[0].name.endswith("step")

    def test_global_traced_decorator(self, fresh_globals):
        tracer, _ = fresh_globals

        @traced("global_step")
        def step():
            return 7

        assert step() == 7          # disabled: no record
        assert tracer.records == []
        tracer.enable()
        assert step() == 7
        assert get_tracer().records[0].name == "global_step"

    def test_total_time_counts_roots_only(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        root = [r for r in tracer.records if r.parent_id is None][0]
        assert tracer.total_time() == pytest.approx(root.duration_s)

    def test_threads_record_independent_stacks(self):
        tracer = Tracer(enabled=True)

        def work():
            with tracer.span("thread_root"):
                with tracer.span("thread_child"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = [r for r in tracer.records if r.parent_id is None]
        children = [r for r in tracer.records if r.parent_id is not None]
        assert len(roots) == 4 and len(children) == 4
        root_ids = {r.span_id for r in roots}
        assert all(c.parent_id in root_ids for c in children)


class TestTracerReporting:
    def _traced(self):
        tracer = Tracer(enabled=True)
        for _ in range(3):
            with tracer.span("run"):
                with tracer.span("solve"):
                    pass
        return tracer

    def test_format_spans_aggregates_by_path(self):
        text = self._traced().format_spans()
        lines = text.splitlines()
        assert "span" in lines[0] and "calls" in lines[0]
        run_line = next(l for l in lines if l.lstrip().startswith("run"))
        solve_line = next(l for l in lines
                          if l.lstrip().startswith("solve"))
        assert "3" in run_line and "3" in solve_line
        # Child is indented under its parent path.
        assert solve_line.startswith("  solve")

    def test_format_spans_empty(self):
        assert "no spans" in Tracer(enabled=True).format_spans()

    def test_to_json_round_trips(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        text = tracer.to_json(str(path))
        parsed = json.loads(text)
        assert parsed == json.loads(path.read_text())
        assert len(parsed["spans"]) == 6
        assert len(parsed["tree"]) == 3
        assert parsed["total_time_s"] >= 0.0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counters(self):
        metrics = Metrics()
        assert metrics.counter("missing") == 0
        metrics.inc("solves")
        metrics.inc("solves", 4)
        assert metrics.counter("solves") == 5
        metrics.set_counter("solves", 2)
        assert metrics.counters() == {"solves": 2}

    def test_gauges_last_write_wins(self):
        metrics = Metrics()
        metrics.gauge("best", 3.0)
        metrics.gauge("best", 1.5)
        assert metrics.gauges() == {"best": 1.5}

    def test_histogram_summary(self):
        metrics = Metrics()
        for v in [1.0, 2.0, 3.0, 4.0, 10.0]:
            metrics.observe("iters", v)
        summary = metrics.histogram_summary("iters")
        assert summary["count"] == 5
        assert summary["min"] == 1.0 and summary["max"] == 10.0
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["p50"] == 3.0
        assert metrics.histogram_summary("none") == {"count": 0}

    def test_clear(self):
        metrics = Metrics()
        metrics.inc("a")
        metrics.gauge("b", 1)
        metrics.observe("c", 1)
        metrics.clear()
        assert metrics.as_dict() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_absorb_run_health_is_idempotent(self):
        health = RunHealth()
        health.record(CATEGORY_SINGULAR, 3)
        health.retries = 2
        metrics = Metrics()
        metrics.absorb_run_health(health)
        first = metrics.counters()
        # Absorbing the same record again must not double anything —
        # that's the difference between snapshot and accumulation.
        metrics.absorb_run_health(health)
        assert metrics.counters() == first
        assert metrics.counter("health.failures.singular") == 3
        assert metrics.counter("health.n_failures") == 3
        assert metrics.counter("health.retries") == 2

    def test_merge_adds_counters_extends_histograms(self):
        a, b = Metrics(), Metrics()
        a.inc("n", 1)
        b.inc("n", 2)
        b.gauge("g", 9.0)
        b.observe("h", 1.0)
        a.merge(b)
        assert a.counter("n") == 3
        assert a.gauges()["g"] == 9.0
        assert a.histogram_summary("h")["count"] == 1

    def test_format_metrics_lists_everything(self):
        metrics = Metrics()
        metrics.inc("engine.batch_solves", 12)
        metrics.gauge("best", 0.5)
        metrics.observe("dc.newton_iterations", 6.0)
        text = format_metrics(metrics, title="Run metrics")
        assert text.startswith("Run metrics")
        assert "engine.batch_solves" in text
        assert "best" in text
        assert "dc.newton_iterations" in text

    def test_format_metrics_empty(self):
        assert "(no metrics recorded)" in format_metrics(Metrics())

    def test_to_json_writes_file(self, tmp_path):
        metrics = Metrics()
        metrics.inc("a", 2)
        path = tmp_path / "metrics.json"
        metrics.to_json(str(path))
        assert json.loads(path.read_text())["counters"] == {"a": 2}


class TestHistogramReservoir:
    def test_below_cap_stays_exact(self):
        metrics = Metrics(histogram_cap=100)
        for v in range(50):
            metrics.observe("h", float(v))
        summary = metrics.histogram_summary("h")
        assert summary["count"] == 50
        assert summary["n_samples"] == 50
        assert not summary["truncated"]
        assert metrics.counter(TRUNCATION_COUNTER) == 0

    def test_above_cap_bounds_samples_keeps_moments_exact(self):
        metrics = Metrics(histogram_cap=64)
        n = 1000
        for v in range(n):
            metrics.observe("h", float(v))
        summary = metrics.histogram_summary("h")
        assert summary["count"] == n
        assert summary["n_samples"] == 64
        assert summary["truncated"]
        assert summary["min"] == 0.0 and summary["max"] == float(n - 1)
        assert summary["mean"] == pytest.approx((n - 1) / 2.0)
        # The percentile estimate comes from the sample, but it should
        # still land in the right neighbourhood for a uniform ramp.
        assert 0.25 * n < summary["p50"] < 0.75 * n
        # One truncation counter bump per histogram, not per overflow.
        assert metrics.counter(TRUNCATION_COUNTER) == 1
        metrics.observe("other", 1.0)
        assert metrics.counter(TRUNCATION_COUNTER) == 1

    def test_sampling_is_deterministic_per_name(self):
        def fill(name):
            metrics = Metrics(histogram_cap=32)
            for v in range(500):
                metrics.observe(name, float(v))
            return metrics.histogram_summary(name)

        assert fill("latency") == fill("latency")
        # Different names seed different reservoirs.
        a, b = fill("latency"), fill("iterations")
        assert (a["p50"], a["p90"]) != (b["p50"], b["p90"])

    def test_merge_respects_cap_and_counts_new_truncation(self):
        a = Metrics(histogram_cap=16)
        b = Metrics(histogram_cap=16)
        for v in range(12):
            a.observe("h", float(v))
        for v in range(12, 24):
            b.observe("h", float(v))
        assert b.counter(TRUNCATION_COUNTER) == 0
        a.merge(b)
        summary = a.histogram_summary("h")
        assert summary["count"] == 24
        assert summary["n_samples"] == 16
        assert summary["truncated"]
        assert summary["min"] == 0.0 and summary["max"] == 23.0
        assert summary["mean"] == pytest.approx(11.5)
        # Merge itself triggered truncation exactly once.
        assert a.counter(TRUNCATION_COUNTER) == 1

    def test_merge_does_not_double_count_truncation(self):
        a = Metrics(histogram_cap=8)
        b = Metrics(histogram_cap=8)
        for v in range(20):
            b.observe("h", float(v))
        assert b.counter(TRUNCATION_COUNTER) == 1
        a.merge(b)
        # b's own truncation arrives via the counter merge only.
        assert a.counter(TRUNCATION_COUNTER) == 1
        assert a.histogram_summary("h")["count"] == 20

    def test_format_marks_sampled_histograms(self):
        metrics = Metrics(histogram_cap=4)
        for v in range(10):
            metrics.observe("h", float(v))
        assert "(sampled)" in format_metrics(metrics)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------

class TestPopulationStats:
    def test_ignores_penalty_members(self):
        best, mean, spread = population_stats(
            [3.0, np.inf, 1.0, np.nan, 2.0]
        )
        assert best == 1.0
        assert mean == pytest.approx(2.0)
        assert spread == pytest.approx(2.0)

    def test_all_failed_population(self):
        best, mean, spread = population_stats([np.inf, np.nan])
        assert best == np.inf and mean == np.inf and spread == 0.0


class TestGenerationRecord:
    def test_dict_round_trip(self):
        record = GenerationRecord(
            algorithm="de", generation=3, nfev=48, best=1.0, mean=2.0,
            spread=0.5, wall_time_s=0.01, n_failures=1, violation=0.0,
            extra={"stage": 1.0},
        )
        assert GenerationRecord.from_dict(record.as_dict()) == record


class TestTelemetryRecorder:
    def _records(self, generations, algorithm="de"):
        return [
            GenerationRecord(algorithm=algorithm, generation=g,
                             nfev=10 * (g + 1), best=1.0, mean=2.0,
                             spread=0.1, wall_time_s=0.0, violation=0.0)
            for g in generations
        ]

    def test_collects_and_reports_contiguity(self):
        recorder = TelemetryRecorder()
        for record in self._records([0, 1, 2]):
            recorder(record)
        assert len(recorder) == 3
        assert recorder.generations() == [0, 1, 2]
        assert recorder.is_contiguous()

    def test_gap_or_duplicate_breaks_contiguity(self):
        gap = TelemetryRecorder()
        for record in self._records([0, 2]):
            gap(record)
        assert not gap.is_contiguous()
        dup = TelemetryRecorder()
        for record in self._records([0, 1, 1]):
            dup(record)
        assert not dup.is_contiguous()

    def test_per_algorithm_contiguity(self):
        recorder = TelemetryRecorder()
        for record in self._records([0, 1], algorithm="de"):
            recorder(record)
        for record in self._records([0, 1, 2], algorithm="pso"):
            recorder(record)
        assert recorder.is_contiguous()
        assert recorder.generations("pso") == [0, 1, 2]

    def test_restore_drops_post_checkpoint_records(self):
        recorder = TelemetryRecorder()
        for record in self._records([0, 1, 2]):
            recorder(record)
        snapshot = recorder.state()
        for record in self._records([3, 4]):
            recorder(record)
        recorder.restore(snapshot)
        assert recorder.generations() == [0, 1, 2]
        # The resumed run re-emits 3 and 4: still contiguous.
        for record in self._records([3, 4]):
            recorder(record)
        assert recorder.is_contiguous()

    def test_state_survives_json(self):
        recorder = TelemetryRecorder()
        for record in self._records([0, 1]):
            recorder(record)
        state = json.loads(json.dumps(recorder.state()))
        fresh = TelemetryRecorder()
        fresh.restore(state)
        assert fresh.records == recorder.records

    def test_format_telemetry(self):
        recorder = TelemetryRecorder()
        for record in self._records([0, 1]):
            recorder(record)
        text = format_telemetry(recorder)
        assert "gen" in text and "nfev" in text
        assert len(text.splitlines()) == 4
        assert "(no generations recorded)" in format_telemetry(
            TelemetryRecorder()
        )


# ----------------------------------------------------------------------
# profile_run / export_observability
# ----------------------------------------------------------------------

def test_profile_run_captures_and_restores(fresh_globals):
    tracer_before, _ = fresh_globals

    def work():
        from repro.obs import span
        with span("inner"):
            return 13

    stream = io.StringIO()
    result, tracer = profile_run(work, stream=stream)
    assert result == 13
    assert [r.name for r in tracer.records] == ["inner"]
    assert "inner" in stream.getvalue()
    # The pre-existing (disabled) global tracer is back in place.
    assert get_tracer() is tracer_before


def test_profile_run_isolates_metrics(fresh_globals):
    _, metrics_before = fresh_globals
    metrics_before.inc("pre.existing", 7)

    def work():
        from repro.obs import metrics as metrics_module
        metrics_module.inc("work.solves", 3)
        return "ok"

    result, tracer = profile_run(work, stream=io.StringIO())
    assert result == "ok"
    # The profiled run's counters landed in a fresh registry, reachable
    # from the returned tracer — not mixed into the ambient one.
    assert tracer.metrics.counter("work.solves") == 3
    assert tracer.metrics.counter("pre.existing") == 0
    assert get_metrics() is metrics_before
    assert metrics_before.counter("work.solves") == 0


def test_export_observability_writes_both_files(tmp_path, fresh_globals):
    tracer, metrics = fresh_globals
    tracer.enable()
    with tracer.span("root"):
        pass
    metrics.inc("solves", 3)
    trace_path, metrics_path = export_observability(
        str(tmp_path / "artifacts"), prefix="e6_"
    )
    assert trace_path.endswith("e6_trace.json")
    trace = json.loads(open(trace_path).read())
    assert trace["spans"][0]["name"] == "root"
    exported = json.loads(open(metrics_path).read())
    assert exported["counters"] == {"solves": 3}
