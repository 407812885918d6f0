"""Flight-recorder journal, run registry, regression diff, and CLI."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from repro.obs.cli import main as cli_main
from repro.obs.compare import (
    DEFAULT_TOLERANCES,
    RunSummary,
    compare_runs,
    compare_summaries,
    format_diff,
    load_summary,
    summarize_journal,
)
from repro.obs.journal import (
    JournalError,
    RunJournal,
    config_fingerprint,
    emit,
    get_journal,
    read_events,
    replay_journal,
    set_journal,
)
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.runs import RunRegistry, recorded_run
from repro.obs.telemetry import GenerationRecord
from repro.obs.tracer import Tracer, set_tracer
from repro.optimize.faults import FaultInjector
from repro.optimize.metaheuristics import differential_evolution


@pytest.fixture()
def fresh_globals():
    tracer = Tracer(enabled=False)
    metrics = Metrics()
    old_tracer = set_tracer(tracer)
    old_metrics = set_metrics(metrics)
    old_journal = set_journal(None)
    yield tracer, metrics
    set_tracer(old_tracer)
    set_metrics(old_metrics)
    set_journal(old_journal)


def _record(generation, best=1.0, algorithm="de", nfev=None):
    return GenerationRecord(
        algorithm=algorithm, generation=generation,
        nfev=nfev if nfev is not None else (generation + 1) * 10,
        best=float(best), mean=float(best) + 1.0, spread=0.1,
        wall_time_s=0.01,
    )


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


class KillAfter:
    """Objective wrapper that raises KeyboardInterrupt after n calls."""

    def __init__(self, objective, n_calls):
        self.objective = objective
        self.n_calls = int(n_calls)
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.n_calls:
            raise KeyboardInterrupt
        return self.objective(x)


# ----------------------------------------------------------------------
# RunJournal basics
# ----------------------------------------------------------------------

class TestRunJournal:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(str(path), run_id="r1") as journal:
            journal.append("custom", value=3)
            journal.append("custom", value=4)
        events, truncated, n_corrupt = read_events(str(path))
        assert [e["event"] for e in events] == ["custom", "custom"]
        assert [e["seq"] for e in events] == [1, 2]
        assert not truncated and n_corrupt == 0

    def test_run_start_header(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GUARDS", "warn")
        path = tmp_path / "journal.jsonl"
        with RunJournal(str(path), run_id="hdr") as journal:
            journal.run_start(config={"seed": 7}, seeds={"opt": 7})
        header = read_events(str(path))[0][0]
        assert header["event"] == "run_start"
        assert header["run_id"] == "hdr"
        assert header["env"]["REPRO_GUARDS"] == "warn"
        assert header["config_fingerprint"] == config_fingerprint(
            {"seed": 7})
        assert header["seeds"] == {"opt": 7}
        assert header["pid"] == os.getpid()

    def test_config_fingerprint_is_order_insensitive(self):
        assert config_fingerprint({"a": 1, "b": 2}) == \
            config_fingerprint({"b": 2, "a": 1})
        assert config_fingerprint(None) is None
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_append_numpy_values(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with RunJournal(str(path)) as journal:
            journal.append("np", arr=np.array([1.0, 2.0]),
                           scalar=np.float64(3.5))
        event = read_events(str(path))[0][0]
        assert event["arr"] == [1.0, 2.0]
        assert event["scalar"] == 3.5

    def test_closed_journal_raises(self, tmp_path):
        journal = RunJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.append("late")

    def test_reopen_continues_sequence(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path) as journal:
            journal.append("one")
        with RunJournal(path) as journal:
            journal.append("two")
        events = read_events(path)[0]
        assert [e["seq"] for e in events] == [1, 2]

    def test_reopen_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path) as journal:
            journal.append("whole")
        with open(path, "ab") as handle:
            handle.write(b'{"seq":2,"event":"torn...')
        journal = RunJournal(path)
        assert journal.repaired_partial_line
        journal.append("after")
        journal.close()
        events, truncated, n_corrupt = read_events(path)
        assert [e["event"] for e in events] == ["whole", "after"]
        assert not truncated and n_corrupt == 0

    def test_generation_events_and_periodic_snapshot(self, tmp_path,
                                                     fresh_globals):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, snapshot_every=3) as journal:
            for g in range(7):
                journal(_record(g))
            assert len(journal) == 7
            assert journal.is_contiguous()
        replay = replay_journal(path)
        counts = replay.counts()
        assert counts["generation"] == 7
        assert counts["snapshot"] == 2  # after generations 3 and 6

    def test_run_end_counts_generations(self, tmp_path, fresh_globals):
        _, metrics = fresh_globals
        metrics.inc("solver.calls", 5)
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path) as journal:
            journal(_record(0))
            journal.run_end()
        end = replay_journal(path).run_end
        assert end["status"] == "completed"
        assert end["n_generations"] == 1
        assert end["counters"]["solver.calls"] == 5


# ----------------------------------------------------------------------
# replay + resume semantics
# ----------------------------------------------------------------------

class TestReplay:
    def test_resume_marker_truncates_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        for g in range(6):
            journal(_record(g))
        # Rewind to the state after generation 3 (a checkpoint), then
        # re-emit generations 4/5 as a resumed run would.
        state = {"records": [r.as_dict()
                             for r in journal.telemetry.records[:4]]}
        journal.restore(state)
        for g in range(4, 6):
            journal(_record(g))
        journal.close()
        replay = replay_journal(path)
        assert replay.n_resumes == 1
        assert replay.is_contiguous()
        assert [r.generation for r in replay.telemetry.records] == \
            list(range(6))

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path) as journal:
            journal.append("a")
            journal.append("b")
        lines = open(path, "rb").read().splitlines(keepends=True)
        with open(path, "wb") as handle:
            handle.write(lines[0])
            handle.write(b"garbage not json\n")
            handle.write(lines[1])
        events, truncated, n_corrupt = read_events(path)
        assert [e["event"] for e in events] == ["a", "b"]
        assert n_corrupt == 1 and not truncated

    def test_truncated_tail_reported(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path) as journal:
            journal.append("a")
        with open(path, "ab") as handle:
            handle.write(b'{"seq":2,"ev')
        replay = replay_journal(path)
        assert replay.truncated_tail
        assert [e["event"] for e in replay.events] == ["a"]


# ----------------------------------------------------------------------
# the ambient emit hook
# ----------------------------------------------------------------------

class TestEmitHook:
    def test_emit_without_journal_is_noop(self, fresh_globals):
        assert get_journal() is None
        emit("orphan", x=1)  # must not raise

    def test_emit_routes_to_active_journal(self, tmp_path, fresh_globals):
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        previous = set_journal(journal)
        try:
            emit("wired", n=2)
        finally:
            set_journal(previous)
        journal.close()
        events = read_events(path)[0]
        assert events[0]["event"] == "wired" and events[0]["n"] == 2

    def test_emit_on_closed_journal_warns_once(self, tmp_path,
                                               fresh_globals):
        journal = RunJournal(str(tmp_path / "journal.jsonl"))
        journal.close()
        previous = set_journal(journal)
        try:
            with pytest.warns(UserWarning, match="stopped recording"):
                emit("lost")
            # Second failure is silent — no warning spam.
            import warnings as _warnings
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                emit("lost again")
        finally:
            set_journal(previous)

    def test_guard_violation_is_journaled(self, tmp_path, fresh_globals):
        from repro.guards import contracts, modes
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        previous = set_journal(journal)
        try:
            with modes.guard_mode("warn"):
                with pytest.warns(contracts.GuardWarning):
                    contracts.check_finite([1.0, float("nan")], "probe")
        finally:
            set_journal(previous)
        journal.close()
        violations = [e for e in read_events(path)[0]
                      if e["event"] == "guard_violation"]
        assert len(violations) == 1
        assert violations[0]["contract"] == "finite"

    def test_checkpoint_event_is_journaled(self, tmp_path, fresh_globals):
        from repro.optimize.checkpoint import MemoryCheckpointStore
        path = str(tmp_path / "journal.jsonl")
        journal = RunJournal(path)
        previous = set_journal(journal)
        try:
            differential_evolution(
                rosenbrock, [-2] * 2, [2] * 2, population_size=8,
                max_iterations=6, seed=1, tolerance=0.0,
                checkpoint_store=MemoryCheckpointStore(),
                checkpoint_every=2, on_generation=journal,
            )
        finally:
            set_journal(previous)
        journal.close()
        counts = replay_journal(path).counts()
        assert counts.get("checkpoint", 0) >= 2
        assert counts["generation"] >= 6


# ----------------------------------------------------------------------
# crash-safety: kill mid-generation, truncate the tail, resume
# ----------------------------------------------------------------------

class TestCrashSafety:
    def test_killed_and_resumed_run_replays_contiguously(self, tmp_path,
                                                         fresh_globals):
        root = str(tmp_path / "runs")
        registry = RunRegistry(root)
        lower, upper = [-2.0] * 3, [2.0] * 3
        kwargs = dict(population_size=10, max_iterations=20, seed=3,
                      tolerance=0.0)

        # Reference: uninterrupted, journaled run.
        ref = registry.create_run(run_id="ref")
        with ref.open_journal() as journal:
            journal.run_start(config={"seed": 3}, seeds={"seed": 3})
            reference = differential_evolution(
                rosenbrock, lower, upper, on_generation=journal, **kwargs)
            journal.run_end()

        # Hard kill mid-generation, checkpointing as it goes.
        run = registry.create_run(run_id="crash")
        store = run.checkpoint_store()
        killer = KillAfter(rosenbrock, 10 + 10 * 12 + 4)
        journal = run.open_journal()
        journal.run_start(config={"seed": 3}, seeds={"seed": 3})
        with pytest.raises(KeyboardInterrupt):
            differential_evolution(
                killer, lower, upper, on_generation=journal,
                checkpoint_store=store, checkpoint_every=3, **kwargs)
        # Simulate the power cut mid-append: no close(), and the last
        # line is torn in half.
        data = open(run.journal_path, "rb").read()
        with open(run.journal_path, "wb") as handle:
            handle.write(data[:-9])
        assert read_events(run.journal_path)[1]  # tail is torn

        # Resume into the SAME journal file.
        resumed = registry.load_run("crash")
        store2 = resumed.checkpoint_store()
        with resumed.open_journal() as journal2:
            assert journal2.repaired_partial_line
            result = differential_evolution(
                rosenbrock, lower, upper, on_generation=journal2,
                checkpoint_store=store2, resume=True, **kwargs)
            journal2.run_end()

        replay = replay_journal(resumed.journal_path)
        assert replay.n_resumes == 1
        assert not replay.truncated_tail
        assert replay.is_contiguous()
        generations = [r.generation for r in replay.telemetry.records]
        assert generations == sorted(set(generations))  # no duplicates

        reference_replay = replay_journal(ref.journal_path)
        ref_trace = [(r.generation, r.best)
                     for r in reference_replay.telemetry.records]
        crash_trace = [(r.generation, r.best)
                       for r in replay.telemetry.records]
        assert crash_trace == ref_trace  # bit-for-bit convergence story
        assert result.fun == reference.fun

        # And the regression diff of the two runs is clean.
        diff = compare_runs(ref.path, resumed.path)
        assert diff.ok, format_diff(diff)

    def test_faulty_run_killed_and_resumed_stays_contiguous(self, tmp_path,
                                                            fresh_globals):
        # The FaultInjector makes some evaluations blow up (absorbed as
        # inf fitness by the optimizer); the kill is still a hard
        # KeyboardInterrupt mid-generation.  The replayed journal must
        # come back contiguous and duplicate-free even though the
        # objective itself was misbehaving.
        registry = RunRegistry(str(tmp_path / "runs"))
        lower, upper = [-2.0] * 3, [2.0] * 3
        kwargs = dict(population_size=10, max_iterations=16, seed=5,
                      tolerance=0.0)

        run = registry.create_run(run_id="flaky")
        store = run.checkpoint_store()
        flaky = FaultInjector(rosenbrock, p_raise=0.05, seed=9)
        killer = KillAfter(flaky, 10 + 10 * 9 + 6)
        journal = run.open_journal()
        journal.run_start(config={"seed": 5}, seeds={"seed": 5})
        with pytest.raises(KeyboardInterrupt):
            differential_evolution(
                killer, lower, upper, on_generation=journal,
                checkpoint_store=store, checkpoint_every=2, **kwargs)
        data = open(run.journal_path, "rb").read()
        with open(run.journal_path, "wb") as handle:
            handle.write(data[:-7])

        resumed = registry.load_run("flaky")
        flaky2 = FaultInjector(rosenbrock, p_raise=0.05, seed=9)
        with resumed.open_journal() as journal2:
            differential_evolution(
                flaky2, lower, upper, on_generation=journal2,
                checkpoint_store=resumed.checkpoint_store(), resume=True,
                **kwargs)
            journal2.run_end()

        replay = replay_journal(resumed.journal_path)
        assert replay.n_resumes == 1
        assert replay.is_contiguous()
        generations = [r.generation for r in replay.telemetry.records]
        assert generations == sorted(set(generations))
        assert generations[-1] == 16  # init population + 16 iterations


# ----------------------------------------------------------------------
# run registry
# ----------------------------------------------------------------------

class TestRunRegistry:
    def test_create_list_load(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        run_a = registry.create_run(name="lna")
        run_b = registry.create_run(name="lna")
        assert run_a.run_id != run_b.run_id  # same-second collision
        assert set(registry.list_runs()) == {run_a.run_id, run_b.run_id}
        loaded = registry.load_run(run_a.run_id)
        assert loaded.path == run_a.path

    def test_load_unknown_run_lists_known(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.create_run(run_id="only")
        with pytest.raises(KeyError, match="only"):
            registry.load_run("missing")

    def test_env_override_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "custom"))
        registry = RunRegistry()
        run = registry.create_run(run_id="env")
        assert run.path.startswith(str(tmp_path / "custom"))

    def test_recorded_run_lifecycle(self, tmp_path, fresh_globals):
        root = str(tmp_path / "runs")
        with recorded_run(root, run_id="ok", config={"seed": 1},
                          seeds={"seed": 1}) as run:
            assert get_journal() is run.journal
            run.journal(_record(0))
        assert get_journal() is None
        assert os.path.exists(run.metrics_path)
        replay = replay_journal(run.journal_path)
        assert replay.run_start["config"] == {"seed": 1}
        assert replay.run_end["status"] == "completed"

    def test_recorded_run_failure_status(self, tmp_path, fresh_globals):
        root = str(tmp_path / "runs")
        with pytest.raises(RuntimeError, match="boom"):
            with recorded_run(root, run_id="bad") as run:
                raise RuntimeError("boom")
        end = replay_journal(run.journal_path).run_end
        assert end["status"] == "failed"
        assert "boom" in end["error"]

    def test_summary_of_run(self, tmp_path, fresh_globals):
        root = str(tmp_path / "runs")
        registry = RunRegistry(root)
        with recorded_run(registry, run_id="s") as run:
            for g in range(4):
                run.journal(_record(g, best=1.0 / (g + 1)))
        summary = registry.summarize_run("s")
        assert summary.n_generations == 4
        assert summary.final_best == pytest.approx(0.25)
        assert summary.status == "completed"


# ----------------------------------------------------------------------
# regression diff
# ----------------------------------------------------------------------

def _summary(**overrides) -> RunSummary:
    base = dict(
        run_id="x", source="x", status="completed", algorithms=["de"],
        n_generations=3, best_per_generation=[3.0, 2.0, 1.0],
        final_best=1.0, final_violation=0.0, total_nfev=100,
        n_failures=0, guard_violations=0.0, cache_hit_rate=0.5,
        wall_time_s=1.0, counters={},
    )
    base.update(overrides)
    return RunSummary(**base)


class TestCompare:
    def test_identical_runs_have_zero_regressions(self):
        diff = compare_summaries(_summary(), _summary())
        assert diff.ok and not diff.regressions

    def test_worse_final_best_regresses(self):
        diff = compare_summaries(
            _summary(), _summary(final_best=1.2,
                                 best_per_generation=[3.0, 2.0, 1.2]))
        names = {c.name for c in diff.regressions}
        assert "final_best" in names and "convergence" in names

    def test_better_final_best_is_not_a_regression(self):
        diff = compare_summaries(
            _summary(),
            _summary(final_best=0.5, best_per_generation=[3.0, 2.0, 0.5]))
        assert all(c.ok for c in diff.checks
                   if c.name in ("final_best",))

    def test_new_failures_and_guard_violations_regress(self):
        diff = compare_summaries(
            _summary(), _summary(n_failures=2, guard_violations=1.0))
        names = {c.name for c in diff.regressions}
        assert {"n_failures", "guard_violations"} <= names

    def test_cache_hit_rate_drop_regresses(self):
        diff = compare_summaries(_summary(),
                                 _summary(cache_hit_rate=0.3))
        assert any(c.name == "cache_hit_rate" and not c.ok
                   for c in diff.checks)
        # ... but an improvement does not.
        diff = compare_summaries(_summary(),
                                 _summary(cache_hit_rate=0.9))
        assert diff.ok

    def test_wall_time_is_informational(self):
        diff = compare_summaries(_summary(), _summary(wall_time_s=50.0))
        wall = [c for c in diff.checks if c.name == "wall_time_s"][0]
        assert not wall.checked and wall.ok

    def test_tolerance_override(self):
        loose = {"final_best": ("rel", 0.5, "increase")}
        diff = compare_summaries(
            _summary(),
            _summary(final_best=1.2,
                     best_per_generation=[3.0, 2.0, 1.2]),
            tolerances={**loose,
                        "convergence": ("rel", 0.5, "both")})
        assert diff.ok

    def test_infinite_pairs_match(self):
        inf = float("inf")
        diff = compare_summaries(
            _summary(best_per_generation=[inf, 2.0, 1.0]),
            _summary(best_per_generation=[inf, 2.0, 1.0]))
        assert diff.ok

    def test_bench_json_bare_baseline(self, tmp_path, fresh_globals):
        bench = tmp_path / "BENCH_engine.json"
        bench.write_text(json.dumps({"candidates_per_s": 100.0,
                                     "label": "x"}))
        baseline = load_summary(str(bench))
        assert baseline.bare
        candidate = _summary(counters={"candidates_per_s": 95.0})
        diff = compare_summaries(baseline, candidate)
        assert diff.ok  # within the 10% bare tolerance
        worse = _summary(counters={"candidates_per_s": 50.0})
        assert not compare_summaries(baseline, worse).ok

    def test_summary_json_roundtrip(self, tmp_path):
        summary = _summary()
        path = str(tmp_path / "summary.json")
        summary.to_json(path)
        loaded = load_summary(path)
        assert loaded.final_best == summary.final_best
        assert loaded.best_per_generation == summary.best_per_generation
        assert not loaded.bare

    def test_default_tolerances_cover_all_checked_fields(self):
        for name in ("final_best", "convergence", "total_nfev",
                     "n_failures", "guard_violations", "cache_hit_rate",
                     "wall_time_s"):
            assert name in DEFAULT_TOLERANCES

    def test_format_diff_renders_verdict(self):
        diff = compare_summaries(_summary(), _summary(n_failures=3))
        text = format_diff(diff)
        assert "REGRESSION" in text
        assert "n_failures" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    @pytest.fixture()
    def recorded(self, tmp_path, fresh_globals):
        root = str(tmp_path / "runs")
        with recorded_run(root, run_id="cli-run") as run:
            for g in range(3):
                run.journal(_record(g, best=1.0 / (g + 1)))
        return root, run

    def test_summary_human_and_json(self, recorded, capsys):
        root, run = recorded
        assert cli_main(["summary", run.path]) == 0
        out = capsys.readouterr().out
        assert "cli-run" in out and "generations" in out
        assert cli_main(["summary", run.journal_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_generations"] == 3

    def test_summary_resolves_run_id_via_root(self, recorded, capsys):
        root, _ = recorded
        assert cli_main(["--runs-root", root, "summary", "cli-run"]) == 0
        assert "cli-run" in capsys.readouterr().out

    def test_tail(self, recorded, capsys):
        _, run = recorded
        assert cli_main(["tail", run.path, "-n", "2",
                         "--event", "generation"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["event"] == "generation"

    def test_compare_ok_and_regression_exit_codes(self, recorded,
                                                  tmp_path, capsys,
                                                  fresh_globals):
        root, run = recorded
        assert cli_main(["compare", run.path, run.path]) == 0
        with recorded_run(root, run_id="worse") as worse:
            for g in range(3):
                worse.journal(_record(g, best=2.0 / (g + 1)))
        assert cli_main(["compare", run.path, worse.path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_compare_tolerance_override_flag(self, recorded, capsys,
                                             fresh_globals):
        root, run = recorded
        with recorded_run(root, run_id="worse2") as worse:
            for g in range(3):
                worse.journal(_record(g, best=1.02 / (g + 1)))
        assert cli_main(["compare", run.path, worse.path]) == 1
        capsys.readouterr()
        assert cli_main([
            "compare", run.path, worse.path,
            "--tol", "final_best=rel:0.10",
            "--tol", "convergence=rel:0.10",
        ]) == 0

    def test_unknown_run_id_exits_2(self, recorded, capsys):
        root, _ = recorded
        assert cli_main(["--runs-root", root, "summary", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _fixed_trace(tmp_path, child_share):
        """A 1 s root span whose child takes *child_share* of it."""
        tracer = Tracer.from_dict({"spans": [
            {"span_id": 1, "parent_id": None, "name": "root",
             "start_s": 0.0, "duration_s": 1.0},
            {"span_id": 2, "parent_id": 1, "name": "child",
             "start_s": 0.0, "duration_s": child_share},
        ]})
        trace_path = str(tmp_path / "trace.json")
        tracer.to_json(trace_path)
        return trace_path

    def test_flame(self, tmp_path, capsys):
        trace_path = self._fixed_trace(tmp_path, 0.5)
        assert cli_main(["flame", trace_path]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "child" in out
        assert "50.0%" in out

    def test_flame_folds_children_below_min_fraction(self, tmp_path, capsys):
        trace_path = self._fixed_trace(tmp_path, 0.001)
        assert cli_main(["flame", trace_path]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "child" not in out
        assert cli_main(["flame", trace_path, "--min-fraction", "0"]) == 0
        assert "child" in capsys.readouterr().out

    def test_flame_missing_trace_exits_2(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty-run")
        assert cli_main(["flame", str(tmp_path / "empty-run")]) == 2
