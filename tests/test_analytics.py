"""Fleet analytics: tail reader, run index, fleet view, warm starts,
Prometheus export, and the service telemetry plumbing.

Contracts under test:

* :func:`read_tail_events` — bounded backwards reads that survive torn
  tails, corrupt interior lines, and multi-block line spans;
* :class:`RunIndex` — journal → index round trip, per-run staleness
  (fingerprint / layout-version), torn-and-corrupt index recovery,
  compaction, and rebuild → byte-identical fleet summaries;
* :class:`FleetView` — filters, roll-ups, convergence envelopes,
  leaderboards, and config-distance nearest-run ranking over a registry
  mixing finished, failed, in-flight, and orphaned runs;
* warm starts — ``final_population`` tail loading, the journaled
  ``warmstart_decision`` on every outcome, and the optimizers'
  ``initial_population=`` seeding (deterministic, RNG-stream
  preserving);
* the ``repro-obs`` CLI — ``fleet`` subcommands, bounded ``tail``,
  ``compare --summary-json``, and the empty-metric-name rejection;
* Prometheus export — exposition format, atomic textfiles, the HTTP
  endpoint, and the job service's live queue-depth / per-job progress
  gauges riding the lease records.
"""

from __future__ import annotations

import json
import os
import time
import urllib.request

import numpy as np
import pytest

from repro.obs.analytics import (
    INDEX_NAME,
    FleetView,
    RunIndex,
    config_distance,
    index_entry_from_journal,
    journal_fingerprint,
    load_final_population,
    warm_start_population,
)
from repro.obs.cli import _parse_counter, _parse_tolerance
from repro.obs.cli import main as cli_main
from repro.obs.journal import (
    RunJournal,
    config_fingerprint,
    read_events,
    read_tail_events,
    replay_journal,
    set_journal,
)
from repro.obs.metrics import Metrics, set_metrics
from repro.obs.promexport import (
    CONTENT_TYPE,
    PromExporter,
    render_prometheus,
)
from repro.obs.runs import RunRegistry
from repro.obs.telemetry import GenerationRecord
from repro.obs.tracer import Tracer, set_tracer
from repro.optimize.metaheuristics import (
    _seed_population,
    differential_evolution,
    particle_swarm,
)
from repro.optimize.nsga2 import nsga2
from repro.service import JobQueue, JobService, JobSpec, ServiceClient
from toy_problems import pointwise_problem


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


def sphere(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(x * x))


def make_run(root, run_id, *, algorithm="differential_evolution",
             config=None, n_generations=4, best0=4.0, step=1.0,
             status="completed", final_population=None, fitness=None,
             failures=None, n_failures=0, trailer=True):
    """Write one synthetic-but-wellformed run directory under *root*."""
    run_path = os.path.join(str(root), run_id)
    os.makedirs(run_path, exist_ok=True)
    journal_path = os.path.join(run_path, "journal.jsonl")
    journal = RunJournal(journal_path, run_id=run_id)
    journal.run_start(config=config, seeds={"seed": 0})
    for g in range(n_generations):
        best = best0 - step * g
        journal(GenerationRecord(
            algorithm=algorithm, generation=g, nfev=(g + 1) * 8,
            best=float(best), mean=float(best) + 0.5, spread=0.1,
            wall_time_s=0.01, n_failures=n_failures,
        ))
    if failures:
        journal.append("health", **{
            f"failures.{category}": count
            for category, count in failures.items()
        })
    if final_population is not None:
        journal.append(
            "final_population", algorithm=algorithm,
            population=[[float(v) for v in row]
                        for row in final_population],
            fitness=(None if fitness is None
                     else [float(v) for v in fitness]),
        )
    if trailer:
        journal.run_end(status=status, metrics=Metrics())
    journal.close()
    return journal_path


# ----------------------------------------------------------------------
# bounded tail reads
# ----------------------------------------------------------------------

class TestReadTailEvents:
    def _journal(self, tmp_path, n=50):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, run_id="tail") as journal:
            for i in range(n):
                journal.append("tick", i=i)
        return path

    def test_last_n_in_file_order(self, tmp_path):
        path = self._journal(tmp_path)
        events, truncated = read_tail_events(path, 3)
        assert [e["i"] for e in events] == [47, 48, 49]
        assert not truncated

    def test_small_blocks_span_lines(self, tmp_path):
        # A block size smaller than one line forces the carry logic to
        # stitch every line across several backwards reads.
        path = self._journal(tmp_path, n=30)
        events, truncated = read_tail_events(path, 30, block_size=7)
        assert [e["i"] for e in events] == list(range(30))
        assert not truncated
        reference, _, _ = read_events(path)
        assert events == reference

    def test_event_filter_skips_cheaply(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, run_id="f") as journal:
            for i in range(10):
                journal.append("tick", i=i)
                journal.append("tock", i=i)
        events, _ = read_tail_events(path, 2, event="tick")
        assert [(e["event"], e["i"]) for e in events] == [
            ("tick", 8), ("tick", 9)]

    def test_torn_tail_is_dropped_and_flagged(self, tmp_path):
        path = self._journal(tmp_path, n=5)
        with open(path, "ab") as handle:
            handle.write(b'{"seq":99,"event":"tick","i":')  # no newline
        events, truncated = read_tail_events(path, 10)
        assert truncated
        assert [e["i"] for e in events] == [0, 1, 2, 3, 4]

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        path = self._journal(tmp_path, n=4)
        raw = open(path, "rb").read().split(b"\n")
        raw[2] = b"\x00garbage\xff"
        open(path, "wb").write(b"\n".join(raw))
        events, truncated = read_tail_events(path, 10)
        assert [e["i"] for e in events] == [0, 1, 3]
        assert not truncated

    def test_n_nonpositive_and_short_files(self, tmp_path):
        path = self._journal(tmp_path, n=3)
        assert read_tail_events(path, 0) == ([], False)
        events, _ = read_tail_events(path, 100)
        assert len(events) == 3
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert read_tail_events(str(empty), 5) == ([], False)


# ----------------------------------------------------------------------
# registry ordering
# ----------------------------------------------------------------------

class TestRegistryOrdering:
    def test_list_runs_skips_non_run_entries(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for run_id in ("run-b", "run-a"):
            os.makedirs(tmp_path / run_id)
        (tmp_path / INDEX_NAME).write_text("{}\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / "_scratch").mkdir()
        (tmp_path / "stray.txt").write_text("not a run\n")
        runs = registry.list_runs()
        assert set(runs) == {"run-a", "run-b"}

    def test_creation_order_and_latest(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        assert registry.latest() is None
        names = ["zulu", "alpha", "mike"]
        for name in names:
            os.makedirs(tmp_path / name)
            (tmp_path / name / "journal.jsonl").write_text("{}\n")
            time.sleep(0.01)  # distinct ctime_ns on coarse filesystems
        assert registry.list_runs() == names
        assert registry.latest().run_id == "mike"
        # Appending to an older run's existing journal touches the file
        # inode, not the directory's: the order must not change.
        with open(tmp_path / "zulu" / "journal.jsonl", "a") as handle:
            handle.write("{}\n")
        assert registry.latest().run_id == "mike"

    def test_missing_root_is_empty(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "nowhere"))
        assert registry.list_runs() == []
        assert registry.latest() is None


# ----------------------------------------------------------------------
# the run index
# ----------------------------------------------------------------------

class TestRunIndex:
    def test_journal_to_entry_round_trip(self, tmp_path, fresh_globals):
        config = {"experiment": "e5", "seed": 3}
        path = make_run(tmp_path, "r1", config=config,
                        final_population=[[0.1, 0.2], [0.3, 0.4]],
                        fitness=[1.0, 2.0],
                        failures={"singular": 2})
        entry = index_entry_from_journal(path, "r1")
        assert entry["run_id"] == "r1"
        assert entry["status"] == "completed"
        assert entry["experiment"] == "e5"
        assert entry["config"] == config
        assert entry["config_fingerprint"] == config_fingerprint(config)
        assert entry["n_generations"] == 4
        assert entry["best_per_generation"] == [4.0, 3.0, 2.0, 1.0]
        assert entry["final_best"] == 1.0
        assert entry["total_nfev"] == 32
        assert entry["failures"] == {"singular": 2}
        assert entry["final_population"] == {
            "algorithm": "differential_evolution", "n": 2}
        assert entry["fingerprint"] == journal_fingerprint(path)

    def test_refresh_is_incremental(self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1", config={"experiment": "e5"})
        make_run(tmp_path, "r2", config={"experiment": "e6"})
        index = RunIndex(str(tmp_path))
        index.refresh()
        assert index.last_refresh == {"n_runs": 2, "n_reindexed": 2,
                                      "n_removed": 0, "n_corrupt": 0}
        index.refresh()
        assert index.last_refresh["n_reindexed"] == 0

    def test_stale_fingerprint_reindexes_only_that_run(
            self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1")
        path2 = make_run(tmp_path, "r2")
        index = RunIndex(str(tmp_path))
        index.refresh()
        with RunJournal(path2, run_id="r2") as journal:
            journal(GenerationRecord(
                algorithm="differential_evolution", generation=4,
                nfev=40, best=0.5, mean=1.0, spread=0.1,
                wall_time_s=0.01))
        index.refresh()
        assert index.last_refresh["n_reindexed"] == 1
        entries = index.entries(refresh=False)
        assert entries["r2"]["n_generations"] == 5
        assert entries["r1"]["n_generations"] == 4

    def test_layout_version_mismatch_reindexes(
            self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1")
        index = RunIndex(str(tmp_path))
        entries = index.refresh()
        stale = dict(entries["r1"])
        stale["index_version"] = 0
        index._rewrite({"r1": stale})
        index.refresh()
        assert index.last_refresh["n_reindexed"] == 1
        assert index.entries(refresh=False)["r1"]["index_version"] == 1

    def test_torn_index_tail_recovers(self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1")
        make_run(tmp_path, "r2")
        index = RunIndex(str(tmp_path))
        before = index.refresh()
        with open(index.path, "ab") as handle:
            handle.write(b'{"v":1,"crc":12,"run_id":"r2","entry"')
        index.refresh()
        assert index.last_refresh["n_corrupt"] == 1
        assert index.entries(refresh=False) == before
        # Recovery compacted the file: the torn line is gone for good.
        index.refresh()
        assert index.last_refresh["n_corrupt"] == 0

    def test_bitflipped_line_fails_crc_and_rederives(
            self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1", best0=4.0)
        index = RunIndex(str(tmp_path))
        before = index.refresh()["r1"]
        raw = open(index.path, "rb").read()
        # Flip a digit inside the framed entry: the frame still parses
        # as JSON, so only the CRC can catch the damage.
        forged = raw.replace(b'"final_best":1.0', b'"final_best":9.0')
        assert forged != raw
        open(index.path, "wb").write(forged)
        after = index.refresh()["r1"]
        assert index.last_refresh["n_corrupt"] == 1
        assert after == before
        assert after["final_best"] == 1.0

    def test_deleted_run_drops_out(self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1")
        make_run(tmp_path, "r2")
        index = RunIndex(str(tmp_path))
        index.refresh()
        import shutil
        shutil.rmtree(tmp_path / "r2")
        entries = index.refresh()
        assert set(entries) == {"r1"}
        assert index.last_refresh["n_removed"] == 1
        assert set(index.entries(refresh=False)) == {"r1"}

    def test_dead_lines_trigger_compaction(self, tmp_path, fresh_globals):
        path = make_run(tmp_path, "r1")
        index = RunIndex(str(tmp_path))
        for i in range(4):
            with RunJournal(path, run_id="r1") as journal:
                journal.append("tick", i=i)
            index.refresh()
        lines = [line for line in
                 open(index.path, "rb").read().split(b"\n") if line]
        assert len(lines) == 1  # superseded appends were compacted away

    def test_rebuild_gives_byte_identical_summaries(
            self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1", config={"experiment": "e5"},
                 failures={"singular": 1})
        make_run(tmp_path, "r2", config={"experiment": "e6"},
                 status="failed")
        make_run(tmp_path, "r3", trailer=False)  # in-flight
        view = FleetView(str(tmp_path))
        before = json.dumps(view.summary(), sort_keys=True)
        index = RunIndex(str(tmp_path))
        index.rebuild()
        after = json.dumps(FleetView(index=index, refresh=False).summary(),
                           sort_keys=True)
        assert after == before

    def test_missing_index_file_is_rebuilt_silently(
            self, tmp_path, fresh_globals):
        make_run(tmp_path, "r1")
        index = RunIndex(str(tmp_path))
        entries = index.refresh()
        os.unlink(index.path)
        assert index.refresh() == entries


# ----------------------------------------------------------------------
# fleet queries
# ----------------------------------------------------------------------

@pytest.fixture()
def mixed_fleet(tmp_path, fresh_globals):
    """A registry mixing finished, failed, in-flight, and orphaned runs."""
    root = tmp_path / "runs"
    make_run(root, "de-good", config={"experiment": "e5", "seed": 0},
             best0=4.0, final_population=[[0.0, 0.0]], fitness=[0.5])
    make_run(root, "de-better", config={"experiment": "e5", "seed": 1},
             best0=3.0, n_generations=6,
             final_population=[[0.1, 0.1], [0.2, 0.2]], fitness=[2.0, 1.0])
    make_run(root, "nsga", algorithm="nsga2",
             config={"experiment": "e12", "seed": 0}, best0=2.0,
             final_population=[[0.3, 0.3]], fitness=[1.5])
    make_run(root, "crashed", config={"experiment": "e5", "seed": 2},
             status="failed", failures={"singular": 3}, n_failures=3)
    make_run(root, "inflight", config={"experiment": "e5", "seed": 3},
             trailer=False)
    os.makedirs(root / "orphan-no-journal")  # never indexed
    return str(root)


class TestFleetView:
    def test_summary_counts_the_mixed_registry(self, mixed_fleet):
        summary = FleetView(mixed_fleet).summary()
        assert summary["n_runs"] == 5  # the journal-less orphan is out
        assert summary["by_status"] == {"completed": 3, "failed": 1,
                                        "incomplete": 1}
        assert summary["by_algorithm"]["differential_evolution"] == 4
        assert summary["by_algorithm"]["nsga2"] == 1
        assert summary["by_experiment"] == {"e5": 4, "e12": 1}
        # Best comes from *completed* runs only; de-better's 6
        # generations bottom out at 3.0 - 5 = -2.0, beating the rest.
        assert summary["best"]["run_id"] == "de-better"
        assert summary["best"]["final_best"] == -2.0
        assert summary["failures"]["by_category"] == {"singular": 3}

    def test_filters_compose(self, mixed_fleet):
        view = FleetView(mixed_fleet)
        assert [e["run_id"] for e in view.runs(algorithm="nsga2")] == \
            ["nsga"]
        e5 = view.runs(experiment="e5", status="completed")
        assert sorted(e["run_id"] for e in e5) == ["de-better", "de-good"]
        fingerprint = config_fingerprint({"experiment": "e5", "seed": 1})
        assert [e["run_id"]
                for e in view.runs(config_fingerprint=fingerprint)] == \
            ["de-better"]
        assert view.summary(experiment="e12")["n_runs"] == 1

    def test_failures_rollup(self, mixed_fleet):
        failures = FleetView(mixed_fleet).failures()
        assert failures["total"] == 3
        assert failures["runs_with_failures"] == 1
        assert failures["worst_runs"][0] == {"run_id": "crashed",
                                             "n_failures": 3}

    def test_envelopes_resample_onto_common_grid(self, mixed_fleet):
        envelopes = FleetView(mixed_fleet).envelopes(
            n_grid=5, status="completed")
        de = envelopes["differential_evolution"]
        assert de["n_runs"] == 2
        assert len(de["median"]) == 5
        # Monotone-decreasing inputs stay monotone after resampling.
        assert de["median"] == sorted(de["median"], reverse=True)
        assert envelopes["nsga2"]["n_runs"] == 1

    def test_envelopes_skip_nonfinite_curves(self, tmp_path,
                                             fresh_globals):
        root = tmp_path / "runs"
        make_run(root, "bad", best0=float("inf"), step=0.0)
        assert FleetView(str(root)).envelopes() == {}

    def test_top_ranks_ascending_and_deterministic(self, mixed_fleet):
        rows = FleetView(mixed_fleet).top(n=2, status="completed")
        assert [row["run_id"] for row in rows] == ["de-better", "nsga"]
        assert rows[0]["final_best"] == -2.0

    def test_nearest_runs_exact_match_is_distance_zero(self, mixed_fleet):
        view = FleetView(mixed_fleet)
        ranked = view.nearest_runs({"experiment": "e5", "seed": 0}, n=3)
        assert ranked[0][0] == 0.0
        assert ranked[0][1]["run_id"] == "de-good"
        assert all(d0 <= d1 for (d0, _), (d1, _)
                   in zip(ranked, ranked[1:]))

    def test_nearest_runs_filters(self, mixed_fleet):
        view = FleetView(mixed_fleet)
        ranked = view.nearest_runs({"experiment": "e12", "seed": 0},
                                   algorithm="nsga2",
                                   require_population=True)
        assert [entry["run_id"] for _, entry in ranked] == ["nsga"]
        assert view.nearest_runs(None) == []  # no config: nothing near


class TestConfigDistance:
    def test_identity_and_missing(self):
        assert config_distance({"a": 1}, {"a": 1}) == 0.0
        assert config_distance({}, {}) == 0.0
        assert config_distance(None, {"a": 1}) == float("inf")
        assert config_distance({"a": 1}, None) == float("inf")

    def test_numeric_and_categorical_terms(self):
        # One key, numeric: |1-3|/(1+1+3) = 0.4.
        assert config_distance({"a": 1}, {"a": 3}) == \
            pytest.approx(0.4)
        # Categorical mismatch costs 1, one-sided keys 0.25.
        assert config_distance({"m": "de"}, {"m": "pso"}) == 1.0
        assert config_distance({"a": 1, "b": 2}, {"a": 1}) == \
            pytest.approx(0.125)
        # Bools are categorical, not numeric: True vs 0 is a mismatch,
        # not a normalized |1-0| difference.
        assert config_distance({"x": True}, {"x": 0}) == 1.0


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------

class TestWarmStart:
    def test_load_final_population(self, tmp_path, fresh_globals):
        path = make_run(tmp_path, "r1",
                        final_population=[[1.0, 2.0], [3.0, 4.0]],
                        fitness=[0.2, 0.1])
        payload = load_final_population(path)
        assert payload["algorithm"] == "differential_evolution"
        np.testing.assert_array_equal(
            payload["population"], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(payload["fitness"], [0.2, 0.1])

    def test_load_final_population_absent_or_damaged(
            self, tmp_path, fresh_globals):
        assert load_final_population(
            make_run(tmp_path, "plain")) is None
        assert load_final_population(
            str(tmp_path / "missing.jsonl")) is None
        path = str(tmp_path / "bad" / "journal.jsonl")
        os.makedirs(tmp_path / "bad")
        with RunJournal(path, run_id="bad") as journal:
            journal.append("final_population", algorithm="de",
                           population=[[1.0], [None]])
        assert load_final_population(path) is None

    def test_accepted_warm_start_sorts_truncates_and_journals(
            self, tmp_path, fresh_globals):
        root = tmp_path / "runs"
        config = {"experiment": "e5", "seed": 0}
        make_run(root, "archive", config=config,
                 final_population=[[3.0, 3.0], [1.0, 1.0], [2.0, 2.0]],
                 fitness=[30.0, 10.0, 20.0])
        receiver = str(tmp_path / "receiver.jsonl")
        with RunJournal(receiver, run_id="recv") as journal:
            set_journal(journal)
            seeds = warm_start_population(config, str(root),
                                          population_size=2)
            set_journal(None)
        np.testing.assert_array_equal(seeds, [[1.0, 1.0], [2.0, 2.0]])
        (decision,), _ = read_tail_events(receiver, 1,
                                          event="warmstart_decision")
        assert decision["accepted"] is True
        assert decision["source_run"] == "archive"
        assert decision["distance"] == 0.0
        assert decision["n_seeded"] == 2
        # The receiving run's own index entry tallies the decision.
        entry = index_entry_from_journal(receiver, "recv")
        assert entry["decisions"]["warmstart_decision"] == {"accepted": 1}

    def test_empty_fleet_declines_and_journals(self, tmp_path,
                                               fresh_globals):
        receiver = str(tmp_path / "receiver.jsonl")
        with RunJournal(receiver, run_id="recv") as journal:
            set_journal(journal)
            seeds = warm_start_population({"seed": 0},
                                          str(tmp_path / "runs"))
            set_journal(None)
        assert seeds is None
        (decision,), _ = read_tail_events(receiver, 1,
                                          event="warmstart_decision")
        assert decision["accepted"] is False
        assert decision["n_candidates"] == 0

    def test_max_distance_rejects_far_archives(self, tmp_path,
                                               fresh_globals):
        root = tmp_path / "runs"
        make_run(root, "far", config={"m": "something-else"},
                 final_population=[[1.0, 1.0]], fitness=[1.0])
        seeds = warm_start_population({"m": "de"}, str(root),
                                      max_distance=0.5)
        assert seeds is None


class TestOptimizerSeeding:
    def test_seed_population_clips_and_validates(self):
        lower = np.zeros(2)
        upper = np.ones(2)
        population = np.full((4, 2), 0.5)
        seeded = _seed_population(population, [[2.0, -1.0]], lower, upper)
        np.testing.assert_array_equal(seeded[0], [1.0, 0.0])
        np.testing.assert_array_equal(seeded[1], [0.5, 0.5])
        with pytest.raises(ValueError, match="initial_population"):
            _seed_population(population, [[1.0, 2.0, 3.0]], lower, upper)

    def test_de_warm_start_is_deterministic_and_journals_population(
            self, tmp_path, fresh_globals):
        lower, upper = [-2.0, -2.0], [2.0, 2.0]
        seeds = np.array([[0.05, 0.05], [0.1, -0.1]])
        kwargs = dict(population_size=8, max_iterations=15, seed=7)
        path = str(tmp_path / "journal.jsonl")
        with RunJournal(path, run_id="warm") as journal:
            set_journal(journal)
            warm = differential_evolution(sphere, lower, upper,
                                          initial_population=seeds,
                                          **kwargs)
            set_journal(None)
        rerun = differential_evolution(sphere, lower, upper,
                                       initial_population=seeds, **kwargs)
        assert warm.fun == rerun.fun
        np.testing.assert_array_equal(warm.x, rerun.x)
        cold = differential_evolution(sphere, lower, upper, **kwargs)
        assert warm.fun <= cold.fun  # seeded near the optimum
        (event,), _ = read_tail_events(path, 1, event="final_population")
        assert event["algorithm"] == "differential_evolution"
        assert len(event["population"]) == 8
        assert len(event["fitness"]) == 8

    def test_pso_and_nsga2_accept_initial_population(self,
                                                     fresh_globals):
        seeds = np.array([[0.01, 0.01]])
        result = particle_swarm(sphere, [-1, -1], [1, 1], n_particles=6,
                                max_iterations=10, seed=3,
                                initial_population=seeds)
        assert result.fun <= sphere(seeds[0])

        problem = pointwise_problem(
            objectives=lambda x: np.array([sphere(x),
                                           sphere(x - 0.5)]),
            n_objectives=2,
            lower=np.array([-1.0, -1.0]),
            upper=np.array([1.0, 1.0]),
        )
        front = nsga2(problem, population_size=8, n_generations=5,
                      seed=3, initial_population=np.array([[0.2, 0.2]]))
        assert front.x.shape[1] == 2


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------

class TestFleetCli:
    def test_fleet_summary_json(self, mixed_fleet, capsys):
        assert cli_main(["--runs-root", mixed_fleet,
                         "fleet", "summary", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_runs"] == 5
        assert summary["by_status"]["completed"] == 3

    def test_fleet_summary_filtered_text(self, mixed_fleet, capsys):
        assert cli_main(["--runs-root", mixed_fleet, "fleet", "summary",
                         "--experiment", "e5"]) == 0
        out = capsys.readouterr().out
        assert "runs        : 4" in out

    def test_fleet_top_curves_failures(self, mixed_fleet, capsys):
        assert cli_main(["--runs-root", mixed_fleet, "fleet", "top",
                         "-n", "1", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["run_id"] == "de-better"
        assert cli_main(["--runs-root", mixed_fleet, "fleet", "curves",
                         "--grid", "4", "--json"]) == 0
        envelopes = json.loads(capsys.readouterr().out)
        assert len(envelopes["nsga2"]["grid"]) == 4
        assert cli_main(["--runs-root", mixed_fleet, "fleet",
                         "failures", "--json"]) == 0
        failures = json.loads(capsys.readouterr().out)
        assert failures["total"] == 3

    def test_fleet_rebuild_flag(self, mixed_fleet, capsys):
        index_path = os.path.join(mixed_fleet, INDEX_NAME)
        FleetView(mixed_fleet)  # seed the index
        open(index_path, "ab").write(b"torn")
        assert cli_main(["--runs-root", mixed_fleet, "fleet", "summary",
                         "--rebuild", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_runs"] == 5

    def test_tail_prints_last_events(self, tmp_path, fresh_globals,
                                     capsys):
        path = make_run(tmp_path, "r1")
        assert cli_main(["tail", path, "-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[-1])["event"] == "run_end"

    def test_tail_reports_torn_tail(self, tmp_path, fresh_globals,
                                    capsys):
        path = make_run(tmp_path, "r1")
        open(path, "ab").write(b'{"seq":9,"event":"gener')
        assert cli_main(["tail", path, "-n", "3"]) == 0
        assert "truncated tail" in capsys.readouterr().err

    def test_tail_follow_exits_on_run_end(self, tmp_path, fresh_globals,
                                          capsys):
        # The run already carries its trailer: follow returns at once.
        path = make_run(tmp_path, "r1")
        assert cli_main(["tail", path, "-n", "5", "--follow",
                         "--poll", "0.01"]) == 0

    def test_compare_summary_json_archives_the_check_table(
            self, tmp_path, fresh_globals, capsys):
        baseline = make_run(tmp_path / "a", "base", best0=4.0)
        candidate = make_run(tmp_path / "b", "cand", best0=4.0)
        out_path = str(tmp_path / "diff.json")
        assert cli_main(["compare", baseline, candidate,
                         "--summary-json", out_path]) == 0
        table = json.loads(open(out_path).read())
        assert table["ok"] is True
        assert any(check["name"] == "final_best"
                   for check in table["checks"])

    def test_summary_json_written_even_on_regression(
            self, tmp_path, fresh_globals, capsys):
        baseline = make_run(tmp_path / "a", "base", best0=4.0)
        worse = make_run(tmp_path / "b", "cand", best0=40.0)
        out_path = str(tmp_path / "diff.json")
        assert cli_main(["compare", baseline, worse,
                         "--summary-json", out_path]) == 1
        assert json.loads(open(out_path).read())["ok"] is False

    def test_empty_metric_names_are_rejected(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError,
                           match="empty metric name"):
            _parse_tolerance("=rel:0.05")
        with pytest.raises(argparse.ArgumentTypeError,
                           match="empty counter name"):
            _parse_counter("  =0.15")
        # Well-formed specs still parse.
        assert _parse_counter("speedup=0.15") == ("speedup", 0.15)


# ----------------------------------------------------------------------
# Prometheus export
# ----------------------------------------------------------------------

class TestPromExport:
    def _metrics(self):
        metrics = Metrics()
        metrics.inc("evaluator.cache_hits", 7)
        metrics.gauge("service.eval_per_s", 123.5)
        return metrics

    def test_render_counters_and_gauges(self):
        text = render_prometheus(self._metrics())
        assert "# TYPE repro_evaluator_cache_hits_total counter" in text
        assert "repro_evaluator_cache_hits_total 7" in text
        assert "# TYPE repro_service_eval_per_s gauge" in text
        assert "repro_service_eval_per_s 123.5" in text
        assert text.endswith("\n")

    def test_collector_samples_and_label_escaping(self):
        def collector():
            yield ("queue_depth", {"state": 'pen"ding\n'}, 3)
            yield ("queue_depth", {"state": "leased"}, 1)

        text = render_prometheus(Metrics(), collectors=[collector])
        assert text.count("# TYPE repro_queue_depth gauge") == 1
        assert r'repro_queue_depth{state="pen\"ding\n"} 3' in text
        assert 'repro_queue_depth{state="leased"} 1' in text

    def test_dead_collector_is_swallowed(self):
        def dead():
            raise RuntimeError("queue torn down")

        text = render_prometheus(self._metrics(), collectors=[dead])
        assert "repro_evaluator_cache_hits_total 7" in text

    def test_textfile_snapshot_is_atomic(self, tmp_path):
        exporter = PromExporter(metrics=self._metrics())
        target = str(tmp_path / "drop" / "repro.prom")
        exporter.write_textfile(target)
        assert open(target).read() == exporter.render()
        assert [f for f in os.listdir(tmp_path / "drop")] == ["repro.prom"]

    def test_http_endpoint_serves_current_rendering(self):
        metrics = self._metrics()
        with PromExporter(metrics=metrics) as exporter:
            port = exporter.serve(port=0)
            assert exporter.port == port
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics") as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            assert "repro_evaluator_cache_hits_total 7" in body
            metrics.inc("evaluator.cache_hits", 1)
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/") as response:
                assert b"_cache_hits_total 8" in response.read()
        assert exporter.port is None  # closed


# ----------------------------------------------------------------------
# service telemetry
# ----------------------------------------------------------------------

def _spec(**overrides):
    base = dict(objective="bench.sphere", objective_params={"dim": 3},
                budget={"population_size": 8, "max_iterations": 5},
                seed=5)
    base.update(overrides)
    return JobSpec(**base)


class TestServiceTelemetry:
    def test_renew_piggybacks_progress(self, tmp_path):
        queue = JobQueue(str(tmp_path / "queue"))
        record = queue.submit(_spec())
        queue.claim("slot0", lease_s=30.0)
        assert queue.leased_progress() == {}
        queue.renew(record.job_id, "slot0", 30.0,
                    progress={"generation": 3, "nfev": 120, "best": 1.5})
        progress = queue.leased_progress()
        assert progress[record.job_id] == {"generation": 3, "nfev": 120,
                                           "best": 1.5}
        queue.complete(record.job_id, "slot0", {"fun": 1.0})
        assert queue.leased_progress() == {}

    def test_jobservice_prometheus_soak(self, tmp_path):
        root = str(tmp_path / "svc")
        client = ServiceClient(root)
        job = client.submit(_spec(
            objective_params={"dim": 3, "delay_s": 0.01},
            budget={"population_size": 6, "max_iterations": 400}))
        textfile = str(tmp_path / "prom" / "repro.prom")
        with JobService(root, slots=1, poll_interval_s=0.02,
                        prom_port=0, prom_textfile=textfile) as service:
            port = service.exporter.port
            assert port
            url = f"http://127.0.0.1:{port}/metrics"
            deadline = time.time() + 60.0
            body = ""
            while time.time() < deadline:
                with urllib.request.urlopen(url) as response:
                    body = response.read().decode("utf-8")
                if "repro_run_generation{" in body:
                    break
                time.sleep(0.05)
            # Queue depth by state is always exposed; per-job progress
            # gauges appear once the runner's first heartbeat lands.
            assert "# TYPE repro_service_queue_depth gauge" in body
            assert 'repro_service_queue_depth{state="leased"} 1' in body
            assert f'repro_run_generation{{job="{job.job_id}"}}' in body
            assert f'repro_run_nfev{{job="{job.job_id}"}}' in body
            assert f'repro_run_best{{job="{job.job_id}"}}' in body
            client.cancel(job.job_id)
            service.wait(job.job_id, timeout=60.0)
        # The supervisor's final sweep left an atomic textfile behind.
        snapshot = open(textfile).read()
        assert "repro_service_queue_depth" in snapshot
