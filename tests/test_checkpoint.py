"""Checkpoint/resume: deterministic bit-for-bit continuation.

A run killed mid-flight and resumed from its last checkpoint must
finish identical — same x, same fitness, same history, same nfev — to
a run that was never interrupted, because the checkpoint carries the
complete algorithm state including the RNG bit-generator state.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.optimize import (
    CheckpointError,
    FileCheckpointStore,
    MemoryCheckpointStore,
    differential_evolution,
    nsga2,
    particle_swarm,
)
from repro.optimize.checkpoint import Checkpoint, resume_or_none
from repro.optimize.goal_attainment import goal_attainment_improved
from toy_problems import pointwise_problem


def rosenbrock(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


class KillAfter:
    """Objective wrapper that interrupts the run after n calls."""

    def __init__(self, objective, n_calls):
        self._objective = objective
        self._remaining = int(n_calls)

    def __call__(self, x):
        self._remaining -= 1
        if self._remaining < 0:
            raise KeyboardInterrupt("simulated kill")
        return self._objective(x)


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------

def test_memory_store_roundtrip():
    store = MemoryCheckpointStore()
    assert store.load() is None
    ckpt = Checkpoint("de", 3, None, {"a": np.arange(4)})
    store.save(ckpt)
    assert store.n_saves == 1
    loaded = store.load()
    assert loaded.algorithm == "de" and loaded.iteration == 3
    store.clear()
    assert store.load() is None


def test_file_store_roundtrip_and_clear(tmp_path):
    path = tmp_path / "run.ckpt"
    store = FileCheckpointStore(str(path))
    assert store.load() is None
    store.save(Checkpoint("pso", 7, {"state": 1}, {"v": np.ones(3)}))
    assert path.exists()
    loaded = store.load()
    assert loaded.iteration == 7
    assert np.array_equal(loaded.payload["v"], np.ones(3))
    store.clear()
    assert not path.exists()
    store.clear()  # idempotent


def test_file_store_atomic_no_tmp_left_behind(tmp_path):
    path = tmp_path / "nested" / "run.ckpt"
    store = FileCheckpointStore(str(path))
    for i in range(3):
        store.save(Checkpoint("de", i, None, {}))
    # Only the checkpoint and its last-good rotation may remain — no
    # mkstemp leftovers.
    leftovers = [p for p in path.parent.iterdir()
                 if p not in (path, path.with_suffix(".ckpt.prev"))]
    assert leftovers == []
    assert store.load().iteration == 2


def test_file_store_rotates_previous_checkpoint(tmp_path):
    path = tmp_path / "run.ckpt"
    store = FileCheckpointStore(str(path))
    store.save(Checkpoint("de", 1, None, {}))
    store.save(Checkpoint("de", 2, None, {}))
    prev = FileCheckpointStore(store.previous_path)
    assert prev.load().iteration == 1
    assert store.load().iteration == 2


def test_file_store_corrupt_quarantined_in_warn_mode(tmp_path):
    path = tmp_path / "run.ckpt"
    path.write_bytes(b"\x80\x04 definitely not a pickle")
    store = FileCheckpointStore(str(path))
    with pytest.warns(UserWarning, match="quarantin"):
        assert store.load() is None
    assert not path.exists()
    assert (tmp_path / "run.ckpt.corrupt").exists()


def test_file_store_corrupt_raises_in_strict_mode(tmp_path):
    from repro.guards import guard_mode

    path = tmp_path / "run.ckpt"
    path.write_bytes(b"not a pickle")
    with guard_mode("strict"):
        with pytest.raises(CheckpointError):
            FileCheckpointStore(str(path)).load()
    assert path.exists()  # strict mode does not quarantine


def test_file_store_wrong_object_quarantined(tmp_path):
    path = tmp_path / "run.ckpt"
    path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
    with pytest.warns(UserWarning, match="quarantin"):
        assert FileCheckpointStore(str(path)).load() is None
    assert (tmp_path / "run.ckpt.corrupt").exists()


def test_file_store_crc_detects_bit_flip(tmp_path):
    path = tmp_path / "run.ckpt"
    store = FileCheckpointStore(str(path))
    store.save(Checkpoint("de", 4, None, {"v": np.arange(5)}))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.warns(UserWarning, match="quarantin"):
        assert store.load() is None


def test_file_store_falls_back_to_previous_good(tmp_path):
    path = tmp_path / "run.ckpt"
    store = FileCheckpointStore(str(path))
    store.save(Checkpoint("de", 1, None, {}))
    store.save(Checkpoint("de", 2, None, {}))
    # Truncate the live checkpoint mid-blob; resume must quarantine it
    # and fall back to the rotated last-good copy instead of crashing.
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.warns(UserWarning, match="quarantin"):
        loaded = store.load()
    assert loaded is not None and loaded.iteration == 1
    assert (tmp_path / "run.ckpt.corrupt").exists()


def test_file_store_legacy_plain_pickle_still_loads(tmp_path):
    path = tmp_path / "run.ckpt"
    path.write_bytes(pickle.dumps(Checkpoint("pso", 9, None, {})))
    loaded = FileCheckpointStore(str(path)).load()
    assert loaded is not None and loaded.iteration == 9


def test_file_store_retries_transient_oserror(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    store = FileCheckpointStore(str(path))
    real_replace = os.replace
    failures = {"n": 2}

    def flaky_replace(src, dst):
        if failures["n"] > 0 and dst == store.path:
            failures["n"] -= 1
            raise OSError("transient I/O hiccup")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", flaky_replace)
    monkeypatch.setattr(time, "sleep", lambda s: None)
    store.save(Checkpoint("de", 5, None, {}))
    assert store.io_retries == 2
    assert store.load().iteration == 5


def test_resume_or_none_algorithm_mismatch():
    store = MemoryCheckpointStore()
    store.save(Checkpoint("differential_evolution", 5, None, {}))
    with pytest.raises(CheckpointError):
        resume_or_none(store, "particle_swarm")
    assert resume_or_none(None, "whatever") is None


# ----------------------------------------------------------------------
# kill/resume bit-for-bit
# ----------------------------------------------------------------------

def test_de_kill_and_resume_bit_for_bit():
    kwargs = dict(lower=-2 * np.ones(2), upper=2 * np.ones(2),
                  population_size=12, max_iterations=40, seed=17)
    clean = differential_evolution(rosenbrock, **kwargs)

    store = MemoryCheckpointStore()
    # Kill mid-generation-13: init costs 12 evals, each generation 12.
    killer = KillAfter(rosenbrock, 12 + 12 * 12 + 5)
    with pytest.raises(KeyboardInterrupt):
        differential_evolution(killer, checkpoint_store=store,
                               checkpoint_every=5, **kwargs)
    saved = store.load()
    assert saved is not None and saved.iteration == 10

    resumed = differential_evolution(rosenbrock, checkpoint_store=store,
                                     checkpoint_every=5, **kwargs)
    assert np.array_equal(resumed.x, clean.x)
    assert resumed.fun == clean.fun
    assert resumed.nfev == clean.nfev
    assert resumed.history == clean.history
    assert resumed.health.resumed_at == 10
    assert store.load() is None  # cleared on completion


def test_pso_kill_and_resume_bit_for_bit():
    kwargs = dict(lower=-2 * np.ones(2), upper=2 * np.ones(2),
                  n_particles=10, max_iterations=30, seed=23)
    clean = particle_swarm(rosenbrock, **kwargs)

    store = MemoryCheckpointStore()
    killer = KillAfter(rosenbrock, 10 + 10 * 12 + 3)
    with pytest.raises(KeyboardInterrupt):
        particle_swarm(killer, checkpoint_store=store,
                       checkpoint_every=5, **kwargs)
    assert store.load() is not None

    resumed = particle_swarm(rosenbrock, checkpoint_store=store,
                             checkpoint_every=5, **kwargs)
    assert np.array_equal(resumed.x, clean.x)
    assert resumed.fun == clean.fun
    assert resumed.nfev == clean.nfev
    assert resumed.history == clean.history
    assert resumed.health.resumed_at is not None
    assert store.load() is None


def test_de_resume_rejects_mismatched_shape():
    store = MemoryCheckpointStore()
    killer = KillAfter(rosenbrock, 10 * 7)
    with pytest.raises(KeyboardInterrupt):
        differential_evolution(killer, -np.ones(2), np.ones(2),
                               population_size=10, max_iterations=30,
                               seed=1, checkpoint_store=store,
                               checkpoint_every=2)
    with pytest.raises(CheckpointError):
        differential_evolution(rosenbrock, -np.ones(3), np.ones(3),
                               population_size=10, max_iterations=30,
                               seed=1, checkpoint_store=store)


def test_de_file_store_survives_process_style_resume(tmp_path):
    path = str(tmp_path / "de.ckpt")
    kwargs = dict(lower=-np.ones(2), upper=np.ones(2),
                  population_size=8, max_iterations=20, seed=3)
    clean = differential_evolution(rosenbrock, **kwargs)
    killer = KillAfter(rosenbrock, 8 + 8 * 10 + 1)
    with pytest.raises(KeyboardInterrupt):
        differential_evolution(killer,
                               checkpoint_store=FileCheckpointStore(path),
                               checkpoint_every=4, **kwargs)
    # A brand-new store object (as a fresh process would build).
    resumed = differential_evolution(
        rosenbrock, checkpoint_store=FileCheckpointStore(path),
        checkpoint_every=4, **kwargs,
    )
    assert np.array_equal(resumed.x, clean.x)
    assert resumed.nfev == clean.nfev


def _biobjective_problem():
    def objectives(x):
        x = np.asarray(x, dtype=float)
        return np.array([float(np.sum(x ** 2)),
                         float(np.sum((x - 1.0) ** 2))])

    return objectives


def test_nsga2_kill_and_resume_bit_for_bit():
    objectives = _biobjective_problem()

    def make_problem(fn):
        return pointwise_problem(
            objectives=fn, n_objectives=2,
            lower=np.zeros(2), upper=np.ones(2),
        )

    kwargs = dict(population_size=12, n_generations=20, seed=5)
    clean = nsga2(make_problem(objectives), **kwargs)

    store = MemoryCheckpointStore()
    killer = KillAfter(objectives, 12 + 12 * 8 + 4)
    with pytest.raises(KeyboardInterrupt):
        nsga2(make_problem(killer), checkpoint_store=store,
              checkpoint_every=3, **kwargs)
    assert store.load() is not None

    resumed = nsga2(make_problem(objectives), checkpoint_store=store,
                    checkpoint_every=3, **kwargs)
    assert np.array_equal(resumed.x, clean.x)
    assert np.array_equal(resumed.objectives, clean.objectives)
    assert resumed.nfev == clean.nfev
    assert resumed.health.resumed_at is not None
    assert store.load() is None


def test_goal_attainment_improved_kill_and_resume():
    objectives = _biobjective_problem()

    def make_problem(fn):
        return pointwise_problem(
            objectives=fn, n_objectives=2,
            lower=np.zeros(2), upper=np.ones(2),
        )

    kwargs = dict(goals=np.array([0.3, 0.3]), n_probe=16, n_starts=3,
                  tighten_rounds=1, seed=9)
    clean = goal_attainment_improved(make_problem(objectives), **kwargs)

    store = MemoryCheckpointStore()
    # Kill inside the multi-start stage, past the 16 probe evaluations.
    killer = KillAfter(objectives, 16 + 40)
    with pytest.raises(KeyboardInterrupt):
        goal_attainment_improved(make_problem(killer),
                                 checkpoint_store=store, **kwargs)
    assert store.load() is not None

    resumed = goal_attainment_improved(make_problem(objectives),
                                       checkpoint_store=store, **kwargs)
    assert np.array_equal(resumed.x, clean.x)
    assert resumed.gamma == clean.gamma
    assert resumed.nfev == clean.nfev
    assert resumed.history == clean.history
    assert store.load() is None


def test_checkpointing_does_not_change_the_result():
    kwargs = dict(lower=-np.ones(3), upper=np.ones(3),
                  population_size=10, max_iterations=25, seed=8)
    plain = differential_evolution(rosenbrock, **kwargs)
    store = MemoryCheckpointStore()
    with_store = differential_evolution(rosenbrock, checkpoint_store=store,
                                        checkpoint_every=4, **kwargs)
    assert np.array_equal(plain.x, with_store.x)
    assert plain.fun == with_store.fun
    assert plain.nfev == with_store.nfev
    assert store.n_saves > 0
    assert store.load() is None


def test_file_store_survives_two_concurrent_writers(tmp_path):
    """Two writers racing one path: last writer wins, nothing corrupts.

    The scenario is a lease takeover whose previous owner is still
    flushing its final snapshot while the new owner starts writing.
    The atomic write-then-rename discipline means every load along the
    way sees a *complete* checkpoint from one writer or the other —
    never a torn file, never a quarantine on this clean interleaving.
    """
    import threading

    path = str(tmp_path / "shared.ckpt")
    store_a = FileCheckpointStore(path)
    store_b = FileCheckpointStore(path)
    n_rounds = 60
    barrier = threading.Barrier(2)
    errors = []

    def writer(store, tag):
        try:
            barrier.wait()
            for i in range(n_rounds):
                store.save(Checkpoint(
                    algorithm="de", iteration=i,
                    rng_state=None, payload={"writer": tag, "i": i}))
        except BaseException as exc:  # noqa: BLE001 - fail the test below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(store_a, "a")),
               threading.Thread(target=writer, args=(store_b, "b"))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []

    # The survivor is one writer's final-ish snapshot, fully intact.
    final = FileCheckpointStore(path).load()
    assert final is not None
    assert final.payload["writer"] in ("a", "b")
    assert final.payload["i"] == final.iteration
    # No quarantine happened and no temp files were left behind.
    leftovers = [name for name in os.listdir(tmp_path)
                 if name.endswith(".corrupt") or ".ckpt.tmp" in name]
    assert leftovers == []
    assert store_a.io_retries == 0
    assert store_b.io_retries == 0
