"""Job execution: turning a leased :class:`JobRecord` into results.

:class:`JobRunner` is the worker side of the service — the supervisor
(:mod:`repro.service.supervisor`) claims jobs from the queue and hands
them here to run.  One runner executes one job at a time inside the
calling thread; concurrency comes from the supervisor running several
runner slots.

The contract that makes lease takeover loss-free:

* Every job owns the run directory ``<runs_root>/<job_id>/`` — the
  journal, checkpoint, and ``result.json`` all live there, keyed by the
  job id, so *whichever* process leases the job next finds the same
  artifacts.
* The optimizer checkpoints **every completed generation**
  (``spec.checkpoint_every`` defaults to 1), with the journal's
  telemetry riding inside the checkpoint payload; a takeover resumes
  the exact RNG trajectory and the replayed journal stays contiguous.
* Control is checked at **generation boundaries**, through the
  ``on_generation`` sink, *before* the generation is journaled: the
  lease heartbeat, the cancel marker, the deadline, and the drain flag
  all run there.  A zombie runner — one whose lease expired and was
  taken over while it was stalled — therefore raises
  :class:`~repro.service.queue.LeaseLost` out of its optimizer loop
  before it can append a single event to a journal the new owner now
  owns.
* ``result.json`` is written with sorted keys and split into a
  ``"result"`` subtree (the deterministic payload — bit-identical
  between an interrupted-and-recovered run and an uninterrupted one)
  and a ``"health"`` subtree (failure and retry counters).

Experiment jobs (``kind="experiment"``) run a whole driver's ``run()``
instead; they are coarse-grained and restart from scratch on retry —
the drivers orchestrate several optimizer stages of their own, so
mid-run resume is not meaningful at this layer.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Callable, Dict, Optional

from repro.obs.journal import RunJournal, set_thread_journal
from repro.obs.runs import RunRegistry
from repro.service.jobs import JobRecord, build_objective
from repro.service.queue import JobQueue, LeaseLost

__all__ = [
    "JobCancelled",
    "JobDeadlineExceeded",
    "DrainRequested",
    "JobRunner",
    "register_experiment",
    "registered_experiments",
    "RESULT_NAME",
]

RESULT_NAME = "result.json"

#: name -> module path (or injected module-like object) exposing
#: ``run(**kwargs)``.  The standard drivers register lazily by path so
#: importing the service does not drag in every experiment's
#: dependencies; tests inject fakes with :func:`register_experiment`.
_EXPERIMENTS: Dict[str, object] = {
    "e5_optimizer_comparison": "repro.experiments.e5_optimizer_comparison",
    "e6_tradeoff_front": "repro.experiments.e6_tradeoff_front",
    "e8_selected_design": "repro.experiments.e8_selected_design",
    "e12_robust_front": "repro.experiments.e12_robust_front",
}


def register_experiment(name: str, module) -> None:
    """Register an experiment driver (module path or module-like)."""
    _EXPERIMENTS[str(name)] = module


def registered_experiments():
    return sorted(_EXPERIMENTS)


def _resolve_experiment(name: str):
    try:
        module = _EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"no experiment {name!r} registered "
            f"(known: {', '.join(sorted(_EXPERIMENTS))})"
        ) from None
    if isinstance(module, str):
        module = importlib.import_module(module)
    runner = getattr(module, "run", None)
    if not callable(runner):
        raise TypeError(f"experiment {name!r} has no callable run()")
    return runner


class JobCancelled(RuntimeError):
    """The job's cancel marker appeared; stop at this boundary."""


class JobDeadlineExceeded(RuntimeError):
    """The job's wall-clock deadline passed; fail terminally."""


class DrainRequested(RuntimeError):
    """The service is draining; checkpoint and release the job."""


class _SupervisedSink:
    """``on_generation`` sink running the control checks, then journaling.

    Check order matters: lease renewal / cancel / deadline / drain run
    *before* the generation event is appended, so a runner that must
    abandon the job never writes into a journal it no longer owns.
    ``state()``/``restore()`` delegate to the journal so the telemetry
    trace rides inside optimizer checkpoints and survives takeover.
    """

    def __init__(self, journal: RunJournal, control: Callable[..., None]):
        self._journal = journal
        self._control = control

    def __call__(self, record) -> None:
        self._control(record)
        self._journal(record)

    def state(self):
        return self._journal.state()

    def restore(self, state) -> None:
        self._journal.restore(state)


class JobRunner:
    """Executes leased jobs for one owner (one runner slot).

    Parameters
    ----------
    queue:
        The durable queue the job was claimed from; used for the lease
        heartbeat and the cancel-marker poll.
    runs_root:
        Directory (or :class:`RunRegistry`) the per-job run directories
        live under.
    owner:
        Lease owner string — must match the claim, or every heartbeat
        raises :class:`LeaseLost`.
    lease_s:
        Lease duration re-granted by each heartbeat.
    drain:
        Optional zero-argument callable (typically
        ``threading.Event.is_set``); when it turns true the runner
        raises :class:`DrainRequested` at the next generation boundary.
    """

    def __init__(self, queue: JobQueue, runs_root, owner: str,
                 lease_s: float = 30.0,
                 drain: Optional[Callable[[], bool]] = None):
        self.queue = queue
        self.registry = (runs_root if isinstance(runs_root, RunRegistry)
                         else RunRegistry(runs_root))
        self.owner = str(owner)
        self.lease_s = float(lease_s)
        self.drain = drain

    # -- control ------------------------------------------------------------
    def _control_check(self, record: JobRecord,
                       generation=None) -> None:
        """One generation-boundary tick; raises to stop the optimizer.

        When the tick fires from the generation sink, the generation
        record's progress (generation index, cumulative nfev, current
        best) piggybacks on the lease heartbeat — the supervisor's
        Prometheus collector reads it back out of the lease records.
        """
        if self.drain is not None and self.drain():
            raise DrainRequested(record.job_id)
        if self.queue.cancel_requested(record.job_id):
            raise JobCancelled(record.job_id)
        if record.spec.deadline_s is not None \
                and record.started_at is not None \
                and time.time() - record.started_at > record.spec.deadline_s:
            raise JobDeadlineExceeded(record.job_id)
        progress = None
        if generation is not None:
            try:
                progress = {
                    "generation": int(generation.generation),
                    "nfev": int(generation.nfev),
                    "best": float(generation.best),
                }
            except (AttributeError, TypeError, ValueError):
                progress = None
        self.queue.renew(record.job_id, self.owner, self.lease_s,
                         progress=progress)

    # -- execution ----------------------------------------------------------
    def run(self, record: JobRecord) -> dict:
        """Run one leased job to completion; returns the result summary.

        Raises :class:`JobCancelled` / :class:`JobDeadlineExceeded` /
        :class:`DrainRequested` / :class:`LeaseLost` for the supervisor
        to translate into queue transitions, or the job's own exception
        on a genuine failure.  The run journal is scoped to *this
        thread* for the duration, so concurrent slots never cross-talk
        through the process-global flight recorder.
        """
        run = self.registry.create_run(run_id=record.job_id)
        journal = run.open_journal()
        previous = set_thread_journal(journal)
        try:
            journal.run_start(
                config={"spec": record.spec.to_dict()},
                seeds={"optimizer": record.spec.seed},
                job_id=record.job_id,
                owner=self.owner,
                attempt=record.attempt,
                takeovers=record.takeovers,
            )
            if record.spec.kind == "experiment":
                summary = self._run_experiment(record, run)
            else:
                summary = self._run_optimize(record, run, journal)
            journal.run_end(status="completed")
            return summary
        except (JobCancelled, JobDeadlineExceeded) as exc:
            # Terminal control outcomes close the run's story here; the
            # supervisor still owns the queue-side transition.
            journal.run_end(status="failed",
                            error=f"{type(exc).__name__}: {exc}")
            raise
        except (DrainRequested, LeaseLost):
            # The job stays live (released or owned by its new leaser):
            # no run_end — the checkpoint must remain resumable and the
            # gc orphan scan protects live job ids.
            raise
        except BaseException as exc:
            if record.attempt >= record.spec.max_retries:
                journal.run_end(status="failed",
                                error=f"{type(exc).__name__}: {exc}")
            else:
                journal.append("attempt_failed", attempt=record.attempt,
                               error=f"{type(exc).__name__}: {exc}")
                journal.flush()
            raise
        finally:
            set_thread_journal(previous)
            journal.close()

    def _run_optimize(self, record: JobRecord, run, journal) -> dict:
        from repro.optimize import metaheuristics as mh

        spec = record.spec
        problem = build_objective(spec.objective, spec.objective_params)
        sink = _SupervisedSink(
            journal,
            lambda generation=None: self._control_check(record, generation))
        budget = dict(spec.budget)
        common = dict(
            max_iterations=int(budget.get("max_iterations", 50)),
            seed=spec.seed,
            objective_batch=problem["objective_batch"],
            workers=spec.workers,
            checkpoint_store=run.checkpoint_store(),
            checkpoint_every=spec.checkpoint_every,
            resume=True,
            on_generation=sink,
        )
        common.update(spec.options)
        size = int(budget.get("population_size", 20))
        if spec.algorithm == "particle_swarm":
            result = mh.particle_swarm(
                problem["objective"], problem["lower"], problem["upper"],
                n_particles=size, **common)
        else:
            result = mh.differential_evolution(
                problem["objective"], problem["lower"], problem["upper"],
                population_size=size, **common)

        payload = {
            "result": {
                "x": [float(v) for v in result.x],
                "fun": float(result.fun),
                "nfev": int(result.nfev),
                "n_iterations": int(result.n_iterations),
                "converged": bool(result.converged),
                "message": str(result.message),
                "history": [float(v) for v in result.history],
            },
            "health": result.health.as_dict(),
        }
        self._write_result(run, payload)
        journal.record_health(result.health)
        return {
            "fun": payload["result"]["fun"],
            "nfev": payload["result"]["nfev"],
            "n_iterations": payload["result"]["n_iterations"],
            "converged": payload["result"]["converged"],
            "run_dir": run.path,
        }

    def _run_experiment(self, record: JobRecord, run) -> dict:
        spec = record.spec
        runner = _resolve_experiment(spec.experiment)
        self._control_check(record)  # heartbeat before the long haul
        value = runner(**dict(spec.experiment_kwargs))
        summary = {"experiment": spec.experiment, "status": "completed"}
        if isinstance(value, dict):
            # Keep only JSON-clean leaves; drivers return rich objects.
            for key, item in value.items():
                if isinstance(item, (int, float, str, bool)) \
                        or item is None:
                    summary[str(key)] = item
        # Experiment jobs honor the same fetch contract as optimize
        # jobs: ServiceClient.result() reads result.json from the run
        # dir, so a completed job must always have written one.
        self._write_result(run, {"result": summary})
        return summary

    @staticmethod
    def _write_result(run, payload: dict) -> None:
        """Atomically write ``result.json`` with deterministic bytes."""
        target = os.path.join(run.path, RESULT_NAME)
        blob = json.dumps(payload, sort_keys=True, indent=2)
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(blob + "\n")
        os.replace(tmp, target)
