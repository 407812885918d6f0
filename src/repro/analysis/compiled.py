"""Batched AC analysis: population-level MNA solves.

Population-based optimizers (DE, PSO, NSGA-II, the goal-attainment
probe phase) evaluate many circuits that share one topology and differ
only in element values.  Solving them one at a time wastes most of the
wall clock on Python dispatch; this module stacks B candidates into a
``(B, F, n, n)`` admittance tensor and performs **one** batched
factorization for the signal *and* noise right-hand sides — the exact
computation of :func:`repro.analysis.acsolver.solve_ac`, candidate by
candidate, to floating-point roundoff (the equivalence is enforced by
``tests/test_random_circuits.py``).

Two entry points:

* :func:`solve_ac_batch` — takes a sequence of fully built
  :class:`~repro.analysis.netlist.Circuit` objects with identical
  topology and returns a :class:`BatchACResult`.  Generic, but still
  pays per-candidate assembly cost.
* :func:`solve_tensor_batch` — the low-level core, which solves a
  ``(B, F, n, n)`` tensor assembled by the caller; its fault-isolated
  twin :func:`solve_tensor_batch_isolated` re-solves failing rows one
  at a time with the equilibrated escalation.

These are the dense reference kernels.  The compiled LNA engine
(:mod:`repro.core.engine`) does not call them: it compiles a condensed
plan once per topology (:mod:`repro.analysis.sparsemna`) and solves
only the small reduced system per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.acsolver import (
    ACResult,
    _assemble_tensor,
    _collect_noise_sources,
)
from repro.analysis.conditioning import equilibrated_solve, observe_condition
from repro.analysis.netlist import Circuit
from repro.guards import modes as _guard_modes
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer
from repro.rf import conversions as cv
from repro.rf.frequency import FrequencyGrid

__all__ = [
    "BatchNoiseSource",
    "BatchACResult",
    "solve_ac_batch",
    "solve_tensor_batch",
    "solve_tensor_batch_isolated",
]


@dataclass
class BatchNoiseSource:
    """One noise source shared across a batch of same-topology circuits.

    ``columns`` is the ``(n_nodes, w)`` stack of injection vectors —
    they depend only on the topology, so one copy serves the whole
    batch.  ``psd`` is the (possibly per-candidate) power spectral
    density: shape ``(F,)`` or broadcastable ``(B, F)`` for scalar
    sources, ``(F, w, w)`` or ``(B, F, w, w)`` for correlated blocks,
    in the 2kT-normalized convention of :mod:`repro.rf.noise`.
    """

    columns: np.ndarray
    psd: np.ndarray

    @property
    def width(self) -> int:
        return self.columns.shape[1]


@dataclass
class BatchACResult:
    """S-parameters and port noise correlation of a batch of circuits."""

    frequency: FrequencyGrid
    s: np.ndarray          # (B, F, n_ports, n_ports)
    cy: np.ndarray         # (B, F, n_ports, n_ports)
    z0: float
    port_names: List[str]
    node_transfers: Optional[np.ndarray] = None  # (B, F, n_probes, n_ports)
    probe_nodes: tuple = ()

    def __len__(self) -> int:
        return self.s.shape[0]

    def candidate(self, index: int) -> ACResult:
        """A detached :class:`ACResult` copy of one batch member.

        The arrays are **copies**, not views into the batch tensors:
        callers routinely post-process a single candidate's ``s``/``cy``
        in place, and a view would silently corrupt its batch siblings.
        """
        transfers = None
        if self.node_transfers is not None:
            transfers = self.node_transfers[index].copy()
        return ACResult(
            frequency=self.frequency,
            s=self.s[index].copy(),
            cy=self.cy[index].copy(),
            z0=self.z0,
            port_names=list(self.port_names),
            node_transfers=transfers,
            probe_nodes=self.probe_nodes,
        )


def _port_results(
    v_ports: np.ndarray,
    n_ports: int,
    z0: float,
    noise_sources: Sequence[BatchNoiseSource],
) -> Tuple[np.ndarray, np.ndarray]:
    """S-parameters and port noise correlation from the port rows of
    the MNA solution."""
    z_loaded = v_ports[..., :n_ports]
    z_loaded_inv = np.linalg.inv(z_loaded)
    g0 = np.eye(n_ports) / z0
    y_net = z_loaded_inv - g0
    s_out = cv.y_to_s(y_net, z0)

    cy_out = np.zeros(v_ports.shape[:-1] + (n_ports,), dtype=complex)
    col = n_ports
    for src in noise_sources:
        width = src.width
        transfer = v_ports[..., col:col + width]
        col += width
        # Port-referred noise currents: i_n = -(Y_net + G0) v_loaded.
        i_n = -z_loaded_inv @ transfer
        i_n_h = np.conjugate(np.swapaxes(i_n, -1, -2))
        psd = np.asarray(src.psd)
        if psd.ndim <= 2:          # (F,) or (B, F) scalar densities
            cy_out += psd[..., None, None] * (i_n @ i_n_h)
        else:                      # (F, w, w) or (B, F, w, w) matrices
            cy_out += i_n @ psd @ i_n_h
    return s_out, cy_out


def solve_tensor_batch(
    y_batch: np.ndarray,
    port_rows: np.ndarray,
    z0: float,
    noise_sources: Sequence[BatchNoiseSource] = (),
    probe_rows: Sequence[int] = (),
    _solve=np.linalg.solve,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One batched MNA solve of ``(B, F, n, n)`` admittance tensors.

    *y_batch* must NOT yet include the port reference loads; they are
    added to an internal copy — **the caller's tensor is never
    mutated**.  Returns ``(s, cy, node_transfers)`` with shapes
    ``(B, F, p, p)``, ``(B, F, p, p)`` and ``(B, F, n_probes, p)``
    (transfers are ``None`` when no probe rows are requested).  Raises
    ``ValueError`` on singular topology, like the scalar solver.

    ``_solve`` is the linear-solver hook the conditioning escalation
    swaps for :func:`repro.analysis.conditioning.equilibrated_solve`.
    """
    if y_batch.ndim != 4 or y_batch.shape[-1] != y_batch.shape[-2]:
        raise ValueError(
            f"expected (B, F, n, n) admittance tensor, got {y_batch.shape}"
        )
    n_batch, n_freq, n_nodes, _ = y_batch.shape
    port_rows = np.asarray(port_rows, dtype=int)
    n_ports = port_rows.size

    n_noise_cols = sum(src.width for src in noise_sources)
    rhs = np.zeros((n_nodes, n_ports + n_noise_cols), dtype=complex)
    for col, row in enumerate(port_rows):
        rhs[row, col] = 1.0
    col = n_ports
    for src in noise_sources:
        rhs[:, col:col + src.width] = src.columns
        col += src.width

    # Reference loads go onto a copy: the caller's tensor stays
    # bit-identical (callers used to scatter defensive .copy() calls
    # to survive the old in-place behaviour).
    y_loaded = y_batch.copy()
    for row in port_rows:
        y_loaded[..., row, row] += 1.0 / z0  # noiseless reference loads

    try:
        solution = _solve(
            y_loaded,
            np.broadcast_to(rhs, (n_batch, n_freq) + rhs.shape),
        )
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            "singular circuit (floating node or degenerate element): "
            f"{exc}"
        ) from None

    v_ports = solution[..., port_rows, :]
    s_out, cy_out = _port_results(v_ports, n_ports, z0, noise_sources)

    transfers = None
    if len(probe_rows):
        transfers = np.zeros((n_batch, n_freq, len(probe_rows), n_ports),
                             dtype=complex)
        for k, row in enumerate(probe_rows):
            if row >= 0:
                transfers[..., k, :] = solution[..., row, :n_ports]
    return s_out, cy_out, transfers


def _noise_source_row(source: BatchNoiseSource, index: int,
                      n_batch: int) -> BatchNoiseSource:
    """The single-candidate view of one (possibly batched) noise source.

    Per-candidate densities are ``(B, F)`` scalars or ``(B, F, w, w)``
    blocks; shared densities (``(F,)`` / ``(F, w, w)``) pass through
    unchanged — mirroring the broadcasting rules of
    :func:`solve_tensor_batch`.
    """
    psd = np.asarray(source.psd)
    if psd.ndim in (2, 4) and psd.shape[0] == n_batch:
        return BatchNoiseSource(source.columns, psd[index:index + 1])
    return BatchNoiseSource(source.columns, psd)


def _finite_rows(*arrays: Optional[np.ndarray]) -> np.ndarray:
    """Boolean (B,) mask of batch rows whose entries are all finite."""
    mask = None
    for array in arrays:
        if array is None:
            continue
        flat = np.isfinite(array).reshape(array.shape[0], -1).all(axis=1)
        mask = flat if mask is None else mask & flat
    return mask


def _solve_row_equilibrated(
    y_row: np.ndarray,
    port_rows: np.ndarray,
    z0: float,
    row_sources: Sequence[BatchNoiseSource],
    probe_rows: Sequence[int],
):
    """Conditioning escalation for one failed batch row.

    Re-solves a single ``(1, F, n, n)`` slice through the
    equilibrated-and-refined solver.  Returns ``(s, cy, transfers)``
    on success, ``None`` when the row is beyond rescue.  Only called
    on rows the plain factorization already failed, so healthy rows
    keep their bit-for-bit results.
    """
    if not _guard_modes.enabled():
        return None
    try:
        s_i, cy_i, tr_i = solve_tensor_batch(
            y_row, port_rows, z0, row_sources, probe_rows,
            _solve=equilibrated_solve,
        )
    except (ValueError, np.linalg.LinAlgError):
        return None
    if not _finite_rows(s_i, cy_i, tr_i)[0]:
        return None
    _obs_metrics.inc("mna.equilibrated_rescues")
    return s_i, cy_i, tr_i


def solve_tensor_batch_isolated(
    y_batch: np.ndarray,
    port_rows: np.ndarray,
    z0: float,
    noise_sources: Sequence[BatchNoiseSource] = (),
    probe_rows: Sequence[int] = (),
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
    """:func:`solve_tensor_batch` with per-candidate failure isolation.

    The fast path is the ordinary full-batch factorization.  When it
    raises on a singular candidate, each row is re-solved on its own,
    so one degenerate design can no longer fail the whole population;
    rows that are singular (or produce non-finite results) come back
    zero-filled with their ``failed`` flag set.  *y_batch* is never mutated — the
    kernel adds reference loads to internal copies.

    Returns ``(s, cy, node_transfers, failed)`` where ``failed`` is a
    boolean ``(B,)`` mask; healthy rows carry exactly the values the
    raising-variant would have produced for them.
    """
    if y_batch.ndim != 4 or y_batch.shape[-1] != y_batch.shape[-2]:
        raise ValueError(
            f"expected (B, F, n, n) admittance tensor, got {y_batch.shape}"
        )
    n_batch, n_freq = y_batch.shape[:2]
    n_ports = np.asarray(port_rows, dtype=int).size
    with _obs_tracer.span("mna.solve_tensor_batch_isolated",
                          batch=n_batch, n_freq=n_freq):
        if _guard_modes.enabled():
            # One sampled conditioning estimate per batch call: the
            # mid-band matrix of the first candidate (with its port
            # loads) stands in for the batch in the per-run histogram.
            sample = y_batch[0, n_freq // 2].copy()
            for row in np.asarray(port_rows, dtype=int):
                sample[row, row] += 1.0 / z0
            observe_condition(sample, "mna")
        try:
            s, cy, transfers = solve_tensor_batch(
                y_batch, port_rows, z0, noise_sources, probe_rows,
            )
        except (ValueError, np.linalg.LinAlgError):
            pass  # fall through to the per-row path below
        else:
            failed = ~_finite_rows(s, cy, transfers)
            for i in np.flatnonzero(failed):
                # Escalation: equilibrated re-solve of the failing row
                # before it is written off (healthy rows untouched).
                row_sources = [_noise_source_row(src, i, n_batch)
                               for src in noise_sources]
                rescued = _solve_row_equilibrated(
                    y_batch[i:i + 1], port_rows, z0, row_sources,
                    probe_rows,
                )
                if rescued is None:
                    continue
                s[i], cy[i] = rescued[0][0], rescued[1][0]
                if transfers is not None and rescued[2] is not None:
                    transfers[i] = rescued[2][0]
                failed[i] = False
            if np.any(failed):
                _obs_metrics.inc("mna.failed_rows", int(np.sum(failed)))
                s[failed] = 0.0
                cy[failed] = 0.0
                if transfers is not None:
                    transfers[failed] = 0.0
            return s, cy, transfers, failed

        # Full-batch factorization failed outright: re-solve each row on
        # its own so one degenerate candidate cannot sink the rest.
        _obs_metrics.inc("mna.batch_refactorizations")
        s = np.zeros((n_batch, n_freq, n_ports, n_ports), dtype=complex)
        cy = np.zeros_like(s)
        transfers = None
        if len(probe_rows):
            transfers = np.zeros(
                (n_batch, n_freq, len(probe_rows), n_ports), dtype=complex
            )
        failed = np.zeros(n_batch, dtype=bool)
        for i in range(n_batch):
            row_sources = [_noise_source_row(src, i, n_batch)
                           for src in noise_sources]
            try:
                s_i, cy_i, tr_i = solve_tensor_batch(
                    y_batch[i:i + 1], port_rows, z0, row_sources,
                    probe_rows,
                )
            except (ValueError, np.linalg.LinAlgError):
                rescued = _solve_row_equilibrated(
                    y_batch[i:i + 1], port_rows, z0, row_sources,
                    probe_rows,
                )
                if rescued is None:
                    failed[i] = True
                    continue
                s_i, cy_i, tr_i = rescued
            if not _finite_rows(s_i, cy_i, tr_i)[0]:
                rescued = _solve_row_equilibrated(
                    y_batch[i:i + 1], port_rows, z0, row_sources,
                    probe_rows,
                )
                if rescued is None:
                    failed[i] = True
                    continue
                s_i, cy_i, tr_i = rescued
            s[i] = s_i[0]
            cy[i] = cy_i[0]
            if transfers is not None and tr_i is not None:
                transfers[i] = tr_i[0]
        if np.any(failed):
            _obs_metrics.inc("mna.failed_rows", int(np.sum(failed)))
        return s, cy, transfers, failed


def solve_ac_batch(circuits: Sequence[Circuit], frequency: FrequencyGrid,
                   compute_noise: bool = True,
                   probe_nodes: tuple = ()) -> BatchACResult:
    """Run AC + noise analysis of a batch of same-topology circuits.

    Every circuit must share node names, element structure, and port
    declarations with the first one — only element *values* may differ.
    The result matches ``[solve_ac(c, frequency) for c in circuits]``
    to floating-point roundoff at a fraction of the Python overhead.
    """
    if not len(circuits):
        raise ValueError("need at least one circuit to solve")
    reference = circuits[0]
    if not reference.ports:
        raise ValueError("circuit has no ports; declare at least one")
    z0_values = {p.z0 for p in reference.ports}
    if len(z0_values) != 1:
        raise ValueError(
            f"ports must share one reference impedance, got {sorted(z0_values)}"
        )
    z0 = reference.ports[0].z0
    node_names = reference.node_names
    port_spec = [(p.name, p.node, p.z0) for p in reference.ports]
    for circuit in circuits[1:]:
        if circuit.node_names != node_names:
            raise ValueError(
                f"circuit {circuit.name!r} has different node topology "
                f"than {reference.name!r}"
            )
        if [(p.name, p.node, p.z0) for p in circuit.ports] != port_spec:
            raise ValueError(
                f"circuit {circuit.name!r} has different ports "
                f"than {reference.name!r}"
            )

    n_nodes = len(node_names)
    f_hz = frequency.f_hz
    port_rows = np.array(
        [reference.node_index(p.node) for p in reference.ports], dtype=int
    )
    if np.any(port_rows < 0):
        raise ValueError("a port cannot be attached to ground")
    probe_rows = [reference.node_index(node) for node in probe_nodes]

    y_batch = np.stack([
        _assemble_tensor(circuit, f_hz, n_nodes) for circuit in circuits
    ])

    noise_sources: List[BatchNoiseSource] = []
    if compute_noise:
        per_circuit = [_collect_noise_sources(c, f_hz) for c in circuits]
        n_sources = len(per_circuit[0])
        if any(len(sources) != n_sources for sources in per_circuit):
            raise ValueError(
                "circuits declare different numbers of noise sources"
            )
        for idx in range(n_sources):
            columns = np.stack(per_circuit[0][idx].columns, axis=1)
            for sources in per_circuit[1:]:
                other = np.stack(sources[idx].columns, axis=1)
                if other.shape != columns.shape or not np.array_equal(
                    other, columns
                ):
                    raise ValueError(
                        "noise-source injection topology differs across "
                        "the batch"
                    )
            psd = np.stack([sources[idx].psd_array
                            for sources in per_circuit])
            noise_sources.append(BatchNoiseSource(columns, psd))

    s_out, cy_out, transfers = solve_tensor_batch(
        y_batch, port_rows, z0, noise_sources, probe_rows
    )
    return BatchACResult(
        frequency=frequency, s=s_out, cy=cy_out, z0=z0,
        port_names=[p.name for p in reference.ports],
        node_transfers=transfers, probe_nodes=tuple(probe_nodes),
    )
