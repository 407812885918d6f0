"""Small-signal AC analysis: N-port S-parameters and noise correlation.

The solver assembles the complex node-admittance tensor of a
:class:`~repro.analysis.netlist.Circuit` for the whole frequency grid
at once (elements stamp vectorized values), attaches the (noiseless)
port reference loads, and performs one batched factorization for all
right-hand sides:

* unit current injections at each port give the loaded impedance
  matrix, from which the network's own Y- and S-parameters follow;
* unit injections at every internal noise-source location give the
  transfer vectors that map source PSDs to the port noise-current
  correlation matrix ``CY`` (Hillbrand-Russer 2kT normalization, as
  everywhere in :mod:`repro.rf.noise`).

Frequency-dependent blocks (``YBlock.y_function``, ``cy_function``,
``NoiseCurrent.psd``) may accept the full frequency array and return a
stacked result; scalar-only callables are looped transparently.

For a two-port circuit the result converts directly into a
:class:`repro.rf.noise.NoisyTwoPort`, which is how the LNA design flow
consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.analysis.conditioning import equilibrated_solve, observe_condition
from repro.analysis.netlist import (
    Capacitor,
    Circuit,
    Inductor,
    NoiseCurrent,
    Resistor,
    TransmissionLineElement,
    Vccs,
    YBlock,
)
from repro.guards import modes as _guard_modes
from repro.obs import metrics as _obs_metrics
from repro.rf import conversions as cv
from repro.rf.frequency import FrequencyGrid
from repro.rf.noise import NoisyTwoPort, ca_from_cy
from repro.rf.twoport import TwoPort
from repro.util.constants import BOLTZMANN

__all__ = ["ACResult", "assemble_tensor", "solve_ac"]


@dataclass
class ACResult:
    """S-parameters and port noise correlation of a circuit."""

    frequency: FrequencyGrid
    s: np.ndarray          # (F, n_ports, n_ports)
    cy: np.ndarray         # (F, n_ports, n_ports), one-sided 2kT-normalized
    z0: float
    port_names: List[str]
    #: voltage transfer of probed nodes per unit current injected at each
    #: port (into the loaded network): shape (F, n_probes, n_ports).
    node_transfers: Optional[np.ndarray] = None
    probe_nodes: tuple = ()

    @property
    def y(self) -> np.ndarray:
        """Network Y-parameters (F, n, n)."""
        return cv.s_to_y(self.s, self.z0)

    def transfer_to(self, node: str) -> np.ndarray:
        """Voltage transfer of one probed node, shape (F, n_ports)."""
        if self.node_transfers is None:
            raise ValueError("solve_ac was called without probe_nodes")
        try:
            idx = self.probe_nodes.index(node)
        except ValueError:
            raise KeyError(
                f"node {node!r} was not probed (probed: {self.probe_nodes})"
            ) from None
        return self.node_transfers[:, idx, :]

    def as_twoport(self, name: str = "") -> TwoPort:
        """The signal-only two-port (requires exactly two ports)."""
        self._require_two_ports()
        return TwoPort(self.frequency, self.s, z0=self.z0, name=name)

    def as_noisy_twoport(self, name: str = "") -> NoisyTwoPort:
        """Signal + noise as a :class:`NoisyTwoPort` (two ports only)."""
        network = self.as_twoport(name)
        ca = ca_from_cy(self.cy, network.abcd)
        return NoisyTwoPort(network, ca)

    def _require_two_ports(self):
        if self.s.shape[-1] != 2:
            raise ValueError(
                f"circuit has {self.s.shape[-1]} ports, expected 2"
            )


def solve_ac(circuit: Circuit, frequency: FrequencyGrid,
             compute_noise: bool = True,
             probe_nodes: tuple = ()) -> ACResult:
    """Run AC + noise analysis of *circuit* over *frequency*.

    Raises ``ValueError`` for circuits without ports, with mixed port
    impedances, or with singular topology (floating sub-networks).
    """
    if not circuit.ports:
        raise ValueError("circuit has no ports; declare at least one")
    z0_values = {p.z0 for p in circuit.ports}
    if len(z0_values) != 1:
        raise ValueError(
            f"ports must share one reference impedance, got {sorted(z0_values)}"
        )
    z0 = circuit.ports[0].z0

    n_nodes = len(circuit.node_names)
    n_ports = len(circuit.ports)
    f_hz = frequency.f_hz
    n_freq = f_hz.size
    port_rows = np.array(
        [circuit.node_index(p.node) for p in circuit.ports], dtype=int
    )
    if np.any(port_rows < 0):
        raise ValueError("a port cannot be attached to ground")

    probe_rows = None
    if probe_nodes:
        # node_index raises KeyError for unknown nodes; ground probes are
        # index -1 and report zero voltage.
        probe_rows = [circuit.node_index(node) for node in probe_nodes]

    sources = _collect_noise_sources(circuit, f_hz) if compute_noise else []
    n_noise_cols = sum(len(s.columns) for s in sources)

    # ---- batched assembly -------------------------------------------------
    y_full = _assemble_tensor(circuit, f_hz, n_nodes)
    for row in port_rows:
        y_full[:, row, row] += 1.0 / z0  # noiseless reference loads

    rhs = np.zeros((n_nodes, n_ports + n_noise_cols), dtype=complex)
    for col, row in enumerate(port_rows):
        rhs[row, col] = 1.0
    col = n_ports
    for src in sources:
        for vec in src.columns:
            rhs[:, col] = vec
            col += 1

    if _guard_modes.enabled():
        # One sampled conditioning estimate per solve (mid-band matrix)
        # feeds the per-run histogram at negligible cost.
        observe_condition(y_full[n_freq // 2], "mna")
    rhs_full = np.broadcast_to(rhs, (n_freq,) + rhs.shape)
    try:
        solution = np.linalg.solve(y_full, rhs_full)
    except np.linalg.LinAlgError as exc:
        # Conditioning escalation: equilibrate + refine before giving
        # up.  Only reached when the plain factorization already
        # failed, so healthy solves stay bit-for-bit unchanged.
        solution = None
        if _guard_modes.enabled():
            try:
                candidate = equilibrated_solve(y_full, rhs_full)
            except np.linalg.LinAlgError:
                candidate = None
            if candidate is not None and np.all(np.isfinite(candidate)):
                solution = candidate
                _obs_metrics.inc("mna.equilibrated_rescues")
        if solution is None:
            raise ValueError(
                "singular circuit (floating node or degenerate element): "
                f"{exc}"
            ) from None

    v_ports = solution[:, port_rows, :]
    z_loaded = v_ports[:, :, :n_ports]
    z_loaded_inv = np.linalg.inv(z_loaded)
    g0 = np.eye(n_ports) / z0
    y_net = z_loaded_inv - g0
    s_out = cv.y_to_s(y_net, z0)

    transfers = None
    if probe_rows is not None:
        transfers = np.zeros((n_freq, len(probe_nodes), n_ports),
                             dtype=complex)
        for k, row in enumerate(probe_rows):
            if row >= 0:
                transfers[:, k, :] = solution[:, row, :n_ports]

    cy_out = np.zeros((n_freq, n_ports, n_ports), dtype=complex)
    if compute_noise and sources:
        col = n_ports
        for src in sources:
            width = len(src.columns)
            transfer = v_ports[:, :, col:col + width]
            col += width
            # Port-referred noise currents: i_n = -(Y_net + G0) v_loaded.
            i_n = -z_loaded_inv @ transfer
            i_n_h = np.conjugate(np.swapaxes(i_n, -1, -2))
            psd = src.psd_array  # (F,) scalars or (F, w, w) matrices
            if psd.ndim == 1:
                cy_out += psd[:, None, None] * (i_n @ i_n_h)
            else:
                cy_out += i_n @ psd @ i_n_h

    return ACResult(frequency=frequency, s=s_out, cy=cy_out, z0=z0,
                    port_names=[p.name for p in circuit.ports],
                    node_transfers=transfers,
                    probe_nodes=tuple(probe_nodes))


# ----------------------------------------------------------------------
# assembly helpers
# ----------------------------------------------------------------------

def _assemble_tensor(circuit: Circuit, f_hz: np.ndarray,
                     n_nodes: int, elements=None) -> np.ndarray:
    """The (F, n, n) node-admittance tensor of the circuit.

    *elements* restricts assembly to a subset of ``circuit.elements``
    (used by the compiled batch engine to stamp only the
    design-invariant part once); the default stamps everything.
    """
    omega = 2.0 * np.pi * f_hz
    n_freq = f_hz.size
    y = np.zeros((n_freq, n_nodes, n_nodes), dtype=complex)
    for element in (circuit.elements if elements is None else elements):
        if isinstance(element, Resistor):
            _stamp_admittance(y, circuit, element.node_a, element.node_b,
                              1.0 / element.resistance)
        elif isinstance(element, Capacitor):
            _stamp_admittance(y, circuit, element.node_a, element.node_b,
                              1j * omega * element.capacitance)
        elif isinstance(element, Inductor):
            _stamp_admittance(y, circuit, element.node_a, element.node_b,
                              1.0 / (1j * omega * element.inductance))
        elif isinstance(element, Vccs):
            gm = element.gm * np.exp(-1j * omega * element.tau)
            _stamp_vccs(y, circuit, element, gm)
        elif isinstance(element, TransmissionLineElement):
            block = _eval_block(element.y_matrix, f_hz, 2)
            _stamp_block(y, circuit, (element.node_a, element.node_b), block)
        elif isinstance(element, YBlock):
            block = _eval_block(element.y_function, f_hz, len(element.nodes))
            _stamp_block(y, circuit, element.nodes, block)
        elif isinstance(element, NoiseCurrent):
            pass  # no signal contribution
        else:
            raise TypeError(f"unknown element type {type(element).__name__}")
    return y


#: Public name of the tensor assembler.  The condensed batch solve
#: (:mod:`repro.analysis.sparsemna`) consumes its output, so external
#: callers building custom batches should use this instead of the
#: private underscore name.
assemble_tensor = _assemble_tensor


def _eval_block(function, f_hz: np.ndarray, n_terminals: int) -> np.ndarray:
    """Evaluate a block callable over the grid, vectorized when possible."""
    n_freq = f_hz.size
    expected = (n_freq, n_terminals, n_terminals)
    try:
        result = np.asarray(function(f_hz), dtype=complex)
        if result.shape == expected:
            return result
        if result.shape == (n_terminals, n_terminals) and n_freq == 1:
            return result[None, :, :]
    except (TypeError, ValueError):
        pass  # scalar-only callable: fall through to the loop
    stacked = np.empty(expected, dtype=complex)
    for idx, f in enumerate(f_hz):
        stacked[idx] = np.asarray(function(float(f)), dtype=complex)
    return stacked


def _eval_psd(function, f_hz: np.ndarray) -> np.ndarray:
    """Evaluate a scalar PSD callable over the grid, shape (F,)."""
    try:
        result = np.asarray(function(f_hz), dtype=float)
        if result.shape == f_hz.shape:
            return result
        if result.ndim == 0:
            return np.full(f_hz.shape, float(result))
    except (TypeError, ValueError):
        pass
    return np.array([float(function(float(f))) for f in f_hz])


def _stamp_admittance(y, circuit, node_a, node_b, value):
    a = circuit.node_index(node_a)
    b = circuit.node_index(node_b)
    if a >= 0:
        y[:, a, a] += value
    if b >= 0:
        y[:, b, b] += value
    if a >= 0 and b >= 0:
        y[:, a, b] -= value
        y[:, b, a] -= value


def _stamp_vccs(y, circuit, element: Vccs, gm):
    op = circuit.node_index(element.out_p)
    on = circuit.node_index(element.out_n)
    cp = circuit.node_index(element.ctrl_p)
    cn = circuit.node_index(element.ctrl_n)
    # Current gm * (Vcp - Vcn) flows out of node out_p, into node out_n.
    for out_idx, sign in ((op, +1.0), (on, -1.0)):
        if out_idx < 0:
            continue
        if cp >= 0:
            y[:, out_idx, cp] += sign * gm
        if cn >= 0:
            y[:, out_idx, cn] -= sign * gm


def _stamp_block(y, circuit, nodes, block):
    indices = [circuit.node_index(node) for node in nodes]
    for i, gi in enumerate(indices):
        if gi < 0:
            continue
        for j, gj in enumerate(indices):
            if gj < 0:
                continue
            y[:, gi, gj] += block[:, i, j]


# ----------------------------------------------------------------------
# noise-source bookkeeping
# ----------------------------------------------------------------------

class _NoiseSource:
    """Internal record: injection columns + pre-evaluated PSD array."""

    def __init__(self, columns, psd_array):
        self.columns = columns        # list of node-space injection vectors
        self.psd_array = psd_array    # (F,) or (F, w, w)


def _collect_noise_sources(circuit: Circuit, f_hz: np.ndarray,
                           elements=None) -> List["_NoiseSource"]:
    n_nodes = len(circuit.node_names)
    sources: List[_NoiseSource] = []
    for element in (circuit.elements if elements is None else elements):
        if isinstance(element, Resistor):
            if element.temperature <= 0:
                continue
            vec = _injection(circuit, element.node_a, element.node_b, n_nodes)
            # 2kT/R: the Hillbrand-Russer normalization used throughout
            # repro.rf.noise (half the physical one-sided 4kT/R density;
            # the factor cancels in every noise-figure ratio).
            psd_value = (
                2.0 * BOLTZMANN * element.temperature / element.resistance
            )
            sources.append(_NoiseSource(
                [vec], np.full(f_hz.shape, psd_value)
            ))
        elif isinstance(element, NoiseCurrent):
            vec = _injection(circuit, element.node_a, element.node_b, n_nodes)
            sources.append(_NoiseSource([vec], _eval_psd(element.psd, f_hz)))
        elif isinstance(element, YBlock) and element.cy_function is not None:
            columns = []
            for node in element.nodes:
                vec = np.zeros(n_nodes, dtype=complex)
                idx = circuit.node_index(node)
                if idx >= 0:
                    vec[idx] = 1.0
                columns.append(vec)
            cy = _eval_block(element.cy_function, f_hz, len(element.nodes))
            sources.append(_NoiseSource(columns, cy))
    return sources


def _injection(circuit, node_a, node_b, n_nodes) -> np.ndarray:
    vec = np.zeros(n_nodes, dtype=complex)
    a = circuit.node_index(node_a)
    b = circuit.node_index(node_b)
    if a >= 0:
        vec[a] = 1.0
    if b >= 0:
        vec[b] = -1.0
    return vec
