"""Compiled LNA evaluation engine: netlist stamps lowered to tensors.

The scalar path (:meth:`AmplifierTemplate.evaluate`) rebuilds the whole
:class:`~repro.analysis.netlist.Circuit` in Python for every candidate
and re-stamps every element into the admittance tensor — fine for one
design, ruinous for population-based optimization where thousands of
candidates share one topology.  :class:`CompiledTemplate` lowers the
netlist **once** into a *stamp plan*:

* a constant base tensor holding every design-invariant element
  (access lines, bias resistor, decoupling, device parasitic shell),
  assembled one time by the ordinary scalar stamping code;
* a short list of :class:`StampSlot` records — precomputed node-index
  arrays for the handful of elements whose value depends on the design
  vector (matching passives, stabilization branches, and the intrinsic
  bias-dependent device elements);
* the matching noise-source plan (constant sources pre-evaluated,
  variable PSDs computed per candidate).

Per-candidate assembly is then pure vectorized NumPy.  The stamp plan
is condensed once more: every node no design-dependent stamp touches is
Schur-eliminated at compile time (:mod:`repro.analysis.sparsemna`), so
a candidate batch only factorizes the small reduced system over the
fused design *and* stability guard grid (rows are independent in MNA,
so fusing the two frequency axes is exact).  A template whose constant
block cannot be condensed raises :class:`CompileError`.

Element values are compiled the same way.  The frequency-only factors
of the six dispersive matching passives (``omega``, ``1j * omega``,
``sqrt(f / 1 GHz)``) and the device's ``exp(-j omega tau)`` are hoisted
at construction; a call evaluates only the value-dependent arithmetic
of the :mod:`repro.passives.rlc` catalogue models, in their order, on
``(B, 1)`` value stacks, so every admittance and thermal-noise stamp is
bit-identical to the component model's.  The device's DC and
capacitance models are called as they are (they are pluggable), and a
row whose model raises becomes that row's failure record.  The numbers
agree with the scalar path to floating-point roundoff.  Because
the constant/variable split is an assumption about
:meth:`AmplifierTemplate.build_circuit`, compilation **verifies** it:
the compiled engine is checked against the scalar path at two probe
design points and :class:`CompileError` is raised on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.acsolver import (
    _assemble_tensor,
    _collect_noise_sources,
    _injection,
)
from repro.analysis.compiled import BatchNoiseSource
from repro.analysis.conditioning import observe_condition
from repro.analysis.sparsemna import MutableGroup, PatternError, build_plan
from repro.analysis.netlist import (
    NoiseCurrent,
    Resistor,
    Vccs,
    YBlock,
)
from repro.core.amplifier import (
    AmplifierPerformance,
    AmplifierTemplate,
    DesignVariables,
)
from repro.core.bands import design_grid, stability_grid
from repro.guards import contracts as _contracts
from repro.guards import modes as _guard_modes
from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer
from repro.optimize.faults import (
    CATEGORY_BAD_BIAS,
    CATEGORY_CONTRACT,
    CATEGORY_NON_FINITE,
    CATEGORY_SINGULAR,
    EvaluationFailure,
    FAILURE_EXCEPTIONS,
    classify_exception,
)
from repro.passives.rlc import _F_SKIN_REF
# Unused here; the e2e layer tracer (benchmarks/e2e/layers.py) patches
# them.  The compiled element values below reproduce these models.
from repro.passives.rlc import (  # noqa: F401
    _two_terminal_stack,
    coilcraft_style_inductor,
    murata_style_capacitor,
)
from repro.rf import conversions as cv
from repro.rf.frequency import FrequencyGrid
from repro.rf.noise import ca_from_cy
from repro.rf.stability import mu_source
from repro.util.constants import BOLTZMANN, T_AMBIENT

# Patch targets of benchmarks/e2e/layers.py; nothing calls them, and
# ROADMAP item 11 step 1 deletes them.
solve_tensor_batch = solve_tensor_batch_isolated = None

__all__ = [
    "CompileError",
    "CompiledTemplate",
    "BatchPerformance",
    "StampSlot",
    "VARIABLE_ELEMENT_NAMES",
]

_2KT0 = 2.0 * BOLTZMANN * 290.0
_2K = 2.0 * BOLTZMANN
_2KT = 2.0 * BOLTZMANN * T_AMBIENT

#: The matching passives with their design variables, capacitors
#: first: the order of the compiled element-value stacks.
_PASSIVE_VARIABLES = (("Cin", "c_in"), ("Cout", "c_out"), ("Csh", "c_sh"),
                      ("Lin", "l_in"), ("Ldeg", "l_deg"),
                      ("Lchoke", "l_choke"))
_PASSIVES = tuple(name for name, _ in _PASSIVE_VARIABLES)
_N_CAPACITORS = 3
_COLUMN = {name: k for k, name in enumerate(DesignVariables.NAMES)}
_PASSIVE_COLUMNS = [_COLUMN[var] for _, var in _PASSIVE_VARIABLES]
_RESISTOR_COLUMNS = [_COLUMN["r_stab"], _COLUMN["r_sh"]]

#: Real parts of a two-terminal block ``[[y, -y], [-y, y]]``.
_TWO_TERMINAL_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _capacitor_admittance(c, omega, sqrt_f):
    """``murata_style_capacitor(c).admittance(f)`` on hoisted factors.

    Evaluates :meth:`repro.passives.rlc.RealCapacitor.impedance` in its
    own order and with the factory's parasitics, so every element is
    bit-identical to the component model's.
    """
    small = c < 10e-12
    esl = np.where(small, 0.35e-9, 0.5e-9)
    esr = np.where(small, 0.04, 0.08)
    omega_c = omega * c
    r_conductor = esr * sqrt_f
    r_dielectric = 5e-4 / omega_c
    reactance = omega * esl - 1.0 / omega_c
    return 1.0 / (r_conductor + r_dielectric + 1j * reactance)


def _inductor_admittance(inductance, jw, sqrt_f):
    """``coilcraft_style_inductor(l).admittance(f)`` on hoisted factors.

    :meth:`repro.passives.rlc.RealInductor.impedance` in its own order,
    including the double reciprocal of ``admittance(impedance)``.
    """
    scale = np.sqrt(inductance / 10e-9)
    r_series = 0.08 * scale + 0.55 * scale * sqrt_f
    c_parallel = 0.08e-12 * (1.0 + 0.4 * scale)
    z_winding = r_series + jw * inductance
    y_total = 1.0 / z_winding + jw * c_parallel + 1.0 / 60e3
    return 1.0 / (1.0 / y_total)


#: Rows one fault-isolated solve factorizes at a time.  A row peaks at
#: ~130 KB (the ``(B, F, m, m)`` reduced systems and LAPACK's copy), so
#: a robust generation's ~430 stacked corner rows in one call would add
#: ~55 MB of peak memory; 64-row blocks keep the throughput of the
#: stacked call at a fraction of the footprint (see DESIGN.md, "Batched
#: corner sweeps").  Healthy rows are bit-identical in any block.
_ISOLATED_BLOCK_ROWS = 64

#: Elements of :meth:`AmplifierTemplate.build_circuit` whose stamped
#: value depends on the design vector.  Everything else goes into the
#: constant base tensor; compilation verifies this classification.
VARIABLE_ELEMENT_NAMES = frozenset({
    "Cin", "Lin", "Ldeg", "Lchoke", "Cout", "Csh",   # matching passives
    "Rstab", "Rsh",                                  # stabilization
    "Q_Cgs", "Q_Cgd", "Q_gm", "Q_Gds", "Q_ind",      # bias-dependent
})


def _performance_is_finite(perf: AmplifierPerformance) -> bool:
    """Whether every figure of merit of a scalar evaluation is finite."""
    return bool(
        np.all(np.isfinite(perf.nf_db))
        and np.all(np.isfinite(perf.gt_db))
        and np.all(np.isfinite(perf.s11_db))
        and np.all(np.isfinite(perf.s22_db))
        and np.isfinite(perf.mu_min)
        and np.isfinite(perf.ids)
    )


class CompileError(RuntimeError):
    """The stamp plan disagrees with the scalar path.

    Raised when :meth:`AmplifierTemplate.build_circuit` produced a
    topology the compiled constant/variable split cannot represent —
    usually because an element was added or renamed without updating
    ``VARIABLE_ELEMENT_NAMES``.
    """


@dataclass(frozen=True)
class StampSlot:
    """Precomputed index arrays of one design-dependent element.

    ``y_batch[..., rows, cols] += signs * value[..., None]`` applies the
    slot; the (row, col) pairs within one slot are unique, so the fancy
    indexing accumulates correctly.
    """

    name: str
    rows: np.ndarray   # (k,) int
    cols: np.ndarray   # (k,) int
    signs: np.ndarray  # (k,) float


@dataclass
class BatchPerformance:
    """Figures of merit of a batch of evaluated designs (arrays over B)."""

    frequency: FrequencyGrid
    nf_db: np.ndarray          # (B, F)
    gt_db: np.ndarray          # (B, F)
    s11_db: np.ndarray         # (B, F)
    s22_db: np.ndarray         # (B, F)
    mu_min: np.ndarray         # (B,)
    ids: np.ndarray            # (B,)
    nf_max_db: np.ndarray      # (B,)
    gt_min_db: np.ndarray      # (B,)
    gt_ripple_db: np.ndarray   # (B,)

    def __len__(self) -> int:
        return self.nf_db.shape[0]

    def candidate(self, index: int) -> AmplifierPerformance:
        """The scalar :class:`AmplifierPerformance` of one batch member."""
        return AmplifierPerformance(
            frequency=self.frequency,
            nf_db=self.nf_db[index],
            gt_db=self.gt_db[index],
            s11_db=self.s11_db[index],
            s22_db=self.s22_db[index],
            mu_min=float(self.mu_min[index]),
            ids=float(self.ids[index]),
            nf_max_db=float(self.nf_max_db[index]),
            gt_min_db=float(self.gt_min_db[index]),
            gt_ripple_db=float(self.gt_ripple_db[index]),
        )


class CompiledTemplate:
    """An :class:`AmplifierTemplate` lowered to a batched stamp plan.

    The batched MNA solves run on a Schur-condensed plan
    (:mod:`repro.analysis.sparsemna`): the candidate-independent block
    is LU-factorized once per topology per frequency with a shared CSC
    pattern, and per candidate only the small reduced system is
    refactorized.  A template whose constant block cannot be condensed
    raises :class:`CompileError`.  Every ``performance*`` entry point
    runs the fault-isolated solve, so one bad candidate yields penalty
    figures instead of sinking its batch.

    Parameters
    ----------
    template:
        The amplifier template to compile.
    band_grid, guard_grid:
        Objective and stability-guard frequency grids (defaults match
        :class:`repro.core.objectives.LnaEvaluator`).
    verify:
        Check the compiled engine against the scalar path at two probe
        design points (recommended; a few scalar solves at compile
        time).
    """

    def __init__(self, template: AmplifierTemplate,
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 verify: bool = True):
        self.template = template
        self.band_grid = band_grid or design_grid(17)
        self.guard_grid = guard_grid or stability_grid(24)
        self._n_band = len(self.band_grid)
        # Fused frequency axis: objective band first, guard band after.
        # MNA rows are independent per frequency, so one solve of the
        # fused axis is exact for both grids.
        self._f_fused = np.concatenate([self.band_grid.f_hz,
                                        self.guard_grid.f_hz])
        # Frequency-only factors of the element values, hoisted out of
        # the per-call path (same expressions as the component models).
        omega = 2.0 * np.pi * self._f_fused
        self._omega = omega
        self._jw = 1j * omega
        self._sqrt_f = np.sqrt(self._f_fused / _F_SKIN_REF)
        self._gm_phase = np.exp(-1j * omega * template.device.capacitances.tau)
        self._compile()
        # The noise figure's port reference source, as NoisyTwoPort
        # derives it: (zs, conj(zs), |zs|^2, 2kT0 Re(zs)).
        zs = 1.0 / (1.0 / self._z0)
        self._source_terms = (zs, np.conjugate(zs), np.abs(zs) ** 2,
                              _2KT0 * np.real(zs))
        try:
            self._plan = self._build_sparse_plan()
        except PatternError as exc:
            raise CompileError(
                f"the constant MNA block cannot be condensed: {exc}"
            ) from exc
        if verify:
            self._verify()

    # -- pickling -----------------------------------------------------------
    # A compiled engine is mostly derived state (stamp tensors, index
    # arrays, noise injections), all reproducible from the constructor
    # inputs.  Pickling therefore ships only (template, grids) and the
    # receiver recompiles locally instead of unpickling megabytes of
    # tensors.  Verification is
    # skipped on unpickle: the sender's compile already verified this
    # same template, and the stamp plan is deterministic.  States
    # pickled when the engine still had a ``solver`` entry load too;
    # the entry is ignored.
    def __getstate__(self):
        return {
            "template": self.template,
            "band_grid": self.band_grid,
            "guard_grid": self.guard_grid,
        }

    def __setstate__(self, state):
        self.__init__(state["template"], state["band_grid"],
                      state["guard_grid"], verify=False)

    # -- compilation --------------------------------------------------------
    def _compile(self):
        proto = self.template.build_circuit(DesignVariables())
        names = {element.name for element in proto.elements}
        missing = VARIABLE_ELEMENT_NAMES - names
        if missing:
            raise CompileError(
                f"template netlist lacks expected design-dependent "
                f"elements: {sorted(missing)}"
            )
        self._n_nodes = len(proto.node_names)
        self._port_rows = np.array(
            [proto.node_index(p.node) for p in proto.ports], dtype=int
        )
        z0_values = {p.z0 for p in proto.ports}
        if len(z0_values) != 1:
            raise CompileError("ports must share one reference impedance")
        self._z0 = proto.ports[0].z0
        self._port_names = [p.name for p in proto.ports]

        constant = [e for e in proto.elements
                    if e.name not in VARIABLE_ELEMENT_NAMES]
        variable = {e.name: e for e in proto.elements
                    if e.name in VARIABLE_ELEMENT_NAMES}

        # Constant part: stamped once by the ordinary scalar assembler.
        self._base = _assemble_tensor(proto, self._f_fused, self._n_nodes,
                                      elements=constant)
        self._const_noise = [
            BatchNoiseSource(np.stack(src.columns, axis=1), src.psd_array)
            for src in _collect_noise_sources(proto, self._f_fused,
                                              elements=constant)
        ]

        # Variable part: precompute index arrays and noise injections.
        self._slots: Dict[str, StampSlot] = {}
        self._scalar_noise: List[tuple] = []   # (name, columns (n, 1))
        self._block_noise: List[tuple] = []    # (name, columns (n, 2))
        for name, element in variable.items():
            if isinstance(element, Vccs):
                self._slots[name] = self._vccs_slot(proto, element)
                continue
            if isinstance(element, YBlock):
                node_a, node_b = element.nodes
            else:
                node_a, node_b = element.node_a, element.node_b
            if isinstance(element, NoiseCurrent):
                self._scalar_noise.append((name, _injection(
                    proto, node_a, node_b, self._n_nodes
                )[:, None]))
                continue
            self._slots[name] = self._two_terminal_slot(proto, name,
                                                        node_a, node_b)
            if isinstance(element, Resistor):
                if element.temperature > 0:
                    self._scalar_noise.append((name, _injection(
                        proto, node_a, node_b, self._n_nodes
                    )[:, None]))
            elif isinstance(element, YBlock):
                if element.cy_function is not None:
                    columns = np.zeros((self._n_nodes, 2), dtype=complex)
                    for k, node in enumerate(element.nodes):
                        idx = proto.node_index(node)
                        if idx >= 0:
                            columns[idx, k] = 1.0
                    self._block_noise.append((name, columns))

    @staticmethod
    def _two_terminal_slot(circuit, name, node_a, node_b) -> StampSlot:
        a = circuit.node_index(node_a)
        b = circuit.node_index(node_b)
        entries = []
        if a >= 0:
            entries.append((a, a, +1.0))
        if b >= 0:
            entries.append((b, b, +1.0))
        if a >= 0 and b >= 0:
            entries.append((a, b, -1.0))
            entries.append((b, a, -1.0))
        if not entries:
            raise CompileError(f"element {name!r} connects ground to ground")
        rows, cols, signs = (np.array(v) for v in zip(*entries))
        return StampSlot(name, rows.astype(int), cols.astype(int),
                         signs.astype(float))

    @staticmethod
    def _vccs_slot(circuit, element: Vccs) -> StampSlot:
        op = circuit.node_index(element.out_p)
        on = circuit.node_index(element.out_n)
        cp = circuit.node_index(element.ctrl_p)
        cn = circuit.node_index(element.ctrl_n)
        entries = []
        for out_idx, sign in ((op, +1.0), (on, -1.0)):
            if out_idx < 0:
                continue
            if cp >= 0:
                entries.append((out_idx, cp, sign))
            if cn >= 0:
                entries.append((out_idx, cn, -sign))
        if not entries:
            raise CompileError(
                f"vccs {element.name!r} has no stamped entries"
            )
        rows, cols, signs = (np.array(v) for v in zip(*entries))
        return StampSlot(element.name, rows.astype(int), cols.astype(int),
                         signs.astype(float))

    # -- sparse plan --------------------------------------------------------
    def _noise_column_count(self) -> int:
        return (
            sum(src.columns.shape[1] for src in self._const_noise)
            + len(self._scalar_noise)
            + sum(c.shape[1] for _, c in self._block_noise)
        )

    def _build_sparse_plan(self):
        """Compile the Schur-condensed plan over the fused grid.

        The shared right-hand side carries the two port injections and
        every noise-injection column; the plan condenses them once, so
        a candidate batch costs one small adjoint solve plus a
        ``matmul`` contraction.  The per-source column layout is
        recorded for the fused noise-correlation assembly.
        """
        n_ports = self._port_rows.size
        rhs = np.zeros(
            (self._n_nodes, n_ports + self._noise_column_count()),
            dtype=complex,
        )
        for col, row in enumerate(self._port_rows):
            rhs[row, col] = 1.0
        n_band = self._n_band
        # Noise-column bookkeeping, offsets relative to the noise block:
        # scalar-PSD entries fuse into one stacked matmul, (w, w) blocks
        # group by width into one batched triple product per width.
        sp_scalar: List[tuple] = []   # (col, "const" psd | "var" name)
        sp_blocks: Dict[int, List[tuple]] = {}
        offset = n_ports
        for src in self._const_noise:
            width = src.columns.shape[1]
            rhs[:, offset:offset + width] = src.columns
            psd = np.asarray(src.psd)
            if psd.ndim == 1:
                # A scalar PSD over w columns is w independent scalar
                # sources sharing one density (``psd * (i @ i^H)``
                # sums identically).
                for k in range(width):
                    sp_scalar.append(
                        (offset + k - n_ports, "const", psd[:n_band])
                    )
            else:
                sp_blocks.setdefault(width, []).append(
                    (offset - n_ports, "const", psd[:n_band])
                )
            offset += width
        for name, columns in self._scalar_noise:
            rhs[:, offset] = columns[:, 0]
            sp_scalar.append((offset - n_ports, "var", name))
            offset += 1
        for name, columns in self._block_noise:
            width = columns.shape[1]
            rhs[:, offset:offset + width] = columns
            sp_blocks.setdefault(width, []).append(
                (offset - n_ports, "var", name)
            )
            offset += width

        # Freeze the PSD layout into index arrays and pre-stacked
        # constant tables so the per-batch assembly in
        # :meth:`_sparse_figures` only fills the bias-dependent slots.
        self._sc_cols = np.array([e[0] for e in sp_scalar], dtype=int)
        self._sc_const = np.zeros((n_band, len(sp_scalar)))
        self._sc_var: List[tuple] = []          # (stack index, source name)
        for idx, (_, kind, payload) in enumerate(sp_scalar):
            if kind == "const":
                self._sc_const[:, idx] = payload
            else:
                self._sc_var.append((idx, payload))
        # Variable blocks are the matching passives' 2kT Re(Y) stamps;
        # their positions are kept in _PASSIVES order, and the constant
        # table already holds the -0.0 imaginary parts of -(v + 0j) in
        # their off-diagonals, so a call only writes the real parts.
        self._blk_layout: Dict[int, tuple] = {}
        for width, entries in sp_blocks.items():
            cols = np.concatenate([
                np.arange(c0, c0 + width) for c0, _, _ in entries
            ])
            const_psd = np.zeros((n_band, len(entries), width, width),
                                 dtype=complex)
            var_at = {}
            for idx, (_, kind, payload) in enumerate(entries):
                if kind == "const":
                    const_psd[:, idx] = payload
                else:
                    var_at[payload] = idx
            var_idx = None
            if var_at:
                if width != 2 or sorted(var_at) != sorted(_PASSIVES):
                    raise CompileError(
                        f"unexpected design-dependent noise blocks "
                        f"{sorted(var_at)}")
                var_idx = np.array([var_at[name] for name in _PASSIVES])
                const_psd[:, var_idx, 0, 1] = complex(0.0, -0.0)
                const_psd[:, var_idx, 1, 0] = complex(0.0, -0.0)
            self._blk_layout[width] = (cols, const_psd, var_idx)

        groups = [MutableGroup(name, slot.rows, slot.cols, slot.signs)
                  for name, slot in self._slots.items()]
        return build_plan(self._base, groups, self._port_rows, self._z0,
                          rhs, out_rows=list(self._port_rows))

    @staticmethod
    def _inv2x2(a: np.ndarray) -> np.ndarray:
        """Explicit batched 2x2 inverse (the port count is fixed)."""
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        inv = np.empty_like(a)
        inv[..., 0, 0] = a[..., 1, 1]
        inv[..., 0, 1] = -a[..., 0, 1]
        inv[..., 1, 0] = -a[..., 1, 0]
        inv[..., 1, 1] = a[..., 0, 0]
        return inv / det[..., None, None]

    def _block_psd(self, const_psd: np.ndarray, var_idx: np.ndarray,
                   passive_psd: np.ndarray, n_batch: int) -> np.ndarray:
        """The ``(B, Fb, nb, 2, 2)`` noise-block PSDs of one call.

        The constant table, with each matching passive's
        ``[[v, -v], [-v, v]]`` (v = 2kT Re(Y)) written into the real
        parts of its block: bit for bit the component model's
        ``cy_function`` stack, signed zeros included.
        """
        n_band = self._n_band
        psd = np.empty((n_batch,) + const_psd.shape, dtype=complex)
        psd[...] = const_psd
        # (B, Fb, nb, 2, 4): real parts sit at the even float offsets.
        psd.view(float)[:, :, var_idx, :, 0::2] = (
            passive_psd[:, :, :n_band].transpose(1, 2, 0)[..., None, None]
            * _TWO_TERMINAL_SIGNS)
        return psd

    def _sparse_figures(self, v_ports: np.ndarray, n_batch: int,
                        scalar_psds, passive_psd):
        """S-parameters and band noise correlation from the plan's
        port-row solution ``(B, F_fused, 2, K)``; *passive_psd* is the
        ``(6, B, F_fused)`` 2kT Re(Y) of the matching passives."""
        n_band = self._n_band
        # The port loads are stamped into the reduced matrix, so the
        # 2x2 port block of the solution is the *loaded* impedance
        # matrix Z_L and the network admittance is Y = Z_L^-1 - G0.
        # Substituting into y_to_s collapses the two inversions:
        #   S = (I + Y z0)^-1 (I - Y z0) = 2 Z_L / z0 - I.
        s = (2.0 / self._z0) * v_ports[..., :2]
        s[..., 0, 0] -= 1.0
        s[..., 1, 1] -= 1.0

        zi = self._inv2x2(v_ports[:, :n_band, :, :2])
        # Every noise transfer at once: one matmul instead of a
        # per-source loop (i_n = -(Y_net + G0) v_loaded).
        i_all = -(zi @ v_ports[:, :n_band, :, 2:])
        cy = np.zeros((n_batch, n_band, 2, 2), dtype=complex)
        if self._sc_cols.size:
            i_s = i_all[..., self._sc_cols]              # (B, Fb, 2, S)
            psd_stack = np.empty((n_batch, n_band, self._sc_cols.size))
            psd_stack[...] = self._sc_const
            for idx, name in self._sc_var:
                psd_stack[:, :, idx] = scalar_psds[name][:, :n_band]
            i_s_h = np.conjugate(np.swapaxes(i_s, -1, -2))
            cy += (i_s * psd_stack[..., None, :]) @ i_s_h
        for width, (cols, const_psd, var_idx) in self._blk_layout.items():
            nb = const_psd.shape[1]
            x = i_all[..., cols].reshape(
                n_batch, n_band, 2, nb, width)           # (B, Fb, 2, nb, w)
            if var_idx is not None:
                # (B, Fb, 1, nb, w, w)
                psd = self._block_psd(const_psd, var_idx, passive_psd,
                                      n_batch)[:, :, None]
            else:
                psd = const_psd[None, :, None]           # (1, Fb, 1, nb, w, w)
            # y[..., p, k, v] = sum_u x[..., p, k, u] psd[..., k, u, v];
            # elementwise-and-sum beats batched matmul on 2x2 blocks.
            y = (x[..., :, None] * psd).sum(axis=-2)
            y = y.reshape(n_batch, n_band, 2, nb * width)
            xh = np.conjugate(
                x.reshape(n_batch, n_band, 2, nb * width))
            cy += y @ np.swapaxes(xh, -1, -2)
        return s, cy

    # -- per-candidate values ----------------------------------------------
    def _candidate_values(self, x_physical: np.ndarray):
        """Vectorized element values for a (B, n_vars) design matrix.

        Returns ``(admittances, scalar_psds, passive_psd, ids, bad_mask,
        raised)``: admittances maps slot name -> (B, F) or (B, 1)
        complex, scalar_psds maps noise-source name -> (B, 1),
        passive_psd is the (6, B, F) thermal 2kT Re(Y) of the matching
        passives in ``_PASSIVES`` order, bad_mask is a (B,) bool array
        flagging candidates whose bias point is unusable (``gds <= 0``,
        non-finite small-signal parameters, or a device model that
        raised), and raised maps such a row to the exception its device
        model raised.  The flagged rows get a benign placeholder bias,
        which keeps the tensor solvable for the healthy rows; the
        caller overwrites them with penalties.

        Raises ``ValueError`` on a non-positive capacitance or
        inductance, as the component models do.
        """
        # Matching passives: rlc's catalogue models on (3, B, 1) value
        # stacks over the hoisted frequency factors, so each row is
        # bitwise the scalar computation.
        values = x_physical[:, _PASSIVE_COLUMNS]
        nonpositive = values <= 0
        if nonpositive.any():
            k = int(np.flatnonzero(nonpositive.any(axis=0))[0])
            kind = "capacitance" if k < _N_CAPACITORS else "inductance"
            raise ValueError(f"{_PASSIVES[k]}: {kind} must be positive")
        stacked = values.T[..., None]
        passive_y = np.concatenate([
            _capacitor_admittance(stacked[:_N_CAPACITORS], self._omega,
                                  self._sqrt_f),
            _inductor_admittance(stacked[_N_CAPACITORS:], self._jw,
                                 self._sqrt_f),
        ])
        admittances = dict(zip(_PASSIVES, passive_y))
        passive_psd = _2KT * passive_y.real

        # Stabilization resistors: ideal (the scalar path uses
        # circuit.resistor), admittance flat over frequency.
        r = x_physical[:, _RESISTOR_COLUMNS]
        g = (1.0 / r).astype(complex)
        psd = _2KT / r
        admittances["Rstab"], admittances["Rsh"] = g[:, 0:1], g[:, 1:2]
        scalar_psds = {"Rstab": psd[:, 0:1], "Rsh": psd[:, 1:2]}

        # Bias-dependent intrinsic device elements, from the same DC and
        # capacitance models the scalar path calls in intrinsic_at().
        gm, gds, ids, cgs, cgd, raised = self._bias_values(
            x_physical[:, _COLUMN["vgs"]], x_physical[:, _COLUMN["vds"]])
        bad_mask = ~(np.isfinite(gm) & np.isfinite(gds) & np.isfinite(ids)
                     & (gds > 0))
        if np.any(bad_mask):
            gm = np.where(bad_mask, 0.0, gm)
            gds = np.where(bad_mask, 1e-3, gds)
            ids = np.where(bad_mask, 0.0, ids)

        admittances["Q_Cgs"] = self._jw * cgs[:, None]
        admittances["Q_Cgd"] = self._jw * cgd[:, None]
        # The scalar path stamps 1 / resistance with resistance set to
        # 1 / gds; replicate the double reciprocal for exactness.
        admittances["Q_Gds"] = (1.0 / (1.0 / gds[:, None])).astype(complex)
        admittances["Q_gm"] = gm[:, None] * self._gm_phase[None, :]
        device = self.template.device
        td = device.td0 + device.td_slope * ids
        scalar_psds["Q_ind"] = (_2K * td * gds)[:, None]
        return admittances, scalar_psds, passive_psd, ids, bad_mask, raised

    def _bias_values(self, vgs: np.ndarray, vds: np.ndarray):
        """``(gm, gds, ids, cgs, cgd, raised)`` of the device models.

        The models are pluggable and may raise (a DC solve that does
        not converge).  Then every row is evaluated on its own: a row
        that raises is recorded in *raised* and gets NaN bias values
        (so it is masked as bad bias) and zero capacitances, and the
        other rows keep their bits, since every value is per-row.
        """
        try:
            return self._device_columns(vgs, vds) + ({},)
        except FAILURE_EXCEPTIONS:
            pass
        columns = np.zeros((5, vgs.size))
        columns[:3] = np.nan
        raised: Dict[int, BaseException] = {}
        for i in range(vgs.size):
            try:
                row = self._device_columns(vgs[i:i + 1], vds[i:i + 1])
            except FAILURE_EXCEPTIONS as exc:
                raised[i] = exc
                continue
            for k, value in enumerate(row):
                columns[k, i:i + 1] = value
        return tuple(columns) + (raised,)

    def _device_columns(self, vgs: np.ndarray, vds: np.ndarray):
        """``(gm, gds, ids, cgs, cgd)`` from the device's own models."""
        device = self.template.device
        dc = device.dc_model
        caps = device.capacitances
        return (np.asarray(dc.gm(vgs, vds), dtype=float),
                np.asarray(dc.gds(vgs, vds), dtype=float),
                np.asarray(dc.ids(vgs, vds), dtype=float),
                np.asarray(caps.cgs(vgs), dtype=float),
                np.asarray(caps.cgd(vds), dtype=float))

    # -- figures of merit ---------------------------------------------------
    def _figures(self, s: np.ndarray, cy_band: np.ndarray,
                 ids: np.ndarray) -> BatchPerformance:
        """Figures of merit from solved S-parameters and noise data."""
        n_band = self._n_band
        s_band = s[:, :n_band]
        s_guard = s[:, n_band:]

        # Noise figure exactly as NoisyTwoPort.noise_factor with the
        # port reference source: ca from cy via the network ABCD.
        abcd = cv.s_to_abcd(s_band, self._z0)
        ca = ca_from_cy(cy_band, abcd)
        zs, zs_conj, zs_abs2, kt_re_zs = self._source_terms
        e_total = (
            ca[..., 0, 0]
            + zs_conj * ca[..., 0, 1]
            + zs * ca[..., 1, 0]
            + zs_abs2 * ca[..., 1, 1]
        ).real
        noise_factor = 1.0 + e_total / kt_re_zs
        nf_db = 10.0 * np.log10(noise_factor)

        gt_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 1, 0]), 1e-12)
        )
        s11_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 0, 0]), 1e-12)
        )
        s22_db = 20.0 * np.log10(
            np.maximum(np.abs(s_band[..., 1, 1]), 1e-12)
        )
        mu_min = np.min(mu_source(s_guard), axis=1)
        gt_min_db = np.min(gt_db, axis=1)
        return BatchPerformance(
            frequency=self.band_grid,
            nf_db=nf_db,
            gt_db=gt_db,
            s11_db=s11_db,
            s22_db=s22_db,
            mu_min=mu_min,
            ids=ids,
            nf_max_db=np.max(nf_db, axis=1),
            gt_min_db=gt_min_db,
            gt_ripple_db=np.max(gt_db, axis=1) - gt_min_db,
        )

    # -- entry points: every one runs the fault-isolated solve -------------
    @staticmethod
    def _to_physical(unit_x: np.ndarray) -> np.ndarray:
        lower, upper = DesignVariables.LOWER, DesignVariables.UPPER
        return lower + np.clip(unit_x, 0.0, 1.0) * (upper - lower)

    def performance_batch(self, unit_x: np.ndarray) -> BatchPerformance:
        """Figures of merit for a (B, n_vars) batch of unit-box vectors.

        The batch of :meth:`performance_batch_isolated`: a row that
        nothing can evaluate carries penalty figures.  Matches
        ``[template.evaluate(DesignVariables.from_unit(u), band,
        guard) for u in unit_x]`` to ~1e-10.
        """
        return self.performance_batch_isolated(unit_x)[0]

    def performance_batch_physical(self, x_physical: np.ndarray
                                   ) -> BatchPerformance:
        """Figures of merit for a (B, n_vars) batch of *physical* vectors.

        The batch of :meth:`performance_batch_physical_isolated`.
        Unlike :meth:`performance_batch` no unit-box clip is applied:
        robust corner sweeps legitimately evaluate component values
        outside the optimization box (a +5 % inductor above ``UPPER``
        is still a buildable board).  Matches
        ``[template.evaluate(DesignVariables.from_vector(v), band,
        guard) for v in x_physical]`` to ~1e-10.
        """
        return self.performance_batch_physical_isolated(x_physical)[0]

    def performance(self, unit_x: np.ndarray) -> AmplifierPerformance:
        """Single-candidate convenience wrapper over the batch path."""
        return self.performance_batch(np.atleast_2d(unit_x)).candidate(0)

    def performance_batch_isolated(self, unit_x: np.ndarray):
        """Unit-box figures of merit that no candidate can sink.

        Degradation chain per candidate: the fused condensed solve
        first; if the batch factorization raises, every row is
        re-solved alone; rows that still fail (singular systems,
        non-finite figures) go through the scalar
        :meth:`AmplifierTemplate.evaluate` path, and finally — if
        nothing can evaluate them, the bias is unusable, or the
        device model raised on them — are filled with the finite
        worst-case figures of :meth:`AmplifierPerformance.penalty`.  A
        healthy row is bit-identical whatever its neighbours.  A
        non-positive capacitance or inductance raises ``ValueError``.

        Returns ``(batch, failures, n_fallbacks)``: the
        :class:`BatchPerformance`, a per-candidate list of
        ``Optional[EvaluationFailure]`` (``None`` for healthy rows,
        including rows recovered by the scalar fallback), and the count
        of rows the scalar fallback recovered.
        ``EvaluationFailure.x`` carries the *unit-box* row.
        """
        unit_x = np.atleast_2d(np.asarray(unit_x, dtype=float))
        with _obs_tracer.span("engine.performance_batch_isolated",
                              batch=unit_x.shape[0]):
            batch, failures, n_fallbacks = self._batch_isolated(
                self._to_physical(unit_x), unit_x)
        self._record_isolated(unit_x.shape[0], failures, n_fallbacks)
        return batch, failures, n_fallbacks

    def performance_batch_physical_isolated(self, x_physical: np.ndarray):
        """:meth:`performance_batch_isolated` on raw physical vectors.

        No unit-box clip is applied, so robust corner sweeps can
        evaluate components outside the optimization box; one
        unsolvable corner quarantines through the
        :class:`EvaluationFailure` taxonomy while the healthy corners
        stay bit-identical.  ``EvaluationFailure.x`` carries the
        *physical* row.
        """
        x_physical = np.atleast_2d(np.asarray(x_physical, dtype=float))
        with _obs_tracer.span("engine.performance_batch_isolated",
                              batch=x_physical.shape[0]):
            batch, failures, n_fallbacks = self._batch_isolated(
                x_physical, x_physical)
        self._record_isolated(x_physical.shape[0], failures, n_fallbacks)
        return batch, failures, n_fallbacks

    @staticmethod
    def _record_isolated(n_batch: int, failures, n_fallbacks: int) -> None:
        _obs_metrics.inc("engine.batch_solves")
        _obs_metrics.inc("engine.candidates", n_batch)
        if n_fallbacks:
            _obs_metrics.inc("engine.scalar_fallbacks", n_fallbacks)
        n_penalties = sum(1 for f in failures if f is not None)
        if n_penalties:
            _obs_metrics.inc("engine.penalty_rows", n_penalties)
        if n_fallbacks or n_penalties:
            _obs_journal.emit("engine_degraded",
                              batch=int(n_batch),
                              scalar_fallbacks=int(n_fallbacks),
                              penalty_rows=int(n_penalties))

    def _batch_isolated(self, x_physical: np.ndarray, x_report: np.ndarray):
        """The engine's one solve, uninstrumented: ``x_physical`` rows
        are evaluated and ``x_report`` rows label their failures.

        Batches longer than :data:`_ISOLATED_BLOCK_ROWS` are solved one
        block at a time and concatenated, which bounds peak memory.
        """
        n_batch = x_physical.shape[0]
        if n_batch <= _ISOLATED_BLOCK_ROWS:
            return self._block_isolated(x_physical, x_report, 0)
        parts, failures, n_fallbacks = [], [], 0
        for start in range(0, n_batch, _ISOLATED_BLOCK_ROWS):
            stop = start + _ISOLATED_BLOCK_ROWS
            batch, block_failures, block_fallbacks = self._block_isolated(
                x_physical[start:stop], x_report[start:stop], start)
            parts.append(batch)
            failures.extend(block_failures)
            n_fallbacks += block_fallbacks
        batch = BatchPerformance(frequency=parts[0].frequency, **{
            field.name: np.concatenate([getattr(p, field.name)
                                        for p in parts])
            for field in fields(BatchPerformance)
            if field.name != "frequency"})
        return batch, failures, n_fallbacks

    def _block_isolated(self, x_physical: np.ndarray, x_report: np.ndarray,
                        offset: int):
        """One block of :meth:`_batch_isolated`; local row *i* is row
        ``offset + i`` of the whole batch."""
        n_batch = x_physical.shape[0]
        failures: List[Optional[EvaluationFailure]] = [None] * n_batch

        (admittances, scalar_psds, passive_psd, ids, bad_bias,
         raised) = self._candidate_values(x_physical)
        s, cy_band, solver_failed = self._solve_isolated(
            n_batch, admittances, scalar_psds, passive_psd
        )
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            batch = self._figures(s, cy_band, ids)
        finite = np.isfinite(np.concatenate(
            [batch.nf_db, batch.gt_db, batch.s11_db, batch.s22_db,
             batch.mu_min[:, None], batch.ids[:, None]], axis=1)).all(axis=1)

        for i in np.flatnonzero(bad_bias):
            exc = raised.get(i)
            if exc is not None:
                failures[i] = EvaluationFailure(
                    classify_exception(exc), str(exc), x=x_report[i].copy())
            else:
                failures[i] = EvaluationFailure(
                    CATEGORY_BAD_BIAS,
                    "device biased outside the saturated forward region "
                    "(gds <= 0)",
                    x=x_report[i].copy(),
                )
            self._fill_row(batch, i, AmplifierPerformance.penalty(
                self.band_grid, failures[i]))

        n_fallbacks = 0
        for i in np.flatnonzero((solver_failed | ~finite) & ~bad_bias):
            category = (CATEGORY_SINGULAR if solver_failed[i]
                        else CATEGORY_NON_FINITE)
            with np.errstate(divide="ignore", invalid="ignore"):
                try:
                    scalar = self.template.evaluate(
                        DesignVariables.from_vector(x_physical[i]),
                        self.band_grid, self.guard_grid,
                    )
                except FAILURE_EXCEPTIONS as exc:
                    failures[i] = EvaluationFailure(
                        classify_exception(exc), str(exc),
                        x=x_report[i].copy(),
                    )
                    self._fill_row(batch, i, AmplifierPerformance.penalty(
                        self.band_grid, failures[i]))
                    continue
            if not _performance_is_finite(scalar):
                failures[i] = EvaluationFailure(
                    category,
                    "scalar fallback also produced non-finite figures",
                    x=x_report[i].copy(),
                )
                self._fill_row(batch, i, AmplifierPerformance.penalty(
                    self.band_grid, failures[i]))
                continue
            n_fallbacks += 1
            self._fill_row(batch, i, scalar)

        if _guard_modes.enabled():
            # Physical-sanity contract: a noise figure below 0 dB means
            # the noise model produced negative noise power.  Strict
            # mode raises; warn mode quarantines the row through the
            # standard failure taxonomy (penalty figures), leaving
            # healthy rows bit-for-bit untouched.
            nf_bad = _contracts.noise_figure_violation_mask(batch.nf_db)
            for i in np.flatnonzero(nf_bad):
                if failures[i] is not None:
                    continue  # already quarantined with penalty figures
                message = (
                    f"candidate {offset + i} reports NF < 0 dB "
                    f"(min {float(np.min(batch.nf_db[i])):.3e} dB): "
                    f"negative noise power is unphysical"
                )
                _contracts.report_violation("performance", message)
                failures[i] = EvaluationFailure(
                    CATEGORY_CONTRACT, message, x=x_report[i].copy()
                )
                self._fill_row(batch, i, AmplifierPerformance.penalty(
                    self.band_grid, failures[i]))
        return batch, failures, n_fallbacks

    def _solve_isolated(self, n_batch: int, admittances, scalar_psds,
                        passive_psd):
        """Fault-isolated condensed solve of one candidate batch.

        Returns ``(s, cy_band, failed)``.  When the batch factorization
        raises, every row is re-solved on its own, so one singular
        candidate cannot sink the rest; ``failed`` flags the rows that
        still raise (their figures are NaN).  The caller sends those,
        and any row with non-finite figures, to the scalar reference.
        Re-solved rows are bit-identical to one-row calls, so a
        singular neighbour does not change a healthy row's roundoff.
        """
        failed = np.zeros(n_batch, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                v_ports = self._plan.solve_rows(admittances, n_batch)
            except np.linalg.LinAlgError:
                v_ports = None
            if _guard_modes.enabled():
                # The mid-grid *reduced* matrix of the first candidate,
                # read from the buffer the batch solve factorized (or
                # failed to).
                sample = self._plan.assembled_matrix(admittances)
                if sample is not None:
                    observe_condition(sample, "mna")
            if v_ports is None:
                _obs_metrics.inc("mna.batch_refactorizations")
                v_ports = np.full(
                    (n_batch, self._f_fused.size, self._plan.n_out,
                     self._plan.n_rhs), np.nan, dtype=complex)
                for i in range(n_batch):
                    row = {k: v[i:i + 1] for k, v in admittances.items()}
                    try:
                        v_ports[i] = self._plan.solve_rows(row, 1)[0]
                    except np.linalg.LinAlgError:
                        failed[i] = True
            s, cy_band = self._sparse_figures(v_ports, n_batch,
                                              scalar_psds, passive_psd)
        return s, cy_band, failed

    @staticmethod
    def _fill_row(batch: BatchPerformance, index: int,
                  perf: AmplifierPerformance) -> None:
        """Overwrite one batch row with a scalar performance record."""
        batch.nf_db[index] = perf.nf_db
        batch.gt_db[index] = perf.gt_db
        batch.s11_db[index] = perf.s11_db
        batch.s22_db[index] = perf.s22_db
        batch.mu_min[index] = perf.mu_min
        batch.ids[index] = perf.ids
        batch.nf_max_db[index] = perf.nf_max_db
        batch.gt_min_db[index] = perf.gt_min_db
        batch.gt_ripple_db[index] = perf.gt_ripple_db

    # -- verification -------------------------------------------------------
    def _verify(self, tolerance: float = 1e-8):
        """Cross-check the stamp plan against the scalar path.

        Two probe points (the template defaults and an off-centre
        design) catch any element that varies with the design vector
        but was classified constant — its stamp would be frozen at the
        compile-time value and the probes would disagree.
        """
        probes = np.vstack([
            DesignVariables().to_unit(),
            DesignVariables.from_unit(
                np.full(len(DesignVariables.NAMES), 0.3)
            ).to_unit(),
        ])
        batch = self.performance_batch(probes)
        for k in range(probes.shape[0]):
            scalar = self.template.evaluate(
                DesignVariables.from_unit(probes[k]),
                self.band_grid, self.guard_grid,
            )
            compiled = batch.candidate(k)
            checks = [
                ("nf_db", scalar.nf_db, compiled.nf_db),
                ("gt_db", scalar.gt_db, compiled.gt_db),
                ("s11_db", scalar.s11_db, compiled.s11_db),
                ("s22_db", scalar.s22_db, compiled.s22_db),
                ("mu_min", scalar.mu_min, compiled.mu_min),
                ("ids", scalar.ids, compiled.ids),
            ]
            for label, expected, got in checks:
                error = float(np.max(np.abs(
                    np.asarray(got) - np.asarray(expected)
                )))
                if not np.isfinite(error) or error > tolerance:
                    raise CompileError(
                        f"compiled engine disagrees with the scalar path "
                        f"on {label!r} at probe {k} (max error {error:.3e});"
                        f" the netlist changed — update "
                        f"VARIABLE_ELEMENT_NAMES in repro.core.engine"
                    )

