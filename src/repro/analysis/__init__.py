"""From-scratch circuit simulation substrate.

* :mod:`repro.analysis.netlist` — the element/circuit data model.
* :mod:`repro.analysis.acsolver` — MNA small-signal S-parameter and
  noise-correlation analysis of one circuit (:func:`solve_ac`).
* :mod:`repro.analysis.sparsemna` — the condensed plan, the one batch
  MNA solve of a same-topology candidate batch; its noise sources are
  :class:`BatchNoiseSource` records (:mod:`repro.analysis.compiled`).
* :mod:`repro.analysis.dc` — nonlinear DC operating-point solver.
"""

from repro.analysis.netlist import Circuit
from repro.analysis.acsolver import ACResult, solve_ac
from repro.analysis.compiled import BatchNoiseSource
from repro.analysis.dc import DcCircuit, DcConvergenceError, DcSolution

__all__ = [
    "Circuit",
    "ACResult",
    "solve_ac",
    "BatchNoiseSource",
    "DcCircuit",
    "DcConvergenceError",
    "DcSolution",
]
