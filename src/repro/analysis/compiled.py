"""Batch-level noise-source record of the compiled LNA engine.

The compiled engine (:mod:`repro.core.engine`) evaluates many circuits
that share one topology and differ only in element values.  Their
noise sources share injection columns, which depend only on the
topology, while the spectral densities may vary per candidate.
:class:`BatchNoiseSource` carries one such source.  The engine folds
the columns into the right-hand sides of its condensed plan
(:mod:`repro.analysis.sparsemna`), the one batch MNA solve; the scalar
:func:`repro.analysis.acsolver.solve_ac` is its per-circuit reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Unused here; the e2e layer tracer (benchmarks/e2e/layers.py) patches it.
from repro.analysis.conditioning import observe_condition  # noqa: F401

__all__ = ["BatchNoiseSource"]


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
