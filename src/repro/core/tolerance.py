"""Monte-Carlo tolerance (yield) analysis of a finished design.

After snapping to catalogue values, a board house populates parts with
manufacturing tolerances and the bias point drifts with the regulator.
This module samples those variations and reports the fraction of boards
meeting the shipping spec — the standard post-design step that decides
whether the optimized point is *robust*, not just optimal.

Every sampled board is evaluated in one fault-isolated engine call,
factorized in 64-row blocks (via
:meth:`repro.core.engine.CompiledTemplate.performance_batch_physical_isolated`
on a Monte-Carlo :class:`~repro.optimize.robust.CornerSet`, which draws
one uniform variate per design variable per trial in
:data:`~repro.core.amplifier.DesignVariables.NAMES` order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import design_grid, stability_grid
from repro.rf.frequency import FrequencyGrid

__all__ = ["ToleranceSpec", "YieldResult", "monte_carlo_yield", "ship_mask"]

#: Relative tolerance fields (uniform half-widths) vs absolute volts.
_RELATIVE_FIELDS = ("inductor", "capacitor", "resistor")
_ABSOLUTE_FIELDS = ("vgs_volts", "vds_volts")


@dataclass(frozen=True)
class ToleranceSpec:
    """1-sigma-equivalent uniform tolerances per element class.

    Values are relative half-widths of a uniform distribution (0.05 =
    +/-5 %), except the bias entries which are absolute volts.  All
    fields are validated on construction: negative or non-finite
    tolerances are rejected by name, and a relative tolerance >= 1
    (a part that can vanish or reverse sign) is not a tolerance.
    """

    inductor: float = 0.05
    capacitor: float = 0.05
    resistor: float = 0.01
    vgs_volts: float = 0.01
    vds_volts: float = 0.05

    def __post_init__(self):
        for name in _RELATIVE_FIELDS + _ABSOLUTE_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(
                    f"{name} must be finite, got {value!r}")
            if value < 0.0:
                raise ValueError(
                    f"{name} must be non-negative, got {value!r}")
        for name in _RELATIVE_FIELDS:
            if getattr(self, name) >= 1.0:
                raise ValueError(
                    f"{name} is a relative half-width and must be < 1, "
                    f"got {getattr(self, name)!r}")

    @classmethod
    def tight(cls) -> "ToleranceSpec":
        """Premium parts: 2 % reactives, 1 % resistors."""
        return cls(inductor=0.02, capacitor=0.02, resistor=0.01,
                   vgs_volts=0.005, vds_volts=0.02)

    @classmethod
    def loose(cls) -> "ToleranceSpec":
        """Cheap parts: 10 % reactives, 5 % resistors."""
        return cls(inductor=0.10, capacitor=0.10, resistor=0.05,
                   vgs_volts=0.02, vds_volts=0.1)


@dataclass
class YieldResult:
    """Outcome of a Monte-Carlo yield run."""

    n_trials: int
    n_pass: int
    nf_max_db: np.ndarray       # per-trial worst-case NF
    gt_min_db: np.ndarray       # per-trial worst-case GT
    mu_min: np.ndarray
    failures: Dict[str, int] = field(default_factory=dict)

    #: Per-trial array attributes :meth:`percentile` accepts.
    PERCENTILE_QUANTITIES = ("nf_max_db", "gt_min_db", "mu_min")

    @property
    def yield_fraction(self) -> float:
        return self.n_pass / self.n_trials if self.n_trials else 0.0

    def percentile(self, quantity: str, q: float) -> float:
        """Percentile of a per-trial array ('nf_max_db', ...)."""
        if quantity not in self.PERCENTILE_QUANTITIES:
            raise ValueError(
                f"unknown quantity {quantity!r}; valid quantities: "
                f"{', '.join(self.PERCENTILE_QUANTITIES)}")
        return float(np.percentile(getattr(self, quantity), q))


def ship_mask(batch, quarantined: np.ndarray, nf_limit_db: float,
              gt_limit_db: float, mu_limit: float) -> np.ndarray:
    """The shipping rule over one engine batch: a ``(B,)`` mask.

    A board ships when NFmax <= *nf_limit_db*, GTmin >= *gt_limit_db*
    and it is unconditionally stable (mu > *mu_limit*).  A
    *quarantined* row (the engine returned its failure record) never
    ships, whatever figures it carries.  *batch* is a
    :class:`~repro.core.engine.BatchPerformance`.
    """
    return (~quarantined
            & (batch.nf_max_db <= nf_limit_db)
            & (batch.gt_min_db >= gt_limit_db)
            & (batch.mu_min > mu_limit))


def monte_carlo_yield(
    template: AmplifierTemplate,
    nominal: DesignVariables,
    tolerances: Optional[ToleranceSpec] = None,
    n_trials: int = 50,
    seed: Optional[int] = 0,
    band_grid: Optional[FrequencyGrid] = None,
    guard_grid: Optional[FrequencyGrid] = None,
    nf_ship_limit_db: float = 0.8,
    gt_ship_limit_db: float = 13.0,
    compiled=None,
) -> YieldResult:
    """Sample component variations and evaluate the shipping yield.

    A board passes by :func:`ship_mask`: NFmax <= *nf_ship_limit_db*,
    GTmin >= *gt_ship_limit_db*, and unconditionally stable (mu > 1).
    ``failures`` counts the boards failing each of the three checks
    (``"nf"``, ``"gt"``, ``"stability"``); one board can fail several.

    All trials are solved in one batched engine call (64-row blocks);
    trials whose solve fails quarantine through the failure taxonomy
    and are counted under ``failures["quarantined"]`` (a board that
    cannot be solved certainly does not ship).  Pass a prebuilt
    :class:`~repro.core.engine.CompiledTemplate` via *compiled* (its
    grids take precedence) to amortize compilation across calls.
    """
    # Imported here: robust.py imports ToleranceSpec from this module.
    from repro.core.engine import CompiledTemplate
    from repro.optimize.robust import CornerSet, PENALTY_NF_DB, PENALTY_GT_DB

    tolerances = tolerances or ToleranceSpec()
    band_grid = band_grid or design_grid(13)
    guard_grid = guard_grid or stability_grid(16)
    rng = np.random.default_rng(seed)

    corners = CornerSet.monte_carlo(tolerances, n_trials, rng)
    x_trials = corners.apply(nominal.to_vector())
    if compiled is None:
        compiled = CompiledTemplate(template, band_grid, guard_grid,
                                    verify=False)
    batch, trial_failures, _ = (
        compiled.performance_batch_physical_isolated(x_trials))
    quarantined = np.array([f is not None for f in trial_failures])
    nf_max = np.asarray(batch.nf_max_db, dtype=float).copy()
    gt_min = np.asarray(batch.gt_min_db, dtype=float).copy()
    mu_min = np.asarray(batch.mu_min, dtype=float).copy()
    # A quarantined board fails every shipping check by construction.
    nf_max[quarantined] = PENALTY_NF_DB
    gt_min[quarantined] = PENALTY_GT_DB
    mu_min[quarantined] = 0.0

    failures: Dict[str, int] = {
        "nf": int(np.sum(nf_max > nf_ship_limit_db)),
        "gt": int(np.sum(gt_min < gt_ship_limit_db)),
        "stability": int(np.sum(mu_min <= 1.0)),
    }
    if np.any(quarantined):
        failures["quarantined"] = int(np.sum(quarantined))

    return YieldResult(
        n_trials=n_trials,
        n_pass=int(np.sum(ship_mask(batch, quarantined, nf_ship_limit_db,
                                    gt_ship_limit_db, 1.0))),
        nf_max_db=nf_max,
        gt_min_db=gt_min,
        mu_min=mu_min,
        failures=failures,
    )
