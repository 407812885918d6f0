"""Yield-aware robust evaluation: corner sets, batched sweeps, screening.

A nominal Pareto front answers "what is the best buildable trade-off at
the exact optimized component values" — but boards ship with E-series
parts, regulator drift, and a temperature range, and a nominally
optimal design can lose 40 % of its margin before the first unit leaves
the line.  This module turns that manufacturing reality into
first-class optimization objectives:

* :class:`CornerSet` — a deterministic set of multiplicative /
  additive perturbations in **physical** component space: tolerance
  corners from a :class:`~repro.core.tolerance.ToleranceSpec`, bias
  corners (offset-only), temperature corners from
  :class:`TemperatureCoefficients`, and
  Monte-Carlo samples drawn with the exact RNG consumption of the
  scalar :func:`~repro.core.tolerance.monte_carlo_yield` loop.
  Corner sets compose with ``+``.
* :class:`RobustEvaluator` — stacks the **entire** corner set of every
  shortlisted candidate of a generation into a single
  :meth:`~repro.core.engine.CompiledTemplate.performance_batch_physical_isolated`
  call, so a generation's sweep costs a few batched MNA factorizations
  (64-row blocks), not one call per candidate or a scalar circuit
  build per corner.  Corner failures quarantine through the
  :class:`~repro.optimize.faults.EvaluationFailure` taxonomy with the
  healthy corners bit-identical to an all-healthy sweep.
* :class:`QuadraticSurrogate` — a deterministic numpy-only ridge
  quadratic fit on the evaluation history that pre-screens each
  generation: only the most promising ``screen_fraction`` of
  candidates pays for a full corner sweep, the rest carry clipped
  surrogate predictions.  Every screen decision is journaled as a
  ``screen_decision`` event.
* :func:`build_robust_problem` — the three-objective
  ``(NFworst, -GTworst, -yield)`` problem for NSGA-II / goal
  attainment, with the nominal design constraints intact; and
  :class:`RobustScalarObjective` — a picklable robust scalarization
  for DE / PSO and the ``robust.optimize`` service job.
* :class:`RobustStateSink` — an ``on_generation`` wrapper that rides
  the corner RNG + surrogate state inside optimizer checkpoints (the
  telemetry slot), so a SIGKILLed robust run resumes bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import journal as _obs_journal
from repro.obs import metrics as _obs_metrics
from repro.obs import tracer as _obs_tracer

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.bands import design_grid, stability_grid
from repro.core.engine import CompiledTemplate
from repro.core.objectives import DesignSpec
from repro.core.tolerance import ToleranceSpec, ship_mask
from repro.guards import contracts as _contracts
from repro.optimize.goal_attainment import MultiObjectiveProblem
from repro.rf.frequency import FrequencyGrid

__all__ = [
    "CornerSet",
    "TemperatureCoefficients",
    "QuadraticSurrogate",
    "RobustFigures",
    "RobustEvaluator",
    "RobustStateSink",
    "RobustScalarObjective",
    "build_robust_problem",
    "robust_score",
]

_N_VARS = len(DesignVariables.NAMES)
_INDEX = {name: i for i, name in enumerate(DesignVariables.NAMES)}
#: Variable columns per element class (physical-space perturbations).
INDUCTOR_VARS = tuple(_INDEX[n] for n in ("l_in", "l_deg", "l_choke"))
CAPACITOR_VARS = tuple(_INDEX[n] for n in ("c_in", "c_out", "c_sh"))
RESISTOR_VARS = tuple(_INDEX[n] for n in ("r_stab", "r_sh"))
BIAS_VARS = (_INDEX["vgs"], _INDEX["vds"])

#: Worst-case figures reported when *every* corner of a candidate
#: quarantined — finite, so downstream sorting and Pareto filtering
#: stay well-defined, and far outside any physical LNA's range.
PENALTY_NF_DB = 1.0e3
PENALTY_GT_DB = -1.0e3


@dataclass(frozen=True)
class TemperatureCoefficients:
    """First-order drift of the element classes with temperature.

    Reactives and resistors drift by their ppm/K tempco; the HEMT's
    threshold shifts the effective gate overdrive by ``vgs_mv_per_k``
    (negative: the device turns on harder when hot).  Values are
    catalogue-typical for wirewound chip inductors, NP0/C0G capacitors,
    and thin-film resistors.
    """

    inductor_ppm_per_k: float = 200.0
    capacitor_ppm_per_k: float = 300.0
    resistor_ppm_per_k: float = 100.0
    vgs_mv_per_k: float = -1.0
    t_ref_c: float = 25.0


def _ensure_finite(values: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {values!r}")
    return arr


@dataclass(frozen=True)
class CornerSet:
    """Deterministic perturbations of a physical design vector.

    Corner ``c`` maps a physical vector ``x`` to
    ``x * scale[c] + offset[c]`` — multiplicative for component
    tolerances (a +5 % inductor is +5 % whatever its nominal), additive
    for bias drift (the regulator misses by millivolts, not percent).
    Corners are applied in physical space on purpose: a tolerance
    corner of a design near the box edge lands *outside* the
    optimization box, and it must — the board house does not clip.

    Compose sets with ``+``; build them with :meth:`from_tolerances`,
    :meth:`bias`, :meth:`temperature`, and :meth:`monte_carlo`.
    """

    names: Tuple[str, ...]
    scale: np.ndarray    # (C, n) multiplicative
    offset: np.ndarray   # (C, n) additive

    def __post_init__(self):
        scale = np.atleast_2d(_ensure_finite(self.scale, "scale"))
        offset = np.atleast_2d(_ensure_finite(self.offset, "offset"))
        if scale.shape != offset.shape or scale.ndim != 2:
            raise ValueError(
                f"scale and offset must be matching (C, n) arrays, got "
                f"{scale.shape} and {offset.shape}")
        if len(self.names) != scale.shape[0]:
            raise ValueError(
                f"{len(self.names)} corner names for {scale.shape[0]} "
                f"corner rows")
        if np.any(scale <= 0.0):
            raise ValueError(
                "scale must be positive: a non-positive component "
                "multiplier is not a tolerance, it is a different circuit")
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    @property
    def n_corners(self) -> int:
        return self.scale.shape[0]

    @property
    def n_vars(self) -> int:
        return self.scale.shape[1]

    def __len__(self) -> int:
        return self.n_corners

    def apply(self, x_physical: np.ndarray) -> np.ndarray:
        """The ``(C, n)`` corner matrix of one physical design vector."""
        x_physical = np.asarray(x_physical, dtype=float)
        if x_physical.shape != (self.n_vars,):
            raise ValueError(
                f"expected a ({self.n_vars},) physical vector, got shape "
                f"{x_physical.shape}")
        return x_physical[None, :] * self.scale + self.offset

    def __add__(self, other: "CornerSet") -> "CornerSet":
        if not isinstance(other, CornerSet):
            return NotImplemented
        if other.n_vars != self.n_vars:
            raise ValueError("cannot combine corner sets of different width")
        return CornerSet(
            names=self.names + other.names,
            scale=np.vstack([self.scale, other.scale]),
            offset=np.vstack([self.offset, other.offset]),
        )

    # -- constructors -------------------------------------------------------
    @classmethod
    def nominal(cls) -> "CornerSet":
        """The identity corner (the unperturbed board)."""
        return cls(("nominal",), np.ones((1, _N_VARS)),
                   np.zeros((1, _N_VARS)))

    @classmethod
    def from_tolerances(cls,
                        tolerances: Optional[ToleranceSpec] = None,
                        ) -> "CornerSet":
        """Per-class low/high extremes plus the all-low/all-high corners.

        Ten corners: each element class (L, C, R) pushed to both
        tolerance extremes with everything else nominal, both bias
        rails at their drift extremes, and the two fully-correlated
        corners where every part lands at the same end of its band —
        the classic worst-case-analysis corner book.
        """
        tolerances = tolerances or ToleranceSpec()
        names: List[str] = []
        scale_rows: List[np.ndarray] = []
        offset_rows: List[np.ndarray] = []

        def corner(name, sign, classes, bias=False):
            scale = np.ones(_N_VARS)
            offset = np.zeros(_N_VARS)
            for cols, width in classes:
                scale[list(cols)] = 1.0 + sign * width
            if bias:
                offset[BIAS_VARS[0]] = sign * tolerances.vgs_volts
                offset[BIAS_VARS[1]] = sign * tolerances.vds_volts
            names.append(name)
            scale_rows.append(scale)
            offset_rows.append(offset)

        classes = (
            ("L", ((INDUCTOR_VARS, tolerances.inductor),)),
            ("C", ((CAPACITOR_VARS, tolerances.capacitor),)),
            ("R", ((RESISTOR_VARS, tolerances.resistor),)),
        )
        for label, spec in classes:
            corner(f"{label}-low", -1.0, spec)
            corner(f"{label}-high", +1.0, spec)
        corner("bias-low", -1.0, (), bias=True)
        corner("bias-high", +1.0, (), bias=True)
        everything = (
            (INDUCTOR_VARS, tolerances.inductor),
            (CAPACITOR_VARS, tolerances.capacitor),
            (RESISTOR_VARS, tolerances.resistor),
        )
        corner("all-low", -1.0, everything, bias=True)
        corner("all-high", +1.0, everything, bias=True)
        return cls(tuple(names), np.array(scale_rows),
                   np.array(offset_rows))

    @classmethod
    def bias(cls, vgs_delta: float = 0.01,
             vds_delta: float = 0.05) -> "CornerSet":
        """Four offset-only regulator-drift corners."""
        _ensure_finite([vgs_delta, vds_delta], "bias deltas")
        names = []
        offsets = []
        for sg in (-1.0, +1.0):
            for sd in (-1.0, +1.0):
                names.append(f"bias({sg:+.0f}vgs,{sd:+.0f}vds)")
                row = np.zeros(_N_VARS)
                row[BIAS_VARS[0]] = sg * vgs_delta
                row[BIAS_VARS[1]] = sd * vds_delta
                offsets.append(row)
        return cls(tuple(names), np.ones((4, _N_VARS)), np.array(offsets))

    @classmethod
    def temperature(cls, t_min_c: float = -40.0, t_max_c: float = 85.0,
                    tc: Optional[TemperatureCoefficients] = None,
                    ) -> "CornerSet":
        """Cold/hot corners from first-order temperature coefficients."""
        tc = tc or TemperatureCoefficients()
        _ensure_finite([t_min_c, t_max_c], "temperature range")
        if t_min_c >= t_max_c:
            raise ValueError(
                f"t_min_c must be below t_max_c, got [{t_min_c}, {t_max_c}]")
        names = []
        scale_rows = []
        offset_rows = []
        for label, t_c in (("cold", t_min_c), ("hot", t_max_c)):
            dt = t_c - tc.t_ref_c
            scale = np.ones(_N_VARS)
            scale[list(INDUCTOR_VARS)] = 1.0 + 1e-6 * tc.inductor_ppm_per_k * dt
            scale[list(CAPACITOR_VARS)] = (
                1.0 + 1e-6 * tc.capacitor_ppm_per_k * dt)
            scale[list(RESISTOR_VARS)] = 1.0 + 1e-6 * tc.resistor_ppm_per_k * dt
            offset = np.zeros(_N_VARS)
            offset[BIAS_VARS[0]] = 1e-3 * tc.vgs_mv_per_k * dt
            names.append(f"temp-{label}({t_c:+.0f}C)")
            scale_rows.append(scale)
            offset_rows.append(offset)
        return cls(tuple(names), np.array(scale_rows),
                   np.array(offset_rows))

    @classmethod
    def monte_carlo(cls, tolerances: Optional[ToleranceSpec] = None,
                    n_trials: int = 16,
                    rng=0) -> "CornerSet":
        """Uniform Monte-Carlo corners, one board per trial.

        Each trial draws one uniform variate per design variable **in
        :data:`DesignVariables.NAMES` order**, so a per-trial loop that
        perturbs one variable at a time from the same generator builds
        bit-identical boards (the scalar oracle in the tolerance tests).
        """
        tolerances = tolerances or ToleranceSpec()
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        widths_rel = np.zeros(_N_VARS)
        widths_rel[list(INDUCTOR_VARS)] = tolerances.inductor
        widths_rel[list(CAPACITOR_VARS)] = tolerances.capacitor
        widths_rel[list(RESISTOR_VARS)] = tolerances.resistor
        widths_abs = np.zeros(_N_VARS)
        widths_abs[BIAS_VARS[0]] = tolerances.vgs_volts
        widths_abs[BIAS_VARS[1]] = tolerances.vds_volts

        u = rng.random((int(n_trials), _N_VARS))
        swing = 2.0 * u - 1.0
        scale = 1.0 + widths_rel[None, :] * swing
        offset = widths_abs[None, :] * swing
        names = tuple(f"mc-{k:03d}" for k in range(int(n_trials)))
        return cls(names, scale, offset)


def robust_score(nf_worst_db, gt_worst_db, yield_fraction,
                 yield_weight: float = 5.0, gt_weight: float = 0.05):
    """Scalar robust merit (lower is better).

    Worst-case noise figure, a small pull toward worst-case gain, and a
    yield shortfall penalty.  Used both to rank candidates for the
    surrogate pre-screen and as the :class:`RobustScalarObjective`
    value, so the screen optimizes the same quantity the scalarized
    optimizers do.
    """
    nf = np.asarray(nf_worst_db, dtype=float)
    gt = np.asarray(gt_worst_db, dtype=float)
    y = np.clip(np.asarray(yield_fraction, dtype=float), 0.0, 1.0)
    return nf - gt_weight * gt + yield_weight * (1.0 - y)


class QuadraticSurrogate:
    """Deterministic ridge quadratic fit on the evaluation history.

    Predicts ``(yield, NFworst, GTworst)`` from the unit design vector
    using the full quadratic feature map (``1 + n + n(n+1)/2``
    monomials).  The model refits from its stored history on every
    predict via normal equations with a fixed ridge — no iterative
    state, so identical history produces bit-identical predictions,
    which is what lets surrogate state ride checkpoints for
    bit-for-bit resume.
    """

    def __init__(self, n_vars: int = _N_VARS, n_outputs: int = 3,
                 min_fit: int = 32, max_history: int = 512,
                 ridge: float = 1e-6):
        if min_fit < 4:
            raise ValueError(f"min_fit must be >= 4, got {min_fit}")
        self.n_vars = int(n_vars)
        self.n_outputs = int(n_outputs)
        self.min_fit = int(min_fit)
        self.max_history = int(max_history)
        self.ridge = float(ridge)
        self._x = np.empty((0, self.n_vars))
        self._y = np.empty((0, self.n_outputs))

    def __len__(self) -> int:
        return self._x.shape[0]

    @property
    def ready(self) -> bool:
        return len(self) >= self.min_fit

    def observe(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have matching rows")
        self._x = np.vstack([self._x, x])[-self.max_history:]
        self._y = np.vstack([self._y, y])[-self.max_history:]

    def _features(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b, n = x.shape
        iu, ju = np.triu_indices(n)
        return np.hstack([
            np.ones((b, 1)),
            x,
            x[:, iu] * x[:, ju],
        ])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """``(B, n_outputs)`` predictions; raises before :attr:`ready`."""
        if not self.ready:
            raise RuntimeError(
                f"surrogate has {len(self)} observations, needs "
                f">= {self.min_fit} before predicting")
        train = self._features(self._x)
        gram = train.T @ train
        gram[np.diag_indices_from(gram)] += self.ridge
        weights = np.linalg.solve(gram, train.T @ self._y)
        return self._features(x) @ weights

    def state(self) -> dict:
        return {"x": self._x.copy(), "y": self._y.copy()}

    def restore(self, state: dict) -> None:
        self._x = np.asarray(state["x"], dtype=float).reshape(-1, self.n_vars)
        self._y = np.asarray(state["y"],
                             dtype=float).reshape(-1, self.n_outputs)


@dataclass
class RobustFigures:
    """Per-candidate robust figures of one ``evaluate_batch`` call.

    Rows where ``screened`` is True carry (clipped) surrogate
    predictions instead of swept values; ``n_quarantined`` counts the
    corners that failed through the :class:`EvaluationFailure`
    taxonomy (quarantined corners always count against yield).
    """

    yield_fraction: np.ndarray   # (B,) in [0, 1]
    nf_worst_db: np.ndarray      # (B,) max over healthy corners
    gt_worst_db: np.ndarray      # (B,) min over healthy corners
    mu_worst: np.ndarray         # (B,)
    screened: np.ndarray         # (B,) bool
    n_quarantined: np.ndarray    # (B,) int

    def __len__(self) -> int:
        return self.yield_fraction.shape[0]


class RobustEvaluator:
    """Batched corner sweeps with surrogate pre-screening.

    The corner sets of all shortlisted candidates of one batch are
    stacked into one ``(n_short * C, n)`` physical matrix and swept by
    one ``performance_batch_physical_isolated`` call, which the engine
    refactorizes in full in fixed 64-row blocks (no corner reuses
    another's factorization); the figures are then reduced
    per candidate on an ``(n_short, C)`` reshape.  A corner whose solve
    fails quarantines through the standard failure taxonomy: it counts
    as a yield fail, worst-case figures are taken over the healthy
    corners only (penalty figures when none is healthy), and every
    healthy corner — of the sick candidate and of its neighbours in
    the stack — stays bit-identical to a sweep without the sick corner.

    When ``screen_fraction < 1`` and the surrogate has enough history,
    only the best-ranked fraction of each batch pays for a sweep; the
    rest carry surrogate predictions (flagged in
    :attr:`RobustFigures.screened`).  Every decision is journaled as a
    ``screen_decision`` event.  All screening state — the corner
    arrays, the Monte-Carlo RNG, the surrogate history, the counters —
    round-trips through :meth:`state` / :meth:`restore` so robust runs
    checkpoint and resume bit-for-bit (ride it on the optimizer's
    ``on_generation`` slot via :class:`RobustStateSink`).
    """

    def __init__(self, template: AmplifierTemplate,
                 corners: Optional[CornerSet] = None,
                 tolerances: Optional[ToleranceSpec] = None,
                 n_mc_trials: int = 0,
                 seed: Optional[int] = 0,
                 band_grid: Optional[FrequencyGrid] = None,
                 guard_grid: Optional[FrequencyGrid] = None,
                 nf_ship_limit_db: float = 0.8,
                 gt_ship_limit_db: float = 13.0,
                 mu_ship: float = 1.0,
                 screen_fraction: float = 1.0,
                 min_screen_history: int = 32,
                 surrogate: Optional[QuadraticSurrogate] = None,
                 compiled: Optional[CompiledTemplate] = None):
        if not 0.0 < screen_fraction <= 1.0:
            raise ValueError(
                f"screen_fraction must be in (0, 1], got {screen_fraction}")
        self.band_grid = band_grid or design_grid(13)
        self.guard_grid = guard_grid or stability_grid(16)
        self._compiled = compiled or CompiledTemplate(
            template, self.band_grid, self.guard_grid, verify=False,
        )
        self.nf_ship_limit_db = float(nf_ship_limit_db)
        self.gt_ship_limit_db = float(gt_ship_limit_db)
        self.mu_ship = float(mu_ship)
        self.screen_fraction = float(screen_fraction)
        self._rng = np.random.default_rng(seed)
        corners = corners or CornerSet.from_tolerances(tolerances)
        if n_mc_trials:
            corners = corners + CornerSet.monte_carlo(
                tolerances, n_mc_trials, self._rng)
        self.corners = corners
        self.surrogate = surrogate or QuadraticSurrogate(
            n_vars=_N_VARS, min_fit=min_screen_history)
        self.n_sweeps = 0
        self.n_corner_evals = 0
        self.n_screened = 0

    # -- the sweep ----------------------------------------------------------
    def _sweep(self, x_physical: np.ndarray):
        """Corner sweep of a ``(S, n)`` physical stack: one engine call.

        Returns per-candidate ``(yield, NFworst, GTworst, muworst,
        n_quarantined)`` arrays of length ``S``.
        """
        n_cand = x_physical.shape[0]
        n_corners = self.corners.n_corners
        corner_x = np.vstack([self.corners.apply(x) for x in x_physical])
        batch, failures, _ = (
            self._compiled.performance_batch_physical_isolated(corner_x))
        shape = (n_cand, n_corners)
        quarantined = np.array([f is not None for f in failures],
                               dtype=bool)
        passing = ship_mask(batch, quarantined, self.nf_ship_limit_db,
                            self.gt_ship_limit_db,
                            self.mu_ship).reshape(shape)
        quarantined = quarantined.reshape(shape)
        healthy = ~quarantined
        nf = batch.nf_max_db.reshape(shape)
        gt = batch.gt_min_db.reshape(shape)
        mu = batch.mu_min.reshape(shape)
        any_healthy = np.any(healthy, axis=1)
        # Worst cases over the healthy corners only; a candidate with no
        # healthy corner gets the penalty figures.
        nf_worst = np.where(any_healthy,
                            np.max(np.where(healthy, nf, -np.inf), axis=1),
                            PENALTY_NF_DB)
        gt_worst = np.where(any_healthy,
                            np.min(np.where(healthy, gt, np.inf), axis=1),
                            PENALTY_GT_DB)
        mu_worst = np.where(any_healthy,
                            np.min(np.where(healthy, mu, np.inf), axis=1),
                            0.0)
        self.n_sweeps += n_cand
        self.n_corner_evals += n_cand * n_corners
        _obs_metrics.inc("robust.corner_evals", n_cand * n_corners)
        return (np.mean(passing, axis=1), nf_worst, gt_worst, mu_worst,
                np.sum(quarantined, axis=1))

    def evaluate_batch(self, unit_x: np.ndarray,
                       screen: Optional[bool] = None) -> RobustFigures:
        """Robust figures for a ``(B, n)`` stack of unit design vectors.

        With ``screen=None`` the configured ``screen_fraction``
        applies once the surrogate is trained; ``screen=False`` forces
        a full sweep of every row (used for final-front re-evaluation,
        so reported fronts never carry surrogate numbers).
        """
        unit_x = np.atleast_2d(np.asarray(unit_x, dtype=float))
        n_batch = unit_x.shape[0]
        x_physical = self._compiled._to_physical(unit_x)

        want_screen = self.screen_fraction < 1.0 if screen is None else screen
        active = (want_screen and self.screen_fraction < 1.0
                  and self.surrogate.ready)
        if active:
            predicted = self.surrogate.predict(unit_x)
            score = robust_score(predicted[:, 1], predicted[:, 2],
                                 predicted[:, 0])
            n_full = max(1, int(math.ceil(self.screen_fraction * n_batch)))
            # Stable sort, then ascending row order: the sweep sequence
            # is a pure function of (history, batch), never of dict or
            # set iteration order — resume replays it exactly.
            shortlist = np.sort(np.argsort(score, kind="stable")[:n_full])
            mode = "surrogate"
        else:
            predicted = None
            shortlist = np.arange(n_batch)
            n_full = n_batch
            mode = "full" if self.surrogate.ready else "warmup"
        _obs_journal.emit("screen_decision",
                          batch=int(n_batch),
                          n_full=int(n_full),
                          n_screened=int(n_batch - n_full),
                          history=len(self.surrogate),
                          mode=mode)
        if n_batch > n_full:
            self.n_screened += n_batch - n_full
            _obs_metrics.inc("robust.screened", n_batch - n_full)

        figures = RobustFigures(
            yield_fraction=np.empty(n_batch),
            nf_worst_db=np.empty(n_batch),
            gt_worst_db=np.empty(n_batch),
            mu_worst=np.empty(n_batch),
            screened=np.ones(n_batch, dtype=bool),
            n_quarantined=np.zeros(n_batch, dtype=int),
        )
        if predicted is not None:
            figures.yield_fraction[:] = np.clip(predicted[:, 0], 0.0, 1.0)
            figures.nf_worst_db[:] = predicted[:, 1]
            figures.gt_worst_db[:] = predicted[:, 2]
            figures.mu_worst[:] = self.mu_ship  # unknown without a sweep

        with _obs_tracer.span("robust.evaluate_batch",
                              batch=n_batch, n_full=int(n_full),
                              corners=self.corners.n_corners):
            if shortlist.size:
                y_frac, nf, gt, mu, n_quar = self._sweep(
                    x_physical[shortlist])
                figures.yield_fraction[shortlist] = y_frac
                figures.nf_worst_db[shortlist] = nf
                figures.gt_worst_db[shortlist] = gt
                figures.mu_worst[shortlist] = mu
                figures.screened[shortlist] = False
                figures.n_quarantined[shortlist] = n_quar
                # Candidates with a healthy corner, in ascending row order.
                seen = n_quar < self.corners.n_corners
                if np.any(seen):
                    self.surrogate.observe(
                        unit_x[shortlist[seen]],
                        np.column_stack([y_frac, nf, gt])[seen])

        _contracts.check_yield_fraction(figures.yield_fraction,
                                        "robust.evaluate_batch")
        _contracts.check_finite(figures.nf_worst_db,
                                "robust.evaluate_batch worst-case NF")
        return figures

    # -- checkpoint state ---------------------------------------------------
    def state(self) -> dict:
        return {
            "rng": self._rng.bit_generator.state,
            "corners": {
                "names": list(self.corners.names),
                "scale": self.corners.scale.copy(),
                "offset": self.corners.offset.copy(),
            },
            "surrogate": self.surrogate.state(),
            "counters": {
                "n_sweeps": self.n_sweeps,
                "n_corner_evals": self.n_corner_evals,
                "n_screened": self.n_screened,
            },
        }

    def restore(self, state: dict) -> None:
        self._rng.bit_generator.state = state["rng"]
        corners = state["corners"]
        self.corners = CornerSet(
            tuple(corners["names"]),
            np.asarray(corners["scale"], dtype=float),
            np.asarray(corners["offset"], dtype=float),
        )
        self.surrogate.restore(state["surrogate"])
        counters = state["counters"]
        self.n_sweeps = int(counters["n_sweeps"])
        self.n_corner_evals = int(counters["n_corner_evals"])
        self.n_screened = int(counters["n_screened"])


class RobustStateSink:
    """``on_generation`` wrapper riding robust state inside checkpoints.

    Optimizer checkpoints store ``on_generation.state()`` in their
    telemetry slot; wrapping the journal (or any telemetry sink) with
    this class extends that slot with the evaluator's corner-RNG,
    surrogate history, and counters — the pieces a SIGKILLed robust run
    needs restored for bit-for-bit resume.  It also translates the
    NSGA-II per-objective minima into named robust columns
    (``nf_worst_best``, ``yield_best``) on each generation record, so
    ``repro-obs summary`` can report them after a replay.
    """

    def __init__(self, evaluator: RobustEvaluator, inner=None):
        self._evaluator = evaluator
        self._inner = inner

    def __call__(self, record) -> None:
        extra = getattr(record, "extra", None)
        if isinstance(extra, dict):
            # Objective order of build_robust_problem:
            # f0 = NFworst, f1 = -GTworst, f2 = -yield.
            if "min_f0" in extra:
                extra["nf_worst_best"] = float(extra["min_f0"])
            if "min_f2" in extra:
                extra["yield_best"] = -float(extra["min_f2"])
        if self._inner is not None:
            self._inner(record)

    def state(self) -> dict:
        inner_state = None
        if self._inner is not None and hasattr(self._inner, "state"):
            inner_state = self._inner.state()
        return {"robust": self._evaluator.state(), "inner": inner_state}

    def restore(self, state) -> None:
        if not isinstance(state, dict) or "robust" not in state:
            # Telemetry written by a non-robust run: pass it through.
            if self._inner is not None and hasattr(self._inner, "restore"):
                self._inner.restore(state)
            return
        self._evaluator.restore(state["robust"])
        if state.get("inner") is not None and self._inner is not None \
                and hasattr(self._inner, "restore"):
            self._inner.restore(state["inner"])


def build_robust_problem(template: AmplifierTemplate,
                         spec: Optional[DesignSpec] = None,
                         evaluator: Optional[RobustEvaluator] = None,
                         **evaluator_kwargs) -> MultiObjectiveProblem:
    """The three-objective robust problem for NSGA-II/goal attainment.

    Minimizes ``(NFworst_dB, -GTworst_dB, -yield)`` over the unit box,
    subject to the same five hard design constraints as the nominal
    :func:`~repro.core.objectives.build_lna_problem` — evaluated at the
    *nominal* point, because shipping limits are judged per corner by
    the yield objective itself.  Nominal figures and corner sweeps
    share one compiled engine; a one-entry memo makes the usual
    objective-then-constraints call pattern cost a single evaluation.
    """
    spec = spec or DesignSpec()
    evaluator = evaluator or RobustEvaluator(template, **evaluator_kwargs)
    compiled = evaluator._compiled
    memo: Dict[str, object] = {"key": None}

    def _evaluate(unit_x: np.ndarray):
        unit_x = np.atleast_2d(np.asarray(unit_x, dtype=float))
        key = unit_x.tobytes()
        if memo["key"] == key:
            return memo["objectives"], memo["constraints"]
        nominal, _, _ = compiled.performance_batch_isolated(unit_x)
        robust = evaluator.evaluate_batch(unit_x)
        objectives = np.column_stack([
            robust.nf_worst_db,
            -robust.gt_worst_db,
            -robust.yield_fraction,
        ])
        constraints = spec.constraints(
            nominal.s11_db, nominal.s22_db, nominal.mu_min,
            nominal.gt_ripple_db, nominal.ids)
        memo.update(key=key, objectives=objectives, constraints=constraints)
        return objectives, constraints

    def objectives(x: np.ndarray) -> np.ndarray:
        return _evaluate(x)[0][0]

    def constraints(x: np.ndarray) -> np.ndarray:
        return _evaluate(x)[1][0]

    def objectives_batch(x: np.ndarray) -> np.ndarray:
        return _evaluate(x)[0]

    def constraints_batch(x: np.ndarray) -> np.ndarray:
        return _evaluate(x)[1]

    return MultiObjectiveProblem(
        objectives=objectives,
        n_objectives=3,
        lower=np.zeros(_N_VARS),
        upper=np.ones(_N_VARS),
        constraints=constraints,
        objective_names=("NFworst_dB", "-GTworst_dB", "-yield"),
        objectives_batch=objectives_batch,
        constraints_batch=constraints_batch,
    )


class RobustScalarObjective:
    """Picklable robust scalarization for DE / PSO.

    Wraps a :class:`RobustEvaluator` behind the lazy-compile factory
    pattern (the evaluator rebuilds deterministically from the
    constructor arguments inside whichever process unpickles it), and
    scores candidates with :func:`robust_score`.  Screening is
    deliberately off on this path: a scalar objective carries no
    checkpoint slot for surrogate state, and with fixed corners the
    objective is a pure function — which is what makes DE/PSO resume
    and the ``robust.optimize`` service job bit-for-bit recoverable.
    """

    def __init__(self, template: Optional[AmplifierTemplate] = None,
                 tolerances: Optional[ToleranceSpec] = None,
                 n_mc_trials: int = 8,
                 seed: Optional[int] = 0,
                 yield_weight: float = 5.0,
                 n_band: int = 9, n_guard: int = 12,
                 nf_ship_limit_db: float = 0.8,
                 gt_ship_limit_db: float = 13.0):
        self.template = template
        self.tolerances = tolerances
        self.n_mc_trials = int(n_mc_trials)
        self.seed = seed
        self.yield_weight = float(yield_weight)
        self.n_band = int(n_band)
        self.n_guard = int(n_guard)
        self.nf_ship_limit_db = float(nf_ship_limit_db)
        self.gt_ship_limit_db = float(gt_ship_limit_db)
        self._evaluator: Optional[RobustEvaluator] = None

    def _ensure(self) -> RobustEvaluator:
        if self._evaluator is None:
            template = self.template
            if template is None:
                from repro.experiments.common import reference_device
                template = AmplifierTemplate(
                    reference_device().small_signal)
            self._evaluator = RobustEvaluator(
                template,
                tolerances=self.tolerances,
                n_mc_trials=self.n_mc_trials,
                seed=self.seed,
                band_grid=design_grid(self.n_band),
                guard_grid=stability_grid(self.n_guard),
                nf_ship_limit_db=self.nf_ship_limit_db,
                gt_ship_limit_db=self.gt_ship_limit_db,
            )
        return self._evaluator

    def batch(self, unit_x: np.ndarray) -> np.ndarray:
        figures = self._ensure().evaluate_batch(
            np.atleast_2d(np.asarray(unit_x, dtype=float)), screen=False)
        return robust_score(figures.nf_worst_db, figures.gt_worst_db,
                            figures.yield_fraction,
                            yield_weight=self.yield_weight)

    def __call__(self, unit_x: np.ndarray) -> float:
        return float(self.batch(np.atleast_2d(unit_x))[0])

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_evaluator"] = None  # rebuilt deterministically on demand
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
