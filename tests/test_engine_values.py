"""The compiled element-value layer, bit for bit.

:class:`~repro.core.engine.CompiledTemplate` evaluates the six matching
passives on frequency factors hoisted at compile time instead of
building :mod:`repro.passives.rlc` component objects per call.  The rlc
models stay the oracle, so every admittance and thermal-noise stamp is
pinned here with exact equality against them:

* admittances equal ``murata_style_capacitor(c).admittance(f)`` and
  ``coilcraft_style_inductor(l).admittance(f)``, batched and per row,
  on both sides of the capacitor factory's 10 pF branch and on
  out-of-box corner rows;
* the noise stamps equal ``2kT Re(Y)`` and, as assembled for the solve,
  the component's own ``[[y, -y], [-y, y]]`` stack byte for byte;
* a non-positive C or L raises the component models' ``ValueError``;
* the conditioning guard samples the reduced matrix the batch solve
  factorized, which equals :meth:`SparsePlan.sample_matrix`.
"""

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device
from repro.guards.modes import guard_mode
from repro.optimize.robust import CornerSet
from repro.passives.rlc import (
    _two_terminal_stack,
    coilcraft_style_inductor,
    murata_style_capacitor,
)
from repro.util.constants import BOLTZMANN, T_AMBIENT

NAMES = DesignVariables.NAMES
PASSIVES = (
    ("Cin", "c_in", murata_style_capacitor),
    ("Cout", "c_out", murata_style_capacitor),
    ("Csh", "c_sh", murata_style_capacitor),
    ("Lin", "l_in", coilcraft_style_inductor),
    ("Ldeg", "l_deg", coilcraft_style_inductor),
    ("Lchoke", "l_choke", coilcraft_style_inductor),
)


@pytest.fixture(scope="module")
def engine():
    template = AmplifierTemplate(reference_device().small_signal)
    return CompiledTemplate(template)


def _physical_rows(n_rows: int, seed: int) -> np.ndarray:
    """Random designs whose capacitors straddle the 10 pF branch of the
    capacitor factory; rows from the fourth on are robust corners,
    scaled further out of the optimization box."""
    rng = np.random.default_rng(seed)
    x = CompiledTemplate._to_physical(rng.random((n_rows, len(NAMES))))
    if n_rows > 3:
        corners = CornerSet.from_tolerances().apply(x[0])
        picks = np.arange(n_rows - 3) % corners.shape[0]
        x[3:] = corners[picks] * rng.uniform(0.6, 1.6, (n_rows - 3, 1))
    near_10pf = np.array([9.999999e-12, 10e-12, 10.000001e-12, 3.3e-12,
                          22e-12])
    even = np.arange(0, n_rows, 2)
    for k, var in enumerate(("c_in", "c_out", "c_sh")):
        x[even, NAMES.index(var)] = near_10pf[(even + k) % near_10pf.size]
    return x


@pytest.mark.parametrize("n_rows", [1, 3, 64])
def test_passive_admittances_and_psds_match_component_models(engine,
                                                             n_rows):
    x = _physical_rows(n_rows, seed=n_rows)
    caps = x[:, [NAMES.index(v) for v in ("c_in", "c_out", "c_sh")]]
    assert np.any(caps == 10e-12) and np.any(caps < 10e-12)
    if n_rows == 64:  # corner rows leave the optimization box
        assert np.any((x < DesignVariables.LOWER)
                      | (x > DesignVariables.UPPER))
    admittances, _, passive_psd, _, _, _ = engine._candidate_values(x)
    f = engine._f_fused
    for k, (name, var, factory) in enumerate(PASSIVES):
        values = x[:, NAMES.index(var)]
        y = factory(values[:, None], name=name).admittance(f)
        np.testing.assert_array_equal(admittances[name], y)
        np.testing.assert_array_equal(
            passive_psd[k], 2.0 * BOLTZMANN * T_AMBIENT * np.real(y))
        # The scalar path builds one component per design.
        for i in range(min(n_rows, 3)):
            np.testing.assert_array_equal(
                admittances[name][i],
                factory(float(values[i]), name=name).admittance(f))


def test_noise_blocks_equal_the_component_stamps_byte_for_byte(engine):
    x = _physical_rows(5, seed=3)
    admittances, _, passive_psd, _, _, _ = engine._candidate_values(x)
    _, const_psd, var_idx = engine._blk_layout[2]
    psd = engine._block_psd(const_psd, var_idx, passive_psd, x.shape[0])
    n_band = engine._n_band
    for k, (name, _, _) in enumerate(PASSIVES):
        g = np.real(admittances[name])
        stamp = _two_terminal_stack(
            (2.0 * BOLTZMANN * T_AMBIENT * g).astype(complex))
        assert (np.ascontiguousarray(psd[:, :, var_idx[k]]).tobytes()
                == stamp[:, :n_band].tobytes()), name


@pytest.mark.parametrize("name, var, _", PASSIVES)
@pytest.mark.parametrize("value", [0.0, -1e-12])
def test_nonpositive_passive_raises_value_error(engine, name, var, _,
                                                value):
    x = _physical_rows(3, seed=1)
    x[1, NAMES.index(var)] = value
    kind = "capacitance" if var.startswith("c_") else "inductance"
    with pytest.raises(ValueError, match=f"{name}: {kind} must be positive"):
        engine.performance_batch_physical(x)
    with pytest.raises(ValueError, match=f"{name}: {kind} must be positive"):
        engine.performance_batch_physical_isolated(x)


def test_nan_passive_is_quarantined_not_raised(engine):
    x = _physical_rows(3, seed=2)
    healthy = engine.performance_batch_physical(x[[0, 2]])
    x[1, NAMES.index("l_in")] = np.nan
    with np.errstate(invalid="ignore"):
        batch, failures, _ = engine.performance_batch_physical_isolated(x)
    assert failures[0] is None and failures[2] is None
    assert failures[1] is not None
    np.testing.assert_array_equal(batch.nf_db[[0, 2]], healthy.nf_db)


def _capture_condition(monkeypatch):
    samples = []

    def observe(matrix, where):
        samples.append((np.array(matrix), where))
        return 0.0

    monkeypatch.setattr(engine_module, "observe_condition", observe)
    return samples


@pytest.mark.parametrize("n_rows", [1, 3])
def test_condition_sample_is_the_solved_matrix(engine, monkeypatch, n_rows):
    samples = _capture_condition(monkeypatch)
    x = _physical_rows(n_rows, seed=10 + n_rows)
    with guard_mode("warn"):
        engine.performance_batch_physical(x)
    admittances = engine._candidate_values(x)[0]
    assert len(samples) == 1
    matrix, where = samples[0]
    assert where == "mna"
    np.testing.assert_array_equal(
        matrix, engine._plan.sample_matrix(admittances))


def test_raising_batch_still_records_its_sample(engine, monkeypatch):
    plan = engine._plan
    real = plan.solve_rows

    def singular(coeffs, n_batch):
        out = real(coeffs, n_batch)  # assembles, then "fails" to factor
        if n_batch > 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return out

    x = _physical_rows(3, seed=4)
    reference = engine.performance_batch_physical(x)
    samples = _capture_condition(monkeypatch)
    monkeypatch.setattr(plan, "solve_rows", singular)
    with guard_mode("warn"):
        batch = engine.performance_batch_physical(x)
    np.testing.assert_array_equal(batch.nf_db, reference.nf_db)
    # One sample, of the batch matrix; the row-by-row re-solves add none.
    assert len(samples) == 1
    np.testing.assert_array_equal(
        samples[0][0],
        plan.sample_matrix(engine._candidate_values(x)[0]))


def test_no_sample_when_the_solve_did_not_assemble(engine, monkeypatch):
    plan = engine._plan

    def refuses(coeffs, n_batch):
        raise np.linalg.LinAlgError("Singular matrix")

    x = _physical_rows(2, seed=5)
    engine.performance_batch_physical(x)
    samples = _capture_condition(monkeypatch)
    monkeypatch.setattr(plan, "solve_rows", refuses)
    with guard_mode("warn"):
        engine.performance_batch_physical_isolated(x)
    assert samples == []
    assert plan.assembled_matrix({}) is None
