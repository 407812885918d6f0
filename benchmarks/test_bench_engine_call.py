"""Bench of one engine call's fixed cost: the compiled element values.

``CompiledTemplate`` evaluates the six dispersive matching passives on
frequency factors hoisted at construction, instead of building
:mod:`repro.passives.rlc` component objects for every call.  This bench
carries its own reference: the same element-value layer written with
the catalogue models (``murata_style_capacitor`` /
``coilcraft_style_inductor`` objects, ``admittance(f)`` and the
``[[y, -y], [-y, y]]`` noise stacks), as the engine computed it before
the layer was compiled.  It checks both layers agree bit for bit, gates
the compiled layer at >= 1.5x over the reference for a one-row call
(the shape of an SLSQP evaluation), and writes
``BENCH_engine_call.json``.

The artifact also records the median ``performance_batch_isolated``
call at one and at 64 rows, and the fixed per-call cost the two imply
(``t1 - (t64 - t1) / 63``).  Those are ``host.*`` keys: informational,
since they move with the machine.
"""

import json
import time

import numpy as np

from repro.core.amplifier import AmplifierTemplate, DesignVariables
from repro.core.engine import CompiledTemplate
from repro.experiments.common import reference_device
from repro.passives.rlc import (
    _two_terminal_stack,
    coilcraft_style_inductor,
    murata_style_capacitor,
)
from repro.util.constants import BOLTZMANN, T_AMBIENT

GATE_SPEEDUP = 1.5
#: Interleaved rounds; each times ``CALLS`` calls of either layer.
ROUNDS = 15
CALLS = 50
#: Calls per row count in the whole-call timing.
WHOLE_CALLS = {1: 200, 64: 15}

COLUMN = {name: k for k, name in enumerate(DesignVariables.NAMES)}
PASSIVES = (("Cin", "c_in", murata_style_capacitor),
            ("Cout", "c_out", murata_style_capacitor),
            ("Csh", "c_sh", murata_style_capacitor),
            ("Lin", "l_in", coilcraft_style_inductor),
            ("Ldeg", "l_deg", coilcraft_style_inductor),
            ("Lchoke", "l_choke", coilcraft_style_inductor))


def catalogue_values(engine: CompiledTemplate, x: np.ndarray):
    """The element-value layer on catalogue-model objects.

    Returns ``(admittances, scalar_psds, block_psds, ids)`` with the
    engine's slot names; block_psds maps each passive to its
    ``(B, F, 2, 2)`` thermal-noise stack.
    """
    f = engine._f_fused
    omega = 2.0 * np.pi * f
    admittances, scalar_psds, block_psds = {}, {}, {}
    for name, var, factory in PASSIVES:
        component = factory(x[:, COLUMN[var]][:, None], name=name)
        y = np.asarray(component.admittance(f), dtype=complex)
        admittances[name] = y
        block_psds[name] = _two_terminal_stack(
            (2.0 * BOLTZMANN * T_AMBIENT * np.real(y)).astype(complex))
    for name, var in (("Rstab", "r_stab"), ("Rsh", "r_sh")):
        r = x[:, COLUMN[var]][:, None]
        admittances[name] = (1.0 / r).astype(complex)
        scalar_psds[name] = 2.0 * BOLTZMANN * T_AMBIENT / r
    device = engine.template.device
    vgs, vds = x[:, COLUMN["vgs"]], x[:, COLUMN["vds"]]
    gm = np.asarray(device.dc_model.gm(vgs, vds), dtype=float)
    gds = np.asarray(device.dc_model.gds(vgs, vds), dtype=float)
    ids = np.asarray(device.dc_model.ids(vgs, vds), dtype=float)
    cgs = np.asarray(device.capacitances.cgs(vgs), dtype=float)
    cgd = np.asarray(device.capacitances.cgd(vds), dtype=float)
    admittances["Q_Cgs"] = 1j * omega * cgs[:, None]
    admittances["Q_Cgd"] = 1j * omega * cgd[:, None]
    admittances["Q_Gds"] = (1.0 / (1.0 / gds[:, None])).astype(complex)
    admittances["Q_gm"] = gm[:, None] * np.exp(
        -1j * omega * device.capacitances.tau)[None, :]
    td = device.td0 + device.td_slope * ids
    scalar_psds["Q_ind"] = (2.0 * BOLTZMANN * td * gds)[:, None]
    return admittances, scalar_psds, block_psds, ids


def _assert_identical(engine, x):
    admittances, scalar_psds, passive_psd, ids, bad, _ = (
        engine._candidate_values(x))
    assert not np.any(bad)
    ref_y, ref_psd, ref_blocks, ref_ids = catalogue_values(engine, x)
    assert set(admittances) == set(ref_y)
    for name, y in ref_y.items():
        np.testing.assert_array_equal(admittances[name], y, err_msg=name)
    for name, psd in ref_psd.items():
        np.testing.assert_array_equal(scalar_psds[name], psd, err_msg=name)
    _, const_psd, var_idx = engine._blk_layout[2]
    stamps = engine._block_psd(const_psd, var_idx, passive_psd, x.shape[0])
    for k, (name, _, _) in enumerate(PASSIVES):
        stack = ref_blocks[name][:, :engine._n_band]
        assert (np.ascontiguousarray(stamps[:, :, var_idx[k]]).tobytes()
                == stack.tobytes()), name
    np.testing.assert_array_equal(ids, ref_ids)


def _interleaved_median(slow, fast, inputs):
    """Median per-call time of each layer over interleaved rounds."""
    slow_t, fast_t = [], []
    for r in range(ROUNDS):
        batch = inputs[r * CALLS:(r + 1) * CALLS]
        for fn, times in ((slow, slow_t), (fast, fast_t)):
            start = time.perf_counter()
            for x in batch:
                fn(x)
            times.append((time.perf_counter() - start) / CALLS)
    return float(np.median(slow_t)), float(np.median(fast_t))


def _median_call_s(engine, n_rows, n_calls, rng):
    unit = rng.random((n_calls + 3, n_rows, len(DesignVariables.NAMES)))
    for u in unit[:3]:  # warm the per-batch-size scratch buffers
        engine.performance_batch_isolated(u)
    times = []
    for u in unit[3:]:
        start = time.perf_counter()
        engine.performance_batch_isolated(u)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_bench_engine_call(save_report, report_dir, host_context):
    engine = CompiledTemplate(AmplifierTemplate(
        reference_device().small_signal))
    rng = np.random.default_rng(20150901)
    n = len(DesignVariables.NAMES)
    for n_rows in (1, 3, 64):
        _assert_identical(engine, CompiledTemplate._to_physical(
            rng.random((n_rows, n))))

    inputs = CompiledTemplate._to_physical(
        rng.random((ROUNDS * CALLS, 1, n)))
    for x in inputs[:CALLS]:  # warm both layers
        catalogue_values(engine, x)
        engine._candidate_values(x)
    t_catalogue, t_compiled = _interleaved_median(
        lambda x: catalogue_values(engine, x), engine._candidate_values,
        inputs)
    speedup = t_catalogue / t_compiled

    t1 = _median_call_s(engine, 1, WHOLE_CALLS[1], rng)
    t64 = _median_call_s(engine, 64, WHOLE_CALLS[64], rng)
    fixed = t1 - (t64 - t1) / 63.0

    host = host_context()
    host.update({
        "call_ms_1_row": 1e3 * t1,
        "call_ms_64_rows": 1e3 * t64,
        "fixed_ms_per_call": 1e3 * fixed,
        "element_values_catalogue_us": 1e6 * t_catalogue,
        "element_values_compiled_us": 1e6 * t_compiled,
    })
    payload = {
        "n_frequencies": int(engine._f_fused.size),
        "speedup_compiled_vs_catalogue": speedup,
        "host": host,
    }
    (report_dir / "BENCH_engine_call.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    report = "\n".join([
        f"one-row element values ({engine._f_fused.size} frequencies)",
        f"catalogue models : {1e6 * t_catalogue:7.1f} us",
        f"compiled         : {1e6 * t_compiled:7.1f} us  "
        f"speedup {speedup:.2f}x",
        f"engine call      : {1e3 * t1:.3f} ms at 1 row, "
        f"{1e3 * t64:.3f} ms at 64 rows, fixed ~{1e3 * fixed:.3f} ms",
    ])
    save_report("BENCH_engine_call", report)
    print("\n" + report)

    assert speedup >= GATE_SPEEDUP, (
        f"compiled element values only {speedup:.2f}x over the catalogue "
        f"models at one row (needs >= {GATE_SPEEDUP}x)")
