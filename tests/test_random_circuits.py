"""Property-based tests on randomly generated passive circuits.

A random R/L/C mesh, whatever its topology, must come out of the MNA
solver reciprocal and passive, with a Hermitian positive-semidefinite
noise correlation; and when every resistor sits at T0 and the network
is matched-ish, the noise figure must never fall below 0 dB.  These
invariants catch sign errors in stamps and correlation assembly that
no hand-written example would.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.acsolver import assemble_tensor, solve_ac
from repro.analysis.netlist import Circuit, Resistor
from repro.analysis.sparsemna import MutableGroup, build_plan
from repro.rf.frequency import FrequencyGrid
from repro.util.constants import BOLTZMANN, T0_KELVIN


def _random_passive_circuit(seed: int, value_rng=None) -> Circuit:
    """A random connected R/L/C network between two ports and ground.

    *seed* fixes the topology **and** the nominal element values; a
    *value_rng*, when given, rescales every value without touching the
    topology draw — circuits sharing a seed then form a same-topology
    batch with different element values.
    """
    rng = np.random.default_rng(seed)
    n_internal = int(rng.integers(1, 4))
    nodes = ["in", "out"] + [f"n{k}" for k in range(n_internal)] + ["gnd"]
    circuit = Circuit(f"random{seed}")
    circuit.port("p1", "in")
    circuit.port("p2", "out")

    # Spanning chain guarantees connectivity of every node to a port.
    chain = ["in"] + [f"n{k}" for k in range(n_internal)] + ["out"]
    element_id = 0

    def scale() -> float:
        if value_rng is None:
            return 1.0
        return float(value_rng.uniform(0.5, 2.0))

    def add_random_element(node_a, node_b):
        nonlocal element_id
        kind = rng.integers(3)
        name = f"E{element_id}"
        element_id += 1
        if kind == 0:
            circuit.resistor(name, node_a, node_b,
                             float(10 ** rng.uniform(0.5, 3.0)) * scale(),
                             temperature=T0_KELVIN)
        elif kind == 1:
            circuit.capacitor(name, node_a, node_b,
                              float(10 ** rng.uniform(-13, -10.5)) * scale())
        else:
            circuit.inductor(name, node_a, node_b,
                             float(10 ** rng.uniform(-9.5, -7.5)) * scale())

    for a, b in zip(chain[:-1], chain[1:]):
        add_random_element(a, b)
    # A few extra random edges, including to ground.
    n_extra = int(rng.integers(1, 5))
    for __ in range(n_extra):
        a, b = rng.choice(nodes, size=2, replace=False)
        add_random_element(a, b)
    # Ensure a resistive path to ground exists so the matrix is robust.
    circuit.resistor("Rgnd", str(rng.choice(chain)), "gnd", 500.0,
                     temperature=T0_KELVIN)
    return circuit


GRID = FrequencyGrid.logarithmic(0.2e9, 5e9, 6)


def _element_groups(nominal: Circuit, candidates):
    """One :class:`MutableGroup` per element of *nominal*, and each
    group's ``(B, F)`` admittance delta of every same-topology candidate
    over the nominal element."""
    n_nodes = len(nominal.node_names)
    groups, coeffs = [], {}
    for k, element in enumerate(nominal.elements):
        a = nominal.node_index(element.node_a)
        b = nominal.node_index(element.node_b)
        if a >= 0 and b >= 0:
            rows, cols, signs = [a, b, a, b], [a, b, b, a], [1, 1, -1, -1]
        else:
            rows = cols = [max(a, b)]
            signs = [1]
        groups.append(MutableGroup(element.name, np.array(rows),
                                   np.array(cols), np.array(signs, float)))

        def value(circuit):
            y = assemble_tensor(circuit, GRID.f_hz, n_nodes,
                                elements=[circuit.elements[k]])
            return y[:, rows[0], cols[0]]

        coeffs[element.name] = (np.stack([value(c) for c in candidates])
                                - value(nominal))
    return groups, coeffs


class TestRandomPassiveCircuits:
    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_reciprocal_and_passive(self, seed):
        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        network = result.as_twoport()
        assert network.is_reciprocal(tol=1e-8)
        assert network.is_passive(tol=1e-8)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_noise_correlation_hermitian_psd(self, seed):
        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        cy = result.cy
        np.testing.assert_allclose(
            cy, np.conjugate(np.swapaxes(cy, 1, 2)), atol=1e-30
        )
        eigenvalues = np.linalg.eigvalsh(cy)
        assert np.all(eigenvalues >= -1e-28)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_noise_figure_at_least_zero_db(self, seed):
        circuit = _random_passive_circuit(seed)
        noisy = solve_ac(circuit, GRID).as_noisy_twoport()
        # Any passive network at T0 has F >= 1 for any positive-real
        # source admittance.
        for ys in (1 / 50.0, 1 / 50.0 + 0.01j, 1 / 200.0 - 0.005j):
            assert np.all(noisy.noise_factor(ys) >= 1.0 - 1e-9)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_mna_noise_consistent_with_bosma(self, seed):
        # Independent check: CY of the whole passive network must equal
        # 2kT Re(Y_network) (Bosma's theorem) since everything sits at T0.
        from repro.util.constants import BOLTZMANN

        circuit = _random_passive_circuit(seed)
        result = solve_ac(circuit, GRID)
        expected = 2.0 * BOLTZMANN * T0_KELVIN * result.y.real
        np.testing.assert_allclose(result.cy.real, expected, rtol=1e-6,
                                    atol=1e-32)
        np.testing.assert_allclose(result.cy.imag, 0.0, atol=1e-26)


class TestBatchedSolverEquivalence:
    """The condensed plan, batched over same-topology candidates with
    every element varying, must reproduce solve_ac candidate by
    candidate."""

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_s_cy_and_transfers_match_scalar(self, seed):
        nominal = _random_passive_circuit(seed)
        candidates = [
            _random_passive_circuit(seed,
                                    value_rng=np.random.default_rng(7000 + k))
            for k in range(4)
        ]
        n_nodes = len(nominal.node_names)
        ports = np.array([nominal.node_index("in"),
                          nominal.node_index("out")])
        probes = ("out", "in", "n0")
        resistors = [k for k, element in enumerate(nominal.elements)
                     if isinstance(element, Resistor)]
        # Port columns, then one thermal-noise injection column per
        # resistor.
        rhs = np.zeros((n_nodes, 2 + len(resistors)), dtype=complex)
        rhs[ports, [0, 1]] = 1.0
        for j, k in enumerate(resistors):
            element = nominal.elements[k]
            for node, sign in ((element.node_a, 1.0),
                               (element.node_b, -1.0)):
                row = nominal.node_index(node)
                if row >= 0:
                    rhs[row, 2 + j] = sign
        out_rows = ([int(p) for p in ports]
                    + [nominal.node_index(node) for node in probes])
        groups, coeffs = _element_groups(nominal, candidates)
        plan = build_plan(assemble_tensor(nominal, GRID.f_hz, n_nodes),
                          groups, ports, 50.0, rhs, out_rows=out_rows)
        full = plan.solve_rows(coeffs, len(candidates))

        # S from the loaded port impedances; port-referred noise
        # currents i_n = -(Y_net + G0) v_loaded, weighted by each
        # candidate's own 2kT/R.
        z_loaded = full[:, :, :2, :2]
        s = (2.0 / 50.0) * z_loaded - np.eye(2)
        i_n = -(np.linalg.inv(z_loaded) @ full[:, :, :2, 2:])
        psd = np.array([[2.0 * BOLTZMANN * c.elements[k].temperature
                         / c.elements[k].resistance for k in resistors]
                        for c in candidates])
        cy = (i_n * psd[:, None, None, :]) @ np.conjugate(
            np.swapaxes(i_n, -1, -2))
        for i, candidate in enumerate(candidates):
            scalar = solve_ac(candidate, GRID, probe_nodes=probes)
            np.testing.assert_allclose(s[i], scalar.s,
                                       rtol=1e-9, atol=1e-12)
            # Cy is O(2kT/R) ~ 1e-23, so the absolute floor is the one
            # the O(1) S check uses, scaled by Cy's largest entry.
            np.testing.assert_allclose(
                cy[i], scalar.cy, rtol=1e-9,
                atol=1e-12 * np.abs(scalar.cy).max())
            np.testing.assert_allclose(full[i, :, 2:, :2],
                                       scalar.node_transfers,
                                       rtol=1e-9, atol=1e-12)


class TestSparseSolverEquivalence:
    """The condensed (sparse) plan must agree with the scalar and dense
    references to <= 1e-9."""

    def test_sparse_matches_dense_on_lna_template(self):
        # The compiled engine's condensed solve against the scalar
        # per-candidate circuit build it replaces.
        from repro.core.amplifier import AmplifierTemplate, DesignVariables
        from repro.core.engine import CompiledTemplate
        from repro.experiments.common import reference_device

        template = AmplifierTemplate(reference_device().small_signal)
        engine = CompiledTemplate(template, verify=False)
        pop = np.random.default_rng(7).random((16, len(DesignVariables.NAMES)))
        batch = engine.performance_batch(pop)
        for k, unit_x in enumerate(pop):
            scalar = template.evaluate(DesignVariables.from_unit(unit_x),
                                       engine.band_grid, engine.guard_grid)
            for name in ("nf_db", "gt_db", "s11_db", "s22_db", "mu_min"):
                np.testing.assert_allclose(
                    getattr(batch, name)[k], getattr(scalar, name),
                    rtol=1e-9, atol=1e-9, err_msg=f"{name} row {k}",
                )

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_condensed_plan_matches_dense_reference(self, seed):
        # Two plans over one random mesh's nominal tensor.  Beyond the
        # port columns, each carries a noise column injecting at an
        # internal node and that node as a probe row.  The shunt plan
        # has one rank-1 group touching port 0 only, so port 1 and the
        # probe are condensed out and recovered through the plan's
        # constant offsets.  The element plan has one group per element
        # carrying each candidate's admittance delta, so every element
        # varies per candidate.
        circuit = _random_passive_circuit(seed)
        candidates = [
            _random_passive_circuit(seed,
                                    value_rng=np.random.default_rng(7000 + k))
            for k in range(4)
        ]
        n_nodes = len(circuit.node_names)
        base = assemble_tensor(circuit, GRID.f_hz, n_nodes)
        ports = np.array([circuit.node_index("in"),
                          circuit.node_index("out")])
        probe = circuit.node_index("n0")
        rhs = np.zeros((n_nodes, 3), dtype=complex)
        rhs[ports[0], 0] = 1.0
        rhs[ports[1], 1] = 1.0
        rhs[probe, 2] = 1.0
        out_rows = [int(p) for p in ports] + [probe]

        rng = np.random.default_rng(seed)
        shunt = rng.uniform(1e-3, 2e-2, size=(6, 1)) * np.ones(
            (1, GRID.f_hz.size))
        y_shunt = np.broadcast_to(base, (6,) + base.shape).copy()
        y_shunt[:, :, ports[0], ports[0]] += shunt
        groups, coeffs = _element_groups(circuit, candidates)
        cases = [
            ([MutableGroup("gshunt", np.array([ports[0]]),
                           np.array([ports[0]]), np.array([1.0]))],
             {"gshunt": shunt}, y_shunt),
            (groups, coeffs,
             np.stack([assemble_tensor(c, GRID.f_hz, n_nodes)
                       for c in candidates])),
        ]
        for case_groups, case_coeffs, y in cases:
            plan = build_plan(base, case_groups, ports, 50.0, rhs,
                              out_rows=out_rows)
            full = plan.solve_rows(case_coeffs, y.shape[0])
            # Independent dense reference for the same perturbed batch.
            y[:, :, ports[0], ports[0]] += 1.0 / 50.0
            y[:, :, ports[1], ports[1]] += 1.0 / 50.0
            x = np.linalg.solve(y, rhs)
            np.testing.assert_allclose(full, x[:, :, out_rows, :],
                                       rtol=1e-9, atol=1e-12)
