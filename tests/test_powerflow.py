"""Power-flow solver, stress computation and the violation map.

The sweep solver is cross-checked against an independent Newton solve of the
full nodal mismatch equations (test-only oracle) and against nodal power
balance computed from the admittance matrix.
"""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fsolve

from conftest import build_chain_feeder
from gridcrit import powerflow
from gridcrit.adoption import Scenario
from gridcrit.feeder import fallback_partition, generate_synthetic_feeder
from gridcrit.powerflow import (
    PowerFlowConfig,
    PowerFlowResult,
    ViolationConfig,
    compute_stress,
    solve_power_flow,
    violation_map,
)


def generator_feeder(num_buses, seed, impedance):
    """A generator feeder with a third of its buses adopters and its line
    impedances scaled by ``impedance``: at x50 no power flow converges."""
    feeder = generate_synthetic_feeder(num_buses, max(1, num_buses // 3), seed=seed)
    return replace(feeder, lines=tuple(
        replace(line, resistance=impedance * line.resistance,
                reactance=impedance * line.reactance)
        for line in feeder.lines
    ))


def solve_one(feeder, bits, **kwargs):
    """``solve_power_flow`` of one scenario, given as its adopters' bits, run
    as a one-row batch: the result holds that row of every field."""
    pf = solve_power_flow(feeder, np.array([bits], dtype=np.uint8), **kwargs)
    return PowerFlowResult(*(getattr(pf, f.name)[0] for f in fields(pf)))


def admittance_matrix(feeder):
    """Bus admittance matrix in p.u. (test-only helper)."""
    n = feeder.num_buses
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    z_base = feeder.base_voltage**2 / feeder.base_power
    y = np.zeros((n, n), dtype=complex)
    for ln in feeder.lines:
        a, b = pos[ln.from_bus], pos[ln.to_bus]
        admittance = 1.0 / ((ln.resistance + 1j * ln.reactance) / z_base)
        y[a, a] += admittance
        y[b, b] += admittance
        y[a, b] -= admittance
        y[b, a] -= admittance
    return y, pos


def specified_injections(feeder, bits, pv_derate=1.0):
    """Net complex power injection per bus in p.u. (generation positive) when
    the adopters' bits are ``bits``."""
    s_base_kw = feeder.base_power * 1000.0
    inj = np.zeros(feeder.num_buses, dtype=complex)
    adopters = {a: j for j, a in enumerate(feeder.adopters)}
    for i, b in enumerate(feeder.buses):
        pv = b.pv_capacity * pv_derate * bits[adopters[b.id]] if b.id in adopters else 0.0
        inj[i] = (pv - b.load_p - 1j * b.load_q) / s_base_kw
    return inj


def newton_oracle_voltages(feeder, bits, pv_derate=1.0):
    """Solve the full nodal mismatch equations independently of the sweep."""
    y, pos = admittance_matrix(feeder)
    n = feeder.num_buses
    slack = pos[feeder.slack_bus]
    others = [i for i in range(n) if i != slack]
    inj = specified_injections(feeder, bits, pv_derate)

    def mismatch(z):
        v = np.ones(n, dtype=complex)
        v[others] = z[: len(others)] + 1j * z[len(others):]
        s_calc = v * np.conj(y @ v)
        res = s_calc[others] - inj[others]
        return np.concatenate([res.real, res.imag])

    z0 = np.concatenate([np.ones(len(others)), np.zeros(len(others))])
    z, info, ier, _ = fsolve(mismatch, z0, full_output=True, xtol=1e-12)
    assert ier == 1, "oracle solve failed"
    v = np.ones(n, dtype=complex)
    v[others] = z[: len(others)] + 1j * z[len(others):]
    return np.abs(v)


def local_sweep_voltages(feeder, bits, tol=1e-12, max_iter=200):
    """Test-local backward/forward sweep returning complex voltages."""
    n = feeder.num_buses
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    z_base = feeder.base_voltage**2 / feeder.base_power
    adj = {i: [] for i in range(n)}
    for ln in feeder.lines:
        a, b = pos[ln.from_bus], pos[ln.to_bus]
        z = (ln.resistance + 1j * ln.reactance) / z_base
        adj[a].append((b, z))
        adj[b].append((a, z))
    order, parent, zline = [pos[feeder.slack_bus]], {pos[feeder.slack_bus]: -1}, {}
    k = 0
    while k < len(order):
        u = order[k]
        k += 1
        for v, z in adj[u]:
            if v not in parent:
                parent[v] = u
                zline[v] = z
                order.append(v)
    s_load = -specified_injections(feeder, bits)  # consumption positive
    volts = np.ones(n, dtype=complex)
    for _ in range(max_iter):
        current = np.conj(s_load / volts)
        for u in reversed(order):
            if parent[u] >= 0:
                current[parent[u]] += current[u]
        new = volts.copy()
        new[order[0]] = 1.0
        for u in order[1:]:
            new[u] = new[parent[u]] - zline[u] * current[u]
        if np.max(np.abs(new - volts)) < tol:
            return new
        volts = new
    return volts


def numpy_scalar_sweep(feeder, bits, tol=1e-8, max_iter=50, pv_derate=1.0):
    """The sweep as first written, on numpy complex scalars (test-only
    reference), of the scenario whose adopters' bits are ``bits``.

    ``solve_power_flow`` must reproduce it bit for bit: voltages, flows,
    ``converged`` and ``iterations``.
    """
    n = feeder.num_buses
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    adj = {i: [] for i in range(n)}
    for li, ln in enumerate(feeder.lines):
        a, b = pos[ln.from_bus], pos[ln.to_bus]
        adj[a].append((b, li))
        adj[b].append((a, li))
    parent = np.full(n, -1, dtype=int)
    parent_line = np.full(n, -1, dtype=int)
    order = [pos[feeder.slack_bus]]
    seen = {pos[feeder.slack_bus]}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v, li in adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                parent_line[v] = li
                order.append(v)
    z_base = feeder.base_voltage**2 / feeder.base_power
    z = np.zeros(n, dtype=complex)
    for v in range(n):
        if parent_line[v] >= 0:
            ln = feeder.lines[parent_line[v]]
            z[v] = (ln.resistance + 1j * ln.reactance) / z_base

    s_base_kw = feeder.base_power * 1000.0
    p = np.array([b.load_p for b in feeder.buses]) / s_base_kw
    q = np.array([b.load_q for b in feeder.buses]) / s_base_kw
    pv = np.array([b.pv_capacity for b in feeder.buses]) / s_base_kw
    x = np.zeros(n)
    x[[pos[a] for a in feeder.adopters]] = bits
    s_load = (p - x * pv * pv_derate) + 1j * q

    v = np.ones(n, dtype=complex)
    i_branch = np.zeros(n, dtype=complex)
    converged = False
    iterations = 0
    with np.errstate(all="ignore"):
        for iterations in range(1, max_iter + 1):
            i_branch = np.conj(s_load / v)
            for u in order[::-1]:
                if parent[u] >= 0:
                    i_branch[parent[u]] += i_branch[u]
            v_new = v.copy()
            v_new[order[0]] = 1.0 + 0.0j
            for u in order[1:]:
                v_new[u] = v_new[parent[u]] - z[u] * i_branch[u]
            delta = float(np.max(np.abs(v_new - v)))
            v = v_new
            if delta < tol:
                converged = True
                break
        flows = np.zeros(feeder.num_lines)
        for u in range(n):
            if parent_line[u] >= 0:
                flows[parent_line[u]] = abs(v[parent[u]] * np.conj(i_branch[u]))
    if not np.all(np.isfinite(np.abs(v))):
        converged = False
    return PowerFlowResult(
        voltages=np.abs(v), flows=flows, converged=converged, iterations=iterations
    )


class TestSolvePowerFlow:
    def test_no_injections_is_flat(self):
        feeder = build_chain_feeder([0.0, 0.0, 0.0], pv_kw=[0, 0, 5])
        pf = solve_one(feeder, (0,))
        assert pf.converged
        np.testing.assert_allclose(pf.voltages, 1.0, atol=1e-12)
        np.testing.assert_allclose(pf.flows, 0.0, atol=1e-12)

    def test_two_bus_closed_form(self):
        # With x=0 and purely real load P at the receiving bus, the voltage
        # solves v^2 - v + r*P = 0 (root nearer 1).
        r_pu, p_pu = 0.05, 0.4
        from gridcrit.feeder import Bus, Feeder, Line

        buses = [
            Bus(0, 0.0, 0.0, 0.95, 1.05, 1, False, 0.0),
            Bus(1, p_pu * 100.0, 0.0, 0.95, 1.05, 1, False, 0.0),
        ]
        lines = [Line(2, 0, 1, r_pu * 10.0, 0.0, 1.0)]
        feeder = Feeder(buses, lines, slack_bus=0, base_voltage=1.0,
                        base_power=0.1, num_groups=1)
        pf = solve_one(feeder, ())
        expected = (1.0 + np.sqrt(1.0 - 4.0 * r_pu * p_pu)) / 2.0
        assert pf.converged
        assert pf.voltages[1] == pytest.approx(expected, abs=1e-8)

    def test_reverse_flow_raises_end_voltage(self):
        feeder = build_chain_feeder([0.0, 2.0, 2.0], pv_kw=[0, 0, 30.0])
        off = solve_one(feeder, (0,))
        on = solve_one(feeder, (1,))
        assert on.voltages[2] > 1.0
        assert on.voltages[2] > off.voltages[2]

    def test_matches_newton_oracle_on_small_feeders(self):
        rng = np.random.default_rng(0)
        for gen_seed in range(5):
            feeder = generate_synthetic_feeder(8, 5, seed=gen_seed)
            for _ in range(4):
                bits = tuple(int(b) for b in rng.integers(0, 2, feeder.num_adopters))
                pf = solve_one(feeder, bits)
                assert pf.converged
                oracle = newton_oracle_voltages(feeder, bits)
                np.testing.assert_allclose(pf.voltages, oracle, atol=1e-6)

    def test_nodal_power_balance(self):
        # Reconstruct complex voltages with a test-local sweep, tie them to
        # the production solver's magnitudes, then verify the full nodal
        # balance S = V * conj(Y V) against the specified injections.
        rng = np.random.default_rng(1)
        for gen_seed in range(5):
            feeder = generate_synthetic_feeder(10, 6, seed=gen_seed)
            bits = tuple(int(b) for b in rng.integers(0, 2, feeder.num_adopters))
            pf = solve_one(feeder, bits, tol=1e-12, max_iter=200)
            assert pf.converged
            y, pos = admittance_matrix(feeder)
            inj = specified_injections(feeder, bits)
            slack = pos[feeder.slack_bus]
            v = local_sweep_voltages(feeder, bits)
            np.testing.assert_allclose(np.abs(v), pf.voltages, atol=1e-10)
            s_calc = v * np.conj(y @ v)
            balance = s_calc - inj
            balance[slack] = 0.0  # slack absorbs the residual by definition
            assert np.max(np.abs(balance)) < 1e-6

    def test_pv_derate_scales_injection(self):
        feeder = build_chain_feeder([0.0, 2.0, 2.0], pv_kw=[0, 0, 30.0])
        full = solve_one(feeder, (1,), pv_derate=1.0)
        half = solve_one(feeder, (1,), pv_derate=0.5)
        assert half.voltages[2] < full.voltages[2]

    @given(
        num_buses=st.integers(min_value=4, max_value=30),
        feeder_seed=st.integers(min_value=0, max_value=2**16),
        impedance=st.sampled_from([1.0, 50.0]),
        bits_seed=st.integers(min_value=0, max_value=2**16),
        pv_derate=st.floats(min_value=0.0, max_value=1.5),
        max_iter=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy_scalar_sweep(
        self, num_buses, feeder_seed, impedance, bits_seed, pv_derate, max_iter
    ):
        # Feeders with scaled-up impedances do not converge; those (and
        # max_iter cut-offs) must match the reference just as well.
        feeder = generator_feeder(num_buses, feeder_seed, impedance)
        rng = np.random.default_rng(bits_seed)
        bits = rng.integers(0, 2, feeder.num_adopters)
        with np.errstate(all="ignore"):
            got = solve_one(feeder, bits, max_iter=max_iter, pv_derate=pv_derate)
        ref = numpy_scalar_sweep(feeder, bits, max_iter=max_iter, pv_derate=pv_derate)
        assert got.converged == ref.converged
        assert got.iterations == ref.iterations
        assert np.array_equal(got.voltages, ref.voltages, equal_nan=True)
        assert np.array_equal(got.flows, ref.flows, equal_nan=True)

    @given(
        num_buses=st.integers(min_value=4, max_value=40),
        feeder_seed=st.integers(min_value=0, max_value=2**16),
        impedance=st.sampled_from([1.0, 50.0]),
        bits_seed=st.integers(min_value=0, max_value=2**16),
        distinct=st.integers(min_value=1, max_value=6),
        rows=st.integers(min_value=1, max_value=12),
        pv_derate=st.floats(min_value=0.0, max_value=1.5),
        max_iter=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_rows_bit_identical_to_numpy_scalar_sweep(
        self, num_buses, feeder_seed, impedance, bits_seed, distinct, rows, pv_derate, max_iter
    ):
        # Duplicate rows, rows that converge at different sweeps, rows that
        # diverge and max_iter cut-offs, all in one batch.
        feeder = generator_feeder(num_buses, feeder_seed, impedance)
        rng = np.random.default_rng(bits_seed)
        pool = rng.integers(0, 2, (distinct, feeder.num_adopters))
        bits = pool[rng.integers(0, distinct, rows)].astype(np.uint8)
        got = solve_power_flow(feeder, bits, max_iter=max_iter, pv_derate=pv_derate)
        assert got.voltages.shape == (rows, feeder.num_buses)
        assert got.flows.shape == (rows, feeder.num_lines)
        for r, row in enumerate(bits):
            ref = numpy_scalar_sweep(feeder, row, max_iter=max_iter, pv_derate=pv_derate)
            assert got.converged[r] == ref.converged
            assert got.iterations[r] == ref.iterations
            assert np.array_equal(got.voltages[r], ref.voltages, equal_nan=True)
            assert np.array_equal(got.flows[r], ref.flows, equal_nan=True)

    def test_x50_generator_feeders_diverge(self):
        # The two property tests above rely on their x50 feeders to cover rows
        # that never converge.
        for num_buses in range(4, 41):
            for feeder_seed in range(5):
                feeder = generator_feeder(num_buses, feeder_seed, 50.0)
                a = feeder.num_adopters
                rng = np.random.default_rng(feeder_seed)
                bits = np.vstack([np.zeros((1, a)), np.ones((1, a)),
                                  rng.integers(0, 2, (16, a))]).astype(np.uint8)
                with np.errstate(all="ignore"):
                    pf = solve_power_flow(feeder, bits)
                assert not pf.converged.any(), (num_buses, feeder_seed)

    @pytest.mark.parametrize("impedance", [1.0, 50.0])
    @pytest.mark.parametrize("num_buses", [200, 400])
    def test_paper_scale_rows_bit_identical_to_numpy_scalar_sweep(self, num_buses, impedance):
        # The property tests above stop at 40 buses; the paper's feeders have
        # hundreds. At x1 every row converges, at x50 none does.
        feeder = generator_feeder(num_buses, 0, impedance)
        rng = np.random.default_rng(num_buses)
        bits = rng.integers(0, 2, (3, feeder.num_adopters)).astype(np.uint8)
        got = solve_power_flow(feeder, bits)
        assert (got.converged == (impedance == 1.0)).all()
        for r, row in enumerate(bits):
            ref = numpy_scalar_sweep(feeder, row)
            assert got.converged[r] == ref.converged
            assert got.iterations[r] == ref.iterations
            assert np.array_equal(got.voltages[r], ref.voltages, equal_nan=True)
            assert np.array_equal(got.flows[r], ref.flows, equal_nan=True)

    def test_block_boundaries_do_not_change_rows(self, standard_feeder, monkeypatch):
        # On the standard feeder rows converge at sweeps 8 and 9 and the rest
        # are cut off at 9. On the 200-bus feeder, where the default cap gives
        # 327-row blocks, rows converge at sweep 7 and the rest are cut off at 7.
        paper_scale = fallback_partition(generate_synthetic_feeder(200, 40, seed=0), 4)
        for feeder, max_iter in ((standard_feeder, 9), (paper_scale, 7)):
            rng = np.random.default_rng(3)
            bits = rng.integers(0, 2, (7, feeder.num_adopters)).astype(np.uint8)
            bits[4] = bits[1]
            whole = solve_power_flow(feeder, bits, max_iter=max_iter)
            assert not whole.converged.all() and whole.converged.any()
            n, s = feeder.num_buses, len(bits)
            for rows_per_block in (1, s - 1, s, s + 1):
                monkeypatch.setattr(powerflow, "_PF_BLOCK_ELEMENTS", rows_per_block * n)
                got = solve_power_flow(feeder, bits, max_iter=max_iter)
                for field in ("voltages", "flows", "converged", "iterations"):
                    assert np.array_equal(getattr(got, field), getattr(whole, field)), field
            monkeypatch.undo()  # the next feeder's whole batch runs at the default cap
            for r, row in enumerate(bits):
                one = solve_power_flow(feeder, Scenario(bits=tuple(int(b) for b in row)),
                                       max_iter=max_iter)
                assert type(one.converged) is bool and type(one.iterations) is int
                assert (one.converged, one.iterations) == (whole.converged[r], whole.iterations[r])
                assert np.array_equal(one.voltages, whole.voltages[r])
                assert np.array_equal(one.flows, whole.flows[r])

    def test_empty_batch(self, standard_feeder):
        pf = solve_power_flow(standard_feeder, np.zeros((0, standard_feeder.num_adopters)))
        assert pf.voltages.shape == (0, standard_feeder.num_buses)
        assert pf.flows.shape == (0, standard_feeder.num_lines)
        assert pf.converged.shape == pf.iterations.shape == (0,)
        stress = compute_stress(standard_feeder, standard_feeder.partition(), pf)
        assert stress.shape == (0, standard_feeder.num_groups + standard_feeder.num_lines)

    def test_flow_beyond_the_float_range_reads_inf(self):
        # One sweep leaves a current whose finite parts have a magnitude
        # above the largest float: the flow is inf, as in the reference.
        from gridcrit.feeder import Bus, Feeder, Line

        buses = [
            Bus(0, 0.0, 0.0, 0.95, 1.05, 1, False, 0.0),
            Bus(1, 1.5e308, 1.5e308, 0.95, 1.05, 1, False, 0.0),
        ]
        lines = [Line(2, 0, 1, 1.0, 1.0, 1.0)]
        feeder = Feeder(buses, lines, slack_bus=0, base_voltage=1.0,
                        base_power=0.001, num_groups=1)
        with np.errstate(all="ignore"):
            pf = solve_one(feeder, (), max_iter=1)
            ref = numpy_scalar_sweep(feeder, (), max_iter=1)
        assert not pf.converged
        assert pf.flows[0] == ref.flows[0] == np.inf

    def test_scenario_length_mismatch(self, standard_feeder):
        with pytest.raises(ValueError, match="length"):
            solve_one(standard_feeder, (1, 0))
        with pytest.raises(ValueError, match="length"):
            solve_power_flow(standard_feeder, np.zeros((3, 2)))


class TestComputeStress:
    def test_overvoltage_stress(self):
        feeder = build_chain_feeder([0.0, 1.0], pv_kw=[0, 5])
        pf = PowerFlowResult(
            voltages=np.array([1.0, 1.07]), flows=np.array([0.1]),
            converged=True, iterations=1,
        )
        stress = compute_stress(feeder, feeder.partition(), pf)
        assert stress[0] == pytest.approx(0.02)

    def test_within_bounds_is_negative(self):
        feeder = build_chain_feeder([0.0, 1.0], pv_kw=[0, 5])
        pf = PowerFlowResult(
            voltages=np.array([1.0, 1.0]), flows=np.array([0.8]),
            converged=True, iterations=1,
        )
        stress = compute_stress(feeder, feeder.partition(), pf)
        assert stress[0] == pytest.approx(-0.05)
        assert stress[1] == pytest.approx(-0.2)

    def test_group_takes_worst_bus(self):
        feeder = build_chain_feeder([0.0, 1.0, 1.0], pv_kw=[0, 0, 5])
        pf = PowerFlowResult(
            voltages=np.array([1.0, 0.93, 1.02]), flows=np.array([0.1, 0.1]),
            converged=True, iterations=1,
        )
        stress = compute_stress(feeder, feeder.partition(), pf)
        assert stress[0] == pytest.approx(0.02)  # 0.95 - 0.93

    def test_batch_rows_match_single_scenarios(self, standard_feeder):
        part = standard_feeder.partition()
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, (6, standard_feeder.num_adopters)).astype(np.uint8)
        batch = compute_stress(standard_feeder, part, solve_power_flow(standard_feeder, bits))
        for row, got in zip(bits, batch):
            pf = solve_one(standard_feeder, row)
            assert np.array_equal(got, compute_stress(standard_feeder, part, pf))

    def test_unconverged_rows_leave_the_others_alone(self):
        # Diverged rows' NaN and inf give meaningless stress rows, without a
        # warning; callers mask them by ``converged``.
        feeder = build_chain_feeder([0.0, 1.0], pv_kw=[0, 5])
        part = feeder.partition()
        mixed = PowerFlowResult(
            voltages=np.array([[1.0, np.nan], [1.0, 1.07], [1.0, np.inf]]),
            flows=np.array([[np.nan], [0.1], [np.inf]]),
            converged=np.array([False, True, False]), iterations=np.array([50, 3, 50]),
        )
        one = PowerFlowResult(
            voltages=np.array([1.0, 1.07]), flows=np.array([0.1]),
            converged=True, iterations=3,
        )
        stress = compute_stress(feeder, part, mixed)
        assert stress.shape == (3, 2)
        assert np.array_equal(stress[1], compute_stress(feeder, part, one))


class TestViolationMap:
    def test_negative_bus_stress_rectified(self):
        out = violation_map(np.array([-0.03, 0.2]), 1, ViolationConfig())
        assert out[0] == 0.0

    def test_line_binning(self):
        cfg = ViolationConfig(line_bins=(0.0, 0.1, 0.3))
        out = violation_map(np.array([0.0, 0.15]), 1, cfg)
        assert out[1] == 1.0

    def test_zero_line_stress_in_first_bin(self):
        out = violation_map(np.array([0.0, 0.0]), 1, ViolationConfig())
        assert out[1] == 0.0

    def test_above_last_edge_maps_to_top_bin(self):
        cfg = ViolationConfig(line_bins=(0.0, 0.1, 0.3))
        out = violation_map(np.array([0.0, 9.9]), 1, cfg)
        assert out[1] == 2.0

    def test_bus_entries_stay_continuous(self):
        out = violation_map(np.array([0.123, 0.0]), 1, ViolationConfig())
        assert out[0] == pytest.approx(0.123)

    @given(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, base, bump):
        cfg = ViolationConfig()
        lo = np.array(base)
        hi = lo + np.array(bump)
        v_lo = violation_map(lo, 2, cfg)
        v_hi = violation_map(hi, 2, cfg)
        assert np.all(v_hi >= v_lo)

    @given(data=st.data(), num_bus=st.integers(0, 3), rows=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_severity_is_the_binary_search_bin(self, data, num_bus, rows):
        # Edges above 0 are drawn increasing; values hit each edge exactly,
        # the float just below it, signed zeros, negatives and +inf.
        edges = sorted(data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e3, exclude_min=True), max_size=5, unique=True)))
        cfg = ViolationConfig(line_bins=(0.0, *edges))
        special = [0.0, -0.0, -1.0, -np.inf, np.inf, 5e-324,
                   *edges, *np.nextafter(edges, 0.0).tolist()]
        value = st.one_of(st.sampled_from(special), st.floats(allow_nan=False))
        cols = num_bus + data.draw(st.integers(0, 4))
        stress = np.array(data.draw(st.lists(value, min_size=rows * cols,
                                             max_size=rows * cols))).reshape(rows, cols)
        out = violation_map(stress, num_bus, cfg)
        pos = np.maximum(stress, 0.0)
        bins = np.asarray(cfg.line_bins)
        reference = np.minimum(np.searchsorted(bins, pos[:, num_bus:], side="right") - 1,
                               len(bins) - 1)
        assert np.array_equal(out[:, num_bus:], reference)
        assert np.array_equal(out[:, :num_bus], pos[:, :num_bus])
        assert (out[:, :num_bus] >= 0).all()

    def test_bad_bins(self):
        with pytest.raises(ValueError):
            ViolationConfig(line_bins=(0.1, 0.2))
        with pytest.raises(ValueError):
            ViolationConfig(line_bins=(0.0, 0.2, 0.2))

    def test_bins_stored_as_tuple(self):
        cfg = ViolationConfig(line_bins=[0.0, 0.1])
        assert cfg == ViolationConfig(line_bins=(0.0, 0.1))
        assert cfg.line_bins == (0.0, 0.1)
        assert hash(cfg) == hash(ViolationConfig(line_bins=(0.0, 0.1)))


class TestPowerFlowConfig:
    def test_defaults_are_the_solver_defaults(self):
        # solve_power_flow keeps its keywords; their defaults are read off the class.
        cfg = PowerFlowConfig()
        assert (cfg.tol, cfg.max_iter, cfg.pv_derate) == (1e-8, 50, 1.0)
        defaults = inspect.signature(solve_power_flow).parameters
        for name in ("tol", "max_iter", "pv_derate"):
            assert defaults[name].default == getattr(cfg, name)

    @pytest.mark.parametrize("kwargs,message", [
        ({"tol": "x"}, "powerflow tol"),
        ({"tol": float("nan")}, "powerflow tol"),
        ({"tol": 0.0}, "powerflow tol must be > 0"),
        ({"max_iter": 0}, "powerflow max_iter"),
        ({"max_iter": True}, "powerflow max_iter"),
        ({"max_iter": 2.5}, "powerflow max_iter"),
        ({"max_iter": powerflow.MAX_SWEEPS + 1}, "powerflow max_iter must be <= 1000"),
        ({"max_iter": 10**30}, "powerflow max_iter must be <= 1000"),
        ({"pv_derate": -1.0}, "powerflow pv_derate must be >= 0"),
        ({"pv_derate": float("inf")}, "powerflow pv_derate"),
    ], ids=["tol-text", "tol-nan", "tol-zero", "max-iter-zero", "max-iter-bool",
            "max-iter-float", "max-iter-above-ceiling", "max-iter-huge", "derate-negative",
            "derate-inf"])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PowerFlowConfig(**kwargs)

    def test_sweep_ceiling_accepted(self):
        assert PowerFlowConfig(max_iter=powerflow.MAX_SWEEPS).max_iter == 1000
