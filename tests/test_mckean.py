import hashlib

import numpy as np
import pytest

from kinsde.core import DiracInit, EmpiricalLaw, HistogramSpec, PhaseState, SimConfig
from kinsde.ergodicity import empirical_var_distance, histogram_law
from kinsde.fields import (
    ConfiningDrift,
    MeanFieldKernel,
    build_coefficients,
    confining_coefficients,
    zero_coefficients,
)
from kinsde.integrators import simulate_ensemble
from kinsde.mckean import (
    MeasureFlow,
    constant_flow,
    frozen,
    girsanov_flow_bound,
    particle_system_run,
    picard_fixed_point,
    picard_iterate,
    picard_start,
    rho_lambda,
    uniform_ergodicity_sweep,
)

HIST = HistogramSpec(-6.0, 6.0, 10, dim=2)
DRIFT = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
TANH_Y = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
INIT = DiracInit(PhaseState([1.0], [1.0]))


def coeffs_with(kappa, kernel=TANH_Y):
    return confining_coefficients(DRIFT, d=1, kernel=kernel, kappa=kappa)


def atom_flow(x, y, times):
    return constant_flow(EmpiricalLaw(np.full((1, 1), x), np.full((1, 1), y)), times)


class TestMeasureFlowAndRho:
    def _flow_pair(self, change_at=None):
        times = np.array([0.0, 1.0, 2.0])
        base = EmpiricalLaw(np.full((1, 1), -2.0), np.zeros((1, 1)))
        other = EmpiricalLaw(np.full((1, 1), 2.0), np.zeros((1, 1)))
        a = MeasureFlow(times, [base, base, base])
        clouds = [base, base, base]
        if change_at is not None:
            clouds[change_at] = other
        return a, MeasureFlow(times, clouds)

    def test_identical_flows(self):
        a, b = self._flow_pair(None)
        assert rho_lambda(a, b, 1.0, HIST) == 0.0

    def test_difference_at_time_zero(self):
        a, b = self._flow_pair(0)
        assert rho_lambda(a, b, 1.0, HIST) == pytest.approx(2.0)

    def test_difference_at_time_one(self):
        a, b = self._flow_pair(1)
        assert rho_lambda(a, b, 1.0, HIST) == pytest.approx(2.0 * np.exp(-1.0))

    def test_lambda_zero_is_sup_tv(self):
        a, b = self._flow_pair(2)
        assert rho_lambda(a, b, 0.0, HIST) == pytest.approx(2.0)

    def test_nonincreasing_in_lambda(self):
        a, b = self._flow_pair(2)
        vals = [rho_lambda(a, b, lam, HIST) for lam in (0.0, 0.5, 1.0, 2.0)]
        assert np.all(np.diff(vals) <= 0)

    def test_metric_properties(self):
        times = np.array([0.0, 1.0])
        rng = np.random.default_rng(0)
        flows = [
            MeasureFlow(times, [EmpiricalLaw(rng.normal(size=(50, 1)), rng.normal(size=(50, 1)))
                                for _ in times])
            for _ in range(3)
        ]
        a, b, c = flows
        assert rho_lambda(a, b, 1.0, HIST) == rho_lambda(b, a, 1.0, HIST)
        assert rho_lambda(a, c, 1.0, HIST) <= (
            rho_lambda(a, b, 1.0, HIST) + rho_lambda(b, c, 1.0, HIST) + 1e-15
        )

    def test_v_weighted_variant_dominates(self):
        from kinsde.fields import LyapunovV

        a, b = self._flow_pair(1)
        V = LyapunovV(1.0, 1, 1)
        assert rho_lambda(a, b, 0.5, HIST, V=V) >= rho_lambda(a, b, 0.5, HIST)

    def test_grid_mismatch_rejected(self):
        base = EmpiricalLaw(np.zeros((1, 1)), np.zeros((1, 1)))
        a = MeasureFlow(np.array([0.0, 1.0]), [base, base])
        b = MeasureFlow(np.array([0.0, 2.0]), [base, base])
        with pytest.raises(ValueError, match="grids"):
            rho_lambda(a, b, 1.0, HIST)


class TestFrozenFlow:
    def test_flow_missing_a_step_time_raises(self):
        # a flow recorded only at t = 1.0 cannot stand in for the law at t = 0
        cfg = SimConfig(T=1.0, h=0.1, N=8, seed=5, hist=HIST)
        flow = atom_flow(1.0, 1.0, [1.0])
        with pytest.raises(ValueError, match="no law at t = 0.0"):
            simulate_ensemble(cfg, coeffs_with(0.2), INIT, law=frozen(flow))

    @pytest.mark.parametrize("n", [3, 7, 10, 20, 30, 50, 100, 128, 300, 1000])
    def test_step_times_are_the_recorded_times_bit_for_bit(self, n):
        # every t = k h the loop passes is found in a flow recorded at cfg.times()
        cfg = SimConfig(T=1.0, h=1.0 / n, N=1, seed=5, hist=HIST)
        seen = []
        ens = simulate_ensemble(cfg, zero_coefficients(), INIT, record_times=cfg.times(),
                                law=frozen(atom_flow(0.0, 0.0, cfg.times())),
                                observe=lambda k, t, *_: seen.append(t))
        assert ens.flow.times.tobytes() == cfg.times().tobytes()
        assert seen == ens.flow.times.tolist()


class TestParticleSystem:
    def test_zero_coupling_matches_decoupled_bit_exactly(self):
        cfg = SimConfig(T=0.5, h=0.01, N=512, seed=5, hist=HIST)
        co = coeffs_with(0.0)
        flow, ens = particle_system_run(cfg, co, INIT, record_times=[0.5], stream=2)
        plain = simulate_ensemble(cfg, co, INIT, stream=2)
        assert np.array_equal(ens.x, plain.x) and np.array_equal(ens.y, plain.y)

    def test_constant_kernel_equals_shifted_drift_bit_exactly(self):
        kappa, w = 0.3, 0.8
        cfg = SimConfig(T=0.5, h=0.01, N=256, seed=5, hist=HIST)
        co = coeffs_with(kappa, MeanFieldKernel.constant([w]))
        _, ens = particle_system_run(cfg, co, INIT, record_times=[0.5], stream=2)
        shifted = build_coefficients(
            z1=lambda t, x, y: DRIFT.z1(x, y),
            z2=lambda t, x, y, law: DRIFT.z2(x, y) + kappa * w,
            b=None, sigma=1.0, d1=1, d2=1,
        )
        plain = simulate_ensemble(cfg, shifted, INIT, stream=2)
        assert np.array_equal(ens.x, plain.x) and np.array_equal(ens.y, plain.y)

    def test_propagation_of_chaos_n_doubling(self):
        co = coeffs_with(0.2)
        fa, _ = particle_system_run(
            SimConfig(T=1.0, h=0.01, N=3000, seed=5, hist=HIST), co, INIT,
            record_times=[1.0], stream=1)
        fb, _ = particle_system_run(
            SimConfig(T=1.0, h=0.01, N=6000, seed=6, hist=HIST), co, INIT,
            record_times=[1.0], stream=2)
        from kinsde.ergodicity import bootstrap_noise_floor

        tv = empirical_var_distance(histogram_law(fa.clouds[-1], HIST),
                                    histogram_law(fb.clouds[-1], HIST))
        floor = bootstrap_noise_floor(fa.clouds[-1], HIST, seed=5)
        assert tv < 3.0 * floor


class TestPicard:
    def test_zero_coupling_stationary_after_one_iteration(self):
        cfg = SimConfig(T=1.0, h=0.02, N=1000, seed=5, hist=HIST)
        co = coeffs_with(0.0)
        st = picard_start(cfg, INIT, lam=1.0)
        st = picard_iterate(st, cfg, co, INIT)
        st = picard_iterate(st, cfg, co, INIT)
        assert st.rho_history[1] == 0.0

    def test_contraction_with_tanh_kernel(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=HIST)
        res = picard_fixed_point(cfg, coeffs_with(0.2), INIT, kappa=0.2)
        assert res.converged
        assert res.n_iterations <= 20
        rho = res.state.rho_history
        above = [r for r in rho if r > res.noise_floor]
        ratios = [b / a for a, b in zip(above, above[1:])]
        assert all(r < 1.0 for r in ratios)

    def test_fixed_point_matches_interacting_run(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=HIST)
        co = coeffs_with(0.2)
        res = picard_fixed_point(cfg, co, INIT, kappa=0.2)
        flow_i, _ = particle_system_run(cfg, co, INIT, record_times=[1.0], stream=77)
        from kinsde.ergodicity import bootstrap_noise_floor

        tv = empirical_var_distance(
            histogram_law(res.state.flow.clouds[-1], HIST),
            histogram_law(flow_i.clouds[-1], HIST),
        )
        floor = bootstrap_noise_floor(flow_i.clouds[-1], HIST, seed=5)
        assert tv < 3.0 * floor

    def test_disabled_crn_still_converges_to_noise(self):
        cfg = SimConfig(T=0.5, h=0.02, N=2000, seed=5, hist=HIST)
        res = picard_fixed_point(cfg, coeffs_with(0.1), INIT, kappa=0.1,
                                 common_random_numbers=False, max_iter=10)
        assert res.state.rho_history[-1] < 4.0 * res.noise_floor


class TestFlowBound:
    def test_equal_flows_both_sides_zero(self):
        cfg = SimConfig(T=0.5, h=0.01, N=1000, seed=5, hist=HIST)
        co = coeffs_with(0.2)
        flow = atom_flow(1.0, 1.0, cfg.times())
        rep = girsanov_flow_bound(cfg, co, flow, flow, record_times=[0.0, 0.25, 0.5],
                                  init=INIT, streams=(21, 21))
        assert np.all(rep.tv == 0.0)
        assert np.all(rep.pinsker_bound == 0.0)
        assert np.all(rep.xi_integral_bound == 0.0)
        assert rep.verdict == "bound respected"

    def test_constant_shift_closed_form(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=HIST)
        kappa = 0.2
        co = coeffs_with(kappa)
        flow_mu = atom_flow(1.5, 1.5, cfg.times())
        flow_nu = atom_flow(-1.5, -1.5, cfg.times())
        rec = np.arange(0.0, 1.01, 0.1)
        rep = girsanov_flow_bound(cfg, co, flow_mu, flow_nu, record_times=rec, init=INIT)
        xi_const = kappa * (np.tanh(1.5) - np.tanh(-1.5))
        assert np.allclose(rep.xi_integral_bound, xi_const * np.sqrt(rep.times), rtol=1e-2)
        assert rep.verdict == "bound respected"
        # the weighted-entropy estimate agrees with the shift integral
        late = rep.times >= 0.3
        assert np.allclose(rep.pinsker_bound[late], rep.xi_integral_bound[late], rtol=0.15)

    # sha256 of each array of the criterion-5 flow comparison, captured while
    # the run closed its compensator after the step loop returned
    FLOW_SHA256 = {
        "tv": "725f881e53a8746de00fcae4bc2decef95fe44ed3b45f846c07aa86a0247c451",
        "pinsker_bound": "8f0d001dcb9f52cdcdea0ae030e7c7f0c618f4e62cbef2ab3c9901d08461879e",
        "xi_integral_bound": "22b6f8538df0e5e963bb6139aabc5cf20b2144dcb0aee630ac66b5eb0f727fc3",
    }

    def test_criterion_5_bytes(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=HIST)
        rep = girsanov_flow_bound(cfg, coeffs_with(0.2), atom_flow(1.5, 1.5, cfg.times()),
                                  atom_flow(-1.5, -1.5, cfg.times()),
                                  record_times=np.arange(0.0, 1.01, 0.1), init=INIT)
        digests = {name: hashlib.sha256(getattr(rep, name).tobytes()).hexdigest()
                   for name in self.FLOW_SHA256}
        assert digests == self.FLOW_SHA256

    def test_default_init_needs_matching_cloud_size(self):
        # without init the runs start from the t = 0 cloud of flow_nu, which
        # must hold exactly N particles (no silent tiling)
        cfg = SimConfig(T=0.1, h=0.01, N=50, seed=5, hist=HIST)
        flow = atom_flow(1.0, 1.0, cfg.times())
        with pytest.raises(ValueError, match="cloud has 1 particles"):
            girsanov_flow_bound(cfg, coeffs_with(0.2), flow, flow, record_times=[0.0, 0.1])

    def test_bound_scales_linearly_in_kappa(self):
        cfg = SimConfig(T=1.0, h=0.01, N=800, seed=5, hist=HIST)
        flow_mu = atom_flow(1.5, 1.5, cfg.times())
        flow_nu = atom_flow(-1.5, -1.5, cfg.times())
        kappas = np.array([0.1, 0.2, 0.4])
        finals = []
        for kap in kappas:
            rep = girsanov_flow_bound(cfg, coeffs_with(kap), flow_mu, flow_nu,
                                      record_times=[0.0, 0.5, 1.0], init=INIT)
            finals.append(rep.xi_integral_bound[-1])
        finals = np.asarray(finals)
        slope, intercept = np.polyfit(kappas, finals, 1)
        pred = slope * kappas + intercept
        ss_res = np.sum((finals - pred) ** 2)
        ss_tot = np.sum((finals - finals.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99


class TestSweep:
    def test_null_identical_initial_laws(self):
        cfg = SimConfig(T=2.0, h=0.02, N=1500, seed=5, hist=HIST)
        res = uniform_ergodicity_sweep(
            cfg, coeffs_with, [0.0, 0.2], INIT, INIT,
            # the steps recorded at h = 0.02 when off-grid times were rounded
            record_times=np.array([0, 12, 25, 38, 50, 62, 75, 88, 100]) * 0.02,
        )
        for e in res.entries:
            assert np.all(e.tv[1:] <= 2.5 * e.noise_floor)
            assert e.fit.verdict in ("insufficient signal", "no decay")
