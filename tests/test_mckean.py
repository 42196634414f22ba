import hashlib
import json
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from kinsde import ergodicity, integrators, mckean
from kinsde.cli import main as cli_main
from kinsde.core import DiracInit, EmpiricalLaw, HistogramSpec, InputError, SimConfig
from kinsde.ergodicity import compare_flows, empirical_var_distance, histogram_law
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
    rho_lambda,
    uniform_ergodicity_sweep,
)

HIST = HistogramSpec(-6.0, 6.0, 10, dim=2)
DRIFT = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
TANH_Y = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
INIT = DiracInit([1.0], [1.0])


def coeffs_with(kappa, kernel=TANH_Y):
    return confining_coefficients(DRIFT, d=1, kernel=kernel, kappa=kappa)


def chunk_steps(cfg: SimConfig) -> int:
    return -(-integrators._CHUNK_NORMALS // (cfg.N * cfg.m))


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
            z1=DRIFT.z1,
            z2=lambda t, x, y, law: DRIFT.z2(t, x, y, law) + kappa * w,
            b=None, sigma=1.0, d1=1, d2=1,
        )
        plain = simulate_ensemble(cfg, shifted, INIT, stream=2)
        assert np.array_equal(ens.x, plain.x) and np.array_equal(ens.y, plain.y)

    @pytest.mark.parametrize("n", [2000, 4000])
    def test_helper_thread_leaves_the_state_bytes(self, n):
        # mean-field sizes draw their noise on the helper thread; forced onto the
        # loop thread (threshold above N m), the run must give the same states
        cfg = SimConfig(T=0.3, h=0.01, N=n, seed=8, hist=HIST)
        assert n * cfg.m >= integrators._HELPER_MIN_BLOCK and cfg.n_steps > chunk_steps(cfg)
        co = coeffs_with(0.2)
        pools = []

        class CountedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        with mock.patch("concurrent.futures.ThreadPoolExecutor", CountedPool):
            _, helper = particle_system_run(cfg, co, INIT, record_times=[0.3], stream=3)
        with mock.patch.object(integrators, "_HELPER_MIN_BLOCK", n * cfg.m + 1):
            _, serial = particle_system_run(cfg, co, INIT, record_times=[0.3], stream=3)
        assert len(pools) == 1
        assert helper.x.tobytes() == serial.x.tobytes()
        assert helper.y.tobytes() == serial.y.tobytes()

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
        flow = constant_flow(EmpiricalLaw(*INIT.sample(cfg.N)), cfg.times())
        flow, _ = picard_iterate(flow, cfg, co, INIT, lam=1.0)
        flow, rho = picard_iterate(flow, cfg, co, INIT, lam=1.0)
        assert rho == 0.0

    def test_contraction_with_tanh_kernel(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=HIST)
        res = picard_fixed_point(cfg, coeffs_with(0.2), INIT, kappa=0.2)
        assert res.converged
        assert len(res.rho_history) <= 20
        rho = res.rho_history
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
            histogram_law(res.flow.clouds[-1], HIST),
            histogram_law(flow_i.clouds[-1], HIST),
        )
        floor = bootstrap_noise_floor(flow_i.clouds[-1], HIST, seed=5)
        assert tv < 3.0 * floor

    def test_shipped_iterates_bin_each_cloud_once(self, tmp_path):
        # configs/mkv_picard.cfg stops after two iterates of 101 clouds each: the
        # first rho bins its flow and the initial cloud, the noise floor reuses the
        # last cloud's bins, and the second rho bins only the new flow
        cfg = Path(__file__).resolve().parents[1] / "configs" / "mkv_picard.cfg"
        with mock.patch.object(ergodicity, "_bin_index", wraps=ergodicity._bin_index) as spy:
            assert cli_main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "picard.json").read_text())["iterations"] == 2
        assert spy.call_count == 203

    def test_shipped_second_iterate_drops_each_cloud_once_read(self, tmp_path, monkeypatch):
        # configs/mkv_picard.cfg: while step k of the second iterate reads its law,
        # the first iterate's clouds 0 .. k - 2 are gone (cloud k - 1 is still
        # the law of step k - 1), so the loop holds one flow and a slice
        iterate, law_at = mckean.picard_iterate, mckean._ReadOnceFlow.law_at
        refs, dead_at_step = [], []

        def spy_iterate(flow, *args):
            if spy_iterate.calls == 1:
                refs.extend(weakref.ref(law) for law in flow.clouds)
            spy_iterate.calls += 1
            return iterate(flow, *args)

        def spy_law_at(self, t):
            if refs:
                dead_at_step.append([r() is None for r in refs])
            return law_at(self, t)

        spy_iterate.calls = 0
        monkeypatch.setattr(mckean, "picard_iterate", spy_iterate)
        monkeypatch.setattr(mckean._ReadOnceFlow, "law_at", spy_law_at)
        cfg = Path(__file__).resolve().parents[1] / "configs" / "mkv_picard.cfg"
        assert cli_main(["mkv-picard", str(cfg), "--out", str(tmp_path)]) == 0
        assert spy_iterate.calls == 2 and len(refs) == 101
        assert dead_at_step == [[j < k - 1 for j in range(101)] for k in range(100)]
        assert all(r() is None for r in refs)

    def test_loop_equals_iterates_and_leaves_caller_flows_intact(self):
        cfg = SimConfig(T=0.3, h=0.01, N=300, seed=5, hist=HIST)
        co = coeffs_with(0.2)
        res = picard_fixed_point(cfg, co, INIT, kappa=0.2, lam=1.0, max_iter=3)
        flows = [constant_flow(EmpiricalLaw(*INIT.sample(cfg.N)), cfg.times())]
        rhos = []
        assert len(res.rho_history) >= 2
        for _ in res.rho_history:
            held = list(flows[-1].clouds)
            data = [(law.x.tobytes(), law.y.tobytes(), law.weights.tobytes()) for law in held]
            flow, rho = picard_iterate(flows[-1], cfg, co, INIT, lam=1.0)
            assert len(flows[-1].clouds) == len(held)
            assert all(a is b for a, b in zip(flows[-1].clouds, held))
            assert [(law.x.tobytes(), law.y.tobytes(), law.weights.tobytes())
                    for law in held] == data
            flows.append(flow)
            rhos.append(rho)
        assert res.rho_history == rhos
        assert [law.x.tobytes() + law.y.tobytes() for law in res.flow.clouds] == [
            law.x.tobytes() + law.y.tobytes() for law in flows[-1].clouds]

    def test_read_once_flow_refuses_a_second_read(self):
        law = EmpiricalLaw(*INIT.sample(8))
        flow = mckean._ReadOnceFlow(constant_flow(law, np.array([0.0, 0.01])), HIST)
        assert flow.law_at(0.01) is law
        with pytest.raises(ValueError, match="read already"):
            flow.law_at(0.01)

    def test_read_once_flow_keeps_each_read_cloud_as_its_histogram(self):
        law = EmpiricalLaw(*INIT.sample(8))
        flow = mckean._ReadOnceFlow(constant_flow(law, np.array([0.0, 0.01])), HIST)
        assert flow.law_at(0.0) is law
        assert flow.clouds[0] is histogram_law(law, HIST) and flow.clouds[1] is law
        assert rho_lambda(flow, constant_flow(law, flow.times), 1.0, HIST) == 0.0

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_refused_before_any_run(self, monkeypatch, max_iter):
        monkeypatch.setattr(mckean, "picard_iterate", None)
        cfg = SimConfig(T=0.1, h=0.01, N=8, seed=5, hist=HIST)
        with pytest.raises(InputError, match="max_iter must be at least 1, got " + str(max_iter)):
            picard_fixed_point(cfg, coeffs_with(0.2), INIT, kappa=0.2, max_iter=max_iter)


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

    def test_tv_is_the_comparison_of_the_clouds(self):
        # the two runs keep their slices as histograms, and read the series
        # compare_flows reads off the clouds of the same runs
        cfg = SimConfig(T=0.3, h=0.01, N=300, seed=5, hist=HIST)
        co, rec = coeffs_with(0.2), [0.0, 0.1, 0.3]
        mu, nu = atom_flow(1.5, 1.5, cfg.times()), atom_flow(-1.5, -1.5, cfg.times())
        rep = girsanov_flow_bound(cfg, co, mu, nu, record_times=rec, init=INIT)
        ref, tgt = (simulate_ensemble(cfg, co, INIT, law=frozen(f), stream=s, record_times=rec)
                    for f, s in ((nu, 21), (mu, 22)))
        want = compare_flows(ref.flow, tgt.flow, HIST, cfg.seed)
        assert rep.tv.tobytes() == want.tv.tobytes() and rep.noise_floor == want.noise_floor

    def test_empty_record_times_refused_before_any_step(self, monkeypatch):
        monkeypatch.setattr(integrators, "step_arrays", None)
        cfg = SimConfig(T=0.1, h=0.01, N=20, seed=5, hist=HIST)
        flow = atom_flow(1.0, 1.0, cfg.times())
        with pytest.raises(InputError, match="no record time"):
            girsanov_flow_bound(cfg, coeffs_with(0.2), flow, flow, record_times=[], init=INIT)

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
            assert np.all(e.series.tv[1:] <= 2.5 * e.series.noise_floor)
            assert e.fit.verdict in ("insufficient signal", "no decay")

    def test_series_are_the_comparison_of_the_clouds(self):
        cfg = SimConfig(T=0.3, h=0.02, N=300, seed=5, hist=HIST)
        a, b, rec = DiracInit([1.0], [1.0]), DiracInit([-1.0], [-1.0]), [0.0, 0.1, 0.3]
        res = uniform_ergodicity_sweep(cfg, coeffs_with, [0.0, 0.5], a, b, rec)
        for i, e in enumerate(res.entries):
            flows = [particle_system_run(cfg, coeffs_with(e.kappa), init, rec, stream=s)[0]
                     for init, s in ((a, 40 + 2 * i), (b, 41 + 2 * i))]
            want = compare_flows(*flows, HIST, cfg.seed + i)
            assert e.series.tv.tobytes() == want.tv.tobytes()
            assert e.series.noise_floor == want.noise_floor

    def test_empty_record_times_refused_before_any_step(self, monkeypatch):
        monkeypatch.setattr(integrators, "step_arrays", None)
        cfg = SimConfig(T=0.1, h=0.02, N=20, seed=5, hist=HIST)
        with pytest.raises(InputError, match="no record time"):
            uniform_ergodicity_sweep(cfg, coeffs_with, [0.0], INIT, INIT, record_times=[])
