"""Acceptance suite: one test per shipped criterion, printed pass/fail lines.

Tolerances are pinned here, not calibrated at runtime; every run is seeded
and deterministic on one machine.  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import json
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

from kinsde import integrators
from kinsde.cli import main as cli_main
from kinsde.core import DiracInit, EmpiricalLaw, HistogramSpec, SimConfig
from kinsde.ergodicity import (
    HTransform,
    bootstrap_noise_floor,
    empirical_v_distance,
    empirical_var_distance,
    fit_exponential_decay,
    fit_h_envelope,
    histogram_law,
    tv_decay_experiment,
)
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    MeanFieldKernel,
    PhiFamily,
    RieszDrift,
    build_coefficients,
    confining_coefficients,
    linear_langevin_coefficients,
    scalar_ou_coefficients,
)
from kinsde.integrators import (
    constant_shift_xi,
    girsanov_weighted_law,
    khasminskii_estimate,
    simulate_ensemble,
)
from kinsde.lyapunov import LogRadialSamples, check_drift_condition, search_constants
from kinsde.mckean import (
    constant_flow,
    girsanov_flow_bound,
    particle_system_run,
    picard_fixed_point,
    picard_iterate,
    uniform_ergodicity_sweep,
)

ORIGIN = DiracInit([0.0], [0.0])


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def confining_accept_coeffs():
    """The shipped confining configuration with the floored Riesz drift."""
    drift = ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=0.0)
    return confining_coefficients(drift, b=RieszDrift([(0.0, 1.0)], alpha=0.5), d=1)


class TestCriterion1:
    def test_langevin_stationary_covariance(self):
        t0 = time.time()
        cfg = SimConfig(T=20.0, h=1e-3, N=10_000, seed=101)
        ens = simulate_ensemble(cfg, linear_langevin_coefficients(), ORIGIN)
        elapsed = time.time() - t0

        # independent oracle: A Sigma + Sigma A^T + Q = 0
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        Q = np.diag([0.0, 2.0])
        sigma_exact = solve_continuous_lyapunov(A, -Q)
        assert np.allclose(sigma_exact, np.eye(2), atol=1e-12)

        pts = np.hstack([ens.x, ens.y])
        n = pts.shape[0]
        ok = True
        worst = 0.0
        for i in range(2):
            for j in range(2):
                prod = pts[:, i] * pts[:, j]
                se = prod.std(ddof=1) / np.sqrt(n)
                dev = abs(prod.mean() - sigma_exact[i, j]) / se
                worst = max(worst, dev)
                ok = ok and dev <= 3.0
        ok = ok and elapsed < 120.0
        report(1, ok, f"empirical covariance within 3 SE of the Lyapunov-equation "
                      f"solution (worst {worst:.2f} SE, {elapsed:.0f}s)")


class TestCriterion2:
    H = HistogramSpec(-6.0, 6.0, 8, dim=2)

    def test_two_law_tv_decay(self):
        cfg = SimConfig(T=8.0, h=1e-3, N=10_000, seed=123, hist=self.H)
        series = tv_decay_experiment(
            cfg, confining_accept_coeffs(),
            DiracInit([2.0], [2.0]), DiracInit([-2.0], [-2.0]),
            record_times=np.arange(1.0, 8.01, 0.5),
        )
        fit = fit_exponential_decay(series.times, series.tv, noise_floor=series.noise_floor)
        ok = fit.lam > 0.0 and fit.r2 > 0.9
        report(2, ok, f"two-law TV decay fits log-linear (lam = {fit.lam:.3f}, "
                      f"R^2 = {fit.r2:.3f}) over t in [1, 8]")

    def test_null_identical_laws(self):
        cfg = SimConfig(T=4.0, h=1e-3, N=10_000, seed=123, hist=self.H)
        same = DiracInit([2.0], [2.0])
        series = tv_decay_experiment(cfg, confining_accept_coeffs(), same, same,
                                     record_times=np.arange(1.0, 4.01, 0.5))
        ok = bool(np.all(series.tv <= 1.5 * series.noise_floor))
        report(2, ok, f"identical-initial-law null test stays at noise floor "
                      f"(max TV {series.tv.max():.4f} vs floor {series.noise_floor:.4f})")


class TestCriterion3:
    V = LyapunovV(1.0, 1, 1)
    SAMPLES = LogRadialSamples(r_min=0.05, r_max=50.0, n_radii=20, n_dirs=12, seed=7)

    def _search(self, samples):
        drift = ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=0.0)
        co = confining_coefficients(drift, d=1)
        return search_constants(co, self.V, "linear", eps=0.1, samples=samples, k_cap=50.0)

    def test_certificate_and_negative_control(self):
        res = self._search(self.SAMPLES)
        certified = res.report.verdict == "holds" and res.report.min_margin >= 0.0

        drift_bad = ConfiningDrift(c1=1.0, c2=0.05, c3=1e-12, delta=0.0)
        co_bad = confining_coefficients(drift_bad, d=1)
        rep_bad = check_drift_condition(co_bad, self.V, PhiFamily("linear", res.c0), res.K,
                           eps=0.1, samples=self.SAMPLES)
        ok = certified and rep_bad.verdict == "fails"
        report(3, ok, f"drift condition certified with linear rate up to radius 50 "
                      f"(c0 = {res.c0:.3f}, K = {res.K:.2f}); undamped control fails")

    def test_constant_stability_under_density_doubling(self):
        res = self._search(self.SAMPLES)
        res2 = self._search(self.SAMPLES.refined())
        rel = abs(res2.c0 - res.c0) / res.c0
        report(3, rel < 0.05, f"searched constant stable under sample-density "
                              f"doubling (change {100 * rel:.2f}%)")


class TestCriterion4:
    def test_zvonkin_pipeline(self):
        from kinsde.zvonkin import equivalence_experiment, lambda_sweep, solve_resolvent_1d

        # smallness for constant b = 1 and for the floored Riesz drift
        s_const = lambda_sweep(1.0, 1.0, eps_target=0.1, L=12.0, n=4001)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-4)
        b_r = lambda yy: rz(0.0, yy[:, None])[:, 0]
        s_riesz = lambda_sweep(b_r, 1.0, eps_target=0.1, L=12.0, n=4001)
        small = s_const.sup_bound < 0.1 and s_riesz.sup_bound < 0.1

        sol = solve_resolvent_1d(1.0, 1.0, lam=s_const.lam, L=12.0, n=4001)
        err = abs(sol.u[sol.grid.size // 2] - 1.0 / s_const.lam)
        closed_form = err < 1e-3

        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        co = confining_coefficients(drift, b=RieszDrift([(0.0, 1.0)], 0.5, 1e-4), d=1)
        cfg = SimConfig(T=1.0, h=1e-3, N=10_000, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        rep = equivalence_experiment(co, cfg, ORIGIN, eps_target=0.1, L=12.0, n_grid=4001)
        equivalent = rep.tv < 3.0 * rep.noise_floor

        ok = small and closed_form and equivalent
        report(4, ok, f"lambda sweep reaches bound < 0.1 (const {s_const.sup_bound:.3f}, "
                      f"Riesz {s_riesz.sup_bound:.3f}); closed-form error {err:.1e}; "
                      f"equivalence TV {rep.tv:.4f} < 3 x floor {rep.noise_floor:.4f}")


class TestCriterion5:
    def test_girsanov_suite(self):
        cfg = SimConfig(T=1.0, h=1e-3, N=20_000, seed=8,
                        hist=HistogramSpec([-1.0, -4.0], [1.0, 4.0], [2, 20], dim=2))
        co = scalar_ou_coefficients(1.0)
        c = 0.5
        res = girsanov_weighted_law(cfg, co, constant_shift_xi([c]), ORIGIN)
        w = np.exp(res.log_weights)
        se1 = w.std(ddof=1) / np.sqrt(w.size)
        martingale = abs(w.mean() - 1.0) <= 3.0 * se1
        w2 = w**2
        se2 = w2.std(ddof=1) / np.sqrt(w2.size)
        lognormal = abs(w2.mean() - np.exp(c * c * cfg.T)) <= 3.0 * se2

        shifted = build_coefficients(z1=lambda t, x, y: np.zeros_like(x),
                                     z2=lambda t, x, y, law: -y + c,
                                     b=None, sigma=1.0, d1=1, d2=1)
        direct = simulate_ensemble(cfg, shifted, ORIGIN, stream=3)
        tv = empirical_var_distance(histogram_law(res.law, cfg.hist),
                                    histogram_law(direct.law(), cfg.hist))
        floor = bootstrap_noise_floor(histogram_law(res.law, cfg.hist), seed=8)
        law_match = tv < 3.0 * floor

        # flow comparison: empirical TV under its relative-entropy bound throughout
        hist2 = HistogramSpec(-6.0, 6.0, 10, dim=2)
        cfg2 = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=hist2)
        kernel = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        drift = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
        co_k = confining_coefficients(drift, d=1, kernel=kernel, kappa=0.2)
        flow_mu = constant_flow(
            histogram_cloud(1.5), cfg2.times())
        flow_nu = constant_flow(
            histogram_cloud(-1.5), cfg2.times())
        rep = girsanov_flow_bound(cfg2, co_k, flow_mu, flow_nu,
                                  record_times=np.arange(0.0, 1.01, 0.1),
                                  init=DiracInit([1.0], [1.0]))
        pinsker_ok = rep.verdict == "bound respected"

        ok = martingale and lognormal and law_match and pinsker_ok
        report(5, ok, f"mean weight {w.mean():.4f} (3SE {3 * se1:.4f}); second moment "
                      f"{w2.mean():.4f} vs {np.exp(c * c):.4f}; reweighted-vs-direct TV "
                      f"{tv:.4f} < 3 x {floor:.4f}; flow Pinsker bound {rep.verdict}")


def histogram_cloud(a: float):
    return EmpiricalLaw(np.full((1, 1), a), np.full((1, 1), a))


class TestCriterion6:
    def test_khasminskii_estimator(self):
        co = scalar_ou_coefficients(1.0)
        a = 0.7
        cfg = SimConfig(T=1.0, h=1e-3, N=10_000, seed=21)
        r_const = khasminskii_estimate(cfg, co, lambda t, y: np.full(y.shape[0], a), ORIGIN)
        exact = np.exp(a * a * cfg.T)
        const_ok = abs(r_const.estimate - exact) / exact < 5e-4  # 4 significant figures

        def riesz_f(eta):
            rz = RieszDrift([(0.0, 0.5)], alpha=0.3, eta_sing=eta)
            return lambda t, y: np.sqrt(np.sum(rz(t, y) ** 2, axis=1))

        r1 = khasminskii_estimate(cfg, co, riesz_f(1e-6), ORIGIN)
        r2 = khasminskii_estimate(SimConfig(T=1.0, h=1e-3, N=20_000, seed=22),
                                  co, riesz_f(1e-6), ORIGIN)
        r3 = khasminskii_estimate(cfg, co, riesz_f(0.5e-6), ORIGIN)
        finite = all(np.isfinite(r.estimate) for r in (r1, r2, r3))
        overlap_n = max(r1.ci_lo, r2.ci_lo) <= min(r1.ci_hi, r2.ci_hi)
        overlap_eta = max(r1.ci_lo, r3.ci_lo) <= min(r1.ci_hi, r3.ci_hi)

        ok = const_ok and finite and overlap_n and overlap_eta
        report(6, ok, f"constant integrand exact to 4 significant figures "
                      f"({r_const.estimate:.6g} vs {exact:.6g}); Riesz estimates finite and "
                      f"stable under N-doubling and floor-halving "
                      f"({r1.estimate:.3f}/{r2.estimate:.3f}/{r3.estimate:.3f})")


class TestCriterion7:
    HIST = HistogramSpec(-6.0, 6.0, 10, dim=2)

    def test_picard_fixed_point(self):
        cfg = SimConfig(T=1.0, h=0.01, N=4000, seed=5, hist=self.HIST)
        kernel = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        drift = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
        co = confining_coefficients(drift, d=1, kernel=kernel, kappa=0.2)
        init = DiracInit([1.0], [1.0])

        res = picard_fixed_point(cfg, co, init, kappa=0.2)
        above = [r for r in res.rho_history if r > res.noise_floor]
        ratios_ok = all(b < a for a, b in zip(above, above[1:]))
        converged = res.converged and len(res.rho_history) <= 20

        flow_i, _ = particle_system_run(cfg, co, init, record_times=[1.0], stream=77)
        tv = empirical_var_distance(
            histogram_law(res.flow.clouds[-1], self.HIST),
            histogram_law(flow_i.clouds[-1], self.HIST),
        )
        floor = bootstrap_noise_floor(histogram_law(flow_i.clouds[-1], self.HIST), seed=5)
        match = tv < 3.0 * floor

        co0 = confining_coefficients(drift, d=1, kernel=kernel, kappa=0.0)
        flow = constant_flow(EmpiricalLaw(*init.sample(cfg.N)), cfg.times())
        flow, _ = picard_iterate(flow, cfg, co0, init, res.lam)
        flow, rho = picard_iterate(flow, cfg, co0, init, res.lam)
        frozen = rho == 0.0

        ok = ratios_ok and converged and match and frozen
        report(7, ok, f"Picard contraction (rho {['%.4f' % r for r in res.rho_history]}), "
                      f"{len(res.rho_history)} iterations; fixed point matches interacting law "
                      f"(TV {tv:.4f} < 3 x {floor:.4f}); kappa=0 exactly stationary")


class TestCriterion8:
    def test_uniform_ergodicity_sweep(self):
        hist = HistogramSpec(-8.0, 8.0, 10, dim=2)
        cfg = SimConfig(T=8.0, h=5e-3, N=4000, seed=11, hist=hist)
        drift = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
        kernel = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        factory = lambda kap: confining_coefficients(drift, d=1, kernel=kernel, kappa=kap)
        res = uniform_ergodicity_sweep(
            cfg, factory, [0.0, 0.1, 0.2, 5.0],
            DiracInit([2.0], [2.0]), DiracInit([-2.0], [-2.0]),
            record_times=np.arange(0.0, 8.01, 0.5),
        )
        small_ok = all(res.entry(k).fit.verdict == "decay confirmed" for k in (0.0, 0.1, 0.2))
        control_fails = res.entry(5.0).fit.verdict != "decay confirmed"
        ok = small_ok and control_fails and res.kappa_star == 0.2
        lams = {e.kappa: round(e.fit.lam, 3) for e in res.entries}
        report(8, ok, f"decay confirmed for kappa <= 0.2 (rates {lams}), large-kappa "
                      f"bistable control loses the verdict; kappa* = {res.kappa_star}")


class TestCriterion9:
    def test_h_envelope_dominates_superlinear_run(self):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=1.0))
        h_exact = abs(H.value(1.0) - np.pi / 4.0) < 1e-8
        roundtrip = abs(H.inverse(H.value(5.0)) - 5.0) < 1e-8

        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=1.0)
        co = confining_coefficients(drift, d=1)
        hist = HistogramSpec(-5.0, 5.0, 12, dim=2)
        cfg = SimConfig(T=5.0, h=2e-3, N=6000, seed=31, scheme="tamed", hist=hist)
        V = LyapunovV(1.0, 1, 1)
        samples = LogRadialSamples(r_max=50.0, n_radii=16, n_dirs=10, seed=3)
        res = search_constants(co, V, "superlinear", eps=0.1, samples=samples,
                               beta=0.5, k_cap=50.0)
        phi = PhiFamily("superlinear", res.c0, 0.5)

        ref = simulate_ensemble(cfg, co, ORIGIN, stream=9)
        h_mu = histogram_law(ref.law(), cfg.hist)
        rec = np.arange(0.25, 5.01, 0.25)
        ens = simulate_ensemble(cfg, co, DiracInit([3.0], [3.0]),
                                stream=4, record_times=rec)
        curve = np.array([
            empirical_v_distance(histogram_law(cl, cfg.hist), h_mu, V) for cl in ens.flow.clouds
        ])
        fit = fit_h_envelope(rec, curve, phi, v0=V.value([3.0], [3.0]))
        ok = h_exact and roundtrip and fit.dominated
        report(9, ok, f"H(1) = pi/4 to 1e-8 and inverse roundtrip < 1e-8; fitted envelope "
                      f"(k = {fit.k:.2f}, lam = {fit.lam:.2f}) dominates the V-distance "
                      f"curve at all {rec.size} recorded times")


class TestCriterion10:
    def test_bit_exact_reproducibility_across_workers(self, tmp_path):
        # CLI manifest rerun, plain and tamed dynamics, different worker counts
        cfg_text = (
            "T = 1.0\nh = 0.002\nN = 2000\nseed = 99\ndrift = linear_langevin\n"
            "hist.bins = 8\n"
        )
        cfg_file = tmp_path / "repro.cfg"
        cfg_file.write_text(cfg_text)
        outs = []
        for i, workers in enumerate((1, 4)):
            out = tmp_path / f"out{i}"
            assert cli_main(["simulate", str(cfg_file), "--out", str(out),
                             "--workers", str(workers)]) == 0
            assert cli_main(["verify", str(out / "manifest.json")]) == 0
            outs.append((out / "snapshot.bin").read_bytes())
        # N = 2000 is at least _HELPER_MIN_BLOCK, so the helper thread draws the noise
        # of both runs above; "helper" forces it on whatever the threshold, and
        # "serial" forces it off (threshold above N m), which draws on the loop thread
        pools = []

        class CountedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        for name, threshold in (("helper", 1), ("serial", 2001)):
            with mock.patch.object(integrators, "_HELPER_MIN_BLOCK", threshold), \
                    mock.patch("concurrent.futures.ThreadPoolExecutor", CountedPool):
                assert cli_main(["simulate", str(cfg_file), "--out",
                                 str(tmp_path / name)]) == 0
        sha = [json.loads((tmp_path / d / "manifest.json").read_text())["sha256"]
               for d in ("out0", "helper", "serial")]
        helper_ok = (len(pools) == 1 and sha[0] == sha[1] == sha[2] and all(
            (tmp_path / d / "snapshot.bin").read_bytes() == outs[0] for d in ("helper", "serial")))
        cli_ok = outs[0] == outs[1] and helper_ok

        # library-level reruns: ergodicity series, interacting system, weights
        co = confining_accept_coeffs()
        hist = HistogramSpec(-6.0, 6.0, 8, dim=2)
        cfg = SimConfig(T=2.0, h=0.01, N=2000, seed=55, hist=hist)
        a = DiracInit([2.0], [2.0])
        b = DiracInit([-2.0], [-2.0])
        s1 = tv_decay_experiment(cfg, co, a, b, np.arange(0.5, 2.01, 0.5))
        s2 = tv_decay_experiment(cfg, co, a, b, np.arange(0.5, 2.01, 0.5))
        series_ok = np.array_equal(s1.tv, s2.tv) and s1.noise_floor == s2.noise_floor

        kernel = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        drift = ConfiningDrift(c1=1.0, c2=1.0, c3=1.0, delta=0.0)
        co_k = confining_coefficients(drift, d=1, kernel=kernel, kappa=0.2)
        _, e1 = particle_system_run(cfg, co_k, a, record_times=[2.0], stream=4)
        _, e2 = particle_system_run(cfg, co_k, a, record_times=[2.0], stream=4)
        mkv_ok = np.array_equal(e1.x, e2.x) and np.array_equal(e1.y, e2.y)

        ou = scalar_ou_coefficients(1.0)
        g1 = girsanov_weighted_law(cfg, ou, constant_shift_xi([0.3]), ORIGIN)
        g2 = girsanov_weighted_law(cfg, ou, constant_shift_xi([0.3]), ORIGIN)
        weights_ok = np.array_equal(g1.log_weights, g2.log_weights)

        ok = cli_ok and series_ok and mkv_ok and weights_ok
        report(10, ok, "CLI manifest rerun and library reruns bit-exact across "
                       "worker counts and with the noise helper thread on and off "
                       "(snapshots, TV series, interacting states, weights)")
