import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinsde.core import CloudInit, DiracInit, EmpiricalLaw, InputError, NumericError, SimConfig
from kinsde.fields import (
    build_coefficients,
    linear_langevin_coefficients,
    scalar_ou_coefficients,
    zero_coefficients,
)
from kinsde.integrators import (
    DegenerateReweightingError,
    Ensemble,
    constant_shift_xi,
    drift_difference_xi,
    girsanov_weighted_law,
    khasminskii_estimate,
    load_snapshot,
    save_snapshot,
    simulate_ensemble,
    step_arrays,
    step_normals,
)

ORIGIN = DiracInit([0.0], [0.0])


def sha256_of(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def observed_run(cfg, coeffs):
    """The ensemble from the origin and, per grid time k, the state (x_k, y_k)
    and step k's dW (None at the horizon) as the ``observe`` hook saw them."""
    seen = []
    ens = simulate_ensemble(cfg, coeffs, ORIGIN, observe=lambda k, t, x, y, dW: seen.append(
        (x.copy(), y.copy(), None if dW is None else dW.copy())))
    return ens, seen


def one_step(s, t, h, coeffs, dW, tamed=False):
    """One step of a single particle through the ensemble step function."""
    x1, y1 = step_arrays(coeffs, t, h, s.x[None, :], s.y[None, :], None,
                         np.asarray(dW, dtype=float)[None, :], tamed)
    return DiracInit(x1[0], y1[0])


class TestSteps:
    def test_zero_fields_identity(self):
        s = DiracInit([0.5], [-0.25])
        out = one_step(s, 0.0, 0.1, zero_coefficients(), np.zeros(1))
        assert np.array_equal(out.x, s.x) and np.array_equal(out.y, s.y)

    def test_one_explicit_step(self):
        # z1 = y, everything else zero, h = 0.1, (x, y) = (0, 1) -> (0.1, 1)
        co = build_coefficients(z1=lambda t, x, y: y.copy(),
                                z2=lambda t, x, y, law: np.zeros_like(y),
                                b=None, sigma=1.0, d1=1, d2=1)
        out = one_step(DiracInit([0.0], [1.0]), 0.0, 0.1, co, np.zeros(1))
        assert out.x == pytest.approx([0.1]) and out.y == pytest.approx([1.0])

    def test_ou_step(self):
        # z2 = -y, sigma = 1, dW = 0, h = 0.01, y = 2 -> 1.98
        out = one_step(DiracInit([0.0], [2.0]), 0.0, 0.01, scalar_ou_coefficients(1.0),
                       np.zeros(1))
        assert out.y == pytest.approx([1.98])

    def test_taming_identity_at_zero_drift(self):
        s = DiracInit([0.4], [0.8])
        dw = np.array([0.3])
        a = one_step(s, 0.0, 0.05, zero_coefficients(sigma=1.0), dw)
        b = one_step(s, 0.0, 0.05, zero_coefficients(sigma=1.0), dw, tamed=True)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_taming_halves_drift_at_reciprocal_step(self):
        h = 0.01
        v = 1.0 / h
        co = build_coefficients(z1=lambda t, x, y: np.full_like(x, v),
                                z2=lambda t, x, y, law: np.zeros_like(y),
                                b=None, sigma=1.0, d1=1, d2=1)
        out = one_step(DiracInit([0.0], [0.0]), 0.0, h, co, np.zeros(1), tamed=True)
        assert out.x == pytest.approx([h * v / 2.0])

    def test_taming_second_order_agreement_for_small_drift(self):
        # with h |v| < 1e-3 the two schemes differ by O(h^2) per step
        h = 1e-4
        co = build_coefficients(z1=lambda t, x, y: np.full_like(x, 5.0),
                                z2=lambda t, x, y, law: -y,
                                b=None, sigma=1.0, d1=1, d2=1)
        s = DiracInit([1.0], [2.0])
        a = one_step(s, 0.0, h, co, np.zeros(1))
        b = one_step(s, 0.0, h, co, np.zeros(1), tamed=True)
        # gap is h|v| * h|v|/(1 + h|v|) <= (h |v|)^2 per block
        assert abs(a.x[0] - b.x[0]) <= (h * 5.0) ** 2
        assert abs(a.y[0] - b.y[0]) <= (h * 2.0) ** 2

    def test_tamed_cubic_matches_fine_step_reference(self):
        cub = build_coefficients(z1=lambda t, x, y: np.zeros_like(x),
                                 z2=lambda t, x, y, law: -y**3,
                                 b=None, sigma=1.0, d1=1, d2=1, growth="superlinear")
        init = DiracInit([0.0], [1.0])
        coarse = simulate_ensemble(
            SimConfig(T=1.0, h=1e-3, N=2000, seed=9, scheme="tamed"), cub, init)
        fine = simulate_ensemble(
            SimConfig(T=1.0, h=1e-5, N=2000, seed=10, scheme="tamed"), cub, init)
        for mom in (1, 2):
            a, b = coarse.y[:, 0] ** mom, fine.y[:, 0] ** mom
            se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) < 3.0 * se


class TestEnsemble:
    def test_constant_path_zero_coefficients(self):
        cfg = SimConfig(T=1.0, h=0.1, N=1, seed=0)
        ens, seen = observed_run(cfg, zero_coefficients())
        assert len(seen) == cfg.n_steps + 1
        assert all(np.all(x == 0.0) and np.all(y == 0.0) for x, y, _ in seen)
        assert ens.n_dead == 0 and not ens.unstable

    def test_langevin_stationary_covariance_small(self):
        cfg = SimConfig(T=12.0, h=2e-3, N=4000, seed=2)
        ens = simulate_ensemble(cfg, linear_langevin_coefficients(), ORIGIN)
        pts = np.hstack([ens.x, ens.y])
        cov = np.cov(pts.T)
        assert np.allclose(cov, np.eye(2), atol=0.1)

    def test_ou_marginal_variance(self):
        # c3 = 1, sigma = 1: Var(Y_T) -> 1/2
        cfg = SimConfig(T=10.0, h=2e-3, N=4000, seed=4)
        ens = simulate_ensemble(cfg, scalar_ou_coefficients(1.0), ORIGIN)
        assert ens.y[:, 0].var() == pytest.approx(0.5, abs=0.04)

    def test_bit_exact_reproducibility(self):
        cfg = SimConfig(T=0.5, h=0.01, N=512, seed=33)
        co = linear_langevin_coefficients()
        a = simulate_ensemble(cfg, co, ORIGIN)
        b = simulate_ensemble(cfg, co, ORIGIN)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_weak_convergence_under_step_halving(self):
        # halving h moves first/second moments by less than the MC interval
        co = linear_langevin_coefficients()
        coarse = simulate_ensemble(SimConfig(T=5.0, h=2e-3, N=10_000, seed=12), co, ORIGIN)
        fine = simulate_ensemble(SimConfig(T=5.0, h=1e-3, N=10_000, seed=12), co, ORIGIN)
        for block_a, block_b in ((coarse.x, fine.x), (coarse.y, fine.y)):
            a, b = block_a[:, 0], block_b[:, 0]
            se_mean = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) < 3.0 * se_mean
            a2, b2 = a**2, b**2
            se2 = np.sqrt(a2.var(ddof=1) / a2.size + b2.var(ddof=1) / b2.size)
            assert abs(a2.mean() - b2.mean()) < 3.0 * se2

    def test_streams_are_independent_noise(self):
        n = step_normals(1, 0, 0, 100, 1)
        m = step_normals(1, 1, 0, 100, 1)
        assert not np.allclose(n, m)

    def test_blowup_marks_dead_and_unstable(self):
        # strongly unstable euler run: particles explode and freeze
        bad = build_coefficients(z1=lambda t, x, y: np.zeros_like(x),
                                 z2=lambda t, x, y, law: y**3,
                                 b=None, sigma=1.0, d1=1, d2=1)
        cfg = SimConfig(T=2.0, h=0.05, N=64, seed=1)
        ens = simulate_ensemble(cfg, bad, DiracInit([0.0], [3.0]))
        assert ens.n_dead > 0
        assert ens.unstable
        assert np.all(np.isfinite(ens.y))

    def test_stored_paths_carry_exact_increments(self):
        cfg = SimConfig(T=0.2, h=0.05, N=3, seed=5)
        _, seen = observed_run(cfg, scalar_ou_coefficients(1.0))
        path = [y[1] for _, y, _ in seen]
        inc = [dW[1] for _, _, dW in seen[:-1]]
        assert len(path) == cfg.n_steps + 1 and seen[-1][2] is None
        # replaying the observed increments reproduces the observed path
        y = path[0].copy()
        for k in range(cfg.n_steps):
            y = y + cfg.h * (-y) + inc[k]
            assert np.allclose(y, path[k + 1])

    def test_records_at_requested_times(self):
        cfg = SimConfig(T=1.0, h=0.1, N=16, seed=6)
        ens = simulate_ensemble(cfg, scalar_ou_coefficients(1.0), ORIGIN,
                                record_times=[0.0, 0.5, 1.0])
        assert np.allclose(ens.flow.times, [0.0, 0.5, 1.0])
        assert len(ens.flow.clouds) == 3

    @pytest.mark.parametrize("times, message", [([0.25], "off the step grid"),
                                                ([2.0 + 0.02], "outside [0, T")])
    def test_record_time_off_grid_or_past_horizon_raises(self, times, message):
        cfg = SimConfig(T=2.0, h=0.02, N=4, seed=6)
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_ensemble(cfg, zero_coefficients(), ORIGIN, record_times=times)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-3, 0.5), st.integers(1, 40), st.data())
    def test_record_steps_are_the_flow_steps(self, h, K, data):
        steps = np.array(data.draw(st.lists(st.integers(0, K), min_size=1, max_size=12)))
        cfg = SimConfig(T=K * h, h=h, N=2, seed=1)
        assert np.array_equal(cfg.record_steps(steps * h), np.unique(steps))
        ens = simulate_ensemble(cfg, zero_coefficients(), ORIGIN, record_times=steps * h)
        assert ens.flow.times.tobytes() == (np.unique(steps) * h).tobytes()
        with pytest.raises(ValueError, match="off the step grid"):
            cfg.record_steps(steps * h + h / 2)
        with pytest.raises(ValueError, match="outside"):
            cfg.record_steps([(K + 1) * h])


class TestInitialLaws:
    def test_cloud_init_size_must_match(self):
        from kinsde.core import CloudInit, EmpiricalLaw

        init = CloudInit(EmpiricalLaw(np.zeros((3, 1)), np.zeros((3, 1))))
        with pytest.raises(ValueError, match="particles"):
            init.sample(5)
        x, y = init.sample(3)
        assert x.shape == (3, 1)


class TestGirsanov:
    def _reweight(self, c, n=20000, seed=8, h=1e-3):
        cfg = SimConfig(T=1.0, h=h, N=n, seed=seed)
        return girsanov_weighted_law(cfg, scalar_ou_coefficients(1.0), constant_shift_xi([c]),
                                     ORIGIN)

    def test_zero_shift_gives_unit_weights(self):
        res = self._reweight(0.0, n=200)
        assert np.all(res.log_weights == 0.0)
        assert res.mean_weight == 1.0
        assert res.pinsker_tv_bound == 0.0

    def test_constant_shift_exponential_martingale_moments(self):
        c = 0.5
        res = self._reweight(c)
        w = np.exp(res.log_weights)
        se1 = w.std(ddof=1) / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 3.0 * se1
        w2 = w**2
        se2 = w2.std(ddof=1) / np.sqrt(w2.size)
        assert abs(w2.mean() - np.exp(c * c * 1.0)) < 3.0 * se2

    def test_reweighted_matches_direct_simulation(self):
        from kinsde.core import HistogramSpec
        from kinsde.ergodicity import (bootstrap_noise_floor, empirical_var_distance,
                                       histogram_law)

        hist = HistogramSpec([-1.0, -4.0], [1.0, 4.0], [2, 20], dim=2)
        cfg = SimConfig(T=1.0, h=1e-3, N=20000, seed=8, hist=hist)
        c = 0.5
        res = girsanov_weighted_law(cfg, scalar_ou_coefficients(1.0), constant_shift_xi([c]),
                                    ORIGIN)
        shifted = build_coefficients(z1=lambda t, x, y: np.zeros_like(x),
                                     z2=lambda t, x, y, law: -y + c,
                                     b=None, sigma=1.0, d1=1, d2=1)
        direct = simulate_ensemble(cfg, shifted, ORIGIN, stream=3)
        tv = empirical_var_distance(histogram_law(res.law, hist),
                                    histogram_law(direct.law(), hist))
        floor = bootstrap_noise_floor(histogram_law(res.law, hist), seed=8)
        assert tv < 3.0 * floor

    def test_criterion5_weights_and_law_pinned(self):
        # sha256 of the log-weights and of the weighted law's x, y and weight
        # bytes, captured while the weights were still replayed from stored paths
        res = self._reweight(0.5)
        law = res.law
        assert sha256_of(res.log_weights) == (
            "4cc68d107eb0ae1b4d38fdc2de51c894261aee7638a82a05a31fbd043c54b50d")
        assert sha256_of(law.x, law.y, law.weights) == (
            "f8a4193e7d046963a30a3708c95490ba2955ea7a0d8479c7edb2945fe025f77f")

    def test_degenerate_reweighting_raises(self):
        with pytest.raises(DegenerateReweightingError, match="degenerate"):
            self._reweight(8.0, n=300, seed=12)

    # c = 60: every weight underflows to 0; c = 40: every square does
    @pytest.mark.parametrize("c", [60.0, 40.0])
    def test_underflowed_weights_raise_with_zero_ess(self, c):
        with pytest.raises(DegenerateReweightingError) as err:
            self._reweight(c, n=200, seed=8, h=0.01)
        assert err.value.ess == 0.0 and err.value.n == 200

    # the callable path once applied the transposed projection: a wrong xi for a
    # non-symmetric sigma and a shape error for d2 != m
    @pytest.mark.parametrize("sigma", [[[1.3, 0.4], [0.1, 0.9]],
                                       [[1.3, 0.4, -0.2], [0.1, 0.9, 0.7]]],
                             ids=["non-symmetric", "d2-below-m"])
    def test_callable_sigma_xi_matches_constant(self, sigma):
        S = np.array(sigma)
        co = lambda s: build_coefficients(z1=lambda t, x, y: x, z2=lambda t, x, y, law: y,
                                          b=None, sigma=s, d1=2, d2=2, m=S.shape[1])
        x, y = np.random.default_rng(3).standard_normal((2, 64, 2))
        dz = lambda t, x, y: np.sin(x) + y
        xa = drift_difference_xi(co(S), dz)(0.0, x, y)
        xb = drift_difference_xi(co(lambda t, y: np.tile(S, (y.shape[0], 1, 1))), dz)(0.0, x, y)
        # both forms take the one path through CoefficientSet.sigma_at: equal bits
        assert np.array_equal(xa, xb)
        assert np.allclose(xb @ S.T, dz(0.0, x, y), rtol=0, atol=1e-13)  # sigma xi = delta

    @settings(max_examples=60, deadline=None)
    @given(d2=st.integers(1, 3), extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           callable_sigma=st.booleans())
    def test_sigma_times_xi_is_the_drift_difference(self, d2, extra, seed, callable_sigma):
        m = min(d2 + extra, 3)
        rng = np.random.default_rng(seed)
        S = rng.uniform(-2.0, 2.0, (d2, m))
        assume(np.linalg.cond(S @ S.T) < 1e4)
        scale = lambda y: 1.0 + y[:, :1, None] ** 2  # a sigma that varies per particle
        sigma = (lambda t, y: scale(y) * S) if callable_sigma else S
        co = build_coefficients(z1=lambda t, x, y: x, z2=lambda t, x, y, law: y, b=None,
                                sigma=sigma, d1=1, d2=d2, m=m)
        x, y = rng.standard_normal((32, 1)), rng.standard_normal((32, d2))
        dz = lambda t, x, y: np.cos(x) * y + 0.5
        xi = drift_difference_xi(co, dz)(0.0, x, y)
        sig = scale(y) * S if callable_sigma else np.broadcast_to(S, (32, d2, m))
        want = dz(0.0, x, y)
        got = np.einsum("nij,nj->ni", sig, xi)
        assert xi.shape == (32, m)
        assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


class TestKhasminskii:
    def test_constant_integrand_exact(self):
        cfg = SimConfig(T=1.0, h=1e-2, N=64, seed=3)
        a = 0.7
        res = khasminskii_estimate(cfg, scalar_ou_coefficients(1.0),
                                   lambda t, y: np.full(y.shape[0], a), ORIGIN)
        assert res.estimate == pytest.approx(np.exp(a * a), rel=1e-12)
        assert not res.diverged

    def test_zero_integrand_is_one(self):
        cfg = SimConfig(T=1.0, h=1e-2, N=64, seed=3)
        res = khasminskii_estimate(cfg, scalar_ou_coefficients(1.0),
                                   lambda t, y: np.zeros(y.shape[0]), ORIGIN)
        assert res.estimate == 1.0

    def test_overflow_reported_as_infinite_estimate(self):
        cfg = SimConfig(T=1.0, h=1e-2, N=32, seed=3)
        res = khasminskii_estimate(cfg, scalar_ou_coefficients(1.0),
                                   lambda t, y: np.full(y.shape[0], 40.0), ORIGIN)
        assert res.diverged and np.isinf(res.estimate)

    def test_overflowed_bootstrap_mean_gives_infinite_ci_hi(self):
        # y stays put, so one particle's exp(int |f|^2) is about 8e307 while the
        # mean over 50 stays finite; a resample that draws that particle three
        # times overflows, and about 8 % of them do, more than the 2.5 % above
        # the interval: its upper end is inf, where inf - inf once made it NaN
        y0 = np.zeros((50, 1))
        y0[0] = 1.0
        res = khasminskii_estimate(SimConfig(T=1.0, h=0.1, N=50, seed=3), zero_coefficients(),
                                   lambda t, y: math.sqrt(709.0) * y[:, 0],
                                   CloudInit(EmpiricalLaw(np.zeros((50, 1)), y0)))
        assert not res.diverged and math.isfinite(res.estimate)
        assert res.ci_lo <= res.estimate and res.ci_hi == math.inf

    def test_no_survivor_is_a_numeric_failure(self):
        # rate h = 3 puts the Euler step outside its stability region, so every particle
        # blows up; this once averaged an empty slice and reported a divergence
        cfg = SimConfig(T=1.0, h=1e-3, N=50, seed=21)
        with pytest.raises(NumericError, match="no estimate: all 50 particles blew up"):
            khasminskii_estimate(cfg, scalar_ou_coefficients(3000.0),
                                 lambda t, y: np.zeros(y.shape[0]), ORIGIN)

    def test_ci_shrinks_and_overlaps_under_n_doubling(self):
        co = scalar_ou_coefficients(1.0)
        f = lambda t, y: 1.0 / (1.0 + y[:, 0] ** 2)
        r1 = khasminskii_estimate(SimConfig(T=1.0, h=5e-3, N=4000, seed=1), co, f, ORIGIN)
        r2 = khasminskii_estimate(SimConfig(T=1.0, h=5e-3, N=8000, seed=2), co, f, ORIGIN)
        w1 = r1.ci_hi - r1.ci_lo
        w2 = r2.ci_hi - r2.ci_lo
        assert w2 < w1
        assert max(r1.ci_lo, r2.ci_lo) <= min(r1.ci_hi, r2.ci_hi)

    def test_estimate_monotone_in_norm_for_constants(self):
        # larger constant -> larger localized norm -> larger estimate
        cfg = SimConfig(T=1.0, h=1e-2, N=64, seed=3)
        co = scalar_ou_coefficients(1.0)
        ests = [khasminskii_estimate(cfg, co, lambda t, y, a=a: np.full(y.shape[0], a),
                                     ORIGIN).estimate for a in (0.2, 0.5, 0.9)]
        assert ests[0] < ests[1] < ests[2]


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        cfg = SimConfig(T=0.3, h=0.1, N=50, seed=14)
        ens = simulate_ensemble(cfg, linear_langevin_coefficients(), ORIGIN)
        base = tmp_path / "snap"
        save_snapshot(base, ens, config_hash="abc123")
        law, meta = load_snapshot(base)
        assert meta["config_hash"] == "abc123"
        assert np.array_equal(law.x, ens.law().x)
        assert np.array_equal(law.y, ens.law().y)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), d1=st.integers(1, 3), d2=st.integers(1, 3),
           dead=st.lists(st.booleans(), min_size=40, max_size=40), seed=st.integers(0, 2**32 - 1))
    def test_format_2_roundtrip(self, n, d1, d2, dead, seed):
        alive = ~np.array(dead[:n])
        alive[seed % n] = True  # a law needs one alive particle
        rng = np.random.default_rng(seed)
        ens = Ensemble(seed=seed, stream=0, times=np.array([0.0, 0.5]),
                       x=rng.standard_normal((n, d1)), y=rng.standard_normal((n, d2)), alive=alive)
        want = ens.law()
        with tempfile.TemporaryDirectory() as tmp:
            bin_path, _ = save_snapshot(Path(tmp) / "snap", ens, config_hash="abc")
            law, meta = load_snapshot(Path(tmp) / "snap")
            size = bin_path.stat().st_size
        assert size == 8 * want.n * (d1 + d2 + 1)
        for got, ref in ((law.x, want.x), (law.y, want.y), (law.weights, want.weights)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert set(meta) == {"format", "config_hash", "seed", "stream", "time", "n", "d1", "d2",
                             "n_dead", "unstable"}
        assert meta["format"] == 2 and meta["n_dead"] == n - want.n

    def _saved(self, tmp_path):
        cfg = SimConfig(T=0.2, h=0.1, N=20, seed=3)
        ens = simulate_ensemble(cfg, linear_langevin_coefficients(), ORIGIN)
        return save_snapshot(tmp_path / "snap", ens)

    @pytest.mark.parametrize("change", [b"\0" * 16, -8], ids=["padded", "truncated"])
    def test_bin_of_another_size_refused_naming_it(self, tmp_path, change):
        # a padded file once loaded silently, a truncated one failed with
        # "weights must be one per particle"
        bin_path, _ = self._saved(tmp_path)
        data = bin_path.read_bytes()
        bin_path.write_bytes(data + change if isinstance(change, bytes) else data[:change])
        size = len(bin_path.read_bytes())
        message = f"{bin_path} holds {size} bytes, its sidecar implies {8 * 20 * 3}"
        with pytest.raises(InputError, match=re.escape(message)):
            load_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("fmt", [1, 3, None])
    def test_other_format_refused_naming_the_sidecar(self, tmp_path, fmt):
        _, json_path = self._saved(tmp_path)
        meta = json.loads(json_path.read_text())
        if fmt is None:
            del meta["format"]
        else:
            meta["format"] = fmt
        json_path.write_text(json.dumps(meta))
        with pytest.raises(InputError, match=re.escape(f"{json_path}: format {fmt!r}, not 2")):
            load_snapshot(tmp_path / "snap")
