import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinsde.core import DiracInit, EmpiricalLaw, HistogramSpec, PhaseState, SimConfig
from kinsde.ergodicity import (
    HistogramLaw,
    HTransform,
    NumericCheckError,
    bootstrap_noise_floor,
    empirical_v_distance,
    empirical_var_distance,
    fit_exponential_decay,
    fit_h_envelope,
    h_envelope,
    histogram_law,
    law_distances,
    moment_bound_check,
    tv_decay_experiment,
)
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    PhiFamily,
    build_coefficients,
    confining_coefficients,
    linear_langevin_coefficients,
    scalar_ou_coefficients,
)
from kinsde.integrators import simulate_ensemble
from kinsde.lyapunov import LogRadialSamples, search_constants

SPEC2 = HistogramSpec(-4.0, 4.0, 8, dim=2)


def _law(rng, n):
    return EmpiricalLaw(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))


class TestHistogramLaw:
    def test_mass_accounting(self):
        law = EmpiricalLaw(np.array([[0.0], [10.0]]), np.array([[0.0], [0.0]]))
        h = histogram_law(law, SPEC2)
        assert h.masses.sum() == pytest.approx(0.5)
        assert h.out_mass == pytest.approx(0.5)

    def test_weighted_cloud(self):
        law = EmpiricalLaw(np.zeros((2, 1)), np.zeros((2, 1)), weights=[3.0, 1.0])
        h = histogram_law(law, SPEC2)
        assert h.masses.max() == pytest.approx(1.0)

    def test_nan_mass_is_a_numeric_failure(self):
        masses = np.full(64, 1.0 / 64)
        HistogramLaw(SPEC2, masses, 0.0)
        masses[5] = np.nan
        with pytest.raises(NumericCheckError, match="histogram mass nan"):
            HistogramLaw(SPEC2, masses, 0.0)


class TestVarDistance:
    def test_identical_laws(self):
        rng = np.random.default_rng(0)
        a = histogram_law(_law(rng, 100), SPEC2)
        assert empirical_var_distance(a, a) == 0.0

    def test_disjoint_supports(self):
        a = histogram_law(EmpiricalLaw([[-3.0]], [[0.0]]), SPEC2)
        b = histogram_law(EmpiricalLaw([[3.0]], [[0.0]]), SPEC2)
        assert empirical_var_distance(a, b) == pytest.approx(2.0)

    def test_same_law_noise_bound(self):
        # two equal-N samples from one law: distance < 4 sqrt(bins / N)
        rng = np.random.default_rng(42)
        n = 4000
        for _ in range(5):
            a = histogram_law(_law(rng, n), SPEC2)
            b = histogram_law(_law(rng, n), SPEC2)
            assert empirical_var_distance(a, b) < 4.0 * np.sqrt(SPEC2.n_bins / n)

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        ha = histogram_law(_law(rng, 300), SPEC2)
        hb = histogram_law(_law(rng, 300), SPEC2)
        hc = histogram_law(_law(rng, 300), SPEC2)
        assert empirical_var_distance(ha, hb) == empirical_var_distance(hb, ha)
        assert empirical_var_distance(ha, hc) <= (
            empirical_var_distance(ha, hb) + empirical_var_distance(hb, hc) + 1e-15
        )
        assert empirical_var_distance(ha, ha) == 0.0

    def test_binning_mismatch(self):
        rng = np.random.default_rng(0)
        a = histogram_law(_law(rng, 10), SPEC2)
        b = histogram_law(_law(rng, 10), HistogramSpec(-4.0, 4.0, 10, dim=2))
        with pytest.raises(ValueError, match="binning mismatch"):
            empirical_var_distance(a, b)


_COORD = st.floats(-6.0, 6.0, allow_nan=False)
_CLOUD = st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=30).map(
    lambda pts: EmpiricalLaw(np.array(pts)[:, :1], np.array(pts)[:, 1:])
)
_SERIES_PAIR = st.integers(1, 4).flatmap(
    lambda k: st.tuples(*[st.lists(_CLOUD, min_size=k, max_size=k)] * 2)
)


class TestLawDistances:
    @settings(max_examples=60, deadline=None)
    @given(_SERIES_PAIR)
    def test_total_variation_properties(self, pair):
        a, b = pair
        d = law_distances(a, b, SPEC2)
        assert d.shape == (len(a),)
        assert np.all((d >= 0.0) & (d <= 2.0 + 1e-12))
        assert np.array_equal(d, law_distances(b, a, SPEC2))
        assert np.all(law_distances(a, a, SPEC2) == 0.0)
        pairwise = [empirical_var_distance(histogram_law(la, SPEC2), histogram_law(lb, SPEC2))
                    for la, lb in zip(a, b)]
        assert d.tolist() == pairwise

    @settings(max_examples=30, deadline=None)
    @given(_SERIES_PAIR)
    def test_weighted_distance_symmetric_and_zero_on_identical(self, pair):
        a, b = pair
        V = LyapunovV(0.5, 1, 1)
        d = law_distances(a, b, SPEC2, V)
        assert np.all(d >= law_distances(a, b, SPEC2))  # V >= 1
        assert np.array_equal(d, law_distances(b, a, SPEC2, V))
        assert np.all(law_distances(a, a, SPEC2, V) == 0.0)

    def test_series_length_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="length"):
            law_distances([_law(rng, 5)], [_law(rng, 5), _law(rng, 5)], SPEC2)


class TestVDistance:
    def test_constant_weight_reduces_to_var(self):
        rng = np.random.default_rng(3)
        a = histogram_law(_law(rng, 200), SPEC2)
        b = histogram_law(_law(rng, 200), SPEC2)
        assert empirical_v_distance(a, b, None) == empirical_var_distance(a, b)

    def test_identical_laws(self):
        rng = np.random.default_rng(3)
        a = histogram_law(_law(rng, 200), SPEC2)
        assert empirical_v_distance(a, a, LyapunovV(1.0, 1, 1)) == 0.0

    def test_two_point_masses(self):
        V = LyapunovV(1.0, 1, 1)
        a = histogram_law(EmpiricalLaw([[-2.5]], [[0.5]]), SPEC2)
        b = histogram_law(EmpiricalLaw([[2.5]], [[-1.5]]), SPEC2)
        centers = SPEC2.centers()
        ca = centers[np.argmax(histogram_law(EmpiricalLaw([[-2.5]], [[0.5]]), SPEC2).masses)]
        cb = centers[np.argmax(histogram_law(EmpiricalLaw([[2.5]], [[-1.5]]), SPEC2).masses)]
        expect = V.value_points(ca[None])[0] + V.value_points(cb[None])[0]
        assert empirical_v_distance(a, b, V) == pytest.approx(expect)

    def test_dominates_var_distance_when_v_geq_one(self):
        V = LyapunovV(0.8, 1, 1)
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = histogram_law(_law(rng, 150), SPEC2)
            b = histogram_law(_law(rng, 150), SPEC2)
            assert empirical_v_distance(a, b, V) >= empirical_var_distance(a, b)


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 11)
        fit = fit_exponential_decay(t, 2.0 * np.exp(-t))
        assert fit.lam == pytest.approx(1.0)
        assert fit.prefactor == pytest.approx(2.0)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.verdict == "decay confirmed"

    def test_constant_series_no_decay(self):
        t = np.linspace(0.0, 5.0, 11)
        fit = fit_exponential_decay(t, np.full(11, 0.7))
        assert abs(fit.lam) < 1e-12
        assert fit.verdict == "no decay"

    def test_insufficient_signal(self):
        fit = fit_exponential_decay([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.01, 0.01],
                                    noise_floor=0.05)
        assert fit.verdict == "insufficient signal"

    def test_noisy_recovery_within_ten_percent(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 4.0, 20)
        lam = 0.8
        d = 1.5 * np.exp(-lam * t) * (1.0 + rng.uniform(-0.05, 0.05, t.size))
        fit = fit_exponential_decay(t, d)
        assert abs(fit.lam - lam) / lam < 0.10

    def test_fit_ignores_points_below_floor(self):
        t = np.linspace(0.0, 10.0, 21)
        d = 2.0 * np.exp(-t)
        plateau = np.maximum(d, 0.05)
        fit = fit_exponential_decay(t, plateau, noise_floor=0.06)
        assert np.all(plateau[fit.used] > 0.06)
        assert fit.lam == pytest.approx(1.0, rel=1e-6)

    def test_scalar_ou_decay_rate_band(self):
        # rate band [0.5, 1.5] established by a higher-resolution reference run
        co = scalar_ou_coefficients(1.0)
        hist = HistogramSpec([-1.0, -4.0], [1.0, 4.0], [2, 16], dim=2)
        cfg = SimConfig(T=8.0, h=2e-3, N=10_000, seed=42, hist=hist)
        s = tv_decay_experiment(cfg, co,
                                DiracInit(PhaseState([0.0], [2.0])),
                                DiracInit(PhaseState([0.0], [-2.0])),
                                np.arange(0.5, 8.01, 0.5))
        m = s.times >= 1.0
        fit = fit_exponential_decay(s.times[m], s.tv[m], noise_floor=s.noise_floor)
        assert fit.verdict == "decay confirmed"
        assert 0.5 <= fit.lam <= 1.5


class TestHEnvelope:
    def test_h_closed_form_arctan(self):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=1.0))
        assert H.value(1.0) == pytest.approx(np.pi / 4.0, abs=1e-10)

    def test_inverse_roundtrip(self):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=1.0))
        assert abs(H.inverse(H.value(5.0)) - 5.0) < 1e-8

    def test_inverse_clamps_nonpositive(self):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=1.0))
        assert H.inverse(0.0) == 0.0 and H.inverse(-3.0) == 0.0

    def test_linear_phi_rejected(self):
        with pytest.raises(ValueError, match="diverges at 0"):
            HTransform(PhiFamily("linear", 1.0))
        with pytest.raises(ValueError, match="diverges at 0"):
            h_envelope(PhiFamily("linear", 1.0), 2.0, 1.0, 1.0, [0.0, 1.0])

    def test_envelope_value_at_zero_and_clamped_tail(self):
        phi = PhiFamily("superlinear", 1.0, beta=1.0)
        v0, k, lam = 4.0, 2.0, 0.7
        H = HTransform(phi)
        t_clamp = k * H.value(v0)
        times = np.array([0.0, t_clamp, t_clamp + 1.0, t_clamp + 3.0])
        env = h_envelope(phi, v0, k, lam, times)
        assert env[0] == pytest.approx(k * (1.0 + v0))
        assert env[2] == pytest.approx(k * np.exp(-lam * times[2]), rel=1e-9)
        assert env[3] == pytest.approx(k * np.exp(-lam * times[3]), rel=1e-9)

    def test_envelope_nonincreasing(self):
        phi = PhiFamily("superlinear", 0.7, beta=0.5)
        times = np.linspace(0.0, 10.0, 60)
        env = h_envelope(phi, 9.0, 1.7, 0.4, times)
        assert np.all(np.diff(env) <= 1e-12)

    def test_fit_dominates_synthetic_curve(self):
        phi = PhiFamily("superlinear", 1.0, beta=1.0)
        times = np.linspace(0.25, 6.0, 24)
        curve = 5.0 * np.exp(-0.9 * times)
        fit = fit_h_envelope(times, curve, phi, v0=10.0)
        assert fit.dominated
        assert np.all(fit.envelope >= curve - 1e-9)

    def test_value_matches_arctan_over_24_decades(self):
        # quad over [0, r] returned -1e-6 for H(1e6) here; the closed form is arctan(r) / c0
        c0 = 0.7
        H = HTransform(PhiFamily("superlinear", c0, beta=1.0))
        r = np.geomspace(1e-12, 1e12, 481)
        assert np.max(np.abs(H.value(r) / (np.arctan(r) / c0) - 1.0)) <= 1e-14
        assert H.value(1e6) == pytest.approx(np.arctan(1e6) / c0, rel=1e-14)

    def test_scalar_and_array_calls_agree(self):
        H = HTransform(PhiFamily("superlinear", 1.3, beta=0.5))
        r = np.array([[0.0, 1e-3], [2.5, 1e7]])
        vals = H.value(r)
        assert vals.shape == r.shape and isinstance(H.value(2.5), float)
        assert [H.value(x) for x in r.ravel()] == vals.ravel().tolist()
        assert [H.inverse(w) for w in vals.ravel()] == H.inverse(vals).ravel().tolist()

    def test_inverse_out_of_reach(self):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=1.0))
        assert H.inverse(H.value(2.0**49)) == pytest.approx(2.0**49, rel=1e-3)
        with pytest.raises(ValueError, match="out of reach"):
            H.inverse(np.pi / 2.0 + 1e-9)

    def test_envelope_start_where_h_is_flat(self):
        # at beta = 3, H(1e6) equals H(2^49) in double precision; H^-1 alone returned 2^49
        phi = PhiFamily("superlinear", 1.0, beta=3.0)
        env = h_envelope(phi, 1e6, 2.0, 0.5, [0.0, 1e-12, 0.25])
        assert env[0] == 2.0 * (1.0 + 1e6)
        assert env[0] >= env[1] >= env[2]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1e4))
    def test_value_matches_closed_form_at_beta_two(self, s):
        # int_0^s dt / (1 + t^3)
        exact = (np.log((1.0 + s) ** 2 / (1.0 - s + s * s)) / 6.0
                 + np.arctan((2.0 * s - 1.0) / np.sqrt(3.0)) / np.sqrt(3.0)
                 + np.pi / (6.0 * np.sqrt(3.0)))
        H = HTransform(PhiFamily("superlinear", 1.0, beta=2.0))
        assert H.value(s) == pytest.approx(exact, rel=1e-13, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-8, 1e3), st.floats(0.05, 3.0), st.floats(0.1, 10.0))
    def test_inverse_undoes_value(self, r, beta, c0):
        H = HTransform(PhiFamily("superlinear", c0, beta=beta))
        h = H.value(r)
        # H^-1 is ill conditioned where H is flat: dr = dH Phi(r); on this
        # range H stays far enough below its limit for that to hold
        tol = 1e-13 * r + 1e-14 * h * c0 * (1.0 + r ** (1.0 + beta))
        assert abs(H.inverse(h) - r) <= tol

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2.0**49), st.floats(0.05, 4.0), st.floats(0.1, 10.0))
    def test_inverse_solves_h_equation_up_to_reach(self, r, beta, c0):
        H = HTransform(PhiFamily("superlinear", c0, beta=beta))
        h = H.value(r)
        assert abs(H.value(H.inverse(h)) - h) <= 1e-15 * h

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1e15), min_size=2, max_size=40), st.floats(0.05, 4.0))
    @example([1.0, 50.0, 50.0], 0.05)   # equal r in one batch must get equal H(r)
    def test_value_is_monotone(self, rs, beta):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=beta))
        rs = np.sort(rs)
        assert np.all(np.diff(H.value(rs)) >= 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1e15), min_size=1, max_size=40), st.floats(0.05, 4.0))
    @example([1.0, 50.0, 50.0], 0.05)
    def test_batch_value_equals_scalar_calls(self, rs, beta):
        H = HTransform(PhiFamily("superlinear", 1.0, beta=beta))
        batch = np.asarray(H.value(np.array(rs)))
        assert batch.tolist() == [float(H.value(r)) for r in rs]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1.0, 1e6), st.floats(0.1, 100.0), st.floats(0.01, 5.0),
           st.floats(0.1, 3.0), st.floats(0.1, 10.0))
    def test_envelope_nonincreasing_property(self, v0, k, lam, beta, c0):
        env = h_envelope(PhiFamily("superlinear", c0, beta), v0, k, lam, np.linspace(0.0, 20.0, 81))
        assert np.all(np.diff(env) <= 1e-12 * env[:-1])

    # c0, K from search_constants and k, lam from fit_h_envelope on the
    # benchmark's library op (perfbench/child.py), recorded before H was
    # tabulated and the shell norms were written in closed form
    GOLDEN = {
        1: (1.3800722948507065, 50.0, 4.33508552034572, 0.9472208607989222),
        2: (1.372513856685271, 50.0, 3.9607397269532094, 0.8318848457962611),
        3: (1.3643603401793876, 50.0, 4.389405362606049, 0.8217938533205119),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_constants_match_golden(self, seed):
        coeffs = confining_coefficients(ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=1.0), d=1)
        V = LyapunovV(1.0, 1, 1)
        samples = LogRadialSamples(r_max=50.0, n_radii=16, n_dirs=10, seed=seed)
        res = search_constants(coeffs, V, "superlinear", eps=0.1, samples=samples,
                               beta=0.5, k_cap=50.0)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        times = np.arange(0.25, 5.01, 0.25)
        amp = rng.uniform(5.0, 7.0)
        rate = rng.uniform(0.8, 1.0)
        curve = amp * np.exp(-rate * times) * np.exp(0.15 * rng.standard_normal(times.size))
        fit = fit_h_envelope(times, curve, PhiFamily("superlinear", res.c0, 0.5),
                             v0=float(V.value([3.0], [3.0])))
        got = (res.c0, res.K, fit.k, fit.lam)
        assert got == pytest.approx(self.GOLDEN[seed], rel=1e-10)


class TestMomentBound:
    def test_zero_dynamics_ratio_exactly_one(self):
        from kinsde.fields import zero_coefficients

        cfg = SimConfig(T=0.5, h=0.1, N=8, seed=0)
        ens = simulate_ensemble(cfg, zero_coefficients(),
                                DiracInit(PhaseState([1.0], [2.0])), store_paths=True)
        rep = moment_bound_check([ens], LyapunovV(1.0, 1, 1))
        assert rep.ratios[0] == 1.0
        assert rep.verdict == "bounded"

    def test_stable_langevin_band(self):
        co = linear_langevin_coefficients()
        V = LyapunovV(1.0, 1, 1)
        runs = []
        for x0 in (1.0, 3.0, 10.0):
            cfg = SimConfig(T=0.5, h=5e-3, N=2000, seed=3)
            runs.append(simulate_ensemble(cfg, co, DiracInit(PhaseState([x0], [0.0])),
                                          store_paths=True))
        rep = moment_bound_check(runs, V)
        assert rep.verdict == "bounded"
        assert rep.ratios.max() <= 2.0 * rep.ratios.min()

    def test_unstable_drift_negative_control(self):
        # confining drift sign flipped, superlinear: no common constant exists
        bad = build_coefficients(
            z1=lambda t, x, y: (1.0 + np.abs(x)) * x + y,
            z2=lambda t, x, y, law: -y,
            b=None, sigma=np.sqrt(2.0), d1=1, d2=1, growth="superlinear",
        )
        V = LyapunovV(1.0, 1, 1)
        runs = []
        for x0 in (1.0, 3.0, 10.0):
            cfg = SimConfig(T=0.5, h=5e-3, N=2000, seed=3, scheme="tamed")
            runs.append(simulate_ensemble(cfg, bad, DiracInit(PhaseState([x0], [0.0])),
                                          store_paths=True))
        rep = moment_bound_check(runs, V)
        assert rep.verdict == "unbounded"


class TestNoiseFloor:
    def test_floor_scales_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = bootstrap_noise_floor(_law(rng, 500), SPEC2, n_boot=60, seed=1)
        big = bootstrap_noise_floor(_law(rng, 8000), SPEC2, n_boot=60, seed=1)
        assert big < small
