import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinsde.cli import _parse_config, _sim_config
from kinsde.core import (
    AdmissiblePair,
    DiracInit,
    EmpiricalLaw,
    HistogramSpec,
    InputError,
    MeasureFlow,
    NormDivergedError,
    SimConfig,
    _percentiles,
    ball_lp_seminorm,
    localized_lpq_norm,
)
from kinsde.fields import build_coefficients, linear_langevin_coefficients, zero_coefficients
from kinsde.integrators import simulate_ensemble

DIRAC = DiracInit([0.0], [0.0])


class TestDiracInit:
    def test_basic(self):
        s = DiracInit([1.0, 2.0], [3.0])
        assert s.x.size == 2 and s.y.size == 1
        assert np.allclose(s.x, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DiracInit([np.nan], [0.0])
        with pytest.raises(ValueError):
            DiracInit([0.0], [np.inf])

    def test_refusals_keep_their_classes(self):
        # a non-finite point is a refused input (CLI exit 2), a non-flat one a caller's bug
        with pytest.raises(InputError, match="coordinates must be finite"):
            DiracInit([0.0], [np.nan])
        with pytest.raises(ValueError, match="x must be a flat vector, got shape"):
            DiracInit([[0.0, 1.0]], [0.0])
        with pytest.raises(ValueError, match="y must be a flat vector, got shape"):
            DiracInit([0.0], [[0.0], [1.0]])


class TestAdmissiblePair:
    def test_admissible_example(self):
        # d2=1, (4,4): 1/4 + 2/4 = 0.75 < 1
        pair = AdmissiblePair(4.0, 4.0, 1)
        assert pair.deficiency == pytest.approx(0.75)

    def test_violation_example(self):
        # d2=3, (3,3): 1 + 2/3 > 1
        with pytest.raises(ValueError):
            AdmissiblePair(3.0, 3.0, 3)

    def test_requires_p_q_above_two(self):
        with pytest.raises(ValueError):
            AdmissiblePair(2.0, 10.0, 1)

    def test_rejects_exactly_inadmissible_region(self):
        # construction succeeds iff d2/p + 2/q < 1, over a seeded sample
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = float(rng.uniform(2.01, 12.0))
            q = float(rng.uniform(2.01, 12.0))
            d2 = int(rng.integers(1, 5))
            ok = d2 / p + 2.0 / q < 1.0
            if ok:
                AdmissiblePair(p, q, d2)
            else:
                with pytest.raises(ValueError):
                    AdmissiblePair(p, q, d2)


class TestSimConfig:
    def test_config_with_comments(self):
        text = """
        # run setup
        T = 1.0
        h = 0.5   # coarse
        N = 10
        seed = 1
        """
        cfg = _sim_config(_parse_config(text))
        assert cfg.n_steps == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError, match="unknown key"):
            _parse_config("T = 1.0\nh = 0.5\nN = 1\nbogus = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            _parse_config("just words\n")

    def test_nonpositive_particle_count(self):
        with pytest.raises(ValueError, match="particle count"):
            SimConfig(T=1.0, h=0.1, N=0, seed=0)


class TestValidateConfig:
    """``SimConfig`` refuses a config whose fields do not fit together when it is built;
    ``simulate_ensemble`` refuses coefficients that do not fit the config."""

    def test_valid(self):
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0)
        assert cfg.hist.dim == 2 and cfg.n_steps == 10
        assert simulate_ensemble(cfg, linear_langevin_coefficients(), DIRAC).n_dead == 0

    def test_nonpositive_step(self):
        with pytest.raises(InputError, match="nonpositive step"):
            SimConfig(T=1.0, h=0.0, N=10, seed=0)

    def test_non_integral_horizon(self):
        with pytest.raises(InputError, match=re.escape("T/h = 3.3333333333333335 is not integral")):
            SimConfig(T=1.0, h=0.3, N=10, seed=0)

    @pytest.mark.parametrize("kw, message", [
        ({"T": 0.05}, "horizon T = 0.05 shorter than one step h = 0.1"),
        ({"T": 0.0}, "horizon T = 0.0 shorter than one step"),
        ({"hist": HistogramSpec(-1.0, 1.0, [8, 1], dim=2)},
         "hist.bins must be at least 2 on every axis"),
        ({"hist": HistogramSpec(-1.0, 1.0, 8, dim=3)},
         "histogram dimension 3 does not match d1 + d2 = 2"),
        ({"d2": 2, "m": 2}, "histogram dimension 2 does not match d1 + d2 = 3"),
        ({"scheme": "x"}, "unknown scheme 'x'"),
    ])
    def test_config_faults_refused_on_construction(self, kw, message):
        base = {"T": 1.0, "h": 0.1, "N": 10, "seed": 0, "hist": HistogramSpec(-1.0, 1.0, 8, dim=2)}
        with pytest.raises(InputError, match=re.escape(message)):
            SimConfig(**{**base, **kw})

    def test_dims_must_match_coefficients(self):
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0, d2=3, m=3)
        with pytest.raises(InputError, match=re.escape(
                "config dims (d1, d2, m) = (1, 3, 3) do not match coefficients (1, 1, 1)")):
            simulate_ensemble(cfg, zero_coefficients(1, 1, 1), DIRAC)

    def test_superlinear_needs_tamed(self):
        from kinsde.fields import ConfiningDrift, confining_coefficients

        co = confining_coefficients(ConfiningDrift(1.0, 0.0, 1.0, delta=1.0))
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0, scheme="euler")
        with pytest.raises(InputError, match="requires scheme = tamed"):
            simulate_ensemble(cfg, co, DIRAC)
        cfg2 = SimConfig(T=1.0, h=0.1, N=10, seed=0, scheme="tamed")
        assert simulate_ensemble(cfg2, co, DIRAC).n_dead == 0


class TestHistogramSpec:
    @pytest.mark.parametrize("bins", [8.7, [8, 2.5], np.nan, np.inf, 2.0**53])
    def test_bin_count_not_whole_refused(self, bins):
        with pytest.raises(InputError, match="bin counts must be whole numbers"):
            HistogramSpec(-1.0, 1.0, bins, dim=2)

    def test_integral_float_bin_count_accepted(self):
        assert HistogramSpec(-1.0, 1.0, [8.0, 3], dim=2).bins.tolist() == [8, 3]


class TestRecordSteps:
    def test_sorted_unique_steps(self):
        cfg = SimConfig(T=1.0, h=0.01, N=1, seed=0)
        steps = cfg.record_steps([1.0, 0.0, 0.5, 0.5, 0.30000000000000004])
        assert steps.tolist() == [0, 30, 50, 100]

    @pytest.mark.parametrize("times, message", [
        ([0.25], "0.25 is off the step grid h = 0.02"),
        ([0.0, 0.01], "0.01 is off the step grid"),
        ([2.0 + 0.02], "outside [0, T = 2.0]"),
        ([-0.02], "outside [0, T = 2.0]"),
        ([np.nan], "outside"),
    ])
    def test_off_grid_or_out_of_range_raises(self, times, message):
        cfg = SimConfig(T=2.0, h=0.02, N=1, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            cfg.record_steps(times)

    @pytest.mark.parametrize("rel, on_grid", [(5e-10, True), (-5e-10, True),
                                              (2e-9, False), (-2e-9, False)])
    def test_one_tolerance_for_horizon_and_record_times(self, rel, on_grid):
        # t / h = 100 (1 + rel): within 1e-9 relative of a whole step or not,
        # for the horizon T as for a record time
        t = 1.0 * (1.0 + rel)
        cfg = SimConfig(T=1.0, h=0.01, N=1, seed=0)
        if on_grid:
            assert SimConfig(T=t, h=0.01, N=1, seed=0).n_steps == 100
            assert cfg.record_steps([t]).tolist() == [100]
        else:
            with pytest.raises(InputError, match="is not integral"):
                SimConfig(T=t, h=0.01, N=1, seed=0)
            with pytest.raises(InputError, match="off the step grid"):
                cfg.record_steps([t])

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-3, 0.5), st.integers(0, 60), st.data())
    def test_equal_to_numpy_unique(self, h, K, data):
        # the steps np.unique gave, in its dtype and bytes, empty input included
        steps = np.array(data.draw(st.lists(st.integers(0, K), max_size=20)), dtype=float)
        cfg = SimConfig(T=K * h if K else h, h=h, N=1, seed=0)
        got = cfg.record_steps(steps * h)
        want = np.unique(np.round(steps * h / h).astype(int))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ties, signed zeros, infinities and NaN, next to ordinary values
SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                          st.floats(allow_nan=True, allow_infinity=True))


class TestPercentiles:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(SAMPLE_VALUES, min_size=1, max_size=500),
           st.lists(st.floats(0.0, 100.0), min_size=1, max_size=3))
    @example([0.0, -0.0, 0.0, -0.0], [95.0])
    @example([1.0, math.inf], [100.0, 97.5])
    @example([-math.inf, math.inf, 2.0], [50.0])
    @example([3.0, math.nan, 1.0], [2.5, 97.5])
    def test_equal_to_numpy_by_bytes(self, values, qs):
        a = np.array(values)
        with np.errstate(all="ignore"):
            want = np.percentile(a, qs)  # a list of q: numpy's array path
            want_one = np.percentile(a, qs[0])  # a float q: numpy's scalar path
        assert np.array(_percentiles(a, qs)).tobytes() == want.tobytes()
        assert np.float64(_percentiles(a, qs[:1])[0]).tobytes() == np.float64(want_one).tobytes()

    def test_input_left_as_it_is(self):
        a = np.array([3.0, 1.0, 2.0])
        assert _percentiles(a, [50.0]) == [2.0]
        assert a.tolist() == [3.0, 1.0, 2.0]


class TestMeasureFlow:
    CLOUDS = [EmpiricalLaw(np.full((1, 1), v), np.zeros((1, 1))) for v in (0.0, 1.0, 2.0)]

    def test_law_at_recorded_time(self):
        flow = MeasureFlow(np.array([0.0, 0.5, 1.0]), self.CLOUDS)
        assert [flow.law_at(t) for t in (0.0, 0.5, 1.0)] == self.CLOUDS

    @pytest.mark.parametrize("t", [0.4, 0.5 + 1e-12, 1.5, -0.5])
    def test_law_at_other_time_raises(self, t):
        flow = MeasureFlow(np.array([0.0, 0.5, 1.0]), self.CLOUDS)
        with pytest.raises(ValueError, match="no law at t"):
            flow.law_at(t)

    @pytest.mark.parametrize("times", [[0.0, 0.0, 1.0], [0.0, 1.0, 0.5], [0.0, np.nan, 1.0]])
    def test_times_must_increase_strictly(self, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            MeasureFlow(np.array(times), self.CLOUDS)


class TestEmpiricalLaw:
    def test_uniform_weights(self):
        law = EmpiricalLaw(np.zeros((4, 1)), np.ones((4, 1)))
        assert law.weights.sum() == pytest.approx(1.0)

    def test_step_states_held_as_they_are(self):
        # a law is built every step from the loop's float64 blocks: no copy, no
        # conversion, and one shared read-only weight array per cloud size
        x, y = np.zeros((3, 1)), np.ones((3, 2))
        law = EmpiricalLaw(x, y)
        assert law.x is x and law.y is y
        assert law.weights is EmpiricalLaw(y[:, :1], x).weights
        assert law.weights.tobytes() == np.full(3, 1.0 / 3).tobytes()
        assert not law.weights.flags.writeable
        ints = EmpiricalLaw([[1], [2]], np.array([[3], [4]]))  # converted to float64
        assert ints.x.dtype == ints.y.dtype == np.float64 and ints.y.tolist() == [[3.0], [4.0]]

    def test_weight_normalization(self):
        law = EmpiricalLaw(np.zeros((2, 1)), np.ones((2, 1)), weights=[1.0, 3.0])
        assert np.allclose(law.weights, [0.25, 0.75])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            EmpiricalLaw(np.zeros((2, 1)), np.ones((2, 1)), weights=[1.0, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            EmpiricalLaw(np.zeros((2, 1)), np.ones((2, 1)), weights=[bad, 1.0])


# Entries at and beyond the ends of the float range, and ordinary ones.
SIGMA_ENTRIES = st.one_of(
    st.sampled_from([0.0, 1e-300, -1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-10.0, 10.0),
)


@st.composite
def sigma_matrices(draw):
    """A (d2, m) matrix, d2 and m in 1..3; sometimes one row a multiple of another."""
    d2, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    sig = np.array(draw(st.lists(SIGMA_ENTRIES, min_size=d2 * m, max_size=d2 * m)))
    sig = sig.reshape(d2, m)
    if d2 > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(d2)))[:2]
        with np.errstate(all="ignore"):
            sig[j] = draw(st.sampled_from([0.0, 1.0, -2.0, 1e-300, 1e300])) * sig[i]
    return sig


def accepted_sigma(sig: np.ndarray) -> bool:
    """The rule: all zeros, or sigma sigma* invertible with ||sigma||_2 and
    ||(sigma sigma*)^-1||_2 finite and greater than 0."""
    if not np.any(sig):
        return True
    with np.errstate(all="ignore"):
        try:
            inv = np.linalg.inv(sig @ sig.T)
            norms = (np.linalg.norm(sig, 2), np.linalg.norm(inv, 2))
        except np.linalg.LinAlgError:
            return False
    return all(0.0 < v < math.inf for v in norms)


class TestSigmaCheck:
    @settings(max_examples=300, deadline=None)
    @given(sigma_matrices())
    @example(np.zeros((2, 3)))
    @example(np.eye(3))
    @example(np.array([[1.0], [2.0]]))          # sigma sigma* exactly singular
    @example(np.array([[1.0, 1.0], [1.0, 1.0]]))
    @example(np.array([[1e300]]))               # sigma sigma* overflows
    @example(np.array([[1e-300]]))              # sigma sigma* underflows to 0
    @example(np.array([[math.nan]]))
    @example(np.array([[math.inf, 0.0], [0.0, 1.0]]))
    def test_constant_sigma_zero_or_nondegenerate(self, sig):
        d2, m = sig.shape
        build = lambda: build_coefficients(None, None, None, sig, d1=1, d2=d2, m=m)
        if accepted_sigma(sig):
            assert np.array_equal(build().sigma, sig, equal_nan=True)
        else:
            with pytest.raises(InputError, match="sigma"):
                build()

    def test_callable_sigma_is_taken_unchecked(self):
        co = build_coefficients(None, None, None, lambda t, y: np.zeros((y.shape[0], 1, 1)), 1, 1)
        assert co.apply_sigma(0.0, np.ones((2, 1)), np.ones((2, 1))).shape == (2, 1)


class TestLocalizedNorm:
    def test_constant_function_closed_form(self):
        # f == 1, d2 = 1, T = 1, (p, q) = (4, 4): norm = 2^(1/4)
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.ones(pts.shape[0])
        val = localized_lpq_norm(f, pair, T=1.0, centers=np.array([[0.0], [1.5]]),
                                 n_time=9, n_ball=100)
        assert val == pytest.approx(2.0 ** 0.25, rel=1e-12)

    def test_zero_function(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.zeros(pts.shape[0])
        assert localized_lpq_norm(f, pair, T=1.0, centers=np.zeros((1, 1))) == 0.0

    def test_quadrature_against_singular_closed_form(self):
        # integral of |y|^(-1/2) over [-1, 1] is 4; p = 1 recovers it
        f = lambda t, pts: np.abs(pts[:, 0]) ** -0.5
        val = ball_lp_seminorm(f, 0.0, np.array([0.0]), p=1.0, n_per_axis=200000)
        assert val == pytest.approx(4.0, rel=5e-3)

    def test_positive_homogeneity(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.exp(-pts[:, 0] ** 2) * (1.0 + t)
        cf = lambda t, pts: 3.5 * f(t, pts)
        centers = np.linspace(-2.0, 2.0, 5)[:, None]
        a = localized_lpq_norm(f, pair, T=1.0, centers=centers, n_time=9, n_ball=60)
        b = localized_lpq_norm(cf, pair, T=1.0, centers=centers, n_time=9, n_ball=60)
        assert b == pytest.approx(3.5 * a, abs=1e-10)

    def test_triangle_inequality(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.exp(-pts[:, 0] ** 2)
        g = lambda t, pts: np.abs(np.sin(pts[:, 0]))
        fg = lambda t, pts: f(t, pts) + g(t, pts)
        centers = np.linspace(-2.0, 2.0, 5)[:, None]
        kw = dict(T=1.0, centers=centers, n_time=9, n_ball=60)
        nf = localized_lpq_norm(f, pair, **kw)
        ng = localized_lpq_norm(g, pair, **kw)
        nfg = localized_lpq_norm(fg, pair, **kw)
        assert nfg <= nf + ng + 1e-10

    def test_refinement_monotone_up_to_quadrature_error(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.exp(-pts[:, 0] ** 2)
        centers = np.array([[0.0]])
        coarse = localized_lpq_norm(f, pair, T=1.0, centers=centers, n_time=9, n_ball=20)
        fine = localized_lpq_norm(f, pair, T=1.0, centers=centers, n_time=17, n_ball=80)
        assert fine >= coarse - 1e-3

    def test_vector_field_uses_magnitude(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.stack([pts[:, 0] * 0 + 0.6, pts[:, 0] * 0 + 0.8], axis=1)
        val = localized_lpq_norm(f, pair, T=1.0, centers=np.array([[0.0]]), n_time=9, n_ball=100)
        assert val == pytest.approx(2.0 ** 0.25, rel=1e-12)

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_infinite_p_is_the_max_over_the_ball(self, a):
        # (int_0^1 ||a||_inf^4 dt)^(1/4) = a; and p = q = inf gives a too
        f = lambda t, pts: np.full(pts.shape[0], a)
        kw = dict(T=1.0, centers=np.array([[0.0], [1.5]]), n_time=9, n_ball=100)
        assert localized_lpq_norm(f, AdmissiblePair(math.inf, 4.0, 1), **kw) == pytest.approx(
            a, rel=1e-12)
        assert localized_lpq_norm(f, AdmissiblePair(math.inf, math.inf, 1), **kw) == a
        bump = lambda t, pts: 1.0 - np.abs(pts[:, 0])
        top = ball_lp_seminorm(bump, 0.0, np.array([0.0]), math.inf, n_per_axis=10)
        assert top == pytest.approx(0.9, rel=1e-12)  # the midpoints nearest 0 sit at +-0.1

    @pytest.mark.parametrize("a", [0.5, 3.0])
    def test_infinite_q_is_the_max_over_time(self, a):
        # the ball L^4 norm of a on [-1, 1] is a 2^(1/4), whatever T is
        f = lambda t, pts: np.full(pts.shape[0], a)
        val = localized_lpq_norm(f, AdmissiblePair(4.0, math.inf, 1), T=2.0,
                                 centers=np.array([[0.0]]), n_time=9, n_ball=100)
        assert val == pytest.approx(a * 2.0 ** 0.25, rel=1e-12)
        grow = lambda t, pts: np.full(pts.shape[0], a * (1.0 + t))
        val = localized_lpq_norm(grow, AdmissiblePair(math.inf, math.inf, 1), T=2.0,
                                 centers=np.array([[0.0]]), n_time=9, n_ball=100)
        assert val == pytest.approx(3.0 * a, rel=1e-12)

    def test_divergence_reported_with_center(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.full(pts.shape[0], np.inf)
        with pytest.raises(NormDivergedError) as exc:
            localized_lpq_norm(f, pair, T=1.0, centers=np.array([[2.0]]), n_time=5, n_ball=20)
        assert np.allclose(exc.value.center, [2.0])
