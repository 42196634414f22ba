import re

import numpy as np
import pytest

from kinsde.cli import ConfigError, _parse_config, _sim_config
from kinsde.core import (
    AdmissiblePair,
    EmpiricalLaw,
    MeasureFlow,
    NormDivergedError,
    PhaseState,
    SimConfig,
    ball_lp_seminorm,
    localized_lpq_norm,
    validate_config,
)
from kinsde.fields import linear_langevin_coefficients, zero_coefficients


class TestPhaseState:
    def test_basic(self):
        s = PhaseState([1.0, 2.0], [3.0])
        assert s.d1 == 2 and s.d2 == 1
        assert np.allclose(s.x, [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseState([np.nan], [0.0])
        with pytest.raises(ValueError):
            PhaseState([0.0], [np.inf])


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
        with pytest.raises(ConfigError, match="unknown key"):
            _parse_config("T = 1.0\nh = 0.5\nN = 1\nbogus = 3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            _parse_config("just words\n")

    def test_nonpositive_particle_count(self):
        with pytest.raises(ValueError, match="particle count"):
            SimConfig(T=1.0, h=0.1, N=0, seed=0)


class TestValidateConfig:
    def test_valid(self):
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0)
        assert validate_config(cfg, linear_langevin_coefficients()) == []

    def test_nonpositive_step(self):
        with pytest.raises(ValueError, match="nonpositive step"):
            SimConfig(T=1.0, h=0.0, N=10, seed=0)

    def test_non_integral_horizon(self):
        cfg = SimConfig(T=1.0, h=0.3, N=10, seed=0)
        bad = validate_config(cfg, linear_langevin_coefficients())
        assert any("not integral" in b for b in bad)

    def test_admissibility_of_supplied_pairs(self):
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0, d2=3, m=3)
        bad = validate_config(cfg, zero_coefficients(1, 3, 3), pairs=[(3.0, 3.0)])
        assert any("inadmissible" in b for b in bad)
        assert validate_config(cfg, zero_coefficients(1, 3, 3), pairs=[(8.0, 8.0)]) == []

    def test_superlinear_needs_tamed(self):
        from kinsde.fields import ConfiningDrift, confining_coefficients

        co = confining_coefficients(ConfiningDrift(1.0, 0.0, 1.0, delta=1.0))
        cfg = SimConfig(T=1.0, h=0.1, N=10, seed=0, scheme="euler")
        assert any("tamed" in b for b in validate_config(cfg, co))
        cfg2 = SimConfig(T=1.0, h=0.1, N=10, seed=0, scheme="tamed")
        assert validate_config(cfg2, co) == []


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
        bad = validate_config(SimConfig(T=t, h=0.01, N=1, seed=0), linear_langevin_coefficients())
        assert (bad == []) == on_grid
        cfg = SimConfig(T=1.0, h=0.01, N=1, seed=0)
        if on_grid:
            assert cfg.record_steps([t]).tolist() == [100]
        else:
            with pytest.raises(ValueError, match="off the step grid"):
                cfg.record_steps([t])


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

    def test_divergence_reported_with_center(self):
        pair = AdmissiblePair(4.0, 4.0, 1)
        f = lambda t, pts: np.full(pts.shape[0], np.inf)
        with pytest.raises(NormDivergedError) as exc:
            localized_lpq_norm(f, pair, T=1.0, centers=np.array([[2.0]]), n_time=5, n_ball=20)
        assert np.allclose(exc.value.center, [2.0])
