from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinsde.zvonkin as zvonkin
from kinsde.cli import main
from kinsde.core import DiracInit, HistogramSpec, PhaseState, SimConfig
from kinsde.fields import ConfiningDrift, RieszDrift, build_coefficients
from kinsde.integrators import step_arrays
from kinsde.zvonkin import (
    OutOfTransformDomainError,
    SmallnessNotAchievedError,
    ZvonkinSolution,
    _KnotTables,
    equivalence_experiment,
    lambda_sweep,
    solve_resolvent_1d,
    transform_coefficients,
)

ROOT = Path(__file__).resolve().parents[1]


def riesz_scalar(eta=1e-4, alpha=0.5, w=1.0):
    rz = RieszDrift([(0.0, w)], alpha=alpha, eta_sing=eta)
    return lambda yy: rz(yy[:, None])[:, 0]


def zigzag_solution(n=41, L=2.0):
    """u alternates +-0.6 dy in the interior: max |u'| is only 0.3 by central
    differences, yet each other step of Theta = y + u goes down by 0.2 dy."""
    y = np.linspace(-L, L, n)
    dy = y[1] - y[0]
    u = np.zeros(n)
    u[2:-2] = 0.6 * dy * (-1.0) ** np.arange(2, n - 2)
    du = np.gradient(u, dy, edge_order=2)
    return ZvonkinSolution(grid=y, u=u, du=du, d2u=np.zeros(n), lam=1.0, residual=0.0)


@st.composite
def solutions_and_queries(draw):
    """A hand-built solution on strictly increasing knots (uniform, or with
    gaps up to 1e4 times apart) whose Theta table is increasing, and queries
    at both tables' knots, their nextafter neighbours, beyond both ends and
    at NaN, plus uniform draws."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = draw(st.floats(-100.0, 100.0))
    scale = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    ratio = draw(st.sampled_from([0.0, 1.0, 1e2, 1e4]))
    if ratio == 0.0:
        grid = np.linspace(x0, x0 + scale * (n - 1), n)
    else:
        gaps = scale * (1.0 + ratio * rng.random(n - 1) ** 4)
        grid = x0 + np.concatenate([[0.0], np.cumsum(gaps)])
    gap = np.diff(grid).min()
    u = 0.3 * gap * rng.uniform(-1.0, 1.0, n)
    u[rng.random(n) < 0.2] = 0.0    # exact zeros put -0.0 into the -u table
    u[[0, -1]] = 0.0
    du = rng.uniform(-0.99, 0.99, n)
    sol = ZvonkinSolution(grid=grid, u=u, du=du, d2u=np.zeros(n), lam=1.0, residual=0.0)
    knots = np.concatenate([grid, sol.theta_values])
    q = np.concatenate([
        knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
        [grid[0] - 1.0, grid[-1] + 1.0, -np.inf, np.inf, np.nan],
        rng.uniform(grid[0] - scale, grid[-1] + scale, 50),
    ])
    return sol, q


def same_bits(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestKnotTables:
    @settings(max_examples=300, deadline=None)
    @given(solutions_and_queries())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lookups_equal_np_interp(self, case):
        sol, q = case
        tv = sol.theta_values
        finite = q[~np.isnan(q)]
        for x in (sol.grid, tv):
            assert np.array_equal(_KnotTables(x).index(finite),
                                  np.searchsorted(x, finite, "right") - 1)
        assert same_bits(sol.theta(q), q + np.interp(q, sol.grid, sol.u))
        assert same_bits(sol.theta_prime(q), 1.0 + np.interp(q, sol.grid, sol.du))
        assert same_bits(sol.u_at(q), np.interp(q, sol.grid, sol.u))
        tq = np.clip(q, tv[0], tv[-1])
        assert same_bits(sol.theta_inv(q, clamp=True), tq + np.interp(tq, tv, -sol.u))
        rt = np.max(np.abs(sol.theta_inv(sol.theta(sol.grid)) - sol.grid))
        assert rt <= 1e-12 * max(1.0, np.max(np.abs(sol.grid)))

    def test_non_increasing_knots_rejected(self):
        for x in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="strictly increasing"):
                _KnotTables(np.array(x))


class TestResolventSolve:
    def test_zero_rhs_gives_exact_zero(self):
        sol = solve_resolvent_1d(0.0, 1.0, lam=1.0, L=5.0, n=201)
        assert np.max(np.abs(sol.u)) < 1e-12
        assert np.max(np.abs(sol.du)) < 1e-12
        assert np.array_equal(sol.theta(sol.grid), sol.grid)

    def test_constant_b_closed_form_interior(self):
        # u = c / lam solves the equation away from the Dirichlet layer
        for lam in (1.0, 4.0, 20.0):
            L = 10.0 * max(1.0, 1.0 / lam)
            sol = solve_resolvent_1d(1.0, 1.0, lam=lam, L=L, n=2001)
            mid = sol.u[sol.grid.size // 2]
            assert abs(mid - 1.0 / lam) < 1e-3

    def test_residual_small(self):
        sol = solve_resolvent_1d(riesz_scalar(), 1.0, lam=50.0, L=8.0, n=1501)
        assert sol.residual < 1e-8 * max(1.0, 1e4 ** 0.5)

    def test_second_order_convergence_manufactured_solution(self):
        # pick u_m, back out the b that makes it the exact solution
        lam = 2.0
        u_m = lambda y: 0.3 * np.exp(-(y**2))
        du_m = lambda y: -0.6 * y * np.exp(-(y**2))
        d2u_m = lambda y: (1.2 * y**2 - 0.6) * np.exp(-(y**2))

        def b_fun(y):
            return (lam * u_m(y) - 0.5 * d2u_m(y)) / (1.0 + du_m(y))

        errs = []
        for n in (401, 801, 1601):
            sol = solve_resolvent_1d(b_fun, 1.0, lam=lam, L=8.0, n=n)
            errs.append(np.max(np.abs(sol.u - u_m(sol.grid))))
        assert 2.5 < errs[0] / errs[1] < 6.0
        assert 2.5 < errs[1] / errs[2] < 6.0

    def test_boundary_truncation_error_shrinks_with_l(self):
        # the Dirichlet truncation error at the center decays with the
        # interval half-width, quantified by an L-doubling study
        errs = []
        for L in (3.0, 6.0, 12.0):
            n = int(400 * L) + 1
            sol = solve_resolvent_1d(1.0, 1.0, lam=2.0, L=L, n=n)
            errs.append(abs(sol.u[sol.grid.size // 2] - 0.5))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_riesz_bound_decreases_with_lambda(self):
        b = riesz_scalar()
        bounds = [solve_resolvent_1d(b, 1.0, lam, 10.0, 2001).sup_bound
                  for lam in (50.0, 200.0, 800.0)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_degenerate_sigma_rejected(self):
        from kinsde.zvonkin import DegenerateDiscretizationError

        with pytest.raises(DegenerateDiscretizationError):
            solve_resolvent_1d(1.0, 0.0, lam=1.0, L=5.0, n=101)


class TestLambdaSweep:
    def test_zero_b_succeeds_immediately(self):
        sol = lambda_sweep(0.0, 1.0, eps_target=0.5, L=5.0, n=201)
        assert sol.lam == 1.0
        assert sol.sup_bound == 0.0

    def test_constant_b_needs_moderate_lambda(self):
        sol = lambda_sweep(1.0, 1.0, eps_target=0.1, L=12.0, n=2001)
        assert sol.sup_bound < 0.1
        assert sol.lam >= 16.0

    def test_monotone_difficulty(self):
        easy = lambda_sweep(1.0, 1.0, eps_target=0.99, L=12.0, n=2001)
        hard = lambda_sweep(1.0, 1.0, eps_target=0.01, L=12.0, n=2001)
        assert easy.lam < hard.lam

    def test_cap_reached_raises(self):
        # a huge drift cannot be tamed below the target at this resolution
        with pytest.raises(SmallnessNotAchievedError, match="smallness not achieved"):
            lambda_sweep(1e9, 1.0, eps_target=1e-3, L=4.0, n=101)


class TestTransform:
    def _coeffs(self, with_b=True):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        b = (lambda t, y: np.ones_like(y)) if with_b else None
        return build_coefficients(
            z1=lambda t, x, y: drift.z1(x, y),
            z2=lambda t, x, y, law: drift.z2(x, y),
            b=b, sigma=1.0, d1=1, d2=1,
        )

    def test_identity_transform_is_pointwise_identity(self):
        sol = lambda_sweep(0.0, 1.0, eps_target=0.5, L=6.0, n=301)
        co = self._coeffs(with_b=False)
        tc = transform_coefficients(sol, co)
        x = np.array([[0.7], [-0.2]])
        y = np.array([[1.3], [0.4]])
        assert np.array_equal(tc.z1(0.0, x, y), co.z1(0.0, x, y))
        assert np.array_equal(tc.z2(0.0, x, y, None), co.z2(0.0, x, y, None))
        dw = np.array([[0.5], [-0.1]])
        assert np.array_equal(tc.apply_sigma(0.0, y, dw), co.apply_sigma(0.0, y, dw))

    def test_constant_b_transform_closed_form(self):
        # u = c/lam: Theta shifts by c/lam, grad Theta = 1, so the mapped
        # drift is Z2(x, y - c/lam) + c and sigma is shifted unchanged
        lam = 20.0
        sol = solve_resolvent_1d(1.0, 1.0, lam=lam, L=12.0, n=4001)
        co = self._coeffs(with_b=True)
        tc = transform_coefficients(sol, co)
        shift = 1.0 / lam
        ty = np.array([[0.8], [2.0]])
        x = np.zeros((2, 1))
        expect = co.z2(0.0, x, ty - shift, None) + 1.0
        assert np.allclose(tc.z2(0.0, x, ty, None), expect, atol=1e-4)
        assert tc.b is None

    def test_inverse_roundtrip_on_grid(self):
        # the second solution is the one configs/zvonkin_riesz.cfg transforms with
        for sol in (solve_resolvent_1d(riesz_scalar(), 1.0, lam=200.0, L=8.0, n=2001),
                    lambda_sweep(riesz_scalar(), 1.0, eps_target=0.1, L=12.0, n=4001)):
            assert sol.invertible
            rt = sol.theta_inv(sol.theta(sol.grid))
            assert np.max(np.abs(rt - sol.grid)) <= 1e-12

    def test_theta_strictly_increasing(self):
        sol = solve_resolvent_1d(riesz_scalar(), 1.0, lam=100.0, L=8.0, n=2001)
        assert sol.invertible
        assert np.min(np.diff(sol.theta_values)) > 0.0

    def test_out_of_domain_refused(self):
        sol = solve_resolvent_1d(1.0, 1.0, lam=20.0, L=4.0, n=401)
        with pytest.raises(OutOfTransformDomainError, match="out of transform domain"):
            sol.theta_inv(np.array([100.0]))

    def test_non_invertible_solution_refused(self):
        sol = solve_resolvent_1d(8.0, 1.0, lam=1.0, L=12.0, n=2001)
        assert not sol.invertible
        with pytest.raises(OutOfTransformDomainError, match="diffeomorphism"):
            transform_coefficients(sol, self._coeffs())

    def test_decreasing_theta_table_is_not_invertible(self):
        sol = zigzag_solution()
        assert np.max(np.abs(sol.du)) == pytest.approx(0.3)
        assert np.min(np.diff(sol.theta_values)) < 0.0
        assert not sol.invertible
        with pytest.raises(OutOfTransformDomainError, match="not invertible"):
            sol.theta_inv(sol.theta(sol.grid))
        with pytest.raises(OutOfTransformDomainError, match="diffeomorphism"):
            transform_coefficients(sol, self._coeffs())

    def test_non_invertible_solution_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(zvonkin, "lambda_sweep", lambda *args: zigzag_solution())
        cfg = tmp_path / "z.cfg"
        cfg.write_text((ROOT / "configs" / "zvonkin_riesz.cfg").read_text()
                       .replace("N = 10000", "N = 100").replace("T = 1.0", "T = 0.01"))
        assert main(["zvonkin", str(cfg), "--out", str(tmp_path)]) == 3
        assert "not a diffeomorphism" in capsys.readouterr().err

    def test_clamp_hits_counted_once_per_particle_step(self):
        sol = solve_resolvent_1d(1.0, 1.0, lam=20.0, L=4.0, n=401)
        hits: list = []
        tc = transform_coefficients(sol, self._coeffs(), clamp=True, out_hits=hits)
        y = np.zeros((8, 1))
        y[:5] = 100.0
        step_arrays(tc, 0.0, 0.01, np.zeros((8, 1)), y, None, np.full((8, 1), 0.1), False)
        assert hits == [5]


class TestEquivalence:
    def test_zero_b_is_exactly_equal(self):
        co = self_coeffs = build_coefficients(
            z1=lambda t, x, y: y.copy(),
            z2=lambda t, x, y, law: -x - y,
            b=None, sigma=1.0, d1=1, d2=1,
        )
        cfg = SimConfig(T=0.5, h=0.01, N=2000, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        rep = equivalence_experiment(co, cfg, DiracInit(PhaseState([0.0], [0.0])),
                                     L=10.0, n_grid=801)
        assert rep.tv == 0.0
        assert rep.verdict == "equivalent"

    def test_riesz_b_tv_shrinks_under_step_refinement(self):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-4)
        co = build_coefficients(
            z1=lambda t, x, y: drift.z1(x, y),
            z2=lambda t, x, y, law: drift.z2(x, y),
            b=lambda t, y: rz(y),
            sigma=1.0, d1=1, d2=1,
        )
        hist = HistogramSpec(-6.0, 6.0, 12, dim=2)
        init = DiracInit(PhaseState([0.0], [0.0]))
        tvs = {}
        for h in (2e-3, 1e-3):
            cfg = SimConfig(T=1.0, h=h, N=4000, seed=17, hist=hist)
            rep = equivalence_experiment(co, cfg, init, L=12.0, n_grid=2001)
            assert rep.verdict == "equivalent"
            tvs[h] = (rep.tv, rep.noise_floor)
        # coupling error shrinks with the step; allow half a floor of noise
        assert tvs[1e-3][0] <= tvs[2e-3][0] + 0.5 * tvs[2e-3][1]

    def test_constant_b_equivalent(self):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        co = build_coefficients(
            z1=lambda t, x, y: drift.z1(x, y),
            z2=lambda t, x, y, law: drift.z2(x, y),
            b=lambda t, y: np.ones_like(y),
            sigma=1.0, d1=1, d2=1,
        )
        cfg = SimConfig(T=1.0, h=2e-3, N=4000, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        rep = equivalence_experiment(co, cfg, DiracInit(PhaseState([0.0], [0.0])),
                                     L=12.0, n_grid=2001)
        assert rep.verdict == "equivalent"
        assert rep.tv < 3.0 * rep.noise_floor
        assert rep.out_of_domain_fraction <= 1e-3
        # the report carries the resolvent solution the experiment transformed with
        sol = lambda_sweep(1.0, 1.0, 0.1, 12.0, 2001)
        assert rep.solution.lam == sol.lam
        assert np.array_equal(rep.solution.u, sol.u)
