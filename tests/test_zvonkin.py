import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded

import kinsde.zvonkin as zvonkin
from kinsde.cli import main
from kinsde.core import DiracInit, HistogramSpec, InputError, NumericError, SimConfig
from kinsde.fields import ConfiningDrift, RieszDrift, build_coefficients
from kinsde.integrators import drift_difference_xi, step_arrays
from kinsde.zvonkin import (
    ZvonkinSolution,
    _KnotTables,
    _solve_tridiagonal,
    equivalence_experiment,
    lambda_sweep,
    solve_resolvent_1d,
    transform_coefficients,
)

ROOT = Path(__file__).resolve().parents[1]


def riesz_scalar(eta=1e-4, alpha=0.5, w=1.0):
    rz = RieszDrift([(0.0, w)], alpha=alpha, eta_sing=eta)
    return lambda yy: rz(0.0, yy[:, None])[:, 0]


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
        u, du = sol._on_grid(q)
        assert same_bits(u, np.interp(q, sol.grid, sol.u))
        assert same_bits(du, np.interp(q, sol.grid, sol.du))
        tq = np.clip(q, tv[0], tv[-1])
        assert same_bits(sol.theta_inv(q, hits=[]), tq + np.interp(tq, tv, -sol.u))
        rt = np.max(np.abs(sol.theta_inv(sol.theta(sol.grid)) - sol.grid))
        assert rt <= 1e-12 * max(1.0, np.max(np.abs(sol.grid)))

    def test_non_increasing_knots_rejected(self):
        for x in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0], [0.0, np.inf]):
            with pytest.raises(ValueError, match="strictly increasing"):
                _KnotTables(np.array(x))


@st.composite
def tridiagonal_systems(draw):
    """(dl, d, du, b) of size 2-300.  Each row's pivot is drawn either diagonally
    dominant (no interchange) or below |dl| (an interchange), or left as drawn."""
    n = draw(st.integers(2, 300))
    vals = st.floats(-1e3, 1e3, allow_subnormal=False)
    dl, du = (draw(hnp.arrays(float, n - 1, elements=vals)) for _ in range(2))
    d, b = (draw(hnp.arrays(float, n, elements=vals)) for _ in range(2))
    kind = draw(hnp.arrays(np.int8, n, elements=st.integers(0, 2)))
    off = np.abs(np.append(dl, 0.0)) + np.abs(np.append(0.0, du))
    d = np.where(kind == 1, np.copysign(off + 1.0, d), d)
    d = np.where(kind == 2, 1e-3 * np.append(dl, 1.0), d)
    return dl, d, du, b


class TestTridiagonalSolve:
    @settings(max_examples=200, deadline=None)
    @given(tridiagonal_systems())
    def test_equals_lapack_gtsv(self, system):
        dl, d, du, b = system
        ab = np.zeros((3, d.size))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        try:
            ref = solve_banded((1, 1), ab, b)
        except np.linalg.LinAlgError:
            with pytest.raises(NumericError, match="zero pivot"):
                _solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), b.tolist())
            return
        got = np.array(_solve_tridiagonal(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dl, d, du", [([0.0], [0.0, 1.0], [1.0]),   # first pivot
                                           ([1.0], [1.0, 1.0], [1.0]),   # last pivot
                                           ([0.0, 0.0], [1.0, 0.0, 1.0], [2.0, 3.0]),
                                           ([0.0], [np.nan, 1.0], [1.0])])  # NaN over 0
    def test_zero_pivot_raises(self, dl, d, du):
        with pytest.raises(NumericError, match="zero pivot"):
            _solve_tridiagonal(dl, d, du, [1.0] * len(d))


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
        with pytest.raises(NumericError):
            solve_resolvent_1d(1.0, 0.0, lam=1.0, L=5.0, n=101)

    def test_drift_not_finite_on_the_grid_is_numeric(self):
        # NaN at y = -0.5 and a zero sub-diagonal next to it: a NaN over 0 in the solve
        with pytest.raises(NumericError):
            solve_resolvent_1d(lambda y: np.where(y == -0.5, np.nan, 2.0), 1.0, 1.0, 1.0, 5)

    @pytest.mark.parametrize("L", [1e-160, 1e-300])
    def test_grid_step_whose_square_underflows_rejected(self, L):
        with pytest.raises(InputError, match="its square underflows"):
            solve_resolvent_1d(1.0, 1.0, lam=1.0, L=L, n=4001)


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
        with pytest.raises(NumericError, match="smallness not achieved"):
            lambda_sweep(1e9, 1.0, eps_target=1e-3, L=4.0, n=101)


class TestTransform:
    def _coeffs(self, with_b=True):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        b = (lambda t, y: np.ones_like(y)) if with_b else None
        return build_coefficients(
            z1=drift.z1,
            z2=drift.z2,
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
        with pytest.raises(NumericError, match="out of transform domain"):
            sol.theta_inv(np.array([100.0]))

    def test_non_invertible_solution_refused(self):
        sol = solve_resolvent_1d(8.0, 1.0, lam=1.0, L=12.0, n=2001)
        assert not sol.invertible
        with pytest.raises(NumericError, match="diffeomorphism"):
            transform_coefficients(sol, self._coeffs())

    def test_decreasing_theta_table_is_not_invertible(self):
        sol = zigzag_solution()
        assert np.max(np.abs(sol.du)) == pytest.approx(0.3)
        assert np.min(np.diff(sol.theta_values)) < 0.0
        assert not sol.invertible
        with pytest.raises(NumericError, match="not invertible"):
            sol.theta_inv(sol.theta(sol.grid))
        with pytest.raises(NumericError, match="diffeomorphism"):
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
        tc = transform_coefficients(sol, self._coeffs(), hits=hits)
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
        rep = equivalence_experiment(co, cfg, DiracInit([0.0], [0.0]),
                                     L=10.0, n_grid=801)
        assert rep.tv == 0.0
        assert rep.verdict == "equivalent"

    def test_riesz_b_tv_shrinks_under_step_refinement(self):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-4)
        co = build_coefficients(
            z1=drift.z1,
            z2=drift.z2,
            b=rz,
            sigma=1.0, d1=1, d2=1,
        )
        hist = HistogramSpec(-6.0, 6.0, 12, dim=2)
        init = DiracInit([0.0], [0.0])
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
            z1=drift.z1,
            z2=drift.z2,
            b=lambda t, y: np.ones_like(y),
            sigma=1.0, d1=1, d2=1,
        )
        cfg = SimConfig(T=1.0, h=2e-3, N=4000, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        rep = equivalence_experiment(co, cfg, DiracInit([0.0], [0.0]),
                                     L=12.0, n_grid=2001)
        assert rep.verdict == "equivalent"
        assert rep.tv < 3.0 * rep.noise_floor
        assert rep.out_of_domain_fraction <= 1e-3
        # the report carries the resolvent solution the experiment transformed with
        sol = lambda_sweep(1.0, 1.0, 0.1, 12.0, 2001)
        assert rep.solution.lam == sol.lam
        assert np.array_equal(rep.solution.u, sol.u)

    def test_resolvent_reads_sigma_sigma_star(self):
        # sigma = [[1, 1]] drives y with two noises, so sigma sigma* = 2 and the
        # resolvent is the one of the scalar sqrt(2); it once read sigma[0, 0] = 1
        # and swept to lambda = 16384 instead of 8192
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-4)
        S = np.array([[1.0, 1.0]])
        cfg = SimConfig(T=0.05, h=0.005, N=200, m=2, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        want = lambda_sweep(riesz_scalar(), math.sqrt(2.0), 0.1, 12.0, 4001)
        assert want.lam == 8192.0
        for sigma in (S, lambda t, y: np.tile(S, (y.shape[0], 1, 1))):
            co = build_coefficients(z1=drift.z1, z2=drift.z2, b=rz, sigma=sigma,
                                    d1=1, d2=1, m=2)
            rep = equivalence_experiment(co, cfg, DiracInit([0.0], [0.0]),
                                         L=12.0, n_grid=4001)
            assert rep.solution.lam == want.lam
            assert rep.solution.u.tobytes() == want.u.tobytes()


class TestCallableSigma:
    """One sigma given twice: as the constant matrix and as a callable returning
    it for each particle.  Both forms take one path through
    ``CoefficientSet.sigma_at``, so xi, the transformed step and the whole
    equivalence report agree bit for bit."""

    S = np.array([[1.3]])

    def _coeffs(self, sigma):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0, delta=0.0)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-4)
        return build_coefficients(z1=drift.z1, z2=drift.z2, b=rz, sigma=sigma, d1=1, d2=1)

    def test_constant_and_callable_sigma_agree(self):
        const = self._coeffs(self.S)
        call = self._coeffs(lambda t, y: np.tile(self.S, (y.shape[0], 1, 1)))
        assert isinstance(const.sigma, np.ndarray) and callable(call.sigma)
        x, y, dw = np.random.default_rng(3).standard_normal((3, 64, 1))
        dz = lambda t, x, y: np.sin(x) + y
        assert np.array_equal(drift_difference_xi(call, dz)(0.0, x, y),
                              drift_difference_xi(const, dz)(0.0, x, y))

        sol = lambda_sweep(riesz_scalar(), float(self.S[0, 0]), 0.1, 12.0, 2001)
        steps = [step_arrays(transform_coefficients(sol, co), 0.0, 0.01, x, y, None, dw, False)
                 for co in (const, call)]
        assert all(np.array_equal(a, b) for a, b in zip(*steps))

        cfg = SimConfig(T=0.25, h=0.005, N=1000, seed=17,
                        hist=HistogramSpec(-6.0, 6.0, 12, dim=2))
        init = DiracInit([0.0], [0.0])
        ra, rb = (equivalence_experiment(co, cfg, init, L=12.0, n_grid=2001)
                  for co in (const, call))
        assert (rb.tv, rb.noise_floor, rb.out_of_domain_fraction, rb.verdict) == \
            (ra.tv, ra.noise_floor, ra.out_of_domain_fraction, ra.verdict)
        assert rb.solution.lam == ra.solution.lam
        assert np.array_equal(rb.solution.u, ra.solution.u)
