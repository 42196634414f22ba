import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kinsde.core import EmpiricalLaw, InputError
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    MeanFieldKernel,
    PhiFamily,
    RieszDrift,
    build_coefficients,
    confining_coefficients,
    interaction_z2,
)


class TestRieszDrift:
    def test_unit_distance(self):
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5)
        assert rz(0.0, np.array([[1.0]]))[0] == pytest.approx([1.0])

    def test_symmetry_cancellation(self):
        rz = RieszDrift([(-1.0, 1.0), (1.0, 1.0)], alpha=0.3)
        assert rz(0.0, np.array([[0.0]]))[0] == pytest.approx([0.0])

    def test_hand_value_with_quadrature_crosscheck(self):
        # one atom at 0, w = 1, alpha = 0.5, x = 2 -> 2 / 2^1.5 = 2^(-1/2)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5)
        val = rz(0.0, np.array([[2.0]]))[0][0]
        assert val == pytest.approx(2.0 ** -0.5, rel=1e-12)
        # independent check: same atom smeared into a narrow Gaussian
        eps = 1e-3
        smeared, _ = quad(
            lambda y: (2.0 - y) / abs(2.0 - y) ** 1.5
            * np.exp(-y**2 / (2 * eps**2)) / np.sqrt(2 * np.pi * eps**2),
            -6 * eps, 6 * eps,
        )
        assert val == pytest.approx(smeared, rel=1e-4)

    def test_odd_under_reflection_for_symmetric_atoms(self):
        rz = RieszDrift([(-1.5, 0.7), (1.5, 0.7), (0.0, 0.4)], alpha=0.6)
        rng = np.random.default_rng(1)
        xs = rng.uniform(-4, 4, size=(50, 1))
        assert np.allclose(rz(0.0, xs), -rz(0.0, -xs))

    def test_points_of_wrong_dimension_rejected(self):
        rz = RieszDrift([((1.0, 0.0), 2.0)], alpha=0.5)
        with pytest.raises(ValueError, match="atoms have 2 coordinates, the points have 1"):
            rz(0.0, np.zeros((3, 1)))

    def test_floor_independence_away_from_atoms(self):
        a = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-6)
        b = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-2)
        xs = np.array([[0.5], [2.0], [-3.0]])
        assert np.array_equal(a(0.0, xs), b(0.0, xs))

    def test_always_finite_at_atom(self):
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=1e-6)
        assert np.all(np.isfinite(rz(0.0, np.array([[0.0], [1e-12]]))))

    @pytest.mark.parametrize("alpha, eta", [(0.5, 1e-205), (0.01, 1e-300), (0.99, 1e-154)])
    def test_finite_at_atom_for_the_smallest_accepted_floors(self, alpha, eta):
        rz = RieszDrift([(0.0, 1.0)], alpha=alpha, eta_sing=eta)
        assert np.all(np.isfinite(rz(0.0, np.array([[0.0], [-0.0], [1e-12], [1e-250]]))))

    @pytest.mark.parametrize("alpha, eta", [(0.5, 1e-300), (0.5, 1e-206), (0.99, 1e-155)])
    def test_floor_whose_power_underflows_rejected(self, alpha, eta):
        # eta^(alpha + 1) below the smallest normal float: 0 / 0 at the atom
        with pytest.raises(InputError, match="underflows"):
            RieszDrift([(0.0, 1.0)], alpha=alpha, eta_sing=eta)

    def test_2d_atoms(self):
        rz = RieszDrift([((1.0, 0.0), 2.0)], alpha=0.5)
        v = rz(0.0, np.array([[0.0, 0.0]]))[0]
        assert v == pytest.approx([-2.0, 0.0])

    def test_localized_norm_grows_as_floor_shrinks(self):
        # the unfloored field is outside the integrability class here, so
        # the norm estimate must keep growing through a floor sweep
        from kinsde.core import AdmissiblePair, localized_lpq_norm

        pair = AdmissiblePair(4.0, 4.0, 1)
        norms = []
        for eta in (1e-1, 1e-2, 1e-3, 1e-4):
            rz = RieszDrift([(0.0, 1.0)], alpha=0.5, eta_sing=eta)
            norms.append(localized_lpq_norm(
                rz, pair, T=1.0,
                centers=np.array([[0.0]]), n_time=5, n_ball=4000,
            ))
        assert np.all(np.diff(norms) > 0)
        assert norms[-1] > 5.0 * norms[0]

    def test_bounded_sine_perturbation_is_bounded(self):
        from kinsde.fields import bounded_sine_perturbation

        pert = bounded_sine_perturbation(0.3)
        x = np.linspace(-50, 50, 101)[:, None]
        assert np.max(np.abs(pert(x, x))) <= 0.3


class TestLyapunovV:
    def test_origin(self):
        V = LyapunovV(1.0, 1, 1)
        blk = V.blocks([0.0], [0.0])
        assert blk.value == 1.0
        assert np.allclose(blk.grad_x, 0) and np.allclose(blk.grad_y, 0)
        assert np.allclose(blk.hess_yy, 2.0 * np.eye(1))

    def test_lattice_point(self):
        V = LyapunovV(1.0, 1, 1)
        blk = V.blocks([1.0], [0.0])
        assert blk.value == pytest.approx(2.0)
        assert blk.grad_x == pytest.approx([2.0])
        assert np.allclose(blk.hess_xy, 0.0)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_derivative_blocks_match_finite_differences(self, theta):
        d1, d2 = 2, 2
        V = LyapunovV(theta, d1, d2)
        rng = np.random.default_rng(1234)
        step = 1e-5
        for _ in range(100):
            x = rng.uniform(-3, 3, d1)
            y = rng.uniform(-3, 3, d2)
            blk = V.blocks(x, y)

            def vfun(xx, yy):
                return V.value(xx, yy)

            gx = np.array([
                (vfun(x + step * e, y) - vfun(x - step * e, y)) / (2 * step)
                for e in np.eye(d1)
            ])
            gy = np.array([
                (vfun(x, y + step * e) - vfun(x, y - step * e)) / (2 * step)
                for e in np.eye(d2)
            ])
            assert np.allclose(blk.grad_x, gx, rtol=1e-6, atol=1e-6)
            assert np.allclose(blk.grad_y, gy, rtol=1e-6, atol=1e-6)
            hyy = np.empty((d2, d2))
            for j, e in enumerate(np.eye(d2)):
                gp = V.blocks(x, y + step * e).grad_y
                gm = V.blocks(x, y - step * e).grad_y
                hyy[:, j] = (gp - gm) / (2 * step)
            assert np.allclose(blk.hess_yy, hyy, rtol=1e-5, atol=1e-5)
            hxy = np.empty((d1, d2))
            for j, e in enumerate(np.eye(d2)):
                gp = V.blocks(x, y + step * e).grad_x
                gm = V.blocks(x, y - step * e).grad_x
                hxy[:, j] = (gp - gm) / (2 * step)
            assert np.allclose(blk.hess_xy, hxy, rtol=1e-5, atol=1e-5)

    def test_value_at_least_one(self):
        V = LyapunovV(0.7, 1, 2)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-10, 10, size=(200, 3))
        assert np.all(V.value_points(pts) >= 1.0)


class TestPhiFamily:
    def test_linear(self):
        assert PhiFamily("linear", 2.0)(3.0) == pytest.approx(6.0)

    def test_superlinear_values(self):
        phi = PhiFamily("superlinear", 1.0, beta=1.0)
        assert phi(0.0) == pytest.approx(1.0)
        assert phi(2.0) == pytest.approx(5.0)

    def test_increasing(self):
        for phi in (PhiFamily("linear", 0.3), PhiFamily("superlinear", 0.5, 0.25)):
            r = np.linspace(0.0, 50.0, 200)
            assert np.all(np.diff(phi(r)) >= 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PhiFamily("linear", -1.0)
        with pytest.raises(ValueError):
            PhiFamily("superlinear", 1.0, beta=None)
        with pytest.raises(ValueError):
            PhiFamily("cubic", 1.0)

    @pytest.mark.parametrize("c0", [np.inf, np.nan, 0.0])
    def test_rejects_c0_not_positive_and_finite(self, c0):
        # an infinite c0 would make H^-1 multiply 0 by inf into a NaN target
        with pytest.raises(InputError, match="c0 must be positive and finite"):
            PhiFamily("superlinear", c0, beta=1.0)


class TestConfiningDrift:
    def test_z1_formula(self):
        d = ConfiningDrift(c1=2.0, c2=0.5, c3=1.0, delta=1.0)
        x = np.array([[3.0]])
        y = np.array([[1.0]])
        # -c1 (1 + |x|)^delta x + c2 y
        assert d.z1(0.0, x, y)[0, 0] == pytest.approx(-2.0 * 4.0 * 3.0 + 0.5)

    def test_z2_formula_with_perturbation(self):
        pert = lambda x, y: 0.1 * np.sin(x)
        d = ConfiningDrift(c1=1.0, c2=0.0, c3=3.0, delta=0.0, perturbation=pert)
        x = np.array([[np.pi / 2]])
        y = np.array([[2.0]])
        assert d.z2(0.0, x, y, None)[0, 0] == pytest.approx(0.1 - 6.0)

    def test_growth_class(self):
        assert ConfiningDrift(1.0, 0.0, 1.0, delta=0.0).growth == "linear"
        assert ConfiningDrift(1.0, 0.0, 1.0, delta=0.5).growth == "superlinear"

    def test_rejects_nonpositive_damping(self):
        with pytest.raises(ValueError):
            ConfiningDrift(c1=0.0, c2=0.0, c3=1.0)


class TestBuildCoefficients:
    @staticmethod
    def build(sigma, d2, m):
        return build_coefficients(lambda t, x, y: x, lambda t, x, y, law: y, None, sigma,
                                  d1=1, d2=d2, m=m)

    # each was once reshaped into a (d2, m) matrix it did not spell out
    @pytest.mark.parametrize("sigma, d2, m", [([[1.0], [2.0]], 1, 2),
                                              ([[3.0, 1.0, 0.0, 1.0]], 2, 2),
                                              ([1.0, 2.0], 1, 2)],
                             ids=["column", "one-row", "flat"])
    def test_constant_sigma_of_the_wrong_shape_refused(self, sigma, d2, m):
        with pytest.raises(InputError, match=rf"a number or a \({d2}, {m}\) matrix, got shape"):
            self.build(sigma, d2, m)

    def test_confining_set_holds_the_family_fields(self):
        drift = ConfiningDrift(c1=1.0, c2=0.5, c3=1.0)
        rz = RieszDrift([(0.0, 1.0)], alpha=0.5)
        co = confining_coefficients(drift, b=rz)
        assert co.z1 == drift.z1 and co.z2 == drift.z2 and co.b is rz
        coupled = confining_coefficients(drift, kernel=MeanFieldKernel.constant([0.5]), kappa=0.4)
        x, y = np.array([[0.3]]), np.array([[1.7]])
        assert coupled.z2(0.0, x, y, None).tobytes() == (drift.z2(0.0, x, y, None)
                                                         + 0.4 * np.array([[0.5]])).tobytes()


class TestInteractionZ2:
    def _base(self):
        return lambda t, x, y, law: -y

    def _law(self, xs, ys, w=None):
        xs = np.asarray(xs, dtype=float)[:, None]
        ys = np.asarray(ys, dtype=float)[:, None]
        return EmpiricalLaw(xs, ys, w)

    def test_zero_coupling_identical_to_base(self):
        z2 = interaction_z2(self._base(), MeanFieldKernel.constant([1.0]), kappa=0.0)
        x = np.array([[0.3]])
        y = np.array([[1.7]])
        law = self._law([0.0], [5.0])
        assert np.array_equal(z2(0.0, x, y, law), -y)

    def test_constant_kernel_adds_kappa_w(self):
        z2 = interaction_z2(self._base(), MeanFieldKernel.constant([0.5]), kappa=0.4)
        x = np.array([[0.0]])
        y = np.array([[1.0]])
        law = self._law([1.0, -2.0], [0.5, 3.0], w=[0.3, 0.7])
        assert z2(0.0, x, y, law)[0, 0] == pytest.approx(-1.0 + 0.4 * 0.5)

    @pytest.mark.parametrize("kernel", [MeanFieldKernel.constant([0.5]),
                                        MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)],
                             ids=["constant", "target"])
    def test_x_free_kernel_average_is_one_broadcast_row(self, kernel):
        # one (1, d2) row for every particle; z2 adds it with the bits of the (n, d2) block
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        law = EmpiricalLaw(rng.normal(size=(7, 1)), rng.normal(size=(7, 1)), rng.uniform(size=7))
        avg = kernel.mean_against(x, y, law)
        assert avg.shape == (1, 1)
        z2 = interaction_z2(lambda t, x, y, law: -y, kernel, kappa=0.3)
        block = np.broadcast_to(avg, y.shape)
        assert z2(0.0, x, y, law).tobytes() == (-y + 0.3 * block).tobytes()

    def test_odd_target_kernel_cancels_on_symmetric_law(self):
        kern = MeanFieldKernel.target(lambda xp, yp: np.tanh(xp), 1.0)
        z2 = interaction_z2(self._base(), kern, kappa=0.9)
        law = self._law([2.5, -2.5], [1.0, 1.0])
        y = np.array([[1.0]])
        assert z2(0.0, np.zeros((1, 1)), y, law)[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_reference_measure_when_law_missing(self):
        kern = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        z2 = interaction_z2(self._base(), kern, kappa=1.0)
        y = np.array([[0.0]])
        # Dirac at the origin: tanh(0) = 0 contribution
        assert z2(0.0, np.zeros((1, 1)), y, None)[0, 0] == pytest.approx(0.0)

    def test_bound_above_one_rejected(self):
        with pytest.raises(ValueError):
            interaction_z2(self._base(), MeanFieldKernel.constant([1.0, 1.0]), kappa=0.1,
                           d1=1, d2=2)

    def test_violated_declared_bound_rejected(self):
        lying = MeanFieldKernel.target(lambda xp, yp: 3.0 * np.tanh(yp), 0.9)
        with pytest.raises(ValueError, match="rejected"):
            interaction_z2(self._base(), lying, kappa=0.1)

    def test_tv_lipschitz_on_finite_support(self):
        # |Z2(mu) - Z2(nu)| <= kappa ||mu - nu||_var, exact for atom laws
        kern = MeanFieldKernel.target(lambda xp, yp: np.tanh(yp), 1.0)
        kappa = 0.7
        z2 = interaction_z2(self._base(), kern, kappa=kappa)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=4)
        x = np.array([[0.0]])
        y = np.array([[0.0]])
        for _ in range(50):
            wa = rng.dirichlet(np.ones(4))
            wb = rng.dirichlet(np.ones(4))
            mu = self._law(pts, pts, wa)
            nu = self._law(pts, pts, wb)
            tv = np.abs(wa - wb).sum()
            gap = abs(z2(0.0, x, y, mu)[0, 0] - z2(0.0, x, y, nu)[0, 0])
            assert gap <= kappa * tv + 1e-12

    def test_pairwise_kernel_average(self):
        kern = MeanFieldKernel.clipped_difference()
        z2 = interaction_z2(self._base(), kern, kappa=1.0)
        law = self._law([0.2, 0.4], [0.0, 0.0])
        x = np.array([[0.1]])
        y = np.array([[0.0]])
        assert z2(0.0, x, y, law)[0, 0] == pytest.approx(0.2)


def clipped_reference(x, law):
    """The kernel by brute force: every (particle, cloud point) pair, clipped."""
    pairs = np.clip(law.x[None, :, :] - x[:, None, :], -1.0, 1.0)
    return np.einsum("nmd,m->nd", pairs, law.weights)


@st.composite
def clouds_and_queries(draw):
    """A weighted cloud and query points: ties, pairs exactly 1 apart, zero
    weights, and clouds anywhere up to |x| = 1e11 (below the blow-up level)."""
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 4000))
    n = draw(st.integers(1, 200))
    center = draw(st.floats(-1e11, 1e11))
    spread = draw(st.sampled_from([0.25, 1.0, 3.0, 50.0, 1e3]))
    grid = draw(st.sampled_from([None, 0.25, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xp = center + spread * rng.standard_normal((m, d))
    if grid is not None:   # on a dyadic grid: many ties, and x' - x = +-1 exactly
        xp = center + grid * np.round((xp - center) / grid)
    w = rng.random(m) * (rng.random(m) < 0.9)
    w[rng.integers(m)] = 1.0
    picks = xp[rng.integers(m, size=n)]
    x = picks + rng.choice([-1.0, 0.0, 1.0, 0.5], size=(n, d))
    x[: n // 4] = center + spread * rng.standard_normal((n // 4, d))
    return x, EmpiricalLaw(xp, np.zeros((m, d)), w)


class TestClippedDifference:
    @settings(max_examples=40, deadline=None)
    @given(clouds_and_queries())
    @example((np.array([[0.0], [1e11 - 0.5], [1e11 + 1.0], [-1e11]]),
              EmpiricalLaw([[-1e11], [5.0], [1e11]], np.zeros((3, 1)), [0.2, 0.3, 0.5])))
    # a negative subnormal point was once given the moment of the cell above it: -3, not 1
    @example((np.array([[-1.0]]), EmpiricalLaw([[-5e-324]], [[0.0]], [1.0])))
    def test_matches_brute_force(self, case):
        x, law = case
        got = MeanFieldKernel.clipped_difference().mean_against(x, x, law)
        assert got.shape == x.shape
        assert np.max(np.abs(got - clipped_reference(x, law))) <= 1e-12

    def test_two_position_coordinates_rejected(self):
        # per-coordinate clipping reaches sqrt(2) > 1 at d1 = 2
        with pytest.raises(ValueError, match="exceeds its declared bound"):
            interaction_z2(lambda t, x, y, law: -y, MeanFieldKernel.clipped_difference(),
                           kappa=0.1, d1=2, d2=2)


# --- the particle fields against the formulas they replaced, bit for bit ---------
#
# The references are the hand-written row norms the fields used before they
# shared ``core._row_norm``; every value, NaN and inf included, must keep its bytes.

def riesz_reference(rz, x):
    diff = x[:, None, :] - rz.locations[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    floored = np.maximum(dist, rz.eta_sing)
    contrib = diff / floored[..., None] ** (rz.alpha + 1.0)
    return np.einsum("nkd,k->nd", contrib, rz.weights)


def z1_reference(drift, x, y):
    r = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    return -drift.c1 * (1.0 + r) ** drift.delta * x + drift.c2 * y


def z2_reference(drift, x, y):
    r = np.sqrt(np.sum(y * y, axis=1, keepdims=True))
    out = -drift.c3 * (1.0 + r) ** drift.delta * y
    if drift.perturbation is not None:
        out = out + drift.perturbation(x, y)
    return out


def tame_reference(v, h):
    mag = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
    return v / (1.0 + h * mag)


def field_magnitude_reference(f, t, pts):
    vals = np.asarray(f(t, pts), dtype=float)
    if vals.ndim == 2:
        vals = np.sqrt(np.sum(vals * vals, axis=1))
    return vals


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def particle_rows(draw, d=None):
    """An (n, d) block whose rows span magnitudes 1e-170 to 1e160, past where
    v * v underflows and overflows, with zeros, signed zeros, NaN and +-inf."""
    d = draw(st.integers(1, 3)) if d is None else d
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = draw(st.floats(-170.0, 160.0))
    hi = draw(st.floats(lo, 160.0))
    v = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(lo, hi, size=(n, 1)) / 3.0
    values = [0.0, -0.0, np.nan, np.inf, -np.inf]
    hits = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.02, 0.2]))
    v[hits] = rng.choice(values, size=int(hits.sum()))
    return v


class TestFieldBits:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 5), st.integers(1, 3), st.floats(-8.0, -1.0),
           st.floats(0.05, 0.95))
    def test_riesz(self, data, k, d, log_eta, alpha):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        locs = rng.uniform(-3.0, 3.0, size=(k, d))
        rz = RieszDrift([(tuple(p), w) for p, w in zip(locs, rng.uniform(0.1, 2.0, k))],
                        alpha=alpha, eta_sing=10.0**log_eta)
        x = data.draw(particle_rows(d))
        on_atom = rng.random(x.shape[0]) < 0.2      # points exactly on an atom
        x[on_atom] = locs[rng.integers(k, size=int(on_atom.sum()))]
        with np.errstate(all="ignore"):
            assert same_bits(rz(0.0, x), riesz_reference(rz, x))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 3), st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.5]),
           st.floats(0.1, 5.0), st.floats(-2.0, 2.0), st.floats(0.1, 5.0), st.booleans())
    def test_confining(self, data, d, delta, c1, c2, c3, perturbed):
        from kinsde.fields import bounded_sine_perturbation

        drift = ConfiningDrift(c1, c2, c3, delta,
                               bounded_sine_perturbation(0.3) if perturbed else None)
        x, y = data.draw(particle_rows(d)), data.draw(particle_rows(d))
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        with np.errstate(all="ignore"):
            assert same_bits(drift.z1(0.0, x, y), z1_reference(drift, x, y))
            assert same_bits(drift.z2(0.0, x, y, None), z2_reference(drift, x, y))

    @settings(max_examples=60, deadline=None)
    @given(particle_rows(), st.floats(1e-4, 1.0))
    def test_tame(self, v, h):
        from kinsde.integrators import _tame

        with np.errstate(all="ignore"):
            assert same_bits(_tame(v, h), tame_reference(v, h))

    @settings(max_examples=60, deadline=None)
    @given(particle_rows(), st.booleans())
    def test_field_magnitude(self, vals, scalar_field):
        from kinsde.core import _field_magnitude

        f = (lambda t, pts: pts[:, 0]) if scalar_field else (lambda t, pts: pts)
        with np.errstate(all="ignore"):
            assert same_bits(_field_magnitude(f, 0.0, vals),
                             field_magnitude_reference(f, 0.0, vals))
