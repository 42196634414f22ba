import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kinsde.core import InputError
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    PhiFamily,
    confining_coefficients,
    zero_coefficients,
)
from kinsde.lyapunov import (
    CertificationError,
    LogRadialSamples,
    check_drift_condition,
    drift_condition_lhs,
    search_constants,
    shell_norms,
    shell_offsets,
)

V1 = LyapunovV(1.0, 1, 1)
SAMPLES = LogRadialSamples(r_min=0.05, r_max=50.0, n_radii=16, n_dirs=10, seed=0)


def confining_good():
    return confining_coefficients(ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=0.0), d=1)


def confining_no_damping():
    # c3 -> 0 limit: kill the velocity dissipation entirely
    drift = ConfiningDrift(c1=1.0, c2=0.05, c3=1e-12, delta=0.0)
    return confining_coefficients(drift, d=1)


class TestCheckB3:
    def test_zero_drifts_hold_where_phi_below_k(self):
        co = zero_coefficients(1, 1, sigma=1.0)
        phi = PhiFamily("linear", 0.001)
        small = LogRadialSamples(r_min=0.1, r_max=5.0, n_radii=8, n_dirs=6, seed=1)
        rep = check_drift_condition(co, V1, phi, K=1.0, eps=0.1, samples=small)
        assert rep.verdict == "holds"
        assert np.allclose(rep.lhs, 0.0)
        # and fails once K is below Phi(V) somewhere on the domain
        rep2 = check_drift_condition(co, V1, PhiFamily("linear", 1.0), K=1.0, eps=0.1, samples=small)
        assert rep2.verdict == "fails"

    def test_confining_certified_with_linear_phi(self):
        res = search_constants(confining_good(), V1, "linear", eps=0.1,
                               samples=SAMPLES, k_cap=50.0)
        assert res.report.verdict == "holds"
        assert res.report.min_margin >= 0.0
        assert res.c0 > 0.05

    def test_negative_control_no_damping_fails(self):
        res = search_constants(confining_good(), V1, "linear", eps=0.1,
                               samples=SAMPLES, k_cap=50.0)
        phi = PhiFamily("linear", res.c0)
        rep = check_drift_condition(confining_no_damping(), V1, phi, res.K, eps=0.1, samples=SAMPLES)
        assert rep.verdict == "fails"
        # failure shows up at large |y|, not near the origin
        assert np.linalg.norm(rep.worst_point) > 10.0

    def test_flagged_point_blocks_holds(self):
        def broken_z1(t, x, y):
            if np.linalg.norm(x) > 10.0:
                raise FloatingPointError("synthetic failure")
            return -x

        from kinsde.fields import build_coefficients

        co = build_coefficients(broken_z1, lambda t, x, y, law: -y, None, 1.0, 1, 1)
        rep = check_drift_condition(co, V1, PhiFamily("linear", 1e-4), K=50.0, eps=0.1, samples=SAMPLES)
        # the drifts are called once on the whole sample, so the raise flags every point
        assert rep.flagged == list(range(rep.points.shape[0]))
        assert np.all(np.isposinf(rep.lhs))
        assert rep.verdict == "fails"

    def test_summary_wording(self):
        co = zero_coefficients(1, 1, sigma=1.0)
        small = LogRadialSamples(r_min=0.1, r_max=2.0, n_radii=6, n_dirs=4, seed=1)
        rep = check_drift_condition(co, V1, PhiFamily("linear", 0.001), K=10.0, eps=0.1, samples=small)
        assert rep.summary().startswith("certified on domain")


class TestSearchConstants:
    def test_zero_drift_boundary_pair(self):
        # with zero drifts any c0 is feasible once K >= c0 max V on the domain
        co = zero_coefficients(1, 1, sigma=1.0)
        small = LogRadialSamples(r_min=0.1, r_max=5.0, n_radii=8, n_dirs=6, seed=1)
        res = search_constants(co, V1, "linear", eps=0.1, samples=small,
                               c0_bracket=(1e-6, 10.0))
        vmax = V1.value_points(small.points(1, 1)).max()
        assert res.c0 == 10.0
        assert res.K == pytest.approx(10.0 * vmax)

    def test_superlinear_phi_for_delta_one(self):
        # delta = 1, theta = 1: certificate with growth exponent 1 + 1/2
        drift = ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=1.0)
        co = confining_coefficients(drift, d=1)
        res = search_constants(co, V1, "superlinear", eps=0.1, samples=SAMPLES,
                               beta=0.5, k_cap=50.0)
        assert res.report.verdict == "holds"
        assert res.c0 > 0.1

    def test_self_consistency(self):
        res = search_constants(confining_good(), V1, "linear", eps=0.1,
                               samples=SAMPLES, k_cap=50.0)
        rep = check_drift_condition(confining_good(), V1, PhiFamily("linear", res.c0), res.K,
                       eps=0.1, samples=SAMPLES)
        assert rep.verdict == "holds"

    def test_resolution_stability(self):
        res = search_constants(confining_good(), V1, "linear", eps=0.1,
                               samples=SAMPLES, k_cap=50.0)
        res2 = search_constants(confining_good(), V1, "linear", eps=0.1,
                                samples=SAMPLES.refined(), k_cap=50.0)
        assert abs(res2.c0 - res.c0) / res.c0 < 0.05

    def test_not_certifiable_reports(self):
        # large cross coupling makes the quadratic form indefinite
        drift = ConfiningDrift(c1=1.0, c2=2.5, c3=1.0, delta=0.0)
        co = confining_coefficients(drift, d=1)
        with pytest.raises(CertificationError, match="not certifiable"):
            search_constants(co, V1, "linear", eps=0.1, samples=SAMPLES, k_cap=50.0)

    def test_c2_smallness_range(self):
        # the admissible cross coupling is explored numerically
        feasible = []
        for c2 in (0.05, 1.0, 2.5):
            drift = ConfiningDrift(c1=1.0, c2=c2, c3=1.0, delta=0.0)
            co = confining_coefficients(drift, d=1)
            try:
                search_constants(co, V1, "linear", eps=0.1, samples=SAMPLES, k_cap=50.0)
                feasible.append(c2)
            except CertificationError:
                pass
        assert 0.05 in feasible and 2.5 not in feasible


class TestSearchReport:
    """The search builds its report from the left side it already computed."""

    def test_left_side_evaluated_once(self, monkeypatch):
        import kinsde.lyapunov as lyap

        calls = []
        orig = lyap.drift_condition_lhs

        def counted(coeffs, V, eps, points, *args, **kw):
            calls.append(points.shape[0])
            return orig(coeffs, V, eps, points, *args, **kw)

        monkeypatch.setattr(lyap, "drift_condition_lhs", counted)
        samples = LogRadialSamples(r_max=50.0, n_radii=20, n_dirs=12, seed=7)
        res = search_constants(confining_good(), V1, "linear", eps=0.1,
                               samples=samples, k_cap=50.0)
        assert calls == [241]
        assert res.report.points.shape[0] == 241

    @pytest.mark.parametrize("d", [1, 2])
    def test_report_equals_pointwise_check(self, d):
        drift = ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=0.0)
        co = confining_coefficients(drift, d=d)
        V = LyapunovV(1.0, d, d)
        res = search_constants(co, V, "linear", eps=0.1, samples=SAMPLES, k_cap=50.0)
        rep = check_drift_condition(co, V, PhiFamily("linear", res.c0), res.K,
                                    eps=0.1, samples=SAMPLES)
        for field in ("points", "lhs", "rhs", "margins"):
            assert np.array_equal(getattr(res.report, field), getattr(rep, field))
        assert res.report.flagged == rep.flagged == []
        assert (res.report.verdict, res.report.domain) == (rep.verdict, rep.domain)

    def test_non_finite_points_flagged(self):
        from kinsde.fields import build_coefficients

        z1 = lambda t, x, y: np.where(np.abs(x) > 10.0, np.nan, -x)
        co = build_coefficients(z1, lambda t, x, y, law: -y, None, 1.0, 1, 1)
        # a nan left side makes every K_min nan: the search certifies nothing
        # (it once bisected to the bracket floor and returned K = nan)
        for k_cap in (50.0, math.inf):
            with pytest.raises(CertificationError, match="K_min is nan"):
                search_constants(co, V1, "linear", eps=0.1, samples=SAMPLES, k_cap=k_cap)
        rep = check_drift_condition(co, V1, PhiFamily("linear", 1.0), 50.0,
                                    eps=0.1, samples=SAMPLES)
        assert rep.flagged and rep.verdict == "fails"

    def test_overflowing_v_flagged_alike_in_both_modes(self):
        # lyapunov_confining.cfg's domain at theta = 200: V leaves the float range
        # on the outer shells, which gets those points flagged, not an error
        V = LyapunovV(200.0, 1, 1)
        samples = LogRadialSamples(r_max=50.0, n_radii=20, n_dirs=12, seed=7)
        rep = check_drift_condition(confining_good(), V, PhiFamily("linear", 1.0), 50.0,
                                    eps=0.1, samples=samples)
        assert rep.verdict == "fails" and len(rep.flagged) == 81
        assert np.all(np.isinf(rep.lhs[rep.flagged]))
        res = search_constants(confining_good(), V, "linear", eps=0.1, samples=samples)
        assert res.report.verdict == "fails" and res.report.flagged == rep.flagged
        assert np.array_equal(res.report.lhs, rep.lhs)
        with pytest.raises(CertificationError, match="not certifiable"):
            search_constants(confining_good(), V, "linear", eps=0.1, samples=samples, k_cap=50.0)

    def test_overflowing_phi_fails_the_verdict(self):
        # Phi(V) = c0 (1 + V^101) leaves the float range on the outer shells, where the
        # left side is finite: K - Phi(V) = -inf there, so the condition fails
        rep = check_drift_condition(confining_good(), V1, PhiFamily("superlinear", 1e-6, 100.0),
                                    1e300, eps=0.1, samples=SAMPLES)
        assert rep.flagged == [] and np.isneginf(rep.min_margin)
        assert rep.verdict == "fails"

    @pytest.mark.parametrize("eps", [0.0, 1.0, 1.5])
    def test_eps_outside_unit_interval_raises(self, eps):
        with pytest.raises(ValueError, match="eps must lie in"):
            search_constants(confining_good(), V1, "linear", eps=eps, samples=SAMPLES, k_cap=50.0)
        with pytest.raises(ValueError, match="eps must lie in"):
            check_drift_condition(confining_good(), V1, PhiFamily("linear", 1.0), 1.0,
                                  eps=eps, samples=SAMPLES)

    def test_nan_cap_raises_before_any_evaluation(self, monkeypatch):
        # a NaN cap fails every comparison: it once bisected down to the bracket
        # floor and certified c0 = 1e-6
        monkeypatch.setattr("kinsde.lyapunov.drift_condition_lhs", None)  # calling it would raise
        with pytest.raises(InputError, match="k_cap must be a number or inf, got nan"):
            search_constants(confining_good(), V1, "linear", eps=0.1, samples=SAMPLES,
                             k_cap=math.nan)


def searched(seed, k_cap, c2, d):
    """The confining model's search on the lyapunov_confining.cfg domain at ``seed``;
    an input with no certificate is rejected."""
    co = confining_coefficients(ConfiningDrift(c1=1.0, c2=c2, c3=1.0, delta=0.0), d=d)
    V = LyapunovV(1.0, d, d)
    samples = LogRadialSamples(r_max=50.0, n_radii=20, n_dirs=12, seed=seed)
    try:
        res = search_constants(co, V, "linear", eps=0.1, samples=samples, k_cap=k_cap)
    except CertificationError:
        assume(False)
    return co, V, samples, res


SEARCH_INPUTS = dict(seed=st.integers(0, 2**32 - 1),
                     k_cap=st.floats(0.0, 6.0).map(lambda e: 10.0**e),  # log-uniform in [1, 1e6]
                     c2=st.floats(0.0, 2.5), d=st.sampled_from([1, 2]))


class TestCertificateProperties:
    """K_min and the margins are one sum, so the search's certificate holds and is
    the check at the same constants."""

    # seed 6 at k_cap = 1e4 once found K = 1e4 and then read "fails" by -9.1e-13
    @settings(max_examples=200, deadline=None)
    @given(**SEARCH_INPUTS)
    @example(seed=6, k_cap=1e4, c2=0.05, d=1)
    @example(seed=6, k_cap=1e4, c2=0.05, d=2)
    def test_searched_certificate_holds(self, seed, k_cap, c2, d):
        _, _, _, res = searched(seed, k_cap, c2, d)
        assume(not res.report.flagged)
        assert res.K <= k_cap
        assert res.report.min_margin >= 0.0 and res.report.verdict == "holds"

    @settings(max_examples=100, deadline=None)
    @given(**SEARCH_INPUTS)
    def test_search_report_is_the_check_at_its_constants(self, seed, k_cap, c2, d):
        co, V, samples, res = searched(seed, k_cap, c2, d)
        rep = check_drift_condition(co, V, PhiFamily("linear", res.c0), res.K, eps=0.1,
                                    samples=samples)
        for field in ("points", "lhs", "rhs", "margins"):
            assert getattr(res.report, field).tobytes() == getattr(rep, field).tobytes()
        assert (res.report.flagged, res.report.domain, res.report.verdict) == \
            (rep.flagged, rep.domain, rep.verdict)


class TestDriftLhs:
    def test_scaling_coherence(self):
        co = confining_good()
        pts = SAMPLES.points(1, 1)
        base = drift_condition_lhs(co, V1, 0.1, pts)
        s = 3.0
        from kinsde.fields import build_coefficients

        scaled = build_coefficients(
            z1=lambda t, x, y: s * co.z1(t, x, y),
            z2=lambda t, x, y, law: s * co.z2(t, x, y, law),
            b=None, sigma=1.0, d1=1, d2=1,
        )
        assert np.allclose(drift_condition_lhs(scaled, V1, 0.1, pts), s * base, rtol=1e-12)

    def test_shell_resolution_stability(self):
        # doubling the shell sample count moves the left side only slightly
        co = confining_good()
        pts = SAMPLES.points(1, 1)
        a = drift_condition_lhs(co, V1, 0.1, pts, m_shell=32)
        b = drift_condition_lhs(co, V1, 0.1, pts, m_shell=64)
        scale = np.maximum(1.0, np.abs(a))
        assert np.max(np.abs(a - b) / scale) < 0.02

    def test_shell_offsets_cover_radius(self):
        offs = shell_offsets(1, 0.25, m_shell=16)
        assert offs.min() == -0.25 and offs.max() == 0.25
        offs3 = shell_offsets(3, 0.25, m_shell=32)
        r = np.linalg.norm(offs3, axis=1)
        assert r.max() == pytest.approx(0.25)
        assert np.all(r <= 0.25 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.floats(0.2, 3.0), st.integers(0, 2**32 - 1))
    def test_shell_norms_match_svd_of_blocks(self, d1, d2, theta, seed):
        V = LyapunovV(theta, d1, d2)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(0.0, 5.0, (2, d1)), rng.normal(0.0, 5.0, (2, d2))
        offs = shell_offsets(d2, 0.25, m_shell=8)
        hess_xy, grad_y, hess_yy = shell_norms(V, x, y, offs)
        for i in range(2):
            for j, off in enumerate(offs):
                blk = V.blocks(x[i], y[i] + off)
                assert hess_xy[i, j] == pytest.approx(np.linalg.norm(blk.hess_xy, 2), rel=1e-12)
                assert grad_y[i, j] == pytest.approx(np.linalg.norm(blk.grad_y), rel=1e-12)
                assert hess_yy[i, j] == pytest.approx(np.linalg.norm(blk.hess_yy, 2), rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_lhs_matches_per_offset_svd_reference(self, d):
        co = confining_coefficients(ConfiningDrift(c1=1.0, c2=0.05, c3=1.0, delta=1.0), d=d)
        V = LyapunovV(0.75, d, d)
        pts = LogRadialSamples(r_max=50.0, n_radii=6, n_dirs=4, seed=2).points(d, d)
        offs = shell_offsets(d, 0.1)
        ref = []
        for pt in pts:
            x, y = pt[:d], pt[d:]
            n1 = np.linalg.norm(co.z1(0.0, x[None, :], y[None, :])[0])
            n2 = np.linalg.norm(co.z2(0.0, x[None, :], y[None, :], None)[0])
            shell = max(
                n1 * np.linalg.norm(b.hess_xy, 2)
                + n2 * (np.linalg.norm(b.grad_y) + np.linalg.norm(b.hess_yy, 2))
                for b in (V.blocks(x, y + off) for off in offs)
            )
            here = V.blocks(x, y)
            ref.append(0.1 * shell + co.z1(0.0, x[None, :], y[None, :])[0] @ here.grad_x
                       + co.z2(0.0, x[None, :], y[None, :], None)[0] @ here.grad_y)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(drift_condition_lhs(co, V, 0.1, pts) - ref) / scale) < 1e-12

