import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kinsde.core import (CloudInit, DiracInit, EmpiricalLaw, HistogramSpec, InputError,
                         MeasureFlow, NumericError, SimConfig)
from kinsde import ergodicity, integrators
from kinsde.ergodicity import (
    HistogramLaw,
    HTransform,
    TVDecaySeries,
    bootstrap_noise_floor,
    compare_flows,
    empirical_v_distance,
    empirical_var_distance,
    fit_exponential_decay,
    fit_h_envelope,
    h_envelope,
    histogram_law,
    law_distances,
    tv_decay_experiment,
)
from kinsde.fields import (
    ConfiningDrift,
    LyapunovV,
    PhiFamily,
    build_coefficients,
    confining_coefficients,
    scalar_ou_coefficients,
)
from kinsde.integrators import bootstrap_rng, simulate_ensemble
from kinsde.lyapunov import LogRadialSamples, search_constants

SPEC2 = HistogramSpec(-4.0, 4.0, 8, dim=2)


def _law(rng, n):
    return EmpiricalLaw(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))


@st.composite
def _boxed_cloud(draw):
    """A histogram box in 2 or 3 dimensions and a weighted cloud whose
    coordinates lie inside it, on its faces, or outside it."""
    dim = draw(st.integers(2, 3))
    lo = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    bins = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    n = draw(st.integers(1, 40))
    pts = np.empty((n, dim))
    for i in range(n):
        for j in range(dim):
            where = draw(st.sampled_from(["in", "lo", "hi", "below", "above"]))
            gap = draw(st.floats(1e-6, 10.0))
            pts[i, j] = {"in": lo[j] + draw(st.floats(0.0, 1.0)) * (hi[j] - lo[j]),
                         "lo": lo[j], "hi": hi[j],
                         "below": lo[j] - gap, "above": hi[j] + gap}[where]
    w = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return HistogramSpec(lo, hi, bins), EmpiricalLaw(pts[:, :1], pts[:, 1:], weights=w)


@st.composite
def _binned_points(draw):
    """A box in 1 to 4 dimensions and weighted points on its inner and outer
    edges, inside it, outside it, or with NaN coordinates."""
    dim = draw(st.integers(1, 4))
    lo = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))
    hi = lo + np.array(draw(st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim)))
    spec = HistogramSpec(lo, hi, draw(st.lists(st.integers(1, 5), min_size=dim, max_size=dim)))
    n = draw(st.integers(1, 30))
    pts = np.empty((n, dim))
    for i in range(n):
        for j, edges in enumerate(spec.edges()):
            where = draw(st.sampled_from(["in", "edge", "below", "above", "nan"]))
            pts[i, j] = {"in": lambda: lo[j] + draw(st.floats(0.0, 1.0)) * (hi[j] - lo[j]),
                         "edge": lambda: draw(st.sampled_from(edges.tolist())),
                         "below": lambda: lo[j] - draw(st.floats(1e-9, 10.0)),
                         "above": lambda: hi[j] + draw(st.floats(1e-9, 10.0)),
                         "nan": lambda: math.nan}[where]()
    w = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    return spec, pts, w / math.fsum(w.tolist())


def _histogramdd(pts, w, spec):
    """The masses and out-of-box mass as np.histogramdd bins them."""
    hist, _ = np.histogramdd(pts, bins=spec.bins, range=list(zip(spec.lo, spec.hi)), weights=w)
    masses = hist.ravel()
    return masses, max(0.0, 1.0 - math.fsum(masses.tolist()))


class TestHistogramLaw:
    @settings(max_examples=150, deadline=None)
    @given(_binned_points())
    def test_binning_once_is_histogramdd(self, case):
        spec, pts, w = case
        masses, out = _histogramdd(pts, w, spec)
        h = ergodicity._binned(ergodicity._bin_index(pts, spec), w, spec)
        assert h.masses.tobytes() == masses.tobytes() and h.out_mass == out
        if spec.dim >= 2:
            law = EmpiricalLaw(pts[:, :1], pts[:, 1:], weights=w)
            masses, out = _histogramdd(pts, law.weights, spec)
            h = histogram_law(law, spec)
            assert h.masses.tobytes() == masses.tobytes() and h.out_mass == out

    def test_a_law_is_binned_once_per_spec(self, monkeypatch):
        calls = []
        bin_index = ergodicity._bin_index
        monkeypatch.setattr(ergodicity, "_bin_index", lambda *a: calls.append(1) or bin_index(*a))
        law = _law(np.random.default_rng(1), 50)
        h = histogram_law(law, SPEC2)
        assert histogram_law(law, HistogramSpec(-4.0, 4.0, 8, dim=2)) is h  # an equal spec
        assert len(calls) == 1
        other = histogram_law(law, HistogramSpec(-4.0, 4.0, 4, dim=2))
        assert len(calls) == 2 and other.masses.size == 16
        assert not h.masses.flags.writeable

    def test_mass_accounting(self):
        law = EmpiricalLaw(np.array([[0.0], [10.0]]), np.array([[0.0], [0.0]]))
        h = histogram_law(law, SPEC2)
        assert h.masses.sum() == pytest.approx(0.5)
        assert h.out_mass == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(_boxed_cloud())
    def test_mass_is_conserved(self, spec_law):
        spec, law = spec_law
        h = histogram_law(law, spec)
        assert abs(h.masses.sum() + h.out_mass - 1.0) <= 1e-12
        pts = law.points()
        outside = np.any((pts < spec.lo) | (pts > spec.hi), axis=1)
        assert abs(h.out_mass - math.fsum(law.weights[outside].tolist())) <= 1e-12

    def test_weighted_cloud(self):
        law = EmpiricalLaw(np.zeros((2, 1)), np.zeros((2, 1)), weights=[3.0, 1.0])
        h = histogram_law(law, SPEC2)
        assert h.masses.max() == pytest.approx(1.0)

    def test_nan_mass_is_a_numeric_failure(self):
        masses = np.full(64, 1.0 / 64)
        HistogramLaw(SPEC2, masses, 0.0)
        masses[5] = np.nan
        with pytest.raises(NumericError, match="histogram mass nan"):
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
        with pytest.raises(ValueError, match="binning mismatch"):
            empirical_v_distance(a, b, LyapunovV(1.0, 1, 1))


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
        V = LyapunovV(0.5, 1, 1)
        for la, lb in zip(*pair):
            ha, hb = histogram_law(la, SPEC2), histogram_law(lb, SPEC2)
            d = empirical_v_distance(ha, hb, V)
            assert d >= empirical_var_distance(ha, hb)  # V >= 1
            assert d == empirical_v_distance(hb, ha, V)
            assert empirical_v_distance(ha, ha, V) == 0.0

    def test_series_length_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="length"):
            law_distances([_law(rng, 5)], [_law(rng, 5), _law(rng, 5)], SPEC2)


_GRID_TIMES = st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True).map(
    lambda ks: np.array(sorted(ks)) * 0.25
)


def _same_fit(a, b):
    assert np.array_equal(a.used, b.used) and a.verdict == b.verdict
    assert np.array_equal([a.lam, a.prefactor, a.r2], [b.lam, b.prefactor, b.r2],
                          equal_nan=True)


@st.composite
def _fit_case(draw):
    """Grid times, distances in [0, 2] at them, a floor and a window start."""
    times = draw(_GRID_TIMES)
    tv = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=times.size, max_size=times.size)))
    return times, tv, draw(st.floats(0.0, 0.5)), draw(st.floats(-1.0, 11.0))


_FIT_CASE = _fit_case()


class TestCompareFlows:
    @settings(max_examples=25, deadline=None)
    @given(_SERIES_PAIR, st.integers(0, 10**6))
    def test_distances_and_floor(self, pair, seed):
        a, b = (MeasureFlow(np.arange(len(clouds)) * 0.5, clouds) for clouds in pair)
        s = compare_flows(a, b, SPEC2, seed)
        assert np.array_equal(s.times, a.times)
        assert np.all(compare_flows(a, a, SPEC2, seed).tv == 0.0)
        assert np.array_equal(s.tv, compare_flows(b, a, SPEC2, seed).tv)
        assert s.noise_floor == bootstrap_noise_floor(a.clouds[-1], SPEC2, seed=seed)

    def test_flows_on_different_grids_refused(self):
        # slices were once paired by position, so a flow recorded at 0 and 1 was
        # compared with one recorded at 0 and 0.5 as if both were at 0 and 0.5
        rng = np.random.default_rng(4)
        clouds = [_law(rng, 5), _law(rng, 5)]
        a = MeasureFlow(np.array([0.0, 0.5]), clouds)
        for times in ([0.0, 1.0], [0.0]):
            b = MeasureFlow(np.array(times), clouds[:len(times)])
            with pytest.raises(ValueError, match="flows live on different grids"):
                compare_flows(a, b, SPEC2, 0)

    @settings(max_examples=80, deadline=None)
    @given(_FIT_CASE)
    @example((np.arange(7) * 0.25, np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0,
                                              1.7734747294731002e-297]), 0.0, -1.0))
    def test_fit_is_the_windowed_decay_fit(self, case):
        # the example's slope is about -820, so the prefactor e^intercept overflows to inf
        times, tv, floor, fit_from = case
        series = TVDecaySeries(times, tv, floor)
        window = times >= fit_from
        _same_fit(series.fit(fit_from), fit_exponential_decay(times[window], tv[window], floor))
        _same_fit(series.fit(), fit_exponential_decay(times, tv, floor))
        assert series.fit(times[-1] + 0.25).verdict == "insufficient signal"


def _traced_peak(run) -> int:
    """The most bytes ``run()`` held at once beyond what was held before it, by tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


_H = 0.05


def _dying_coefficients(die_at):
    """z1 = 0 keeps each row's label x; z2 = -y, NaN on the rows labelled 1 from step
    ``die_at`` on (never if None), so those rows die and the laws drop them."""

    def z2(t, x, y, law):
        out = -y
        if die_at is not None and t > (die_at - 0.5) * _H:
            out[x[:, 0] == 1.0] = np.nan
        return out

    return build_coefficients(z1=lambda t, x, y: np.zeros_like(x), z2=z2, b=None, sigma=1.0,
                              d1=1, d2=1)


def _labelled_init(n, centre):
    x = np.zeros((n, 1))
    x[::7] = 1.0
    return CloudInit(EmpiricalLaw(x, centre + np.linspace(-1.0, 1.0, n)[:, None]))


@st.composite
def _compared_case(draw):
    """Steps K, record times on the grid (t = 0 and t = T each in or out, one slice
    or more), the step at which the labelled rows die (or None) and a seed."""
    K = draw(st.integers(1, 12))
    steps = set(draw(st.lists(st.integers(0, K), min_size=1, max_size=5)))
    steps.update(k for k, keep in ((0, draw(st.booleans())), (K, draw(st.booleans()))) if keep)
    die_at = draw(st.one_of(st.none(), st.integers(0, K - 1)))
    return K, np.array(sorted(steps)) * _H, die_at, draw(st.integers(0, 2**32 - 1))


class TestComparedRuns:
    """Runs recorded only to be compared keep each slice but the last as its histogram."""

    @settings(max_examples=40, deadline=None)
    @given(_compared_case())
    @example((6, np.array([6 * _H]), None, 1))             # one slice, at T
    @example((6, np.array([0.0]), 2, 1))                   # one slice, at 0
    @example((6, np.arange(7) * _H, 2, 5))                 # every step, from 0 to T, deaths
    def test_binned_at_record_equals_clouds_then_compare(self, case):
        K, times, die_at, seed = case
        cfg = SimConfig(T=K * _H, h=_H, N=70, seed=seed, hist=SPEC2)
        co = _dying_coefficients(die_at)
        inits = _labelled_init(cfg.N, 1.0), _labelled_init(cfg.N, -1.0)
        got = tv_decay_experiment(cfg, co, *inits, times)
        runs = [simulate_ensemble(cfg, co, init, stream=s, record_times=times)
                for init, s in zip(inits, (1, 2))]
        want = compare_flows(runs[0].flow, runs[1].flow, cfg.hist, cfg.seed)
        assert got.times.tobytes() == want.times.tobytes()
        assert got.tv.tobytes() == want.tv.tobytes()
        assert np.float64(got.noise_floor).tobytes() == np.float64(want.noise_floor).tobytes()
        assert runs[0].n_dead == (0 if die_at is None else 10)
        kept = simulate_ensemble(cfg, co, inits[0], stream=1, record_times=times, hist=cfg.hist)
        assert all(isinstance(s, HistogramLaw) for s in kept.flow.clouds[:-1])
        assert isinstance(kept.flow.clouds[-1], EmpiricalLaw)

    def test_a_histogram_is_its_own_histogram(self):
        law = _law(np.random.default_rng(3), 50)
        hist = histogram_law(law, SPEC2)
        assert histogram_law(hist, SPEC2) is hist
        with pytest.raises(ValueError, match="binning mismatch"):
            histogram_law(hist, HistogramSpec(-4.0, 4.0, 4, dim=2))

    def test_empty_record_times_refused_before_any_step(self, monkeypatch):
        # both runs once ran to the end, then compare_flows failed on an IndexError
        monkeypatch.setattr(integrators, "step_arrays", None)
        cfg = SimConfig(T=0.5, h=_H, N=20, seed=1, hist=SPEC2)
        with pytest.raises(InputError, match="no record time"):
            tv_decay_experiment(cfg, scalar_ou_coefficients(1.0), DiracInit([1.0], [1.0]),
                                DiracInit([-1.0], [-1.0]), [])

    def test_compared_runs_hold_slices_not_clouds(self):
        # N = 10^4 and 16 slices: beyond the peak of an unrecorded run (its noise ring,
        # states and drift blocks), a TV-decay run holds less than 4 clouds; the two
        # flows of 16 clouds it once kept (5.1 MB) break that bound
        N = 10**4
        cfg = SimConfig(T=0.15, h=0.01, N=N, seed=3, hist=HistogramSpec(-4.0, 4.0, 12, dim=2))
        co, times = scalar_ou_coefficients(1.0), np.arange(16) * 0.01
        a, b = DiracInit([2.0], [2.0]), DiracInit([-2.0], [-2.0])
        bare = lambda: simulate_ensemble(cfg, co, a, stream=1)
        bare()  # the first run with a noise helper imports its thread pool
        bound = _traced_peak(bare) + 4 * N * (cfg.d1 + cfg.d2) * 8
        assert _traced_peak(lambda: tv_decay_experiment(cfg, co, a, b, times)) < bound

        def clouds():
            flows = [simulate_ensemble(cfg, co, init, stream=s, record_times=times).flow
                     for init, s in ((a, 1), (b, 2))]
            compare_flows(*flows, cfg.hist, cfg.seed)

        assert _traced_peak(clouds) > bound


class TestVDistance:
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
                                DiracInit([0.0], [2.0]),
                                DiracInit([0.0], [-2.0]),
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
        with pytest.raises(NumericError, match="out of reach"):
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


def _resampled_floor(law, spec, n_boot, seed):
    """The noise floor as it was first written: each resample a new cloud,
    binned by np.histogramdd."""
    rng = bootstrap_rng(seed, stream=1)
    n = law.n
    uniform = np.all(law.weights == law.weights[0])
    tvs = []
    for _ in range(n_boot):
        if uniform:
            ia, ib = rng.integers(0, n, n), rng.integers(0, n, n)
        else:
            ia, ib = rng.choice(n, size=n, p=law.weights), rng.choice(n, size=n, p=law.weights)
        (ma, oa), (mb, ob) = (_histogramdd(law.points()[i], np.full(n, 1.0 / n), spec)
                              for i in (ia, ib))
        tvs.append(float(np.sum(np.abs(ma - mb)) + abs(oa - ob)))
    return float(np.percentile(tvs, 95.0))


class TestNoiseFloor:
    @settings(max_examples=40, deadline=None)
    @given(_boxed_cloud(), st.booleans(), st.integers(0, 2**32))
    def test_floor_is_the_resampled_clouds_floor(self, spec_law, uniform, seed):
        spec, law = spec_law
        if uniform:
            law = EmpiricalLaw(law.x, law.y)
        assert bootstrap_noise_floor(law, spec, n_boot=12, seed=seed) == _resampled_floor(
            law, spec, 12, seed)

    def test_floor_scales_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = bootstrap_noise_floor(_law(rng, 500), SPEC2, n_boot=60, seed=1)
        big = bootstrap_noise_floor(_law(rng, 8000), SPEC2, n_boot=60, seed=1)
        assert big < small

    def test_nearly_uniform_weights_are_resampled_by_weight(self):
        # weights 2e-5 apart (relative) are within np.allclose of 1/n at N = 2000
        rng = np.random.default_rng(5)
        n = 2000
        w = np.where(np.arange(n) % 2 == 0, 1.0, 1.0 + 2e-5)
        law = EmpiricalLaw(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)), weights=w)
        assert not np.all(law.weights == law.weights[0])
        ref = bootstrap_rng(3, stream=1)
        tvs = []
        for _ in range(20):
            ia = ref.choice(n, size=n, p=law.weights)
            ib = ref.choice(n, size=n, p=law.weights)
            tvs.append(empirical_var_distance(
                histogram_law(EmpiricalLaw(law.x[ia], law.y[ia]), SPEC2),
                histogram_law(EmpiricalLaw(law.x[ib], law.y[ib]), SPEC2)))
        assert bootstrap_noise_floor(law, SPEC2, n_boot=20, seed=3) == np.percentile(tvs, 95.0)
