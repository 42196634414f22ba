"""Empirical law distances, decay fitting, and convergence-envelope checks.

Total variation here is the sup over |f| <= 1, so distances live in [0, 2];
histogram distances are lower bounds of the true ones, consistent as bins
refine.  Decay fits only use points above a bootstrap noise floor so that
the plateau where Monte Carlo noise dominates is never fitted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from kinsde.core import (EmpiricalLaw, HistogramSpec, InputError, MeasureFlow, NumericError,
                         SimConfig, _percentiles)
from kinsde.fields import LyapunovV, PhiFamily
from kinsde.integrators import bootstrap_rng, simulate_ensemble


@dataclass(frozen=True)
class HistogramLaw:
    """Binned proxy for a probability law on the configured box, binned from ``n`` rows."""

    spec: HistogramSpec
    masses: np.ndarray
    out_mass: float
    n: int

    def __post_init__(self):
        total = math.fsum(self.masses.tolist()) + self.out_mass
        if not abs(total - 1.0) <= 1e-12:  # NaN fails this test too
            raise NumericError(f"histogram mass {total!r} is not 1 within 1e-12")


class FrozenSlice:
    """A Picard slice: the law's histogram, and what z2 reads of it (its ``law_part``)."""
    __slots__ = ("hist", "part")
    def __init__(self, hist: HistogramLaw, part):
        self.hist, self.part = hist, part


def _bin_index(pts: np.ndarray, spec: HistogramSpec) -> np.ndarray:
    """Each point's flat index among ``spec``'s bins padded by one outlier bin per
    side, found as ``np.histogramdd`` finds it: per axis a right-sided search of
    the ``linspace`` edges, a point on the last edge moved into the last bin, and
    the C-order ravel.  A point outside the box or with a NaN coordinate lands in
    an outlier bin."""
    if pts.shape[1] != spec.dim:
        raise ValueError("law dimension does not match histogram spec")
    cols = []
    for col, edges in zip(pts.T, spec.edges()):
        c = np.searchsorted(edges, col, side="right")
        c[col == edges[-1]] -= 1
        cols.append(c)
    return np.ravel_multi_index(cols, spec.bins + 2)


def _binned(idx: np.ndarray, weights: np.ndarray, spec: HistogramSpec) -> HistogramLaw:
    """The histogram of points in the padded bins ``idx`` (:func:`_bin_index`)
    with these weights: the core bins' masses, the rest of the mass as out, and
    the number of points."""
    nbin = spec.bins + 2
    hist = np.bincount(idx, weights, minlength=int(np.prod(nbin))).reshape(nbin)
    masses = hist[(slice(1, -1),) * spec.dim].ravel()
    return HistogramLaw(spec, masses, max(0.0, 1.0 - math.fsum(masses.tolist())), idx.size)


def histogram_law(law: EmpiricalLaw | HistogramLaw, spec: HistogramSpec) -> HistogramLaw:
    """The law's masses on ``spec``'s bins, equal to ``np.histogramdd``'s, and the
    mass outside the box; computed once per law and spec and kept on the
    (immutable) law, however many flows, comparisons and noise floors read it.
    A slice kept as its histogram on ``spec`` (or a FrozenSlice) is its own histogram."""
    if isinstance(law, FrozenSlice):
        law = law.hist
    if isinstance(law, HistogramLaw):
        if law.spec != spec:
            raise ValueError("binning mismatch between histogram laws")
        return law
    kept = law.__dict__.get("_histogram")
    if kept is None or not (kept.spec is spec or kept.spec == spec):
        kept = _binned(_bin_index(law.points(), spec), law.weights, spec)
        kept.masses.flags.writeable = False  # every holder of the law shares them
        object.__setattr__(law, "_histogram", kept)
    return kept


def empirical_var_distance(a: HistogramLaw, b: HistogramLaw) -> float:
    """sup over bin-measurable |f| <= 1 of |a(f) - b(f)|; range [0, 2]."""
    if a.spec != b.spec:
        raise ValueError("binning mismatch between histogram laws")
    return float(np.sum(np.abs(a.masses - b.masses)) + abs(a.out_mass - b.out_mass))


def empirical_v_distance(a: HistogramLaw, b: HistogramLaw, V: LyapunovV) -> float:
    """Weighted variation distance, test functions bounded by V at bin centers; the
    out-of-box mass is weighted by V at the farthest box corner, an overestimate."""
    if a.spec != b.spec:
        raise ValueError("binning mismatch between histogram laws")
    w = V.value_points(a.spec.centers())
    w_out = float(V.value_points(a.spec.corner()[None, :])[0])
    return float(np.sum(w * np.abs(a.masses - b.masses)) + w_out * abs(a.out_mass - b.out_mass))


def law_distances(laws_a: Sequence[EmpiricalLaw | HistogramLaw],
                  laws_b: Sequence[EmpiricalLaw | HistogramLaw],
                  spec: HistogramSpec) -> np.ndarray:
    """Slice-by-slice total variation between two law series binned on ``spec``."""
    if len(laws_a) != len(laws_b):
        raise ValueError("law series differ in length")
    return np.array([
        empirical_var_distance(histogram_law(la, spec), histogram_law(lb, spec))
        for la, lb in zip(laws_a, laws_b)
    ])


def bootstrap_noise_floor(hist: HistogramLaw, seed: int = 0) -> float:
    """95th percentile of TV between two same-law resamples of the ``hist.n``
    rows binned into ``hist``, over 100 pairs.

    A resampled row lands in the bin of the row it copies, so a resample's
    histogram is a multinomial(n, masses + [out_mass]) count, for uniform and
    weighted laws alike; the outlier bin goes last, so it takes the remainder.
    A bin holding every row can sum its weights to just above 1, which the
    multinomial refuses, so masses are read at most 1.
    """
    rng = bootstrap_rng(seed, stream=1)
    pvals = np.append(np.minimum(hist.masses, 1.0), hist.out_mass)
    counts = rng.multinomial(hist.n, pvals, size=(100, 2))
    return _percentiles(np.abs(counts[:, 0] - counts[:, 1]).sum(axis=1) / hist.n, [95.0])[0]


# --- exponential decay fits -------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    used: np.ndarray
    lam: float
    prefactor: float
    r2: float
    verdict: str  # decay confirmed | no decay | insufficient signal


def fit_exponential_decay(
    times,
    distances,
    noise_floor: float = 0.0,
) -> DecayFit:
    """Least squares on (t, log distance) restricted to points above the floor."""
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    used = (distances > noise_floor) & (distances > 0.0) & np.isfinite(distances)
    if np.count_nonzero(used) < 4:
        return DecayFit(used, math.nan, math.nan, math.nan, "insufficient signal")
    t = times[used]
    logd = np.log(distances[used])
    slope, intercept = np.polyfit(t, logd, 1)
    resid = logd - (slope * t + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((logd - logd.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 and ss_res < 1e-30 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    lam = -float(slope)
    verdict = "decay confirmed" if (lam > 0.0 and r2 > 0.9) else "no decay"
    with np.errstate(over="ignore"):  # a steep fit through tiny distances: the prefactor is inf
        prefactor = float(np.exp(intercept))
    return DecayFit(used, lam, prefactor, r2, verdict)


# --- comparing two law series -----------------------------------------------------

@dataclass(frozen=True)
class TVDecaySeries:
    times: np.ndarray
    tv: np.ndarray
    noise_floor: float

    def fit(self, fit_from: float = 0.0) -> DecayFit:
        """Exponential decay fit of the distances at times >= ``fit_from``, above the floor."""
        window = self.times >= fit_from
        return fit_exponential_decay(self.times[window], self.tv[window], self.noise_floor)


def compare_flows(a: MeasureFlow, b: MeasureFlow, spec: HistogramSpec,
                  floor_seed: int) -> TVDecaySeries:
    """:func:`law_distances` of two flows recorded at the same times, read against
    the bootstrap noise floor of ``a``'s last slice, binned on ``spec``, at
    ``floor_seed``."""
    if not np.array_equal(a.times, b.times):
        raise ValueError("flows live on different grids")
    tv = law_distances(a.clouds, b.clouds, spec)
    floor = bootstrap_noise_floor(histogram_law(a.clouds[-1], spec), floor_seed)
    return TVDecaySeries(a.times, tv, floor)


def tv_decay_experiment(
    cfg: SimConfig,
    coeffs,
    init_a,
    init_b,
    record_times: Sequence[float],
) -> TVDecaySeries:
    """TV(t) between the laws of two flows started from different initial laws.

    The two runs use independent noise streams (1 and 2) and keep each slice
    as its histogram on ``cfg.hist``, and only their flows, so neither run's
    final states outlive it; the noise floor is the bootstrap TV between
    same-law resamples of the terminal histogram of the first.
    """
    flow_a = simulate_ensemble(cfg, coeffs, init_a, stream=1, record_times=record_times,
                               hist=cfg.hist).flow
    flow_b = simulate_ensemble(cfg, coeffs, init_b, stream=2, record_times=record_times,
                               hist=cfg.hist).flow
    return compare_flows(flow_a, flow_b, cfg.hist, cfg.seed)


# --- H-transform envelope (integrated rate function) ------------------------------

# H(r) = I(r) / c0 with I(r) = int_0^r ds / (1 + s^p), p = 1 + beta.  I depends
# on p alone, so one table per beta serves every c0.  The table holds I at the
# breakpoints 2^(j/m), 2^-8 <= 2^(j/m) <= 2^49, with m = ceil(p/2) panels per
# octave; each panel is a fixed-order Gauss-Legendre rule.  Below 2^-8 the
# power series of I is used (s^p is not smooth at 0), above 2^49 its
# asymptotic series.  2^49 is also the reach of H^-1.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_SERIES_TOP = -8   # log2 of the first breakpoint
_REACH = 49        # log2 of the last breakpoint


def _gl_integral(a, b, p: float):
    """int_a^b ds / (1 + s^p) by one 20-node Gauss-Legendre panel, elementwise.

    Each panel is summed row by row in a fixed order (not by a matrix-vector
    product, whose rounding depends on the row's place in the batch), so a
    value does not depend on what else is in the batch."""
    half = 0.5 * (b - a)
    s = (0.5 * (a + b))[..., None] + half[..., None] * _GL_NODES
    with np.errstate(over="ignore"):
        return half * np.sum((1.0 / (1.0 + s**p)) * _GL_WEIGHTS, axis=-1)


def _small_r_series(r, p: float):
    """I(r) = sum_n (-1)^n r^(np+1) / (np+1); eight terms reach 2^-56 for r <= 2^-8."""
    e = np.arange(8) * p + 1.0
    return np.sum((-1.0) ** np.arange(8) * r[..., None] ** e / e, axis=-1)


def _large_r_series(top: float, r, p: float):
    """int_top^r ds / (1 + s^p) from s^-p - s^-2p + ...; three terms suffice for top = 2^49."""
    n = np.arange(1, 4)
    e = 1.0 - n * p
    return np.sum((-1.0) ** (n + 1) * (r[..., None] ** e - top**e) / e, axis=-1)


@functools.lru_cache(maxsize=16)
def _h_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints r_j and I(r_j) for the exponent p (read-only: the cache shares them)."""
    m = math.ceil(p / 2.0)
    edges = 2.0 ** (np.arange(_SERIES_TOP * m, _REACH * m + 1) / m)
    panels = _gl_integral(edges[:-1], edges[1:], p)
    cum = _small_r_series(edges[:1], p)[0] + np.concatenate([[0.0], np.cumsum(panels)])
    edges.flags.writeable = cum.flags.writeable = False
    return edges, cum


def _h_integral(r: np.ndarray, p: float) -> np.ndarray:
    """I(r) for a 1-d array of r >= 0: the table entry below r plus one panel."""
    edges, cum = _h_table(p)
    j = np.searchsorted(edges, r, side="right") - 1
    out = np.empty_like(r)
    low, high = j < 0, j >= edges.size - 1
    mid = ~(low | high)
    out[low] = _small_r_series(r[low], p)
    out[mid] = cum[j[mid]] + _gl_integral(edges[j[mid]], r[mid], p)
    out[high] = cum[-1] + _large_r_series(edges[-1], r[high], p)
    return out


class HTransform:
    """H(r) = int_0^r ds / Phi(s), vectorized, with a Newton inverse.

    Only defined for the superlinear family: a linear Phi makes the
    integrand 1/(c0 s), which diverges at 0.  ``value`` and ``inverse``
    take a scalar (and return a float) or an array.
    """

    def __init__(self, phi: PhiFamily):
        if phi.kind == "linear":
            raise InputError("H diverges at 0 for linear Phi")
        if not phi.beta <= 2**10:
            raise InputError(f"H is tabulated for beta <= 2^10, got beta = {phi.beta!r}")
        self.phi = phi
        self._p = 1.0 + phi.beta

    def value(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("H is defined for r >= 0")
        out = (_h_integral(r.ravel(), self._p) / self.phi.c0).reshape(r.shape)
        return float(out) if out.ndim == 0 else out

    def inverse(self, w):
        """H^-1 with the convention H^-1(w) = 0 for w <= 0.

        The table brackets each root; Newton steps with H' = 1/Phi start at
        the bracket's left end and, H being concave, rise monotonically to
        the root without leaving the bracket.
        """
        w = np.asarray(w, dtype=float)
        edges, cum = _h_table(self._p)
        cap = float(cum[-1]) / self.phi.c0
        if np.any(w > cap):
            raise NumericError(
                f"H^-1({float(np.max(w))!r}) out of reach: H saturates at {cap!r} below it")
        target = np.maximum(w.ravel(), 0.0) * self.phi.c0
        j = np.searchsorted(cum, target, side="right") - 1
        r = np.where(j < 0, 0.0, edges[np.maximum(j, 0)])
        right = edges[np.minimum(j + 1, edges.size - 1)]
        for _ in range(100):
            resid = target - _h_integral(r, self._p)
            with np.errstate(over="ignore", invalid="ignore"):
                step = np.where(resid > 0.0, resid * (1.0 + r**self._p), 0.0)
            nxt = np.minimum(r + step, right)
            if np.array_equal(nxt, r):
                break
            r = nxt
        out = r.reshape(w.shape)
        return float(out) if out.ndim == 0 else out


def h_envelope(phi: PhiFamily, v0: float, k: float, lam: float, times) -> np.ndarray:
    """Envelope k (1 + H^-1(H(V0) - t/k)) e^(-lam t), nonincreasing in t.

    For t >= k H(V0) the inverse clamps to zero and the curve is exactly
    k e^(-lam t).
    """
    if not v0 >= 1.0:
        raise InputError("V0 must be >= 1 (Lyapunov functions are >= 1)")
    if not (k > 0 and lam > 0):
        raise InputError("k and lam must be positive")
    H = HTransform(phi)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    inv = H.inverse(H.value(v0) - times / k)
    # H^-1(H(V0) - t/k) <= V0 for t >= 0; where H is flat to double precision
    # (large V0 and beta) H^-1 cannot resolve V0 itself, so hold it to that bound
    inv = np.where(times >= 0.0, np.minimum(inv, v0), inv)
    return k * (1.0 + inv) * np.exp(-lam * times)


@dataclass(frozen=True)
class HEnvelopeFit:
    k: float
    lam: float
    envelope: np.ndarray
    dominated: bool


def fit_h_envelope(
    times,
    curve,
    phi: PhiFamily,
    v0: float,
    noise_floor: float = 0.0,
) -> HEnvelopeFit:
    """Smallest-k envelope of the given shape dominating an empirical curve.

    The decay rate candidates come from the curve's own log-linear fit,
    relaxed progressively; for each rate the minimal k is found by doubling
    then bisection (the envelope is monotone increasing in k).
    """
    times = np.asarray(times, dtype=float)
    curve = np.asarray(curve, dtype=float)
    fit = fit_exponential_decay(times, curve, noise_floor)
    lam0 = fit.lam if np.isfinite(fit.lam) and fit.lam > 0 else 0.5

    def dominated_at(k: float, lam: float) -> bool:
        return bool(np.all(h_envelope(phi, v0, k, lam, times) >= curve - 1e-12))

    for frac in (1.0, 0.75, 0.5, 0.25):
        lam = lam0 * frac
        k = 1e-3
        while k < 1e9 and not dominated_at(k, lam):
            k *= 2.0
        if k >= 1e9:
            continue
        lo, hi = k / 2.0, k
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if dominated_at(mid, lam):
                hi = mid
            else:
                lo = mid
        return HEnvelopeFit(hi, lam, h_envelope(phi, v0, hi, lam, times), True)
    lam = lam0 * 0.25
    return HEnvelopeFit(1e9, lam, h_envelope(phi, v0, 1e9, lam, times), False)

