"""Domain types, configuration, and the localized integrability norm.

Everything here is immutable after construction and safe to share across
threads.  Field callables are vectorized over particles: position blocks
are ``(n, d1)`` arrays, velocity blocks ``(n, d2)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class InputError(ValueError):
    """A refused input: a value outside what the method accepts (CLI exit 2)."""


class NumericError(ArithmeticError):
    """A failed computation on accepted input (CLI exit 3)."""


class NormDivergedError(NumericError):
    """Quadrature of the localized norm produced a non-finite value.

    Signals that the sampled function is not in the integrability class at
    this resolution.  Carries the offending center.
    """

    def __init__(self, center: np.ndarray):
        self.center = np.asarray(center, dtype=float)
        super().__init__(f"norm diverged at reported center {self.center.tolist()}")


def _row_norm(v: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm of each row of a particle array, over its last axis.

    With one coordinate the norm is ``sqrt(v * v)`` and the reduction is
    skipped: a sum of one term is that term, so the bits are those of
    ``sqrt(sum(v * v))``, and at N = 10^4 the reduction costs about three
    times the multiply.
    """
    sq = v * v
    if v.shape[-1] != 1:
        sq = np.sum(sq, axis=-1, keepdims=keepdims)
    elif not keepdims:
        sq = sq[..., 0]
    return np.sqrt(sq, out=sq)


def _percentiles(a, qs) -> list[float]:
    """``np.percentile(a, qs)`` of a 1-d float sample, by numpy's own steps for its
    default linear method, so the bytes are numpy's: one partition at the same
    indices, the floor index (the last element from q = 100 on), and ``_lerp``
    with its ``t >= 0.5`` branch; a NaN in ``a`` makes every value that NaN.
    ``np.percentile`` calls ``np.unique``, which imports numpy.ma (1.2 MB)."""
    arr = np.array(a, dtype=float).ravel()
    n = arr.size
    at = [(n - 1) * (q / 100) for q in qs]
    lo = [-1 if v >= n - 1 else math.floor(v) for v in at]
    hi = [i if i == -1 else i + 1 for i in lo]
    arr.partition(np.array(sorted({0, -1, *lo, *hi})))
    if math.isnan(arr[-1]):
        return [float(arr[-1])] * len(at)
    out = []
    for v, i, j in zip(at, lo, hi):
        a_i, a_j, t = float(arr[i]), float(arr[j]), v - i
        diff = a_j - a_i
        out.append(a_j - diff * (1 - t) if t >= 0.5 else a_i + diff * t)
    return out


@dataclass(frozen=True)
class AdmissiblePair:
    """Integrability exponents (p, q) with d2/p + 2/q < 1.

    Construction rejects exactly the pairs violating the strict inequality,
    so holding an instance certifies membership in the admissible class.
    """

    p: float
    q: float
    d2: int = 1

    def __post_init__(self):
        if not (self.p > 2 and self.q > 2):
            raise InputError(f"require p, q > 2, got (p, q) = ({self.p}, {self.q})")
        if self.d2 < 1:
            raise InputError("d2 must be a positive dimension")
        if self.deficiency >= 1.0:
            raise InputError(
                f"(p, q) = ({self.p}, {self.q}) inadmissible for d2 = {self.d2}: "
                f"d2/p + 2/q = {self.deficiency:.6g} >= 1"
            )

    @property
    def deficiency(self) -> float:
        return self.d2 / self.p + 2.0 / self.q


@dataclass(frozen=True, eq=False)
class HistogramSpec:
    """Axis-aligned box and per-axis bin counts over R^(d1+d2)."""

    lo: np.ndarray
    hi: np.ndarray
    bins: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HistogramSpec):
            return NotImplemented
        return (
            np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
            and np.array_equal(self.bins, other.bins)
        )

    def __init__(self, lo, hi, bins, dim: int | None = None):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        counts = np.atleast_1d(np.asarray(bins, dtype=float))
        if not np.all((counts == np.floor(counts)) & (np.abs(counts) < 2**53)):  # nan, inf fail
            raise InputError(f"bin counts must be whole numbers, got {counts.tolist()}")
        bins = counts.astype(int)
        if dim is not None:
            if lo.size == 1:
                lo = np.full(dim, lo[0])
            if hi.size == 1:
                hi = np.full(dim, hi[0])
            if bins.size == 1:
                bins = np.full(dim, bins[0])
        if not (lo.size == hi.size == bins.size):
            raise InputError("lo, hi, bins must agree in length")
        if not (np.all(hi > lo) and np.all(np.isfinite(hi - lo))):
            raise InputError("histogram box must be finite with hi > lo on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "bins", bins)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def n_bins(self) -> int:
        return int(np.prod(self.bins))

    def edges(self) -> list[np.ndarray]:
        return [np.linspace(self.lo[i], self.hi[i], self.bins[i] + 1) for i in range(self.dim)]

    def centers(self) -> np.ndarray:
        """Cartesian product of bin centers, shape (n_bins, dim)."""
        axes = [(e[:-1] + e[1:]) / 2.0 for e in self.edges()]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def corner(self) -> np.ndarray:
        """Box corner farthest from the origin (used for out-of-box weights)."""
        return np.where(np.abs(self.hi) >= np.abs(self.lo), self.hi, self.lo)


_SCHEMES = ("euler", "tamed")


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters shared by every experiment; ``__post_init__`` refuses bad ones."""

    T: float
    h: float
    N: int
    seed: int
    d1: int = 1
    d2: int = 1
    m: int = 1
    scheme: str = "euler"
    hist: HistogramSpec = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name, v in (("T", self.T), ("h", self.h)):
            if not math.isfinite(v):
                raise InputError(f"{name} must be finite, got {v!r}")
        if not (self.h > 0):
            raise InputError(f"nonpositive step h = {self.h}")
        if self.N < 1:
            raise InputError(f"particle count N = {self.N} < 1")
        if not 0 <= self.seed < 2**64:
            raise InputError(f"seed = {self.seed} must lie in [0, 2^64)")
        if min(self.d1, self.d2, self.m) < 1:
            raise InputError(f"d1 = {self.d1}, d2 = {self.d2} and m = {self.m} must be at least 1")
        if not self.T / self.h < 2**40:
            # the noise key holds the step in 40 bits
            raise InputError(f"T = {self.T!r} is 2^40 or more steps of h = {self.h!r}")
        if self.hist is None:
            object.__setattr__(self, "hist", HistogramSpec(-6.0, 6.0, 16, dim=self.d1 + self.d2))
        if self.T < self.h:
            raise InputError(f"horizon T = {self.T} shorter than one step h = {self.h}")
        if off_grid(self.T / self.h):
            raise InputError(f"T/h = {self.T / self.h!r} is not integral within rounding tolerance")
        if np.any(self.hist.bins < 2):
            raise InputError("hist.bins must be at least 2 on every axis")
        if self.hist.dim != self.d1 + self.d2:
            raise InputError(f"histogram dimension {self.hist.dim} "
                             f"does not match d1 + d2 = {self.d1 + self.d2}")
        if self.scheme not in _SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.h))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def record_steps(self, times) -> np.ndarray:
        """The sorted unique steps k of grid times t = k h in [0, T].

        Nothing is rounded off or clipped: any other time raises ``InputError``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        steps = np.round(times / self.h)
        for t, off, k in zip(times.tolist(), off_grid(times / self.h), steps.tolist()):
            if off or not 0 <= k <= self.n_steps:
                raise InputError(f"record time {t:.12g} " + (
                    f"is off the step grid h = {self.h!r}" if off
                    else f"lies outside [0, T = {self.T!r}]"))
        # np.unique would import numpy.ma (1.2 MB) into every run
        return np.array(sorted(set(steps.astype(int).tolist())), dtype=int)


def off_grid(ratio):
    """Whether t / h is farther from a whole number than rounding explains."""
    return np.abs(ratio - np.round(ratio)) > 1e-9 * np.maximum(1.0, ratio)


def _particle_block(v) -> np.ndarray:
    """``v`` as a 2-d float64 array; one already (each step's states) passes as it is."""
    if type(v) is np.ndarray and v.ndim == 2 and v.dtype == np.float64:
        return v
    return np.atleast_2d(np.asarray(v, dtype=float))


@functools.lru_cache(maxsize=8)
def _uniform_weights(n: int) -> np.ndarray:
    """The weights 1/n of n particles, one read-only array per n: a law per step
    shares it instead of filling its own."""
    w = np.full(n, 1.0 / n)
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class EmpiricalLaw:
    """A weighted particle cloud standing in for a probability law.  Its arrays
    are never written after construction: the cloud's bins and histogram are
    kept on it (``ergodicity.histogram_law``)."""

    x: np.ndarray          # (n, d1)
    y: np.ndarray          # (n, d2)
    weights: np.ndarray    # (n,), nonnegative, summing to 1

    def __init__(self, x, y, weights=None):
        x, y = _particle_block(x), _particle_block(y)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y blocks must hold the same number of particles")
        n = x.shape[0]
        if n < 1:
            raise ValueError("a particle cloud needs at least one particle")
        if weights is None:
            w = _uniform_weights(n)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (n,):
                raise ValueError("weights must be one per particle")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            s = math.fsum(w.tolist())
            if s <= 0:
                raise ValueError("weights must have positive total mass")
            w = w / s
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def points(self) -> np.ndarray:
        return np.concatenate([self.x, self.y], axis=1)


@dataclass(frozen=True)
class MeasureFlow:
    """Particle clouds at strictly increasing grid times: a flow of laws.  A run
    recorded only to be compared holds some slices as their histograms."""

    times: np.ndarray
    clouds: list  # EmpiricalLaw, or ergodicity.HistogramLaw

    def __post_init__(self):
        if len(self.clouds) != self.times.size:
            raise ValueError("one cloud per grid time required")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("flow times must be strictly increasing")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.times.tolist())})

    def law_at(self, t: float) -> EmpiricalLaw:
        """The cloud recorded at exactly t; the step loop's k h is the recorded k h."""
        if t not in self._index:
            raise ValueError(f"flow recorded no law at t = {t!r}")
        return self.clouds[self._index[t]]


def _check_nondegenerate(sigma: np.ndarray):
    """Refuse a sigma unless sigma sigma* is invertible and both ||sigma|| and
    ||(sigma sigma*)^-1|| are finite and positive."""
    with np.errstate(all="ignore"):  # an overflow or a nan fails the check below
        try:
            inv = np.linalg.inv(sigma @ sigma.T)
        except np.linalg.LinAlgError:
            raise InputError(f"sigma sigma* is singular for sigma = {sigma.tolist()}") from None
        try:
            ok = all(0.0 < np.linalg.norm(a, 2) < math.inf for a in (sigma, inv))
        except np.linalg.LinAlgError:  # the SVD of a nan or inf entry does not converge
            ok = False
        if not ok:
            raise InputError("sigma is degenerate: ||sigma|| or ||(sigma sigma*)^-1|| "
                             f"is not finite and positive for sigma = {sigma.tolist()}")


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion fields of the system plus structural metadata.

    ``z1(t, x, y) -> (n, d1)``, ``z2(t, x, y, law) -> (n, d2)``,
    ``b(t, y) -> (n, d2)`` (``None`` means zero), and ``sigma`` is either a
    constant ``(d2, m)`` matrix or a callable ``(t, y) -> (n, d2, m)``.
    A constant sigma is zero (noise-free diagnostic dynamics) or
    nondegenerate, which construction checks.
    """

    d1: int
    d2: int
    m: int
    z1: Callable
    z2: Callable
    b: Callable | None
    sigma: np.ndarray | Callable
    growth: str = "linear"  # one of bounded | linear | superlinear

    def __post_init__(self):
        if isinstance(self.sigma, np.ndarray) and np.any(self.sigma):
            _check_nondegenerate(self.sigma)
        if self.growth not in ("bounded", "linear", "superlinear"):
            raise ValueError(f"unknown growth class {self.growth!r}")
        if not isinstance(self.sigma, np.ndarray) and not callable(self.sigma):
            raise ValueError("sigma must be a constant matrix or a callable")

    def drift_y(self, t: float, x: np.ndarray, y: np.ndarray, law: EmpiricalLaw | None) -> np.ndarray:
        """Full y-block drift Z2 + b."""
        out = self.z2(t, x, y, law)
        if self.b is not None:
            out = out + self.b(t, y)
        return out

    def sigma_at(self, t: float, y: np.ndarray) -> np.ndarray:
        """sigma at (t, y): the constant (d2, m) matrix, or the callable's (n, d2, m)
        block.  Either broadcasts against a per-particle (n, ...) block, so no
        caller asks which form sigma has."""
        if isinstance(self.sigma, np.ndarray):
            return self.sigma
        return self.sigma(t, y)

    def apply_sigma(self, t: float, y: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """sigma(t, y) @ dw per particle; dw is (n, m)."""
        if isinstance(self.sigma, np.ndarray):
            # np.dot, not @: same bytes, about 10x cheaper for an (n, 1) block
            return np.dot(dw, self.sigma.T)
        sig = self.sigma(t, y)
        return np.einsum("nij,nj->ni", sig, dw)


# --- initial law specifications -------------------------------------------------

@dataclass(frozen=True)
class DiracInit:
    """All particles start at one phase point (x, y); x carries no noise, y does."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        for name, v in (("x", x), ("y", y)):
            arr = np.atleast_1d(np.asarray(v, dtype=float))
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a flat vector, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InputError("DiracInit coordinates must be finite")

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.tile(self.x, (n, 1)), np.tile(self.y, (n, 1)))


@dataclass(frozen=True)
class CloudInit:
    """Start from an existing particle cloud (size must match N)."""

    law: EmpiricalLaw

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.law.n != n:
            raise ValueError(f"cloud has {self.law.n} particles, config wants {n}")
        return self.law.x.copy(), self.law.y.copy()


# --- localized L^p-in-space, L^q-in-time norm ------------------------------------

def _field_magnitude(f: Callable, t: float, pts: np.ndarray) -> np.ndarray:
    """|f_t| at each point; vector-valued fields reduce to Euclidean norm."""
    vals = np.asarray(f(t, pts), dtype=float)
    return _row_norm(vals) if vals.ndim == 2 else vals


def ball_lp_seminorm(
    f: Callable,
    t: float,
    center: np.ndarray,
    p: float,
    n_per_axis: int = 41,
) -> float:
    """(integral of |f_t|^p over the unit ball around ``center``)^(1/p).

    Midpoint rule on a product grid intersected with the ball; deterministic,
    error controlled by refinement.  ``p = 1`` recovers the plain integral,
    which is how the quadrature is validated against closed forms; ``p = inf``
    is the max of |f_t| over the grid's points in the ball.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    if d > 3:
        raise InputError("ball quadrature supports d2 <= 3")
    edges = np.linspace(-1.0, 1.0, n_per_axis + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    cell = (2.0 / n_per_axis) ** d
    grids = np.meshgrid(*([mids] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=-1)
    inside = np.sum(offs * offs, axis=1) <= 1.0
    pts = center[None, :] + offs[inside]
    mags = _field_magnitude(f, t, pts)
    if p == math.inf:
        return float(np.max(mags))
    return float(np.sum(mags**p) * cell) ** (1.0 / p)


def localized_lpq_norm(
    f: Callable,
    pair: AdmissiblePair,
    T: float,
    centers: np.ndarray,
    n_time: int = 33,
    n_ball: int = 41,
) -> float:
    """sup over centers y of (int_0^T ||1_{B_1(y)} f_t||_{L^p}^q dt)^(1/q).

    ``centers`` should cover the region where the norm may be attained (a
    lattice plus any declared singular atoms of ``f``); the sup over all of
    space is unattainable numerically, so this is grid-resolution evidence
    only.  At ``q = inf`` the time norm is the max over the time grid.  Raises
    :class:`NormDivergedError` if quadrature is non-finite at some center.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    t_grid = np.linspace(0.0, T, n_time)
    best = 0.0
    for c in centers:
        with np.errstate(over="ignore"):  # an overflow is reported as the divergence below
            g = np.array([ball_lp_seminorm(f, t, c, pair.p, n_ball) for t in t_grid])
            val = (float(np.max(g)) if pair.q == math.inf
                   else float(np.trapezoid(g**pair.q, t_grid)) ** (1.0 / pair.q))
        if not np.isfinite(val):
            raise NormDivergedError(c)
        best = max(best, val)
    return best
