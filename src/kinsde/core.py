"""Domain types, configuration, and the localized integrability norm.

Everything here is immutable after construction and safe to share across
threads.  Field callables are vectorized over particles: position blocks
are ``(n, d1)`` arrays, velocity blocks ``(n, d2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class NormDivergedError(ArithmeticError):
    """Quadrature of the localized norm produced a non-finite value.

    Signals that the sampled function is not in the integrability class at
    this resolution.  Carries the offending center.
    """

    def __init__(self, center: np.ndarray):
        self.center = np.asarray(center, dtype=float)
        super().__init__(f"norm diverged at reported center {self.center.tolist()}")


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a flat vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PhaseState:
    """A point (x, y) in phase space; x carries no noise, y does."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", _as_vector(x, "x"))
        object.__setattr__(self, "y", _as_vector(y, "y"))
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("PhaseState coordinates must be finite")

    @property
    def d1(self) -> int:
        return self.x.size

    @property
    def d2(self) -> int:
        return self.y.size


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
            raise ValueError(f"require p, q > 2, got (p, q) = ({self.p}, {self.q})")
        if self.d2 < 1:
            raise ValueError("d2 must be a positive dimension")
        if self.deficiency >= 1.0:
            raise ValueError(
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
        bins = np.atleast_1d(np.asarray(bins, dtype=int))
        if dim is not None:
            if lo.size == 1:
                lo = np.full(dim, lo[0])
            if hi.size == 1:
                hi = np.full(dim, hi[0])
            if bins.size == 1:
                bins = np.full(dim, bins[0])
        if not (lo.size == hi.size == bins.size):
            raise ValueError("lo, hi, bins must agree in length")
        if np.any(hi <= lo):
            raise ValueError("histogram box must have hi > lo on every axis")
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
    """Simulation parameters shared by every experiment; h > 0 and N >= 1."""

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
        if not (self.h > 0):
            raise ValueError(f"nonpositive step h = {self.h}")
        if self.N < 1:
            raise ValueError(f"particle count N = {self.N} < 1")
        if self.hist is None:
            object.__setattr__(self, "hist", HistogramSpec(-6.0, 6.0, 16, dim=self.d1 + self.d2))

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.h))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def record_steps(self, times) -> np.ndarray:
        """The sorted unique steps k of grid times t = k h in [0, T].

        Nothing is rounded off or clipped: any other time raises ``ValueError``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        steps = np.round(times / self.h)
        for t, off, k in zip(times.tolist(), _off_grid(times / self.h), steps.tolist()):
            if off or not 0 <= k <= self.n_steps:
                raise ValueError(f"record time {t:.12g} " + (
                    f"is off the step grid h = {self.h!r}" if off
                    else f"lies outside [0, T = {self.T!r}]"))
        return np.unique(steps.astype(int))


def _off_grid(ratio):
    """Whether t / h is farther from a whole number than rounding explains."""
    return np.abs(ratio - np.round(ratio)) > 1e-9 * np.maximum(1.0, ratio)


@dataclass(frozen=True)
class EmpiricalLaw:
    """A weighted particle cloud standing in for a probability law."""

    x: np.ndarray          # (n, d1)
    y: np.ndarray          # (n, d2)
    weights: np.ndarray    # (n,), nonnegative, summing to 1

    def __init__(self, x, y, weights=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y blocks must hold the same number of particles")
        n = x.shape[0]
        if n < 1:
            raise ValueError("a particle cloud needs at least one particle")
        if weights is None:
            w = np.full(n, 1.0 / n)
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
    """Particle clouds at strictly increasing grid times: a flow of laws."""

    times: np.ndarray
    clouds: list[EmpiricalLaw]

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


@dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion fields of the system plus structural metadata.

    ``z1(t, x, y) -> (n, d1)``, ``z2(t, x, y, law) -> (n, d2)``,
    ``b(t, y) -> (n, d2)`` (``None`` means zero), and ``sigma`` is either a
    constant ``(d2, m)`` matrix or a callable ``(t, y) -> (n, d2, m)``.
    ``sigma_bounds = (sup ||sigma||, sup ||(sigma sigma*)^-1||)``.
    """

    d1: int
    d2: int
    m: int
    z1: Callable
    z2: Callable
    b: Callable | None
    sigma: np.ndarray | Callable
    sigma_bounds: tuple[float, float]
    measure_dependent: bool = False
    growth: str = "linear"  # one of bounded | linear | superlinear

    def __post_init__(self):
        lo = min(self.sigma_bounds)
        hi = max(self.sigma_bounds)
        noise_free = isinstance(self.sigma, np.ndarray) and not np.any(self.sigma)
        if noise_free:
            # deterministic diagnostic dynamics are representable with bounds (0, 0)
            if hi != 0.0:
                raise ValueError("zero sigma must declare sigma_bounds = (0, 0)")
        elif not (np.isfinite(hi) and lo > 0):
            raise ValueError("sigma_bounds must be finite and positive (nondegenerate noise)")
        if self.growth not in ("bounded", "linear", "superlinear"):
            raise ValueError(f"unknown growth class {self.growth!r}")
        if not isinstance(self.sigma, np.ndarray) and not callable(self.sigma):
            raise ValueError("sigma must be a constant matrix or a callable")

    def drift_y(self, t: float, x: np.ndarray, y: np.ndarray, law: EmpiricalLaw | None) -> np.ndarray:
        """Full y-block drift Z2 + b."""
        out = self.z2(t, x, y, law) if self.measure_dependent else self.z2(t, x, y, None)
        if self.b is not None:
            out = out + self.b(t, y)
        return out

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
    """All particles start at one phase point."""

    state: PhaseState

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.tile(self.state.x, (n, 1)), np.tile(self.state.y, (n, 1)))


@dataclass(frozen=True)
class CloudInit:
    """Start from an existing particle cloud (size must match N)."""

    law: EmpiricalLaw

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self.law.n != n:
            raise ValueError(f"cloud has {self.law.n} particles, config wants {n}")
        return self.law.x.copy(), self.law.y.copy()


# --- configuration validation ---------------------------------------------------

def validate_config(
    cfg: SimConfig,
    coeffs: CoefficientSet,
    pairs: Sequence[tuple[float, float]] = (),
) -> list[str]:
    """Collect structural violations; an empty list means valid.

    Report-style on purpose: callers decide whether a violation is fatal.
    """
    bad: list[str] = []
    if cfg.T < cfg.h:
        bad.append(f"horizon T = {cfg.T} shorter than one step h = {cfg.h}")
    k = cfg.T / cfg.h
    if _off_grid(k):
        bad.append(f"T/h = {k!r} is not integral within rounding tolerance")
    if np.any(cfg.hist.bins < 2):
        bad.append("histogram needs at least 2 bins per axis")
    if cfg.hist.dim != cfg.d1 + cfg.d2:
        bad.append(
            f"histogram dimension {cfg.hist.dim} does not match d1 + d2 = {cfg.d1 + cfg.d2}"
        )
    if cfg.scheme not in _SCHEMES:
        bad.append(f"unknown scheme {cfg.scheme!r}")
    if (cfg.d1, cfg.d2, cfg.m) != (coeffs.d1, coeffs.d2, coeffs.m):
        bad.append(
            f"config dims (d1, d2, m) = {(cfg.d1, cfg.d2, cfg.m)} "
            f"do not match coefficients {(coeffs.d1, coeffs.d2, coeffs.m)}"
        )
    if coeffs.growth == "superlinear" and cfg.scheme != "tamed":
        bad.append("superlinear drift requires tamed scheme")
    for (p, q) in pairs:
        try:
            AdmissiblePair(p, q, cfg.d2)
        except ValueError as exc:
            bad.append(str(exc))
    return bad


# --- localized L^p-in-space, L^q-in-time norm ------------------------------------

def _field_magnitude(f: Callable, t: float, pts: np.ndarray) -> np.ndarray:
    """|f_t| at each point; vector-valued fields reduce to Euclidean norm."""
    vals = np.asarray(f(t, pts), dtype=float)
    if vals.ndim == 2:
        vals = np.sqrt(np.sum(vals * vals, axis=1))
    return vals


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
    which is how the quadrature is validated against closed forms.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    if d > 3:
        raise ValueError("ball quadrature supports d2 <= 3")
    edges = np.linspace(-1.0, 1.0, n_per_axis + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    cell = (2.0 / n_per_axis) ** d
    grids = np.meshgrid(*([mids] * d), indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=-1)
    inside = np.sum(offs * offs, axis=1) <= 1.0
    pts = center[None, :] + offs[inside]
    mags = _field_magnitude(f, t, pts)
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
    only.  Raises :class:`NormDivergedError` if quadrature is non-finite at
    some center.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    t_grid = np.linspace(0.0, T, n_time)
    best = 0.0
    for c in centers:
        g = np.array([ball_lp_seminorm(f, t, c, pair.p, n_ball) for t in t_grid])
        val = float(np.trapezoid(g**pair.q, t_grid)) ** (1.0 / pair.q)
        if not np.isfinite(val):
            raise NormDivergedError(c)
        best = max(best, val)
    return best
